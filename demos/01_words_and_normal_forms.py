"""Braid words and Garside normal forms.

A braid word is a sequence of Artin generators: `s2` crosses strands 2 and 3
positively, `S2` is its inverse, and words compose left to right. Every
element of the braid group has a unique left canonical form Delta^p A_1...A_k,
which is what makes equality of braids decidable.
"""

import snbraid as sb

w = sb.BraidWord.parse(3, "s1 s2 s1")
print(f"word:            {w}")
print(f"permutation:     {sb.permutation(w).images}")
print(f"exponent sum:    {sb.exponent_sum(w)}")

cf = sb.canonical_form(w)
print(f"canonical form:  Delta^{cf.delta_power} with factors {cf.to_json()['factors']}")
print("(sigma1 sigma2 sigma1 is exactly the half twist of B_3)")
print()

# the braid relation makes these two spellings the same element
a = sb.BraidWord.parse(3, "s1 s2 s1")
b = sb.BraidWord.parse(3, "s2 s1 s2")
print(f"{a}  ==  {b} ?  {sb.equal(a, b)}")

# free cancellation and the word problem
c = sb.BraidWord.parse(3, "s1 s2 S2 S1")
print(f"{c} is trivial?  {sb.equal(c, sb.BraidWord.identity(3))}")
print()

# the full twist generates the center
tw = sb.full_twist(4)
conj = sb.BraidWord.parse(4, "s3 S1 s2") * tw * sb.invert(sb.BraidWord.parse(4, "s3 S1 s2"))
print(f"full twist of B_4 is central: {sb.equal(conj, tw)}")
