"""Conjugacy decisions with explicit witnesses.

Two braids are conjugate exactly when their closures are isotopic links in
the solid torus, so conjugacy is the right notion of "same braid up to where
you start looking". The engine decides it via summit sets and returns a
conjugating witness that can be re-verified independently.
"""

import random

import snbraid as sb

a = sb.BraidWord.parse(3, "s1")
b = sb.BraidWord.parse(3, "s2")
res = sb.is_conjugate(a, b)
print(f"{a} ~ {b} ?  {res.conjugate}, witness c = {res.witness}")
c = res.witness
print(f"check c b c^-1 == a:  {sb.equal(a, c * b * sb.invert(c))}")
print()

# a randomly scrambled conjugate is always recovered
rng = random.Random(0)
base = sb.BraidWord(4, tuple(rng.choice([1, -1]) * rng.randint(1, 3) for _ in range(15)))
scramble = sb.BraidWord(4, tuple(rng.choice([1, -1]) * rng.randint(1, 3) for _ in range(8)))
hidden = sb.free_reduce(scramble * base * sb.invert(scramble))
res = sb.is_conjugate(hidden, base)
print(f"scrambled 15-letter braid recovered: {res.conjugate}")
print()

# opposite signs can never be conjugate: exponent sum is invariant
print(f"s1 ~ S1 ?  {sb.is_conjugate(a, sb.BraidWord.parse(3, 'S1')).conjugate}")
