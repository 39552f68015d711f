"""Deciding strong Nielsen equivalence of periodic orbits.

Two period-m orbits of a disc homeomorphism fixing a set A of n points are
strong Nielsen equivalent relative to A exactly when their mixed braids are
conjugate by an element of the kernel subgroup. The decision runs in stages:
cheap invariants, full-group conjugacy, then, with at most two points in A,
a shift of the full-group conjugator into the kernel by powers of the full
twist and of the orbit braid, and a bounded search for a kernel conjugator
where that finds none. Verdicts are three valued and always carry evidence.
"""

import snbraid as sb

n, m = 2, 1
beta_A = sb.BraidWord.parse(2, "s1")
A1 = sb.BraidWord.parse(3, "s2 s1 s1 S2")
A2 = sb.BraidWord.parse(3, "s2 s2")

# equivalent by construction: conjugate the assembled braid by a kernel
# element and read the resulting orbit braid back off
by = sb.compose(sb.section(n, m, beta_A).word, A2)
conj = sb.free_reduce(A1 * by * sb.invert(A1))
ox = sb.decompose(sb.MixedBraid(n, m, conj)).kernel_part

inst = sb.SNInstance(n, m, beta_A, ox, A2)
v = sb.sn_equivalent_rel_A(inst)
print(f"constructed pair: {v.status}, witness = {v.witness}")

# the twisted-conjugacy formulation reaches the same verdict
v2 = sb.sn_equivalent_twisted(inst)
print(f"twisted formulation agrees: {v2.status}")
print()

# loops around different punctures are genuinely different orbits
v3 = sb.sn_equivalent_rel_A(sb.SNInstance(2, 1, sb.BraidWord.identity(2), A1, A2))
print(f"A_1 vs A_2 rel two fixed points: {v3.status}")
print(f"certificate: {v3.certificate.invariant}")
print()

# with an empty invariant set the question degenerates to braid type,
# i.e. plain conjugacy of the orbit braids
u = sb.BraidWord.parse(3, "s1 s2")
w = sb.BraidWord.parse(3, "s2 s1")
inst0 = sb.SNInstance(0, 3, sb.BraidWord(0, ()), u, w)
print(f"empty A: {sb.sn_equivalent_rel_A(inst0).status}")
print(f"plain conjugacy says: {sb.braid_type_equal(u, w).conjugate}")
