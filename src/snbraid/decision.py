"""
Decision procedures for strong Nielsen equivalence of periodic orbits
relative to an invariant point set, reduced to conjugacy questions in mixed
braid groups.

Two orbits with kernel parts beta_ox, beta_oy over the same base braid
beta_A are equivalent iff the assembled mixed braids beta_x = section(beta_A)
* beta_ox and beta_y = section(beta_A) * beta_oy are conjugate by a KERNEL
element; equivalently iff beta_ox = phi_{beta_A}(c) * beta_oy * c^-1 for some
kernel c (the twisted-conjugacy form). Both formulations are implemented and
must agree.

The kernel-restricted conjugacy problem has no known complete desk-scale
algorithm, so verdicts are three-valued: certified Equivalent (with a
verifying witness), certified NotEquivalent (an invariant mismatch or a
failed conjugacy test in the ambient group), or an honest Inconclusive with
the exhausted search budget. The pipeline is staged so cheap certificates
short-circuit the bounded search: invariants, then full-group conjugacy,
then a meet-in-the-middle search for a shortest kernel conjugator over the
standard kernel generators, grown from both beta_y and beta_x.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import warnings
from concurrent.futures import ThreadPoolExecutor
from typing import Callable

from .garside import CanonicalForm, ConjugacyResult, canonical_form, is_conjugate
from .invariants import cycle_type, linking_matrix
from .mixed import (
    MixedBraid,
    ensure_kernel,
    kernel_generators,
    section,
)
from .words import (
    BraidWord,
    compose,
    exponent_sum,
    free_reduce,
    invert,
    permutation,
)

EQUIVALENT = "Equivalent"
NOT_EQUIVALENT = "NotEquivalent"
INCONCLUSIVE = "Inconclusive"


@dataclasses.dataclass(frozen=True)
class Budget:
    """Bounds on the kernel-conjugator search: `max_length` is the total
    length of the conjugator c in generators, and `max_states` bounds the
    states generated on both sides of the search together."""

    max_length: int = 8
    max_states: int = 200000

    def __post_init__(self):
        for name in ("max_length", "max_states"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(f"{name} must be an int, got {value!r}")
            if value < 0:
                raise ValueError(f"{name} must be >= 0, got {value}")


@dataclasses.dataclass(frozen=True)
class Certificate:
    """A named, machine-checked reason for a NotEquivalent verdict. The two
    invariant values are ints or nested tuples of ints and strings, which
    `json.dumps` writes as numbers and arrays."""

    invariant: str
    lhs: object = None
    rhs: object = None

    def to_json(self) -> dict:
        return {"invariant": self.invariant, "lhs": self.lhs, "rhs": self.rhs}


@dataclasses.dataclass(frozen=True)
class BudgetReport:
    max_length_tried: int
    states_enumerated: int


@dataclasses.dataclass(frozen=True)
class SNVerdict:
    status: str
    witness: BraidWord | None = None
    certificate: Certificate | None = None
    budget_report: BudgetReport | None = None

    def to_json(self) -> dict:
        out: dict = {"status": self.status}
        if self.witness is not None:
            out["witness"] = self.witness.format()
        if self.certificate is not None:
            out["certificate"] = self.certificate.to_json()
        if self.budget_report is not None:
            out["budget"] = {
                "max_len": self.budget_report.max_length_tried,
                "states": self.budget_report.states_enumerated,
            }
        return out


@dataclasses.dataclass(frozen=True)
class SNInstance:
    """One equivalence question: base braid plus two kernel orbit braids."""

    n: int
    m: int
    beta_A: BraidWord
    beta_ox: BraidWord
    beta_oy: BraidWord
    # The two assembled mixed braids and their canonical forms, built once
    # by __post_init__.
    _mixed_x: MixedBraid = dataclasses.field(init=False, repr=False, compare=False)
    _mixed_y: MixedBraid = dataclasses.field(init=False, repr=False, compare=False)
    _cf_x: CanonicalForm = dataclasses.field(init=False, repr=False, compare=False)
    _cf_y: CanonicalForm = dataclasses.field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.beta_A.strands != self.n:
            raise ValueError(
                f"base braid has {self.beta_A.strands} strands, expected {self.n}"
            )
        for name, w in (("beta_ox", self.beta_ox), ("beta_oy", self.beta_oy)):
            _check_orbit(self.n, self.m, name, w)
        lift = section(self.n, self.m, self.beta_A).word
        for side, w in (("x", self.beta_ox), ("y", self.beta_oy)):
            braid = MixedBraid(self.n, self.m, compose(lift, w))
            object.__setattr__(self, f"_mixed_{side}", braid)
            object.__setattr__(self, f"_cf_{side}", canonical_form(braid.word))

    def mixed_x(self) -> MixedBraid:
        """section(beta_A) * beta_ox."""
        return self._mixed_x

    def mixed_y(self) -> MixedBraid:
        """section(beta_A) * beta_oy."""
        return self._mixed_y


def _check_orbit(n: int, m: int, name: str, w: BraidWord) -> None:
    """Require w in the kernel; warn when it does not permute the orbit
    block as a single m-cycle."""
    ensure_kernel(n, m, w)
    perm = permutation(w)
    orbit = [perm(i) for i in range(n + 1, n + m + 1)]
    if m >= 1 and _orbit_cycle_count(orbit, n) != 1:
        warnings.warn(
            f"{name} does not induce a single {m}-cycle on the "
            "orbit block; treating it as a formal instance",
            stacklevel=3,
        )


def _assembled_instance(
    n: int,
    m: int,
    beta_A: BraidWord,
    x: tuple[BraidWord, MixedBraid, CanonicalForm],
    y: tuple[BraidWord, MixedBraid, CanonicalForm],
) -> SNInstance:
    """The SNInstance of two (orbit word, mixed braid, its canonical form)
    triples that were checked and assembled already: __post_init__ is
    skipped, so neither orbit is validated again and the mixed braids and
    their forms are reused."""
    inst = object.__new__(SNInstance)
    for name, value in (
        ("n", n), ("m", m), ("beta_A", beta_A),
        ("beta_ox", x[0]), ("beta_oy", y[0]),
        ("_mixed_x", x[1]), ("_mixed_y", y[1]),
        ("_cf_x", x[2]), ("_cf_y", y[2]),
    ):
        object.__setattr__(inst, name, value)
    return inst


def _orbit_cycle_count(orbit_images: list[int], n: int) -> int:
    m = len(orbit_images)
    seen = set()
    count = 0
    for s in range(m):
        if s in seen:
            continue
        count += 1
        j = s
        while j not in seen:
            seen.add(j)
            j = orbit_images[j] - n - 1
    return count


def braid_type_equal(a: BraidWord, b: BraidWord) -> ConjugacyResult:
    """Braid-type equality: plain conjugacy in B_m. A positive answer means
    the two orbits are strong Nielsen equivalent with empty invariant set."""
    return is_conjugate(a, b)


def _screen_invariants(inst: SNInstance) -> Certificate | None:
    """Run the cheap conjugacy invariants; any mismatch is a certificate.

    The Burau characteristic polynomial of the whole mixed braid is not
    screened: it is an invariant of conjugacy in the ambient B_{n+m}, so
    every pair it separates is also rejected by the ambient `is_conjugate`
    test that follows, and screening it cannot change a verdict.

    `partition_sn_classes` buckets orbits by these same values, so the two
    must screen the same invariants."""
    ex, ey = exponent_sum(inst.beta_ox), exponent_sum(inst.beta_oy)
    if ex != ey:
        return Certificate("exponent_sum", ex, ey)
    bx, by = inst.mixed_x(), inst.mixed_y()
    cx, cy = cycle_type(bx), cycle_type(by)
    if cx != cy:
        return Certificate("cycle_type", cx, cy)
    lx, ly = linking_matrix(bx), linking_matrix(by)
    if lx != ly:
        return Certificate("linking_matrix", lx, ly)
    return None


@functools.lru_cache(maxsize=None)
def _kernel_alphabet(
    n: int, m: int
) -> tuple[dict[int, BraidWord], tuple[tuple[int, CanonicalForm, CanonicalForm], ...]]:
    """The letters of the kernel search for (n, m): each standard kernel
    generator i and its inverse are letters i + 1 and -(i + 1). Returns the
    word of each letter and, per letter, (letter, form, inverse form)."""
    spelling: dict[int, BraidWord] = {}
    alphabet = []
    for sign in (1, -1):
        for i, g in enumerate(kernel_generators(n, m)):
            word = g if sign == 1 else invert(g)
            cf = canonical_form(word)
            spelling[sign * (i + 1)] = word
            alphabet.append((sign * (i + 1), cf, cf.inv()))
    return spelling, tuple(alphabet)


def _search_kernel_conjugator(
    inst: SNInstance,
    budget: Budget,
    accept: Callable[[BraidWord, CanonicalForm], bool],
) -> tuple[BraidWord | None, BudgetReport]:
    """Meet-in-the-middle search, shortest first, for a kernel element
    c = v * u with c * beta_y * c^-1 = beta_x, over the standard generators
    and their inverses.

    The forward side holds conjugates u * beta_y * u^-1 and grows u by
    PREPENDING a generator g, one simple conjugation g * . * g^-1 per state;
    the backward side holds v^-1 * beta_x * v and grows v by APPENDING g,
    g^-1 * . * g. Each side keeps a visited map keyed by the canonical form
    of its conjugate, and that dedup is sound: two words with the same
    conjugate have identical futures on their side. Growing the other end
    instead would not be: the next conjugate would depend on the word.

    For total length l = 1 .. max_length one side grows one level, forward
    on odd l and backward on even l, so after level l the sides reach
    depths ceil(l/2) and floor(l/2) and every reduced c of length <= l
    splits as v * u across them. Each new state is checked against the
    other side's visited map, all of its depths, so every length below l
    is checked before level l and the first match is a shortest c. A state
    holds only the letter tags of its word, the letter next to the growing
    end first, and its conjugate, so it costs two products. On a match c
    is spelled from the two tags and passed to `accept`, which re-verifies
    it; both formulations accept exactly the c with c * beta_y * c^-1 =
    beta_x, and should `accept` refuse, the search goes on. `states`
    counts the identity and every state generated on either side."""
    identity = BraidWord.identity(inst.n + inst.m)
    states = 1
    max_len_tried = 0
    if accept(identity, canonical_form(identity)):
        return identity, BudgetReport(0, states)

    spelling, forward = _kernel_alphabet(inst.n, inst.m)
    # Each side conjugates by (left, right): g * . * g^-1 forward,
    # g^-1 * . * g backward.
    backward = [(letter, g_inv_cf, g_cf) for letter, g_cf, g_inv_cf in forward]

    start, target = inst._cf_y, inst._cf_x
    # visited[side] maps a conjugate to the tag of its word; side 0 is
    # forward (tag of u, first letter first), side 1 backward (tag of v,
    # last letter first).
    visited: tuple[dict[CanonicalForm, tuple[int, ...]], ...] = (
        {start: ()},
        {target: ()},
    )
    frontiers = [[((), start)], [((), target)]]
    for length in range(1, budget.max_length + 1):
        max_len_tried = length
        side = 1 - length % 2
        seen, other = visited[side], visited[1 - side]
        alphabet = backward if side else forward
        nxt = []
        for tag, conj_cf in frontiers[side]:
            for letter, left, right in alphabet:
                if tag and tag[0] == -letter:
                    continue
                states += 1
                if states > budget.max_states:
                    return None, BudgetReport(max_len_tried, states)
                new_conj = left.mul(conj_cf).mul(right)
                if new_conj in seen:
                    continue
                new_tag = (letter,) + tag
                seen[new_conj] = new_tag
                if new_conj in other:
                    tags = (new_tag, other[new_conj])
                    u_tag, v_tag = tags if side == 0 else tags[::-1]
                    c = identity
                    for t in v_tag[::-1] + u_tag:
                        c = compose(c, spelling[t])
                    c = free_reduce(c)
                    if accept(c, canonical_form(c)):
                        return c, BudgetReport(length, states)
                nxt.append((new_tag, new_conj))
        frontiers[side] = nxt
    return None, BudgetReport(max_len_tried, states)


def _decide(
    inst: SNInstance,
    budget: Budget,
    accept: Callable[[BraidWord, CanonicalForm], bool],
) -> SNVerdict:
    cert = _screen_invariants(inst)
    if cert is not None:
        return SNVerdict(NOT_EQUIVALENT, certificate=cert)

    bx, by = inst.mixed_x().word, inst.mixed_y().word
    full = is_conjugate(bx, by)
    if not full.conjugate:
        return SNVerdict(
            NOT_EQUIVALENT,
            certificate=Certificate(f"not conjugate in B_{inst.n + inst.m}"),
        )
    if inst.n == 0:
        # Empty invariant set: the kernel is the whole group, so the ambient
        # conjugacy witness already certifies equivalence (Corollary-level
        # degeneration to braid-type equality).
        return SNVerdict(EQUIVALENT, witness=full.witness)

    witness, report = _search_kernel_conjugator(inst, budget, accept)
    if witness is not None:
        return SNVerdict(EQUIVALENT, witness=free_reduce(witness))
    return SNVerdict(INCONCLUSIVE, budget_report=report)


def sn_equivalent_rel_A(inst: SNInstance, budget: Budget = Budget()) -> SNVerdict:
    """Strong Nielsen equivalence relative to the invariant set: search for a
    kernel element c with beta_x = c * beta_y * c^-1."""
    bx_cf, by_cf = inst._cf_x, inst._cf_y

    def accept(c: BraidWord, c_cf: CanonicalForm) -> bool:
        return c_cf.mul(by_cf).mul(c_cf.inv()) == bx_cf

    return _decide(inst, budget, accept)


def sn_equivalent_twisted(inst: SNInstance, budget: Budget = Budget()) -> SNVerdict:
    """Twisted-conjugacy formulation: search for a kernel element c with
    beta_ox = phi_{beta_A}(c) * beta_oy * c^-1. Agrees with
    sn_equivalent_rel_A on every instance. The forms `accept` needs are
    built on its first call, so an instance the screens or the ambient
    test settle builds none."""

    @functools.cache
    def forms() -> tuple[CanonicalForm, ...]:
        lift_cf = canonical_form(section(inst.n, inst.m, inst.beta_A).word)
        return lift_cf, lift_cf.inv(), canonical_form(inst.beta_ox), canonical_form(inst.beta_oy)

    def accept(c: BraidWord, c_cf: CanonicalForm) -> bool:
        lift_cf, lift_inv_cf, ox_cf, oy_cf = forms()
        twisted = lift_inv_cf.mul(c_cf).mul(lift_cf)
        return twisted.mul(oy_cf).mul(c_cf.inv()) == ox_cf

    return _decide(inst, budget, accept)


def fixed_point_case(
    n: int,
    beta_A: BraidWord,
    u: BraidWord,
    v: BraidWord,
    budget: Budget = Budget(),
) -> SNVerdict:
    """The m = 1 specialization: the kernel is free of rank n, generated by
    the loops of the single extra strand around the punctures, and the
    decision is Reidemeister (twisted-conjugacy) equivalence of u and v in
    that free group."""
    inst = SNInstance(n, 1, beta_A, u, v)
    return sn_equivalent_rel_A(inst, budget)


@dataclasses.dataclass(frozen=True)
class PartitionResult:
    classes: tuple[tuple[int, ...], ...]
    unresolved: tuple[tuple[int, int], ...]

    def to_json(self) -> dict:
        return {
            "classes": [list(c) for c in self.classes],
            "unresolved": [list(p) for p in self.unresolved],
        }


class _UnionFind:
    def __init__(self, size: int):
        self.parent = list(range(size))

    def find(self, i: int) -> int:
        while self.parent[i] != i:
            self.parent[i] = self.parent[self.parent[i]]
            i = self.parent[i]
        return i

    def union(self, i: int, j: int):
        ri, rj = self.find(i), self.find(j)
        if ri != rj:
            self.parent[max(ri, rj)] = min(ri, rj)


def partition_sn_classes(
    n: int,
    m: int,
    beta_A: BraidWord,
    orbits: list[BraidWord],
    budget: Budget = Budget(),
    workers: int = 1,
) -> PartitionResult:
    """Partition a list of kernel orbit braids into strong Nielsen classes.

    The base braid and every orbit are validated first, once, even when
    there are fewer than two orbits and no pair to decide. Each orbit's
    mixed braid section(beta_A) * w, its canonical form and its screen key
    (exponent sum of w, cycle type and linking matrix of the mixed braid)
    are computed once, and the orbits are grouped into buckets of equal
    key. The key holds exactly the values `_screen_invariants` compares, so
    a pair across two buckets is NotEquivalent by certificate and is never
    decided.

    Within a bucket the pairs are decided in (i, j) order with
    `sn_equivalent_rel_A`, skipping a pair that Equivalent verdicts have
    already put in one class; Inconclusive pairs are never merged. A class
    is named by its smallest index, so the classes are those of deciding
    every pair. `unresolved` lists, sorted, the Inconclusive pairs whose
    final classes differ: an Inconclusive pair that ends inside one class
    is equivalent by transitivity through pairs with witnesses, and is
    dropped.

    With `workers > 1` the buckets, each decided in order, are spread over
    a thread pool; the result does not depend on the worker count."""
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    lift = section(n, m, beta_A).word
    assembled = []
    buckets: dict[tuple, list[int]] = {}
    for i, w in enumerate(orbits):
        _check_orbit(n, m, f"orbit {i}", w)
        braid = MixedBraid(n, m, compose(lift, w))
        assembled.append((w, braid, canonical_form(braid.word)))
        key = (exponent_sum(w), cycle_type(braid), linking_matrix(braid))
        buckets.setdefault(key, []).append(i)

    def decide(bucket: list[int]) -> tuple[list[tuple[int, ...]], list[tuple[int, int]]]:
        uf = _UnionFind(len(bucket))
        inconclusive = []
        for a, b in itertools.combinations(range(len(bucket)), 2):
            if uf.find(a) == uf.find(b):
                continue
            inst = _assembled_instance(
                n, m, beta_A, assembled[bucket[a]], assembled[bucket[b]]
            )
            status = sn_equivalent_rel_A(inst, budget).status
            if status == EQUIVALENT:
                uf.union(a, b)
            elif status == INCONCLUSIVE:
                inconclusive.append((a, b))
        groups: dict[int, list[int]] = {}
        for a, i in enumerate(bucket):
            groups.setdefault(uf.find(a), []).append(i)
        unresolved = [
            (bucket[a], bucket[b]) for a, b in inconclusive if uf.find(a) != uf.find(b)
        ]
        return [tuple(g) for g in groups.values()], unresolved

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            decided = list(pool.map(decide, buckets.values()))
    else:
        decided = [decide(bucket) for bucket in buckets.values()]
    # Classes are disjoint and ascending, so sorting orders them by their
    # smallest index.
    classes = sorted(c for groups, _ in decided for c in groups)
    unresolved = sorted(p for _, pairs in decided for p in pairs)
    return PartitionResult(tuple(classes), tuple(unresolved))
