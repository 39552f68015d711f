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
short-circuit the bounded search: two invariant screens, the exponent sum
of the orbit word and the linking matrix of its mixed braid (which implies
the per-block cycle type, see `_screen_invariants`), then full-group
conjugacy, then a meet-in-the-middle search for a shortest kernel
conjugator over the standard kernel generators, grown from both beta_y and
beta_x.

All a decision reads of one orbit w is its record `_Orbit`: w, the mixed
braid section(beta_A) * w and that braid's canonical form, built once by
`_orbit`, which also checks w. An `SNInstance` holds two records, and
`partition_sn_classes` builds one per orbit and merges classes in a single
union-find on the orbit indices.

What a decision learns of one orbit alone is a cached property of its
record, computed on first use inside a decision and never when the record
is built: each screened invariant, and the per-braid stage of the ambient
conjugacy test, the summit and cycling circuit of the mixed braid (the
record is a `garside._ConjugacyRecord`). Only the comparisons are per
pair: the screens compare the kept values, and the ambient test meets the
two records (`garside._conjugacy`), which returns the path it found;
`garside._witness` multiplies a conjugator out of it only for an empty
invariant set. A partition's orbits of one form share one record,
so each distinct mixed braid is screened and walked at most once, and the
two formulations decided on one instance share its two records.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import sys
import warnings
from typing import Callable

from .garside import (
    CanonicalForm,
    ConjugacyResult,
    _ConjugacyRecord,
    _conjugacy,
    _product,
    _witness,
    canonical_form,
    is_conjugate,
)
from .invariants import linking_matrix
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
class _Orbit(_ConjugacyRecord):
    """One orbit word w, its mixed braid section(beta_A) * w and that
    braid's canonical form, built with the record, and, as cached properties
    computed on first use and kept for every later pair, what decisions
    learn of w alone: the two screened invariants (`_SCREENS`), the
    exponent sum of w and the linking matrix of the mixed braid. The
    record is the conjugacy record of its canonical form
    (`garside._ConjugacyRecord`), so the summit and cycling circuit that
    the ambient test walks are cached properties of it too."""

    word: BraidWord
    braid: MixedBraid
    cf: CanonicalForm

    @functools.cached_property
    def exponent_sum(self) -> int:
        return exponent_sum(self.word)

    @functools.cached_property
    def linking_matrix(self) -> tuple:
        return linking_matrix(self.braid)


def _orbit(n: int, m: int, lift: BraidWord, name: str, w: BraidWord) -> _Orbit:
    """The record of orbit w over the base lift section(beta_A). Requires w
    in the kernel, and warns, at the line that made the instance or called
    the partition, when w does not permute the orbit block as a single
    m-cycle."""
    ensure_kernel(n, m, w)
    braid = MixedBraid(n, m, compose(lift, w))
    # The lift fixes every orbit strand and w, a kernel element, every
    # puncture, so the braid's cycles on the orbit block are those of w: the
    # cycles that start, at their smallest element, beyond the punctures.
    if m >= 1 and sum(c[0] > n for c in braid.perm.cycles()) != 1:
        # Skip the frames of this module; the dataclass-generated __init__
        # runs in its globals too.
        level, frame = 2, sys._getframe(1)
        while frame.f_globals is globals():
            level, frame = level + 1, frame.f_back
        warnings.warn(
            f"{name} does not induce a single {m}-cycle on the "
            "orbit block; treating it as a formal instance",
            stacklevel=level,
        )
    return _Orbit(w, braid, canonical_form(braid.word))


@dataclasses.dataclass(frozen=True)
class SNInstance:
    """One equivalence question: base braid plus two kernel orbit braids."""

    n: int
    m: int
    beta_A: BraidWord
    beta_ox: BraidWord
    beta_oy: BraidWord
    # The records of the two orbits, built once by __post_init__.
    _x: _Orbit = dataclasses.field(init=False, repr=False, compare=False)
    _y: _Orbit = dataclasses.field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # section checks the block sizes and the strand count of beta_A.
        lift = section(self.n, self.m, self.beta_A).word
        object.__setattr__(self, "_x", _orbit(self.n, self.m, lift, "beta_ox", self.beta_ox))
        object.__setattr__(self, "_y", _orbit(self.n, self.m, lift, "beta_oy", self.beta_oy))

    @classmethod
    def _of(cls, n: int, m: int, beta_A: BraidWord, x: _Orbit, y: _Orbit) -> SNInstance:
        """The instance of two orbit records built already: __post_init__ is
        skipped, so neither orbit is validated or assembled again."""
        inst = object.__new__(cls)
        inst.__dict__.update(
            n=n, m=m, beta_A=beta_A, beta_ox=x.word, beta_oy=y.word, _x=x, _y=y
        )
        return inst

    def mixed_x(self) -> MixedBraid:
        """section(beta_A) * beta_ox."""
        return self._x.braid

    def mixed_y(self) -> MixedBraid:
        """section(beta_A) * beta_oy."""
        return self._y.braid


def braid_type_equal(a: BraidWord, b: BraidWord) -> ConjugacyResult:
    """Braid-type equality: plain conjugacy in B_m. A positive answer means
    the two orbits are strong Nielsen equivalent with empty invariant set."""
    return is_conjugate(a, b)


_SCREENS = ("exponent_sum", "linking_matrix")


def _screen_invariants(inst: SNInstance) -> Certificate | None:
    """Compare the screened invariants of the two orbits (`_SCREENS`) in
    turn: the exponent sum of w, then the linking matrix of the mixed braid
    section(beta_A) * w. The first mismatch is a certificate, and no later
    invariant is computed.

    The Burau characteristic polynomial of the whole mixed braid is not
    screened: it is an invariant of conjugacy in the ambient B_{n+m}, so
    every pair it separates is also rejected by the ambient conjugacy
    test that follows, and screening it cannot change a verdict.

    Nor is the per-block cycle type (`invariants.cycle_type`): equal
    linking matrices imply equal cycle types. The lift section(beta_A)
    fixes every orbit strand and w, a kernel element, every puncture, so
    the puncture-block cycles of both braids are those of beta_A, with the
    same tags ("A", strands...); say c_A of them. The matrix has one entry
    per unordered pair of the c cycles of the braid, so its length
    c(c - 1)/2 gives c, or that c <= 1. The orbit block has the other
    c - c_A cycles. When c <= 1 that is 0 or 1 cycle, so the orbit block's
    cycle type is () or (m,). When c >= 2, each orbit cycle of length L
    meets each of the c - 1 other cycles in one entry, so across the
    entries the tag ("o", L) occurs c - 1 times per orbit cycle of length
    L, and the matrix gives the multiset of orbit cycle lengths."""
    for name in _SCREENS:
        x, y = getattr(inst._x, name), getattr(inst._y, name)
        if x != y:
            return Certificate(name, x, y)
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
    end first, and its conjugate, so it costs one normalization, a product
    of three forms (`garside._product`). On a match c
    is spelled from the two tags and passed to `accept`, which re-verifies
    it; both formulations accept exactly the c with c * beta_y * c^-1 =
    beta_x, and should `accept` refuse, the search goes on. `states`
    counts the identity and every state generated on either side."""
    identity = BraidWord.identity(inst.n + inst.m)
    states = 1
    if accept(identity, canonical_form(identity)):
        return identity, BudgetReport(0, states)

    spelling, forward = _kernel_alphabet(inst.n, inst.m)
    # Each side conjugates by (left, right): g * . * g^-1 forward,
    # g^-1 * . * g backward.
    backward = [(letter, g_inv_cf, g_cf) for letter, g_cf, g_inv_cf in forward]

    start, target = inst._y.cf, inst._x.cf
    # visited[side] maps a conjugate to the tag of its word; side 0 is
    # forward (tag of u, first letter first), side 1 backward (tag of v,
    # last letter first).
    visited: tuple[dict[CanonicalForm, tuple[int, ...]], ...] = (
        {start: ()},
        {target: ()},
    )
    frontiers = [[((), start)], [((), target)]]
    for length in range(1, budget.max_length + 1):
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
                    return None, BudgetReport(length, states)
                new_conj = _product(left, conj_cf, right)
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
    return None, BudgetReport(budget.max_length, states)


def _decide(
    inst: SNInstance,
    budget: Budget,
    accept: Callable[[BraidWord, CanonicalForm], bool],
) -> SNVerdict:
    """The staged decision of one instance: the screens, then ambient
    conjugacy in B_{n+m}, then the bounded kernel search with `accept`.
    The first two compare what the two orbit records hold, filling it on
    first use; only the kernel search is wholly per pair."""
    cert = _screen_invariants(inst)
    if cert is not None:
        return SNVerdict(NOT_EQUIVALENT, certificate=cert)

    # Equal screens give the two mixed braids equal exponent sums, and
    # equal linking matrices give them equal cycle types
    # (`_screen_invariants`): the checks `is_conjugate` makes on words, so
    # the records meet directly. Only the empty invariant set multiplies a
    # witness out of the path.
    if (path := _conjugacy(inst._x, inst._y)) is None:
        return SNVerdict(
            NOT_EQUIVALENT,
            certificate=Certificate(f"not conjugate in B_{inst.n + inst.m}"),
        )
    if inst.n == 0:
        # Empty invariant set: the kernel is the whole group, so the ambient
        # conjugacy witness already certifies equivalence (Corollary-level
        # degeneration to braid-type equality).
        return SNVerdict(EQUIVALENT, witness=_witness(inst._x, inst._y, path))

    witness, report = _search_kernel_conjugator(inst, budget, accept)
    if witness is not None:
        return SNVerdict(EQUIVALENT, witness=witness)
    return SNVerdict(INCONCLUSIVE, budget_report=report)


def sn_equivalent_rel_A(inst: SNInstance, budget: Budget = Budget()) -> SNVerdict:
    """Strong Nielsen equivalence relative to the invariant set: search for a
    kernel element c with beta_x = c * beta_y * c^-1."""
    bx_cf, by_cf = inst._x.cf, inst._y.cf

    def accept(c: BraidWord, c_cf: CanonicalForm) -> bool:
        return _product(c_cf, by_cf, c_cf.inv()) == bx_cf

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
        return _product(lift_inv_cf, c_cf, lift_cf, oy_cf, c_cf.inv()) == ox_cf

    return _decide(inst, budget, accept)


@dataclasses.dataclass(frozen=True)
class PartitionResult:
    classes: tuple[tuple[int, ...], ...]
    unresolved: tuple[tuple[int, int], ...]

    def to_json(self) -> dict:
        return {
            "classes": [list(c) for c in self.classes],
            "unresolved": [list(p) for p in self.unresolved],
        }


def partition_sn_classes(
    n: int,
    m: int,
    beta_A: BraidWord,
    orbits: list[BraidWord],
    budget: Budget = Budget(),
) -> PartitionResult:
    """Partition a list of kernel orbit braids into strong Nielsen classes.

    The base braid and every orbit are validated first, once, even when
    there are fewer than two orbits and no pair to decide: each orbit gets
    a record (`_orbit`), then stands for the first record of its mixed
    braid's canonical form, so each distinct mixed braid is screened and
    walked at most once. The orbits are grouped into buckets of equal key,
    the `_SCREENS` values of their records, the exponent sum of w and the
    linking matrix of its mixed braid: exactly what `_screen_invariants`
    compares, so a pair across two buckets is NotEquivalent by certificate
    and is never decided.

    Within a bucket the pairs (i, j) are decided in order with
    `sn_equivalent_rel_A` on the instance of their two records, i's as
    beta_x. Pairs of indices are decided, not pairs of forms: once the
    state budget runs out, the verdict of the bounded search can depend on
    which orbit is beta_x. One union-find on the orbit indices holds the
    classes of all buckets; a pair that Equivalent verdicts have already
    put in one class is skipped, and Inconclusive pairs are never merged. A
    class is named by its smallest index, so the classes are those of
    deciding every pair. `unresolved` lists, sorted, the Inconclusive pairs
    whose final classes differ: an Inconclusive pair that ends inside one
    class is equivalent by transitivity through pairs with witnesses, and
    is dropped."""
    lift = section(n, m, beta_A).word
    records = [_orbit(n, m, lift, f"orbit {i}", w) for i, w in enumerate(orbits)]
    first: dict[CanonicalForm, _Orbit] = {}
    records = [first.setdefault(record.cf, record) for record in records]
    buckets: dict[tuple, list[int]] = {}
    for i, record in enumerate(records):
        key = tuple(getattr(record, name) for name in _SCREENS)
        buckets.setdefault(key, []).append(i)

    # The union-find: each index points towards the smallest index of its
    # class.
    parent = list(range(len(orbits)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    inconclusive = []
    for bucket in buckets.values():
        for i, j in itertools.combinations(bucket, 2):
            ri, rj = find(i), find(j)
            if ri == rj:
                continue
            inst = SNInstance._of(n, m, beta_A, records[i], records[j])
            status = sn_equivalent_rel_A(inst, budget).status
            if status == EQUIVALENT:
                parent[max(ri, rj)] = min(ri, rj)
            elif status == INCONCLUSIVE:
                inconclusive.append((i, j))
    # Roots are smallest indices, so classes come out ordered by them.
    classes: dict[int, list[int]] = {}
    for i in range(len(orbits)):
        classes.setdefault(find(i), []).append(i)
    unresolved = sorted((i, j) for i, j in inconclusive if find(i) != find(j))
    return PartitionResult(tuple(tuple(c) for c in classes.values()), tuple(unresolved))
