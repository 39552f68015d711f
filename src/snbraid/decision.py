"""
Decision procedures for strong Nielsen equivalence of periodic orbits
relative to an invariant point set, reduced to conjugacy questions in mixed
braid groups.

Two orbits with kernel parts beta_ox, beta_oy over one base braid beta_A
are equivalent iff beta_x = section(beta_A) * beta_ox and beta_y =
section(beta_A) * beta_oy are conjugate by a kernel element. That question
has no known complete desk-scale algorithm, so a verdict is three-valued:
Equivalent with a witness that re-verifies, NotEquivalent with a
certificate, or Inconclusive with the search budget it exhausted. Each rule
is stated once, in the docstring named here.

Records
- one orbit's record, and what decisions learn of it lazily: `_Orbit`,
  built and checked by `_orbit`
- the base braid's record, read once per instance or partition: `_Base`
- the twisted-conjugacy formulation, and why it runs the same decision:
  `sn_equivalent_twisted`

One decision, `_decide`: its stages, cheapest first, each returning its
own verdict or None to go on, and its one `accept`
- the two screens, and why no other invariant is screened:
  `_screen_invariants`
- the ambient test on the two records: `garside._conjugacy`
- for n <= 2, the centralizer shift into the kernel: `_centralizer_shift`,
  its powers `_shift_powers` and the puncture reading `_puncture_ends`
- the bounded kernel search and its two kinds of state:
  `_search_kernel_conjugator`, over `_kernel_alphabet`, bounded by `Budget`

Partitions
- one union-find over equal forms, anchor keys for n <= 2 and decided
  pairs, and what `unresolved` lists: `partition_sn_classes`, with the key
  of `_anchor_key`
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import sys
import warnings
from typing import Callable, Iterable

from . import _free
from .garside import (
    CanonicalForm,
    ConjugacyResult,
    _ConjugacyRecord,
    _conjugacy,
    _lazy,
    _product,
    _quotient,
    _simples,
    canonical_form,
    is_conjugate,
)
from .invariants import linking_matrix
from .mixed import (
    MixedBraid,
    _lift,
    _over_base,
    _strand_pass,
    is_kernel,
    kernel_generators,
)
from .words import BraidWord, exponent_sum, free_reduce, invert

EQUIVALENT = "Equivalent"
NOT_EQUIVALENT = "NotEquivalent"
INCONCLUSIVE = "Inconclusive"


@dataclasses.dataclass(frozen=True)
class Budget:
    """Bounds on the kernel-conjugator search, the one stage they bound:
    `max_length` is the total length of the conjugator c in generators,
    and `max_states` bounds the states generated on both sides of the
    search together."""

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
    braid's canonical form, built with the record, and, as lazy attributes
    computed on first use and kept for every later pair, what decisions
    learn of w alone: the two screened invariants (`_SCREENS`), the
    exponent sum of w and the linking matrix of the mixed braid, and, for
    m = 1, w as a word of the free kernel F_n, the kernel search's state
    on that side (`garside._lazy`); none is computed when the record is
    built. The record is the conjugacy record of its canonical form
    (`garside._ConjugacyRecord`), so the summit and cycling circuit that
    the ambient test walks are lazy attributes of it too."""

    word: BraidWord
    braid: MixedBraid
    cf: CanonicalForm

    @_lazy
    def exponent_sum(self) -> int:
        return exponent_sum(self.word)

    @_lazy
    def linking_matrix(self) -> tuple:
        return linking_matrix(self.braid)

    @_lazy
    def free(self) -> _free.Word | None:
        """w as a reduced word of the free kernel F_n when m = 1, or None
        when m >= 2 or the word grows past its bound (`_free_bound`)."""
        if self.braid.m != 1:
            return None
        letters = self.word.letters
        return _free.kernel_to_free(self.braid.n, letters, _free_bound(letters))


# A free word read from braid letters, an orbit's image in F_n or an image
# phi_{beta_A}(x_i), is given up on once it is longer than this many times
# the letters it is read from, plus one. Free words can be exponentially
# longer than canonical forms: the orbit beta^k A_1 beta^-k, with
# beta = s1 S2 on 3 punctures, has about 2.6^k letters in F_3. On the
# m = 1 instances of the decide-mix and sn-ambient corpora of seeds 1-5
# the longest word on the way is 1.1 times an orbit's letters plus one, and
# 5.6 times beta_A's for an image, so none of those trips.
_FREE_GROWTH = 8


def _free_bound(letters: tuple[int, ...]) -> int:
    return _FREE_GROWTH * (len(letters) + 1)


@dataclasses.dataclass(frozen=True)
class _Base:
    """The base braid beta_A of an instance, or of every pair of a
    partition: n, the word of its lift section(beta_A) on n + m strands
    (beta_A's letters), the strand, numbered from 0 by where it starts, at
    each position after the lift (`mixed._strand_pass`), the exponent sum
    of beta_A, which the centralizer shift and a partition's anchor keys
    read, and, as a lazy attribute, the letters the m = 1 kernel search
    acts by, so a partition builds them once."""

    n: int
    lift: BraidWord
    occupant: tuple[int, ...]
    exponent_sum: int

    @_lazy
    def free(self) -> tuple[tuple, tuple] | None:
        """The forward and backward letters of the m = 1 kernel search:
        per letter g = x_i^{+-1}, in `_kernel_alphabet`'s order,
        (letter, phi(g), g^-1) forward and (letter, phi(g)^-1, g) backward,
        with phi = phi_{beta_A}. None when an image phi(x_i) grows past its
        bound (`_free_bound`)."""
        n, letters = self.n, self.lift.letters
        images = _free.artin(n, letters, _free_bound(letters))
        if images is None:
            return None
        signed = [*range(1, n + 1), *range(-1, -n - 1, -1)]
        twists = images + [_free.inverse(image) for image in images]
        forward = tuple((g, phi, (-g,)) for g, phi in zip(signed, twists))
        backward = tuple((g, phi, (g,)) for g, phi in zip(signed, twists[n:] + twists[:n]))
        return forward, backward


def _base(n: int, m: int, beta_A: BraidWord) -> _Base:
    """The base record of beta_A, after the checks `section` makes: the
    block sizes and the strand count of beta_A."""
    lift = _lift(n, m, beta_A)
    occupant = list(range(n + m))
    _strand_pass(n, occupant, beta_A.letters)
    return _Base(n, lift, tuple(occupant), exponent_sum(beta_A))


def _orbit(n: int, m: int, base: _Base, name: str, w: BraidWord) -> _Orbit:
    """The record of orbit w over the base (`_base`). Requires w in the
    kernel, and warns, at the line that made the instance or called the
    partition, when w does not permute the orbit block as a single m-cycle.

    The braid section(beta_A) * w is made, with its permutation and
    `mixed._not_kernel`'s errors, by `mixed._over_base` in one pass over w's
    letters from where the lift leaves the strands."""
    braid = _over_base(n, m, base.lift, base.occupant, w)
    images = braid.perm.images
    # The lift fixes every orbit strand and w, a kernel element, every
    # puncture, so the braid's cycles on the orbit block are those of w.
    if m >= 1:
        length, end = 1, images[n]
        while end != n + 1:
            length, end = length + 1, images[end - 1]
        if length != m:
            # Skip the frames of this module; the dataclass-generated
            # __init__ runs in its globals too. A fixed stacklevel per
            # caller cannot do this: before Python 3.12 (PEP 709) the
            # partition's list comprehension is a frame of its own, so the
            # caller's depth differs between versions.
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
    # The records of the base and of the two orbits, built once by
    # __post_init__.
    _A: _Base = dataclasses.field(init=False, repr=False, compare=False)
    _x: _Orbit = dataclasses.field(init=False, repr=False, compare=False)
    _y: _Orbit = dataclasses.field(init=False, repr=False, compare=False)

    def __post_init__(self):
        base = _base(self.n, self.m, self.beta_A)
        object.__setattr__(self, "_A", base)
        object.__setattr__(self, "_x", _orbit(self.n, self.m, base, "beta_ox", self.beta_ox))
        object.__setattr__(self, "_y", _orbit(self.n, self.m, base, "beta_oy", self.beta_oy))

    @classmethod
    def _of(
        cls, n: int, m: int, beta_A: BraidWord, base: _Base, x: _Orbit, y: _Orbit
    ) -> SNInstance:
        """The instance of base and orbit records built already:
        __post_init__ is skipped, so neither beta_A nor an orbit is
        validated or read again."""
        inst = object.__new__(cls)
        inst.__dict__.update(
            n=n, m=m, beta_A=beta_A, beta_ox=x.word, beta_oy=y.word, _A=base, _x=x, _y=y
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


def _screen_invariants(inst: SNInstance) -> SNVerdict | None:
    """Compare the screened invariants of the two orbits (`_SCREENS`) in
    turn: the exponent sum of w, then the linking matrix of the mixed braid
    section(beta_A) * w. The first mismatch is NotEquivalent with it as the
    certificate, and no later invariant is computed; None when every screen
    agrees.

    The Burau characteristic polynomial of the whole mixed braid is not
    screened: it is an invariant of conjugacy in the ambient B_{n+m}, so
    every pair it separates is also rejected by the ambient conjugacy
    test that follows, and screening it cannot change a verdict.

    Nor is the per-block cycle type (`invariants.cycle_type`): equal linking
    matrices imply equal cycle types. Both are read off one labelling of the
    cycles, `invariants._cycle_labels`: the cycle type is its tags' block
    lengths, and the matrix pairs those tags. The lift section(beta_A) fixes
    every orbit strand and w, a kernel element, every puncture, so the
    puncture-block cycles of both braids are those of beta_A, with the same
    tags ("A", strands...); say c_A of them. The matrix has one entry per
    unordered pair of the c cycles of the braid, so its length c(c - 1)/2
    gives c, or that c <= 1. The orbit block has the other c - c_A cycles.
    When c <= 1 that is 0 or 1 cycle, so the orbit block's cycle type is ()
    or (m,). When c >= 2, each orbit cycle of length L meets each of the
    c - 1 other cycles in one entry, so across the entries the tag
    ("o", L) occurs c - 1 times per orbit cycle of length L, and the matrix
    gives the multiset of orbit cycle lengths."""
    for name in _SCREENS:
        x, y = getattr(inst._x, name), getattr(inst._y, name)
        if x != y:
            return SNVerdict(NOT_EQUIVALENT, certificate=Certificate(name, x, y))
    return None


# Each alphabet holds canonical forms on n + m strands, so those of at most
# eight shapes are kept, as `garside._simples` keeps the tables of at most
# eight strand counts; the search reads it once per decision, so a bounded
# cache's reordering on a hit costs nothing there.
@functools.lru_cache(maxsize=8)
def _kernel_alphabet(n: int, m: int) -> tuple[dict[int, tuple[int, ...]], tuple, tuple]:
    """The letters of the kernel search for (n, m): each standard kernel
    generator i and its inverse are letters i + 1 and -(i + 1). Returns the
    braid letters of each letter and the two sides of the Garside-state
    search, per letter (letter, left, right): forward (letter, form,
    inverse form), for g * . * g^-1, and backward (letter, inverse form,
    form), for g^-1 * . * g."""
    spelling: dict[int, tuple[int, ...]] = {}
    forward = []
    for sign in (1, -1):
        for i, g in enumerate(kernel_generators(n, m)):
            word = g if sign == 1 else invert(g)
            cf = canonical_form(word)
            spelling[sign * (i + 1)] = word.letters
            forward.append((sign * (i + 1), cf, cf.inv()))
    return spelling, tuple(forward), tuple((g, right, left) for g, left, right in forward)


def _search_kernel_conjugator(
    inst: SNInstance,
    budget: Budget,
    accept: Callable[[BraidWord, CanonicalForm], bool],
) -> SNVerdict:
    """Meet-in-the-middle search, shortest first, for a kernel element
    c = v * u with c * beta_y * c^-1 = beta_x, over the standard generators
    and their inverses: Equivalent with c as the witness, or Inconclusive
    with the budget it exhausted.

    The forward side holds conjugates u * beta_y * u^-1 and grows u by
    PREPENDING a generator g, one simple conjugation g * . * g^-1 per state;
    the backward side holds v^-1 * beta_x * v and grows v by APPENDING g,
    g^-1 * . * g. Each side keeps a visited map keyed by its states, and
    that dedup is sound: two words with the same conjugate have identical
    futures on their side. Growing the other end instead would not be: the
    next conjugate would depend on the word.

    For total length l = 1 .. max_length one side grows one level, forward
    on odd l and backward on even l, so after level l the sides reach
    depths ceil(l/2) and floor(l/2) and every reduced c of length <= l
    splits as v * u across them. Each new state is checked against the
    other side's visited map, all of its depths, so every length below l
    is checked before level l and the first match is a shortest c. A state
    holds only the letter tags of its word, the letter next to the growing
    end first, and its conjugate, so it costs one product of three
    operands, left * state * right. On a match c is spelled from the two
    tags and passed to `accept`, which re-verifies it on Garside forms,
    and should `accept` refuse, the search goes on. The identity is not
    tried: `_decide` settles equal forms before any screen, so it cannot
    match here. `states` still counts it as the first state, then every
    state generated on either side.

    A state is one of two kinds, with the same letters, order, dedup and
    matches:
    - m = 1 (the orbit records' and the base record's `free`): the kernel
      part x of the conjugate section(beta_A) * x, a reduced word of the
      free kernel F_n.
      With phi = phi_{beta_A}, a forward step is x -> phi(g) * x * g^-1
      and a backward step x -> phi(g)^-1 * x * g, each one
      `_free.product`. x determines the conjugate, and the kernel is free
      on the A_i, so two states are equal exactly when their reduced words
      are: the visited maps see what the canonical forms would.
    - m >= 2, or a free word past its bound: the canonical form of the
      conjugate in B_{n+m}, a step one `garside._product` of g, it and
      g^-1 (backward g^-1, it and g), which leaves the conjugate's factors
      in place and pushes only the outer forms onto its ends."""
    states = 1
    spelling, forward, backward = _kernel_alphabet(inst.n, inst.m)
    start, target = inst._y.free, inst._x.free
    if start is not None and target is not None and (free := inst._A.free) is not None:
        step = _free.product
        forward, backward = free
    else:
        step = _product
        start, target = inst._y.cf, inst._x.cf

    # visited[side] maps a state to the tag of its word; side 0 is forward
    # (tag of u, first letter first), side 1 backward (tag of v, last
    # letter first).
    visited: tuple[dict, ...] = ({start: ()}, {target: ()})
    frontiers = [[((), start)], [((), target)]]
    for length in range(1, budget.max_length + 1):
        side = 1 - length % 2
        seen, other = visited[side], visited[1 - side]
        letters = backward if side else forward
        nxt = []
        for tag, conj in frontiers[side]:
            for letter, left, right in letters:
                if tag and tag[0] == -letter:
                    continue
                states += 1
                if states > budget.max_states:
                    return SNVerdict(INCONCLUSIVE, budget_report=BudgetReport(length, states))
                new_conj = step(left, conj, right)
                if new_conj in seen:
                    continue
                new_tag = (letter,) + tag
                seen[new_conj] = new_tag
                if new_conj in other:
                    tags = (new_tag, other[new_conj])
                    u_tag, v_tag = tags if side == 0 else tags[::-1]
                    letters_of_c = [k for t in v_tag[::-1] + u_tag for k in spelling[t]]
                    c = free_reduce(BraidWord(inst.n + inst.m, tuple(letters_of_c)))
                    if accept(c, canonical_form(c)):
                        return SNVerdict(EQUIVALENT, witness=c)
                nxt.append((new_tag, new_conj))
        frontiers[side] = nxt
    return SNVerdict(INCONCLUSIVE, budget_report=BudgetReport(budget.max_length, states))


def _puncture_ends(
    n: int, strands: int, delta_power: int, factors: Iterable[int]
) -> tuple[list[int], int]:
    """For n <= 2, where the braid Delta^delta_power f_1 f_2 ... on these
    strands takes the puncture strands, the f_i simple factors given by
    rank (Delta among them as strands! - 1): the position, from 0, at
    which puncture strand s + 1 ends, for each s; and, for n = 2, the
    signed crossings between the two puncture strands, the exponent sum of
    the projection to B_2 (0 for n < 2). Delta^p reverses the strands p
    times and crosses each pair p times, and a simple factor, a
    permutation braid, crosses two strands once, positively, exactly when
    its permutation swaps their order. Both counts are invariants of the
    braid, so a canonical form, whose fields are these three arguments,
    and a conjugator's factor list read alike."""
    perm = _simples(strands).perm
    at = list(range(n))
    if delta_power & 1:
        at = [strands - 1 - x for x in at]
    crossings = delta_power if n == 2 else 0
    for f in factors:
        image = perm[f]
        moved = [image[x] for x in at]
        if n == 2 and (moved[0] < moved[1]) != (at[0] < at[1]):
            crossings += 1
        at = moved
    return at, crossings


def _shift_powers(e: int, at: list[int], crossings: int) -> tuple[int, int] | None:
    """The powers (a, b) that put h * Delta^2a * beta_y^b in the kernel
    for n <= 2, from the positions where h takes the puncture strands
    (`at`, as `_puncture_ends` gives them) and h's signed crossings
    between them; e is the exponent sum of beta_A. None when no power
    does.

    beta_y preserves the puncture block and permutes it as beta_A does:
    a swap, of order o = 2, when e is odd, and otherwise the identity,
    o = 1. So h must preserve the block too, and b = r mod o, with r = 1
    when h swaps the two punctures, that is when it takes the first to
    position 1. Delta^2 adds two crossings between them and each
    beta_y^+-1 adds +-e, its kernel part none, so 2a + e*b = -crossings.
    That is solvable for every such b: two strands change order at each
    crossing between them, so crossings has the parity of r, and e is odd
    when r = 1. Of the solutions the one with least |a| + |b|, then least
    |b|, then least b is taken: along
    b = r + o*t the cost |b| + |crossings + e*b| / 2 is convex with its
    corners at b = 0 and b = -crossings / e, so it is least at a
    neighbour of one of them, and where it is flat, 0 ends the flat
    piece."""
    if max(at) >= len(at):
        return None
    order = 2 if e % 2 else 1
    r = at[0]
    if r >= order:
        return None
    # b = r + order * t, and the floor of t at each corner, exactly.
    floors = [-r // order]
    if e:
        floors.append((-crossings - e * r) // (e * order))
    best = None
    for t in floors:
        for b in (r + order * t, r + order * (t + 1)):
            a = -(crossings + e * b) // 2
            key = (abs(a) + abs(b), abs(b), b)
            if best is None or key < best[0]:
                best = key, (a, b)
    return best[1]


def _centralizer_shift(
    inst: SNInstance,
    pair: tuple[list[int], list[int]],
    accept: Callable[[BraidWord, CanonicalForm], bool],
) -> SNVerdict | None:
    """For n <= 2, Equivalent with a kernel conjugator from the ambient one
    as the witness, with no search, or None when this shift finds none.

    Every conjugator from beta_y to beta_x is h * z with h the ambient
    conjugator `garside._quotient` multiplies out of the pair
    `garside._conjugacy` found and z in the centralizer of beta_y. Two
    elements of it are free: Delta^2, which is central, and beta_y itself.
    For n <= 2 whether h * Delta^2a * beta_y^b lies in the kernel is
    arithmetic on h's puncture strands and crossings (`_shift_powers`),
    read off h's canonical form (`_puncture_ends`); for n = 0 the kernel
    is the whole group and the candidate is h. Delta^2a joins h's Delta
    power, and for b != 0 one `_product` multiplies in beta_y's form. Only
    the candidate's form is spelled out, as its witness, which must pass
    `mixed.is_kernel` and `accept`. It is not a shortest witness."""
    n, m = inst.n, inst.m
    c_cf = _quotient(n + m, *pair)
    if n:
        powers = _shift_powers(inst._A.exponent_sum, *_puncture_ends(n, *c_cf))
        if powers is None:
            return None
        a, b = powers
        c_cf = CanonicalForm(n + m, c_cf.delta_power + 2 * a, c_cf.factors)
        if b:
            by_cf = inst._y.cf if b > 0 else inst._y.cf.inv()
            c_cf = _product(c_cf, *[by_cf] * abs(b))
    c = c_cf.to_word()
    if is_kernel(n, m, c) and accept(c, c_cf):
        return SNVerdict(EQUIVALENT, witness=c)
    return None


def _decide(inst: SNInstance, budget: Budget) -> SNVerdict:
    """The staged decision of one instance, read from its two orbit
    records: equal canonical forms first, then the screens, then ambient
    conjugacy in B_{n+m}, then, for n <= 2, the centralizer shift, and
    last the bounded kernel search. Every stage but the shift and the
    search compares what the records hold, filling it on first use. Each
    stage returns its own verdict, or None when it decides nothing, and
    the first verdict is the decision's.

    Equal forms are equivalent with the identity as witness, and settle
    before any invariant or summit is computed. Every witness, the
    identity too, is re-verified by one `accept` on the records' forms,
    c * beta_y * c^-1 = beta_x, which both formulations share. For
    n <= 2 the ambient conjugator h * g^-1 of the pair (h, g) that
    `garside._conjugacy` returns, multiplied out by `garside._quotient`,
    is shifted into the kernel by powers of Delta^2 and beta_y
    (`_centralizer_shift`), which for n = 0, where the kernel is the
    whole group, is the ambient conjugator itself; should the shift find
    no power or its witness be refused, the decision goes on to the
    kernel search, which alone runs for n >= 3."""
    bx_cf, by_cf = inst._x.cf, inst._y.cf

    def accept(c: BraidWord, c_cf: CanonicalForm) -> bool:
        return _product(c_cf, by_cf, c_cf.inv()) == bx_cf

    if bx_cf == by_cf:
        identity = BraidWord.identity(inst.n + inst.m)
        if accept(identity, canonical_form(identity)):
            return SNVerdict(EQUIVALENT, witness=identity)

    if (verdict := _screen_invariants(inst)) is not None:
        return verdict

    # Equal screens give the two mixed braids equal exponent sums, and
    # equal linking matrices give them equal cycle types
    # (`_screen_invariants`): the checks `is_conjugate` makes on words, so
    # the records meet directly. Only n <= 2 multiplies a witness out of
    # the pair.
    if (pair := _conjugacy(inst._x, inst._y)) is None:
        return SNVerdict(
            NOT_EQUIVALENT,
            certificate=Certificate(f"not conjugate in B_{inst.n + inst.m}"),
        )
    if inst.n <= 2 and (verdict := _centralizer_shift(inst, pair, accept)) is not None:
        return verdict
    return _search_kernel_conjugator(inst, budget, accept)


def sn_equivalent_rel_A(inst: SNInstance, budget: Budget = Budget()) -> SNVerdict:
    """Strong Nielsen equivalence relative to the invariant set: search for a
    kernel element c with beta_x = c * beta_y * c^-1."""
    return _decide(inst, budget)


def sn_equivalent_twisted(inst: SNInstance, budget: Budget = Budget()) -> SNVerdict:
    """Twisted-conjugacy formulation: search for a kernel element c with
    beta_ox = phi_{beta_A}(c) * beta_oy * c^-1. With L = section(beta_A)
    and phi(c) = L^-1 * c * L, the twisted equation reads
    L^-1 * (c * beta_y * c^-1) = L^-1 * beta_x, since beta_y = L * beta_oy
    and beta_x = L * beta_ox. That is c * beta_y * c^-1 = beta_x
    multiplied on the left by L^-1, so the two equations hold for exactly
    the same c, and this formulation runs the decision of
    sn_equivalent_rel_A, with its `accept` on the records' forms: the two
    agree on every instance by construction."""
    return _decide(inst, budget)


@dataclasses.dataclass(frozen=True)
class PartitionResult:
    classes: tuple[tuple[int, ...], ...]
    unresolved: tuple[tuple[int, int], ...]

    def to_json(self) -> dict:
        return {
            "classes": [list(c) for c in self.classes],
            "unresolved": [list(p) for p in self.unresolved],
        }


def _anchor_key(n: int, e: int, record: _Orbit) -> tuple:
    """For n <= 2, the key on which `partition_sn_classes` merges orbits:
    the record's anchor c* (`garside._ConjugacyRecord.anchor`) and the
    positions, from 0, where its conjugator g takes the puncture strands
    (`_puncture_ends` of g's factors). The positions are sorted when e,
    the exponent sum of beta_A, is odd, and kept in puncture order when it
    is even."""
    anchor, g = record.anchor
    at = _puncture_ends(n, record.cf.strands, 0, g)[0]
    return anchor, tuple(sorted(at) if e % 2 else at)


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
    a record (`_orbit`). Orbits of one canonical form are one class, with
    the identity as witness, so one union-find on the orbit indices starts
    with each orbit in the class of the first orbit of its form, whose
    record it takes: each distinct mixed braid is screened and walked at
    most once, and no two orbits of one form are ever decided. The orbits
    are grouped into buckets of equal screens, the `_SCREENS` values of
    their records, the exponent sum of w and the linking matrix of its
    mixed braid: exactly what `_screen_invariants` compares, so a pair
    across two buckets is NotEquivalent by certificate and is never
    decided.

    For n <= 2 the first orbits of the forms in each bucket of two forms
    or more are then merged by their anchor key (`_anchor_key`), with no pair
    decided and no witness built. The key of orbit r is (c*, P_r): c* its
    record's anchor, with g_r^-1 * beta_r * g_r = c*
    (`garside._ConjugacyRecord`), and P_r the positions where g_r takes the
    puncture strands, sorted when e = e(beta_A) is odd and in puncture
    order when e is even. Two orbits i, j of one key are equivalent:
    - h = g_i * g_j^-1 conjugates beta_j to beta_i, since both are
      conjugated to c* by their g.
    - g_i takes the puncture strands to P_i, and g_j^-1 takes the strands
      at P_j = P_i back to the puncture positions, so h keeps the puncture
      block. It swaps the two punctures only when the positions were
      compared sorted, that is when e is odd.
    - Every crossing between the two puncture strands changes their order,
      so h's signed crossings between them have the parity of that swap.
      Hence `_shift_powers`' equation 2a + e*b = -crossings, with
      b = r mod o (r = 1 when h swaps the punctures; o = 2 when e is odd,
      else 1), always has a solution: for r = 1, e is odd, and e*b is odd
      like the crossings. h * Delta^2a * beta_y^b, with beta_y = beta_j,
      then fixes each puncture strand, has no crossings between them, so
      it lies in the kernel, and still conjugates beta_j to beta_i, as
      Delta^2 is central and beta_j commutes with itself.
    For n = 0 the key is the anchor alone and the kernel is the whole
    group, and for n = 1 P_r is the one puncture's end. Equal keys need
    no crossing counts.

    Then, for every n, the pairs (i, j) of a bucket are decided in order
    with `sn_equivalent_rel_A` on the instance of their two records, i's as
    beta_x. Each ordered pair of records is decided once, and a later pair
    of orbits of the same two forms, in the same order, reads its status:
    the order is kept because, once the state budget runs out, the verdict
    of the bounded search can depend on which record is beta_x. The one
    union-find holds the classes of all buckets; a pair that equal forms,
    the key stage or Equivalent verdicts have already put in one class is
    skipped, and Inconclusive pairs are never merged. A class is named by
    its smallest index. Each form or key merge is an equivalence, so the
    classes are those of deciding every pair wherever that decides every
    pair it needs, and otherwise coarser: the key stage can merge pairs
    whose shift misses and whose search is Inconclusive. `unresolved`
    lists, sorted, the Inconclusive pairs whose final classes differ: an
    Inconclusive pair that ends inside one class is equivalent by
    transitivity through pairs with witnesses or key merges, and is
    dropped."""
    base = _base(n, m, beta_A)
    records = [_orbit(n, m, base, f"orbit {i}", w) for i, w in enumerate(orbits)]
    # The union-find: each index points towards the smallest index of its
    # class, from the start an orbit at the first orbit of its form, whose
    # record it takes.
    first: dict[CanonicalForm, int] = {}
    parent = [first.setdefault(record.cf, i) for i, record in enumerate(records)]
    records, forms = [records[i] for i in parent], parent[:]
    buckets: dict[tuple, list[int]] = {}
    for i, record in enumerate(records):
        key = tuple(getattr(record, name) for name in _SCREENS)
        buckets.setdefault(key, []).append(i)

    if n <= 2:
        # A bucket lists its indices in increasing order, so the first index
        # of a key is the smallest of its class. Only the first orbit of a
        # form is keyed, the others pointing at it already, and only where
        # a bucket holds two forms or more.
        for bucket in buckets.values():
            firsts = [i for i in bucket if parent[i] == i]
            if len(firsts) > 1:
                roots: dict[tuple, int] = {}
                for i in firsts:
                    key = _anchor_key(n, base.exponent_sum, records[i])
                    parent[i] = roots.setdefault(key, i)

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    # The status of each ordered pair of records, by their forms' first
    # orbits: a later orbit of one form repeats that decision.
    statuses: dict[tuple[int, int], str] = {}
    inconclusive = []
    for bucket in buckets.values():
        for i, j in itertools.combinations(bucket, 2):
            ri, rj = find(i), find(j)
            if ri == rj:
                continue
            if (status := statuses.get((forms[i], forms[j]))) is None:
                inst = SNInstance._of(n, m, beta_A, base, records[i], records[j])
                status = statuses[forms[i], forms[j]] = sn_equivalent_rel_A(inst, budget).status
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
