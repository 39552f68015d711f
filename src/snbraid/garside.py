"""
Garside left canonical form and the conjugacy decision for Artin braid groups.

A braid is stored as Delta^p A_1 ... A_k where Delta is the positive half
twist and each factor A_i is a permutation braid (a positive braid in which
any two strands cross at most once), identified with its permutation and
stored as that permutation's rank (see below). Adjacent factors satisfy the left-weighted condition: the starting set of
A_{i+1} is contained in the finishing set of A_i. Two words are equal in B_n
iff their canonical forms are identical, which solves the word problem.

The form is built incrementally: factors are pushed one at a time onto a
left-weighted list, and each push left-weights pairs from the right end
leftward only until a pair is already left-weighted (see `_normalize`).
A push that makes a Delta factor drops it and counts it: x Delta = Delta
tau(x), so the factors before it only change by tau (El-Rifai and Morton
1994; Epstein et al., Word Processing in Groups, ch. 9). The list is kept
in tau^flips coordinates, flips counting the Deltas dropped: left-weighting
commutes with tau, so an absorption re-twists only the factors its push
wrote. A push thus costs only the distance it travels, and in practice the
normal form of a word takes time linear in its length. A product of any
number of forms is one pass (`_product`): it keeps the left-weighted
factors of its longest operand in place and pushes those of the others
onto them, from the right for the operands after it and from the left for
those before it, so conjugating a long form by a short one costs about
what the short one's factors travel. A cycling walk keeps one running
factor list and makes one push per step, and builds a form only where it
keeps one: `_summit` where each pass ends, and `_cycling_orbit` for
each element it records. The right push is written once, `_push`:
`_normalize` calls it once per normalization, `_product` once per
operand right of its pivot, and a walk once per step, with the step's one
factor, each passing in its rank tables. A walk's list holds true values,
so a push that makes a Delta is followed by one tau pass over the list.
The left push of `_product` is a different loop, inline, which carries a
factor rightward by the first domino rule.

Conjugacy is decided through the ultra summit set (Gebhardt 2005). A
representative reaches the super summit set in at most one cycling pass
per side: cycling it makes its infimum maximal, and cycling its inverse
decycles it, making its supremum minimal without lowering the infimum, so
no second round is needed. A pass ends after n(n-1)/2 steps in a row that
leave the infimum unchanged, or at the first rigid element, which is
already in the ultra summit set: cycling a rigid element only rotates its
factors, and its inverse is rigid too (Birman, Gebhardt and
Gonzalez-Meneses, Conjugacy in Garside groups I: cyclings, powers and
rigidity, Groups Geom. Dyn. 1 (2007); see `_summit`). a's summit element
is then walked onto its circuit. Most conjugate pairs meet there: b's
summit element, or its tau-image, lies on a's circuit, the walk gives the
conjugator and b's circuit is never walked. Otherwise b's summit element
is walked onto its circuit, and the circuit's start is looked for on a's
circuit too. Only pairs that do not meet go on to the closure, where a's
ultra summit set is closed under conjugation by simple elements, keeping
only elements with the summit infimum/supremum that lie on their own
cycling circuit. It conjugates by rank, each s^-1 v s in one normalization
(see `_conjugate`), and its strand limit, MAX_CLOSURE_STRANDS, bounds the
time of the n! - 1 conjugations per element and applies to those pairs
alone. Every cycling walk ends without a step bound: cycling never
lowers the infimum nor raises the supremum, and a conjugacy class has
finitely many elements between given bounds (from a super summit element,
at most the size of the super summit set). Two braids are conjugate iff
their ultra summit sets intersect. Every walk records its conjugator as a
list of simple factors: the meet and the closure return only the path from
the start of a's circuit, and only `_witness` joins each side's lists,
when they become the witness h * g^-1. It normalizes them once, together:
the inverse of a simple element t is Delta^-1 times its Delta-complement
(El-Rifai and Morton 1994; Epstein et al., Word Processing in Groups,
ch. 9), so g^-1 is a list of complements whose Deltas^-1 move to the front
by tau, and no form of h or g is made, inverted or multiplied.
`_witness` returns that form, and `CanonicalForm.to_word` spells it: a
negative Delta power as a fraction, Delta^(p+j) P^-1 A_(j+1) ... A_r
with P positive, so that few letters of Delta^-1 pad the witness.

The decision has two stages. The summit and circuit walks depend on one
braid only, and a per-braid record (`_ConjugacyRecord`) holds each as a
cached property, walked on first use. The pair stage (`_conjugacy`) meets
two records: the infimum/supremum comparison, the circuit meet and the
closure on a miss; it returns the path it found, from which `_witness`
multiplies out a conjugator. `is_conjugate` is one word check, the
exponent sum and the cycle type read in one pass over each word
(`_word_invariants`), then the pair stage over two fresh records and the
witness on a hit; a caller that
decides many pairs of the same braids, as the strong Nielsen decision does
per orbit, keeps one record per braid, walks each braid once and
multiplies out a witness only when it needs one.

A simple element is stored as the lexicographic rank of its permutation, an
int (see `_Simples`): factor lists, conjugator lists and canonical forms
hold ranks, and left-weighting, tau, the Delta-complement and the factor of
each letter are read from int-keyed tables, so the hot loops hash and
compare ints only. On up to _FULL_TABLE_STRANDS (5) strands, tau, the
complement and left-weighting are complete lists, built when the tables of
B_n are first used, the left-weighting of all n!^2 pairs in one pass over
ranks; on more strands they fill as they are read. The letter table fills
as it is read on any strand count, so a word on many strands fills only the
letters it uses. `CanonicalForm` is a NamedTuple, made, hashed and
compared in C; as it equals the plain tuple of its fields, no map mixes the
two as keys. Rank order is the order of the permutation tuples, so every
sort and search order is that of the permutations. `CanonicalForm.to_json`
and `to_word` are where a rank is read back as a permutation, `to_word`
through the spelling table, which spells each rank once, on first use,
and is bounded like the letter table; a rank made
from a letter, or by ranking a permutation, keeps that permutation, so on
many strands the form of a word is read back without unranking (which is
quadratic in n). The complete left-weighting table is built from the
starting and finishing sets of each simple element and the ranks one
crossing away, read once per rank off its permutation and dropped after
the pass (`_leftweight_table`); on more strands, `_leftweight` fills each
miss on the pair's permutations. The permutations are
0-based tuples mapping start position to end position. Delta is the
reversal, so tau(p) = Delta^-1 p Delta is p reversed with each value v
replaced by n - 1 - v, and the Delta-complement Delta p^-1 is the inverse
of p reversed.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from typing import Iterable, NamedTuple

from .words import BraidWord, StrandMismatchError, _valid

Perm = tuple[int, ...]

# ---------------------------------------------------------------------------
# permutation-braid primitives


def _pinv(p: Perm) -> Perm:
    inv = [0] * len(p)
    for i, v in enumerate(p):
        inv[v] = i
    return tuple(inv)


def _tau(p: Perm) -> Perm:
    """Conjugation by Delta: tau(x) = Delta^-1 x Delta. An involution."""
    n = len(p)
    return tuple(n - 1 - v for v in reversed(p))


def _delta_complement(p: Perm) -> Perm:
    """The simple element Delta * p^-1, so that p^-1 = Delta^-1 * complement."""
    return _pinv(p)[::-1]


def _swap(p: Perm, a: int, b: int) -> Perm:
    """p with its entries at positions a and b exchanged."""
    s = list(p)
    s[a], s[b] = s[b], s[a]
    return tuple(s)


def _leftweight(x: Perm, y: Perm) -> tuple[Perm, Perm]:
    """Rebalance the pair so that (x', y') is left-weighted and x'y' = xy.

    Moves crossings sigma_i with i in S(y) \\ F(x) from the head of y to the
    tail of x until the starting set of y is contained in the finishing set
    of x. A move updates the images and positions in O(1), but each pass
    rescans all n - 1 positions, so a pass costs O(n) and a call is
    quadratic in n when many passes move. It fills the left-weighting
    table on more than _FULL_TABLE_STRANDS strands; up to that,
    `_leftweight_table` makes the same moves on ranks, in one pass.
    """
    n = len(x)
    lx, ly = list(x), list(y)
    ix = list(_pinv(x))
    moved = True
    while moved:
        moved = False
        for i in range(n - 1):
            # i in S(y): y starts with sigma_{i+1}; i not in F(x): x does not
            # finish with it, so the crossing transfers.
            if ly[i] > ly[i + 1] and ix[i] < ix[i + 1]:
                a, b = ix[i], ix[i + 1]
                lx[a], lx[b] = i + 1, i
                ix[i], ix[i + 1] = b, a
                ly[i], ly[i + 1] = ly[i + 1], ly[i]
                moved = True
    return tuple(lx), tuple(ly)


# ---------------------------------------------------------------------------
# simple elements as ranks


def _rank(p: Perm) -> int:
    """The lexicographic rank of p among the permutations of its length:
    the identity is 0 and the reversal, Delta, is n! - 1."""
    n = len(p)
    r = seen = 0
    for i, v in enumerate(p):
        # v less the number of smaller values before it
        r = r * (n - i) + v - (seen & ((1 << v) - 1)).bit_count()
        seen |= 1 << v
    return r


def _unrank(n: int, r: int) -> Perm:
    """The permutation of range(n) whose lexicographic rank is r."""
    digits = []
    for k in range(1, n + 1):
        r, d = divmod(r, k)
        digits.append(d)
    free = list(range(n))
    return tuple([free.pop(d) for d in reversed(digits)])


class _Memo(dict):
    """A memo table: a hit is a plain dict lookup, done in C, and a miss
    computes the entry with `fill`. The tables of one kind, one per strand
    count, share `family` and a bound on their entries together: a miss, or
    a `store` from another table's fill, that finds the bound reached
    empties them all first, so no input makes them grow without bound."""

    __slots__ = ("fill", "family", "bound")

    def __init__(self, fill, family: list, bound: int):
        super().__init__()
        self.fill, self.family, self.bound = fill, family, bound
        family.append(self)

    def __missing__(self, key):
        return self.store(key, self.fill(key))

    def store(self, key, value):
        if sum(map(len, self.family)) >= self.bound:
            for table in self.family:
                table.clear()
        self[key] = value
        return value


# On up to this many strands, `_Simples` builds complete tau, complement and
# left-weighting tables when it is made, as flat lists, the left-weighting
# of all n!^2 pairs in one pass over ranks (`_leftweight_table`). At n = 5
# the pass builds 14,400 pairs in about 4-5 ms, and `_Simples(5)` takes
# about 5-7 ms in all; filled lazily instead, one miss at a time, the table
# took 13,193 misses at about 3.4 us each, 45 ms in all, in one
# garside-scaling benchmark run. A list index is also cheaper than a memo
# hit: warm 5-strand normal forms went from about 470k to 630k letters per
# second (medians of 8 processes, 2-vCPU guest, Python 3.11). At n = 6 the
# table would hold 518,400 pairs and take about 250 ms, more than most
# processes spend on lazy fills, so from 6 strands on the tables fill as
# they are read.
_FULL_TABLE_STRANDS = 5

_PERMS: list[_Memo] = []
_RANKS: list[_Memo] = []
_TAUS: list[_Memo] = []
_COMPLEMENTS: list[_Memo] = []
_LEFTWEIGHTS: list[_Memo] = []
_LETTERS: list[_Memo] = []
_SPELLINGS: list[_Memo] = []


def _leftweight_table(n: int, perm: _Memo, rank: _Memo) -> list[tuple[int, int]]:
    """The left-weighting of every pair of simple elements of B_n, indexed
    x * n! + y, in one pass over ranks; `perm` and `rank` are the rank
    tables of `_Simples`.

    It first reads the atoms of each rank r off its permutation p: the
    starting and finishing sets S and F as bitmasks, bit i for
    sigma_(i+1), which are the descents of p and of its inverse q, and per
    i the rank of sigma_(i+1)^-1 r for i in S, which is p with the
    positions i and i + 1 swapped, and that of r sigma_(i+1) for i not in
    F, which is p with the values i and i + 1 swapped, at q[i] and
    q[i + 1]. A pair with S(y) in F(x) is left-weighted and is its own
    entry. Otherwise moving the lowest crossing i of S(y) \\ F(x) from y to
    x, as `_leftweight` does on permutations, leads to the pair
    (x sigma, sigma^-1 y), sigma = sigma_(i+1), with the same product. A
    left-weighted pair of simple elements is fixed by its product, its
    first factor being xy meet Delta (El-Rifai and Morton 1994), so the
    entry is that pair's. Taking the crossing off the head of y swaps a
    descent of its permutation, which lowers the rank, so going through y
    in rank order finds that entry already built."""
    count = math.factorial(n)
    atoms = []
    for r in range(count):
        p = perm[r]
        q = _pinv(p)
        starts = finishes = 0
        up, down = [0] * (n - 1), [0] * (n - 1)
        for i in range(n - 1):
            if p[i] > p[i + 1]:
                starts |= 1 << i
                down[i] = rank[_swap(p, i, i + 1)]
            if q[i] > q[i + 1]:
                finishes |= 1 << i
            else:
                up[i] = rank[_swap(p, q[i], q[i + 1])]
        atoms.append((starts, finishes, up, down))
    table: list = [None] * (count * count)
    for y, (starts, _, _, down) in enumerate(atoms):
        key = y
        for x, (_, finishes, up, _) in enumerate(atoms):
            if move := starts & ~finishes:
                i = (move & -move).bit_length() - 1
                table[key] = table[up[i] * count + down[i]]
            else:
                table[key] = (x, y)
            key += count
    return table


class _Simples:
    """The simple elements of B_n, each identified by the lexicographic
    rank of its permutation: 0 is the identity, n! - 1 is Delta, and rank
    order is the order of the permutation tuples. Tables keyed by rank give
    tau, the Delta-complement and the permutation; the left-weighting of a
    pair (x, y) is keyed by x * n! + y and gives a pair of ranks. tau and
    the complement are computed on permutations (`_tau`,
    `_delta_complement`) and ranked back through the `rank` table, keyed by
    permutation, which fills as it is read and also stores the permutation
    it ranks in `perm`, so a rank made there is read back without
    unranking.

    On up to _FULL_TABLE_STRANDS strands, tau, the complement and the
    left-weighting are complete lists, built here, the left-weighting of
    every pair in one pass over ranks (`_leftweight_table`). On more
    strands they are memo tables that fill as they are read, a
    left-weighting miss by `_leftweight` on the pair's permutations. Lists
    and memo tables are both read with `[]`, so the loops that read them do
    not tell them apart.

    The `letter` table, keyed by a letter k of B_n, gives the rank of the
    simple factor that stands for k in a canonical form and that of its
    tau-image: sigma_i itself for k = i, and Delta sigma_i^-1 for k = -i,
    since sigma_i^-1 = Delta^-1 (Delta sigma_i^-1). It fills one letter at
    a time from two factorials, with no permutation ranked, and stores the
    two permutations, built in O(n), in `perm`.

    The `spelling` table, keyed by rank, gives the positive word of the
    simple element, `_perm_word` of its permutation, as a tuple of
    letters. It fills as it is read, so `CanonicalForm.to_word` sorts each
    permutation into letters once per rank, not once per factor it
    meets."""

    __slots__ = (
        "count", "delta", "perm", "rank", "tau", "complement", "leftweight", "letter", "spelling"
    )

    def __init__(self, n: int):
        count = math.factorial(n)
        self.count = count
        self.delta = count - 1
        perm = self.perm = _Memo(lambda r: _unrank(n, r), _PERMS, 1 << 18)

        def ranked(p: Perm) -> int:
            r = _rank(p)
            perm.store(r, p)
            return r

        rank = self.rank = _Memo(ranked, _RANKS, 1 << 18)

        def on_perm(f):
            return lambda r: rank[f(perm[r])]

        if n <= _FULL_TABLE_STRANDS:
            ranks = range(count)
            self.tau = list(map(on_perm(_tau), ranks))
            self.complement = list(map(on_perm(_delta_complement), ranks))
            self.leftweight = _leftweight_table(n, perm, rank)
        else:
            self.tau = _Memo(on_perm(_tau), _TAUS, 1 << 18)
            self.complement = _Memo(on_perm(_delta_complement), _COMPLEMENTS, 1 << 18)

            def leftweight(key: int) -> tuple[int, int]:
                x, y = divmod(key, count)
                lx, ly = _leftweight(perm[x], perm[y])
                return rank[lx], rank[ly]

            self.leftweight = _Memo(leftweight, _LEFTWEIGHTS, 1 << 20)

        def sigma(i: int) -> Perm:
            return (*range(i - 1), i, i - 1, *range(i + 1, n))

        def letter(k: int) -> tuple[int, int]:
            # sigma_i swaps positions i - 1 and i, so its rank is (n - i)!,
            # and tau(sigma_i) = sigma_(n-i). Delta sigma_i^-1 is sigma_i
            # reversed: tau(sigma_i) with each value v replaced by n - 1 - v,
            # which turns a rank r into n! - 1 - r.
            i = abs(k)
            head, tail = math.factorial(n - i), math.factorial(i)
            ranks = (head, tail) if k > 0 else (self.delta - tail, self.delta - head)
            for r, p in zip(ranks, (sigma(i), sigma(n - i))):
                perm.store(r, p if k > 0 else p[::-1])
            return ranks

        self.letter = _Memo(letter, _LETTERS, 1 << 18)
        # A spelling has up to n(n-1)/2 letters, so this family holds fewer
        # entries than the others: all 40,320 ranks of 8 strands fit.
        self.spelling = _Memo(lambda r: tuple(_perm_word(perm[r])), _SPELLINGS, 1 << 16)


@functools.lru_cache(maxsize=None)
def _simples(n: int) -> _Simples:
    """The rank tables of B_n, made on first use."""
    return _Simples(n)


def _push(
    out: list[int], factors: Iterable[int], t: int, count: int, delta: int, leftweight, tau
) -> int:
    """Push `factors` one at a time onto the right end of the left-weighted
    list `out`, in place, and return t plus the Deltas the pushes made.

    `out` holds tau^t of its factors' true values, and each factor is
    written there in those coordinates, tau^t(f); a Delta a push makes is
    deleted and counted in t, and the part of the list that push wrote is
    re-twisted (see `_normalize`). Identity factors are skipped. `count`,
    `delta`, `leftweight` and `tau` (a `__getitem__`) are the caller's
    tables of `_Simples`, taken as arguments so that `_push` reads no
    attribute. It is called once per normalization, once per right
    operand of `_product` and once per cycling step that has factors, not
    once per factor of a normalization. A cycling step, which pushes one
    factor and starts at t = 0, returns 1 exactly when its push made a
    Delta."""
    for f in factors:
        if not f:
            continue
        i = len(out)
        out.append(tau(f) if t & 1 else f)
        while i > 0:
            a = out[i - 1]
            x, y = leftweight[a * count + out[i]]
            if x == a:
                break
            out[i] = y
            if x == delta:
                del out[i - 1]
                t += 1
                out[i - 1 :] = map(tau, out[i - 1 :])
                break
            out[i - 1] = x
            i -= 1
        if not out[-1]:
            out.pop()
    return t


def _normalize(n: int, factors: Iterable[int]) -> tuple[int, tuple[int, ...]]:
    """Left-weight `factors`; return the power of Delta in the product and
    the remaining factors (no Delta, no id).

    The factors are pushed one at a time onto a left-weighted list, by one
    `_push` onto an empty list. A push appends the factor and left-weights
    pairs from the right end leftward, stopping at the first pair
    left-weighting leaves unchanged (El-Rifai and Morton 1994).
    Left-weighting every pair from right to left yields a left-weighted
    list, and stopping early gives the same list: once a pair is
    unchanged, each pair further left still holds its original, already
    left-weighted factors and would be unchanged too. Only the pushed
    factor can be absorbed whole, so an identity factor can only appear at
    the end, where it is dropped. The left normal form is unique, so this
    equals what sweeping all pairs to a fixpoint gives, at a fraction of
    the left-weighting lookups.

    A push that turns a factor into Delta ends there: a Delta = Delta tau(a)
    (Epstein et al., Word Processing in Groups, ch. 9), so the Delta is
    dropped and counted in `flips`, and only the factors before it change,
    by tau. Each stored factor is tau^flips of its true value: tau is an
    automorphism of the simple elements, so left-weighting commutes with it
    and runs on the stored values as they are. An absorption thus leaves
    the factors before the Delta as stored and re-twists only those after
    it, all written by this push, so a push costs only the distance it
    travels; one tau pass at the end undoes an odd `flips`. Delta factors
    at the front, which left-weighting never changes, stay there and are
    counted with the rest. Factors are ranks (see `_Simples`), so the
    identity is 0."""
    simples = _simples(n)
    delta, tau = simples.delta, simples.tau.__getitem__
    out: list[int] = []
    flips = _push(out, factors, 0, simples.count, delta, simples.leftweight, tau)
    if flips & 1:
        out = list(map(tau, out))
    lo = 0
    while lo < len(out) and out[lo] == delta:
        lo += 1
    return flips + lo, tuple(out[lo:])


def _perm_word(p: Perm) -> list[int]:
    """A positive word (1-based letters) whose permutation braid is p: the
    swaps that sort p, each at the leftmost descent. A swap at i leaves no
    descent left of i - 1, so the scan for the next one resumes there."""
    q = list(p)
    out = []
    i = 0
    while i < len(q) - 1:
        if q[i] > q[i + 1]:
            out.append(i + 1)
            q[i], q[i + 1] = q[i + 1], q[i]
            i = max(i - 1, 0)
        else:
            i += 1
    return out


# ---------------------------------------------------------------------------
# canonical forms


class CanonicalForm(NamedTuple):
    """Left canonical form Delta^p A_1 ... A_k; the group-element identity.

    Each factor A_i is the lexicographic rank of its permutation (see
    `_Simples`), an int from 1 to n! - 2; `to_json` and `to_word` are the
    ways to read it as a permutation. A NamedTuple: immutable, and equal to
    and hashed as the tuple of its fields."""

    strands: int
    delta_power: int
    factors: tuple[int, ...]

    @property
    def inf(self) -> int:
        return self.delta_power

    @property
    def sup(self) -> int:
        return self.delta_power + len(self.factors)

    def mul(self, other: "CanonicalForm") -> "CanonicalForm":
        return _product(self, other)

    def inv(self) -> "CanonicalForm":
        k = len(self.factors)
        p = self.delta_power
        simples = _simples(self.strands)
        complement, tau = simples.complement, simples.tau
        factors = []
        for j, a in enumerate(reversed(self.factors)):  # a = A_k, A_{k-1}, ...
            y = complement[a]
            if (k - 1 - j + p) % 2 == 1:
                y = tau[y]
            factors.append(y)
        # The complements of a left-weighted list, reversed and twisted by
        # tau as above, are again left-weighted (El-Rifai and Morton 1994),
        # and none is Delta or the identity: this is already the normal form.
        return CanonicalForm(self.strands, -k - p, tuple(factors))

    def to_word(self) -> BraidWord:
        """The form spelled out, each factor's letters read from the
        spelling table of `_Simples`, free-reduced. With p >= 0 it is the
        letters of Delta, p times, then the factors'. With p < 0 it is a
        fraction, so that few letters of Delta^-1 are spelled: with r
        factors and j = min(-p, r),
        Delta^p A_1 ... A_r = Delta^(p+j) P^-1 A_(j+1) ... A_r,
        where P = (Delta^-j A_1 ... A_j)^-1 is positive, the factors of one
        `inv`. Only inverse letters come before A_(j+1), and none of them
        cancels against it: P's first factor is A_j's right complement,
        which starts with no letter A_(j+1) starts with, as (A_j, A_(j+1))
        is left-weighted."""
        n, p, factors = self
        spelling = _simples(n).spelling
        if p >= 0:
            letters = _delta_letters(n) * p
            j = 0
        else:
            j = min(-p, len(factors))
            letters = [-k for k in reversed(_delta_letters(n))] * (-p - j)
            for f in reversed(CanonicalForm(n, -j, factors[:j]).inv().factors):
                letters.extend(-k for k in reversed(spelling[f]))
        for f in factors[j:]:
            letters.extend(spelling[f])
        return _valid(n, tuple(letters))

    def to_json(self) -> dict:
        perm = _simples(self.strands).perm
        return {
            "n": self.strands,
            "delta_power": self.delta_power,
            "factors": [[v + 1 for v in perm[f]] for f in self.factors],
        }


def _product(*forms: CanonicalForm) -> CanonicalForm:
    """The canonical form of a product of forms, in one pass that leaves the
    factors of the longest form, the pivot (the first on a tie), in place:
    those of the forms to its right are pushed onto it from the right, and
    those of the forms to its left from the left, so a product costs what
    its shorter operands push, not the pivot's length.

    Delta^p x = tau^p(x) Delta^p moves the Deltas of the forms right of the
    pivot to the right end, and those of the pivot and of the forms left of
    it to the front. A right factor is thus twisted by tau^t, t the Delta
    powers of the forms from the pivot's neighbour to its own, and a left
    factor by tau^u, u those of the forms after it up to the pivot. The
    Delta^t left at the right end moves to the front too, so the list holds
    tau^t of the product's factors, and one tau pass at the end undoes an
    odd t. The right pushes are `_push`, one call per operand with t
    passed in, a Delta they make counted in t. A left push of c onto
    A_1 ... A_k left-weights (c, A_1) into (x_1, y_1), then (y_1, A_2)
    into (x_2, y_2), and so on, writing each x_i over A_i, until a pair is
    left unchanged, where the carry is inserted, or the carry becomes the
    identity. This is the first domino
    rule (Dehornoy et al., Foundations of Garside Theory, 2015): if
    (A_1, A_2) is left-weighted and so are c A_1 = x_1 y_1 and
    y_1 A_2 = x_2 y_2, then so is (x_1, x_2); so the x_i are left-weighted
    and, as in `_normalize`, the untouched rest stays so. The operands are
    canonical forms, whose factors are never Delta or the identity, and
    multiplying by a simple element raises the infimum by at most one, so
    only x_1 can be Delta: it is dropped and counted in u, and the left
    factors still to come pass it, a tau more.

    The right push goes through `_push` once per operand, with the tables
    read here passed in, and the left push is inlined. On the 9265
    kernel-search products of the seed-5 sn-ambient benchmark corpus,
    `_normalize` for the right pushes plus a one-factor left-push helper
    took 1.38 times as long as both loops inlined, and one `_normalize`
    pushing every factor but the first operand's 1.77 times (medians of 31
    interleaved passes, 2-vCPU guest, Python 3.11). Calling `_push` once
    per operand instead of inlining it took 0.998-1.015 times as long on
    normal forms, conjugacy tests and decisions (medians of 100
    interleaved passes, same guest)."""
    pivot, longest = 0, -1
    for i, form in enumerate(forms):
        if len(form.factors) > longest:
            pivot, longest = i, len(form.factors)
    n = forms[pivot].strands
    simples = _simples(n)
    count, delta, leftweight = simples.count, simples.delta, simples.leftweight
    tau = simples.tau.__getitem__
    out = list(forms[pivot].factors)
    # t and u count the Delta powers the factors pass on each side, as
    # Deltas of the operands or made by a push; they sum to the product's.
    t = 0
    for form in forms[pivot + 1 :]:
        if form.strands != n:
            raise StrandMismatchError("strand counts differ")
        t = _push(out, form.factors, t + form.delta_power, count, delta, leftweight, tau)
    u = forms[pivot].delta_power
    for form in reversed(forms[:pivot]):
        if form.strands != n:
            raise StrandMismatchError("strand counts differ")
        for c in reversed(form.factors):
            if u & 1:
                c = tau(c)
            i = 0
            while i < len(out):
                x, y = leftweight[c * count + out[i]]
                if x == c:
                    break
                if x == delta:
                    del out[0]
                    u += 1
                else:
                    out[i] = x
                    i += 1
                c = y
                if not c:
                    break
            if c:
                out.insert(i, c)
        u += form.delta_power
    if t & 1:
        out = map(tau, out)
    return CanonicalForm(n, t + u, tuple(out))


def _delta_letters(n: int) -> list[int]:
    """Half twist as a word: (s1)(s2 s1)...(s_{n-1} ... s1)."""
    out: list[int] = []
    for i in range(1, n):
        out.extend(range(i, 0, -1))
    return out


def canonical_form(a: BraidWord) -> CanonicalForm:
    """Left canonical form of a word; idempotent on its own spellings."""
    n = a.strands
    if n <= 1 or not a.letters:
        return CanonicalForm(n, 0, ())
    # Collect the Delta^-1 powers at the front; each factor gets conjugated
    # by the Delta power accumulated to its right.
    letter = _simples(n).letter
    factors: list[int] = []
    delta_pow = 0
    for k in reversed(a.letters):
        factors.append(letter[k][delta_pow % 2])
        if k < 0:
            delta_pow -= 1
    factors.reverse()
    shift, fs = _normalize(n, factors)
    return CanonicalForm(n, delta_pow + shift, fs)


def equal(a: BraidWord, b: BraidWord) -> bool:
    """Word problem: equality in B_n."""
    if a.strands != b.strands:
        raise StrandMismatchError("cannot compare words on different strand counts")
    return canonical_form(a) == canonical_form(b)


def delta(n: int) -> BraidWord:
    """The positive half twist Delta_n."""
    if n < 2:
        raise ValueError("delta requires n >= 2")
    return BraidWord(n, tuple(_delta_letters(n)))


def full_twist(n: int) -> BraidWord:
    """Delta_n^2 = (s1 ... s_{n-1})^n, the generator of the center."""
    if n < 2:
        raise ValueError("full twist requires n >= 2")
    return BraidWord(n, tuple(range(1, n)) * n)


# ---------------------------------------------------------------------------
# conjugacy


@dataclasses.dataclass(frozen=True)
class ConjugacyResult:
    conjugate: bool
    witness: BraidWord | None = None

    def to_json(self) -> dict:
        out: dict = {"conjugate": self.conjugate}
        if self.witness is not None:
            out["witness"] = self.witness.format()
        return out


# The closure search conjugates each element it visits by all n! - 1 simple
# elements, one normalization each: at n = 8 about 0.3 s per element once
# the rank tables are filled, and 1.8-2.0 s for the first element, which
# fills them; at n = 6 about 6 ms once filled, 33-38 ms for the first
# element, and 21-29 ms for a later element's first pass, which fills what
# the first left (quartiles over 22 processes, 2-vCPU guest, Python 3.11).
# The count grows n-fold per strand, so the limit bounds time; 8 is the
# largest strand count the tests and benchmark exercise. Pairs that meet on
# a cycling circuit never reach the closure, so the limit refuses only the
# pairs that do not.
MAX_CLOSURE_STRANDS = 8


def _summit(cf: CanonicalForm) -> tuple[CanonicalForm, list[int]]:
    """Bring cf into its super summit set by cycling alone; returns the
    summit element v and the simple factors s_1, ..., s_k of a conjugator
    g = s_1 ... s_k with v = g^-1 * cf * g.

    Each side takes one pass. Cycling never lowers the infimum, and if the
    infimum is not maximal in the conjugacy class, some n(n-1)/2 cycling
    steps in a row raise it (El-Rifai and Morton 1994): so cycling until
    that many steps leave it unchanged makes it maximal. Decycling v is
    cycling v^-1, since sup(v) = -inf(v^-1) (Birman, Gebhardt and
    Gonzalez-Meneses 2007): the same pass on v^-1 makes the supremum of v
    minimal, and as cycling never raises sup(v^-1) = -inf(v), the infimum
    stays maximal. A second round could therefore improve nothing. The
    conjugators accumulate alike on both sides: s^-1 v^-1 s is the inverse
    of s^-1 v s.

    Both passes stop at the first rigid element, one whose pair
    (A_k, tau^p(A_1)) is left-weighted, and return it with the conjugator
    so far, inverted back when it is met on the inverse side. Cycling a
    rigid element only rotates its factors, to Delta^p A_2 ... A_k
    tau^p(A_1), which is rigid again, so its infimum never rises and is
    maximal; its inverse is rigid too, so its supremum is minimal; and it
    lies on its own circuit, so it is in the ultra summit set (Birman,
    Gebhardt and Gonzalez-Meneses, Conjugacy in Garside groups I:
    cyclings, powers and rigidity, Groups Geom. Dyn. 1 (2007)). A rigid
    element thus needs none of the n(n-1)/2 confirmation steps nor the
    decycling pass. The test is one left-weighting lookup, the one the
    step's push makes first when there are two factors or more.

    A pass walks one running factor list in true values. A step takes the
    first factor off, twisted by tau when the Delta power is odd
    (Delta^p A_1 = tau^p(A_1) Delta^p), and pushes it onto the end with one
    `_push` call. A push that makes a Delta raises the infimum; `_push`
    then returns 1 and leaves its list in tau coordinates, so one tau pass
    brings it back to true values. A canonical form is built only where
    the pass ends."""
    n = cf.strands
    bound = max(1, n * (n - 1) // 2)
    simples = _simples(n)
    count, delta, leftweight = simples.count, simples.delta, simples.leftweight
    tau = simples.tau.__getitem__
    v, g = cf, []
    for side in range(2):
        if v.factors:
            p, out, stale = v.delta_power, list(v.factors), 0
            while out and stale < bound:
                s = out[0]
                if p & 1:
                    s = tau(s)
                if leftweight[out[-1] * count + s][0] == out[-1]:
                    v = CanonicalForm(n, p, tuple(out))
                    return (v.inv() if side else v), g
                del out[0]
                g.append(s)
                stale += 1
                if _push(out, (s,), 0, count, delta, leftweight, tau):
                    p, out, stale = p + 1, list(map(tau, out)), 0
            v = CanonicalForm(n, p, tuple(out))
        v = v.inv()
    return v, g


def _cycling_orbit(
    v: CanonicalForm,
) -> tuple[list[CanonicalForm], list[int], int]:
    """Cycle v until an element repeats. Returns the elements visited, the
    simple conjugator s_i of each step (orbit[i + 1] =
    s_i^-1 orbit[i] s_i) and the index where the circuit starts; v lies on
    its own circuit, that is in its ultra summit set, iff that index is 0.
    The walk steps one running factor list as `_summit` does, one `_push`
    call per step, and builds the canonical form of each element only to
    record it, or to find the repeat among those recorded. A Delta power
    with no factors is its own cycle, by the identity."""
    n = v.strands
    simples = _simples(n)
    count, delta, leftweight = simples.count, simples.delta, simples.leftweight
    tau = simples.tau.__getitem__
    p, out = v.delta_power, list(v.factors)
    orbit = [v]
    steps: list[int] = []
    seen = {v: 0}
    while True:
        s = 0
        if out:
            s = out.pop(0)
            if p & 1:
                s = tau(s)
            if _push(out, (s,), 0, count, delta, leftweight, tau):
                p, out = p + 1, list(map(tau, out))
        steps.append(s)
        w = CanonicalForm(n, p, tuple(out))
        if w in seen:
            return orbit, steps, seen[w]
        seen[w] = len(orbit)
        orbit.append(w)


class _ConjugacyRecord:
    """The per-braid stage of the conjugacy decision, for one canonical
    form `cf`. Both walks depend on this braid alone, so each runs once,
    on first use, and is kept as a cached property: `summit` is the summit
    element v and the simple factors of g with v = g^-1 * cf * g
    (`_summit`), and `circuit` is v's cycling circuit, the simple conjugator
    of each of its steps and the factors of the steps from v to the
    circuit's start (`_cycling_orbit`). A record whose pairs are all
    settled before a walk never runs it. `_conjugacy` meets two records,
    and `_witness` multiplies out the conjugator of a pair they meet on.
    The second record's circuit may never be walked: when its summit
    element, or that element's tau-image, lies on the first record's
    circuit, the pair meets there without it."""

    def __init__(self, cf: CanonicalForm):
        self.cf = cf

    @functools.cached_property
    def summit(self) -> tuple[CanonicalForm, list[int]]:
        return _summit(self.cf)

    @functools.cached_property
    def circuit(self) -> tuple[list[CanonicalForm], list[int], list[int]]:
        orbit, steps, start = _cycling_orbit(self.summit[0])
        return orbit[start:], steps[start:], steps[:start]


def _conjugacy(a: _ConjugacyRecord, b: _ConjugacyRecord) -> list[int] | None:
    """The pair stage of the conjugacy decision, over two per-braid records
    on the same strand count; a complete decision of whether a.cf and b.cf
    are conjugate. Returns None when they are not, and otherwise the simple
    factors of the path from the start of a's cycling circuit to b's
    element: b's summit element v_b when the pair meets on it, else the
    start of b's circuit. `_witness` multiplies a conjugator out of it.

    Equal forms are conjugate, with the empty path, and no walk runs.
    Otherwise the summits must share infimum and supremum, and only then
    is a's circuit walked. If v_b or its tau-image lies on a's circuit,
    a's walk already holds the path (`_circuit_meet`), and b's circuit is
    not walked: v_b is then on a circuit, its own, which starts at v_b, so
    the path is the one b's circuit start would give. On a miss b's
    circuit is walked, and its start, when it is not v_b, is looked for
    on a's circuit too; if neither meets, the ultra summit set of a is
    closed under simple-element conjugation until it reaches b's circuit
    start (`_closure_search`). Raises ValueError when the closure search
    is needed on more than MAX_CLOSURE_STRANDS strands."""
    if a.cf == b.cf:
        return []
    va, vb = a.summit[0], b.summit[0]
    if (va.inf, va.sup) != (vb.inf, vb.sup):
        return None
    circuit, steps, _ = a.circuit
    path = _circuit_meet(circuit, steps, vb)
    if path is None and b.circuit[2]:
        path = _circuit_meet(circuit, steps, b.circuit[0][0])
    if path is None:
        path = _closure_search(circuit[0], b.circuit[0][0])
    return path


def _witness(a: _ConjugacyRecord, b: _ConjugacyRecord, path: list[int]) -> CanonicalForm:
    """The canonical form of a conjugator c with c * b.cf * c^-1 = a.cf,
    from the path `_conjugacy(a, b)` returned, for `to_word` to spell: the
    identity for equal forms, and otherwise h * g^-1, in one
    normalization. h = s_1 ... s_j joins a's summit and circuit walks with
    the path, and g = t_1 ... t_k is b's summit walk, joined with its
    steps to its circuit's start when that circuit was walked. When it
    was not, the pair met on b's summit element; when it was, those
    steps are none if the pair met on v_b, which then starts its own
    circuit.

    The inverse of a simple element t is Delta^-1 times its complement,
    t^-1 = Delta^-1 dt with dt = Delta t^-1 (El-Rifai and Morton 1994;
    Epstein et al., Word Processing in Groups, ch. 9), and moving a
    Delta^-1 left past a factor x turns x into tau(x). So
    h * g^-1 = Delta^-k tau^k(s_1) ... tau^k(s_j) tau^(k-1)(dt_k) ... dt_1,
    one `_normalize` over j + k ranks, with no form of h or g, no inverse
    and no product. The left normal form is unique, so this is the form
    that multiplying out h and g^-1 gives."""
    n = a.cf.strands
    if a.cf == b.cf:
        return CanonicalForm(n, 0, ())
    simples = _simples(n)
    tau, complement = simples.tau, simples.complement
    g = b.summit[1] + (b.circuit[2] if "circuit" in vars(b) else [])
    k = len(g)
    factors = a.summit[1] + a.circuit[2] + path
    if k & 1:
        factors = [tau[s] for s in factors]
    for i, t in enumerate(reversed(g), 1):
        # dt_(k+1-i), twisted by the k - i Deltas^-1 to its right
        factors.append(tau[complement[t]] if (k - i) & 1 else complement[t])
    shift, fs = _normalize(n, factors)
    return CanonicalForm(n, shift - k, fs)


def _word_invariants(a: BraidWord) -> tuple[int, tuple[int, ...]]:
    """The exponent sum of a and the cycle type of its permutation, sorted
    cycle lengths, in one pass over its letters: conjugate braids agree on
    both. The pass sums the letter signs while it swaps an occupant list
    (occupant[pos] is the start of the strand at pos), which ends as the
    inverse of the permutation and so has its cycle type; the cycles are
    then read off that list with a `seen` list. It equals
    `exponent_sum(a)` and `permutation(a).cycle_type()` without building
    the permutation or its cycles."""
    occupant = list(range(a.strands))
    total = 0
    for k in a.letters:
        if k > 0:
            total += 1
            i = k - 1
        else:
            total -= 1
            i = -k - 1
        occupant[i], occupant[i + 1] = occupant[i + 1], occupant[i]
    seen = [False] * a.strands
    lengths = []
    for start in range(a.strands):
        if seen[start]:
            continue
        length, j = 0, start
        while not seen[j]:
            seen[j] = True
            j = occupant[j]
            length += 1
        lengths.append(length)
    lengths.sort()
    return total, tuple(lengths)


def is_conjugate(a: BraidWord, b: BraidWord) -> ConjugacyResult:
    """Complete conjugacy decision in B_n with witness extraction.

    Returns a witness c with c * b * c^-1 = a whenever the answer is yes.
    Pairs that differ in exponent sum or cycle type are refused from the
    words, both read in one pass over each (`_word_invariants`); the rest
    is the pair stage `_conjugacy` over two fresh per-braid records
    (`_ConjugacyRecord`) of the canonical forms, and a hit's path is
    multiplied out by `_witness` in one normalization. Each cycling walk ends
    because cycling stays inside the finite super summit set.
    Raises ValueError when a pair that does not meet on the circuit needs
    the closure search on more than MAX_CLOSURE_STRANDS strands.
    """
    if a.strands != b.strands:
        raise StrandMismatchError("cannot compare words on different strand counts")
    if _word_invariants(a) != _word_invariants(b):
        return ConjugacyResult(False)
    ra, rb = _ConjugacyRecord(canonical_form(a)), _ConjugacyRecord(canonical_form(b))
    if (path := _conjugacy(ra, rb)) is None:
        return ConjugacyResult(False)
    return ConjugacyResult(True, _witness(ra, rb, path).to_word())


def _circuit_meet(
    circuit: list[CanonicalForm], steps: list[int], target: CanonicalForm
) -> list[int] | None:
    """Look for target, or its tau-image Delta^-1 target Delta, on a cycling
    circuit, with the simple conjugator of each cycling step
    (circuit[j + 1] = s_j^-1 circuit[j] s_j). Returns the simple factors of
    h with target = h^-1 circuit[0] h, or None when neither lies on the
    circuit.

    circuit[j] is conjugated from circuit[0] by s_0 ... s_(j-1), and a
    tau-match circuit[j] = Delta^-1 target Delta needs one more Delta, as
    Delta^2 is central. Every element found is an explicit conjugate of
    circuit[0], so a match is sound; a miss decides nothing."""
    simples = _simples(target.strands)
    target_tau = CanonicalForm(
        target.strands, target.delta_power, tuple(map(simples.tau.__getitem__, target.factors))
    )
    for j, v in enumerate(circuit):
        if v == target:
            return steps[:j]
        if v == target_tau:
            return steps[:j] + [simples.delta]
    return None


def _conjugate(v: CanonicalForm, p: int) -> CanonicalForm:
    """s^-1 v s for the simple element s of rank p, in one normalization.

    With v = Delta^d A_1 ... A_k and s^-1 = Delta^-1 c, c the
    Delta-complement of s, moving Delta^d past c gives s^-1 v s =
    Delta^(d-1) tau^d(c) A_1 ... A_k s. For s = Delta, c is the identity,
    which `_normalize` skips, and the Delta pushed last is absorbed.

    It pushes all k factors of v where `_product` would push only c and s
    onto them, yet it is the faster: summit elements have few factors
    (about 3 at n = 3..5), and going through `_product` needs two forms
    made per call and s = Delta, no factor of a form, taken apart. Over 60
    summit elements times all simple elements that took 2.1 against 2.0 ms
    at n = 3, 11.4 against 9.5 ms at n = 4 and 65.7 against 54.9 ms at
    n = 5, faster in 4, 0 and 1 of 11 interleaved runs (2-vCPU guest,
    Python 3.11)."""
    n, d = v.strands, v.delta_power
    simples = _simples(n)
    head = simples.complement[p]
    if d % 2:
        head = simples.tau[head]
    shift, fs = _normalize(n, (head, *v.factors, p))
    return CanonicalForm(n, d - 1 + shift, fs)


def _closure_search(va: CanonicalForm, target: CanonicalForm) -> list[int] | None:
    """Close the ultra summit set of va under simple-element conjugation,
    breadth first, each level in tuple order (its elements share strands,
    infimum and supremum, so that is the order of their factor ranks),
    until it reaches target, which must differ from va (`_circuit_meet`
    has compared them). Each element is conjugated by every simple element
    in rank order (`_conjugate`). Returns the simple factors of h with
    target = h^-1 va h, read back along the breadth-first tree, or None
    once the set is exhausted.

    Each visited element records only its parent and the simple element
    that conjugates the parent to it; the path is read back once, on a hit.
    Each cycling walk classifies every element it visits: those before the
    circuit never return to themselves and are not in the ultra summit set,
    and those on it are. A candidate met on an earlier walk is therefore not
    walked again."""
    n = va.strands
    if n > MAX_CLOSURE_STRANDS:
        raise ValueError(
            f"conjugacy search on {n} strands is not supported: it tries all "
            f"{n}! simple elements per summit element, and the limit is "
            f"{MAX_CLOSURE_STRANDS} strands"
        )
    inf_sup = (va.inf, va.sup)
    parent: dict[CanonicalForm, tuple[CanonicalForm, int] | None] = {va: None}
    rejected: set[CanonicalForm] = set()
    members: set[CanonicalForm] = set()
    frontier = [va]
    while frontier:
        frontier.sort()
        nxt: list[CanonicalForm] = []
        for v in frontier:
            for p in range(1, _simples(n).count):
                w = _conjugate(v, p)
                if (w.inf, w.sup) != inf_sup:
                    continue
                if w in parent or w in rejected:
                    continue
                if w not in members:
                    orbit, _, start = _cycling_orbit(w)
                    rejected.update(orbit[:start])
                    members.update(orbit[start:])
                    if start != 0:
                        continue
                parent[w] = (v, p)
                if w == target:
                    path = []
                    while (link := parent[w]) is not None:
                        w, step = link
                        path.append(step)
                    return path[::-1]
                nxt.append(w)
        frontier = nxt
    return None
