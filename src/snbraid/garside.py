"""
Garside left canonical form and the conjugacy decision for Artin braid groups.

A braid is Delta^p A_1 ... A_k, Delta the positive half twist and each
factor A_i a permutation braid, stored as the rank of its permutation, with
each pair of neighbours left-weighted. Two words are equal in B_n iff their
forms are identical, which solves the word problem, and two braids are
conjugate iff their ultra summit sets meet (Gebhardt 2005), which
`is_conjugate` decides with a witness. Every conjugator is passed as a list
of simple factors, Delta among them as the factor of rank n! - 1. Each rule
is stated once, in the docstring named here.

Simple elements
- ranks, rank order, the tables of B_n and when they are complete lists:
  `_Simples`; the three tables a push reads, as one tuple: `_Simples.push`
- memo tables, each bounding its own entries: `_Memo`; the tables of at
  most _KEPT_STRANDS strand counts, made on first use: `_simples`, and
  those of up to _FULL_TABLE_STRANDS strands for good: `_full_simples`
- left-weighting one pair: `_leftweight`; the table of pairs of ranks, read
  `leftweight[x][y]` and None on a pair already left-weighted, as complete
  rows built in one pass: `_leftweight_table`, or as rows that fill as
  they are read under one entry bound: `_Rows`; tau and the
  Delta-complement: `_tau`, `_delta_complement`

Normal forms
- pushing factors onto a left-weighted list, a Delta absorbed by tau: on
  the right `_push`, and why a push stops early: `_normalize`; on the left,
  by the first domino rule, `_push_left`
- a product of forms around its longest operand, one push per operand:
  `_product`
- the inverse of a factor list: `_inverse`; a simple element as a word,
  Delta too: `_perm_word`; a form as a word, by one rule for every sign
  of its Delta power: `CanonicalForm.to_word`

Conjugacy
- the per-braid walks, kept as lazy attributes (`_lazy`), and the circuit
  anchor: `_ConjugacyRecord`
- the super summit pass and its stop at a rigid element: `_summit`, `_rigid`
- the cycling circuit, and why a walk ends: `_cycling_orbit`
- the pair stage, each step only when those before it settle nothing: the
  refutation from one summit's bounds, the meet at a rigid summit element
  with no walk, then the circuit meet: `_conjugacy`, `_circuit_meet`
- the closure under simple conjugators, each candidate two pushes onto the
  element's own factors, and its strand limit: `_closure_search`,
  `_conjugates`, MAX_CLOSURE_STRANDS
- the witness h * g^-1 of two factor lists, in one normalization: `_quotient`
"""

from __future__ import annotations

import bisect
import dataclasses
import functools
import math
from typing import Iterable, Iterator, NamedTuple, Sequence

from .words import BraidWord, StrandMismatchError, _valid

# A permutation: a 0-based tuple whose entry i is where position i ends.
# Delta is the reversal.
Perm = tuple[int, ...]

# ---------------------------------------------------------------------------
# permutation-braid primitives


def _pinv(p: Perm) -> Perm:
    inv = [0] * len(p)
    for i, v in enumerate(p):
        inv[v] = i
    return tuple(inv)


def _tau(p: Perm) -> Perm:
    """Conjugation by Delta: tau(x) = Delta^-1 x Delta, p reversed with
    each value v replaced by n - 1 - v. An involution."""
    n = len(p)
    return tuple(n - 1 - v for v in reversed(p))


def _delta_complement(p: Perm) -> Perm:
    """The simple element Delta * p^-1, so that p^-1 = Delta^-1 * complement:
    the inverse of p, reversed."""
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
    computes the entry with `fill`. A miss, or a `store` from another
    table's fill, that finds `bound` entries here empties this table first,
    so no input makes it grow without bound, and a miss costs O(1). It
    lives as long as the `_Simples` that holds it (`_simples`)."""

    __slots__ = ("fill", "bound")

    def __init__(self, fill, bound: int):
        super().__init__()
        self.fill, self.bound = fill, bound

    def __missing__(self, key):
        return self.store(key, self.fill(key))

    def store(self, key, value):
        if len(self) >= self.bound:
            self.clear()
        self[key] = value
        return value


# On up to this many strands, `_Simples` builds complete tau, complement and
# left-weighting tables when it is made, as lists, the left-weighting as n!
# rows of n! entries built in one pass over ranks (`_leftweight_table`). At
# n = 5 the pass builds 14,400 pairs in a few ms, far less than filling them
# one miss at a time, and a list index is cheaper than a memo hit. At n = 6
# the rows would hold 518,400 pairs, more than most processes ever read, so
# from 6 strands on the tables fill as they are read, the left-weighting as
# rows that share one entry bound (`_Rows`).
_FULL_TABLE_STRANDS = 5


def _leftweight_table(n: int, perm: _Memo, rank: _Memo) -> list[list]:
    """The left-weighting of every pair of simple elements of B_n, as n!
    rows of n! entries read `table[x][y]`, in one pass over ranks; `perm`
    and `rank` are the rank tables of `_Simples`. An entry is None when
    (x, y) is already left-weighted, and otherwise the left-weighted pair
    of ranks with the same product.

    It first reads the atoms of each rank r off its permutation p: the
    starting and finishing sets S and F as bitmasks, bit i for
    sigma_(i+1), which are the descents of p and of its inverse q, and per
    i the rank of sigma_(i+1)^-1 r for i in S, which is p with the
    positions i and i + 1 swapped, and that of r sigma_(i+1) for i not in
    F, which is p with the values i and i + 1 swapped, at q[i] and
    q[i + 1]. A pair with S(y) in F(x) is left-weighted and keeps its None.
    Otherwise moving the lowest crossing i of S(y) \\ F(x) from y to x, as
    `_leftweight` does on permutations, leads to the pair
    (x sigma, sigma^-1 y), sigma = sigma_(i+1), with the same product. A
    left-weighted pair of simple elements is fixed by its product, its
    first factor being xy meet Delta (El-Rifai and Morton 1994), so the
    entry is that pair's, or that pair itself where its entry is None.
    Taking the crossing off the head of y swaps a descent of its
    permutation, which lowers the rank, so going through y in rank order
    finds that entry already built."""
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
    rows = [[None] * count for _ in range(count)]
    for y, (starts, _, _, down) in enumerate(atoms):
        for row, (_, finishes, up, _) in zip(rows, atoms):
            if move := starts & ~finishes:
                i = (move & -move).bit_length() - 1
                row[y] = rows[up[i]][down[i]] or (up[i], down[i])
    return rows


class _Rows(dict):
    """The left-weighting table on more than _FULL_TABLE_STRANDS strands: a
    memo of row memos, read `table[x][y]` as the complete rows are, both
    lookups plain dict hits. Row x is made on first use and fills as it is
    read, an entry by `fill(x, y)`, None or a pair as in
    `_leftweight_table`. The rows share one entry bound: every row's fill
    counts into `size` here, and a fill that finds `bound` entries in all
    rows together empties every row first, so no input makes the table
    grow without bound, however its entries spread over rows."""

    __slots__ = ("fill", "bound", "size")

    def __init__(self, fill, bound: int):
        super().__init__()
        self.fill, self.bound, self.size = fill, bound, 0

    def __missing__(self, x):
        row = self[x] = _Row(self, x)
        return row

    def clear(self):
        super().clear()
        self.size = 0


class _Row(dict):
    """Row x of a `_Rows` table; a miss fills one entry and counts it
    there."""

    __slots__ = ("rows", "x")

    def __init__(self, rows: _Rows, x: int):
        super().__init__()
        self.rows, self.x = rows, x

    def __missing__(self, y):
        rows = self.rows
        if rows.size >= rows.bound:
            rows.clear()
            self.clear()
            rows[self.x] = self
        rows.size += 1
        value = self[y] = rows.fill(self.x, y)
        return value


class _Simples:
    """The simple elements of B_n, each identified by the lexicographic
    rank of its permutation: 0 is the identity, n! - 1 is Delta, and rank
    order is the order of the permutation tuples. Tables keyed by rank give
    tau, the Delta-complement and the permutation; the left-weighting of a
    pair (x, y) is read `leftweight[x][y]`, from row x, and is None when
    the pair is already left-weighted, the left-weighted pair of ranks
    with the same product otherwise. tau and the complement are computed
    on permutations (`_tau`, `_delta_complement`) and ranked back through
    the `rank` table, keyed by permutation, which fills as it is read and
    also stores the permutation it ranks in `perm`, so a rank made there is
    read back without unranking.

    On up to _FULL_TABLE_STRANDS strands, tau, the complement and the
    left-weighting are complete lists, built here, the left-weighting as
    n! rows, every pair in one pass over ranks (`_leftweight_table`). On
    more strands they are memo tables that fill as they are read, the
    left-weighting a memo of row memos with one entry bound shared by all
    its rows (`_Rows`), a miss by `_leftweight` on the pair's
    permutations. Lists and memo tables are both read with `[]`, so the
    loops that read them do not tell them apart. `push` holds the three
    tables a push reads, in `_push`'s argument order: (delta, leftweight,
    tau's `__getitem__`). It is set once, after the choice between lists
    and memo tables, so either regime sits behind it, and a walk reads its
    tables with one attribute read and one unpack. `count`, n!, is kept
    for the closure, which enumerates ranks.

    The `letter` table, keyed by a letter k of B_n, gives the rank of the
    simple factor that stands for k in a canonical form and that of its
    tau-image: sigma_i itself for k = i, and Delta sigma_i^-1 for k = -i,
    since sigma_i^-1 = Delta^-1 (Delta sigma_i^-1). It fills one letter at
    a time from i! and (n - i)!, with no permutation ranked, and stores
    the two permutations, built in O(n), in `perm`.

    The `spelling` table, keyed by rank, gives the positive word of the
    simple element, `_perm_word` of its permutation, as a tuple of
    letters; the rank n! - 1 gives Delta's. It fills as it is read, so
    `CanonicalForm.to_word` sorts each permutation into letters once per
    rank, not once per factor it meets.

    Every table that fills as it is read is a `_Memo` with its own entry
    bound, or the `_Rows` of the left-weighting with one bound on all its
    rows. The tables of at most _KEPT_STRANDS strand counts above
    _FULL_TABLE_STRANDS are kept (`_simples`), so those of one kind there
    hold at most that many times their bound together; up to that, a
    table holds at most n! entries."""

    __slots__ = (
        "count", "delta", "perm", "rank", "tau", "complement", "leftweight", "push", "letter",
        "spelling",
    )

    def __init__(self, n: int):
        count = math.factorial(n)
        self.count = count
        self.delta = count - 1
        perm = self.perm = _Memo(lambda r: _unrank(n, r), 1 << 16)

        def ranked(p: Perm) -> int:
            r = _rank(p)
            perm.store(r, p)
            return r

        rank = self.rank = _Memo(ranked, 1 << 16)

        def on_perm(f):
            return lambda r: rank[f(perm[r])]

        if n <= _FULL_TABLE_STRANDS:
            ranks = range(count)
            self.tau = list(map(on_perm(_tau), ranks))
            self.complement = list(map(on_perm(_delta_complement), ranks))
            self.leftweight = _leftweight_table(n, perm, rank)
        else:
            self.tau = _Memo(on_perm(_tau), 1 << 16)
            self.complement = _Memo(on_perm(_delta_complement), 1 << 16)

            def leftweight(x: int, y: int) -> tuple[int, int] | None:
                px = perm[x]
                lx, ly = _leftweight(px, perm[y])
                return None if lx == px else (rank[lx], rank[ly])

            self.leftweight = _Rows(leftweight, 1 << 18)
        self.push = (self.delta, self.leftweight, self.tau.__getitem__)

        def sigma(i: int) -> Perm:
            return (*range(i - 1), i, i - 1, *range(i + 1, n))

        def letter(k: int) -> tuple[int, int]:
            # sigma_i swaps positions i - 1 and i, so its rank is (n - i)!,
            # and tau(sigma_i) = sigma_(n-i). Delta sigma_i^-1 is sigma_i
            # reversed: tau(sigma_i) with each value v replaced by n - 1 - v,
            # which turns a rank r into n! - 1 - r. Of i! and (n - i)!, the
            # larger is (n - j)! for the shorter side j, read off n! as
            # n! / (n!/(n - j)!) rather than computed as a second factorial;
            # head, (n - i)!, is the larger when 2i <= n.
            j = min(i := abs(k), n - i)
            head, tail = sorted((math.factorial(j), count // math.perm(n, j)), reverse=2 * i <= n)
            ranks = (head, tail) if k > 0 else (self.delta - tail, self.delta - head)
            for r, p in zip(ranks, (sigma(i), sigma(n - i))):
                perm.store(r, p if k > 0 else p[::-1])
            return ranks

        self.letter = _Memo(letter, 1 << 16)
        # A spelling has up to n(n-1)/2 letters, so this table holds fewer
        # entries than the others: all 5,040 ranks of 7 strands fit.
        self.spelling = _Memo(lambda r: tuple(_perm_word(perm[r])), 1 << 14)


# `_simples` keeps the tables of at most this many strand counts.
_KEPT_STRANDS = 8

# The tables of at most _FULL_TABLE_STRANDS strands, kept for the whole
# process: they are few and small, and their complete lists are the costly
# ones to make again.
_full_simples = functools.cache(_Simples)


@functools.lru_cache(maxsize=None)
def _simples(n: int) -> _Simples:
    """The rank tables of B_n, made on first use and kept. Before it makes
    the tables of a strand count it does not hold, it empties itself if it
    holds those of _KEPT_STRANDS strand counts already, so the tables of at
    most that many are kept and each `_Memo` is freed with its `_Simples`;
    those of up to _FULL_TABLE_STRANDS strands come back from
    `_full_simples`, not made again. Forms, records and anchors hold ranks,
    never tables, so a table made again fills again with the same values.
    An unbounded cache with this reset, not a bounded one: a bounded
    `lru_cache` reorders its entries on every hit, and every walk starts
    with a hit here."""
    if _simples.cache_info().currsize >= _KEPT_STRANDS:
        _simples.cache_clear()
    return (_full_simples if n <= _FULL_TABLE_STRANDS else _Simples)(n)


def _push(out: list[int], factors: Iterable[int], t: int, delta: int, leftweight, tau) -> int:
    """Push `factors` one at a time onto the right end of the left-weighted
    list `out`, in place, and return t plus the Deltas the pushes made.

    `out` holds tau^t of its factors' true values, and each factor is
    written there in those coordinates, tau^t(f); a Delta a push makes is
    deleted and counted in t, and the part of the list that push wrote is
    re-twisted (see `_normalize`). Identity factors are skipped. `delta`,
    `leftweight` and `tau` (a `__getitem__`) are `_Simples.push`, unpacked
    once by the caller and passed as arguments so that `_push` reads no
    attribute. The moving factor is carried in `f`, not read back from the
    list: each step looks up the pair it makes with its left neighbour,
    `leftweight[out[i - 1]][f]`, stops where that reads None, and
    otherwise writes the pair's second factor where f stood and carries
    the first on, one place left. It is called once per normalization,
    once per right operand of `_product` and once per cycling step that has
    factors, not once per factor of a normalization. A cycling step, which
    pushes one factor and starts at t = 0, returns 1 exactly when its push
    made a Delta."""
    for f in factors:
        if not f:
            continue
        if t & 1:
            f = tau(f)
        i = len(out)
        out.append(f)
        while i and (pair := leftweight[out[i - 1]][f]) is not None:
            f, out[i] = pair
            i -= 1
            if f == delta:
                del out[i]
                t += 1
                out[i:] = map(tau, out[i:])
                break
            out[i] = f
        if not out[-1]:
            out.pop()
    return t


def _push_left(out: list[int], factors: Sequence[int], u: int, delta: int, leftweight, tau) -> int:
    """Push `factors`, last first, onto the left end of the left-weighted
    list `out`, in place, and return u plus the Deltas the pushes made.

    Each factor passes the Delta^u between it and the list, so it is
    twisted by tau^u first, u counting the Deltas made so far. A push of c
    onto A_1 ... A_k left-weights (c, A_1) into (x_1, y_1), then
    (y_1, A_2) into (x_2, y_2), and so on, writing each x_i over A_i,
    until a pair is left unchanged, its entry None, where the carry is
    inserted, or the carry becomes the identity. This is the first domino
    rule (Dehornoy et al., Foundations of Garside Theory, 2015): if
    (A_1, A_2) is left-weighted and so are c A_1 = x_1 y_1 and
    y_1 A_2 = x_2 y_2, then so is (x_1, x_2); so the x_i are left-weighted
    and, as in `_normalize`, the untouched rest stays so. Multiplying by a
    simple element raises the infimum by at most one, so only x_1 can be
    Delta: it is deleted and counted in u, and the factors still to come
    pass it, a tau more. The list's factors need not be proper: an
    identity c is still pushed, so that a Delta the list holds at its
    front, as a `_push` onto an empty list leaves one, is absorbed. The
    arguments after u are `_Simples.push`, as for `_push`."""
    for c in reversed(factors):
        if u & 1:
            c = tau(c)
        i = 0
        while i < len(out) and (pair := leftweight[c][out[i]]) is not None:
            x, c = pair
            if x == delta:
                del out[0]
                u += 1
            else:
                out[i] = x
                i += 1
            if not c:
                break
        if c:
            out.insert(i, c)
    return u


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
    delta, leftweight, tau = _simples(n).push
    out: list[int] = []
    flips = _push(out, factors, 0, delta, leftweight, tau)
    if flips & 1:
        out = list(map(tau, out))
    lo = 0
    while lo < len(out) and out[lo] == delta:
        lo += 1
    return flips + lo, tuple(out[lo:])


def _inverse(simples: _Simples, factors: Sequence[int], p: int) -> tuple[int, ...]:
    """The factors of (Delta^p f_1 ... f_k)^-1 after its Delta^(-k-p), for
    the simple factors f_i given by rank: the Delta-complements df_k, ...,
    df_1, the j-th of them from the left, j from 0, twisted by tau when
    k - 1 - j + p is odd.

    The inverse of a simple element t is Delta^-1 times its complement,
    t^-1 = Delta^-1 dt with dt = Delta t^-1 (El-Rifai and Morton 1994;
    Epstein et al., Word Processing in Groups, ch. 9), and moving a
    Delta^-1 left past a factor x turns x into tau(x). So
    (Delta^p f_1 ... f_k)^-1 = f_k^-1 ... f_1^-1 Delta^-p
    = Delta^(-k-p) tau^(k-1+p)(df_k) ... tau^p(df_1). Of a canonical form
    this is the inverse's normal form (`CanonicalForm.inv`); a factor may
    also be Delta, whose complement is the identity, or the identity,
    whose complement is Delta, which a later `_normalize` absorbs
    (`_quotient`). The parity flips once per factor in a plain loop, the
    fastest of the spellings tried."""
    complement, tau = simples.complement, simples.tau
    twist = (len(factors) + p) & 1
    out = []
    for f in reversed(factors):
        twist ^= 1
        out.append(tau[complement[f]] if twist else complement[f])
    return tuple(out)


def _perm_word(p: Sequence[int]) -> list[int]:
    """A positive word (1-based letters) whose permutation braid is p, by
    insertion sort: each entry in turn moves left past the larger entries
    before it, one swap and so one letter per entry passed, their number
    read by `bisect` on the sorted prefix. This is the word of sorting by
    swaps at the leftmost descent: while a prefix is sorted, the leftmost
    descent is the one the next entry makes, and it stays that entry's
    until the entry is in place. On the reversal the word is
    (s1)(s2 s1)...(s_(n-1) ... s1), the spelling of Delta (`delta`)."""
    seen, out = [], []
    for i, v in enumerate(p):
        j = bisect.bisect(seen, v)
        seen.insert(j, v)
        out.extend(range(i, j, -1))
    return out


# ---------------------------------------------------------------------------
# canonical forms


class CanonicalForm(NamedTuple):
    """Left canonical form Delta^p A_1 ... A_k; the group-element identity.

    Each factor A_i is the lexicographic rank of its permutation (see
    `_Simples`), an int from 1 to n! - 2; `to_json` and `to_word` are the
    ways to read it as a permutation. A NamedTuple: immutable, and equal to
    and hashed as the tuple of its fields, so no map mixes the two as
    keys."""

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
        # The complements of a left-weighted list, reversed and twisted by
        # tau (`_inverse`), are again left-weighted (El-Rifai and Morton
        # 1994), and none is Delta or the identity: this is already the
        # normal form.
        n, p, factors = self
        return CanonicalForm(n, -len(factors) - p, _inverse(_simples(n), factors, p))

    def to_word(self) -> BraidWord:
        """The form spelled out, each factor's letters read from the
        spelling table of `_Simples`, Delta among them as the factor of rank
        n! - 1, free-reduced: one rule for every sign of p. With r factors,
        j = min(-p, r) and q = -p - j for p < 0, and j = q = 0 otherwise, it
        is the fraction
        Delta^p A_1 ... A_r = (P Delta^q)^-1 Delta^max(p, 0) A_(j+1) ... A_r,
        where P = (Delta^-j A_1 ... A_j)^-1 is positive, its factors read
        by `_inverse`, so that few letters of Delta^-1 are spelled. Only
        inverse letters come before A_(j+1), and none of them cancels
        against it: P's first factor is A_j's right complement, which
        starts with no letter A_(j+1) starts with, as (A_j, A_(j+1)) is
        left-weighted."""
        n, p, factors = self
        simples = _simples(n)
        spelling, delta = simples.spelling, simples.delta
        j = max(min(-p, len(factors)), 0)
        inverted = (*_inverse(simples, factors[:j], -j), *[delta] * (-p - j))
        letters = [-k for f in reversed(inverted) for k in reversed(spelling[f])]
        for f in (*[delta] * p, *factors[j:]):
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
    passed in, a Delta they make counted in t; the left pushes are
    `_push_left` (the first domino rule), one call per operand with u
    passed in, a Delta they make counted in u. Both are called with the
    tables read here, so neither reads an attribute."""
    pivot, longest = 0, -1
    for i, form in enumerate(forms):
        if len(form.factors) > longest:
            pivot, longest = i, len(form.factors)
    n = forms[pivot].strands
    delta, leftweight, tau = _simples(n).push
    out = list(forms[pivot].factors)
    # t and u count the Delta powers the factors pass on each side, as
    # Deltas of the operands or made by a push; they sum to the product's.
    t = 0
    for form in forms[pivot + 1 :]:
        if form.strands != n:
            raise StrandMismatchError("strand counts differ")
        t = _push(out, form.factors, t + form.delta_power, delta, leftweight, tau)
    u = forms[pivot].delta_power
    for form in reversed(forms[:pivot]):
        if form.strands != n:
            raise StrandMismatchError("strand counts differ")
        u = _push_left(out, form.factors, u, delta, leftweight, tau) + form.delta_power
    if t & 1:
        out = map(tau, out)
    return CanonicalForm(n, t + u, tuple(out))


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
    return BraidWord(n, tuple(_perm_word(range(n - 1, -1, -1))))


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
# elements, two pushes each: about 0.1 s for a one-factor element at n = 8
# once the rank tables are filled, and seconds for the first element, which
# fills them. The count grows n-fold per strand, so the limit bounds time;
# 8 is the largest strand count the tests and benchmark exercise. Pairs that
# meet on a cycling circuit never reach the closure, so the limit refuses
# only the pairs that do not.
MAX_CLOSURE_STRANDS = 8


def _rigid(last: int, first: int, leftweight) -> bool:
    """Whether Delta^p A_1 ... A_k, k >= 1, is rigid, given last = A_k and
    first = tau^p(A_1): whether (last, first) is left-weighted, that is
    whether its entry in the caller's left-weighting table of `_Simples`
    is None."""
    return leftweight[last][first] is None


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
    decycling pass. The test is one left-weighting lookup (`_rigid`), the
    one the step's push makes first when there are two factors or more.

    A pass walks one running factor list in true values. A step takes the
    first factor off, twisted by tau when the Delta power is odd
    (Delta^p A_1 = tau^p(A_1) Delta^p), and pushes it onto the end with one
    `_push` call. A push that makes a Delta raises the infimum; `_push`
    then returns 1 and leaves its list in tau coordinates, so one tau pass
    brings it back to true values. A canonical form is built only where
    the pass ends."""
    n = cf.strands
    bound = max(1, n * (n - 1) // 2)
    delta, leftweight, tau = _simples(n).push
    v, g = cf, []
    for side in range(2):
        if v.factors:
            p, out, stale = v.delta_power, list(v.factors), 0
            while out and stale < bound:
                s = out[0]
                if p & 1:
                    s = tau(s)
                if _rigid(out[-1], s, leftweight):
                    v = CanonicalForm(n, p, tuple(out))
                    return (v.inv() if side else v), g
                del out[0]
                g.append(s)
                stale += 1
                if _push(out, (s,), 0, delta, leftweight, tau):
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
    record it, or to find the repeat among those recorded. The walk ends
    with no step bound: cycling never lowers the infimum nor raises the
    supremum, and a conjugacy class has finitely many elements between
    given bounds (from a super summit element, at most the size of the
    super summit set).

    A Delta power with no factors is its own cycle, by the identity. A
    step whose push makes a Delta raises the infimum and re-twists the list
    once. This module walks only super summit elements (`_summit`'s, and
    the closure's candidates, which share their bounds), whose infimum is
    already maximal, so it never runs that step; the step keeps the walk
    right on any form, which the tests check against a reference orbit."""
    n = v.strands
    delta, leftweight, tau = _simples(n).push
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
            if _push(out, (s,), 0, delta, leftweight, tau):
                p, out = p + 1, list(map(tau, out))
        steps.append(s)
        w = CanonicalForm(n, p, tuple(out))
        if w in seen:
            return orbit, steps, seen[w]
        seen[w] = len(orbit)
        orbit.append(w)


class _lazy:
    """A lazy attribute: the method's value, computed on first access and
    stored in the instance's `__dict__` under the method's name, where
    every later access finds it first, as this descriptor defines no
    `__set__`. Writing the `__dict__` directly works on frozen dataclasses
    too. functools' cached property does the same but, before Python 3.12,
    takes a lock on every first access, a cost paid on each fact a
    decision computes."""

    def __init__(self, method):
        self.method, self.name = method, method.__name__

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.method(obj)
        return value


class _ConjugacyRecord:
    """The per-braid stage of the conjugacy decision, for one canonical
    form `cf`. Both walks depend on this braid alone, so each runs once,
    on first use, and is kept as a lazy attribute (`_lazy`): `summit` is
    the summit element v and the simple factors of g with
    v = g^-1 * cf * g (`_summit`), and `circuit` is v's cycling circuit
    c_0, ..., c_(L-1), the simple conjugator s_i of each of its steps and
    the factors of the whole conjugator G to the circuit's start,
    c_0 = G^-1 * cf * G: the summit steps, then the steps from v to c_0
    (`_cycling_orbit`). A record whose pairs are all settled before a walk
    never runs it. `_conjugacy` meets two records and returns two
    conjugators, which `_quotient` multiplies out. The record with fewer
    factors may never walk its summit: the other's summit can refute the
    pair from its bounds alone. The second record's circuit may never be
    walked: when its summit element, or that element's tau-image, lies on
    the first record's circuit, the pair meets there without it, and when
    it equals the first record's rigid summit element neither circuit is
    walked.

    `anchor` names the circuit by one of its elements: the tuple-least
    form c* among the circuit elements and their tau-images, with the
    factors of a conjugator g, g^-1 * cf * g = c*: G s_0 ... s_(i-1) for
    c* = c_i, and for c* = tau(c_i) = Delta^-1 c_i Delta those factors and
    Delta, the factor of rank n! - 1, as `_circuit_meet` writes a
    tau-match. Where c* occurs more than once, g goes to its first
    occurrence in the order c_0, tau(c_0), c_1, tau(c_1), .... It is
    computed once per record, so once per distinct form where records are
    shared. Two braids with one anchor are conjugate by
    g_a * g_b^-1, `_quotient(n, g_a, g_b)`; `decision` merges a
    partition's orbits on it. When the summit element v = Delta^p A_1 ...
    A_k is rigid (`_rigid`), or a bare Delta power (k = 0), the anchor
    walks no circuit and makes no form per element: v starts its circuit
    (G is the summit conjugator), and cycling only rotates its factors, so
    with ext = A A for even p and A tau(A) A tau(A) for odd p, c_j has the
    factors ext[j : j + k] and s_j = ext[j + k], up to the first j > 0
    where the slice is A again; tau(c_j) is a slice of tau(A) tau(A) for
    even p and c_(j+k) for odd p. The candidates are compared in that
    order, c_j before tau(c_j) and j ascending, so the anchor and g are
    the walk's. Any other summit element walks `circuit`, takes c* as the
    least of its elements' factor tuples and their tau-images, and finds
    g with `_circuit_meet`, whose scan visits c_j before tau(c_j), j
    ascending, and stops at the first match."""

    def __init__(self, cf: CanonicalForm):
        self.cf = cf

    @_lazy
    def summit(self) -> tuple[CanonicalForm, list[int]]:
        return _summit(self.cf)

    @_lazy
    def circuit(self) -> tuple[list[CanonicalForm], list[int], list[int]]:
        orbit, steps, start = _cycling_orbit(self.summit[0])
        return orbit[start:], steps[start:], self.summit[1] + steps[:start]

    @_lazy
    def anchor(self) -> tuple[CanonicalForm, list[int]]:
        # Cycling keeps the infimum on a circuit, so its elements and their
        # tau-images share strands and Delta power, and compare as their
        # factors do.
        (v, g), n = self.summit, self.cf.strands
        delta, leftweight, tau = _simples(n).push
        p, a, k = v.delta_power, v.factors, len(v.factors)
        twisted = tuple(map(tau, a))
        if a and not _rigid(a[-1], (twisted if p & 1 else a)[0], leftweight):
            circuit, steps, g = self.circuit
            best = min(f for c in circuit for f in (c.factors, tuple(map(tau, c.factors))))
            anchor = circuit[0]._replace(factors=best)
            return anchor, g + _circuit_meet(circuit, steps, anchor)
        # A rigid v, or a bare Delta power, starts its circuit, which only
        # rotates its factors A: c_j = ext[j : j + k], step j is ext[j + k],
        # and tau(c_j) is a slice of tau(A) tau(A), or c_(j+k) for odd p.
        ext = (a + twisted) * 2 if p & 1 else a * 2
        shifted = ext[k:] if p & 1 else twisted * 2
        best, end = a, ()
        for j in range(2 * k if p & 1 else k):
            c, image = ext[j : j + k], shifted[j : j + k]
            if j and c == a:
                break
            if c < best:
                best, end = c, ext[k : k + j]
            if image < best:
                best, end = image, (*ext[k : k + j], delta)
        return CanonicalForm(n, p, best), [*g, *end]


def _conjugacy(
    a: _ConjugacyRecord, b: _ConjugacyRecord
) -> tuple[list[int], list[int]] | None:
    """The pair stage of the conjugacy decision, over two per-braid records
    on the same strand count; a complete decision of whether a.cf and b.cf
    are conjugate. Returns None when they are not, and otherwise the simple
    factors of two conjugators (h, g) with h^-1 * a.cf * h = g^-1 * b.cf * g,
    from which `_quotient` makes the conjugator h * g^-1. Each step below
    runs only when the ones before it settled nothing.

    Equal forms are conjugate by ([], []), and no walk runs. Otherwise the
    summit of the record with more factors (a on a tie) is walked first.
    A summit pass only raises the infimum and lowers the supremum, and all
    super summit elements of a class share both (El-Rifai and Morton
    1994), so when the other record's form has a larger Delta power than
    that summit's infimum, or a smaller supremum than its supremum, the
    pair is not conjugate and the other summit is never walked. Then the
    two summits must share infimum and supremum. A rigid v_a, a's summit
    element (`_rigid`), is the first element of its own circuit, so when
    v_b, b's summit element, or its tau-image equals v_a, h is a's summit
    conjugator, with Delta for a tau-match, g is b's, and no circuit is
    walked: the answer `_circuit_meet` gives at the circuit's first
    element. Only then is a's circuit walked; h starts with a's conjugator
    to its circuit's start (`_ConjugacyRecord.circuit`). If v_b or its
    tau-image lies on a's circuit, a's walk already holds the rest of h
    (`_circuit_meet`), g is b's summit conjugator and b's circuit is not
    walked. On a miss b's circuit is walked, g is b's conjugator to its
    start, and that start, when it is not v_b, is looked for on a's circuit
    too; if neither meets, the ultra summit set of a is closed under
    simple-element conjugation until it reaches b's circuit start
    (`_closure_search`). Raises ValueError when the closure search is
    needed on more than MAX_CLOSURE_STRANDS strands."""
    if a.cf == b.cf:
        return [], []
    wide, narrow = (b, a) if len(b.cf.factors) > len(a.cf.factors) else (a, b)
    v = wide.summit[0]
    if narrow.cf.inf > v.inf or narrow.cf.sup < v.sup:
        return None
    va, vb = a.summit[0], b.summit[0]
    if (va.inf, va.sup) != (vb.inf, vb.sup):
        return None
    n, p, factors = va
    _, leftweight, tau = _simples(n).push
    if factors and _rigid(factors[-1], tau(factors[0]) if p & 1 else factors[0], leftweight):
        if (path := _circuit_meet([va], [], vb)) is not None:
            return a.summit[1] + path, b.summit[1]
    circuit, steps, h = a.circuit
    if (path := _circuit_meet(circuit, steps, vb)) is not None:
        return h + path, b.summit[1]
    start, _, g = b.circuit
    if start[0] != vb:
        path = _circuit_meet(circuit, steps, start[0])
    if path is None:
        path = _closure_search(circuit[0], start[0])
    return None if path is None else (h + path, g)


def _quotient(n: int, h: list[int], g: list[int]) -> CanonicalForm:
    """The canonical form of h * g^-1 on n strands, for the simple factors
    h = s_1 ... s_j and g = t_1 ... t_k, in one normalization: with (h, g)
    from `_conjugacy(a, b)` it conjugates b.cf to a.cf, c * b.cf * c^-1 =
    a.cf, for `to_word` to spell.

    g^-1 is Delta^-k times the complements `_inverse` gives, and moving
    Delta^-k left past h twists each s_i by tau^k, so
    h * g^-1 = Delta^-k tau^k(s_1) ... tau^k(s_j) _inverse(g): one
    `_normalize` over j + k ranks, with no form of h or g, no inverse and
    no product. The left normal form is unique, so this is the form that
    multiplying out h and g^-1 gives."""
    simples, k = _simples(n), len(g)
    head = [simples.tau[s] for s in h] if k & 1 else h
    shift, fs = _normalize(n, (*head, *_inverse(simples, g, 0)))
    return CanonicalForm(n, shift - k, fs)


def _word_invariants(a: BraidWord) -> tuple[int, tuple[int, ...]]:
    """The exponent sum of a and the cycle type of its permutation, sorted
    cycle lengths, in one pass over its letters: conjugate braids agree on
    both. The pass sums the letter signs while it swaps an occupant list
    (occupant[pos] is the start of the strand at pos), which ends as the
    inverse of the permutation and so has its cycle type; the cycles are
    then read off that list with a `seen` list. It equals
    `exponent_sum(a)` and the sorted cycle lengths of `permutation(a)`
    without building the permutation or its cycles."""
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
    (`_ConjugacyRecord`) of the canonical forms, and a hit's two
    conjugators are multiplied out by `_quotient` in one normalization.
    Each cycling walk ends because cycling stays inside the finite super
    summit set.
    Raises ValueError when a pair that does not meet on the circuit needs
    the closure search on more than MAX_CLOSURE_STRANDS strands.
    """
    if a.strands != b.strands:
        raise StrandMismatchError("cannot compare words on different strand counts")
    if _word_invariants(a) != _word_invariants(b):
        return ConjugacyResult(False)
    pair = _conjugacy(_ConjugacyRecord(canonical_form(a)), _ConjugacyRecord(canonical_form(b)))
    if pair is None:
        return ConjugacyResult(False)
    return ConjugacyResult(True, _quotient(a.strands, *pair).to_word())


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
    delta, _, tau = _simples(target.strands).push
    target_tau = CanonicalForm(target.strands, target.delta_power, tuple(map(tau, target.factors)))
    for j, v in enumerate(circuit):
        if v == target:
            return steps[:j]
        if v == target_tau:
            return steps[:j] + [delta]
    return None


def _conjugates(v: CanonicalForm) -> Iterator[tuple[int, CanonicalForm]]:
    """The candidates of the closure at v: (p, s^-1 v s) for each simple
    element s of rank p, in rank order, Delta included, whose conjugate
    shares v's infimum and supremum; the others are passed over.

    With v = Delta^d A_1 ... A_k and s^-1 = Delta^-1 c, c the
    Delta-complement of s, s^-1 v s = Delta^(d-1) tau^d(c) A_1 ... A_k s,
    and A_1 ... A_k is already left-weighted. So each candidate starts from
    a copy of v's factors, pushes s on the right (`_push`) and c on the
    left (`_push_left`, which twists it by tau^d), and reads its Delta
    power and factor count off the raw list: a form is made only for a
    candidate that keeps v's bounds. For s = Delta, c is the identity, and
    on a bare Delta power the right push leaves s stored in an empty list,
    where the left push of c absorbs it."""
    n, d, factors = v
    simples = _simples(n)
    delta, leftweight, tau = simples.push
    complement, k = simples.complement, len(factors)
    for p in range(1, simples.count):
        out = list(factors)
        t = _push(out, (p,), 0, delta, leftweight, tau)
        u = _push_left(out, (complement[p],), d, delta, leftweight, tau)
        if t + u - 1 == d and len(out) == k:
            yield p, CanonicalForm(n, d, tuple(map(tau, out) if t & 1 else out))


def _closure_search(va: CanonicalForm, target: CanonicalForm) -> list[int] | None:
    """Close the ultra summit set of va under simple-element conjugation,
    breadth first, each level in tuple order (its elements share strands,
    infimum and supremum, so that is the order of their factor ranks),
    until it reaches target, which must differ from va (`_circuit_meet`
    has compared them). Each element is conjugated by every simple element
    in rank order that keeps its infimum and supremum (`_conjugates`).
    Returns the simple factors of h with target = h^-1 va h, read back
    along the breadth-first tree, or None once the set is exhausted.

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
    parent: dict[CanonicalForm, tuple[CanonicalForm, int] | None] = {va: None}
    rejected: set[CanonicalForm] = set()
    members: set[CanonicalForm] = set()
    frontier = [va]
    while frontier:
        frontier.sort()
        nxt: list[CanonicalForm] = []
        for v in frontier:
            for p, w in _conjugates(v):
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
