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
number of forms is one push pass (`_product`): it keeps the left-weighted
factors of the first operand and pushes only those of the others. A
cycling walk (`_cycling`) keeps one running factor list and makes one push
per step, and builds a form only where it keeps one: `_summit` at the end
of each pass, and `_cycling_orbit` for each element it records. The walk
has its own one-factor copy of the push loop: routing `_normalize` through
a push helper shared with it made normal forms about 5 % slower.

Conjugacy is decided through the ultra summit set (Gebhardt 2005). A
representative reaches the super summit set in one cycling pass per side:
cycling it makes its infimum maximal, and cycling its inverse decycles it,
making its supremum minimal without lowering the infimum, so no second
round is needed (see `_summit`). Both cycling orbits are then walked onto a
circuit. Most conjugate pairs meet there: b's circuit element, or its
tau-image, lies on a's circuit, and the walk gives the conjugator. Only
pairs that do not meet go on to the closure, where a's ultra summit set is
closed under conjugation by simple elements, keeping only elements with the
summit infimum/supremum that lie on their own cycling circuit. It
conjugates by rank, each s^-1 v s in one normalization (see `_conjugate`),
and its strand limit, MAX_CLOSURE_STRANDS, bounds the time of the n! - 1
conjugations per element and applies to those pairs alone. Every cycling
walk ends without a step bound: cycling never lowers the infimum nor
raises the supremum, and a conjugacy class has finitely many elements
between given bounds (from a super summit element, at most the size of the
super summit set). Two braids are conjugate iff their ultra summit sets
intersect. Every walk records its conjugator as a list of simple factors:
the meet and the closure return only the path from the start of a's
circuit, and only `_witness` joins each side's lists and normalizes them
once, when they become the witness.

The decision has two stages. The summit and circuit walks depend on one
braid only, and a per-braid record (`_ConjugacyRecord`) holds each as a
cached property, walked on first use. The pair stage (`_conjugacy`) meets
two records: the infimum/supremum comparison, the circuit meet and the
closure on a miss; it returns the path it found, from which `_witness`
multiplies out a conjugator. `is_conjugate` is two word checks, the pair
stage over two fresh records and the witness on a hit; a caller that
decides many pairs of the same braids, as the strong Nielsen decision does
per orbit, keeps one record per braid, walks each braid once and
multiplies out a witness only when it needs one.

A simple element is stored as the lexicographic rank of its permutation, an
int (see `_Simples`): factor lists, conjugator lists and canonical forms
hold ranks, and left-weighting, tau, the Delta-complement and the factor of
each letter are read from int-keyed tables that fill as they are read, so
the hot loops hash and compare ints only, and a word on many strands fills
only the letters it uses. `CanonicalForm` is a NamedTuple, made, hashed and
compared in C; as it equals the plain tuple of its fields, no map mixes the
two as keys. Rank order is the order of the permutation tuples, so every
sort and search order is that of the permutations. `CanonicalForm.to_json`
and `to_word` are where a rank is read back as a permutation; a rank made
from a letter, or by ranking a permutation, keeps that permutation, so on
many strands the form of a word is read back without unranking (which is
quadratic in n). A left-weighting miss on up to _ATOM_STRANDS (6) strands
walks a per-rank table of atoms, the starting and finishing sets of each
simple element and the ranks one crossing away, read once per rank off its
permutation; it moves one crossing per step as `_leftweight` does on
permutations, which fills the misses on more strands. The permutations are
0-based tuples mapping start position to end position. Delta is the
reversal, so tau(p) = Delta^-1 p Delta is p reversed with each value v
replaced by n - 1 - v, and the Delta-complement Delta p^-1 is the inverse
of p reversed.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from typing import Iterable, Iterator, NamedTuple

from .words import (
    BraidWord,
    StrandMismatchError,
    exponent_sum,
    free_reduce,
    permutation,
)

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
    table on more than _ATOM_STRANDS strands; below that, the atom walk of
    `_Simples` makes the same moves on ranks.
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


# Left-weighting misses walk the atom table on up to this many strands and
# run `_leftweight` on permutations above it. Measured as cold `_conjugate`
# of one summit element by all n! - 1 simple elements, every table emptied
# first, the two fills alternated in one process (2-vCPU guest, Python
# 3.11), medians of the walk against permutations: n = 5 3.7 against
# 3.9 ms and n = 6 26 against 28 ms (the walk faster in 18 and 16 of 20
# runs), n = 7 211 against 177 ms and n = 8 2.7 against 2.5 s (faster in 1
# of 6). The atom table has n! entries, each filled by ranking up to n - 1
# permutations back, and a fill walks one step per crossing it moves, so
# from 7 strands on the walk no longer pays.
_ATOM_STRANDS = 6

_PERMS: list[_Memo] = []
_RANKS: list[_Memo] = []
_TAUS: list[_Memo] = []
_COMPLEMENTS: list[_Memo] = []
_LEFTWEIGHTS: list[_Memo] = []
_LETTERS: list[_Memo] = []
_ATOMS: list[_Memo] = []


class _Simples:
    """The simple elements of B_n, each identified by the lexicographic
    rank of its permutation: 0 is the identity, n! - 1 is Delta, and rank
    order is the order of the permutation tuples. Tables keyed by rank give
    tau, the Delta-complement and the permutation; the left-weighting of a
    pair (x, y) is keyed by x * n! + y and gives a pair of ranks. The
    tables fill as they are read. A tau or complement miss is computed on
    permutations (`_tau`, `_delta_complement`) and ranked back through the
    `rank` table, keyed by permutation, whose fill also stores the
    permutation it ranks in `perm`, so a rank made there is read back
    without unranking.

    A left-weighting miss on up to _ATOM_STRANDS strands walks ranks: the
    `atom` table, keyed by rank, holds each simple element's starting and
    finishing sets and the ranks one crossing away, read off its
    permutation and ranked back through `rank` as tau and the complement
    are. The fill moves the lowest crossing of S(y) \\ F(x) from y to x,
    x <- x sigma and y <- sigma^-1 y, until S(y) lies in F(x). These are
    the moves of `_leftweight`, and a left-weighted pair of simple elements
    is fixed by its product, its first factor being xy meet Delta
    (El-Rifai and Morton 1994), so the order of the moves does not change
    the result. On more
    strands the atom table would cost more to fill than it saves; there is
    no atom table, and a miss runs `_leftweight` on permutations.

    The `letter` table, keyed by a letter k of B_n, gives the rank of the
    simple factor that stands for k in a canonical form and that of its
    tau-image: sigma_i itself for k = i, and Delta sigma_i^-1 for k = -i,
    since sigma_i^-1 = Delta^-1 (Delta sigma_i^-1). It fills one letter at
    a time from two factorials, with no permutation ranked, and stores the
    two permutations, built in O(n), in `perm`."""

    __slots__ = (
        "count", "delta", "perm", "rank", "tau", "complement", "leftweight", "letter", "atom"
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

        self.tau = _Memo(on_perm(_tau), _TAUS, 1 << 18)
        self.complement = _Memo(on_perm(_delta_complement), _COMPLEMENTS, 1 << 18)

        if n <= _ATOM_STRANDS:

            def atoms(r: int) -> tuple[int, int, list[int], list[int]]:
                # The starting and finishing sets S and F of p = perm[r] as
                # bitmasks, bit i for sigma_(i+1): the descents of p and of
                # its inverse q. Per i, the rank of sigma_(i+1)^-1 r for i in
                # S, which is p with the positions i and i + 1 swapped, and
                # that of r sigma_(i+1) for i not in F, which is p with the
                # values i and i + 1 swapped, at q[i] and q[i + 1]; 0 elsewhere.
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
                return starts, finishes, up, down

            # 1! + ... + 6! = 873 atoms in all, so the bound is never
            # reached; a higher cut needs a higher bound, or misses thrash.
            atom = self.atom = _Memo(atoms, _ATOMS, 1 << 10)

            def leftweight(key: int) -> tuple[int, int]:
                x, y = divmod(key, count)
                _, finishes, up, _ = atom[x]
                starts, _, _, down = atom[y]
                while move := starts & ~finishes:
                    i = (move & -move).bit_length() - 1
                    x, y = up[i], down[i]
                    _, finishes, up, _ = atom[x]
                    starts, _, _, down = atom[y]
                return x, y

        else:
            self.atom = None

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


@functools.lru_cache(maxsize=None)
def _simples(n: int) -> _Simples:
    """The rank tables of B_n, made on first use."""
    return _Simples(n)


def _normalize(
    n: int, factors: Iterable[int], weighted: Iterable[int] = ()
) -> tuple[int, tuple[int, ...]]:
    """Left-weight `weighted + factors`; return the power of Delta in the
    product and the remaining factors (no Delta, no id).

    `weighted` must already be left-weighted with no identity factor: the
    factors of a canonical form, or their tau-images, since tau keeps pairs
    left-weighted. The other factors are pushed onto it one at a time. A
    push appends the factor and left-weights pairs from the right end
    leftward, stopping at the first pair left-weighting leaves unchanged
    (El-Rifai and Morton 1994). Left-weighting every pair from right to
    left yields a left-weighted list, and stopping early gives the same
    list: once a pair is unchanged, each pair further left still holds its
    original, already left-weighted factors and would be unchanged too.
    Only the pushed factor can be absorbed whole, so an identity factor
    can only appear at the end, where it is dropped. The left normal form
    is unique, so this equals what sweeping all pairs to a fixpoint gives,
    at a fraction of the left-weighting lookups.

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
    count, delta, leftweight = simples.count, simples.delta, simples.leftweight
    tau = simples.tau.__getitem__
    out = list(weighted)
    flips = 0
    for f in factors:
        if not f:
            continue
        i = len(out)
        out.append(tau(f) if flips & 1 else f)
        while i > 0:
            a = out[i - 1]
            x, y = leftweight[a * count + out[i]]
            if x == a:
                break
            out[i] = y
            if x == delta:
                del out[i - 1]
                flips += 1
                out[i - 1 :] = map(tau, out[i - 1 :])
                break
            out[i - 1] = x
            i -= 1
        if not out[-1]:
            out.pop()
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
        letters: list[int] = []
        n = self.strands
        if self.delta_power != 0:
            dw = _delta_letters(n)
            if self.delta_power > 0:
                letters.extend(dw * self.delta_power)
            else:
                inv = [-k for k in reversed(dw)]
                letters.extend(inv * (-self.delta_power))
        perm = _simples(n).perm
        for f in self.factors:
            letters.extend(_perm_word(perm[f]))
        return BraidWord(n, tuple(letters))

    def to_json(self) -> dict:
        perm = _simples(self.strands).perm
        return {
            "n": self.strands,
            "delta_power": self.delta_power,
            "factors": [[v + 1 for v in perm[f]] for f in self.factors],
        }


def _product(*forms: CanonicalForm) -> CanonicalForm:
    """The canonical form of a product of forms, in one normalization: the
    Deltas move to the front, twisting each form's factors by tau^q, q the
    Delta powers to its right; the first form's twisted factors are the
    left-weighted prefix and the others' are pushed."""
    n = forms[0].strands
    tau = _simples(n).tau.__getitem__
    power, parts = 0, []
    for form in reversed(forms):
        if form.strands != n:
            raise StrandMismatchError("strand counts differ")
        parts.append(map(tau, form.factors) if power % 2 else form.factors)
        power += form.delta_power
    left = parts.pop()
    shift, fs = _normalize(n, [f for part in reversed(parts) for f in part], left)
    return CanonicalForm(n, power + shift, fs)


def _delta_letters(n: int) -> list[int]:
    """Half twist as a word: (s1)(s2 s1)...(s_{n-1} ... s1)."""
    out: list[int] = []
    for i in range(1, n):
        out.extend(range(i, 0, -1))
    return out


def canonical_form(a: BraidWord) -> CanonicalForm:
    """Left canonical form of a word; idempotent on its own spellings."""
    n = a.strands
    if n <= 1:
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
# fills them, left-weighting on permutations (`_ATOM_STRANDS`); at n = 6
# 5 ms and 22-31 ms (2-vCPU guest, Python 3.11). The count grows n-fold
# per strand, so the limit bounds time; 8 is the largest strand count the
# tests and benchmark exercise. Pairs that meet on a cycling circuit never
# reach the closure, so the limit refuses only the pairs that do not.
MAX_CLOSURE_STRANDS = 8


def _cycling(v: CanonicalForm) -> Iterator[tuple[int, list[int], int]]:
    """Cycle v without end, on one running factor list. After each step,
    yield the Delta power, the factor list and the simple conjugator s of
    the step, so that the element is s^-1 v s for v the one before it; the
    list is the running one, which the next step changes in place, so a
    caller that keeps an element copies it. A Delta power with no factors
    is its own cycle, by the identity.

    A step takes the first factor off, twisted by tau when the Delta power
    is odd (Delta^p A_1 = tau^p(A_1) Delta^p), and pushes it onto the end:
    the left-weighted push of `_normalize`, for one factor. If the push
    makes a Delta, the Delta is dropped and counted, and only the factors in
    front of it change, by tau; the ones behind it were just written in
    true values and stay, since `_normalize`'s re-twist of them and its
    final tau pass would cancel."""
    simples = _simples(v.strands)
    count, delta, leftweight = simples.count, simples.delta, simples.leftweight
    tau = simples.tau.__getitem__
    p, out = v.delta_power, list(v.factors)
    while True:
        if not out:
            yield p, out, 0
            continue
        s = out.pop(0)
        if p & 1:
            s = tau(s)
        i = len(out)
        out.append(s)
        while i > 0:
            a = out[i - 1]
            x, y = leftweight[a * count + out[i]]
            if x == a:
                break
            out[i] = y
            if x == delta:
                del out[i - 1]
                p += 1
                out[: i - 1] = map(tau, out[: i - 1])
                break
            out[i - 1] = x
            i -= 1
        if not out[-1]:
            out.pop()
        yield p, out, s


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
    of s^-1 v s. A pass walks one running factor list (`_cycling`), one
    push per step, and builds a canonical form only at its end."""
    n = cf.strands
    bound = max(1, n * (n - 1) // 2)
    v, g = cf, []
    for _ in range(2):
        if v.factors:
            stale, inf = 0, v.inf
            for p, out, s in _cycling(v):
                g.append(s)
                stale = 0 if p > inf else stale + 1
                inf = p
                if stale >= bound or not out:
                    break
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
    The walk runs on one running factor list (`_cycling`), one push per
    step, and builds the canonical form of each element only to record it,
    or to find the repeat among those recorded."""
    n = v.strands
    orbit = [v]
    steps: list[int] = []
    seen = {v: 0}
    walk = _cycling(v)
    while True:
        p, out, s = next(walk)
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
    and `_witness` multiplies out the conjugator of a pair they meet on."""

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
    circuit element, from which `_witness` multiplies out a conjugator.

    Equal forms are conjugate, with the empty path, and no walk runs.
    Otherwise the summits must share infimum and supremum, and only then
    are the circuits walked: if b's circuit element or its tau-image lies
    on a's circuit, a's walk already holds the path (`_circuit_meet`); if
    not, the ultra summit set of a is closed under simple-element
    conjugation until it reaches b's element (`_closure_search`).
    Raises ValueError when the closure search is needed on more than
    MAX_CLOSURE_STRANDS strands."""
    if a.cf == b.cf:
        return []
    va, vb = a.summit[0], b.summit[0]
    if (va.inf, va.sup) != (vb.inf, vb.sup):
        return None
    circuit, steps, _ = a.circuit
    target = b.circuit[0][0]
    path = _circuit_meet(circuit, steps, target)
    if path is None:
        path = _closure_search(circuit[0], target)
    return path


def _witness(a: _ConjugacyRecord, b: _ConjugacyRecord, path: list[int]) -> BraidWord:
    """A conjugator c with c * b.cf * c^-1 = a.cf, from the path
    `_conjugacy(a, b)` returned: the identity for equal forms, and
    otherwise h * g^-1, free-reduced, where h joins a's summit and circuit
    walks with the path and g joins b's, each list normalized once."""
    n = a.cf.strands
    if a.cf == b.cf:
        return BraidWord.identity(n)
    h = CanonicalForm(n, *_normalize(n, a.summit[1] + a.circuit[2] + path))
    g = CanonicalForm(n, *_normalize(n, b.summit[1] + b.circuit[2]))
    return free_reduce(h.mul(g.inv()).to_word())


def is_conjugate(a: BraidWord, b: BraidWord) -> ConjugacyResult:
    """Complete conjugacy decision in B_n with witness extraction.

    Returns a witness c with c * b * c^-1 = a whenever the answer is yes.
    Pairs that differ in exponent sum or cycle type are refused from the
    words; the rest is the pair stage `_conjugacy` over two fresh
    per-braid records (`_ConjugacyRecord`) of the canonical forms, and a
    hit's path is multiplied out by `_witness`. Each cycling walk ends
    because cycling stays inside the finite super summit set.
    Raises ValueError when a pair that does not meet on the circuit needs
    the closure search on more than MAX_CLOSURE_STRANDS strands.
    """
    if a.strands != b.strands:
        raise StrandMismatchError("cannot compare words on different strand counts")
    if exponent_sum(a) != exponent_sum(b):
        return ConjugacyResult(False)
    if permutation(a).cycle_type() != permutation(b).cycle_type():
        return ConjugacyResult(False)
    ra, rb = _ConjugacyRecord(canonical_form(a)), _ConjugacyRecord(canonical_form(b))
    if (path := _conjugacy(ra, rb)) is None:
        return ConjugacyResult(False)
    return ConjugacyResult(True, _witness(ra, rb, path))


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
    which `_normalize` skips, and the Delta pushed last is absorbed."""
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
