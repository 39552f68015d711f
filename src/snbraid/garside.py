"""
Garside left canonical form and the conjugacy decision for Artin braid groups.

A braid is stored as Delta^p A_1 ... A_k where Delta is the positive half
twist and each factor A_i is a permutation braid (a positive braid in which
any two strands cross at most once), identified with its permutation.
Adjacent factors satisfy the left-weighted condition: the starting set of
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
normal form of a word takes time linear in its length. A product keeps the
left-weighted factors of its left operand and pushes only those of its
right operand; a cycling step pushes one factor.

Conjugacy is decided through the ultra summit set (Gebhardt 2005). A
representative reaches the super summit set in one cycling pass per side:
cycling it makes its infimum maximal, and cycling its inverse decycles it,
making its supremum minimal without lowering the infimum, so no second
round is needed (see `_summit`). Both cycling orbits are then walked onto a
circuit. Most conjugate pairs meet there: b's circuit element, or its
tau-image, lies on a's circuit, and the walk gives the conjugator. Only
pairs that do not meet go on to the closure, where a's ultra summit set is
closed under conjugation by simple elements, keeping only elements with the
summit infimum/supremum that lie on their own cycling circuit; its strand
limit, MAX_CLOSURE_STRANDS, applies to those pairs alone. Every cycling
walk ends without a step bound: cycling never lowers the infimum nor
raises the supremum, and a conjugacy class has finitely many elements
between given bounds (from a super summit element, at most the size of the
super summit set). Two braids are conjugate iff their ultra summit sets
intersect. Every walk records its conjugator as a list of simple factors,
normalized once, and only when it becomes the witness.

Internally permutations are 0-based tuples mapping start position to end
position, composed left-to-right: `_pmul(p, q)` is "p then q".
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
from typing import Iterable

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


@functools.lru_cache(maxsize=None)
def _pid(n: int) -> Perm:
    return tuple(range(n))


@functools.lru_cache(maxsize=None)
def _pw0(n: int) -> Perm:
    return tuple(range(n - 1, -1, -1))


def _pmul(p: Perm, q: Perm) -> Perm:
    """p then q (as braid stacking; q o p as functions)."""
    return tuple(q[v] for v in p)


def _pinv(p: Perm) -> Perm:
    inv = [0] * len(p)
    for i, v in enumerate(p):
        inv[v] = i
    return tuple(inv)


@functools.lru_cache(maxsize=1 << 18)
def _tau(p: Perm) -> Perm:
    """Conjugation by Delta: tau(x) = Delta^-1 x Delta. An involution."""
    w0 = _pw0(len(p))
    return _pmul(_pmul(w0, p), w0)


@functools.lru_cache(maxsize=1 << 18)
def _delta_complement(p: Perm) -> Perm:
    """The simple element Delta * p^-1, so that p^-1 = Delta^-1 * complement."""
    return _pmul(_pw0(len(p)), _pinv(p))


@functools.lru_cache(maxsize=1 << 20)
def _leftweight(x: Perm, y: Perm) -> tuple[Perm, Perm]:
    """Rebalance the pair so that (x', y') is left-weighted and x'y' = xy.

    Moves crossings sigma_i with i in S(y) \\ F(x) from the head of y to the
    tail of x until the starting set of y is contained in the finishing set
    of x. Each move is O(1) via simultaneous image/position bookkeeping.
    """
    n = len(x)
    lx, ly = list(x), list(y)
    ix, iy = list(_pinv(x)), list(_pinv(y))
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
                v, w = ly[i], ly[i + 1]
                ly[i], ly[i + 1] = w, v
                iy[w], iy[v] = i, i + 1
                moved = True
    return tuple(lx), tuple(ly)


def _normalize(
    n: int, factors: Iterable[Perm], weighted: Iterable[Perm] = ()
) -> tuple[int, tuple[Perm, ...]]:
    """Left-weight `weighted + factors`; return the power of Delta in the
    product and the remaining factors (no Delta, no id).

    `weighted` must already be left-weighted with no identity factor: the
    factors of a canonical form, or their tau-images, since tau keeps pairs
    left-weighted. The other factors are pushed onto it one at a time. A
    push appends the factor and left-weights pairs from the right end
    leftward, stopping at the first pair `_leftweight` leaves unchanged
    (El-Rifai and Morton 1994). Left-weighting every pair from right to
    left yields a left-weighted list, and stopping early gives the same
    list: once a pair is unchanged, each pair further left still holds its
    original, already left-weighted factors and would be unchanged too.
    Only the pushed factor can be absorbed whole, so an identity factor
    can only appear at the end, where it is dropped. The left normal form
    is unique, so this equals what sweeping all pairs to a fixpoint gives,
    at a fraction of the `_leftweight` calls.

    A push that turns a factor into Delta ends there: a Delta = Delta tau(a)
    (Epstein et al., Word Processing in Groups, ch. 9), so the Delta is
    dropped and counted in `flips`, and only the factors before it change,
    by tau. Each stored factor is tau^flips of its true value: tau is an
    automorphism of the simple elements, so `_leftweight` commutes with it
    and runs on the stored values as they are. An absorption thus leaves
    the factors before the Delta as stored and re-twists only those after
    it, all written by this push, so a push costs only the distance it
    travels; one tau pass at the end undoes an odd `flips`. Delta factors
    at the front, which `_leftweight` never changes, stay there and are
    counted with the rest."""
    w0 = _pw0(n)
    idp = _pid(n)
    out = list(weighted)
    flips = 0
    for f in factors:
        if f == idp:
            continue
        i = len(out)
        out.append(_tau(f) if flips & 1 else f)
        while i > 0:
            a = out[i - 1]
            x, y = _leftweight(a, out[i])
            if x == a:
                break
            out[i] = y
            if x == w0:
                del out[i - 1]
                flips += 1
                out[i - 1 :] = map(_tau, out[i - 1 :])
                break
            out[i - 1] = x
            i -= 1
        if out[-1] == idp:
            out.pop()
    if flips & 1:
        out = list(map(_tau, out))
    lo = 0
    while lo < len(out) and out[lo] == w0:
        lo += 1
    return flips + lo, tuple(out[lo:])


def _perm_word(p: Perm) -> list[int]:
    """A positive word (1-based letters) whose permutation braid is p."""
    q = list(p)
    out = []
    again = True
    while again:
        again = False
        for i in range(len(q) - 1):
            if q[i] > q[i + 1]:
                out.append(i + 1)
                q[i], q[i + 1] = q[i + 1], q[i]
                again = True
                break
    return out


# ---------------------------------------------------------------------------
# canonical forms


@dataclasses.dataclass(frozen=True)
class CanonicalForm:
    """Left canonical form Delta^p A_1 ... A_k; the group-element identity."""

    strands: int
    delta_power: int
    factors: tuple[Perm, ...]

    @staticmethod
    def identity(n: int) -> "CanonicalForm":
        return CanonicalForm(n, 0, ())

    @staticmethod
    def simple(n: int, p: Perm) -> "CanonicalForm":
        if p == _pid(n):
            return CanonicalForm(n, 0, ())
        if p == _pw0(n):
            return CanonicalForm(n, 1, ())
        return CanonicalForm(n, 0, (p,))

    @property
    def inf(self) -> int:
        return self.delta_power

    @property
    def sup(self) -> int:
        return self.delta_power + len(self.factors)

    def mul(self, other: "CanonicalForm") -> "CanonicalForm":
        if self.strands != other.strands:
            raise StrandMismatchError("strand counts differ")
        q = other.delta_power
        left = self.factors if q % 2 == 0 else map(_tau, self.factors)
        shift, fs = _normalize(self.strands, other.factors, weighted=left)
        return CanonicalForm(self.strands, self.delta_power + q + shift, fs)

    def inv(self) -> "CanonicalForm":
        k = len(self.factors)
        p = self.delta_power
        factors = []
        for j, a in enumerate(reversed(self.factors)):  # a = A_k, A_{k-1}, ...
            y = _delta_complement(a)
            if (k - 1 - j + p) % 2 == 1:
                y = _tau(y)
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
        for f in self.factors:
            letters.extend(_perm_word(f))
        return BraidWord(n, tuple(letters))

    def sort_key(self):
        return (self.delta_power, len(self.factors), self.factors)

    def to_json(self) -> dict:
        return {
            "n": self.strands,
            "delta_power": self.delta_power,
            "factors": [[v + 1 for v in f] for f in self.factors],
        }


def _delta_letters(n: int) -> list[int]:
    """Half twist as a word: (s1)(s2 s1)...(s_{n-1} ... s1)."""
    out: list[int] = []
    for i in range(1, n):
        out.extend(range(i, 0, -1))
    return out


@functools.lru_cache(maxsize=None)
def _letter_factors(n: int) -> dict[int, tuple[Perm, Perm]]:
    """For each letter k of B_n, the simple factor that stands for it in a
    canonical form and that factor's tau-image: sigma_i itself for k = i,
    and Delta sigma_i^-1 for k = -i, since sigma_i^-1 = Delta^-1 (Delta
    sigma_i^-1)."""
    w0 = _pw0(n)
    table = {}
    for i in range(1, n):
        swap = list(range(n))
        swap[i - 1], swap[i] = i, i - 1
        s = tuple(swap)
        for k, f in ((i, s), (-i, _pmul(w0, s))):
            table[k] = (f, _tau(f))
    return table


def canonical_form(a: BraidWord) -> CanonicalForm:
    """Left canonical form of a word; idempotent on its own spellings."""
    n = a.strands
    if n <= 1:
        return CanonicalForm(n, 0, ())
    # Collect the Delta^-1 powers at the front; each factor gets conjugated
    # by the Delta power accumulated to its right.
    table = _letter_factors(n)
    factors: list[Perm] = []
    delta_pow = 0
    for k in reversed(a.letters):
        factors.append(table[k][delta_pow % 2])
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


# The closure search conjugates by all n! - 1 simple elements, a table that
# takes about half a second and 30 MB at n = 8 and grows about ninefold per
# strand; 8 is the largest strand count the tests and benchmark exercise.
# Pairs that meet on a cycling circuit never reach the closure, so the limit
# refuses only the pairs that do not.
MAX_CLOSURE_STRANDS = 8


@functools.lru_cache(maxsize=None)
def _simple_conjugators(
    n: int,
) -> tuple[tuple[Perm, CanonicalForm, CanonicalForm], ...]:
    """All nontrivial simple elements of B_n as (permutation, form, inverse
    form), in lexicographic order of the permutation."""
    out = []
    for p in itertools.permutations(range(n)):
        if p == _pid(n):
            continue
        s = CanonicalForm.simple(n, p)
        out.append((p, s, s.inv()))
    return tuple(out)


def _cycle(v: CanonicalForm) -> tuple[CanonicalForm, Perm]:
    """One cycling step; returns (new element, simple conjugator used)."""
    if not v.factors:
        return v, _pid(v.strands)
    a1 = v.factors[0]
    iota = _tau(a1) if v.delta_power % 2 == 1 else a1
    shift, fs = _normalize(v.strands, (iota,), weighted=v.factors[1:])
    return CanonicalForm(v.strands, v.delta_power + shift, fs), iota


def _summit(cf: CanonicalForm) -> tuple[CanonicalForm, list[Perm]]:
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
    of s^-1 v s."""
    n = cf.strands
    bound = max(1, n * (n - 1) // 2)
    v, g = cf, []
    for _ in range(2):
        stale = 0
        while stale < bound and v.factors:
            w, s = _cycle(v)
            stale = 0 if w.inf > v.inf else stale + 1
            v = w
            g.append(s)
        v = v.inv()
    return v, g


def _cycling_orbit(
    v: CanonicalForm,
) -> tuple[list[CanonicalForm], list[Perm], int]:
    """Cycle v until an element repeats. Returns the elements visited, the
    simple conjugator s_i of each step as a permutation (orbit[i + 1] =
    s_i^-1 orbit[i] s_i) and the index where the circuit starts; v lies on
    its own circuit, that is in its ultra summit set, iff that index is 0."""
    orbit = [v]
    steps: list[Perm] = []
    seen = {v: 0}
    while True:
        w, s = _cycle(orbit[-1])
        steps.append(s)
        if w in seen:
            return orbit, steps, seen[w]
        seen[w] = len(orbit)
        orbit.append(w)


def _to_circuit(
    v: CanonicalForm, g: list[Perm]
) -> tuple[CanonicalForm, list[Perm]]:
    """The first element of v's cycling circuit, with the simple factors g
    extended by the conjugators that lead there."""
    orbit, steps, start = _cycling_orbit(v)
    return orbit[start], g + steps[:start]


def is_conjugate(a: BraidWord, b: BraidWord) -> ConjugacyResult:
    """Complete conjugacy decision in B_n with witness extraction.

    Returns a witness c with c * b * c^-1 = a whenever the answer is yes.
    Both braids are brought onto a cycling circuit of their ultra summit
    sets; each cycling walk ends because cycling stays inside the finite
    super summit set. If b's circuit element or its tau-image lies on a's
    circuit, the walk of a already holds the conjugator (`_circuit_meet`).
    Otherwise the set of a is closed under simple-element conjugation until
    it reaches b's element. The walks record each conjugator as a list of
    simple factors, and only a witness is multiplied out: each side is
    normalized once. Raises ValueError when a pair that does not meet on
    the circuit needs the closure search on more than MAX_CLOSURE_STRANDS
    strands.
    """
    if a.strands != b.strands:
        raise StrandMismatchError("cannot compare words on different strand counts")
    n = a.strands
    if exponent_sum(a) != exponent_sum(b):
        return ConjugacyResult(False)
    if permutation(a).cycle_type() != permutation(b).cycle_type():
        return ConjugacyResult(False)
    ca, cb = canonical_form(a), canonical_form(b)
    if ca == cb:
        return ConjugacyResult(True, BraidWord.identity(n))

    va, ga = _summit(ca)
    vb, gb = _summit(cb)
    if (va.inf, va.sup) != (vb.inf, vb.sup):
        return ConjugacyResult(False)

    orbit, steps, start = _cycling_orbit(va)
    ga += steps[:start]
    vb, gb = _to_circuit(vb, gb)
    found = _circuit_meet(orbit[start:], steps[start:], ga, vb)
    if found is None:
        found = _closure_search(orbit[start], ga, vb)
    if found is None:
        return ConjugacyResult(False)
    h = CanonicalForm(n, *_normalize(n, found))
    g = CanonicalForm(n, *_normalize(n, gb))
    witness = free_reduce(h.mul(g.inv()).to_word())
    return ConjugacyResult(True, witness)


def _circuit_meet(
    circuit: list[CanonicalForm],
    steps: list[Perm],
    g: list[Perm],
    target: CanonicalForm,
) -> list[Perm] | None:
    """Look for target, or its tau-image Delta^-1 target Delta, on a cycling
    circuit whose first element is g^-1 * (original a) * g, with the simple
    conjugator of each cycling step (circuit[j + 1] = s_j^-1 circuit[j] s_j).
    Conjugators are lists of simple factors. Returns the factors of h with
    target = h^-1 * (original a) * h, or None when neither lies on the
    circuit.

    circuit[j] is conjugated from a by g * s_0 * ... * s_(j-1), and a
    tau-match circuit[j] = Delta^-1 target Delta needs one more Delta, as
    Delta^2 is central. Every element found is an explicit conjugate of a,
    so a match is sound; a miss decides nothing."""
    n = target.strands
    target_tau = CanonicalForm(n, target.delta_power, tuple(map(_tau, target.factors)))
    for j, v in enumerate(circuit):
        if v == target:
            return g + steps[:j]
        if v == target_tau:
            return g + steps[:j] + [_pw0(n)]
    return None


def _closure_search(
    va: CanonicalForm, ga: list[Perm], target: CanonicalForm
) -> list[Perm] | None:
    """Close the ultra summit set of va under simple-element conjugation,
    breadth first in lexicographic order of the canonical-form encoding.
    Conjugators are lists of simple factors, ga leading from the original
    a to va. Returns the factors of h with target = h^-1 * (original a) * h
    when the target is reached, else None once the set is exhausted.

    Each visited element records only its parent and the simple element
    that conjugates the parent to it; the path is read back once, on a hit.
    Each cycling walk classifies every element it visits: those before the
    circuit never return to themselves and are not in the ultra summit set,
    and those on it are. A candidate met on an earlier walk is therefore not
    walked again."""
    n = va.strands
    if va == target:
        return ga
    if n > MAX_CLOSURE_STRANDS:
        raise ValueError(
            f"conjugacy search on {n} strands is not supported: it tries all "
            f"{n}! simple elements per summit element, and the limit is "
            f"{MAX_CLOSURE_STRANDS} strands"
        )
    inf_sup = (va.inf, va.sup)
    simples = _simple_conjugators(n)
    parent: dict[CanonicalForm, tuple[CanonicalForm, Perm] | None] = {va: None}
    rejected: set[CanonicalForm] = set()
    members: set[CanonicalForm] = set()
    frontier = [va]
    while frontier:
        frontier.sort(key=CanonicalForm.sort_key)
        nxt: list[CanonicalForm] = []
        for v in frontier:
            for p, s, s_inv in simples:
                w = s_inv.mul(v).mul(s)
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
                    return ga + path[::-1]
                nxt.append(w)
        frontier = nxt
    return None


def conjugate_mod_full_twist(
    a: BraidWord, b: BraidWord
) -> tuple[ConjugacyResult, int | None]:
    """Decide whether a is conjugate to b * Delta^{2k} for some integer k.

    The twist power is forced by exponent sums; the answer is no whenever the
    exponent gap is not divisible by n(n-1). For n = 2 conjugacy degenerates
    to exponent-sum equality (B_2 is infinite cyclic); B_0 and B_1 are
    trivial.
    """
    if a.strands != b.strands:
        raise StrandMismatchError("cannot compare words on different strand counts")
    n = a.strands
    if n <= 1:
        return ConjugacyResult(True, BraidWord.identity(n)), 0
    gap = exponent_sum(a) - exponent_sum(b)
    span = n * (n - 1)
    if gap % span != 0:
        return ConjugacyResult(False), None
    k = gap // span
    if n == 2:
        return ConjugacyResult(True, BraidWord.identity(2)), k
    shifted = b
    if k != 0:
        tw = full_twist(n)
        block = tw.letters if k > 0 else tuple(-x for x in reversed(tw.letters))
        shifted = BraidWord(n, b.letters + block * abs(k))
    res = is_conjugate(a, shifted)
    return res, (k if res.conjugate else None)
