"""
Conjugacy invariants, used as non-equivalence certificates and as
cross-checks of the heavy conjugacy machinery.

Every value is returned in a canonical encoding (sorted tuples, normalized
polynomial shift) so that equality is literal comparison. Each function is
constant on conjugacy classes of the relevant group; the decision layer
relies on that to turn a mismatch into a certificate. It screens only the
linking matrix and the orbit word's exponent sum. `standard_reports` also
reports the per-block cycle type, which is not screened: for two mixed
braids over one base braid, equal linking matrices imply equal cycle types.
Both are read off one labelling of the permutation's cycles,
`_cycle_labels`: the cycle type from the tags alone, the linking matrix
from the tags and the crossings between the labelled cycles.

The Burau characteristic polynomial, computed exactly over integer Laurent
polynomials in t, is a library function that no command reports and no
decision reads. It is an ambient B_{n+m} invariant, so the ambient
conjugacy test the decision layer runs next already separates every pair
it could, and its cost grows with the strand count and the word length
without a bound.
"""

from __future__ import annotations

import dataclasses

from .mixed import MixedBraid
from .words import BraidWord, exponent_sum


@dataclasses.dataclass(frozen=True)
class InvariantReport:
    """One invariant of a mixed braid: an int for the exponent sum, nested
    tuples otherwise, emitted as JSON numbers and arrays."""

    name: str
    value: object

    def to_json(self) -> dict:
        return {"name": self.name, "value": self.value}


def _cycle_labels(b: MixedBraid) -> tuple[list[int], list[tuple]]:
    """The cycles of the braid's permutation, labelled in one sweep over
    its images: at[p] is the cycle of the strand at position p + 1, and
    tags[ci] is cycle ci's tag, ("A", sorted strands...) for a cycle in the
    invariant block and ("o", length) for one in the orbit block. Cycles
    are numbered in the order of their smallest strands: a cycle's first
    unvisited start is its smallest strand."""
    images = b.perm.images
    at = [-1] * len(images)
    tags = []
    for start in range(len(images)):
        if at[start] < 0:
            strands = []
            j = start
            while at[j] < 0:
                at[j] = len(tags)
                strands.append(j + 1)
                j = images[j] - 1
            strands.sort()
            tags.append(("A", *strands) if start < b.n else ("o", len(strands)))
    return at, tags


def cycle_type(b: MixedBraid) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Multisets of cycle lengths of the permutation restricted to the
    invariant block and to the orbit block, read off the tags of
    `_cycle_labels`."""
    tags = _cycle_labels(b)[1]
    first = tuple(sorted(len(tag) - 1 for tag in tags if tag[0] == "A"))
    return first, tuple(sorted(tag[1] for tag in tags if tag[0] == "o"))


def linking_matrix(b: MixedBraid) -> tuple[tuple, ...]:
    """Pairwise linking numbers of the closure components.

    Each unordered pair of permutation cycles contributes one entry
    (tag_i, tag_j, lk) where lk is half the signed count of crossings between
    strands of the two cycles. Cycles in the invariant block are tagged
    ("A", sorted strands): kernel conjugation fixes those strands pointwise,
    so the full strand content is invariant and distinguishes loops around
    different punctures. Orbit cycles may be permuted by kernel conjugation,
    so they carry only ("o", length). Returned as a sorted tuple; zero
    entries are kept so the component count is part of the value. The
    cycles and their tags are `_cycle_labels`'."""
    # at follows the strands through the word; a crossing of cycles ci
    # and cj adds its sign to counts[ci * c + cj].
    at, tags = _cycle_labels(b)
    c = len(tags)
    counts = [0] * (c * c)
    for k in b.word.letters:
        i = k if k > 0 else -k
        left, right = at[i - 1], at[i]
        counts[left * c + right] += 1 if k > 0 else -1
        at[i - 1], at[i] = right, left

    entries = []
    for ci in range(c):
        for cj in range(ci + 1, c):
            signed = counts[ci * c + cj] + counts[cj * c + ci]
            assert signed % 2 == 0, "signed crossing count between closed components must be even"
            t1, t2 = tags[ci], tags[cj]
            entries.append((t1, t2, signed // 2) if t1 <= t2 else (t2, t1, signed // 2))
    entries.sort()
    return tuple(entries)


# Integer Laurent polynomials in t: {exponent: nonzero coefficient}.
Laurent = dict[int, int]
_ONE: Laurent = {0: 1}


def _lsum(polys) -> Laurent:
    out: Laurent = {}
    for p in polys:
        for e, c in p.items():
            out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c}


def _lmul(p: Laurent, q: Laurent) -> Laurent:
    out: Laurent = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def _lscale(p: Laurent, coeff: int, shift: int) -> Laurent:
    """coeff * t^shift * p."""
    return {e + shift: coeff * c for e, c in p.items()}


def _burau_matrix(a: BraidWord) -> list[list[Laurent]]:
    """Unreduced Burau matrix of the word, read left to right as a product of
    generator matrices. sigma_i has the block [[1-t, t], [1, 0]] at rows and
    columns i, i+1, and its inverse [[0, 1], [1/t, 1-1/t]]; multiplying on
    the right by either changes only columns i and i+1."""
    n = a.strands
    rows = [[dict(_ONE) if i == j else {} for j in range(n)] for i in range(n)]
    for k in a.letters:
        j = abs(k) - 1
        for r in rows:
            u, v = r[j], r[j + 1]
            if k > 0:
                r[j], r[j + 1] = _lsum((u, _lscale(u, -1, 1), v)), _lscale(u, 1, 1)
            else:
                w = _lscale(v, 1, -1)
                r[j], r[j + 1] = w, _lsum((u, v, _lscale(w, -1, 0)))
    return rows


def _charpoly(m: list[list[Laurent]]) -> list[Laurent]:
    """Coefficients of det(x I - m), leading first, by Berkowitz's
    division-free algorithm: bordering the leading r x r block A by row R,
    column C and corner a multiplies the polynomial by the lower-triangular
    Toeplitz matrix with first column 1, -a, -R C, -R A C, ..., -R A^(r-1) C."""
    poly = [_ONE]
    for r in range(len(m)):
        row = m[r][:r]
        col = [m[i][r] for i in range(r)]
        toeplitz = [_ONE, _lscale(m[r][r], -1, 0)]
        for _ in range(r):
            toeplitz.append(_lscale(_lsum(map(_lmul, row, col)), -1, 0))
            col = [_lsum(map(_lmul, m[i][:r], col)) for i in range(r)]
        poly = [
            _lsum(_lmul(toeplitz[i - j], poly[j]) for j in range(min(i, r) + 1))
            for i in range(r + 2)
        ]
    return poly


def burau_charpoly(a: BraidWord) -> tuple[tuple[int, int, int], ...]:
    """Characteristic polynomial of the unreduced Burau matrix, encoded as a
    sorted tuple of (x_exponent, t_exponent, coefficient) with the t powers
    shifted to start at 0. Equal for conjugate braids. The polynomial is
    monic in x, so its last term (x^n) has coefficient 1."""
    n = a.strands
    terms = [
        (n - k, e, c)
        for k, coeff in enumerate(_charpoly(_burau_matrix(a)))
        for e, c in coeff.items()
    ]
    jmin = min(j for _, j, _ in terms)
    return tuple(sorted((i, j - jmin, c) for i, j, c in terms))


def standard_reports(b: MixedBraid) -> list[InvariantReport]:
    """The invariant battery for one mixed braid, in report order, each
    value one pass over the word. The decision layer screens the orbit
    word's exponent sum and the linking matrix (`decision._SCREENS`), not
    the cycle type, which the linking matrix implies. The Burau polynomial
    is not reported: no verdict reads it, and its cost has no bound."""
    return [
        InvariantReport("exponent_sum", exponent_sum(b.word)),
        InvariantReport("cycle_type", cycle_type(b)),
        InvariantReport("linking_matrix", linking_matrix(b)),
    ]
