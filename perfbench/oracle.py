"""Independent braid oracle for checking snbraid's outputs.

Nothing here imports snbraid. Words are tuples of nonzero integers: k > 0 is
sigma_k, k < 0 its inverse, read left to right (the first letter happens
first), the same convention as the text grammar `s<k>` / `S<k>`.

Equality of braids is decided with the Lawrence-Krammer representation, which
is faithful (Bigelow, JAMS 2001; Krammer, Annals 2002). It is evaluated at a
fixed random point (q, t) modulo the Mersenne prime 2^61 - 1 and applied to a
fixed random vector: equal braids always give equal images, distinct braids
give distinct images except with probability about (word length) / 2^61.

Conjugacy invariants (exponent sum, per-block cycle types, closure linking
numbers, the characteristic polynomial of the unreduced Burau matrix at a
random point) give exact proofs of non-conjugacy when they differ.
"""

from __future__ import annotations

import functools
import random

P = (1 << 61) - 1
_RNG = random.Random(20011)
Q = _RNG.randrange(2, P - 1)
T = _RNG.randrange(2, P - 1)
# Points (x, t) at which Burau characteristic polynomials are compared.
BURAU_POINTS = tuple((_RNG.randrange(2, P - 1), _RNG.randrange(2, P - 1)) for _ in range(2))


def _inv(a: int) -> int:
    return pow(a, P - 2, P)


# ---------------------------------------------------------------------------
# text grammar


def fmt(word) -> str:
    return " ".join(f"s{k}" if k > 0 else f"S{-k}" for k in word)


def parse(text: str) -> tuple[int, ...]:
    out = []
    for tok in text.split():
        if tok[0] in "sS":
            out.append(int(tok[1:]) * (1 if tok[0] == "s" else -1))
        else:
            out.append(int(tok))
    return tuple(out)


def inverse(word) -> tuple[int, ...]:
    return tuple(-k for k in reversed(word))


def free_reduce(word) -> tuple[int, ...]:
    out: list[int] = []
    for k in word:
        if out and out[-1] == -k:
            out.pop()
        else:
            out.append(k)
    return tuple(out)


# ---------------------------------------------------------------------------
# permutation, strand deletion, exponent sum, linking numbers


def permutation(n: int, word) -> list[int]:
    """0-based: images[start] = end position of the strand starting there."""
    at = list(range(n))  # at[pos] = start label of the strand at pos
    for k in word:
        i = abs(k) - 1
        at[i], at[i + 1] = at[i + 1], at[i]
    images = [0] * n
    for pos, start in enumerate(at):
        images[start] = pos
    return images


def delete_strand(word, start: int) -> tuple[int, ...]:
    """Delete the strand starting at 1-based position `start`."""
    pos = start
    out = []
    for k in word:
        i = abs(k)
        if pos == i:
            pos = i + 1
        elif pos == i + 1:
            pos = i
        else:
            out.append((i - 1 if i > pos else i) * (1 if k > 0 else -1))
    return tuple(out)


def project(n: int, m: int, word) -> tuple[int, ...]:
    """Delete the m orbit strands (those starting after position n)."""
    for _ in range(m):
        word = delete_strand(word, n + 1)
    return word


def exponent_sum(word) -> int:
    return sum(1 if k > 0 else -1 for k in word)


def cycles(images: list[int]) -> list[tuple[int, ...]]:
    seen: set[int] = set()
    out = []
    for s in range(len(images)):
        if s in seen:
            continue
        cyc = [s]
        seen.add(s)
        j = images[s]
        while j != s:
            cyc.append(j)
            seen.add(j)
            j = images[j]
        out.append(tuple(cyc))
    return out


def block_cycle_types(n: int, total: int, word) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Sorted cycle lengths on the invariant block (< n) and the orbit block."""
    first, second = [], []
    for cyc in cycles(permutation(total, word)):
        (first if cyc[0] < n else second).append(len(cyc))
    return tuple(sorted(first)), tuple(sorted(second))


def linking_numbers(n: int, total: int, word) -> tuple:
    """Pairwise linking numbers of the closure components, as a sorted tuple of
    (tag, tag, lk). A component in the invariant block is tagged by its strand
    set (kernel conjugation fixes those strands); an orbit component only by
    its length (kernel conjugation may permute orbit strands)."""
    cyc = cycles(permutation(total, word))
    comp = {}
    for ci, c in enumerate(cyc):
        for s in c:
            comp[s] = ci
    signed: dict[tuple[int, int], int] = {}
    at = list(range(total))
    for k in word:
        i = abs(k) - 1
        a, b = comp[at[i]], comp[at[i + 1]]
        if a != b:
            key = (min(a, b), max(a, b))
            signed[key] = signed.get(key, 0) + (1 if k > 0 else -1)
        at[i], at[i + 1] = at[i + 1], at[i]

    def tag(ci):
        c = cyc[ci]
        return ("A",) + tuple(sorted(s + 1 for s in c)) if c[0] < n else ("o", len(c))

    out = []
    for a in range(len(cyc)):
        for b in range(a + 1, len(cyc)):
            t1, t2 = sorted([tag(a), tag(b)])
            out.append((t1, t2, signed.get((a, b), 0) // 2))
    return tuple(sorted(out))


# ---------------------------------------------------------------------------
# Burau characteristic polynomial at a point, mod P


def burau_charpoly_at(total: int, word, x: int, t: int) -> int:
    """det(x I - B(word)) mod P for the unreduced Burau matrix at t."""
    rows = [[1 if i == j else 0 for j in range(total)] for i in range(total)]
    ti = _inv(t)
    a, b = (1 - t) % P, (1 - ti) % P
    for k in word:
        j = abs(k) - 1
        for r in rows:
            u, v = r[j], r[j + 1]
            if k > 0:
                r[j], r[j + 1] = (a * u + v) % P, (t * u) % P
            else:
                r[j], r[j + 1] = (ti * v) % P, (u + b * v) % P
    m = [[(-r[j]) % P for j in range(total)] for r in rows]
    for i in range(total):
        m[i][i] = (m[i][i] + x) % P
    return _det(m)


def _det(m: list[list[int]]) -> int:
    n = len(m)
    det = 1
    for c in range(n):
        piv = next((r for r in range(c, n) if m[r][c]), None)
        if piv is None:
            return 0
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            det = -det
        det = det * m[c][c] % P
        inv = _inv(m[c][c])
        for r in range(c + 1, n):
            f = m[r][c] * inv % P
            if f:
                row, top = m[r], m[c]
                for j in range(c, n):
                    row[j] = (row[j] - f * top[j]) % P
    return det % P


def burau_signature(total: int, word) -> tuple[int, ...]:
    return tuple(burau_charpoly_at(total, word, x, t) for x, t in BURAU_POINTS)


# ---------------------------------------------------------------------------
# Lawrence-Krammer representation at (Q, T), mod P


@functools.lru_cache(maxsize=None)
def _lk_basis(n: int) -> dict[tuple[int, int], int]:
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    return {p: idx for idx, p in enumerate(pairs)}


def _lk_images(n: int, k: int) -> list[list[tuple[int, int]]]:
    """Images of the basis vectors x_ij under sigma_k (Krammer's formulas)."""
    q, t = Q, T
    basis = _lk_basis(n)
    out = []
    for (i, j) in basis:
        if (i, j) == (k, k + 1):
            img = [((i, j), t * q * q)]
        elif j == k and i < k:
            img = [((i, k), 1 - q), ((i, k + 1), q)]
        elif j == k + 1 and i < k:
            img = [((i, k), 1), ((k, k + 1), t * pow(q, k - i + 1, P) * (q - 1))]
        elif i == k and j > k + 1:
            img = [((k, k + 1), t * q * (q - 1)), ((k + 1, j), q)]
        elif i == k + 1:
            img = [((k, j), 1), ((k + 1, j), 1 - q)]
        elif i < k < k + 1 < j:
            img = [((i, j), 1), ((k, k + 1), t * pow(q, k - i, P) * (q - 1) * (q - 1))]
        else:
            img = [((i, j), 1)]
        out.append([(basis[p], c % P) for p, c in img if c % P])
    return out


def _dense(n: int, images) -> list[list[int]]:
    d = len(_lk_basis(n))
    m = [[0] * d for _ in range(d)]
    for s, img in enumerate(images):
        for tgt, c in img:
            m[s][tgt] = (m[s][tgt] + c) % P
    return m


def _invert_dense(m: list[list[int]]) -> list[list[int]]:
    d = len(m)
    a = [row[:] + [1 if i == j else 0 for j in range(d)] for i, row in enumerate(m)]
    for c in range(d):
        piv = next(r for r in range(c, d) if a[r][c])
        a[c], a[piv] = a[piv], a[c]
        inv = _inv(a[c][c])
        a[c] = [v * inv % P for v in a[c]]
        for r in range(d):
            if r != c and a[r][c]:
                f = a[r][c]
                a[r] = [(v - f * w) % P for v, w in zip(a[r], a[c])]
    return [row[d:] for row in a]


@functools.lru_cache(maxsize=None)
def _lk_generator(n: int, k: int) -> tuple:
    """Sparse images for sigma_k (k > 0) or its inverse (k < 0)."""
    images = _lk_images(n, abs(k))
    if k < 0:
        inv = _invert_dense(_dense(n, images))
        images = [[(tgt, c) for tgt, c in enumerate(row) if c] for row in inv]
    return tuple(tuple(img) for img in images)


@functools.lru_cache(maxsize=None)
def _lk_start(n: int) -> tuple[int, ...]:
    rng = random.Random(7919 + n)
    return tuple(rng.randrange(1, P) for _ in _lk_basis(n))


def lk_image(n: int, word) -> tuple[int, ...]:
    """A fixed random vector pushed through the LK matrices of the word."""
    v = list(_lk_start(n))
    d = len(v)
    for k in word:
        gen = _lk_generator(n, k)
        out = [0] * d
        for s in range(d):
            c = v[s]
            if c:
                for tgt, a in gen[s]:
                    out[tgt] += c * a
        v = [x % P for x in out]
    return tuple(v)


def equal(n: int, a, b) -> bool:
    """Braid equality in B_n (exact up to a ~2^-50 false-positive chance)."""
    if n <= 1:
        return True
    return lk_image(n, a) == lk_image(n, b)


def is_trivial(n: int, word) -> bool:
    return equal(n, word, ())


def conjugates_to(n: int, c, b, a) -> bool:
    """Whether c * b * c^-1 = a in B_n."""
    return equal(n, tuple(c) + tuple(b) + inverse(c), a)


def is_kernel(n: int, m: int, word) -> bool:
    """Kernel of the projection B_{n,m} -> B_n: the permutation fixes the
    invariant block pointwise and deleting the orbit strands gives 1."""
    images = permutation(n + m, word)
    if any(images[i] != i for i in range(n)):
        return False
    return is_trivial(n, project(n, m, word))


def kernel_generators(n: int, m: int) -> list[tuple[int, ...]]:
    """Internal crossings of the orbit block, and the loops
    A_i = (s_n ... s_{i+1}) s_i^2 (S_{i+1} ... S_n) of strand n+1."""
    gens = [(j,) for j in range(n + 1, n + m)]
    for i in range(1, n + 1):
        gens.append(tuple(range(n, i, -1)) + (i, i) + tuple(range(-(i + 1), -n - 1, -1)))
    return gens


def delta(n: int) -> tuple[int, ...]:
    out: list[int] = []
    for i in range(1, n):
        out.extend(range(i, 0, -1))
    return tuple(out)


def self_test() -> None:
    """Raise AssertionError unless the oracle behaves like a braid group
    representation that separates what it must."""
    for n in range(2, 7):
        for i in range(1, n - 1):
            assert equal(n, (i, i + 1, i), (i + 1, i, i + 1)), "braid relation"
        for i in range(1, n):
            assert is_trivial(n, (i, -i)) and is_trivial(n, (-i, i)), "inverse"
            for j in range(i + 2, n):
                assert equal(n, (i, j), (j, i)), "far commutation"
        d2 = delta(n) * 2
        for i in range(1, n):
            assert equal(n, d2 + (i,), (i,) + d2), "full twist is central"
        assert not equal(n, (1,), ()), "sigma_1 is not trivial"
        if n >= 3:
            assert not equal(n, (1, 2), (2, 1)), "s1 s2 != s2 s1"
            assert not equal(n, (1, 2, 1, 2), (2, 1, 2, 1))
        for i in range(1, n - 1):
            a, b = (i, i + 1, i), (i + 1, i, i + 1)
            assert burau_signature(n, a) == burau_signature(n, b), "Burau relation"
        # Conjugate braids share the Burau characteristic polynomial.
        w, c = (1, 1, -2) if n >= 3 else (1, 1), (1, -(n - 1))
        assert burau_signature(n, w) == burau_signature(n, c + w + inverse(c))
        assert burau_signature(n, (1,)) != burau_signature(n, (-1,))
    assert delete_strand((1, 2, 2, -1), 3) == (1, -1)
    assert permutation(3, (1, 2)) == [2, 0, 1]
    assert linking_numbers(1, 2, (1, 1)) == ((("A", 1), ("o", 1), 1),)
