"""
The free group F_n on x_1 ... x_n as the kernel of B_{n,1} -> B_n: the
fundamental group of the n-punctured disc, where x_i is the loop A_i of
`mixed.kernel_generators(n, 1)` (Birman, Braids, Links and Mapping Class
Groups, 1974, ch. 1). Private: only what the kernel search reads.

A word is a tuple of nonzero ints, k > 0 for x_k and -k for its inverse,
kept freely reduced. B_n acts on F_n by the Artin action: under sigma_i,
x_i -> x_i x_{i+1} x_i^-1 and x_{i+1} -> x_i, the other x_j fixed. A braid
acts letter by letter from left to right, so the action phi_beta of beta
is `mixed.act`'s beta^-1 * gamma * beta.
"""

from __future__ import annotations

import functools

Word = tuple[int, ...]


def inverse(w: Word) -> Word:
    return tuple(-k for k in reversed(w))


def product(left: Word, x: Word, right: Word) -> Word:
    """The reduced word of left * x * right, for reduced operands: each seam
    cancels as far as it goes, left's against x's first and then the
    rest's against right's, so it is reduced again."""
    if left and x and left[-1] == -x[0]:
        i, top = 1, min(len(left), len(x))
        while i < top and left[-1 - i] == -x[i]:
            i += 1
        x = left[:-i] + x[i:]
    else:
        x = left + x
    if x and right and x[-1] == -right[0]:
        j, top = 1, min(len(x), len(right))
        while j < top and x[-1 - j] == -right[j]:
            j += 1
        return x[:-j] + right[j:]
    return x + right


@functools.lru_cache(maxsize=None)
def _images(letter: int) -> dict[int, Word]:
    """The Artin action of the braid letter +-i, sigma_i^{+-1}, on the
    letters it moves: x_i, x_{i+1} and their inverses."""
    i = abs(letter)
    if letter > 0:
        a, b = (i, i + 1, -i), (i,)
    else:
        a, b = (i + 1,), (-i - 1, i, i + 1)
    return {i: a, -i: inverse(a), i + 1: b, -i - 1: inverse(b)}


def _act(letter: int, w: list[int]) -> list[int]:
    """The reduced image of the reduced word w under one braid letter.

    A letter the braid letter does not move is appended as it is, since it
    cannot cancel: w is reduced, so it is not the inverse of the input
    letter before it, and a run of moved letters, a nonempty reduced word
    of the free factor on x_i and x_(i+1), has a nonempty reduced image
    there, sigma_i being an automorphism of that factor. So `out` ends
    with the previous input letter or with a moved generator, and only the
    letters of an image cancel, within their run's image."""
    images = _images(letter)
    out: list[int] = []
    for k in w:
        image = images.get(k)
        if image is None:
            out.append(k)
            continue
        for y in image:
            if out and out[-1] == -y:
                out.pop()
            else:
                out.append(y)
    return out


def artin(n: int, letters: tuple[int, ...], bound: int) -> list[Word] | None:
    """The images phi_beta(x_1) ... phi_beta(x_n) under the braid beta with
    these letters on n strands, or None once one is longer than bound."""
    images = []
    for i in range(1, n + 1):
        w = [i]
        for letter in letters:
            w = _act(letter, w)
            if len(w) > bound:
                return None
        images.append(tuple(w))
    return images


def kernel_to_free(n: int, letters: tuple[int, ...], bound: int) -> Word | None:
    """The reduced word of F_n of a kernel element of B_{n,1}, given by its
    letters on n + 1 strands, or None once a word on the way is longer
    than bound.

    A Reidemeister-Schreier rewrite. With the orbit strand at position p
    and the transversal T_p = sigma_n sigma_{n-1} ... sigma_p, which
    carries it from n + 1 to p, every prefix of the word is
    section(beta) * U * T_p for a U in the kernel. A letter sigma_i^{+-1}
    that crosses the orbit strand moves p and multiplies U on the right by
    x_i^-1 (sigma_i^-1 at p = i + 1), by x_i (sigma_i at p = i) or by
    nothing, since T_{i+1} sigma_i^2 T_{i+1}^-1 = A_i. A letter between
    two punctures passes T_p as sigma_j^{+-1}, with j = i, or i - 1 when
    i > p, so it joins beta and acts on U by the Artin action of
    sigma_j^{+-1}. At the end p = n + 1, beta is trivial and the word is
    U."""
    p, u = n + 1, []
    for k in letters:
        i = abs(k)
        if p == i or p == i + 1:
            if (k > 0) == (p == i):
                if u and u[-1] == -k:
                    u.pop()
                else:
                    u.append(k)
            p = 2 * i + 1 - p
        elif u:
            j = i if i < p else i - 1
            u = _act(j if k > 0 else -j, u)
            if len(u) > bound:
                return None
    if p != n + 1:
        raise ValueError("not a kernel element of B_{n,1}")
    return tuple(u)
