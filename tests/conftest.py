"""Shared helpers for the test suite: random word generators, legal rewrite
moves, a reference cycle reader, and the independent one-strand-at-a-time
projection and kernel oracles."""

import random

import snbraid as sb


def random_word(rng: random.Random, n: int, maxlen: int) -> sb.BraidWord:
    if n < 2:
        return sb.BraidWord(n, ())
    length = rng.randint(0, maxlen)
    return sb.BraidWord(
        n, tuple(rng.choice([1, -1]) * rng.randint(1, n - 1) for _ in range(length))
    )


def random_rewrite(rng: random.Random, w: sb.BraidWord) -> sb.BraidWord:
    """Apply one random legal move: far-commutation, braid relation on a
    positive or negative triple, insertion of a cancelling pair, or deletion
    of one. Falls back to the unchanged word when no move applies."""
    letters = list(w.letters)
    for _ in range(8):
        move = rng.choice(["commute", "braid", "insert", "cancel"])
        if move == "insert" and w.strands >= 2:
            k = rng.choice([1, -1]) * rng.randint(1, w.strands - 1)
            p = rng.randint(0, len(letters))
            letters[p:p] = [k, -k]
            return sb.BraidWord(w.strands, tuple(letters))
        if move == "cancel":
            spots = [i for i in range(len(letters) - 1) if letters[i] == -letters[i + 1]]
            if spots:
                i = rng.choice(spots)
                del letters[i : i + 2]
                return sb.BraidWord(w.strands, tuple(letters))
        if move == "commute":
            spots = [
                i
                for i in range(len(letters) - 1)
                if abs(abs(letters[i]) - abs(letters[i + 1])) > 1
            ]
            if spots:
                i = rng.choice(spots)
                letters[i], letters[i + 1] = letters[i + 1], letters[i]
                return sb.BraidWord(w.strands, tuple(letters))
        if move == "braid":
            spots = [
                i
                for i in range(len(letters) - 2)
                if letters[i] == letters[i + 2]
                and abs(abs(letters[i]) - abs(letters[i + 1])) == 1
                and (letters[i] > 0) == (letters[i + 1] > 0)
            ]
            if spots:
                i = rng.choice(spots)
                a, b = letters[i], letters[i + 1]
                letters[i : i + 3] = [b, a, b]
                return sb.BraidWord(w.strands, tuple(letters))
    return sb.BraidWord(w.strands, tuple(letters))


def random_kernel_word(
    rng: random.Random, n: int, m: int, gen_length: int
) -> sb.BraidWord:
    """A random product of kernel generators and their inverses."""
    gens = sb.kernel_generators(n, m)
    w = sb.BraidWord.identity(n + m)
    for _ in range(gen_length):
        g = rng.choice(gens)
        if rng.random() < 0.5:
            g = sb.invert(g)
        w = sb.compose(w, g)
    return sb.free_reduce(w)


def random_mixed(rng: random.Random, n: int, m: int, tries: int = 200) -> sb.MixedBraid:
    """A random block-preserving braid, built as section(base) * kernel word
    * internal permutation so all of B_{n,m} is reachable."""
    base = random_word(rng, n, 8)
    w = sb.section(n, m, base).word
    if m >= 1:
        w = sb.compose(w, random_kernel_word(rng, n, m, rng.randint(0, 4)))
    return sb.MixedBraid(n, m, w)


def permutation_cycles(perm: sb.PermutationTable) -> tuple[tuple[int, ...], ...]:
    """Cycle decomposition of a permutation, read from its images: each
    cycle starts at its smallest element, cycles are sorted by that
    element, and fixed points are included."""
    seen = set()
    out = []
    for start in range(1, perm.size + 1):
        if start in seen:
            continue
        cycle = [start]
        seen.add(start)
        j = perm.images[start - 1]
        while j != start:
            cycle.append(j)
            seen.add(j)
            j = perm.images[j - 1]
        out.append(tuple(cycle))
    return tuple(out)


def project_oracle(b: sb.MixedBraid) -> sb.BraidWord:
    """Delete the orbit strands one at a time; must agree with project."""
    w = b.word
    for _ in range(b.m):
        w = sb.delete_strand(w, b.n + 1)
    return w


def kernel_oracle(n: int, m: int, w: sb.BraidWord) -> bool:
    """Kernel membership without `is_kernel`: w is on n + m strands, its
    permutation fixes each puncture, and what is left once the orbit strands
    are deleted one at a time is equal to the identity. A word on the wrong
    strand count, or a negative block size, is refused."""
    if n < 0 or m < 0 or w.strands != n + m:
        return False
    perm = sb.permutation(w)
    if any(perm.images[i - 1] != i for i in range(1, n + 1)):
        return False
    for _ in range(m):
        w = sb.delete_strand(w, n + 1)
    return sb.equal(w, sb.BraidWord.identity(n))


def conjugated_kernel_part(
    n: int, m: int, beta_A: sb.BraidWord, gamma: sb.BraidWord, c: sb.BraidWord
) -> sb.BraidWord:
    """Kernel part of c * (section(beta_A) * gamma) * c^-1; the canonical way
    to construct an instance that is equivalent to gamma by design."""
    by = sb.compose(sb.section(n, m, beta_A).word, gamma)
    conj = sb.free_reduce(sb.compose(sb.compose(c, by), sb.invert(c)))
    return sb.decompose(sb.MixedBraid(n, m, conj)).kernel_part
