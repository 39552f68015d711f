"""
The mixed braid group B_{n,m}: braids on n+m strands whose permutation
preserves the blocks {1..n} (the invariant set) and {n+1..n+m} (the orbit).

B_{n,m} sits in a split short exact sequence over B_n, the projection being
strand deletion of the orbit block and the section the reinterpretation of an
n-strand word on n+m strands. The kernel is the braid group of the orbit
block in the n-punctured disc; every element decomposes uniquely as
section(base) * kernel_part. The conjugation action of B_n on the kernel,
phi_beta(gamma) = beta^-1 * gamma * beta, makes the sequence a semidirect
product; note that beta -> phi_beta is an anti-homomorphism under this
convention (phi_{b1 b2} = phi_{b2} o phi_{b1}).
"""

from __future__ import annotations

import dataclasses

from .garside import equal
from .words import (
    BraidWord,
    PermutationTable,
    compose,
    free_reduce,
    invert,
    permutation,
)


class BlockViolationError(ValueError):
    """The permutation of a word mixes the two strand blocks."""


class KernelMembershipError(ValueError):
    """A word that must lie in the kernel of the projection does not."""


def _check_blocks(n: int, m: int) -> None:
    if n < 0 or m < 0 or n + m < 1:
        raise ValueError(f"bad block sizes ({n}, {m})")


@dataclasses.dataclass(frozen=True)
class MixedBraid:
    """A validated element of B_{n,m}; block preservation is membership.
    `perm`, the permutation of the word, is computed once, by the check."""

    n: int
    m: int
    word: BraidWord
    perm: PermutationTable = dataclasses.field(init=False, repr=False, compare=False)

    def __post_init__(self):
        _check_blocks(self.n, self.m)
        if self.word.strands != self.n + self.m:
            raise ValueError(
                f"word has {self.word.strands} strands, expected {self.n + self.m}"
            )
        object.__setattr__(self, "perm", permutation(self.word))
        for start in range(1, self.n + self.m + 1):
            end = self.perm(start)
            if (start <= self.n) != (end <= self.n):
                raise BlockViolationError(
                    f"strand {start} ends at position {end}, crossing the "
                    f"block boundary after position {self.n}"
                )


def validate(n: int, m: int, w: BraidWord) -> MixedBraid:
    """Check block preservation; raises BlockViolationError when violated."""
    return MixedBraid(n, m, w)


def project(b: MixedBraid) -> BraidWord:
    """Forget the orbit block: geometric deletion of the last m strands."""
    return _delete_started_after(b.word, b.n)


def _delete_started_after(w: BraidWord, n: int) -> BraidWord:
    """Delete every strand that starts at a position > n, tracking positions
    through the word; surviving letters are re-indexed by the number of
    deleted strands currently to their left."""
    total = w.strands
    occupant = list(range(1, total + 1))  # occupant[pos-1] = start label
    letters = []
    for k in w.letters:
        i = abs(k)
        a, b_ = occupant[i - 1], occupant[i]
        if a <= n and b_ <= n:
            shift = sum(1 for s in occupant[: i - 1] if s > n)
            letters.append((1 if k > 0 else -1) * (i - shift))
        occupant[i - 1], occupant[i] = b_, a
    return BraidWord(n, tuple(letters))


def delete_strand(w: BraidWord, start: int) -> BraidWord:
    """Delete the single strand starting at position `start` (1-based).

    Independent of `project`; used as the one-strand-at-a-time oracle."""
    pos = start
    letters = []
    for k in w.letters:
        i = abs(k)
        if pos == i:
            pos = i + 1
        elif pos == i + 1:
            pos = i
        else:
            letters.append((1 if k > 0 else -1) * (i - 1 if i > pos else i))
    return BraidWord(w.strands - 1, tuple(letters))


def section(n: int, m: int, beta: BraidWord) -> MixedBraid:
    """Add m vertical strands after an n-strand braid (letters unchanged).
    The block sizes are checked before the word on n + m strands is made."""
    _check_blocks(n, m)
    if beta.strands != n:
        raise ValueError(f"base word has {beta.strands} strands, expected {n}")
    return MixedBraid(n, m, BraidWord(n + m, beta.letters))


@dataclasses.dataclass(frozen=True)
class Decomposition:
    """The unique splitting b = section(base) * kernel_part."""

    base: BraidWord
    kernel_part: BraidWord


def decompose(b: MixedBraid) -> Decomposition:
    base = project(b)
    kernel_part = free_reduce(
        compose(invert(section(b.n, b.m, base).word), b.word)
    )
    return Decomposition(base, kernel_part)


def is_kernel(n: int, m: int, w: BraidWord) -> bool:
    """Membership in the kernel of the projection: the permutation fixes the
    first block pointwise and the projected word is trivial in B_n. A
    negative block size has no kernel."""
    if n < 0 or m < 0 or w.strands != n + m:
        return False
    perm = permutation(w)
    if any(perm(i) != i for i in range(1, n + 1)):
        return False
    if n == 0:
        return True
    projected = _delete_started_after(w, n)
    return equal(projected, BraidWord.identity(n))


def ensure_kernel(n: int, m: int, w: BraidWord) -> BraidWord:
    if w.strands != n + m:
        raise KernelMembershipError(
            f"word {w.format() or '<empty>'} has {w.strands} strands, expected "
            f"{n + m} for blocks ({n}, {m})"
        )
    if not is_kernel(n, m, w):
        raise KernelMembershipError(
            f"word {w.format() or '<empty>'} is not in the kernel for "
            f"blocks ({n}, {m})"
        )
    return w


def kernel_generators(n: int, m: int) -> list[BraidWord]:
    """Standard generating set of the kernel: the internal crossings of the
    orbit block, plus one loop of strand n+1 around each puncture i,
    A_i = (s_n ... s_{i+1}) s_i^2 (S_{i+1} ... S_n)."""
    if m < 1:
        raise ValueError("kernel generators need m >= 1")
    total = n + m
    gens: list[BraidWord] = []
    for j in range(n + 1, n + m):
        gens.append(BraidWord(total, (j,)))
    for i in range(1, n + 1):
        letters = tuple(range(n, i, -1)) + (i, i) + tuple(range(-(i + 1), -n - 1, -1))
        gens.append(BraidWord(total, letters))
    return gens


def act(beta: BraidWord, gamma: BraidWord, m: int) -> BraidWord:
    """The semidirect-product action phi_beta(gamma) = beta^-1 gamma beta,
    with beta included via the section. Kernel in, kernel out (normality)."""
    n = beta.strands
    ensure_kernel(n, m, gamma)
    lifted = section(n, m, beta).word
    return free_reduce(compose(compose(invert(lifted), gamma), lifted))
