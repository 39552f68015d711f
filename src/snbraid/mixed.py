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

Kernel membership is one pass over a word's letters (`_kernel_pass`),
which moves the strands and reads the projection to B_n as it goes. It
serves `is_kernel` from the identity, and `_over_base` from where a lift
section(beta_A) leaves the strands: that pass checks an orbit word w and
leaves the permutation of section(beta_A) * w, so the braid is assembled
with no second pass and no block check.
"""

from __future__ import annotations

import dataclasses

from .garside import CanonicalForm, canonical_form
from .words import (
    BraidWord,
    PermutationTable,
    _valid,
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
    `perm`, the permutation of the word, is computed once, by the check,
    or handed in by the kernel pass that built the braid (`_over_base`)."""

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
        for start, end in enumerate(self.perm.images, 1):
            if (start <= self.n) != (end <= self.n):
                raise BlockViolationError(
                    f"strand {start} ends at position {end}, crossing the "
                    f"block boundary after position {self.n}"
                )


def validate(n: int, m: int, w: BraidWord) -> MixedBraid:
    """Check block preservation; raises BlockViolationError when violated."""
    return MixedBraid(n, m, w)


def project(b: MixedBraid) -> BraidWord:
    """Forget the orbit block: geometric deletion of the last m strands,
    read in one pass over the word (`_strand_pass`)."""
    return BraidWord(b.n, tuple(_strand_pass(b.n, list(range(b.n + b.m)), b.word.letters)))


def _strand_pass(n: int, occupant: list[int], letters: tuple[int, ...]) -> list[int]:
    """Move the strands through the letters of a word on n + m strands, in
    place: occupant holds the strand, numbered from 0 by where it starts,
    at each position. Returns the letters of the word's projection to B_n,
    its crossings of two punctures, the strands numbered below n, each
    re-indexed by the number of orbit strands currently to its left."""
    projected = []
    for k in letters:
        i = k - 1 if k > 0 else -k - 1
        a, b = occupant[i], occupant[i + 1]
        if a < n and b < n:
            j = i + 1 - sum(s >= n for s in occupant[:i])
            projected.append(j if k > 0 else -j)
        occupant[i], occupant[i + 1] = b, a
    return projected


def _kernel_pass(n: int, occupant: list[int], letters: tuple[int, ...]) -> bool:
    """Whether the word of these letters, on the strands of occupant (see
    `_strand_pass`, which moves them), lies in the kernel: the punctures
    end where they started, and the projection is trivial in B_n. For
    n <= 2, where every projected letter is +-1, that is an exponent sum
    of 0, as B_1 is trivial and B_2 is free abelian on sigma_1; beyond,
    a projection with letters is normalized once and compared with the
    identity's form."""
    start = occupant[:n]
    projected = _strand_pass(n, occupant, letters)
    if occupant[:n] != start:
        return False
    if n <= 2:
        return sum(projected) == 0
    return not projected or canonical_form(_valid(n, tuple(projected))) == CanonicalForm(n, 0, ())


def _over_base(
    n: int, m: int, lift: BraidWord, occupant: tuple[int, ...], w: BraidWord
) -> MixedBraid:
    """section(beta_A) * w, for lift the word of section(beta_A) and
    occupant where it leaves the strands (see `_strand_pass`), in one pass
    over w's letters. Raises `_not_kernel`'s errors unless w is a kernel
    word on n + m strands: the lift keeps the punctures on the first n
    positions, so `_kernel_pass` run from there reads w's projection to
    B_n as `is_kernel` does, and leaves where each strand of the product
    ends. That is the braid's permutation, so `permutation` does not run
    again, and the blocks are not checked: the pass has put every puncture
    strand back on the first n positions."""
    strands, ends = n + m, list(occupant)
    if w.strands != strands or not _kernel_pass(n, ends, w.letters):
        raise _not_kernel(n, m, w)
    images = [0] * strands
    for pos, start in enumerate(ends, 1):
        images[start] = pos
    braid = object.__new__(MixedBraid)
    braid.__dict__.update(
        n=n, m=m, word=_valid(strands, lift.letters + w.letters),
        perm=PermutationTable(strands, tuple(images)),
    )
    return braid


def delete_strand(w: BraidWord, start: int) -> BraidWord:
    """Delete the single strand starting at position `start` (1-based).

    Independent of `project`; used as the one-strand-at-a-time oracle."""
    if not 1 <= start <= w.strands:
        raise ValueError(f"start {start} out of range for {w.strands} strands")
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
    return MixedBraid(n, m, _lift(n, m, beta))


def _lift(n: int, m: int, beta: BraidWord) -> BraidWord:
    """The word of section(n, m, beta): beta's letters on n + m strands,
    made after the checks `section` makes."""
    _check_blocks(n, m)
    if beta.strands != n:
        raise ValueError(f"base word has {beta.strands} strands, expected {n}")
    return _valid(n + m, beta.letters)


@dataclasses.dataclass(frozen=True)
class Decomposition:
    """The unique splitting b = section(base) * kernel_part."""

    base: BraidWord
    kernel_part: BraidWord


def decompose(b: MixedBraid) -> Decomposition:
    base = project(b)
    kernel_part = free_reduce(compose(invert(_lift(b.n, b.m, base)), b.word))
    return Decomposition(base, kernel_part)


def is_kernel(n: int, m: int, w: BraidWord) -> bool:
    """Membership in the kernel of the projection, in one pass over w from
    the identity (`_kernel_pass`): the permutation fixes the first block
    pointwise and the projected word is trivial in B_n. A word on the
    wrong strand count, or with a negative block size, is not in it."""
    if n < 0 or m < 0 or w.strands != n + m:
        return False
    return _kernel_pass(n, list(range(n + m)), w.letters)


def _not_kernel(n: int, m: int, w: BraidWord) -> KernelMembershipError:
    """The error for a word w outside the kernel for blocks (n, m): on the
    wrong strand count, or on n + m strands but not in the kernel. The one
    maker of kernel errors, for `act` and `_over_base`."""
    if w.strands != n + m:
        return KernelMembershipError(
            f"word {w} has {w.strands} strands, expected {n + m} for blocks ({n}, {m})"
        )
    return KernelMembershipError(f"word {w} is not in the kernel for blocks ({n}, {m})")


def kernel_generators(n: int, m: int) -> list[BraidWord]:
    """Standard generating set of the kernel: the internal crossings of the
    orbit block, plus one loop of strand n+1 around each puncture i,
    A_i = (s_n ... s_{i+1}) s_i^2 (S_{i+1} ... S_n)."""
    _check_blocks(n, m)
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
    with beta included via the section. Kernel in, kernel out (normality).
    The block sizes are checked, by `_lift`, before gamma's kernel test."""
    n = beta.strands
    lifted = _lift(n, m, beta)
    if not is_kernel(n, m, gamma):
        raise _not_kernel(n, m, gamma)
    return free_reduce(compose(compose(invert(lifted), gamma), lifted))
