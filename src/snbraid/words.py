"""
Braid words in Artin generators, and the elementary quantities that only
depend on the word (underlying permutation, exponent sum, free reduction).

A word on n strands is a sequence of nonzero integers k with 1 <= |k| <= n-1:
k > 0 means the positive crossing sigma_k (the strand at position k passes
over the strand at position k+1), k < 0 means its inverse. Words compose
left-to-right: "a b" means a happens first (cylinders stacked bottom to top).

Text grammar, used by every interface that reads or prints words:
`s3` = sigma_3, `S3` = sigma_3 inverse, plain integers also work (`3` /
`-3`), tokens separated by whitespace. Indices are ASCII digits; any other
token (`s+1`, `1_0`, `S-1`, non-ASCII digits) is a bad braid letter. A `#`
starts a comment that runs to the end of its line, and lines end at LF,
CR LF or CR only (`_lines`). The strand count is always given out-of-band.
"""

from __future__ import annotations

import dataclasses
import re


class StrandMismatchError(ValueError):
    """Two words that must live in the same braid group do not."""


class WordSyntaxError(ValueError):
    """A braid word failed to parse; carries the position of the bad token."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{message} (line {line}, column {column})")
        self.message = message
        self.line = line
        self.column = column


@dataclasses.dataclass(frozen=True)
class BraidWord:
    """A word in the Artin generators of B_n. Immutable value."""

    strands: int
    letters: tuple[int, ...]

    def __post_init__(self):
        _check_strands(self.strands)
        object.__setattr__(self, "letters", tuple(self.letters))
        for k in self.letters:
            if k == 0 or not (1 <= abs(k) <= self.strands - 1):
                raise ValueError(
                    f"letter {k} out of range for {self.strands} strands"
                )

    def __mul__(self, other: "BraidWord") -> "BraidWord":
        return compose(self, other)

    @staticmethod
    def identity(n: int) -> "BraidWord":
        return BraidWord(n, ())

    @staticmethod
    def parse(n: int, text: str) -> "BraidWord":
        """Parse a word in the text grammar (see module docstring) on n
        strands, its lines read by one `_read`; a bad token or a letter out
        of range for n names its position."""
        letters = _read(n, _lines(text))
        _check_strands(n)
        return _valid(n, tuple(letters))

    def format(self) -> str:
        """Render in the canonical `s<k>` / `S<k>` spelling."""
        return " ".join(f"s{k}" if k > 0 else f"S{-k}" for k in self.letters)

    def __str__(self) -> str:
        return self.format() or "<empty>"


def _lines(text: str) -> list[str]:
    """The lines of a text: it breaks at LF, CR LF and CR, the ends of line
    of a file read in text mode, and nowhere else. Other characters that
    `str.splitlines` breaks at, such as a form feed, are whitespace inside
    a line, and a # comment runs past them to the end of the line."""
    return text.replace("\r\n", "\n").replace("\r", "\n").split("\n")


def _read(n: int, lines: list[str], first: int = 1) -> list[int]:
    """The letters on n strands of these lines of a text, the first of
    them its line `first`. Each token is looked up in `_TOKENS` and its
    letter range-checked here, once, so a word is built without
    `BraidWord`'s second check of every letter. Only a token missing
    there, or a letter out of range, goes to `_letter`, which reads it
    with `_TOKEN` and raises unless it is a letter in range."""
    return [
        k if -n < (k := _TOKENS.get(token, n)) < n else _letter(n, token, lineno, line)
        for lineno, line in enumerate(lines, first)
        for token in line.split("#", 1)[0].split()
    ]


def _words(n: int, text: str) -> list[BraidWord]:
    """The words on n strands of a text that holds one word per line, as
    an orbit file does; blank and comment-only lines hold none. A bad
    token names its line in the text."""
    _check_strands(n)
    lines = enumerate(_lines(text), 1)
    return [_valid(n, tuple(w)) for lineno, line in lines if (w := _read(n, [line], lineno))]


def _check_strands(strands: int) -> None:
    # Strand count 0 is tolerated as the degenerate base of a mixed braid
    # with an empty invariant set; it carries no letters.
    if strands < 0:
        raise ValueError(f"strand count must be >= 0, got {strands}")


# A letter is s<k>, S<k>, <k> or -<k>, with k in ASCII digits.
_TOKEN = re.compile(r"([sS]|-?)([0-9]+)")

# The tokens of every index below 100 written without leading zeros, with
# their letters: what `parse` reads with one lookup per token.
_TOKENS = {
    f"{prefix}{i}": sign * i
    for prefix, sign in (("s", 1), ("", 1), ("S", -1), ("-", -1))
    for i in range(1, 100)
}


def _letter(n: int, token: str, lineno: int, line: str) -> int:
    """The letter of a token of line `lineno` that `_TOKENS` lacks, such as
    one with a leading zero or an index of 100 or more, or whose letter is
    out of range for n strands. Raises WordSyntaxError unless it is a
    letter in range. The error names the column of the token's first
    whitespace-delimited match on the line's text before any `#`: an
    equal token before it would have raised already."""
    match = _TOKEN.fullmatch(token)
    if match is None:
        message = f"bad braid letter {token!r}"
    elif not (value := int(match[2])):
        message = f"generator index 0 in {token!r} is not allowed"
    else:
        k = -value if match[1] in ("S", "-") else value
        if -n < k < n:
            return k
        message = f"letter {k} out of range for {n} strands"
    at = re.search(rf"(?<!\S){re.escape(token)}(?!\S)", line.split("#", 1)[0])
    raise WordSyntaxError(message, lineno, at.start() + 1)


@dataclasses.dataclass(frozen=True)
class PermutationTable:
    """The permutation underlying a braid: position i holds the endpoint of
    the strand starting at position i (1-based)."""

    size: int
    images: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "images", tuple(self.images))
        if sorted(self.images) != list(range(1, self.size + 1)):
            raise ValueError(f"images {self.images} are not a bijection")

    def cycles(self) -> tuple[tuple[int, ...], ...]:
        """Cycle decomposition, each cycle starting at its smallest element,
        cycles sorted by that element. Includes fixed points."""
        seen = set()
        out = []
        for start in range(1, self.size + 1):
            if start in seen:
                continue
            cycle = [start]
            seen.add(start)
            j = self.images[start - 1]
            while j != start:
                cycle.append(j)
                seen.add(j)
                j = self.images[j - 1]
            out.append(tuple(cycle))
        return tuple(out)


def compose(a: BraidWord, b: BraidWord) -> BraidWord:
    """Concatenate: a happens first, then b."""
    if a.strands != b.strands:
        raise StrandMismatchError(
            f"cannot compose words on {a.strands} and {b.strands} strands"
        )
    return BraidWord(a.strands, a.letters + b.letters)


def invert(a: BraidWord) -> BraidWord:
    return BraidWord(a.strands, tuple(-k for k in reversed(a.letters)))


def _valid(strands: int, letters: tuple[int, ...]) -> BraidWord:
    """The word of letters that are already valid on this strand count,
    made without `BraidWord`'s per-letter check: for words whose letters
    were checked as they were read or made, such as a parsed word, a free
    reduction or a spelled canonical form."""
    word = object.__new__(BraidWord)
    word.__dict__.update(strands=strands, letters=letters)
    return word


def free_reduce(a: BraidWord) -> BraidWord:
    """Cancel adjacent sigma_k sigma_k^-1 pairs until none remain."""
    stack: list[int] = []
    for k in a.letters:
        if stack and stack[-1] == -k:
            stack.pop()
        else:
            stack.append(k)
    return _valid(a.strands, tuple(stack))


def permutation(a: BraidWord) -> PermutationTable:
    """Underlying permutation: start position -> end position."""
    occupant = list(range(a.strands))  # occupant[pos] = strand start (0-based)
    for k in a.letters:
        i = abs(k) - 1
        occupant[i], occupant[i + 1] = occupant[i + 1], occupant[i]
    images = [0] * a.strands
    for pos, start in enumerate(occupant):
        images[start] = pos + 1
    return PermutationTable(a.strands, tuple(images))


def exponent_sum(a: BraidWord) -> int:
    """Abelianization: sum of letter signs."""
    return sum(1 if k > 0 else -1 for k in a.letters)
