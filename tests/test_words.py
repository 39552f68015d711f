import random
import re

import pytest
from hypothesis import given, strategies as st

import snbraid as sb
from conftest import random_rewrite, random_word


def words(max_n=6, max_len=20):
    return st.integers(2, max_n).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(
                st.integers(1, n - 1).flatmap(
                    lambda k: st.sampled_from([k, -k])
                ),
                max_size=max_len,
            ),
        )
    ).map(lambda t: sb.BraidWord(t[0], tuple(t[1])))


# Lines end at LF, CR LF or CR, as in a file read in text mode; a form
# feed or another break of `str.splitlines` is whitespace inside a line.
LINE_END = re.compile(r"\r\n|\r|\n")


def reference_parse(n, text):
    """`BraidWord.parse` token by token, as the grammar reads: each token
    matched by `words._TOKEN` and range-checked where it stands, an error
    naming its line and column."""
    letters = []
    for lineno, line in enumerate(LINE_END.split(text), start=1):
        body = line.split("#", 1)[0]
        col = 0
        for token in body.split():
            col = body.index(token, col)
            where = (lineno, col + 1)
            match = sb.words._TOKEN.fullmatch(token)
            if match is None:
                raise sb.WordSyntaxError(f"bad braid letter {token!r}", *where)
            prefix, digits = match.groups()
            value = int(digits)
            if value == 0:
                raise sb.WordSyntaxError(f"generator index 0 in {token!r} is not allowed", *where)
            k = -value if prefix in ("S", "-") else value
            if abs(k) > n - 1:
                raise sb.WordSyntaxError(f"letter {k} out of range for {n} strands", *where)
            letters.append(k)
            col += len(token)
    if n < 0:  # reached with no letters: each is out of range
        raise ValueError(f"strand count must be >= 0, got {n}")
    return sb.BraidWord(n, tuple(letters))


def reference_file_words(n, text):
    """The words of an orbit file as `partition --file` read them before
    `words._words`: each line parsed on its own, a bad token's error
    re-labelled with the line's number, blank and comment-only lines
    dropped."""
    orbits = []
    for lineno, line in enumerate(LINE_END.split(text), start=1):
        try:
            word = sb.BraidWord.parse(n, line)
        except sb.WordSyntaxError as exc:
            raise sb.WordSyntaxError(exc.message, lineno, exc.column) from None
        if word.letters:
            orbits.append(word)
    return orbits


class TestParsing:
    def test_generator_tokens(self):
        assert sb.BraidWord.parse(4, "s1 S3 s2").letters == (1, -3, 2)

    def test_signed_integers(self):
        assert sb.BraidWord.parse(4, "1 -3 2").letters == (1, -3, 2)

    def test_empty_and_comments(self):
        assert sb.BraidWord.parse(3, "").letters == ()
        assert sb.BraidWord.parse(3, "s1  # trailing note\ns2").letters == (1, 2)

    def test_format_roundtrip(self):
        w = sb.BraidWord(5, (1, -4, 2, -2))
        assert sb.BraidWord.parse(5, w.format()) == w
        assert w.format() == "s1 S4 s2 S2"

    def test_bad_token_position(self):
        with pytest.raises(sb.WordSyntaxError) as exc:
            sb.BraidWord.parse(3, "s1 sx")
        assert exc.value.line == 1
        assert exc.value.column == 4

    def test_zero_index_rejected(self):
        with pytest.raises(sb.WordSyntaxError):
            sb.BraidWord.parse(3, "0")
        with pytest.raises(sb.WordSyntaxError):
            sb.BraidWord.parse(3, "s0")

    @pytest.mark.parametrize(
        "text,line,column",
        [
            ("s1_0", 1, 1),
            ("s1 1_0", 1, 4),
            ("s+1", 1, 1),
            ("s2\n  +1", 2, 3),
            ("S-1", 1, 1),
            ("s-1", 1, 1),
            ("--1", 1, 1),
            ("s1 ٣", 1, 4),
            ("s１", 1, 1),
            ("s", 1, 1),
            ("-", 1, 1),
            ("s 1", 1, 1),
            ("1s", 1, 1),
            ("s1.0", 1, 1),
        ],
    )
    def test_only_ascii_digit_letters(self, text, line, column):
        """Only s<digits>, S<digits>, <digits> and -<digits> are letters:
        no underscores, explicit plus signs, signed s/S bodies or non-ASCII
        digits, which int() would otherwise accept."""
        with pytest.raises(sb.WordSyntaxError) as exc:
            sb.BraidWord.parse(20, text)
        assert exc.value.message.startswith("bad braid letter")
        assert (exc.value.line, exc.value.column) == (line, column)

    def test_leading_zeros_are_digits(self):
        assert sb.BraidWord.parse(12, "s01 S010 011 -02").letters == (1, -10, 11, -2)

    def test_letter_out_of_range(self):
        with pytest.raises(ValueError):
            sb.BraidWord(3, (3,))
        with pytest.raises(ValueError):
            sb.BraidWord(1, (1,))

    @pytest.mark.parametrize(
        "text,line,column", [("s1 s3", 1, 4), ("s2\n  S3 s1", 2, 3), ("1 -4", 1, 3)]
    )
    def test_letter_out_of_range_position(self, text, line, column):
        with pytest.raises(sb.WordSyntaxError) as exc:
            sb.BraidWord.parse(3, text)
        assert "out of range for 3 strands" in str(exc.value)
        assert (exc.value.line, exc.value.column) == (line, column)

    @pytest.mark.parametrize(
        "n,text,error",
        [
            (3, "s1 sx", "bad braid letter 'sx' (line 1, column 4)"),
            (3, "s2\n  S3 s1", "letter -3 out of range for 3 strands (line 2, column 3)"),
            (3, "# c\ns1 S0", "generator index 0 in 'S0' is not allowed (line 2, column 4)"),
            (2, "s1\n\n  s1 s2", "letter 2 out of range for 2 strands (line 3, column 6)"),
            (4, "s1\ts2  s4", "letter 4 out of range for 4 strands (line 1, column 8)"),
            (3, "s1 s1 s1 s11", "letter 11 out of range for 3 strands (line 1, column 10)"),
            (0, "s1", "letter 1 out of range for 0 strands (line 1, column 1)"),
            (1, "S1", "letter -1 out of range for 1 strands (line 1, column 1)"),
            (-1, "s1", "letter 1 out of range for -1 strands (line 1, column 1)"),
            (20, "s10 0", "generator index 0 in '0' is not allowed (line 1, column 5)"),
            (2, "s5# c", "letter 5 out of range for 2 strands (line 1, column 1)"),
            (3, "s1 sx#c", "bad braid letter 'sx' (line 1, column 4)"),
            (3, "s1\n s1 s03#s03 c", "letter 3 out of range for 3 strands (line 2, column 5)"),
        ],
    )
    def test_syntax_error_text(self, n, text, error):
        """The whole text of each error, position included: a letter is
        range-checked once, as it is read, and a negative strand count
        with a letter reports the letter."""
        with pytest.raises(sb.WordSyntaxError) as exc:
            sb.BraidWord.parse(n, text)
        assert str(exc.value) == error

    @pytest.mark.parametrize("n,text", [(-1, ""), (-2, "  # only a comment")])
    def test_negative_strand_count(self, n, text):
        with pytest.raises(ValueError, match=f"^strand count must be >= 0, got {n}$") as exc:
            sb.BraidWord.parse(n, text)
        assert not isinstance(exc.value, sb.WordSyntaxError)

    def test_parsed_letters_checked_once(self, monkeypatch):
        """`parse` builds its word without `BraidWord`'s second check of
        every letter, and the word is the one its letters make."""
        rng = random.Random(40)
        seeded = [random_word(rng, rng.randint(0, 7), 12) for _ in range(300)]
        checks = []
        check = sb.BraidWord.__post_init__
        monkeypatch.setattr(sb.BraidWord, "__post_init__", lambda w: checks.append(w) or check(w))
        for w in seeded:
            got = sb.BraidWord.parse(w.strands, w.format())
            assert got == w and hash(got) == hash(w) and type(got.letters) is tuple
        assert checks == []

    @staticmethod
    def outcome(parse, n, text):
        try:
            w = parse(n, text)
        except ValueError as exc:
            return type(exc), str(exc)
        return w, type(w.letters)

    def test_token_table_agrees_with_located_reading(self, monkeypatch):
        """`parse` looks each token up in `words._TOKENS` and sends only a
        missing token or a letter out of range to `words._letter`. On
        seeded texts of valid, out-of-range, zero-padded, large and bad
        tokens, with comments, line breaks and characters that
        `str.splitlines` breaks at but a line does not, on strand counts
        from -1 to 120, it gives the same word or the same error, message,
        line and column included, as `reference_parse`, which reads every
        token with the grammar's pattern; a text of table tokens in range
        is read without `_letter`."""
        words = sb.words
        pool = ["s1", "S2", "3", "-4", "s9", "S10", "99", "-99", "s100", "S120", "s01",
                "-007", "S0", "0", "sx", "s+1", "--1", "s\uff11", "\u0663", "-", "#", "# c\n"]
        rng = random.Random(41)
        cases = []
        for _ in range(2000):
            source = pool[:8] if rng.random() < 0.5 else pool
            tokens = [rng.choice(source) for _ in range(rng.randint(0, 6))]
            text = "".join(
                t + rng.choice((" ", "  ", "\n", "\t", "#", "\f", "\r\n", "\r", "\x1c", "\u2028"))
                for t in tokens
            )
            cases.append((rng.randint(-1, 120), text))
        for n, text in cases:
            got = self.outcome(sb.BraidWord.parse, n, text)
            assert got == self.outcome(reference_parse, n, text)

        def refused(n, token, lineno, line):
            raise AssertionError(f"located reading of {token!r} in {line!r}")

        def in_table(n, text):
            body = [t for line in LINE_END.split(text) for t in line.split("#", 1)[0].split()]
            return n >= 0 and all(abs(words._TOKENS.get(t, n)) < n for t in body)

        monkeypatch.setattr(words, "_letter", refused)
        read = [sb.BraidWord.parse(n, text) for n, text in cases if in_table(n, text)]
        assert sum(len(w.letters) > 2 for w in read) > 100


    def test_file_reader_agrees_with_line_by_line_parse(self):
        """`words._words` reads a text of one word per line in one pass:
        on seeded texts of valid, out-of-range and bad tokens, with LF, CR
        LF and CR line ends, blank lines and # comments, it gives the words
        of `reference_file_words`, or the same WordSyntaxError, message,
        line and column included."""

        def outcome(read, n, text):
            try:
                got = read(n, text)
            except sb.WordSyntaxError as exc:
                return str(exc), exc.message, exc.line, exc.column
            return [(w, type(w.letters)) for w in got]

        pool = ["s1", "S2", "3", "-1", "s2", "S3", "s9", "x2", "S0", "# c"]
        rng = random.Random(47)
        errors = 0
        for _ in range(1500):
            source = pool[:6] if rng.random() < 0.7 else pool
            text = "".join(
                rng.choice(source) + rng.choice((" ", " ", "\n", "\r\n", "\r", "\n\n", "#"))
                for _ in range(rng.randint(0, 12))
            )
            n = rng.randint(1, 5)
            got = outcome(sb.words._words, n, text)
            assert got == outcome(reference_file_words, n, text)
            errors += isinstance(got, tuple)
        assert 300 < errors < 1200


class TestGroupPlumbing:
    def test_compose_concatenates(self):
        a = sb.BraidWord(3, (1,))
        b = sb.BraidWord(3, (2,))
        assert sb.compose(a, b).letters == (1, 2)
        assert (a * b).letters == (1, 2)

    def test_compose_identity_literal(self):
        w = sb.BraidWord(3, (1, -2))
        e = sb.BraidWord.identity(3)
        assert sb.compose(e, w) == w
        assert sb.compose(w, e) == w

    def test_compose_strand_mismatch(self):
        with pytest.raises(sb.StrandMismatchError):
            sb.compose(sb.BraidWord(3, (1,)), sb.BraidWord(4, (1,)))

    def test_invert(self):
        assert sb.invert(sb.BraidWord(3, (1, 2))).letters == (-2, -1)
        assert sb.invert(sb.BraidWord(3, ())).letters == ()
        assert sb.invert(sb.BraidWord(3, (-1,))).letters == (1,)

    def test_free_reduce(self):
        assert sb.free_reduce(sb.BraidWord(2, (1, -1))).letters == ()
        assert sb.free_reduce(sb.BraidWord(3, (1, 2, -2, 1))).letters == (1, 1)
        assert sb.free_reduce(sb.BraidWord(3, (1, 2))).letters == (1, 2)

    def test_free_reduce_makes_plain_words(self):
        """free_reduce skips the per-letter check, but its result is a word
        like any other: equal, hashed and printed the same as the checked
        word of its letters. The public constructor still checks."""
        w = sb.free_reduce(sb.BraidWord(4, (3, 1, -1, -2, 2)))
        checked = sb.BraidWord(4, (3,))
        assert w == checked and hash(w) == hash(checked) and repr(w) == repr(checked)
        assert type(w.letters) is tuple
        for strands, letters in ((3, (3,)), (3, (-3,)), (3, (0,)), (1, (1,)), (4, (1, 5))):
            with pytest.raises(ValueError, match="out of range"):
                sb.BraidWord(strands, letters)

    def test_exponent_sum(self):
        assert sb.exponent_sum(sb.BraidWord(3, (1, -2, 1))) == 1
        assert sb.exponent_sum(sb.BraidWord(3, ())) == 0
        assert sb.exponent_sum(sb.BraidWord(3, (1, 2, 1))) == 3


class TestPermutations:
    def test_two_crossings(self):
        p = sb.permutation(sb.BraidWord(3, (1, 2)))
        assert p.images == (3, 1, 2)

    def test_identity_word(self):
        assert sb.permutation(sb.BraidWord(4, ())).images == (1, 2, 3, 4)

    def test_square_is_trivial(self):
        assert sb.permutation(sb.BraidWord(2, (1, 1))).images == (1, 2)

    def test_cycles_and_type(self):
        p = sb.permutation(sb.BraidWord(3, (1, 2)))
        assert p.cycles() == ((1, 3, 2),)
        assert sorted(map(len, p.cycles())) == [3]
        q = sb.permutation(sb.BraidWord(3, (1,)))
        assert sorted(map(len, q.cycles())) == [1, 2]

    def test_images_not_a_bijection(self):
        with pytest.raises(ValueError, match="not a bijection"):
            sb.PermutationTable(3, (1, 1, 2))

    @given(words(), words())
    def test_homomorphism(self, a, b):
        if a.strands != b.strands:
            return
        # a happens first: the strand starting at i ends at b's image of a's.
        pa, pb = sb.permutation(a).images, sb.permutation(b).images
        lhs = sb.permutation(sb.compose(a, b))
        assert lhs.images == tuple(pb[pa[i - 1] - 1] for i in range(1, a.strands + 1))

    @given(words())
    def test_inverse_permutation(self, w):
        p, q = sb.permutation(w).images, sb.permutation(sb.invert(w)).images
        assert all(q[p[i - 1] - 1] == i for i in range(1, w.strands + 1))


@given(words(), words())
def test_exponent_sum_additive(a, b):
    if a.strands != b.strands:
        return
    assert sb.exponent_sum(sb.compose(a, b)) == sb.exponent_sum(a) + sb.exponent_sum(b)
    assert sb.exponent_sum(sb.invert(a)) == -sb.exponent_sum(a)


def test_rewrites_preserve_word_quantities():
    rng = random.Random(11)
    for _ in range(200):
        w = random_word(rng, rng.randint(2, 6), 16)
        v = random_rewrite(rng, w)
        assert sb.permutation(v) == sb.permutation(w)
        assert sb.exponent_sum(v) == sb.exponent_sum(w)
