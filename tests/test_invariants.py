import random

import pytest

import snbraid as sb
from snbraid import invariants
from snbraid.invariants import (
    _burau_matrix,
    burau_charpoly,
    cycle_type,
    linking_matrix,
    standard_reports,
)
from conftest import conjugated_kernel_part, random_kernel_word, random_mixed, random_word


class TestCycleType:
    def test_blocks_reported_separately(self):
        b = sb.validate(2, 1, sb.BraidWord(3, (1, 2, 2)))
        assert cycle_type(b) == ((2,), (1,))

    def test_trivial_word(self):
        b = sb.validate(2, 2, sb.BraidWord(4, ()))
        assert cycle_type(b) == ((1, 1), (1, 1))

    def test_full_cycle_orbit(self):
        b = sb.validate(0, 3, sb.BraidWord(3, (1, 2)))
        assert cycle_type(b) == ((), (3,))


class TestLinking:
    def test_hopf_link(self):
        b = sb.validate(0, 2, sb.BraidWord(2, (1, 1)))
        assert linking_matrix(b) == ((("o", 1), ("o", 1), 1),)

    def test_trivial_closure(self):
        b = sb.validate(2, 1, sb.BraidWord(3, ()))
        assert all(entry[-1] == 0 for entry in linking_matrix(b))

    def test_loop_generator_links_one_puncture(self):
        # strand 3 loops around puncture 1, not puncture 2
        a1 = sb.validate(2, 1, sb.BraidWord(3, (2, 1, 1, -2)))
        assert linking_matrix(a1) == (
            (("A", 1), ("A", 2), 0),
            (("A", 1), ("o", 1), 1),
            (("A", 2), ("o", 1), 0),
        )

    def test_distinguishes_loops_around_different_punctures(self):
        a1 = sb.validate(2, 1, sb.BraidWord(3, (2, 1, 1, -2)))
        a2 = sb.validate(2, 1, sb.BraidWord(3, (2, 2)))
        assert linking_matrix(a1) != linking_matrix(a2)

    def test_stable_under_kernel_conjugation(self):
        rng = random.Random(31)
        for _ in range(60):
            n, m = rng.randint(1, 3), rng.randint(1, 2)
            b = random_mixed(rng, n, m)
            c = random_kernel_word(rng, n, m, 3)
            conj = sb.MixedBraid(
                n, m, sb.free_reduce(sb.compose(sb.compose(c, b.word), sb.invert(c)))
            )
            assert linking_matrix(conj) == linking_matrix(b)
            assert cycle_type(conj) == cycle_type(b)


    def test_agrees_with_reference(self):
        """The one-pass linking matrix against the reference below, on
        seeded products of random mixed braids of up to 60 letters."""
        rng = random.Random(48)
        lengths = []
        for _ in range(400):
            n = rng.randint(0, 4)
            m = rng.randint(1 if n else 2, 3)
            limit = rng.randint(0, 60)
            w = sb.BraidWord.identity(n + m)
            while len((piece := random_mixed(rng, n, m).word).letters) + len(w.letters) <= limit:
                w = sb.compose(w, piece)
            b = sb.MixedBraid(n, m, w)
            assert linking_matrix(b) == linking_matrix_reference(b)
            lengths.append(len(w.letters))
        assert max(lengths) > 45 and sum(length > 0 for length in lengths) > 300


def linking_matrix_reference(b):
    """The linking matrix as first written: a strand-to-cycle dict, a dict
    of crossing counts keyed by the sorted cycle pair, and both tags of an
    entry built and sorted per pair."""
    word = b.word
    total = word.strands
    cycles = b.perm.cycles()
    cycle_of = {}
    for ci, cyc in enumerate(cycles):
        for s in cyc:
            cycle_of[s] = ci

    counts = {}
    occupant = list(range(1, total + 1))
    for k in word.letters:
        i = abs(k)
        a, c = occupant[i - 1], occupant[i]
        ca, cc = cycle_of[a], cycle_of[c]
        if ca != cc:
            key = (min(ca, cc), max(ca, cc))
            counts[key] = counts.get(key, 0) + (1 if k > 0 else -1)
        occupant[i - 1], occupant[i] = c, a

    def tag(ci):
        cyc = cycles[ci]
        if cyc[0] <= b.n:
            return ("A",) + tuple(sorted(cyc))
        return ("o", len(cyc))

    entries = []
    for ci in range(len(cycles)):
        for cj in range(ci + 1, len(cycles)):
            signed = counts.get((ci, cj), 0)
            assert signed % 2 == 0
            t1, t2 = sorted([tag(ci), tag(cj)])
            entries.append((t1, t2, signed // 2))
    return tuple(sorted(entries))


def laurent_identity(n):
    return [[{0: 1} if i == j else {} for j in range(n)] for i in range(n)]


def laurent_matmul(p, q):
    """Exact product of square matrices of integer Laurent polynomials in t,
    each stored as {exponent: nonzero coefficient}."""
    n = len(p)
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            acc = {}
            for k in range(n):
                for e1, c1 in p[i][k].items():
                    for e2, c2 in q[k][j].items():
                        acc[e1 + e2] = acc.get(e1 + e2, 0) + c1 * c2
            row.append({e: c for e, c in acc.items() if c})
        out.append(row)
    return out


class TestBurau:
    def test_identity_charpoly(self):
        # (x - 1)^3, lowest x power first
        assert burau_charpoly(sb.BraidWord(3, ())) == (
            (0, 0, -1),
            (1, 0, 3),
            (2, 0, -3),
            (3, 0, 1),
        )

    def test_generator_matrix(self):
        # sigma_2 on 3 strands: block [[1-t, t], [1, 0]] at rows/columns 2, 3
        assert _burau_matrix(sb.BraidWord(3, (2,))) == [
            [{0: 1}, {}, {}],
            [{}, {0: 1, 1: -1}, {1: 1}],
            [{}, {0: 1}, {}],
        ]

    def test_generator_inverse_matrices_cancel(self):
        for n in range(2, 5):
            for i in range(1, n):
                for k in (i, -i):
                    m = laurent_matmul(
                        _burau_matrix(sb.BraidWord(n, (k,))),
                        _burau_matrix(sb.BraidWord(n, (-k,))),
                    )
                    assert m == laurent_identity(n)

    def test_homomorphism(self):
        rng = random.Random(33)
        for _ in range(20):
            n = rng.randint(2, 4)
            a, b = random_word(rng, n, 6), random_word(rng, n, 6)
            lhs = _burau_matrix(sb.compose(a, b))
            rhs = laurent_matmul(_burau_matrix(a), _burau_matrix(b))
            assert lhs == rhs

    @pytest.mark.parametrize(
        "n, letters, expected",
        [
            (2, (1,), ((0, 1, -1), (1, 0, -1), (1, 1, 1), (2, 0, 1))),
            (
                3,
                (1, -2),
                (
                    (0, 1, -1), (1, 0, -1), (1, 1, 2), (1, 2, -1),
                    (2, 0, 1), (2, 1, -2), (2, 2, 1), (3, 1, 1),
                ),
            ),
            (
                4,
                (1, 2, 3, -1, 2),
                (
                    (0, 3, -1), (1, 2, -1), (1, 3, 1), (2, 1, -1),
                    (2, 2, 1), (3, 0, -1), (3, 1, 1), (4, 0, 1),
                ),
            ),
            (
                3,
                (-1, -1, 2),
                (
                    (0, 1, 1), (1, 0, 1), (1, 1, -2), (1, 2, 1), (1, 3, -1),
                    (2, 0, -1), (2, 1, 1), (2, 2, -2), (2, 3, 1), (3, 2, 1),
                ),
            ),
        ],
    )
    def test_charpoly_pinned(self, n, letters, expected):
        assert burau_charpoly(sb.BraidWord(n, letters)) == expected

    def test_charpoly_conjugation_invariant(self):
        rng = random.Random(34)
        for _ in range(200):
            n = rng.randint(2, 4)
            b = random_word(rng, n, 10)
            c = random_word(rng, n, 6)
            a = sb.free_reduce(sb.compose(sb.compose(c, b), sb.invert(c)))
            assert burau_charpoly(a) == burau_charpoly(b)

    def test_charpoly_separates_simple_pair(self):
        assert burau_charpoly(sb.BraidWord(2, (1, 1))) != burau_charpoly(
            sb.BraidWord(2, (1, 1, 1, 1))
        )


def test_standard_reports_battery():
    b = sb.validate(2, 1, sb.BraidWord(3, (2, 2)))
    reports = standard_reports(b)
    assert [r.name for r in reports] == ["exponent_sum", "cycle_type", "linking_matrix"]
    for r in reports:
        doc = r.to_json()
        assert set(doc) == {"name", "value"}


@pytest.mark.parametrize("n,m,word,expected", [
    (2, 1, "s2 s2", [
        ("exponent_sum", 2),
        ("cycle_type", ((1, 1), (1,))),
        ("linking_matrix", (
            (("A", 1), ("A", 2), 0), (("A", 1), ("o", 1), 0), (("A", 2), ("o", 1), 1),
        )),
    ]),
    (3, 2, "s1 s3 s3 S4 s2 S1 s4 s4 S3 S3 s2 s1 s2 S4", [
        ("exponent_sum", 4),
        ("cycle_type", ((1, 1, 1), (1, 1))),
        ("linking_matrix", (
            (("A", 1), ("A", 2), 1), (("A", 1), ("A", 3), 1),
            (("A", 1), ("o", 1), -1), (("A", 1), ("o", 1), 0),
            (("A", 2), ("A", 3), 0), (("A", 2), ("o", 1), 0),
            (("A", 2), ("o", 1), 0), (("A", 3), ("o", 1), 0),
            (("A", 3), ("o", 1), 1), (("o", 1), ("o", 1), 0),
        )),
    ]),
])
def test_standard_reports_skip_burau(monkeypatch, n, m, word, expected):
    """The battery costs one pass over the word per report: it never calls
    the Burau polynomial, whose cost has no bound in the word length and
    strand count, and the reports it keeps hold the values they held when
    it still reported that polynomial."""

    def unbounded(_word):
        raise AssertionError("standard_reports called burau_charpoly")

    monkeypatch.setattr(invariants, "burau_charpoly", unbounded)
    b = sb.validate(n, m, sb.BraidWord.parse(n + m, word))
    assert [(r.name, r.value) for r in standard_reports(b)] == expected


def test_invariants_constant_on_sn_equivalent_instances():
    rng = random.Random(35)
    for _ in range(30):
        n, m = rng.randint(1, 2), 1
        beta_A = random_word(rng, n, 4)
        gamma = random_kernel_word(rng, n, m, 2)
        c = random_kernel_word(rng, n, m, 2)
        other = conjugated_kernel_part(n, m, beta_A, gamma, c)
        bx = sb.MixedBraid(n, m, sb.compose(sb.section(n, m, beta_A).word, other))
        by = sb.MixedBraid(n, m, sb.compose(sb.section(n, m, beta_A).word, gamma))
        assert cycle_type(bx) == cycle_type(by)
        assert linking_matrix(bx) == linking_matrix(by)
        assert burau_charpoly(bx.word) == burau_charpoly(by.word)
