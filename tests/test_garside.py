import random

import pytest

import snbraid as sb
from snbraid import garside
from snbraid.garside import CanonicalForm, canonical_form
from conftest import random_rewrite, random_word


def starting_set(images):
    return {i for i in range(len(images) - 1) if images[i] > images[i + 1]}


def finishing_set(images):
    inv = [0] * len(images)
    for i, v in enumerate(images):
        inv[v] = i
    return {i for i in range(len(inv) - 1) if inv[i] > inv[i + 1]}


class TestCanonicalForm:
    def test_half_twist_b3(self):
        cf = canonical_form(sb.BraidWord(3, (1, 2, 1)))
        assert (cf.delta_power, cf.factors) == (1, ())

    def test_trivial_word(self):
        cf = canonical_form(sb.BraidWord(3, (1, -1)))
        assert (cf.delta_power, cf.factors) == (0, ())

    def test_full_twist_b2(self):
        cf = canonical_form(sb.BraidWord(2, (1, 1)))
        assert (cf.delta_power, cf.factors) == (2, ())

    def test_idempotent_on_own_word(self):
        rng = random.Random(3)
        for _ in range(150):
            cf = canonical_form(random_word(rng, rng.randint(2, 6), 25))
            assert canonical_form(cf.to_word()) == cf

    def test_factors_left_weighted_and_proper(self):
        rng = random.Random(4)
        for _ in range(150):
            n = rng.randint(2, 6)
            cf = canonical_form(random_word(rng, n, 25))
            idp = tuple(range(n))
            w0 = tuple(range(n - 1, -1, -1))
            for f in cf.factors:
                assert f != idp and f != w0
            for a, b in zip(cf.factors, cf.factors[1:]):
                assert starting_set(b) <= finishing_set(a)

    def test_inverse_cancels(self):
        rng = random.Random(5)
        for _ in range(100):
            cf = canonical_form(random_word(rng, rng.randint(2, 6), 20))
            assert cf.mul(cf.inv()) == sb.CanonicalForm.identity(cf.strands)

    def test_json_shape(self):
        doc = canonical_form(sb.BraidWord(3, (1,))).to_json()
        assert doc == {"n": 3, "delta_power": 0, "factors": [[2, 1, 3]]}


def fixpoint_normalize(n, factors):
    """Reference normaliser: sweep all adjacent pairs until none changes,
    then count the leading Delta factors and drop trailing identities."""
    w0 = tuple(range(n - 1, -1, -1))
    idp = tuple(range(n))
    factors = [f for f in factors if f != idp]
    changed = True
    while changed:
        changed = False
        for i in range(len(factors) - 1):
            a, b = factors[i], factors[i + 1]
            x, y = garside._leftweight(a, b)
            if (x, y) != (a, b):
                factors[i], factors[i + 1] = x, y
                changed = True
    lo, hi = 0, len(factors)
    while lo < hi and factors[lo] == w0:
        lo += 1
    while lo < hi and factors[hi - 1] == idp:
        hi -= 1
    return lo, tuple(factors[lo:hi])


def reference_make(n, delta_power, factors):
    shift, fs = fixpoint_normalize(n, list(factors))
    return CanonicalForm(n, delta_power + shift, fs)


def random_factors(rng, n, count):
    """Random simple factors, with Delta, identity and tau-images mixed in."""
    out = []
    for _ in range(count):
        kind = rng.random()
        if kind < 0.1:
            out.append(tuple(range(n - 1, -1, -1)))
        elif kind < 0.2:
            out.append(tuple(range(n)))
        elif kind < 0.3 and out:
            out.append(garside._tau(out[-1]))
        else:
            p = list(range(n))
            rng.shuffle(p)
            out.append(tuple(p))
    return out


def reference_word_form(w):
    """Canonical form of a word as a product of its letters, each product
    normalised by the fixpoint sweep: Delta^p A * Delta^q B is
    Delta^(p+q) tau^q(A) B."""
    n = w.strands
    w0 = tuple(range(n - 1, -1, -1))
    out = CanonicalForm.identity(n)
    for k in w.letters:
        i = abs(k) - 1
        s = list(range(n))
        s[i], s[i + 1] = s[i + 1], s[i]
        s = tuple(s)
        # sigma_i^-1 = Delta^-1 (Delta sigma_i^-1), and Delta sigma_i^-1 is simple
        q, f = (0, s) if k > 0 else (-1, tuple(s[v] for v in w0))
        left = out.factors if q % 2 == 0 else [garside._tau(a) for a in out.factors]
        out = reference_make(n, out.delta_power + q, list(left) + [f])
    return out


class TestIncrementalNormalForm:
    """The push-and-stop normaliser against the fixpoint sweep it replaced."""

    def test_matches_fixpoint_sweep(self):
        rng = random.Random(12)
        for n in range(2, 8):
            for _ in range(12):
                factors = random_factors(rng, n, rng.randint(0, 200))
                assert garside._normalize(n, factors) == fixpoint_normalize(n, factors)

    def test_weighted_prefix(self):
        rng = random.Random(13)
        for n in range(2, 8):
            for _ in range(12):
                _, head = fixpoint_normalize(n, random_factors(rng, n, rng.randint(0, 100)))
                tail = random_factors(rng, n, rng.randint(0, 100))
                got = garside._normalize(n, tail, weighted=head)
                assert got == fixpoint_normalize(n, list(head) + tail)
                flipped = [garside._tau(f) for f in head]
                got = garside._normalize(n, tail, weighted=map(garside._tau, head))
                assert got == fixpoint_normalize(n, flipped + tail)

    def test_operations_match_reference(self):
        rng = random.Random(14)
        for _ in range(150):
            n = rng.randint(2, 7)
            x = canonical_form(random_word(rng, n, 40))
            y = canonical_form(random_word(rng, n, 40))
            left = x.factors if y.delta_power % 2 == 0 else [garside._tau(f) for f in x.factors]
            assert x.mul(y) == reference_make(
                n, x.delta_power + y.delta_power, list(left) + list(y.factors)
            )
            assert x.inv() == reference_word_form(sb.invert(x.to_word()))
            if x.factors:
                p = x.delta_power
                first = garside._tau(x.factors[0]) if p % 2 else x.factors[0]
                last = garside._tau(x.factors[-1]) if p % 2 else x.factors[-1]
                cycled, _ = garside._cycle(x)
                assert cycled == reference_make(n, p, list(x.factors[1:]) + [first])
                decycled, _ = garside._decycle(x)
                assert decycled == reference_make(n, p, [last] + list(x.factors[:-1]))

    def test_canonical_form_matches_reference(self):
        rng = random.Random(15)
        for _ in range(100):
            w = random_word(rng, rng.randint(2, 7), 60)
            assert canonical_form(w) == reference_word_form(w)

    def test_no_quadratic_blow_up(self):
        # A 1600-letter word on 5 strands: the fixpoint sweep makes about
        # 1.6M _leftweight calls, the incremental normaliser about 106k.
        rng = random.Random(16)
        w = sb.BraidWord(5, tuple(rng.choice([1, -1]) * rng.randint(1, 4) for _ in range(1600)))
        garside._leftweight.cache_clear()
        canonical_form(w)
        info = garside._leftweight.cache_info()
        assert info.hits + info.misses < 300_000


class TestWordProblem:
    def test_braid_relation(self):
        assert sb.equal(sb.BraidWord(3, (1, 2, 1)), sb.BraidWord(3, (2, 1, 2)))

    def test_distinct_generators(self):
        assert not sb.equal(sb.BraidWord(3, (1,)), sb.BraidWord(3, (2,)))

    def test_free_reduction_sound(self):
        rng = random.Random(6)
        for _ in range(100):
            w = random_word(rng, rng.randint(2, 6), 20)
            assert sb.equal(w, sb.free_reduce(w))

    def test_inverse_law(self):
        rng = random.Random(7)
        for _ in range(100):
            w = random_word(rng, rng.randint(2, 6), 20)
            assert sb.equal(sb.compose(w, sb.invert(w)), sb.BraidWord.identity(w.strands))

    def test_rewrite_invariance(self):
        rng = random.Random(8)
        for _ in range(100):
            w = random_word(rng, rng.randint(2, 6), 20)
            v = w
            for _ in range(10):
                v = random_rewrite(rng, v)
            assert sb.equal(w, v)

    def test_strand_mismatch(self):
        with pytest.raises(sb.StrandMismatchError):
            sb.equal(sb.BraidWord(3, (1,)), sb.BraidWord(4, (1,)))


class TestTwists:
    def test_small_deltas(self):
        assert sb.delta(2).letters == (1,)
        assert sb.full_twist(2).letters == (1, 1)

    def test_full_twist_is_delta_squared(self):
        for n in (2, 3, 4, 5):
            assert sb.equal(sb.full_twist(n), sb.compose(sb.delta(n), sb.delta(n)))

    def test_exponent_sum_b3(self):
        assert sb.exponent_sum(sb.full_twist(3)) == 6

    def test_centrality(self):
        rng = random.Random(9)
        tw = sb.full_twist(4)
        for _ in range(50):
            c = random_word(rng, 4, 12)
            conj = sb.compose(sb.compose(c, tw), sb.invert(c))
            assert sb.equal(conj, tw)

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            sb.delta(1)
        with pytest.raises(ValueError):
            sb.full_twist(0)


def check_witness(a, b, res):
    assert res.conjugate and res.witness is not None
    c = res.witness
    assert sb.equal(a, sb.compose(sb.compose(c, b), sb.invert(c)))


class TestConjugacy:
    def test_adjacent_generators(self):
        res = sb.is_conjugate(sb.BraidWord(3, (1,)), sb.BraidWord(3, (2,)))
        check_witness(sb.BraidWord(3, (1,)), sb.BraidWord(3, (2,)), res)

    def test_opposite_signs(self):
        res = sb.is_conjugate(sb.BraidWord(3, (1,)), sb.BraidWord(3, (-1,)))
        assert not res.conjugate

    def test_reflexive(self):
        w = sb.BraidWord(4, (1, -3, 2))
        res = sb.is_conjugate(w, w)
        assert res.conjugate and res.witness.letters == ()

    def test_constructed_roundtrip(self):
        rng = random.Random(10)
        for _ in range(60):
            n = rng.randint(2, 5)
            b = random_word(rng, n, 20)
            c = random_word(rng, n, 10)
            a = sb.free_reduce(sb.compose(sb.compose(c, b), sb.invert(c)))
            check_witness(a, b, sb.is_conjugate(a, b))

    def test_symmetric_decision(self):
        rng = random.Random(11)
        for _ in range(40):
            n = rng.randint(2, 4)
            a = random_word(rng, n, 10)
            b = random_word(rng, n, 10)
            assert sb.is_conjugate(a, b).conjugate == sb.is_conjugate(b, a).conjugate


def seeded_word(n, seed, length):
    rng = random.Random(seed)
    return sb.BraidWord(
        n, tuple(rng.choice([1, -1]) * rng.randint(1, n - 1) for _ in range(length))
    )


def summit_orbit(w):
    """The cycling orbit of the summit element that is_conjugate walks."""
    v, _ = garside._summit(canonical_form(w))
    return garside._cycling_orbit(v)


# Seeded words whose summit element needs more than 10 n^2 cycling steps to
# close its orbit, so the walk onto the circuit and the ultra summit
# membership test run past the step bound an earlier design fell back at.
LONG_ORBIT_WORDS = [(3, 7, 120), (3, 117, 120), (4, 119, 240)]


class TestLongCyclingOrbits:
    @pytest.fixture(scope="class", params=LONG_ORBIT_WORDS, ids=lambda p: f"n{p[0]}-seed{p[1]}")
    def pair(self, request):
        """A long-orbit word a and its conjugate c^-1 a c."""
        n, seed, length = request.param
        a = seeded_word(n, seed, length)
        _, steps, _ = summit_orbit(a)
        assert len(steps) > 10 * n * n
        c = seeded_word(n, 1000 + length, length // 4)
        return a, sb.compose(sb.compose(sb.invert(c), a), c)

    def test_constructed_conjugates(self, pair):
        a, b = pair
        check_witness(a, b, sb.is_conjugate(a, b))
        check_witness(b, a, sb.is_conjugate(b, a))

    @pytest.fixture(scope="class")
    def separated(self, pair):
        """The conjugate with sigma_x^2 sigma_y^-2 inserted: same exponent
        sum, cycle type and summit infimum/supremum, so the pair reaches the
        cycling walk, but a different Burau polynomial. (Reversing the word
        would not do: it never changes the Burau polynomial.)"""
        a, b = pair
        n = a.strands
        va, _ = garside._summit(canonical_form(a))
        poly = sb.burau_charpoly(a)
        for cut in range(len(b.letters) + 1):
            x, y = 1 + cut % (n - 1), 1 + (cut + 1) % (n - 1)
            d = sb.BraidWord(n, b.letters[:cut] + (x, x, -y, -y) + b.letters[cut:])
            vd, _ = garside._summit(canonical_form(d))
            if (vd.inf, vd.sup) == (va.inf, va.sup) and sb.burau_charpoly(d) != poly:
                return a, d
        pytest.fail("no Burau-separated partner found")

    def test_burau_separated_pairs(self, separated):
        a, d = separated
        assert not sb.is_conjugate(a, d).conjugate

    def test_closure_walks_each_element_once(self, separated, monkeypatch):
        """The closure search never starts a cycling walk from an element an
        earlier walk visited: pre-circuit elements are known non-members
        and circuit elements known members of the ultra summit set."""
        a, d = separated
        va, ga = garside._to_circuit(*garside._summit(canonical_form(a)))
        vd, _ = garside._to_circuit(*garside._summit(canonical_form(d)))
        walk = garside._cycling_orbit
        walked: set = set()
        starts = []

        def recorded(v):
            starts.append(v in walked)
            orbit, steps, start = walk(v)
            walked.update(orbit)
            return orbit, steps, start

        monkeypatch.setattr(garside, "_cycling_orbit", recorded)
        assert garside._closure_search(va, ga, vd) is None
        assert starts and not any(starts)

    def test_orbit_circuit(self, pair):
        """From the conjugate's canonical form, which is not yet a summit
        element: every element on the returned circuit starts its own
        circuit, and no element before it does."""
        _, b = pair
        n = b.strands
        orbit, steps, start = garside._cycling_orbit(canonical_form(b))
        assert len(orbit) == len(steps) > 10 * n * n
        assert start > 0
        for i, x in enumerate(orbit):
            assert (garside._cycling_orbit(x)[2] == 0) == (i >= start)


class TestConjugateModFullTwist:
    def test_constructed_power(self):
        a = sb.compose(sb.BraidWord(3, (1,)), sb.full_twist(3))
        res, k = sb.conjugate_mod_full_twist(a, sb.BraidWord(3, (1,)))
        assert res.conjugate and k == 1

    def test_divisibility_obstruction(self):
        res, k = sb.conjugate_mod_full_twist(sb.BraidWord(3, (1,)), sb.BraidWord(3, (-2,)))
        assert not res.conjugate and k is None

    def test_equal_words(self):
        w = sb.BraidWord(4, (1, 3, -2))
        res, k = sb.conjugate_mod_full_twist(w, w)
        assert res.conjugate and k == 0
