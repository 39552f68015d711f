import functools
import gc
import itertools
import math
import random
import tracemalloc

import pytest
from hypothesis import given, strategies as st

import snbraid as sb
from snbraid import decision, garside
from snbraid.garside import CanonicalForm, canonical_form
from conftest import permutation_cycles, random_rewrite, random_word


def starting_set(images):
    return {i for i in range(len(images) - 1) if images[i] > images[i + 1]}


def finishing_set(images):
    inv = [0] * len(images)
    for i, v in enumerate(images):
        inv[v] = i
    return {i for i in range(len(inv) - 1) if inv[i] > inv[i + 1]}


# The Garside core stores each simple factor as the lexicographic rank of
# its permutation; the reference code below works on permutations, and
# these convert at the boundary.


def ranks(factors):
    """Permutations as the ranks the Garside core stores."""
    return tuple(garside._rank(f) for f in factors)


def perms(n, factors):
    """Ranks of simple elements of B_n as permutations."""
    return tuple(garside._unrank(n, r) for r in factors)


def cycle_lengths(w):
    """The cycle type of w's permutation: the sorted lengths of its
    cycles (`conftest.permutation_cycles`), fixed points included."""
    return tuple(sorted(len(c) for c in permutation_cycles(sb.permutation(w))))


def then(p, q):
    """p then q, as braid stacking (q o p as functions): the composition
    the reversal identities of tau and the Delta-complement replace."""
    return tuple(q[v] for v in p)


def bubble_perm_word(p):
    """The spelling of a permutation braid as the swaps that sort p, each
    at the leftmost descent, the scan resuming one position left of a
    swap: the reference `garside._perm_word` must equal."""
    q = list(p)
    out = []
    i = 0
    while i < len(q) - 1:
        if q[i] > q[i + 1]:
            out.append(i + 1)
            q[i], q[i + 1] = q[i + 1], q[i]
            i = max(i - 1, 0)
        else:
            i += 1
    return out


def delta_letters(n):
    """The half twist as the word (s1)(s2 s1)...(s_(n-1) ... s1): the
    reference `garside.delta` must equal."""
    out = []
    for i in range(1, n):
        out.extend(range(i, 0, -1))
    return out


def leftweight_entry(x, y):
    """What the left-weighting table holds for the pair of permutations
    (x, y), as permutations: None when `_leftweight` leaves the pair as it
    is, the pair it makes otherwise."""
    pair = garside._leftweight(x, y)
    return None if pair == (x, y) else pair


def entry_perms(n, entry):
    """A left-weighting table entry read as permutations."""
    return None if entry is None else perms(n, entry)


def normalize_perms(n, factors):
    """garside._normalize on factors given and returned as permutations."""
    shift, fs = garside._normalize(n, ranks(factors))
    return shift, perms(n, fs)


class CountedLookups(dict):
    """Stands in for a memo table and counts the lookups made through it;
    in front of the left-weighting table, one per row read, so one per
    `leftweight[x][y]`."""

    def __init__(self, table):
        super().__init__()
        self.table, self.count = table, 0

    def __getitem__(self, key):
        self.count += 1
        return self.table[key]


def count_leftweight(monkeypatch, n):
    """Route every left-weighting lookup on n strands through a counter:
    the table itself and the second slot of `push`, the tuple the walks
    unpack, which holds the table it was made with."""
    simples = garside._simples(n)
    counted = CountedLookups(simples.leftweight)
    delta, _, tau = simples.push
    monkeypatch.setattr(simples, "leftweight", counted)
    monkeypatch.setattr(simples, "push", (delta, counted, tau))
    return counted


class TestCanonicalForm:
    def test_half_twist_b3(self):
        cf = canonical_form(sb.BraidWord(3, (1, 2, 1)))
        assert (cf.delta_power, cf.factors) == (1, ())

    def test_trivial_word(self):
        cf = canonical_form(sb.BraidWord(3, (1, -1)))
        assert (cf.delta_power, cf.factors) == (0, ())

    def test_empty_word_normalizes_nothing(self, monkeypatch):
        """A word with no letters is the identity: its form is made with no
        normalization."""
        def refuse(*args):
            raise AssertionError("an empty word was normalized")

        monkeypatch.setattr(garside, "_normalize", refuse)
        for n in range(9):
            assert canonical_form(sb.BraidWord(n, ())) == CanonicalForm(n, 0, ())

    def test_mul_strand_mismatch(self):
        a = canonical_form(sb.BraidWord(3, (1,)))
        b = canonical_form(sb.BraidWord(4, (1,)))
        with pytest.raises(sb.StrandMismatchError):
            a.mul(b)
        with pytest.raises(sb.StrandMismatchError):
            garside._product(a, a, b)
        # A shorter left operand on other strands than the pivot.
        long = canonical_form(sb.BraidWord(3, (1, -2, 1, -2)))
        assert len(long.factors) > len(b.factors)
        with pytest.raises(sb.StrandMismatchError):
            garside._product(b, long)

    def test_named_tuple_semantics(self):
        """Immutable fields, and equality and hashing by value."""
        cf = canonical_form(sb.BraidWord(4, (1, -2, 3)))
        with pytest.raises(AttributeError):
            cf.delta_power = 0
        twin = canonical_form(sb.BraidWord(4, (1, -2, 3, 2, -2)))
        assert twin == cf and twin is not cf and hash(twin) == hash(cf)
        assert len({cf: 0, twin: 1, CanonicalForm(4, 0, ()): 2}) == 2
        assert (CanonicalForm(5, 0, ()).inf, CanonicalForm(5, 0, ()).sup) == (0, 0)

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
            factors = perms(n, cf.factors)
            for f in factors:
                assert f != idp and f != w0
            for a, b in zip(factors, factors[1:]):
                assert starting_set(b) <= finishing_set(a)

    def test_inverse_cancels(self):
        """`inv` cancels seeded forms. `_inverse`, which `inv`, `_quotient`
        and `to_word` share, equals `reference_inverse` on factor lists
        that hold Delta's rank and the identity, for odd and even p on 2
        to 6 strands (6 reads the memo tables), and `_quotient` of two
        such lists equals the normal form of h's letters times g's
        inverted."""
        rng = random.Random(5)
        for _ in range(100):
            cf = canonical_form(random_word(rng, rng.randint(2, 6), 20))
            assert cf.mul(cf.inv()) == sb.CanonicalForm(cf.strands, 0, ())
        seen = set()
        for _ in range(300):
            n, p = rng.randint(2, 6), rng.randint(-3, 3)
            f, g = (random_factors(rng, n, rng.randint(0, 6)) for _ in range(2))
            got = garside._inverse(garside._simples(n), ranks(f), p)
            assert perms(n, got) == reference_inverse(n, f, p), (f, p)
            h_word, g_word = (
                sb.BraidWord(n, tuple(k for x in fs for k in garside._perm_word(x))) for fs in (f, g)
            )
            want = canonical_form(sb.compose(h_word, sb.invert(g_word)))
            assert garside._quotient(n, list(ranks(f)), list(ranks(g))) == want, (f, g)
            w0 = tuple(range(n - 1, -1, -1))
            seen.add((n, p % 2, w0 in f + g, tuple(range(n)) in f + g))
        assert {(n, p) for n, p, _, _ in seen} == {(n, p) for n in range(2, 7) for p in (0, 1)}
        assert any(has_delta and has_id for _, _, has_delta, has_id in seen)

    def test_json_shape(self):
        doc = canonical_form(sb.BraidWord(3, (1,))).to_json()
        assert doc == {"n": 3, "delta_power": 0, "factors": [[2, 1, 3]]}


def random_form(rng, n):
    """A canonical form on n strands with a random Delta power of either
    parity (none below 2 strands, where Delta is trivial) and, one time in
    four, no factors."""
    cf = canonical_form(random_word(rng, n, 12))
    factors = cf.factors if rng.random() < 0.75 else ()
    return CanonicalForm(n, rng.randint(-3, 3) if n >= 2 else 0, factors)


def junction_form(rng, prev):
    """A form whose first factor makes Delta with the last factor of prev
    in their product: with q its Delta power, tau^q(A) B = Delta for the
    last factor A of prev, so B is the complement of tau^(q+1)(A)."""
    n, q = prev.strands, rng.randint(-2, 2)
    simples = garside._simples(n)
    a = prev.factors[-1]
    if q % 2 == 0:
        a = simples.tau[a]
    return CanonicalForm(n, q, (simples.complement[a],))


def left_junction_form(rng, nxt):
    """A form whose last factor makes Delta with the first factor of nxt
    in their product: with p the Delta power of nxt, B Delta^p A =
    Delta^p tau^p(B) A for its first factor A, so B is tau^p of the
    complement of A."""
    n = nxt.strands
    simples = garside._simples(n)
    b = simples.complement[nxt.factors[0]]
    if nxt.delta_power % 2:
        b = simples.tau[b]
    return CanonicalForm(n, rng.randint(-2, 2), (b,))


def long_form(rng, n, k):
    """A canonical form on n strands, n >= 3, with exactly k factors: the
    first k of the normal form of random simple elements, drawn until it
    has k, a prefix of a left-weighted list being left-weighted."""
    count = math.factorial(n)
    drawn: list[int] = []
    while True:
        p, fs = garside._normalize(n, drawn)
        if len(fs) >= k:
            return CanonicalForm(n, p, fs[:k])
        drawn += [rng.randrange(1, count - 1) for _ in range(4 * k)]


def word_product(forms):
    """The canonical form of the concatenated words of forms."""
    letters = tuple(k for f in forms for k in f.to_word().letters)
    return canonical_form(sb.BraidWord(forms[0].strands, letters))


def pivot_place(forms):
    """Where the longest of forms stands: first, middle or last, or tied
    when another is as long."""
    lengths = [len(f.factors) for f in forms]
    longest = max(lengths)
    if lengths.count(longest) > 1:
        return "tied"
    i = lengths.index(longest)
    return "first" if i == 0 else "last" if i == len(forms) - 1 else "middle"


class TestProduct:
    """`garside._product` against the canonical form of the concatenated
    words of its operands, which no product computes."""

    def test_matches_word_of_concatenation(self):
        rng = random.Random(19)
        junctions, left_junctions, kinds, places = 0, 0, set(), set()
        for n in range(1, 9):
            for _ in range(60):
                forms = []
                for _ in range(rng.randint(1, 5)):
                    if forms and forms[-1].factors and rng.random() < 0.3:
                        forms.append(junction_form(rng, forms[-1]))
                        prev, g = forms[-2], forms[-1]
                        pair = garside._product(prev, g)
                        assert pair.delta_power == prev.delta_power + g.delta_power + 1
                        junctions += 1
                    else:
                        forms.append(random_form(rng, n))
                x = max(forms, key=lambda f: len(f.factors))
                if x.factors and rng.random() < 0.4:
                    # the longest form's left push starts with a Delta
                    g = left_junction_form(rng, x)
                    forms.insert(forms.index(x), g)
                    assert garside._product(g, x).delta_power == g.delta_power + x.delta_power + 1
                    left_junctions += 1
                kinds.update((f.delta_power % 2, bool(f.factors)) for f in forms if n >= 2)
                if len(forms) >= 3:
                    places.add(pivot_place(forms))
                got = garside._product(*forms)
                assert got == word_product(forms), forms
                if len(forms) == 2:
                    assert forms[0].mul(forms[1]) == got
        assert junctions > 100 and left_junctions > 50
        assert kinds == {(0, False), (0, True), (1, False), (1, True)}
        assert places == {"first", "middle", "last", "tied"}

    def test_delta_powers_and_empty_forms(self):
        """Pure Delta powers and empty forms on either side of a form, no
        factors at all, and strand counts below 2, where every form is
        empty."""
        rng = random.Random(29)
        for n in range(3, 7):
            x = long_form(rng, n, 5)
            for q, r in itertools.product(range(-3, 4), repeat=2):
                left, right = CanonicalForm(n, q, ()), CanonicalForm(n, r, ())
                for forms in ([left, x], [x, right], [left, x, right], [left, right]):
                    assert garside._product(*forms) == word_product(forms), forms
        for n in (0, 1):
            e = CanonicalForm(n, 0, ())
            assert garside._product(e) == garside._product(e, e, e) == e

    def test_conjugation_lookups_flat(self, monkeypatch):
        """g X g^-1 for a kernel generator g pushes only g's factors onto
        the front of X and g^-1's onto its end, so it makes about as many
        left-weighting lookups for an 80-factor X as for a 10-factor one."""
        _, alphabet, _ = decision._kernel_alphabet(2, 1)
        counted = count_leftweight(monkeypatch, 3)

        def lookups(k):
            calls = 0
            for seed in range(8):
                x = long_form(random.Random(seed), 3, k)
                for _, g, g_inv in alphabet:
                    before = counted.count
                    got = garside._product(g, x, g_inv)
                    calls += counted.count - before
                    assert got == word_product([g, x, g_inv])
            return calls

        assert 0 < lookups(80) <= 1.25 * lookups(10)


class TestOneRightPush:
    """The right push is written once, `garside._push`: a normalization
    calls it once, `_product` once per operand right of its pivot, and a
    cycling walk once per step that has factors, with that step's factor."""

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = []
        push = garside._push

        def counted(*args):
            calls.append(args[1])
            return push(*args)

        monkeypatch.setattr(garside, "_push", counted)
        return calls

    def test_once_per_canonical_form(self, calls):
        """Once per word with letters; a word with none is the identity
        and pushes nothing."""
        rng = random.Random(41)
        pushed = empty = 0
        for _ in range(40):
            w = random_word(rng, rng.randint(2, 6), 20)
            canonical_form(w)
            pushed += bool(w.letters)
            empty += not w.letters
            assert len(calls) == pushed
        assert empty > 0

    def test_once_per_right_operand(self, calls):
        _, alphabet, _ = decision._kernel_alphabet(2, 1)
        for seed in range(4):
            x = long_form(random.Random(seed), 3, 8)
            for _, g, g_inv in alphabet:
                calls.clear()
                middle = garside._product(g, x, g_inv)
                assert calls == [g_inv.factors]
                calls.clear()
                first = garside._product(x, g, g_inv)
                assert calls == [g.factors, g_inv.factors]
                assert middle == word_product([g, x, g_inv])
                assert first == word_product([x, g, g_inv])

    def test_once_per_cycling_step(self, calls):
        rng = random.Random(43)
        walked = 0
        for _ in range(20):
            cf = canonical_form(random_word(rng, rng.randint(3, 5), 16))
            calls.clear()
            v, g = garside._summit(cf)
            assert calls == [(s,) for s in g]
            calls.clear()
            orbit, steps, _ = garside._cycling_orbit(v)
            # A step with no factors has the identity conjugator, 0.
            assert calls == [(s,) for s in steps if s]
            walked += len(orbit) > 1
        assert walked > 0


# The reference sweeps left-weight the same pairs of permutations many times.
leftweight = functools.lru_cache(maxsize=1 << 16)(garside._leftweight)


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
            x, y = leftweight(a, b)
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
    """The canonical form of Delta^delta_power times factors, given as
    permutations, by the fixpoint sweep."""
    shift, fs = fixpoint_normalize(n, list(factors))
    return CanonicalForm(n, delta_power + shift, ranks(fs))


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


def reference_inverse(n, factors, p):
    """The factors of (Delta^p f_1 ... f_k)^-1 after its Delta power, for
    simple factors given as permutations, one factor at a time: it is
    f_k^-1 ... f_1^-1 Delta^-p with each f^-1 = Delta^-1 df, df = Delta f^-1
    by composition, and each Delta^-1, and each Delta of a negative p, is
    carried to the front, twisting every complement it passes by tau."""
    w0 = tuple(range(n - 1, -1, -1))
    out = []
    for item in [*(x for f in reversed(factors) for x in (None, f)), *[None] * abs(p)]:
        if item is None:
            out = [then(then(w0, x), w0) for x in out]
        else:
            inverse = tuple(sorted(range(n), key=item.__getitem__))
            out.append(then(w0, inverse))
    return tuple(out)


def reference_word_form(w):
    """Canonical form of a word as a product of its letters, each product
    normalised by the fixpoint sweep: Delta^p A * Delta^q B is
    Delta^(p+q) tau^q(A) B."""
    n = w.strands
    w0 = tuple(range(n - 1, -1, -1))
    out = CanonicalForm(n, 0, ())
    for k in w.letters:
        i = abs(k) - 1
        s = list(range(n))
        s[i], s[i + 1] = s[i + 1], s[i]
        s = tuple(s)
        # sigma_i^-1 = Delta^-1 (Delta sigma_i^-1), and Delta sigma_i^-1 is simple
        q, f = (0, s) if k > 0 else (-1, tuple(s[v] for v in w0))
        left = perms(n, out.factors)
        if q % 2:
            left = [garside._tau(a) for a in left]
        out = reference_make(n, out.delta_power + q, list(left) + [f])
    return out


def delta_heavy_factors(rng, n, count):
    """Random simple factors biased towards making Delta: the factors of
    inverse letters (Delta sigma_i^-1), right complements of the previous
    factor (whose product with it is Delta), Delta itself and random ones."""
    w0 = tuple(range(n - 1, -1, -1))
    out = []
    for _ in range(count):
        kind = rng.random()
        if kind < 0.3:
            i = rng.randrange(n - 1)
            s = list(range(n))
            s[i], s[i + 1] = s[i + 1], s[i]
            out.append(tuple(w0[v] for v in s))
        elif kind < 0.5 and out:
            inv = [0] * n
            for i, v in enumerate(out[-1]):
                inv[v] = i
            out.append(tuple(w0[v] for v in inv))
        elif kind < 0.55:
            out.append(w0)
        else:
            p = list(range(n))
            rng.shuffle(p)
            out.append(tuple(p))
    return out


def delta_sites(n, factors, weighted=()):
    """Where the pushes of the normaliser that walks each Delta to the front
    turn a factor into Delta: (index, last index of the list) per push."""
    w0 = tuple(range(n - 1, -1, -1))
    idp = tuple(range(n))
    out = list(weighted)
    sites = []
    for f in factors:
        if f == idp:
            continue
        i = len(out)
        out.append(f)
        made = False
        while i > 0:
            a = out[i - 1]
            x, y = leftweight(a, out[i])
            if x == a:
                break
            if x == w0 and not made:
                sites.append((i - 1, len(out) - 1))
                made = True
            out[i - 1], out[i] = x, y
            i -= 1
        if out[-1] == idp:
            out.pop()
    return sites


class TestIncrementalNormalForm:
    """The push-and-stop normaliser against the fixpoint sweep it replaced."""

    def test_matches_fixpoint_sweep(self):
        rng = random.Random(12)
        for n in range(2, 8):
            for _ in range(12):
                factors = random_factors(rng, n, rng.randint(0, 200))
                assert normalize_perms(n, factors) == fixpoint_normalize(n, factors)

    def test_weighted_prefix(self):
        rng = random.Random(13)
        for n in range(2, 8):
            for _ in range(12):
                _, head = fixpoint_normalize(n, random_factors(rng, n, rng.randint(0, 100)))
                tail = random_factors(rng, n, rng.randint(0, 100))
                got = normalize_perms(n, list(head) + tail)
                assert got == fixpoint_normalize(n, list(head) + tail)
                flipped = [garside._tau(f) for f in head]
                got = normalize_perms(n, flipped + tail)
                assert got == fixpoint_normalize(n, flipped + tail)

    def test_operations_match_reference(self):
        rng = random.Random(14)
        for _ in range(150):
            n = rng.randint(2, 7)
            x = canonical_form(random_word(rng, n, 40))
            y = canonical_form(random_word(rng, n, 40))
            xf, yf = perms(n, x.factors), perms(n, y.factors)
            left = xf if y.delta_power % 2 == 0 else [garside._tau(f) for f in xf]
            assert x.mul(y) == reference_make(
                n, x.delta_power + y.delta_power, list(left) + list(yf)
            )
            assert x.inv() == reference_word_form(sb.invert(x.to_word()))
            if x.factors:
                p = x.delta_power
                first = garside._tau(xf[0]) if p % 2 else xf[0]
                cycled, _ = reference_cycle(x)
                assert cycled == reference_make(n, p, list(xf[1:]) + [first])

    def test_leftweight_commutes_with_tau(self):
        """The single push loop left-weights factors stored as tau-images,
        which is sound only if `_leftweight` commutes with tau: every pair
        for n <= 4, random pairs for n = 5..7."""
        def check(x, y):
            got = garside._leftweight(garside._tau(x), garside._tau(y))
            assert got == tuple(map(garside._tau, garside._leftweight(x, y)))

        for n in range(1, 5):
            perms = list(itertools.permutations(range(n)))
            for x, y in itertools.product(perms, repeat=2):
                check(x, y)
        rng = random.Random(18)
        for n in range(5, 8):
            for _ in range(2000):
                check(*(tuple(rng.sample(range(n), n)) for _ in range(2)))

    def test_canonical_form_matches_reference(self):
        rng = random.Random(15)
        for _ in range(100):
            w = random_word(rng, rng.randint(2, 7), 60)
            assert canonical_form(w) == reference_word_form(w)

    def test_absorbed_deltas_match_reference(self):
        """Pushes that make Delta at the far end, in the middle and at the
        front, several times in one call so that the twist parity passes 2,
        onto weighted prefixes and their tau-images, and all-negative words,
        whose every letter brings a Delta^-1."""
        rng = random.Random(17)
        seen = set()
        for n in range(2, 7):
            for _ in range(20):
                w = sb.BraidWord(
                    n, tuple(-rng.randint(1, n - 1) for _ in range(rng.randint(1, 40)))
                )
                assert canonical_form(w) == reference_word_form(w)
                _, head = fixpoint_normalize(n, delta_heavy_factors(rng, n, rng.randint(0, 30)))
                tail = delta_heavy_factors(rng, n, rng.randint(1, 60))
                for prefix in (list(head), [garside._tau(f) for f in head]):
                    sites = delta_sites(n, tail, prefix)
                    for j, last in sites:
                        seen.add("front" if j == 0 else "end" if j == last - 1 else "middle")
                    if len(sites) >= 3:
                        seen.add("repeated")
                    got = normalize_perms(n, prefix + tail)
                    assert got == fixpoint_normalize(n, prefix + tail)
        assert seen == {"front", "middle", "end", "repeated"}

    def test_calls_per_letter_flat(self, monkeypatch):
        """A push costs only the distance it travels, so left-weighting
        lookups per letter do not grow with the word length."""
        counted = count_leftweight(monkeypatch, 5)

        def calls_per_letter(length, seeds):
            calls = 0
            for seed in seeds:
                rng = random.Random(seed)
                w = sb.BraidWord(
                    5, tuple(rng.choice([1, -1]) * rng.randint(1, 4) for _ in range(length))
                )
                before = counted.count
                canonical_form(w)
                calls += counted.count - before
            return calls / (length * len(seeds))

        assert 0 < calls_per_letter(3200, [20]) <= 1.5 * calls_per_letter(200, range(20, 36))

    def test_no_quadratic_blow_up(self, monkeypatch):
        # A 1600-letter word on 5 strands: the fixpoint sweep makes about
        # 1.6M left-weighting calls, the incremental normaliser about 5.1k.
        rng = random.Random(16)
        w = sb.BraidWord(5, tuple(rng.choice([1, -1]) * rng.randint(1, 4) for _ in range(1600)))
        counted = count_leftweight(monkeypatch, 5)
        canonical_form(w)
        assert 0 < counted.count < 300_000


class TestRankEncoding:
    """Simple elements are stored as the lexicographic ranks of their
    permutations."""

    def test_round_trip(self):
        for n in range(7):
            for r, p in enumerate(itertools.permutations(range(n))):
                assert garside._rank(p) == r
                assert garside._unrank(n, r) == p

    def test_rank_order_is_tuple_order(self):
        for n in range(1, 7):
            ordered = [garside._unrank(n, r) for r in range(math.factorial(n))]
            assert ordered == sorted(ordered) == sorted(itertools.permutations(range(n)))
            assert ordered[0] == tuple(range(n))
            assert ordered[-1] == tuple(range(n - 1, -1, -1))
            assert garside._simples(n).delta == len(ordered) - 1

    def test_tables_match_permutation_functions(self):
        rng = random.Random(23)
        for n in range(1, 9):
            simples = garside._simples(n)
            for _ in range(300):
                x, y = (tuple(rng.sample(range(n), n)) for _ in range(2))
                rx, ry = garside._rank(x), garside._rank(y)
                assert simples.perm[rx] == x
                assert simples.rank[x] == rx
                assert garside._unrank(n, simples.tau[rx]) == garside._tau(x)
                assert garside._unrank(n, simples.complement[rx]) == garside._delta_complement(x)
                got = simples.leftweight[rx][ry]
                assert entry_perms(n, got) == leftweight_entry(x, y)

    def test_full_tables_match_permutation_functions(self):
        """Every entry of the complete tables of up to 5 strands equals the
        permutation functions: `_leftweight` on each pair, read as n! rows
        of n! entries with None where it leaves the pair as it is, and
        `_tau` and `_delta_complement` on each rank."""
        for n in range(1, garside._FULL_TABLE_STRANDS + 1):
            simples = garside._simples(n)
            count = simples.count
            every = list(itertools.permutations(range(n)))
            assert len(simples.leftweight) == count
            assert all(len(row) == count for row in simples.leftweight)
            assert [entry_perms(n, lw) for row in simples.leftweight for lw in row] == [
                leftweight_entry(x, y) for x, y in itertools.product(every, repeat=2)
            ]
            assert perms(n, simples.tau) == tuple(map(garside._tau, every))
            assert perms(n, simples.complement) == tuple(map(garside._delta_complement, every))

    def test_full_tables_run_no_fill(self, monkeypatch):
        """Once the tables of 5 strands are made, the normal form of a
        1600-letter word only reads them: no memo table misses and no pair
        is left-weighted on permutations. The form equals the product of the
        forms of the word's two halves, made first, which fill the letter
        table."""
        simples = garside._simples(5)
        w = seeded_word(5, 27, 1600)
        halves = [sb.BraidWord(5, half) for half in (w.letters[:800], w.letters[800:])]
        expected = canonical_form(halves[0]).mul(canonical_form(halves[1]))
        assert set(simples.letter) == {*range(-4, 0), *range(1, 5)}

        def boom(*args):
            raise AssertionError("a table of 5 strands filled")

        monkeypatch.setattr(garside._Memo, "__missing__", boom)
        monkeypatch.setattr(garside, "_leftweight", boom)
        assert canonical_form(w) == expected

    def test_entries_are_none_exactly_on_left_weighted_pairs(self):
        """A left-weighting entry is None exactly when `_leftweight` leaves
        the pair as it is, and otherwise the pair it makes, ranked back: on
        every pair up to 5 strands and on 300 seeded pairs on each of 6 to 8,
        both kinds of entry met on each strand count from 3 on."""
        rng = random.Random(54)
        for n in range(1, 9):
            simples = garside._simples(n)
            if n <= garside._FULL_TABLE_STRANDS:
                pairs = itertools.product(itertools.permutations(range(n)), repeat=2)
            else:
                pairs = [
                    tuple(tuple(rng.sample(range(n), n)) for _ in range(2)) for _ in range(300)
                ]
            kinds = set()
            for x, y in pairs:
                entry = simples.leftweight[garside._rank(x)][garside._rank(y)]
                made = garside._leftweight(x, y)
                if made == (x, y):
                    assert entry is None
                else:
                    assert entry == tuple(map(garside._rank, made))
                kinds.add(entry is None)
            assert n < 3 or kinds == {True, False}

    def test_leftweight_rows_share_one_bound(self, monkeypatch):
        """Above _FULL_TABLE_STRANDS strands the left-weighting rows share
        one entry bound, 2^18: a 1500-letter word on 12 strands fills more
        than 100 entries across its rows, and with the shared bound cut to
        100 it gets the same form and inverse while the rows together hold
        at most 100 entries, and more than none."""
        n = 12
        w = seeded_word(n, 26, 1500)

        def forms():
            cf = canonical_form(w)
            return cf.to_json(), cf.inv().to_json()

        def entries(rows):
            return sum(map(len, rows.values()))

        expected = forms()
        rows = garside._simples(n).leftweight
        assert rows.bound == 1 << 18
        assert entries(rows) > 100
        rows.clear()
        monkeypatch.setattr(rows, "bound", 100)
        assert forms() == expected
        assert 0 < entries(rows) <= 100

    def test_leftweight_misses_above_the_cut(self, monkeypatch):
        """Above _FULL_TABLE_STRANDS strands the left-weighting table is a
        memo of row memos: each new pair runs `_leftweight` on its
        permutations once, and a pair already read runs nothing."""
        calls = []
        leftweight = garside._leftweight
        monkeypatch.setattr(
            garside, "_leftweight", lambda x, y: calls.append((x, y)) or leftweight(x, y)
        )
        n = garside._FULL_TABLE_STRANDS + 1
        simples = garside._Simples(n)
        rng = random.Random(25)
        pairs = [tuple(tuple(rng.sample(range(n), n)) for _ in range(2)) for _ in range(50)]
        for x, y in pairs + pairs:
            got = simples.leftweight[garside._rank(x)][garside._rank(y)]
            made = leftweight(x, y)
            assert entry_perms(n, got) == (None if made == (x, y) else made)
        assert calls == list(dict.fromkeys(pairs))

    def test_forms_read_back_without_unranking(self, monkeypatch):
        """A rank made by the letter table or by ranking a permutation
        keeps its permutation, so `to_json` on 5000 strands unranks
        nothing."""
        calls = []
        unrank = garside._unrank
        monkeypatch.setattr(garside, "_unrank", lambda n, r: calls.append(n) or unrank(n, r))
        n = 5000
        sigma = [*range(1, n + 1)]
        sigma[0], sigma[1] = 2, 1
        assert canonical_form(sb.BraidWord(n, (1,))).to_json() == {
            "n": n, "delta_power": 0, "factors": [sigma]
        }
        forms = [canonical_form(sb.BraidWord(n, letters)) for letters in [(1, 3), (-2,), (-3, -3)]]
        read = [cf.to_json()["factors"] for cf in forms]
        assert calls == []
        assert read == [[[v + 1 for v in unrank(n, f)] for f in cf.factors] for cf in forms]

    def test_reversal_identities(self):
        """tau and the Delta-complement equal their definitions by
        composition, Delta^-1 p Delta and Delta p^-1 with Delta the
        reversal, on every permutation of up to 6 strands and on seeded
        ones of up to 200."""
        rng = random.Random(31)
        cases = [p for n in range(7) for p in itertools.permutations(range(n))]
        cases += [tuple(rng.sample(range(n), n)) for n in range(7, 201) for _ in range(3)]
        for p in cases:
            w0 = tuple(range(len(p) - 1, -1, -1))
            assert garside._tau(p) == then(then(w0, p), w0)
            assert garside._delta_complement(p) == then(w0, garside._pinv(p))

    def test_letter_table_matches_ranked_permutations(self):
        """The letter table's factorials are the ranks of sigma_i, of
        Delta sigma_i^-1 and of their tau-images, ranked from the built
        permutations: every letter up to 30 strands, a sample on 2000."""

        def ranked(n, k):
            s = list(range(n))
            i = abs(k)
            s[i - 1], s[i] = i, i - 1
            w0 = tuple(range(n - 1, -1, -1))
            f = tuple(s) if k > 0 else then(w0, tuple(s))
            return garside._rank(f), garside._rank(then(then(w0, f), w0))

        rng = random.Random(32)
        cases = [(n, k) for n in range(2, 31) for i in range(1, n) for k in (i, -i)]
        cases += [(2000, k) for k in (1, -1, 1999, -1999, *rng.sample(range(-1998, 1999), 40)) if k]
        for n, k in cases:
            assert garside._simples(n).letter[k] == ranked(n, k), (n, k)

    def test_letter_ranks_take_one_large_factorial(self, monkeypatch):
        """The letter table's ranks are (n - i)! and i! for sigma_i, and
        n! - 1 less them for its inverse, on every letter below 40 strands;
        sigma_1 on 5000 strands computes one factorial of 1000 or more, n!,
        and reads (n - 1)! off it."""
        for n in range(2, 40):
            simples = garside._Simples(n)
            for i in range(1, n):
                head, tail = math.factorial(n - i), math.factorial(i)
                assert simples.letter[i] == (head, tail), (n, i)
                assert simples.letter[-i] == (simples.delta - tail, simples.delta - head), (n, i)
        calls = []
        factorial = math.factorial
        monkeypatch.setattr(math, "factorial", lambda k: calls.append(k) or factorial(k))
        garside._simples.cache_clear()
        assert canonical_form(sb.BraidWord(5000, (1,))).factors == (factorial(4999),)
        assert [k for k in calls if k >= 1000] == [5000]

    def test_one_strand(self):
        """On one strand the identity and Delta are both rank 0."""
        e = CanonicalForm(1, 0, ())
        assert garside._simples(1).delta == 0
        assert garside._normalize(1, [0, 0]) == (0, ())
        assert e.mul(e) == e and e.inv() == e
        assert canonical_form(sb.BraidWord(1, ())) == e
        assert e.to_json() == {"n": 1, "delta_power": 0, "factors": []}
        res = sb.is_conjugate(sb.BraidWord(1, ()), sb.BraidWord(1, ()))
        assert res.conjugate and res.witness.letters == ()

    def test_ranks_beyond_64_bits(self):
        """On 21 strands ranks pass 2^63; the form read back as
        permutations is the fixpoint sweep's on the letters' permutations."""
        n = 21
        w = seeded_word(n, 25, 40)
        cf = canonical_form(w)
        assert max(cf.factors) >= 1 << 63
        # Delta^-1 powers collected at the front, as canonical_form does.
        w0 = tuple(range(n - 1, -1, -1))
        factors, delta_power = [], 0
        for k in reversed(w.letters):
            s = list(range(n))
            i = abs(k) - 1
            s[i], s[i + 1] = s[i + 1], s[i]
            f = tuple(s) if k > 0 else tuple(s[v] for v in w0)
            factors.append(garside._tau(f) if delta_power % 2 else f)
            if k < 0:
                delta_power -= 1
        shift, fs = fixpoint_normalize(n, factors[::-1])
        assert cf.to_json() == {
            "n": n,
            "delta_power": delta_power + shift,
            "factors": [[v + 1 for v in f] for f in fs],
        }
        assert canonical_form(cf.to_word()) == cf

    def test_tables_stay_bounded(self, monkeypatch):
        """A long word on 12 strands misses the rank memo tables on nearly
        every lookup; with each one's bound cut to 100 entries, each stays
        within it, and the form and its inverse are the same as with the
        full bounds. The left-weighting rows, whose bound is shared, are
        `test_leftweight_rows_share_one_bound`."""
        n = 12
        w = seeded_word(n, 26, 1500)

        def forms():
            cf = canonical_form(w)
            return cf.to_json(), cf.inv().to_json()

        expected = forms()
        simples = garside._simples(n)
        tables = (simples.perm, simples.rank, simples.tau, simples.complement)
        assert [t.bound for t in tables] == [1 << 16] * 4
        # Every table fills past 100 entries, so the bounded run empties each.
        assert min(map(len, tables)) > 100
        for table in tables:
            table.clear()
            monkeypatch.setattr(table, "bound", 100)
        assert forms() == expected
        for table in tables:
            assert 0 < len(table) <= 100

    def test_letter_table_fills_per_letter(self, monkeypatch):
        """A one-letter word on 300 strands ranks that letter alone, not all
        598; with the table's bound cut to 3 entries, a word of six letters
        keeps the table within it and gets the same form."""
        n = 300
        letters = garside._simples(n).letter
        assert letters.bound == 1 << 16
        letters.clear()
        cf = canonical_form(sb.BraidWord(n, (150,)))
        assert list(letters) == [150]
        assert cf.to_json()["factors"] == [[*range(1, 150), 151, 150, *range(152, n + 1)]]
        w = sb.BraidWord(n, (1, -2, 299, -299, 150, 3))
        expected = canonical_form(w)
        letters.clear()
        monkeypatch.setattr(letters, "bound", 3)
        assert canonical_form(w) == expected
        assert 0 < len(letters) <= 3

    def test_strand_sweep_holds_bounded_memory(self):
        """One normal form on each of 392 strand counts keeps the tables of
        at most 8 of them: under 1 MB stays held after the sweep, where
        keeping every strand count's tables held about 7 MB."""
        tracemalloc.start()
        try:
            gc.collect()
            start = tracemalloc.get_traced_memory()[0]
            for n in range(8, 400):
                canonical_form(sb.BraidWord(n, (1, 2)))
            gc.collect()
            held = tracemalloc.get_traced_memory()[0] - start
        finally:
            tracemalloc.stop()
        assert held < 1 << 20
        assert garside._simples.cache_info().currsize <= 8

    def test_forms_read_alike_when_tables_are_made_again(self, monkeypatch):
        """Forms of 5 and 8 strands give the same JSON, words, inverses and
        conjugacy results before and after a sweep over nine other strand
        counts empties `_simples`, so that the 8-strand tables are made
        again; the complete 5-strand tables are kept, and no left-weighting
        table is built again."""

        def readings():
            out = []
            for n in (5, 8):
                w, g = seeded_word(n, 50 + n, 24), seeded_word(n, 60 + n, 3)
                cf = canonical_form(w)
                conjugate = sb.free_reduce(sb.compose(sb.compose(g, w), sb.invert(g)))
                result = sb.is_conjugate(conjugate, w)
                assert result.conjugate
                out.append((cf.to_json(), cf.to_word(), cf.inv(), result.to_json()))
            return out

        before = readings()
        tables = garside._simples(5), garside._simples(8)
        built = []
        table = garside._leftweight_table
        monkeypatch.setattr(
            garside, "_leftweight_table", lambda n, *rest: built.append(n) or table(n, *rest)
        )
        for n in range(20, 29):
            canonical_form(sb.BraidWord(n, (1, 2)))
        assert garside._simples(5) is tables[0] and garside._simples(8) is not tables[1]
        assert readings() == before
        assert built == []

    def test_spelling_table_matches_perm_word(self):
        """`to_word` reads each factor's letters from the spelling table,
        which holds `_perm_word` of the rank's permutation: every rank up to
        5 strands, sampled ranks on 6 to 8."""
        rng = random.Random(33)
        for n in range(1, 9):
            count = math.factorial(n)
            sample = range(count) if n <= 5 else rng.sample(range(count), 200)
            spelling = garside._simples(n).spelling
            for r in sample:
                expected = tuple(garside._perm_word(garside._unrank(n, r)))
                assert spelling[r] == expected, (n, r)
                if 0 < r < count - 1:
                    assert CanonicalForm(n, 0, (r,)).to_word().letters == expected

    def test_spelling_table_stays_bounded(self, monkeypatch):
        """A store that finds the table's bound reached empties the table
        first, and the words read back are the same."""
        n = 5
        spelling = garside._simples(n).spelling
        assert spelling.bound == 1 << 14
        forms = [canonical_form(seeded_word(n, 40 + i, 30)) for i in range(6)]
        expected = [cf.to_word() for cf in forms]
        spelling.clear()
        monkeypatch.setattr(spelling, "bound", 4)
        for r in range(1, 5):
            spelling[r]
        spelling[5]
        assert list(spelling) == [5]
        assert [cf.to_word() for cf in forms] == expected
        assert len(spelling) <= 4

    def test_perm_word_sorts_by_the_leftmost_descent(self):
        """`_perm_word` spells the same word as swapping the leftmost
        descent and scanning again from the first position, on every
        permutation of up to 6 strands and on seeded random ones of up to
        300."""

        def rescanning(p):
            q = list(p)
            out = []
            again = True
            while again:
                again = False
                for i in range(len(q) - 1):
                    if q[i] > q[i + 1]:
                        out.append(i + 1)
                        q[i], q[i + 1] = q[i + 1], q[i]
                        again = True
                        break
            return out

        cases = [p for n in range(7) for p in itertools.permutations(range(n))]
        rng = random.Random(31)
        for _ in range(10):
            p = list(range(rng.randint(7, 300)))
            rng.shuffle(p)
            cases.append(tuple(p))
        for p in cases:
            assert garside._perm_word(p) == rescanning(p)

    def test_perm_word_is_the_bubble_sort(self):
        """`_perm_word`, an insertion sort, spells the word of the bubble
        sort at the leftmost descent on every permutation of up to 7
        strands and on 1000 seeded random ones of up to 300."""
        cases = [p for n in range(8) for p in itertools.permutations(range(n))]
        rng = random.Random(50)
        for _ in range(1000):
            p = list(range(rng.randint(8, 300)))
            rng.shuffle(p)
            cases.append(tuple(p))
        for p in cases:
            assert garside._perm_word(p) == bubble_perm_word(p), p

    def test_delta_is_the_half_twist_spelling(self):
        """`delta(n)`, the spelling of the reversal, is (s1)(s2 s1)... on up
        to 12 strands, and so is the spelling-table entry of rank n! - 1."""
        for n in range(2, 13):
            assert sb.delta(n).letters == tuple(delta_letters(n)), n
            simples = garside._simples(n)
            assert simples.spelling[simples.delta] == tuple(delta_letters(n)), n


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

    def test_strand_mismatch(self):
        with pytest.raises(sb.StrandMismatchError):
            sb.is_conjugate(sb.BraidWord(3, (1,)), sb.BraidWord(4, (1,)))

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


@st.composite
def words_up_to_8_strands(draw):
    """Words on 0 to 8 strands, the empty word included."""
    n = draw(st.integers(0, 8))
    letters = [k for i in range(1, n) for k in (i, -i)]
    drawn = draw(st.lists(st.sampled_from(letters), max_size=30)) if letters else []
    return sb.BraidWord(n, tuple(drawn))


class TestWordInvariants:
    @given(words_up_to_8_strands())
    def test_matches_exponent_sum_and_cycle_type(self, w):
        """The one-pass gate of `is_conjugate` reads the exponent sum and
        the cycle type that `exponent_sum` and `permutation` give."""
        assert garside._word_invariants(w) == (
            sb.exponent_sum(w), cycle_lengths(w)
        )

    def test_gate_runs_before_any_form(self, monkeypatch):
        """`is_conjugate` refuses pairs whose words differ in cycle type or
        exponent sum before it makes a canonical form, so no summit is
        walked for them; on 300 strands a summit walk costs far more than
        the gate's pass over the letters."""
        calls = {"canonical_form": 0, "_word_invariants": 0}
        for name in calls:
            def counted(*args, fn=getattr(garside, name), name=name):
                calls[name] += 1
                return fn(*args)

            monkeypatch.setattr(garside, name, counted)
        # Cycle types differ, then exponent sums.
        for x, y in (("s1 s2", "s1 s3"), ("s1 s2 s3", "s1")):
            got = sb.is_conjugate(sb.BraidWord.parse(300, x), sb.BraidWord.parse(300, y))
            assert got == sb.ConjugacyResult(False)
        assert calls["canonical_form"] == 0 and calls["_word_invariants"] > 0


def tau_form(x):
    """Delta^-1 x Delta: tau applied to every factor."""
    factors = map(garside._tau, perms(x.strands, x.factors))
    return CanonicalForm(x.strands, x.delta_power, ranks(factors))


def reference_cycle(v):
    """One cycling step, Delta^p A_1 ... A_k to Delta^p A_2 ... A_k tau^p(A_1),
    with `_normalize` on A_2 ... A_k tau^p(A_1); returns (new element,
    simple conjugator used), the identity for a bare Delta power."""
    if not v.factors:
        return v, 0
    a1 = v.factors[0]
    iota = garside._simples(v.strands).tau[a1] if v.delta_power % 2 else a1
    shift, fs = garside._normalize(v.strands, (*v.factors[1:], iota))
    return CanonicalForm(v.strands, v.delta_power + shift, fs), iota


def cycle_form(v):
    """reference_cycle with its simple conjugator as a canonical form."""
    w, s = reference_cycle(v)
    return w, product(v.strands, [s])


def product(n, factors):
    """The canonical form of a list of simple factors, as a walk records a
    conjugator."""
    return CanonicalForm(n, *garside._normalize(n, factors))


def reference_decycle(v):
    """One decycling step, A_k v A_k^-1, with the fixpoint sweep; returns
    (new element, conjugator used)."""
    n, p = v.strands, v.delta_power
    factors = perms(n, v.factors)
    last = garside._tau(factors[-1]) if p % 2 else factors[-1]
    new = reference_make(n, p, [last] + list(factors[:-1]))
    return new, product(n, [v.factors[-1]]).inv()


def two_round_summit(cf):
    """The summit search that cycled and decycled in turn, each until
    n(n-1)/2 steps in a row did not improve, and repeated both until a
    round improved nothing."""
    n = cf.strands
    bound = max(1, n * (n - 1) // 2)
    v, g = cf, CanonicalForm(n, 0, ())
    improved = True
    while improved:
        improved = False
        for step, better in (
            (cycle_form, lambda w, v: w.inf > v.inf),
            (reference_decycle, lambda w, v: w.sup < v.sup),
        ):
            stale = 0
            while stale < bound and v.factors:
                w, s = step(v)
                if better(w, v):
                    improved = True
                    stale = 0
                else:
                    stale += 1
                v, g = w, g.mul(s)
    return v, g


class TestSummit:
    def test_decycling_is_cycling_the_inverse(self):
        """Decycling x gives tau of the inverse of cycling x^-1, and the
        cycling conjugator s of x^-1 conjugates x to that inverse."""
        rng = random.Random(19)
        for _ in range(300):
            n = rng.randint(2, 7)
            x = canonical_form(random_word(rng, n, 40))
            if not x.factors:
                continue
            cycled, s = cycle_form(x.inv())
            decycled, _ = reference_decycle(x)
            assert tau_form(cycled.inv()) == decycled
            assert s.inv().mul(x).mul(s) == cycled.inv()

    def test_matches_two_round_summit(self):
        """One cycling pass per side reaches the infimum and supremum of
        the two-round search, with a conjugator that holds."""
        rng = random.Random(20)
        forms = []
        for n in range(2, 8):
            forms.append(CanonicalForm(n, 0, ()))
            forms += [CanonicalForm(n, k, ()) for k in (-3, 1, 2)]
            for _ in range(40):
                forms.append(canonical_form(random_word(rng, n, 48)))
        for cf in forms:
            v, factors = garside._summit(cf)
            g = product(cf.strands, factors)
            ref, _ = two_round_summit(cf)
            assert (v.inf, v.sup) == (ref.inf, ref.sup)
            assert g.inv().mul(cf).mul(g) == v


def rigid(v):
    """Delta^p A_1 ... A_k, k >= 1, is rigid when (A_k, tau^p(A_1)) is
    left-weighted (Birman, Gebhardt and Gonzalez-Meneses 2007), read here
    off the permutations: the starting set of tau^p(A_1) lies in the
    finishing set of A_k."""
    if not v.factors:
        return False
    first, last = perms(v.strands, (v.factors[0], v.factors[-1]))
    if v.delta_power % 2:
        first = garside._tau(first)
    return starting_set(first) <= finishing_set(last)


def reference_summit(cf):
    """garside._summit with each step taken by reference_cycle: it stops
    at the first rigid element, returned as met on the first side and
    inverted back on the second. Returns the summit element, its conjugator
    factors and the side of the stop, 0 or 1, or None with no stop."""
    n = cf.strands
    bound = max(1, n * (n - 1) // 2)
    v, g = cf, []
    for side in range(2):
        stale = 0
        while stale < bound and v.factors:
            if rigid(v):
                return (v.inv() if side else v), g, side
            w, s = reference_cycle(v)
            stale = 0 if w.inf > v.inf else stale + 1
            v = w
            g.append(s)
        v = v.inv()
    return v, g, None


def reference_orbit(v):
    """garside._cycling_orbit with each step taken by reference_cycle."""
    orbit, steps, seen = [v], [], {v: 0}
    while True:
        w, s = reference_cycle(orbit[-1])
        steps.append(s)
        if w in seen:
            return orbit, steps, seen[w]
        seen[w] = len(orbit)
        orbit.append(w)


def reference_anchor(record):
    """`garside._ConjugacyRecord.anchor` by walking the record's circuit:
    the first least of c_0, tau(c_0), c_1, tau(c_1), ..., with the
    conjugator to it, ending in Delta's rank for a tau-image."""
    circuit, steps, g = record.circuit
    simples = garside._simples(record.cf.strands)
    best, end = circuit[0].factors, []
    for j, c in enumerate(circuit):
        image = tuple(simples.tau[f] for f in c.factors)
        if c.factors < best:
            best, end = c.factors, steps[:j]
        if image < best:
            best, end = image, steps[:j] + [simples.delta]
    return CanonicalForm(record.cf.strands, circuit[0].delta_power, best), g + end


class TestRunningCycling:
    """`_summit` and `_cycling_orbit` walk one running factor list; they
    equal the walks that build a form and push with `_normalize` per step."""

    def check(self, cf):
        v, g, _ = reference_summit(cf)
        assert garside._summit(cf) == (v, g)
        assert garside._cycling_orbit(cf) == reference_orbit(cf)
        assert garside._cycling_orbit(v) == reference_orbit(v)

    def test_seeded_forms(self):
        rng = random.Random(27)
        inner_absorptions = 0
        for n in range(2, 9):
            for _ in range(40 if n < 7 else 12):
                cf = canonical_form(random_word(rng, n, 6 * n))
                self.check(cf)
                orbit, _, _ = reference_orbit(cf)
                inner_absorptions += sum(
                    w.inf > v.inf and len(w.factors) > 1 for v, w in zip(orbit, orbit[1:])
                )
        # Some step absorbs a Delta with factors in front of it, so the
        # tau-twist of the front is exercised.
        assert inner_absorptions > 0

    def test_push_that_travels_before_a_delta(self, monkeypatch):
        """A step whose push moves a pair left and then makes a Delta
        further left leaves factors on both sides of the Delta: those the
        push wrote behind it, which `_push` re-twists, and those in front,
        which it does not. The walk then twists its whole list back to true
        values."""
        push = garside._push
        travelled = 0

        def counted(out, factors, t, delta, leftweight, tau):
            nonlocal travelled
            k, table = len(out), CountedLookups(leftweight)
            made = push(out, factors, t, delta, table, tau)
            # The last lookup made the Delta and each before it moved a
            # pair left; fewer than k lookups leave a factor in front. A
            # normalization pushes onto an empty list, so only a walk's
            # steps count here.
            travelled += made == 1 and 2 <= table.count < k
            return made

        monkeypatch.setattr(garside, "_push", counted)
        rng = random.Random(29)
        for n in range(3, 8):
            for _ in range(20):
                self.check(canonical_form(random_word(rng, n, 6 * n)))
        assert travelled > 0

    @pytest.mark.parametrize("power", [-3, 1, 2])
    def test_delta_powers(self, power):
        for n in range(2, 9):
            cf = CanonicalForm(n, power, ())
            self.check(cf)
            assert garside._cycling_orbit(cf) == ([cf], [0], 0)

    def test_odd_delta_power_with_factors(self):
        rng = random.Random(28)
        for n in range(3, 7):
            for _ in range(10):
                cf = canonical_form(random_word(rng, n, 20))
                if cf.factors:
                    self.check(CanonicalForm(n, 2 * rng.randint(-2, 2) + 1, cf.factors))

    def test_absorption_empties_the_list(self):
        """s1 s1 s2 on 3 strands is s1 (s1 s2): the first step pushes s1
        behind s1 s2, making Delta, and leaves no factor."""
        cf = canonical_form(sb.BraidWord(3, (1, 1, 2)))
        assert len(cf.factors) == 2
        self.check(cf)
        orbit, steps, start = garside._cycling_orbit(cf)
        assert orbit == [cf, CanonicalForm(3, 1, ())]
        assert steps == [cf.factors[0], 0] and start == 1


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
        orbit, _, start = summit_orbit(a)
        orbit_d, _, start_d = summit_orbit(d)
        walk = garside._cycling_orbit
        walked: set = set()
        starts = []

        def recorded(v):
            starts.append(v in walked)
            orbit, steps, start = walk(v)
            walked.update(orbit)
            return orbit, steps, start

        monkeypatch.setattr(garside, "_cycling_orbit", recorded)
        assert garside._closure_search(orbit[start], orbit_d[start_d]) is None
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


def closure_only_is_conjugate(a, b):
    """is_conjugate as it was before the circuit meet: every pair whose
    summits agree in infimum and supremum runs the ultra summit closure."""
    n = a.strands
    if sb.exponent_sum(a) != sb.exponent_sum(b):
        return sb.ConjugacyResult(False)
    if cycle_lengths(a) != cycle_lengths(b):
        return sb.ConjugacyResult(False)
    ca, cb = canonical_form(a), canonical_form(b)
    if ca == cb:
        return sb.ConjugacyResult(True, sb.BraidWord.identity(n))
    va, ga = garside._summit(ca)
    vb, gb = garside._summit(cb)
    if (va.inf, va.sup) != (vb.inf, vb.sup):
        return sb.ConjugacyResult(False)
    orbit, steps, start = garside._cycling_orbit(va)
    orbit_b, steps_b, start_b = garside._cycling_orbit(vb)
    va, vb = orbit[start], orbit_b[start_b]
    path = [] if va == vb else garside._closure_search(va, vb)
    if path is None:
        return sb.ConjugacyResult(False)
    h = product(n, ga + steps[:start] + path)
    witness = h.mul(product(n, gb + steps_b[:start_b]).inv())
    return sb.ConjugacyResult(True, sb.free_reduce(witness.to_word()))


def near_miss(rng, w):
    """w with one letter moved to a neighbouring generator of the same
    sign: same exponent sum, usually not conjugate to w."""
    n = w.strands
    if n < 3 or not w.letters:
        return w
    letters = list(w.letters)
    i = rng.randrange(len(letters))
    k = abs(letters[i])
    k = k + 1 if k < n - 1 else k - 1
    letters[i] = k if letters[i] > 0 else -k
    return sb.BraidWord(n, tuple(letters))


def reference_pairs():
    """Seeded pairs: for n = 3..5 conjugates c b c^-1 of b and near misses
    of them; for n = 6 conjugates only, as non-conjugate 6-strand pairs
    that reach the closure can take seconds."""
    rng = random.Random(21)
    pairs = []
    for n in (3, 4, 5, 6):
        for _ in range(40 if n < 6 else 8):
            b = seeded_word(n, rng.randrange(10**6), 16 if n < 6 else 10)
            c = random_word(rng, n, 8)
            a = sb.free_reduce(sb.compose(sb.compose(c, b), sb.invert(c)))
            pairs.append((a, b))
            if n < 6:
                pairs.append((near_miss(rng, a), b))
    return pairs


def seeded_forms():
    rng = random.Random(22)
    for _ in range(60):
        n = rng.randint(3, 6)
        cf = canonical_form(random_word(rng, n, 30))
        if cf.factors:
            yield cf


class TestCircuitMeet:
    """The meet on a's cycling circuit answers most conjugate pairs before
    the ultra summit closure; the rest fall through to it."""

    def test_matches_closure_only_reference(self, monkeypatch):
        closure = garside._closure_search
        calls = []

        def counted(*args):
            calls.append(args)
            return closure(*args)

        monkeypatch.setattr(garside, "_closure_search", counted)
        pairs = reference_pairs()
        answers = {True: 0, False: 0}
        for a, b in pairs:
            calls.clear()
            ref = closure_only_is_conjugate(a, b)
            reached = bool(calls)
            calls.clear()
            got = sb.is_conjugate(a, b)
            assert got.conjugate == ref.conjugate, (a, b)
            if got.conjugate:
                check_witness(a, b, got)
                check_witness(a, b, ref)
            if reached:
                answers[got.conjugate] += 1
        # Both answers occur among the pairs that reach the closure in the
        # reference, so the fall-through is exercised on both sides.
        assert answers[True] > 0 and answers[False] > 0

    @pytest.fixture
    def no_closure(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the closure search ran")

        monkeypatch.setattr(garside, "_closure_search", refuse)

    def test_cycled_conjugate_meets(self, no_closure):
        for cf in seeded_forms():
            a, b = cf.to_word(), reference_cycle(cf)[0].to_word()
            check_witness(a, b, sb.is_conjugate(a, b))
            check_witness(b, a, sb.is_conjugate(b, a))

    def test_delta_conjugate_meets(self, no_closure):
        for cf in seeded_forms():
            a = cf.to_word()
            d = sb.delta(a.strands)
            b = sb.compose(sb.compose(sb.invert(d), a), d)
            check_witness(a, b, sb.is_conjugate(a, b))
            check_witness(b, a, sb.is_conjugate(b, a))

    def test_adjacent_generators_meet(self, no_closure):
        a, b = sb.BraidWord(3, (1,)), sb.BraidWord(3, (2,))
        res = sb.is_conjugate(a, b)
        check_witness(a, b, res)
        assert res.witness.letters == (1, 2, 1)

    def test_coxeter_elements_beyond_closure_limit(self, no_closure):
        """The pair meets on the circuit, so the closure's strand limit
        does not refuse it."""
        n = garside.MAX_CLOSURE_STRANDS + 1
        a = sb.BraidWord(n, tuple(range(1, n)))
        b = sb.BraidWord(n, tuple(range(n - 1, 0, -1)))
        check_witness(a, b, sb.is_conjugate(a, b))


def stepwise_summit(cf):
    """garside._summit as it was when the conjugator was multiplied out at
    every cycling step, with its stop at the first rigid element."""
    n = cf.strands
    bound = max(1, n * (n - 1) // 2)
    v, g = cf, CanonicalForm(n, 0, ())
    for side in range(2):
        stale = 0
        while stale < bound and v.factors:
            if rigid(v):
                return (v.inv() if side else v), g
            w, s = cycle_form(v)
            stale = 0 if w.inf > v.inf else stale + 1
            v, g = w, g.mul(s)
        v = v.inv()
    return v, g


def stepwise_orbit(v):
    """garside._cycling_orbit with each simple conjugator as a canonical form."""
    orbit, steps, start = garside._cycling_orbit(v)
    return orbit, [product(v.strands, [s]) for s in steps], start


def stepwise_closure(va, ga, target):
    """garside._closure_search as it was when every visited element kept
    the product of its conjugator."""
    n = va.strands
    if va == target:
        return ga
    inf_sup = (va.inf, va.sup)
    simples = [product(n, [p]) for p in range(1, garside._simples(n).count)]
    conjugators = [(s, s.inv()) for s in simples]
    visited = {va: ga}
    rejected, members = set(), set()
    frontier = [va]
    while frontier:
        frontier.sort(key=lambda v: (v.delta_power, len(v.factors), v.factors))
        nxt = []
        for v in frontier:
            h = visited[v]
            for s, s_inv in conjugators:
                w = s_inv.mul(v).mul(s)
                if (w.inf, w.sup) != inf_sup or w in visited or w in rejected:
                    continue
                if w not in members:
                    orbit, _, start = garside._cycling_orbit(w)
                    rejected.update(orbit[:start])
                    members.update(orbit[start:])
                    if start != 0:
                        continue
                visited[w] = h.mul(s)
                if w == target:
                    return visited[w]
                nxt.append(w)
        frontier = nxt
    return None


def stepwise_is_conjugate(a, b):
    """is_conjugate as it was when the summit, circuit and closure walks
    multiplied their conjugators out step by step."""
    n = a.strands
    if sb.exponent_sum(a) != sb.exponent_sum(b):
        return sb.ConjugacyResult(False)
    if cycle_lengths(a) != cycle_lengths(b):
        return sb.ConjugacyResult(False)
    ca, cb = canonical_form(a), canonical_form(b)
    if ca == cb:
        return sb.ConjugacyResult(True, sb.BraidWord.identity(n))
    va, ga = stepwise_summit(ca)
    vb, gb = stepwise_summit(cb)
    if (va.inf, va.sup) != (vb.inf, vb.sup):
        return sb.ConjugacyResult(False)
    orbit, steps, start = stepwise_orbit(va)
    for s in steps[:start]:
        ga = ga.mul(s)
    orbit_b, steps_b, start_b = stepwise_orbit(vb)
    for s in steps_b[:start_b]:
        gb = gb.mul(s)
    vb = orbit_b[start_b]
    found = None
    for j, v in enumerate(orbit[start:]):
        if v == vb or v == tau_form(vb):
            found = ga
            for s in steps[start : start + j]:
                found = found.mul(s)
            if v != vb:
                found = found.mul(CanonicalForm(n, 1, ()))
            break
    if found is None:
        found = stepwise_closure(orbit[start], ga, vb)
    if found is None:
        return sb.ConjugacyResult(False)
    return sb.ConjugacyResult(True, sb.free_reduce(found.mul(gb.inv()).to_word()))


# (strands, seed) of conjugate pairs c b c^-1, b that miss each other's
# cycling circuits and reach the closure in a few milliseconds each.
CLOSURE_PAIRS = [(6, 0), (6, 2), (7, 5), (7, 14), (8, 15), (8, 17)]


class TestFactorListConjugators:
    """The walks record conjugators as lists of simple factors and
    normalize them once per witness; the left normal form is unique, so
    every answer is byte-identical to multiplying out step by step."""

    def assert_same(self, a, b):
        got, ref = sb.is_conjugate(a, b), stepwise_is_conjugate(a, b)
        assert got.to_json() == ref.to_json(), (a, b)
        return got

    def test_reference_pairs(self):
        for a, b in reference_pairs():
            self.assert_same(a, b)

    def test_coxeter_pair(self):
        n = garside.MAX_CLOSURE_STRANDS + 1
        a = sb.BraidWord(n, tuple(range(1, n)))
        b = sb.BraidWord(n, tuple(range(n - 1, 0, -1)))
        check_witness(a, b, self.assert_same(a, b))

    def test_delta_conjugate_pairs(self, monkeypatch):
        """Delta^-1 a Delta meets a on its circuit by the tau-image."""
        meet = garside._circuit_meet
        tau_matches = []

        def recorded(circuit, steps, target):
            found = meet(circuit, steps, target)
            tau_matches.append(found is not None and target not in circuit)
            return found

        monkeypatch.setattr(garside, "_circuit_meet", recorded)
        for cf in seeded_forms():
            a = cf.to_word()
            d = sb.delta(a.strands)
            b = sb.compose(sb.compose(sb.invert(d), a), d)
            check_witness(a, b, self.assert_same(a, b))
            check_witness(b, a, self.assert_same(b, a))
        assert any(tau_matches)

    def test_closure_pairs(self, monkeypatch):
        closure = garside._closure_search
        reached = []

        def counted(*args):
            reached.append(args)
            return closure(*args)

        monkeypatch.setattr(garside, "_closure_search", counted)
        for n, seed in CLOSURE_PAIRS:
            b = seeded_word(n, seed, 8)
            c = seeded_word(n, 1000 + seed, 6)
            a = sb.free_reduce(sb.compose(sb.compose(c, b), sb.invert(c)))
            reached.clear()
            check_witness(a, b, self.assert_same(a, b))
            assert reached, (n, seed)

    def test_records_shared_across_pairs(self, monkeypatch):
        """The pair stage over per-braid records kept across pairs returns
        two conjugators exactly when `is_conjugate` answers yes, `_quotient`
        makes of them the witness `is_conjugate` gives, byte for byte, and
        each braid is walked to its summit at most once."""
        rng = random.Random(23)
        words = []
        for _ in range(6):
            b = seeded_word(4, rng.randrange(10**6), 12)
            words.append(b)
            for _ in range(2):
                c = random_word(rng, 4, 6)
                words.append(sb.free_reduce(sb.compose(sb.compose(c, b), sb.invert(c))))
            words.append(near_miss(rng, b))
        expected = {(i, j): sb.is_conjugate(a, b).to_json()
                    for i, a in enumerate(words) for j, b in enumerate(words)}
        walked = []
        summit = garside._summit

        def recorded(cf):
            walked.append(cf)
            return summit(cf)

        monkeypatch.setattr(garside, "_summit", recorded)
        records = [garside._ConjugacyRecord(canonical_form(w)) for w in words]
        for (i, j), doc in expected.items():
            pair = garside._conjugacy(records[i], records[j])
            assert (pair is not None) == doc["conjugate"]
            if pair is not None:
                witness = garside._quotient(4, *pair).to_word()
                assert witness.format() == doc["witness"]
        assert 0 < len(walked) <= len(words)
        assert any(doc["conjugate"] for doc in expected.values())
        assert not all(doc["conjugate"] for doc in expected.values())

    @pytest.fixture
    def mul_calls(self, monkeypatch):
        calls = []
        mul = CanonicalForm.mul

        def counted(self, other):
            calls.append(other)
            return mul(self, other)

        monkeypatch.setattr(CanonicalForm, "mul", counted)
        return calls

    def test_summit_rejection_multiplies_nothing(self, mul_calls, monkeypatch):
        """Same exponent sum and cycle type, summits [0, 1] and [-1, 3]."""
        def refuse(v):
            raise AssertionError("a cycling orbit was walked")

        monkeypatch.setattr(garside, "_cycling_orbit", refuse)
        a, b = sb.BraidWord.parse(3, "s1 s2"), sb.BraidWord.parse(3, "s1 s1 s1 S2")
        assert not sb.is_conjugate(a, b).conjugate
        assert mul_calls == []

    def test_circuit_meet_multiplies_once(self, mul_calls, monkeypatch):
        """The witness of a pair that meets on a's circuit is one
        `_normalize` call, with no form multiplied or inverted."""
        def refuse(*args):
            raise AssertionError("the closure search ran")

        monkeypatch.setattr(garside, "_closure_search", refuse)
        normalized, inverted, inside = [], [], []
        normalize, inv, witness = garside._normalize, CanonicalForm.inv, garside._quotient

        def counted_normalize(n, factors):
            if inside:
                normalized.append(factors)
            return normalize(n, factors)

        def counted_inv(self):
            inverted.append(self)
            return inv(self)

        def watched(*args):
            inside.append(args)
            try:
                return witness(*args)
            finally:
                inside.clear()

        monkeypatch.setattr(garside, "_normalize", counted_normalize)
        monkeypatch.setattr(CanonicalForm, "inv", counted_inv)
        monkeypatch.setattr(garside, "_quotient", watched)
        a, b = sb.BraidWord(3, (1,)), sb.BraidWord(3, (2,))
        assert sb.is_conjugate(a, b).witness.letters == (1, 2, 1)
        assert len(normalized) == 1
        assert mul_calls == [] and inverted == []


def reference_witness(a, b, pair):
    """The witness of the records a and b from the pair (h, g) that
    `garside._conjugacy(a, b)` returns, as it was made before the
    complement identity: h and g each normalized once, then h * g^-1
    multiplied out."""
    n = a.cf.strands
    if a.cf == b.cf:
        return sb.BraidWord.identity(n)
    h, g = (product(n, factors) for factors in pair)
    return sb.free_reduce(h.mul(g.inv()).to_word())


# The conjugate pairs that `test_cli.CONSOLE_PINS` pins by their `snbraid
# conj` witness, and the words of its n = 0 `sn` pin, which decides
# braid-type conjugacy.
CONSOLE_CONJ_PINS = [
    (3, "s1", "s2"),
    (5, "S4 S4 S2 s3 s1 s1", "s2 S4 s1 s2 S4 S4 S2 s3 s1 s1 S2 S1 s4 S2"),
    (4, "S3 s1 S3 s2 s1", "s1 S3 s1 S3 s2"),
    (6, "S1 S3 s4 s5 S4 s3 S4 S4 s3 s1 S5 S4 s3 s1", "S4 s3 S4 S4 S5 s5 s3 s1"),
    (8, "S6 S2 s3 S1 S3 s6 S7 S3 S2 S1 s2 S7 S3 S6 S6 s3 s1 S3 s2 s6",
     "S7 S3 S2 S1 s2 S7 S3 S6"),
    (4, "s1 s2 s3", "s3 s2 s1"),
]


class TestOneNormalizationWitness:
    """`_quotient` multiplies h * g^-1 out in one normalization, each
    t^-1 written Delta^-1 times its complement; the left normal form is
    unique, so the witness is byte-identical to normalizing h and g apart
    and multiplying h by the inverse of g."""

    def compare_witnesses(self, pairs):
        """Compare the two witnesses on every conjugate pair with unequal
        forms; per pair compared, return the length k of g, whether h
        ends in a tau-match's Delta, and whether a summit walk stopped
        rigid on its inverse side."""
        seen = []
        for a, b in pairs:
            if garside._word_invariants(a) != garside._word_invariants(b):
                continue
            ra, rb = (garside._ConjugacyRecord(canonical_form(w)) for w in (a, b))
            pair = garside._conjugacy(ra, rb)
            if pair is None or ra.cf == rb.cf:
                continue
            got = garside._quotient(a.strands, *pair).to_word()
            assert got.letters == reference_witness(ra, rb, pair).letters, (a, b)
            check_witness(a, b, sb.ConjugacyResult(True, got))
            h, g = pair
            seen.append((
                len(g),
                h[-1:] == [garside._simples(a.strands).delta],
                1 in (reference_summit(ra.cf)[2], reference_summit(rb.cf)[2]),
            ))
        return seen

    def test_reference_pairs(self):
        seen = self.compare_witnesses(reference_pairs())
        lengths = [k for k, _, _ in seen]
        # g of odd and of even length, and empty: Delta^-k with k odd
        # twists h's factors, and k = 0 leaves them alone.
        assert 0 in lengths
        assert any(k % 2 for k in lengths) and any(k and not k % 2 for k in lengths)
        assert any(inverse_stop for _, _, inverse_stop in seen)

    @staticmethod
    def delta_conjugate_pairs():
        pairs = []
        for cf in seeded_forms():
            a = cf.to_word()
            d = sb.delta(a.strands)
            b = sb.compose(sb.compose(sb.invert(d), a), d)
            pairs += [(a, b), (b, a)]
        return pairs

    @staticmethod
    def closure_pairs():
        pairs = []
        for n, seed in CLOSURE_PAIRS:
            b = seeded_word(n, seed, 8)
            c = seeded_word(n, 1000 + seed, 6)
            pairs.append((sb.free_reduce(sb.compose(sb.compose(c, b), sb.invert(c))), b))
        return pairs

    def test_delta_conjugate_pairs(self):
        """Delta^-1 a Delta meets a by the tau-image, h ending in Delta."""
        pairs = self.delta_conjugate_pairs()
        assert any(tau_match for _, tau_match, _ in self.compare_witnesses(pairs))

    def test_closure_pairs(self):
        pairs = self.closure_pairs()
        assert len(self.compare_witnesses(pairs)) == len(CLOSURE_PAIRS)

    def test_witness_ignores_what_b_has_walked(self, monkeypatch):
        """On the reference, tau-match and closure pairs,
        `_quotient(n, *_conjugacy(a, b))` is the same whether or not b's
        `circuit` and `anchor` were read first, as a partition reads them
        for its anchor keys, and equals `reference_witness`. Both cases
        occur: some pairs meet on a's circuit without walking b's."""
        walked = []
        orbit = garside._cycling_orbit
        monkeypatch.setattr(garside, "_cycling_orbit", lambda v: walked.append(v) or orbit(v))
        pairs = reference_pairs() + self.delta_conjugate_pairs() + self.closure_pairs()
        compared = unwalked = 0
        for a, b in pairs:
            if garside._word_invariants(a) != garside._word_invariants(b):
                continue
            ra, rb, read = (garside._ConjugacyRecord(canonical_form(w)) for w in (a, b, b))
            walked.clear()
            pair = garside._conjugacy(ra, rb)
            if pair is None:
                continue
            unwalked += all(v is not rb.summit[0] for v in walked)
            assert read.circuit and read.anchor
            got = garside._quotient(a.strands, *pair)
            assert garside._quotient(a.strands, *garside._conjugacy(ra, read)) == got, (a, b)
            assert got.to_word().letters == reference_witness(ra, rb, pair).letters, (a, b)
            compared += 1
        assert 0 < unwalked < compared

    def test_console_pins(self):
        """Every pinned pair, and both ways round; the n = 4 pin stops its
        summit walk rigid on the inverse side."""
        pairs = []
        for n, a, b in CONSOLE_CONJ_PINS:
            a, b = sb.BraidWord.parse(n, a), sb.BraidWord.parse(n, b)
            pairs += [(a, b), (b, a)]
        seen = self.compare_witnesses(pairs)
        assert len(seen) == len(pairs)
        assert any(inverse_stop for _, _, inverse_stop in seen)


def rigid_test_forms():
    """Seeded canonical forms on 3 to 8 strands and every element of their
    cycling orbits; each strand count has rigid and non-rigid ones."""
    rng = random.Random(30)
    forms = []
    for n in range(3, 9):
        for _ in range(12):
            forms += reference_orbit(canonical_form(random_word(rng, n, 4 * n)))[0]
    return forms


class TestRigidStop:
    """The summit walk stops at the first rigid element, and a pair that
    meets on a's circuit never walks b's circuit. These pin the facts the
    stop rests on (Birman, Gebhardt and Gonzalez-Meneses 2007)."""

    @pytest.fixture(scope="class")
    def forms(self):
        forms = rigid_test_forms()
        for n in range(3, 9):
            assert {rigid(x) for x in forms if x.strands == n} == {True, False}
        return forms

    def test_inverse_of_rigid_is_rigid(self, forms):
        """So a rigid element's supremum is minimal as well as its infimum
        maximal, and a stop on the inverse side may invert back."""
        for x in forms:
            assert rigid(x) == rigid(x.inv()), x

    def test_cycling_a_rigid_form_rotates(self, forms):
        """Cycling Delta^p A_1 ... A_k gives Delta^p A_2 ... A_k tau^p(A_1),
        again rigid: the infimum never rises, so it is maximal, and the
        element lies on its own circuit."""
        for x in filter(rigid, forms):
            moved = x.factors[0]
            if x.delta_power % 2:
                moved = garside._simples(x.strands).tau[moved]
            w, s = reference_cycle(x)
            assert w == CanonicalForm(x.strands, x.delta_power, (*x.factors[1:], moved))
            assert s == moved and rigid(w)

    def test_summit_returns_rigid_form(self, forms):
        for x in filter(rigid, forms):
            assert garside._summit(x) == (x, [])

    def test_meet_on_a_circuit_walks_one_circuit(self, monkeypatch):
        """A pair whose b-summit, or its tau-image, lies on a's circuit walks
        at most a's circuit, and none when a's summit is rigid and is that
        element, the first of its own circuit; its witness is the one that
        walking both circuits makes. A pair that misses walks b's circuit
        too."""
        walk = garside._cycling_orbit
        walks = []

        def counted(v):
            walks.append(v)
            return walk(v)

        met = first = missed = 0
        for a, b in reference_pairs():
            ca, cb = canonical_form(a), canonical_form(b)
            va, vb = garside._summit(ca)[0], garside._summit(cb)[0]
            if ca == cb or (va.inf, va.sup) != (vb.inf, vb.sup):
                continue
            if cycle_lengths(a) != cycle_lengths(b):
                continue
            orbit, _, start = walk(va)
            meets = vb in orbit[start:] or tau_form(vb) in orbit[start:]
            monkeypatch.setattr(garside, "_cycling_orbit", counted)
            walks.clear()
            got = sb.is_conjugate(a, b)
            monkeypatch.setattr(garside, "_cycling_orbit", walk)
            if meets:
                met += 1
                at_first = rigid(va) and va in (vb, tau_form(vb))
                first += at_first
                assert len(walks) == (0 if at_first else 1)
                assert got.to_json() == stepwise_is_conjugate(a, b).to_json()
            else:
                missed += 1
                assert len(walks) >= 2
        assert met > first > 0 and missed > 0

    def test_summit_before_its_circuit_meets_by_circuit_start(self, monkeypatch):
        """A summit element in the super summit set but before its own
        circuit misses a's circuit, and so does its tau-image; the pair
        then meets by the start of b's circuit, with no closure, and the
        witness joins b's steps to that start. The summit walk rarely
        stops before a circuit, so b's record is given such an element,
        with the identity conjugator."""
        def refuse(*args):
            raise AssertionError("the closure search ran")

        monkeypatch.setattr(garside, "_closure_search", refuse)
        cf = canonical_form(sb.BraidWord.parse(4, "S1 S2 s3 s1"))
        orbit, _, start = garside._cycling_orbit(cf)
        assert start > 0 and {(x.inf, x.sup) for x in orbit} == {(cf.inf, cf.sup)}
        ra, rb = garside._ConjugacyRecord(orbit[start]), garside._ConjugacyRecord(cf)
        rb.summit = (cf, [])
        pair = garside._conjugacy(ra, rb)
        assert rb.circuit[2]
        c = garside._quotient(4, *pair).to_word()
        assert sb.equal(ra.cf.to_word(), sb.compose(sb.compose(c, cf.to_word()), sb.invert(c)))


def pair_stage_pairs():
    """Pairs (a, b, conjugate by construction) for the pair stage:
    `reference_pairs()`, whose even entries are conjugate by construction;
    the seeded closure pairs, all conjugate; and a seeded batch on 3 to 5
    strands of conjugates c b c^-1 of b and of independent random pairs,
    which are rarely conjugate."""
    for i, (a, b) in enumerate(reference_pairs()):
        yield a, b, i % 2 == 0 or a.strands == 6
    for n, seed in CLOSURE_PAIRS:
        b, c = seeded_word(n, seed, 8), seeded_word(n, 1000 + seed, 6)
        yield sb.free_reduce(sb.compose(sb.compose(c, b), sb.invert(c))), b, True
    rng = random.Random(55)
    for _ in range(200):
        n = rng.randint(3, 5)
        b, c = random_word(rng, n, 16), random_word(rng, n, 8)
        yield sb.free_reduce(sb.compose(sb.compose(c, b), sb.invert(c))), b, True
        yield random_word(rng, n, 16), b, False


class TestPairStageShortcuts:
    """Two steps of `_conjugacy` that settle a pair before any circuit
    walk: the refutation from the bounds of one summit, and the meet at a
    rigid summit element, the first element of its own circuit."""

    def test_one_summit_refutation_and_rigid_meet(self):
        """A pair whose narrow record, the one with fewer factors (b on a
        tie), keeps no `summit` was refuted from the wide record's summit
        alone: every such pair is not conjugate by
        `closure_only_is_conjugate`, and no pair conjugate by construction
        is refuted at all. A conjugate pair of distinct forms that walked
        no circuit met at a's rigid summit element, with the witness that
        `stepwise_is_conjugate` makes. Both happen, so the test fails if
        either step is bypassed."""
        refuted = at_first = 0
        for a, b, conjugate in pair_stage_pairs():
            ra = garside._ConjugacyRecord(canonical_form(a))
            rb = garside._ConjugacyRecord(canonical_form(b))
            pair = garside._conjugacy(ra, rb)
            assert pair is not None or not conjugate, (a, b)
            if ra.cf == rb.cf:
                continue
            narrow = ra if len(ra.cf.factors) < len(rb.cf.factors) else rb
            if "summit" not in vars(narrow):
                refuted += 1
                assert pair is None and "summit" in vars(rb if narrow is ra else ra)
                assert not closure_only_is_conjugate(a, b).conjugate, (a, b)
            elif pair is not None and "circuit" not in vars(ra) and "circuit" not in vars(rb):
                at_first += 1
                assert rigid(ra.summit[0]), (a, b)
                assert sb.is_conjugate(a, b).to_json() == stepwise_is_conjugate(a, b).to_json()
        assert refuted > 0 and at_first > 0


class TestAnchor:
    """A record's anchor is the tuple-least form among its cycling
    circuit's elements and their tau-images, with a conjugator g built from
    the summit conjugator, the steps onto the circuit and the circuit steps
    up to it, then Delta, the factor of rank n! - 1, for a tau-image."""

    @staticmethod
    def check(record):
        """The anchor against `reference_orbit`'s circuit of the summit
        element, and g^-1 * cf * g against it, g spelled factor by factor
        from permutations. Returns whether the anchor is a tau-image and
        whether g has steps onto the circuit."""
        anchor, g = record.anchor
        v, summit_steps = record.summit
        n = v.strands
        twisted = g[-1:] == [garside._simples(n).delta]
        factors = g[:-1] if twisted else g
        orbit, _, start = reference_orbit(v)
        circuit = orbit[start:]
        assert anchor == min(circuit + [tau_form(c) for c in circuit])
        assert tuple(factors[: len(summit_steps)]) == tuple(summit_steps)
        letters = [k for f in factors for k in garside._perm_word(perms(n, (f,))[0])]
        if twisted:
            letters += sb.delta(n).letters
        g = sb.BraidWord(n, tuple(letters))
        moved = sb.compose(sb.compose(sb.invert(g), record.cf.to_word()), g)
        assert canonical_form(moved) == anchor
        return twisted, start > 0

    def test_seeded_records(self):
        """Records of seeded words on 3 to 6 strands, and one whose summit
        element lies before its circuit: the summit walk rarely stops
        there, so that record is given such an element, with the identity
        conjugator, as `TestRigidStop` does."""
        rng = random.Random(31)
        seen = set()
        for _ in range(80):
            n = rng.randint(3, 6)
            cf = canonical_form(random_word(rng, n, 4 * n))
            seen.add(self.check(garside._ConjugacyRecord(cf)))
        cf = canonical_form(sb.BraidWord.parse(4, "S1 S2 s3 s1"))
        record = garside._ConjugacyRecord(cf)
        record.summit = (cf, [])
        seen.add(self.check(record))
        assert {twisted for twisted, _ in seen} == {False, True}
        assert any(pre for _, pre in seen)

    def test_rigid_summits_match_walked_anchor(self):
        """A rigid or bare Delta-power summit element's anchor is read off
        its factors with no circuit walk, and equals `reference_anchor`'s,
        conjugator included, on seeded records of 2 to 6 strands (6 reads
        the memo tables); so does every walked one. Words are repeated up
        to three times, so some factor lists rotate back before k steps,
        and a quarter are tau-fixed, each letter with its mirror n - i, so
        their circuit elements tie with their tau-images."""
        rng = random.Random(44)
        delta = {n: garside._simples(n).delta for n in range(2, 7)}
        seen = set()
        for _ in range(2000):
            n = rng.randint(2, 6)
            letters = random_word(rng, n, 3 * n).letters * rng.randint(1, 3)
            if rng.random() < 0.25:
                letters = tuple(x for k in letters for x in sorted({k, (n - abs(k)) * (k // abs(k))}))
            cf = canonical_form(sb.BraidWord(n, letters))
            record, walked = garside._ConjugacyRecord(cf), garside._ConjugacyRecord(cf)
            anchor, want = record.anchor, reference_anchor(walked)
            assert anchor == want, cf
            v = record.summit[0]
            p, k = v.delta_power % 2, len(v.factors)
            if "circuit" in vars(record):
                assert not rigid(v)
                seen.add("walked")
                continue
            assert k == 0 or rigid(v)
            circuit = walked.circuit[0]
            seen.add((p, min(k, 2)))
            if len(circuit) < k:
                seen.add((p, "rotates back"))
            if want[1][-1:] == [delta[n]]:
                seen.add((p, "tau-image", k == 1))
            elif any(c.factors == anchor[0].factors == tau_form(c).factors for c in circuit[1:]):
                seen.add("ties its tau-image")
            if k and reference_summit(cf)[2] == 1:
                seen.add("inverse side")
        assert seen >= {
            *((p, k) for p in (0, 1) for k in (0, 1, 2)),
            *((p, "rotates back") for p in (0, 1)),
            *((p, "tau-image", k1) for p in (0, 1) for k1 in (False, True)),
            "ties its tau-image",
            "inverse side",
            "walked",
        }


class TestConjugateByRank:
    """The closure conjugates by the rank of each simple element, with two
    pushes onto the element's own factors, and builds no simple element as
    a form."""

    def test_matches_form_products(self):
        """For every rank, Delta included, on ultra summit elements with
        even and odd Delta powers: a candidate is made, in rank order,
        exactly when the product s^-1 v s keeps v's infimum and supremum,
        and equals it.
        The forms include bare Delta powers, on which the right push of s
        onto an empty list leaves Delta stored for the left push of its
        complement to absorb."""
        for n in range(2, 6):
            forms = [CanonicalForm(n, k, ()) for k in (-1, 2)]
            for seed in range(6):
                orbit, _, start = summit_orbit(seeded_word(n, 100 + seed, 12))
                forms += orbit[start:]
            if n > 2:
                assert {v.delta_power % 2 for v in forms if v.factors} == {0, 1}
            kept = 0
            for v in forms:
                want = {}
                for p in range(1, garside._simples(n).count):
                    s = product(n, [p])
                    w = s.inv().mul(v).mul(s)
                    if (w.inf, w.sup) == (v.inf, v.sup):
                        want[p] = w
                assert list(garside._conjugates(v)) == list(want.items()), v
                kept += len(want)
            # On 2 strands the one rank is Delta, which keeps both bounds.
            assert 0 < kept < len(forms) * (garside._simples(n).count - 1) or n == 2

    def test_closure_multiplies_no_forms(self, monkeypatch):
        """No `CanonicalForm.mul` or `inv` call runs inside the closure on
        pairs that reach it."""
        calls, reached, inside = [], [], []
        for name in ("mul", "inv"):
            method = getattr(CanonicalForm, name)

            def counted(*args, name=name, method=method):
                if inside:
                    calls.append(name)
                return method(*args)

            monkeypatch.setattr(CanonicalForm, name, counted)
        closure = garside._closure_search

        def watched(*args):
            reached.append(args)
            inside.append(args)
            try:
                return closure(*args)
            finally:
                inside.clear()

        monkeypatch.setattr(garside, "_closure_search", watched)
        for n, seed in CLOSURE_PAIRS:
            b = seeded_word(n, seed, 8)
            c = seeded_word(n, 1000 + seed, 6)
            a = sb.free_reduce(sb.compose(sb.compose(c, b), sb.invert(c)))
            reached.clear()
            check_witness(a, b, sb.is_conjugate(a, b))
            assert reached, (n, seed)
        assert calls == []


class TestFractionSpelling:
    """`to_word` spells a form Delta^p A_1 ... A_r with p < 0 as the
    fraction Delta^(p+j) P^-1 A_(j+1) ... A_r, j = min(-p, r), free-reduced.
    It is the braid of the Delta spelling, -p copies of Delta^-1's letters
    followed by the factors', and no longer than that once free-reduced."""

    @staticmethod
    def delta_spelling(cf):
        n, p, factors = cf
        delta = delta_letters(n)
        letters = delta * p if p >= 0 else [-k for k in reversed(delta)] * -p
        for f in factors:
            letters += bubble_perm_word(garside._unrank(n, f))
        return sb.BraidWord(n, tuple(letters))

    def test_same_braid_as_the_delta_spelling(self):
        rng = random.Random(34)
        forms = [CanonicalForm(n, p, ()) for n in (2, 3, 5) for p in (-3, -1, 0, 2)]
        for n in range(2, 8):
            forms += [canonical_form(random_word(rng, n, 5 * n)) for _ in range(60)]
        kinds = set()
        for cf in forms:
            word = cf.to_word()
            old = self.delta_spelling(cf)
            assert sb.equal(word, old)
            assert canonical_form(word) == cf
            assert sb.free_reduce(word) == word
            assert len(word.letters) <= len(sb.free_reduce(old).letters)
            if cf.delta_power < 0:
                kinds.add((-cf.delta_power > len(cf.factors), -cf.delta_power < len(cf.factors)))
        # -p above, below and equal to the number of factors
        assert kinds == {(True, False), (False, True), (False, False)}

    def test_witnesses_shrink(self):
        """The console-pinned conjugacy witnesses are the Delta spellings'
        braids, in fewer letters where the witness's Delta power is
        negative."""
        shorter = 0
        for n, a, b in CONSOLE_CONJ_PINS:
            a, b = sb.BraidWord.parse(n, a), sb.BraidWord.parse(n, b)
            ra, rb = (garside._ConjugacyRecord(canonical_form(w)) for w in (a, b))
            cf = garside._quotient(n, *garside._conjugacy(ra, rb))
            witness = sb.is_conjugate(a, b).witness
            old = sb.free_reduce(self.delta_spelling(cf))
            assert witness == cf.to_word() and sb.equal(witness, old)
            shorter += len(witness.letters) < len(old.letters)
        assert shorter == 3
