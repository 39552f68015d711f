import collections
import functools
import hashlib
import itertools
import json
import random
import warnings

import pytest

import snbraid as sb
from conftest import (
    conjugated_kernel_part,
    kernel_oracle,
    permutation_cycles,
    random_kernel_word,
    random_rewrite,
    random_word,
)
from test_cli import CONSOLE_PINS

A1 = sb.BraidWord(3, (2, 1, 1, -2))
A2 = sb.BraidWord(3, (2, 2))
# A kernel conjugate of A2 over the trivial base whose decision needs the
# kernel search: the ambient conjugator moves a puncture strand to the
# orbit strand's position, which no power of Delta^2 or beta_y moves back,
# so the centralizer shift misses. The search finds a witness at length 5.
DEEP = sb.BraidWord.parse(3, "s1 s1 S2 S2 S2 S1 S1 s2 s2 s1 s1 s2 s2 s2 S1 S1")


def ambient_s1():
    """An instance over the base s1 whose mixed braids are conjugate in B_3
    and pass every screen; the centralizer shift decides it."""
    return sb.SNInstance(
        2, 1, sb.BraidWord.parse(2, "s1"),
        sb.BraidWord.parse(3, "S1 S1 s2 s1 s1 S2 s1 s2 s2 s2 s2 s2 S1 S1 S2 s1"),
        sb.BraidWord.parse(3, "s2 s2 s2 s2"),
    )


def pinned_instance(pin_id: str) -> sb.SNInstance:
    """The instance of the `sn` console pin `pin_id` of
    `test_cli.CONSOLE_PINS`, read from its argv."""
    argv = next(argv for i, argv, _, _ in CONSOLE_PINS if i == pin_id)
    opts = dict(zip(argv[1::2], argv[2::2]))
    n, m = int(opts["-n"]), int(opts["-m"])
    return sb.SNInstance(
        n, m, sb.BraidWord.parse(n, opts["--betaA"]),
        sb.BraidWord.parse(n + m, opts["--ox"]), sb.BraidWord.parse(n + m, opts["--oy"]),
    )


def verify(inst: sb.SNInstance, verdict: sb.SNVerdict):
    assert verdict.status == sb.EQUIVALENT
    c = verdict.witness
    assert sb.is_kernel(inst.n, inst.m, c)
    bx, by = inst.mixed_x().word, inst.mixed_y().word
    assert sb.equal(bx, sb.compose(sb.compose(c, by), sb.invert(c)))


class TestBraidTypeEqual:
    def test_reflexive(self):
        w = sb.BraidWord(3, (1, 2))
        res = sb.braid_type_equal(w, w)
        assert res.conjugate and res.witness.letters == ()

    def test_exponent_gap(self):
        res = sb.braid_type_equal(sb.BraidWord(2, (1, 1)), sb.BraidWord(2, (1,) * 4))
        assert not res.conjugate

    def test_roundtrip(self):
        rng = random.Random(41)
        for _ in range(30):
            b = random_word(rng, 4, 12)
            c = random_word(rng, 4, 8)
            a = sb.free_reduce(sb.compose(sb.compose(c, b), sb.invert(c)))
            res = sb.braid_type_equal(a, b)
            assert res.conjugate
            w = res.witness
            assert sb.equal(a, sb.compose(sb.compose(w, b), sb.invert(w)))


class TestRelA:
    def test_identical_orbits(self):
        inst = sb.SNInstance(2, 1, sb.BraidWord(2, (1,)), A2, A2)
        v = sb.sn_equivalent_rel_A(inst)
        assert v.status == sb.EQUIVALENT and v.witness.letters == ()

    def test_exponent_certificate(self):
        inst = sb.SNInstance(
            1, 1, sb.BraidWord(1, ()), sb.BraidWord(2, (1, 1)), sb.BraidWord(2, (1,) * 4)
        )
        v = sb.sn_equivalent_rel_A(inst)
        assert v.status == sb.NOT_EQUIVALENT
        assert v.certificate.invariant == "exponent_sum"
        assert (v.certificate.lhs, v.certificate.rhs) == (2, 4)
        assert json.dumps(v.to_json()) == (
            '{"status": "NotEquivalent", "certificate": '
            '{"invariant": "exponent_sum", "lhs": 2, "rhs": 4}}'
        )

    def test_screen_stops_at_first_mismatch(self, monkeypatch):
        """The screen computes no invariant after the first that differs.
        It reads them as module globals, so a replacement is seen."""
        def refuse(braid):
            raise AssertionError("screened past the first mismatch")

        monkeypatch.setattr(sb.decision, "linking_matrix", refuse)
        inst = sb.SNInstance(
            1, 1, sb.BraidWord(1, ()), sb.BraidWord(2, (1, 1)), sb.BraidWord(2, (1,) * 4)
        )
        assert sb.sn_equivalent_rel_A(inst).certificate.invariant == "exponent_sum"

    def test_constructed_equivalence(self):
        beta_A = sb.BraidWord(2, (1,))
        ox = conjugated_kernel_part(2, 1, beta_A, A2, A1)
        inst = sb.SNInstance(2, 1, beta_A, ox, A2)
        verify(inst, sb.sn_equivalent_rel_A(inst))

    def test_non_kernel_conjugation_detected(self):
        # sigma_1 conjugates beta_y inside B_{2,1} but outside the kernel;
        # the loop moves to the other puncture and linking catches it
        ox = sb.free_reduce(sb.BraidWord(3, (1,)) * A1 * sb.BraidWord(3, (-1,)))
        inst = sb.SNInstance(2, 1, sb.BraidWord(2, ()), ox, A1)
        v = sb.sn_equivalent_rel_A(inst)
        assert v.status == sb.NOT_EQUIVALENT
        assert v.certificate.invariant == "linking_matrix"

    def test_honest_inconclusive_under_tight_budget(self):
        inst = sb.SNInstance(2, 1, sb.BraidWord(2, ()), DEEP, A2)
        v = sb.sn_equivalent_rel_A(inst, sb.Budget(max_length=1, max_states=500))
        assert v.status == sb.INCONCLUSIVE
        assert v.budget_report is not None
        doc = v.to_json()
        assert set(doc["budget"]) == {"max_len", "states"}

    def test_budget_monotone(self):
        inst = TestKernelSearchPinned().instance(TestKernelSearchPinned.EQUIVALENT_OX)
        small = sb.sn_equivalent_rel_A(inst, sb.Budget(max_length=1, max_states=50))
        big = sb.sn_equivalent_rel_A(inst, sb.Budget(max_length=6, max_states=50000))
        assert small.status == sb.INCONCLUSIVE
        verify(inst, big)

    def test_symmetry_of_settled_statuses(self):
        rng = random.Random(42)
        for _ in range(20):
            gx = random_kernel_word(rng, 2, 1, 2)
            gy = random_kernel_word(rng, 2, 1, 2)
            beta_A = random_word(rng, 2, 4)
            vxy = sb.sn_equivalent_rel_A(sb.SNInstance(2, 1, beta_A, gx, gy))
            vyx = sb.sn_equivalent_rel_A(sb.SNInstance(2, 1, beta_A, gy, gx))
            if sb.INCONCLUSIVE not in (vxy.status, vyx.status):
                assert vxy.status == vyx.status


class TestEqualForms:
    """Equal mixed braids are settled first, from the canonical forms the
    orbit records hold: Equivalent with the identity, re-verified by one
    `accept`, before any invariant, summit or search."""

    @pytest.mark.parametrize("decide", [sb.sn_equivalent_rel_A, sb.sn_equivalent_twisted])
    def test_settled_before_any_screen(self, decide, monkeypatch):
        def refuse(*args):
            raise AssertionError("computed past equal forms")

        products = []
        product = sb.decision._product

        def counted(*forms):
            products.append(forms)
            return product(*forms)

        parse = sb.BraidWord.parse
        inst = sb.SNInstance(2, 1, parse(2, "s1"), parse(3, "s2 s2 s1 S1"), parse(3, "s2 s2"))
        monkeypatch.setattr(sb.decision, "linking_matrix", refuse)
        monkeypatch.setattr(sb.garside, "_summit", refuse)
        monkeypatch.setattr(sb.decision, "_search_kernel_conjugator", refuse)
        # `accept` is one product of the witness, beta_y and the inverse.
        monkeypatch.setattr(sb.decision, "_product", counted)
        assert decide(inst).to_json() == {"status": "Equivalent", "witness": ""}
        assert len(products) == 1

    @pytest.mark.parametrize("decide", [sb.sn_equivalent_rel_A, sb.sn_equivalent_twisted])
    def test_identity_witness_normalizes_nothing(self, decide, monkeypatch):
        """The identity witness is the empty word, whose canonical form is
        made with no normalization."""
        calls = []
        normalize = sb.garside._normalize
        parse = sb.BraidWord.parse
        inst = sb.SNInstance(2, 1, parse(2, "s1"), parse(3, "s2 s2 s1 S1"), parse(3, "s2 s2"))
        monkeypatch.setattr(
            sb.garside, "_normalize", lambda *args: calls.append(args) or normalize(*args)
        )
        assert decide(inst).witness.letters == ()
        assert calls == []


class TestKernelSearchPinned:
    """Verdicts of the bounded kernel search on two ambient-conjugate
    instances, and how often it calls `accept`: once for the state whose
    conjugate matches beta_x, and never for the identity. `_decide`
    settles equal forms before the screens, so the search cannot match
    with the identity and does not try it; it still counts it as a
    state. On both instances the ambient conjugator moves a puncture
    strand to the orbit strand's position, which no power of Delta^2 or
    beta_y moves back, so the centralizer shift misses and the search
    runs."""

    BUDGET = sb.Budget(5, 20000)
    BASE = "s1 s1"
    OY = "s2 s2 s2 s1 s1 S2"
    EQUIVALENT_OX = "S2 s1 s1 S2 s1 s1 s2 s2 s2 s2 S1 S1"
    INCONCLUSIVE_OX = "S1 S1 S2 s1 s1 s2 s2 s2 s1 s1"

    def instance(self, ox):
        return sb.SNInstance(
            2, 1, sb.BraidWord.parse(2, self.BASE), sb.BraidWord.parse(3, ox),
            sb.BraidWord.parse(3, self.OY),
        )

    @pytest.fixture
    def accept_calls(self, monkeypatch):
        calls = []
        search = sb.decision._search_kernel_conjugator

        def counted_search(inst, budget, accept):
            def counted(c, c_cf):
                calls[-1] += 1
                return accept(c, c_cf)

            calls.append(0)
            return search(inst, budget, counted)

        monkeypatch.setattr(sb.decision, "_search_kernel_conjugator", counted_search)
        return calls

    @pytest.mark.parametrize("decide", [sb.sn_equivalent_rel_A, sb.sn_equivalent_twisted])
    def test_equivalent_witness(self, decide, accept_calls):
        inst = self.instance(self.EQUIVALENT_OX)
        v = decide(inst, self.BUDGET)
        assert v.to_json() == {"status": "Equivalent", "witness": "S2 S1 S1 S2 S2 s1 s1 S2"}
        verify(inst, v)
        assert accept_calls == [1]

    @pytest.mark.parametrize("decide", [sb.sn_equivalent_rel_A, sb.sn_equivalent_twisted])
    def test_search_multiplies_no_forms(self, decide, monkeypatch):
        """Each search state, and each `accept`, is one n-ary product: no
        `CanonicalForm.mul` call runs inside the kernel search."""
        calls, searches, inside = [], [], []
        mul = sb.CanonicalForm.mul

        def counted(*args):
            if inside:
                calls.append(args)
            return mul(*args)

        monkeypatch.setattr(sb.CanonicalForm, "mul", counted)
        search = sb.decision._search_kernel_conjugator

        def watched(*args):
            searches.append(args)
            inside.append(args)
            try:
                return search(*args)
            finally:
                inside.clear()

        monkeypatch.setattr(sb.decision, "_search_kernel_conjugator", watched)
        for ox in (self.EQUIVALENT_OX, self.INCONCLUSIVE_OX):
            decide(self.instance(ox), self.BUDGET)
        assert len(searches) == 2 and calls == []

    @pytest.mark.parametrize("decide", [sb.sn_equivalent_rel_A, sb.sn_equivalent_twisted])
    def test_inconclusive_budget(self, decide, accept_calls):
        inst = self.instance(self.INCONCLUSIVE_OX)
        v = decide(inst, self.BUDGET)
        assert v.to_json() == {"status": "Inconclusive", "budget": {"max_len": 5, "states": 66}}
        assert accept_calls == [0]

    @pytest.mark.parametrize("decide", [sb.sn_equivalent_rel_A, sb.sn_equivalent_twisted])
    def test_state_cap_counts_both_frontiers(self, decide, accept_calls):
        # The identity, four states of length 1 on each side and twelve
        # forward states of length 2 make 21 by total length 3, so a cap of
        # 25 is passed while the backward side grows to length 2.
        inst = self.instance(self.INCONCLUSIVE_OX)
        v = decide(inst, sb.Budget(5, 25))
        assert v.to_json() == {"status": "Inconclusive", "budget": {"max_len": 4, "states": 26}}
        assert accept_calls == [0]


def one_sided_search(inst, budget, accept):
    """Reference: the breadth-first kernel search from beta_y alone, which
    enumerates every c up to max_length by prepending generators."""
    beta_y = inst.mixed_y().word
    gens = sb.kernel_generators(inst.n, inst.m)
    spelling = {}
    alphabet = []
    for sign in (1, -1):
        for i, g in enumerate(gens):
            word = g if sign == 1 else sb.invert(g)
            cf = sb.canonical_form(word)
            spelling[sign * (i + 1)] = word
            alphabet.append((sign * (i + 1), cf, cf.inv()))

    identity = sb.BraidWord.identity(inst.n + inst.m)
    states = 1
    max_len_tried = 0

    if accept(identity, sb.canonical_form(identity)):
        return sb.SNVerdict(sb.EQUIVALENT, witness=identity)
    target = sb.canonical_form(inst.mixed_x().word)
    start = sb.canonical_form(beta_y)
    visited = {start}
    frontier = [((), start)]
    for depth in range(1, budget.max_length + 1):
        max_len_tried = depth
        nxt = []
        for tag, conj_cf in frontier:
            for letter, g_cf, g_inv_cf in alphabet:
                if tag and tag[0] == -letter:
                    continue
                states += 1
                if states > budget.max_states:
                    return inconclusive(max_len_tried, states)
                new_conj = g_cf.mul(conj_cf).mul(g_inv_cf)
                if new_conj in visited:
                    continue
                visited.add(new_conj)
                new_tag = (letter,) + tag
                if new_conj == target:
                    c = identity
                    for t in new_tag:
                        c = sb.compose(c, spelling[t])
                    c = sb.free_reduce(c)
                    if accept(c, sb.canonical_form(c)):
                        return sb.SNVerdict(sb.EQUIVALENT, witness=c)
                nxt.append((new_tag, new_conj))
        frontier = nxt
    return inconclusive(max_len_tried, states)


def inconclusive(max_length_tried, states):
    return sb.SNVerdict(
        sb.INCONCLUSIVE, budget_report=sb.decision.BudgetReport(max_length_tried, states)
    )


class TestMeetInTheMiddle:
    """The meet-in-the-middle kernel search against the one-sided reference
    on seeded random instances that reach it: same statuses, witnesses of
    the same generator length, and every witness re-verifies."""

    def decide_with(self, monkeypatch, search, decide, inst, budget):
        """Decide with `search` as the kernel search. The centralizer shift
        is switched off, so every instance that passes the ambient test
        reaches the search, n <= 2 too. Each search is recorded by its
        budget report: an Inconclusive verdict's own, and for an Equivalent
        one, which carries none, the least length bound at which the search
        still finds a witness, the length it found it at, with no count of
        states."""
        reports = []

        def recorded(inst, budget, accept):
            verdict = search(inst, budget, accept)
            report = verdict.budget_report
            if report is None:
                found_at = next(
                    length
                    for length in range(budget.max_length + 1)
                    if search(inst, sb.Budget(length, budget.max_states), accept).status
                    == sb.EQUIVALENT
                )
                report = sb.decision.BudgetReport(found_at, None)
            reports.append(report)
            return verdict

        monkeypatch.setattr(sb.decision, "_search_kernel_conjugator", recorded)
        monkeypatch.setattr(sb.decision, "_centralizer_shift", lambda *args: None)
        return decide(inst, budget), reports

    def instances(self, rng, count):
        """Kernel-conjugate pairs, and pairs conjugated by the lift of beta_A
        times a kernel word, which may or may not be kernel-conjugate."""
        out = []
        while len(out) < count:
            n, m = rng.randint(1, 3), rng.randint(1, 2)
            beta_A = random_word(rng, n, 3)
            gamma = random_kernel_word(rng, n, m, rng.randint(0, 3))
            c = random_kernel_word(rng, n, m, rng.randint(1, 6))
            if rng.random() < 0.3:
                c = sb.compose(sb.section(n, m, beta_A).word, c)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                ox = conjugated_kernel_part(n, m, beta_A, gamma, c)
                out.append(sb.SNInstance(n, m, beta_A, ox, gamma))
        return out

    def test_agrees_with_one_sided_search(self, monkeypatch):
        rng = random.Random(45)
        search = sb.decision._search_kernel_conjugator
        searched = 0
        for inst in self.instances(rng, 120):
            budget = sb.Budget(rng.randint(1, 5), 10**6)
            for decide in (sb.sn_equivalent_rel_A, sb.sn_equivalent_twisted):
                v, reports = self.decide_with(monkeypatch, search, decide, inst, budget)
                ref, ref_reports = self.decide_with(monkeypatch, one_sided_search, decide, inst, budget)
                assert v.status == ref.status
                assert len(reports) == len(ref_reports)
                if not reports:
                    continue
                searched += 1
                if v.status == sb.EQUIVALENT:
                    verify(inst, v)
                    verify(inst, ref)
                    assert reports[0].max_length_tried == ref_reports[0].max_length_tried
                else:
                    assert v.status == sb.INCONCLUSIVE
                    assert ref_reports[0].states_enumerated <= budget.max_states
                    assert reports[0].max_length_tried == budget.max_length
        assert searched >= 120

    def test_alphabets_of_at_most_eight_shapes_kept(self):
        """The search's alphabet is kept for at most eight shapes (n, m),
        and one made again after twelve other shapes is the same."""
        first = sb.decision._kernel_alphabet(1, 1)
        for n, m in itertools.product(range(2, 6), range(1, 4)):
            sb.decision._kernel_alphabet(n, m)
        assert sb.decision._kernel_alphabet.cache_info().currsize <= 8
        assert sb.decision._kernel_alphabet(1, 1) == first


class TestFreeKernelStates:
    """For m = 1 the kernel search's states are reduced words of the free
    kernel F_n (the orbit records' `free` words, acted on by the base
    record's `free` letters, `decision._Base.free`). Every verdict, and
    every state count, is the one the same search gives on Garside
    states."""

    BUDGETS = [sb.Budget(), sb.Budget(8, 7), sb.Budget(8, 40), sb.Budget(8, 300)]

    def instances(self, seed, count):
        """m = 1, n in 1..4, a non-trivial base beta_A once n >= 2; beta_x
        is conjugated by a kernel word, or by the lift of beta_A times one,
        so some pairs are kernel-conjugate and some perhaps not."""
        rng = random.Random(seed)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for _ in range(count):
                n = rng.randint(1, 4)
                beta_A = sb.BraidWord(n, ())
                while n >= 2 and not beta_A.letters:
                    beta_A = sb.free_reduce(random_word(rng, n, 4))
                gamma = random_kernel_word(rng, n, 1, rng.randint(0, 3))
                c = random_kernel_word(rng, n, 1, rng.randint(1, 4))
                if rng.random() < 0.3:
                    c = sb.compose(sb.section(n, 1, beta_A).word, c)
                ox = conjugated_kernel_part(n, 1, beta_A, gamma, c)
                yield functools.partial(sb.SNInstance, n, 1, beta_A, ox, gamma)

    def test_same_outputs_as_garside_states(self, monkeypatch):
        free, garside = [], []
        searched = set()
        for i, make in enumerate(self.instances(31, 48)):
            for budget in self.BUDGETS:
                for decide in (sb.sn_equivalent_rel_A, sb.sn_equivalent_twisted):
                    inst = make()
                    free.append(decide(inst, budget).to_json())
                    if "free" in vars(inst._A):
                        assert inst._A.free is not None
                        searched.add(i)
        monkeypatch.setattr(sb.decision._Base, "free", None)
        for make in self.instances(31, 48):
            for budget in self.BUDGETS:
                for decide in (sb.sn_equivalent_rel_A, sb.sn_equivalent_twisted):
                    garside.append(decide(make(), budget).to_json())
        assert free == garside
        assert len(searched) >= 25
        statuses = [doc["status"] for doc in free]
        assert statuses.count(sb.EQUIVALENT) >= 100 and statuses.count(sb.INCONCLUSIVE) >= 50

    def test_guard_falls_back_to_garside_states(self, monkeypatch):
        """The orbit beta^24 A_1 beta^-24, beta = s1 S2 on 3 punctures, has
        about 2.6^24 letters in F_3: its conversion stops at the bound, and
        the search runs on Garside states, with the output they give."""
        ox = sb.BraidWord(4, (1, -2) * 24 + (3, 2, 1, 1, -2, -3) + (2, -1) * 24)
        oy = sb.BraidWord(4, (3, 2, 1, 1, -2, -3))

        def make():
            return sb.SNInstance(3, 1, sb.BraidWord(3, ()), ox, oy)

        pinned = {"status": "Inconclusive", "budget": {"max_len": 8, "states": 1563}}
        for decide in (sb.sn_equivalent_rel_A, sb.sn_equivalent_twisted):
            inst = make()
            assert decide(inst).to_json() == pinned
            assert inst._x.free is None and inst._y.free == (1,)
            assert "free" not in vars(inst._A)
        monkeypatch.setattr(sb.decision._Base, "free", None)
        for decide in (sb.sn_equivalent_rel_A, sb.sn_equivalent_twisted):
            assert decide(make()).to_json() == pinned

    def test_base_past_the_bound_falls_back_to_garside_states(self, monkeypatch):
        """Under beta_A = (s1 S2)^5 on 3 strands the images phi(x_i) have
        177, 67 and 111 letters against a bound of 88, so the base record's
        `free` is None although both orbits have short free words, and the
        search runs on Garside states, with the output they give."""
        from snbraid import decision

        beta_A = sb.BraidWord(3, (1, -2) * 5)
        a1, a2, a3 = sb.kernel_generators(3, 1)
        c = sb.compose(sb.compose(a1, sb.invert(a2)), a3)
        ox = conjugated_kernel_part(3, 1, beta_A, a1, c)

        def make():
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                return sb.SNInstance(3, 1, beta_A, ox, a1)

        assert decision._base(3, 1, beta_A).free is None
        pinned = [
            (sb.Budget(2, 100),
             {"status": "Inconclusive", "budget": {"max_len": 2, "states": 13}}),
            (sb.Budget(3, 30), {"status": "Equivalent", "witness": "s3 s2 s1 s1 S2 S2 S2 s3"}),
        ]
        for budget, doc in pinned:
            for decide in (sb.sn_equivalent_rel_A, sb.sn_equivalent_twisted):
                inst = make()
                assert decide(inst, budget).to_json() == doc
                assert inst._x.free is not None and inst._y.free == (1,)
                assert inst._A.free is None
        monkeypatch.setattr(decision._Base, "free", None)
        for budget, doc in pinned:
            for decide in (sb.sn_equivalent_rel_A, sb.sn_equivalent_twisted):
                assert decide(make(), budget).to_json() == doc


class TestBurauSubsumedByAmbientConjugacy:
    """The Burau characteristic polynomial is a conjugacy invariant of the
    ambient braid group, so the ambient conjugacy test rejects every pair it
    separates; that is why the decision pipeline does not screen it."""

    def test_differing_charpoly_is_never_conjugate(self):
        rng = random.Random(43)
        separated = 0
        while separated < 60:
            n = rng.randint(2, 4)
            a, b = random_word(rng, n, 8), random_word(rng, n, 8)
            if sb.exponent_sum(a) != sb.exponent_sum(b):
                continue
            if sb.burau_charpoly(a) == sb.burau_charpoly(b):
                continue
            separated += 1
            assert not sb.is_conjugate(a, b).conjugate

    def test_formerly_burau_certified_instance(self):
        # Exponent sums, cycle types and linking numbers agree; only the
        # Burau polynomial (and hence ambient conjugacy) tells them apart.
        inst = sb.SNInstance(
            2, 1, sb.BraidWord(2, (-1,)), sb.BraidWord(3, (2, -1, -1, 2)), sb.BraidWord(3, ())
        )
        bx, by = inst.mixed_x(), inst.mixed_y()
        assert sb.cycle_type(bx) == sb.cycle_type(by)
        assert sb.linking_matrix(bx) == sb.linking_matrix(by)
        assert sb.burau_charpoly(bx.word) != sb.burau_charpoly(by.word)
        v = sb.sn_equivalent_rel_A(inst)
        assert v.status == sb.NOT_EQUIVALENT
        assert v.certificate.invariant == "not conjugate in B_3"


class TestCycleTypeImpliedByLinkingMatrix:
    """Over one base braid, equal linking matrices imply equal per-block
    cycle types (the proof is in `decision._screen_invariants`); that is
    why the decision pipeline does not screen the cycle type."""

    def test_differing_cycle_type_differs_in_linking_matrix(self):
        # Formal orbits: kernel words with the orbit-block crossings, so the
        # orbit block may split into any cycles. n = 0 has c <= 1 cycles
        # exactly when the orbit block is one m-cycle.
        rng = random.Random(22)
        separated = 0
        for _ in range(2000):
            n = rng.randint(0, 3)
            m = rng.randint(1 if n else 2, 4)
            lift = sb.section(n, m, random_word(rng, n, 6)).word
            bx, by = (
                sb.MixedBraid(n, m, sb.compose(lift, random_kernel_word(rng, n, m, rng.randint(0, 6))))
                for _ in range(2)
            )
            if sb.cycle_type(bx) != sb.cycle_type(by):
                separated += 1
                assert sb.linking_matrix(bx) != sb.linking_matrix(by)
        assert separated > 500

    def test_formal_instance_certified_by_linking_matrix(self):
        """The orbit block is one 3-cycle in beta_ox and three fixed strands
        in beta_oy: the exponent sums agree and the linking matrix, whose
        lengths give 2 and 4 cycles, is the certificate."""
        parse = sb.BraidWord.parse
        with pytest.warns(UserWarning, match="beta_oy does not induce a single 3-cycle"):
            inst = sb.SNInstance(1, 3, parse(1, ""), parse(4, "s2 s3"), parse(4, "s1 s1"))
        assert sb.cycle_type(inst.mixed_x()) != sb.cycle_type(inst.mixed_y())
        for decide in (sb.sn_equivalent_rel_A, sb.sn_equivalent_twisted):
            assert decide(inst).to_json() == {
                "status": "NotEquivalent",
                "certificate": {
                    "invariant": "linking_matrix",
                    "lhs": ((("A", 1), ("o", 3), 0),),
                    "rhs": (
                        (("A", 1), ("o", 1), 0),
                        (("A", 1), ("o", 1), 0),
                        (("A", 1), ("o", 1), 1),
                        (("o", 1), ("o", 1), 0),
                        (("o", 1), ("o", 1), 0),
                        (("o", 1), ("o", 1), 0),
                    ),
                },
            }


class TestTwisted:
    def test_agrees_on_fixed_examples(self):
        beta_A = sb.BraidWord(2, (1,))
        ox = conjugated_kernel_part(2, 1, beta_A, A2, A1)
        for inst in (
            sb.SNInstance(2, 1, beta_A, A2, A2),
            sb.SNInstance(2, 1, beta_A, ox, A2),
            sb.SNInstance(
                1, 1, sb.BraidWord(1, ()), sb.BraidWord(2, (1, 1)), sb.BraidWord(2, (1,) * 4)
            ),
        ):
            assert (
                sb.sn_equivalent_twisted(inst).status
                == sb.sn_equivalent_rel_A(inst).status
            )

    def test_trivial_base_is_plain_kernel_conjugacy(self):
        c = A1
        ox = sb.free_reduce(sb.compose(sb.compose(c, A2), sb.invert(c)))
        inst = sb.SNInstance(2, 1, sb.BraidWord(2, ()), ox, A2)
        v = sb.sn_equivalent_twisted(inst)
        assert v.status == sb.EQUIVALENT
        verify(inst, v)

    def test_forms_built_only_for_the_search(self, monkeypatch):
        """A twisted decision builds no canonical form of the lift
        section(beta_A) or of the orbit words: it re-checks a witness on the
        forms the orbit records hold. An instance the screens or the ambient
        test settle computes no canonical form at all, and one that reaches
        the kernel search normalizes only the witness it accepts."""
        from snbraid import decision

        computed = []

        def recorded(word):
            computed.append(word)
            return sb.canonical_form(word)

        screened = sb.SNInstance(2, 1, sb.BraidWord(2, ()), A2, sb.free_reduce(A2 * A2))
        ambient = sb.SNInstance(
            2, 1, sb.BraidWord(2, (-1,)), sb.BraidWord(3, (2, -1, -1, 2)), sb.BraidWord(3, ())
        )
        searched = TestKernelSearchPinned().instance(TestKernelSearchPinned.EQUIVALENT_OX)
        monkeypatch.setattr(decision, "canonical_form", recorded)
        assert sb.sn_equivalent_twisted(screened).certificate.invariant == "exponent_sum"
        assert sb.sn_equivalent_twisted(ambient).certificate.invariant == "not conjugate in B_3"
        assert computed == []
        v = sb.sn_equivalent_twisted(searched, TestKernelSearchPinned.BUDGET)
        assert v.status == sb.EQUIVALENT
        assert computed == [v.witness]

    def test_witnesses_solve_the_twisted_equation(self):
        """Every Equivalent witness c of the twisted formulation, checked on
        words without the orbit records: beta_ox = phi(c) * beta_oy * c^-1
        with phi = phi_{beta_A} from `mixed.act`."""
        rng = random.Random(46)
        checked = twisted = 0
        for inst in TestMeetInTheMiddle().instances(rng, 150):
            v = sb.sn_equivalent_twisted(inst, sb.Budget(5, 20000))
            if v.status != sb.EQUIVALENT:
                continue
            c = v.witness
            assert sb.is_kernel(inst.n, inst.m, c)
            rhs = sb.compose(sb.compose(sb.act(inst.beta_A, c, inst.m), inst.beta_oy), sb.invert(c))
            assert sb.equal(inst.beta_ox, rhs)
            checked += 1
            twisted += bool(c.letters and inst.beta_A.letters)
        assert checked >= 100 and twisted >= 40


class TestFixedPointCase:
    """m = 1: one orbit point, so the kernel is free of rank n. The
    decision is the same as for every other period."""

    @staticmethod
    def decide(beta_A, u, v):
        return sb.sn_equivalent_rel_A(sb.SNInstance(2, 1, beta_A, u, v))

    def test_equal_words(self):
        v = self.decide(sb.BraidWord(2, (1,)), A1, A1)
        assert v.status == sb.EQUIVALENT

    def test_loops_around_distinct_punctures(self):
        v = self.decide(sb.BraidWord(2, ()), A1, A2)
        assert v.status == sb.NOT_EQUIVALENT
        assert json.loads(json.dumps(v.certificate.to_json())) == {
            "invariant": "linking_matrix",
            "lhs": [[["A", 1], ["A", 2], 0], [["A", 1], ["o", 1], 1], [["A", 2], ["o", 1], 0]],
            "rhs": [[["A", 1], ["A", 2], 0], [["A", 1], ["o", 1], 0], [["A", 2], ["o", 1], 1]],
        }

    def test_conjugate_loops(self):
        rng = random.Random(43)
        for _ in range(20):
            gamma = random_kernel_word(rng, 2, 1, 3)
            c = random_kernel_word(rng, 2, 1, 2)
            u = sb.free_reduce(sb.compose(sb.compose(c, gamma), sb.invert(c)))
            v = self.decide(sb.BraidWord(2, ()), u, gamma)
            assert v.status == sb.EQUIVALENT


class TestEmptyInvariantSet:
    def test_degenerates_to_braid_type(self):
        rng = random.Random(44)
        for _ in range(40):
            m = rng.randint(2, 4)
            a = random_word(rng, m, 8)
            if rng.random() < 0.5:
                c = random_word(rng, m, 5)
                b = sb.free_reduce(sb.compose(sb.compose(c, a), sb.invert(c)))
            else:
                b = random_word(rng, m, 8)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                inst = sb.SNInstance(0, m, sb.BraidWord(0, ()), a, b)
                v = sb.sn_equivalent_rel_A(inst)
            expect = sb.braid_type_equal(a, b).conjugate
            assert (v.status == sb.EQUIVALENT) == expect
            assert v.status != sb.INCONCLUSIVE

    @staticmethod
    def pairs():
        """The seeded pairs of `test_degenerates_to_braid_type`."""
        rng = random.Random(44)
        for _ in range(40):
            m = rng.randint(2, 4)
            a = random_word(rng, m, 8)
            if rng.random() < 0.5:
                c = random_word(rng, m, 5)
                b = sb.free_reduce(sb.compose(sb.compose(c, a), sb.invert(c)))
            else:
                b = random_word(rng, m, 8)
            yield a, b

    def test_witness_is_braid_type_witness(self):
        """With no kernel strands the witness `_decide` multiplies out of
        the ambient pair is the one `is_conjugate` gives, in both
        formulations."""
        equivalent = 0
        for a, b in self.pairs():
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                inst = sb.SNInstance(0, a.strands, sb.BraidWord(0, ()), a, b)
            for decide in (sb.sn_equivalent_rel_A, sb.sn_equivalent_twisted):
                v = decide(inst)
                if v.status == sb.EQUIVALENT:
                    equivalent += 1
                    assert v.witness == sb.braid_type_equal(a, b).witness
        assert equivalent > 0

    def test_ambient_witness_passes_through_accept(self, monkeypatch):
        """The ambient witness is re-verified like every other: one that
        does not conjugate beta_y to beta_x is refused, and the kernel
        search, over the whole group here, finds one that does."""
        from snbraid import decision

        monkeypatch.setattr(
            decision, "_quotient", lambda n, h, g: sb.canonical_form(sb.BraidWord.identity(3))
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            s1, s2 = sb.BraidWord(3, (1,)), sb.BraidWord(3, (2,))
            inst = sb.SNInstance(0, 3, sb.BraidWord(0, ()), s1, s2)
        for decide in (sb.sn_equivalent_rel_A, sb.sn_equivalent_twisted):
            v = decide(inst)
            verify(inst, v)
            assert v.witness.letters


def seeded_instances(seed, count):
    """Instances with n in {1, 2, 3} and m in {1, 2}; every other one is
    equivalent by construction."""
    rng = random.Random(seed)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for trial in range(count):
            n, m = rng.randint(1, 3), rng.randint(1, 2)
            beta_A = random_word(rng, n, 8)
            oy = random_kernel_word(rng, n, m, rng.randint(0, 3))
            if trial % 2 == 0:
                c = random_kernel_word(rng, n, m, rng.randint(1, 4))
                ox = conjugated_kernel_part(n, m, beta_A, oy, c)
            else:
                ox = random_kernel_word(rng, n, m, rng.randint(0, 3))
            yield sb.SNInstance(n, m, beta_A, ox, oy)


class TestAmbientPath:
    """The ambient test of a decision keeps the pair of conjugators
    `garside._conjugacy` found, and multiplies a witness out of it only for
    n <= 2, where the centralizer shift reads it."""

    def test_kernel_strands_multiply_out_no_witness(self, monkeypatch):
        """On n >= 3 the decision goes from the ambient test straight to
        the search: the FREE_N3 instance of the console pins (Equivalent
        at this budget), their guard instance (Inconclusive) and the n = 3
        seeded instances."""
        from snbraid import decision

        def refused(*args):
            raise AssertionError("_quotient called with n >= 3 punctures")

        monkeypatch.setattr(decision, "_quotient", refused)
        pinned = TestKernelSearchPinned()
        instances = [pinned_instance(pin) for pin in ("sn-free-n3-default-budget", "sn-free-guard")]
        instances += [inst for inst in seeded_instances(2323, 60) if inst.n >= 3]
        statuses = set()
        for inst in instances:
            for decide in (sb.sn_equivalent_rel_A, sb.sn_equivalent_twisted):
                statuses.add(decide(inst, pinned.BUDGET).status)
        assert statuses == {sb.EQUIVALENT, sb.NOT_EQUIVALENT, sb.INCONCLUSIVE}

    def test_path_gives_ambient_conjugator(self):
        """On instances whose mixed braids are conjugate in B_{n+m}, the
        pair gives an h with h * beta_y * h^-1 = beta_x."""
        from snbraid.garside import _conjugacy, _quotient

        conjugate = 0
        for inst in seeded_instances(2324, 60):
            pair = _conjugacy(inst._x, inst._y)
            if pair is None:
                continue
            conjugate += 1
            h = _quotient(inst.n + inst.m, *pair).to_word()
            bx, by = inst.mixed_x().word, inst.mixed_y().word
            assert sb.equal(bx, sb.compose(sb.compose(h, by), sb.invert(h)))
        assert conjugate >= 30


class TestInstanceValidation:
    def test_base_strand_count(self):
        with pytest.raises(ValueError, match="base word has 3 strands, expected 2"):
            sb.SNInstance(2, 1, sb.BraidWord(3, (1,)), A1, A1)

    def test_kernel_membership_enforced(self):
        with pytest.raises(sb.KernelMembershipError):
            sb.SNInstance(2, 1, sb.BraidWord(2, ()), sb.BraidWord(3, (1,)), A1)

    def test_mixed_braids_built_once(self):
        beta_A = sb.BraidWord(2, (1,))
        inst = sb.SNInstance(2, 1, beta_A, A1, A2)
        lift = sb.section(2, 1, beta_A).word
        assert inst.mixed_x() is inst.mixed_x()
        assert inst.mixed_x().word == sb.compose(lift, A1)
        assert inst.mixed_y().word == sb.compose(lift, A2)
        assert inst == sb.SNInstance(2, 1, beta_A, A1, A2)

    def test_canonical_forms_built_once(self, monkeypatch):
        """The decision reads the forms of the two mixed braids that the
        instance holds instead of computing them again."""
        from snbraid import decision

        inst = TestKernelSearchPinned().instance(TestKernelSearchPinned.EQUIVALENT_OX)
        mixed = {inst.mixed_x().word, inst.mixed_y().word}
        assert inst._x.cf == sb.canonical_form(inst.mixed_x().word)
        assert inst._y.cf == sb.canonical_form(inst.mixed_y().word)
        computed = []

        def recorded(word):
            computed.append(word)
            return sb.canonical_form(word)

        monkeypatch.setattr(decision, "canonical_form", recorded)
        assert sb.sn_equivalent_rel_A(inst, TestKernelSearchPinned.BUDGET).status == sb.EQUIVALENT
        assert computed and not mixed.intersection(computed)

    def test_non_primitive_orbit_warns(self):
        with pytest.warns(UserWarning):
            sb.SNInstance(
                1, 2, sb.BraidWord(1, ()), sb.BraidWord(3, ()), sb.BraidWord(3, ())
            )

    @pytest.mark.parametrize(
        "n,m,orbit,warns",
        [(1, 3, "s2", True), (1, 3, "s2 s3", False), (1, 2, "s2", False)],
    )
    def test_orbit_block_cycles(self, n, m, orbit, warns):
        """The warning fires exactly when the orbit block splits into more
        than one cycle."""
        w = sb.BraidWord.parse(n + m, orbit)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            sb.SNInstance(n, m, sb.BraidWord(n, ()), w, w)
        # Both orbits are w, so a warning fires once for each.
        assert [c.category for c in caught] == [UserWarning] * (2 if warns else 0)

    def test_orbit_block_warning_names_caller(self):
        """On both paths the warning points at the caller's line, not into
        snbraid or the dataclass-generated __init__."""
        w, base = sb.BraidWord(3, ()), sb.BraidWord(1, ())
        for call, count in (
            (lambda: sb.SNInstance(1, 2, base, w, w), 2),
            (lambda: sb.partition_sn_classes(1, 2, base, [w]), 1),
        ):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                call()
            where = (__file__, call.__code__.co_firstlineno)
            assert [(c.filename, c.lineno) for c in caught] == [where] * count

    @staticmethod
    def checked_record(n, m, beta_A, name, w):
        """An orbit record's braid, permutation and form built the checked
        way: the kernel test of `kernel_oracle`, with `mixed._not_kernel`'s
        errors spelled out, `MixedBraid` on the composed word, which
        computes the permutation and checks the blocks, then the form, with
        the warning when the orbit block is not one m-cycle."""
        if w.strands != n + m:
            raise sb.KernelMembershipError(
                f"word {w} has {w.strands} strands, expected {n + m} for blocks ({n}, {m})"
            )
        if not kernel_oracle(n, m, w):
            raise sb.KernelMembershipError(f"word {w} is not in the kernel for blocks ({n}, {m})")
        braid = sb.MixedBraid(n, m, sb.compose(sb.section(n, m, beta_A).word, w))
        if m >= 1 and sum(c[0] > n for c in permutation_cycles(braid.perm)) != 1:
            warnings.warn(
                f"{name} does not induce a single {m}-cycle on the orbit block; "
                "treating it as a formal instance"
            )
        return braid, braid.perm, sb.canonical_form(braid.word)

    def test_one_pass_record_matches_checked_construction(self):
        """`_orbit` checks and assembles w in one pass over its letters:
        the same braid, permutation and form as the checked construction,
        the same error for words off the kernel or on the wrong strand
        count, and the same warning. Its braid is `mixed._over_base`'s,
        which on the same words gives `MixedBraid(n, m, lift * w)`'s word
        and permutation, or raises `mixed._not_kernel`'s two errors."""
        from snbraid import decision, mixed

        def over_base(n, m, beta_A, w):
            """`_over_base` from the lift and the strand at each position
            after it, read off the lift's permutation."""
            lift = sb.section(n, m, beta_A).word
            occupant = [0] * (n + m)
            for start, end in enumerate(sb.permutation(lift).images):
                occupant[end - 1] = start
            try:
                braid = mixed._over_base(n, m, lift, tuple(occupant), w)
            except ValueError as exc:
                return type(exc), str(exc)
            checked = sb.MixedBraid(n, m, sb.compose(lift, w))
            assert (braid.word, braid.perm) == (checked.word, checked.perm)
            return "braid"

        def outcome(build):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                try:
                    got = build()
                except ValueError as exc:
                    got = type(exc), str(exc)
            return got, [(c.category, str(c.message)) for c in caught]

        def one_pass(n, m, beta_A, name, w):
            record = decision._orbit(n, m, decision._base(n, m, beta_A), name, w)
            assert record.word is w
            return record.braid, record.braid.perm, record.cf

        # The orbit strand passes left of the punctures, which then cross
        # twice: projected s1 s1, not s2 s2. Then s1 s1 undone, in the
        # kernel, and s2 s2 not undone, off it.
        for tail, kernel in (("S1 S1", True), ("S2 S2", False)):
            w = sb.BraidWord.parse(4, f"s3 s2 s1 s2 s2 S1 S2 S3 {tail}")
            got = outcome(lambda: one_pass(3, 1, sb.BraidWord(3, ()), "orbit 0", w))
            assert got == outcome(lambda: self.checked_record(3, 1, sb.BraidWord(3, ()), "orbit 0", w))
            assert (got[0][0] is not sb.KernelMembershipError) == kernel

        rng = random.Random(43)
        seen = collections.Counter()
        errors = set()
        for n, m in itertools.product((0, 1, 2, 3), (1, 2)):
            for _ in range(80):
                beta_A = random_word(rng, n, 4)
                # B_{0,1} = B_1 has no kernel generators.
                length = rng.randint(0, 4) if n + m > 1 else 0
                w = random_kernel_word(rng, n, m, length)
                kind = rng.choice(("kernel", "lifted", "pure", "any", "strands"))
                if kind == "lifted":
                    # A conjugate by a lift: in the kernel, with crossings
                    # of two punctures whose projection is trivial.
                    g = sb.section(n, m, random_word(rng, n, 3)).word
                    w = sb.compose(sb.compose(g, w), sb.invert(g))
                elif kind == "pure" and n >= 2:
                    # Punctures fixed, projection sigma_i^2: off the kernel.
                    i = rng.randint(1, n - 1)
                    w = sb.compose(sb.BraidWord(n + m, (i, i)), w)
                elif kind == "any":
                    w = random_word(rng, n + m, 6)
                elif kind == "strands":
                    w = random_word(rng, n + m + rng.choice((-1, 1)), 4)
                got = outcome(lambda: one_pass(n, m, beta_A, "orbit 3", w))
                assert got == outcome(lambda: self.checked_record(n, m, beta_A, "orbit 3", w))
                result, caught = got
                seen[result[0] if isinstance(result[0], type) else "record", bool(caught)] += 1
                built = over_base(n, m, beta_A, w)
                assert built == ("braid" if result[0] is not sb.KernelMembershipError else result)
                if built != "braid":
                    errors.add("strands" if f"expected {n + m} for" in built[1] else "kernel")
        assert set(seen) == {
            ("record", False), ("record", True), (sb.KernelMembershipError, False)
        }, seen
        assert errors == {"strands", "kernel"}


class TestPartition:
    def test_invariant_distinguished(self):
        res = sb.partition_sn_classes(
            2, 1, sb.BraidWord(2, ()), [A2, A2, sb.free_reduce(A2 * A2)]
        )
        assert res.classes == ((0, 1), (2,))
        assert res.unresolved == ()

    def test_exponent_split(self):
        res = sb.partition_sn_classes(
            1,
            1,
            sb.BraidWord(1, ()),
            [sb.BraidWord(2, (1, 1)), sb.BraidWord(2, (1,) * 4)],
        )
        assert res.classes == ((0,), (1,))

    def test_conjugates_merge(self):
        c = A1
        other = sb.free_reduce(sb.compose(sb.compose(c, A2), sb.invert(c)))
        res = sb.partition_sn_classes(2, 1, sb.BraidWord(2, ()), [A2, other])
        assert res.classes == ((0, 1),)

    def test_unresolved_pairs_not_merged(self):
        res = sb.partition_sn_classes(
            2, 1, sb.BraidWord(2, ()), [A2, DEEP], sb.Budget(max_length=1, max_states=500)
        )
        assert res.classes == ((0,), (1,))
        assert res.unresolved == ((0, 1),)

    @pytest.mark.parametrize(
        "beta_A,orbits,error",
        [
            (sb.BraidWord(2, (1,)), [sb.BraidWord(3, (1, 2))], sb.KernelMembershipError),
            (sb.BraidWord(3, (1,)), [A2], ValueError),
            (sb.BraidWord(2, (1,)), [sb.BraidWord(5, ())], sb.KernelMembershipError),
            (sb.BraidWord(3, (1,)), [], ValueError),
        ],
    )
    def test_validates_fewer_than_two_orbits(self, beta_A, orbits, error):
        with pytest.raises(error):
            sb.partition_sn_classes(2, 1, beta_A, orbits)

    def test_wrong_strand_count_is_named(self):
        with pytest.raises(sb.KernelMembershipError, match="5 strands, expected 3"):
            sb.partition_sn_classes(2, 1, sb.BraidWord(2, (1,)), [sb.BraidWord(5, ())])

    @pytest.mark.parametrize(
        "n, beta_A, a, b, budget, expected",
        [
            # NotEquivalent: the pair (0, 2) repeats (0, 1)'s decision.
            (3, "s1 S2", "S3 S3 s3 s2 s1 s1 S2 S3 S3 S3",
             "s3 s2 S1 S1 S2 S3 s3 s2 S1 S1 S2 S3 s3 s3", sb.Budget(1, 50),
             sb.PartitionResult(((0,), (1, 2)), ())),
            # Inconclusive: a repeat would run the search to exhaustion again.
            (2, "", A2.format(), DEEP.format(), sb.Budget(max_length=1, max_states=500),
             sb.PartitionResult(((0,), (1, 2)), ((0, 1), (0, 2)))),
        ],
        ids=["not-equivalent", "inconclusive"],
    )
    def test_each_pair_of_records_decided_once(self, monkeypatch, n, beta_A, a, b, budget,
                                               expected):
        """Orbits 1 and 2 are two words of one form, so they share a record,
        and the pair (0, 2) is the pair (0, 1) of records again: it reads
        that decision's status and is not decided a second time."""
        a, b = sb.BraidWord.parse(n + 1, a), sb.BraidWord.parse(n + 1, b)
        loop = sb.kernel_generators(n, 1)[0]
        calls = []
        decide = sb.decision.sn_equivalent_rel_A
        monkeypatch.setattr(
            sb.decision, "sn_equivalent_rel_A",
            lambda inst, budget: calls.append(inst) or decide(inst, budget),
        )
        orbits = [a, b, b * loop * sb.invert(loop)]
        res = sb.partition_sn_classes(n, 1, sb.BraidWord.parse(n, beta_A), orbits, budget)
        assert res == expected
        assert 0 < len(calls) == 1

    def test_buckets_share_one_union_find(self):
        """Six buckets, each a core and three kernel conjugates of it: the
        one union-find gives six classes and no unresolved pair."""
        beta_A = sb.BraidWord(2, (1,))
        cores = [sb.BraidWord(3, (2, 2) * k) for k in range(1, 7)]
        orbits = conjugate_classes(random.Random(77), 2, 1, beta_A, cores, 3)
        res = sb.partition_sn_classes(2, 1, beta_A, orbits, sb.Budget(4, 4000))
        assert len(res.classes) == 6 and res.unresolved == ()


def reference_partition(n, m, beta_A, orbits, budget):
    """Decide every pair with sn_equivalent_rel_A and union the Equivalent
    ones; returns the classes and all Inconclusive pairs."""
    root = list(range(len(orbits)))

    def find(i):
        while root[i] != i:
            i = root[i]
        return i

    inconclusive = []
    for i, j in itertools.combinations(range(len(orbits)), 2):
        inst = sb.SNInstance(n, m, beta_A, orbits[i], orbits[j])
        status = sb.sn_equivalent_rel_A(inst, budget).status
        if status == sb.EQUIVALENT:
            ri, rj = find(i), find(j)
            root[max(ri, rj)] = min(ri, rj)
        elif status == sb.INCONCLUSIVE:
            inconclusive.append((i, j))
    groups = {}
    for i in range(len(orbits)):
        groups.setdefault(find(i), []).append(i)
    return tuple(tuple(groups[r]) for r in sorted(groups)), inconclusive


def conjugate_classes(rng, n, m, beta_A, cores, copies):
    """Each core and `copies` kernel conjugates of it, shuffled."""
    orbits = []
    for core in cores:
        orbits.append(core)
        for _ in range(copies):
            c = random_kernel_word(rng, n, m, rng.randint(1, 3))
            orbits.append(conjugated_kernel_part(n, m, beta_A, core, c))
    rng.shuffle(orbits)
    return orbits


def thirty_orbits(seed, base=(1,)):
    """Five cores with distinct exponent sums, each with five conjugates by
    one kernel generator: 30 orbits, 435 pairs, over the base sigma_1
    unless another is given."""
    texts = ["s2 s2", "S2 S2", "s2 s1 s1 S2 s2 s1 s1 S2", "s2 s2 s2 s2 s2 s2",
             "s2 S1 S1 S2 s2 S1 S1 S2"]
    beta_A = sb.BraidWord(2, base)
    rng = random.Random(seed)
    orbits = []
    for text in texts:
        core = sb.BraidWord.parse(3, text)
        orbits.append(core)
        for _ in range(5):
            c = random_kernel_word(rng, 2, 1, 1)
            orbits.append(conjugated_kernel_part(2, 1, beta_A, core, c))
    rng.shuffle(orbits)
    return beta_A, orbits


class TestPartitionAgainstReference:
    SHAPES = [(1, 1), (1, 2), (2, 1), (2, 2), (3, 1)]
    BUDGETS = [sb.Budget(1, 200), sb.Budget(3, 2000)]

    def test_same_classes_as_deciding_every_pair(self, monkeypatch):
        """Against deciding every pair: lists of kernel conjugates, then,
        for n = 0..4, lists that also hold rewritten copies of their
        orbits, whose mixed braids have one form. The partition never
        decides two orbits of one form: they start in one class."""
        from snbraid import decision

        decided = []

        def recorded(inst, budget):
            decided.append((inst.n, inst._x.cf == inst._y.cf))
            return sb.sn_equivalent_rel_A(inst, budget)

        monkeypatch.setattr(decision, "sn_equivalent_rel_A", recorded)

        def lists():
            for seed in range(10):
                rng = random.Random(9000 + seed)
                n, m = self.SHAPES[seed % 5]
                beta_A = random_word(rng, n, 3)
                cores = [random_kernel_word(rng, n, m, rng.randint(1, 3)) for _ in range(3)]
                yield n, m, beta_A, conjugate_classes(rng, n, m, beta_A, cores, 2), seed // 5
            for seed in range(10):
                rng = random.Random(4600 + seed)
                n, m = ((0, 3), (1, 2), (2, 1), (3, 1), (4, 1))[seed % 5]
                beta_A = random_word(rng, n, 3)
                cores = [random_kernel_word(rng, n, m, rng.randint(1, 3)) for _ in range(3)]
                orbits = conjugate_classes(rng, n, m, beta_A, cores, 1)
                for _ in range(3):
                    w = rng.choice(orbits)
                    orbits.append(random_rewrite(rng, random_rewrite(rng, w)))
                rng.shuffle(orbits)
                yield n, m, beta_A, orbits, seed // 5

        dropped = 0
        repeated = set()
        for n, m, beta_A, orbits, b in lists():
            budget = self.BUDGETS[b]
            lift = sb.section(n, m, beta_A).word
            forms = {sb.canonical_form(sb.compose(lift, w)) for w in orbits}
            if len(forms) < len(orbits):
                repeated.add(n)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                classes, inconclusive = reference_partition(n, m, beta_A, orbits, budget)
                res = sb.partition_sn_classes(n, m, beta_A, orbits, budget)
            where = {i: k for k, cls in enumerate(classes) for i in cls}
            across = tuple(p for p in inconclusive if where[p[0]] != where[p[1]])
            assert res.classes == classes
            assert res.unresolved == across
            dropped += len(inconclusive) - len(across)
        # Some Inconclusive pair ends inside a class, so the lists exercise
        # the pairs that `unresolved` drops.
        assert dropped > 0
        # Every n has a list with repeated forms, n >= 3 too, where no
        # anchor key merges them; none of their pairs is decided.
        assert repeated == {0, 1, 2, 3, 4}
        assert any(n >= 3 for n, _ in decided)
        assert not any(same for _, same in decided)

    def test_each_orbit_validated_once_and_merged_pairs_skipped(self, monkeypatch):
        from snbraid import decision

        # `_orbit` validates one orbit, in the pass that assembles its
        # record.
        counts = {"_orbit": 0, "sn_equivalent_rel_A": 0}

        def counted(name):
            fn = getattr(decision, name)

            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)

            monkeypatch.setattr(decision, name, wrapper)

        for name in counts:
            counted(name)
        beta_A, orbits = thirty_orbits(6)
        res = sb.partition_sn_classes(2, 1, beta_A, orbits)
        assert len(res.classes) == 5 and res.unresolved == ()
        assert counts["_orbit"] == 30
        assert counts["sn_equivalent_rel_A"] <= 25

    def test_each_orbit_normalized_once(self, monkeypatch):
        """Each orbit's mixed braid gets its canonical form once, however
        many pairs it meets."""
        from snbraid import decision

        computed = []

        def recorded(word):
            computed.append(word)
            return sb.canonical_form(word)

        monkeypatch.setattr(decision, "canonical_form", recorded)
        beta_A = sb.BraidWord(2, (1,))
        rng = random.Random(7)
        orbits = []
        for text in ("s2 s2", "s2 s1 s1 S2 s2 s1 s1 S2"):
            core = sb.BraidWord.parse(3, text)
            orbits.append(core)
            for _ in range(3):
                c = random_kernel_word(rng, 2, 1, 1)
                orbits.append(conjugated_kernel_part(2, 1, beta_A, core, c))
        orbits = list(dict.fromkeys(orbits))
        res = sb.partition_sn_classes(2, 1, beta_A, orbits, sb.Budget(3, 2000))
        assert len(res.classes) == 2
        lift = sb.section(2, 1, beta_A).word
        assert [computed.count(sb.compose(lift, w)) for w in orbits] == [1] * len(orbits)


class TestOrbitRecordsReused:
    """What a decision learns of one orbit alone, its screens, the summit
    and circuit of its mixed braid and its word in F_n, is kept on the
    orbit's record, and the letters the kernel search acts by on the base
    record. Each is computed once, on first use inside a decision, and
    kept in the record's `vars` under its name."""

    # Per lazy fact: the module and the function that compute it, the
    # attribute that keeps it, and the arguments of the one call, read off
    # the record that keeps it. A function named `Class.attr` is the lazy
    # attribute itself, counted per computation, whose one argument is the
    # record; the `_Base` fact is counted under that name.
    FACTS = (
        ("garside", "_summit", "summit", lambda r: (r.cf,)),
        ("garside", "_cycling_orbit", "circuit", lambda r: (r.summit[0],)),
        ("decision", "_Orbit.exponent_sum", "exponent_sum", lambda r: (r,)),
        ("decision", "linking_matrix", "linking_matrix", lambda r: (r.braid,)),
        ("_free", "kernel_to_free", "free",
         lambda r: (r.braid.n, r.word.letters, sb.decision._free_bound(r.word.letters))),
        ("decision", "_Base.free", "free", lambda b: (b,)),
    )

    @pytest.fixture
    def calls(self, monkeypatch):
        """The arguments of every call of each function of `FACTS`, by
        function name."""
        import snbraid

        lazy = sb.garside._lazy
        calls = {}
        for module, name, _, _ in self.FACTS:
            owner, _, attr = f"{module}.{name}".rpartition(".")
            owner = functools.reduce(getattr, owner.split("."), snbraid)
            fn = vars(owner)[attr]

            def counted(*args, fn=fn.method if isinstance(fn, lazy) else fn, name=name):
                calls.setdefault(name, []).append(args)
                return fn(*args)

            if isinstance(fn, lazy):
                counted.__name__ = attr
                counted = lazy(counted)
            monkeypatch.setattr(owner, attr, counted)
        return calls

    def computed_once(self, calls, owners) -> dict[str, int]:
        """Assert that the calls of each function of `FACTS` are one per
        owner, an orbit record or a base record, that keeps its fact in
        `vars`, and return how many owners keep each fact. m >= 2, or a
        word past its bound, keeps None as its free word without the
        call."""
        kept_counts = {}
        for _, name, attr, arguments in self.FACTS:
            on_base = name.startswith("_Base.")
            kept = [o for o in owners
                    if attr in vars(o) and isinstance(o, sb.decision._Base) == on_base]
            kept_counts[name if on_base else attr] = len(kept)
            if attr == "free" and not on_base:
                kept = [o for o in kept if o.braid.m == 1]
            made = calls.get(name, [])
            assert collections.Counter(made) == collections.Counter(map(arguments, kept)), name
        return kept_counts

    @pytest.mark.parametrize(
        "seed, base",
        [pytest.param(6, (1,), id="6"), pytest.param(7, (1,), id="7"),
         pytest.param(6, (1, 1), id="6-s1s1")],
    )
    def test_partition_walks_each_orbit_once(self, monkeypatch, calls, seed, base):
        """Orbits whose mixed braids have one canonical form share one
        record: one summit walk, one set of screens and one word in F_n.
        Over sigma_1^2 some pairs reach the search; over sigma_1 the anchor
        keys merge every pair, and a rigid or bare Delta-power summit's
        anchor is read off its factors, so no circuit is walked. Over
        sigma_1^2 the decided pairs' ambient tests meet at a rigid summit
        element, the first of its own circuit, so none is walked there
        either."""
        from snbraid import decision

        owners = []
        decided = []

        def kept_record(*args, fn):
            owners.append(fn(*args))
            return owners[-1]

        def deciding(inst, budget, fn=decision.sn_equivalent_rel_A):
            decided.append(inst)
            return fn(inst, budget)

        for name in ("_orbit", "_base"):
            fn = getattr(decision, name)
            monkeypatch.setattr(decision, name, functools.partial(kept_record, fn=fn))
        monkeypatch.setattr(decision, "sn_equivalent_rel_A", deciding)
        beta_A, orbits = thirty_orbits(seed, base)
        lift = sb.section(2, 1, beta_A).word
        forms = {sb.canonical_form(sb.compose(lift, w)) for w in orbits}
        assert len(forms) < len(orbits)
        res = sb.partition_sn_classes(2, 1, beta_A, orbits)
        assert len(res.classes) == 5 and res.unresolved == ()
        kept = self.computed_once(calls, owners)
        assert bool(decided) == (base == (1, 1))
        assert 0 < kept["summit"] <= len(forms) and kept["circuit"] == 0
        assert kept["linking_matrix"] == kept["exponent_sum"] == len(forms)
        assert (kept["_Base.free"] > 0) == (base == (1, 1))

    @pytest.mark.parametrize("seed", [6, 7])
    def test_partition_acts_by_its_base_once(self, monkeypatch, seed):
        """Every pair of a partition shares beta_A, so the Artin images
        phi_{beta_A}(x_i) of the m = 1 kernel search are built once for all
        of them. Over sigma_1^2 some pairs miss the centralizer shift and
        reach the search."""
        from snbraid import _free

        calls = []
        artin = _free.artin

        def counted(*args):
            calls.append(args)
            return artin(*args)

        monkeypatch.setattr(_free, "artin", counted)
        beta_A, orbits = thirty_orbits(seed, (1, 1))
        res = sb.partition_sn_classes(2, 1, beta_A, orbits)
        assert len(res.classes) == 5 and res.unresolved == ()
        assert len(calls) == 1

    def test_screens_compute_no_permutation(self, monkeypatch):
        """A mixed braid keeps the permutation its block check computed, and
        the linking-matrix screen reads it; the cycle type, which the
        linking matrix implies, is not screened."""
        from snbraid import decision, garside, invariants, mixed, words

        inst = ambient_s1()
        calls = []
        for module in (words, garside, mixed, invariants, decision):
            if hasattr(module, "permutation"):
                def counted(w, fn=module.permutation):
                    calls.append(w)
                    return fn(w)

                monkeypatch.setattr(module, "permutation", counted)
        assert decision._screen_invariants(inst) is None
        assert {"exponent_sum", "linking_matrix"} <= vars(inst._x).keys()
        assert "cycle_type" not in vars(inst._x)
        assert calls == []
        assert inst.mixed_x().perm == sb.permutation(inst.mixed_x().word)

    def test_formulations_share_one_instance(self, calls):
        """Both formulations decide one instance on its two records: the
        shift decides ambient_s1, and two console pins reach the search on
        free words, for n = 3 and after the shift misses. In all three the
        ambient test meets at x's rigid summit element, the first of its
        own circuit, so no circuit is walked."""
        for pin in (None, "sn-free-n3-default-budget", "sn-deep-default-budget"):
            calls.clear()
            inst = ambient_s1() if pin is None else pinned_instance(pin)
            rel_A = sb.sn_equivalent_rel_A(inst)
            owners = [inst._A, inst._x, inst._y]
            kept = self.computed_once(calls, owners)
            twisted = sb.sn_equivalent_twisted(inst)
            assert self.computed_once(calls, owners) == kept
            assert kept["summit"] == 2 and kept["circuit"] == 0
            assert kept["exponent_sum"] == kept["linking_matrix"] == 2
            assert kept["free"] == 2 * kept["_Base.free"] == (0 if pin is None else 2)
            assert rel_A.to_json() == twisted.to_json()
            verify(inst, rel_A)

    def test_is_conjugate_walks_each_record_once(self, monkeypatch, calls):
        """`is_conjugate` walks each of its two fresh records at most once,
        on seeded conjugate pairs. The cycling walks of the closure search,
        which some pairs reach, are of its candidates, no record's."""
        from snbraid import garside

        owners, closures = [], []

        def kept(a, b, fn=garside._conjugacy):
            owners.extend((a, b))
            return fn(a, b)

        def closure(*args, fn=garside._closure_search):
            walks = calls.setdefault("_cycling_orbit", [])
            before = len(walks)
            closures.append(args)
            try:
                return fn(*args)
            finally:
                del walks[before:]

        monkeypatch.setattr(garside, "_conjugacy", kept)
        monkeypatch.setattr(garside, "_closure_search", closure)
        rng = random.Random(82)
        for _ in range(40):
            n = rng.choice((3, 4))
            a, c = random_word(rng, n, 10), random_word(rng, n, 6)
            assert sb.is_conjugate(a, sb.compose(sb.compose(c, a), sb.invert(c))).conjugate
        kept = self.computed_once(calls, owners)
        assert kept["summit"] > 0 and kept["circuit"] > 0 and closures

    def test_base_read_once(self, monkeypatch, calls):
        """beta_A is read once per partition and once per instance, by
        `_base`, whose record keeps the exponent sum that the key stage and
        the centralizer shift read, for every pair and both formulations:
        `exponent_sum` runs once per base and once per orbit screen."""
        from snbraid import decision

        bases, sums = [], []

        def counted(*args, fn=decision._base):
            bases.append(args)
            return fn(*args)

        def summed(w, fn=decision.exponent_sum):
            sums.append(w)
            return fn(w)

        monkeypatch.setattr(decision, "_base", counted)
        monkeypatch.setattr(decision, "exponent_sum", summed)
        beta_A, orbits = thirty_orbits(6)
        sb.partition_sn_classes(2, 1, beta_A, orbits)
        assert bases == [(2, 1, beta_A)]
        inst = ambient_s1()
        for decide in (sb.sn_equivalent_rel_A, sb.sn_equivalent_twisted):
            verify(inst, decide(inst))
        assert len(bases) == 2 and inst._A.exponent_sum == sb.exponent_sum(inst.beta_A)
        screened = [record.word for (record,) in calls["_Orbit.exponent_sum"]]
        assert collections.Counter(sums) == collections.Counter(
            [args[2] for args in bases] + screened
        )

    def test_building_computes_nothing_for_a_decision(self, calls):
        beta_A, orbits = thirty_orbits(6)
        sb.SNInstance(2, 1, beta_A, orbits[0], orbits[1])
        assert calls == {}


class TestBudget:
    @pytest.mark.parametrize(
        "args,field",
        [((2.5, 10), "max_length"), ((3, 10.5), "max_states"), ((True, 5), "max_length"),
         ((3, False), "max_states"), (("3", 10), "max_length")],
    )
    def test_rejects_non_integers(self, args, field):
        with pytest.raises(ValueError, match=f"{field} must be an int"):
            sb.Budget(*args)

    def test_accepts_integers(self):
        assert sb.Budget(0, 0) == sb.Budget(max_length=0, max_states=0)


def test_verdict_json_shapes():
    inst = sb.SNInstance(2, 1, sb.BraidWord(2, ()), A2, A2)
    doc = sb.sn_equivalent_rel_A(inst).to_json()
    assert doc["status"] == "Equivalent" and "witness" in doc
    inst2 = sb.SNInstance(
        1, 1, sb.BraidWord(1, ()), sb.BraidWord(2, (1, 1)), sb.BraidWord(2, (1,) * 4)
    )
    doc2 = sb.sn_equivalent_rel_A(inst2).to_json()
    assert set(doc2["certificate"]) == {"invariant", "lhs", "rhs"}


@pytest.fixture
def corpus(monkeypatch):
    """The seeded generators of the benchmark, perfbench/corpus.py."""
    import pathlib

    monkeypatch.syspath_prepend(str(pathlib.Path(__file__).resolve().parents[1] / "perfbench"))
    import corpus

    return corpus


def corpus_instance(inst):
    n, m = inst["n"], inst["m"]
    return sb.SNInstance(
        n, m, sb.BraidWord.parse(n, inst["beta_A"]),
        sb.BraidWord.parse(n + m, inst["ox"]), sb.BraidWord.parse(n + m, inst["oy"]),
    )


def shift_off(monkeypatch):
    """Decide as before the centralizer shift: the search follows the
    ambient test directly."""
    monkeypatch.setattr(sb.decision, "_centralizer_shift", lambda *args: None)


def keys_off(monkeypatch):
    """Partition as before the anchor keys: each orbit gets a key of its
    own, so the key stage merges nothing and every pair is decided."""
    monkeypatch.setattr(sb.decision, "_anchor_key", lambda *args: object())


def shift_instances(seed, count, shapes):
    """Seeded instances over random bases, their (n, m) cycling through
    `shapes`: beta_x is a kernel conjugate of beta_y, every other one by
    the lift of beta_A times a kernel word."""
    rng = random.Random(seed)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for trial in range(count):
            n, m = shapes[trial % len(shapes)]
            beta_A = random_word(rng, n, 4)
            oy = random_kernel_word(rng, n, m, rng.randint(1, 3))
            c = random_kernel_word(rng, n, m, rng.randint(1, 3))
            if trial % 2:
                c = sb.compose(sb.section(n, m, beta_A).word, c)
            ox = conjugated_kernel_part(n, m, beta_A, oy, c)
            yield sb.SNInstance(n, m, beta_A, ox, oy)


class TestCentralizerShift:
    """For n <= 2 the decision shifts the ambient conjugator h into the
    kernel by Delta^2a * beta_y^b before any search
    (`decision._centralizer_shift`); a miss goes on to the search."""

    @pytest.fixture
    def shifted(self, monkeypatch):
        """The (instance, witness or None) of every shift."""
        found = []
        shift = sb.decision._centralizer_shift

        def recorded(inst, path, accept):
            verdict = shift(inst, path, accept)
            found.append((inst, None if verdict is None else verdict.witness))
            return verdict

        monkeypatch.setattr(sb.decision, "_centralizer_shift", recorded)
        return found

    def test_gate_agrees_with_is_kernel(self, monkeypatch):
        """The shift's gate is `mixed.is_kernel`, which agrees with the
        independent `kernel_oracle` on kernel words, on random words, on
        kernel words times sigma_i^+-2, which fix every strand but project
        to a nontrivial braid, and, for n = 3, on kernel words conjugated
        by a base braid, whose puncture letters cancel in B_3. For n = 3
        the normalizing branch answers both ways."""
        normalized = []
        normalize = sb.garside._normalize

        def counted(n, factors):
            normalized.append(n)
            return normalize(n, factors)

        monkeypatch.setattr(sb.garside, "_normalize", counted)
        rng = random.Random(72)
        seen = set()
        shapes = ((0, 2), (0, 3), (1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (2, 3), (3, 1), (3, 2))
        for n, m in shapes:
            for _ in range(150):
                w = random_kernel_word(rng, n, m, rng.randint(0, 4))
                draw = rng.random()
                if draw < 0.3:
                    w = random_word(rng, n + m, 10)
                elif draw < 0.6 and n >= 2:
                    i = rng.choice((1, -1)) * rng.randint(1, n - 1)
                    w = sb.compose(w, sb.BraidWord(n + m, (i, i)))
                elif draw < 0.8 and n >= 3:
                    c = random_word(rng, n, 3)
                    w = sb.BraidWord(n + m, c.letters + w.letters + sb.invert(c).letters)
                normalized.clear()
                got, normalizations = sb.is_kernel(n, m, w), len(normalized)
                assert got == kernel_oracle(n, m, w), (n, m, w)
                assert normalizations <= (n >= 3)
                seen.add((n, got, normalizations > 0))
        assert {(n, got) for n, got, _ in seen} == {
            (0, True), (1, True), (1, False), (2, True), (2, False), (3, True), (3, False)
        }
        assert {(3, True, True), (3, False, True)} <= seen

    def test_powers_are_the_least_solution(self):
        """`_shift_powers` against a box search over |a|, |b| <= 40: the
        least solution by |a| + |b|, then |b|, then b, of
        2a + e*b = -crossings with the punctures back in place, or None
        when there is none. h's crossings have the parity of its swap. The
        positions are where h takes each puncture strand, from 0."""
        shift_powers = sb.decision._shift_powers
        for e in range(-5, 6):
            for r, ends in ((0, [0, 1]), (1, [1, 0])):
                for crossings in range(r - 12, 13, 2):
                    box = [
                        (abs(a) + abs(b), abs(b), b, a)
                        for a in range(-40, 41) for b in range(-40, 41)
                        if 2 * a + e * b == -crossings and (r + b * e) % 2 == 0
                    ]
                    least = min(box, default=None)
                    expected = None if least is None else (least[3], least[2])
                    assert shift_powers(e, ends, crossings) == expected, (e, ends, crossings)
        assert shift_powers(0, [0], 0) == (0, 0)
        assert shift_powers(0, [1], 0) is None
        assert shift_powers(1, [0, 2], 0) is None and shift_powers(2, [2, 1], 1) is None

    def test_seeded_witnesses_are_kernel_conjugators(self, shifted):
        """On seeded instances with n in {0, 1, 2}, kernel conjugates and
        conjugates by the lift of beta_A times a kernel word, every witness
        the shift returns is a kernel element that conjugates beta_y to
        beta_x, spelled as its own canonical form; some shifts miss, and
        their decisions go on to the search."""
        shapes = ((0, 2), (0, 3), (1, 1), (1, 2), (2, 1), (2, 2))
        for inst in shift_instances(73, 240, shapes):
            sb.sn_equivalent_rel_A(inst, sb.Budget(3, 2000))
        hits = {0: 0, 1: 0, 2: 0}
        for inst, c in shifted:
            if c is None:
                continue
            hits[inst.n] += 1
            assert c == sb.canonical_form(c).to_word()
            assert sb.is_kernel(inst.n, inst.m, c)
            bx, by = inst.mixed_x().word, inst.mixed_y().word
            assert sb.equal(bx, sb.compose(sb.compose(c, by), sb.invert(c)))
        assert min(hits.values()) >= 15
        assert any(c is None for _, c in shifted)

    def test_form_reading_matches_letters(self, monkeypatch, shifted):
        """The shift reads where h's puncture strands end, and their signed
        crossings, off h's canonical form (`_puncture_ends`); the strand
        pass of `mixed` over the letters of its spelling is the reference,
        for h and for every witness: the ends from where it leaves the
        strands, the crossings as the signs of the projected letters. The
        seeded n = 1 and n = 2 instances give h Delta powers of both
        signs, and shifts with b = 0 and with b != 0."""
        decision = sb.decision
        read, powers = [], []
        puncture_ends, shift_powers = decision._puncture_ends, decision._shift_powers

        def recorded_read(n, *cf):
            read.append((n, sb.CanonicalForm(*cf)))
            return puncture_ends(n, *cf)

        def recorded_powers(*args):
            powers.append(shift_powers(*args))
            return powers[-1]

        monkeypatch.setattr(decision, "_puncture_ends", recorded_read)
        monkeypatch.setattr(decision, "_shift_powers", recorded_powers)
        shapes = ((1, 1), (1, 2), (2, 1), (2, 2))
        for inst in shift_instances(74, 160, shapes):
            sb.sn_equivalent_rel_A(inst, sb.Budget(3, 2000))
        witnesses = [(inst.n, sb.canonical_form(c)) for inst, c in shifted if c is not None]
        for n, cf in read + witnesses:
            occupant = list(range(cf.strands))
            projected = sb.mixed._strand_pass(n, occupant, cf.to_word().letters)
            ends = [occupant.index(s) for s in range(n)]
            crossings = sum(1 if k > 0 else -1 for k in projected)
            assert puncture_ends(n, *cf) == (ends, crossings), cf
        assert {n for n, _ in read} == {1, 2}
        assert {(cf.delta_power > 0) - (cf.delta_power < 0) for _, cf in read} == {-1, 0, 1}
        assert {b != 0 for _, b in filter(None, powers)} == {False, True}

    def test_formerly_inconclusive_sn_ambient(self, corpus, monkeypatch, shifted):
        """The 51 instances of the seed-1 sn-ambient benchmark corpus that the
        search alone leaves Inconclusive at the benchmark's budget are all
        Equivalent now, each by a shift witness that re-verifies; the other
        333 keep their status."""
        budget = sb.Budget(5, 20000)
        instances = [corpus_instance(inst) for inst in corpus.sn_ambient(1, 384)]
        with monkeypatch.context() as m:
            shift_off(m)
            before = [sb.sn_equivalent_rel_A(inst, budget).status for inst in instances]
        assert before.count(sb.INCONCLUSIVE) == 51
        assert set(before) == {sb.EQUIVALENT, sb.INCONCLUSIVE}
        shifted.clear()
        for inst in instances:
            v = sb.sn_equivalent_rel_A(inst, budget)
            assert v.status == sb.EQUIVALENT
            verify(inst, v)
        assert all(c is not None for _, c in shifted) and len(shifted) == 384

    def test_n3_decide_mix_verdicts_unchanged(self, corpus, monkeypatch):
        """On n = 3 the decision never shifts. Its verdicts on the seed-1
        decide-mix corpus, both formulations at the benchmark's budget, are
        byte for byte those made before the shift existed: the digest was
        taken then."""
        def refused(*args):
            raise AssertionError("shift on n = 3")

        monkeypatch.setattr(sb.decision, "_centralizer_shift", refused)
        lines = []
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for inst in corpus.decide_mix(1, 576):
                if inst["n"] < 3:
                    continue
                sn = corpus_instance(inst)
                for decide in (sb.sn_equivalent_rel_A, sb.sn_equivalent_twisted):
                    lines.append(json.dumps(decide(sn, sb.Budget(4, 4000)).to_json(), sort_keys=True))
        assert len(lines) == 384
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        assert digest == "2dba63767a85dd8bb385cbb018593b019cf4fcdaef7e80b42c5cd58f68bf6e9f"

    def test_partition_unresolved_only_shrinks(self, monkeypatch):
        """With the shift, a partition's classes only merge and its
        unresolved pairs only go: seeded lists with n <= 2 at tight
        budgets, against the same lists decided without the shift and
        without the key stage, which merges by the anchor keys."""
        shrunk = 0
        for seed in range(8):
            rng = random.Random(9100 + seed)
            n, m = ((1, 2), (2, 1), (2, 2), (2, 1))[seed % 4]
            beta_A = random_word(rng, n, 3)
            cores = [random_kernel_word(rng, n, m, rng.randint(1, 3)) for _ in range(3)]
            orbits = conjugate_classes(rng, n, m, beta_A, cores, 2)
            budget = sb.Budget(1 + seed % 2, 200)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                new = sb.partition_sn_classes(n, m, beta_A, orbits, budget)
                with monkeypatch.context() as patch:
                    shift_off(patch)
                    keys_off(patch)
                    old = sb.partition_sn_classes(n, m, beta_A, orbits, budget)
            assert set(new.unresolved) <= set(old.unresolved)
            merged = {i: cls for cls in new.classes for i in cls}
            assert all(set(cls) <= set(merged[cls[0]]) for cls in old.classes)
            shrunk += len(old.unresolved) - len(new.unresolved)
        assert shrunk > 0


class TestTracedStages:
    """A traced benchmark run reads each decision stage through a wrapper
    that `perfbench/tracing.py` sets on the stage's module attribute. A
    stage renamed, or called through a reference taken at import, escapes
    its wrapper, and its counter reads 0."""

    def test_every_stage_counter_reads_work(self, corpus):
        import tracing  # perfbench/, on the path through `corpus`

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            instances = [corpus_instance(inst) for inst in corpus.decide_mix(1, 96)]
            tracer = tracing.Tracer()
            tracer.install()
            try:
                # Through the module: the tracer wraps `decision`'s name,
                # not the package's.
                for inst in instances:
                    sb.decision.sn_equivalent_rel_A(inst, sb.Budget(4, 4000))
            finally:
                tracer.uninstall()
        metrics = tracer.metrics()
        names = ("decision.screen.s", "decision.kernel_search.s", "invariants.linking_matrix.s",
                 "decision.kernel_states_kept")
        counters = {name: metrics[name][0] for name in names}
        assert all(value > 0 for value in counters.values()), counters


class TestAnchorKeys:
    """For n <= 2 a partition first merges the orbits of each screen bucket
    by their anchor keys (`decision._anchor_key`): the anchor c* of the
    record's cycling circuit and where its conjugator g takes the
    punctures. No pair inside a key is decided."""

    # (n, m, beta_A): e(beta_A) odd, even and non-zero, and zero for n = 2.
    SHAPES = [
        (0, 2, ""), (0, 3, ""), (1, 1, ""), (1, 2, ""),
        (2, 1, "s1"), (2, 1, "s1 s1"), (2, 1, ""),
        (2, 2, "s1"), (2, 2, "s1 s1"), (2, 2, ""),
    ]

    @pytest.fixture
    def keyed(self, monkeypatch):
        """The (record, key) of every key a partition computes."""
        found = []
        anchor_key = sb.decision._anchor_key

        def recorded(n, e, record):
            found.append((record, anchor_key(n, e, record)))
            return found[-1][1]

        monkeypatch.setattr(sb.decision, "_anchor_key", recorded)
        return found

    @staticmethod
    def conjugator(record) -> sb.BraidWord:
        """The anchor's conjugator g, each factor spelled as the positive
        word of its permutation, then Delta when the anchor is a
        tau-image, where g's last factor is Delta's rank."""
        _, g = record.anchor
        strands = record.cf.strands
        simples = sb.garside._simples(strands)
        perm = simples.perm
        twisted = g[-1:] == [simples.delta]
        factors = g[:-1] if twisted else g
        letters = [k for f in factors for k in sb.garside._perm_word(perm[f])]
        if twisted:
            letters += sb.delta(strands).letters
        return sb.BraidWord(strands, tuple(letters))

    @staticmethod
    def powers(n, e, h) -> tuple[int, int]:
        """The (a, b) of `_shift_powers` for h, with h's puncture ends read
        from its permutation and, for n = 2, its crossings from the
        exponent sum of what is left once the orbit strands are deleted."""
        perm = sb.permutation(h)
        ends = [perm.images[s - 1] - 1 for s in range(1, n + 1)]
        projected = h
        for _ in range(h.strands - n):
            projected = sb.delete_strand(projected, n + 1)
        powers = sb.decision._shift_powers(e, ends, sb.exponent_sum(projected))
        assert powers is not None, (n, e, h)
        return powers

    def test_key_merges_have_kernel_witnesses(self, keyed):
        """For every two records of one key, h = g_i * g_j^-1 conjugates
        beta_j to beta_i, and h * Delta^2a * beta_j^b, with the powers of
        the centralizer shift, is a kernel element that does too, checked
        by `kernel_oracle` and `equal`. Each g takes its braid to the
        anchor, and orbits of one key end in one class."""
        merges = collections.Counter()
        rng = random.Random(4300)
        for n, m, text in self.SHAPES:
            beta_A = sb.BraidWord.parse(n, text)
            e, strands = sb.exponent_sum(beta_A), n + m
            lift = sb.section(n, m, beta_A).word
            for _ in range(3):
                cores = [random_kernel_word(rng, n, m, rng.randint(1, 3)) for _ in range(4)]
                orbits = conjugate_classes(rng, n, m, beta_A, cores, 4)
                keyed.clear()
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    res = sb.partition_sn_classes(n, m, beta_A, orbits, sb.Budget(3, 2000))
                where = {i: k for k, cls in enumerate(res.classes) for i in cls}
                forms = [sb.canonical_form(sb.compose(lift, w)) for w in orbits]
                groups = collections.defaultdict(dict)
                for record, key in keyed:
                    groups[key][record.cf] = record
                    g = self.conjugator(record)
                    cf = sb.canonical_form(
                        sb.compose(sb.compose(sb.invert(g), record.braid.word), g)
                    )
                    assert cf == record.anchor[0] == key[0]
                for group in groups.values():
                    assert len({where[i] for i, f in enumerate(forms) if f in group}) == 1
                    for ri, rj in itertools.combinations(group.values(), 2):
                        bx, by = ri.braid.word, rj.braid.word
                        c = sb.compose(self.conjugator(ri), sb.invert(self.conjugator(rj)))
                        if n:
                            a, b = self.powers(n, e, c)
                            twist = sb.full_twist(strands)
                            for w, k in ((twist, a), (by, b)):
                                c = sb.compose(c, sb.BraidWord(
                                    strands, (w if k > 0 else sb.invert(w)).letters * abs(k)
                                ))
                        assert kernel_oracle(n, m, c), (n, m, text, c)
                        assert sb.equal(bx, sb.compose(sb.compose(c, by), sb.invert(c)))
                        merges[n, m, text] += 1
        # Over B_2 every kernel conjugate has one form, so only orbits of
        # one record share a key there.
        assert set(merges) == {(n, m, t) for n, m, t in self.SHAPES if n + m >= 3}

    @pytest.mark.parametrize("seed", [6, 7])
    @pytest.mark.parametrize("base", [(1,), (1, 1), ()], ids=["s1", "s1s1", "empty"])
    def test_thirty_orbits_as_deciding_every_pair(self, monkeypatch, seed, base):
        """On `thirty_orbits` the partition's output is byte for byte that
        of deciding every pair, and over sigma_1 it decides no pair and
        builds no witness."""
        beta_A, orbits = thirty_orbits(seed, base)
        classes, inconclusive = reference_partition(2, 1, beta_A, orbits, sb.Budget())
        reference = sb.PartitionResult(classes, tuple(inconclusive))
        decided = []
        witness = sb.decision._quotient

        def counted(*args):
            decided.append(args)
            return witness(*args)

        monkeypatch.setattr(sb.decision, "_quotient", counted)
        res = sb.partition_sn_classes(2, 1, beta_A, orbits)
        assert json.dumps(res.to_json()) == json.dumps(reference.to_json())
        assert len(res.classes) == 5
        assert (decided == []) == (base == (1,))

    def test_shift_misses_only_merge(self, monkeypatch):
        """On seeded lists with n <= 2 at tight budgets, where the
        centralizer shift misses, the classes are those of deciding every
        pair or coarser, and `unresolved` only loses pairs."""
        misses = []
        shift = sb.decision._centralizer_shift

        def recorded(*args):
            verdict = shift(*args)
            misses.append(verdict is None)
            return verdict

        for seed in range(8):
            rng = random.Random(9100 + seed)
            n, m = ((1, 2), (2, 1), (2, 2), (2, 1))[seed % 4]
            beta_A = random_word(rng, n, 3)
            cores = [random_kernel_word(rng, n, m, rng.randint(1, 3)) for _ in range(3)]
            orbits = conjugate_classes(rng, n, m, beta_A, cores, 2)
            budget = sb.Budget(1 + seed % 2, 200)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                with monkeypatch.context() as patch:
                    patch.setattr(sb.decision, "_centralizer_shift", recorded)
                    classes, inconclusive = reference_partition(n, m, beta_A, orbits, budget)
                res = sb.partition_sn_classes(n, m, beta_A, orbits, budget)
            merged = {i: cls for cls in res.classes for i in cls}
            assert all(set(cls) <= set(merged[cls[0]]) for cls in classes)
            where = {i: k for k, cls in enumerate(classes) for i in cls}
            across = {p for p in inconclusive if where[p[0]] != where[p[1]]}
            assert set(res.unresolved) <= across
        assert any(misses)

    def test_n3_computes_no_key(self, keyed):
        """n >= 3 decides its pairs as before, with no key stage: the
        classes of deciding every pair."""
        rng = random.Random(4301)
        beta_A = random_word(rng, 3, 3)
        cores = [random_kernel_word(rng, 3, 1, 2) for _ in range(2)]
        orbits = conjugate_classes(rng, 3, 1, beta_A, cores, 2)
        budget = sb.Budget(3, 2000)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            res = sb.partition_sn_classes(3, 1, beta_A, orbits, budget)
            classes, _ = reference_partition(3, 1, beta_A, orbits, budget)
        assert keyed == [] and res.classes == classes
