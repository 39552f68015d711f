"""Acceptance gate: one test per criterion, one printed PASS line each.

Run with `pytest -v` (add `-s` to see the PASS lines while running).
"""

import json
import random
import time
import warnings

import snbraid as sb
from snbraid.invariants import linking_matrix
from conftest import (
    conjugated_kernel_part,
    project_oracle,
    random_kernel_word,
    random_mixed,
    random_rewrite,
    random_word,
)


def report(criterion: int, message: str):
    print(f"ACCEPTANCE {criterion}: PASS - {message}")


def test_criterion_1_word_problem_soundness():
    rng = random.Random(1001)
    t0 = time.time()
    checked = 0
    for _ in range(1000):
        n = rng.randint(2, 7)
        w = random_word(rng, n, 40)
        reference = sb.canonical_form(w)
        v = w
        for _ in range(20):
            v = random_rewrite(rng, v)
            assert sb.canonical_form(v) == reference
            checked += 1
    elapsed = time.time() - t0
    assert elapsed < 60.0
    report(1, f"{checked} rewrites of 1000 words, all canonical forms stable, {elapsed:.1f}s")


def test_criterion_2_conjugacy_completeness():
    rng = random.Random(1002)
    for _ in range(300):
        n = rng.randint(2, 5)
        b = random_word(rng, n, 20)
        c = random_word(rng, n, 10)
        a = sb.free_reduce(sb.compose(sb.compose(c, b), sb.invert(c)))
        res = sb.is_conjugate(a, b)
        assert res.conjugate
        w = res.witness
        assert sb.equal(a, sb.compose(sb.compose(w, b), sb.invert(w)))
    for _ in range(300):
        n = rng.randint(2, 5)
        a = random_word(rng, n, 20)
        b = random_word(rng, n, 20)
        pad = sb.exponent_sum(a) - sb.exponent_sum(b)
        extra = abs(pad) + 1
        b = sb.compose(b, sb.BraidWord(n, (1,) * extra if pad <= 0 else (-1,) * extra))
        assert sb.exponent_sum(a) != sb.exponent_sum(b)
        assert not sb.is_conjugate(a, b).conjugate
    report(2, "300 constructed pairs conjugate with verified witnesses, 300 exponent-split pairs rejected")


def test_criterion_3_splitting_laws():
    rng = random.Random(1003)
    for _ in range(500):
        n, m = rng.randint(1, 4), rng.randint(1, 3)
        beta = random_word(rng, n, 12)
        assert sb.project(sb.section(n, m, beta)) == beta
    for _ in range(500):
        n, m = rng.randint(1, 3), rng.randint(1, 3)
        b = random_mixed(rng, n, m)
        d = sb.decompose(b)
        assert sb.equal(sb.compose(sb.section(n, m, d.base).word, d.kernel_part), b.word)
        assert sb.is_kernel(n, m, d.kernel_part)
    for _ in range(500):
        n, m = rng.randint(1, 3), rng.randint(1, 3)
        beta = random_word(rng, n, 8)
        gamma = random_kernel_word(rng, n, m, 3)
        assert sb.is_kernel(n, m, sb.act(beta, gamma, m))
    for _ in range(500):
        n, m = rng.randint(0, 3), rng.randint(1, 3)
        if n + m < 2:
            continue
        b = random_mixed(rng, n, m)
        assert sb.project(b) == project_oracle(b)
    report(3, "section/project, decompose, act-normality, and the deletion oracle agree on 500 instances each")


def stable_under_kernel_conjugation(inst: sb.SNInstance, name: str, rng, rounds=100):
    """The certificate's invariant must not move when beta_y is conjugated by
    kernel elements; otherwise it could not separate classes."""
    by = inst.mixed_y()
    if name == "exponent_sum":
        value = sb.exponent_sum(inst.beta_oy)
    else:
        value = linking_matrix(by)
    for _ in range(rounds):
        c = random_kernel_word(rng, inst.n, inst.m, rng.randint(1, 3))
        conj = sb.free_reduce(sb.compose(sb.compose(c, by.word), sb.invert(c)))
        mb = sb.MixedBraid(inst.n, inst.m, conj)
        if name == "exponent_sum":
            got = sb.exponent_sum(sb.decompose(mb).kernel_part)
        else:
            got = linking_matrix(mb)
        assert got == value, f"{name} moved under kernel conjugation"


def test_criterion_4_formulations_agree():
    rng = random.Random(1004)
    statuses = {"Equivalent": 0, "NotEquivalent": 0, "Inconclusive": 0}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for trial in range(200):
            n = rng.randint(1, 3)
            m = rng.randint(1, 2)
            beta_A = random_word(rng, n, 8)
            oy = random_kernel_word(rng, n, m, rng.randint(0, 3))
            if trial % 2 == 0:
                c = random_kernel_word(rng, n, m, rng.randint(1, 4))
                ox = conjugated_kernel_part(n, m, beta_A, oy, c)
            else:
                ox = random_kernel_word(rng, n, m, rng.randint(0, 3))
            inst = sb.SNInstance(n, m, beta_A, ox, oy)
            v1 = sb.sn_equivalent_rel_A(inst)
            v2 = sb.sn_equivalent_twisted(inst)
            assert v1.status == v2.status, f"formulations disagree on trial {trial}"
            statuses[v1.status] += 1
            for v in (v1, v2):
                if v.status == sb.EQUIVALENT:
                    w = v.witness
                    assert sb.is_kernel(n, m, w)
                    bx, by = inst.mixed_x().word, inst.mixed_y().word
                    assert sb.equal(bx, sb.compose(sb.compose(w, by), sb.invert(w)))
            if v1.status == sb.NOT_EQUIVALENT:
                # Every certificate kind is named here, so a new one cannot
                # skip the stability check.
                name = v1.certificate.invariant
                if name in ("exponent_sum", "linking_matrix"):
                    stable_under_kernel_conjugation(inst, name, rng)
                else:
                    assert name == f"not conjugate in B_{n + m}", name
    report(4, f"200 instances, statuses agree across both formulations: {statuses}")


def test_criterion_5_empty_invariant_set_degenerates():
    rng = random.Random(1005)
    agreements = 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for trial in range(200):
            m = rng.randint(2, 4)
            a = random_word(rng, m, 10)
            if trial % 2 == 0:
                c = random_word(rng, m, 6)
                b = sb.free_reduce(sb.compose(sb.compose(c, a), sb.invert(c)))
            else:
                b = random_word(rng, m, 10)
            inst = sb.SNInstance(0, m, sb.BraidWord(0, ()), a, b)
            v = sb.sn_equivalent_rel_A(inst)
            assert v.status != sb.INCONCLUSIVE
            assert (v.status == sb.EQUIVALENT) == sb.braid_type_equal(a, b).conjugate
            agreements += 1
    report(5, f"{agreements} pairs with empty invariant set match plain conjugacy")


def test_criterion_6_full_twist_powers():
    rng = random.Random(1006)
    for trial in range(50):
        n = 3 if trial % 2 == 0 else 4
        beta = random_word(rng, n, 12)
        for k in range(-2, 3):
            tw = sb.full_twist(n)
            block = tw.letters if k >= 0 else tuple(-x for x in reversed(tw.letters))
            a = sb.BraidWord(n, beta.letters + block * abs(k))
            if trial % 3 == 0:
                c = random_word(rng, n, 4)
                a = sb.free_reduce(sb.compose(sb.compose(c, a), sb.invert(c)))
            res, got_k = sb.conjugate_mod_full_twist(a, beta)
            assert res.conjugate and got_k == k
    tw4 = sb.full_twist(4)
    for _ in range(100):
        c = random_word(rng, 4, 12)
        assert sb.equal(sb.compose(sb.compose(c, tw4), sb.invert(c)), tw4)
    report(6, "twist powers k in -2..2 recovered on 50 braids; centrality on 100 conjugates")


def test_criterion_7_action_convention():
    got = sb.act(sb.BraidWord(2, (1,)), sb.BraidWord(3, (2, 2)), 1)
    expected = sb.BraidWord(3, (2, 1, 1, -2))
    assert sb.equal(got, expected)
    report(7, "phi_sigma1(sigma2^2) equals sigma2 sigma1^2 sigma2^-1 in the (2,1) group")


def test_criterion_8_partition_determinism():
    A1 = sb.BraidWord(3, (2, 1, 1, -2))
    A2 = sb.BraidWord(3, (2, 2))
    beta_A = sb.BraidWord(2, ())
    rng = random.Random(1008)

    def conj_copy(gamma):
        c = random_kernel_word(rng, 2, 1, rng.randint(1, 2))
        return conjugated_kernel_part(2, 1, beta_A, gamma, c)

    orbits = [
        A1, conj_copy(A1), conj_copy(A1),          # one class of three
        A2, conj_copy(A2),                          # loop around the other puncture
        sb.free_reduce(A2 * A2), conj_copy(sb.free_reduce(A2 * A2)),
        sb.free_reduce(A1 * A2), sb.free_reduce(A2 * A1),
        sb.invert(A2),                              # exponent singleton
    ]
    expected = [[0, 1, 2], [3, 4], [5, 6], [7, 8], [9]]

    docs = []
    for _ in range(5):
        res = sb.partition_sn_classes(2, 1, beta_A, orbits)
        docs.append(json.dumps(res.to_json(), sort_keys=True))
    assert all(d == docs[0] for d in docs)
    doc = json.loads(docs[0])
    assert doc["classes"] == expected
    assert doc["unresolved"] == []
    report(8, "10-element partition stable across 5 runs")
