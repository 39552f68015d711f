import contextlib
import functools
import io
import os
import random

import pytest

import snbraid as sb
from snbraid import cli
from conftest import project_oracle, random_kernel_word, random_mixed, random_word


def _cli(*argv):
    """Run the command line and raise what it printed after `error: `
    as a ValueError, as the library entries raise; it must exit 1 and
    print nothing on stdout."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run([str(a) for a in argv])
    text = err.getvalue()
    assert (code, out.getvalue()) == (1, ""), text
    assert text.startswith("error: ") and text.endswith("\n"), text
    raise ValueError(text[len("error: "):-1])


def _base(n):
    return sb.BraidWord(max(n, 0), ())


def _word(n, m):
    return sb.BraidWord(max(n + m, 0), ())


# Every public entry that takes the block sizes (n, m). Base words are on
# max(n, 0) strands and words of B_{n,m} on max(n + m, 0), so that they
# exist even where a size is negative.
BLOCK_ENTRIES = {
    "section": lambda n, m: sb.section(n, m, _base(n)),
    "MixedBraid": lambda n, m: sb.MixedBraid(n, m, _word(n, m)),
    "act": lambda n, m: sb.act(_base(n), _word(n, m), m),
    "kernel_generators": sb.kernel_generators,
    "SNInstance": lambda n, m: sb.SNInstance(n, m, _base(n), _word(n, m), _word(n, m)),
    "partition_sn_classes": lambda n, m: sb.partition_sn_classes(
        n, m, _base(n), [_word(n, m), _word(n, m)]
    ),
    "cli act": lambda n, m: _cli("act", "-n", n, "-m", m, "--beta", "", "--gamma", ""),
    "cli sn": lambda n, m: _cli("sn", "-n", n, "-m", m, "--betaA", "", "--ox", "", "--oy", ""),
    "cli sn-twisted": lambda n, m: _cli(
        "sn-twisted", "-n", n, "-m", m, "--betaA", "", "--ox", "", "--oy", ""
    ),
    "cli partition": lambda n, m: _cli(
        "partition", "-n", n, "-m", m, "--betaA", "", "--file", os.devnull
    ),
    "cli decompose": lambda n, m: _cli("decompose", "-n", n, "-m", m, ""),
    "cli invariants": lambda n, m: _cli("invariants", "-n", n, "-m", m, ""),
}

NEGATIVE_SIZES = [(2, -1), (-1, 2), (0, -3), (-2, -1)]

# Each row: a call at a boundary of its input, and its exact error.
# `act` reads n off its base word, whose strand count is never negative.
BOUNDARY = [
    pytest.param(
        functools.partial(call, n, m), f"bad block sizes ({n}, {m})", id=f"{name} ({n}, {m})"
    )
    for name, call in BLOCK_ENTRIES.items()
    for n, m in NEGATIVE_SIZES
    if n >= 0 or name != "act"
] + [
    pytest.param(
        functools.partial(sb.kernel_generators, 0, 0), "bad block sizes (0, 0)",
        id="kernel_generators (0, 0)",
    ),
    pytest.param(
        functools.partial(sb.kernel_generators, 2, 0), "kernel generators need m >= 1",
        id="kernel_generators (2, 0)",
    ),
] + [
    pytest.param(
        functools.partial(sb.delete_strand, sb.BraidWord(3, (1, 2)), start),
        f"start {start} out of range for 3 strands",
        id=f"delete_strand start {start}",
    )
    for start in (0, 4)
]


@pytest.mark.parametrize("call, message", BOUNDARY)
def test_boundary_inputs_refused(call, message):
    """Each boundary input is refused with its exact message. A negative
    block size is refused as such, before any word on n + m strands is
    read, and never as a kernel error."""
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == message
    assert not isinstance(exc.value, sb.KernelMembershipError)


class TestValidation:
    def test_block_crossing_rejected(self):
        with pytest.raises(sb.BlockViolationError) as exc:
            sb.validate(2, 1, sb.BraidWord(3, (2,)))
        assert "strand 2" in str(exc.value)

    def test_even_crossing_accepted(self):
        b = sb.validate(2, 1, sb.BraidWord(3, (2, 2)))
        assert b.n == 2 and b.m == 1

    def test_internal_block_move_accepted(self):
        sb.validate(2, 1, sb.BraidWord(3, (1,)))

    def test_strand_count_checked(self):
        with pytest.raises(ValueError):
            sb.validate(2, 1, sb.BraidWord(4, (1,)))

    def test_degenerate_blocks(self):
        sb.validate(0, 2, sb.BraidWord(2, (1,)))
        sb.validate(2, 0, sb.BraidWord(2, (1,)))
        with pytest.raises(ValueError):
            sb.validate(0, 0, sb.BraidWord(0, ()))


class TestProjection:
    def test_orbit_only_crossings_vanish(self):
        b = sb.validate(2, 1, sb.BraidWord(3, (2, 2)))
        assert sb.project(b) == sb.BraidWord.identity(2)

    def test_surviving_letter_reindexed(self):
        b = sb.validate(2, 1, sb.BraidWord(3, (1, 2, 2)))
        assert sb.project(b) == sb.BraidWord(2, (1,))

    def test_section_then_project(self):
        rng = random.Random(21)
        for _ in range(100):
            n, m = rng.randint(1, 4), rng.randint(1, 3)
            beta = random_word(rng, n, 10)
            assert sb.project(sb.section(n, m, beta)) == beta

    def test_homomorphism(self):
        rng = random.Random(22)
        for _ in range(100):
            n, m = rng.randint(1, 3), rng.randint(1, 2)
            a, b = random_mixed(rng, n, m), random_mixed(rng, n, m)
            ab = sb.MixedBraid(n, m, sb.compose(a.word, b.word))
            assert sb.equal(
                sb.project(ab), sb.compose(sb.project(a), sb.project(b))
            )

    def test_one_strand_oracle(self):
        rng = random.Random(23)
        for _ in range(150):
            n, m = rng.randint(0, 3), rng.randint(1, 3)
            if n + m < 2:
                continue
            b = random_mixed(rng, n, m)
            assert sb.project(b) == project_oracle(b)


class TestSection:
    def test_letters_unchanged(self):
        s = sb.section(2, 1, sb.BraidWord(2, (1,)))
        assert s.word == sb.BraidWord(3, (1,))
        assert sb.section(2, 2, sb.BraidWord(2, ())).word == sb.BraidWord(4, ())
        assert sb.section(3, 1, sb.BraidWord(3, (1, 2))).word == sb.BraidWord(4, (1, 2))

    def test_wrong_base_count(self):
        with pytest.raises(ValueError):
            sb.section(2, 1, sb.BraidWord(3, (1,)))

    @pytest.mark.parametrize("n,m", [(2, -2), (2, -1), (-1, 2), (0, 0)])
    def test_block_sizes_checked_before_the_word(self, n, m):
        """The sizes are refused as such, not through the word on n + m
        strands that they would make."""
        beta = sb.BraidWord(max(n, 0), (1, 1) if n >= 2 else ())
        with pytest.raises(ValueError, match=rf"^bad block sizes \({n}, {m}\)$"):
            sb.section(n, m, beta)


class TestDecomposition:
    def test_mixed_example(self):
        d = sb.decompose(sb.validate(2, 1, sb.BraidWord(3, (1, 2, 2))))
        assert d.base == sb.BraidWord(2, (1,))
        assert sb.equal(d.kernel_part, sb.BraidWord(3, (2, 2)))

    def test_pure_base(self):
        d = sb.decompose(sb.validate(2, 1, sb.BraidWord(3, (1,))))
        assert d.base == sb.BraidWord(2, (1,))
        assert sb.equal(d.kernel_part, sb.BraidWord.identity(3))

    def test_pure_kernel(self):
        d = sb.decompose(sb.validate(2, 1, sb.BraidWord(3, (2, 2))))
        assert d.base == sb.BraidWord.identity(2)
        assert d.kernel_part == sb.BraidWord(3, (2, 2))

    def test_reconstruction_and_membership(self):
        rng = random.Random(24)
        for _ in range(150):
            n, m = rng.randint(0, 3), rng.randint(0, 3)
            if n + m < 1 or (n + m < 2):
                continue
            b = random_mixed(rng, n, m)
            d = sb.decompose(b)
            rebuilt = sb.compose(sb.section(n, m, d.base).word, d.kernel_part)
            assert sb.equal(rebuilt, b.word)
            assert sb.is_kernel(n, m, d.kernel_part)


class TestKernel:
    def test_permutation_condition_alone_insufficient(self):
        # fixes the base block pointwise, but projects to sigma_1^2
        assert not sb.is_kernel(2, 1, sb.BraidWord(3, (1, 1)))

    def test_one_normalization(self, monkeypatch):
        """For n <= 2 the projection is trivial exactly when its exponent
        sum is 0, and nothing is normalized. Beyond, a projected word with
        no letters is the identity and is not normalized; one with
        letters, such as that of a kernel word whose puncture letters
        cancel, is normalized once and compared with the identity's form,
        which needs no normalization of its own."""
        calls = []
        normalize = sb.garside._normalize

        def counted(n, factors):
            calls.append(n)
            return normalize(n, factors)

        monkeypatch.setattr(sb.garside, "_normalize", counted)
        rng = random.Random(25)
        for n in range(2, 5):
            for m in range(1, 3):
                # Products of the kernel generators project to no letters.
                w = random_kernel_word(rng, n, m, 6)
                calls.clear()
                assert sb.is_kernel(n, m, w)
                assert calls == []
                # Conjugating by a base braid adds puncture letters that
                # cancel in B_n.
                c = random_word(rng, n, 3)
                while not c.letters:
                    c = random_word(rng, n, 3)
                u = sb.BraidWord(n + m, c.letters + w.letters + sb.invert(c).letters)
                calls.clear()
                assert sb.is_kernel(n, m, u)
                assert calls == ([] if n <= 2 else [n])
        calls.clear()
        assert sb.is_kernel(2, 1, sb.BraidWord.parse(3, "s1 S1"))
        assert not sb.is_kernel(2, 1, sb.BraidWord(3, (1, 1)))
        assert calls == []
        assert sb.is_kernel(3, 1, sb.BraidWord.parse(4, "s1 S1"))
        assert calls == [3]
        calls.clear()
        assert not sb.is_kernel(3, 1, sb.BraidWord(4, (1, 1)))
        assert calls == [3]

    @pytest.mark.parametrize("n,m", [(2, -1), (-1, 2)])
    def test_negative_block_size(self, n, m):
        # n + m strands exist, but a negative block has no kernel. `act`
        # reads n off a base word, so only a negative m reaches it, and it
        # refuses the block sizes before any kernel test.
        assert not sb.is_kernel(n, m, sb.BraidWord(1, ()))
        if n >= 0:
            with pytest.raises(ValueError, match=rf"^bad block sizes \({n}, {m}\)$") as exc:
                sb.act(sb.BraidWord(n, ()), sb.BraidWord(1, ()), m)
            assert not isinstance(exc.value, sb.KernelMembershipError)

    def test_generators_2_1(self):
        gens = sb.kernel_generators(2, 1)
        assert [g.letters for g in gens] == [(2, 1, 1, -2), (2, 2)]

    def test_generators_n0(self):
        gens = sb.kernel_generators(0, 3)
        assert [g.letters for g in gens] == [(1,), (2,)]

    def test_generators_m1_are_loops(self):
        gens = sb.kernel_generators(3, 1)
        assert len(gens) == 3
        assert gens[-1].letters == (3, 3)

    def test_generators_pass_membership(self):
        for n in range(0, 4):
            for m in range(1, 4):
                for g in sb.kernel_generators(n, m):
                    assert sb.is_kernel(n, m, g)

    def test_m0_rejected(self):
        with pytest.raises(ValueError):
            sb.kernel_generators(2, 0)

    def test_ensure_kernel_raises(self):
        with pytest.raises(sb.KernelMembershipError):
            sb.act(sb.BraidWord(2, ()), sb.BraidWord(3, (1, 1)), 1)


class TestAction:
    def test_loop_moves_to_first_puncture(self):
        got = sb.act(sb.BraidWord(2, (1,)), sb.BraidWord(3, (2, 2)), 1)
        assert sb.equal(got, sb.BraidWord(3, (2, 1, 1, -2)))

    def test_identity_acts_trivially(self):
        gamma = sb.BraidWord(3, (2, 1, 1, -2))
        assert sb.equal(sb.act(sb.BraidWord(2, ()), gamma, 1), gamma)

    def test_homomorphism_in_gamma(self):
        rng = random.Random(25)
        for _ in range(60):
            n, m = rng.randint(1, 3), rng.randint(1, 2)
            beta = random_word(rng, n, 6)
            g1 = random_kernel_word(rng, n, m, 2)
            g2 = random_kernel_word(rng, n, m, 2)
            lhs = sb.act(beta, sb.free_reduce(sb.compose(g1, g2)), m)
            rhs = sb.compose(sb.act(beta, g1, m), sb.act(beta, g2, m))
            assert sb.equal(lhs, rhs)

    def test_anti_homomorphism_in_beta(self):
        rng = random.Random(26)
        for _ in range(60):
            n, m = rng.randint(2, 3), rng.randint(1, 2)
            b1 = random_word(rng, n, 6)
            b2 = random_word(rng, n, 6)
            gamma = random_kernel_word(rng, n, m, 2)
            lhs = sb.act(sb.compose(b1, b2), gamma, m)
            rhs = sb.act(b2, sb.act(b1, gamma, m), m)
            assert sb.equal(lhs, rhs)

    def test_normality_and_exponent(self):
        rng = random.Random(27)
        for _ in range(100):
            n, m = rng.randint(1, 3), rng.randint(1, 3)
            beta = random_word(rng, n, 8)
            gamma = random_kernel_word(rng, n, m, 3)
            out = sb.act(beta, gamma, m)
            assert sb.is_kernel(n, m, out)
            assert sb.exponent_sum(out) == sb.exponent_sum(gamma)

    def test_non_kernel_rejected(self):
        with pytest.raises(sb.KernelMembershipError):
            sb.act(sb.BraidWord(2, ()), sb.BraidWord(3, (1,)), 1)
