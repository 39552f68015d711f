import contextlib
import io
import json
import os
import pathlib
import re
import shlex
import subprocess
import sys
import threading

import pytest
from hypothesis import given, settings, strategies as st

import snbraid as sb
from snbraid import cli

A1 = "s2 s1 s1 S2"
A2 = "s2 s2"


def run(capsys, argv):
    code = cli.run(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, argv, expect_code=0):
    code, out, _ = run(capsys, argv)
    assert code == expect_code
    return json.loads(out)


# The source tree of the snbraid under test, which every fresh process
# imports.
SRC = os.path.dirname(os.path.dirname(sb.__file__))
# Seconds a fresh process may run: a pin that slows past it fails, however
# right its output.
FRESH_TIMEOUT_S = 10


def run_fresh(*args, **env):
    """`python *args` in a fresh interpreter, so that every table starts
    cold, with `PYTHONPATH` the source tree and `env` added to the
    environment: (exit code, stdout, stderr). Fails the test when the
    process runs past `FRESH_TIMEOUT_S`."""
    try:
        proc = subprocess.run(
            [sys.executable, *args],
            env=dict(os.environ, PYTHONPATH=SRC, **env),
            capture_output=True,
            text=True,
            timeout=FRESH_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        pytest.fail(f"python {shlex.join(args)[:200]} ran past {FRESH_TIMEOUT_S} s")
    return proc.returncode, proc.stdout, proc.stderr


class TestWordCommands:
    def test_nf_half_twist(self, capsys):
        doc = run_json(capsys, ["nf", "-n", "3", "s1 s2 s1"])
        assert doc == {"n": 3, "delta_power": 1, "factors": []}

    def test_eq(self, capsys):
        doc = run_json(capsys, ["eq", "-n", "3", "s1 s2 s1", "s2 s1 s2"])
        assert doc == {"equal": True}

    def test_conj_witness_reparses_and_verifies(self, capsys):
        doc = run_json(capsys, ["conj", "-n", "3", "s1", "s2"])
        assert doc["conjugate"] is True
        c = sb.BraidWord.parse(3, doc["witness"])
        lhs = sb.compose(sb.compose(c, sb.BraidWord(3, (2,))), sb.invert(c))
        assert sb.equal(sb.BraidWord(3, (1,)), lhs)


class TestMixedCommands:
    def test_decompose(self, capsys):
        doc = run_json(capsys, ["decompose", "-n", "2", "-m", "1", "s1 s2 s2"])
        assert doc["base"] == "s1"
        assert sb.equal(
            sb.BraidWord.parse(3, doc["kernel_part"]), sb.BraidWord(3, (2, 2))
        )

    def test_act(self, capsys):
        doc = run_json(
            capsys, ["act", "-n", "2", "-m", "1", "--beta", "s1", "--gamma", A2]
        )
        got = sb.BraidWord.parse(3, doc["result"])
        assert sb.equal(got, sb.BraidWord(3, (2, 1, 1, -2)))

    def test_invariants(self, capsys):
        doc = run_json(capsys, ["invariants", "-n", "2", "-m", "1", A2])
        names = [r["name"] for r in doc["invariants"]]
        assert names == ["exponent_sum", "cycle_type", "linking_matrix"]

    def test_invariants_json_values(self, capsys):
        """Invariant values are JSON numbers and arrays, not Python reprs."""
        doc = run_json(capsys, ["invariants", "-n", "2", "-m", "1", "s1 s2 s2 s1"])
        assert doc == {
            "invariants": [
                {"name": "exponent_sum", "value": 4},
                {"name": "cycle_type", "value": [[1, 1], [1]]},
                {
                    "name": "linking_matrix",
                    "value": [
                        [["A", 1], ["A", 2], 1],
                        [["A", 1], ["o", 1], 1],
                        [["A", 2], ["o", 1], 0],
                    ],
                },
            ]
        }


class TestDecisionCommands:
    def test_sn_not_equivalent_exit_zero(self, capsys):
        code, out, _ = run(
            capsys,
            ["sn", "-n", "1", "-m", "1", "--betaA", "", "--ox", "s1 s1",
             "--oy", "s1 s1 s1 s1"],
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["status"] == "NotEquivalent"
        assert doc["certificate"]["invariant"] == "exponent_sum"

    def test_sn_twisted_matches(self, capsys):
        args = ["-n", "2", "-m", "1", "--betaA", "s1", "--ox", A2, "--oy", A2]
        doc1 = run_json(capsys, ["sn"] + args)
        doc2 = run_json(capsys, ["sn-twisted"] + args)
        assert doc1["status"] == doc2["status"] == "Equivalent"

    def test_inconclusive_exit_two(self, capsys):
        code, out, _ = run(capsys, ["sn", *DEEP, "--max-len", "1", "--max-states", "100"])
        assert code == 2
        assert json.loads(out)["status"] == "Inconclusive"

    def test_sn_no_kernel_strands(self, capsys):
        # With m = 0 the kernel is trivial and the identity already
        # conjugates beta_y to beta_x; no kernel generator is needed.
        doc = run_json(
            capsys, ["sn", "-n", "2", "-m", "0", "--betaA", "s1", "--ox", "s1 S1", "--oy", ""]
        )
        assert doc == {"status": "Equivalent", "witness": ""}

    def test_fixed(self, capsys):
        doc = run_json(
            capsys,
            ["sn", "-n", "2", "-m", "1", "--betaA", "", "--ox", A1, "--oy", A2],
        )
        assert doc["status"] == "NotEquivalent"

    def test_partition_deterministic_across_workers(self, capsys, tmp_path):
        f = tmp_path / "orbits.txt"
        f.write_text(f"{A2}\n# comment line\n{A1}\n{A2} {A2}\n")
        outs = []
        for workers in ("1", "4"):
            code, out, _ = run(
                capsys,
                ["partition", "-n", "2", "-m", "1", "--betaA", "",
                 "--file", str(f), "--workers", workers],
            )
            assert code == 0
            outs.append(out)
        assert outs[0] == outs[1]
        doc = json.loads(outs[0])
        assert doc["classes"] == [[0], [1], [2]]

    def test_partition_workers_start_no_thread(self, capsys, tmp_path, monkeypatch):
        # --workers is accepted and ignored: no thread is started, and the
        # output is that of the same command without the flag.
        f = tmp_path / "orbits.txt"
        f.write_text("s2 s2\ns2 s1 s1 S2 s2 s2 s2 S1 S1 S2\ns2 s2 s2 s2\n")
        argv = ["partition", "-n", "2", "-m", "1", "--betaA", "", "--file", str(f)]
        _, plain, _ = run(capsys, argv)

        def refuse(self):
            raise RuntimeError("a thread was started")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        code, out, err = run(capsys, argv + ["--workers", "4"])
        assert (code, err) == (0, "")
        assert out == plain
        assert json.loads(out) == {"classes": [[0, 1], [2]], "unresolved": []}


class TestErrors:
    def test_bad_word_exit_one(self, capsys):
        code, _, err = run(capsys, ["nf", "-n", "3", "s1 sx"])
        assert code == 1
        assert "line 1" in err and "column 4" in err

    @pytest.mark.parametrize(
        "tail,message",
        [(["--oy", A2, "--max-len", "x"], "argument --max-len: invalid int value: 'x'"),
         ([], "the following arguments are required: --oy")],
    )
    def test_usage_error_exit_one(self, capsys, tail, message):
        # A usage error is an input error; exit 2 is kept for Inconclusive.
        code, out, err = run(capsys, ["sn", "-n", "2", "-m", "1", "--betaA", "", "--ox", A2] + tail)
        assert code == 1 and out == ""
        assert f"snbraid sn: error: {message}" in err

    def test_help_exit_zero(self, capsys):
        code, out, _ = run(capsys, ["sn", "--help"])
        assert code == 0
        assert "--max-len" in out

    def test_sn_commands_have_own_help(self, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "200")
        code, out, _ = run(capsys, ["--help"])
        assert code == 0
        summary = {}
        for line in out.splitlines():
            name, _, text = line.strip().partition(" ")
            if name in ("sn", "sn-twisted"):
                summary[name] = text.strip()
        assert summary["sn"] != summary["sn-twisted"]
        assert "twisted" in summary["sn-twisted"] and "twisted" not in summary["sn"]

    @pytest.mark.parametrize("command,usage", [
        ("", "[-h] {nf,eq,conj,decompose,act,sn,sn-twisted,partition,invariants} ..."),
        ("nf", "[-h] -n N word"),
        ("eq", "[-h] -n N word_a word_b"),
        ("conj", "[-h] -n N word_a word_b"),
        ("decompose", "[-h] -n N -m M word"),
        ("act", "[-h] -n N -m M --beta BETA --gamma GAMMA"),
        ("sn", "[-h] -n N -m M --betaA BETAA --ox OX --oy OY [--max-len MAX_LEN] "
               "[--max-states MAX_STATES]"),
        ("sn-twisted", "[-h] -n N -m M --betaA BETAA --ox OX --oy OY [--max-len MAX_LEN] "
                       "[--max-states MAX_STATES]"),
        ("partition", "[-h] -n N -m M --betaA BETAA --file FILE [--workers WORKERS] "
                      "[--max-len MAX_LEN] [--max-states MAX_STATES]"),
        ("invariants", "[-h] -n N -m M word"),
    ])
    def test_usage_line(self, capsys, monkeypatch, command, usage):
        """Each usage line, on one line at 200 columns: the options keep
        their order however the parser declares them."""
        monkeypatch.setenv("COLUMNS", "200")
        argv = [command, "--help"] if command else ["--help"]
        code, out, _ = run(capsys, argv)
        assert code == 0
        assert out.splitlines()[0] == " ".join(["usage: snbraid", *argv[:-1], usage])

    def test_fixed_command_is_gone(self, capsys):
        # The m = 1 case is `sn -m 1`; there is no second spelling of it.
        code, out, err = run(capsys, ["fixed", "-n", "2", "--betaA", "", "--u", A2, "--v", A2])
        assert code == 1 and out == ""
        assert "invalid choice: 'fixed'" in err

    def test_negative_block_size(self, capsys):
        code, out, err = run(capsys, ["act", "-n", "2", "-m", "-1", "--beta", "", "--gamma", ""])
        assert code == 1 and out == ""
        assert err == "error: bad block sizes (2, -1)\n"

    @pytest.mark.parametrize(
        "argv",
        [["sn", "--betaA", "s1", "--ox", "s2", "--oy", ""],
         ["sn-twisted", "--betaA", "s1", "--ox", "s2", "--oy", ""],
         ["decompose", "s2"],
         ["act", "--beta", "s1", "--gamma", "s2"],
         ["invariants", "s2"],
         ["partition", "--betaA", "s1", "--file", None]],
        ids=lambda argv: argv[0],
    )
    def test_block_sizes_checked_before_words(self, capsys, tmp_path, argv):
        # Words on n + m = 0 strands would report a letter out of range.
        f = tmp_path / "orbits.txt"
        f.write_text("s2 s2\n")
        argv = [str(f) if a is None else a for a in argv]
        code, out, err = run(capsys, argv[:1] + ["-n", "2", "-m", "-2"] + argv[1:])
        assert code == 1 and out == ""
        assert err == "error: bad block sizes (2, -2)\n"

    def test_partition_bad_block_sizes(self, capsys, tmp_path):
        # The sizes are refused before a word on n + m = 0 strands is made.
        f = tmp_path / "orbits.txt"
        f.write_text("")
        code, out, err = run(
            capsys,
            ["partition", "-n", "2", "-m", "-2", "--betaA", "s1 s1", "--file", str(f)],
        )
        assert code == 1 and out == ""
        assert err == "error: bad block sizes (2, -2)\n"

    def test_partition_missing_file(self, capsys, tmp_path):
        missing = tmp_path / "absent" / "orbits.txt"
        code, out, err = run(
            capsys,
            ["partition", "-n", "2", "-m", "1", "--betaA", "s1", "--file", str(missing)],
        )
        assert code == 1 and out == ""
        assert err.startswith("error:") and str(missing) in err

    def test_partition_bad_token_names_file_line(self, capsys, tmp_path):
        f = tmp_path / "orbits.txt"
        f.write_text(f"{A2}\n# comment line\ns2 x3\n")
        code, out, err = run(
            capsys,
            ["partition", "-n", "2", "-m", "1", "--betaA", "s1", "--file", str(f)],
        )
        assert code == 1 and out == ""
        assert "(line 3, column 4)" in err
        # A form feed is whitespace inside a line, as a file read in text
        # mode has it, so the bad token's column is its column in the
        # file's line 2; CR LF and CR end lines as LF does.
        for text, where in (
            ("S1 S2 S2 s1\ns1 s1\fs9\n", "(line 2, column 7)"),
            ("S1 S2 S2 s1\r\n\rs1 s1\fs9\r\n", "(line 3, column 7)"),
        ):
            f.write_bytes(text.encode())
            code, out, err = run(
                capsys,
                ["partition", "-n", "2", "-m", "1", "--betaA", "", "--file", str(f)],
            )
            assert code == 1 and out == ""
            assert err == f"error: letter 9 out of range for 3 strands {where}\n"
        # A file may start with a UTF-8 byte order mark, as Windows editors
        # save one, with CR LF line ends: the mark is dropped, once, and
        # lines and columns count as without it. A word argument keeps it
        # as a bad letter.
        bom = "\ufeffs2 s2\r\ns2 s1 s1 S2 s2 s2 s2 S1 S1 S2\r\ns2 s2 s2 s2\r\ns2 s2\r\n"
        argv = ["partition", "-n", "2", "-m", "1", "--betaA", "", "--file", str(f)]
        f.write_bytes(bom.encode())
        assert run_json(capsys, argv) == {"classes": [[0, 1, 3], [2]], "unresolved": []}
        f.write_bytes("\ufeffs2 s2\r\ns2 s1 x1 S2\r\n".encode())
        code, out, err = run(capsys, argv)
        assert code == 1 and out == ""
        assert err == "error: bad braid letter 'x1' (line 2, column 7)\n"
        f.write_bytes("\ufeff\ufeffs2 s2\r\n".encode())
        code, out, err = run(capsys, argv)
        assert (code, out) == (1, "")
        assert err == "error: bad braid letter '\\ufeffs2' (line 1, column 1)\n"
        code, out, err = run(capsys, ["nf", "-n", "3", "\ufeffs1"])
        assert (code, out) == (1, "")
        assert err == "error: bad braid letter '\\ufeffs1' (line 1, column 1)\n"

    @pytest.mark.parametrize(
        "text, classes",
        [("\ufeffs2 s2\r\ns2 s1 s1 S2 s2 s2 s2 S1 S1 S2\r\ns2 s2 s2 s2\r\ns2 s2\r\n",
          [[0, 1, 3], [2]]),
         ("s2 s2 # caf\u00e9\ns2 s2 s2 s2\n", [[0], [1]])],
        ids=["bom-crlf", "comment"],
    )
    def test_partition_file_is_utf8_in_any_locale(self, tmp_path, text, classes):
        # Under an ASCII locale, with neither UTF-8 mode nor locale
        # coercion, the file is still read as UTF-8 and its one leading
        # byte order mark skipped.
        f = tmp_path / "orbits.txt"
        f.write_bytes(text.encode("utf-8"))
        code, out, err = run_fresh(
            "-m", "snbraid.cli", "partition", "-n", "2", "-m", "1", "--betaA", "", "--file", str(f),
            LC_ALL="POSIX", PYTHONUTF8="0", PYTHONCOERCECLOCALE="0",
        )
        assert code == 0, err
        assert json.loads(out) == {"classes": classes, "unresolved": []}

    def test_partition_out_of_range_names_file_line(self, capsys, tmp_path):
        f = tmp_path / "orbits.txt"
        f.write_text(f"{A2}\n\n  s1 s3\n")
        code, out, err = run(
            capsys,
            ["partition", "-n", "2", "-m", "1", "--betaA", "s1", "--file", str(f)],
        )
        assert code == 1 and out == ""
        assert "letter 3 out of range for 3 strands (line 3, column 6)" in err

    @pytest.mark.parametrize("orbit", ["s1 s2", "s1 s1"])
    def test_partition_validates_a_single_orbit(self, capsys, tmp_path, orbit):
        # s1 s2 mixes the blocks; s1 s1 keeps them but projects to s1^2.
        f = tmp_path / "orbits.txt"
        f.write_text(f"# one orbit, no pair to decide\n{orbit}\n")
        code, out, err = run(
            capsys,
            ["partition", "-n", "2", "-m", "1", "--betaA", "s1", "--file", str(f)],
        )
        assert code == 1 and out == ""
        assert err.startswith("error:") and "not in the kernel" in err

    def test_out_of_range_letter(self, capsys):
        code, _, err = run(capsys, ["nf", "-n", "3", "s5"])
        assert code == 1
        assert "error:" in err

    def test_out_of_range_letter_position(self, capsys):
        code, out, err = run(capsys, ["nf", "-n", "3", "s1 s3"])
        assert code == 1 and out == ""
        assert "letter 3 out of range for 3 strands (line 1, column 4)" in err

    def test_budget_defaults(self):
        args = cli._parser().parse_args(
            ["sn", "-n", "2", "-m", "1", "--betaA", "s1", "--ox", A2, "--oy", A2]
        )
        assert cli._budget(args) == sb.Budget()

    @pytest.mark.parametrize(
        "flag,field", [("--max-len", "max_length"), ("--max-states", "max_states")]
    )
    def test_negative_budget(self, capsys, flag, field):
        code, out, err = run(
            capsys,
            ["sn", "-n", "2", "-m", "1", "--betaA", "s1", "--ox", A2, "--oy", A2, flag, "-1"],
        )
        assert code == 1 and out == ""
        assert err.startswith("error:") and field in err

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_nonpositive_workers(self, capsys, tmp_path, workers):
        f = tmp_path / "orbits.txt"
        f.write_text(f"{A2}\n{A1}\n")
        code, out, err = run(
            capsys,
            ["partition", "-n", "2", "-m", "1", "--betaA", "", "--file", str(f),
             "--workers", workers],
        )
        assert code == 1 and out == ""
        assert err.startswith("error:") and "workers" in err

    def test_closure_search_strand_limit(self, capsys):
        # The closure would conjugate each summit element by all 10! - 1
        # simple elements, 90 times the count at n = 8, so the pair is
        # refused before the closure search starts.
        code, out, err = run(capsys, ["conj", "-n", "10", "s1", "s2"])
        assert code == 1 and out == ""
        assert err.startswith("error:") and "10 strands" in err
        assert f"{sb.garside.MAX_CLOSURE_STRANDS} strands" in err

    def test_decision_strand_limit(self, capsys):
        # The decision runs the conjugacy test on the two mixed braids, here
        # on 9 strands; they pass the summit checks and miss on the circuit.
        code, out, err = run(
            capsys,
            ["sn", "-n", "8", "-m", "1", "--betaA", "S3 S4 S2 S4 s1 S1",
             "--ox", "s8 s7 s6 s6 S7 S8", "--oy", "S1 s8 S7 s6 s6 s7 S8 s1"],
        )
        assert code == 1 and out == ""
        assert err.startswith("error: conjugacy search on 9 strands is not supported")

    def test_pairs_settled_before_closure_beyond_limit(self, capsys):
        assert run_json(capsys, ["conj", "-n", "10", "s1", "S2"]) == {"conjugate": False}
        doc = run_json(capsys, ["conj", "-n", "10", "s1 s9", "s1 s9"])
        assert doc == {"conjugate": True, "witness": ""}

    def test_circuit_meet_beyond_closure_limit(self, capsys):
        # The two Coxeter elements of B_9 meet on a cycling circuit, so the
        # closure search and its strand limit are never reached.
        a, b = "s1 s2 s3 s4 s5 s6 s7 s8", "s8 s7 s6 s5 s4 s3 s2 s1"
        doc = run_json(capsys, ["conj", "-n", "9", a, b])
        assert doc["conjugate"] is True
        c = sb.BraidWord.parse(9, doc["witness"])
        lhs = sb.compose(sb.compose(c, sb.BraidWord.parse(9, b)), sb.invert(c))
        assert sb.equal(sb.BraidWord.parse(9, a), lhs)


# Every command but partition (which reads a file): whether it takes -m, its
# positional words, its word options, and whether it takes budget flags.
FUZZ_COMMANDS = {
    "nf": (False, 1, (), False),
    "eq": (False, 2, (), False),
    "conj": (False, 2, (), False),
    "decompose": (True, 1, (), False),
    "act": (True, 0, ("--beta", "--gamma"), False),
    "sn": (True, 0, ("--betaA", "--ox", "--oy"), True),
    "sn-twisted": (True, 0, ("--betaA", "--ox", "--oy"), True),
    "invariants": (True, 1, (), False),
}
# Valid letters mixed with junk: index 0, a bad token, a signed index, a
# non-ASCII digit, a comment mark and a line break.
FUZZ_TOKENS = ["s1", "S1", "s2", "S2", "s3", "S4", "2", "-1",
               "s0", "x", "s+1", "s\u0661", "#", "\n"]
POSITIONED = re.compile(r"bad braid letter|generator index 0|out of range for")


@st.composite
def cli_argv(draw):
    cmd = draw(st.sampled_from(sorted(FUZZ_COMMANDS)))
    takes_m, positional, options, budget = FUZZ_COMMANDS[cmd]
    word = st.lists(st.sampled_from(FUZZ_TOKENS), max_size=5).map(" ".join)
    flags = [("-n", draw(st.sampled_from([str(k) for k in range(-3, 6)] + ["x", ""])))]
    if takes_m:
        flags.append(("-m", draw(st.sampled_from([str(k) for k in range(-2, 4)] + ["y"]))))
    flags += [(opt, draw(word)) for opt in options]
    argv = [cmd]
    for flag, value in flags:
        if draw(st.integers(0, 7)):  # a required option is sometimes left out
            argv += [flag, value]
    argv += [draw(word) for _ in range(positional)]
    if budget:
        argv += ["--max-len", "2", "--max-states", "300"]
    return argv


def check_outcome(argv):
    """Any argv returns an exit code and raises nothing. A verdict prints
    one JSON document; an input error prints nothing on stdout and an
    `error:` line on stderr, which gives the line and column of a bad
    letter."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2), argv
    if code == 1:
        assert out == "", argv
        assert any("error:" in line for line in err.splitlines()), argv
        if POSITIONED.search(err):
            assert re.search(r"\(line \d+, column \d+\)", err), (argv, err)
    else:
        json.loads(out)


@pytest.mark.filterwarnings("ignore:.*treating it as a formal instance")
@settings(max_examples=300, derandomize=True, deadline=None)
@given(cli_argv())
def test_fuzz_error_paths(argv):
    check_outcome(argv)


# Lines of a partition file: blank, comment, junk letters, and words that
# lie in the kernel for some block sizes and not for others.
FUZZ_LINES = ["", "   ", "# a comment", "s2 s2 # loop", "s1 s1", "s1", "s1 s2",
              "S2 S2", "s3 s3", "s2 x3", "s0", "s2 s1 s1 S2"]


def kernel_lines(n, m):
    """Kernel words for blocks (n, m): loops of strand n + 1 around the
    punctures n and n - 1, and a crossing inside the orbit block."""
    lines = []
    if n >= 1 and m >= 1:
        lines += [f"s{n} s{n}", f"S{n} S{n}", f"s{n} s{n} s{n} s{n}"]
    if n >= 2 and m >= 1:
        lines.append(f"s{n} s{n - 1} s{n - 1} S{n}")
    if m >= 2:
        lines += [f"s{n + 1}", f"s{n + 1} s{n + 1}"]
    return lines or [""]


@st.composite
def partition_argv(draw, path):
    """argv for `partition` on a file at `path`, written here unless the
    file is to be missing. Half the examples are well-formed, with block
    sizes of at least 1, a base word in B_n, one or two workers and a file
    of kernel words, so that whole partitions run as well as every error
    path."""
    if draw(st.booleans()):
        n, m = draw(st.integers(1, 3)), draw(st.integers(1, 2))
        base = [f"s{i}" for i in range(1, n)] + [f"S{i}" for i in range(1, n)]
        word = st.lists(st.sampled_from(base or [""]), max_size=3).map(" ".join)
        kind, line, workers = "lines", st.sampled_from(kernel_lines(n, m)), [1, 2]
    else:
        n, m = draw(st.integers(-2, 3)), draw(st.integers(-2, 2))
        word = st.lists(st.sampled_from(FUZZ_TOKENS), max_size=4).map(" ".join)
        kind = draw(st.sampled_from(["lines", "empty", "comment", "missing"]))
        line = st.one_of(st.sampled_from(kernel_lines(n, m)), st.sampled_from(FUZZ_LINES))
        workers = [-1, 0, 1, 2]
    if kind == "missing":
        path.unlink(missing_ok=True)
    else:
        lines = {"empty": [], "comment": ["# nothing but comments", "#"]}.get(kind)
        if lines is None:
            lines = draw(st.lists(line, max_size=5))
        path.write_text("".join(line + "\n" for line in lines))
    return ["partition", "-n", str(n), "-m", str(m), "--betaA", draw(word),
            "--file", str(path), "--workers", str(draw(st.sampled_from(workers))),
            "--max-len", "2", "--max-states", "300"]


@pytest.mark.filterwarnings("ignore:.*treating it as a formal instance")
@settings(max_examples=200, derandomize=True, deadline=None)
@given(data=st.data())
def test_fuzz_partition(tmp_path_factory, data):
    path = tmp_path_factory.getbasetemp() / "fuzz_partition_orbits.txt"
    check_outcome(data.draw(partition_argv(path)))


def test_cli_start_imports_only_standard_library():
    # The command line must stay quick to start: running it may load
    # snbraid and standard-library modules, nothing else (no third-party
    # algebra package, say), beyond what the bare interpreter loaded.
    script = (
        "import runpy, sys\n"
        "def tops():\n"
        "    return {m.split('.')[0] for m in sys.modules}\n"
        "before = tops()\n"
        "sys.argv = ['snbraid', 'nf', '-n', '3', 's1 s2 s1']\n"
        "try:\n"
        "    runpy.run_module('snbraid.cli', run_name='__main__')\n"
        "except SystemExit as exc:\n"
        "    assert exc.code == 0, exc.code\n"
        "print(sorted(tops() - before - sys.stdlib_module_names - {'snbraid'}))\n"
    )
    code, out, err = run_fresh("-c", script)
    assert code == 0, err
    out = out.splitlines()
    assert json.loads("\n".join(out[:-1])) == {"n": 3, "delta_power": 1, "factors": []}
    assert out[-1] == "[]"


class TestParserReused:
    """One parser per process: built on the first `run`, not at import,
    and reused by every later `run`, after errors and help too."""

    def test_not_built_at_import(self):
        code, out, err = run_fresh("-c", "from snbraid import cli; print(cli._parser.cache_info().misses)")
        assert (code, out) == (0, "0\n"), err

    def test_same_outcomes_as_fresh_parsers(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setenv("COLUMNS", "100")
        f = tmp_path / "orbits.txt"
        f.write_text("s2 s2\ns2 s1 s1 S2 s2 s2 s2 S1 S1 S2\ns2 s2 s2 s2\n")
        sequence = [
            ["sn", "-n", "2", "-m", "1", "--betaA", "", "--ox", A2],
            ["partition", "--help"],
            ["partition", "-n", "2", "-m", "1", "--betaA", "", "--file", str(f)],
            ["partition", "-n", "2", "-m", "-2", "--betaA", "s1 s1", "--file", str(f)],
            ["sn", "-n", "1", "-m", "1", "--betaA", "", "--ox", "s1 s1", "--oy", "s1 s1 s1 s1"],
        ]
        # The uncached builder makes a fresh parser on every `run`.
        with monkeypatch.context() as patch:
            patch.setattr(cli, "_parser", cli._parser.__wrapped__)
            fresh = [run(capsys, argv) for argv in sequence]
        assert [code for code, _, _ in fresh] == [1, 0, 0, 1, 0]
        assert "the following arguments are required: --oy" in fresh[0][2]
        assert fresh[3][2] == "error: bad block sizes (2, -2)\n"

        cli._parser.cache_clear()
        assert [run(capsys, argv) for argv in sequence * 2] == fresh * 2
        assert cli._parser.cache_info().misses == 1


# The 200-letter word of the `nf -n 5` console pin, where the tables are
# built whole in a fresh process.
NF5_WORD = (
    "s2 s2 S1 S2 s4 S4 S2 s1 S4 S1 S4 s4 S1 s2 S4 s2 S4 s2 S1 s2 s3 s4 S3 S2 s2 "
    "S3 S1 S3 s2 s3 s1 S3 s3 S1 S3 S1 s1 S2 S4 s1 s4 s3 S1 s1 S1 S2 s4 s4 s1 S3 "
    "s4 s2 s1 S4 s1 s1 s1 S4 s1 s2 s4 s4 s3 S2 S1 s1 S1 s2 S2 S1 s2 S4 s2 S3 S1 "
    "s4 s4 s1 S2 S2 s4 S2 S3 S4 s4 S4 S2 S4 S2 s4 S2 s1 s1 S3 S1 S2 S4 S4 s3 s2 "
    "S3 s2 S3 S1 s3 S3 S4 S2 S2 S1 s1 S2 s2 s2 S1 S1 S2 s1 s2 S2 S2 S1 s3 S2 s4 "
    "S1 s1 s2 S2 S3 S2 S2 s2 S2 s4 S3 S2 s3 s3 s2 S2 S2 s3 s4 s1 S2 s2 s2 s4 s1 "
    "S4 s1 S1 S1 S2 S3 s2 s1 s4 s1 s1 S1 S1 s2 S4 S4 S4 S2 S3 S1 S4 S4 s2 S3 S3 "
    "s4 s3 S1 s1 S4 s2 s4 s1 S4 s1 S2 S3 s1 s1 s1 S3 s3 s4 s4 S2 S1 S2 S4 s4 s4"
)
# The 200-letter word of the `nf -n 6` console pin, where the
# left-weighting table fills from permutations as it is read in a fresh
# process.
NF6_WORD = (
    "S3 S5 s5 S4 s1 s4 S3 s4 s5 S2 s2 s4 S5 S5 S3 s2 S4 S3 S5 S4 s5 S1 S3 S3 s3 "
    "S5 s4 S4 s5 S3 S2 S1 S1 s4 S2 s3 S1 S3 s5 S1 S1 s4 s1 s2 s1 s1 S1 S4 S2 s5 "
    "s3 s1 S5 s2 S1 S4 s2 s1 s4 s1 S4 s2 s4 s5 S3 s4 S4 S5 s4 s5 S2 s4 s5 S4 S1 "
    "s3 s2 s5 s2 s3 s3 s3 s2 s3 s3 s4 s1 S5 S1 S1 S1 S2 s1 s3 S3 S3 S3 S4 s3 s1 "
    "S5 s5 S2 S4 s2 S2 S4 s5 S1 s2 s3 s3 S5 s5 S2 S2 s2 s3 S1 S4 S1 s5 S3 s5 s2 "
    "s1 s5 S2 s3 S5 s1 s2 s5 s4 s5 S4 S5 S3 s3 S1 S1 s3 s1 S5 S2 s2 S3 S2 s3 s5 "
    "s2 s2 s5 s5 S1 s4 s5 S1 S3 S2 s5 S3 s4 S5 S4 s3 s2 s4 s1 s5 s5 s5 s1 S5 s3 "
    "s1 s3 S3 s2 S4 S2 s4 s1 s3 s4 S5 S3 s3 S1 s5 s2 S4 S1 s3 S1 s3 s2 S5 s2 s3"
)
# The `deep` instance, also read by `test_inconclusive_exit_two`: its
# console pins fix the kernel search's order and its state count at a
# small budget, and its witness. Its ambient conjugator moves a puncture
# strand to the orbit strand's position, which no power of Delta^2 or
# beta_y moves back, so the centralizer shift misses and the search runs.
DEEP = [
    "-n", "2", "-m", "1", "--betaA", "",
    "--ox", "s1 s1 S2 S2 S2 S1 S1 s2 s2 s1 s1 s2 s2 s2 S1 S1", "--oy", "s2 s2",
]
# An n = 3 instance whose base s1 S2 s1 acts on the free kernel F_3: its
# console pins fix the kernel search on free words, at a state budget that
# cuts level 3 and at the default budget.
FREE_N3 = [
    "-n", "3", "-m", "1", "--betaA", "s1 S2 s1",
    "--ox", "S1 s2 S1 s3 s2 S1 S1 S2 S2 S2 s3 s3 s2 S1 S1 S2 S3 s1 S2 s1 s3 S2 S2 S2 s1 s1 S2 "
    "S3 S3 s2 s2 s2 s1 s1 S2 S3",
    "--oy", "s3 S2 S2 S2 S2 S3",
]


def sn_both(name, argv, code, doc):
    """One console pin under `sn` and under `sn-twisted`, which run one
    decision and so print one output."""
    return [(f"{cmd}-{name}", [cmd, *argv], code, doc) for cmd in ("sn", "sn-twisted")]


# The console pins: each entry is (id, argv, exit code, whole JSON output)
# of one `snbraid` command, the exit code 0 for a verdict and 2 for
# Inconclusive. `TestConsolePins` runs each once, as `python -m snbraid.cli`
# in a fresh process that must finish within `FRESH_TIMEOUT_S`.
CONSOLE_PINS = [
    ("nf-3-strands", ["nf", "-n", "3", "s1 s2 s1"], 0, {"n": 3, "delta_power": 1, "factors": []}),
    # The README example.
    ("conj-3-strands", ["conj", "-n", "3", "s1", "s2"], 0,
     {"conjugate": True, "witness": "s1 s2 s1"}),
    # Refuted from one summit: the words agree in exponent sum and cycle
    # type, and the second form's summit has a smaller infimum than the
    # first form's Delta power, so the first summit is never walked. The
    # rigid first-element meet is pinned by conj-3-strands: sigma_1 is
    # rigid and is tau(sigma_2), so the witness is Delta = s1 s2 s1.
    ("conj-3-strands-one-summit", ["conj", "-n", "3", "S2 s1", "s2 S1 s2 S1"], 0,
     {"conjugate": False}),
    # The second form's Delta power is odd: its summit walk twists the
    # factors it moves and absorbs a Delta.
    (
        "conj-5-strands",
        ["conj", "-n", "5", "S4 S4 S2 s3 s1 s1", "s2 S4 s1 s2 S4 S4 S2 s3 s1 s1 S2 S1 s4 S2"],
        0,
        {"conjugate": True, "witness": "s1 s2 s3 s2 s1 s4 s3 s2 s2 s1 s3 s4 s3 s1 s2 s3 s2 s4"},
    ),
    # The second form's summit walk stops at a rigid element on the inverse
    # side, and returns that element's inverse.
    (
        "conj-4-strands-rigid-inverse",
        ["conj", "-n", "4", "S3 s1 S3 s2 s1", "s1 S3 s1 S3 s2"],
        0,
        {"conjugate": True, "witness": "S2 S1 S2 S1 S1 S2 S3 S1 S2 S2 S3 S1 S2 S1"},
    ),
    # Factor ranks above 2^63.
    (
        "nf-21-strands",
        ["nf", "-n", "21", "S9 S7 s3 S18 S9 S13 s8 s16 s19 s20 S14 s15 S1 S9 s20 S20"],
        0,
        {
            "n": 21,
            "delta_power": -3,
            "factors": [
                [21, 20, 19, 18, 17, 16, 15, 14, 13, 12, 11, 9, 10, 8, 7, 6, 5, 4, 3, 2, 1],
                [21, 20, 19, 18, 17, 16, 15, 14, 12, 13, 11, 10, 9, 8, 7, 6, 5, 4, 3, 2, 1],
                [21, 20, 18, 19, 17, 16, 14, 13, 15, 12, 11, 8, 10, 7, 9, 6, 5, 4, 3, 1, 2],
                [1, 2, 4, 3, 5, 6, 7, 9, 10, 8, 11, 12, 13, 14, 16, 17, 15, 18, 21, 19, 20],
            ],
        },
    ),
    # Through the ultra summit closure, in its breadth-first order; the memo
    # tables of 6 strands fill as they are read.
    (
        "conj-6-strands-closure",
        ["conj", "-n", "6", "S1 S3 s4 s5 S4 s3 S4 S4 s3 s1 S5 S4 s3 s1", "S4 s3 S4 S4 S5 s5 s3 s1"],
        0,
        {"conjugate": True, "witness": "S3 s4 s5"},
    ),
    # Through the closure on 8 strands, which conjugates by rank.
    (
        "conj-8-strands-closure",
        [
            "conj", "-n", "8",
            "S6 S2 s3 S1 S3 s6 S7 S3 S2 S1 s2 S7 S3 S6 S6 s3 s1 S3 s2 s6",
            "S7 S3 S2 S1 s2 S7 S3 S6",
        ],
        0,
        {
            "conjugate": True,
            "witness": "S4 S5 S6 S7 S2 S3 S4 S5 S6 S2 S3 S4 S5 S1 S2 S3 S4 S3 S1 s7",
        },
    ),
    # Seeded: with rng = random.Random(21), a random word w of 8 strands
    # and a conjugate g w g^-1 of it, g random too. The pair meets only in
    # the closure, whose normalizations fill the left-weighting rows of 8
    # strands, shared bound and all, in about 0.5 s from a cold process.
    (
        "conj-8-strands-closure-seeded",
        [
            "conj", "-n", "8",
            "S1 s7 s2 s4 S6 S6 S4 s5 s7 s1 S4 S2 S7 s1",
            "S6 S6 S4 s7 S7 s5 s7 s1",
        ],
        0,
        {"conjugate": True, "witness": "S1 s2 s4 s7"},
    ),
    # Through the kernel search: the ambient conjugator moves a puncture
    # strand onto the orbit strand, so the centralizer shift misses.
    *sn_both(
        "kernel-search",
        [
            "-n", "2", "-m", "1", "--betaA", "s1 s1",
            "--ox", "S2 s1 s1 S2 s1 s1 s2 s2 s2 s2 S1 S1", "--oy", "s2 s2 s2 s1 s1 S2",
            "--max-len", "5", "--max-states", "20000",
        ],
        0,
        {"status": "Equivalent", "witness": "S2 S1 S1 S2 S2 s1 s1 S2"},
    ),
    # Instance 304 of the seed-1 sn-ambient benchmark corpus at its budget,
    # also the README's `sn` example: the kernel search ran it out, and the
    # centralizer shift decides it.
    *sn_both(
        "shifted",
        [
            "-n", "2", "-m", "1", "--betaA", "s1 s1 s1",
            "--ox", "s2 s1 s1 S2 s1 s1 s1 s2 s2 S1 S1 S1", "--oy", "s2 s2 s2 s1 s1 S2",
            "--max-len", "5", "--max-states", "20000",
        ],
        0,
        {"status": "Equivalent", "witness": "S2 S1 S1 S2 S2 S1 S1 s2 s2 s1 s1 s2"},
    ),
    # Two orbit words of one braid: the mixed braids have equal canonical
    # forms, which settle the decision before any screen, with the identity.
    *sn_both(
        "equal-forms",
        ["-n", "2", "-m", "1", "--betaA", "s1", "--ox", "s2 s2 s1 S1", "--oy", "s2 s2"],
        0,
        {"status": "Equivalent", "witness": ""},
    ),
    # No kernel strands: the witness is multiplied out of the ambient path.
    *sn_both(
        "no-kernel-strands",
        ["-n", "0", "-m", "4", "--betaA", "", "--ox", "s1 s2 s3", "--oy", "s3 s2 s1"],
        0,
        {"status": "Equivalent", "witness": "s1 s2 s1 s3 s2 s1"},
    ),
    *sn_both(
        "deep-state-budget",
        [*DEEP, "--max-len", "8", "--max-states", "10"],
        2,
        {"status": "Inconclusive", "budget": {"max_len": 3, "states": 11}},
    ),
    *sn_both(
        "deep-default-budget",
        DEEP,
        0,
        {"status": "Equivalent", "witness": "S2 S1 S1 S2 S2 S2 S2 S1 S1 S2"},
    ),
    *sn_both(
        "free-n3-state-budget",
        [*FREE_N3, "--max-states", "30"],
        2,
        {"status": "Inconclusive", "budget": {"max_len": 3, "states": 31}},
    ),
    *sn_both(
        "free-n3-default-budget",
        FREE_N3,
        0,
        {"status": "Equivalent", "witness": "s3 s2 S1 S1 S2 S2 S2 s3 s3 s2 S1 S1 S2 S3"},
    ),
    # The guard instance: the orbit beta^24 A_1 beta^-24, beta = s1 S2, has
    # about 2.6^24 letters in F_3, so its conversion stops at the bound and
    # the search runs on Garside states, in bounded time and memory; pins
    # the state count.
    *sn_both(
        "free-guard",
        [
            "-n", "3", "-m", "1", "--betaA", "",
            "--ox", " ".join(["s1 S2"] * 24 + ["s3 s2 s1 s1 S2 S3"] + ["s2 S1"] * 24),
            "--oy", "s3 s2 s1 s1 S2 S3",
        ],
        2,
        {"status": "Inconclusive", "budget": {"max_len": 8, "states": 1563}},
    ),
    # A formal instance: the linking matrix certifies what the cycle type did.
    (
        "sn-formal-linking-matrix",
        ["sn", "-n", "1", "-m", "3", "--betaA", "", "--ox", "s2 s3", "--oy", "s1 s1"],
        0,
        {
            "status": "NotEquivalent",
            "certificate": {
                "invariant": "linking_matrix",
                "lhs": [[["A", 1], ["o", 3], 0]],
                "rhs": [
                    [["A", 1], ["o", 1], 0], [["A", 1], ["o", 1], 0], [["A", 1], ["o", 1], 1],
                    [["o", 1], ["o", 1], 0], [["o", 1], ["o", 1], 0], [["o", 1], ["o", 1], 0],
                ],
            },
        },
    ),
    # The README example: the projection reads the base, and the kernel
    # part is what is left.
    ("decompose-readme", ["decompose", "-n", "2", "-m", "1", "s1 s2 s2"], 0,
     {"base": "s1", "kernel_part": "s2 s2"}),
    # The loop around the second puncture, moved to the first by s1.
    ("act-loop", ["act", "-n", "2", "-m", "1", "--beta", "s1", "--gamma", "s2 s2"], 0,
     {"result": "S1 s2 s2 s1"}),
    # gamma's projection s1 S1 has letters: its kernel test normalizes it.
    (
        "act-normalized-projection",
        ["act", "-n", "3", "-m", "1", "--beta", "s1 S2", "--gamma", "s1 s3 s2 s1 s1 S2 S3 S1"],
        0,
        {"result": "s2 s3 s2 s1 s1 S2 S3 S2"},
    ),
    # Ranks only the letters the word uses.
    (
        "nf-2000-strands",
        ["nf", "-n", "2000", "s1"],
        0,
        {"n": 2000, "delta_power": 0, "factors": [[2, 1, *range(3, 2001)]]},
    ),
    # Builds the complete rank tables of 5 strands.
    (
        "nf-5-strands-200-letters",
        ["nf", "-n", "5", NF5_WORD],
        0,
        {
            "n": 5,
            "delta_power": -18,
            "factors": [
                [5, 4, 3, 1, 2], [4, 5, 2, 1, 3], [4, 3, 5, 1, 2], [4, 5, 2, 1, 3],
                [2, 1, 5, 3, 4], [2, 1, 3, 5, 4], [2, 1, 3, 4, 5], [2, 1, 3, 4, 5],
                [5, 1, 2, 3, 4], [1, 2, 4, 5, 3], [1, 3, 5, 2, 4], [1, 3, 2, 5, 4],
                [2, 5, 1, 3, 4], [2, 1, 4, 5, 3], [5, 2, 4, 1, 3], [1, 2, 4, 3, 5],
                [1, 3, 4, 2, 5], [2, 4, 1, 3, 5], [5, 2, 4, 1, 3], [2, 1, 4, 3, 5],
                [4, 3, 5, 1, 2], [1, 5, 4, 2, 3], [2, 4, 5, 3, 1], [1, 4, 5, 2, 3],
                [1, 3, 5, 2, 4], [3, 5, 2, 4, 1], [5, 3, 1, 2, 4], [1, 2, 3, 5, 4],
                [1, 2, 4, 5, 3], [2, 4, 5, 1, 3], [1, 3, 4, 2, 5], [2, 4, 1, 3, 5],
                [5, 2, 4, 1, 3], [5, 2, 4, 3, 1], [5, 1, 4, 3, 2], [3, 4, 1, 2, 5],
                [3, 5, 1, 2, 4], [1, 5, 2, 4, 3], [1, 3, 5, 2, 4], [1, 3, 2, 5, 4],
                [1, 3, 2, 5, 4],
            ],
        },
    ),
    # Fills the left-weighting memo of 6 strands from permutations.
    (
        "nf-6-strands-200-letters",
        ["nf", "-n", "6", NF6_WORD],
        0,
        {
            "n": 6,
            "delta_power": -19,
            "factors": [
                [6, 5, 3, 4, 2, 1], [6, 5, 3, 4, 2, 1], [4, 3, 2, 6, 5, 1], [6, 4, 5, 2, 3, 1],
                [6, 4, 5, 2, 3, 1], [5, 4, 6, 2, 3, 1], [6, 3, 5, 2, 1, 4], [6, 5, 1, 4, 3, 2],
                [2, 5, 6, 4, 1, 3], [2, 1, 3, 6, 4, 5], [1, 2, 4, 5, 6, 3], [2, 3, 6, 1, 4, 5],
                [3, 1, 2, 5, 6, 4], [5, 6, 2, 4, 1, 3], [5, 2, 3, 1, 4, 6], [5, 1, 2, 4, 3, 6],
                [2, 4, 6, 5, 1, 3], [6, 1, 3, 2, 5, 4], [5, 6, 2, 4, 3, 1], [6, 3, 5, 2, 1, 4],
                [6, 4, 1, 3, 2, 5], [4, 5, 3, 2, 6, 1], [6, 1, 4, 2, 3, 5], [2, 4, 5, 1, 3, 6],
                [3, 2, 5, 1, 4, 6], [6, 5, 2, 4, 1, 3], [6, 2, 5, 4, 3, 1], [4, 3, 6, 2, 1, 5],
                [4, 6, 2, 3, 5, 1], [5, 2, 6, 1, 4, 3], [4, 3, 6, 2, 1, 5], [6, 5, 4, 2, 3, 1],
                [4, 2, 3, 1, 5, 6], [4, 1, 2, 3, 5, 6], [1, 3, 4, 2, 5, 6], [1, 4, 2, 3, 5, 6],
            ],
        },
    ),
    # On 2 strands every letter's factor is Delta or the identity, inputs
    # that only `_normalize` pushes.
    ("nf-2-strands", ["nf", "-n", "2", "s1 S1 S1 s1 s1 s1"], 0,
     {"n": 2, "delta_power": 2, "factors": []}),
    # Reads the letter's permutation back without unranking.
    (
        "nf-100000-strands",
        ["nf", "-n", "100000", "s1"],
        0,
        {"n": 100000, "delta_power": 0, "factors": [[2, 1, *range(3, 100001)]]},
    ),
]


# The partition pins: each entry is (id, n, m, beta_A, the text of the
# orbit file, its classes) of one `snbraid partition` run, whose whole JSON
# output is the classes and no unresolved pair. `TestPartitionPins` writes
# each text to a file and runs the pin once, as `python -m snbraid.cli` in a
# fresh process that must finish within `FRESH_TIMEOUT_S`.
PARTITION_PINS = [
    # The README example plus a repeated orbit.
    ("readme", 2, 1, "", "s2 s2\ns2 s1 s1 S2 s2 s2 s2 S1 S1 S2\ns2 s2 s2 s2\ns2 s2\n",
     [[0, 1, 3], [2]]),
    # The README list again, written with a UTF-8 byte order mark and CR LF
    # line ends.
    ("readme-bom-crlf", 2, 1, "",
     "\ufeffs2 s2\r\ns2 s1 s1 S2 s2 s2 s2 S1 S1 S2\r\ns2 s2 s2 s2\r\ns2 s2\r\n",
     [[0, 1, 3], [2]]),
    # One list each over an odd (s1) and an even (s1 s1) exponent sum of
    # beta_A.
    ("betaA-s1", 2, 1, "s1",
     "s2 s2\ns2 s2 s2 s2\nS1 s2 s2 s1\nS1 S2 S2 s1 s2 s2 s2 s2 s2 s2\n"
     "S1 S2 S2 s1 s2 s2 s2 s2\nS1 s2 s2 s1 s2 s2\n",
     [[0, 2, 4], [1, 3, 5]]),
    ("betaA-s1s1", 2, 1, "s1 s1",
     "s2 s2\ns2 s2 s2 s2\nS1 S1 s2 s2 s1 s1\nS1 S1 S2 S2 s1 s1 s2 s2 s2 s2 s2 s2\n"
     "S1 S1 S2 S2 s1 s1 s2 s2 s2 s2\nS1 S1 s2 s2 s1 s1 s2 s2\n",
     [[0, 2, 4], [1, 3, 5]]),
    # Over beta_A s1, anchor keys merge a one-factor rigid summit with odd
    # Delta power by its tau-image, and a bare Delta power, read off their
    # factors with no circuit walk.
    ("betaA-s1-rigid", 2, 1, "s1",
     "s2 s1 s1 S2 s2 s1 s1 S2\ns2 s2\nS1 s2 s1 s1 S2 s1 s2 s1 s1 S2\nS2 S2\n"
     "S1 s2 s2 s1\nS1 S2 S2 s1\n",
     [[0, 2], [1, 4], [3, 5]]),
    # n = 1 and n = 0, whose anchor keys merge every pair, three of them by
    # tau-image anchors.
    ("n1", 1, 2, "",
     "s2\ns1 s1 s2\ns2 s1 s1\nS1 S1 s2 s1 s1\ns2 s2 s2\ns1 s1 s2 S1 S1\n"
     "S2 s1 s1 s2 s2\ns2 S1 S1\n",
     [[0, 3, 5], [1, 2, 6], [4], [7]]),
    ("n0", 0, 3, "",
     "s1 s2\ns2 s1\ns1 s1 s1 s2\ns2 s2 s2 s1\nS1 s2\ns1 s2 s1 s1 S1 S1\n"
     "s1 s2 s1 s2\ns2 s1 s2 s1\n",
     [[0, 1, 5], [2, 3, 6, 7], [4]]),
]


class TestPartitionPins:
    """Every entry of `PARTITION_PINS`, its text written to a file as
    UTF-8, run once in a fresh process: the exit code and the whole JSON."""

    @pytest.mark.parametrize(
        "n, m, beta_A, text, classes",
        [pytest.param(*pin, id=f"plain-{pin_id}") for pin_id, *pin in PARTITION_PINS],
    )
    def test_pin(self, tmp_path, n, m, beta_A, text, classes):
        f = tmp_path / "orbits.txt"
        f.write_bytes(text.encode("utf-8"))
        code, out, err = run_fresh(
            "-m", "snbraid.cli", "partition", "-n", str(n), "-m", str(m), "--betaA", beta_A,
            "--file", str(f),
        )
        assert code == 0, err
        assert json.loads(out) == {"classes": classes, "unresolved": []}


class TestConsolePins:
    """Every entry of `CONSOLE_PINS`, run once in a fresh process, so that
    every rank table starts cold: the exit code and the whole JSON."""

    @pytest.mark.parametrize(
        "argv, code, doc",
        [pytest.param(argv, code, doc, id=pin_id) for pin_id, argv, code, doc in CONSOLE_PINS],
    )
    def test_pin(self, argv, code, doc):
        got, out, err = run_fresh("-m", "snbraid.cli", *argv)
        assert got == code, err
        assert json.loads(out) == doc


# A 300-letter word on 15 + 15 strands. The `invariants` command reports
# no Burau polynomial, whose cost has no bound, so on this word it reports
# the three invariants of one pass each within `FRESH_TIMEOUT_S`.
INVARIANTS_30_WORD = (
    "s21 S17 s20 S4 s20 s15 s15 S15 S15 S22 s20 s27 S27 s26 s20 s25 s21 S23 s8 S28 "
    "S16 S26 s5 S28 s23 S15 S15 s4 s12 S7 S18 S21 S15 S15 s18 s10 s15 s15 s7 S2 "
    "S10 S29 S28 s10 S7 s10 s24 s15 s15 S28 S28 S20 s7 S22 S11 S9 s7 s23 s21 s5 "
    "s4 S9 s15 s15 S26 S12 s4 s7 s7 s3 S7 S17 S26 s7 s17 S15 S15 S9 S16 S7 "
    "s17 s15 s15 s22 s11 S2 S17 s27 s13 s19 s16 s11 S10 S6 s16 S15 S15 s19 s20 S14 "
    "s11 s29 s16 S19 S4 s15 s15 S15 S15 S2 S14 s1 s22 S19 s27 S27 S13 S23 S27 s3 "
    "S1 s15 s15 s15 s15 S19 s11 s25 S3 s18 s22 S4 S3 s12 S13 s10 s15 s15 S20 S19 "
    "s17 s9 S13 S1 s22 s19 s15 s15 s28 s8 s1 S10 S15 S15 S12 S10 S15 S15 S16 S8 "
    "s9 S21 S15 S15 s23 s16 s8 S15 S15 s1 s24 s24 S27 s14 S10 s6 S2 S4 S7 s26 "
    "S22 S19 S16 s13 S23 s16 S29 S15 S15 s26 s13 s8 s7 S19 S16 S27 s14 s21 S5 s12 "
    "S27 s2 S23 S26 S16 s6 s1 s15 s15 s19 s21 s3 S8 s28 S9 S26 s22 s25 S18 s18 "
    "s20 S15 S15 S3 S16 S4 s8 s6 s5 s6 S16 S13 s12 S14 s23 S18 s23 S17 s26 s17 "
    "s18 S25 S24 S18 S9 s15 s15 S5 S19 S13 S6 S23 S27 S29 s28 s19 s12 s15 s15 s9 "
    "s3 s4 s24 S22 s16 s7 s5 S13 s15 s15 S6 S5 s18 s17 S16 s16 S9 S15 S15 S17 "
    "s14 S1 s19 s24 s3 s21 s13 s15 s15 s21 S10 S24 S11 s7 s29 S9 S19 S18 S4 S19"
)


def test_invariants_on_30_strands_report_no_burau():
    code, out, err = run_fresh("-m", "snbraid.cli", "invariants", "-n", "15", "-m", "15",
                               INVARIANTS_30_WORD)
    assert code == 0, err
    names = [report["name"] for report in json.loads(out)["invariants"]]
    assert names == ["exponent_sum", "cycle_type", "linking_matrix"]


def readme_examples():
    """Each `snbraid ...` line of README.md that is followed by its output,
    a `# {...}` line, and reads no file: (argv, the output's JSON)."""
    readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
    lines = readme.read_text(encoding="utf-8").splitlines()
    return [
        pytest.param(shlex.split(line)[1:], json.loads(doc[1:]), id=line.split()[1])
        for line, doc in zip(lines, lines[1:])
        if line.startswith("snbraid ") and doc.startswith("# {") and "--file" not in line
    ]


@pytest.mark.parametrize("argv, doc", readme_examples())
def test_readme_example(argv, doc):
    """The README shows what the command prints."""
    code, out, err = run_fresh("-m", "snbraid.cli", *argv)
    assert code == 0, err
    assert json.loads(out) == doc
