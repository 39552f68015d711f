"""Byte-identity of what the program prints: the output digest of a fixed
corpus (tests/output_digest.py) and the worked demos."""

import os
import pathlib
import subprocess
import sys

import output_digest

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_output_digest_matches():
    """Every verdict, witness and partition of the digest corpus hashes to
    the committed tests/output_digest.sha256."""
    *_, last = output_digest.lines()
    assert last == (ROOT / "tests" / "output_digest.sha256").read_text().strip()


def test_demos_match_expected_output():
    """Each demo, run in sorted order as its own process, prints what
    demos/expected_output.txt holds after its `== demos/<name>` line."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    got = []
    for demo in sorted((ROOT / "demos").glob("*.py")):
        proc = subprocess.run(
            [sys.executable, str(demo)], cwd=ROOT, env=env, capture_output=True, text=True
        )
        assert proc.returncode == 0, (demo.name, proc.stderr)
        got.append(f"== demos/{demo.name}\n{proc.stdout}")
    assert "".join(got) == (ROOT / "demos" / "expected_output.txt").read_text()
