"""
Command-line surface: one JSON document per invocation on standard output.

Exit codes: 0 for any computed verdict (including NotEquivalent), 2 for an
Inconclusive verdict, 1 for input errors, usage errors included. `run`
returns the code, after a usage error or `--help` too, and `main` exits
with it. Braid words use the text grammar of `snbraid.words` and are
echoed back in the canonical `s<k>`/`S<k>` spelling.

The argument parser is built once per process, on the first `run`, and
every later `run` reuses it: parsing keeps no state on the parser, and
help and usage text are formatted at the width of the call that prints
them.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import decision, garside, invariants, mixed
from .words import BraidWord, _words


def _add_budget_flags(p: argparse.ArgumentParser):
    p.add_argument("--max-len", type=int, default=decision.Budget.max_length,
                   help="max kernel-conjugator generator length")
    p.add_argument("--max-states", type=int, default=decision.Budget.max_states,
                   help="max kernel-search states, both sides counted")


def _budget(args) -> decision.Budget:
    return decision.Budget(args.max_len, args.max_states)


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, made once (see the module docstring)."""
    parser = argparse.ArgumentParser(
        prog="snbraid",
        description="Exact braid-group computations for strong Nielsen "
        "equivalence of periodic orbits on the punctured disc.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # -n and -m as parent parsers: a subcommand adds them right after its
    # own -h, ahead of its other arguments, as when each declared them.
    n_flag = argparse.ArgumentParser(add_help=False)
    n_flag.add_argument("-n", type=int, required=True)
    nm_flags = argparse.ArgumentParser(add_help=False, parents=[n_flag])
    nm_flags.add_argument("-m", type=int, required=True)

    p = sub.add_parser("nf", parents=[n_flag], help="Garside left canonical form")
    p.add_argument("word")

    for name, summary in (
        ("eq", "word problem"),
        ("conj", "conjugacy with witness"),
    ):
        p = sub.add_parser(name, parents=[n_flag], help=summary)
        p.add_argument("word_a")
        p.add_argument("word_b")

    p = sub.add_parser("decompose", parents=[nm_flags], help="split a mixed braid over its base")
    p.add_argument("word")

    p = sub.add_parser("act", parents=[nm_flags], help="action of the base group on the kernel")
    p.add_argument("--beta", required=True, help="base braid in B_n")
    p.add_argument("--gamma", required=True, help="kernel braid on n+m strands")

    for name, summary in (
        ("sn", "kernel conjugator c with beta_x = c beta_y c^-1"),
        ("sn-twisted", "twisted-conjugacy formulation: beta_ox = phi_betaA(c) beta_oy c^-1"),
    ):
        p = sub.add_parser(name, parents=[nm_flags], help=summary)
        p.add_argument("--betaA", required=True)
        p.add_argument("--ox", required=True)
        p.add_argument("--oy", required=True)
        _add_budget_flags(p)

    p = sub.add_parser("partition", parents=[nm_flags], help="partition orbits into SN classes")
    p.add_argument("--betaA", required=True)
    p.add_argument("--file", required=True,
                   help="file with one kernel word per line, # comments")
    p.add_argument("--workers", type=int, default=1,
                   help="ignored; pairs are decided on one thread")
    _add_budget_flags(p)

    p = sub.add_parser("invariants", parents=[nm_flags], help="invariant battery of a mixed braid")
    p.add_argument("word")

    return parser


def _emit(doc: dict) -> None:
    json.dump(doc, sys.stdout, indent=2, sort_keys=False)
    sys.stdout.write("\n")


def _verdict_exit(verdict: decision.SNVerdict) -> int:
    _emit(verdict.to_json())
    return 2 if verdict.status == decision.INCONCLUSIVE else 0


def run(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        # argparse has printed the usage error or the help. It exits 2 on a
        # usage error, but 2 means Inconclusive here, so return 1 like
        # every other input error, and 0 after --help.
        return 1 if exc.code else 0
    try:
        return _dispatch(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _dispatch(args) -> int:
    cmd, n = args.command, args.n
    if "m" in args:
        # Refuse bad block sizes before any word is parsed on n + m strands.
        mixed._check_blocks(n, args.m)
    if "word_a" in args:  # eq, conj: two words on n strands
        a, b = BraidWord.parse(n, args.word_a), BraidWord.parse(n, args.word_b)
    elif cmd in ("decompose", "invariants"):  # one mixed braid on n + m strands
        mb = mixed.validate(n, args.m, BraidWord.parse(n + args.m, args.word))
    if cmd == "nf":
        _emit(garside.canonical_form(BraidWord.parse(n, args.word)).to_json())
    elif cmd == "eq":
        _emit({"equal": garside.equal(a, b)})
    elif cmd == "conj":
        _emit(garside.is_conjugate(a, b).to_json())
    elif cmd == "decompose":
        dec = mixed.decompose(mb)
        _emit({"base": dec.base.format(), "kernel_part": dec.kernel_part.format()})
    elif cmd == "act":
        beta = BraidWord.parse(n, args.beta)
        gamma = BraidWord.parse(n + args.m, args.gamma)
        _emit({"result": mixed.act(beta, gamma, args.m).format()})
    elif cmd in ("sn", "sn-twisted"):
        inst = decision.SNInstance(
            n,
            args.m,
            BraidWord.parse(n, args.betaA),
            BraidWord.parse(n + args.m, args.ox),
            BraidWord.parse(n + args.m, args.oy),
        )
        fn = decision.sn_equivalent_rel_A if cmd == "sn" else decision.sn_equivalent_twisted
        return _verdict_exit(fn(inst, _budget(args)))
    elif cmd == "partition":
        with open(args.file, encoding="utf-8-sig", newline="") as fh:
            orbits = _words(n + args.m, fh.read())
        beta_A = BraidWord.parse(n, args.betaA)
        budget = _budget(args)
        if args.workers < 1:
            raise ValueError(f"workers must be >= 1, got {args.workers}")
        _emit(decision.partition_sn_classes(n, args.m, beta_A, orbits, budget).to_json())
    elif cmd == "invariants":
        _emit({"invariants": [r.to_json() for r in invariants.standard_reports(mb)]})
    else:
        raise AssertionError(f"unhandled command {cmd}")
    return 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
