"""
Command-line surface: one JSON document per invocation on standard output.

Exit codes: 0 for any computed verdict (including NotEquivalent), 2 for an
Inconclusive verdict, 1 for input errors, usage errors included. `run`
returns the code, after a usage error or `--help` too, and `main` exits
with it. Braid words use the text grammar of `snbraid.words` and are
echoed back in the canonical `s<k>`/`S<k>` spelling.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import decision, garside, invariants, mixed
from .words import BraidWord, WordSyntaxError


def _add_budget_flags(p: argparse.ArgumentParser):
    p.add_argument("--max-len", type=int, default=decision.Budget.max_length,
                   help="max kernel-conjugator generator length")
    p.add_argument("--max-states", type=int, default=decision.Budget.max_states,
                   help="max kernel-search states, both sides counted")


def _budget(args) -> decision.Budget:
    return decision.Budget(args.max_len, args.max_states)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="snbraid",
        description="Exact braid-group computations for strong Nielsen "
        "equivalence of periodic orbits on the punctured disc.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("nf", help="Garside left canonical form")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("word")

    p = sub.add_parser("eq", help="word problem")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("word_a")
    p.add_argument("word_b")

    p = sub.add_parser("conj", help="conjugacy with witness")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("word_a")
    p.add_argument("word_b")

    p = sub.add_parser("conj-mod-twist", help="conjugacy up to full-twist powers")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("word_a")
    p.add_argument("word_b")

    p = sub.add_parser("decompose", help="split a mixed braid over its base")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("-m", type=int, required=True)
    p.add_argument("word")

    p = sub.add_parser("act", help="action of the base group on the kernel")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("-m", type=int, required=True)
    p.add_argument("--beta", required=True, help="base braid in B_n")
    p.add_argument("--gamma", required=True, help="kernel braid on n+m strands")

    for name, summary in (
        ("sn", "kernel conjugator c with beta_x = c beta_y c^-1"),
        ("sn-twisted", "twisted-conjugacy formulation: beta_ox = phi_betaA(c) beta_oy c^-1"),
    ):
        p = sub.add_parser(name, help=summary)
        p.add_argument("-n", type=int, required=True)
        p.add_argument("-m", type=int, required=True)
        p.add_argument("--betaA", required=True)
        p.add_argument("--ox", required=True)
        p.add_argument("--oy", required=True)
        _add_budget_flags(p)

    p = sub.add_parser("partition", help="partition orbits into SN classes")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("-m", type=int, required=True)
    p.add_argument("--betaA", required=True)
    p.add_argument("--file", required=True,
                   help="file with one kernel word per line, # comments")
    p.add_argument("--workers", type=int, default=1,
                   help="ignored; pairs are decided on one thread")
    _add_budget_flags(p)

    p = sub.add_parser("invariants", help="invariant battery of a mixed braid")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("-m", type=int, required=True)
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
        args = build_parser().parse_args(argv)
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
    cmd = args.command
    if "m" in args:
        # Refuse bad block sizes before any word is parsed on n + m strands.
        mixed._check_blocks(args.n, args.m)
    if cmd == "nf":
        cf = garside.canonical_form(BraidWord.parse(args.n, args.word))
        _emit(cf.to_json())
        return 0
    if cmd == "eq":
        a = BraidWord.parse(args.n, args.word_a)
        b = BraidWord.parse(args.n, args.word_b)
        _emit({"equal": garside.equal(a, b)})
        return 0
    if cmd == "conj":
        a = BraidWord.parse(args.n, args.word_a)
        b = BraidWord.parse(args.n, args.word_b)
        _emit(garside.is_conjugate(a, b).to_json())
        return 0
    if cmd == "conj-mod-twist":
        a = BraidWord.parse(args.n, args.word_a)
        b = BraidWord.parse(args.n, args.word_b)
        res, k = garside.conjugate_mod_full_twist(a, b)
        doc = res.to_json()
        doc["k"] = k
        _emit(doc)
        return 0
    if cmd == "decompose":
        b = mixed.validate(args.n, args.m, BraidWord.parse(args.n + args.m, args.word))
        dec = mixed.decompose(b)
        _emit({"base": dec.base.format(), "kernel_part": dec.kernel_part.format()})
        return 0
    if cmd == "act":
        beta = BraidWord.parse(args.n, args.beta)
        gamma = BraidWord.parse(args.n + args.m, args.gamma)
        _emit({"result": mixed.act(beta, gamma, args.m).format()})
        return 0
    if cmd in ("sn", "sn-twisted"):
        inst = decision.SNInstance(
            args.n,
            args.m,
            BraidWord.parse(args.n, args.betaA),
            BraidWord.parse(args.n + args.m, args.ox),
            BraidWord.parse(args.n + args.m, args.oy),
        )
        fn = decision.sn_equivalent_rel_A if cmd == "sn" else decision.sn_equivalent_twisted
        return _verdict_exit(fn(inst, _budget(args)))
    if cmd == "partition":
        orbits = []
        with open(args.file) as fh:
            for lineno, line in enumerate(fh, start=1):
                try:
                    word = BraidWord.parse(args.n + args.m, line)
                except WordSyntaxError as exc:
                    raise WordSyntaxError(exc.message, lineno, exc.column) from None
                if word.letters:  # blank and comment-only lines
                    orbits.append(word)
        beta_A = BraidWord.parse(args.n, args.betaA)
        budget = _budget(args)
        if args.workers < 1:
            raise ValueError(f"workers must be >= 1, got {args.workers}")
        _emit(decision.partition_sn_classes(args.n, args.m, beta_A, orbits, budget).to_json())
        return 0
    if cmd == "invariants":
        b = mixed.validate(args.n, args.m, BraidWord.parse(args.n + args.m, args.word))
        _emit({"invariants": [r.to_json() for r in invariants.standard_reports(b)]})
        return 0
    raise AssertionError(f"unhandled command {cmd}")


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
