"""
Command-line surface: one JSON document per invocation on standard output.

Exit codes: 0 for any computed verdict (including NotEquivalent), 2 for an
Inconclusive verdict, 1 for input errors. Braid words use the text grammar
of `snbraid.words` and are echoed back in the canonical `s<k>`/`S<k>`
spelling.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import decision, garside, invariants, mixed
from .words import BraidWord, WordSyntaxError


def _add_budget_flags(p: argparse.ArgumentParser):
    p.add_argument("--max-len", type=int, default=None,
                   help="max kernel-conjugator generator length")
    p.add_argument("--max-states", type=int, default=None,
                   help="max kernel-search states, both sides counted")


def _budget(args) -> decision.Budget:
    b = decision.Budget()
    return decision.Budget(
        max_length=args.max_len if args.max_len is not None else b.max_length,
        max_states=args.max_states if args.max_states is not None else b.max_states,
    )


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

    for name in ("sn", "sn-twisted"):
        p = sub.add_parser(name, help="strong Nielsen equivalence rel the invariant set")
        p.add_argument("-n", type=int, required=True)
        p.add_argument("-m", type=int, required=True)
        p.add_argument("--betaA", required=True)
        p.add_argument("--ox", required=True)
        p.add_argument("--oy", required=True)
        _add_budget_flags(p)

    p = sub.add_parser("fixed", help="fixed-point case (m = 1, free-group kernel)")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("--betaA", required=True)
    p.add_argument("--u", required=True)
    p.add_argument("--v", required=True)
    _add_budget_flags(p)

    p = sub.add_parser("partition", help="partition orbits into SN classes")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("-m", type=int, required=True)
    p.add_argument("--betaA", required=True)
    p.add_argument("--file", required=True,
                   help="file with one kernel word per line, # comments")
    p.add_argument("--workers", type=int, default=1)
    _add_budget_flags(p)

    p = sub.add_parser("invariants", help="invariant battery of a mixed braid")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("-m", type=int, required=True)
    p.add_argument("word")

    return parser


def _parse_word(n: int, text: str) -> BraidWord:
    return BraidWord.parse(n, text)


def _emit(doc: dict) -> None:
    json.dump(doc, sys.stdout, indent=2, sort_keys=False)
    sys.stdout.write("\n")


def _verdict_exit(verdict: decision.SNVerdict) -> int:
    _emit(verdict.to_json())
    return 2 if verdict.status == decision.INCONCLUSIVE else 0


def run(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except (WordSyntaxError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _dispatch(args) -> int:
    cmd = args.command
    if cmd == "nf":
        cf = garside.canonical_form(_parse_word(args.n, args.word))
        _emit(cf.to_json())
        return 0
    if cmd == "eq":
        a = _parse_word(args.n, args.word_a)
        b = _parse_word(args.n, args.word_b)
        _emit({"equal": garside.equal(a, b)})
        return 0
    if cmd == "conj":
        a = _parse_word(args.n, args.word_a)
        b = _parse_word(args.n, args.word_b)
        _emit(garside.is_conjugate(a, b).to_json())
        return 0
    if cmd == "conj-mod-twist":
        a = _parse_word(args.n, args.word_a)
        b = _parse_word(args.n, args.word_b)
        res, k = garside.conjugate_mod_full_twist(a, b)
        doc = res.to_json()
        doc["k"] = k
        _emit(doc)
        return 0
    if cmd == "decompose":
        b = mixed.validate(args.n, args.m, _parse_word(args.n + args.m, args.word))
        dec = mixed.decompose(b)
        _emit({"base": dec.base.format(), "kernel_part": dec.kernel_part.format()})
        return 0
    if cmd == "act":
        beta = _parse_word(args.n, args.beta)
        gamma = _parse_word(args.n + args.m, args.gamma)
        _emit({"result": mixed.act(beta, gamma, args.m).format()})
        return 0
    if cmd in ("sn", "sn-twisted"):
        inst = decision.SNInstance(
            args.n,
            args.m,
            _parse_word(args.n, args.betaA),
            _parse_word(args.n + args.m, args.ox),
            _parse_word(args.n + args.m, args.oy),
        )
        fn = decision.sn_equivalent_rel_A if cmd == "sn" else decision.sn_equivalent_twisted
        return _verdict_exit(fn(inst, _budget(args)))
    if cmd == "fixed":
        verdict = decision.fixed_point_case(
            args.n,
            _parse_word(args.n, args.betaA),
            _parse_word(args.n + 1, args.u),
            _parse_word(args.n + 1, args.v),
            _budget(args),
        )
        return _verdict_exit(verdict)
    if cmd == "partition":
        orbits = []
        with open(args.file) as fh:
            for lineno, line in enumerate(fh, start=1):
                try:
                    word = _parse_word(args.n + args.m, line)
                except WordSyntaxError as exc:
                    raise WordSyntaxError(exc.message, lineno, exc.column) from None
                if word.letters:  # blank and comment-only lines
                    orbits.append(word)
        result = decision.partition_sn_classes(
            args.n,
            args.m,
            _parse_word(args.n, args.betaA),
            orbits,
            _budget(args),
            workers=args.workers,
        )
        _emit(result.to_json())
        return 0
    if cmd == "invariants":
        b = mixed.validate(args.n, args.m, _parse_word(args.n + args.m, args.word))
        _emit({"invariants": [r.to_json() for r in invariants.standard_reports(b)]})
        return 0
    raise AssertionError(f"unhandled command {cmd}")


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
