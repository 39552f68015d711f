"""Print every output of a fixed corpus, one line each, then their sha256.

Two trees whose outputs are byte-identical print the same final line, so a
change meant to keep every verdict, witness and partition can be checked by
running this script on both and comparing hashes. Run from the root of a
checkout:

    PYTHONPATH=src python tests/output_digest.py

The corpus is built by the benchmark's seeded generators, perfbench/corpus.py,
which is only imported:
- both strong Nielsen formulations at Budget(4, 4000) and Budget(5, 20000) on
  decide_mix(s, 576) and sn_ambient(s, 192), for s in 1, 2 and 301;
- is_conjugate on conjugacy_pairs(s, range(3, 6), 96, 12), for s in 1, 2;
- partition_sn_classes(2, 1, beta_A, ...) for beta_A in s1, the empty word and
  s1 s1, on partition_orbits(s, k) for s = 0..5 and k in 6, 10.

That is 9828 lines before the hash. Orbit words that do not permute their
block as one cycle warn with the path of the caller; those warnings are
silenced, so the output does not depend on where the checkout lies. The file
is not named test_*, so pytest does not collect it.
"""

import hashlib
import json
import pathlib
import sys
import warnings

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "perfbench"))

import corpus  # noqa: E402
import snbraid as sb  # noqa: E402

SEEDS = (1, 2, 301)
BUDGETS = (sb.Budget(4, 4000), sb.Budget(5, 20000))
FORMULATIONS = (sb.sn_equivalent_rel_A, sb.sn_equivalent_twisted)


def instance(inst):
    n, m = inst["n"], inst["m"]
    return sb.SNInstance(
        n, m, sb.BraidWord.parse(n, inst["beta_A"]),
        sb.BraidWord.parse(n + m, inst["ox"]), sb.BraidWord.parse(n + m, inst["oy"]),
    )


def outputs():
    """Yield (label, JSON document) for every output of the corpus."""
    for seed in SEEDS:
        for name, instances in (
            ("decide-mix", corpus.decide_mix(seed, 576)),
            ("sn-ambient", corpus.sn_ambient(seed, 192)),
        ):
            for i, inst in enumerate(map(instance, instances)):
                for budget in BUDGETS:
                    for decide in FORMULATIONS:
                        label = f"{name} {seed} {i} {decide.__name__} {budget}"
                        yield label, decide(inst, budget).to_json()
    for seed in (1, 2):
        for i, pair in enumerate(corpus.conjugacy_pairs(seed, range(3, 6), 96, 12)):
            a, b = (sb.BraidWord.parse(pair["n"], pair[key]) for key in ("a", "b"))
            yield f"is_conjugate {seed} {i}", sb.is_conjugate(a, b).to_json()
    for beta_A in ("s1", "", "s1 s1"):
        for seed in range(6):
            for per_class in (6, 10):
                orbits = corpus.partition_orbits(seed, per_class)
                words = [sb.BraidWord.parse(3, orbit["word"]) for orbit in orbits]
                result = sb.partition_sn_classes(2, 1, sb.BraidWord.parse(2, beta_A), words)
                yield f"partition {beta_A or '-'} {seed} {per_class}", result.to_json()


def main():
    digest = hashlib.sha256()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for label, doc in outputs():
            line = f"{label} {json.dumps(doc, sort_keys=True)}"
            print(line)
            digest.update(line.encode() + b"\n")
    print(f"sha256 {digest.hexdigest()}")


if __name__ == "__main__":
    main()
