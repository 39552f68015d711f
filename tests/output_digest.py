"""Print every output of a fixed corpus, one line each, then their sha256.

Two trees whose outputs are byte-identical print the same final line, so a
change meant to keep every verdict, witness and partition can be checked by
running this script on both and comparing hashes. Run from the root of a
checkout:

    PYTHONPATH=src python tests/output_digest.py

The final line it prints for the committed code is kept in
tests/output_digest.sha256, and tier-1 fails when they differ
(tests/test_outputs.py, which also runs the demos against
demos/expected_output.txt); a change that means to change outputs updates
that file.

The corpus is built by the benchmark's seeded generators, perfbench/corpus.py,
which is only imported, and by the generators below:
- both strong Nielsen formulations at Budget(4, 4000) and Budget(5, 20000) on
  decide_mix(s, 576) and sn_ambient(s, 192), for s in 1, 2 and 301;
- is_conjugate on conjugacy_pairs(s, range(3, 6), 96, 12), for s in 1, 2;
- partition_sn_classes(2, 1, beta_A, ...) for beta_A in s1, the empty word and
  s1 s1, on partition_orbits(s, k) for s = 0..5 and k in 6, 10.
That is 9828 lines, the whole corpus until it was extended; they come first,
unchanged. Then 714 lines that reach paths those do not:
- both formulations at Budget(4, 4000) and Budget(6, 400) on the 168
  instances of the larger-shape probe (`larger_shape(5, 24)`): 54 are
  Inconclusive at the first budget, whose searches end at the length bound,
  and 45 at the second, whose searches run out of states;
- partitions at Budget(3, 2000) of seeded lists with repeated forms
  (`partition_list`): at n = 3, 4, where no anchor key merges orbits and
  the pair loop decides, and at n <= 2 on 3 and 4 strands, where some
  summits are not rigid and their anchors walk the cycling circuit;
- is_conjugate on three conjugates of each braid of NON_USS_SUMMITS, whose
  summit lies off its circuit, so `garside._conjugacy` looks up the
  circuit's start on the other braid's circuit.

A line trace (`sys.settrace`) of decision.py and garside.py while this runs
shows two branches that no input reaches, and none can:
- the final `return None` of `decision._centralizer_shift`: the powers
  `_shift_powers` returns are exact, so the candidate always lies in the
  kernel and conjugates beta_y to beta_x; the gate stays as a soundness
  check;
- a step of `garside._cycling_orbit` whose push makes a Delta: the walk
  starts at a summit element, whose infimum is maximal in its class
  (`garside._summit`), and cycling never lowers the infimum, so no step
  can raise it.

Orbit words that do not permute their block as one cycle warn with the path
of the caller; those warnings are silenced, so the output does not depend on
where the checkout lies.
"""

import hashlib
import json
import pathlib
import random
import sys
import warnings

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "perfbench"))

import corpus  # noqa: E402
import snbraid as sb  # noqa: E402

O = corpus.O

SEEDS = (1, 2, 301)
BUDGETS = (sb.Budget(4, 4000), sb.Budget(5, 20000))
FORMULATIONS = (sb.sn_equivalent_rel_A, sb.sn_equivalent_twisted)

# The larger-shape probe: per shape, beta_A of 2-4 letters, beta_oy
# two kernel letters and beta_ox its conjugate by lift(beta_A)^k h, with
# k in 1, -1, 2 and h one kernel letter.
LARGER_SHAPES = ((2, 1), (2, 2), (3, 1), (3, 2), (4, 1), (3, 3), (4, 2))
# A search at Budget(4, 4000) ends at its length bound, one at
# Budget(6, 400) on its state bound.
LARGER_BUDGETS = (sb.Budget(4, 4000), sb.Budget(6, 400))
# Partition lists at n >= 3, where no anchor key merges orbits, and at
# n <= 2 on 3 and 4 strands, where some summits are not rigid.
REPEATED_SHAPES = ((3, 1), (3, 2), (4, 1))
WALKED_SHAPES = ((0, 3), (0, 4), (1, 2), (1, 3), (2, 1), (2, 2))
# Braids whose summit element lies off its own cycling circuit, found by a
# random search (about one word in 10^4 on 4 and 5 strands): their pairs
# look up the circuit's start on the other braid's circuit.
NON_USS_SUMMITS = (
    (5, "s4 s3 S4 S1 s3 S2 s3 s4"),
    (4, "S3 s3 S2 s2 s3 S2 S3 S3 s3 S1 S2 S3 S1 s2 s2 S2 s3 S1 S3 S3 S1 s1 s1 S3 s2 s1 S3 S3 "
        "s1 s2 S2 s1 s1 s3 s1 s1 S2 S3 S3 s1"),
)


def larger_shape(seed, per_shape):
    """per_shape instances of each of LARGER_SHAPES, as corpus.decide_mix
    writes them; every beta_ox is a conjugate of beta_oy's mixed braid by a
    braid outside the kernel, so many are Inconclusive at small budgets."""
    rng = random.Random(seed)
    for n, m in LARGER_SHAPES:
        gens = O.kernel_generators(n, m)
        letters = gens + [O.inverse(g) for g in gens]
        for _ in range(per_shape):
            beta_a = corpus.random_word(rng, n, rng.randint(2, 4))
            oy = O.free_reduce(rng.choice(letters) + rng.choice(letters))
            k = rng.choice((1, -1, 2))
            g = (beta_a * k if k > 0 else O.inverse(beta_a) * -k) + rng.choice(letters)
            ox = O.free_reduce(O.inverse(beta_a) + g + beta_a + oy + O.inverse(g))
            yield {"n": n, "m": m, "beta_A": O.fmt(beta_a), "ox": O.fmt(ox), "oy": O.fmt(oy)}


def partition_list(rng, n, m):
    """beta_A and an orbit list: three cores of 1-3 kernel generators, each
    with two kernel conjugates, then three copies of listed orbits with a
    cancelling pair inserted, so their mixed braids repeat a form."""
    beta_a = corpus.random_word(rng, n, rng.randint(1, 3))
    orbits = []
    for _ in range(3):
        core = corpus.random_kernel_word(rng, n, m, rng.randint(1, 3))
        orbits.append(core)
        for _ in range(2):
            c = corpus.random_kernel_word(rng, n, m, rng.randint(1, 2))
            orbits.append(corpus.conjugated_kernel_part(beta_a, core, c))
    for _ in range(3):
        w, at = rng.choice(orbits), rng.randint(1, n + m - 1)
        cut = rng.randint(0, len(w))
        orbits.append(w[:cut] + (at, -at) + w[cut:])
    rng.shuffle(orbits)
    return O.fmt(beta_a), [O.fmt(w) for w in orbits]


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
    yield from appended()


def appended():
    """The outputs after the first 9828, each a path the lines above do not
    reach."""
    for i, inst in enumerate(map(instance, larger_shape(5, 24))):
        for budget in LARGER_BUDGETS:
            for decide in FORMULATIONS:
                label = f"larger-shape 5 {i} {decide.__name__} {budget}"
                yield label, decide(inst, budget).to_json()
    for shapes, label in ((REPEATED_SHAPES, "repeated-forms"), (WALKED_SHAPES, "walked-anchors")):
        for seed in range(4):
            for n, m in shapes:
                beta_a, orbits = partition_list(random.Random(seed), n, m)
                result = sb.partition_sn_classes(
                    n, m, sb.BraidWord.parse(n, beta_a),
                    [sb.BraidWord.parse(n + m, w) for w in orbits], sb.Budget(3, 2000),
                )
                yield f"{label} {seed} {n} {m}", result.to_json()
    rng = random.Random(0)
    for n, text in NON_USS_SUMMITS:
        b = sb.BraidWord.parse(n, text)
        for k in (1, 2, 3):
            g = sb.BraidWord(n, corpus.random_word(rng, n, k))
            a = sb.free_reduce(sb.compose(sb.compose(g, b), sb.invert(g)))
            yield f"non-USS summit {n} {k}", sb.is_conjugate(a, b).to_json()


def lines():
    """Yield every output line of the corpus, then the `sha256 ...` line
    of all of them."""
    digest = hashlib.sha256()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for label, doc in outputs():
            line = f"{label} {json.dumps(doc, sort_keys=True)}"
            digest.update(line.encode() + b"\n")
            yield line
    yield f"sha256 {digest.hexdigest()}"


def main():
    for line in lines():
        print(line)


if __name__ == "__main__":
    main()
