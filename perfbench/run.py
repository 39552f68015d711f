"""snbraid benchmark: one workload per invocation, result as the last line.

    python3 perfbench/run.py --workload decide-mix --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; snbraid is imported from `src/`.
With --trace 0 the last line holds the end-to-end metrics, with --trace 1
the per-layer metrics of a traced run (see tracing.py) and the tracing
overhead. The line before it is a JSON report of the run: verdict and
certificate mix, attempted and failed operations, and the first failure
messages.

A run makes the workload's seeded corpus, sized so that it takes about
--seconds here, and runs each of its operations once, in three interleaved
slices. Before each slice it runs a fixed probe (the same inputs for every
workload and seed) for the metric kinds the corpus does not cover, so every
workload reports every metric; a probe operation's time is the median of
its three runs. Every output is checked against the independent oracle
(oracle.py) outside the timed spans; a failed check counts as a failed
operation and the run goes on.

Operation times are scaled to a fixed host speed (see HostSpeed): every
HOST_SAMPLE_EVERY seconds a timer signal interrupts the run to time a fixed
reference loop that never calls snbraid; the interruptions are taken out of
the operations' times, and each operation's time is multiplied by
REFERENCE_S over the loop's typical time during and around it.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import gc
import io
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
import warnings
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
if not (ROOT / "src" / "snbraid").is_dir():
    sys.exit(f"no snbraid sources under {ROOT / 'src'}: run from a source checkout")
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import corpus as C  # noqa: E402
import oracle as O  # noqa: E402
from snbraid import cli, decision, garside  # noqa: E402
from snbraid.words import BraidWord  # noqa: E402

WORKLOADS = ("decide-mix", "sn-ambient", "garside-scaling")
# The metric kinds each workload measures on its own seeded corpus; the
# other kinds come from the fixed probe.
FOCUS = {
    "decide-mix": {"decision"},
    "sn-ambient": {"decision"},
    "garside-scaling": {"conj", "nf"},
}
PROBE_SEED = 0
CHUNKS = 3
# Corpus sizes for --seconds 20; they scale linearly with --seconds.
DECIDE_MIX_INSTANCES = 2 * C.DECIDE_MIX_CYCLE
AMBIENT_INSTANCES = 384
CONJ_PAIRS_PER_N = 576
# Probe sizes: at least 40 operations wherever a p90 is taken.
PROBE_DECISIONS = 36
PROBE_CONJ_PAIRS_PER_N = 40
PROBE_PARTITION_LISTS = 2
# Blocks: one cycle of each corpus's make-up (see corpus.py), the unit of
# the throughput median.
DECIDE_MIX_BLOCK = 12
AMBIENT_BLOCK = 96
CONJ_BLOCK = 6
NF_WORDS_PER_LENGTH = 2
# decide-mix throughput leaves out this share of its slowest instances (see
# Run.throughput).
DECIDE_TRIM = 0.01
NF_LENGTHS = (100, 200, 400, 800, 1600)
# The probe leaves out the longest words, which took 4 of its 6 seconds.
PROBE_NF_LENGTHS = NF_LENGTHS[:-1]
# equal (two normal forms and a comparison) only up to this length; it
# feeds no end-to-end metric and took half of garside-scaling's time.
EQUAL_UP_TO = 400
NF_STRANDS = 5
# decide-mix conjugators have 1-2 generators; a random pair that passes
# every screen would otherwise search to depth 8, up to 200000 states.
DECIDE_BUDGET = decision.Budget(max_length=4, max_states=4000)
AMBIENT_BUDGET = decision.Budget(max_length=5, max_states=20000)
PARTITION_N, PARTITION_M, PARTITION_BASE = 2, 1, "s1"
PARTITION_PER_CLASS = 6
SETUP_REPEATS = 5
CERTIFIED_INVARIANTS = ("exponent_sum", "cycle_type", "linking_matrix", "burau_charpoly")
# Host speed: the reference loop is timed this often (seconds)...
HOST_SAMPLE_EVERY = 0.01
# ...and an operation is scaled by the samples taken within this many
# seconds of it (at least HOST_MIN_SAMPLES of them).
HOST_WINDOW = 0.02
HOST_MIN_SAMPLES = 5
# Scaled times are those of a host on which the reference loop takes this.
REFERENCE_S = 5e-4
REFERENCE_N = 6
REFERENCE_WORD = (1, -3, 5, 2, -4, 1, 3, -5, -2, 4) * 2


class HostSpeed:
    """Samples of a fixed reference loop (Lawrence-Krammer images from the
    oracle, no snbraid), taken by a SIGALRM handler every HOST_SAMPLE_EVERY
    seconds while it is started, also in the middle of an operation.
    This host's speed flips between two levels about 1.6x apart, often
    within a tenth of a second, with other guests' load, and the loop, the
    decisions and the conjugacy tests all slow down alike. An operation's
    scaled time is its time on a host where the loop takes REFERENCE_S:
    its own time times REFERENCE_S over the loop's time, the mean over the
    middle half of the samples taken during and around the operation (the
    mean, since a long operation may span both levels; the middle half,
    since a sample the scheduler interrupts reads far too slow). The two
    vCPUs change speed independently and the handler runs on the main
    thread, so only work on the main thread is followed."""

    def __init__(self):
        self.at: list[float] = []  # midpoints of the samples, ascending
        self.factor: list[float] = []  # REFERENCE_S over the loop's seconds
        self.paused = 0.0  # seconds spent in the handler so far
        self.busy = False

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, HOST_SAMPLE_EVERY, HOST_SAMPLE_EVERY)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _sample(self, signum, frame) -> None:
        if self.busy:  # a signal that arrives while the handler runs
            return
        self.busy = True
        enter = time.perf_counter()
        enabled = gc.isenabled()
        gc.disable()  # collecting the program's garbage is not the loop's cost
        t0 = time.perf_counter()
        O.lk_image(REFERENCE_N, REFERENCE_WORD)
        O.lk_image(REFERENCE_N, REFERENCE_WORD)
        t1 = time.perf_counter()
        if enabled:
            gc.enable()
        self.at.append((t0 + t1) / 2)
        self.factor.append(REFERENCE_S / (t1 - t0))
        self.paused += time.perf_counter() - enter
        self.busy = False

    def scale(self, start: float, end: float) -> float:
        """The mean factor over the middle half of the samples around
        [start, end]."""
        lo = bisect.bisect_left(self.at, start - HOST_WINDOW)
        hi = bisect.bisect_right(self.at, end + HOST_WINDOW)
        while hi - lo < HOST_MIN_SAMPLES and (lo > 0 or hi < len(self.at)):
            lo, hi = max(lo - 1, 0), min(hi + 1, len(self.at))
        near = sorted(self.factor[lo:hi])
        quarter = len(near) // 4
        return statistics.fmean(near[quarter:len(near) - quarter])


class Run:
    """Counters and timing samples of one benchmark run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.verdicts: dict[str, int] = {}
        self.certificates: dict[str, int] = {}
        self.host = HostSpeed()
        # (kind, group) -> operation key -> (start, end, seconds paused for
        # host samples), one per repetition
        self.spans: dict[tuple[str, str], dict[object, list[tuple[float, float, float]]]] = {}
        self.blocks: dict[tuple[str, str], dict[object, int]] = {}  # op key -> block
        self.letters: dict[tuple[str, int], int] = {}  # (group, nf op) -> word length
        self.decided: dict[str, dict[object, bool]] = {}  # group -> instance -> decided
        self.trim: dict[tuple[str, str], float] = {}  # (kind, group) -> share left out
        self.merged: dict[str, dict[object, int]] = {}  # group -> orbit list -> merges

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.failures) < 5:
            self.failures.append(message)

    def record(self, kind: str, group: str, key, span: tuple[float, float, float], block: int = 0) -> None:
        self.spans.setdefault((kind, group), {}).setdefault(key, []).append(span)
        self.blocks.setdefault((kind, group), {})[key] = block

    def per_op(self, kind: str, group: str, scaled: bool = True) -> dict:
        """Median over repetitions of each operation's time, scaled to the
        reference host speed unless `scaled` is false."""
        def seconds(span):
            t0, t1, paused = span
            return (t1 - t0 - paused) * (self.host.scale(t0, t1) if scaled else 1.0)
        return {i: statistics.median(map(seconds, v))
                for i, v in self.spans.get((kind, group), {}).items()}

    def throughput(self, kind: str, group: str, scaled: bool = True) -> float:
        """Operations per second. Input costs are heavy-tailed, and a plain
        sum is ruled by the rare slow input a seed happens to draw. Where a
        trim is set (decisions on decide-mix instances), it is operations
        over their time once that share of the slowest instances is left
        out; otherwise the median over blocks (one cycle of the corpus's
        make-up each) of operations over the block's time."""
        if (kind, group) in self.trim:
            return self._trimmed_throughput(kind, group, self.trim[kind, group], scaled)
        per_block: dict[int, list[float]] = {}
        for key, t in self.per_op(kind, group, scaled).items():
            per_block.setdefault(self.blocks[kind, group][key], []).append(t)
        return statistics.median(len(ts) / sum(ts) for ts in per_block.values())

    def _trimmed_throughput(self, kind: str, group: str, trim: float, scaled: bool) -> float:
        per_instance: dict[object, list[float]] = {}  # operation keys are (instance, formulation)
        for (idx, _), t in self.per_op(kind, group, scaled).items():
            per_instance.setdefault(idx, []).append(t)
        kept = sorted(per_instance.values(), key=sum)
        kept = kept[:len(kept) - int(len(kept) * trim)]
        return sum(map(len, kept)) / sum(map(sum, kept))

    def tally(self, verdict) -> None:
        self.verdicts[verdict.status] = self.verdicts.get(verdict.status, 0) + 1
        if verdict.certificate is not None:
            name = verdict.certificate.invariant
            self.certificates[name] = self.certificates.get(name, 0) + 1


def _op(run: Run, label: str, fn, *args):
    """Attempt one operation; returns (result, (start, end, seconds paused
    for host samples)), or None on error."""
    run.attempted += 1
    paused = run.host.paused
    t0 = time.perf_counter()
    try:
        result = fn(*args)
    except Exception as exc:  # an error is a failed operation, not a crash
        run.fail(f"{label}: {type(exc).__name__}: {exc}")
        return None
    t1 = time.perf_counter()
    return result, (t0, t1, run.host.paused - paused)


def _verify(run: Run, label: str, check, *args) -> bool:
    """Run one output check; a problem or an error is a failed operation."""
    try:
        problem = check(*args)
    except Exception as exc:
        problem = f"check raised {type(exc).__name__}: {exc}"
    if problem:
        run.fail(f"{label}: {problem}")
    return not problem


# ---------------------------------------------------------------------------
# strong Nielsen decisions


def _invariants(inst: dict) -> dict[str, dict]:
    """The oracle's value of each certified invariant for beta_x and beta_y."""
    n, m = inst["n"], inst["m"]
    base, ox, oy = (O.parse(inst[k]) for k in ("beta_A", "ox", "oy"))
    out = {}
    for side, orbit in (("x", ox), ("y", oy)):
        b = base + orbit
        out[side] = {
            "exponent_sum": O.exponent_sum(orbit),
            "cycle_type": O.block_cycle_types(n, n + m, b),
            "linking_matrix": O.linking_numbers(n, n + m, b),
            "burau_charpoly": O.burau_signature(n + m, b),
        }
    return out


def _check_verdict(inst: dict, inv: dict, v) -> str | None:
    n, m = inst["n"], inst["m"]
    base, ox, oy = (O.parse(inst[k]) for k in ("beta_A", "ox", "oy"))
    differs = [k for k in CERTIFIED_INVARIANTS if inv["x"][k] != inv["y"][k]]
    if v.status == decision.EQUIVALENT:
        if differs:
            return f"Equivalent although {differs[0]} differs"
        w = v.witness.letters
        if not O.is_kernel(n, m, w):
            return f"witness {O.fmt(w)!r} is not a kernel element"
        if not O.conjugates_to(n + m, w, base + oy, base + ox):
            return f"witness {O.fmt(w)!r} does not conjugate beta_y to beta_x"
    elif v.status == decision.NOT_EQUIVALENT:
        if inst["equivalent_by_construction"]:
            return "NotEquivalent on an instance equivalent by construction"
        name = v.certificate.invariant
        if name in CERTIFIED_INVARIANTS and name not in differs:
            return f"certificate {name} does not differ by the oracle"
    return None


FORMULATIONS = {"rel_A": "sn_equivalent_rel_A", "twisted": "sn_equivalent_twisted"}


class Decisions:
    """Strong Nielsen instances, each decided by the given formulations (a
    tuple of names, or a function of the index choosing them)."""

    kind = "decision"

    def __init__(self, group, instances, formulations, budget, block, trim=None):
        self.group, self.block, self.trim = group, block, trim
        self.items = [(idx, inst, _invariants(inst)) for idx, inst in instances]
        self.formulations = formulations
        self.budget = budget

    def __call__(self, run: Run) -> None:
        if self.trim is not None:
            run.trim[self.kind, self.group] = self.trim
        for idx, inst, inv in self.items:
            n, m = inst["n"], inst["m"]
            try:
                sn = decision.SNInstance(
                    n, m, BraidWord.parse(n, inst["beta_A"]),
                    BraidWord.parse(n + m, inst["ox"]), BraidWord.parse(n + m, inst["oy"]),
                )
            except ValueError as exc:  # snbraid rejected a kernel word
                run.attempted += 1
                run.fail(f"SNInstance {inst}: {exc}")
                continue
            names = self.formulations(idx) if callable(self.formulations) else self.formulations
            statuses = []
            for name in names:
                got = _op(run, f"{name} #{idx}", getattr(decision, FORMULATIONS[name]), sn, self.budget)
                if got is None:
                    continue
                v, span = got
                run.record(self.kind, self.group, (idx, name), span, idx // self.block)
                run.tally(v)
                statuses.append(v.status)
                _verify(run, f"{name} {inst}", _check_verdict, inst, inv, v)
            if len(set(statuses)) > 1:
                run.fail(f"formulations disagree on {inst}: {statuses}")
            run.decided.setdefault(self.group, {})[idx] = bool(statuses) and \
                statuses[0] != decision.INCONCLUSIVE


# ---------------------------------------------------------------------------
# conjugacy and normal forms


def _check_conj(pair: dict, res) -> str | None:
    if res.conjugate != pair["conjugate"]:
        return f"conjugate={res.conjugate}, expected {pair['conjugate']}"
    if res.conjugate:
        n = pair["n"]
        if not O.conjugates_to(n, res.witness.letters, O.parse(pair["b"]), O.parse(pair["a"])):
            return f"witness {res.witness.format()!r} does not conjugate b to a"
    return None


class Conjugacy:
    """is_conjugate on pairs; kind None keeps them out of end-to-end metrics
    (they still show in the per-layer latency by strand count)."""

    def __init__(self, group, pairs, kind="conj"):
        self.group, self.pairs, self.kind = group, pairs, kind

    def __call__(self, run: Run) -> None:
        for idx, pair in self.pairs:
            n = pair["n"]
            a, b = BraidWord.parse(n, pair["a"]), BraidWord.parse(n, pair["b"])
            got = _op(run, f"is_conjugate n={n}", garside.is_conjugate, a, b)
            if got is None:
                continue
            res, span = got
            if self.kind:
                run.record(self.kind, self.group, idx, span, idx // CONJ_BLOCK)
            _verify(run, f"is_conjugate {pair}", _check_conj, pair, res)


class NormalForms:
    """canonical_form on long words, and on words of at most equal_up_to
    letters equal against a rewritten copy (true) or the word times sigma_1
    (false), alternately."""

    kind = "nf"

    def __init__(self, group, words, equal_up_to=0):
        self.group, self.words, self.equal_up_to = group, words, equal_up_to

    def __call__(self, run: Run) -> None:
        for idx, item in self.words:
            n = item["n"]
            w = BraidWord.parse(n, item["word"])
            got = _op(run, f"canonical_form len={item['length']}", garside.canonical_form, w)
            if got is not None:
                cf, span = got
                run.record(self.kind, self.group, idx, span)
                run.letters[self.group, idx] = len(w.letters)
                _verify(run, f"canonical_form len={item['length']}",
                        lambda: None if O.equal(n, cf.to_word().letters, w.letters)
                        else "normal form word differs from its input")
            if item["length"] > self.equal_up_to:
                continue
            same = idx % 2 == 0
            other = BraidWord.parse(n, item["same" if same else "other"])
            got = _op(run, f"equal len={item['length']}", garside.equal, w, other)
            if got is not None:
                eq = got[0]
                _verify(run, f"equal len={item['length']}",
                        lambda: None if eq == same else f"equal returned {eq}, expected {same}")


# ---------------------------------------------------------------------------
# partition through the CLI


def _check_partition(orbits: list[dict], doc: dict) -> str | None:
    members = sorted(i for cls in doc["classes"] for i in cls)
    if members != list(range(len(orbits))):
        return "classes do not cover each index exactly once"
    where = {i: ci for ci, cls in enumerate(doc["classes"]) for i in cls}
    unresolved = {tuple(p) for p in doc["unresolved"]}
    exp = [O.exponent_sum(O.parse(o["word"])) for o in orbits]
    for i in range(len(orbits)):
        for j in range(i + 1, len(orbits)):
            if orbits[i]["cls"] == orbits[j]["cls"]:
                if where[i] != where[j] and (i, j) not in unresolved:
                    return f"equivalent pair ({i}, {j}) split and not unresolved"
            elif where[i] == where[j] and exp[i] != exp[j]:
                return f"orbits {i}, {j} merged although exponent sums differ"
    return None


class Partition:
    """`snbraid partition --workers <workers>` through cli.run on each orbit
    list."""

    kind = "partition"

    def __init__(self, group, lists, workers):
        self.group, self.lists, self.workers = group, lists, workers
        self.outputs: dict[object, str] = {}

    def run_cli(self, run: Run, orbits: list[dict], workers: int):
        path = HERE / ".work" / f"orbits-{os.getpid()}.txt"
        path.parent.mkdir(exist_ok=True)
        path.write_text("".join(o["word"] + "\n" for o in orbits))
        argv = ["partition", "-n", str(PARTITION_N), "-m", str(PARTITION_M),
                "--betaA", PARTITION_BASE, "--file", str(path), "--workers", str(workers)]
        buf = io.StringIO()

        def call():
            with contextlib.redirect_stdout(buf):
                return cli.run(argv)

        try:
            got = _op(run, f"partition workers={workers}", call)
        finally:
            path.unlink(missing_ok=True)
        if got is None:
            return None
        code, span = got
        text = buf.getvalue()
        doc: dict = {}

        def check():
            if code != 0:
                return f"exit code {code}"
            doc.update(json.loads(text))
            return _check_partition(orbits, doc)

        if not _verify(run, f"partition workers={workers}", check):
            return None
        return text, doc, span

    def __call__(self, run: Run) -> None:
        for key, orbits in self.lists:
            got = self.run_cli(run, orbits, self.workers)
            if got is None:
                continue
            text, doc, span = got
            run.record(self.kind, self.group, key, span)
            self.outputs[key] = text
            run.merged.setdefault(self.group, {})[key] = len(orbits) - len(doc["classes"])

    def determinism(self, run: Run) -> None:
        """The output must be byte-identical with --workers 1 and 2."""
        key, orbits = self.lists[0]
        got = self.run_cli(run, orbits, 3 - self.workers)
        if got is not None and key in self.outputs and got[0] != self.outputs[key]:
            run.fail("partition output differs between --workers 1 and --workers 2")


# ---------------------------------------------------------------------------
# workloads


def _keyed(items: list) -> list[tuple[int, object]]:
    return list(enumerate(items))


def _moderate_pairs(seed: int, per_n: int) -> list[dict]:
    """Pairs for n = 3, 4 (20 letters) and n = 5 (12 letters), interleaved
    so that every CONJ_BLOCK consecutive pairs hold one conjugate and one
    non-conjugate pair per n."""
    strata = [C.conjugacy_pairs(seed, range(3, 4), per_n, 20),
              C.conjugacy_pairs(seed, range(4, 5), per_n, 20),
              C.conjugacy_pairs(seed, range(5, 6), per_n, 12)]
    return [pair for row in zip(*strata) for pair in row]


def _large_pairs() -> list[dict]:
    """Fixed conjugate pairs on 6, 7 and 8 strands for the per-layer latency
    by strand count. Random pairs this large have heavy-tailed costs today
    (the summit-set closure tries n! - 1 simple elements per vertex): a
    non-conjugate pair on 6 strands can take seconds and pairs on 7 or 8
    strands minutes, which no run could finish or hold steady."""
    return (C.conjugacy_pairs(PROBE_SEED, range(6, 7), 2, 12, conjugate_only=True)
            + C.conjugacy_pairs(PROBE_SEED, range(7, 8), 2, 6, conjugate_only=True)
            + C.conjugacy_pairs(PROBE_SEED, range(8, 9), 2, 4, conjugate_only=True))


def _probe_parts() -> dict[str, object]:
    """The fixed probe, by metric kind; the same for every workload and seed."""
    return {
        "decision": Decisions("probe", _keyed(C.decide_mix(PROBE_SEED, PROBE_DECISIONS)),
                              ("rel_A", "twisted"), DECIDE_BUDGET, DECIDE_MIX_BLOCK, DECIDE_TRIM),
        "conj": Conjugacy("probe", _keyed(_moderate_pairs(PROBE_SEED, PROBE_CONJ_PAIRS_PER_N))),
        "nf": NormalForms("probe", _keyed(C.long_words(PROBE_SEED, NF_STRANDS, PROBE_NF_LENGTHS,
                                                        NF_WORDS_PER_LENGTH))),
        # One worker is timed, and two are only checked against it (see
        # README.md, "Why no partition workload").
        "partition": Partition("probe", _keyed([C.partition_orbits(PROBE_SEED + j, PARTITION_PER_CLASS)
                                                for j in range(PROBE_PARTITION_LISTS)]), 1),
    }


class Workload:
    """The seeded corpus, sized by --seconds, cut into CHUNKS interleaved
    slices; the probe runs before each slice, for the metric kinds the
    corpus does not cover."""

    def __init__(self, name: str, seed: int, seconds: float, traced: bool):
        self.focus = FOCUS[name]
        scale = max(seconds, 1.0) / 20.0
        if name == "decide-mix":
            items = _keyed(C.decide_mix(seed, _size(DECIDE_MIX_INSTANCES, scale, C.DECIDE_MIX_CYCLE)))
            self.chunks = [[Decisions("focus", items[c::CHUNKS], ("rel_A", "twisted"),
                                      DECIDE_BUDGET, DECIDE_MIX_BLOCK, DECIDE_TRIM)] for c in range(CHUNKS)]
        elif name == "sn-ambient":
            items = _keyed(C.sn_ambient(seed, _size(AMBIENT_INSTANCES, scale, AMBIENT_BLOCK)))
            self.chunks = [[Decisions("focus", items[c::CHUNKS],
                                      lambda i: ("rel_A",) if i % 2 == 0 else ("twisted",),
                                      AMBIENT_BUDGET, AMBIENT_BLOCK)] for c in range(CHUNKS)]
        elif name == "garside-scaling":
            pairs = _keyed(_moderate_pairs(seed, _size(CONJ_PAIRS_PER_N, scale, 2)))
            words = _keyed(C.long_words(seed, NF_STRANDS, NF_LENGTHS, _size(NF_WORDS_PER_LENGTH, scale)))
            self.chunks = [[Conjugacy("focus", pairs[c::CHUNKS]),
                            NormalForms("focus", words[c::CHUNKS], EQUAL_UP_TO)] for c in range(CHUNKS)]
        probe = _probe_parts()
        self.partition = probe["partition"]
        self.probe = [part for kind, part in probe.items() if kind not in self.focus]
        # only the per-layer latency by strand count uses the large pairs
        self.large = Conjugacy("probe", _keyed(_large_pairs()), kind=None) if traced else None

    def run(self, run: Run) -> float:
        """Every operation of the workload once; returns the seconds spent."""
        t0 = time.perf_counter()
        for c, chunk in enumerate(self.chunks):
            for part in self.probe:
                part(run)
            if c == 0 and self.large is not None:
                self.large(run)
            for part in chunk:
                part(run)
        return time.perf_counter() - t0


def _size(base: int, scale: float, unit: int = 1) -> int:
    """base * scale rounded to whole units, at least one."""
    return max(1, round(base * scale / unit)) * unit


def warm_up() -> None:
    """Load lazy imports and first-use caches outside the timed spans."""
    inst = decision.SNInstance(1, 1, BraidWord(1, ()), BraidWord(2, (1, 1)), BraidWord(2, (1, 1)))
    decision.sn_equivalent_rel_A(inst)
    garside.is_conjugate(BraidWord(3, (1, 2)), BraidWord(3, (2, 1)))


def measure_setup(run: Run) -> float:
    """Median wall time of a fresh interpreter answering a trivial `nf`."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    argv = [sys.executable, "-m", "snbraid.cli", "nf", "-n", "3", "s1 s2 s1"]
    expected = {"n": 3, "delta_power": 1, "factors": []}
    times = []
    for _ in range(SETUP_REPEATS):
        got = _op(run, "setup", lambda: subprocess.run(
            argv, cwd=ROOT, env=env, capture_output=True, text=True, timeout=60))
        if got is None:
            continue
        proc, (t0, t1, _) = got
        if _verify(run, "setup", lambda: None if proc.returncode == 0
                   and json.loads(proc.stdout) == expected else f"nf printed {proc.stdout!r}"):
            times.append(t1 - t0)
    return statistics.median(times) if times else float("nan")


# ---------------------------------------------------------------------------
# metrics


def _percentile(values: list[float], q: int) -> float:
    if len(values) < 2:
        return values[0] if values else float("nan")
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(run: Run, workload: Workload, setup_s: float, scaled: bool = True) -> dict:
    def group(kind):
        return "focus" if kind in workload.focus else "probe"

    dec = list(run.per_op("decision", group("decision"), scaled).values())
    conj = list(run.per_op("conj", group("conj"), scaled).values())
    nf_group = group("nf")
    nf = run.per_op("nf", nf_group, scaled)
    part = list(run.per_op("partition", group("partition"), scaled).values())
    return {
        "setup_s": (setup_s, "s"),
        "decisions_per_s": (run.throughput("decision", group("decision"), scaled), "1/s"),
        "decision_ms.p50": (_percentile(dec, 50) * 1e3, "ms"),
        "decision_ms.p90": (_percentile(dec, 90) * 1e3, "ms"),
        "verdicts_decided": (sum(run.decided.get(group("decision"), {}).values()), "count"),
        "conj_per_s": (run.throughput("conj", group("conj"), scaled), "1/s"),
        "conj_ms.p50": (_percentile(conj, 50) * 1e3, "ms"),
        "conj_ms.p90": (_percentile(conj, 90) * 1e3, "ms"),
        "nf_letters_per_s": (sum(run.letters[nf_group, i] for i in nf) / sum(nf.values()), "letters/s"),
        "partition_s": (statistics.median(part), "s"),
        "partition_merged": (sum(run.merged.get(group("partition"), {}).values()), "count"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    O.self_test()
    warnings.simplefilter("ignore")  # formal instances warn about orbit cycles
    workload = Workload(args.workload, args.seed, args.seconds, bool(args.trace))
    run = Run()
    warm_up()
    if args.trace:
        from tracing import Tracer

        workload.run(Run())  # fills first-use caches for both timed runs
        tracer = Tracer()
        tracer.install()
        try:
            traced = workload.run(run)
        finally:
            tracer.uninstall()
        untraced = workload.run(Run())
        measured = traced
        metrics = tracer.metrics()
        metrics["trace.overhead_pct"] = ((traced / untraced - 1.0) * 100.0, "%")
    else:
        setup_s = measure_setup(run)
        run.host.start()
        try:
            measured = workload.run(run)
            workload.partition.determinism(run)
        finally:
            run.host.stop()
        metrics = end_to_end(run, workload, setup_s)
        unscaled = end_to_end(run, workload, setup_s, scaled=False)
        speed = statistics.quantiles(run.host.factor, n=10)

    report = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "measure_s": round(measured, 3),
        "attempted": run.attempted, "failed": run.failed,
        "verdicts": run.verdicts, "certificates": run.certificates,
        "failures": run.failures,
    }
    if not args.trace:
        # the operations' own times, and the host speed factor's deciles
        report["unscaled"] = {k: v for k, (v, u) in unscaled.items() if u not in ("count", "MB")}
        report["host_speed"] = {"p10": speed[0], "p50": speed[4], "p90": speed[8]}
    print(json.dumps(report, sort_keys=True))
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
