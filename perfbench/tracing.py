"""Per-layer tracing from outside the program: the public entry points of
each snbraid module are replaced by timing wrappers for the duration of a
traced run, and restored afterwards.

Each span records calls, inclusive time and self time (inclusive minus the
time spent in wrapped callees). Stacks and counters are per thread, because
`partition_sn_classes` may decide pairs on worker threads; they are merged
when the run ends.
"""

from __future__ import annotations

import statistics
import threading
import time

from snbraid import cli, decision, garside, invariants, mixed, words

MODULES = (words, garside, mixed, invariants, decision, cli)
NF_LENGTHS = (100, 200, 400, 800, 1600)
CONJ_STRANDS = range(3, 9)
CERTIFICATE_NAMES = ("exponent_sum", "cycle_type", "linking_matrix", "burau_charpoly")


class _ThreadState:
    def __init__(self):
        self.stack: list[list[float]] = []
        self.spans: dict[str, list] = {}  # name -> [calls, inclusive, self]
        self.samples: dict[str, list[float]] = {}
        self.counts: dict[str, int] = {}


class Tracer:
    """Install with `install()`, run the workload, `uninstall()`, then read
    `metrics()`. Only one tracer may be installed at a time."""

    def __init__(self):
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._lock = threading.Lock()
        self._undo: list[tuple[object, str, object]] = []
        # Set while partition_sn_classes runs; its pairs may be decided on
        # pool threads, and nothing else decides concurrently.
        self._in_partition = False

    def _state(self) -> _ThreadState:
        st = getattr(self._local, "st", None)
        if st is None:
            st = _ThreadState()
            self._local.st = st
            with self._lock:
                self._states.append(st)
        return st

    # -- wrapping -----------------------------------------------------------

    def _span(self, name: str, fn, after=None):
        """Wrap fn in a span; `after(state, args, result, seconds)` may record
        extra counters once the call returns."""

        def wrapper(*args, **kwargs):
            st = self._state()
            frame = [0.0]
            st.stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                st.stack.pop()
                if st.stack:
                    st.stack[-1][0] += dt
                rec = st.spans.setdefault(name, [0, 0.0, 0.0])
                rec[0] += 1
                rec[1] += dt
                rec[2] += dt - frame[0]
            if after is not None:
                after(st, args, result, dt)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def _replace_everywhere(self, original, replacement):
        """Point every snbraid module global that holds `original` at the
        replacement (modules import entry points by name from each other)."""
        for mod in MODULES:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, attr, value))
                    setattr(mod, attr, replacement)

    def _replace_attr(self, owner, attr: str, replacement):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        for fn in (words.compose, words.invert, words.free_reduce, words.permutation):
            self._replace_everywhere(fn, self._span("words", fn))
        parse = words.BraidWord.__dict__["parse"].__func__
        self._replace_attr(words.BraidWord, "parse", staticmethod(self._span("words", parse)))

        def nf_sample(st, args, result, dt):
            length = len(args[0].letters)
            if length in NF_LENGTHS:
                st.samples.setdefault(f"nf.len{length}", []).append(dt)

        def conj_sample(st, args, result, dt):
            st.samples.setdefault(f"conj.n{args[0].strands}", []).append(dt)

        cf = self._span("garside.canonical_form", garside.canonical_form, nf_sample)
        self._replace_everywhere(garside.canonical_form, cf)
        ic = self._span("garside.is_conjugate", garside.is_conjugate, conj_sample)
        self._replace_everywhere(garside.is_conjugate, ic)
        self._replace_attr(garside.CanonicalForm, "mul",
                           self._span("garside.mul", garside.CanonicalForm.mul))
        self._replace_attr(garside.CanonicalForm, "inv",
                           self._span("garside.inv", garside.CanonicalForm.inv))

        for fn in (mixed.validate, mixed.project, mixed.section, mixed.decompose,
                   mixed.is_kernel, mixed.kernel_generators, mixed.act):
            self._replace_everywhere(fn, self._span("mixed", fn))
        self._replace_attr(mixed.MixedBraid, "__post_init__",
                           self._span("mixed", mixed.MixedBraid.__post_init__))

        for name in ("cycle_type", "linking_matrix", "burau_charpoly"):
            fn = getattr(invariants, name)
            self._replace_everywhere(fn, self._span(f"invariants.{name}", fn))

        # Decision spans are read inclusively: screen and ambient test are
        # subtracted from the decision total to give the kernel search.
        self._replace_attr(decision, "_screen_invariants",
                           self._span("decision.screen", decision._screen_invariants))
        self._replace_attr(decision, "is_conjugate",
                           self._span("decision.ambient", decision.is_conjugate))
        self._replace_attr(decision, "_search_kernel_conjugator",
                           self._counted_search(decision._search_kernel_conjugator))

        def verdict(st, args, result, dt):
            key = f"verdict.{result.status}"
            st.counts[key] = st.counts.get(key, 0) + 1
            if result.certificate is not None:
                name = result.certificate.invariant
                key = f"cert.{name if name in CERTIFICATE_NAMES else 'ambient'}"
                st.counts[key] = st.counts.get(key, 0) + 1
            if self._in_partition and result.status != decision.INCONCLUSIVE:
                st.counts["partition.pairs_decided"] = st.counts.get("partition.pairs_decided", 0) + 1

        for name in ("sn_equivalent_rel_A", "sn_equivalent_twisted"):
            fn = getattr(decision, name)
            self._replace_everywhere(fn, self._span("decision", fn, verdict))

        part = decision.partition_sn_classes

        def partition(*args, **kwargs):
            self._in_partition = True
            try:
                return part(*args, **kwargs)
            finally:
                self._in_partition = False

        # A span on the calling thread, so that cli.s excludes pairs decided
        # on pool threads.
        self._replace_everywhere(part, self._span("decision.partition", partition))
        self._replace_attr(cli, "run", self._span("cli", cli.run))

    def _counted_search(self, search):
        def wrapper(inst, budget, accept):
            st = self._state()

            def counted(c, c_cf):
                st.counts["kernel.kept"] = st.counts.get("kernel.kept", 0) + 1
                return accept(c, c_cf)

            return search(inst, budget, counted)

        return self._span("decision.kernel_search", wrapper)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- results ------------------------------------------------------------

    def metrics(self) -> dict[str, tuple[float, str]]:
        spans: dict[str, list] = {}
        samples: dict[str, list[float]] = {}
        counts: dict[str, int] = {}
        for st in self._states:
            for k, rec in st.spans.items():
                agg = spans.setdefault(k, [0, 0.0, 0.0])
                for i in range(3):
                    agg[i] += rec[i]
            for k, v in st.samples.items():
                samples.setdefault(k, []).extend(v)
            for k, v in st.counts.items():
                counts[k] = counts.get(k, 0) + v

        def calls(name):
            return spans.get(name, [0, 0.0, 0.0])[0]

        def self_s(name):
            return spans.get(name, [0, 0.0, 0.0])[2]

        def incl_s(name):
            return spans.get(name, [0, 0.0, 0.0])[1]

        out: dict[str, tuple[float, str]] = {}
        out["words.calls"] = (calls("words"), "count")
        out["words.s"] = (self_s("words"), "s")
        for name in ("canonical_form", "mul", "inv", "is_conjugate"):
            out[f"garside.{name}.calls"] = (calls(f"garside.{name}"), "count")
            out[f"garside.{name}.s"] = (self_s(f"garside.{name}"), "s")
        for n in CONJ_STRANDS:
            out[f"garside.is_conjugate_ms.n{n}.p50"] = (_median_ms(samples.get(f"conj.n{n}")), "ms")
        for length in NF_LENGTHS:
            out[f"garside.nf_ms.len{length}.p50"] = (_median_ms(samples.get(f"nf.len{length}")), "ms")
        out["mixed.calls"] = (calls("mixed"), "count")
        out["mixed.s"] = (self_s("mixed"), "s")
        out["invariants.cycle_type.s"] = (self_s("invariants.cycle_type"), "s")
        out["invariants.linking_matrix.s"] = (self_s("invariants.linking_matrix"), "s")
        out["invariants.burau_charpoly.calls"] = (calls("invariants.burau_charpoly"), "count")
        out["invariants.burau_charpoly.s"] = (self_s("invariants.burau_charpoly"), "s")
        for name in CERTIFICATE_NAMES:
            out[f"invariants.certificates.{name}"] = (counts.get(f"cert.{name}", 0), "count")
        screen, ambient = incl_s("decision.screen"), incl_s("decision.ambient")
        total = incl_s("decision")
        search = incl_s("decision.kernel_search")
        kept = counts.get("kernel.kept", 0)
        out["decision.screen.s"] = (screen, "s")
        out["decision.ambient.s"] = (ambient, "s")
        out["decision.kernel_search.s"] = (total - screen - ambient, "s")
        out["decision.kernel_states_kept"] = (kept, "count")
        out["decision.kernel_states_per_s"] = (kept / search if search else 0.0, "1/s")
        for status in (decision.EQUIVALENT, decision.NOT_EQUIVALENT, decision.INCONCLUSIVE):
            out[f"decision.verdicts.{status}"] = (counts.get(f"verdict.{status}", 0), "count")
        out["decision.certificates.ambient"] = (counts.get("cert.ambient", 0), "count")
        out["decision.partition.pairs_decided"] = (counts.get("partition.pairs_decided", 0), "count")
        out["cli.s"] = (self_s("cli"), "s")
        return out


def _median_ms(values) -> float:
    return statistics.median(values) * 1e3 if values else 0.0
