"""Compare two sets of benchmark results, metric by metric and workload by
workload.

    python3 perfbench/compare.py RESULTS_A [RESULTS_B]

Each RESULTS directory holds the standard output of untraced runs, one
file per run (any name). For every end-to-end metric in BENCHMARK.json and
every workload this prints the median and quartiles of each set, their
spread (interquartile distance over the median), the change of B's median
against A's, and whether that change stays within the metric's bound in its
"worse" direction. With one directory only the spreads are printed.
The exit code is 1 when some metric of B is worse than its bound allows.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def load(directory: str) -> dict[str, dict]:
    """workload -> {"metrics": {name: [values]}, "failed": [share per run]}"""
    out: dict[str, dict] = {}
    for path in sorted(Path(directory).iterdir()):
        lines = [ln for ln in path.read_text().splitlines() if ln.startswith("{")]
        if len(lines) < 2:
            continue
        report, result = json.loads(lines[-2]), json.loads(lines[-1])
        if report.get("trace"):
            continue
        entry = out.setdefault(report["workload"], {"metrics": {}, "failed": []})
        entry["failed"].append(result["failed"] / result["attempted"])
        for name, m in result["metrics"].items():
            entry["metrics"].setdefault(name, []).append(m["value"])
    return out


def summary(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def main(argv: list[str]) -> int:
    if not 1 <= len(argv) <= 2:
        print(__doc__, file=sys.stderr)
        return 2
    sets = [load(d) for d in argv]
    worse = False
    for workload in sorted(sets[0]):
        print(f"== {workload}")
        for spec in SPEC["end_to_end"]:
            name, bound = spec["name"], spec["bound"]
            cells = []
            meds = []
            for data in sets:
                values = data.get(workload, {}).get("metrics", {}).get(name)
                if not values:
                    cells.append(f"{'-':>32}")
                    meds.append(None)
                    continue
                q1, med, q3 = summary(values)
                spread = (q3 - q1) / med if med else float("inf")
                cells.append(f"{med:12.4g} [{q1:.4g}, {q3:.4g}] {spread:6.1%}")
                meds.append(med)
            line = f"  {name:18} {' | '.join(cells)}"
            if len(sets) == 2 and None not in meds and meds[0]:
                change = meds[1] / meds[0] - 1.0
                bad = change < -bound if spec["better"] == "higher" else change > bound
                worse |= bad
                line += f"  {change:+7.1%} {'WORSE' if bad else 'ok'} (bound {bound:.0%})"
            else:
                line += f"  (bound {bound:.0%})"
            print(line)
        shares = [sorted(set(d.get(workload, {}).get("failed", []))) for d in sets]
        print(f"  failed share per run: {' | '.join(str(s) for s in shares)}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
