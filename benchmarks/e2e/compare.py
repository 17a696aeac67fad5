"""Compare benchmark runs of a parent commit and a change.

    python3 benchmarks/e2e/compare.py PARENT.jsonl CHANGE.jsonl

Each file holds run records as ``run.py`` appends them to
``benchmarks/e2e/.bench/results.jsonl`` in its checkout.  Runs are grouped
by (workload, trace, seconds) and, within a group, a parent run is paired
with the change's run of the same seed (the n-th with the n-th, when a
seed was run more than once); the two files must hold the same seeds in
every group they share, or nothing is compared.  Alternate the sides
while running: parent, change, change, parent, ...  One row is printed
per workload and metric:

* ``improved``   — at least 10 pairs, the change wins at least 9 in 10
  (ties count for neither) and the medians differ by more than the
  parent's interquartile range;
* ``regressed``  — the change's median is worse than the parent's by more
  than the metric's bound (a metric without a bound: the improvement
  rule, the other way round), or the change has more incorrect runs or
  a higher share of failed operations than the parent in that group;
* ``unresolved`` — fewer than 10 pairs, or the parent's spread
  (interquartile range over median) exceeds the bound and not every run
  of the change reads better than every run of the parent;
* ``unchanged``  — otherwise.

A pair in which either run is incorrect gives no metric values.  Exits 1
when any row is ``regressed``, 2 when the files cannot be compared.
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import summary  # noqa: E402

MIN_PAIRS = 10
WIN_SHARE = 0.9
SPEC = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


class MismatchedRuns(ValueError):
    """The two files do not hold the same runs in some group."""


def verdict(parent, change, better: str, bound: float | None) -> str:
    """The verdict for one metric's paired parent/change values."""
    n = min(len(parent), len(change))
    if n < MIN_PAIRS:
        return "unresolved"
    parent, change = list(parent[:n]), list(change[:n])
    sign = 1.0 if better == "higher" else -1.0
    diffs = [sign * (c - p) for p, c in zip(parent, change)]
    wins = sum(d > 0 for d in diffs)
    losses = sum(d < 0 for d in diffs)
    q1, p_med, q3 = summary.quartiles(parent)
    iqr = q3 - q1
    gain = sign * (summary.median(change) - p_med)
    if wins >= WIN_SHARE * n and gain > iqr:
        return "improved"
    if bound is None:
        if losses >= WIN_SHARE * n and -gain > iqr:
            return "regressed"
        return "unchanged"
    if -gain > bound * abs(p_med):
        return "regressed"
    all_better = min(sign * c for c in change) > max(sign * p for p in parent)
    if iqr > bound * abs(p_med) and not all_better:
        return "unresolved"
    return "unchanged"


def load_runs(path) -> dict:
    """{(workload, trace, seconds): [run record, ...]} in file order."""
    groups: dict = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                run = json.loads(line)
                key = (run["workload"], run["trace"], run["seconds"])
                groups.setdefault(key, []).append(run)
    return groups


def pair_runs(parent: list, change: list) -> list[tuple[dict, dict]]:
    """Parent and change runs paired by seed, in seed order."""
    seeds = Counter(r["seed"] for r in parent)
    if seeds != Counter(r["seed"] for r in change):
        raise MismatchedRuns("the two sides ran different seeds")

    def by_seed(runs):
        return sorted(runs, key=lambda r: r["seed"])  # stable per seed

    return list(zip(by_seed(parent), by_seed(change)))


def fail_share(runs) -> float:
    return sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs)


def compare(parent: dict, change: dict, spec: dict) -> list[tuple]:
    """Rows of (workload, trace, seconds, metric, parent median, change
    median, pairs, verdict)."""
    rules = {
        m["name"]: (m["better"], m.get("bound"))
        for m in spec["end_to_end"] + spec["per_layer"]
    }
    rows = []
    for key in sorted(set(parent) & set(change)):
        try:
            pairs = pair_runs(parent[key], change[key])
        except MismatchedRuns as err:
            raise MismatchedRuns(f"{key}: {err}") from None
        p_runs = [p for p, _c in pairs]
        c_runs = [c for _p, c in pairs]
        worse_failures = (
            sum(not r["correct"] for r in c_runs)
            > sum(not r["correct"] for r in p_runs)
            or fail_share(c_runs) > fail_share(p_runs)
        )
        good = [(p, c) for p, c in pairs if p["correct"] and c["correct"]]
        names = {
            n for p, c in pairs for n in p["metrics"] if n in c["metrics"]
        }
        for name in sorted(names):
            metric = pairs[0][1]["metrics"].get(name, {})
            better, bound = rules.get(
                name, (metric.get("better", "lower"), None)
            )
            values = [
                (p["metrics"][name]["value"], c["metrics"][name]["value"])
                for p, c in good
                if name in p["metrics"] and name in c["metrics"]
            ]
            pv = [v for v, _ in values]
            cv = [v for _, v in values]
            word = (
                "regressed" if worse_failures
                else verdict(pv, cv, better, bound)
            )
            rows.append((
                *key, name,
                summary.median(pv) if pv else float("nan"),
                summary.median(cv) if cv else float("nan"),
                len(values), word,
            ))
    return rows


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text())
    try:
        rows = compare(load_runs(args[0]), load_runs(args[1]), spec)
    except MismatchedRuns as err:
        print(f"compare: {err}", file=sys.stderr)
        return 2
    print(f"{'workload':12} {'trace':5} {'seconds':>7} {'metric':28} "
          f"{'parent':>12} {'change':>12} {'pairs':>5}  verdict")
    for workload, trace, seconds, name, p, c, n, word in rows:
        print(f"{workload:12} {trace:5d} {seconds:7g} {name:28} {p:12.5g} "
              f"{c:12.5g} {n:5d}  {word}")
    return 1 if any(row[-1] == "regressed" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
