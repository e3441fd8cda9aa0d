"""Compare two sets of benchmark results written by `run.py --out`.

    python3 perfbench/compare.py BASE.jsonl NEW.jsonl

For each workload and metric found on both sides it prints the median and
quartiles over runs of each side and the change of the median as a share
of the base median; an end-to-end metric worse than its bound in
BENCHMARK.json is marked WORSE. Refuses, with exit status 2, to compare
results whose mpmath backend differs: a gmpy backend changes every
number. Exits 1 if any metric is WORSE.
"""

import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(path):
    with open(path) as handle:
        return [json.loads(line) for line in handle if line.strip()]


def by_metric(runs):
    table = {}
    for r in runs:
        for name, metric in r["metrics"].items():
            table.setdefault((r["workload"], name), []).append(metric["value"])
    return table


def spread(values):
    q = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return f"{statistics.median(values):.6g} [{q[0]:.6g}..{q[2]:.6g}] n={len(values)}"


def main(base_path, new_path):
    base, new = load(base_path), load(new_path)
    backends = {r["env"]["backend"] for r in base + new}
    if len(backends) > 1:
        print(f"refused: the results mix mpmath backends {sorted(backends)}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    worse = False
    old, now = by_metric(base), by_metric(new)
    for key in sorted(old.keys() & now.keys()):
        workload, name = key
        a, b = statistics.median(old[key]), statistics.median(now[key])
        change = (b - a) / abs(a) if a else 0.0
        mark = ""
        if name in bounds:
            sign = 1 if bounds[name]["better"] == "lower" else -1
            if sign * change > bounds[name]["bound"]:
                mark, worse = "  WORSE", True
        print(f"{workload:7} {name:32} {spread(old[key]):44} -> {spread(now[key]):44} "
              f"{change:+.3f}{mark}")
    return 1 if worse else 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    sys.exit(main(sys.argv[1], sys.argv[2]))
