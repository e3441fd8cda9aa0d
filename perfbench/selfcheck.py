"""Self-checks of the benchmark on three short jobs, one per workload.

    python3 perfbench/selfcheck.py

1. A traced pass prints every job's output byte-identical to an untraced pass.
2. Two traced passes give identical work counts.
3. A deliberately truncated value lowers a job's digits and fails it.
4. A raising job is counted as a failed job, not as a benchmark crash.
Prints one line per check and exits 1 if any fails. Takes about 15 s.
"""

import random
import sys
import time

import check
import run
from workloads import WORKLOADS

JOBS = {spec["id"]: spec for w in WORKLOADS.values() for spec in w["jobs"]}
QUICK = [JOBS["scan-sigma-n4"], JOBS["p3-s0.25"], JOBS["bridge-parity"]]


def main():
    refs = run.load_refs()
    deadline = time.perf_counter() + run.RUN_LIMIT_S
    rng = random.Random(0)
    _, plain = run.run_pass(QUICK, rng, False, deadline)
    _, traced = run.run_pass(QUICK, rng, True, deadline)
    _, again = run.run_pass(QUICK, rng, True, deadline)
    stdout = {spec["id"]: result["stdout"] for spec, result in plain}
    counts = {spec["id"]: result["trace"]["counts"] for spec, result in traced}
    results = {
        "traced output is byte-identical to untraced":
            all(result["stdout"] == stdout[spec["id"]] for spec, result in traced + again),
        "two traced passes give identical counts":
            all(result["trace"]["counts"] == counts[spec["id"]] for spec, result in again),
    }

    spec, result = next(item for item in plain if item[0]["id"] == "scan-sigma-n4")
    digits, reason = check.grade(spec, result, refs[spec["id"]])
    lines = result["stdout"].splitlines()
    header, first = lines[0].split(","), lines[1].split(",")
    column = header.index("raw")
    first[column] = first[column][:12]  # about ten significant digits
    cut = dict(result, stdout="\n".join([lines[0], ",".join(first), *lines[2:]]) + "\n")
    cut_digits, cut_reason = check.grade(spec, cut, refs[spec["id"]])
    results["a truncated value lowers the digits and fails the job"] = (
        reason is None and cut_reason is not None and cut_digits < digits)

    raising = dict(JOBS["jmo"], call=dict(JOBS["jmo"]["call"], n_list=[]))
    _, failures = run.measure([JOBS["scan-sigma-n4"], raising], 0, 0, False)
    results["a raising job counts as a failed job"] = (
        len(failures) == 1 and failures[0].startswith("jmo: raised"))

    for name, ok in results.items():
        print(f"{'ok' if ok else 'FAILED'}: {name}")
    return 0 if all(results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
