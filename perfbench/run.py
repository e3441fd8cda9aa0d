"""Benchmark for hankelpv: run one workload and check every job's output.

    python3 perfbench/run.py --workload verify|scan|flows --seed N --seconds S
                             --trace 0|1 [--out FILE]

Load model: a closed loop with one client. A pass runs the workload's jobs
one after another, each in a fresh interpreter (perfbench/job.py), the next
job starting when the previous one exits; the seed only shuffles the job
order within each pass. Passes repeat until another pass would end after
--seconds. With --trace 1 untraced and traced passes alternate.

End-to-end metrics, from untraced passes (median over passes):
  wall_s       seconds from the first job's spawn to the last job's exit
  setup_s      seconds the jobs spend importing hankelpv.cli, summed
  peak_rss_mb  the largest peak resident set of any job
  digits_min   the fewest correct digits among all printed numbers (check.py)
Per-layer metrics, from traced passes (perfbench/tracer.py): each layer's
self time (median), its work counts (which must repeat exactly from pass
to pass) and trace.overhead_share, the traced wall time over the untraced
one, less one.

Every job's output is graded against refs.json; a job that fails, or
prints other bytes in another pass, makes the result incorrect. The last
line of stdout is the result as JSON; the lines before it give each metric
with its unit, quartiles and sample count, and the environment stamp.
Exits 2, printing no result, when the hankelpv source tree or the
environment cannot be set up.
"""

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import time

import check
import tracer
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
JOB = os.path.join(HERE, "job.py")
# a run must end within 180 s even if a job hangs
RUN_LIMIT_S = 170


class SetupError(Exception):
    pass


def spawn(args, deadline):
    """Run job.py in a fresh interpreter; (its JSON line, wall seconds)."""
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, JOB, *args], cwd=ROOT, capture_output=True,
                          text=True, timeout=max(1.0, deadline - start))
    wall = time.perf_counter() - start
    if proc.returncode != 0 or not proc.stdout.strip():
        raise SetupError(f"job.py {args[0][:60]} exited {proc.returncode}: "
                         f"{proc.stderr.strip()[-400:]}")
    return json.loads(proc.stdout.splitlines()[-1]), wall


def run_pass(jobs, rng, traced, deadline):
    """One pass over the jobs in seeded order; (wall seconds, [(spec, result)])."""
    order = list(jobs)
    rng.shuffle(order)
    results = []
    start = time.perf_counter()
    for spec in order:
        result, result["wall_s"] = spawn([json.dumps(spec), "1" if traced else "0"], deadline)
        results.append((spec, result))
    return time.perf_counter() - start, results


def summary(values):
    q = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return {"median": statistics.median(values), "q1": q[0], "q3": q[2], "n": len(values)}


def load_refs():
    with open(os.path.join(HERE, "refs.json")) as handle:
        return json.load(handle)


def measure(jobs, seed, seconds, trace):
    """All passes of one run, graded; returns (passes, failures)."""
    refs = load_refs()
    rng = random.Random(seed)
    deadline = time.perf_counter() + RUN_LIMIT_S
    start = time.perf_counter()
    passes = []
    failures = []
    outputs = {}
    while True:
        traced = trace and len(passes) % 2 == 1
        try:
            wall, results = run_pass(jobs, rng, traced, deadline)
        except subprocess.TimeoutExpired as exc:
            failures.append(f"timed out: {exc.cmd[2][:80]}")
            break
        digits = []
        for spec, result in results:
            got, reason = check.grade(spec, result, refs[spec["id"]])
            result["digits"] = got
            if got is not None:
                digits.append(got)
            if outputs.setdefault(spec["id"], result["stdout"]) != result["stdout"]:
                reason = reason or "printed other bytes than in an earlier pass"
            if reason is not None:
                failures.append(f"{spec['id']}{' (traced)' if traced else ''}: {reason}")
        passes.append({"traced": traced, "wall_s": wall, "results": results,
                       "digits_min": min(digits, default=0.0)})
        elapsed = time.perf_counter() - start
        estimate = max(p["wall_s"] for p in passes[-2:])
        if (not trace or len(passes) >= 2) and elapsed + estimate > seconds:
            break
    return passes, failures


def end_to_end(plain):
    samples = {
        "wall_s": [p["wall_s"] for p in plain],
        "setup_s": [sum(r["setup_s"] for _, r in p["results"]) for p in plain],
        "peak_rss_mb": [max(r["peak_rss_mb"] for _, r in p["results"]) for p in plain],
    }
    for spec, _ in plain[0]["results"]:
        samples[f"job.{spec['id']}.wall_s"] = [
            r["wall_s"] for p in plain for s, r in p["results"] if s["id"] == spec["id"]]
    units = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
    metrics = {name: {"value": statistics.median(samples[name]), "unit": unit}
               for name, unit in units.items()}
    metrics["digits_min"] = {"value": min(p["digits_min"] for p in plain), "unit": "digits"}
    return metrics, samples


def per_layer(plain, traced):
    """Per-layer metrics, or None when the counts differ between traced passes."""
    traces = [[r["trace"] for _, r in p["results"]] for p in traced]
    counts = [{key: sum(t["counts"][key] for t in ts) for key in tracer.COUNTS} for ts in traces]
    if any(c != counts[0] for c in counts):
        return None, {}
    samples = {f"{layer}.self_s": [sum(t["self_s"][layer] for t in ts) for ts in traces]
               for layer in tracer.LAYERS}
    metrics = {name: {"value": statistics.median(v), "unit": "s"} for name, v in samples.items()}
    for key, value in counts[0].items():
        metrics[key] = {"value": value, "unit": "count"}
    c = counts[0]
    metrics["quadrature.calls_per_integral"] = {
        "value": c["quadrature.integrand_calls"] / max(1, c["quadrature.integrals"]),
        "unit": "calls/integral"}
    metrics["ode.rhs_calls_per_step"] = {
        "value": c["ode.rhs_calls"] / max(1, c["ode.steps"]), "unit": "calls/step"}
    plain_wall = statistics.median(p["wall_s"] for p in plain)
    traced_wall = statistics.median(p["wall_s"] for p in traced)
    metrics["trace.overhead_share"] = {"value": traced_wall / plain_wall - 1, "unit": "ratio"}
    samples["trace.wall_s"] = [p["wall_s"] for p in traced]
    return metrics, samples


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None, help="append the full result to this JSON-lines file")
    args = parser.parse_args(argv)

    try:
        env, _ = spawn(["env"], time.perf_counter() + 60)
        passes, failures = measure(WORKLOADS[args.workload]["jobs"], args.seed, args.seconds,
                                   bool(args.trace))
    except SetupError as exc:
        print(f"setup failed: {exc}", file=sys.stderr)
        return 2
    for failure in failures:
        print(f"failed: {failure}", file=sys.stderr)
    plain = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    if not plain or (args.trace and not traced):
        print("no pass completed", file=sys.stderr)
        return 2
    correct = not failures
    if args.trace:
        metrics, samples = per_layer(plain, traced)
        if metrics is None:
            print("failed: work counts differ between traced passes", file=sys.stderr)
            correct = False
            metrics = {}
    else:
        metrics, samples = end_to_end(plain)
    attempted = sum(len(p["results"]) for p in passes)
    env["bits"] = {spec["id"]: r["bits"] for spec, r in passes[0]["results"]}

    for name, values in samples.items():
        s = summary(values)
        unit = metrics.get(name, {"unit": "s"})["unit"]
        print(f"{name}: median {s['median']:.6g} {unit}, quartiles {s['q1']:.6g}..{s['q3']:.6g}, "
              f"{s['n']} passes")
    for name in sorted(set(metrics) - set(samples)):
        print(f"{name}: {metrics[name]['value']:.6g} {metrics[name]['unit']}")
    for spec, first in sorted(passes[0]["results"], key=lambda item: item[0]["id"]):
        print(f"job {spec['id']}: {first['bits']} bits, {first['digits']} digits")
    print(f"fail_share: {len(failures)}/{attempted} jobs")
    print(json.dumps({"env": env}))
    result = {"correct": correct, "attempted": attempted, "failed": len(failures),
              "metrics": metrics}
    if args.out is not None:
        with open(args.out, "a") as handle:
            handle.write(json.dumps({"workload": args.workload, "seed": args.seed,
                                     "trace": args.trace, "env": env, "samples": samples,
                                     **result}) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
