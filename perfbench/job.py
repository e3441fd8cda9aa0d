"""Run one benchmark job in this fresh interpreter; print one JSON line.

    python3 perfbench/job.py '<job spec as JSON>' <trace 0|1>
    python3 perfbench/job.py env

The job's own stdout and stderr are captured; the line printed holds the
exit status, the captured output, the time spent importing hankelpv.cli,
the peak resident set and, when traced, the tracer's counts and self
times. `env` only imports hankelpv.cli and prints the environment stamp.
The package is always imported from this checkout's src/.
"""

import contextlib
import io
import json
import os
import platform
import resource
import sys
import time
import traceback

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
EXIT_SETUP = 3


def _import_cli():
    sys.path.insert(0, SRC)
    start = time.perf_counter()
    import hankelpv.cli
    setup_s = time.perf_counter() - start
    if not os.path.abspath(hankelpv.__file__).startswith(SRC + os.sep):
        sys.exit(f"hankelpv imported from {hankelpv.__file__}, not from {SRC}")
    return hankelpv.cli, setup_s


def run_call(cli, call):
    """The jmo rows, rendered as `hankelpv bridge` renders them."""
    from hankelpv import report
    from hankelpv.bridge import make_tilde_params, verify_jmo_sigma_form
    from hankelpv.precision import PrecisionConfig

    bits = call["bits"]
    config = PrecisionConfig(bits=bits, target_digits=cli.target_digits_for_bits(bits))
    tp = make_tilde_params(call["a"], call["b"], call["t"], config)
    rows = verify_jmo_sigma_form(call["n_list"], tp, config)
    sys.stdout.write(report.render(report.verify_records(rows, config), report.FORMAT_CSV))
    return cli.EXIT_FINDING if any(not row.passed for row in rows) else cli.EXIT_OK


def job_bits(cli, spec):
    if "call" in spec:
        return spec["call"]["bits"]
    return cli.config_from_args(cli.build_parser().parse_args(spec["argv"])).bits


def env():
    try:
        cli, _ = _import_cli()
    except ImportError:
        traceback.print_exc()
        return EXIT_SETUP
    import mpmath
    print(json.dumps({
        "python": platform.python_version(),
        "mpmath": mpmath.__version__,
        "backend": mpmath.libmp.BACKEND,
        "nproc": os.cpu_count(),
    }))
    return 0


def run(spec, traced):
    try:
        cli, setup_s = _import_cli()
    except ImportError:
        traceback.print_exc()
        return EXIT_SETUP
    tracer = None
    if traced:
        import tracer as tracer_module
        tracer = tracer_module.install()
    out, err = io.StringIO(), io.StringIO()
    error = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            if "call" in spec:
                status = run_call(cli, spec["call"])
            else:
                status = cli.main(spec["argv"])
        except SystemExit as exc:
            status = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a raising job is a failed job, reported by the caller
            status = None
            error = traceback.format_exc()
    bits = job_bits(cli, spec)
    result = {
        "status": status,
        "error": error,
        "stdout": out.getvalue(),
        "stderr": err.getvalue(),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "bits": bits,
        "target_digits": cli.target_digits_for_bits(bits),
    }
    if tracer is not None:
        result["trace"] = tracer.report()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    if sys.argv[1] == "env":
        sys.exit(env())
    sys.exit(run(json.loads(sys.argv[1]), sys.argv[2] == "1"))
