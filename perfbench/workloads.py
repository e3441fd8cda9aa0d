"""Pinned jobs of the three benchmark workloads.

Each job is one `hankelpv` invocation in a fresh interpreter, so the
tanh-sinh node tables, mpmath constants and `lru_cache` tables start cold
in every job, as they do for a command-line user. A job is either CLI argv
for `hankelpv.cli.main` or, for the jmo rows, a call of the public
`bridge.verify_jmo_sigma_form`, because `hankelpv bridge --suite jmo`
exits 2 at this revision and a fix would then read as a slowdown.

`check` says how `check.py` grades the printed CSV:
  "residual": every row must print passed=true; its digits are
              -log10(residual), capped at the job's target digits.
  "values":   the listed columns are compared with the job's recorded
              reference in refs.json (see record.py).

Every job prints at the bits given in its argv, so a job's target digits
and its reference do not depend on HANKELPV_BITS. README.md lists the jobs
left out on purpose, with the reason.
"""

VERIFY = (
    {"id": "verify-all", "check": "residual",
     "argv": ["verify", "--suite", "all", "--alpha", "1", "--t", "0.5",
              "--n-max", "3", "--bits", "256"]},
    {"id": "bridge-parity", "check": "residual",
     "argv": ["bridge", "--suite", "parity", "--alpha", "1", "--t", "0.5",
              "--n-max", "0", "--bits", "128"]},
    {"id": "jmo", "check": "residual",
     "call": {"a": "-0.5", "b": "1", "t": "0.5", "n_list": [1], "bits": 128}},
)

SCAN = (
    # degree 130 at 256 bits loses a Cholesky pivot, so the n=64 table is
    # rebuilt at 512 bits: the workload always holds one escalation
    {"id": "scan-g2", "check": "values", "columns": ["raw", "extrapolated", "reference"],
     "argv": ["scan", "--mode", "g2", "--s", "0.5", "--n-list", "8,16,32,64",
              "--allow-large-n", "--bits", "256"]},
    {"id": "scan-delta2", "check": "values", "columns": ["raw", "extrapolated", "reference"],
     "argv": ["scan", "--mode", "delta2", "--s", "2", "--n-list", "8,16,32,64",
              "--allow-large-n", "--bits", "512"]},
    {"id": "scan-g1", "check": "values", "columns": ["raw", "extrapolated", "reference"],
     "argv": ["scan", "--mode", "g1", "--s", "0.1", "--bits", "512"]},
    {"id": "scan-sigma-n4", "check": "values", "columns": ["raw", "extrapolated"],
     "argv": ["scan", "--mode", "sigma-n4", "--s", "1", "--bits", "512"]},
    {"id": "hankel", "check": "values", "columns": ["log_det"],
     "argv": ["hankel", "--alpha", "2.5", "--t", "2", "--n-max", "48", "--bits", "512"]},
    {"id": "recurrence", "check": "values", "columns": ["h", "beta", "p1", "log_D"],
     "argv": ["recurrence", "--alpha", "2.5", "--t", "2", "--n-max", "128",
              "--bits", "512"]},
)

FLOWS = (
    {"id": "p3-s0.25", "check": "values", "columns": ["g", "dg"],
     "argv": ["solve-p3", "--a", "1/2", "--s", "0.25", "--bits", "256"]},
    {"id": "p3-s0.1", "check": "values", "columns": ["g", "dg"],
     "argv": ["solve-p3", "--a", "1/2", "--s", "0.1", "--bits", "320"]},
    {"id": "pv-n2", "check": "values", "columns": ["R", "dR"],
     "argv": ["solve-pv", "--n", "2", "--alpha", "1", "--t0", "0.1", "--t-end", "0.3",
              "--bits", "256"]},
    {"id": "pv-n3", "check": "values", "columns": ["R", "dR"],
     "argv": ["solve-pv", "--n", "3", "--alpha", "2.5", "--t0", "0.5", "--t-end", "0.75",
              "--bits", "256"]},
)

WORKLOADS = {
    "verify": {
        "why": "identity and bridge residual reports: quadrature and derivative "
               "stencils do most of the work; no ODE steps",
        "jobs": VERIFY,
    },
    "scan": {
        "why": "double-scaling scans and large-n tables: moments and Cholesky do "
               "most of the work, one pivot escalation; no quadrature, stencils or ODE",
        "jobs": SCAN,
    },
    "flows": {
        "why": "Painleve V and III' trajectories: GBS steps in ode.solve_ode do most "
               "of the work; no quadrature or stencils",
        "jobs": FLOWS,
    },
}
