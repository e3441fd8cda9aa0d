"""Arbitrary-precision engine for Hankel determinants of the singularly
perturbed Jacobi weight (1-x^2)^alpha * exp(-t/x^2) on [-1, 1].

The modules are organized bottom-up:

- `precision`: working-precision policy, escalation and numeric errors;
- `special`: Gamma, Barnes G, Kummer and the U-function moments;
- `quadrature`: double-exponential integration (tanh-sinh and the z-map) on cached node tables;
- `derivatives`: Richardson-extrapolated finite differences, which only
  the tests use, as a reference for the exact t-derivatives;
- `weights`: the weight's parameters and moment tables;
- `recurrence`: Hankel determinants, three-term recurrence tables, their
  exact t-jets, the mpf Taylor-series kernel and the three-term sweep;
- `ladder`: the auxiliary Painleve-type quantities r_n, R_n and sigma_n,
  and their forward run by the difference equation for r_n;
- `identities`: the residual verification suite for the paper's relations;
- `bridge`: the associated deformed-Jacobi system on [0, 1] and the parity
  splitting onto it;
- `ode`: adaptive Taylor-series integration of polynomial flows, in fixed
  point;
- `series`: the exact rational small-s and large-s series of g(s, a) and
  of the log-ratio, and the truncated series tables;
- `flows`: the Painleve V flow for R_n(t), the PIII' flow for g(s, a) and
  that flow with the log-ratio, on one runner;
- `scans`: the double-scaling scans and the Dyson constant-term experiment;
- `asymptotics`: only imports, of the names the benchmark's tracer wraps;
- `report`: the residual rows, one record builder and the deterministic
  CSV/JSON rendering;
- `choices`: the named choices the command line offers (series kinds, scan
  modes, aux routes);
- `cli`: the command-line front end, which loads each pipeline when its
  command runs.
"""

from .precision import PrecisionConfig, working_precision

__version__ = "0.1.0"

__all__ = ["PrecisionConfig", "working_precision", "__version__"]
