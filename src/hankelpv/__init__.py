"""Arbitrary-precision engine for Hankel determinants of the singularly
perturbed Jacobi weight (1-x^2)^alpha * exp(-t/x^2) on [-1, 1].

The modules are organized bottom-up:

- `precision`: working-precision policy, escalation and numeric errors;
- `special`: Gamma, Barnes G, Kummer and the U-function moments;
- `quadrature`: double-exponential integration (tanh-sinh and the z-map) on cached node tables;
- `derivatives`: Richardson-extrapolated finite differences, an
  independent check on the exact t-derivatives;
- `weights`: the weight's parameters and moment tables;
- `recurrence`: Hankel determinants, three-term recurrence tables and
  their exact t-jets;
- `ladder`: the auxiliary Painleve-type quantities r_n, R_n and sigma_n,
  and their forward run by the difference equation for r_n;
- `identities`: the residual verification suite for the paper's relations;
- `bridge`: the associated deformed-Jacobi system on [0, 1] and the parity
  splitting onto it;
- `ode`: adaptive Taylor-series integration of polynomial flows;
- `asymptotics`: series tables, the Painleve V and III' flows and the
  double-scaling scans;
- `report`: one record builder and the deterministic CSV/JSON rendering;
- `cli`: the command-line front end.
"""

from .precision import PrecisionConfig, working_precision

__version__ = "0.1.0"

__all__ = ["PrecisionConfig", "working_precision", "__version__"]
