"""The names perfbench/tracer.py wraps as its `asymptotics` layer, imported
from their homes; no hankelpv module imports this one."""

from .flows import continue_pv, solve_piii_prime  # noqa: F401
from .scans import double_scaling_scan, dyson_constant_experiment  # noqa: F401
from .series import g_large_coefficients, g_small_coefficients, series_eval  # noqa: F401
