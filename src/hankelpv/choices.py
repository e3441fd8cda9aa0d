"""The named choices the command line offers and the pipelines check.

Every command loads this module, so the parser builds its choices from it
without importing the pipeline that reads them: the series tables (series),
the scans (scans) and the auxiliary tables (ladder).
"""

# series tables: the fixed kinds are the families at a = +-1/2, the
# parametric kinds take the exact a
FIXED_KINDS = ("g1-small", "g2-small", "g1-large", "g2-large",
               "delta-small", "delta-large")
PARAMETRIC_KINDS = ("g-small", "g-large", "delta-ab-small", "delta-ab-large")
SERIES_KINDS = FIXED_KINDS + PARAMETRIC_KINDS

# double-scaling scans, and the orders a scan or the Dyson experiment runs
# when none are given
SCAN_MODES = ("g1", "g2", "delta1", "delta2", "sigma-n4")
DEFAULT_N_LIST = (8, 16, 32, 64)

# how an auxiliary table gets r_n and R_n: the ladder identities from the
# recurrence table, or the integral oracles
ROUTE_IDENTITY = "identity"
ROUTE_QUADRATURE = "quadrature"
AUX_ROUTES = (ROUTE_IDENTITY, ROUTE_QUADRATURE)
