"""The selectors that name a step decider, an estimator and a sample source.

They live apart from the code they select, so that the command line can
list their values as choices without importing that code.  ``signum``,
``estimators`` and ``reference`` import them from here.
"""

import enum


class CostVariant(enum.Enum):
    """Which step decider drives the recursion."""

    EXACT = "exact"
    SIMPLIFIED = "simplified"
    APPROX = "approx"


class Estimator(enum.Enum):
    """Which mean of the per-sample ratios is taken."""

    ARITHMETIC = "arithmetic"
    HARMONIC = "harmonic"


class DiscretizationSource(enum.Enum):
    """Where a circle discretization's sample points come from."""

    SIGNUM = "signum"
    PARAM_EXACT = "param-exact"
    PARAM_FLOOR = "param-floor"
    PARAM_ROUND = "param-round"
