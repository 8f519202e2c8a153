"""Exact counts of color-repetition patterns in sequences of colored balls.

Color k ordered balls from a palette of n colors.  Call a ball *matched*
when its color appears on some other ball, and a color *repeated* when it
colors two or more balls.  This package counts sequences by those
statistics in exact integer arithmetic: single cells, aggregates over one
statistic, aggregates over all lengths, and full distribution tables,
together with a brute-force oracle that re-derives every count by
exhaustive enumeration.

The oracle's names (``Coloring``, ``classify``, ``verify`` and the rest)
are resolved on first use, so ``import ballseq`` does not load
:mod:`ballseq.oracle` until it or one of them is asked for.
"""

import importlib

from .core import (
    DEFAULT_BUDGET,
    BudgetExceeded,
    Constraint,
    Count,
    FeasibilityReport,
    SequenceClass,
    doubly_surjective_count,
    feasibility,
    z_count,
)
from .problems import (
    DistributionTable,
    distribution_table,
    problem1_matches_fixed_length,
    problem2_matches_any_length,
    problem3_repeats_fixed_length,
    problem4_repeats_any_length,
)

__version__ = "0.1.0"

_ORACLE_NAMES = frozenset(
    {"ClassStats", "Coloring", "VerificationReport", "classify", "enumerate_counts", "verify"}
)


def __getattr__(name: str):
    """Load the oracle on first use of it or one of its names (PEP 562)."""
    if name == "oracle" or name in _ORACLE_NAMES:
        oracle = importlib.import_module(".oracle", __name__)
        return oracle if name == "oracle" else getattr(oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "BudgetExceeded",
    "ClassStats",
    "Coloring",
    "Constraint",
    "Count",
    "DEFAULT_BUDGET",
    "DistributionTable",
    "FeasibilityReport",
    "SequenceClass",
    "VerificationReport",
    "classify",
    "distribution_table",
    "doubly_surjective_count",
    "enumerate_counts",
    "feasibility",
    "problem1_matches_fixed_length",
    "problem2_matches_any_length",
    "problem3_repeats_fixed_length",
    "problem4_repeats_any_length",
    "verify",
    "z_count",
    "__version__",
]
