"""Exact-arithmetic Stern-Brocot and 2-d Farey-Brocot partitions.

The library builds the classical mediant partition of the unit interval
and two unimodular triangle-subdivision schemes on the unit square (a
six-way symmetric rule "a" and a two-way ordered rule "b"), streams
their tilings, takes graph censuses, evaluates moments and Dirichlet
series with rigorous tail bounds, and ships a verify suite plus a CLI.
"""

from .core import (
    CapacityError,
    DomainError,
    InvalidInputError,
    InvariantViolationError,
    Triangle,
    det3,
)
from .subdivision import ALGO_A, ALGO_B, ALGO_CLASSICAL
from .tiling import (
    DescentChain,
    brocot_level,
    iter_intervals,
    iter_triangles,
    locate,
    vertices_up_to,
)
from .census import Census, census, expected_counts, stable_degree_table
from .analysis import (
    MomentValue,
    SeriesValue,
    asymptotic_sweep,
    classical_L,
    classical_L_direct,
    classical_moment,
    classical_moment_sweep,
    cumulative_moment_check,
    dirichlet_L,
    dirichlet_L_auto,
    exact_unit_sum,
    extreme_areas,
    moment,
    moment_sweep,
    summability_bound,
    zeta,
)
from .verify import CheckReport, run_checks
from .render import render_svg

__version__ = "0.1.0"

__all__ = [
    "ALGO_A",
    "ALGO_B",
    "ALGO_CLASSICAL",
    "CapacityError",
    "Census",
    "CheckReport",
    "DescentChain",
    "DomainError",
    "InvalidInputError",
    "InvariantViolationError",
    "MomentValue",
    "SeriesValue",
    "Triangle",
    "asymptotic_sweep",
    "brocot_level",
    "census",
    "classical_L",
    "classical_L_direct",
    "classical_moment",
    "classical_moment_sweep",
    "cumulative_moment_check",
    "det3",
    "dirichlet_L",
    "dirichlet_L_auto",
    "exact_unit_sum",
    "expected_counts",
    "extreme_areas",
    "iter_intervals",
    "iter_triangles",
    "locate",
    "moment",
    "moment_sweep",
    "summability_bound",
    "render_svg",
    "run_checks",
    "stable_degree_table",
    "vertices_up_to",
    "zeta",
]
