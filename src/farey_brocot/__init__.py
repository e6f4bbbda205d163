"""Exact-arithmetic Stern-Brocot and 2-d Farey-Brocot partitions.

The library builds the classical mediant partition of the unit interval
and two unimodular triangle-subdivision schemes on the unit square (a
six-way symmetric rule "a" and a two-way ordered rule "b"), streams
their tilings, takes graph censuses, evaluates moments and Dirichlet
series with rigorous tail bounds, and ships a verify suite plus a CLI.
"""

from .core import (
    Basis,
    CapacityError,
    DomainError,
    InvalidInputError,
    InvariantViolationError,
    LatticeVector,
    RationalPoint,
    Triangle,
    det3,
    diameter,
    mediant,
    normalize,
    shoelace_area,
    triangle_area,
)
from .subdivision import (
    ALGO_A,
    ALGO_B,
    ALGO_CLASSICAL,
    brocot_level,
    code_a_from_chain,
    initial_bases,
    step_1d,
    subdivide_a,
    subdivide_b,
)
from .tiling import (
    DescentChain,
    TilingSummary,
    enumerate_tiling,
    iter_intervals,
    iter_triangles,
    locate,
    vertices_up_to,
)
from .census import Census, census, expected_counts, stable_degree_table, stable_degrees
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
    "Basis",
    "CapacityError",
    "Census",
    "CheckReport",
    "DescentChain",
    "DomainError",
    "InvalidInputError",
    "InvariantViolationError",
    "LatticeVector",
    "MomentValue",
    "RationalPoint",
    "SeriesValue",
    "TilingSummary",
    "Triangle",
    "asymptotic_sweep",
    "brocot_level",
    "census",
    "classical_L",
    "classical_L_direct",
    "classical_moment",
    "classical_moment_sweep",
    "code_a_from_chain",
    "cumulative_moment_check",
    "det3",
    "diameter",
    "dirichlet_L",
    "dirichlet_L_auto",
    "enumerate_tiling",
    "exact_unit_sum",
    "expected_counts",
    "extreme_areas",
    "initial_bases",
    "iter_intervals",
    "iter_triangles",
    "locate",
    "mediant",
    "moment",
    "moment_sweep",
    "normalize",
    "summability_bound",
    "render_svg",
    "run_checks",
    "shoelace_area",
    "stable_degree_table",
    "stable_degrees",
    "step_1d",
    "subdivide_a",
    "subdivide_b",
    "triangle_area",
    "vertices_up_to",
    "zeta",
]
