"""Finite Pareto front representations via adaptive box decomposition."""

from .engine import (
    Ack,
    ComparisonReport,
    RunConfig,
    RunReport,
    Session,
    compare_strategies,
    run_representation,
    start_box_for,
)
from .geometry import Box, Point, SizeMode, box_size, compare_boxes, strictly_less
from .metrics import (
    QualityReport,
    additive_distance,
    approximation_quality,
    quality_summary,
)
from .problems import ProblemSpec, make_problem
from .scalarization import (
    GridScalarizer,
    NoIntersection,
    PSQuery,
    PSSolution,
    solve_quadric_ps,
)
from .reference import bounds_oracle
from .search_region import SearchRegion, Strategy

__all__ = [
    "Ack",
    "Box",
    "ComparisonReport",
    "GridScalarizer",
    "NoIntersection",
    "PSQuery",
    "PSSolution",
    "Point",
    "ProblemSpec",
    "QualityReport",
    "RunConfig",
    "RunReport",
    "SearchRegion",
    "Session",
    "SizeMode",
    "Strategy",
    "additive_distance",
    "approximation_quality",
    "bounds_oracle",
    "box_size",
    "compare_boxes",
    "compare_strategies",
    "make_problem",
    "quality_summary",
    "run_representation",
    "solve_quadric_ps",
    "start_box_for",
    "strictly_less",
]

__version__ = "0.1.0"
