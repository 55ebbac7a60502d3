"""Length-penalized principal curves: fitting, projection plans, certificates."""

__version__ = "0.1.0"

from .curve import Polyline, merge_vertices, self_intersections_2d
from .diagnostics import (
    TheoryReport,
    check_hull_containment,
    check_injectivity,
    check_length_bound,
    check_local_tv,
    check_tv_bound,
    convex_clip,
    full_report,
)
from .energy import EnergyBreakdown, StationarityReport, energy, gradient, stationarity_report
from .errors import (
    BudgetExceededError,
    ConfigError,
    DimensionMismatchError,
    NonSmoothPointError,
    NumericError,
    ParseError,
    PencurveError,
)
from .measure import DiscreteMeasure, convex_hull_2d, diameter, load_measure, synth_measure
from .optimizer import FitConfig, FitResult, conjecture_search, fit, fixed_plan_solve, init_curve
from .oracle import OracleConfig, brute_force_min, certify_fit
from .projection import TransportPlan, VertexClassification, build_plan
