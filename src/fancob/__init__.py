"""Exact-arithmetic workbench for simplicial fans and fan cobordisms.

Everything is integer/Fraction exact; there is no floating point in the
package.  The main entry points:

- fan: SimplicialCone, Fan, star_subdivide, validate_fan
- cobordism: build_cobordism, circuit_of, classify, boundary, validate_cobordism
- collapse: circuit_graph, is_collapsible, is_pi_nonsingular, extract_factorization
- demos: midray schedules and the two canned verification bundles
"""

from .errors import (
    AssertionFailed,
    BrokenFan,
    CenterAlreadyRay,
    CenterNotInSupport,
    DegenerateHeights,
    DependentInput,
    DimensionMismatch,
    EqualRays,
    FancobError,
    FrontMismatch,
    InvalidFan,
    NotAllPointingUp,
    NotCollapsible,
    NotInSupport,
    ParseError,
    ZeroVector,
)
from .exact import (
    maximal_minor_gcd,
    primitive,
    rank,
)
from .fan import (
    Fan,
    SimplicialCone,
    ValidationReport,
    cone_contains,
    fan_from_doc,
    fan_to_doc,
    is_smooth,
    star_subdivide,
    validate_fan,
)
from .cobordism import (
    Circuit,
    Cobordism,
    ConeClass,
    boundary,
    build_cobordism,
    circuit_of,
    classify,
    cobordism_from_doc,
    cobordism_to_doc,
    validate_cobordism,
)
from .collapse import (
    CollapseGraph,
    FactorStep,
    StepKind,
    circuit_graph,
    extract_factorization,
    is_collapsible,
    is_pi_nonsingular,
    to_dot,
)
from .demos import (
    DemoReport,
    ScheduleEntry,
    karu_counterexample,
    midray,
    noncollapsible_example,
    positive_link_centers,
    projective_plane_fan,
    run_schedule,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
