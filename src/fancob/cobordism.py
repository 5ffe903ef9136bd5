"""Fans in the lifted lattice N + Z, circuits, and cobordism construction.

A cobordism lives one dimension up: rays carry a height coordinate, and the
projection drops it.  A maximal cone whose projected rays are dependent has a
unique minimal dependent subset (its circuit); the sign of the dependency,
normalized against the heights, splits the circuit rays into positive and
negative ones and drives everything downstream (pointing classification,
collapsibility, factorization).
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass

from .errors import (
    AssertionFailed,
    CenterAlreadyRay,
    CenterNotInSupport,
    DegenerateHeights,
    DimensionMismatch,
    InvalidFan,
    NotInSupport,
    ParseError,
)
from .exact import Vec, kernel_relation, primitive, rank, solve_in_span
from . import fan as fanmod
from .fan import Fan, SimplicialCone, ValidationReport, fan_from_doc, fan_to_doc


class Side(enum.Enum):
    LOWER = "lower"
    UPPER = "upper"


class ConeClass(enum.Enum):
    INDEPENDENT = "Independent"
    UP = "Up"
    DOWN = "Down"
    UPDOWN = "UpDown"
    MIXED = "Mixed"
    DEGENERATE = "Degenerate"


def base_part(v: Vec) -> Vec:
    return v[:-1]


def height(v: Vec) -> int:
    return v[-1]


def project(cone: SimplicialCone) -> tuple[tuple[Vec, ...], bool]:
    """Projected generators (height dropped, not re-primitivized) and whether
    they are linearly independent."""
    projs = tuple(base_part(r) for r in cone.rays)
    return projs, rank(projs) == len(projs)


@dataclass(frozen=True)
class Circuit:
    """The minimal dependent ray subset of a lifted cone, with its signs.

    rays and relation are aligned; the relation has entry gcd 1 and is
    normalized so that the height pairing sum(r_i * h_i) is positive.  pos
    and neg partition the circuit rays by strict sign; link holds the
    remaining rays of the particular cone the circuit was computed in.
    """

    rays: tuple[Vec, ...]
    relation: tuple[int, ...]
    pos: tuple[Vec, ...]
    neg: tuple[Vec, ...]
    link: tuple[Vec, ...]

    @property
    def key(self) -> tuple[Vec, ...]:
        return self.rays


def circuit_of(cone: SimplicialCone) -> Circuit | None:
    """The circuit of a lifted cone, or None when it is projection-independent."""
    projs = [base_part(r) for r in cone.rays]
    rel = kernel_relation(projs)  # nullity <= 1 whenever the lifted cone is simplicial
    if rel is None:
        return None
    support = [(ray, c) for ray, c in zip(cone.rays, rel) if c != 0]
    pairing = sum(c * height(ray) for ray, c in support)
    if pairing == 0:
        raise AssertionFailed(f"zero height pairing in {cone} contradicts simpliciality")
    if pairing < 0:
        support = [(ray, -c) for ray, c in support]
    support.sort(key=lambda rc: rc[0])
    rays = tuple(r for r, _ in support)
    relation = tuple(c for _, c in support)
    return Circuit(
        rays=rays,
        relation=relation,
        pos=tuple(r for r, c in support if c > 0),
        neg=tuple(r for r, c in support if c < 0),
        link=tuple(r for r in cone.rays if r not in set(rays)),
    )


def circuit_class(c: Circuit | None) -> ConeClass:
    """Pointing classification from circuit signs; None is a
    projection-independent cone."""
    if c is None:
        return ConeClass.INDEPENDENT
    p, n = len(c.pos), len(c.neg)
    if p == 0 or n == 0:
        return ConeClass.DEGENERATE
    if p == 1 and n == 1:
        return ConeClass.UPDOWN
    if p == 1:
        return ConeClass.UP
    if n == 1:
        return ConeClass.DOWN
    return ConeClass.MIXED


def classify(cone: SimplicialCone) -> ConeClass:
    """Pointing classification of a lifted cone from its circuit signs."""
    return circuit_class(circuit_of(cone))


def independent_faces(fan: Fan) -> list[tuple[Vec, ...]]:
    """Every ray subset of a maximal cone whose projection is linearly
    independent, in canonical order."""
    faces = set()
    for cone in fan.max_cones:
        for k in range(1, len(cone.rays) + 1):
            faces.update(itertools.combinations(cone.rays, k))
    return [f for f in sorted(faces) if rank([base_part(r) for r in f]) == len(f)]


def boundary(fan: Fan, side: Side) -> tuple[SimplicialCone, ...]:
    """The maximal projection-independent faces leaving the support down/up.

    A face qualifies when its barycenter, nudged by -e_{d+1} (lower) or
    +e_{d+1} (upper), leaves the support for every sufficiently small nudge;
    the test runs exactly, cone by cone, with symbolic first-order epsilon.
    """
    d1 = fan.ambient_dim
    step = -1 if side is Side.LOWER else 1
    direction = (0,) * (d1 - 1) + (step,)
    out = []
    for face in independent_faces(fan):
        b = tuple(sum(col) for col in zip(*face))
        if any(fanmod._stays_inside(c, b, direction) for c in fan.max_cones):
            continue
        out.append(face)
    maximal = [f for f in out if not any(set(f) < set(g) for g in out)]
    return tuple(SimplicialCone(f) for f in maximal)


def _projected_fan(faces, base_dim: int) -> Fan:
    cones = tuple(
        SimplicialCone(tuple(primitive(base_part(r)) for r in f.rays)) for f in faces
    )
    return Fan(base_dim, cones)


@dataclass(frozen=True)
class Cobordism:
    """A lifted fan together with its boundary data.

    bottom and top are the projections of the lower and upper boundary faces;
    they are computed once at construction and cached here.
    """

    base_dim: int
    fan: Fan
    lower_faces: tuple[SimplicialCone, ...]
    upper_faces: tuple[SimplicialCone, ...]
    bottom: Fan
    top: Fan

    @classmethod
    def from_fan(cls, fan: Fan, base_dim: int | None = None) -> "Cobordism":
        if base_dim is None:
            base_dim = fan.ambient_dim - 1
        if fan.ambient_dim != base_dim + 1:
            raise DimensionMismatch(
                f"lifted fan dim {fan.ambient_dim} != base_dim {base_dim} + 1"
            )
        if base_dim < 1:
            raise ValueError("base dimension must be positive")
        for r in fan.rays:
            if all(x == 0 for x in base_part(r)):
                raise InvalidFan(f"vertical ray {r} (zero projection) is not allowed")
        lower = boundary(fan, Side.LOWER)
        upper = boundary(fan, Side.UPPER)
        return cls(
            base_dim=base_dim,
            fan=fan,
            lower_faces=lower,
            upper_faces=upper,
            bottom=_projected_fan(lower, base_dim),
            top=_projected_fan(upper, base_dim),
        )


def validate_cobordism(
    cob: Cobordism,
    expected_bottom: Fan | None = None,
    expected_top: Fan | None = None,
) -> ValidationReport:
    """Full validity check: fan axioms upstairs, boundary fans downstairs,
    equal supports, optional expected boundaries, no degenerate circuits."""
    problems = []
    up = fanmod.validate_fan(cob.fan)
    problems += [f"upstairs: {p}" for p in up.problems]
    for cone in cob.fan.max_cones:
        if classify(cone) is ConeClass.DEGENERATE:
            problems.append(f"degenerate circuit in maximal cone {cone}")
    for side, faces in (("lower", cob.lower_faces), ("upper", cob.upper_faces)):
        seen: dict[tuple[Vec, ...], SimplicialCone] = {}
        for f in faces:
            proj = tuple(sorted(primitive(base_part(r)) for r in f.rays))
            if len(set(proj)) != len(proj):
                problems.append(f"{side} face {f} projects with collapsed rays")
            if proj in seen:
                problems.append(
                    f"{side} faces {seen[proj]} and {f} project to the same cone"
                )
            seen[proj] = f
    for name, bfan in (("bottom", cob.bottom), ("top", cob.top)):
        rep = fanmod.validate_fan(bfan)
        problems += [f"{name}: {p}" for p in rep.problems]
    if not problems:
        # one covering pass per direction, stopping at the first witness
        for name, other, a, b in (("bottom", "top", cob.bottom, cob.top),
                                  ("top", "bottom", cob.top, cob.bottom)):
            cone = fanmod._first_uncovered(a, b)
            if cone is not None:
                problems.append(f"{name} cone {cone} is not covered by the {other} fan")
                break
    if expected_bottom is not None and not fanmod.fans_equal(cob.bottom, expected_bottom):
        problems.append("bottom fan differs from the expected fan")
    if expected_top is not None and not fanmod.fans_equal(cob.top, expected_top):
        problems.append("top fan differs from the expected fan")
    return ValidationReport(tuple(problems))


def build_cobordism(delta: Fan, centers, heights=None) -> Cobordism:
    """Record a star-subdivision sequence as a cobordism over the input fan.

    Rays of the input fan sit at height 0 and the t-th center at heights[t]
    (1, 2, 3, ... by default).  Each step lifts every maximal cone about to
    be subdivided, joining it to the lifted center; cones never touched by
    any step enter at height 0 so that the bottom always projects back to
    the input fan.
    """
    centers = [primitive(tuple(int(x) for x in c)) for c in centers]
    for c in centers:
        if len(c) != delta.ambient_dim:
            raise DimensionMismatch(
                f"center {c} has dim {len(c)}, fan has dim {delta.ambient_dim}"
            )
    if heights is None:
        heights = list(range(1, len(centers) + 1))
    heights = [int(h) for h in heights]
    if len(heights) != len(centers):
        raise ValueError("one height per center required")
    if any(h <= 0 for h in heights) or any(
        a >= b for a, b in zip(heights, heights[1:])
    ):
        raise ValueError("heights must be positive and strictly increasing")

    height_of: dict[Vec, int] = {r: 0 for r in delta.rays}
    current = delta
    untouched = set(delta.max_cones)
    lifted: list[SimplicialCone] = []
    for center, h in zip(centers, heights):
        if center in current.rays:
            raise CenterAlreadyRay(f"center {center} is already a ray")
        try:
            tau = fanmod.minimal_containing_cone(current, center)
        except NotInSupport as exc:
            raise CenterNotInSupport(str(exc)) from exc
        tau_rays = set(tau.rays)
        # the lifted center must clear the running graph sheet, or the new
        # cones dip into the ones already recorded
        lam = solve_in_span(tau.rays, center)
        graph_height = sum(l * height_of[r] for l, r in zip(lam, tau.rays))
        if h <= graph_height:
            raise DegenerateHeights(
                f"center {center} lifts to height {h}, but the recorded fan "
                f"sheet already sits at {graph_height} there; "
                "choose strictly larger heights"
            )
        lifted_center = center + (h,)
        for sigma in current.max_cones:
            if not tau_rays <= set(sigma.rays):
                continue
            gens = tuple(r + (height_of[r],) for r in sigma.rays) + (lifted_center,)
            lifted.append(SimplicialCone(gens))
            untouched.discard(sigma)
        height_of[center] = h
        current = fanmod.star_subdivide(current, center)
    for sigma in sorted(untouched, key=lambda c: c.rays):
        lifted.append(SimplicialCone(tuple(r + (0,) for r in sigma.rays)))

    cob = Cobordism.from_fan(Fan(delta.ambient_dim + 1, tuple(lifted)), delta.ambient_dim)
    report = validate_cobordism(cob, expected_bottom=delta, expected_top=current)
    if not report.ok:
        raise InvalidFan(f"constructed cobordism failed validation:\n{report}")
    return cob


# --- documents -------------------------------------------------------------------


def cobordism_to_doc(cob: Cobordism) -> dict:
    doc = fan_to_doc(cob.fan)
    return {
        "base_dim": cob.base_dim,
        "rays": doc["rays"],
        "max_cones": doc["max_cones"],
        "bottom": fan_to_doc(cob.bottom),
        "top": fan_to_doc(cob.top),
    }


def cobordism_from_doc(doc) -> tuple[Cobordism, Fan | None, Fan | None]:
    """Load a cobordism document.

    Returns the cobordism plus the document's own bottom/top fans (when
    present) so callers can use them as validation expectations; the
    cobordism's boundaries are always recomputed.
    """
    if not isinstance(doc, dict):
        raise ParseError("cobordism document must be an object")
    try:
        base_dim = doc["base_dim"]
    except (KeyError, TypeError) as exc:
        raise ParseError(f"cobordism document missing field {exc}") from exc
    if isinstance(base_dim, bool) or not isinstance(base_dim, int) or base_dim < 1:
        raise ParseError(f"base_dim must be a positive integer, got {base_dim!r}")
    lifted = fan_from_doc(
        {"dim": base_dim + 1, "rays": doc.get("rays"), "max_cones": doc.get("max_cones")}
    )
    stored_bottom = fan_from_doc(doc["bottom"]) if "bottom" in doc else None
    stored_top = fan_from_doc(doc["top"]) if "top" in doc else None
    return Cobordism.from_fan(lifted, base_dim), stored_bottom, stored_top
