"""Midray subdivision schedules and the two canned validation runs.

The first run builds the three-step cobordism over a smooth 3-cone, derives
the midray schedule from each cone's positive/link ray pair, executes it, and
certifies that a mixed cone (two positive, two negative circuit rays)
appears, so the schedule does not preserve pointing-up.  The second returns
the six-cone cobordism over the complete plane fan that is projection-smooth
yet has a circuit cycle, so no crossing order exists at all.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import AssertionFailed, EqualRays, BrokenFan, NotAllPointingUp, NotCollapsible
from .exact import Vec, nonneg_combination, primitive
from . import fan as fanmod
from .cobordism import (
    Cobordism,
    ConeClass,
    base_part,
    build_cobordism,
    circuit_class,
    circuit_of,
    validate_cobordism,
)
from .collapse import (
    CircuitKey,
    _collapse_order,
    circuit_graph,
    is_collapsible,
    is_pi_nonsingular,
)
from .fan import Fan, SimplicialCone


def midray(a: Vec, b: Vec) -> Vec:
    """Primitive generator of the sum of two distinct rays' generators."""
    a, b = tuple(a), tuple(b)
    if a == b:
        raise EqualRays(f"midray needs two distinct rays, got {a} twice")
    return primitive(tuple(x + y for x, y in zip(a, b)))


@dataclass(frozen=True)
class ScheduleEntry:
    """A planned subdivision: the source cone and the midray center inside
    the relative interior of one of its 2-faces."""

    cone: SimplicialCone
    center: Vec


def positive_link_centers(cob: Cobordism) -> list[ScheduleEntry]:
    """Midray centers of every (positive ray, link ray) pair, topmost first.

    Requires every maximal cone to point up with a single positive ray.
    Cones are visited by reverse topological order of their circuits; within
    a circuit in descending canonical order; link rays in ascending order.
    """
    circuits = dict(zip(cob.fan.max_cones, cob.circuits))
    for cone, circ in circuits.items():
        cls = circuit_class(circ)
        if cls is not ConeClass.UP:
            raise NotAllPointingUp(f"maximal cone {cone} is {cls.value}, not Up")
    graph = circuit_graph(cob)
    ok, order = _collapse_order(graph)
    if not ok:
        raise NotCollapsible(f"no topmost-first order: cycle {list(order)}", order)
    entries: list[ScheduleEntry] = []
    for key in reversed(order):
        for cone in sorted(graph.cones[key], key=lambda c: c.rays, reverse=True):
            circ = circuits[cone]
            positive = circ.pos[0]
            for link in circ.link:
                center = midray(positive, link)
                coords = nonneg_combination((positive, link), center)
                if coords is None or not all(c > 0 for c in coords):
                    raise AssertionFailed(
                        f"schedule center {center} is not in the open 2-face on {positive}, {link}"
                    )
                entries.append(ScheduleEntry(cone=cone, center=center))
    return entries


def run_schedule(fan: Fan, centers) -> Fan:
    """Fold star subdivision over the centers, revalidating at every step."""
    current = fan
    for center in centers:
        current = fanmod.star_subdivide(current, tuple(center))
        report = fanmod.validate_fan(current)
        if not report.ok:
            raise BrokenFan(f"fan invalid after subdividing at {tuple(center)}:\n{report}")
    return current


@dataclass(frozen=True)
class DemoReport:
    """Everything the pointing-up failure run certifies, exactly."""

    cobordism: Cobordism
    census: tuple[tuple[SimplicialCone, ConeClass, int, int], ...]
    collapse_order: tuple[CircuitKey, ...]
    schedule: tuple[ScheduleEntry, ...]
    three_negative_cone: SimplicialCone
    final_fan: Fan
    mixed_cone: SimplicialCone
    mixed_pos: tuple[Vec, ...]
    mixed_neg: tuple[Vec, ...]

    def summary(self) -> dict:
        return {
            "maximal_cones": len(self.census),
            "census": [
                {
                    "cone": [list(r) for r in cone.rays],
                    "class": cls.value,
                    "positive_rays": npos,
                    "link_rays": nlink,
                }
                for cone, cls, npos, nlink in self.census
            ],
            "schedule": [list(e.center) for e in self.schedule],
            "three_negative_cone": [list(r) for r in self.three_negative_cone.rays],
            "mixed_cone": [list(r) for r in self.mixed_cone.rays],
            "mixed_pos": [list(r) for r in self.mixed_pos],
            "mixed_neg": [list(r) for r in self.mixed_neg],
            "all_pointing_up_after": False,
        }


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise AssertionFailed(message)


def _apply(matrix, v: Vec) -> Vec:
    if matrix is None:
        return tuple(v)
    return tuple(sum(row[j] * v[j] for j in range(len(v))) for row in matrix)


def karu_counterexample(base_change=None) -> DemoReport:
    """Build the three-subdivision cobordism, run the midray schedule, and
    certify the appearance of a mixed cone.

    base_change optionally conjugates the whole construction by a unimodular
    integer matrix; the census is invariant under any such change.
    """
    u = base_change
    e1, e2, e3 = _apply(u, (1, 0, 0)), _apply(u, (0, 1, 0)), _apply(u, (0, 0, 1))
    delta = Fan(3, (SimplicialCone((e1, e2, e3)),))
    centers = [
        _apply(u, (1, 1, 0)),
        _apply(u, (0, 1, 1)),
        _apply(u, (1, 1, 1)),
    ]
    cob = build_cobordism(delta, centers)

    census = []
    for cone, circ in zip(cob.fan.max_cones, cob.circuits):
        cls = circuit_class(circ)
        census.append((cone, cls, len(circ.pos) if circ else 0, len(circ.link) if circ else 0))
    _require(len(census) == 4, f"expected 4 maximal cones, found {len(census)}")
    _require(
        all(cls is ConeClass.UP and npos == 1 and nlink == 1 for _, cls, npos, nlink in census),
        "initial census must be all Up with one positive and one link ray",
    )

    collapsible, order = is_collapsible(cob)
    _require(collapsible and len(order) == 3, "initial cobordism must collapse in 3 circuits")

    schedule = tuple(positive_link_centers(cob))
    _require(len(schedule) == 4, f"expected 4 schedule centers, found {len(schedule)}")

    after_midrays = run_schedule(cob.fan, [e.center for e in schedule[:2]])
    expected_neg = {
        primitive(_apply(u, (1, 1, 0))),
        primitive(_apply(u, (0, 1, 1))),
        primitive(_apply(u, (0, 0, 1))),
    }
    three_negative = None
    midway = Cobordism.from_fan(after_midrays, cob.base_dim)
    for cone, circ in zip(midway.fan.max_cones, midway.circuits):
        if circuit_class(circ) is not ConeClass.UP:
            continue
        if len(circ.neg) == 3 and {
            primitive(base_part(r)) for r in circ.neg
        } == expected_neg:
            three_negative = cone
            break
    _require(
        three_negative is not None,
        "after the two midray steps an Up cone with the three expected "
        "negative directions must appear",
    )

    final = run_schedule(after_midrays, [e.center for e in schedule[2:]])
    mixed_expected = SimplicialCone(
        (
            _apply(u, (1, 2, 2)) + (5,),
            _apply(u, (1, 1, 0)) + (1,),
            _apply(u, (1, 2, 1)) + (3,),
            _apply(u, (1, 1, 1)) + (1,),
        )
    )
    _require(
        mixed_expected in final.max_cones,
        f"expected the cone {mixed_expected} in the final fan",
    )
    circ = circuit_of(mixed_expected)
    _require(
        circuit_class(circ) is ConeClass.MIXED,
        "the distinguished final cone must be Mixed",
    )
    _require(
        len(circ.pos) == 2 and len(circ.neg) == 2,
        "the mixed cone must have exactly two positive and two negative rays",
    )

    # final is valid and |final| = |cob.fan|, so this suffices (validate_cobordism)
    final_cob = Cobordism.from_fan(final, cob.base_dim)
    _require(
        all(circuit_class(c) is not ConeClass.DEGENERATE for c in final_cob.circuits),
        "subdividing upstairs must not move the boundary supports",
    )

    return DemoReport(
        cobordism=cob,
        census=tuple(census),
        collapse_order=order,
        schedule=schedule,
        three_negative_cone=three_negative,
        final_fan=final,
        mixed_cone=mixed_expected,
        mixed_pos=circ.pos,
        mixed_neg=circ.neg,
    )


def projective_plane_fan() -> Fan:
    """The complete fan on (1,0), (0,1), (-1,-1)."""
    v1, v2, v3 = (1, 0), (0, 1), (-1, -1)
    return Fan(
        2,
        (
            SimplicialCone((v1, v2)),
            SimplicialCone((v2, v3)),
            SimplicialCone((v3, v1)),
        ),
    )


def noncollapsible_example() -> Cobordism:
    """The six-cone cobordism over the plane fan whose three circuits chase
    each other in a directed cycle."""
    v1, v2, v3 = (1, 0), (0, 1), (-1, -1)

    def lift(v: Vec, h: int) -> Vec:
        return v + (h,)

    cones = (
        SimplicialCone((lift(v1, 0), lift(v1, 1), lift(v2, 0))),
        SimplicialCone((lift(v2, 0), lift(v2, 1), lift(v3, 0))),
        SimplicialCone((lift(v3, 0), lift(v3, 1), lift(v1, 0))),
        SimplicialCone((lift(v1, 1), lift(v2, 0), lift(v2, 1))),
        SimplicialCone((lift(v2, 1), lift(v3, 0), lift(v3, 1))),
        SimplicialCone((lift(v3, 1), lift(v1, 0), lift(v1, 1))),
    )
    return Cobordism.from_fan(Fan(3, cones), 2)


def noncollapsible_report() -> dict:
    """Run the full verification bundle for the cyclic example."""
    cob = noncollapsible_example()
    p2 = projective_plane_fan()
    report = validate_cobordism(cob, expected_bottom=p2, expected_top=p2)
    _require(report.ok, f"the cyclic cobordism must validate:\n{report}")
    smooth, witness = is_pi_nonsingular(cob)
    _require(smooth, f"the cyclic cobordism must be projection-smooth, witness {witness}")
    collapsible, cycle = is_collapsible(cob)
    _require(not collapsible, "the cyclic cobordism must not be collapsible")
    _require(len(cycle) == 3, f"expected a 3-cycle, got {list(cycle)}")
    return {
        "valid": True,
        "pi_nonsingular": True,
        "collapsible": False,
        "cycle": [[list(r) for r in key] for key in cycle],
    }
