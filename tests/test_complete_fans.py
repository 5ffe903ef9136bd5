"""The linear certificate of complete fans against the pair loop.

Complete fans are star-subdivision sequences of the projective plane, the
ring chain, the octahedral fan and the 4-dimensional cross-polytope fan;
doctored fans break one condition of the certificate each.  On every fan,
validate_fan must give exactly the report of the pair loop.
"""

from __future__ import annotations

import itertools

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fancob import fan as fanmod
from fancob.demos import projective_plane_fan
from fancob.exact import primitive
from fancob.fan import Fan, SimplicialCone, ValidationReport, star_subdivide, validate_fan
from conftest import ring_chain
from test_facet_boundary import _orthant

SETTINGS = settings(
    max_examples=60,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def cross_polytope_fan(d: int) -> Fan:
    """The complete fan of the 2^d orthants."""
    return Fan(d, tuple(_orthant(s) for s in itertools.product((1, -1), repeat=d)))


def pair_loop(fan: Fan) -> ValidationReport:
    """The report of every pair of maximal cones, in combinations order."""
    problems = (fanmod._pair_problem(a, b) for a, b in itertools.combinations(fan.max_cones, 2))
    return ValidationReport(tuple(p for p in problems if p is not None))


def facet_holders(fan: Fan) -> list[int]:
    """How many cones hold each facet of a maximal cone."""
    holders: dict[tuple, int] = {}
    for c in fan.max_cones:
        for i in range(c.dim):
            key = c.rays[:i] + c.rays[i + 1:]
            holders[key] = holders.get(key, 0) + 1
    return list(holders.values())


@st.composite
def complete_fans(draw) -> Fan:
    """A complete fan in base dim 2-4: a start fan and up to four star
    subdivisions at primitive face barycenters."""
    start = draw(st.sampled_from(("p2", "ring", "octahedral", "cross4")))
    if start == "p2":
        fan = projective_plane_fan()
    elif start == "ring":
        fan = ring_chain(draw(st.integers(3, 24)))[0]
    else:
        fan = cross_polytope_fan(3 if start == "octahedral" else 4)
    for _ in range(draw(st.integers(0, 4))):
        cone = draw(st.sampled_from(fan.max_cones))
        face = draw(st.lists(st.sampled_from(cone.rays), min_size=2, max_size=cone.dim, unique=True))
        fan = star_subdivide(fan, primitive(tuple(map(sum, zip(*face)))))
    return fan


@st.composite
def doctored_fans(draw) -> tuple[str, Fan]:
    """A complete fan with one of its cones sigma removed, its facet
    sigma - r_i held by a third cone, sigma swapped for an overlapping cone,
    or a ray inside sigma added as a maximal cone."""
    fan = draw(complete_fans())
    kind = draw(st.sampled_from(("removed", "third", "swapped", "lower")))
    sigma = draw(st.sampled_from(fan.max_cones))
    i, j = draw(st.permutations(range(sigma.dim)))[:2]
    rest = [c for c in fan.max_cones if c != sigma]
    facet = sigma.rays[:i] + sigma.rays[i + 1:]
    if kind == "removed":
        cones = rest
    elif kind == "third":
        # inside sigma, off span(facet): r_i + r_j lies in the relative
        # interior of a 2-face, so it is no ray of the fan
        inside = primitive(tuple(map(sum, zip(sigma.rays[i], sigma.rays[j]))))
        cones = fan.max_cones + (SimplicialCone(facet + (inside,)),)
    elif kind == "swapped":
        # 2 r_i - r_j lies beyond the facet sigma - r_j, so the new cone
        # holds sigma and reaches across that facet
        beyond = primitive(tuple(2 * x - y for x, y in zip(sigma.rays[i], sigma.rays[j])))
        cones = rest + [SimplicialCone(facet + (beyond,))]
    else:
        cones = fan.max_cones + (SimplicialCone((primitive(tuple(map(sum, zip(*sigma.rays)))),)),)
    return kind, Fan(fan.ambient_dim, tuple(cones))


class TestCompleteCertificate:
    @SETTINGS
    @given(complete_fans())
    def test_complete_fans_hold_it(self, fan):
        assert fanmod._complete_certificate(fan)
        assert set(facet_holders(fan)) == {2}
        assert validate_fan(fan) == pair_loop(fan) == ValidationReport()

    @SETTINGS
    @given(doctored_fans())
    def test_doctored_fans_fall_through_to_the_pairs(self, case):
        kind, fan = case
        assert not fanmod._complete_certificate(fan)
        report = validate_fan(fan)
        assert report == pair_loop(fan)
        # only the removal leaves a valid fan, with a hole
        assert report.ok == (kind == "removed")

    def test_starts_in_base_dims_2_to_4(self):
        for fan in (projective_plane_fan(), ring_chain(24)[0], cross_polytope_fan(3), cross_polytope_fan(4)):
            assert fanmod._complete_certificate(fan)
            assert validate_fan(fan) == pair_loop(fan) == ValidationReport()

    def test_twice_wound_plane_fan(self):
        # a pentagram: every ray holds two cones on opposite sides, and
        # every point off the rays lies in two cones
        rays = [(1, 0), (-3, 2), (1, -3), (1, 3), (-3, -2)]  # 0, 146, 288, 72, 214 degrees
        fan = Fan(2, tuple(SimplicialCone((rays[k], rays[(k + 1) % 5])) for k in range(5)))
        assert set(facet_holders(fan)) == {2}
        center = tuple(map(sum, zip(*fan.max_cones[0].rays)))
        assert sum(fanmod.cone_contains(c, center) for c in fan.max_cones) == 2
        assert not fanmod._complete_certificate(fan)
        report = validate_fan(fan)
        assert report == pair_loop(fan) and len(report.problems) == 5

    def test_facet_held_on_one_side(self):
        # a closed chain of cones that turns back at (2, -1) and again at
        # (0, -1): every ray holds two cones, the first cone's barycenter
        # (-2, 0) lies in it alone, and the angles between 270 and 333
        # degrees are covered three times
        rays = [(1, 0), (-1, 2), (-1, -2), (2, -1), (0, -1), (6, -1)]
        fan = Fan(2, tuple(SimplicialCone((rays[k], rays[(k + 1) % 6])) for k in range(6)))
        assert set(facet_holders(fan)) == {2}
        center = tuple(map(sum, zip(*fan.max_cones[0].rays)))
        assert center == (-2, 0)
        assert sum(fanmod.cone_contains(c, center) for c in fan.max_cones) == 1
        assert not fanmod._complete_certificate(fan)
        report = validate_fan(fan)
        assert report == pair_loop(fan) and not report.ok

    def test_facet_held_by_three_cones(self):
        # a complete ring plus the chord cone on (1, 0) and (0, 1): every
        # ray holds two cones or more, and the first cone's barycenter
        # (-1, 0) lies in it alone
        ring = [(1, 0), (1, 1), (0, 1), (-1, -1)]
        cones = [SimplicialCone((ring[k], ring[(k + 1) % 4])) for k in range(4)]
        fan = Fan(2, tuple(cones) + (SimplicialCone(((1, 0), (0, 1))),))
        assert sorted(facet_holders(fan)) == [2, 2, 3, 3]
        center = tuple(map(sum, zip(*fan.max_cones[0].rays)))
        assert sum(fanmod.cone_contains(c, center) for c in fan.max_cones) == 1
        assert not fanmod._complete_certificate(fan)
        report = validate_fan(fan)
        assert report == pair_loop(fan) and len(report.problems) == 2

    @pytest.mark.parametrize(
        "fan",
        [
            cross_polytope_fan(3),
            Fan(2, (SimplicialCone(((1, 0), (0, 1))),)),
            Fan(3, (_orthant((1, 1, 1)), _orthant((-1, 1, 1)))),
        ],
        ids=["octahedral", "quadrant", "two-orthants"],
    )
    def test_solver_rows_read_only_for_matched_facets(self, fan, monkeypatch):
        # an unmatched facet ends the certificate before any _cone_solver
        # row is read; a matched fan reads them
        rows = []
        real = fanmod._cone_solver
        monkeypatch.setattr(fanmod, "_cone_solver", lambda c: rows.append(c) or real(c))
        assert fanmod._complete_certificate(fan) == bool(rows)
        assert bool(rows) == (set(facet_holders(fan)) == {2})

    def test_outside_its_reach(self):
        # dimension 1, no cones, a lower-dimensional maximal cone
        line = Fan(1, (SimplicialCone(((1,),)), SimplicialCone(((-1,),))))
        for fan in (line, Fan(2, ()), Fan(2, (SimplicialCone(((1, 0),)),))):
            assert not fanmod._complete_certificate(fan)
            assert validate_fan(fan) == pair_loop(fan)
