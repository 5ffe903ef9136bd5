"""Lifted fans: projections, circuits, boundaries, construction."""

from __future__ import annotations

import json
import random
from fractions import Fraction

import pytest

from fancob import fan as fanmod
from fancob.cobordism import (
    Cobordism,
    _checked_circuit,
    ConeClass,
    Side,
    boundary,
    build_cobordism,
    circuit_of,
    classify,
    cobordism_from_doc,
    cobordism_to_doc,
    validate_cobordism,
)
from fancob.collapse import StepKind, circuit_graph, extract_factorization, is_collapsible
from fancob.errors import (
    CenterAlreadyRay,
    CenterNotInSupport,
    DegenerateHeights,
    InvalidFan,
)
from fancob.exact import primitive, rank
from fancob.fan import Fan, SimplicialCone, fans_equal, star_subdivide
from conftest import (
    FIXTURES,
    KARU_CENTERS,
    orthant_fan,
    random_center_sequence,
    random_smooth_fan,
    ring_chain,
)

E1, E2, E3 = (1, 0, 0), (0, 1, 0), (0, 0, 1)

# the four lifted cones of the three-step construction over the orthant
C1 = SimplicialCone(((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (1, 1, 0, 1)))
C2 = SimplicialCone(((1, 1, 0, 1), (0, 1, 0, 0), (0, 0, 1, 0), (0, 1, 1, 2)))
C3 = SimplicialCone(((1, 0, 0, 0), (1, 1, 0, 1), (0, 0, 1, 0), (1, 1, 1, 3)))
C4 = SimplicialCone(((1, 1, 0, 1), (0, 1, 1, 2), (0, 0, 1, 0), (1, 1, 1, 3)))


def independent_projection(cone: SimplicialCone) -> bool:
    """Rank oracle: the projected rays (height dropped) are independent."""
    projs = [r[:-1] for r in cone.rays]
    return rank(projs) == len(projs)


class TestProject:
    # a lifted cone is projection-independent iff circuit_of finds no circuit
    def test_dependent_projection(self):
        cone = SimplicialCone(((1, 0, 0, 0), (0, 1, 0, 0), (1, 1, 0, 1)))
        assert circuit_of(cone) is not None and not independent_projection(cone)

    def test_independent_projection(self):
        cone = SimplicialCone(((1, 0, 0), (0, 1, 0)))
        assert circuit_of(cone) is None and independent_projection(cone)

    def test_doubled_ray_projection(self):
        cone = SimplicialCone(((1, 0, 0), (1, 0, 1)))
        assert circuit_of(cone) is not None and not independent_projection(cone)

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_circuit_against_rank_oracle(self, d):
        # about half the cones get a first ray whose projection is a
        # combination of the others' (a circuit of up to k rays)
        rng = random.Random(60 + d)
        seen = {True: 0, False: 0}
        while min(seen.values()) < 40:
            k = rng.randint(1, d + 1)
            rays = [tuple(rng.randint(-2, 2) for _ in range(d + 1)) for _ in range(k)]
            if rng.random() < 0.5:
                coeffs = [rng.randint(-2, 2) for _ in rays[1:]]
                base = [sum(c * r[i] for c, r in zip(coeffs, rays[1:])) for i in range(d)]
                rays[0] = tuple(base) + (rng.randint(-3, 3),)
            if any(not any(r[:-1]) for r in rays) or rank(rays) < k:
                continue
            rays = [primitive(r) for r in rays]
            cone = SimplicialCone(tuple(rays))
            independent = independent_projection(cone)
            assert (circuit_of(cone) is None) == independent, cone
            seen[independent] += 1


def span_equality_circuit(cone):
    """circuit_of by its former formula: None when a span equality has a
    nonzero last entry (e off the span), else the last entries of the dual
    basis rows, made primitive and checked."""
    if cone.dim < cone.ambient_dim and any(y[-1] for y in fanmod._span_equalities(cone)):
        return None
    return _checked_circuit(cone, primitive([n[-1] for n in fanmod._cone_solver(cone)]))


class TestCircuitOf:
    def test_first_step_cone(self):
        circ = circuit_of(C1)
        assert circ.pos == ((1, 1, 0, 1),)
        assert set(circ.neg) == {(1, 0, 0, 0), (0, 1, 0, 0)}
        assert circ.link == ((0, 0, 1, 0),)

    def test_updown_cone(self):
        circ = circuit_of(SimplicialCone(((1, 0, 0), (1, 0, 1), (0, 1, 0))))
        assert circ.rays == ((1, 0, 0), (1, 0, 1))
        assert circ.pos == ((1, 0, 1),)
        assert circ.neg == ((1, 0, 0),)
        assert circ.link == ((0, 1, 0),)

    def test_independent_cone(self):
        assert circuit_of(SimplicialCone(((1, 0, 0), (0, 1, 0)))) is None

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_against_span_equality_formula(self, d):
        # seeded lifted cones: full-dimensional ones (e = e_{d+1} in their
        # span) and lower-dimensional ones with e in and off their span, as
        # some cones get a first ray whose projection combines the others'
        rng = random.Random(70 + d)
        seen = {(True, True): 0, (False, True): 0, (False, False): 0}
        while min(seen.values()) < 25:
            k = rng.randint(1, d + 1)
            rays = [tuple(rng.randint(-2, 2) for _ in range(d + 1)) for _ in range(k)]
            if k > 1 and rng.random() < 0.5:
                coeffs = [rng.randint(-2, 2) for _ in rays[1:]]
                rays[0] = tuple(sum(c * r[i] for c, r in zip(coeffs, rays[1:])) for i in range(d)) + (
                    sum(c * r[-1] for c, r in zip(coeffs, rays[1:])) + rng.choice((-1, 1)),
                )
            if any(not any(r) for r in rays) or rank(rays) < k:
                continue
            cone = SimplicialCone(tuple(primitive(r) for r in rays))
            circ = circuit_of(cone)
            assert circ == span_equality_circuit(cone), cone
            seen[k == d + 1, circ is not None] += 1

    def test_relation_balances(self):
        circ = circuit_of(C4)
        projected = [r[:-1] for r in circ.rays]
        for i in range(3):
            assert sum(c * p[i] for c, p in zip(circ.relation, projected)) == 0
        assert sum(c * r[-1] for c, r in zip(circ.relation, circ.rays)) > 0


class TestClassify:
    def test_up(self):
        assert classify(C1) is ConeClass.UP

    def test_mixed_cone(self):
        cone = SimplicialCone(((1, 2, 2, 5), (1, 1, 0, 1), (1, 2, 1, 3), (1, 1, 1, 1)))
        assert classify(cone) is ConeClass.MIXED
        circ = circuit_of(cone)
        assert set(circ.pos) == {(1, 2, 2, 5), (1, 1, 0, 1)}
        assert set(circ.neg) == {(1, 2, 1, 3), (1, 1, 1, 1)}
        assert sum(c * r[-1] for c, r in zip(circ.relation, circ.rays)) == 2

    def test_updown(self):
        assert classify(SimplicialCone(((1, 0, 0), (1, 0, 1), (0, 1, 0)))) is ConeClass.UPDOWN

    def test_down(self):
        assert classify(SimplicialCone(((1, 0, 1), (0, 1, 1), (1, 1, 0)))) is ConeClass.DOWN

    def test_independent(self):
        assert classify(SimplicialCone(((1, 0, 0), (0, 1, 0)))) is ConeClass.INDEPENDENT

    def test_degenerate(self):
        # projections (1) and (-1) admit the all-positive relation
        cone = SimplicialCone(((1, 1), (-1, 1)))
        assert classify(cone) is ConeClass.DEGENERATE


class TestBoundary:
    def test_cyclic_example_lower(self, cyclic):
        lower = boundary(cyclic.fan, Side.LOWER)
        expected = {
            SimplicialCone(((1, 0, 0), (0, 1, 0))),
            SimplicialCone(((0, 1, 0), (-1, -1, 0))),
            SimplicialCone(((-1, -1, 0), (1, 0, 0))),
        }
        assert set(lower) == expected

    def test_cyclic_example_upper(self, cyclic):
        upper = boundary(cyclic.fan, Side.UPPER)
        expected = {
            SimplicialCone(((1, 0, 1), (0, 1, 1))),
            SimplicialCone(((0, 1, 1), (-1, -1, 1))),
            SimplicialCone(((-1, -1, 1), (1, 0, 1))),
        }
        assert set(upper) == expected

    def test_flat_fan_is_its_own_boundary(self):
        flat = Fan(3, (
            SimplicialCone(((1, 0, 0), (0, 1, 0))),
            SimplicialCone(((0, 1, 0), (-1, -1, 0))),
        ))
        assert set(boundary(flat, Side.LOWER)) == set(flat.max_cones)
        assert set(boundary(flat, Side.UPPER)) == set(flat.max_cones)

    def test_faces_non_nested_and_injective(self, karu):
        for faces in (karu.lower_faces, karu.upper_faces):
            for a in faces:
                for b in faces:
                    if a != b:
                        assert not set(a.rays) <= set(b.rays)
                projs = [r[:-1] for r in a.rays]
                assert len(set(projs)) == len(projs)


class TestValidateCobordism:
    def test_cyclic_example_between_plane_fan(self, cyclic, p2):
        assert validate_cobordism(cyclic, expected_bottom=p2, expected_top=p2).ok

    def test_karu_expected_boundaries(self, karu):
        top = orthant_fan()
        for center in KARU_CENTERS:
            top = star_subdivide(top, center)
        assert validate_cobordism(karu, expected_bottom=orthant_fan(), expected_top=top).ok

    def test_top_mismatch_detected(self, karu):
        report = validate_cobordism(karu, expected_top=orthant_fan())
        assert not report.ok
        assert any("top fan differs" in p for p in report.problems)

    def test_support_mismatch_names_uncovered_cone(self, karu):
        # a boundary with the wrong support is caught by the expected-fan
        # comparison; the covering oracle names the uncovered cone
        short_top = Fan(3, karu.top.max_cones[:1])
        assert validate_cobordism(karu, expected_top=short_top).problems == (
            "top fan differs from the expected fan",
        )
        assert fanmod._first_uncovered(karu.bottom, short_top) == karu.bottom.max_cones[0]
        short_bottom = Fan(3, (SimplicialCone((E1, E2)),))
        assert validate_cobordism(karu, expected_bottom=short_bottom).problems == (
            "bottom fan differs from the expected fan",
        )
        assert fanmod._first_uncovered(karu.top, short_bottom) == karu.top.max_cones[0]

    def test_support_mismatch_covers_each_cone_once(self, karu, monkeypatch):
        # supports_equal makes one covering pass per direction, stopping at
        # the first witness; validate_cobordism makes none
        calls = []
        real = fanmod.covered_by_fan

        def counting(cone, fan):
            calls.append((cone, fan))
            return real(cone, fan)

        monkeypatch.setattr(fanmod, "covered_by_fan", counting)
        short_top = Fan(3, karu.top.max_cones[:1])
        assert not validate_cobordism(karu, expected_top=short_top).ok
        assert calls == []
        assert not fanmod.supports_equal(karu.bottom, short_top)
        assert calls == [(karu.bottom.max_cones[0], short_top)]
        calls.clear()
        short_bottom = Fan(3, (SimplicialCone((E1, E2)),))
        assert not validate_cobordism(karu, expected_bottom=short_bottom).ok
        assert calls == []
        assert not fanmod.supports_equal(short_bottom, karu.top)
        assert calls == [(c, karu.top) for c in short_bottom.max_cones] + [
            (karu.top.max_cones[0], short_bottom)]

    def test_no_covering_pass(self, karu, cyclic, monkeypatch):
        # equal boundary supports are proved (validate_cobordism's
        # docstring), so no cobordism runs the covering test
        delta, centers = ring_chain(16)
        corpus = [karu, cyclic, build_cobordism(delta, centers)]
        corpus += [cobordism_from_doc(json.loads(p.read_text()))[0] for p in sorted(FIXTURES.glob("*.cob"))]
        monkeypatch.setattr(fanmod, "covered_by_fan", lambda *a: pytest.fail("covering pass"))
        assert len(corpus) == 9
        assert all(validate_cobordism(cob).ok for cob in corpus)

    def test_vertical_ray_rejected(self):
        with pytest.raises(InvalidFan):
            Cobordism.from_fan(Fan(3, (SimplicialCone(((1, 0, 0), (0, 0, 1))),)), 2)

    def test_degenerate_circuit_reported(self):
        cob = Cobordism.from_fan(Fan(2, (SimplicialCone(((1, 1), (-1, 1))),)), 1)
        report = validate_cobordism(cob)
        assert not report.ok
        assert any("degenerate" in p for p in report.problems)


def assert_factors_into(cob, centers, heights):
    """A valid build at the given center heights that factors back into one
    blowup per center, in order."""
    assert validate_cobordism(cob).ok
    assert sorted({r[-1] for r in cob.fan.rays} - {0}) == heights
    steps = extract_factorization(cob)
    assert [(s.kind, s.center) for s in steps] == [(StepKind.BLOWUP, c) for c in centers]


class TestBuildCobordism:
    def test_karu_census(self, karu):
        assert set(karu.fan.max_cones) == {C1, C2, C3, C4}
        for cone in karu.fan.max_cones:
            assert classify(cone) is ConeClass.UP
            circ = circuit_of(cone)
            assert len(circ.pos) == 1 and len(circ.link) == 1

    def test_karu_boundaries(self, karu):
        assert fans_equal(karu.bottom, orthant_fan())
        top = orthant_fan()
        for center in KARU_CENTERS:
            top = star_subdivide(top, center)
        assert fans_equal(karu.top, top)

    def test_empty_centers(self):
        cob = build_cobordism(orthant_fan(), [])
        assert all(len(c.rays) == 3 for c in cob.fan.max_cones)
        assert fans_equal(cob.bottom, orthant_fan())
        assert fans_equal(cob.top, orthant_fan())

    def test_single_center(self):
        cob = build_cobordism(orthant_fan(), [(1, 1, 0)])
        assert set(cob.fan.max_cones) == {C1}
        assert classify(C1) is ConeClass.UP

    def test_untouched_cones_lift_at_zero(self, p2):
        cob = build_cobordism(p2, [(1, 1)])
        assert fans_equal(cob.bottom, p2)
        heights = {r[-1] for c in cob.fan.max_cones for r in c.rays if len(c.rays) == 2}
        assert heights == {0}

    def test_non_integer_centers_and_heights_rejected(self):
        # floats and Fractions are refused, not truncated to center (1, 1)
        # and height 2
        quadrant = Fan(2, (SimplicialCone(((1, 0), (0, 1))),))
        for centers, heights in (([(1.9, 1.2)], [2.5]), ([(1, 1)], [2.5]),
                                 ([(1.0, 1)], None), ([(Fraction(1), 1)], [2])):
            with pytest.raises(TypeError):
                build_cobordism(quadrant, centers, heights)

    def test_center_not_in_support(self):
        with pytest.raises(CenterNotInSupport):
            build_cobordism(orthant_fan(), [(-1, 1, 1)])

    def test_center_already_ray(self):
        with pytest.raises(CenterAlreadyRay):
            build_cobordism(orthant_fan(), [(1, 0, 0)])

    def test_degenerate_heights(self):
        # at height 2 the second center 2*(1,1,0)+(0,0,1) lands exactly on
        # the lifted sheet; the default heights clear it
        centers = [(1, 1, 0), (2, 2, 1)]
        with pytest.raises(DegenerateHeights):
            build_cobordism(orthant_fan(), centers, (1, 2))
        assert_factors_into(build_cobordism(orthant_fan(), centers), centers, [1, 3])

    def test_center_below_sheet(self):
        # at height 3 the barycenter of two earlier centers would lift below
        # the graph; the default heights clear it
        centers = [(1, 1, 0), (1, 1, 1), (2, 2, 1)]
        with pytest.raises(DegenerateHeights):
            build_cobordism(orthant_fan(), centers, (1, 2, 3))
        assert_factors_into(build_cobordism(orthant_fan(), centers), centers, [1, 2, 4])

    def test_shared_circuit_is_intrinsic(self, karu):
        ca, cb = circuit_of(C3), circuit_of(C4)
        assert ca.rays == cb.rays == ((0, 0, 1, 0), (1, 1, 0, 1), (1, 1, 1, 3))
        assert ca.pos == cb.pos and ca.neg == cb.neg
        assert ca.link != cb.link


class TestRandomCorpus:
    def test_round_trip_and_invariants(self):
        rng = random.Random(21)
        for _ in range(25):
            fan = random_smooth_fan(rng)
            centers, final = random_center_sequence(rng, fan)
            cob = build_cobordism(fan, centers)
            assert fans_equal(cob.bottom, fan)
            assert fans_equal(cob.top, final)
            for cone in cob.fan.max_cones:
                circ = circuit_of(cone)
                if circ is not None:
                    assert circ.pos and circ.neg
            for faces in (cob.lower_faces, cob.upper_faces):
                for a in faces:
                    for b in faces:
                        if a != b:
                            assert not set(a.rays) <= set(b.rays)

    def test_height_rescaling_changes_nothing(self):
        rng = random.Random(22)
        for _ in range(6):
            fan = random_smooth_fan(rng)
            centers, _ = random_center_sequence(rng, fan)
            base = build_cobordism(fan, centers)
            scaled = build_cobordism(
                fan, centers, heights=[10 * (i + 1) for i in range(len(centers))]
            )

            def fingerprint(cob):
                rows = []
                for cone in cob.fan.max_cones:
                    circ = circuit_of(cone)
                    if circ is None:
                        rows.append(("independent", tuple(r[:-1] for r in cone.rays)))
                    else:
                        rows.append((
                            classify(cone).value,
                            tuple(r[:-1] for r in circ.pos),
                            tuple(r[:-1] for r in circ.neg),
                            circ.relation,
                        ))
                return sorted(rows)

            assert fingerprint(base) == fingerprint(scaled)
            ga, gb = circuit_graph(base), circuit_graph(scaled)
            strip = lambda key: tuple(r[:-1] for r in key)  # noqa: E731
            assert sorted(map(strip, ga.nodes)) == sorted(map(strip, gb.nodes))
            assert sorted((strip(a), strip(b)) for a, b in ga.edges) == sorted(
                (strip(a), strip(b)) for a, b in gb.edges
            )
            sa = extract_factorization(base)
            sb = extract_factorization(scaled)
            assert [(s.kind, s.center, s.result) for s in sa] == [
                (s.kind, s.center, s.result) for s in sb
            ]


class TestKaruHeightScaling:
    def test_karu_rescaled(self, karu):
        scaled = build_cobordism(orthant_fan(), KARU_CENTERS, heights=[10, 20, 30])
        for cone in scaled.fan.max_cones:
            assert classify(cone) is ConeClass.UP
        ok, order = is_collapsible(scaled)
        assert ok and len(order) == 3


class TestDocuments:
    def test_round_trip(self, karu):
        doc = cobordism_to_doc(karu)
        cob, stored_bottom, stored_top = cobordism_from_doc(doc)
        assert cob.fan == karu.fan
        assert fans_equal(stored_bottom, karu.bottom)
        assert fans_equal(stored_top, karu.top)
        assert fans_equal(cob.bottom, karu.bottom)

    def test_empty_document(self):
        cob, b, t = cobordism_from_doc({"base_dim": 2, "rays": [], "max_cones": []})
        assert cob.fan.max_cones == ()
        assert b is None and t is None
