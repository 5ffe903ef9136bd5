"""Fans: smoothness, membership, validation, star subdivision, documents."""

from __future__ import annotations

import dataclasses
import itertools
import random
from fractions import Fraction

import pytest

from fancob import fan as fanmod
from fancob.errors import DependentInput, DimensionMismatch, NotInSupport, ParseError, ZeroVector
from fancob.exact import _scaled_inverse, dot, nonneg_combination, primitive, solve_in_span
from fancob.fan import (
    Fan,
    RayNormalized,
    SimplicialCone,
    _first_uncovered,
    _intersection_generators,
    _pair_problem,
    _positive_rays,
    _separating_zeros,
    _stays_inside,
    cone_contains,
    covered_by_fan,
    fan_from_doc,
    fan_to_doc,
    fans_equal,
    is_smooth,
    minimal_containing_cone,
    star_subdivide,
    supports_equal,
    validate_fan,
)
from fancob import exact
from fancob.cobordism import build_cobordism
from conftest import orthant_fan, random_smooth_fan, random_center_sequence, ring_chain, sample_points
from test_facet_boundary import _orthant

E1, E2, E3 = (1, 0, 0), (0, 1, 0), (0, 0, 1)


def p2_fan():
    return Fan(2, (
        SimplicialCone(((1, 0), (0, 1))),
        SimplicialCone(((0, 1), (-1, -1))),
        SimplicialCone(((-1, -1), (1, 0))),
    ))


def _stays_inside_oracle(cone, point, direction):
    """_stays_inside from the Fraction coordinates of point and direction."""
    lam_p = solve_in_span(cone.rays, point)
    lam_d = solve_in_span(cone.rays, direction)
    if lam_p is None or lam_d is None:
        return False
    return all(lp > 0 or (lp == 0 and ld >= 0) for lp, ld in zip(lam_p, lam_d))


def _gram_facet_normals(cone):
    """Facet normals from the Gram matrix G of the rays: with (N, D) =
    (D * G^-1, D), the vector sum_j N_ij v_j pairs to D > 0 with ray i and
    to 0 with every other ray."""
    v = cone.rays
    inv, _ = _scaled_inverse([[dot(a, b) for b in v] for a in v])
    out = []
    for row in inv:
        w = [0] * cone.ambient_dim
        for n, ray in zip(row, v):
            w = [x + n * y for x, y in zip(w, ray)]
        out.append(primitive(w))
    return tuple(out)


class TestSimplicialCone:
    def test_canonical_order(self):
        a = SimplicialCone(((0, 1), (1, 0)))
        b = SimplicialCone(((1, 0), (0, 1)))
        assert a == b and a.rays == ((0, 1), (1, 0))

    def test_dependent_rejected(self):
        with pytest.raises(DependentInput):
            SimplicialCone(((1, 0), (-1, 0)))

    def test_duplicate_rejected(self):
        with pytest.raises(ValueError):
            SimplicialCone(((1, 0), (1, 0)))

    def test_imprimitive_rejected(self):
        with pytest.raises(ValueError):
            SimplicialCone(((2, 0),))

    def test_non_integer_entries_rejected(self):
        # floats and Fractions are refused, not truncated
        for rays in (((1.5, 0), (0, 1.9)), ((1.0, 0), (0, 1)), ((Fraction(1), 0), (0, 1))):
            with pytest.raises(TypeError):
                SimplicialCone(rays)

    def test_stored_hash_and_repr(self):
        # the hash is stored at construction; it is the structural one
        a = SimplicialCone(((0, 1, 0), (1, 0, 0)))
        b = SimplicialCone(((1, 0, 0), (0, 1, 0)))
        assert a == b and hash(a) == hash(b) == hash((a.rays,))
        assert len({a, b, SimplicialCone(((1, 0, 0),))}) == 2
        assert repr(a) == "cone[(0, 1, 0), (1, 0, 0)]"
        assert dataclasses.replace(a, rays=((0, 0, 1),)) == SimplicialCone(((0, 0, 1),))

    def test_face_constructor_matches_full_one(self):
        # a face cut out of a known cone, in any order, skips the checks,
        # not the value
        rng = random.Random(17)
        for d in (2, 3, 4):
            checked = 0
            while checked < 100:
                rays = {tuple(rng.randint(-3, 3) for _ in range(d)) for _ in range(rng.randint(1, d))}
                try:
                    cone = SimplicialCone(tuple(primitive(r) for r in rays))
                except (ValueError, ZeroVector, DependentInput):
                    continue
                sub = tuple(r for r in cone.rays if rng.random() < 0.6) or cone.rays[:1]
                face = SimplicialCone._face(tuple(rng.sample(sub, len(sub))))
                full = SimplicialCone(sub)
                assert face == full and face.rays == full.rays
                assert hash(face) == hash(full) and repr(face) == repr(full)
                assert len({face, full}) == 1
                checked += 1
        with pytest.raises(ValueError):
            SimplicialCone._face(())


class TestIsSmooth:
    def test_basis(self):
        assert is_smooth(SimplicialCone(((1, 0), (0, 1))))

    def test_index_two(self):
        assert not is_smooth(SimplicialCone(((1, 0), (1, 2))))

    def test_plane_pair(self):
        assert is_smooth(SimplicialCone(((-1, -1), (1, 0))))


class TestConeContains:
    def test_inside(self):
        assert cone_contains(SimplicialCone(((1, 0), (0, 1))), (1, 1))

    def test_outside(self):
        assert not cone_contains(SimplicialCone(((1, 0), (0, 1))), (1, -1))

    def test_lower_dimensional(self):
        assert cone_contains(SimplicialCone(((1, 1, 0), (0, 0, 1))), (1, 1, 1))


    def test_integer_solver_agrees_with_fraction_solve(self):
        # every cone reads its coefficients off the _cone_solver rows; they
        # must give the oracle's positive rays, and _stays_inside must agree
        # with the Fraction coordinates of point and direction
        rng = random.Random(13)
        cones = 0
        kinds = {"full": 0, "lower": 0, "off_span": 0, "face_stays": 0, "face_leaves": 0}
        while cones < 400:
            d = rng.randint(1, 5)
            rays = {primitive(v) for v in (
                tuple(rng.randint(-3, 3) for _ in range(d)) for _ in range(rng.randint(1, d))
            ) if any(v)}
            if not rays:
                continue
            try:
                cone = SimplicialCone(tuple(rays))
            except DependentInput:
                continue
            cones += 1
            kinds["full" if cone.dim == d else "lower"] += 1
            for _ in range(6):
                lam = [rng.choice((0, 0, 1, 2, -1)) for _ in cone.rays]
                p = tuple(sum(l * r[i] for l, r in zip(lam, cone.rays)) for i in range(d))
                for q in (p, tuple(rng.randint(-3, 3) for _ in range(d))):
                    q = tuple(Fraction(x, 3) for x in q) if rng.random() < 0.3 else q
                    coeffs = nonneg_combination(cone.rays, q)
                    want = None if coeffs is None else tuple(
                        r for r, c in zip(cone.rays, coeffs) if c > 0
                    )
                    assert _positive_rays(cone, q) == want
                    assert cone_contains(cone, q) == (want is not None)
                    if want:
                        found = minimal_containing_cone(Fan(d, (cone,)), q)
                        assert found == SimplicialCone(want)
                    mu = [rng.choice((0, 1, -1, 2, -3)) for _ in cone.rays]
                    u = tuple(sum(m * r[i] for m, r in zip(mu, cone.rays)) for i in range(d))
                    for v in (u, tuple(-x for x in u), tuple(rng.randint(-2, 2) for _ in range(d))):
                        inside = _stays_inside(cone, q, v)
                        assert inside == _stays_inside_oracle(cone, q, v), (cone, q, v)
                        if solve_in_span(cone.rays, q) is None:
                            kinds["off_span"] += 1
                        elif want is not None and len(want) < cone.dim:
                            kinds["face_stays" if inside else "face_leaves"] += 1
        assert min(kinds.values()) >= 100, kinds

    def test_facet_normals_match_gram_oracle(self):
        rng = random.Random(15)
        kinds = {"full": 0, "lower": 0}
        while min(kinds.values()) < 150:
            d = rng.randint(1, 5)
            rays = {primitive(v) for v in (
                tuple(rng.randint(-4, 4) for _ in range(d)) for _ in range(rng.randint(1, d))
            ) if any(v)}
            if not rays:
                continue
            try:
                cone = SimplicialCone(tuple(rays))
            except DependentInput:
                continue
            kinds["full" if cone.dim == d else "lower"] += 1
            assert fanmod._facet_normals(cone) == _gram_facet_normals(cone), cone

    def test_dimension_mismatch(self):
        cone = SimplicialCone(((1, 0), (0, 1)))
        with pytest.raises(DimensionMismatch):
            cone_contains(cone, (1, 1, 1))
        with pytest.raises(DimensionMismatch):
            minimal_containing_cone(Fan(2, (cone,)), (1, 1, 1))


class TestValidateFan:
    def test_p2_valid(self):
        assert validate_fan(p2_fan()).ok

    def test_overlap_invalid(self):
        fan = Fan(2, (
            SimplicialCone(((1, 0), (0, 1))),
            SimplicialCone(((1, 1), (1, -1))),
        ))
        report = validate_fan(fan)
        assert not report.ok
        assert any("overlap" in p for p in report.problems)
        # (2,1) really is in both cones
        assert cone_contains(fan.max_cones[0], (2, 1))
        assert cone_contains(fan.max_cones[1], (2, 1))

    def test_single_cone_valid(self):
        assert validate_fan(orthant_fan()).ok

    def test_nested_reported(self):
        fan = Fan(2, (
            SimplicialCone(((1, 0), (0, 1))),
            SimplicialCone(((1, 0),)),
        ))
        report = validate_fan(fan)
        assert not report.ok
        assert any("nested" in p for p in report.problems)

    def test_shared_face_valid(self):
        fan = Fan(3, (
            SimplicialCone((E1, E2, E3)),
            SimplicialCone(((-1, 0, 0), E2, E3)),
        ))
        assert validate_fan(fan).ok


class TestMinimalContainingCone:
    def test_interior_of_two_face(self):
        assert minimal_containing_cone(p2_fan(), (1, 1)) == SimplicialCone(((1, 0), (0, 1)))

    def test_on_a_ray(self):
        assert minimal_containing_cone(p2_fan(), (1, 0)) == SimplicialCone(((1, 0),))

    def test_barycenter(self):
        assert minimal_containing_cone(orthant_fan(), (1, 1, 1)) == SimplicialCone((E1, E2, E3))

    def test_not_in_support(self):
        with pytest.raises(NotInSupport):
            minimal_containing_cone(orthant_fan(), (-1, 0, 0))


def _signed_unit(d, i, s):
    return tuple(s if j == i else 0 for j in range(d))


def locate_corpus_fan(rng: random.Random, d: int, kind: str) -> Fan:
    """A valid fan in dim d: every orthant ("complete"), some of them
    ("partial", with boundary facets), or the orthants with x_1 >= 0 and
    lower-dimensional cones on -e_1 and other signed unit vectors
    ("impure"); then up to three star subdivisions at primitive face
    barycenters."""
    signs = list(itertools.product((1, -1), repeat=d))
    if kind == "complete":
        cones = [_orthant(s) for s in signs]
    elif kind == "partial":
        cones = [_orthant(s) for s in rng.sample(signs, rng.randint(1, len(signs) - 1))]
    else:
        # cones on signed unit vectors of distinct axes meet in the cone on
        # their shared rays, so only nested ones are dropped
        low = set()
        for _ in range(3):
            axes = rng.sample(range(1, d), rng.randint(0, d - 2))
            rays = [_signed_unit(d, 0, -1)] + [_signed_unit(d, i, rng.choice((1, -1))) for i in axes]
            low.add(frozenset(rays))
        cones = [_orthant(s) for s in signs if s[0] == 1]
        cones += [SimplicialCone(tuple(c)) for c in low if not any(c < o for o in low)]
    fan = Fan(d, tuple(cones))
    for _ in range(rng.randint(0, 3)):
        cone = rng.choice(fan.max_cones)
        face = rng.sample(cone.rays, rng.randint(1, cone.dim))
        center = primitive(tuple(map(sum, zip(*face))))
        if center not in fan.rays:
            fan = star_subdivide(fan, center)
    return fan


class TestPointLocation:
    """fan._locate walks from a start cone before it scans; on a valid fan
    every start must give minimal_containing_cone's face."""

    def test_walk_agrees_with_scan(self):
        rng = random.Random(23)
        seen = {"walked": 0, "gave_up": 0, "outside": 0}
        face_dims = set()
        for d in (2, 3, 4):
            for kind in ("complete", "partial", "impure"):
                for _ in range(4):
                    fan = locate_corpus_fan(rng, d, kind)
                    assert validate_fan(fan).ok
                    cones = fanmod._IndexedCones(fan.max_cones)
                    points = []
                    for k in range(1, d + 1):
                        for _ in range(3):
                            cone = rng.choice([c for c in fan.max_cones if c.dim >= k] or fan.max_cones)
                            face = rng.sample(cone.rays, min(k, cone.dim))
                            points.append(tuple(
                                sum(rng.randint(1, 3) * r[i] for r in face) for i in range(d)
                            ))
                    points += [tuple(rng.randint(-3, 3) for _ in range(d)) for _ in range(4)]
                    for p in points:
                        if not any(p):
                            continue
                        try:
                            want = minimal_containing_cone(fan, p)
                        except NotInSupport:
                            want = None
                        for start in fan.max_cones:
                            walked = fanmod._walk(cones, p, start)[0] is not None
                            if want is None:
                                assert not walked
                                with pytest.raises(NotInSupport):
                                    fanmod._locate(cones, p, start)
                                seen["outside"] += 1
                                continue
                            tau, sigma, coords = fanmod._locate(cones, p, start)
                            assert tau == want and want.rays == _positive_rays(sigma, p)
                            assert coords == fanmod._coordinates(sigma, p)
                            seen["walked" if walked else "gave_up"] += 1
                            face_dims.add(want.dim)
        assert face_dims == {1, 2, 3, 4}
        assert min(seen.values()) >= 200, seen

    def test_step_cap_falls_back_to_the_scan(self, monkeypatch):
        # an index that always points across to the other of two cones
        # missing the point makes the walk circle; it stops after
        # len(cones) steps and the scan in fan order answers
        fan = p2_fan()
        point = (1, 1)
        want = minimal_containing_cone(fan, point)
        cones = fanmod._IndexedCones(fan.max_cones)
        a, b = (c for c in fan.max_cones if not cone_contains(c, point))
        monkeypatch.setattr(fanmod._IndexedCones, "holding", lambda self, rays: {a, b})
        real, seen = fanmod._coordinates, []

        def recording(cone, p):
            seen.append(cone)
            return real(cone, p)

        monkeypatch.setattr(fanmod, "_coordinates", recording)
        assert fanmod._walk(cones, point, a) == (None, None)
        assert seen == [a, b, a]
        seen.clear()
        tau, sigma, _ = fanmod._locate(cones, point, a)
        assert tau == want and sigma == want
        scan = list(fan.max_cones[: fan.max_cones.index(sigma) + 1])
        assert seen == [a, b, a] + scan

    def test_ordered_list_follows_adds_and_removals(self):
        # the list kept by bisection is the set in fan order after any
        # sequence of adds (repeated ones included) and removals
        rng = random.Random(25)
        for d in (2, 3, 4):
            pool = list({c for _ in range(30) for c in random_cone_pair(rng, d)})
            cones = fanmod._IndexedCones(rng.sample(pool, len(pool) // 2))
            for _ in range(200):
                cone = rng.choice(pool)
                if cone in cones.cones and rng.random() < 0.5:
                    cones.remove(cone)
                else:
                    cones.add(cone)
                assert cones.ordered == sorted(cones.cones, key=fanmod._RAYS)
                assert all(cones.holders[r] == {c for c in cones.cones if r in c.rays}
                           for r in cones.holders)

    def test_scan_in_fan_order_decides_on_invalid_fans(self):
        # on overlapping cones the face holding a point can depend on the
        # cone it is read off; _locate without a start takes the first cone
        # of sorted(cones, key=rays) that holds the point, whatever order
        # the cones came in
        rng = random.Random(26)
        decided = 0
        for d in (2, 3, 4):
            fans = 0
            while fans < 15:
                a, b = random_cone_pair(rng, d)
                if validate_fan(Fan(d, (a, b))).ok:
                    continue
                fans += 1
                pool = [a, b] + [c for _ in range(3) for c in random_cone_pair(rng, d)]
                cones = fanmod._IndexedCones([])
                for c in rng.sample(pool, len(pool)):
                    cones.add(c)
                for c in rng.sample(pool[2:], 2):
                    if c in cones.cones and c not in (a, b):
                        cones.remove(c)
                points = [tuple(map(sum, zip(*_intersection_generators(a, b))))]
                points += sample_points(a, rng, 3) + sample_points(b, rng, 3)
                for p in points:
                    holding = [c for c in sorted(cones.cones, key=fanmod._RAYS)
                               if _positive_rays(c, p) is not None]
                    if not any(p) or not holding:
                        continue
                    tau, sigma, _ = fanmod._locate(cones, p)
                    assert sigma == holding[0]
                    assert tau.rays == _positive_rays(sigma, p)
                    decided += len({_positive_rays(c, p) for c in holding}) > 1
        assert decided >= 100, decided

    @pytest.mark.parametrize("n", [64, 128])
    def test_ring_chain_locate_count(self, n, monkeypatch):
        # the build of the ring chain examines a bounded number of cones per
        # center, whatever n, and needs no solve_in_span for the graph height
        counts = {"cones": 0, "solve_in_span": 0}
        real_coordinates, real_solve = fanmod._coordinates, exact.solve_in_span

        def coordinates(cone, p):
            counts["cones"] += 1
            return real_coordinates(cone, p)

        def solve(*args):
            counts["solve_in_span"] += 1
            return real_solve(*args)

        monkeypatch.setattr(fanmod, "_coordinates", coordinates)
        monkeypatch.setattr(exact, "solve_in_span", solve)
        fan, centers = ring_chain(n)
        cob = build_cobordism(fan, centers)
        assert len(cob.top.max_cones) == 3 * n
        assert counts["solve_in_span"] == 0
        assert counts["cones"] / len(centers) < 4, counts


class TestStarSubdivide:
    def test_first_step(self):
        fan = star_subdivide(orthant_fan(), (1, 1, 0))
        assert set(fan.max_cones) == {
            SimplicialCone((E1, (1, 1, 0), E3)),
            SimplicialCone(((1, 1, 0), E2, E3)),
        }

    def test_three_step_tower(self):
        fan = star_subdivide(orthant_fan(), (1, 1, 0))
        fan = star_subdivide(fan, (0, 1, 1))
        fan = star_subdivide(fan, (1, 1, 1))
        v12, v23, rho = (1, 1, 0), (0, 1, 1), (1, 1, 1)
        assert set(fan.max_cones) == {
            SimplicialCone((v12, E2, v23)),
            SimplicialCone((E1, v12, rho)),
            SimplicialCone((E1, rho, E3)),
            SimplicialCone((v12, v23, rho)),
            SimplicialCone((v23, rho, E3)),
        }

    def test_existing_ray_is_identity(self):
        fan = star_subdivide(orthant_fan(), (1, 1, 0))
        assert star_subdivide(fan, (1, 1, 0)) is fan

    def test_not_in_support(self):
        with pytest.raises(NotInSupport):
            star_subdivide(orthant_fan(), (-1, 1, 1))

    def test_non_integer_center_rejected(self):
        for center in ((1.0, 1, 0), (1.5, 1, 0), (Fraction(1), 1, 0)):
            with pytest.raises(TypeError):
                star_subdivide(orthant_fan(), center)

    def test_support_preserved_on_sampled_points(self):
        # membership of random rational interior points survives subdivision
        rng = random.Random(11)
        old = p2_fan()
        new = star_subdivide(old, (1, 1))
        pts = [p for c in old.max_cones for p in sample_points(c, rng, 34)]
        assert len(pts) >= 100
        for p in pts:
            assert any(cone_contains(c, p) for c in new.max_cones)
        # and every new cone sits inside some old cone
        for c in new.max_cones:
            assert any(
                all(cone_contains(old_cone, r) for r in c.rays) for old_cone in old.max_cones
            )

    def test_validity_preserved_on_random_corpus(self):
        rng = random.Random(12)
        for _ in range(15):
            fan = random_smooth_fan(rng)
            assert validate_fan(fan).ok
            centers, final = random_center_sequence(rng, fan, 3)
            assert validate_fan(final).ok

    def test_counting_rule(self):
        # m cones contain the minimal face of k rays: growth is m*(k-1)
        fan = star_subdivide(orthant_fan(), (1, 1, 0))
        fan = star_subdivide(fan, (0, 1, 1))
        tau = minimal_containing_cone(fan, (1, 1, 1))
        k = len(tau.rays)
        m = sum(1 for c in fan.max_cones if set(tau.rays) <= set(c.rays))
        after = star_subdivide(fan, (1, 1, 1))
        assert k == 2 and m == 2
        assert len(after.max_cones) == len(fan.max_cones) + m * (k - 1)

    def test_smoothness_preserved_on_tower(self):
        fan = orthant_fan()
        for center in [(1, 1, 0), (0, 1, 1), (1, 1, 1)]:
            fan = star_subdivide(fan, center)
            assert all(is_smooth(c) for c in fan.max_cones)


class TestFansEqual:
    def test_reflexive(self):
        fan = p2_fan()
        assert fans_equal(fan, fan)

    def test_reordered_cones(self):
        a = p2_fan()
        b = Fan(2, tuple(reversed(a.max_cones)))
        assert fans_equal(a, b)

    def test_subdivision_differs(self):
        a = p2_fan()
        assert not fans_equal(a, star_subdivide(a, (1, 1)))

    def test_symmetry_and_transitivity(self):
        a, b = p2_fan(), Fan(2, tuple(reversed(p2_fan().max_cones)))
        c = p2_fan()
        assert fans_equal(a, b) == fans_equal(b, a)
        assert fans_equal(a, b) and fans_equal(b, c) and fans_equal(a, c)


class TestSupportCover:
    def test_refinement_has_equal_support(self):
        fan = p2_fan()
        assert supports_equal(fan, star_subdivide(fan, (1, 1)))

    def test_proper_subset(self):
        whole = p2_fan()
        part = Fan(2, (whole.max_cones[0],))
        assert not supports_equal(whole, part)
        assert covered_by_fan(part.max_cones[0], whole)

    def test_empty_fans(self):
        assert supports_equal(Fan(2, ()), Fan(2, ()))
        assert not supports_equal(p2_fan(), Fan(2, ()))

    def test_different_subdivisions_same_support(self):
        quad = Fan(2, (SimplicialCone(((1, 0), (0, 1))),))
        a = star_subdivide(quad, (1, 1))
        b = star_subdivide(quad, (1, 2))
        assert supports_equal(a, b)

    def test_shifted_cone_not_covered(self):
        a = Fan(2, (SimplicialCone(((1, 0), (0, 1))),))
        b = Fan(2, (SimplicialCone(((1, 0), (1, 1))),))
        assert not supports_equal(a, b)
        assert covered_by_fan(b.max_cones[0], a)

    def test_first_uncovered_witness(self):
        whole = p2_fan()
        part = Fan(2, (whole.max_cones[0],))
        assert _first_uncovered(whole, part) == whole.max_cones[1]
        assert _first_uncovered(part, whole) is None
        assert _first_uncovered(whole, Fan(2, ())) == whole.max_cones[0]
        assert _first_uncovered(Fan(2, ()), whole) is None
        a = Fan(2, (SimplicialCone(((1, 0), (0, 1))),))
        b = Fan(2, (SimplicialCone(((1, 0), (1, 1))),))
        assert _first_uncovered(a, b) == a.max_cones[0]
        assert _first_uncovered(b, a) is None
        assert _first_uncovered(p2_fan(), star_subdivide(p2_fan(), (1, 1))) is None


class TestValidateFanAgainstSampling:
    def test_random_pairs_sampled_falsification(self):
        # whenever sampling finds a shared point outside the common-ray cone,
        # validation must have flagged the pair; and every reported witness
        # really lies in both cones and outside the common-ray cone
        from fancob.exact import nonneg_combination
        from fancob.fan import _intersection_generators

        rng = random.Random(13)
        for _ in range(200):
            d = rng.randint(2, 3)
            cones = []
            while len(cones) < 2:
                k = rng.randint(1, d)
                rays = []
                for _ in range(k):
                    v = tuple(rng.randint(-3, 3) for _ in range(d))
                    if any(v):
                        from fancob.exact import primitive

                        rays.append(primitive(v))
                try:
                    cones.append(SimplicialCone(tuple(rays)))
                except Exception:
                    continue
            a, b = cones
            if set(a.rays) <= set(b.rays) or set(b.rays) <= set(a.rays):
                continue
            common = sorted(set(a.rays) & set(b.rays))
            flagged = not validate_fan(Fan(d, (a, b))).ok

            def in_common(p):
                return bool(common) and nonneg_combination(common, p) is not None

            # soundness of the verdict's witnesses
            if flagged:
                gens = _intersection_generators(a, b)
                bad = [g for g in gens if not in_common(g)]
                assert bad
                for g in bad:
                    assert cone_contains(a, g) and cone_contains(b, g)
            # sampled falsification: shared points outside the common face
            for p in sample_points(a, rng, 8):
                if cone_contains(b, p) and not in_common(p):
                    assert flagged, (a, b, p)
                    break


def _random_ray(rng: random.Random, d: int):
    while True:
        v = tuple(rng.randint(-3, 3) for _ in range(d))
        if any(v):
            return primitive(v)


def _combination(rng: random.Random, rays, sign: int = 1):
    weights = [sign * rng.randint(1, 2) for _ in rays]
    return tuple(sum(w * r[i] for w, r in zip(weights, rays)) for i in range(len(rays[0])))


def random_cone_pair(rng: random.Random, d: int):
    """Two cones in dim d, full or lower-dimensional, sharing 0..k-1 rays of
    the first.  The second's other rays are random, or on the far side of
    the first (its non-shared rays negated), with possibly one of them moved
    onto a proper face of the first (touching it past the shared rays) or by
    one lattice step (which can overlap)."""
    while True:
        try:
            a = SimplicialCone(tuple({_random_ray(rng, d) for _ in range(rng.randint(1, d))}))
            shared = rng.sample(a.rays, rng.randint(0, a.dim - 1))
            rest = [r for r in a.rays if r not in shared]
            count = rng.randint(1, d - len(shared))
            kind = rng.randrange(4)
            if kind == 0:
                new = [_random_ray(rng, d) for _ in range(count)]
            else:
                new = []
                for _ in range(count):
                    far = _combination(rng, rng.sample(rest, rng.randint(1, len(rest))), -1)
                    new.append(tuple(x + y for x, y in zip(far, _combination(rng, shared or [far]))))
            if kind == 2 and len(rest) > 1 and a.dim > 2:
                # inside the facet of a opposite ray i, off its rays
                i, j = rng.sample(rest, 2)
                others = [r for r in a.rays if r not in (i, j)]
                new[0] = _combination(rng, [j] + rng.sample(others, rng.randint(1, len(others))))
            elif kind == 3:
                i = rng.randrange(d)
                new[0] = tuple(x + (rng.choice((1, -1)) if j == i else 0) for j, x in enumerate(new[0]))
            b = SimplicialCone(tuple(set(shared) | {primitive(v) for v in new}))
        except (ValueError, ZeroVector, DependentInput):
            continue
        return a, b


class TestSeparatingCertificate:
    """_separating_zeros lets _pair_problem and covered_by_fan skip the
    double-description pass; the skip must never change an answer."""

    def test_pair_problem_matches_double_description(self, monkeypatch):
        rng = random.Random(41)
        pairs = [random_cone_pair(rng, d) for d in (2, 3, 4) for _ in range(700)]
        certified = [_pair_problem(a, b) for a, b in pairs]
        monkeypatch.setattr(fanmod, "_separating_zeros", lambda a, b: iter(()))
        assert certified == [_pair_problem(a, b) for a, b in pairs]
        assert 150 <= sum(p is not None for p in certified) <= len(pairs) - 150

    def test_certificates_hold(self):
        # every running zero set is a shrinking set of rays of the other cone
        # whose cone holds the intersection, the last one is the
        # full-intersection rule's, and the pairs whose certificate reaches
        # past the shared rays include real overlaps, which only the
        # double-description pass may judge
        rng = random.Random(42)
        kinds = {"shared": 0, "past_shared_overlap": 0, "none": 0}
        for d in (2, 3, 4):
            for _ in range(700):
                a, b = random_cone_pair(rng, d)
                shared = set(a.rays) & set(b.rays)
                for x, y in ((a, b), (b, a)):
                    running = list(_separating_zeros(x, y))
                    assert (running[-1] if running else None) == full_intersection_zeros(x, y)
                    if not running:
                        kinds["none"] += 1
                        continue
                    gens = _intersection_generators(x, y)
                    for last, zeros in zip([set(y.rays)] + running, running):
                        assert zeros <= last
                        rays = tuple(r for r in y.rays if r in zeros)
                        for g in gens:
                            assert rays and nonneg_combination(rays, g) is not None, (x, y, zeros, g)
                    zeros = running[-1]
                    if shared.issuperset(zeros):
                        kinds["shared"] += 1
                    elif not (shared >= set(a.rays) or shared >= set(b.rays)) and _pair_problem(a, b):
                        kinds["past_shared_overlap"] += 1
        assert kinds["shared"] >= 1000 and kinds["none"] >= 300, kinds
        assert kinds["past_shared_overlap"] >= 60, kinds


def full_intersection_zeros(a: SimplicialCone, b: SimplicialCone):
    """The full-intersection certificate rule: the rays of b on which every
    facet normal of a that is <= 0 on all of b vanishes, or None when no
    facet normal of a is."""
    zeros = None
    for w in fanmod._facet_normals(a):
        if all(dot(w, r) <= 0 for r in b.rays):
            z = {r for r in b.rays if dot(w, r) == 0}
            zeros = z if zeros is None else zeros & z
    return zeros


class TestEarlyStoppingCertificates:
    """_pair_problem and covered_by_fan stop at the first running zero set
    of _separating_zeros that settles their question; every message and
    verdict must be the one the full-intersection rule gives."""

    def test_agrees_with_full_intersection(self, monkeypatch):
        # random pairs, some with a face of the first cone as the second
        # (nested), each with a cone on some rays of both, queried against
        # the pair's fan when it is valid
        rng = random.Random(44)
        cases = []
        for d in (2, 3, 4, 5):
            for _ in range(300):
                a, b = random_cone_pair(rng, d)
                if rng.random() < 0.15 and a.dim > 1:
                    b = SimplicialCone(tuple(rng.sample(a.rays, rng.randint(1, a.dim - 1))))
                rays = list(set(a.rays) | set(b.rays))
                try:
                    query = SimplicialCone(tuple(rng.sample(rays, rng.randint(1, min(d, len(rays))))))
                except DependentInput:
                    query = a
                cases.append((a, b, query))

        def outcomes():
            out = []
            for a, b, query in cases:
                d = a.ambient_dim
                covered = [covered_by_fan(x, Fan(d, (y,))) for x, y in ((a, b), (b, a))]
                if validate_fan(Fan(d, (a, b))).ok:
                    covered.append(covered_by_fan(query, Fan(d, (a, b))))
                out.append((_pair_problem(a, b), covered))
            return out

        early = outcomes()
        kinds = {(d, kind): 0 for d in (2, 3, 4, 5)
                 for kind in ("disjoint", "face-sharing", "nested", "overlapping")}
        settled_early = 0
        for (a, b, _), (problem, _) in zip(cases, early):
            shared = set(a.rays) & set(b.rays)
            if problem is None:
                kind = "face-sharing" if shared else "disjoint"
            else:
                kind = "nested" if problem.startswith("nested") else "overlapping"
            kinds[a.ambient_dim, kind] += 1
            for x, y in ((a, b), (b, a)):
                running = list(_separating_zeros(x, y))
                first = next((i for i, z in enumerate(running) if shared.issuperset(z)), None)
                settled_early += first is not None and first < len(running) - 1

        def full_rule(a, b):
            zeros = full_intersection_zeros(a, b)
            return iter(() if zeros is None else (zeros,))

        monkeypatch.setattr(fanmod, "_separating_zeros", full_rule)
        assert early == outcomes()
        verdicts = [v for _, covered in early for v in covered]
        assert min(verdicts.count(True), verdicts.count(False)) >= 500, verdicts.count(True)
        assert min(kinds.values()) >= 15 and settled_early >= 200, (kinds, settled_early)


class TestGeometryCaches:
    def test_bounded(self):
        caches = (fanmod._span_equalities, fanmod._cone_solver, fanmod._facet_normals)
        bound = fanmod._GEOMETRY_CACHE_SIZE
        try:
            for n in range(bound + 100):
                cone = SimplicialCone(((1, 0, 0), (n, 1, 0)))
                for cache in caches:
                    cache(cone)
            for cache in caches:
                assert cache.cache_info().maxsize == bound
                assert cache.cache_info().currsize == bound
        finally:
            for cache in caches:
                cache.cache_clear()


class TestSupportCoverCompleteness:
    def test_hole_detected(self):
        rng = random.Random(14)
        for _ in range(20):
            fan = random_smooth_fan(rng)
            centers, final = random_center_sequence(rng, fan, 3)
            for cone in fan.max_cones:
                assert covered_by_fan(cone, final)
            if len(final.max_cones) > 1:
                holed = Fan(3, final.max_cones[1:])
                assert not all(covered_by_fan(c, holed) for c in fan.max_cones)


class TestDocuments:
    def test_round_trip(self):
        fan = p2_fan()
        assert fans_equal(fan_from_doc(fan_to_doc(fan)), fan)

    def test_round_trip_tower(self):
        fan = star_subdivide(orthant_fan(), (1, 1, 0))
        assert fans_equal(fan_from_doc(fan_to_doc(fan)), fan)

    def test_normalizes_with_warning(self):
        doc = {"dim": 2, "rays": [[2, 0], [0, 1]], "max_cones": [[0, 1]]}
        with pytest.warns(RayNormalized):
            fan = fan_from_doc(doc)
        assert fan.rays == ((0, 1), (1, 0))

    @pytest.mark.parametrize(
        "doc",
        [
            [],
            {},
            {"dim": 0, "rays": [], "max_cones": []},
            {"dim": 2, "rays": [[0, 0]], "max_cones": [[0]]},
            {"dim": 2, "rays": [[1, 0, 0]], "max_cones": [[0]]},
            {"dim": 2, "rays": [[1, 0]], "max_cones": [[1]]},
            {"dim": 2, "rays": [[1, 0]], "max_cones": [[]]},
            {"dim": 2, "rays": [[1, 0.5]], "max_cones": [[0]]},
            {"dim": 2, "rays": [[1, 0], [2, 0]], "max_cones": [[0, 1]]},
        ],
    )
    def test_parse_errors(self, doc):
        import warnings

        with pytest.raises(ParseError), warnings.catch_warnings():
            warnings.simplefilter("ignore", RayNormalized)
            fan_from_doc(doc)

    def test_empty_fan_document(self):
        fan = fan_from_doc({"dim": 2, "rays": [], "max_cones": []})
        assert fan.max_cones == ()
