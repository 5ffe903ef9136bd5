"""Facet-local boundary extraction, the proved build_cobordism and the
maximal-face smoothness test: differential tests against the all-faces
enumerations they replace, kept here as oracles."""

from __future__ import annotations

import dataclasses
import itertools
import json
import random

import pytest

from fancob import cobordism as cobmod
from fancob import fan as fanmod
from fancob.cli import main
from fancob.cobordism import (
    Cobordism,
    Side,
    boundary,
    build_cobordism,
    cobordism_from_doc,
    cobordism_to_doc,
    validate_cobordism,
)
from fancob.collapse import is_pi_nonsingular
from fancob.demos import karu_counterexample, noncollapsible_example
from fancob.errors import DependentInput, InvalidFan
from fancob.exact import det, maximal_minor_gcd, primitive, rank
from fancob.fan import Fan, SimplicialCone, star_subdivide, validate_fan
from conftest import FIXTURES, random_center_sequence

# --- reference oracles: every projection-independent face of every cone -------


def oracle_independent_faces(fan: Fan) -> list[tuple]:
    faces = set()
    for cone in fan.max_cones:
        for k in range(1, cone.dim + 1):
            faces.update(itertools.combinations(cone.rays, k))
    return [f for f in sorted(faces) if rank([r[:-1] for r in f]) == len(f)]


def oracle_boundary(fan: Fan, side: Side) -> tuple[SimplicialCone, ...]:
    """The maximal independent faces whose barycenter nudged by -e (+e)
    leaves every cone."""
    step = -1 if side is Side.LOWER else 1
    direction = (0,) * (fan.ambient_dim - 1) + (step,)
    out = []
    for face in oracle_independent_faces(fan):
        b = tuple(sum(col) for col in zip(*face))
        if not any(fanmod._stays_inside(c, b, direction) for c in fan.max_cones):
            out.append(face)
    return tuple(SimplicialCone(f) for f in out if not any(set(f) < set(g) for g in out))


def oracle_pi_nonsingular(cob: Cobordism):
    for face in oracle_independent_faces(cob.fan):
        if maximal_minor_gcd([primitive(r[:-1]) for r in face]) != 1:
            return False, SimplicialCone(face)
    return True, None


def assert_matches_oracles(cob: Cobordism) -> None:
    for side, faces in ((Side.LOWER, cob.lower_faces), (Side.UPPER, cob.upper_faces)):
        expected = oracle_boundary(cob.fan, side)
        assert faces == expected, (side, cob.fan.max_cones)
        assert boundary(cob.fan, side) == expected
    assert is_pi_nonsingular(cob) == oracle_pi_nonsingular(cob), cob.fan.max_cones


# --- corpora --------------------------------------------------------------------


def _orthant(signs) -> SimplicialCone:
    d = len(signs)
    return SimplicialCone(
        tuple(tuple(s if j == i else 0 for j in range(d)) for i, s in enumerate(signs))
    )


def random_build(rng: random.Random, d: int, basis=None) -> tuple[Fan, list]:
    """A union of one to three orthants in dim d (optionally moved by an
    integer matrix) and a random center sequence; untouched orthants make
    the lifted fan impure."""
    signs = rng.sample(list(itertools.product((1, -1), repeat=d)), min(3, 2**d))
    cones = [_orthant(s) for s in signs[: rng.randint(1, len(signs))]]
    if basis is not None:
        cones = [SimplicialCone(tuple(_apply(basis, r) for r in c.rays)) for c in cones]
    fan = Fan(d, tuple(cones))
    centers, _ = random_center_sequence(rng, fan, max_steps=4)
    return fan, centers


def _apply(basis, v):
    return primitive(tuple(sum(b[i] * x for b, x in zip(basis, v)) for i in range(len(v))))


def random_basis(rng: random.Random, d: int) -> list:
    """Columns of an integer matrix of determinant +-2 or +-3."""
    while True:
        basis = [tuple(rng.randint(-2, 2) for _ in range(d)) for _ in range(d)]
        if abs(det(basis)) in (2, 3):
            return basis


def fixture_cobordisms() -> list[Cobordism]:
    out = []
    for path in sorted(FIXTURES.glob("*.cob")):
        cob, _, _ = cobordism_from_doc(json.loads(path.read_text()))
        out.append(cob)
    return out


# --- tests ----------------------------------------------------------------------


class TestFacetBoundary:
    def test_fixtures_and_demos(self):
        karu = karu_counterexample()
        corpus = fixture_cobordisms() + [
            noncollapsible_example(),
            karu.cobordism,
            Cobordism.from_fan(karu.final_fan, 3),
        ]
        assert len(corpus) == 9
        for cob in corpus:
            assert cob.upstairs.ok and cobmod._facet_boundary(cob.fan) is not None
            assert_matches_oracles(cob)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_random_builds(self, d):
        rng = random.Random(600 + d)
        impure = shared = 0
        for _ in range(40 if d < 4 else 25):
            fan, centers = random_build(rng, d)
            cob = build_cobordism(fan, centers)
            assert cobmod._facet_boundary(cob.fan) is not None
            assert_matches_oracles(cob)
            impure += len({c.dim for c in cob.fan.max_cones}) > 1
            full = [c for c in cob.fan.max_cones if c.dim == d + 1]
            shared += any(len(set(a.rays) & set(b.rays)) == d for a, b in itertools.combinations(full, 2))
        assert impure >= 5 and shared >= 10, (impure, shared)

    def test_lifted_single_cones_and_pairs(self):
        # cones not built by subdivision: any heights, Down, Mixed and
        # projection-dependent lower-dimensional cones (the enumeration path)
        rng = random.Random(611)
        local = 0
        for _ in range(150):
            d = rng.randint(2, 3)
            cones = []
            for _ in range(rng.randint(1, 2)):
                draws = (tuple(rng.randint(-2, 2) for _ in range(d + 1))
                         for _ in range(rng.randint(2, d + 1)))
                rays = {primitive(v) for v in draws if any(v[:-1])}
                try:
                    cones.append(SimplicialCone(tuple(rays)))
                except (DependentInput, ValueError):
                    continue
            if not cones:
                continue
            fan = Fan(d + 1, tuple(cones))
            if not validate_fan(fan).ok:
                continue
            cob = Cobordism.from_fan(fan, d)
            local += cobmod._facet_boundary(fan) is not None
            assert_matches_oracles(cob)
        assert local >= 50, local

    def test_invalid_upstairs_documents_take_the_enumeration(self, capsys, tmp_path):
        # the facet rule differs from the enumeration on overlapping cones,
        # so from_fan must not use it there: validate prints what the
        # enumeration gives
        rng = random.Random(612)
        differs = 0
        for i in range(60):
            cones = []
            while len(cones) < 2:
                draws = (tuple(rng.randint(-2, 2) for _ in range(3)) for _ in range(3))
                rays = tuple({primitive(v) for v in draws if any(v[:-1])})
                if len(rays) == 3 and rank(rays) == 3:
                    cones.append(SimplicialCone(rays))
            fan = Fan(3, tuple(cones))
            if validate_fan(fan).ok:
                continue
            cob = Cobordism.from_fan(fan, 2)
            assert cob.lower_faces == oracle_boundary(fan, Side.LOWER)
            assert cob.upper_faces == oracle_boundary(fan, Side.UPPER)
            local = cobmod._facet_boundary(fan)
            differs += local != (cob.lower_faces, cob.upper_faces)
            doc = cobordism_to_doc(cob)
            del doc["bottom"], doc["top"]
            path = tmp_path / f"{i}.cob"
            path.write_text(json.dumps(doc))
            outputs = []
            for argv in (["validate", str(path)], ["--json", "validate", str(path)]):
                outputs.append((main(argv), capsys.readouterr()))
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(cobmod, "boundary", oracle_boundary)
                mp.setattr(cobmod, "_facet_boundary", lambda f: pytest.fail("facet rule used"))
                for k, argv in enumerate((["validate", str(path)], ["--json", "validate", str(path)])):
                    assert (main(argv), capsys.readouterr()) == outputs[k]
        assert differs >= 5, differs


class TestStoredUpstairsReport:
    def test_validate_cobordism_reuses_it(self, karu, monkeypatch):
        checked = []
        real = fanmod.validate_fan

        def recording(fan):
            checked.append(fan)
            return real(fan)

        monkeypatch.setattr(fanmod, "validate_fan", recording)
        report = validate_cobordism(karu)
        assert karu.upstairs.ok and report.ok and karu.fan not in checked
        checked.clear()
        assert validate_cobordism(dataclasses.replace(karu, upstairs=None)) == report
        assert checked.count(karu.fan) == 1


class TestProvedBuild:
    def test_random_builds_skip_the_covering_passes(self, monkeypatch):
        # the certificate proves what the full check would find
        rng = random.Random(620)
        cases = []
        for d in (2, 3, 4):
            for _ in range(8):
                fan, centers = random_build(rng, d)
                final = fan
                for c in centers:
                    final = star_subdivide(final, c)
                cases.append((fan, centers, final))
        calls = 0
        real = fanmod.covered_by_fan

        def counting(cone, fan):
            nonlocal calls
            calls += 1
            return real(cone, fan)

        monkeypatch.setattr(fanmod, "covered_by_fan", counting)
        built = [build_cobordism(fan, centers) for fan, centers, _ in cases]
        assert calls == 0
        for cob, (fan, _, final) in zip(built, cases):
            assert validate_cobordism(cob, expected_bottom=fan, expected_top=final).ok
        assert calls > 0

    def test_invalid_input_fan_gets_the_full_report(self):
        overlap = Fan(2, (SimplicialCone(((1, 0), (0, 1))), SimplicialCone(((1, 1), (-1, 1)))))
        assert not validate_fan(overlap).ok
        with pytest.raises(InvalidFan) as exc:
            build_cobordism(overlap, [])
        lifted = Fan(3, tuple(SimplicialCone(tuple(r + (0,) for r in c.rays)) for c in overlap.max_cones))
        report = validate_cobordism(Cobordism.from_fan(lifted, 2), overlap, overlap)
        assert not report.ok
        assert str(exc.value) == f"constructed cobordism failed validation:\n{report}"


class TestMaximalFaceSmoothness:
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_non_smooth_builds(self, d):
        # base fans moved by a matrix of determinant 2 or 3 have singular
        # faces of several sizes (rays are always smooth, so in the plane
        # only pairs fail); verdict and witness match the oracle
        rng = random.Random(630 + d)
        verdicts = {True: 0, False: 0}
        sizes = set()
        for _ in range(30 if d < 4 else 20):
            fan, centers = random_build(rng, d, basis=random_basis(rng, d))
            if not validate_fan(fan).ok:
                continue
            cob = build_cobordism(fan, centers)
            expected = oracle_pi_nonsingular(cob)
            assert is_pi_nonsingular(cob) == expected, cob.fan.max_cones
            verdicts[expected[0]] += 1
            if not expected[0]:
                sizes.add(expected[1].dim)
        assert verdicts[False] >= 10 and len(sizes) >= min(2, d - 1), (verdicts, sizes)

    def test_doctored_ray_in_a_smooth_build(self):
        # scaling one base coordinate of a ray breaks smoothness of exactly
        # the faces holding it
        rng = random.Random(640)
        checked = 0
        for _ in range(40):
            fan, centers = random_build(rng, 3)
            cob = build_cobordism(fan, centers)
            ray = rng.choice(cob.fan.rays)
            bent = primitive((ray[0] + 2 * ray[1],) + ray[1:])
            if bent == ray or bent in cob.fan.rays:
                continue
            try:
                cones = tuple(SimplicialCone(tuple(bent if r == ray else r for r in c.rays))
                              for c in cob.fan.max_cones)
                doctored = Cobordism.from_fan(Fan(4, cones), 3)
            except (DependentInput, InvalidFan):
                continue
            assert is_pi_nonsingular(doctored) == oracle_pi_nonsingular(doctored)
            checked += 1
        assert checked >= 20, checked
