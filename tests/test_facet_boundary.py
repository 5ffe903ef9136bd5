"""The circuit reading, the boundary rule, the proved build_cobordism and
the maximal-face smoothness test: differential tests against the
kernel_relation circuit and the all-faces enumerations they replace, kept
here as oracles."""

from __future__ import annotations

import itertools
import json
import math
import operator
import random

import pytest

from fancob import cobordism
from fancob import fan as fanmod
from fancob.cli import main
from fancob.cobordism import (
    Circuit,
    Cobordism,
    Side,
    boundary,
    build_cobordism,
    circuit_of,
    cobordism_from_doc,
    cobordism_to_doc,
    validate_cobordism,
)
from fancob.collapse import extract_factorization, is_pi_nonsingular
from fancob.demos import karu_counterexample, noncollapsible_example
from fancob.errors import AssertionFailed, DegenerateHeights, DependentInput, InvalidFan
from fancob.exact import det, kernel_relation, maximal_minor_gcd, primitive, rank, solve_in_span
from fancob.fan import Fan, SimplicialCone, star_subdivide, validate_fan
from conftest import FIXTURES, KARU_CENTERS, orthant_fan, random_center_sequence

# --- reference oracles ------------------------------------------------------------


def oracle_circuit_of(cone: SimplicialCone) -> Circuit | None:
    """The circuit by a kernel_relation elimination on the projected rays."""
    rel = kernel_relation([r[:-1] for r in cone.rays])
    if rel is None:
        return None
    support = [(ray, c) for ray, c in zip(cone.rays, rel) if c != 0]
    if sum(c * ray[-1] for ray, c in support) < 0:
        support = [(ray, -c) for ray, c in support]
    support.sort()
    rays = tuple(r for r, _ in support)
    return Circuit(
        rays=rays,
        relation=tuple(c for _, c in support),
        pos=tuple(r for r, c in support if c > 0),
        neg=tuple(r for r, c in support if c < 0),
        link=tuple(r for r in cone.rays if r not in rays),
    )


# every projection-independent face of every cone


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


def random_lift_case(rng: random.Random, d: int) -> dict:
    """A build for the lift-by-construction tests: a fan of coordinate cones
    of mixed dimensions (signed unit vectors on distinct axes; any such set
    without nested cones is a valid fan, often an impure one), moved by a
    matrix of determinant +-2 or +-3 in about half the cases; up to four
    centers, each a primitive positive combination of a face's rays with
    coefficients 1..3; each height the least integer above the running
    graph sheet at the center, or one above the last height if that is
    larger.  Besides the inputs, records the subdivided fan, the graph
    height at each center and whether the center is a face barycenter."""
    basis = random_basis(rng, d) if rng.random() < 0.5 else None
    cones = set()
    for _ in range(rng.randint(1, 4)):
        axes = rng.sample(range(d), rng.randint(2, d))
        cones.add(frozenset((i, rng.choice((1, -1))) for i in axes))
    rays = []
    for cone in cones:
        if not any(cone < other for other in cones):
            units = [tuple(s if j == i else 0 for j in range(d)) for i, s in cone]
            rays.append(tuple(_apply(basis, u) if basis else u for u in units))
    fan = current = Fan(d, tuple(SimplicialCone(r) for r in rays))
    height = {r: 0 for r in fan.rays}
    centers, heights, sheets, barycentric = [], [], [], []
    for _ in range(rng.randint(1, 4)):
        cone = rng.choice(current.max_cones)
        face = rng.sample(cone.rays, rng.randint(2, cone.dim))
        coef = [rng.randint(1, 3) for _ in face]
        center = primitive(tuple(sum(map(operator.mul, coef, col)) for col in zip(*face)))
        if center in height:
            continue
        tau = fanmod.minimal_containing_cone(current, center).rays
        sheet = sum(l * height[r] for l, r in zip(solve_in_span(tau, center), tau))
        h = max(math.floor(sheet) + 1, heights[-1] + 1 if heights else 1)
        barycentric.append(center == primitive(tuple(map(sum, zip(*face)))))
        centers.append(center)
        heights.append(h)
        sheets.append(sheet)
        height[center] = h
        current = star_subdivide(current, center)
    return dict(fan=fan, centers=centers, heights=heights, final=current,
                sheets=sheets, barycentric=barycentric)


def oracle_lifted_fan(delta: Fan, centers, heights) -> Fan:
    """The lifted fan build_cobordism records, rebuilt step by step with
    the public, fully checked constructors."""
    current, height, lifted = delta, {r: 0 for r in delta.rays}, []
    for c, h in zip(centers, heights):
        tau = set(fanmod.minimal_containing_cone(current, c).rays)
        lifted += [SimplicialCone(tuple(r + (height[r],) for r in s.rays) + (c + (h,),))
                   for s in current.max_cones if tau <= set(s.rays)]
        current = star_subdivide(current, c)
        height[c] = h
    lifted += [SimplicialCone(tuple(r + (0,) for r in s.rays))
               for s in current.max_cones if s in delta.max_cones]
    return Fan(delta.ambient_dim + 1, tuple(lifted))


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
            assert validate_fan(cob.fan).ok
            assert_matches_oracles(cob)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_random_builds(self, d):
        rng = random.Random(600 + d)
        impure = shared = 0
        for _ in range(40 if d < 4 else 25):
            fan, centers = random_build(rng, d)
            cob = build_cobordism(fan, centers)
            assert_matches_oracles(cob)
            impure += len({c.dim for c in cob.fan.max_cones}) > 1
            full = [c for c in cob.fan.max_cones if c.dim == d + 1]
            shared += any(len(set(a.rays) & set(b.rays)) == d for a, b in itertools.combinations(full, 2))
        assert impure >= 5 and shared >= 10, (impure, shared)

    def test_lifted_single_cones_and_pairs(self):
        # cones not built by subdivision: any heights, Down, Mixed and
        # projection-dependent lower-dimensional cones
        rng = random.Random(611)
        checked = 0
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
            assert_matches_oracles(cob)
            checked += 1
        assert checked >= 50, checked

    def test_lower_dimensional_cones_holding_a_circuit(self):
        # builds with some maximal cones replaced by a face holding their
        # circuit and some link rays, and the cones holding such a face
        # dropped: lower-dimensional, projection-dependent cones next to
        # higher-dimensional ones, where a face can lie in a larger cone
        # without being one of its facets (plane builds have empty links,
        # so they stay as built)
        checked = mixed = 0
        for d, builds in ((2, 30), (3, 150), (4, 120)):
            rng = random.Random(650 + d)
            for _ in range(builds):
                fan, centers = random_build(rng, d)
                cones = []
                for cone in build_cobordism(fan, centers).fan.max_cones:
                    circ = circuit_of(cone)
                    if circ is not None and circ.link and rng.random() < 0.6:
                        link = rng.sample(circ.link, rng.randrange(len(circ.link)))
                        cone = SimplicialCone(circ.rays + tuple(link))
                    cones.append(cone)
                cones = [c for c in cones if not any(o != c and c.has_face(o) for o in cones)]
                lifted = Fan(d + 1, tuple(cones))
                if not validate_fan(lifted).ok:
                    continue
                assert_matches_oracles(Cobordism.from_fan(lifted, d))
                checked += 1
                mixed += any(
                    circuit_of(a) is not None and b.dim > a.dim and set(a.rays) & set(b.rays)
                    for a in cones for b in cones
                )
        assert checked >= 250 and mixed >= 100, (checked, mixed)

    def test_invalid_upstairs_documents(self, capsys, tmp_path, monkeypatch):
        # the boundary rule runs on overlapping cones too: validate exits 1
        # with the upstairs problems of validate_fan, and no face is ever
        # tested with a first-order nudge
        monkeypatch.setattr(fanmod, "_stays_inside", lambda *a: pytest.fail("nudge test"))
        rng = random.Random(612)
        invalid = 0
        for i in range(60):
            cones = []
            while len(cones) < 2:
                draws = (tuple(rng.randint(-2, 2) for _ in range(3)) for _ in range(3))
                rays = tuple({primitive(v) for v in draws if any(v[:-1])})
                if len(rays) == 3 and rank(rays) == 3:
                    cones.append(SimplicialCone(rays))
            fan = Fan(3, tuple(cones))
            report = validate_fan(fan)
            if report.ok:
                continue
            invalid += 1
            doc = cobordism_to_doc(Cobordism.from_fan(fan, 2))
            del doc["bottom"], doc["top"]
            path = tmp_path / f"{i}.cob"
            path.write_text(json.dumps(doc))
            upstairs = [f"upstairs: {p}" for p in report.problems]
            assert main(["validate", str(path)]) == 1
            lines = capsys.readouterr().out.splitlines()
            assert [x[len("problem: "):] for x in lines if x.startswith("problem: upstairs: ")] == upstairs
            assert main(["--json", "validate", str(path)]) == 1
            problems = json.loads(capsys.readouterr().out)["problems"]
            assert [p for p in problems if p.startswith("upstairs: ")] == upstairs
        assert invalid >= 20, invalid


def random_lifted_cone(rng: random.Random, d: int, k: int, dependent: bool) -> SimplicialCone:
    """A cone on k independent primitive rays in Z^(d+1); with dependent, its
    last ray is a combination of the others plus a multiple of e, so e lies
    in its span (always so when k = d + 1)."""
    while True:
        rays = [tuple(rng.randint(-3, 3) for _ in range(d + 1)) for _ in range(k)]
        if dependent and k <= d:
            mix = [rng.randint(-2, 2) for _ in range(k - 1)]
            rays[-1] = tuple(sum(m * r[i] for m, r in zip(mix, rays)) for i in range(d + 1))
            rays[-1] = rays[-1][:-1] + (rays[-1][-1] + rng.choice((-2, -1, 1, 2)),)
        if any(not any(r) for r in rays) or rank(rays) != k:
            continue
        return SimplicialCone(tuple(primitive(r) for r in rays))


class TestCircuitReading:
    def test_matches_kernel_relation_oracle(self):
        rng = random.Random(660)
        kinds = {"full": 0, "lower dependent": 0, "lower independent": 0, "degenerate": 0}
        dims = {d: 0 for d in (1, 2, 3, 4)}
        for _ in range(1200):
            d = rng.randint(1, 4)
            k = rng.randint(1, d + 1)
            cone = random_lifted_cone(rng, d, k, dependent=rng.random() < 0.6)
            circ = circuit_of(cone)
            assert circ == oracle_circuit_of(cone), cone
            dims[d] += 1
            if k == d + 1:
                kinds["full"] += 1
            else:
                kinds["lower dependent" if circ else "lower independent"] += 1
            kinds["degenerate"] += bool(circ and not (circ.pos and circ.neg))
        assert min(kinds.values()) >= 100 and min(dims.values()) >= 200, (kinds, dims)

    def test_built_cones(self):
        # every maximal cone of the fixtures, the demos and seeded builds
        karu = karu_counterexample()
        cobs = fixture_cobordisms() + [noncollapsible_example(), karu.cobordism]
        rng = random.Random(661)
        cobs += [build_cobordism(*random_build(rng, d)) for d in (2, 3, 4) for _ in range(30)]
        cones = [c for cob in cobs for c in cob.fan.max_cones]
        assert len(cones) >= 250, len(cones)
        for cone in cones:
            assert circuit_of(cone) == oracle_circuit_of(cone), cone


@pytest.fixture
def validate_fan_calls(monkeypatch) -> list[Fan]:
    """The fans passed to fan.validate_fan from here on, in call order."""
    checked = []
    real = fanmod.validate_fan

    def recording(fan):
        checked.append(fan)
        return real(fan)

    monkeypatch.setattr(fanmod, "validate_fan", recording)
    return checked


class TestUpstairsValidation:
    def test_from_fan_makes_no_validate_fan_call(self, karu, validate_fan_calls):
        assert Cobordism.from_fan(karu.fan, 3) == karu
        for path in sorted(FIXTURES.glob("*.cob")):
            cobordism_from_doc(json.loads(path.read_text()))
        assert validate_fan_calls == []

    def test_validate_cobordism_validates_upstairs_once(self, karu, validate_fan_calls):
        assert validate_cobordism(karu).ok
        assert validate_fan_calls == [karu.fan, karu.bottom, karu.top]
        overlap = Fan(4, (
            SimplicialCone(((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (1, 1, 1, 1))),
            SimplicialCone(((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (1, 1, 1, 2))),
        ))
        validate_fan_calls.clear()
        assert not validate_cobordism(Cobordism.from_fan(overlap, 3)).ok
        assert validate_fan_calls == [overlap]

    def test_build_validates_the_input_fan_only(self, validate_fan_calls):
        # the lifted fan is valid by construction (build_cobordism's proof)
        build_cobordism(orthant_fan(), KARU_CENTERS)
        assert validate_fan_calls == [orthant_fan()]


class TestProvedBuild:
    def test_random_builds_skip_the_covering_passes(self, monkeypatch):
        # the proof stands in for the full check's covering passes
        rng = random.Random(620)
        cases = [random_build(rng, d) for d in (2, 3, 4) for _ in range(8)]
        monkeypatch.setattr(fanmod, "covered_by_fan", lambda *a: pytest.fail("covering pass"))
        for fan, centers in cases:
            build_cobordism(fan, centers)

    def test_invalid_input_fan_gets_the_full_report(self, monkeypatch):
        # refused with validate_fan's report before any center is located,
        # also a center outside the support
        monkeypatch.setattr(fanmod, "_locate", lambda *a: pytest.fail("center located"))
        overlap = Fan(2, (SimplicialCone(((1, 0), (0, 1))), SimplicialCone(((1, 1), (-1, 1)))))
        wedge = Fan(3, (SimplicialCone(((1, 0, 0), (0, 1, 0), (0, 0, 1))),
                        SimplicialCone(((1, 1, 0), (-1, 1, 0), (0, 0, 1)))))
        cases = [(overlap, []), (overlap, [(1, 2)]), (overlap, [(0, -1)])]
        cases += [(wedge, c) for c in ([], [(1, 2, 1)], [(0, 1, 1), (1, 3, 2)], [(0, 0, -1)],
                                       [(-1, 2, 1), (0, -1, 0)])]
        for delta, centers in cases:
            report = validate_fan(delta)
            assert not report.ok
            with pytest.raises(InvalidFan) as exc:
                build_cobordism(delta, centers)
            assert str(exc.value) == "input fan is invalid:\n" + str(report)

    def test_broken_construction_raises_under_O(self, monkeypatch):
        # the closing conditions are checked by if, not assert, so this
        # holds under python -O too: a forged single-cone problem, and
        # boundary projections forged empty, so bottom and top differ
        for name, forged in (("_cone_problems", lambda cob: ["forged problem"]),
                             ("_projected_fan", lambda faces, d: Fan(d, ()))):
            with monkeypatch.context() as patch:
                patch.setattr(cobordism, name, forged)
                with pytest.raises(AssertionFailed) as exc:
                    build_cobordism(orthant_fan(), KARU_CENTERS)
            assert str(exc.value) == "constructed cobordism breaks a proved invariant"


class TestLiftByConstruction:
    """build_cobordism runs no validate_fan on the lifted fan, which its
    docstring proves valid.  Differential check of that proof, and of the
    unchecked SimplicialCone._face on every cone built, against the full
    checks."""

    @pytest.fixture(scope="class")
    def corpus(self) -> list[dict]:
        rng = random.Random(670)
        return [random_lift_case(rng, d) for d in (2, 3, 4) for _ in range(110)]

    def test_corpus_reaches_the_hard_cases(self, corpus):
        impure = sum(len({c.dim for c in case["fan"].max_cones}) > 1 for case in corpus)
        lattice = sum(any(maximal_minor_gcd(c.rays) > 1 for c in case["fan"].max_cones)
                      for case in corpus)
        steps = [(s, h, b) for case in corpus
                 for s, h, b in zip(case["sheets"], case["heights"], case["barycentric"])]
        tight = sum(s > 0 and h == math.floor(s) + 1 for s, h, _ in steps)
        off_center = sum(not b for _, _, b in steps)
        assert len(corpus) >= 300
        assert min(impure, lattice, tight, off_center) >= 60, (impure, lattice, tight, off_center)

    def test_builds_pass_the_full_checks(self, corpus, monkeypatch):
        built = []
        real = SimplicialCone._face.__func__

        def recording(cls, rays):
            cone = real(cls, rays)
            built.append((rays, cone))
            return cone

        monkeypatch.setattr(SimplicialCone, "_face", classmethod(recording))
        for case in corpus:
            fan, centers, heights = case["fan"], case["centers"], case["heights"]
            cob = build_cobordism(fan, centers, heights)
            assert cob.fan == oracle_lifted_fan(fan, centers, heights)
            assert validate_fan(cob.fan).ok, (fan, centers, heights)
            assert validate_cobordism(cob, fan, case["final"]).ok, (fan, centers, heights)
            steps = extract_factorization(cob)
            assert [s.center for s in steps] == centers
        assert len(built) >= 5000, len(built)
        for rays, cone in built:
            full = SimplicialCone(rays)
            assert cone == full and hash(cone) == hash(full), rays

    def test_heights_on_the_graph_sheet_are_refused(self, corpus):
        # heights on or below the sheet are refused, and the message prints
        # the sheet height as the Fraction sum of the oracle's coordinates
        refused = fractional = 0
        for case in corpus:
            for t, sheet in enumerate(case["sheets"]):
                last = case["heights"][t - 1] if t else 0
                h = math.floor(sheet)
                if h <= last:
                    continue
                with pytest.raises(DegenerateHeights) as exc:
                    build_cobordism(case["fan"], case["centers"][: t + 1],
                                    case["heights"][:t] + [h])
                assert str(exc.value) == (
                    f"center {case['centers'][t]} lifts to height {h}, but the recorded fan "
                    f"sheet already sits at {sheet} there; choose strictly larger heights"
                )
                refused += 1
                fractional += sheet != h
        assert refused >= 60 and fractional >= 1, (refused, fractional)


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
