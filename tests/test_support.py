"""Exact support covering: differential test against the branch-and-cut DFS,
the boundary-support theorem checked with the covering test as oracle, and
a wall-clock bound on the deepest octahedral cobordism."""

from __future__ import annotations

import itertools
import json
import random
import time

from fancob import fan as fanmod
from fancob.cli import main
from fancob.cobordism import (
    Cobordism,
    _cone_problems,
    build_cobordism,
    circuit_of,
    cobordism_from_doc,
    cobordism_to_doc,
)
from fancob.collapse import extract_factorization
from fancob.demos import karu_counterexample, noncollapsible_example
from fancob.errors import DependentInput
from fancob.exact import Vec, det, dot, maximal_minor_gcd, nonneg_combination, primitive, vec_neg
from fancob.fan import (
    Fan,
    SimplicialCone,
    _cut,
    _facet_normals,
    _span_equalities,
    covered_by_fan,
    star_subdivide,
    validate_fan,
)
from conftest import FIXTURES, random_center_sequence, ring_chain

# --- reference oracle: the former library DFS, exponential in the cone count ---


def _violation_normals(cone: SimplicialCone) -> list[Vec]:
    """Normals v such that x lies outside the cone iff some <v,x> > 0."""
    out: list[Vec] = []
    for e in _span_equalities(cone):
        out.append(e)
        out.append(vec_neg(e))
    for w in _facet_normals(cone):
        out.append(vec_neg(w))
    return out


def _exists_uncovered(gens: list[Vec], cones: list[SimplicialCone], strict: list[Vec]) -> bool:
    """Is there x in cone(gens) strictly violating every chosen normal and
    lying outside every cone in `cones`?

    DFS over one strictly violated constraint per cone.  At a leaf the region
    is cone(gens) and the sum of the generators witnesses strict feasibility
    iff each strict normal is positive on some generator.  Valid for any
    cone collection, fan or not.
    """
    if not gens:
        return False
    if not cones:
        return all(any(dot(v, g) > 0 for g in gens) for v in strict)
    cone = cones[0]
    if all(nonneg_combination(cone.rays, g) is not None for g in gens):
        return False  # region is inside this cone, so nothing here escapes it
    for v in _violation_normals(cone):
        cut = _cut(gens, v)
        if not cut:
            continue
        if not any(dot(v, g) > 0 for g in cut):
            continue
        if _exists_uncovered(cut, cones[1:], strict + [v]):
            return True
    return False


def oracle_covered(cone: SimplicialCone, fan: Fan) -> bool:
    return not _exists_uncovered(list(cone.rays), list(fan.max_cones), [])


# --- random valid fans in base dims 2-4 -------------------------------------------


def _orthant(signs) -> SimplicialCone:
    d = len(signs)
    return SimplicialCone(
        tuple(tuple(s if j == i else 0 for j in range(d)) for i, s in enumerate(signs))
    )


def _subdivide(rng: random.Random, fan: Fan) -> Fan:
    cone = rng.choice(fan.max_cones)
    face = rng.sample(cone.rays, rng.randint(2, cone.dim))
    weights = [rng.randint(1, 2) for _ in face]
    center = tuple(sum(w * r[i] for w, r in zip(weights, face)) for i in range(fan.ambient_dim))
    return star_subdivide(fan, primitive(center))


def random_valid_fan(rng: random.Random, d: int) -> tuple[Fan, Fan]:
    """(whole, fan): whole is a union of orthants, star subdivided; fan is
    whole or a copy with cones dropped or replaced by a facet (impure).

    At most eight cones in dim 4: the oracle's cost grows exponentially with
    the cone count and passes a minute on some 10- and 11-cone fans there.
    """
    while True:
        orthants = rng.sample(list(itertools.product((1, -1), repeat=d)), min(5, 2**d))
        whole = Fan(d, tuple(_orthant(s) for s in orthants[: rng.randint(1, len(orthants))]))
        for _ in range(rng.randint(0, 2)):
            whole = _subdivide(rng, whole)
        if d < 4 or len(whole.max_cones) <= 8:
            break
    cones = list(whole.max_cones)
    for _ in range(rng.randint(0, 2)):
        if len(cones) < 2:
            break
        cone = cones.pop(rng.randrange(len(cones)))
        if cone.dim > 1 and rng.random() < 0.5:
            facet = SimplicialCone(tuple(rng.sample(cone.rays, cone.dim - 1)))
            trial = Fan(d, tuple(cones) + (facet,))
            if validate_fan(trial).ok:
                cones.append(facet)
    fan = Fan(d, tuple(cones))
    assert validate_fan(whole).ok and validate_fan(fan).ok
    return whole, fan


def random_queries(rng: random.Random, whole: Fan, other: Fan) -> list[SimplicialCone]:
    """Faces of the fans' cones, cones of another subdivision, and random cones."""
    d = whole.ambient_dim
    out = []
    for source in (whole, other):
        for cone in rng.sample(source.max_cones, min(3, len(source.max_cones))):
            out.append(SimplicialCone(tuple(rng.sample(cone.rays, rng.randint(1, cone.dim)))))
    out += rng.sample(other.max_cones, min(2, len(other.max_cones)))
    while len(out) < 10:
        draws = (tuple(rng.randint(-2, 2) for _ in range(d)) for _ in range(rng.randint(1, d)))
        rays = {primitive(v) for v in draws if any(v)}
        if not rays:
            continue
        try:
            out.append(SimplicialCone(tuple(rays)))
        except DependentInput:
            continue
    return out


class TestDifferentialAgainstDFS:
    def test_agrees_in_base_dims_2_to_4(self):
        rng = random.Random(2024)
        for d in (2, 3, 4):
            verdicts = {True: 0, False: 0}
            impure = 0
            for _ in range(120):
                whole, fan = random_valid_fan(rng, d)
                impure += len({c.dim for c in fan.max_cones}) > 1
                other = _subdivide(rng, whole)
                for target in (whole, fan):
                    for q in random_queries(rng, whole, other):
                        expected = oracle_covered(q, target)
                        assert covered_by_fan(q, target) == expected, (q, target.max_cones)
                        verdicts[expected] += 1
            assert min(verdicts.values()) >= 300 and impure >= 10, (d, verdicts, impure)


class TestSeparatingCertificate:
    def test_covered_by_fan_matches_double_description(self, monkeypatch):
        # the certificate skips only cones tau that could never yield a piece
        rng = random.Random(2025)
        cases = []
        for d in (2, 3, 4):
            for _ in range(60):
                whole, fan = random_valid_fan(rng, d)
                other = _subdivide(rng, whole)
                cases += [(q, target) for target in (whole, fan) for q in random_queries(rng, whole, other)]
        calls = 0
        real = fanmod._intersection_generators

        def counting(a, b):
            nonlocal calls
            calls += 1
            return real(a, b)

        monkeypatch.setattr(fanmod, "_intersection_generators", counting)
        certified = [covered_by_fan(q, target) for q, target in cases]
        with_certificate, calls = calls, 0
        monkeypatch.setattr(fanmod, "_separating_zeros", lambda a, b: iter(()))
        assert certified == [covered_by_fan(q, target) for q, target in cases]
        assert min(certified.count(True), certified.count(False)) >= 500
        assert with_certificate < calls // 2, (with_certificate, calls)


# --- equal boundary supports, proved in validate_cobordism's docstring ---------


def _random_lifted_cone(rng: random.Random, d: int) -> SimplicialCone | None:
    """A cone on 1 to d + 1 random primitive rays of Z^(d+1) without vertical
    rays, or None when the draw is dependent."""
    draws = (tuple(rng.randint(-2, 2) for _ in range(d + 1)) for _ in range(rng.randint(1, d + 1)))
    rays = {primitive(v) for v in draws if any(v[:-1])}
    if not rays:
        return None
    try:
        return SimplicialCone(tuple(rays))
    except (DependentInput, ValueError):
        return None


def _edited_build(rng: random.Random, d: int) -> Fan:
    """A seeded build over a random valid fan in base dim d, moved by
    (x, y) -> (A x, c y + <l, x>) with det A in {+-1, +-2} and c in {+-1, +-2},
    which keeps the vertical fibers, with cones dropped and cones replaced
    by a face holding their circuit: Down (c < 0), non-unimodular and
    lower-dimensional cones."""
    fan, _ = random_valid_fan(rng, d)
    centers, _ = random_center_sequence(rng, fan, max_steps=3)
    while True:
        a = [[rng.randint(-1, 1) for _ in range(d)] for _ in range(d)]
        if abs(det(a)) in (1, 2):
            break
    c, l = rng.choice((-2, -1, 1, 2)), [rng.randint(-2, 2) for _ in range(d)]

    def move(r: Vec) -> Vec:
        x = r[:-1]
        return primitive(tuple(dot(row, x) for row in a) + (c * r[-1] + dot(l, x),))

    cones = []
    for cone in build_cobordism(fan, centers).fan.max_cones:
        if rng.random() < 0.2:
            continue
        circ = circuit_of(cone)
        if circ is not None and circ.link and rng.random() < 0.5:
            cone = SimplicialCone(circ.rays + tuple(rng.sample(circ.link, rng.randrange(len(circ.link)))))
        cones.append(SimplicialCone(tuple(move(r) for r in cone.rays)))
    cones = [x for x in cones if not any(o != x and x.has_face(o) for o in cones)]
    return Fan(d + 1, tuple(cones))


class TestBoundarySupports:
    def test_covering_finds_no_gap_where_the_checks_pass(self):
        # wherever validate_cobordism's remaining checks pass, bottom and
        # top cover each other: the covering test as oracle for the proof
        rng = random.Random(140)
        lifted: list[Fan] = []
        for d in (1, 2, 3, 4):
            for _ in range(60):
                cones = (_random_lifted_cone(rng, d) for _ in range(rng.randint(1, 3)))
                lifted.append(Fan(d + 1, tuple(c for c in cones if c is not None)))
            if d > 1:
                lifted += [_edited_build(rng, d) for _ in range(25 if d < 4 else 12)]
        cobs = [Cobordism.from_fan(f) for f in lifted if f.max_cones]
        karu = karu_counterexample()
        cobs += [karu.cobordism, Cobordism.from_fan(karu.final_fan), noncollapsible_example(),
                 build_cobordism(*ring_chain(16))]
        cobs += [cobordism_from_doc(json.loads(p.read_text()))[0] for p in sorted(FIXTURES.glob("*.cob"))]
        for d in (2, 3, 4):
            for _ in range(10):
                fan, _ = random_valid_fan(rng, d)
                cobs.append(build_cobordism(fan, random_center_sequence(rng, fan)[0]))
        reached = {d: 0 for d in (1, 2, 3, 4)}
        kinds = {"impure": 0, "lower-dimensional": 0, "non-unimodular": 0}
        for cob in cobs:
            if not validate_fan(cob.fan).ok or _cone_problems(cob):
                continue
            if not (validate_fan(cob.bottom).ok and validate_fan(cob.top).ok):
                continue
            assert fanmod._first_uncovered(cob.bottom, cob.top) is None, cob.fan.max_cones
            assert fanmod._first_uncovered(cob.top, cob.bottom) is None, cob.fan.max_cones
            reached[cob.base_dim] += 1
            dims = {c.dim for c in cob.fan.max_cones}
            kinds["impure"] += len(dims) > 1
            kinds["lower-dimensional"] += any(k <= cob.base_dim for k in dims)
            kinds["non-unimodular"] += any(maximal_minor_gcd(c.rays) > 1 for c in cob.fan.max_cones)
        assert min(reached.values()) >= 30 and min(kinds.values()) >= 30, (reached, kinds)


# --- bounded time on the deepest octahedral tower ---------------------------------

EDGE_MIDPOINTS = [
    (1, 1, 0), (0, 1, 1), (1, 0, 1), (-1, -1, 0), (0, -1, -1), (-1, 0, -1),
    (1, -1, 0), (0, 1, -1), (1, 0, -1), (-1, 1, 0), (0, -1, 1), (-1, 0, 1),
]


class TestBoundedTime:
    def test_octahedral_fan_all_edge_midpoints(self, capsys, tmp_path):
        octahedral = Fan(3, tuple(_orthant(s) for s in itertools.product((1, -1), repeat=3)))
        start = time.perf_counter()
        cob = build_cobordism(octahedral, EDGE_MIDPOINTS)
        extract_factorization(cob)
        built = time.perf_counter() - start
        assert len(cob.fan.max_cones) == 24
        path = tmp_path / "octa12.cob"
        path.write_text(json.dumps(cobordism_to_doc(cob)))
        start = time.perf_counter()
        code = main(["validate", str(path)])
        validated = time.perf_counter() - start
        assert code == 0 and "result: valid" in capsys.readouterr().out
        assert built < 20 and validated < 20, (built, validated)
