"""Exact linear algebra: frozen examples plus round-trip properties."""

from __future__ import annotations

import itertools
import math
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from math import lcm, prod

import pytest

from fancob import cobordism, collapse, demos, exact, fan
from fancob.errors import (
    AssertionFailed,
    DependentInput,
    DimensionMismatch,
    NullityTooLarge,
    ZeroVector,
)
from fancob.exact import (
    det,
    dot,
    is_primitive,
    kernel_relation,
    maximal_minor_gcd,
    nonneg_combination,
    nullspace_basis,
    primitive,
    rank,
    solve_in_span,
)
from fancob.fan import SimplicialCone
from conftest import minor_gcd_oracle, random_unimodular


class TestPrimitive:
    def test_gcd_division(self):
        assert primitive((2, 4, 6)) == (1, 2, 3)

    def test_identity(self):
        assert primitive((1, 0)) == (1, 0)

    def test_midray_vector(self):
        # gcd 2; the doubled sum of (1,1,1,3) and (0,1,1,2)
        assert primitive((2, 4, 4, 10)) == (1, 2, 2, 5)

    def test_negative_entries(self):
        assert primitive((-2, 4)) == (-1, 2)

    def test_zero_vector(self):
        with pytest.raises(ZeroVector):
            primitive((0, 0, 0))

    def test_matches_the_gcd_fold(self):
        def fold(v):
            g = 0
            for x in v:
                g = math.gcd(g, x)
            return g

        rng = random.Random(41)
        vectors = [(), (0,), (0, 0, 0), (0, -3), (-4, 0, 6), (7, -7)]
        vectors += [tuple(rng.choice((0, rng.randint(-12, 12))) for _ in range(rng.randint(1, 6)))
                    for _ in range(2000)]
        assert sum(fold(v) == 0 for v in vectors) >= 10
        for v in vectors:
            g = fold(v)
            assert is_primitive(v) == (g == 1), v
            if g == 0:
                with pytest.raises(ZeroVector):
                    primitive(v)
            else:
                assert primitive(v) == tuple(x // g for x in v), v


class TestRank:
    def test_basis(self):
        assert rank([(1, 0), (0, 1)]) == 2

    def test_plane_triple(self):
        assert rank([(1, 0), (0, 1), (-1, -1)]) == 2

    def test_empty(self):
        assert rank([]) == 0

    def test_mixed_dims(self):
        with pytest.raises(DimensionMismatch):
            rank([(1, 0), (1, 0, 0)])


class TestKernelRelation:
    def test_plane_triple(self):
        # v1 + v2 + v3 = 0 holds directly for these three vectors
        vs = [(1, 0), (0, 1), (-1, -1)]
        rel = kernel_relation(vs)
        assert rel in ((1, 1, 1), (-1, -1, -1))
        assert all(sum(r * v[i] for r, v in zip(rel, vs)) == 0 for i in range(2))

    def test_three_by_four(self):
        # solved by hand: e1 + e2 - (1,1,0) = 0
        vs = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0)]
        rel = kernel_relation(vs)
        assert rel in ((1, 1, 0, -1), (-1, -1, 0, 1))

    def test_independent(self):
        assert kernel_relation([(1, 0), (0, 1)]) is None

    def test_empty(self):
        assert kernel_relation([]) is None

    def test_nullity_two(self):
        with pytest.raises(NullityTooLarge):
            kernel_relation([(1, 0), (2, 0), (0, 1), (0, 2)])

    def test_round_trip_reconstruction(self):
        # kernel of (independent set + combination) recovers the combination
        rng = random.Random(1)
        for _ in range(120):
            d = rng.randint(2, 5)
            k = rng.randint(1, d)
            while True:
                vs = [tuple(rng.randint(-5, 5) for _ in range(d)) for _ in range(k)]
                if rank(vs) == k:
                    break
            coeffs = [rng.randint(-4, 4) for _ in range(k)]
            v = tuple(sum(c * w[i] for c, w in zip(coeffs, vs)) for i in range(d))
            rel = kernel_relation(vs + [v])
            if all(c == 0 for c in coeffs):
                # v = 0 makes the extended set have a relation supported on v alone
                assert rel is not None and rel[-1] != 0
                assert all(r == 0 for r in rel[:-1])
                continue
            assert rel is not None and rel[-1] != 0
            recovered = [Fraction(-r, rel[-1]) for r in rel[:-1]]
            assert recovered == [Fraction(c) for c in coeffs]

    def test_deterministic(self):
        vs = [(3, 1, 4), (1, 5, 9), (2, 6, 5), (3, 5, 8)]
        assert kernel_relation(vs) == kernel_relation(list(vs))


class TestMaximalMinorGcd:
    def test_identity(self):
        assert maximal_minor_gcd([(1, 0), (0, 1)]) == 1

    def test_index_two(self):
        # single 2x2 determinant
        assert maximal_minor_gcd([(1, 0), (1, 2)]) == 2

    def test_rectangular(self):
        # minors are 0, 1, 1
        assert maximal_minor_gcd([(1, 1, 0), (0, 0, 1)]) == 1

    def test_dependent_input(self):
        with pytest.raises(DependentInput):
            maximal_minor_gcd([(1, 0), (2, 0)])

    def test_mixed_dimensions(self):
        with pytest.raises(DimensionMismatch):
            maximal_minor_gcd([(1, 0), (1, 0, 0)])

    def test_prefixes_match_the_minor_loop(self):
        # every prefix of seeded inputs in dims 1-6, against one determinant
        # per choice of columns; dependent inputs and k > d included
        rng = random.Random(13)
        seen = set()
        for _ in range(1500):
            d = rng.randint(1, 6)
            vs = [tuple(r) for r in _random_matrix(rng, rng.randint(1, d + 1), d)]
            if rng.random() < 0.3:  # an index of at least 2
                i = rng.randrange(len(vs))
                vs[i] = tuple(2 * x for x in vs[i])
            expected = [minor_gcd_oracle(vs[:j]) for j in range(len(vs) + 1)]
            for j, g in enumerate(expected):
                assert _outcome(maximal_minor_gcd, vs[:j]) == (g or DependentInput), vs[:j]
            if expected[-1]:
                assert exact._minor_gcd_prefixes(vs) == expected[1:], vs
            else:
                with pytest.raises(DependentInput):
                    exact._minor_gcd_prefixes(vs)
            g = expected[-1]
            seen.add("k > d" if len(vs) > d else "dependent" if not g else g == 1)
        assert seen == {"k > d", "dependent", True, False}

    def test_wide_nonsmooth_input_decides_fast(self):
        # 10 vectors in dim 20 with index 2^10: the minor loop would run all
        # C(20, 10) = 184,756 determinants.  The rows are 2 [I | R] under
        # unimodular column operations, which keep every minor gcd.
        rng = random.Random(14)
        rows = [[2 * int(i == j) for j in range(10)] + [2 * rng.randint(-9, 9) for _ in range(10)]
                for i in range(10)]
        for _ in range(40):
            a, b = rng.sample(range(20), 2)
            c = rng.randint(-3, 3)
            for row in rows:
                row[a] += c * row[b]
        t0 = time.perf_counter()
        assert exact._minor_gcd_prefixes(rows) == [2**j for j in range(1, 11)]
        assert maximal_minor_gcd(rows) == 2**10
        assert time.perf_counter() - t0 < 1.0

    def test_permutation_invariance(self):
        rng = random.Random(2)
        for _ in range(60):
            d = rng.randint(2, 4)
            k = rng.randint(1, d)
            while True:
                vs = [tuple(rng.randint(-4, 4) for _ in range(d)) for _ in range(k)]
                if all(any(v) for v in vs) and rank(vs) == k:
                    break
            g = maximal_minor_gcd(vs)
            shuffled = vs[:]
            rng.shuffle(shuffled)
            assert maximal_minor_gcd(shuffled) == g

    def test_unimodular_invariance(self):
        rng = random.Random(3)
        for _ in range(40):
            k = rng.randint(1, 3)
            while True:
                vs = [tuple(rng.randint(-4, 4) for _ in range(3)) for _ in range(k)]
                if all(any(v) for v in vs) and rank(vs) == k:
                    break
            g = maximal_minor_gcd(vs)
            u = random_unimodular(rng)
            mapped = [tuple(sum(row[j] * v[j] for j in range(3)) for row in u) for v in vs]
            assert maximal_minor_gcd(mapped) == g


class TestNonnegCombination:
    def test_orthant(self):
        assert nonneg_combination([(1, 0), (0, 1)], (3, 5)) == (3, 5)

    def test_negative_coefficient(self):
        assert nonneg_combination([(1, 0), (0, 1)], (-1, 0)) is None

    def test_two_unknowns(self):
        assert nonneg_combination([(1, 1, 0), (0, 0, 1)], (2, 2, 1)) == (2, 1)

    def test_outside_span(self):
        assert nonneg_combination([(1, 1, 0)], (1, 0, 0)) is None

    def test_dim_mismatch(self):
        with pytest.raises(DimensionMismatch):
            nonneg_combination([(1, 0)], (1, 0, 0))

    def test_round_trip(self):
        rng = random.Random(4)
        for _ in range(100):
            d = rng.randint(2, 5)
            k = rng.randint(1, d)
            while True:
                rays = [tuple(rng.randint(-4, 4) for _ in range(d)) for _ in range(k)]
                if all(any(r) for r in rays) and rank(rays) == k:
                    break
            lam = [Fraction(rng.randint(0, 9), rng.randint(1, 9)) for _ in range(k)]
            p = tuple(sum(l * r[i] for l, r in zip(lam, rays)) for i in range(d))
            assert nonneg_combination(rays, p) == tuple(lam)


def test_det_examples():
    assert det([[1, 0], [0, 1]]) == 1
    assert det([[2, 1], [1, 1]]) == 1
    assert det([[1, 2], [2, 4]]) == 0
    assert det([]) == 1
    assert det([[0, 1, 0], [1, 0, 0], [0, 0, 1]]) == -1


# --- differential test against a Fraction reference -------------------------


def _rref(rows):
    """Reference: reduced row echelon form over Fraction, plus pivot columns."""
    a = [[Fraction(x) for x in r] for r in rows]
    piv = []
    for c in range(len(a[0]) if a else 0):
        r = len(piv)
        p = next((i for i in range(r, len(a)) if a[i][c] != 0), None)
        if p is None:
            continue
        a[r], a[p] = a[p], a[r]
        a[r] = [x / a[r][c] for x in a[r]]
        for i in range(len(a)):
            f = a[i][c]
            if i != r and f != 0:
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        piv.append(c)
    return a, piv


def _ref_nullspace(rows, n):
    red, piv = _rref(rows)
    basis = []
    for f in (c for c in range(n) if c not in piv):
        x = [Fraction(0)] * n
        x[f] = Fraction(1)
        for k, c in enumerate(piv):
            x[c] = -red[k][f]
        den = lcm(*(v.denominator for v in x))
        basis.append(primitive([int(v * den) for v in x]))
    return basis


def _ref_kernel_relation(vs):
    basis = _ref_nullspace([[v[i] for v in vs] for i in range(len(vs[0]))], len(vs))
    if len(basis) > 1:
        raise NullityTooLarge
    if not basis:
        return None
    rel = basis[0]
    return rel if next(x for x in rel if x) > 0 else tuple(-x for x in rel)


def _ref_det(m):
    n = len(m)
    total = 0
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i, j in itertools.combinations(range(n), 2))
        total += (-1) ** inversions * prod(m[i][perm[i]] for i in range(n))
    return total


def _ref_solve(vectors, target):
    k = len(vectors)
    red, piv = _rref([[v[i] for v in vectors] + [target[i]] for i in range(len(target))])
    if piv[:k] != list(range(k)):
        raise DependentInput
    if k in piv:
        return None
    return tuple(red[i][k] for i in range(k))


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (DependentInput, NullityTooLarge) as exc:
        return type(exc)


def _random_matrix(rng, rows, cols):
    """Entries up to +-40; about a third of the matrices get a row that is a
    combination of earlier rows, and some entries are forced to zero."""
    m = [[rng.randint(-40, 40) if rng.random() < 0.8 else 0 for _ in range(cols)]
         for _ in range(rows)]
    if rows > 1 and rng.random() < 0.35:
        a, b = rng.randint(-3, 3), rng.randint(-3, 3)
        m[-1] = [a * x + b * y for x, y in zip(m[0], m[-2])]
    return m


def test_kernel_matches_fraction_reference():
    rng = random.Random(11)
    seen = set()
    for _ in range(1500):
        rows, cols = rng.randint(1, 5), rng.randint(1, 6)
        m = _random_matrix(rng, rows, cols)
        _, piv = _rref(m)
        assert rank(m) == len(piv)
        assert nullspace_basis(m, cols) == _ref_nullspace(m, cols)
        vs = [tuple(r) for r in m]
        relation = _outcome(kernel_relation, vs)
        assert relation == _outcome(_ref_kernel_relation, vs)
        seen.add(relation if relation in (None, NullityTooLarge) else "relation")
        if cols >= rows:
            square = [r[:rows] for r in m]
            value = det(square)
            assert value == _ref_det(square)
            seen.add("det" if value else "singular")
        # a target in the span of the first columns, one almost surely off
        # it, both with Fraction entries
        columns = [tuple(r[j] for r in m) for j in range(min(cols, rows + 1))]
        coeffs = [Fraction(rng.randint(-9, 9), rng.randint(1, 7)) for _ in columns]
        inside = tuple(sum(c * v[i] for c, v in zip(coeffs, columns)) for i in range(rows))
        other = tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(rows))
        for target in (inside, other):
            coords = _outcome(solve_in_span, columns, target)
            assert coords == _outcome(_ref_solve, columns, target)
            seen.add(coords if coords in (None, DependentInput) else "coords")
    assert seen == {
        None, NullityTooLarge, DependentInput, "relation", "det", "singular", "coords",
    }


def test_cone_geometry_on_random_simplicial_cones():
    rng = random.Random(12)
    seen = 0
    while seen < 400:
        d = rng.randint(2, 5)
        k = rng.randint(1, d)
        raw = [tuple(rng.randint(-6, 6) for _ in range(d)) for _ in range(k)]
        rays = {primitive(r) for r in raw if any(r)}
        if len(rays) != k or rank(list(rays)) != k:
            continue
        cone = SimplicialCone(tuple(rays))
        seen += 1
        eqs = fan._span_equalities(cone)
        assert len(eqs) == d - k and (not eqs or rank(eqs) == d - k)
        for y in eqs:
            assert is_primitive(y) and all(dot(y, v) == 0 for v in cone.rays)
        normals = fan._facet_normals(cone)
        assert len(normals) == k
        for i, w in enumerate(normals):
            assert is_primitive(w)
            assert all(dot(y, w) == 0 for y in eqs)  # w lies in span(cone)
            assert dot(w, cone.rays[i]) > 0
            assert all(dot(w, v) == 0 for j, v in enumerate(cone.rays) if j != i)


class TestInvariantChecks:
    """The library's own certificates raise AssertionFailed, also under -O."""

    def test_kernel_relation_self_check(self, monkeypatch):
        monkeypatch.setattr(exact, "nullspace_basis", lambda rows, n: [(1,) + (0,) * (n - 1)])
        with pytest.raises(AssertionFailed):
            kernel_relation([(1, 0), (0, 1), (1, 1)])

    def test_facet_normal_pairing_check(self, monkeypatch):
        cone = SimplicialCone(((1, 0, 0), (0, 1, 0)))
        caches = (fan._cone_solver, fan._facet_normals)
        for cache in caches:
            cache.cache_clear()
        monkeypatch.setattr(fan, "_scaled_inverse", lambda m: ([[1] * len(m)] * len(m), 1))
        try:
            with pytest.raises(AssertionFailed):
                fan._facet_normals(cone)
        finally:
            for cache in caches:
                cache.cache_clear()

    def test_height_pairing_check(self, monkeypatch):
        # the real dual rows ((0, 1, -1), (1, 0, -1), (0, 0, 1)) give e = v3 - v1 - v2
        cone = SimplicialCone(((0, 1, 0), (1, 0, 0), (1, 1, 1)))
        assert fan._cone_solver(cone) == ((0, 1, -1), (1, 0, -1), (0, 0, 1))
        for rows, relation, image in (
            # pairs to -1 with the heights
            (((0, 1, 1), (1, 0, 1), (2, 0, -1)), (1, 1, -1), [0, 0, -1]),
            # projects to (0, 2), not 0
            (((0, 1, 1), (1, 0, -1), (0, 0, 1)), (1, -1, 1), [0, 2, 1]),
        ):
            monkeypatch.setattr(fan, "_cone_solver", lambda c: rows)
            with pytest.raises(AssertionFailed) as failed:
                cobordism.circuit_of(cone)
            assert str(failed.value) == f"relation {relation} maps the rays of {cone} to {image}, not to e"

    def test_circuit_sign_partition_check(self):
        # the stored circuits of two cones carry one key with different signs
        key = ((0, 1, 0), (1, 0, 0), (1, 1, 1))
        lifted = fan.Fan(3, (SimplicialCone(key[:2]), SimplicialCone(key[1:])))
        circuits = (
            cobordism.Circuit(rays=key, relation=(1, 1, -1), pos=key[:2], neg=key[2:], link=()),
            cobordism.Circuit(rays=key, relation=(1, 1, -1), pos=key[:1], neg=key[1:], link=()),
        )
        cob = cobordism.Cobordism(2, lifted, (), (), lifted, lifted, circuits)
        with pytest.raises(AssertionFailed) as failed:
            collapse.circuit_graph(cob)
        assert str(failed.value).startswith(f"circuit {key} splits differently in {lifted.max_cones[1]}")

    def test_schedule_center_check(self, monkeypatch, karu):
        monkeypatch.setattr(fan, "_positive_rays", lambda cone, p: None)
        with pytest.raises(AssertionFailed):
            demos.positive_link_centers(karu)

    def test_checks_survive_optimize_flag(self):
        here = os.path.dirname(os.path.abspath(__file__))
        src = os.path.dirname(os.path.dirname(os.path.abspath(fan.__file__)))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run(
            [sys.executable, "-O", "-m", "pytest", "-q", "-p", "no:cacheprovider",
             f"{__file__}::TestInvariantChecks", "-k", "not optimize_flag"],
            cwd=os.path.dirname(here), env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
