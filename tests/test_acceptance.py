"""Acceptance suite: one test per criterion, every check exact, zero tolerance.

Each test prints one PASS line (visible with -s) and asserts its own runtime
budget.  Expected values that are not direct statements of the construction
were computed by independent means first (hand relations, cofactor-expansion
determinants, box-search completions) and frozen here.
"""

from __future__ import annotations

import itertools
import random
import time
from math import gcd

from fancob.cobordism import (
    Cobordism,
    ConeClass,
    build_cobordism,
    circuit_of,
    classify,
    validate_cobordism,
)
from fancob.collapse import (
    StepKind,
    circuit_graph,
    extract_factorization,
    is_collapsible,
    is_pi_nonsingular,
)
from fancob.demos import (
    karu_counterexample,
    noncollapsible_example,
    positive_link_centers,
    projective_plane_fan,
    run_schedule,
)
from fancob.errors import NotCollapsible
from fancob.exact import maximal_minor_gcd, primitive
from fancob.fan import Fan, SimplicialCone, validate_fan
from conftest import (
    KARU_CENTERS,
    orthant_fan,
    random_center_sequence,
    random_smooth_fan,
    random_unimodular,
)


def _report(n: int, label: str, started: float, budget: float) -> None:
    elapsed = time.perf_counter() - started
    assert elapsed < budget, f"criterion {n} took {elapsed:.2f}s, budget {budget}s"
    print(f"PASS criterion {n}: {label} ({elapsed:.2f}s < {budget}s)")


def test_criterion_1_initial_census():
    t0 = time.perf_counter()
    cob = build_cobordism(orthant_fan(), KARU_CENTERS)
    assert len(cob.fan.max_cones) == 4
    for cone in cob.fan.max_cones:
        assert classify(cone) is ConeClass.UP
        circ = circuit_of(cone)
        assert len(circ.pos) == 1 and len(circ.link) == 1
    _report(1, "three-step cobordism: 4 maximal cones, all Up, |POS|=|LNK|=1", t0, 1.0)


def test_criterion_2_failure_detection():
    t0 = time.perf_counter()
    cob = build_cobordism(orthant_fan(), KARU_CENTERS)
    schedule = [e.center for e in positive_link_centers(cob)]
    assert schedule == [(2, 1, 1, 3), (1, 2, 2, 5), (1, 2, 1, 3), (1, 1, 1, 1)]

    intermediate = run_schedule(cob.fan, schedule[:2])
    found = False
    for cone in intermediate.max_cones:
        if classify(cone) is not ConeClass.UP:
            continue
        circ = circuit_of(cone)
        if len(circ.neg) == 3 and {primitive(r[:-1]) for r in circ.neg} == {
            (1, 1, 0),
            (0, 1, 1),
            (0, 0, 1),
        }:
            found = True
    assert found, "expected the three-negative Up cone after the two midray steps"

    final = run_schedule(intermediate, schedule[2:])
    mixed = SimplicialCone(((1, 2, 2, 5), (1, 1, 0, 1), (1, 2, 1, 3), (1, 1, 1, 1)))
    assert mixed in final.max_cones
    assert classify(mixed) is ConeClass.MIXED
    circ = circuit_of(mixed)
    assert len(circ.pos) == 2 and len(circ.neg) == 2
    _report(2, "midray schedule produces the 2+2 Mixed cone", t0, 1.0)


def test_criterion_3_noncollapsible_bundle():
    t0 = time.perf_counter()
    cob = noncollapsible_example()
    p2 = projective_plane_fan()
    assert validate_cobordism(cob, expected_bottom=p2, expected_top=p2).ok
    assert is_pi_nonsingular(cob)[0]
    ok, cycle = is_collapsible(cob)
    assert not ok and len(cycle) == 3

    graph = circuit_graph(cob)
    k11 = tuple(sorted([(1, 0, 0), (1, 0, 1)]))
    k22 = tuple(sorted([(0, 1, 0), (0, 1, 1)]))
    k33 = tuple(sorted([(-1, -1, 0), (-1, -1, 1)]))
    assert set(graph.edges) == {(k11, k22), (k22, k33), (k33, k11)}
    assert set(cycle) == {k11, k22, k33}
    for a, b in zip(cycle, cycle[1:] + cycle[:1]):
        assert (a, b) in graph.edges
    _report(3, "six-cone bundle: valid, pi-nonsingular, exactly one 3-cycle", t0, 1.0)


def test_criterion_4_factorization_round_trip():
    t0 = time.perf_counter()
    rng = random.Random(20260808)
    cases = 0
    while cases < 100:
        fan = random_smooth_fan(rng)
        centers, final = random_center_sequence(rng, fan)
        cob = build_cobordism(fan, centers)
        steps = extract_factorization(cob)
        assert [s.center for s in steps] == centers
        assert all(s.kind is StepKind.BLOWUP for s in steps)
        for s in steps:
            assert validate_fan(s.result).ok
        assert (steps[-1].result if steps else cob.bottom) == final
        cases += 1
    _report(4, f"{cases} random build/extract round trips", t0, 30.0)


def test_criterion_5_height_invariance():
    t0 = time.perf_counter()

    def fingerprint(cob):
        rows = []
        for cone in cob.fan.max_cones:
            circ = circuit_of(cone)
            if circ is None:
                rows.append(("independent", tuple(r[:-1] for r in cone.rays)))
            else:
                rows.append(
                    (
                        classify(cone).value,
                        tuple(r[:-1] for r in circ.pos),
                        tuple(r[:-1] for r in circ.neg),
                        circ.relation,
                    )
                )
        graph = circuit_graph(cob)
        strip = lambda key: tuple(r[:-1] for r in key)  # noqa: E731
        edges = sorted((strip(a), strip(b)) for a, b in graph.edges)
        return sorted(rows), sorted(map(strip, graph.nodes)), edges

    def extraction(cob):
        try:
            return [(s.kind, s.center, s.result) for s in extract_factorization(cob)]
        except NotCollapsible as exc:
            return ("cycle", sorted(tuple(r[:-1] for r in key) for key in exc.cycle))

    # built corpus: the three-step cobordism and random cases, rebuilt at 10x heights
    pairs = [
        (
            build_cobordism(orthant_fan(), KARU_CENTERS),
            build_cobordism(orthant_fan(), KARU_CENTERS, heights=[10, 20, 30]),
        )
    ]
    rng = random.Random(55)
    for _ in range(8):
        fan = random_smooth_fan(rng)
        centers, _ = random_center_sequence(rng, fan)
        pairs.append(
            (
                build_cobordism(fan, centers),
                build_cobordism(fan, centers, heights=[10 * (i + 1) for i in range(len(centers))]),
            )
        )

    # hand-lifted corpus members, rescaled ray by ray
    def rescale(cob):
        cones = tuple(
            SimplicialCone(tuple(r[:-1] + (10 * r[-1],) for r in c.rays))
            for c in cob.fan.max_cones
        )
        return Cobordism.from_fan(Fan(cob.fan.ambient_dim, cones))

    for fixture in (
        noncollapsible_example(),
        Cobordism.from_fan(Fan(3, (SimplicialCone(((1, 0, 0), (1, 0, 1), (0, 1, 0))),))),
        Cobordism.from_fan(Fan(3, (SimplicialCone(((1, 0, 1), (0, 1, 1), (1, 1, 0))),))),
    ):
        pairs.append((fixture, rescale(fixture)))

    for base, scaled in pairs:
        assert fingerprint(base) == fingerprint(scaled)
        assert extraction(base) == extraction(scaled)
    _report(5, f"{len(pairs)} corpus cobordisms invariant under 10x heights", t0, 5.0)


# --- criterion 6 machinery ---------------------------------------------------

def _sign_canonical_primitives(dim: int, bound: int):
    """One representative per sign class: negating a generator flips the sign
    of every minor and of every extension determinant, so both routes give
    the same verdict on every sign variant."""
    out = []
    for v in itertools.product(range(-bound, bound + 1), repeat=dim):
        if not any(v):
            continue
        if next(x for x in v if x) < 0:
            continue
        g = 0
        for x in v:
            g = gcd(g, x)
        if g == 1:
            out.append(v)
    return out


def _box(dim: int, bound: int):
    vs = [v for v in itertools.product(range(-bound, bound + 1), repeat=dim) if any(v)]
    vs.sort(key=lambda v: (max(abs(x) for x in v), v))
    return vs


def _det_cofactor(rows):
    # first-row cofactor expansion, independent of the package's elimination
    n = len(rows)
    if n == 1:
        return rows[0][0]
    if n == 2:
        return rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
    total = 0
    for j in range(n):
        minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
        term = rows[0][j] * _det_cofactor(minor)
        total += term if j % 2 == 0 else -term
    return total


def _extends_to_basis(vs, dim, pools):
    """Brute-force basis-extension search over candidate boxes.

    Box bound 8 is complete for inputs with entries in [-3,3] and dim <= 3:
    every gcd-1 cofactor vector with entries up to 18 has a Bezout witness
    with entries up to 8 (verified exhaustively over all such vectors).
    """
    k = len(vs)
    if k == dim:
        return abs(_det_cofactor([list(v) for v in vs])) == 1
    rows = [list(v) for v in vs]
    for pool in pools:
        for combo in itertools.combinations(pool, dim - k):
            if abs(_det_cofactor(rows + [list(w) for w in combo])) == 1:
                return True
    return False


def test_criterion_6_smoothness_oracle():
    t0 = time.perf_counter()
    checked = 0

    # dim 1: the only primitive generator class
    assert (maximal_minor_gcd([(1,)]) == 1) == _extends_to_basis([(1,)], 1, [])
    checked += 1

    # dim 2, exhaustive: singles against a box search, pairs are basis checks
    p2 = _sign_canonical_primitives(2, 3)
    box2 = _box(2, 8)
    for v in p2:
        assert (maximal_minor_gcd([v]) == 1) == _extends_to_basis([v], 2, [box2])
        checked += 1
    for a, b in itertools.combinations(p2, 2):
        assert (maximal_minor_gcd([a, b]) == 1) == _extends_to_basis([a, b], 2, [])
        checked += 1

    # dim 3, exhaustive
    p3 = _sign_canonical_primitives(3, 3)
    small3 = _box(3, 2)
    box3 = _box(3, 8)
    for v in p3:
        assert (maximal_minor_gcd([v]) == 1) == _extends_to_basis([v], 3, [small3])
        checked += 1
    for a, b in itertools.combinations(p3, 2):
        impl = maximal_minor_gcd([a, b]) == 1
        # hoisted form of the same search: |det(a, b, w)| = 1 over the box
        c1 = a[1] * b[2] - a[2] * b[1]
        c2 = a[2] * b[0] - a[0] * b[2]
        c3 = a[0] * b[1] - a[1] * b[0]
        oracle = any(abs(c1 * w[0] + c2 * w[1] + c3 * w[2]) == 1 for w in box3)
        assert impl == oracle, (a, b)
        checked += 1
    for a, b, c in itertools.combinations(p3, 3):
        d = _det_cofactor([list(a), list(b), list(c)])
        if d == 0:
            continue
        assert (maximal_minor_gcd([a, b, c]) == 1) == (abs(d) == 1), (a, b, c)
        checked += 1

    # dim 4, sampled; the complete box search is infeasible here, so the
    # independent check is rank over F_p for every prime p up to the largest
    # possible maximal minor (any prime dividing all maximal minors is such)
    def rank_mod_p(rows, p):
        rows = [[x % p for x in r] for r in rows]
        r = 0
        for col in range(len(rows[0])):
            piv = next((i for i in range(r, len(rows)) if rows[i][col]), None)
            if piv is None:
                continue
            rows[r], rows[piv] = rows[piv], rows[r]
            inv = pow(rows[r][col], -1, p)
            for i in range(r + 1, len(rows)):
                f = rows[i][col] * inv % p
                if f:
                    rows[i] = [(x - f * y) % p for x, y in zip(rows[i], rows[r])]
            r += 1
        return r

    def primes_up_to(n):
        sieve = [True] * (n + 1)
        sieve[0] = sieve[1] = False
        for i in range(2, int(n**0.5) + 1):
            if sieve[i]:
                for j in range(i * i, n + 1, i):
                    sieve[j] = False
        return [i for i, flag in enumerate(sieve) if flag]

    primes = primes_up_to(144)  # Hadamard bound for 3x3 minors with entries <= 3
    rng = random.Random(66)
    p4 = _sign_canonical_primitives(4, 3)
    sampled = 0
    while sampled < 600:
        k = rng.randint(1, 3)
        vs = rng.sample(p4, k)
        rows = [list(v) for v in vs]
        if rank_mod_p(rows, 1009) < k and k > 1:  # quick dependent filter
            from fancob.exact import rank as exact_rank

            if exact_rank(vs) < k:
                continue
        impl = maximal_minor_gcd(vs) == 1
        oracle = all(rank_mod_p([list(v) for v in vs], p) == k for p in primes)
        assert impl == oracle, vs
        sampled += 1
        checked += 1

    _report(6, f"{checked} cones: minor-gcd smoothness == basis-extension search", t0, 60.0)


def test_criterion_7_unimodular_robustness():
    t0 = time.perf_counter()
    rng = random.Random(77)
    for _ in range(20):
        u = random_unimodular(rng)
        report = karu_counterexample(base_change=u)
        # criterion 1 under conjugation
        assert len(report.census) == 4
        assert all(
            cls is ConeClass.UP and npos == 1 and nlink == 1
            for _, cls, npos, nlink in report.census
        )
        # criterion 2 under conjugation
        assert classify(report.mixed_cone) is ConeClass.MIXED
        circ = circuit_of(report.mixed_cone)
        assert len(circ.pos) == 2 and len(circ.neg) == 2
        assert classify(report.three_negative_cone) is ConeClass.UP
    _report(7, "criteria 1-2 hold under 20 random unimodular conjugations", t0, 10.0)
