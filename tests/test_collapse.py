"""Circuit graph, collapsibility, projection-smoothness, factorization."""

from __future__ import annotations

import collections
import functools
import itertools
import json
import random
from math import comb

import pytest

from fancob import fan as fanmod
from fancob.cobordism import (
    Cobordism,
    ConeClass,
    build_cobordism,
    circuit_class,
    cobordism_from_doc,
    validate_cobordism,
)
from fancob.collapse import (
    CollapseGraph,
    StepKind,
    _components,
    _find_cycle,
    circuit_graph,
    extract_factorization,
    is_collapsible,
    is_pi_nonsingular,
    to_dot,
    transcript,
)
from fancob.demos import karu_counterexample, run_schedule
from fancob.errors import BrokenFan, FrontMismatch, InvalidFan, NotCollapsible
from fancob.exact import primitive
from fancob.fan import Fan, SimplicialCone, fans_equal, is_smooth, star_subdivide, validate_fan
from conftest import FIXTURES, INVALID_BOTTOM_DOCS, orthant_fan, random_center_sequence, random_smooth_fan, ring_chain
from test_facet_boundary import _orthant, fixture_cobordisms, random_build

D1 = tuple(sorted([(1, 0, 0, 0), (0, 1, 0, 0), (1, 1, 0, 1)]))
D2 = tuple(sorted([(0, 1, 0, 0), (0, 0, 1, 0), (0, 1, 1, 2)]))
D3 = tuple(sorted([(1, 1, 0, 1), (0, 0, 1, 0), (1, 1, 1, 3)]))


def with_ends(cob: Cobordism, bottom: Fan, top: Fan | None = None) -> Cobordism:
    """cob with its bottom fan (and top fan, when given) swapped out, built
    from its fields; no check ties the new ends to the lifted fan."""
    return Cobordism(cob.base_dim, cob.fan, cob.lower_faces, cob.upper_faces,
                     bottom, cob.top if top is None else top, cob.circuits)


class TestCircuitGraph:
    def test_cyclic_example_exact_three_cycle(self, cyclic):
        graph = circuit_graph(cyclic)
        k11 = tuple(sorted([(1, 0, 0), (1, 0, 1)]))
        k22 = tuple(sorted([(0, 1, 0), (0, 1, 1)]))
        k33 = tuple(sorted([(-1, -1, 0), (-1, -1, 1)]))
        assert set(graph.nodes) == {k11, k22, k33}
        assert set(graph.edges) == {(k11, k22), (k22, k33), (k33, k11)}

    def test_karu_graph(self, karu):
        graph = circuit_graph(karu)
        assert set(graph.nodes) == {D1, D2, D3}
        assert set(graph.edges) == {(D1, D2), (D1, D3), (D2, D3)}

    def test_single_cone(self):
        cob = build_cobordism(orthant_fan(), [(1, 1, 0)])
        graph = circuit_graph(cob)
        assert len(graph.nodes) == 1 and graph.edges == ()

    def test_input_order_invariance(self, karu):
        # the fan canonicalizes its cones, so any construction order gives
        # the same graph; check against a fan rebuilt from shuffled cones
        rng = random.Random(5)
        cones = list(karu.fan.max_cones)
        rng.shuffle(cones)
        rebuilt = Cobordism.from_fan(Fan(4, tuple(cones)), 3)
        a, b = circuit_graph(karu), circuit_graph(rebuilt)
        assert a.nodes == b.nodes and a.edges == b.edges

    def test_edges_match_the_pair_rule(self, karu, cyclic):
        # the ray -> circuits index gives the edges of the rule tested on
        # every ordered pair of circuits
        mirror = reflected(karu)
        corpus = fixture_cobordisms() + [
            karu, cyclic, karu_counterexample().cobordism, mirror,
        ] + seeded_builds() + differential_corpus(karu)
        for cob in corpus:
            graph = circuit_graph(cob)
            assert graph.edges == pair_rule_edges(graph), cob.fan.max_cones
        assert len(circuit_graph(mirror).edges) == 6
        assert sum(len(circuit_graph(c).edges) for c in corpus) >= 80


def pair_rule_edges(graph) -> tuple:
    """A -> B for each ordered pair where a cone carrying B holds a positive
    ray of A, sorted."""
    return tuple(sorted(
        (a, b) for a, b in itertools.permutations(graph.nodes, 2)
        if any(set(graph.circuits[a].pos) & set(c.rays) for c in graph.cones[b])
    ))


def reflected(cob: Cobordism) -> Cobordism:
    """The cobordism with every lifted height negated.  The reflected Karu
    build has three blowdowns sharing the positive ray (0,0,1,0), so every
    circuit points at the other two."""
    cones = tuple(SimplicialCone(tuple(r[:-1] + (-r[-1],) for r in c.rays)) for c in cob.fan.max_cones)
    return Cobordism.from_fan(Fan(cob.fan.ambient_dim, cones), cob.base_dim)


class TestIsCollapsible:
    def test_cyclic_example(self, cyclic):
        ok, witness = is_collapsible(cyclic)
        assert not ok
        assert len(witness) == 3
        # the witness walks the unique directed cycle
        graph = circuit_graph(cyclic)
        for a, b in zip(witness, witness[1:] + witness[:1]):
            assert (a, b) in graph.edges

    def test_karu_order(self, karu):
        ok, order = is_collapsible(karu)
        assert ok
        assert order == (D1, D2, D3)

    def test_empty(self):
        cob = Cobordism.from_fan(Fan(3, ()), 2)
        assert is_collapsible(cob) == (True, ())


class TestIsPiNonsingular:
    def test_cyclic_example(self, cyclic):
        ok, witness = is_pi_nonsingular(cyclic)
        assert ok and witness is None

    def test_karu(self, karu):
        ok, witness = is_pi_nonsingular(karu)
        assert ok and witness is None

    def test_singular_face_detected(self):
        cone = SimplicialCone(((1, 0, 0), (1, 2, 0)))
        cob = Cobordism.from_fan(Fan(3, (cone,)), 2)
        ok, witness = is_pi_nonsingular(cob)
        assert not ok
        assert witness == cone

    def test_imprimitive_projection_reprimitivized(self):
        # (1,2,2) projects to (1,2), primitive; (2,4,1) projects to (2,4),
        # whose primitive (1,2) spans a smooth ray: the ray faces pass and
        # only the dependent pair face is skipped
        cone = SimplicialCone(((2, 4, 1), (0, 1, 0)))
        cob = Cobordism.from_fan(Fan(3, (cone,)), 2)
        ok, _ = is_pi_nonsingular(cob)
        assert ok


class TestExtractFactorization:
    def test_karu_three_blowups(self, karu):
        steps = extract_factorization(karu)
        assert [s.kind for s in steps] == [StepKind.BLOWUP] * 3
        assert [s.center for s in steps] == [(1, 1, 0), (0, 1, 1), (1, 1, 1)]
        top = orthant_fan()
        for center in [(1, 1, 0), (0, 1, 1), (1, 1, 1)]:
            top = star_subdivide(top, center)
        assert fans_equal(steps[-1].result, top)

    def test_cyclic_example_not_collapsible(self, cyclic):
        with pytest.raises(NotCollapsible) as exc:
            extract_factorization(cyclic)
        assert len(exc.value.cycle) == 3

    def test_empty(self):
        cob = Cobordism.from_fan(Fan(3, ()), 2)
        assert extract_factorization(cob) == []

    def test_identity_crossing_recorded_and_elided(self):
        cob = Cobordism.from_fan(
            Fan(3, (SimplicialCone(((1, 0, 0), (1, 0, 1), (0, 1, 0))),)), 2
        )
        steps = extract_factorization(cob)
        assert [s.kind for s in steps] == [StepKind.IDENTITY]
        assert steps[0].center is None
        assert fans_equal(steps[0].result, cob.bottom)
        assert extract_factorization(cob, elide_identity=True) == []

    def test_blowdown(self):
        cob = Cobordism.from_fan(
            Fan(3, (SimplicialCone(((1, 0, 1), (0, 1, 1), (1, 1, 0))),)), 2
        )
        steps = extract_factorization(cob)
        assert [s.kind for s in steps] == [StepKind.BLOWDOWN]
        assert steps[0].center == (1, 1)
        assert fans_equal(steps[0].result, cob.top)

    def test_flip(self):
        # the two triangulations of a quadrilateral cone, exchanged in one move
        cob = Cobordism.from_fan(
            Fan(4, (SimplicialCone(((1, 2, 2, 5), (1, 1, 0, 1), (1, 2, 1, 3), (1, 1, 1, 1))),)), 3
        )
        steps = extract_factorization(cob)
        assert [s.kind for s in steps] == [StepKind.FLIP]
        assert steps[0].center is None
        assert len(cob.bottom.max_cones) == len(cob.top.max_cones) == 2
        assert not fans_equal(cob.bottom, cob.top)
        assert fans_equal(steps[0].result, cob.top)

    def test_degenerate_circuit_is_invalid(self):
        # a circuit of one sign names no blowup, blowdown or flip
        cob = Cobordism.from_fan(Fan(2, (SimplicialCone(((1, 1), (-1, 1))),)), 1)
        with pytest.raises(InvalidFan, match="circuit .* is degenerate"):
            extract_factorization(cob)

    def test_degenerate_circuit_refused_before_its_swap(self):
        # a circuit with no positive ray over a bottom cone inside one of
        # its upper faces: the front after the swap would break, but the
        # circuit is refused first
        sigma = SimplicialCone(((1, 0, -1), (-1, 0, -1), (0, 1, 0)))
        cob = Cobordism.from_fan(Fan(3, (sigma,)), 2)
        assert cob.circuits[0].pos == ()
        extra = SimplicialCone(((1, 1), (1, 2)))
        doctored = with_ends(cob, Fan(2, (extra,)))
        assert validate_fan(doctored.bottom).ok
        assert not validate_fan(Fan(2, cob.top.max_cones + (extra,))).ok
        with pytest.raises(InvalidFan, match="circuit .* is degenerate"):
            extract_factorization(doctored)

    @pytest.mark.parametrize("name", sorted(INVALID_BOTTOM_DOCS))
    def test_invalid_bottom(self, name):
        cob, _, _ = cobordism_from_doc(INVALID_BOTTOM_DOCS[name])
        assert is_collapsible(cob)[0]
        report = validate_fan(cob.bottom)
        assert not report.ok
        with pytest.raises(BrokenFan) as exc:
            extract_factorization(cob)
        assert str(exc.value) == f"bottom fan is invalid:\n{report}"

    def test_front_mismatch(self, karu):
        doctored = with_ends(karu, karu.top)
        with pytest.raises(FrontMismatch):
            extract_factorization(doctored)

    def test_broken_fan(self, karu):
        # an extra cone inside the orthant makes the bottom invalid, which
        # is refused before the first crossing
        extra = SimplicialCone(((1, 0, 0), (0, 1, 0), (1, 1, 1)))
        doctored = with_ends(karu, Fan(3, karu.bottom.max_cones + (extra,)))
        with pytest.raises(BrokenFan) as exc:
            extract_factorization(doctored)
        report = validate_fan(doctored.bottom)
        assert not report.ok
        assert str(exc.value) == f"bottom fan is invalid:\n{report}"


def projected_face(cone: SimplicialCone, dropped) -> SimplicialCone:
    """pi(cone - dropped), built with the checked constructor."""
    return SimplicialCone(tuple(primitive(r[:-1]) for r in cone.rays if r != dropped))


def ring_cobordism(n: int) -> Cobordism:
    """The build of the ring chain with n cones and 2n centers."""
    return build_cobordism(*ring_chain(n))


def full_check_outcome(cob: Cobordism):
    """The bottom and the fronts extract_factorization walks, each checked
    whole by validate_fan: the list of fronts, or the BrokenFan text of the
    first invalid fan."""
    graph = circuit_graph(cob)
    ok, order = is_collapsible(cob)
    assert ok
    report = validate_fan(cob.bottom)
    if not report.ok:
        return f"bottom fan is invalid:\n{report}"
    front, fronts = cob.bottom, []
    for key in order:
        circ, star = graph.circuits[key], graph.cones[key]
        lower = {projected_face(c, p) for c in star for p in circ.pos}
        upper = {projected_face(c, n) for c in star for n in circ.neg}
        front = Fan(front.ambient_dim, tuple((set(front.max_cones) - lower) | upper))
        report = validate_fan(front)
        if not report.ok:
            return f"front after crossing {list(key)} is invalid:\n{report}"
        fronts.append(front)
    return fronts


def incremental_outcome(cob: Cobordism):
    try:
        return [s.result for s in extract_factorization(cob)]
    except BrokenFan as exc:
        return str(exc)


def differential_corpus(karu):
    rng = random.Random(31)
    corpus = [karu, ring_cobordism(8)]
    for _ in range(12):
        fan = random_smooth_fan(rng)
        centers, _ = random_center_sequence(rng, fan)
        corpus.append(build_cobordism(fan, centers))
    return corpus


CHECKED = "checked"
OLD_APART = "old cone without pi(n)"
ONE_STAR = "upper faces of one star cone"


def star_local_pairs(cob: Cobordism) -> list[dict[str, list[tuple[SimplicialCone, SimplicialCone]]]]:
    """Per crossing of a cobordism whose fronts are all valid, the pairs of
    the new front holding a fresh cone, in combinations order, under
    CHECKED or the reason the star-local rule skips them: from the first
    crossing on, each fresh cone pi(sigma - n) is checked with the fresh
    cones from other star cones and the old cones holding pi(n)."""
    graph = circuit_graph(cob)
    _, order = is_collapsible(cob)
    front, out = cob.bottom, []
    for key in order:
        circ, star = graph.circuits[key], graph.cones[key]
        lower = {projected_face(c, p) for c in star for p in circ.pos}
        made: dict[SimplicialCone, set] = {}  # upper cone -> its (star cone, pi(n))
        for i, c in enumerate(star):
            for n in circ.neg:
                made.setdefault(projected_face(c, n), set()).add((i, primitive(n[:-1])))
        new = Fan(front.ambient_dim, tuple((set(front.max_cones) - lower) | set(made)))
        fresh = set(made) - set(front.max_cones)
        split = {CHECKED: [], OLD_APART: [], ONE_STAR: []}
        for a, b in itertools.combinations(new.max_cones, 2):
            if a in fresh and b in fresh:
                shared = {i for i, _ in made[a]} & {i for i, _ in made[b]}
                split[ONE_STAR if shared else CHECKED].append((a, b))
            elif a in fresh or b in fresh:
                u, c = (a, b) if a in fresh else (b, a)
                holds = any(r in c.rays for _, r in made[u])
                split[CHECKED if holds else OLD_APART].append((a, b))
        out.append(split)
        front = new
    return out


def bottom_pairs(cob: Cobordism) -> list[tuple[SimplicialCone, SimplicialCone]]:
    """The pairs validate_fan checks on the bottom, in combinations order:
    none when it holds the complete-fan certificate."""
    if fanmod._complete_certificate(cob.bottom):
        return []
    return list(itertools.combinations(cob.bottom.max_cones, 2))


def seeded_builds() -> list[Cobordism]:
    """Builds over one to three orthants in base dims 2-4."""
    out = []
    for d in (2, 3, 4):
        rng = random.Random(700 + d)
        for _ in range(10):
            out.append(build_cobordism(*random_build(rng, d)))
    return out


@functools.cache
def upstairs_builds() -> tuple[Cobordism, ...]:
    """Seeded builds in base dims 2-4, star-subdivided upstairs once or twice
    at the sum of 2..k rays of a lifted cone (as demos.run_schedule does),
    and their h -> -h reflections: the valid and collapsible ones.  Their
    crossings after the first include blowdowns and Up-Down circuits."""
    out = []
    for d in (2, 3, 4):
        rng = random.Random(900 + d)
        for _ in range(60):
            lifted = build_cobordism(*random_build(rng, d)).fan
            for _ in range(rng.randint(1, 2)):
                cone = rng.choice(lifted.max_cones)
                rays = rng.sample(cone.rays, rng.randint(2, len(cone.rays)))
                lifted = run_schedule(lifted, [primitive(tuple(map(sum, zip(*rays))))])
            up = Cobordism.from_fan(lifted, d)
            for cob in (up, reflected(up)):
                if validate_cobordism(cob).ok and is_collapsible(cob)[0]:
                    out.append(cob)
    return tuple(out)


def _next_to_up(cone: SimplicialCone, extra: SimplicialCone | None) -> Cobordism:
    """A blowup at (-1,-1,-1) in the negative orthant, crossed first, next
    to one more lifted cone over the positive orthant; extra, when given,
    is added to the bottom and the top."""
    up = SimplicialCone(((-1, 0, 0, 0), (0, -1, 0, 0), (0, 0, -1, 0), (-1, -1, -1, 1)))
    cob = Cobordism.from_fan(Fan(4, (up, cone)), 3)
    if extra is None:
        return cob
    return with_ends(cob, Fan(3, cob.bottom.max_cones + (extra,)), Fan(3, cob.top.max_cones + (extra,)))


def down_after_up(extra: SimplicialCone | None = None) -> Cobordism:
    """The blowup, then the blowdown of (1,1,0) over the positive orthant
    (the Down circuit e1 + e2 - (1,1,0))."""
    return _next_to_up(SimplicialCone(((1, 0, 0, 2), (0, 1, 0, 2), (1, 1, 0, 0), (0, 0, 1, 0))), extra)


def mixed_after_up(extra: SimplicialCone | None = None) -> Cobordism:
    """The blowup, then the flip of the Mixed cone of fixtures/mixed.cob (the
    circuit (1,1,0) + (1,2,2) - (1,1,1) - (1,2,1))."""
    return _next_to_up(SimplicialCone(((1, 1, 0, 1), (1, 1, 1, 1), (1, 2, 1, 3), (1, 2, 2, 5))), extra)


# a cone at the vertex (1,1,1) of the Mixed star's support, outside it
MIXED_EXTRA = SimplicialCone(((0, 0, 1), (1, 0, 1), (1, 1, 1)))


def pair_checks(cob: Cobordism, monkeypatch) -> int:
    """How many fan._pair_problem calls extract_factorization makes on cob."""
    real = fanmod._pair_problem
    calls = 0

    def counting(a, b):
        nonlocal calls
        calls += 1
        return real(a, b)

    with monkeypatch.context() as m:
        m.setattr(fanmod, "_pair_problem", counting)
        extract_factorization(cob)
    return calls


class TestIncrementalFrontCheck:
    """extract_factorization checks the bottom with validate_fan, then on
    each front only the pairs holding a fresh cone that the star-local rule
    names; its verdicts and BrokenFan texts must be those of whole-front
    validate_fan."""

    def test_valid_fronts_agree(self, karu):
        for cob in differential_corpus(karu):
            assert incremental_outcome(cob) == full_check_outcome(cob)

    def test_broken_fan_after_first_crossing(self, karu):
        # a cone on the far side of the plane x = 0 shares the face (e2, e3)
        # with the orthant: fine until the center (0,1,1) splits that face
        extra = SimplicialCone(((-1, 0, 0), (0, 1, 0), (0, 0, 1)))
        doctored = with_ends(karu, Fan(3, karu.bottom.max_cones + (extra,)))
        with pytest.raises(BrokenFan) as exc:
            extract_factorization(doctored)
        second = extract_factorization(karu)[1].result
        front = Fan(3, second.max_cones + (extra,))
        report = validate_fan(front)
        assert len(report.problems) == 2
        assert str(exc.value) == f"front after crossing {list(D2)} is invalid:\n{report}"
        assert str(exc.value) == full_check_outcome(doctored)

    def test_results_equal_checked_fans(self, karu):
        # each FactorStep.result, the indexed front's ordered list taken
        # unchecked and unsorted, is already in fan order and is the fan the
        # checked constructor makes of its cones in any order
        rng = random.Random(41)
        steps = 0
        cobs = seeded_builds() + differential_corpus(karu) + [ring_cobordism(n) for n in (16, 32)]
        for cob in cobs:
            for step in extract_factorization(cob):
                cones = list(step.result.max_cones)
                assert cones == sorted(cones, key=lambda c: c.rays)
                rng.shuffle(cones)
                checked = Fan(cob.base_dim, tuple(cones))
                assert step.result == checked
                assert step.result.ambient_dim == checked.ambient_dim == cob.base_dim
                assert step.result.max_cones == checked.max_cones
                steps += 1
        assert steps >= 200, steps

    def test_star_local_rule(self, karu, monkeypatch):
        # the checked pairs are exactly the bottom's (none when certified)
        # and then the rule's, in order; every pair holding a fresh cone
        # that the rule skips passes the real check, for either reason: an
        # old cone without the dropped ray pi(n), or two upper faces of one
        # star cone
        real = fanmod._pair_problem
        calls = []

        def recording(a, b):
            calls.append((a, b))
            return real(a, b)

        monkeypatch.setattr(fanmod, "_pair_problem", recording)
        skipped = collections.Counter()  # (circuit class, reason) -> pairs
        corpus = differential_corpus(karu) + seeded_builds() + list(upstairs_builds()) + [
            down_after_up(), mixed_after_up(), mixed_after_up(MIXED_EXTRA),
        ]
        for cob in corpus:
            calls.clear()
            outcome = incremental_outcome(cob)
            checked = list(calls)
            assert outcome == full_check_outcome(cob)
            expected = star_local_pairs(cob)
            assert checked == bottom_pairs(cob) + [p for split in expected for p in split[CHECKED]]
            graph, (_, order) = circuit_graph(cob), is_collapsible(cob)
            for key, split in zip(order, expected):
                cls = circuit_class(graph.circuits[key])
                for reason in (OLD_APART, ONE_STAR):
                    for a, b in split[reason]:
                        assert real(a, b) is None, (reason, a, b)
                    skipped[cls, reason] += len(split[reason])
        up, down, mixed = ConeClass.UP, ConeClass.DOWN, ConeClass.MIXED
        assert skipped[up, OLD_APART] >= 1700 and skipped[up, ONE_STAR] >= 390, skipped
        assert skipped[down, OLD_APART] >= 25 and skipped[mixed, OLD_APART] >= 10, skipped
        assert skipped[mixed, ONE_STAR] >= 2, skipped

    def test_faults_next_to_a_star(self):
        # doctored bottoms that break a front after the first crossing: an
        # extra orthant sharing a face that a later center splits, and a
        # cone holding the ray a later Down circuit removes and no other ray
        # of its star; the texts are those of whole-front validate_fan
        down_fault = down_after_up(SimplicialCone(((1, 1, 0), (1, 0, -1), (0, 1, -1))))
        cases = [down_fault]
        rng = random.Random(70)
        for d in (3, 4):
            for _ in range(60):
                fan, centers = random_build(rng, d)
                outside = [s for s in itertools.product((1, -1), repeat=d) if _orthant(s) not in fan.max_cones]
                if len(centers) < 2 or not outside:
                    continue
                cob = build_cobordism(fan, centers)
                bottom = Fan(d, cob.bottom.max_cones + (_orthant(rng.choice(outside)),))
                cases.append(with_ends(cob, bottom))
        later = 0
        for cob in cases:
            assert validate_fan(cob.bottom).ok
            expected = full_check_outcome(cob)
            if isinstance(expected, list):
                continue
            assert incremental_outcome(cob) == expected
            _, order = is_collapsible(cob)
            later += not expected.startswith(f"front after crossing {list(order[0])} ")
        assert later >= 6, later
        text = full_check_outcome(down_fault)
        assert text.startswith("front after crossing [(0, 1, 0, 2), (1, 0, 0, 2), (1, 1, 0, 0)] ")
        assert text.endswith("overlap beyond their common face (witness direction (1, 1, 0))")

    def test_cone_at_a_mixed_dropped_ray(self):
        # a cone holding only the dropped ray pi(n) of a Mixed crossing
        # cannot break its front: it meets the star's support in that ray
        # alone, which lies outside pi(sigma - n) when the circuit has two
        # negative rays; the rule checks it against pi(sigma - n) only
        cob = mixed_after_up(MIXED_EXTRA)
        assert validate_fan(cob.bottom).ok
        expected = full_check_outcome(cob)
        assert isinstance(expected, list)
        assert incremental_outcome(cob) == expected
        flip = star_local_pairs(cob)[1]
        apart = SimplicialCone(((1, 1, 0), (1, 2, 1), (1, 2, 2)))  # drops (1,1,1)
        near = SimplicialCone(((1, 1, 0), (1, 1, 1), (1, 2, 2)))  # drops (1,2,1)
        assert (MIXED_EXTRA, apart) in flip[CHECKED]
        assert (MIXED_EXTRA, near) in flip[OLD_APART]
        assert (apart, near) in flip[ONE_STAR] or (near, apart) in flip[ONE_STAR]

    def test_pair_check_count(self, monkeypatch):
        # the complete ring is certified, so two checks per crossing from
        # the first on, whatever its size: each fresh cone with the old
        # cone across its dropped ray; the two fresh cones share their star
        # cone
        for n in (16, 32, 64):
            cob = ring_cobordism(n)
            assert fanmod._complete_certificate(cob.bottom)
            calls = pair_checks(cob, monkeypatch)
            per_crossing = [len(split[CHECKED]) for split in star_local_pairs(cob)]
            assert len(per_crossing) == 2 * n
            assert per_crossing[0] == 2
            assert set(per_crossing[1:]) == {2}
            assert calls == sum(per_crossing) == 4 * n

    def test_pair_counts_on_bench_shapes(self, monkeypatch):
        # the octahedral fan with its first k = 2/4/6 edge midpoints at
        # default heights, and the ring chains with 8/16/32 cones, both
        # certified complete bottoms: a wider rule shows here before it
        # shows in the timings
        octa = Fan(3, tuple(_orthant(s) for s in itertools.product((1, -1), repeat=3)))
        midpoints = [(1, 1, 0), (0, 1, 1), (1, 0, 1), (-1, -1, 0), (0, -1, -1), (-1, 0, -1)]
        octa_calls = [pair_checks(build_cobordism(octa, midpoints[:k]), monkeypatch) for k in (2, 4, 6)]
        ring_calls = [pair_checks(ring_cobordism(n), monkeypatch) for n in (8, 16, 32)]
        assert octa_calls == [26, 56, 92]
        assert ring_calls == [32, 64, 128]

    def test_double_description_count(self, monkeypatch):
        # every pair of the lifted ring fan has a separating facet certificate,
        # and the support check runs the double-description pass only on the
        # 48 pieces in each direction
        cob = ring_cobordism(16)
        calls = 0
        real = fanmod._intersection_generators

        def counting(a, b):
            nonlocal calls
            calls += 1
            return real(a, b)

        monkeypatch.setattr(fanmod, "_intersection_generators", counting)
        assert validate_fan(cob.fan).ok
        assert calls == 0
        assert fanmod._first_uncovered(cob.bottom, cob.top) is None
        assert fanmod._first_uncovered(cob.top, cob.bottom) is None
        assert len(cob.top.max_cones) == 48 and calls == 96


class TestCertifiedInputs:
    """build_cobordism checks no pair of a complete input, which holds the
    complete-fan certificate, and extract_factorization crosses its bottom
    star-locally from the first crossing on; other inputs take the pair
    loop once in build and once on the bottom in extract, which then
    crosses star-locally from the first crossing on as well."""

    @staticmethod
    def build_pair_checks(fan, centers, monkeypatch):
        calls = []
        real = fanmod._pair_problem
        with monkeypatch.context() as m:
            m.setattr(fanmod, "_pair_problem", lambda a, b: calls.append((a, b)) or real(a, b))
            cob = build_cobordism(fan, centers)
        return cob, len(calls)

    def test_complete_inputs(self, monkeypatch):
        octa = Fan(3, tuple(_orthant(s) for s in itertools.product((1, -1), repeat=3)))
        cases = (ring_chain(16), ring_chain(32), (octa, [(1, 1, 0), (0, 1, 1), (-1, 0, -1)]))
        for (fan, centers), first in zip(cases, (2, 2, 12)):
            assert fanmod._complete_certificate(fan)
            cob, calls = self.build_pair_checks(fan, centers, monkeypatch)
            assert calls == 0
            per_crossing = [len(split[CHECKED]) for split in star_local_pairs(cob)]
            assert pair_checks(cob, monkeypatch) == sum(per_crossing)
            first_front = extract_factorization(cob)[0].result
            assert per_crossing[0] == first < comb(len(first_front.max_cones), 2)

    def test_other_inputs(self, monkeypatch):
        cone3 = fanmod.fan_from_doc(json.loads((FIXTURES / "cone3.fan").read_text()))
        orthants = Fan(3, tuple(_orthant(s) for s in ((1, 1, 1), (-1, 1, 1), (1, -1, 1), (1, 1, -1))))
        cases = ((cone3, [(1, 1, 0), (1, 1, 1)]), (orthants, [(1, 1, 0), (-1, 0, 1), (0, 1, 1)]))
        for (fan, centers), total in zip(cases, (4, 29)):
            assert not fanmod._complete_certificate(fan)
            cob, calls = self.build_pair_checks(fan, centers, monkeypatch)
            assert calls == comb(len(fan.max_cones), 2)
            first_front = extract_factorization(cob)[0].result
            per_crossing = [len(split[CHECKED]) for split in star_local_pairs(cob)]
            assert per_crossing[0] < comb(len(first_front.max_cones), 2)
            assert pair_checks(cob, monkeypatch) == comb(len(fan.max_cones), 2) + sum(per_crossing) == total


class TestRandomCorpusProperties:
    def test_builds_are_collapsible_with_valid_fronts(self):
        from fancob.fan import supports_equal

        rng = random.Random(31)
        for _ in range(20):
            fan = random_smooth_fan(rng)
            centers, final = random_center_sequence(rng, fan)
            cob = build_cobordism(fan, centers)
            ok, order = is_collapsible(cob)
            assert ok
            steps = extract_factorization(cob)
            assert [s.center for s in steps] == centers
            assert all(s.kind is StepKind.BLOWUP for s in steps)
            for s in steps:
                assert validate_fan(s.result).ok
                assert supports_equal(s.result, fan)
            assert fans_equal(steps[-1].result if steps else cob.bottom, final)

    def test_blowup_centers_are_smooth_face_barycenters(self, karu):
        # in the all-Up tower every center is the barycenter-primitive of a
        # smooth face of the running front
        front = karu.bottom
        for step in extract_factorization(karu):
            from fancob.fan import minimal_containing_cone

            tau = minimal_containing_cone(front, step.center)
            assert is_smooth(tau)
            assert step.center == tuple(sum(c) for c in zip(*tau.rays))
            front = step.result


def trimming_cycle(graph, remaining):
    """The former witness walk, kept as an oracle: trim nodes without a
    successor among the remaining ones to a fixpoint, then walk least
    successors from the least node left."""
    rem = set(remaining)
    changed = True
    while changed:
        changed = False
        for n in sorted(rem):
            if not any(b in rem for b in graph.successors(n)):
                rem.discard(n)
                changed = True
    path, seen = [min(rem)], {min(rem): 0}
    while True:
        nxt = min(b for b in graph.successors(path[-1]) if b in rem)
        if nxt in seen:
            cycle = tuple(path[seen[nxt]:])
            pivot = cycle.index(min(cycle))
            return cycle[pivot:] + cycle[:pivot]
        seen[nxt] = len(path)
        path.append(nxt)


class TestFindCycle:
    def test_sink_hanging_off_cycle(self):
        # a node reachable from a cycle but not on it must not derail the walk
        a, b, x = ("a",), ("b",), ("x",)
        graph = CollapseGraph(
            nodes=(a, b, x),
            edges=((a, b), (a, x), (b, a)),
            circuits={},
            cones={},
        )
        cycle = _find_cycle(graph)
        assert set(cycle) == {a, b}
        for s, t in zip(cycle, cycle[1:] + cycle[:1]):
            assert (s, t) in graph.edges

    def test_random_digraphs_against_trimming_walk(self):
        # the witness is a simple cycle inside one component, rotated to its
        # least node, and the former walk's whenever one component is cyclic
        rng = random.Random(19)
        checked = 0
        for _ in range(600):
            nodes = tuple((i,) for i in range(rng.randint(2, 9)))
            edges = tuple(sorted(
                (a, b) for a in nodes for b in nodes if a != b and rng.random() < 0.25
            ))
            graph = CollapseGraph(nodes, edges, {}, {})
            comp = _components(graph)
            nontrivial = {comp[a] for a, b in edges if comp[a] == comp[b]}
            if not nontrivial:
                continue
            checked += 1
            cycle = _find_cycle(graph)
            assert len(set(cycle)) == len(cycle) >= 2
            assert cycle[0] == min(cycle)
            assert len({comp[n] for n in cycle}) == 1
            for s, t in zip(cycle, cycle[1:] + cycle[:1]):
                assert (s, t) in edges
            if len(nontrivial) == 1:
                # the nodes a topological sort leaves: those a cycle reaches
                stuck = {n for n in nodes if any(reaches(graph, c, n) for c in cycle)}
                assert cycle == trimming_cycle(graph, stuck)
        assert checked > 200

    def test_two_components_joined_by_a_path(self):
        # 0 <-> 3 and 1 <-> 2 with the edge 0 -> 1 between them: the walk
        # stays in the component of the least cyclic node, where the former
        # walk followed 0 -> 1 into the other one
        n0, n1, n2, n3 = (0,), (1,), (2,), (3,)
        graph = CollapseGraph(
            nodes=(n0, n1, n2, n3),
            edges=((n0, n1), (n0, n3), (n1, n2), (n2, n1), (n3, n0)),
            circuits={},
            cones={},
        )
        assert _find_cycle(graph) == (n0, n3)
        assert trimming_cycle(graph, set(graph.nodes)) == (n1, n2)


def reaches(graph, src, dst) -> bool:
    seen, stack = set(), [src]
    while stack:
        n = stack.pop()
        if n == dst:
            return True
        if n not in seen:
            seen.add(n)
            stack.extend(graph.successors(n))
    return False


class TestExports:
    def test_components_match_reachability(self):
        # both ends of an edge share a component iff the head reaches the tail
        from fancob.collapse import CollapseGraph

        rng = random.Random(7)
        for _ in range(300):
            nodes = tuple((i,) for i in range(rng.randint(1, 9)))
            edges = tuple(sorted(
                (a, b) for a in nodes for b in nodes if a != b and rng.random() < 0.2
            ))
            graph = CollapseGraph(nodes, edges, {}, {})
            comp = _components(graph)
            assert set(comp) == set(nodes)
            for a, b in edges:
                assert (comp[a] == comp[b]) == reaches(graph, b, a)

    def test_dot_highlights_cycle(self, cyclic):
        graph = circuit_graph(cyclic)
        dot = to_dot(graph)
        assert dot.startswith("digraph circuits {")
        assert dot.count("->") == 3
        assert dot.count("color=red") == 3
        assert "+(" in dot and "-(" in dot

    def test_dot_acyclic_has_no_highlight(self, karu):
        dot = to_dot(circuit_graph(karu))
        assert dot.count("->") == 3
        assert "color=red" not in dot

    def test_transcript_structure(self, karu):
        doc = transcript(extract_factorization(karu))
        assert [s["kind"] for s in doc["steps"]] == ["blowup"] * 3
        assert doc["steps"][0]["center"] == [1, 1, 0]
        assert all("result" in s and "max_cones" in s["result"] for s in doc["steps"])
