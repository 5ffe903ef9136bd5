"""Circuit graph, collapsibility, projection-smoothness, factorization."""

from __future__ import annotations

import dataclasses
import random
from math import comb

import pytest

from fancob import fan as fanmod
from fancob.cobordism import Cobordism, build_cobordism
from fancob.collapse import (
    StepKind,
    _components,
    _projected_face,
    circuit_graph,
    extract_factorization,
    is_collapsible,
    is_pi_nonsingular,
    to_dot,
    transcript,
)
from fancob.errors import BrokenFan, FrontMismatch, InvalidFan, NotCollapsible
from fancob.fan import Fan, SimplicialCone, fans_equal, is_smooth, star_subdivide, validate_fan
from conftest import orthant_fan, random_center_sequence, random_smooth_fan

D1 = tuple(sorted([(1, 0, 0, 0), (0, 1, 0, 0), (1, 1, 0, 1)]))
D2 = tuple(sorted([(0, 1, 0, 0), (0, 0, 1, 0), (0, 1, 1, 2)]))
D3 = tuple(sorted([(1, 1, 0, 1), (0, 0, 1, 0), (1, 1, 1, 3)]))


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

    def test_front_mismatch(self, karu):
        doctored = dataclasses.replace(karu, bottom=karu.top)
        with pytest.raises(FrontMismatch):
            extract_factorization(doctored)

    def test_broken_fan(self, karu):
        # an extra overlapping cone in the front makes the first new front invalid
        extra = SimplicialCone(((1, 0, 0), (0, 1, 0), (1, 1, 1)))
        doctored = dataclasses.replace(
            karu, bottom=Fan(3, karu.bottom.max_cones + (extra,))
        )
        with pytest.raises(BrokenFan):
            extract_factorization(doctored)


def ring_cobordism(n: int) -> Cobordism:
    """A complete smooth plane fan with n cones, grown from the projective
    plane by blowups of adjacent rays, and its 2n centers: a + b for every
    cone (a, b), then the nested center a + (a + b) for each."""
    rng = random.Random(0)
    ring = [(1, 0), (0, 1), (-1, -1)]
    while len(ring) < n:
        i = rng.randrange(len(ring))
        ring.insert(i + 1, tuple(x + y for x, y in zip(ring[i], ring[(i + 1) % len(ring)])))
    pairs = [(ring[i], ring[(i + 1) % n]) for i in range(n)]
    fan = Fan(2, tuple(SimplicialCone(p) for p in pairs))
    mids = [tuple(x + y for x, y in zip(a, b)) for a, b in pairs]
    nested = [tuple(2 * x + y for x, y in zip(a, b)) for a, b in pairs]
    return build_cobordism(fan, mids + nested)


def full_check_outcome(cob: Cobordism):
    """The fronts extract_factorization walks, each checked whole by
    validate_fan: the list of fronts, or the BrokenFan text of the first
    invalid one."""
    graph = circuit_graph(cob)
    ok, order = is_collapsible(cob)
    assert ok
    front, fronts = cob.bottom, []
    for key in order:
        circ, star = graph.circuits[key], graph.cones[key]
        lower = {_projected_face(c, p) for c in star for p in circ.pos}
        upper = {_projected_face(c, n) for c in star for n in circ.neg}
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


class TestIncrementalFrontCheck:
    """extract_factorization checks only the pairs a crossing creates; its
    verdicts and BrokenFan texts must be those of whole-front validate_fan."""

    def test_valid_fronts_agree(self, karu):
        for cob in differential_corpus(karu):
            assert incremental_outcome(cob) == full_check_outcome(cob)

    def test_fresh_pair_failure_at_every_crossing(self, karu):
        # a pair check that rejects every pair holding one cone first seen at
        # crossing k: both checks must fail there, with the same text
        real = fanmod._pair_problem
        crossings = 0
        for cob in differential_corpus(karu):
            seen = set(cob.bottom.max_cones)
            for front in full_check_outcome(cob):
                fresh = set(front.max_cones) - seen
                seen |= fresh
                if not fresh:
                    continue
                bad = max(fresh, key=lambda c: c.rays)

                def doctored(a, b, bad=bad):
                    return f"doctored pair {a} and {b}" if bad in (a, b) else real(a, b)

                with pytest.MonkeyPatch.context() as mp:
                    mp.setattr(fanmod, "_pair_problem", doctored)
                    text = incremental_outcome(cob)
                    assert text == full_check_outcome(cob)
                    assert text.endswith(f"\n{validate_fan(front)}")
                crossings += 1
        assert crossings >= 30

    def test_broken_fan_after_first_crossing(self, karu):
        # a cone on the far side of the plane x = 0 shares the face (e2, e3)
        # with the orthant: fine until the center (0,1,1) splits that face
        extra = SimplicialCone(((-1, 0, 0), (0, 1, 0), (0, 0, 1)))
        doctored = dataclasses.replace(karu, bottom=Fan(3, karu.bottom.max_cones + (extra,)))
        with pytest.raises(BrokenFan) as exc:
            extract_factorization(doctored)
        second = extract_factorization(karu)[1].result
        front = Fan(3, second.max_cones + (extra,))
        report = validate_fan(front)
        assert len(report.problems) == 2
        assert str(exc.value) == f"front after crossing {list(D2)} is invalid:\n{report}"
        assert str(exc.value) == full_check_outcome(doctored)

    def test_pair_check_count(self, monkeypatch):
        # all pairs at the first crossing, then only pairs touching a fresh cone
        cob = ring_cobordism(16)
        calls = 0
        real = fanmod._pair_problem

        def counting(a, b):
            nonlocal calls
            calls += 1
            return real(a, b)

        monkeypatch.setattr(fanmod, "_pair_problem", counting)
        steps = extract_factorization(cob)
        fronts = [set(s.result.max_cones) for s in steps]
        assert len(fronts) == 32
        expected = comb(len(fronts[0]), 2) + sum(
            comb(len(new), 2) - comb(len(new & old), 2) for old, new in zip(fronts, fronts[1:])
        )
        assert calls == expected == 2089
        # whole-front revalidation would check about 8.5 times as many pairs
        assert sum(comb(len(f), 2) for f in fronts) == 17744

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


class TestFindCycle:
    def test_sink_hanging_off_cycle(self):
        # a node reachable from a cycle but not on it must not derail the walk
        from fancob.collapse import CollapseGraph, _find_cycle

        a, b, x = ("a",), ("b",), ("x",)
        graph = CollapseGraph(
            nodes=(a, b, x),
            edges=((a, b), (a, x), (b, a)),
            circuits={},
            cones={},
        )
        cycle = _find_cycle(graph, {a, b, x})
        assert set(cycle) == {a, b}
        for s, t in zip(cycle, cycle[1:] + cycle[:1]):
            assert (s, t) in graph.edges


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
