"""Circuits stored on a Cobordism.  build_cobordism reads them off the
construction and from_fan computes one circuit_of per maximal cone; either
way they must be circuit_of's, in fan order, and a doctored construction
coefficient must fail the exact check, also under python -O."""

from __future__ import annotations

import json
import random

import pytest

from fancob import fan as fanmod
from fancob.cobordism import Cobordism, build_cobordism, circuit_of, cobordism_from_doc
from fancob.demos import karu_counterexample, noncollapsible_example
from fancob.errors import AssertionFailed
from conftest import FIXTURES, KARU_CENTERS, orthant_fan, ring_chain
from test_facet_boundary import random_lift_case


def recomputed(cob: Cobordism) -> tuple:
    return tuple(circuit_of(c) for c in cob.fan.max_cones)


class TestStoredCircuits:
    def test_lift_corpus(self):
        # the corpus of TestLiftByConstruction: base dims 2-4, bases of
        # determinant +-2 or +-3, lower-dimensional and impure cones
        rng = random.Random(670)
        corpus = [random_lift_case(rng, d) for d in (2, 3, 4) for _ in range(110)]
        seen = {"circuits": 0, "height-0 copies": 0, "lower-dimensional": 0, "non-unit D": 0}
        for case in corpus:
            cob = build_cobordism(case["fan"], case["centers"], case["heights"])
            assert cob.circuits == recomputed(cob), (case["fan"], case["centers"])
            assert cob == Cobordism.from_fan(cob.fan, cob.base_dim)
            for cone, circ in zip(cob.fan.max_cones, cob.circuits):
                if circ is None:
                    seen["height-0 copies"] += 1
                    continue
                seen["circuits"] += 1
                seen["lower-dimensional"] += cone.dim < cone.ambient_dim
                seen["non-unit D"] += abs(circ.relation[circ.rays.index(circ.pos[0])]) > 1
        assert min(seen.values()) >= 80, seen

    def test_ring_chain_demos_and_fixtures(self):
        karu = karu_counterexample()
        cobs = [build_cobordism(*ring_chain(n)) for n in (8, 16, 32)]
        cobs += [karu.cobordism, Cobordism.from_fan(karu.final_fan, 3), noncollapsible_example()]
        cobs += [cobordism_from_doc(json.loads(p.read_text()))[0] for p in sorted(FIXTURES.glob("*.cob"))]
        assert len(cobs) == 12
        for cob in cobs:
            assert len(cob.circuits) == len(cob.fan.max_cones)
            assert cob.circuits == recomputed(cob), cob.fan.max_cones

    def test_doctored_coefficient(self, monkeypatch):
        # one more unit on the first positive coordinate of the t-th center
        # gives a relation whose base part is a nonzero multiple of a ray;
        # heights far apart keep the doctored sheet below the center
        real = fanmod._locate
        fan, centers = ring_chain(8)
        doctored_at = None
        calls = 0

        def doctored(cones, point, start=None):
            nonlocal calls
            tau, sigma, coords = real(cones, point, start)
            if calls == doctored_at:
                i = next(i for i, s in enumerate(coords) if s)
                coords = coords[:i] + (coords[i] + 1,) + coords[i + 1:]
            calls += 1
            return tau, sigma, coords

        monkeypatch.setattr(fanmod, "_locate", doctored)
        for fan, centers in ((orthant_fan(), KARU_CENTERS), (fan, centers)):
            heights = [10 ** (t + 1) for t in range(len(centers))]
            for doctored_at in range(len(centers)):
                calls = 0
                with pytest.raises(AssertionFailed) as failed:
                    build_cobordism(fan, centers, heights)
                message = str(failed.value)
                assert message.startswith("relation ") and message.endswith(", not to e"), message
                assert calls == doctored_at + 1
            doctored_at = None
            assert build_cobordism(fan, centers, heights).circuits
