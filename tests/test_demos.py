"""Midray schedules and the two canned verification bundles."""

from __future__ import annotations

import random

import pytest

from fancob.cobordism import (
    Cobordism,
    ConeClass,
    build_cobordism,
    circuit_of,
    classify,
    validate_cobordism,
)
from fancob.collapse import is_collapsible, is_pi_nonsingular
from fancob.demos import (
    karu_counterexample,
    midray,
    noncollapsible_report,
    positive_link_centers,
    run_schedule,
)
from fancob import fan as fanmod
from fancob.errors import BrokenFan, EqualRays, NotAllPointingUp
from fancob.exact import primitive
from fancob.fan import Fan, SimplicialCone, supports_equal, validate_fan
from conftest import random_unimodular

MU1 = (2, 1, 1, 3)
MU2 = (1, 2, 2, 5)
ZETA1 = (1, 2, 1, 3)
ZETA2 = (1, 1, 1, 1)
MIXED = SimplicialCone(((1, 2, 2, 5), (1, 1, 0, 1), (1, 2, 1, 3), (1, 1, 1, 1)))


class TestMidray:
    def test_sum_then_normalize(self):
        assert midray((1, 1, 1, 3), (0, 1, 1, 2)) == (1, 2, 2, 5)

    def test_unit_sum(self):
        assert midray((1, 1, 0, 1), (0, 0, 1, 0)) == (1, 1, 1, 1)

    def test_equal_rays(self):
        with pytest.raises(EqualRays):
            midray((1, 0), (1, 0))

    def test_symmetric(self):
        rng = random.Random(6)
        for _ in range(50):
            a = tuple(rng.randint(-5, 5) for _ in range(4))
            b = tuple(rng.randint(-5, 5) for _ in range(4))
            if a == b or all(x + y == 0 for x, y in zip(a, b)):
                continue
            assert midray(a, b) == midray(b, a)


class TestPositiveLinkCenters:
    def test_karu_schedule(self, karu):
        entries = positive_link_centers(karu)
        assert [e.center for e in entries] == [MU1, MU2, ZETA1, ZETA2]

    def test_karu_schedule_sources(self, karu):
        entries = positive_link_centers(karu)
        sources = [e.cone for e in entries]
        # topmost circuit first (the two step-three cones), then step two, then one
        assert {r[-1] for r in sources[0].rays} == {0, 1, 3}
        assert {r[-1] for r in sources[1].rays} == {0, 1, 2, 3}
        assert (0, 1, 1, 2) in sources[2].rays  # second-step cone
        assert (1, 0, 0, 0) in sources[3].rays  # first-step cone

    def test_centers_sit_on_two_faces(self, karu):
        for entry in positive_link_centers(karu):
            circ = circuit_of(entry.cone)
            assert entry.center == midray(circ.pos[0], circ.link[0])

    def test_empty_link_gives_no_entries(self):
        fan2 = Fan(2, (SimplicialCone(((1, 0), (0, 1))),))
        cob = build_cobordism(fan2, [(1, 1)])
        assert positive_link_centers(cob) == []

    def test_mixed_cone_rejected(self):
        cob = Cobordism.from_fan(Fan(4, (MIXED,)))
        with pytest.raises(NotAllPointingUp):
            positive_link_centers(cob)


class TestRunSchedule:
    def test_empty_schedule(self, karu):
        assert run_schedule(karu.fan, []) == karu.fan

    def test_midrays_produce_three_negative_cone(self, karu):
        after = run_schedule(karu.fan, [MU1, MU2])
        hits = []
        for cone in after.max_cones:
            circ = circuit_of(cone)
            if circ and classify(cone) is ConeClass.UP and len(circ.neg) == 3:
                negs = {primitive(r[:-1]) for r in circ.neg}
                if negs == {(1, 1, 0), (0, 1, 1), (0, 0, 1)}:
                    assert circ.pos == ((1, 2, 2, 5),)
                    hits.append(cone)
        assert hits

    def test_full_schedule_contains_mixed_cone(self, karu):
        final = run_schedule(karu.fan, [MU1, MU2, ZETA1, ZETA2])
        assert MIXED in final.max_cones
        assert classify(MIXED) is ConeClass.MIXED

    def test_order_robustness(self, karu):
        for schedule in ([MU2, MU1, ZETA1, ZETA2], [MU1, MU2, ZETA2, ZETA1]):
            final = run_schedule(karu.fan, schedule)
            assert MIXED in final.max_cones

    def test_schedule_preserves_upstairs_support(self, karu):
        from fancob.fan import supports_equal

        final = run_schedule(karu.fan, [MU1, MU2, ZETA1, ZETA2])
        assert supports_equal(karu.fan, final)

    def test_validates_the_input_once(self, karu, monkeypatch):
        # a star subdivision of a valid fan is valid, so only the input is
        # checked, once per call, whatever the number of centers
        calls = []
        with monkeypatch.context() as m:
            m.setattr(fanmod, "validate_fan", lambda fan: calls.append(fan) or validate_fan(fan))
            final = run_schedule(karu.fan, [MU1, MU2, ZETA1, ZETA2])
            assert calls == [karu.fan]
            calls.clear()
            assert run_schedule(karu.fan, []) == karu.fan
            assert calls == [karu.fan]
        assert validate_fan(final).ok

    def test_invalid_input(self):
        overlap = Fan(2, (SimplicialCone(((1, 0), (0, 1))), SimplicialCone(((1, 1), (1, -1)))))
        report = validate_fan(overlap)
        assert not report.ok
        with pytest.raises(BrokenFan) as exc:
            run_schedule(overlap, [(1, 0)])
        assert str(exc.value) == f"input fan is invalid:\n{report}"


class TestKaruCounterexample:
    def test_report_census(self):
        report = karu_counterexample()
        assert len(report.census) == 4
        assert all(cls is ConeClass.UP for _, cls, _, _ in report.census)
        assert all(npos == 1 and nlink == 1 for _, _, npos, nlink in report.census)
        assert len(report.collapse_order) == 3

    def test_report_mixed_cone(self):
        report = karu_counterexample()
        assert report.mixed_cone == MIXED
        assert set(report.mixed_pos) == {(1, 2, 2, 5), (1, 1, 0, 1)}
        assert set(report.mixed_neg) == {(1, 2, 1, 3), (1, 1, 1, 1)}

    def test_report_schedule(self):
        report = karu_counterexample()
        assert [e.center for e in report.schedule] == [MU1, MU2, ZETA1, ZETA2]

    def test_boundary_supports_preserved(self):
        report = karu_counterexample()
        final_cob = Cobordism.from_fan(report.final_fan)
        assert supports_equal(final_cob.bottom, report.cobordism.bottom)
        assert supports_equal(final_cob.top, report.cobordism.top)

    def test_unimodular_invariance(self):
        rng = random.Random(7)
        for _ in range(3):
            u = random_unimodular(rng)
            report = karu_counterexample(base_change=u)
            assert len(report.census) == 4
            assert all(cls is ConeClass.UP for _, cls, _, _ in report.census)
            assert classify(report.mixed_cone) is ConeClass.MIXED


class TestNoncollapsibleExample:
    def test_validates_between_plane_fan(self, cyclic, p2):
        assert validate_cobordism(cyclic, expected_bottom=p2, expected_top=p2).ok

    def test_pi_nonsingular(self, cyclic):
        assert is_pi_nonsingular(cyclic)[0]

    def test_not_collapsible(self, cyclic):
        ok, cycle = is_collapsible(cyclic)
        assert not ok and len(cycle) == 3

    def test_six_cones_all_updown(self, cyclic):
        assert len(cyclic.fan.max_cones) == 6
        assert all(classify(c) is ConeClass.UPDOWN for c in cyclic.fan.max_cones)

    def test_report_bundle(self):
        report = noncollapsible_report()
        assert report == {
            "valid": True,
            "pi_nonsingular": True,
            "collapsible": False,
            "cycle": report["cycle"],
        }
        assert len(report["cycle"]) == 3
