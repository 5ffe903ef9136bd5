"""Shared fixtures: the two anchor cobordisms and the random corpus."""

from __future__ import annotations

import random
from fractions import Fraction
from pathlib import Path

import pytest

from fancob.cobordism import Cobordism, build_cobordism
from fancob.demos import noncollapsible_example, projective_plane_fan
from fancob.exact import det, primitive
from fancob.fan import Fan, SimplicialCone, star_subdivide

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

E1, E2, E3 = (1, 0, 0), (0, 1, 0), (0, 0, 1)
KARU_CENTERS = [(1, 1, 0), (0, 1, 1), (1, 1, 1)]


def orthant_fan() -> Fan:
    return Fan(3, (SimplicialCone((E1, E2, E3)),))


@pytest.fixture(scope="session")
def karu() -> Cobordism:
    return build_cobordism(orthant_fan(), KARU_CENTERS)


@pytest.fixture(scope="session")
def cyclic() -> Cobordism:
    return noncollapsible_example()


@pytest.fixture(scope="session")
def p2() -> Fan:
    return projective_plane_fan()


def ring_chain(n: int) -> tuple[Fan, list]:
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
    return fan, mids + nested


def random_unimodular(rng: random.Random, size: int = 3, bound: int = 2):
    """Random integer matrix with determinant +-1, entries in [-bound, bound]."""
    while True:
        m = tuple(tuple(rng.randint(-bound, bound) for _ in range(size)) for _ in range(size))
        if abs(det(m)) == 1:
            return m


def random_smooth_fan(rng: random.Random) -> Fan:
    """A small smooth fan in dim 3: the orthant, optionally mirrored, with up
    to one barycentric warmup subdivision."""
    cones = [SimplicialCone((E1, E2, E3))]
    if rng.random() < 0.5:
        cones.append(SimplicialCone(((-1, 0, 0), E2, E3)))
    fan = Fan(3, tuple(cones))
    if rng.random() < 0.5:
        cone = rng.choice(fan.max_cones)
        face = rng.sample(cone.rays, rng.randint(2, len(cone.rays)))
        center = tuple(sum(c) for c in zip(*face))
        if center not in fan.rays:
            fan = star_subdivide(fan, center)
    return fan


def sample_points(cone: SimplicialCone, rng: random.Random, count: int):
    """Random rational points inside the cone (small positive coefficients)."""
    pts = []
    for _ in range(count):
        lam = [Fraction(rng.randint(1, 12), rng.randint(1, 12)) for _ in cone.rays]
        pts.append(
            tuple(
                sum(l * r[i] for l, r in zip(lam, cone.rays))
                for i in range(cone.ambient_dim)
            )
        )
    return pts


def random_center_sequence(rng: random.Random, fan: Fan, max_steps: int = 4):
    """Barycentric centers that lift validly at sequential heights.

    A center is the primitive generator of the sum of a face's rays (the
    sum itself on smooth fans).  Picks whose lifted center would not clear
    the running graph sheet (sum of the face's recorded heights >= the next
    height) are skipped.  Returns the centers and the directly subdivided
    final fan.
    """
    current = fan
    heights = {r: 0 for r in fan.rays}
    centers = []
    steps = rng.randint(0, max_steps)
    tries = 0
    while len(centers) < steps and tries < 60:
        tries += 1
        cone = rng.choice(current.max_cones)
        face = rng.sample(cone.rays, rng.randint(2, len(cone.rays)))
        center = primitive(tuple(sum(c) for c in zip(*face)))
        if center in current.rays:
            continue
        if sum(heights[r] for r in face) >= len(centers) + 1:
            continue
        heights[center] = len(centers) + 1
        centers.append(center)
        current = star_subdivide(current, center)
    return centers, current
