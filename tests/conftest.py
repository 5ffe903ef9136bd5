"""Shared fixtures: the two anchor cobordisms and the random corpus."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest

from fancob.cobordism import Cobordism, build_cobordism
from fancob.demos import noncollapsible_example, projective_plane_fan
from fancob.exact import det, primitive
from fancob.fan import Fan, SimplicialCone, star_subdivide

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

E1, E2, E3 = (1, 0, 0), (0, 1, 0), (0, 0, 1)
KARU_CENTERS = [(1, 1, 0), (0, 1, 1), (1, 1, 1)]

# .cob documents whose bottoms break the fan axioms: three collapsible
# circuits over two overlapping cone pairs, and no circuit at all over a
# cone lying inside another
INVALID_BOTTOM_DOCS = {
    "three-circuits": {
        "base_dim": 2,
        "rays": [[-2, -1, 1], [-2, -1, 3], [-2, 2, 3], [-1, 1, 2], [-1, 1, 3],
                 [-1, 2, 1], [1, -1, 2], [1, 1, 1], [2, 2, 1]],
        "max_cones": [[0, 1, 6], [2, 3, 7], [4, 5, 8]],
    },
    "no-circuit": {
        "base_dim": 2,
        "rays": [[1, 0, 0], [0, 1, 0], [1, 1, 0]],
        "max_cones": [[0, 1], [0, 2]],
    },
}


# a .cob document whose one circuit is degenerate: its relation has one sign
DEGENERATE_CIRCUIT_DOC = {"base_dim": 1, "rays": [[1, 0], [-1, 1]], "max_cones": [[0, 1]]}
# two lifted cones stacked over one base ray: a valid lifted fan whose two
# lower (and two upper) faces project to the same cone
STACKED_FIBRE_DOC = {"base_dim": 1, "rays": [[1, 0], [1, 1], [1, 2], [1, 3]], "max_cones": [[0, 1], [2, 3]]}
STACKED_FIBRE_PROBLEMS = (
    "lower faces cone[(1, 0)] and cone[(1, 2)] project to the same cone",
    "upper faces cone[(1, 1)] and cone[(1, 3)] project to the same cone",
)


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


def minor_gcd_oracle(vs) -> int:
    """gcd of the k x k minors of the k x d matrix, one determinant for each
    of the C(d, k) choices of columns.  0 for dependent vectors (k > d leaves
    no choice), 1 for no vectors."""
    if not vs:
        return 1
    g = 0
    for cols in itertools.combinations(range(len(vs[0])), len(vs)):
        g = gcd(g, det([[v[c] for c in cols] for v in vs]))
        if g == 1:
            break
    return g


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
