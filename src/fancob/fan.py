"""Simplicial cones and fans in a lattice of rank d.

Cones store their primitive ray generators in canonical (lexicographic)
order, fans store their maximal cones sorted, so equality and hashing are
structural and deterministic.  Faces of a simplicial cone are never stored:
every subset of the rays spans one.

Each cone has one exact elimination (_cone_solver): the dual basis of its
rays within their span, row n_i pairing to the same D > 0 with ray i and to
0 with every other ray.  A point of the span has coordinate <n_i, x> / D on
ray i, so membership (_coordinates), the first-order nudge of the support
test (_stays_inside) and the facet normals (_facet_normals, the primitive
rows) are sign tests on its rows, after the span equalities
(_span_equalities) vanish on the point.

A running set of maximal cones (_IndexedCones) keeps them in fan order, by
bisection on their rays, next to a ray -> cones index.  Point location
(_locate) walks across facets from a given cone through the index, stepping
over the facet of a negative coordinate, and falls back to a scan of the
ordered list; star subdivision (_split_at) reads its star off the index,
and a Fan is made of the ordered list without sorting (Fan._sorted).

Support containment is decided by one exact, polynomial facet-crossing test
(covered_by_fan): a cone lies in the support of a valid fan iff its
full-dimensional pieces cut by the fan's cones exist and every interior
facet of a piece is crossed into another piece.  The test assumes its fan
passes validate_fan; supports_equal, its one caller, inherits that
precondition (validate_cobordism proves boundary supports equal instead).

Both pair questions, the fan axiom (_pair_problem) and the pieces of the
support test, first look for a separating facet certificate
(_separating_zeros): a facet normal w of one cone is >= 0 on that cone, so
when w <= 0 on every ray of the other cone the intersection lies in the
cone on the other's rays where w vanishes.  The zero sets of successive
certificates are intersected, the running set only shrinks, and a caller
stops at the first set that settles its question.  Every step is an
integer sign test, so a certificate is a proof; only pairs without one take
the double-description pass (_intersection_generators).

All values are immutable; every operation returns new values.
"""

from __future__ import annotations

import bisect
import itertools
import operator
import warnings
from collections.abc import Iterator
from dataclasses import dataclass, field
from functools import lru_cache
from operator import mul

from .errors import AssertionFailed, DependentInput, DimensionMismatch, NotInSupport, ParseError
from .exact import (
    Vec,
    _scaled_inverse,
    dot,
    is_primitive,
    maximal_minor_gcd,
    nonneg_combination,  # unused here; bench/selfcheck.py reads fan.nonneg_combination
    nullspace_basis,
    primitive,
    rank,
    vec_sub,
)


_RAYS = operator.attrgetter("rays")  # the sort key of fan order


class RayNormalized(UserWarning):
    """A document carried a non-primitive ray; the loader normalized it."""


@dataclass(frozen=True)
class SimplicialCone:
    """A strongly convex simplicial cone, given by primitive ray generators.

    The hash is computed once here (the value the dataclass hash gives),
    because cones key every geometry cache and front set.
    """

    rays: tuple[Vec, ...]
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        rays = tuple(sorted(tuple(operator.index(x) for x in r) for r in self.rays))
        object.__setattr__(self, "rays", rays)
        object.__setattr__(self, "_hash", hash((rays,)))
        if not rays:
            raise ValueError("a cone needs at least one ray")
        dims = {len(r) for r in rays}
        if len(dims) != 1:
            raise DimensionMismatch(f"mixed ray dimensions {sorted(dims)}")
        for r in rays:
            if not is_primitive(r):
                raise ValueError(f"ray {r} is not primitive")
        if len(set(rays)) != len(rays):
            raise ValueError("duplicate rays")
        if rank(rays) != len(rays):
            raise DependentInput(f"cone rays {rays} are linearly dependent")

    @classmethod
    def _face(cls, rays: tuple[Vec, ...]) -> "SimplicialCone":
        """The cone on integer rays its caller has proved primitive,
        distinct and linearly independent (each call site says why), such
        as a face of a known cone.  Only emptiness is checked and the rays
        are sorted; the value, hash and repr are those of
        SimplicialCone(rays)."""
        if not rays:
            raise ValueError("a cone needs at least one ray")
        rays = tuple(sorted(rays))
        cone = object.__new__(cls)
        object.__setattr__(cone, "rays", rays)
        object.__setattr__(cone, "_hash", hash((rays,)))
        return cone

    @property
    def dim(self) -> int:
        return len(self.rays)

    @property
    def ambient_dim(self) -> int:
        return len(self.rays[0])

    def has_face(self, other: "SimplicialCone") -> bool:
        return set(other.rays) <= set(self.rays)

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return "cone" + str(list(self.rays))


@dataclass(frozen=True)
class Fan:
    """A simplicial fan: ambient dimension plus its maximal cones.

    The constructor checks only cheap structural facts (matching dimensions,
    no duplicates); the fan axioms are the business of validate_fan, so that
    malformed input can be loaded and reported on rather than crashing.
    """

    ambient_dim: int
    max_cones: tuple[SimplicialCone, ...]

    def __post_init__(self):
        if self.ambient_dim < 1:
            raise ValueError("ambient dimension must be positive")
        cones = tuple(sorted(set(self.max_cones), key=_RAYS))
        object.__setattr__(self, "max_cones", cones)
        for c in cones:
            if c.ambient_dim != self.ambient_dim:
                raise DimensionMismatch(
                    f"cone {c} lives in dim {c.ambient_dim}, fan in {self.ambient_dim}"
                )

    @classmethod
    def _sorted(cls, ambient_dim: int, cones) -> "Fan":
        """The fan on distinct cones of ambient dimension ambient_dim >= 1,
        already in fan order, which its caller has proved (each call site
        says why), such as the ordered list of an _IndexedCones.  Nothing is
        checked or sorted; the value is that of Fan(ambient_dim, cones)."""
        fan = object.__new__(cls)
        object.__setattr__(fan, "ambient_dim", ambient_dim)
        object.__setattr__(fan, "max_cones", tuple(cones))
        return fan

    @property
    def rays(self) -> tuple[Vec, ...]:
        return tuple(sorted({r for c in self.max_cones for r in c.rays}))

    def __repr__(self) -> str:
        return f"Fan(dim={self.ambient_dim}, {len(self.max_cones)} max cones)"


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of a validity check: empty problem list means valid."""

    problems: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.problems

    def __str__(self) -> str:
        if self.ok:
            return "valid"
        return "\n".join(f"- {p}" for p in self.problems)


# --- per-cone exact geometry --------------------------------------------------

# Entries per geometry cache: far above the cones any one fan or cobordism
# touches, and a bound on what a long-lived process keeps.
_GEOMETRY_CACHE_SIZE = 4096


@lru_cache(maxsize=_GEOMETRY_CACHE_SIZE)
def _span_equalities(cone: SimplicialCone) -> tuple[Vec, ...]:
    """Integer normals y with <y, x> = 0 exactly on span(cone)."""
    return tuple(nullspace_basis(cone.rays, cone.ambient_dim))


@lru_cache(maxsize=_GEOMETRY_CACHE_SIZE)
def _cone_solver(cone: SimplicialCone) -> tuple[Vec, ...]:
    """The dual basis of the rays within their span: row n_i pairs to D > 0
    with ray i and to 0 with every other ray, so a point x of span(cone) has
    coordinate <n_i, x> / D on ray i.

    With (N, D) = (D * A^-1, D) from one reduction, the rows are those of N
    for the generator matrix A = M of a full-dimensional cone, and
    sum_j N_ij v_j for the Gram matrix A = G of a lower-dimensional one.
    Rows are negated when D < 0.  The pairings are checked exactly.
    """
    v = cone.rays
    if cone.dim == cone.ambient_dim:
        inv, d = _scaled_inverse([[r[i] for r in v] for i in range(cone.dim)])
    else:
        inv, d = _scaled_inverse([[dot(a, b) for b in v] for a in v])
        inv = [[sum(map(mul, row, col)) for col in zip(*v)] for row in inv]
    if d < 0:
        d, inv = -d, [[-x for x in row] for row in inv]
    rows = tuple(map(tuple, inv))
    for i, n in enumerate(rows):
        if d <= 0 or any(sum(map(mul, n, r)) != (d if i == j else 0) for j, r in enumerate(v)):
            raise AssertionFailed(f"dual row {n} of {cone} does not pair with ray {i} alone")
    return rows


@lru_cache(maxsize=_GEOMETRY_CACHE_SIZE)
def _facet_normals(cone: SimplicialCone) -> tuple[Vec, ...]:
    """Inward facet normals within the span, one per ray: the primitive dual
    basis rows, so on span(cone) the normals cut out exactly the cone."""
    return tuple(primitive(n) for n in _cone_solver(cone))


def _cut(gens: list[Vec], normal: Vec, equation: bool = False) -> list[Vec]:
    """Generators of cone(gens) meeting {<normal,x> >= 0} (or = 0).

    Standard double-description step: keep the generators on the good side
    and adjoin the combinations of strictly opposite pairs.
    """
    pos, zero, neg = [], [], []
    for g in gens:
        s = dot(normal, g)
        (pos if s > 0 else zero if s == 0 else neg).append((g, s))
    keep = {g for g, _ in zero}
    if not equation:
        keep.update(g for g, _ in pos)
    for p, sp in pos:
        for m, sm in neg:
            comb = tuple(sp * x - sm * y for x, y in zip(m, p))
            if any(comb):
                keep.add(primitive(comb))
    return sorted(keep)


def _intersection_generators(a: SimplicialCone, b: SimplicialCone) -> list[Vec]:
    """A generating set (not necessarily extreme) of a ∩ b."""
    gens = list(a.rays)
    for y in _span_equalities(b):
        gens = _cut(gens, y, equation=True)
    for w in _facet_normals(b):
        gens = _cut(gens, w)
    return gens


def _separating_zeros(a: SimplicialCone, b: SimplicialCone) -> Iterator[set[Vec]]:
    """Sets of rays of b, each spanning a cone that holds a ∩ b, proved by
    facet normals of a: one set per normal that is <= 0 on all of b, in
    normal order, each the last one cut down.  No set when no facet normal
    of a is <= 0 on all of b.

    A facet normal w of a is >= 0 on a (also for lower-dimensional a: the
    normals live in its span).  When w <= 0 on every ray of b, a ∩ b lies in
    b ∩ {w = 0}, the cone on the rays of b where w vanishes.  Cones on
    subsets of the independent rays of b meet in the cone on the common
    subset, so the rays where every such w so far vanishes hold a ∩ b.  The
    sets only shrink, so a caller stops at the first one that settles its
    question: it would be settled by the last one too.
    """
    zeros = None
    for w in _facet_normals(a):
        z = set()
        for r in b.rays:
            s = sum(map(mul, w, r))
            if s > 0:
                break
            if s == 0:
                z.add(r)
        else:
            zeros = z if zeros is None else zeros & z
            yield zeros


def is_smooth(cone: SimplicialCone) -> bool:
    """True iff the generators extend to a lattice basis (minor gcd 1)."""
    return maximal_minor_gcd(cone.rays) == 1


def _coordinates(cone: SimplicialCone, p) -> tuple | None:
    """The pairings <n_i, p> of a point with the _cone_solver rows, D times
    its coordinates on the cone's rays, or None when the point lies off
    span(cone).  Only signs of integer (or, for Fraction points, rational)
    dot products decide membership from them."""
    if len(p) != cone.ambient_dim:
        raise DimensionMismatch(f"point dim {len(p)} != cone ambient dim {cone.ambient_dim}")
    if cone.dim < cone.ambient_dim and any(sum(map(mul, y, p)) for y in _span_equalities(cone)):
        return None
    return tuple(sum(map(mul, n, p)) for n in _cone_solver(cone))


def _positive_rays(cone: SimplicialCone, p) -> tuple[Vec, ...] | None:
    """The rays with a positive coefficient in the point's (unique) expansion
    in the cone's generators, or None when the point lies outside the cone."""
    coords = _coordinates(cone, p)
    if coords is None or min(coords) < 0:
        return None
    return tuple(r for r, s in zip(cone.rays, coords) if s > 0)


def cone_contains(cone: SimplicialCone, p) -> bool:
    """Exact membership of a rational point in the cone."""
    return _positive_rays(cone, tuple(p)) is not None


def _pair_problem(a: SimplicialCone, b: SimplicialCone) -> str | None:
    """The fan-axiom violation of one pair of maximal cones, or None.

    A pair passes iff the exact intersection equals the cone on the shared
    rays; nested cones are their own violation.  A separating certificate
    (_separating_zeros, from either cone) whose rays are all shared proves
    a ∩ b = cone(shared) outright: that cone lies in both.  Other pairs run
    the double-description pass, so every message and witness is the one
    it gives.
    """
    sa, sb = set(a.rays), set(b.rays)
    if sa <= sb or sb <= sa:
        return f"nested maximal cones: {a} and {b}"
    shared = sa & sb
    for x, y in ((a, b), (b, a)):
        for zeros in _separating_zeros(x, y):
            if zeros <= shared:
                return None
    apart = [w for w, r in zip(_facet_normals(a), a.rays) if r not in sb]
    for g in _intersection_generators(a, b):
        # g lies in a, and normal i pairs with ray i alone, so g lies in
        # the cone on the common rays iff every other normal vanishes on it
        if any(dot(w, g) for w in apart):
            return (
                f"cones {a} and {b} overlap beyond their common face "
                f"(witness direction {g})"
            )
    return None


def validate_fan(fan: Fan) -> ValidationReport:
    """Check the fan axioms pairwise and report every violation.

    Each pair of maximal cones, in combinations order, goes through
    _pair_problem; the report lists the problems it finds.
    """
    problems = (_pair_problem(a, b) for a, b in itertools.combinations(fan.max_cones, 2))
    return ValidationReport(tuple(p for p in problems if p is not None))


class _IndexedCones:
    """A set of distinct maximal cones, the same cones in fan order and
    their ray -> cones index, updated together in place: the running fan of
    build_cobordism and the front of extract_factorization.  The ordered
    list is kept by bisection on the rays, so a Fan is made of it without
    sorting (Fan._sorted) and a scan runs in fan order."""

    __slots__ = ("cones", "ordered", "holders")

    def __init__(self, cones):
        self.cones: set[SimplicialCone] = set()
        self.ordered: list[SimplicialCone] = []
        self.holders: dict[Vec, set[SimplicialCone]] = {}
        for c in cones:
            self.add(c)

    def add(self, cone: SimplicialCone) -> None:
        if cone in self.cones:
            return
        self.cones.add(cone)
        bisect.insort(self.ordered, cone, key=_RAYS)
        for r in cone.rays:
            self.holders.setdefault(r, set()).add(cone)

    def remove(self, cone: SimplicialCone) -> None:
        self.cones.remove(cone)
        del self.ordered[bisect.bisect_left(self.ordered, cone.rays, key=_RAYS)]
        for r in cone.rays:
            self.holders[r].discard(cone)

    def holding(self, rays) -> set[SimplicialCone]:
        """The cones holding every one of the (one or more) rays."""
        first, *rest = (self.holders[r] for r in rays)
        return first.intersection(*rest)


def minimal_containing_cone(fan: Fan, point) -> SimplicialCone:
    """The unique face of the fan holding the point in its relative interior."""
    return _locate(_IndexedCones(fan.max_cones), tuple(point))[0]


def _locate(cones: _IndexedCones, point, start: SimplicialCone | None = None):
    """minimal_containing_cone on indexed maximal cones: (tau, sigma,
    coords), with tau the face holding the point in its relative interior,
    sigma the maximal cone it was read off and coords the point's
    _coordinates in sigma.

    From a start cone, a visibility walk looks first (_walk); without one,
    or when the walk gives up, the cones are scanned in fan order.  On a
    valid fan the relative interiors of the faces are disjoint, so the face
    on the positive coordinates of any maximal cone holding the point is
    the same one, and the walk changes only the time.  On an invalid fan
    that face can depend on the cone, so callers walk only on fans proved
    valid, and the scan's first cone in fan order decides.
    """
    sigma, coords = _walk(cones, point, start) if start is not None else (None, None)
    if sigma is None:
        for sigma in cones.ordered:
            coords = _coordinates(sigma, point)
            if coords is not None and min(coords) >= 0:
                break
        else:
            raise NotInSupport(f"{point} is outside the fan's support")
    # a subset of sigma's rays
    tau = SimplicialCone._face(tuple(r for r, s in zip(sigma.rays, coords) if s > 0))
    return tau, sigma, coords


def _walk(cones: _IndexedCones, point, sigma: SimplicialCone):
    """Visibility walk (Devillers-Pion-Teillaud, "Walking in a
    triangulation", IJFCS 13, 2002) to a maximal cone holding the point:
    (sigma, coords), or (None, None) when it gives up.

    At a full-dimensional cone whose coordinate on ray i is negative, the
    point lies beyond the facet opposite ray i, and the walk steps to the
    one other cone holding that facet.  It gives up on a lower-dimensional
    cone, at a facet no other cone holds, and after len(cones) steps, since
    a visibility walk need not end on every triangulation.
    """
    for _ in range(len(cones.cones)):
        if sigma.dim < max(sigma.ambient_dim, 2):
            break  # no facet to cross (the facet of a ray is {0})
        coords = _coordinates(sigma, point)
        i = next((i for i, s in enumerate(coords) if s < 0), None)
        if i is None:
            return sigma, coords
        across = cones.holding(sigma.rays[:i] + sigma.rays[i + 1:])
        across.discard(sigma)
        if len(across) != 1:
            break
        sigma = across.pop()
    return None, None


def star_subdivide(fan: Fan, center) -> Fan:
    """Star subdivision of the fan at a primitive lattice ray.

    Every maximal cone containing the center's minimal face is broken into
    the joins of the center with the facets avoiding one minimal-face ray;
    other cones are kept.  Subdividing at an existing ray is the identity.
    """
    center = tuple(operator.index(x) for x in center)
    if not is_primitive(center):
        raise ValueError(f"subdivision center {center} must be primitive")
    cones = _IndexedCones(fan.max_cones)
    if center in cones.holders:
        return fan
    _split_at(cones, center, _locate(cones, center)[0])
    # distinct cones in fan order, and _locate has checked the center's dim
    return Fan._sorted(fan.ambient_dim, cones.ordered)


def _split_at(cones: _IndexedCones, center: Vec, tau: SimplicialCone) -> list[SimplicialCone]:
    """star_subdivide, in place, on indexed maximal cones, at a primitive
    center that is no ray of theirs, with tau = minimal_containing_cone
    already located; returns the star it split in fan order.

    The star, the cones holding every ray of tau, is the intersection of
    the index sets of tau's rays: on any fan, valid or not, the cones a
    scan would pick.  Their joins with the center replace them in the set
    and the index."""
    star = sorted(cones.holding(tau.rays), key=_RAYS)
    for sigma in star:
        cones.remove(sigma)
        # the center has a positive coefficient on w, so it lies off
        # span(sigma - w): each join is primitive, distinct and independent
        for w in tau.rays:
            cones.add(SimplicialCone._face((center,) + tuple(r for r in sigma.rays if r != w)))
    return star


def fans_equal(a: Fan, b: Fan) -> bool:
    """Equality of canonicalized maximal-cone sets."""
    return a.ambient_dim == b.ambient_dim and a.max_cones == b.max_cones


# --- exact support covering -----------------------------------------------------


def _stays_inside(cone: SimplicialCone, point: Vec, direction: Vec) -> bool:
    """Is point + t*direction in the cone for all sufficiently small t > 0?

    Membership coefficients are affine in t; the test is first-order exact:
    both point and direction must lie in the cone's span, and each
    coefficient must be positive at t=0, or zero with nonnegative slope.
    """
    if cone.dim < cone.ambient_dim and any(
        sum(map(mul, y, point)) or sum(map(mul, y, direction)) for y in _span_equalities(cone)
    ):
        return False
    for n in _cone_solver(cone):
        sp = sum(map(mul, n, point))
        if sp < 0 or (sp == 0 and sum(map(mul, n, direction)) < 0):
            return False
    return True


def _vec_sum(vs) -> Vec:
    return tuple(sum(col) for col in zip(*vs))


def covered_by_fan(cone: SimplicialCone, fan: Fan) -> bool:
    """Exact test: is the cone contained in the support of a valid fan?

    Facet-crossing test, polynomial in the number of cones.  With k the
    dimension of the cone, the pieces are the intersections cone ∩ tau of
    dimension k, tau in the fan.  A facet of a piece cut out by a facet
    normal of tau is interior when its relative interior lies in the relative
    interior of the cone; it is crossed when some piece contains x + t*(x - p)
    for all small t > 0, with x the sum of the facet's generators and p the
    sum of the piece's.  The cone is covered iff some piece exists and every
    interior facet is crossed: the uncovered part of the cone would have a
    (k-1)-dimensional frontier inside interior piece facets.

    Precondition: the fan passes validate_fan.  Then the fan is a product
    along the relative interior of each interior facet, so one crossing
    point decides the whole facet; on an invalid fan the verdict is
    meaningless.

    A tau is skipped without the double-description pass when cone ∩ tau
    provably has dimension < k: tau has fewer than k rays, a facet normal
    of the cone is <= 0 on tau (the intersection lies in a facet of the
    cone; the first such normal settles it), or facet normals of tau that
    are <= 0 on the cone vanish together on fewer than k of its rays (the
    intersection lies in a proper face of the cone; the search stops at the
    first such set of normals).
    """
    k = cone.dim
    pieces = []
    for tau in fan.max_cones:
        if tau.dim < k or next(_separating_zeros(cone, tau), None) is not None:
            continue
        if any(len(zeros) < k for zeros in _separating_zeros(tau, cone)):
            continue
        gens = _intersection_generators(cone, tau)
        if rank(gens) == k:
            pieces.append((tau, gens))
    if not pieces:
        return False
    inward = _facet_normals(cone)
    for tau, gens in pieces:
        p = _vec_sum(gens)
        for w in _facet_normals(tau):
            # w >= 0 on the piece, so these generators span piece ∩ {w = 0}
            face = [g for g in gens if dot(w, g) == 0]
            if rank(face) != k - 1:
                continue
            x = _vec_sum(face)
            if any(dot(v, x) <= 0 for v in inward):
                continue  # the facet lies on the cone's boundary
            u = vec_sub(x, p)
            if not any(_stays_inside(t, x, u) for t, _ in pieces):
                return False
    return True


def _first_uncovered(a: Fan, b: Fan) -> SimplicialCone | None:
    """The first maximal cone of a outside the support of the valid fan b,
    or None when |a| is contained in |b|."""
    return next((c for c in a.max_cones if not covered_by_fan(c, b)), None)


def supports_equal(a: Fan, b: Fan) -> bool:
    """Exact equality of |a| and |b| as point sets.

    Precondition: both fans pass validate_fan (see covered_by_fan).
    """
    if a.ambient_dim != b.ambient_dim:
        return False
    return _first_uncovered(a, b) is None and _first_uncovered(b, a) is None


# --- documents -------------------------------------------------------------------


def fan_to_doc(fan: Fan) -> dict:
    """The interchange document: dim, rays, and 0-based ray-index cones."""
    rays = fan.rays
    index = {r: i for i, r in enumerate(rays)}
    return {
        "dim": fan.ambient_dim,
        "rays": [list(r) for r in rays],
        "max_cones": sorted(sorted(index[r] for r in c.rays) for c in fan.max_cones),
    }


def _int_vector(raw, what: str) -> Vec:
    if not isinstance(raw, (list, tuple)) or not raw:
        raise ParseError(f"{what} must be a non-empty list of integers")
    out = []
    for x in raw:
        if isinstance(x, bool) or not isinstance(x, int):
            raise ParseError(f"{what} holds a non-integer entry {x!r}")
        out.append(x)
    return tuple(out)


def fan_from_doc(doc) -> Fan:
    """Load a fan document; non-primitive rays are normalized with a warning."""
    if not isinstance(doc, dict):
        raise ParseError("fan document must be an object")
    try:
        dim = doc["dim"]
        raw_rays = doc["rays"]
        raw_cones = doc["max_cones"]
    except (KeyError, TypeError) as exc:
        raise ParseError(f"fan document missing field {exc}") from exc
    if isinstance(dim, bool) or not isinstance(dim, int) or dim < 1:
        raise ParseError(f"dim must be a positive integer, got {dim!r}")
    if not isinstance(raw_rays, list) or not isinstance(raw_cones, list):
        raise ParseError("rays and max_cones must be lists")
    rays = []
    for i, raw in enumerate(raw_rays):
        v = _int_vector(raw, f"ray {i}")
        if len(v) != dim:
            raise ParseError(f"ray {i} has dimension {len(v)}, expected {dim}")
        if all(x == 0 for x in v):
            raise ParseError(f"ray {i} is the zero vector")
        pv = primitive(v)
        if pv != v:
            warnings.warn(f"ray {i} = {v} normalized to {pv}", RayNormalized, stacklevel=2)
        rays.append(pv)
    cones = []
    for j, idx in enumerate(raw_cones):
        if not isinstance(idx, list) or not idx:
            raise ParseError(f"max_cones[{j}] must be a non-empty index list")
        for i in idx:
            if isinstance(i, bool) or not isinstance(i, int) or not 0 <= i < len(rays):
                raise ParseError(f"max_cones[{j}] holds a bad ray index {i!r}")
        try:
            cones.append(SimplicialCone(tuple(rays[i] for i in idx)))
        except (ValueError, DependentInput, DimensionMismatch) as exc:
            raise ParseError(f"max_cones[{j}] is not a simplicial cone: {exc}") from exc
    return Fan(dim, tuple(cones))
