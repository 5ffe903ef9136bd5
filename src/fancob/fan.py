"""Simplicial cones and fans in a lattice of rank d.

Cones store their primitive ray generators in canonical (lexicographic)
order, fans store their maximal cones sorted, so equality and hashing are
structural and deterministic.  Faces of a simplicial cone are never stored:
every subset of the rays spans one.

Each cone has one exact record (_cone_solver): the dual basis of its rays
within their span, row n_i pairing to the same D > 0 with ray i and to 0
with every other ray.  A point of the span has coordinate <n_i, x> / D on
ray i.  Each row is an inward facet normal within the span, so membership
(_coordinates), the support test's nudge (_stays_inside), the separating
certificates, the pair test and the double-description cuts are sign tests
on its rows, after a lower-dimensional cone's span equalities
(_span_equalities) vanish on the point.

A star subdivision hands each join c + (sigma - w) of a full-dimensional
sigma its rows by one fraction-free exchange in place of an elimination
(_split_at): with lambda_i = <n_i, c>, the row of c is n_w and the row of
ray i is (lambda_w n_i - lambda_i n_w) / D, each pairing lambda_w with its
own ray and 0 with the others.  The join's |det| is lambda_w by
multilinearity, and D' * A'^-1 at D' = |det A'| is unique, so these are
the rows an elimination gives, entry for entry.

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

A complete fan skips the pairs altogether.  Its certificate
(_complete_certificate, the interior-facet characterization of
triangulations) is linear in the cones: every maximal cone has d rays,
every facet is a facet of exactly two cones with their opposite rays on
opposite sides of it, and one interior point lies in one cone only.
validate_fan tries it first; any other fan falls through after one pass
over the facets, to the pairs (_pairs_report, which also reports the pairs
extract_factorization checks on each front).

All values are immutable; every operation returns new values.
"""

from __future__ import annotations

import bisect
import itertools
import operator
import warnings
from collections.abc import Iterator
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
from .value import Value


_RAYS = operator.attrgetter("rays")  # the sort key of fan order


class RayNormalized(UserWarning):
    """A document carried a non-primitive ray; the loader normalized it."""


class SimplicialCone(Value):
    """A strongly convex simplicial cone, given by primitive ray generators.

    The hash, hash((rays,)), is computed once here, because cones key every
    geometry cache and front set.  The private _dual_basis slot, set only by
    _split_at on a join at its birth, hands _cone_solver the join's rows; it
    takes no part in the value, hash, repr, copy or pickle.
    """

    __slots__ = ("rays", "_hash", "_dual_basis")

    def __init__(self, rays):
        rays = tuple(sorted(tuple(operator.index(x) for x in r) for r in rays))
        super().__init__(rays)
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
        SimplicialCone(rays).  The hot constructor of build and extract: it
        writes the one field and the hash through their slot descriptors,
        two writes in place of Value.__init__'s loop.  Build and extract hand
        it rays lifted or projected once each, through a table per ray, and
        extract looks its lower cones up in the front instead of building
        them."""
        if not rays:
            raise ValueError("a cone needs at least one ray")
        rays = tuple(sorted(rays))
        cone = object.__new__(cls)
        _set_rays(cone, rays)
        _set_hash(cone, hash((rays,)))
        return cone

    @property
    def dim(self) -> int:
        return len(self.rays)

    @property
    def ambient_dim(self) -> int:
        return len(self.rays[0])

    def has_face(self, other: "SimplicialCone") -> bool:
        return set(other.rays) <= set(self.rays)

    def __eq__(self, other):
        # Value.__eq__ inlined: cones are compared on cache and front-set lookups
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.rays == other.rays

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return "cone" + str(list(self.rays))


# the slot writers of _face (and of Fan._sorted, below); tests/test_values.py
# pins the fields they cover, so a new field fails there, not goes unset
_set_rays, _set_hash = SimplicialCone.rays.__set__, SimplicialCone._hash.__set__


class Fan(Value):
    """A simplicial fan: ambient dimension plus its maximal cones.

    The constructor checks only cheap structural facts (matching dimensions,
    no duplicates); the fan axioms are the business of validate_fan, so that
    malformed input can be loaded and reported on rather than crashing.
    """

    __slots__ = ("ambient_dim", "max_cones")

    def __init__(self, ambient_dim: int, max_cones):
        if ambient_dim < 1:
            raise ValueError("ambient dimension must be positive")
        cones = tuple(sorted(set(max_cones), key=_RAYS))
        super().__init__(ambient_dim, cones)
        for c in cones:
            if len(c.rays[0]) != ambient_dim:
                raise DimensionMismatch(
                    f"cone {c} lives in dim {c.ambient_dim}, fan in {ambient_dim}"
                )

    @classmethod
    def _sorted(cls, ambient_dim: int, cones) -> "Fan":
        """The fan on distinct cones of ambient dimension ambient_dim >= 1,
        already in fan order, which its caller has proved (each call site
        says why), such as the ordered list of an _IndexedCones.  Nothing is
        checked or sorted; the value is that of Fan(ambient_dim, cones).
        Like SimplicialCone._face, it writes its two fields through their
        slot descriptors."""
        fan = object.__new__(cls)
        _set_fan_dim(fan, ambient_dim)
        _set_fan_cones(fan, tuple(cones))
        return fan

    @property
    def rays(self) -> tuple[Vec, ...]:
        return tuple(sorted({r for c in self.max_cones for r in c.rays}))

    def __repr__(self) -> str:
        return f"Fan(dim={self.ambient_dim}, {len(self.max_cones)} max cones)"


_set_fan_dim, _set_fan_cones = Fan.ambient_dim.__set__, Fan.max_cones.__set__


class ValidationReport(Value):
    """Outcome of a validity check: empty problem list means valid."""

    __slots__ = ("problems",)

    def __init__(self, problems: tuple[str, ...] = ()):
        super().__init__(problems)

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
    Rows are negated when D < 0, so D = |det M| for a full-dimensional cone;
    D * M^-1 at D = |det M| is unique.

    A join born in _split_at carries its rows (_dual_basis), exchanged from
    its parent's: the rows the reduction would give (see _split_at), with D
    their pairing with the first ray.  Every other cone (input cones,
    loaded documents, the joins of a lower-dimensional parent) is
    eliminated.  The pairings are checked exactly either way.
    """
    v = cone.rays
    rows = getattr(cone, "_dual_basis", None)
    if rows is not None:
        d = sum(map(mul, rows[0], v[0]))
    else:
        if cone.dim == cone.ambient_dim:
            inv, d = _scaled_inverse([[r[i] for r in v] for i in range(cone.dim)])
        else:
            inv, d = _scaled_inverse([[dot(a, b) for b in v] for a in v])
            inv = [[sum(map(mul, row, col)) for col in zip(*v)] for row in inv]
        if d < 0:
            d, inv = -d, [[-x for x in row] for row in inv]
        rows = tuple(map(tuple, inv))
    for i, n in enumerate(rows):
        pairings = [sum(map(mul, n, r)) for r in v]
        # the pairing with ray i is D > 0, so the len(v) - 1 zeros are the rest
        if d <= 0 or pairings[i] != d or pairings.count(0) != len(v) - 1:
            raise AssertionFailed(f"dual row {n} of {cone} does not pair with ray {i} alone")
    return rows


@lru_cache(maxsize=_GEOMETRY_CACHE_SIZE)
def _facet_normals(cone: SimplicialCone) -> tuple[Vec, ...]:
    """The primitive dual basis rows; nothing in the package reads them, but
    bench/run.py clears this cache by name.  The sign tests read the
    _cone_solver rows, each a positive multiple of its copy here: signs, zero
    tests and _cut's generators (split by sign, made primitive) are the same."""
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
    """A generating set (not necessarily extreme) of a ∩ b, cut by b's dual basis rows."""
    gens = list(a.rays)
    for y in _span_equalities(b) if b.dim < b.ambient_dim else ():
        gens = _cut(gens, y, equation=True)
    for w in _cone_solver(b):
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
    for w in _cone_solver(a):
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
    if len(p) != len(cone.rays[0]):
        raise DimensionMismatch(f"point dim {len(p)} != cone ambient dim {cone.ambient_dim}")
    if len(cone.rays) < len(p) and any(sum(map(mul, y, p)) for y in _span_equalities(cone)):
        return None
    return tuple([sum(map(mul, n, p)) for n in _cone_solver(cone)])


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
    apart = [w for w, r in zip(_cone_solver(a), a.rays) if r not in sb]
    for g in _intersection_generators(a, b):
        # g lies in a, and normal i pairs with ray i alone, so g lies in
        # the cone on the common rays iff every other normal vanishes on it
        if any(dot(w, g) for w in apart):
            return (
                f"cones {a} and {b} overlap beyond their common face "
                f"(witness direction {g})"
            )
    return None


def _complete_certificate(fan: Fan) -> bool:
    """A linear-time proof that the fan is valid and complete, or False.

    In ambient dim d >= 2 it holds iff (1) every maximal cone has d rays,
    (2) every facet (a cone's rays minus one) is a facet of exactly two
    cones, (3) the rays opposite each facet have opposite signs on its
    _cone_solver row, and (4) the barycenter of the first cone lies in no
    other cone.  Facets are counted first; solver rows are read only once
    every facet is matched.  Then (De Loera-Rambau-Santos, Triangulations,
    2010, ch. 4; Fulton, Introduction to Toric Varieties, 1993, 1.2):

    - Covering.  Off the facets, let N(x) be the number of cones holding
      x.  Let W be the union of the (d-2)-faces and of the meets of two
      distinct facet hyperplanes, finitely many subspaces of codim 2, so
      the complement of W is connected (d >= 2).  A facet point y off W
      lies in facets of one hyperplane L only, and only in their relative
      interiors; a cone holding y on its boundary holds it on such a facet,
      whose two cones sit on opposite sides of L by (2) and (3).  Crossing L
      at y leaves N unchanged, so N is constant off the facets and W.  The
      barycenter b is off every facet: it is interior to the first cone and
      in no other by (4).  So N = 1 near b, hence everywhere off the facets
      and W: the cones cover R^d (a closed union holding a dense set) and
      their interiors are disjoint.
    - Faces.  Let x be in a cone sigma, in the relative interior of its
      face on the rays A, and let Q = R^d / span(A).  The cones holding A
      project to simplicial cones of Q whose facets, the images of the
      facets holding A, again satisfy (2) and (3), as each row opposite a
      ray outside A vanishes on A.  So they cover Q a constant M >= 1
      times (the covering step in Q, or by hand when dim Q <= 1), and near
      x the cones holding A cover M times.  N = 1 gives M = 1, so a cone
      holding x without A would overlap them in an open set.  Every cone
      tau holding x thus holds A, and sigma meets tau in the cone on their
      shared rays; cones of d distinct rays are never nested.

    The verdict is decided by if, never by assert, and stored nowhere.
    """
    d, cones = fan.ambient_dim, fan.max_cones
    if d < 2 or not cones or any(len(c.rays) != d for c in cones):
        return False
    sides: dict[tuple[Vec, ...], list] = {}
    for c in cones:
        rays = c.rays
        for i in range(d):
            sides.setdefault(rays[:i] + rays[i + 1:], []).append((c, i))
    if any(len(pair) != 2 for pair in sides.values()):
        return False
    for (a, i), (b, j) in sides.values():
        # row i of a pairs to D > 0 with the ray of a opposite the facet
        if sum(map(mul, _cone_solver(a)[i], b.rays[j])) >= 0:
            return False
    first, *rest = cones
    center = _vec_sum(first.rays)
    return all(min(_coordinates(c, center)) < 0 for c in rest)


def validate_fan(fan: Fan) -> ValidationReport:
    """Check the fan axioms by certificate, else pairwise, and report every
    violation.

    A fan that holds _complete_certificate is valid: the report is empty.
    Otherwise each pair of maximal cones, in combinations order, goes
    through _pair_problem; the report lists the problems it finds.
    """
    if _complete_certificate(fan):
        return ValidationReport()
    return _pairs_report(itertools.combinations(fan.max_cones, 2))


def _pairs_report(pairs) -> ValidationReport:
    """The problems _pair_problem finds among the cone pairs, in their order."""
    problems = (_pair_problem(a, b) for a, b in pairs)
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
        holders = self.holders
        for r in cone.rays:
            held = holders.get(r)
            if held is None:
                holders[r] = {cone}
            else:
                held.add(cone)

    def remove(self, cone: SimplicialCone) -> None:
        self.cones.remove(cone)
        del self.ordered[bisect.bisect_left(self.ordered, cone.rays, key=_RAYS)]
        for r in cone.rays:
            self.holders[r].discard(cone)

    def find(self, rays: tuple[Vec, ...]) -> SimplicialCone | None:
        """The cone on exactly these rays, given sorted, or None."""
        i = bisect.bisect_left(self.ordered, rays, key=_RAYS)
        if i < len(self.ordered) and self.ordered[i].rays == rays:
            return self.ordered[i]
        return None

    def holding(self, rays) -> set[SimplicialCone]:
        """The cones holding every one of the (one or more) rays, as a new
        set."""
        return set.intersection(*map(self.holders.__getitem__, rays))


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
    tau = SimplicialCone._face(tuple([r for r, s in zip(sigma.rays, coords) if s > 0]))
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
        if len(sigma.rays) < max(len(sigma.rays[0]), 2):
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
    and the index.

    A join c + (sigma - w) of a full-dimensional sigma is born with its
    dual basis, exchanged from sigma's _cone_solver rows n_i (pairing D with
    ray v_i).  With lambda_i = <n_i, c>, so that c = sum_i lambda_i v_i / D
    and lambda_w > 0, the row of c is n_w and the row of every other v_i is
    (lambda_w n_i - lambda_i n_w) / D: each pairs lambda_w with its own ray
    and 0 with the others, c included.  Replacing column v_w of sigma's
    matrix by c scales |det| = D by lambda_w / D (multilinearity), so the
    rows are D' * A'^-1 at D' = |det A'| = lambda_w, which is unique: the
    integer rows an elimination gives, and the division is exact.  The
    join's record is made at once, so the equal cones extract_factorization
    rebuilds find it by value; _cone_solver checks its pairings.  A
    lower-dimensional sigma's joins are eliminated."""
    star = sorted(cones.holding(tau.rays), key=_RAYS)
    for sigma in star:
        cones.remove(sigma)
        v = sigma.rays
        exchange = len(v) == len(v[0])
        if exchange:
            rows = _cone_solver(sigma)
            d = sum(map(mul, rows[0], v[0]))
            lam = [sum(map(mul, n, center)) for n in rows]
        # the center has a positive coefficient on w, so it lies off
        # span(sigma - w): each join is primitive, distinct and independent
        for w in tau.rays:
            k = v.index(w)
            join = SimplicialCone._face(v[:k] + (center,) + v[k + 1:])
            if exchange:
                nw, lw = rows[k], lam[k]
                dual = [tuple([(lw * x - lv * y) // d for x, y in zip(n, nw)])
                        for n, lv in zip(rows, lam)]
                # the rows of sigma's other rays keep their order; n_w, the
                # row of c, moves to c's place in the join
                del dual[k]
                dual.insert(join.rays.index(center), nw)
                object.__setattr__(join, "_dual_basis", tuple(dual))
                _cone_solver(join)
            cones.add(join)
    return star


# --- exact support covering -----------------------------------------------------


def _stays_inside(cone: SimplicialCone, point: Vec, direction: Vec) -> bool:
    """Is point + t*direction in the cone for all sufficiently small t > 0?

    Membership coefficients are affine in t; the test is first-order exact:
    both point and direction must lie in the cone's span, and each
    coefficient must be positive at t=0, or zero with nonnegative slope.
    """
    at, towards = _coordinates(cone, point), _coordinates(cone, direction)
    if at is None or towards is None:
        return False
    return all(sp > 0 or (sp == 0 and sd >= 0) for sp, sd in zip(at, towards))


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
    inward = _cone_solver(cone)
    for tau, gens in pieces:
        p = _vec_sum(gens)
        for w in _cone_solver(tau):
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
    """Load a fan document; non-primitive rays are normalized with a warning.
    A cone listed twice, in any ray order, is a ParseError."""
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
    first: dict[SimplicialCone, int] = {}  # each cone -> where it is first listed
    for j, idx in enumerate(raw_cones):
        if not isinstance(idx, list) or not idx:
            raise ParseError(f"max_cones[{j}] must be a non-empty index list")
        for i in idx:
            if isinstance(i, bool) or not isinstance(i, int) or not 0 <= i < len(rays):
                raise ParseError(f"max_cones[{j}] holds a bad ray index {i!r}")
        try:
            cone = SimplicialCone(tuple(rays[i] for i in idx))
        except (ValueError, DependentInput, DimensionMismatch) as exc:
            raise ParseError(f"max_cones[{j}] is not a simplicial cone: {exc}") from exc
        earlier = first.setdefault(cone, j)
        if earlier != j:
            raise ParseError(f"max_cones[{j}] repeats max_cones[{earlier}]")
    return Fan(dim, tuple(first))
