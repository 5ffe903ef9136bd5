"""Fans in the lifted lattice N + Z, circuits, and cobordism construction.

A cobordism lives one dimension up: rays carry a height coordinate, and the
projection drops it.  A maximal cone whose projected rays are dependent has a
unique minimal dependent subset (its circuit); the dependency is the
coefficient vector of the height direction in the cone's rays, read off the
dual basis of its rays.  Its signs split the circuit rays into positive and
negative ones and drive everything downstream (pointing classification, the
lower and upper boundary, collapsibility, factorization).
"""

from __future__ import annotations

import enum
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from operator import mul

from .errors import (
    AssertionFailed,
    CenterAlreadyRay,
    CenterNotInSupport,
    DegenerateHeights,
    DimensionMismatch,
    InvalidFan,
    NotInSupport,
    ParseError,
)
from .exact import Vec, primitive, rank
from . import fan as fanmod
from .fan import Fan, SimplicialCone, ValidationReport, fan_from_doc, fan_to_doc


class Side(enum.Enum):
    LOWER = "lower"
    UPPER = "upper"


class ConeClass(enum.Enum):
    INDEPENDENT = "Independent"
    UP = "Up"
    DOWN = "Down"
    UPDOWN = "UpDown"
    MIXED = "Mixed"
    DEGENERATE = "Degenerate"


def base_part(v: Vec) -> Vec:
    return v[:-1]


def project(cone: SimplicialCone) -> tuple[tuple[Vec, ...], bool]:
    """Projected generators (height dropped, not re-primitivized) and whether
    they are linearly independent."""
    projs = tuple(base_part(r) for r in cone.rays)
    return projs, rank(projs) == len(projs)


@dataclass(frozen=True)
class Circuit:
    """The minimal dependent ray subset of a lifted cone, with its signs.

    rays and relation are aligned; the relation has entry gcd 1 and is
    normalized so that the height pairing sum(r_i * h_i) is positive.  pos
    and neg partition the circuit rays by strict sign; link holds the
    remaining rays of the particular cone the circuit was computed in.
    """

    rays: tuple[Vec, ...]
    relation: tuple[int, ...]
    pos: tuple[Vec, ...]
    neg: tuple[Vec, ...]
    link: tuple[Vec, ...]

    @property
    def key(self) -> tuple[Vec, ...]:
        return self.rays


def circuit_of(cone: SimplicialCone) -> Circuit | None:
    """The circuit of a lifted cone, or None when it is projection-independent.

    A relation sum r_i pi(v_i) = 0 of the projected rays lifts to
    sum r_i v_i = (sum r_i h_i) e, e = e_{d+1}, so the relation exists iff e
    is in span(cone) (no _span_equalities row has a nonzero last entry) and
    is then the coefficient vector of e.  The dual basis row n_i of v_i
    (fan._cone_solver) pairs to the same D > 0 with v_i and to 0 with every
    other ray, so that coefficient is n_i[-1] / D.  The result is checked
    exactly: it maps the rays to a positive multiple of e.
    """
    if cone.dim < cone.ambient_dim and any(y[-1] for y in fanmod._span_equalities(cone)):
        return None
    return _checked_circuit(cone, primitive([n[-1] for n in fanmod._cone_solver(cone)]))


def _checked_circuit(cone: SimplicialCone, rel: tuple[int, ...]) -> Circuit:
    """The circuit of a lifted cone from a primitive relation aligned with
    its rays, checked exactly: the relation must map the rays to a positive
    multiple of e = e_{d+1}, else AssertionFailed.  On independent rays that
    relation is unique, so every correct one gives circuit_of's circuit."""
    image = [sum(map(mul, rel, column)) for column in zip(*cone.rays)]
    if any(image[:-1]) or image[-1] <= 0:
        raise AssertionFailed(f"relation {rel} maps the rays of {cone} to {image}, not to e")
    rays, relation = zip(*((r, c) for r, c in zip(cone.rays, rel) if c))
    return Circuit(
        rays=rays,
        relation=relation,
        pos=tuple(r for r, c in zip(rays, relation) if c > 0),
        neg=tuple(r for r, c in zip(rays, relation) if c < 0),
        link=tuple(r for r, c in zip(cone.rays, rel) if not c),
    )


def circuit_class(c: Circuit | None) -> ConeClass:
    """Pointing classification from circuit signs; None is a
    projection-independent cone."""
    if c is None:
        return ConeClass.INDEPENDENT
    p, n = len(c.pos), len(c.neg)
    if p == 0 or n == 0:
        return ConeClass.DEGENERATE
    if p == 1 and n == 1:
        return ConeClass.UPDOWN
    if p == 1:
        return ConeClass.UP
    if n == 1:
        return ConeClass.DOWN
    return ConeClass.MIXED


def classify(cone: SimplicialCone) -> ConeClass:
    """Pointing classification of a lifted cone from its circuit signs."""
    return circuit_class(circuit_of(cone))


def boundary(fan: Fan, side: Side) -> tuple[SimplicialCone, ...]:
    """The lower (upper) boundary faces of a lifted fan without vertical rays,
    in canonical order.

    With e = e_{d+1} the height direction and, for a maximal cone tau with e
    in its span, pos(tau) = circuit_of(tau).pos, the rays where e has a
    positive coefficient in the rays of tau:

    - a projection-independent maximal cone (circuit_of gives None, as its
      span misses e) is a face on both sides;
    - for any other maximal cone sigma and v in circuit_of(sigma).pos
      (.neg), the face sigma minus v is a lower (upper) face when no other
      maximal cone holds every ray of the face.

    The boundary is the set of maximal projection-independent faces G whose
    barycenter x, nudged by -e (+e), leaves the support for every small
    enough nudge: the two-sided facet structure of Morelli (J. Algebraic
    Geom. 5, 1996) and Abramovich-Karu-Matsuki-Wlodarczyk (JAMS 15, 2002,
    section 2).  On a fan that passes validate_fan the rule gives exactly
    these faces (the lower side; the upper one is the same with +e):

    1. Near x the support is the union of the maximal cones tau holding G:
       a cone holding x meets such a tau in a face of both that holds x,
       hence G, and a cone missing x misses a neighbourhood of x.  Near x,
       tau is x + (tau + span G), so G qualifies iff -e lies in no
       tau + span G, and -e lies in tau + span G iff e is in span tau and
       pos(tau) is inside G.  A qualifying G is projection-independent, as
       e in span G would put -e in every tau + span G.  A face of the first
       kind qualifies (e misses its span, and a second cone holding it
       would be nested) and is a maximal cone.  A face sigma minus v of the
       second kind qualifies (v is in pos(sigma), and sigma alone holds
       it), and the only larger face, sigma, has e in its span.
    2. Let G qualify and be of neither kind.  In the quotient by span G,
       with bars for images, -ebar lies in no cone taubar of the star of G.
       Some tau in the star has taubar off the ray through ebar: G itself
       is no maximal cone (it would be of the first kind), a single
       tau = G + u with ubar on that ray has u in pos(tau) (G would be of
       the second kind), and two such cones would overlap.  Take pbar
       generic in the relative interior of taubar, off the line of ebar,
       and walk qbar = pbar - t ebar from t = 0 up.  For large t, qbar
       points nearly along -ebar and lies outside the star; at the last t
       where it lies inside, qbar is nonzero, so the face F of a star cone
       holding qbar in its relative interior strictly holds G.  With q
       the lift of qbar with positive coefficients on the rays of F outside
       G, the points x + s q lie in the relative interior of F for s > 0,
       and step 1 at those points shows that F qualifies, since
       qbar - t ebar leaves the star for slightly larger t.
    3. So every maximal qualifying face is of one of the two kinds, and by
       step 1 each face of those kinds is qualifying and maximal.

    On a fan that fails validate_fan the same rule runs; its faces are then
    the rule's and carry no such guarantee.
    """
    return _boundary(fan, [circuit_of(c) for c in fan.max_cones], side)


def _boundary(fan: Fan, circuits: list[Circuit | None], side: Side) -> tuple[SimplicialCone, ...]:
    """boundary, given circuit_of of each maximal cone in fan order."""
    holders: dict[Vec, set[int]] = {}
    for i, cone in enumerate(fan.max_cones):
        for r in cone.rays:
            holders.setdefault(r, set()).add(i)
    faces = []
    for i, (cone, circ) in enumerate(zip(fan.max_cones, circuits)):
        if circ is None:
            faces.append(cone.rays)
            continue
        for v in circ.pos if side is Side.LOWER else circ.neg:
            face = tuple(r for r in cone.rays if r != v)
            if set.intersection(*(holders[r] for r in face)) == {i}:
                faces.append(face)
    # each face is a subset of its cone's rays
    return tuple(SimplicialCone._face(f) for f in sorted(faces))


def _projected_fan(faces, base_dim: int) -> Fan:
    # a boundary face misses a circuit ray or has none, so its projected
    # rays are independent (and nonzero, as from_fan refuses vertical rays)
    cones = tuple(
        SimplicialCone._face(tuple(primitive(base_part(r)) for r in f.rays)) for f in faces
    )
    return Fan(base_dim, cones)


@dataclass(frozen=True)
class Cobordism:
    """A lifted fan together with its boundary data and circuits.

    bottom and top must be the projections of the lower and upper boundary
    faces, computed once at construction and cached here: validate_cobordism
    proves their supports equal and does not compare them.  circuits is
    aligned with fan.max_cones: the circuit_of of each maximal cone, None for
    a projection-independent one, computed once by from_fan or read off the
    construction by build_cobordism.  Every reader of a cobordism's circuits
    (the single-cone checks, the circuit graph, the smoothness test, the CLI
    and the demos) takes them from here.
    """

    base_dim: int
    fan: Fan
    lower_faces: tuple[SimplicialCone, ...]
    upper_faces: tuple[SimplicialCone, ...]
    bottom: Fan
    top: Fan
    circuits: tuple[Circuit | None, ...] = field(repr=False)

    @classmethod
    def from_fan(cls, fan: Fan, base_dim: int | None = None) -> "Cobordism":
        """The cobordism of a lifted fan; a vertical ray raises InvalidFan.

        Computes each maximal cone's circuit once (kept as circuits), the
        boundary faces read off them and their projections, and nothing
        else, in polynomial time on every fan.  Only on a fan that passes
        validate_fan (checked by validate_cobordism, not here) are they the
        boundary proved in boundary's docstring.
        """
        if base_dim is None:
            base_dim = fan.ambient_dim - 1
        if fan.ambient_dim != base_dim + 1:
            raise DimensionMismatch(
                f"lifted fan dim {fan.ambient_dim} != base_dim {base_dim} + 1"
            )
        if base_dim < 1:
            raise ValueError("base dimension must be positive")
        for r in fan.rays:
            if all(x == 0 for x in base_part(r)):
                raise InvalidFan(f"vertical ray {r} (zero projection) is not allowed")
        return cls._with_circuits(fan, base_dim, tuple(circuit_of(c) for c in fan.max_cones))

    @classmethod
    def _with_circuits(cls, fan: Fan, base_dim: int, circuits) -> "Cobordism":
        """The cobordism of a lifted fan of dim base_dim + 1 >= 2 without
        vertical rays, given the circuit of each maximal cone in fan order
        (each caller says why they are those of circuit_of)."""
        lower, upper = _boundary(fan, circuits, Side.LOWER), _boundary(fan, circuits, Side.UPPER)
        return cls(
            base_dim=base_dim,
            fan=fan,
            lower_faces=lower,
            upper_faces=upper,
            bottom=_projected_fan(lower, base_dim),
            top=_projected_fan(upper, base_dim),
            circuits=circuits,
        )


def _cone_problems(cob: Cobordism) -> list[str]:
    """The checks read off single cones: degenerate circuits, and boundary
    faces projecting to the same cone (each projects injectively)."""
    problems = []
    for cone, circ in zip(cob.fan.max_cones, cob.circuits):
        if circuit_class(circ) is ConeClass.DEGENERATE:
            problems.append(f"degenerate circuit in maximal cone {cone}")
    for side, faces in (("lower", cob.lower_faces), ("upper", cob.upper_faces)):
        seen: dict[tuple[Vec, ...], SimplicialCone] = {}
        for f in faces:
            proj = tuple(sorted(primitive(base_part(r)) for r in f.rays))
            if proj in seen:
                problems.append(
                    f"{side} faces {seen[proj]} and {f} project to the same cone"
                )
            seen[proj] = f
    return problems


def validate_cobordism(
    cob: Cobordism,
    expected_bottom: Fan | None = None,
    expected_top: Fan | None = None,
) -> ValidationReport:
    """Full validity check: fan axioms upstairs, the single-cone checks
    (_cone_problems), fan axioms of bottom and top, expected boundaries.

    The lifted fan goes through validate_fan once.  A lifted fan that fails
    it gets the upstairs problems alone: its boundary faces carry no
    guarantee, so nothing downstairs is checked.

    Supports need no check: on a valid lifted fan without degenerate
    circuits, |bottom| = pi|fan| = |top|.  A cone holding -e (+e) has e in
    its span with coefficients <= 0 (>= 0), a circuit with no positive (no
    negative) ray, so every vertical fiber of the support is bounded.  Its
    lowest point p lies in the relative interior of a face F, which is
    projection-independent, else p - te stays in F for small t > 0.  Near
    p the fan is a product along relint F (step 1 of boundary's docstring),
    so F qualifies as there and lies in a maximal qualifying face G, a lower
    face; pi(p) is in pi(G).  The highest points give |top| = pi|fan| alike.
    """
    problems = [f"upstairs: {p}" for p in fanmod.validate_fan(cob.fan).problems]
    if problems:
        return ValidationReport(tuple(problems))
    problems += _cone_problems(cob)
    for name, bfan in (("bottom", cob.bottom), ("top", cob.top)):
        problems += [f"{name}: {p}" for p in fanmod.validate_fan(bfan).problems]
    if expected_bottom is not None and not fanmod.fans_equal(cob.bottom, expected_bottom):
        problems.append("bottom fan differs from the expected fan")
    if expected_top is not None and not fanmod.fans_equal(cob.top, expected_top):
        problems.append("top fan differs from the expected fan")
    return ValidationReport(tuple(problems))


def build_cobordism(delta: Fan, centers, heights=None) -> Cobordism:
    """Record a star-subdivision sequence as a cobordism over the input fan.

    Rays of the input fan sit at height 0 and the t-th center at heights[t]
    (1, 2, 3, ... by default).  Each step lifts the star it subdivides,
    joining each cone to the lifted center; the input fan's cones left in
    the final fan enter at height 0 so that the bottom always projects back
    to the input fan.

    An input fan that fails validate_fan raises InvalidFan with its report
    before any center is located.  On a valid one the result is proved
    valid, and no validate_cobordism runs.  A star subdivision of a valid
    simplicial fan is a valid fan with the same support (Ewald 1996, III.2;
    Fulton 1993, 2.4), so the top's fan axioms hold.  The lifted fan is
    valid by construction, by the graph-sheet argument of Morelli
    (J. Algebraic Geom. 5, 1996) and Abramovich-Karu-Matsuki-Wlodarczyk
    (JAMS 15, 2002, section 2).  Write Delta_t for the running fan before
    the t-th center c_t (Delta_0 = delta; each is valid by the theorem
    above, and keeps every ray of the last), h_t for its height, g_t for
    the function on |delta| that is linear on each cone of Delta_t with the
    recorded ray heights (g_0 = 0), and lift_t(sigma) for the cone on the
    rays (r, g_t(r)), r in sigma.  Each base ray has one height, so lifted
    cones share exactly the lifts of the base rays they share.

    1. Invariant: the cones recorded before step t and lift_t(sigma) for
       the maximal cones sigma of Delta_t meet pairwise in the cone on
       their shared rays, and their union is {x in |delta|, 0 <= y <=
       g_t(x)}.  At t = 0 these are the height-0 copies of delta's cones.
    2. Step t splits the star of tau, the cone holding c_t in its relative
       interior, and records N(sigma) = lift_t(sigma) + (c_t, h_t) for each
       sigma in the star.  As c_t lies in sigma and h_t > g_t(c_t) is
       checked (else DegenerateHeights), (c_t, h_t) is off the span of
       lift_t(sigma), so N(sigma) is simplicial.  Its points are
       (x, g_t(x) + m (h_t - g_t(c_t))), x - m c_t in sigma, m >= 0; the
       largest such m puts x in a join c_t + (sigma - w), where the height
       is g_{t+1}(x).  So g_{t+1} >= g_t on sigma, N(sigma) = {x in sigma,
       g_t(x) <= y <= g_{t+1}(x)}, g_{t+1} = g_t off the star, and the
       union grows to {0 <= y <= g_{t+1}(x)}.  The same holds for every
       cone of Delta_t that holds tau.
    3. Two new cones N(sigma), N(sigma') meet over sigma ∩ sigma' = cone(S),
       S their shared rays, which holds tau; by step 2 for cone(S) the
       intersection is lift_t(cone(S)) + (c_t, h_t), the cone on the rays
       N(sigma) and N(sigma') share.
    4. An old cone K lies in {y <= g_t(x)} and N(sigma) in {y >= g_t(x)},
       so K ∩ N(sigma) lies in the lower face lift_t(sigma), an old cone:
       it is the cone on the rays K and lift_t(sigma) share.  (c_t, h_t)
       lies above g_t, so it is no ray of K, and those are all the rays K
       and N(sigma) share.
    5. Faces of simplicial cones that meet in the cone on their shared
       rays do so too.  lift_{t+1} of a join is a face of N(sigma), and of
       a cone off the star it is lift_t, so the invariant holds at t + 1.
       The lifted fan (every N, and the height-0 copies, which are lift_T,
       of the input cones left in Delta_T) is part of the last collection.
    6. No maximal cones are nested.  Cones of one step have different
       stars.  A cone of step t has the ray (c_t, h_t) above g_t, where
       earlier cones and the height-0 copies lie (g_t >= 0).  A later cone
       holding every ray of N(sigma) would hold c_t and the rays of sigma
       in its independent base rays, but c_t lies in sigma.  A height-0
       copy of an input cone rho inside N(sigma) has rho in sigma, which
       lies in an input cone, so rho = sigma by maximality; but sigma was
       split, and rho is still in Delta_T.

    So the lifted fan passes validate_fan, its bottom is delta and its top
    Delta_T (its lowest and highest points), and no circuit is degenerate
    (see below); these last are checked all the same (else AssertionFailed).

    Each center is located by fan._locate in the running cones and their
    ray index, which _split_at updates in place.  Every Delta_t is valid,
    so the face holding c_t in its relative interior is unique and the walk
    from a cone holding c_{t-1} finds the one the scan in fan order finds.
    The located maximal cone sigma gives the graph height: c_t has
    coordinate <n_i, c_t> / D on ray r_i of sigma (fan._cone_solver), so
    g_t(c_t) = sum_i <n_i, c_t> height(r_i) / D, compared in integers.

    The same coordinates give every circuit, so no cone's is recomputed.
    They are positive exactly on the rays of tau, which lie in every cone
    of the star, so each N(sigma) has the relation
    D (c_t, h_t) - sum_{r in tau} <n_r, c_t> lift_t(r): its base part is
    D c_t - D c_t = 0 and its height D h_t - D g_t(c_t) > 0.  Made
    primitive and checked exactly as circuit_of checks its own (else
    AssertionFailed), it is circuit_of(N(sigma)), since a relation of
    independent rays that maps them to a positive multiple of e is unique
    up to a positive factor: the apex is its one positive ray and tau's
    rays its negative ones.  A height-0 copy spans no e, so its circuit is
    None.
    """
    centers = [primitive(tuple(operator.index(x) for x in c)) for c in centers]
    for c in centers:
        if len(c) != delta.ambient_dim:
            raise DimensionMismatch(
                f"center {c} has dim {len(c)}, fan has dim {delta.ambient_dim}"
            )
    if heights is None:
        heights = list(range(1, len(centers) + 1))
    heights = [operator.index(h) for h in heights]
    if len(heights) != len(centers):
        raise ValueError("one height per center required")
    if any(h <= 0 for h in heights) or any(
        a >= b for a, b in zip(heights, heights[1:])
    ):
        raise ValueError("heights must be positive and strictly increasing")

    report = fanmod.validate_fan(delta)
    if not report.ok:
        raise InvalidFan(f"input fan is invalid:\n{report}")
    height_of: dict[Vec, int] = {r: 0 for r in delta.rays}
    running = fanmod._IndexedCones(delta.max_cones)  # the running fan's cones
    start = None  # where the next point location walks from
    lifted: dict[SimplicialCone, Circuit | None] = {}  # each lifted cone's circuit
    for center, h in zip(centers, heights):
        # height_of holds exactly the running fan's rays
        if center in height_of:
            raise CenterAlreadyRay(f"center {center} is already a ray")
        try:
            tau, found, coords = fanmod._locate(running, center, start)
        except NotInSupport as exc:
            raise CenterNotInSupport(str(exc)) from exc
        # the lifted center must clear the running graph sheet, or the new
        # cones dip into the ones already recorded
        d = sum(map(mul, fanmod._cone_solver(found)[0], found.rays[0]))
        sheet = sum(s * height_of[r] for s, r in zip(coords, found.rays))
        if h * d <= sheet:
            raise DegenerateHeights(
                f"center {center} lifts to height {h}, but the recorded fan "
                f"sheet already sits at {Fraction(sheet, d)} there; "
                "choose strictly larger heights"
            )
        apex = center + (h,)
        # the circuit relation d * apex - sum <n_r, c> lift(r) over tau's
        # rays, the positive coordinates
        support = [(apex, d)] + [(r + (height_of[r],), -s) for r, s in zip(found.rays, coords) if s]
        relation = dict(zip((v for v, _ in support), primitive([x for _, x in support])))
        for sigma in fanmod._split_at(running, center, tau):
            # h > graph height puts the lifted center off span lift(sigma)
            cone = SimplicialCone._face(tuple(r + (height_of[r],) for r in sigma.rays) + (apex,))
            lifted[cone] = _checked_circuit(cone, tuple(relation.get(v, 0) for v in cone.rays))
        height_of[center] = h
        start = next(iter(running.holders[center]))
    # distinct cones of delta's dim in fan order: its own and the joins of
    # _split_at
    current = Fan._sorted(delta.ambient_dim, running.ordered)
    original = set(delta.max_cones)
    for c in current.max_cones:
        if c in original:
            # lifts independent rays, and its span misses e
            lifted[SimplicialCone._face(tuple(r + (0,) for r in c.rays))] = None

    # lifted rays have nonzero base parts, the rays of delta and the centers
    lifted_fan = Fan(delta.ambient_dim + 1, tuple(lifted))
    circuits = tuple(lifted[c] for c in lifted_fan.max_cones)
    cob = Cobordism._with_circuits(lifted_fan, delta.ambient_dim, circuits)
    if (cob.bottom, cob.top) != (delta, current) or _cone_problems(cob):  # runs under -O too
        raise AssertionFailed("constructed cobordism breaks a proved invariant")
    return cob


# --- documents -------------------------------------------------------------------


def cobordism_to_doc(cob: Cobordism) -> dict:
    doc = fan_to_doc(cob.fan)
    return {
        "base_dim": cob.base_dim,
        "rays": doc["rays"],
        "max_cones": doc["max_cones"],
        "bottom": fan_to_doc(cob.bottom),
        "top": fan_to_doc(cob.top),
    }


def cobordism_from_doc(doc) -> tuple[Cobordism, Fan | None, Fan | None]:
    """Load a cobordism document.

    Returns the cobordism plus the document's own bottom/top fans (when
    present) so callers can use them as validation expectations; the
    cobordism's boundaries are always recomputed.
    """
    if not isinstance(doc, dict):
        raise ParseError("cobordism document must be an object")
    try:
        base_dim = doc["base_dim"]
    except (KeyError, TypeError) as exc:
        raise ParseError(f"cobordism document missing field {exc}") from exc
    if isinstance(base_dim, bool) or not isinstance(base_dim, int) or base_dim < 1:
        raise ParseError(f"base_dim must be a positive integer, got {base_dim!r}")
    lifted = fan_from_doc(
        {"dim": base_dim + 1, "rays": doc.get("rays"), "max_cones": doc.get("max_cones")}
    )
    stored_bottom = fan_from_doc(doc["bottom"]) if "bottom" in doc else None
    stored_top = fan_from_doc(doc["top"]) if "top" in doc else None
    return Cobordism.from_fan(lifted, base_dim), stored_bottom, stored_top
