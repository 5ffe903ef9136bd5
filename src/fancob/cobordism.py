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
from .exact import Vec, primitive
from . import fan as fanmod
from .fan import Fan, SimplicialCone, ValidationReport, fan_from_doc, fan_to_doc
from .value import Value


class ConeClass(enum.Enum):
    INDEPENDENT = "Independent"
    UP = "Up"
    DOWN = "Down"
    UPDOWN = "UpDown"
    MIXED = "Mixed"
    DEGENERATE = "Degenerate"


def base_part(v: Vec) -> Vec:
    return v[:-1]


class Circuit(Value):
    """The minimal dependent ray subset of a lifted cone, with its signs.

    rays and relation are aligned; the relation has entry gcd 1 and is
    normalized so that the height pairing sum(r_i * h_i) is positive.  pos
    and neg partition the circuit rays by strict sign; link holds the
    remaining rays of the particular cone the circuit was computed in.
    """

    __slots__ = ("rays", "relation", "pos", "neg", "link")

    def __init__(self, rays: tuple[Vec, ...], relation: tuple[int, ...],
                 pos: tuple[Vec, ...], neg: tuple[Vec, ...], link: tuple[Vec, ...]):
        super().__init__(rays, relation, pos, neg, link)


# the slot writers of _checked_circuit, in field order; tests/test_values.py
# pins Circuit._fields, so a new field fails there, not goes unset
_set_circuit_rays, _set_relation, _set_pos, _set_neg, _set_link = (
    getattr(Circuit, name).__set__ for name in Circuit._fields)


def circuit_of(cone: SimplicialCone) -> Circuit | None:
    """The circuit of a lifted cone, or None when it is projection-independent.

    A relation sum r_i pi(v_i) = 0 of the projected rays lifts to
    sum r_i v_i = (sum r_i h_i) e, e = e_{d+1}, so it exists iff e is in
    span(cone), that is iff every span equality y has y[-1] = <y, e> = 0, and
    is then D times e's coefficients, the last entries <n_i, e> of the
    fan._cone_solver rows, checked exactly to map the rays to a positive
    multiple of e.
    """
    if cone.dim < cone.ambient_dim and any(y[-1] for y in fanmod._span_equalities(cone)):
        return None
    return _checked_circuit(cone, primitive([n[-1] for n in fanmod._cone_solver(cone)]))


def _checked_circuit(cone: SimplicialCone, rel: tuple[int, ...]) -> Circuit:
    """The circuit of a lifted cone from a primitive relation aligned with
    its rays, checked exactly: the relation must map the rays to a positive
    multiple of e = e_{d+1}, else AssertionFailed.  On independent rays that
    relation is unique, so every correct one gives circuit_of's circuit.
    One pass splits the rays by sign, and the circuit is written through its
    slot descriptors, as SimplicialCone._face writes a cone; its value, hash
    and repr are those of the Circuit constructor's."""
    image = [sum(map(mul, rel, column)) for column in zip(*cone.rays)]
    if any(image[:-1]) or image[-1] <= 0:
        raise AssertionFailed(f"relation {rel} maps the rays of {cone} to {image}, not to e")
    rays, relation, pos, neg, link = [], [], [], [], []
    for r, c in zip(cone.rays, rel):
        if c:
            rays.append(r)
            relation.append(c)
            (pos if c > 0 else neg).append(r)
        else:
            link.append(r)
    circ = object.__new__(Circuit)
    _set_circuit_rays(circ, tuple(rays))
    _set_relation(circ, tuple(relation))
    _set_pos(circ, tuple(pos))
    _set_neg(circ, tuple(neg))
    _set_link(circ, tuple(link))
    return circ


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


def boundary(fan: Fan) -> tuple[tuple[SimplicialCone, ...], tuple[SimplicialCone, ...]]:
    """The lower and upper boundary faces of a lifted fan without vertical
    rays, each side in canonical order.

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
    return _boundaries(fan, [circuit_of(c) for c in fan.max_cones])


def _boundaries(fan: Fan, circuits: list[Circuit | None]) -> tuple[tuple[SimplicialCone, ...], ...]:
    """(lower, upper) boundary, given circuit_of of each maximal cone in fan
    order: one ray -> cone-index map and one pass over the cones give both
    sides.

    No side holds a face twice.  A face sigma minus v is kept only when
    sigma alone holds its rays, so no second maximal cone gives it, and one
    cone gives distinct faces for distinct v; a projection-independent
    maximal cone equal to another cone's face sigma minus v holds that
    face's rays, so the face is dropped and only the maximal cone is kept
    (fans hold distinct maximal cones).  _cone_problems reads duplicate
    projections off this."""
    holders: dict[Vec, set[int]] = {}
    for i, cone in enumerate(fan.max_cones):
        for r in cone.rays:
            holders.setdefault(r, set()).add(i)
    lower, upper = [], []
    for cone, circ in zip(fan.max_cones, circuits):
        rays = cone.rays
        if circ is None:
            lower.append(rays)
            upper.append(rays)
            continue
        for side, dropped in ((lower, circ.pos), (upper, circ.neg)):
            for v in dropped:
                k = rays.index(v)
                face = rays[:k] + rays[k + 1:]
                # the cone itself holds the face, so one holder means no other
                if len(set.intersection(*map(holders.__getitem__, face))) == 1:
                    side.append(face)
    # each face is a subset of its cone's rays
    return tuple(tuple(SimplicialCone._face(f) for f in sorted(faces)) for faces in (lower, upper))


def _projections(faces) -> dict[Vec, Vec]:
    """Each distinct ray of the faces -> its primitive projection."""
    return {r: primitive(base_part(r)) for r in {r for f in faces for r in f.rays}}


def _projected_fan(faces, down: dict[Vec, Vec], base_dim: int) -> Fan:
    """The fan of the faces' projections, each ray projected by the table
    down (_projections).  The sorted ray tuples of the distinct projected
    cones are their fan order, so each is built once and Fan._sorted takes
    them as they are; a face that projects onto another's cone adds none,
    the count _cone_problems reads."""
    # a boundary face misses a circuit ray or has none, so its projected
    # rays are independent (and nonzero, as from_fan refuses vertical rays)
    cones = sorted({tuple(sorted([down[r] for r in f.rays])) for f in faces})
    return Fan._sorted(base_dim, [SimplicialCone._face(rays) for rays in cones])


class Cobordism(Value):
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

    __slots__ = ("base_dim", "fan", "lower_faces", "upper_faces", "bottom", "top", "circuits")

    def __init__(self, base_dim: int, fan: Fan, lower_faces: tuple[SimplicialCone, ...],
                 upper_faces: tuple[SimplicialCone, ...], bottom: Fan, top: Fan,
                 circuits: tuple[Circuit | None, ...]):
        super().__init__(base_dim, fan, lower_faces, upper_faces, bottom, top, circuits)

    @classmethod
    def from_fan(cls, fan: Fan) -> "Cobordism":
        """The cobordism of a lifted fan, over base dimension
        fan.ambient_dim - 1; a vertical ray raises InvalidFan.

        Computes each maximal cone's circuit once (kept as circuits), the
        boundary faces read off them and their projections, and nothing
        else, in polynomial time on every fan.  Only on a fan that passes
        validate_fan (checked by validate_cobordism, not here) are they the
        boundary proved in boundary's docstring.
        """
        if fan.ambient_dim < 2:
            raise ValueError("base dimension must be positive")
        for r in fan.rays:
            if all(x == 0 for x in base_part(r)):
                raise InvalidFan(f"vertical ray {r} (zero projection) is not allowed")
        return cls._with_circuits(fan, tuple(circuit_of(c) for c in fan.max_cones))

    @classmethod
    def _with_circuits(cls, fan: Fan, circuits) -> "Cobordism":
        """The cobordism of a lifted fan of dim >= 2 without vertical rays,
        given the circuit of each maximal cone in fan order (each caller
        says why they are those of circuit_of).

        One ray -> projection table, over the rays of the boundary faces,
        serves both sides, so each lifted ray is projected once.  bottom
        and top are the projections of the lower and upper faces, as the
        class docstring requires, each projected cone built once."""
        base_dim = fan.ambient_dim - 1
        lower, upper = _boundaries(fan, circuits)
        down = _projections(lower + upper)
        return cls(
            base_dim=base_dim,
            fan=fan,
            lower_faces=lower,
            upper_faces=upper,
            bottom=_projected_fan(lower, down, base_dim),
            top=_projected_fan(upper, down, base_dim),
            circuits=circuits,
        )


def _cone_problems(cob: Cobordism) -> list[str]:
    """The checks read off single cones: degenerate circuits, and boundary
    faces projecting to the same cone (each projects injectively).

    Two faces of a side project to the same cone exactly when the side's
    projected fan has fewer cones than the side has faces: bottom and top
    are the deduplicated projections of the faces (the Cobordism
    docstring), and _boundaries never emits a face twice.  Only then are
    the faces projected again to name the pairs."""
    problems = []
    for cone, circ in zip(cob.fan.max_cones, cob.circuits):
        if circuit_class(circ) is ConeClass.DEGENERATE:
            problems.append(f"degenerate circuit in maximal cone {cone}")
    for side, faces, projected in (("lower", cob.lower_faces, cob.bottom),
                                   ("upper", cob.upper_faces, cob.top)):
        if len(projected.max_cones) == len(faces):
            continue
        seen: dict[tuple[Vec, ...], SimplicialCone] = {}
        down = _projections(faces)
        for f in faces:
            proj = tuple(sorted([down[r] for r in f.rays]))
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
    if expected_bottom is not None and cob.bottom != expected_bottom:
        problems.append("bottom fan differs from the expected fan")
    if expected_top is not None and cob.top != expected_top:
        problems.append("top fan differs from the expected fan")
    return ValidationReport(tuple(problems))


def build_cobordism(delta: Fan, centers, heights=None) -> Cobordism:
    """Record a star-subdivision sequence as a cobordism over the input fan.

    Rays of the input fan sit at height 0 and the t-th center at heights[t].
    By default each center gets the least integer height above the last
    one (0 before the first) that clears the running graph sheet there,
    max(last + 1, floor(g_t(c_t)) + 1) in the notation below.  When the
    k-th center clears the sheet at height k for every k, these are the
    heights 1, 2, 3, ....  Explicit heights must be positive and strictly
    increasing, and one on or below the sheet at its center raises
    DegenerateHeights.  Each step lifts the star it subdivides,
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
    if heights is not None:
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
    lift: dict[Vec, Vec] = {r: r + (0,) for r in delta.rays}  # each ray at its height
    running = fanmod._IndexedCones(delta.max_cones)  # the running fan's cones
    start = None  # where the next point location walks from
    lifted: dict[SimplicialCone, Circuit | None] = {}  # each lifted cone's circuit
    h = 0
    for t, center in enumerate(centers):
        # lift holds exactly the running fan's rays
        if center in lift:
            raise CenterAlreadyRay(f"center {center} is already a ray")
        try:
            tau, found, coords = fanmod._locate(running, center, start)
        except NotInSupport as exc:
            raise CenterNotInSupport(str(exc)) from exc
        # the lifted center must clear the running graph sheet, or the new
        # cones dip into the ones already recorded
        d = sum(map(mul, fanmod._cone_solver(found)[0], found.rays[0]))
        sheet = sum([s * lift[r][-1] for s, r in zip(coords, found.rays)])
        # by default the least height above the last one that clears the sheet
        h = max(h + 1, sheet // d + 1) if heights is None else heights[t]
        if h * d <= sheet:
            from fractions import Fraction  # only for this message, off the import path

            raise DegenerateHeights(
                f"center {center} lifts to height {h}, but the recorded fan "
                f"sheet already sits at {Fraction(sheet, d)} there; "
                "choose strictly larger heights"
            )
        apex = center + (h,)
        # the circuit relation d * apex - sum <n_r, c> lift(r) over tau's
        # rays, the positive coordinates
        support = [(apex, d)] + [(lift[r], -s) for r, s in zip(found.rays, coords) if s]
        relation = dict(zip([v for v, _ in support], primitive([x for _, x in support])))
        for sigma in fanmod._split_at(running, center, tau):
            # h > graph height puts the lifted center off span lift(sigma)
            cone = SimplicialCone._face(tuple([lift[r] for r in sigma.rays]) + (apex,))
            lifted[cone] = _checked_circuit(cone, tuple([relation.get(v, 0) for v in cone.rays]))
        lift[center] = apex
        start = next(iter(running.holders[center]))
    # distinct cones of delta's dim in fan order: its own and the joins of
    # _split_at
    current = Fan._sorted(delta.ambient_dim, running.ordered)
    original = set(delta.max_cones)
    for c in current.max_cones:
        if c in original:
            # lifts independent rays, and its span misses e
            lifted[SimplicialCone._face(tuple([lift[r] for r in c.rays]))] = None

    # lifted rays have nonzero base parts, the rays of delta and the centers
    lifted_fan = Fan(delta.ambient_dim + 1, tuple(lifted))
    circuits = tuple(lifted[c] for c in lifted_fan.max_cones)
    cob = Cobordism._with_circuits(lifted_fan, circuits)
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
    return Cobordism.from_fan(lifted), stored_bottom, stored_top
