"""Circuit dependency graph, collapsibility, and factorization extraction.

Two maximal cones with the same dependent ray set share one circuit; the
graph has an edge from circuit A to circuit B when some cone carrying B
contains a positive ray of A (crossing A first creates the rays B's star
needs).  Acyclicity of this graph is collapsibility; a topological order is a
crossing schedule, and replaying it against the bottom fan yields the
blowup/blowdown factorization.
"""

from __future__ import annotations

import enum
import heapq
import itertools
from dataclasses import dataclass, field

from .errors import AssertionFailed, BrokenFan, FrontMismatch, InvalidFan, NotCollapsible
from .exact import Vec, maximal_minor_gcd, primitive
from . import fan as fanmod
from .cobordism import (
    Circuit,
    Cobordism,
    ConeClass,
    base_part,
    circuit_class,
    circuit_of,
)
from .fan import Fan, SimplicialCone, ValidationReport

CircuitKey = tuple[Vec, ...]


@dataclass(frozen=True)
class CollapseGraph:
    """Distinct circuits of the maximal cones plus the crossing-order edges.

    The successor lists are built once from the edges, in edge order.
    """

    nodes: tuple[CircuitKey, ...]
    edges: tuple[tuple[CircuitKey, CircuitKey], ...]
    circuits: dict
    cones: dict
    _succ: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        succ: dict[CircuitKey, list[CircuitKey]] = {}
        for a, b in self.edges:
            succ.setdefault(a, []).append(b)
        object.__setattr__(self, "_succ", succ)

    def successors(self, key: CircuitKey) -> list[CircuitKey]:
        return list(self._succ.get(key, ()))


class StepKind(enum.Enum):
    BLOWUP = "blowup"
    BLOWDOWN = "blowdown"
    FLIP = "flip"
    IDENTITY = "identity"


@dataclass(frozen=True)
class FactorStep:
    """One crossing: its kind, downstairs center (for blowups/blowdowns),
    the circuit crossed, and the front fan it produced."""

    kind: StepKind
    center: Vec | None
    circuit: CircuitKey
    result: Fan


def circuit_graph(cob: Cobordism) -> CollapseGraph:
    """The circuit dependency graph of a cobordism's maximal cones."""
    circuits: dict[CircuitKey, Circuit] = {}
    cones: dict[CircuitKey, list[SimplicialCone]] = {}
    for cone in cob.fan.max_cones:
        circ = circuit_of(cone)
        if circ is None:
            continue
        key = circ.key
        if key in circuits:
            prev = circuits[key]
            if (prev.pos, prev.neg) != (circ.pos, circ.neg):
                raise AssertionFailed(
                    f"circuit {key} splits differently in {cone}: "
                    "the sign partition must not depend on the containing cone"
                )
        else:
            circuits[key] = circ
        cones.setdefault(key, []).append(cone)
    carriers: dict[Vec, set[CircuitKey]] = {}  # ray -> circuits with a cone holding it
    for key, held in cones.items():
        for r in {r for cone in held for r in cone.rays}:
            carriers.setdefault(r, set()).add(key)
    edges = {(a, b) for a, c in circuits.items() for p in c.pos for b in carriers[p] if b != a}
    nodes = tuple(sorted(circuits))
    return CollapseGraph(
        nodes=nodes,
        edges=tuple(sorted(edges)),
        circuits=circuits,
        cones={k: tuple(v) for k, v in cones.items()},
    )


def _find_cycle(graph: CollapseGraph, remaining: set[CircuitKey]) -> tuple[CircuitKey, ...]:
    """One directed cycle among the given nodes.

    Nodes without a successor in the set cannot lie on a cycle and are
    trimmed first, so the walk always has somewhere to go and must close.
    """
    rem = set(remaining)
    changed = True
    while changed:
        changed = False
        for n in sorted(rem):
            if not any(b in rem for b in graph.successors(n)):
                rem.discard(n)
                changed = True
    start = min(rem)
    path = [start]
    seen = {start: 0}
    while True:
        nxt = min(b for b in graph.successors(path[-1]) if b in rem)
        if nxt in seen:
            cycle = tuple(path[seen[nxt]:])
            pivot = cycle.index(min(cycle))
            return cycle[pivot:] + cycle[:pivot]
        seen[nxt] = len(path)
        path.append(nxt)


def is_collapsible(cob: Cobordism) -> tuple[bool, tuple[CircuitKey, ...]]:
    """(True, topological order) when the circuit graph is acyclic, else
    (False, one directed cycle).

    Ties between order-incomparable circuits break by the lowest height of
    their positive rays, so the crossing order walks the cobordism bottom to
    top; on constructed cobordisms this reproduces the subdivision order.
    """
    return _collapse_order(circuit_graph(cob))


def _collapse_order(graph: CollapseGraph) -> tuple[bool, tuple[CircuitKey, ...]]:
    """is_collapsible on an already built circuit graph."""

    def level(key: CircuitKey):
        circ = graph.circuits[key]
        rays = circ.pos or circ.rays
        return (min(r[-1] for r in rays), key)

    indeg = {n: 0 for n in graph.nodes}
    for _, b in graph.edges:
        indeg[b] += 1
    # level ends in the unique key, so the heap pops in level order
    ready = [(level(n), n) for n, d in indeg.items() if d == 0]
    heapq.heapify(ready)
    order: list[CircuitKey] = []
    while ready:
        _, n = heapq.heappop(ready)
        order.append(n)
        for b in graph.successors(n):
            indeg[b] -= 1
            if indeg[b] == 0:
                heapq.heappush(ready, (level(b), b))
    if len(order) == len(graph.nodes):
        return True, tuple(order)
    remaining = {n for n in graph.nodes if n not in set(order)}
    return False, _find_cycle(graph, remaining)


def _smooth_projection(face: tuple[Vec, ...]) -> bool:
    return maximal_minor_gcd([primitive(base_part(r)) for r in face]) == 1


def is_pi_nonsingular(cob: Cobordism) -> tuple[bool, SimplicialCone | None]:
    """Every projection-independent face must project to a smooth cone.

    Faces of a smooth cone are smooth, so only the maximal independent
    faces are tested: each maximal cone itself when it is
    projection-independent, else the cone minus one circuit ray (every
    independent face misses a circuit ray).  The witness is the first
    failing face in canonical order over all independent faces.  Failing
    faces are closed upward, so it lies in a failing maximal face, and the
    least failing subset of a face is its shortest failing prefix: a subset
    leaving the prefix sorts after the prefix ray it skips.
    """
    witness = None
    for cone in cob.fan.max_cones:
        circ = circuit_of(cone)
        for v in circ.rays if circ else (None,):
            face = tuple(r for r in cone.rays if r != v)
            if _smooth_projection(face):
                continue
            k = next(k for k in range(1, len(face) + 1) if not _smooth_projection(face[:k]))
            if witness is None or face[:k] < witness:
                witness = face[:k]
    if witness is None:
        return True, None
    return False, SimplicialCone(witness)


def _projected_face(cone: SimplicialCone, dropped: Vec) -> SimplicialCone:
    # dropping a circuit ray leaves rays with independent projections
    return SimplicialCone._face(
        tuple(primitive(base_part(r)) for r in cone.rays if r != dropped)
    )


def _star_local_pairs(
    upper: dict[SimplicialCone, set[Vec]],
    cones: tuple[SimplicialCone, ...],
    old: set[SimplicialCone],
    holders: dict[Vec, set[SimplicialCone]],
) -> list[tuple[int, int]]:
    """The index pairs i < j of cones, sorted, that the star-local rule of
    extract_factorization checks: each fresh cone (an upper cone outside the
    old front) with every other fresh cone and with every old cone holding
    a ray of pi(sigma) for a star cone sigma it comes from.  upper maps each
    upper cone to those rays, holders each ray to the old cones holding it."""
    index = {c: i for i, c in enumerate(cones)}
    near = {index[u]: rays for u, rays in upper.items() if u not in old}
    pairs = set(itertools.combinations(sorted(near), 2))
    for i, rays in near.items():
        for r in rays:
            for c in holders.get(r, ()):
                j = index.get(c)
                if j is not None:
                    pairs.add((min(i, j), max(i, j)))
    return sorted(pairs)


_STEP_KIND = {
    ConeClass.UP: StepKind.BLOWUP,
    ConeClass.DOWN: StepKind.BLOWDOWN,
    ConeClass.UPDOWN: StepKind.IDENTITY,
    ConeClass.MIXED: StepKind.FLIP,
}


def extract_factorization(cob: Cobordism, elide_identity: bool = False) -> list[FactorStep]:
    """Cross the circuits in topological order and record each front move.

    Starting from the bottom fan, each circuit swaps the projections of its
    star's lower faces (one positive ray dropped) for the upper faces (one
    negative ray dropped).  The final front must equal the top fan.

    The first crossing checks every pair of its front, bottom cones
    included, through fan._pair_problem in validate_fan's order.  Every
    later front is the last one, which passed, minus lower plus upper; its
    fresh cones (those outside the last front) are the faces
    u = pi(sigma - n), sigma in the star and n a negative ray.  When the
    circuit has a positive ray, u is checked against the other fresh cones
    and against the old cones sharing a ray with pi(sigma), the primitive
    projected rays of sigma; no other pair of the new front is checked, as
    it passes:

    1. Let x be in u, so x is a nonnegative combination of pi(sigma) with
       coefficient 0 at n.  Subtracting t times the circuit relation
       (positive on Z+, negative on Z-) lowers the coefficients on Z+ and
       raises those on Z-; at the least t where one on some p in Z+ reaches
       0, all are still >= 0, so x lies in pi(sigma - p).  Hence u lies in
       the union of the lower cones of sigma.
    2. Those lower cones are cones of the last front (lower <= front is
       checked above), and every pair of that front passed, so any other
       cone c of it meets each of them in the cone on their shared rays.
       An old cone c with no ray in pi(sigma) is no lower cone of sigma and
       shares no ray with one, so it meets each in {0}.
    3. So c meets u in {0}, the cone on their (empty) set of shared rays,
       and neither holds the other: _pair_problem(c, u) is None.  Old
       pairs passed at an earlier crossing.

    The checked pairs keep combinations order, so a BrokenFan report is
    exactly the one validate_fan gives for the new front.  A circuit with
    no positive ray (degenerate, refused below after the check) keeps the
    full pair check.
    """
    graph = circuit_graph(cob)
    ok, witness = _collapse_order(graph)
    if not ok:
        raise NotCollapsible(f"circuit graph has the cycle {list(witness)}", witness)
    front = cob.bottom
    # ray -> cones of the last front that passed; None before the first crossing
    holders: dict[Vec, set[SimplicialCone]] | None = None
    steps: list[FactorStep] = []
    for key in witness:
        circ = graph.circuits[key]
        star = graph.cones[key]
        lower = {_projected_face(cone, p) for cone in star for p in circ.pos}
        # each upper cone with the rays pi(sigma) of the star cones it comes from
        upper: dict[SimplicialCone, set[Vec]] = {}
        for cone in star:
            rays = {primitive(base_part(r)) for r in cone.rays}
            for n in circ.neg:
                upper.setdefault(_projected_face(cone, n), set()).update(rays)
        old = set(front.max_cones)
        missing = lower - old
        if missing:
            raise FrontMismatch(
                f"circuit {list(key)} expects front cones {sorted(c.rays for c in missing)}; "
                "the cobordism is not sequential"
            )
        new_front = Fan(front.ambient_dim, tuple((old - lower).union(upper)))
        cones = new_front.max_cones
        if holders is None or not circ.pos:
            pairs = itertools.combinations(range(len(cones)), 2)
        else:
            pairs = _star_local_pairs(upper, cones, old, holders)
        problems = []
        for i, j in pairs:
            problem = fanmod._pair_problem(cones[i], cones[j])
            if problem is not None:
                problems.append(problem)
        if problems:
            report = ValidationReport(tuple(problems))
            raise BrokenFan(f"front after crossing {list(key)} is invalid:\n{report}")
        kept = set(cones)
        if holders is None:
            holders, old = {}, set()  # the first front that passed enters whole
        for c in old - kept:
            for r in c.rays:
                holders[r].discard(c)
        for c in kept - old:
            for r in c.rays:
                holders.setdefault(r, set()).add(c)
        kind = _STEP_KIND.get(circuit_class(circ))
        if kind is None:
            raise InvalidFan(f"circuit {list(key)} is degenerate: its relation has one sign")
        if kind is StepKind.BLOWUP:
            center = primitive(base_part(circ.pos[0]))
        elif kind is StepKind.BLOWDOWN:
            center = primitive(base_part(circ.neg[0]))
        else:
            center = None
        front = new_front
        if not (elide_identity and kind is StepKind.IDENTITY):
            steps.append(FactorStep(kind=kind, center=center, circuit=key, result=front))
    if not fanmod.fans_equal(front, cob.top):
        raise FrontMismatch("final front does not equal the top fan")
    return steps


# --- exports ----------------------------------------------------------------------


def _fmt_vec(v: Vec) -> str:
    return "(" + ",".join(str(x) for x in v) + ")"


def _components(graph: CollapseGraph) -> dict[CircuitKey, CircuitKey]:
    """The strongly connected component of every node, named by its root
    (Kosaraju: finish order on the graph, then sweeps on the reverse)."""
    finished, seen = [], set()
    for root in graph.nodes:
        if root in seen:
            continue
        seen.add(root)
        stack = [(root, iter(graph.successors(root)))]
        while stack:
            node, todo = stack[-1]
            nxt = next((b for b in todo if b not in seen), None)
            if nxt is None:
                stack.pop()
                finished.append(node)
            else:
                seen.add(nxt)
                stack.append((nxt, iter(graph.successors(nxt))))
    preds: dict[CircuitKey, list[CircuitKey]] = {}
    for a, b in graph.edges:
        preds.setdefault(b, []).append(a)
    comp: dict[CircuitKey, CircuitKey] = {}
    for root in reversed(finished):
        if root in comp:
            continue
        comp[root] = root
        stack = [root]
        while stack:
            for a in preds.get(stack.pop(), ()):
                if a not in comp:
                    comp[a] = root
                    stack.append(a)
    return comp


def to_dot(graph: CollapseGraph) -> str:
    """Graphviz document for the circuit graph; cycle edges are highlighted.

    An edge lies on a cycle iff both its ends are in one strongly connected
    component.
    """
    names = {key: f"c{i}" for i, key in enumerate(graph.nodes)}
    comp = _components(graph)
    lines = ["digraph circuits {"]
    for key in graph.nodes:
        circ = graph.circuits[key]
        label = (
            "+" + " +".join(_fmt_vec(r) for r in circ.pos)
            + " / -" + " -".join(_fmt_vec(r) for r in circ.neg)
        )
        lines.append(f'  {names[key]} [label="{label}"];')
    for a, b in graph.edges:
        attr = ' [color=red, penwidth=2]' if comp[a] == comp[b] else ""
        lines.append(f"  {names[a]} -> {names[b]}{attr};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def transcript(steps: list[FactorStep]) -> dict:
    """Structured factorization transcript (inline fan documents)."""
    return {
        "steps": [
            {
                "kind": step.kind.value,
                "center": list(step.center) if step.center is not None else None,
                "circuit": [list(r) for r in step.circuit],
                "result": fanmod.fan_to_doc(step.result),
            }
            for step in steps
        ]
    }
