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
from functools import cached_property

from .errors import AssertionFailed, BrokenFan, FrontMismatch, InvalidFan, NotCollapsible
from .exact import Vec, _minor_gcd_prefixes, primitive
from . import fan as fanmod
from .cobordism import (
    Circuit,
    Cobordism,
    ConeClass,
    base_part,
    circuit_class,
)
from .fan import Fan, SimplicialCone
from .value import Value

CircuitKey = tuple[Vec, ...]


class CollapseGraph(Value):
    """Distinct circuits of the maximal cones plus the crossing-order edges.

    The successor and predecessor lists are built once from the edges, in edge order.
    """

    __slots__ = ("nodes", "edges", "circuits", "cones", "_succ", "_pred", "__dict__")

    def __init__(self, nodes: tuple[CircuitKey, ...], edges: tuple[tuple[CircuitKey, CircuitKey], ...],
                 circuits: dict, cones: dict):
        succ: dict[CircuitKey, list[CircuitKey]] = {}
        pred: dict[CircuitKey, list[CircuitKey]] = {}
        for a, b in edges:
            succ.setdefault(a, []).append(b)
            pred.setdefault(b, []).append(a)
        super().__init__(nodes, edges, circuits, cones)
        object.__setattr__(self, "_succ", succ)
        object.__setattr__(self, "_pred", pred)

    def successors(self, key: CircuitKey) -> list[CircuitKey]:
        return list(self._succ.get(key, ()))

    @cached_property
    def components(self) -> dict[CircuitKey, CircuitKey]:
        """The strongly connected components (_components), found on first use."""
        return _components(self)


class StepKind(enum.Enum):
    BLOWUP = "blowup"
    BLOWDOWN = "blowdown"
    FLIP = "flip"
    IDENTITY = "identity"


class FactorStep(Value):
    """One crossing: its kind, downstairs center (for blowups/blowdowns),
    the circuit crossed, and the front fan it produced."""

    __slots__ = ("kind", "center", "circuit", "result")

    def __init__(self, kind: StepKind, center: Vec | None, circuit: CircuitKey, result: Fan):
        super().__init__(kind, center, circuit, result)


def circuit_graph(cob: Cobordism) -> CollapseGraph:
    """The circuit dependency graph of a cobordism's maximal cones, read off
    its stored circuits."""
    circuits: dict[CircuitKey, Circuit] = {}
    cones: dict[CircuitKey, list[SimplicialCone]] = {}
    carriers: dict[Vec, set[CircuitKey]] = {}  # ray -> circuits with a cone holding it
    for cone, circ in zip(cob.fan.max_cones, cob.circuits):
        if circ is None:
            continue
        key = circ.rays
        if key in circuits:
            prev = circuits[key]
            if (prev.pos, prev.neg) != (circ.pos, circ.neg):
                raise AssertionFailed(
                    f"circuit {key} splits differently in {cone}: "
                    "the sign partition must not depend on the containing cone"
                )
            cones[key].append(cone)
        else:
            circuits[key] = circ
            cones[key] = [cone]
        for r in cone.rays:
            carriers.setdefault(r, set()).add(key)
    edges = {(a, b) for a, c in circuits.items() for p in c.pos for b in carriers[p] if b != a}
    nodes = tuple(sorted(circuits))
    return CollapseGraph(
        nodes=nodes,
        edges=tuple(sorted(edges)),
        circuits=circuits,
        cones={k: tuple(v) for k, v in cones.items()},
    )


def _find_cycle(graph: CollapseGraph) -> tuple[CircuitKey, ...]:
    """One directed cycle of a cyclic graph, rotated to its least node.

    The walk starts at the least node of a strongly connected component
    with more than one node (_components, the pass to_dot reads) and steps
    to the least successor in that component, which always exists, so it
    must close.
    """
    comp = graph.components
    # the graph has no loops, so a node has a successor in its own
    # component exactly when that component has more than one node
    start = min(n for n in graph.nodes if any(comp[b] == comp[n] for b in graph.successors(n)))
    path = [start]
    seen = {start: 0}
    while True:
        nxt = min(b for b in graph.successors(path[-1]) if comp[b] == comp[start])
        if nxt in seen:
            cycle = tuple(path[seen[nxt]:])
            pivot = cycle.index(min(cycle))
            return cycle[pivot:] + cycle[:pivot]
        seen[nxt] = len(path)
        path.append(nxt)


def is_collapsible(cob: Cobordism) -> tuple[bool, tuple[CircuitKey, ...]]:
    """(True, topological order) when the circuit graph is acyclic, else
    (False, one directed cycle from the strongly connected components, see
    _find_cycle).

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

    indeg = {n: len(graph._pred.get(n, ())) for n in graph.nodes}
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
    return False, _find_cycle(graph)


def is_pi_nonsingular(cob: Cobordism) -> tuple[bool, SimplicialCone | None]:
    """Every projection-independent face must project to a smooth cone.

    Faces of a smooth cone are smooth, so only the maximal independent
    faces are tested: each maximal cone itself when it is
    projection-independent, else the cone minus one circuit ray (every
    independent face misses a circuit ray).  The witness is the first
    failing face in canonical order over all independent faces.  Failing
    faces are closed upward, so it lies in a failing maximal face, and the
    least failing subset of a face is its shortest failing prefix: a subset
    leaving the prefix sorts after the prefix ray it skips.  One
    triangularization of a face gives the minor gcds of all its prefixes;
    they are running products, so the failing prefixes are the ones from
    the first gcd above 1 on.
    """
    witness = None
    for cone, circ in zip(cob.fan.max_cones, cob.circuits):
        for v in circ.rays if circ else (None,):
            face = tuple(r for r in cone.rays if r != v)
            gcds = _minor_gcd_prefixes([primitive(base_part(r)) for r in face])
            k = gcds.count(1)
            if k < len(face) and (witness is None or face[:k + 1] < witness):
                witness = face[:k + 1]
    if witness is None:
        return True, None
    return False, SimplicialCone(witness)


def _star_local_pairs(
    fresh: dict[SimplicialCone, tuple[set[Vec], set[int]]],
    holders: dict[Vec, set[SimplicialCone]],
) -> list[tuple[SimplicialCone, SimplicialCone]]:
    """The cone pairs (a, b) of a front, a before b in fan order, that the
    star-local rule of extract_factorization checks, sorted as combinations
    of the sorted front.  fresh maps each fresh cone u to its dropped rays
    pi(n) and its source star cones sigma (u = pi(sigma - n)), holders each
    ray to the front's cones holding it.  u is checked against

    (i) the fresh cones sharing no source with it, and
    (ii) the old cones holding a dropped ray of u.

    The other pairs holding u pass:

    (a) Let c be an old cone without pi(n).  By step 1 of the proof in
        extract_factorization, u lies in the union of the lower cones
        pi(sigma - p), which are cones of the last front.  That front
        passed, so c meets each of them in the cone on their shared rays
        S_p.  S_p misses pi(p) and pi(n), so S_p lies in rays(u), and c
        meets u in the cone on the rays c and u share.  There is no
        nesting: if u lay in c, some lower cone would meet c in a set of
        its own dimension, so that lower cone would be nested in c, or
        equal to it, in the last front.
    (b) Take two upper faces pi(sigma - n) and pi(sigma - m) of one star
        cone.  Two expansions of a point in the rays of sigma differ by t
        times the circuit relation.  The coefficient at n forces t >= 0,
        and then the coefficient at m forces t = 0, so the faces meet in
        pi(sigma - {n, m}).
    """
    pairs = {
        (u, v)
        for (u, (_, su)), (v, (_, sv)) in itertools.combinations(fresh.items(), 2)
        if su.isdisjoint(sv)
    }
    for u, (dropped, _) in fresh.items():
        for r in dropped:
            pairs.update((u, c) for c in holders.get(r, ()) if c not in fresh)
    ordered = {(a, b) if a.rays < b.rays else (b, a) for a, b in pairs}
    return sorted(ordered, key=lambda ab: (ab[0].rays, ab[1].rays))


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

    The bottom goes through validate_fan once (BrokenFan when it fails), so
    every front is the last one, which passed, minus lower plus upper.  A
    degenerate circuit (no positive or no negative ray) is refused before
    its swap.  The fresh cones of a front (those outside the last one) are
    the faces u = pi(sigma - n), sigma in the star and n a negative ray,
    and its old pairs have passed.  Each u is checked only against the
    fresh cones from other star cones and the old cones holding a dropped
    ray pi(n) of u (_star_local_pairs, whose docstring proves that every
    other pair holding u passes).  The proofs rest on one step:

    1. Let x be in u, so x is a nonnegative combination of pi(sigma) with
       coefficient 0 at n.  Subtracting t times the circuit relation
       (positive on Z+, negative on Z-) lowers the coefficients on Z+ and
       raises those on Z-; at the least t where one on some p in Z+ reaches
       0, all are still >= 0, so x lies in pi(sigma - p).  Hence u lies in
       the union of the lower cones of sigma, and those are cones of the
       last front (lower <= front is checked above).

    The front is one set of cones kept in fan order with its ray -> cones
    index (fan._IndexedCones), kept across crossings: the lower cones leave,
    the upper ones enter, and the index names the cones holding pi(n).  A
    lower cone is looked up by its sorted projected rays, one bisection of
    the ordered list, so no cone is built to compare and remove; only the
    upper cones are built.
    The checked pairs (a, b) are sorted by (a.rays, b.rays), which is
    combinations order over the front in fan order, so a BrokenFan report
    lists its problems in validate_fan's order.  Each FactorStep.result is
    the ordered list taken as it is by the unchecked Fan._sorted, as the
    front holds distinct cones of the bottom's dimension in fan order.
    Each lifted ray is projected once, and the graph reads the stored
    circuits.
    """
    graph = circuit_graph(cob)
    ok, witness = _collapse_order(graph)
    if not ok:
        raise NotCollapsible(f"circuit graph has the cycle {list(witness)}", witness)
    report = fanmod.validate_fan(cob.bottom)
    if not report.ok:
        raise BrokenFan(f"bottom fan is invalid:\n{report}")
    down = {r: primitive(base_part(r)) for r in cob.fan.rays}

    def projected_rays(cone: SimplicialCone, dropped: Vec) -> tuple[Vec, ...]:
        return tuple(sorted([down[r] for r in cone.rays if r != dropped]))

    front = fanmod._IndexedCones(cob.bottom.max_cones)
    steps: list[FactorStep] = []
    for key in witness:
        circ = graph.circuits[key]
        star = graph.cones[key]
        lower = {projected_rays(cone, p) for cone in star for p in circ.pos}
        # each upper cone pi(sigma - n) with its dropped rays pi(n) and the
        # star cones sigma it comes from; dropping a circuit ray leaves rays
        # with independent projections
        upper: dict[SimplicialCone, tuple[set[Vec], set[int]]] = {}
        for i, cone in enumerate(star):
            for n in circ.neg:
                face = SimplicialCone._face(projected_rays(cone, n))
                dropped, sources = upper.setdefault(face, (set(), set()))
                dropped.add(down[n])
                sources.add(i)
        # the lower cones pi(sigma - p), looked up in the front by their rays
        found = [front.find(rays) for rays in lower]
        missing = sorted([rays for rays, c in zip(lower, found) if c is None])
        if missing:
            raise FrontMismatch(
                f"circuit {list(key)} expects front cones {missing}; "
                "the cobordism is not sequential"
            )
        kind = _STEP_KIND.get(circuit_class(circ))
        if kind is None:
            raise InvalidFan(f"circuit {list(key)} is degenerate: its relation has one sign")
        fresh = {u: made for u, made in upper.items() if u not in front.cones}
        for c in found:
            front.remove(c)
        for u in upper:
            front.add(u)
        report = fanmod._pairs_report(_star_local_pairs(fresh, front.holders))
        if not report.ok:
            raise BrokenFan(f"front after crossing {list(key)} is invalid:\n{report}")
        if kind is StepKind.BLOWUP:
            center = down[circ.pos[0]]
        elif kind is StepKind.BLOWDOWN:
            center = down[circ.neg[0]]
        else:
            center = None
        if not (elide_identity and kind is StepKind.IDENTITY):
            # distinct cones of the bottom's dim in fan order: its own and
            # projected faces
            result = Fan._sorted(cob.bottom.ambient_dim, front.ordered)
            steps.append(FactorStep(kind=kind, center=center, circuit=key, result=result))
    if front.cones != set(cob.top.max_cones):
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
    comp: dict[CircuitKey, CircuitKey] = {}
    for root in reversed(finished):
        if root in comp:
            continue
        comp[root] = root
        stack = [root]
        while stack:
            for a in graph._pred.get(stack.pop(), ()):
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
    comp = graph.components
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
