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
import itertools
from bisect import bisect_right
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
    nodes = tuple(sorted(circuits))
    edges = []
    for a, b in itertools.permutations(nodes, 2):
        pos_a = set(circuits[a].pos)
        if any(pos_a & set(cone.rays) for cone in cones[b]):
            edges.append((a, b))
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
    ready = sorted((n for n, d in indeg.items() if d == 0), key=level)
    order: list[CircuitKey] = []
    while ready:
        n = ready.pop(0)
        order.append(n)
        for b in graph.successors(n):
            indeg[b] -= 1
            if indeg[b] == 0:
                ready.append(b)
        ready.sort(key=level)
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
    return SimplicialCone(
        tuple(primitive(base_part(r)) for r in cone.rays if r != dropped)
    )


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

    Each new front is validated incrementally: only its cone pairs holding
    a fresh cone, one outside the last front that passed, are enumerated,
    and they go through fan._pair_problem in validate_fan's order.  Every
    pair of that front was checked (the first crossing checks all pairs,
    bottom cones included) and passed, so the skipped pairs add no problem
    and a BrokenFan report is exactly the one validate_fan gives for the
    new front.
    """
    graph = circuit_graph(cob)
    ok, witness = _collapse_order(graph)
    if not ok:
        raise NotCollapsible(f"circuit graph has the cycle {list(witness)}", witness)
    front = cob.bottom
    trusted: frozenset[SimplicialCone] = frozenset()
    steps: list[FactorStep] = []
    for key in witness:
        circ = graph.circuits[key]
        star = graph.cones[key]
        lower = {_projected_face(cone, p) for cone in star for p in circ.pos}
        upper = {_projected_face(cone, n) for cone in star for n in circ.neg}
        missing = lower - set(front.max_cones)
        if missing:
            raise FrontMismatch(
                f"circuit {list(key)} expects front cones {sorted(c.rays for c in missing)}; "
                "the cobordism is not sequential"
            )
        new_front = Fan(
            front.ambient_dim,
            tuple((set(front.max_cones) - lower) | upper),
        )
        problems = []
        cones = new_front.max_cones
        fresh = [i for i, c in enumerate(cones) if c not in trusted]
        for i, a in enumerate(cones):
            # the pairs (i, j), j > i, holding a fresh cone, in combinations order
            later = range(i + 1, len(cones)) if a not in trusted else fresh[bisect_right(fresh, i):]
            for j in later:
                problem = fanmod._pair_problem(a, cones[j])
                if problem is not None:
                    problems.append(problem)
        if problems:
            report = ValidationReport(tuple(problems))
            raise BrokenFan(f"front after crossing {list(key)} is invalid:\n{report}")
        trusted = frozenset(new_front.max_cones)
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
