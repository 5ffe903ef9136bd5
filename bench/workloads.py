"""Seeded inputs, op lists and expected results for the benchmark workloads.

Nothing here imports fancob.  Each generator is a pure function of its seed
and returns the input documents as bytes (the same seed gives byte-identical
files) together with the ops the run loop executes and the results those ops
must reproduce.  Expected fans come from the small star-subdivision routine
below, which is independent of the library, so the checks are an oracle
rather than a replay.

Workloads (README.md in this directory says why each exists):

- octa-deep: build_cobordism then extract_factorization on the complete
  octahedral fan in base dim 3 with the first k edge midpoints.
- ring-wide: the same op on a complete smooth plane fan with n cones, one
  barycentric and one nested center per cone.
- cli-corpus: fancob.cli.main on random fans in base dims 2-4 and on the
  shipped fixtures.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass, field
from pathlib import Path

Vec = tuple[int, ...]
Cones = frozenset  # of frozensets of rays

OCTA_SIZES = {"small": 2, "mid": 4, "large": 6}
RING_SIZES = {"small": 8, "mid": 16, "large": 32}
CLI_SIZES = {"small": 2, "mid": 3, "large": 4}  # base dimension of the document

# The twelve edge midpoints +-e_i +-e_j of the octahedral fan, cycling through
# the three coordinate planes so that every prefix spreads over the fan.
OCTA_CENTERS: tuple[Vec, ...] = (
    (1, 1, 0), (0, 1, 1), (1, 0, 1),
    (-1, -1, 0), (0, -1, -1), (-1, 0, -1),
    (1, -1, 0), (0, 1, -1), (1, 0, -1),
    (-1, 1, 0), (0, -1, 1), (-1, 0, 1),
)

# cli-corpus: documents per base dimension and center count, drawn from a
# fixed panel seed (see cli_corpus).
CLI_DOCS_PER_CELL = {2: 4, 3: 4, 4: 4}
CLI_PANEL_SEED = 0
RING_PANEL_SEED = 0
CLI_CENTER_COUNTS = (1, 2, 3)

FIXTURE_NAMES = (
    "cone3.fan", "overlap.fan", "p2.fan",
    "cycle.cob", "down.cob", "empty.cob", "karu.cob", "mixed.cob", "updown.cob",
)


@dataclass(frozen=True)
class Op:
    """One user-visible call chain.

    kind "lib" runs build_cobordism then extract_factorization on the fan
    document `fan` with `centers`; kind "cli" runs fancob.cli.main on `argv`,
    whose "{work}" entries name the run's input directory.  `doc` groups the
    ops that share an input document, for the deadline rule.
    """

    key: str
    kind: str
    doc: str
    size: str | None = None
    fan: str | None = None
    centers: tuple[Vec, ...] = ()
    argv: tuple[str, ...] = ()
    exit_code: int = 0
    check: str | None = None


@dataclass
class Workload:
    name: str
    files: dict[str, bytes]
    ops: list[Op]
    # op key -> canonical cone list of the fan the factorization must end on
    expected_top: dict[str, tuple] = field(default_factory=dict)
    # op key -> canonical cone list of the input fan
    expected_bottom: dict[str, tuple] = field(default_factory=dict)


# --- a small independent star subdivision --------------------------------------


def _add(*vs: Vec) -> Vec:
    return tuple(sum(xs) for xs in zip(*vs))


def subdivide(cones: Cones, face) -> Cones:
    """Star subdivision at the barycenter of `face`, a face of the fan.

    The barycenter lies in the relative interior of the face, so the face is
    its minimal cone and every maximal cone containing it splits into one
    cone per face ray.  Only smooth faces are used, so the sum is primitive.
    """
    face = frozenset(face)
    center = _add(*sorted(face))
    out = set()
    for cone in cones:
        if face <= cone:
            for w in face:
                out.add((cone - {w}) | {center})
        else:
            out.add(cone)
    return frozenset(out)


def canonical(cones: Cones) -> tuple:
    """Cones as sorted tuples of sorted rays, the library's own order."""
    return tuple(sorted(tuple(sorted(c)) for c in cones))


def fan_doc(dim: int, cones: Cones) -> dict:
    rays = sorted({r for c in cones for r in c})
    index = {r: i for i, r in enumerate(rays)}
    return {
        "dim": dim,
        "rays": [list(r) for r in rays],
        "max_cones": sorted(sorted(index[r] for r in c) for c in cones),
    }


def cones_of_doc(doc: dict) -> tuple:
    rays = [tuple(r) for r in doc["rays"]]
    return canonical(frozenset(frozenset(rays[i] for i in c) for c in doc["max_cones"]))


def _dump(doc) -> bytes:
    return (json.dumps(doc, sort_keys=True) + "\n").encode()


def centers_arg(centers) -> str:
    return ";".join("(" + ",".join(str(x) for x in c) + ")" for c in centers)


# --- octa-deep -----------------------------------------------------------------


def octahedral_cones() -> Cones:
    cones = set()
    for signs in itertools.product((1, -1), repeat=3):
        cones.add(frozenset(tuple(s if j == i else 0 for j in range(3)) for i, s in enumerate(signs)))
    return frozenset(cones)


def _lib_ops(name: str, dim: int, series: dict, wl: Workload, rng) -> None:
    """One lib op per size; `series` maps size -> (base cones, centers, faces)."""
    for size, (cones, centers, faces) in series.items():
        fname = f"{name}-{size}.fan"
        wl.files[fname] = _dump(fan_doc(dim, cones))
        top = cones
        for face in faces:
            top = subdivide(top, face)
        wl.expected_top[size] = canonical(top)
        wl.expected_bottom[size] = canonical(cones)
        wl.ops.append(Op(key=size, kind="lib", doc=size, size=size, fan=fname, centers=tuple(centers)))
    # the seed fixes the order in which the sizes run within a pass
    rng.shuffle(wl.ops)


def octa_deep(seed: int) -> Workload:
    """The octahedral fan is fixed; the seed only orders the ops in a pass."""
    rng = random.Random(seed)
    wl = Workload("octa-deep", {}, [])
    base = octahedral_cones()
    series = {}
    for size, k in OCTA_SIZES.items():
        centers = OCTA_CENTERS[:k]
        faces = [frozenset(_unit_split(c)) for c in centers]
        series[size] = (base, centers, faces)
    _lib_ops("octa", 3, series, wl, rng)
    return wl


def _unit_split(v: Vec) -> list[Vec]:
    """The signed unit vectors summing to a 0/+-1 vector."""
    return [tuple(x if j == i else 0 for j in range(len(v))) for i, x in enumerate(v) if x]


# --- ring-wide -----------------------------------------------------------------


def ring_wide(seed: int) -> Workload:
    """Complete smooth plane fans grown from the projective plane by blowups
    of adjacent ray pairs; one growth chain gives all three sizes.

    The chain and the nested-center sides are drawn once from RING_PANEL_SEED,
    so every seed runs the same fans up to symmetry; the seed applies a random
    signed permutation of coordinates and orders the ops in a pass.
    """
    panel = random.Random(RING_PANEL_SEED)
    rng = random.Random(seed)
    g = signed_permutation(rng, 2)
    wl = Workload("ring-wide", {}, [])
    ring: list[Vec] = [(1, 0), (0, 1), (-1, -1)]
    series = {}
    for size, n in RING_SIZES.items():
        while len(ring) < n:
            i = panel.randrange(len(ring))
            ring.insert(i + 1, _add(ring[i], ring[(i + 1) % len(ring)]))
        pairs = [(g(ring[i]), g(ring[(i + 1) % n])) for i in range(n)]
        cones = frozenset(frozenset(p) for p in pairs)
        faces = [frozenset(p) for p in pairs]
        centers = [_add(a, b) for a, b in pairs]
        for (a, b), c in zip(pairs, list(centers)):
            near = a if panel.random() < 0.5 else b
            faces.append(frozenset((near, c)))
            centers.append(_add(near, c))
        series[size] = (cones, centers, faces)
    _lib_ops("ring", 2, series, wl, rng)
    return wl


def signed_permutation(rng: random.Random, dim: int):
    """A random lattice automorphism x -> (s_i * x_p(i)), as a function on vectors."""
    perm = list(range(dim))
    rng.shuffle(perm)
    signs = [rng.choice((1, -1)) for _ in range(dim)]
    return lambda v: tuple(s * v[p] for s, p in zip(signs, perm))


# --- cli-corpus ----------------------------------------------------------------


def random_fan_and_centers(rng: random.Random, dim: int, count: int):
    """A smooth fan and `count` barycentric centers that lift at heights 1..count.

    The fan is a coordinate orthant with random signs, joined with probability
    1/2 by its mirror image across a random coordinate hyperplane.  Each
    center is the midray of a random 2-face (two random rays) of a random
    maximal cone of the running fan; picks that are already rays, or whose
    face already sits at a recorded height >= the next height, are redrawn.
    """
    signs = [rng.choice((1, -1)) for _ in range(dim)]
    orthant = frozenset(tuple(s if j == i else 0 for j in range(dim)) for i, s in enumerate(signs))
    cones = {orthant}
    if rng.random() < 0.5:
        axis = rng.randrange(dim)
        cones.add(frozenset(tuple(-x if j == axis else x for j, x in enumerate(r)) for r in orthant))
    cones = frozenset(cones)
    base = cones
    heights = {r: 0 for c in cones for r in c}
    centers, faces = [], []
    while len(centers) < count:
        cone = sorted(cones, key=sorted)[rng.randrange(len(cones))]
        face = frozenset(rng.sample(sorted(cone), 2))
        center = _add(*sorted(face))
        if center in heights or sum(heights[r] for r in face) >= len(centers) + 1:
            continue
        cones = subdivide(cones, face)
        heights[center] = len(centers) + 1
        centers.append(center)
        faces.append(face)
    return base, cones, centers


def _fixture_ops() -> list[Op]:
    ops = []

    def add(argv, code, doc):
        key = "fx:" + " ".join(argv).replace("{work}/", "")
        ops.append(Op(key=key, kind="cli", doc=doc, argv=tuple(argv), exit_code=code))

    for name in FIXTURE_NAMES:
        path = "{work}/fixtures/" + name
        add(["validate", path], 1 if name == "overlap.fan" else 0, name)
        if name.endswith(".cob"):
            cyc = 1 if name == "cycle.cob" else 0
            add(["circuits", path], 0, name)
            add(["collapse", path], cyc, name)
            add(["factorize", path], cyc, name)
    add(["--json", "validate", "{work}/fixtures/overlap.fan"], 1, "overlap.fan")
    add(["--json", "collapse", "{work}/fixtures/cycle.cob"], 1, "cycle.cob")
    add(["build", "{work}/fixtures/cone3.fan", "--centers", "(1,1,0);(0,1,1);(1,1,1)",
         "--out", "{work}/out/karu-built.cob"], 0, "cone3.fan")
    add(["build", "{work}/fixtures/p2.fan", "--centers", "(1,1)",
         "--out", "{work}/out/p2-built.cob"], 0, "p2.fan")
    for argv in (["demo", "karu"], ["demo", "noncollapsible"], ["--json", "demo", "karu"]):
        add(argv, 0, "demo")
    return ops


def cli_corpus(seed: int, fixtures_dir: Path) -> Workload:
    """A fixed panel of random documents, moved by a seeded lattice symmetry.

    The panel is drawn once from CLI_PANEL_SEED, so every seed runs documents
    of the same combinatorial types; the seed then applies a random signed
    permutation of coordinates to each document and orders the documents.
    """
    panel = random.Random(CLI_PANEL_SEED)
    rng = random.Random(seed)
    wl = Workload("cli-corpus", {}, [])
    for name in FIXTURE_NAMES:
        wl.files["fixtures/" + name] = (fixtures_dir / name).read_bytes()
    blocks = []
    for dim, per_cell in CLI_DOCS_PER_CELL.items():
        size = next(s for s, d in CLI_SIZES.items() if d == dim)
        for count in CLI_CENTER_COUNTS:
            for i in range(per_cell):
                base, top, centers = random_fan_and_centers(panel, dim, count)
                g = signed_permutation(rng, dim)
                base, top = (frozenset(frozenset(map(g, c)) for c in cones) for cones in (base, top))
                centers = [g(c) for c in centers]
                doc = f"d{dim}c{count}-{i}"
                wl.files[f"docs/{doc}.fan"] = _dump(fan_doc(dim, base))
                wl.expected_top[doc] = canonical(top)
                wl.expected_bottom[doc] = canonical(base)
                fan = "{work}/docs/" + doc + ".fan"
                cob = "{work}/out/" + doc + ".cob"
                runs = [
                    (["validate", fan], None),
                    (["build", fan, "--centers", centers_arg(centers), "--out", cob], "build"),
                    (["validate", cob], None),
                    (["circuits", cob], None),
                    (["--json", "circuits", cob], None),
                    (["collapse", cob, "--dot", "{work}/out/" + doc + ".dot"], None),
                    (["factorize", cob, "--out", "{work}/out/" + doc + ".steps.json"], None),
                    (["--json", "factorize", cob], "factorize"),
                ]
                blocks.append([Op(key=f"{doc}:{j}", kind="cli", doc=doc, size=size, argv=tuple(argv),
                                  check=check, centers=tuple(centers))
                               for j, (argv, check) in enumerate(runs)])
    rng.shuffle(blocks)
    wl.ops = [op for block in blocks for op in block]
    wl.ops += _fixture_ops()
    return wl


def generate(name: str, seed: int, fixtures_dir: Path) -> Workload:
    if name == "octa-deep":
        return octa_deep(seed)
    if name == "ring-wide":
        return ring_wide(seed)
    if name == "cli-corpus":
        return cli_corpus(seed, fixtures_dir)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("octa-deep", "ring-wide", "cli-corpus")


def write_inputs(wl: Workload, work: Path) -> None:
    """Write the input documents; the op list itself is rebuilt from the seed."""
    for rel, data in sorted(wl.files.items()):
        path = work / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(data)
    (work / "out").mkdir(exist_ok=True)
