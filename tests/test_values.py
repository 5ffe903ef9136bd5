"""The value classes: construction, equality, hashing, immutability, and
the light import path they keep."""

from __future__ import annotations

import copy
import inspect
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import fancob
from fancob.cobordism import Circuit, Cobordism, _checked_circuit, circuit_of
from fancob.collapse import CollapseGraph, FactorStep, StepKind
from fancob.demos import DemoReport, ScheduleEntry
from fancob.fan import Fan, SimplicialCone, ValidationReport, star_subdivide
from fancob.value import Value

CONE = SimplicialCone(((0, 1), (1, 0)))
FAN = Fan(2, (CONE,))
COB = Cobordism.from_fan(Fan(3, (SimplicialCone(((0, 1, 0), (1, 0, 0), (1, 1, 1))),)))
KEY = ((0, 1, 0), (1, 0, 0), (1, 1, 1))

# (class, constructor arguments as the fields read them back, another last argument)
CASES = [
    (SimplicialCone, (((0, 1), (1, 0)),), ((1, 0),)),
    (Fan, (2, (CONE,)), ()),
    (ValidationReport, (("overlap",),), ()),
    (Circuit, (KEY, (1, 1, -1), KEY[:2], KEY[2:], ()), ((0, 0, 1),)),
    (Cobordism, (COB.base_dim, COB.fan, COB.lower_faces, COB.upper_faces, COB.bottom, COB.top,
                 COB.circuits), (None,)),
    (CollapseGraph, ((KEY,), ((KEY, KEY),), {KEY: COB.circuits[0]}, {KEY: [CONE]}), {}),
    (FactorStep, (StepKind.BLOWUP, (1, 1), KEY, FAN), Fan(2, ())),
    (ScheduleEntry, (CONE, (1, 1)), (1, 2)),
    (DemoReport, (COB, (), (KEY,), (), CONE, FAN, CONE, KEY[:2], KEY[2:]), ()),
]


def _hashable(args) -> bool:
    try:
        hash(args)
    except TypeError:
        return False
    return True


@pytest.mark.parametrize("cls, args, other_last", CASES, ids=[c[0].__name__ for c in CASES])
def test_value_semantics(cls, args, other_last):
    names = list(inspect.signature(cls).parameters)
    # the fields are the constructor's parameters, in order
    assert cls._fields == tuple(names)
    value = cls(*args)
    assert cls(**dict(zip(names, args))) == value
    assert tuple(getattr(value, n) for n in names) == args
    if cls.__repr__ is Value.__repr__:
        assert repr(value) == f"{cls.__name__}{args!r}"
    assert cls(*args[:-1], other_last) != value
    # only instances of the one class compare equal, also a subclass's
    sub = type("Sub", (cls,), {"__slots__": ()})
    assert sub(*args) != value and value != sub(*args)
    assert value != args
    assert copy.copy(value) == copy.deepcopy(value) == pickle.loads(pickle.dumps(value)) == value
    if _hashable(args):
        assert hash(value) == hash(cls(*args)) == hash(args)
    else:
        with pytest.raises(TypeError):
            hash(value)
    for name in names:
        with pytest.raises(AttributeError):
            setattr(value, name, getattr(value, name))
        with pytest.raises(AttributeError):
            delattr(value, name)
    with pytest.raises(AttributeError):
        value.unknown = 1


def test_handed_over_basis_is_no_part_of_the_value():
    # a join of star_subdivide carries the dual basis _split_at handed it
    join = next(c for c in star_subdivide(FAN, (1, 1)).max_cones if (1, 0) in c.rays)
    plain = SimplicialCone(join.rays)
    assert join._dual_basis and getattr(plain, "_dual_basis", None) is None
    assert join == plain and plain == join and hash(join) == hash(plain) == hash((join.rays,))
    assert repr(join) == repr(plain) == "cone[(1, 0), (1, 1)]"
    for twin in (copy.copy(join), copy.deepcopy(join), pickle.loads(pickle.dumps(join))):
        assert twin == join and getattr(twin, "_dual_basis", None) is None
    with pytest.raises(AttributeError):
        join._dual_basis = None


def test_direct_slot_writers_build_the_constructors_values():
    # SimplicialCone._face, Fan._sorted and cobordism._checked_circuit write
    # their slots directly, so they cover exactly these fields: a new one
    # must be written there too
    assert SimplicialCone._fields == ("rays",)
    assert Fan._fields == ("ambient_dim", "max_cones")
    assert Circuit._fields == ("rays", "relation", "pos", "neg", "link")
    face = SimplicialCone._face(((1, 0), (0, 1)))
    fan = Fan._sorted(2, [CONE])
    # a circuit on three of the four rays, with the fourth as its link
    lifted = SimplicialCone(((0, 0, 1, 0), (0, 1, 0, 0), (1, 0, 0, 0), (1, 1, 0, 1)))
    written = _checked_circuit(lifted, (0, -1, -1, 1))
    circuit = Circuit(((0, 1, 0, 0), (1, 0, 0, 0), (1, 1, 0, 1)), (-1, -1, 1),
                      ((1, 1, 0, 1),), ((0, 1, 0, 0), (1, 0, 0, 0)), ((0, 0, 1, 0),))
    assert circuit_of(lifted) == circuit
    for direct, built in ((face, CONE), (fan, FAN), (written, circuit)):
        assert direct == built and built == direct and not direct != built
        assert hash(direct) == hash(built) and repr(direct) == repr(built)
        for twin in (copy.copy(direct), copy.deepcopy(direct), pickle.loads(pickle.dumps(direct))):
            assert twin == direct == built and hash(twin) == hash(built)
    assert hash(face) == hash((CONE.rays,))
    assert getattr(face, "_dual_basis", None) is None


def test_oracles_are_not_exported():
    # test oracles and their error stay in their modules, off the package API
    for name in ("supports_equal", "minimal_containing_cone", "nonneg_combination",
                 "kernel_relation", "NullityTooLarge"):
        assert name not in fancob.__all__ and not hasattr(fancob, name)


def test_defaults():
    assert ValidationReport() == ValidationReport(()) and ValidationReport().ok


def test_collapse_graph_caches_its_components():
    graph = CollapseGraph((KEY,), (), {}, {})
    assert graph.components is graph.components == {KEY: KEY}


def test_import_stays_off_heavy_modules():
    # modules the interpreter loaded at start-up (a site .pth file, say)
    # are the baseline, not a failure
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import fancob, fancob.cli\n"
        "print(sorted({'dataclasses', 'inspect', 'fractions'} & (set(sys.modules) - before)))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60, check=True,
        env={**os.environ, "PYTHONPATH": str(Path(fancob.__file__).parents[1])},
    )
    assert proc.stdout == "[]\n"
