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
from fancob.cli import CommandResult
from fancob.cobordism import Circuit, Cobordism
from fancob.collapse import CollapseGraph, FactorStep, StepKind
from fancob.demos import DemoReport, ScheduleEntry
from fancob.fan import Fan, SimplicialCone, ValidationReport

CONE = SimplicialCone(((0, 1), (1, 0)))
FAN = Fan(2, (CONE,))
COB = Cobordism.from_fan(Fan(3, (SimplicialCone(((0, 1, 0), (1, 0, 0), (1, 1, 1))),)), 2)
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
    (CommandResult, (0, {"valid": True}, ["result: valid"]), []),
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
    value = cls(*args)
    assert cls(**dict(zip(names, args))) == value
    assert tuple(getattr(value, n) for n in names) == args
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


def test_defaults():
    assert ValidationReport() == ValidationReport(()) and ValidationReport().ok
    assert CommandResult(2, {}).lines == []


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
