"""The library's value types: none is a dataclass, a value is equal, and
hashes equal, only to a value of its own kind, and a checked kind checks
its fields on every path that builds a value."""

import dataclasses
import importlib
import itertools
import pickle
import pkgutil

import pytest

import satplat
from satplat.compiler import Placement, Wire
from satplat.corpus import CorpusSpec, CorpusSummary
from satplat.formula import CnfFormula, FormulaError, QbfFormula, Quantifier
from satplat.gadgets import Assertion, GadgetBlueprint
from satplat.level import (
    Button,
    Door,
    Flag,
    Level,
    LevelError,
    PhysicsParams,
    Port,
    SpaceBlock,
    Spawn,
    UnstablePlatform,
    Violation,
    validate_level,
)
from satplat.sim import BLOCKED, DEATH, Blocked, Death, sim_context, walk
from satplat.solver import LimitExceeded, SearchStats, Solvable, Unsolvable, solve
from satplat.verify import EquivalenceReport

# The value types with fields; `sim.Blocked` has none.
VALUE_TYPES = (UnstablePlatform, Door, Button, SpaceBlock, Spawn, Flag, Port, Violation,
               Assertion, GadgetBlueprint, Placement, Wire, SearchStats, Solvable,
               Unsolvable, LimitExceeded, EquivalenceReport, CorpusSummary, Death,
               PhysicsParams, Level, CnfFormula, QbfFormula, CorpusSpec)


def field_count(cls) -> int:
    return len(cls._fields)


def unchecked(kind, fields):
    """A value of `kind` built from `fields` as they are: the checked
    kinds refuse most of the fields these tests build values from."""
    return tuple.__new__(kind, fields)


SAME_SHAPE = [(a, b) for a, b in itertools.combinations(VALUE_TYPES, 2)
              if field_count(a) == field_count(b)]


def test_every_field_count_is_shared_by_some_pair():
    assert {field_count(a) for a, _ in SAME_SHAPE} == {1, 2, 3, 5}


@pytest.mark.parametrize("kinds", SAME_SHAPE, ids=lambda k: f"{k[0].__name__}-{k[1].__name__}")
def test_values_of_two_kinds_built_from_one_tuple_differ(kinds):
    fields = tuple(range(1, field_count(kinds[0]) + 1))
    a, b = (unchecked(kind, fields) for kind in kinds)
    assert a != b and b != a
    assert not a == b
    assert len({a, b}) == 2
    again = unchecked(kinds[0], fields)
    assert a == again and hash(a) == hash(again)


@pytest.mark.parametrize("kind", VALUE_TYPES, ids=lambda k: k.__name__)
def test_a_value_differs_from_the_tuple_of_its_fields(kind):
    fields = tuple(range(1, field_count(kind) + 1))
    value = unchecked(kind, fields)
    assert value != fields and fields != value
    assert not value == fields
    assert len({value, fields}) == 2


def test_no_module_level_class_is_a_dataclass():
    found = set()
    for info in pkgutil.iter_modules(satplat.__path__):
        if info.name == "__main__":  # importing it runs the command line
            continue
        module = importlib.import_module(f"satplat.{info.name}")
        for name, obj in vars(module).items():
            if (isinstance(obj, type) and obj.__module__ == module.__name__
                    and dataclasses.is_dataclass(obj)):
                found.add(f"{info.name}.{name}")
    assert found == set()


# Per checked kind: the fields of a good value, a bad value's fields, and
# the exception type and message that refuse it.
CHECKED = {
    PhysicsParams: ((3, 4, 2), (0, 4, 2), LevelError, "bad physics: J=0 D=4 R=2"),
    CnfFormula: ((2, ((1, -2, 2),)), (2, ((1, -3, 2),)), FormulaError,
                 "clause 1 uses variable 3 but the formula declares only 2"),
    QbfFormula: ((((Quantifier.FORALL, 1), (Quantifier.EXISTS, 2)), CnfFormula(2, ())),
                 (((Quantifier.FORALL, 1), (Quantifier.EXISTS, 1)), CnfFormula(2, ())),
                 FormulaError, "variable 1 quantified twice"),
    CorpusSpec: (("RANDOM", "PSPACE", 2, 2, 3, 2, 5, 7), ("RANDOM", "PSPACE", 2, 2, 3, 2, 0, 7),
                 ValueError, "corpus count must be at least 1, got 0"),
}

# Each path that builds a value of a kind from a tuple of its fields.
PATHS = {
    "constructor": lambda kind, fields: kind(*fields),
    "_make": lambda kind, fields: kind._make(fields),
    "_replace": lambda kind, fields: kind(*CHECKED[kind][0])._replace(
        **dict(zip(kind._fields, fields))),
    "pickle": lambda kind, fields: pickle.loads(pickle.dumps(unchecked(kind, fields))),
    "pickle-0": lambda kind, fields: pickle.loads(pickle.dumps(unchecked(kind, fields), 0)),
}


@pytest.mark.parametrize("path", PATHS)
@pytest.mark.parametrize("kind", CHECKED, ids=lambda k: k.__name__)
def test_a_checked_kind_checks_on_every_path_that_builds_a_value(kind, path):
    good, bad, error, message = CHECKED[kind]
    build = PATHS[path]
    value = build(kind, good)
    assert type(value) is kind and value == kind(*good)
    with pytest.raises(error) as caught:
        build(kind, bad)
    assert type(caught.value) is error and str(caught.value) == message


def test_blocked_is_true_and_equal_to_its_own_kind_alone():
    assert BLOCKED and Blocked() == BLOCKED and hash(Blocked()) == hash(BLOCKED)
    assert BLOCKED != DEATH and repr(BLOCKED) == "Blocked()"


def corridor(second, third) -> Level:
    """A one-row corridor under a solid ceiling: the spawn at x=1, then
    entities of the kinds `second` and `third` at x=2 and x=3.  An intact
    platform cannot be walked, jumped or dashed past here."""
    return Level(tiles=("#####", "#...#", "#####"),
                 entities=(Spawn((1, 1)), second((2, 1)), third((3, 1))))


def test_levels_that_differ_only_in_entity_kinds_are_solved_apart():
    near, far = corridor(Flag, UnstablePlatform), corridor(UnstablePlatform, Flag)
    # Entity i of one level has the cell of entity i of the other.
    assert [e.cell for e in near.entities] == [e.cell for e in far.entities]
    assert near != far
    assert validate_level(near) == [] and validate_level(far) == []
    for order in ((near, far), (far, near)):
        sim_context.cache_clear()
        results = {id(level): solve(level) for level in order}
        assert isinstance(results[id(near)], Solvable)
        assert results[id(near)].trace == (walk(1),)
        assert isinstance(results[id(far)], Unsolvable)
