"""The library's value types: which are dataclasses, and the rule that a
value is equal, and hashes equal, only to a value of its own kind."""

import dataclasses
import importlib
import itertools
import pkgutil

import pytest

import satplat
from satplat.compiler import Placement, Wire
from satplat.gadgets import Assertion, GadgetBlueprint
from satplat.level import (
    Button,
    Door,
    Flag,
    Level,
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
               Unsolvable, LimitExceeded, EquivalenceReport, Death)

# Each of these checks its fields after it is built, changes after it is
# built, or caches its hash in its instance.
DATACLASSES = {"level.PhysicsParams", "level.Level", "formula.Literal", "formula.Clause",
               "formula.CnfFormula", "formula.QbfFormula", "compiler.LayoutPlan",
               "verify.CorpusSpec", "verify.CorpusSummary"}


def field_count(cls) -> int:
    return len(getattr(cls, "_fields", None) or dataclasses.fields(cls))


SAME_SHAPE = [(a, b) for a, b in itertools.combinations(VALUE_TYPES, 2)
              if field_count(a) == field_count(b)]


def test_every_field_count_is_shared_by_some_pair():
    assert {field_count(a) for a, _ in SAME_SHAPE} == {1, 2, 3, 5}


@pytest.mark.parametrize("kinds", SAME_SHAPE, ids=lambda k: f"{k[0].__name__}-{k[1].__name__}")
def test_values_of_two_kinds_built_from_one_tuple_differ(kinds):
    fields = tuple(range(1, field_count(kinds[0]) + 1))
    a, b = (kind(*fields) for kind in kinds)
    assert a != b and b != a
    assert not a == b
    assert len({a, b}) == 2
    assert a == kinds[0](*fields) and hash(a) == hash(kinds[0](*fields))


def test_the_module_level_dataclasses_are_the_nine_kept():
    found = set()
    for info in pkgutil.iter_modules(satplat.__path__):
        if info.name == "__main__":  # importing it runs the command line
            continue
        module = importlib.import_module(f"satplat.{info.name}")
        for name, obj in vars(module).items():
            if (isinstance(obj, type) and obj.__module__ == module.__name__
                    and dataclasses.is_dataclass(obj)):
                found.add(f"{info.name}.{name}")
    assert found == DATACLASSES


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
