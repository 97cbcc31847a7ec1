import json
import os
import pickle
import re
import subprocess
import sys

import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

from satplat.compiler import compile_3sat
from satplat.formula import parse_dimacs
from satplat.level import (
    NP,
    PSPACE,
    Button,
    Door,
    Flag,
    Level,
    LevelBuilder,
    LevelError,
    PhysicsParams,
    Port,
    SpaceBlock,
    Spawn,
    UnstablePlatform,
    load_level,
    render_ascii,
    save_level,
    validate_level,
)
from satplat.sim import GameState, initial_state, step, walk
from satplat.solver import solve
from tests.conftest import level_from_art
from tests.test_level_bytes import np_levels, qbf_levels
from tests.test_solver import small_levels
from tests.test_step_core import compiled_levels


class TestRoundTrip:
    def test_minimal(self, minimal_level):
        assert load_level(save_level(minimal_level)) == minimal_level

    def test_document_is_byte_stable(self, minimal_level):
        doc = save_level(minimal_level)
        assert save_level(load_level(doc)) == doc

    def test_compiled_level(self, sample_formula):
        level = compile_3sat(sample_formula)
        assert load_level(save_level(level)) == level

    def test_compiled_pspace_level(self):
        from satplat.compiler import compile_qbf
        from satplat.formula import parse_qdimacs

        level = compile_qbf(parse_qdimacs("p cnf 2 1\ne 1 0\na 2 0\n1 2 -2 0"))
        assert load_level(save_level(level)) == level

    def test_entity_ordering_preserved(self):
        level = level_from_art(
            "#####\n#S.F#\n#####",
            entities=[
                UnstablePlatform((2, 1)),
            ],
        )
        again = load_level(save_level(level))
        assert again.entities == level.entities

    def test_cached_hash_matches_a_fresh_equal_level(self, sample_formula):
        level = compile_3sat(sample_formula)
        hash(level)  # fill the cache before the copy is made
        again = load_level(save_level(level))
        assert again == level
        assert hash(again) == hash(level)

    def test_a_level_takes_no_attribute(self, sample_formula):
        level = compile_3sat(sample_formula)
        for name in ("tiles", "_hash", "extra"):
            with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
                setattr(level, name, ())
        assert hash(level) == hash(load_level(save_level(level)))

    def test_pickled_level_rehashes_in_another_process(self, sample_formula):
        # String hashes are salted per process, so a hash cached in one
        # process must not travel with the level into another.
        level = compile_3sat(sample_formula)
        hash(level)
        script = (
            "import pickle, sys\n"
            "from satplat.level import load_level\n"
            "level = pickle.loads(sys.stdin.buffer.read())\n"
            "fresh = load_level(sys.argv[1])\n"
            "assert level == fresh and hash(level) == hash(fresh), 'stale hash'\n"
        )
        env = {**os.environ, "PYTHONHASHSEED": "12345",
               "PYTHONPATH": os.pathsep.join(sys.path)}
        done = subprocess.run([sys.executable, "-c", script, save_level(level)],
                              input=pickle.dumps(level), env=env, capture_output=True,
                              timeout=60)
        assert done.returncode == 0, done.stderr.decode()


# --- the document bytes ---------------------------------------------------

def old_document(level: Level) -> dict:
    """The canonical document in the older layout as a dict, as
    `save_level` built it for json.dumps before it wrote the document
    itself: "width" and "height" first, and a "dir" heading in each port
    record.  A level holds no heading, so every port heads "E"."""
    records = {UnstablePlatform: ("platform", ("cell",)),
               Door: ("door", ("id", "cells", "initially_open")),
               Button: ("button", ("cell", "door_id", "action")),
               SpaceBlock: ("space_block", ("rect",)),
               Spawn: ("spawn", ("cell",)), Flag: ("flag", ("cell",))}
    keys = {"initially_open": "open", "door_id": "door"}
    entities = []
    for e in level.entities:
        kind, fields = records[type(e)]
        entities.append({"kind": kind, **{keys.get(f, f): getattr(e, f) for f in fields}})
    return {
        "width": level.width,
        "height": level.height,
        "physics": {"J": level.physics.jump_rise, "D": level.physics.dash_length,
                    "R": level.physics.reform_distance},
        "tiles": list(reversed(level.tiles)),
        "entities": entities,
        "ports": {p.name: {"cell": list(p.cell), "dir": "E"}
                  for p in sorted(level.ports, key=lambda p: p.name)},
    }


def without_size_and_headings(doc: dict) -> dict:
    """An older-layout document with its "width", "height" and port "dir"
    members removed: the current layout."""
    doc = {key: value for key, value in doc.items() if key not in ("width", "height")}
    doc["ports"] = {name: {key: value for key, value in port.items() if key != "dir"}
                    for name, port in doc["ports"].items()}
    return doc


def document(level: Level) -> str:
    """The canonical document, as json.dumps writes it."""
    return json.dumps(without_size_and_headings(old_document(level)), indent=2) + "\n"


# Port names: any text, quotes, backslashes, control characters,
# non-ASCII and lone surrogates included.
port_text = st.text(st.characters(exclude_categories=()), max_size=6)


@given(small_levels(),
       st.lists(st.tuples(port_text, st.integers(0, 99)), max_size=3,
                unique_by=lambda port: port[0]))
@example(("#####\n#S.F#\n#####", ()),
         [('"\\\x00\x1f\u00e9\ud800', 0), ("", 1), ("\u2028\udfff\"\\", 2)])
@settings(max_examples=150, deadline=None)
def test_saved_small_levels_are_json_dumps_bytes_and_round_trip(spec, ports):
    try:
        level = level_from_art(*spec)
    except LevelError:
        reject()
    empty = [(x, y) for y, row in enumerate(level.tiles) for x, tile in enumerate(row)
             if tile == "."]
    ports = tuple(sorted((Port(name, empty[i % len(empty)]) for name, i in ports),
                         key=lambda port: port.name))
    level = Level(level.tiles, level.entities, ports=ports)
    assert validate_level(level) == []
    doc = save_level(level)
    assert doc == document(level)
    assert load_level(doc) == level


@pytest.mark.parametrize("entity, port, physics, refusal", [
    (Door(1.5, ((2, 1),)), None, None, "Object of type float is not JSON serializable"),
    (Button((2, 1), None), None, None, "NoneType is not JSON serializable"),
    (UnstablePlatform([2, 1]), None, None, "list is not JSON serializable"),
    (Door(0, [(2, 1)]), None, None, "list is not JSON serializable"),
    (Door(0, ((2, 1),), 0.5), None, None, "float is not JSON serializable"),
    (Button((2, 1), 0, None), None, None, "NoneType is not JSON serializable"),
    (Door(True, ((2, 1),)), None, None, "door id must be of type int, got True"),
    (None, Port("a", (2.5, 1)), None, "float is not JSON serializable"),
    (None, Port("a", [2, 1]), None, "list is not JSON serializable"),
    (None, Port(None, (2, 1)), None, "must be a string, not NoneType"),
    (None, None, PhysicsParams(3, 4.5, 2), "float is not JSON serializable"),
])
def test_save_refuses_what_a_level_never_holds(entity, port, physics, refusal):
    # A field of a type no valid level holds is not written (TypeError),
    # or is written as a document that `load_level` refuses.
    level = level_from_art("#####\n#S.F#\n#####", entities=[entity] if entity else [],
                           validate=False)
    level = Level(level.tiles, level.entities, physics=physics or PhysicsParams(),
                  ports=(port,) if port else ())
    assert [v.rule for v in validate_level(level)] == ["field-type"]
    with pytest.raises((TypeError, LevelError), match=re.escape(refusal)):
        load_level(save_level(level))


@pytest.mark.parametrize("rule, extra, variant, refusal", [
    ("in-bounds", (UnstablePlatform((7, 1)),), "NP",
     "[in-bounds] UnstablePlatform#2: cell (7, 1) outside the grid"),
    ("door-strip", (Door(0, ((2, 1), (2, 2), (2, 3), (2, 4))),), "NP",
     "[door-strip] Door#2: door must span 1-3 cells, has 4"),
    ("unique-door-id", (Door(0, ((2, 1),)), Door(0, ((2, 3),))), "NP",
     "[unique-door-id] Door#3: duplicate door id 0"),
    ("block-rect", (SpaceBlock((2, 2, 1, 2)),), "NP",
     "[block-rect] SpaceBlock#2: rect (2, 2, 1, 2) is degenerate or leaves the grid"),
    ("button-action", (Door(0, ((2, 4),)), Button((2, 1), 0, "toggle")), "NP",
     "[button-action] Button#3: unknown action 'toggle'"),
    ("dangling-door-id", (Button((2, 1), 7, "close"),), "PSPACE",
     "[dangling-door-id] Button#2: button targets missing door 7"),
    ("field-type", (Port("a", (2, 1)),), "NP",
     "unknown entity Port(name='a', cell=(2, 1))"),
])
def test_each_rule_refuses_a_level_that_breaks_it_alone(rule, extra, variant, refusal):
    # `save_level` does not write an entity that is not a record type
    # (the `field-type` level), and `load_level` refuses the document of
    # every other level.
    base = level_from_art("#####\n#...#\n#...#\n#...#\n#S.F#\n#####")
    level = Level(base.tiles, base.entities + extra)
    assert level.variant == variant  # PSPACE exactly when a button closes a door
    assert [v.rule for v in validate_level(level)] == [rule]
    with pytest.raises(LevelError, match=re.escape(refusal)):
        load_level(save_level(level))


@pytest.mark.parametrize("i", range(len(compiled_levels())))
def test_saved_compiled_levels_are_json_dumps_bytes(i):
    level = compiled_levels()[i]
    assert save_level(level) == document(level)


def document_declaring_variant(level: Level) -> str:
    """The level's document in the format that declared its variant: a
    top-level "variant" member first, and an "id" in each space block
    record, the blocks numbered in order."""
    doc = json.loads(save_level(level))
    blocks = [e for e in doc["entities"] if e["kind"] == "space_block"]
    for i, block in enumerate(blocks):
        rect = block.pop("rect")
        block.update(id=i, rect=rect)
    return json.dumps({"variant": level.variant, **doc}, indent=2) + "\n"


@pytest.mark.parametrize("levels", [np_levels, qbf_levels], ids=["np", "qbf"])
def test_documents_that_declare_a_variant_and_block_ids_still_load(levels):
    # The loader ignores the members it no longer reads: the pinned
    # levels' documents in the older format load to the same levels and
    # save to the current bytes.
    for level in levels():
        doc = document_declaring_variant(level)
        assert doc.startswith(f'{{\n  "variant": "{level.variant}",\n')
        assert doc.count('"kind": "space_block",\n      "id": ') == \
            sum(isinstance(e, SpaceBlock) for e in level.entities)
        assert load_level(doc) == level
        assert save_level(load_level(doc)) == save_level(level)


def test_a_document_declaring_np_with_a_close_button_loads_as_pspace():
    level = next(qbf_levels())
    assert level.variant == PSPACE
    doc = json.loads(document_declaring_variant(level))
    doc["variant"] = NP
    loaded = load_level(json.dumps(doc))
    assert loaded == level and loaded.variant == PSPACE


def test_a_document_without_a_size_or_port_headings_loads():
    # The grid's size is that of its rows, and a port record holds its
    # cell alone.
    doc = {"physics": {"J": 3, "D": 4, "R": 2},
           "tiles": ["######", "#....#", "######"],
           "entities": [{"kind": "spawn", "cell": [1, 1]}, {"kind": "flag", "cell": [4, 1]}],
           "ports": {"a": {"cell": [2, 1]}}}
    text = json.dumps(doc, indent=2) + "\n"
    level = load_level(text)
    assert (level.width, level.height) == (6, 3)
    assert level.ports == (Port("a", (2, 1)),)
    assert save_level(level) == text


@pytest.mark.parametrize("levels", [np_levels, qbf_levels], ids=["np", "qbf"])
def test_documents_that_state_a_size_and_port_headings_still_load(levels):
    # The older format wrote "width" and "height" first and a "dir" in
    # each port record.  Such a document of each pinned level loads to
    # the same level, and the current document is it with those members
    # removed.
    for level in levels():
        old = json.dumps(old_document(level), indent=2) + "\n"
        assert old.startswith(f'{{\n  "width": {level.width},\n  "height": {level.height},\n')
        assert old.count('"dir": "E"') == len(level.ports)
        assert load_level(old) == level
        assert save_level(load_level(old)) == save_level(level) == \
            json.dumps(without_size_and_headings(json.loads(old)), indent=2) + "\n"


@pytest.mark.parametrize("key, value", [("width", 99), ("height", 1), ("width", 4.0),
                                        ("height", "3"), ("dir", None), ("dir", 5)])
def test_old_members_are_ignored_whatever_they_hold(sample_formula, key, value):
    # A "width" or "height" that disagrees with the rows, or is not an
    # int, was refused; now the rows alone give the size.
    level = compile_3sat(sample_formula)
    doc = old_document(level)
    for record in doc["ports"].values() if key == "dir" else (doc,):
        record[key] = value
    loaded = load_level(json.dumps(doc))
    assert loaded == level and (loaded.width, loaded.height) == (level.width, level.height)
    assert save_level(loaded) == save_level(level)


@pytest.mark.parametrize("ids", [(5, 5), (-1, 0)])
def test_old_platform_ids_load_and_the_bits_are_the_ranks(ids):
    # The older format gave each platform record an "id", which picked
    # its bit; now a platform's bit is its rank among the level's
    # platforms.  A shared id, or one off the bit range, no longer
    # matters: the document loads, saves without ids, and the first
    # platform listed is bit 0 whatever id it carried.
    platforms = [{"kind": "platform", "id": pid, "cell": cell}
                 for pid, cell in zip(ids, ([2, 2], [5, 2]))]
    doc = {"width": 8, "height": 5, "physics": {"J": 3, "D": 4, "R": 2},
           "tiles": ["########", "#......#", "##.##.##", "#......#", "########"],
           "entities": [{"kind": "spawn", "cell": [1, 3]}, *platforms,
                        {"kind": "flag", "cell": [6, 3]}],
           "ports": {}}
    level = load_level(json.dumps(doc))
    assert [e.cell for e in level.entities if isinstance(e, UnstablePlatform)] == [(2, 2), (5, 2)]
    assert '"id"' not in save_level(level)
    assert load_level(save_level(level)) == level
    after = step(level, initial_state(level), walk(1))  # comes to rest on the first
    assert after == GameState(2, 3, 1, 0, 0b01)
    row = render_ascii(level, after).splitlines()[level.height - 1 - 2]
    assert (row[2], row[5]) == (".", "=")


def test_a_level_with_every_entity_kind_saves_as_json_dumps_bytes():
    level = level_from_art(
        "########\n#F.....#\n#.....S#\n########",
        entities=[Door(2, ((2, 1), (2, 2)), True), Button((3, 1), 2, "close"),
                  UnstablePlatform((4, 2)), SpaceBlock((5, 2, 5, 2))],
    )
    level = Level(level.tiles, level.entities,
                  ports=(Port("a", (3, 2)), Port("b\u00e9\"", (1, 1))))
    assert validate_level(level) == []
    doc = save_level(level)
    assert doc == document(level)
    assert load_level(doc) == level


class TestValidation:
    def test_minimal_is_valid(self, minimal_level):
        assert validate_level(minimal_level) == []

    def test_two_spawns(self):
        level = level_from_art("#####\n#S.F#\n#####", validate=False)
        level = Level(level.tiles, level.entities + (Spawn((2, 1)),))
        rules = {v.rule for v in validate_level(level)}
        assert "spawn-count" in rules

    def test_flag_on_solid(self):
        level = level_from_art("####\n#S.#\n####", validate=False)
        level = Level(level.tiles, level.entities + (Flag((2, 0)),))
        rules = {v.rule for v in validate_level(level)}
        assert "entity-on-empty" in rules

    def test_dangling_door_id(self):
        level = level_from_art(
            "#####\n#S.F#\n#####",
            entities=[Button((2, 1), 99)],
            validate=False,
        )
        rules = {v.rule for v in validate_level(level)}
        assert "dangling-door-id" in rules

    def test_entity_overlap(self):
        level = level_from_art(
            "#####\n#S.F#\n#####",
            entities=[UnstablePlatform((2, 1)), UnstablePlatform((2, 1))],
            validate=False,
        )
        rules = {v.rule for v in validate_level(level)}
        assert "entity-overlap" in rules

    def test_unsupported_spawn(self):
        level = level_from_art("####\n#S.#\n#..#\n####", validate=False)
        level = Level(level.tiles, level.entities + (Flag((2, 1)),))
        rules = {v.rule for v in validate_level(level)}
        assert "spawn-support" in rules

    def test_door_strip_shape(self):
        level = level_from_art(
            "#####\n#..F#\n#S..#\n#####",
            entities=[Door(0, ((2, 1), (3, 2)))],  # not vertically aligned
            validate=False,
        )
        rules = {v.rule for v in validate_level(level)}
        assert "door-strip" in rules

    def test_holes_in_every_border_are_named_columns_first_then_rows(self):
        tiles = ("#.######", "#......#", "........", "#......#", "####..##")  # bottom row first
        level = Level(tiles, (Spawn((3, 1)), Flag((4, 1))))
        found = [(v.subject, v.message) for v in validate_level(level)
                 if v.rule == "sealed-boundary"]
        assert found == [
            ("column 1", "top/bottom boundary must be solid"),
            ("column 4", "top/bottom boundary must be solid"),
            ("column 5", "top/bottom boundary must be solid"),
            ("row 2", "left/right boundary must be solid"),
        ]

    def test_a_hole_at_a_corner_is_named_by_column_and_row(self):
        tiles = ("####", "#..#", "#..#", "###.")
        level = Level(tiles, (Spawn((1, 1)), Flag((2, 1))))
        assert [v.subject for v in validate_level(level)] == ["column 3", "row 3"]

    @given(st.integers(1, 8).flatmap(
        lambda w: st.lists(st.text("#.", min_size=w, max_size=w), min_size=1, max_size=6)))
    @settings(max_examples=200, deadline=None)
    def test_sealed_boundary_matches_a_cell_by_cell_check(self, tiles):
        level = Level(tuple(tiles), ())
        expected = [f"column {x}" for x in range(level.width)
                    if tiles[0][x] != "#" or tiles[-1][x] != "#"]
        expected += [f"row {y}" for y in range(level.height)
                     if tiles[y][0] != "#" or tiles[y][-1] != "#"]
        assert [v.subject for v in validate_level(level) if v.rule == "sealed-boundary"] == expected

    def test_duplicate_port_names_refused_by_build(self):
        builder = LevelBuilder(5, 3)
        for x in (1, 2, 3):
            builder.carve(x, 1)
        builder.add(Spawn((1, 1)))
        builder.add(Flag((3, 1)))
        builder.add_port("p", (1, 1))
        builder.add_port("p", (2, 1))
        with pytest.raises(LevelError, match=r"\[unique-port-name\] port p: duplicate port name 'p'"):
            builder.build()

    def test_duplicate_port_names_refused_by_load(self, sample_formula):
        doc = save_level(compile_3sat(sample_formula))
        first = doc.index('"passage.flag_port": {')
        record = doc[first:doc.index("}", first) + 1]
        doc = doc.replace(record, record + ",\n    " + record)
        assert doc.count('"passage.flag_port"') == 2
        with pytest.raises(LevelError, match="duplicate key 'passage.flag_port'"):
            load_level(doc)

    def test_stray_tile_char(self, minimal_level):
        tiles = (minimal_level.tiles[0], minimal_level.tiles[1].replace(".", "x", 1),
                 *minimal_level.tiles[2:])
        level = Level(tiles, minimal_level.entities)
        assert "tile-char" in {v.rule for v in validate_level(level)}

    def test_load_rejects_a_stray_tile_char(self, minimal_level):
        doc = json.loads(save_level(minimal_level))
        doc["tiles"][1] = doc["tiles"][1].replace(".", "x", 1)
        with pytest.raises(LevelError, match="tile-char"):
            load_level(json.dumps(doc))

    def test_load_rejects_invalid(self, minimal_level):
        doc = save_level(minimal_level).replace('"spawn"', '"flag"')
        with pytest.raises(LevelError, match="flag"):
            load_level(doc)

    @pytest.mark.parametrize("kind, key, value", [
        ("spawn", "cell", "ab"),
        ("flag", "cell", [1, 2, 3]),
        ("platform", "cell", "0"),
        ("door", "cells", [[1.0, 2]]),
        ("button", "door", True),
        ("space_block", "rect", [1, 2, 3]),
        ("door", "open", []),
    ])
    def test_load_type_checks_entity_fields(self, sample_formula, kind, key, value):
        # an NP level holds no space block; a QBF level's elevator does
        level = compiled_levels()[2] if kind == "space_block" else compile_3sat(sample_formula)
        doc = json.loads(save_level(level))
        next(e for e in doc["entities"] if e["kind"] == kind)[key] = value
        with pytest.raises(LevelError, match="must be"):
            load_level(json.dumps(doc))

    @pytest.mark.parametrize("entity, message", [
        (Door(1.5, ((2, 1),)), "door id must be of type int, got 1.5"),
        (Door(True, ((2, 1),)), "door id must be of type int, got True"),
        (Door(0, ((2, 1),), "yes"), "door open must be of type bool, got 'yes'"),
    ])
    def test_build_type_checks_entity_fields_as_load_does(self, entity, message):
        # The level `build` refused is one that `save_level` cannot write
        # (a float) or whose document `load_level` refuses, with the same text.
        art = "#####\n#S.F#\n#####"
        with pytest.raises(LevelError, match=re.escape(
                f"[field-type] {type(entity).__name__}#0: {message}")):
            level_from_art(art, entities=[entity])
        level = level_from_art(art, entities=[entity], validate=False)
        assert [v.rule for v in validate_level(level)] == ["field-type"]
        if type(entity.id) is float:
            with pytest.raises(TypeError, match="float is not JSON serializable"):
                save_level(level)
        else:
            with pytest.raises(LevelError, match=re.escape(message)):
                load_level(save_level(level))

    @pytest.mark.parametrize("port, message", [
        (Port("a", (2.5, 1)), "Port#0: port cell must be a tuple of 2 ints, got (2.5, 1)"),
        (Port("a", [2, 1]), "Port#0: port cell must be a tuple of 2 ints, got [2, 1]"),
        (Port("a", (2, 1, 0)), "Port#0: port cell must be a tuple of 2 ints, got (2, 1, 0)"),
        (Port(7, (2, 1)), "Port#0: port name must be of type str, got 7"),
    ])
    def test_build_type_checks_port_fields_as_load_does(self, port, message):
        # Unchecked, the float cell is a TypeError inside `validate_level`,
        # and the others build levels that save or load refuses.
        builder = LevelBuilder(5, 3)
        for x in (1, 2, 3):
            builder.carve(x, 1)
        builder.add(Spawn((1, 1)))
        builder.add(Flag((3, 1)))
        builder.add_port(port.name, port.cell)
        with pytest.raises(LevelError, match=re.escape(f"[field-type] {message}")):
            builder.build()
        level = level_from_art("#####\n#S.F#\n#####")
        level = Level(level.tiles, level.entities, ports=(port,))
        assert [str(v) for v in validate_level(level)] == [f"[field-type] {message}"]

    @pytest.mark.parametrize("physics, message", [
        (PhysicsParams(3, 4.5, 2), "physics D must be of type int, got 4.5"),
        (PhysicsParams(True, 4, 2), "physics J must be of type int, got True"),
        (PhysicsParams(3, 4, 2.0), "physics R must be of type int, got 2.0"),
    ])
    def test_physics_fields_are_type_checked_as_load_does(self, physics, message):
        level = level_from_art("#####\n#S.F#\n#####")
        level = Level(level.tiles, level.entities, physics=physics)
        assert [str(v) for v in validate_level(level)] == [f"[field-type] PhysicsParams#0: {message}"]
        doc = json.loads(save_level(Level(level.tiles, level.entities)))
        doc["physics"].update(J=physics.jump_rise, D=physics.dash_length,
                              R=physics.reform_distance)
        with pytest.raises(LevelError, match=re.escape(message)):
            load_level(json.dumps(doc))

    @pytest.mark.parametrize("row", [12345, None, ["#S.F#"]])
    def test_tile_rows_are_type_checked_as_load_does(self, row):
        level = level_from_art("#####\n#S.F#\n#####")
        message = f"tiles row must be of type str, got {row!r}"
        typed = Level((level.tiles[0], row, level.tiles[2]), level.entities)
        assert [str(v) for v in validate_level(typed)] == [f"[field-type] row 1: {message}"]
        doc = json.loads(save_level(level))
        doc["tiles"][1] = row
        with pytest.raises(LevelError, match=re.escape(message)):
            load_level(json.dumps(doc))

    @pytest.mark.parametrize("key, subject, message", [
        ("tiles", "tiles", "tiles must be of type tuple, got list"),
        ("entities", "entities", "entities must be of type tuple, got list"),
        ("ports", "ports", "ports must be of type tuple, got list"),
        ("row", "row 1", "tiles row must be of type str, got b'#S.F#'"),
    ])
    def test_containers_are_tuples_and_rows_are_strs(self, key, subject, message):
        # Unchecked, `solve` fails to hash a level of lists, and a
        # `bytes` row is a TypeError inside the tile rules.
        level = level_from_art("#####\n#S.F#\n#####")
        fields = {"tiles": level.tiles, "entities": level.entities, "ports": level.ports}
        if key == "row":
            fields["tiles"] = (level.tiles[0], b"#S.F#", level.tiles[2])
        else:
            fields[key] = list(fields[key])
        typed = Level(**fields)
        assert [str(v) for v in validate_level(typed)] == [f"[field-type] {subject}: {message}"]

    @pytest.mark.parametrize("tiles, found", [("#####", "str"), ({"0": "#####"}, "dict")])
    def test_load_reads_the_tiles_as_a_list(self, minimal_level, tiles, found):
        doc = json.loads(save_level(minimal_level))
        doc["tiles"] = tiles
        with pytest.raises(LevelError, match=f"tiles must be of type list, got {found}$"):
            load_level(json.dumps(doc))

    @pytest.mark.parametrize("key, value, message", [
        ("entities", {"kind": "spawn"}, "entities must be of type list, got dict"),
        ("ports", [], "ports must be of type dict, got list"),
        ("physics", [3, 4, 2], "physics must be of type dict, got list"),
    ])
    def test_load_names_a_malformed_container_by_its_type(self, minimal_level, key, value,
                                                          message):
        doc = json.loads(save_level(minimal_level))
        doc[key] = value
        with pytest.raises(LevelError) as err:
            load_level(json.dumps(doc))
        assert str(err.value) == message

    def test_entity_fields_must_be_tuples(self):
        level = level_from_art("#####\n#S.F#\n#####", entities=[UnstablePlatform([2, 1])],
                               validate=False)
        assert [str(v) for v in validate_level(level)] == [
            "[field-type] UnstablePlatform#0: platform cell must be a tuple of 2 ints, "
            "got [2, 1]"]

    @pytest.mark.parametrize("tiles", [["", "", ""], []], ids=["zero-width", "no-rows"])
    def test_load_rejects_a_zero_size_grid(self, minimal_level, tiles):
        doc = json.loads(save_level(minimal_level))
        doc["tiles"] = tiles
        with pytest.raises(LevelError, match="grid-shape"):
            load_level(json.dumps(doc))

    def test_load_rejects_rows_of_two_widths(self, minimal_level):
        # The first row sets the width; every other row must match it.
        doc = json.loads(save_level(minimal_level))
        doc["tiles"][1] += "#"
        with pytest.raises(LevelError, match="grid-shape"):
            load_level(json.dumps(doc))

    def test_huge_block_rect_rejected_quickly(self, minimal_level):
        doc = json.loads(save_level(minimal_level))
        doc["entities"].append({"kind": "space_block", "id": 0, "rect": [2, 2, 400, 400]})
        with pytest.raises(LevelError, match="block-rect") as err:
            load_level(json.dumps(doc))
        assert len(str(err.value)) < 1000

    @pytest.mark.parametrize("kind, value", [("door", -1), ("door", 10**6)])
    def test_out_of_range_bit_id_rejected(self, sample_formula, kind, value):
        # door ids are bit positions of the search state
        doc = json.loads(save_level(compile_3sat(sample_formula)))
        next(e for e in doc["entities"] if e["kind"] == kind)["id"] = value
        with pytest.raises(LevelError, match="bit-id-range"):
            load_level(json.dumps(doc))

    @pytest.mark.parametrize("cell", [[104, 1], [0, 1], [-1, 1]])
    def test_port_off_an_empty_cell_rejected(self, sample_formula, cell):
        doc = json.loads(save_level(compile_3sat(sample_formula)))
        doc["ports"]["passage.flag_port"]["cell"] = cell
        with pytest.raises(LevelError, match="port-cell"):
            load_level(json.dumps(doc))

    def test_jump_rise_above_the_grid_rejected(self, sample_formula):
        doc = json.loads(save_level(compile_3sat(sample_formula)))
        doc["physics"]["J"] = len(doc["tiles"]) + 1
        with pytest.raises(LevelError, match="physics-range"):
            load_level(json.dumps(doc))

    def test_bad_physics_rejected(self):
        with pytest.raises(LevelError):
            PhysicsParams(0, 4, 2)

    def test_compiled_levels_validate_clean(self, sample_formula):
        assert validate_level(compile_3sat(sample_formula)) == []


class TestRender:
    def test_minimal_shape_and_glyphs(self, minimal_level):
        text = render_ascii(minimal_level)
        lines = text.splitlines()
        assert len(lines) == minimal_level.height
        assert all(len(l) == minimal_level.width for l in lines)
        assert "S" in text and "F" in text

    def test_door_open_and_closed_glyphs(self):
        level = level_from_art(
            "######\n#S..F#\n######",
            entities=[Door(0, ((2, 1),)), Door(1, ((3, 1),), initially_open=True)],
            validate=False,
        )
        text = render_ascii(level)
        assert "D" in text and "d" in text
        # with a live state, glyphs follow the door bits
        state = GameState(1, 1, 1, 0b01, 0)
        text = render_ascii(level, state)
        row = text.splitlines()[1]
        assert row[2] == "d" and row[3] == "D"

    def test_broken_platform_renders_empty(self):
        level = level_from_art(
            "######\n#S..F#\n##=..#\n#....#\n######",
            entities=[UnstablePlatform((2, 2))],
            validate=False,
        )
        assert "=" in render_ascii(level)
        # walk onto the platform: it breaks under the player
        state = initial_state(level)
        out = step(level, state, walk(1))
        assert isinstance(out, GameState)
        assert out.platform_broken == 1
        art = render_ascii(level, out)
        assert "=" not in art
        assert "@" in art

    @pytest.mark.parametrize("x", [-1, 24])
    def test_a_state_off_the_level_is_refused(self, x):
        # x = -1 would index the row from its east end, and x = 24 past it
        level = compile_3sat(parse_dimacs("p cnf 1 1\n1 1 1 0\n"))
        assert (level.width, level.height) == (24, 26)
        state = initial_state(level)._replace(x=x)
        refusal = f"position ({x}, {state.y}) is off the level"
        with pytest.raises(ValueError, match=re.escape(refusal)):
            render_ascii(level, state)

    def test_player_glyph(self, minimal_level):
        text = render_ascii(minimal_level, initial_state(minimal_level))
        assert text.splitlines()[1][1] == "@"

    def test_space_block_glyph(self):
        level = level_from_art(
            "#####\n#S.F#\n#####",
            entities=[SpaceBlock((2, 1, 2, 1))],
            validate=False,
        )
        assert "*" in render_ascii(level)


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 40) | st.floats(allow_nan=False)
    | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                max_size=3),
    max_leaves=5,
)


def field_paths(node, prefix=()):
    """The key path of every value inside a JSON document."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield prefix + (key,)
        yield from field_paths(child, prefix + (key,))


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_load_level_rejects_any_malformed_field_cleanly(sample_formula, data):
    # One field of a valid document replaced by an arbitrary JSON value:
    # load_level either rejects it with LevelError or returns a level
    # that the solver can take.
    doc = json.loads(save_level(compile_3sat(sample_formula)))
    path = data.draw(st.sampled_from(list(field_paths(doc))))
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = data.draw(JSON_VALUES)
    try:
        level = load_level(json.dumps(doc))
    except LevelError:
        return
    solve(level, max_states=200)
