"""Level data model: a rectangular tile grid plus entity records.

Coordinates are (x, y) with x growing rightward and y growing upward;
row 0 is the bottom of the grid.  Tiles are stored bottom row first; the
text document and the ASCII renderer both show the top row first.  A
level states only what it cannot derive: its size is that of its rows,
and its variant follows from its entities (`variant_of`).
"""

import json
from functools import wraps
from typing import NamedTuple

Cell = tuple[int, int]

SOLID = "#"
EMPTY = "."

NP = "NP"
PSPACE = "PSPACE"

OPEN = "open"
CLOSE = "close"


class LevelError(ValueError):
    """Raised for malformed level documents or invalid level structure."""


def _same_kind(self, other) -> bool:
    return type(other) is type(self) and tuple.__eq__(self, other)


def _other_kind(self, other) -> bool:
    return not _same_kind(self, other)


def _kind_hash(self) -> int:
    return hash((type(self), tuple.__hash__(self)))


def own_kind(cls):
    """Make a NamedTuple value type equal, and hash equal, only to its own
    kind: a plain tuple compares by its items, and then
    `Spawn((1, 1)) == Flag((1, 1))`, and two levels that differ only in an
    entity's kind would share one `sim_context`."""
    cls.__eq__, cls.__ne__, cls.__hash__ = _same_kind, _other_kind, _kind_hash
    return cls


def _by_fields(self):
    """Pickle and copy a value as a call of its type on its fields."""
    return type(self), tuple(self)


def checked(cls):
    """An `own_kind` NamedTuple whose `_check(value)` runs on every path
    that builds a value: the constructor through `__new__`, `_replace`
    through `_make`, and unpickling and copying through `__reduce__`,
    which rebuild the value by its constructor.  A NamedTuple body may
    define neither `__new__` nor `_make`, so they are set here, around
    the generated ones; the generated `_make` builds its tuple without
    calling `__new__`."""
    new, make, check = cls.__new__, cls._make.__func__, cls._check

    @wraps(new)
    def __new__(kind, *args, **kwargs):
        value = new(kind, *args, **kwargs)
        check(value)
        return value

    @wraps(make)
    def _make(kind, iterable):
        value = make(kind, iterable)
        check(value)
        return value

    cls.__new__, cls._make = staticmethod(__new__), classmethod(_make)
    cls.__reduce__ = _by_fields
    return own_kind(cls)


@checked
class PhysicsParams(NamedTuple):
    """Calibration constants for the simplified movement model.

    jump_rise: maximum cells a jump ascends; dash_length: cells a dash
    travels; reform_distance: Chebyshev distance at which a broken
    platform reforms.
    """

    jump_rise: int = 3
    dash_length: int = 4
    reform_distance: int = 2

    def _check(self):
        if self.jump_rise < 1 or self.dash_length < 2 or self.reform_distance < 1:
            raise LevelError(
                f"bad physics: J={self.jump_rise} D={self.dash_length} R={self.reform_distance}"
            )


@own_kind
class UnstablePlatform(NamedTuple):
    """Breaks when stood on, reforms once the player is far enough away;
    impassable from every direction while intact.  Nothing refers to a
    platform but its cell: its bit in `GameState.platform_broken` is its
    rank, its place among the level's platforms in entity order."""

    cell: Cell


@own_kind
class Door(NamedTuple):
    """A vertical strip of 1-3 cells; passable only while open."""

    id: int
    cells: tuple[Cell, ...]
    initially_open: bool = False


@own_kind
class Button(NamedTuple):
    """Fired by a dash passing through its cell; blocks walking."""

    cell: Cell
    door_id: int
    action: str = OPEN


@own_kind
class SpaceBlock(NamedTuple):
    """A rectangular region that carries a dashing player straight through."""

    rect: tuple[int, int, int, int]  # x0, y0, x1, y1 inclusive

    @property
    def cells(self) -> list[Cell]:
        x0, y0, x1, y1 = self.rect
        return [(x, y) for y in range(y0, y1 + 1) for x in range(x0, x1 + 1)]


@own_kind
class Spawn(NamedTuple):
    cell: Cell


@own_kind
class Flag(NamedTuple):
    cell: Cell


Entity = UnstablePlatform | Door | Button | SpaceBlock | Spawn | Flag


def variant_of(entities) -> str:
    """PSPACE exactly when some button closes a door, else NP: the close
    button is the one entity the PSPACE result adds to the NP game."""
    return PSPACE if any(isinstance(e, Button) and e.action == CLOSE for e in entities) else NP


@own_kind
class Port(NamedTuple):
    """A named boundary cell of a stamped gadget, kept as level metadata:
    a location of the gadget's interface, which its contract names."""

    name: str
    cell: Cell


@own_kind
class _LevelFields(NamedTuple):
    tiles: tuple[str, ...]  # bottom row first, strings of '#'/'.'
    entities: tuple[Entity, ...]
    physics: PhysicsParams = PhysicsParams()
    ports: tuple[Port, ...] = ()


class Level(_LevelFields):
    """A tile grid, its entities, its physics and its ports; its width and
    height are those of its rows.  A subclass of its NamedTuple, which
    has no instance dict, so that it can cache its hash in its own:
    `sim_context` hashes the level on every call."""

    def __hash__(self) -> int:
        # Every field is immutable, so the hash is computed once.
        h = self.__dict__.get("_hash")
        if h is None:
            h = self.__dict__["_hash"] = _kind_hash(self)
        return h

    # String hashes differ between processes: never pickle the cache.
    __reduce__ = _by_fields

    def __setattr__(self, name: str, value):
        # The instance dict holds the hash cache alone, as a frozen value's.
        raise AttributeError(f"cannot assign to field {name!r}")

    @property
    def width(self) -> int:
        return len(self.tiles[0]) if self.tiles else 0

    @property
    def height(self) -> int:
        return len(self.tiles)

    @property
    def variant(self) -> str:
        return variant_of(self.entities)

    @property
    def spawn(self) -> Spawn:
        return next(e for e in self.entities if isinstance(e, Spawn))

    @property
    def flag(self) -> Flag:
        return next(e for e in self.entities if isinstance(e, Flag))

    def port(self, name: str) -> Port:
        for p in self.ports:
            if p.name == name:
                return p
        raise LevelError(f"unknown port {name!r}")


@own_kind
class Violation(NamedTuple):
    rule: str
    subject: str
    message: str

    def __str__(self) -> str:
        return f"[{self.rule}] {self.subject}: {self.message}"


def validate_level(level: Level) -> list[Violation]:
    """All level invariants; an empty list means the level is valid.
    The rules read the tiles and the physics, entity and port fields as
    typed, so none runs unless every such field has the type
    `load_level` reads (rule `field-type`)."""
    return _field_types(level) or _invariants(level)


def _field_types(level: Level) -> list[Violation]:
    """A `field-type` violation for tiles, entities or ports that are not
    a tuple, for a tile row that is not a str, and for the physics, each
    entity and each port that is not of its record type, or whose fields
    fail the checks `load_level` reads them with (on the level's tuples,
    where a document has lists)."""
    out = []
    for key, kind in (("tiles", tuple), ("entities", tuple), ("ports", tuple)):
        try:
            _typed(getattr(level, key), kind, key)
        except LevelError as exc:
            out.append(Violation("field-type", key, str(exc)))
    # A container of the wrong type is named above and not walked.
    tiles, entities, ports = (objs if type(objs) is tuple else ()
                              for objs in (level.tiles, level.entities, level.ports))
    for y, row in enumerate(tiles):
        try:
            _typed(row, str, "tiles", "row")
        except LevelError as exc:
            out.append(Violation("field-type", f"row {y}", str(exc)))
    for part, objs, records in (("physics", (level.physics,), {PhysicsParams: _PHYSICS}),
                                ("entity", entities, _RECORDS),
                                ("port", ports, {Port: _PORT_FIELDS})):
        for i, obj in enumerate(objs):
            record = records.get(type(obj))
            if record is None:
                out.append(Violation("field-type", f"{part} #{i}",
                                     f"not a {part} record type: {obj!r}"))
                continue
            kind, fields = record
            try:
                for key, attr, check, arg in fields:
                    check(getattr(obj, attr), arg, kind, key, seq=tuple)
            except LevelError as exc:
                out.append(Violation("field-type", f"{type(obj).__name__}#{i}", str(exc)))
    return out


def _stray(tiles) -> bytes:
    """The tiles' text (UTF-8) with every tile character deleted, in one
    pass over the whole grid: every build, load and save runs it."""
    return "".join(tiles).encode().translate(None, (SOLID + EMPTY).encode())


def _invariants(level: Level) -> list[Violation]:
    """Every rule of `validate_level` but `field-type`."""
    out: list[Violation] = []

    def bad(rule: str, subject: str, message: str):
        out.append(Violation(rule, subject, message))

    width, height = level.width, level.height
    if width < 1 or any(len(r) != width for r in level.tiles):
        bad("grid-shape", "tiles",
            "tile grid must have at least one row, every row of one non-zero width")
        return out  # nothing else is checkable
    stray = _stray(level.tiles)
    if stray:
        bad("tile-char", "tiles", f"a tile is '#' or '.', got {sorted(set(stray.decode()))}")

    bottom, top = level.tiles[0], level.tiles[-1]
    if bottom.strip(SOLID) or top.strip(SOLID):  # some column's end is open
        for x, ends in enumerate(zip(bottom, top)):
            if ends != (SOLID, SOLID):
                bad("sealed-boundary", f"column {x}", "top/bottom boundary must be solid")
    for y, row in enumerate(level.tiles):
        if row[0] != SOLID or row[-1] != SOLID:
            bad("sealed-boundary", f"row {y}", "left/right boundary must be solid")

    # No jump rises past the grid, and the move table built before the
    # search grows with the square of the jump rise.
    if level.physics.jump_rise > height:
        bad("physics-range", "physics",
            f"jump rise {level.physics.jump_rise} exceeds the grid height {height}")

    seen_cells: dict[Cell, str] = {}
    door_ids: set[int] = set()
    spawns = flags = 0
    n_cells = width * height  # door ids are bit positions

    for i, ent in enumerate(level.entities):
        name = f"{type(ent).__name__}#{i}"
        fits = True
        if isinstance(ent, SpaceBlock):
            # corners first: listing a huge rect's cells has no time bound
            x0, y0, x1, y1 = ent.rect
            fits = 0 <= x0 <= x1 < width and 0 <= y0 <= y1 < height
            if not fits:
                bad("block-rect", name, f"rect {ent.rect} is degenerate or leaves the grid")
        cells = ent.cells if isinstance(ent, (Door, SpaceBlock)) else (ent.cell,)
        for cell in cells if fits else ():
            x, y = cell
            if not (0 <= x < width and 0 <= y < height):
                bad("in-bounds", name, f"cell {cell} outside the grid")
                continue
            if level.tiles[y][x] != EMPTY:
                bad("entity-on-empty", name, f"cell {cell} is not an EMPTY tile")
            if cell in seen_cells:
                bad("entity-overlap", name, f"cell {cell} already used by {seen_cells[cell]}")
            seen_cells[cell] = name

        if isinstance(ent, Spawn):
            spawns += 1
        elif isinstance(ent, Flag):
            flags += 1
        elif isinstance(ent, Door):
            if not 0 <= ent.id < n_cells:
                bad("bit-id-range", name, f"door id {ent.id} outside 0..{n_cells - 1}")
            if ent.id in door_ids:
                bad("unique-door-id", name, f"duplicate door id {ent.id}")
            door_ids.add(ent.id)
            if not 1 <= len(ent.cells) <= 3:
                bad("door-strip", name, f"door must span 1-3 cells, has {len(ent.cells)}")
            xs = {c[0] for c in ent.cells}
            ys = sorted(c[1] for c in ent.cells)
            if len(xs) != 1 or ys != list(range(ys[0], ys[0] + len(ys))):
                bad("door-strip", name, "door cells must form a vertical contiguous strip")

    for i, ent in enumerate(level.entities):
        if isinstance(ent, Button):
            name = f"Button#{i}"
            if ent.door_id not in door_ids:
                bad("dangling-door-id", name, f"button targets missing door {ent.door_id}")
            if ent.action not in (OPEN, CLOSE):
                bad("button-action", name, f"unknown action {ent.action!r}")

    # A document keys ports by name, and `load_level` refuses a repeated key.
    port_names: set[str] = set()
    for port in level.ports:
        x, y = port.cell
        if not (0 <= x < width and 0 <= y < height) or level.tiles[y][x] != EMPTY:
            bad("port-cell", f"port {port.name}", f"cell {port.cell} is not an EMPTY tile in the grid")
        if port.name in port_names:
            bad("unique-port-name", f"port {port.name}", f"duplicate port name {port.name!r}")
        port_names.add(port.name)

    if spawns != 1:
        bad("spawn-count", "level", f"exactly one Spawn required, found {spawns}")
    if flags != 1:
        bad("flag-count", "level", f"exactly one Flag required, found {flags}")

    if spawns == 1:
        # The start state is at rest: an open door under the spawn would
        # let the player fall before the first move.
        sx, sy = level.spawn.cell
        below = (sx, sy - 1)
        outside = not (0 <= sx < width and 0 < sy <= height)  # a cell off the grid is solid
        supported = outside or level.tiles[sy - 1][sx] == SOLID or any(
            (isinstance(e, UnstablePlatform) and e.cell == below)
            or (isinstance(e, Door) and not e.initially_open and below in e.cells)
            for e in level.entities
        )
        if not supported:
            bad("spawn-support", "Spawn", f"no support beneath spawn cell ({sx}, {sy})")

    return out


# --- serialization ----------------------------------------------------------

_quote = json.encoder.encode_basestring_ascii  # the C function json.dumps quotes with


def _value(value, pad: str) -> str:
    """A field of a level as `json.dumps(value, indent=2)` writes it on a
    line indented by `pad`: an int, bool or str, or a tuple of these or of
    int tuples.  Any other type (a float, None, a list) raises TypeError."""
    kind = type(value)
    if kind is int:
        return int.__repr__(value)
    if kind is str:
        return _quote(value)
    if kind is tuple:
        inner = pad + "  "
        return _block("[]", [_value(v, inner) for v in value], pad)
    if kind is bool:
        return "true" if value else "false"
    raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")


def _block(brackets: str, items: list[str], pad: str) -> str:
    """A JSON array or object (`brackets` is "[]" or "{}") of the written
    items, laid out as `json.dumps(indent=2)` lays it out on a line
    indented by `pad`."""
    if not items:
        return brackets
    inner = f",\n{pad}  "
    return f"{brackets[0]}\n{pad}  {inner.join(items)}\n{pad}{brackets[1]}"


def _typed(value, kind: type, *what: str, seq: type = list):
    if type(value) is not kind:
        # A container is named by its type: a whole grid is no message.
        got = type(value).__name__ if kind in (list, tuple, dict) else repr(value)
        raise LevelError(f"{' '.join(what)} must be of type {kind.__name__}, got {got}")
    return value


def _ints(value, count: int, *what: str, seq: type = list) -> tuple[int, ...]:
    if type(value) is seq and len(value) == count:
        for v in value:  # a loop, not any() over a generator: every load and build runs it
            if type(v) is not int:
                break
        else:
            return tuple(value)
    raise LevelError(f"{' '.join(what)} must be a {seq.__name__} of {count} ints, got {value!r}")


def _cells(value, count: int, *what: str, seq: type = list) -> tuple[tuple[int, ...], ...]:
    return tuple([_ints(c, count, *what, "entry", seq=seq) for c in _typed(value, seq, *what)])


# Each entity kind's record: its document name, and per field the
# document key, the record's field, and the check and its argument that
# read the value.  JSON writes the tuples of a field as arrays, so a
# check takes `seq=list` on a document's value and `seq=tuple` on a
# level's field (`validate_level`'s field-type rule).
_RECORDS = {
    UnstablePlatform: ("platform", (("cell", "cell", _ints, 2),)),
    Door: ("door", (("id", "id", _typed, int), ("cells", "cells", _cells, 2),
                    ("open", "initially_open", _typed, bool))),
    Button: ("button", (("cell", "cell", _ints, 2), ("door", "door_id", _typed, int),
                        ("action", "action", _typed, str))),
    SpaceBlock: ("space_block", (("rect", "rect", _ints, 4),)),
    Spawn: ("spawn", (("cell", "cell", _ints, 2),)),
    Flag: ("flag", (("cell", "cell", _ints, 2),)),
}
_KINDS = {record[0]: (cls, record) for cls, record in _RECORDS.items()}
# The physics and port records, in the same form.  A port's name is its
# key in the document's object of ports, so only the field-type rule
# reads it from `_PORT_FIELDS`.
_PHYSICS = ("physics", (("J", "jump_rise", _typed, int), ("D", "dash_length", _typed, int),
                        ("R", "reform_distance", _typed, int)))
_PORT = ("port", (("cell", "cell", _ints, 2),))
_PORT_FIELDS = ("port", (("name", "name", _typed, str), *_PORT[1]))


def _record_to_entity(rec: dict) -> Entity:
    try:
        kind = rec["kind"]
    except (KeyError, TypeError):
        raise LevelError(f"entity record without a kind: {rec!r}") from None
    try:
        cls, record = _KINDS[kind]
    except (KeyError, TypeError):
        raise LevelError(f"unknown entity kind {kind!r}") from None
    return cls(**_read(rec, record))


def _read(rec: dict, record) -> dict:
    """The record fields of a document record, each read with the check
    of its `record` (a document name and fields, as in `_RECORDS`)."""
    kind, fields = record
    out = {}
    for key, attr, check, arg in fields:  # a loop, not a comprehension: every load runs it
        out[attr] = check(rec[key], arg, kind, key)
    return out


def _members(obj, record, pad: str) -> list[str]:
    """The `"key": value` members of `obj`'s document `record` (a name and
    fields, as in `_RECORDS`), as written on lines indented by `pad`."""
    return [f'"{key}": {_value(getattr(obj, attr), pad)}' for key, attr, _, _ in record[1]]


def save_level(level: Level) -> str:
    """Serialize to the canonical JSON document (byte-stable field order,
    tiles written top row first).  The text is byte for byte
    `json.dumps(doc, indent=2)` plus a newline, written member by member
    from the fixed schema: each entity record from its `_RECORDS` fields,
    the physics from `_PHYSICS` and each port from `_PORT`."""
    entities = []
    for ent in level.entities:
        try:
            record = _RECORDS[type(ent)]
        except KeyError:
            raise LevelError(f"unknown entity {ent!r}") from None
        entities.append(_block("{}", [f'"kind": "{record[0]}"', *_members(ent, record, "      ")],
                               "    "))
    ports = [f"{_quote(p.name)}: {_block('{}', _members(p, _PORT, '      '), '    ')}"
             for p in sorted(level.ports, key=lambda p: p.name)]
    rows = level.tiles[::-1]
    # A row of tile characters alone is its own JSON string, quotes aside.
    tiles = [f'"{row}"' for row in rows] if not _stray(rows) else [*map(_quote, rows)]
    return _block("{}", [
        f'"physics": {_block("{}", _members(level.physics, _PHYSICS, "    "), "  ")}',
        f'"tiles": {_block("[]", tiles, "  ")}',
        f'"entities": {_block("[]", entities, "  ")}',
        f'"ports": {_block("{}", ports, "  ")}',
    ], "") + "\n"


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """A JSON object's members as a dict, refusing a repeated name, which
    json.loads would let overwrite the first (two ports of one name)."""
    obj = dict(pairs)
    if len(obj) != len(pairs):
        names = [name for name, _ in pairs]
        key = next(name for name in obj if names.count(name) > 1)
        raise LevelError(f"bad level document: duplicate key {key!r}")
    return obj


def load_level(document: str) -> Level:
    """Parse and validate a level document; raises LevelError on any
    schema or invariant violation, including a field of the wrong JSON
    type."""
    try:
        doc = json.loads(document, object_pairs_hook=_unique_keys)
    except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: nested too deep
        raise LevelError(f"bad level document: {exc}") from None
    try:
        physics = PhysicsParams(**_read(_typed(doc["physics"], dict, "physics"), _PHYSICS))
        entities = _typed(doc["entities"], list, "entities")
        ports = _typed(doc.get("ports", {}), dict, "ports")
        level = Level(
            tiles=tuple(reversed([_typed(r, str, "tiles", "row")
                                 for r in _typed(doc["tiles"], list, "tiles")])),
            entities=tuple(_record_to_entity(r) for r in entities),
            physics=physics,
            ports=tuple(Port(name, **_read(p, _PORT))
                        for name, p in sorted(ports.items())),
        )
    except (KeyError, TypeError, AttributeError) as exc:
        raise LevelError(f"bad level document: missing or malformed field ({exc})") from None
    violations = _invariants(level)  # `_record_to_entity` read every field with its check
    if violations:
        raise LevelError("invalid level: " + "; ".join(str(v) for v in violations))
    return level


# --- rendering --------------------------------------------------------------


def render_ascii(level: Level, state=None) -> str:
    """One character per cell, top row first.

    Legend: '#' solid, '.' empty, '=' unstable platform, 'D'/'d' door
    closed/open, 'B'/'b' open/close button, '*' space block, 'S' spawn,
    'F' flag, '@' player.  With a state, broken platforms render as empty
    (a platform's bit is its rank) and door glyphs follow the live door
    bits; ValueError if the state's position is off the level.
    """
    if state is not None:
        x, y = state.position
        if not (0 <= x < level.width and 0 <= y < level.height):
            raise ValueError(f"position {(x, y)} is off the level")
    grid = [list(row) for row in level.tiles]
    rank = 0

    def put(cell: Cell, ch: str):
        grid[cell[1]][cell[0]] = ch

    for ent in level.entities:
        if isinstance(ent, UnstablePlatform):
            broken = state is not None and (state.platform_broken >> rank) & 1
            put(ent.cell, EMPTY if broken else "=")
            rank += 1
        elif isinstance(ent, Door):
            if state is not None:
                is_open = bool((state.door_open >> ent.id) & 1)
            else:
                is_open = ent.initially_open
            for cell in ent.cells:
                put(cell, "d" if is_open else "D")
        elif isinstance(ent, Button):
            put(ent.cell, "B" if ent.action == OPEN else "b")
        elif isinstance(ent, SpaceBlock):
            for cell in ent.cells:
                put(cell, "*")
        elif isinstance(ent, Spawn):
            put(ent.cell, "S")
        elif isinstance(ent, Flag):
            put(ent.cell, "F")

    if state is not None:
        put(state.position, "@")

    return "\n".join("".join(row) for row in reversed(grid))


# --- construction helper ----------------------------------------------------


class LevelBuilder:
    """Mutable construction buffer used by the gadget stamper and the
    compiler; starts all-solid.  `grid` holds one tile string per row,
    bottom row first, and becomes the level's tiles as it stands: `carve`
    opens one cell, and the stamper and the compiler replace whole row
    slices."""

    def __init__(self, width: int, height: int):
        self.width = width
        self.height = height
        self.grid = [SOLID * width] * height
        self.entities: list[Entity] = []
        self.ports: list[Port] = []

    def carve(self, x: int, y: int):
        if not (0 < x < self.width - 1 and 0 < y < self.height - 1):
            raise LevelError(f"cannot carve boundary or out-of-bounds cell ({x}, {y})")
        row = self.grid[y]
        self.grid[y] = row[:x] + EMPTY + row[x + 1:]

    def add(self, entity: Entity):
        self.entities.append(entity)

    def add_port(self, name: str, cell: Cell):
        self.ports.append(Port(name, cell))

    def build(self) -> Level:
        level = Level(
            tiles=tuple(self.grid),
            entities=tuple(self.entities),
            # canonical port order, so load(save(level)) == level
            ports=tuple(sorted(self.ports, key=lambda p: p.name)),
        )
        violations = validate_level(level)
        if violations:
            raise LevelError("built an invalid level: " + "; ".join(str(v) for v in violations))
        return level
