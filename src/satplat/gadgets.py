"""Stampable gadget blueprints with reachability contracts.

Each blueprint is a patch of level: tile rows plus the level's own
`Door`, `UnstablePlatform`, `SpaceBlock`, `Button` and `Port` records,
with cells local to the patch, and a list of contract assertions that
must hold when it is stamped alone into an otherwise solid level.  There
is one door-id space: the plan chooses every door id when it builds a
blueprint, and stamping copies door ids unchanged.  A platform is its
cell alone: its bit is its rank among the level's platforms, so the
stamping order numbers them.  Its size is that of its rows, and its
variant, like a level's, is PSPACE exactly when a button closes a door.
Geometry is calibrated to the default physics (jump rise 3, dash length
4, reform distance 2).

Conventions used throughout the blueprints:

- rows are drawn top-first, one way: every builder passes its rows,
  fixed art or strings computed from its widths, through `_from_art`;
- corridors are 1 tile tall, so a button in a corridor can only be
  crossed by a dash (which fires it);
- every corridor of buttons and doors is laid by one primitive,
  `_lane`, one cell per item from left to right;
- a "valve" is the inline sequence [open button][door][close button]:
  crossing it forward opens, passes and re-closes the door, while
  entering it backward is stopped by the closed door;
- one-way drops are 1-wide shafts deeper than the jump rise.
"""

from __future__ import annotations

from functools import cache
from typing import NamedTuple

from satplat.level import (
    CLOSE,
    EMPTY,
    OPEN,
    Button,
    Door,
    Flag,
    Level,
    LevelBuilder,
    LevelError,
    Port,
    SpaceBlock,
    Spawn,
    UnstablePlatform,
    own_kind,
    variant_of,
)

@own_kind
class Assertion(NamedTuple):
    """port-pair reachability, optionally conditioned on door bits
    (level door ids)."""

    from_port: str
    to_port: str
    reachable: bool
    doors: tuple[tuple[int, bool], ...] = ()
    note: str = ""


@own_kind
class GadgetBlueprint(NamedTuple):
    kind: str
    rows: tuple[str, ...]  # bottom row first, all of one width
    doors: tuple[Door, ...] = ()
    platforms: tuple[UnstablePlatform, ...] = ()
    blocks: tuple[SpaceBlock, ...] = ()
    buttons: tuple[Button, ...] = ()
    ports: tuple[Port, ...] = ()
    contract: tuple[Assertion, ...] = ()
    notes: str = ""

    @property
    def width(self) -> int:
        return len(self.rows[0])

    @property
    def height(self) -> int:
        return len(self.rows)

    @property
    def variant(self) -> str:
        """The variant of every level the patch is stamped into alone."""
        return variant_of(self.buttons)


def _from_art(art: list[str]) -> tuple[str, ...]:
    """Rows given top-first, as drawn; stored bottom-first."""
    return tuple(art[::-1])


def _lane(y: int, x: int, items, buttons: list[Button]) -> dict[int, tuple[int, int]]:
    """Lay items left to right along row y from column x, one per cell.
    A (door, action) pair is a forced button, appended to `buttons`; a
    bare int is the cell of that door.  Returns {door: cell}."""
    doors = {}
    for cx, item in enumerate(items, start=x):
        if isinstance(item, int):
            doors[item] = (cx, y)
        else:
            buttons.append(Button((cx, y), *item))
    return doors


def _valve(d: int) -> list:
    """The [+d][d][-d] valve of door d, as lane items."""
    return [(d, OPEN), d, (d, CLOSE)]


def _doors(cells: dict[int, tuple[int, int]]) -> tuple[Door, ...]:
    return tuple(Door(d, (cells[d],)) for d in sorted(cells))


# --- stamping ---------------------------------------------------------------


class StampError(LevelError):
    pass


def stamp_into(builder: LevelBuilder, bp: GadgetBlueprint, origin: tuple[int, int],
               prefix: str = "") -> None:
    """Apply a blueprint patch to a builder, one row slice of the grid
    at a time. Every target cell must still be solid (stamps may abut but
    never overlap carved content), and the patch may open no cell of the
    grid's boundary, which `LevelBuilder.carve` refuses.  Door ids are
    copied unchanged; a collision is left to the level's `unique-door-id`
    rule.  A blueprint's platforms follow those already in the builder,
    so their bits (their ranks) follow too."""
    ox, oy = origin
    w, h = bp.width, bp.height
    if ox < 0 or oy < 0 or ox + w > builder.width or oy + h > builder.height:
        raise StampError(f"{bp.kind} at {origin} does not fit the grid")
    grid = builder.grid
    for y in range(oy, oy + h):
        x = grid[y].find(EMPTY, ox, ox + w)
        if x >= 0:
            raise StampError(f"{bp.kind} at {origin} overlaps carved cell {(x, y)}")
    inside = 0 < ox and ox + w < builder.width  # clear of the side boundaries
    for y, tiles in enumerate(bp.rows, start=oy):
        if not (inside and 0 < y < builder.height - 1) and EMPTY in tiles:
            for x, tile in enumerate(tiles, start=ox):  # carve refuses a boundary cell
                if tile == EMPTY:
                    builder.carve(x, y)
        row = grid[y]
        grid[y] = row[:ox] + tiles + row[ox + w:]
    for d in bp.doors:
        builder.add(Door(d.id, tuple((ox + x, oy + y) for x, y in d.cells),
                         d.initially_open))
    for p in bp.platforms:
        builder.add(UnstablePlatform((ox + p.cell[0], oy + p.cell[1])))
    for blk in bp.blocks:
        x0, y0, x1, y1 = blk.rect
        builder.add(SpaceBlock((ox + x0, oy + y0, ox + x1, oy + y1)))
    for b in bp.buttons:
        builder.add(Button((ox + b.cell[0], oy + b.cell[1]), b.door_id, b.action))
    for port in bp.ports:
        builder.add_port(prefix + port.name, (ox + port.cell[0], oy + port.cell[1]))


def contract_level(bp: GadgetBlueprint) -> Level:
    """Stamp a blueprint alone into an otherwise-solid level (1-cell
    margin).  Every door a button names that the blueprint does not hold
    gets a parked 1-cell door in a sealed pocket above the patch, so the
    level validates and its bit is observable."""
    own = {d.id for d in bp.doors}
    ext = list(dict.fromkeys(b.door_id for b in bp.buttons if b.door_id not in own))
    extra_h = 3 if ext else 0
    width = max(bp.width + 2, 2 * len(ext) + 3)
    builder = LevelBuilder(width, bp.height + 2 + extra_h)
    stamp_into(builder, bp, (1, 1))
    for i, door_id in enumerate(ext):
        cell = (1 + 2 * i, bp.height + 2)
        builder.carve(*cell)
        builder.add(Door(door_id, (cell,), False))
    anchor = bp.ports[0].cell
    goal = bp.ports[-1].cell
    builder.add(Spawn((anchor[0] + 1, anchor[1] + 1)))
    builder.add(Flag((goal[0] + 1, goal[1] + 1)))
    return builder.build()


def check_contract(bp: GadgetBlueprint):
    """Run every contract assertion on the isolated stamped blueprint.
    Yields (assertion, passed) pairs."""
    from satplat.solver import reachable_ports

    level = contract_level(bp)
    for a in bp.contract:
        reached = reachable_ports(level, a.from_port, dict(a.doors))
        passed = (a.to_port in reached) == a.reachable
        yield a, passed


# --- the gadgets ------------------------------------------------------------


@cache  # frozen and without parameters: one for every variable and size check
def build_variable_gadget() -> GadgetBlueprint:
    """One-way binary choice chamber, 5x8: only the cells its contract uses.

    The player drops in from the entry, walks onto one of two unstable
    platforms sealing the shafts, falls through as it breaks, and the
    platform reforms overhead: the other exit and the entry become
    unreachable.  The first platform seals exit_true (left), the second
    seals exit_false (right).
    """
    rows = _from_art([
        "#####",
        "....#",  # y6: entry row (port at x=0)
        "##..#",  # y5: ledge under the entry
        "#...#",  # y4: chamber floor walkway
        "#.#.#",  # y3: floor with two platform holes
        "#.#.#",  # y2: commit shafts
        "..#..",  # y1: exit row (ports at x=0 and x=4)
        "#####",
    ])
    return GadgetBlueprint(
        kind="variable",
        rows=rows,
        platforms=(UnstablePlatform((1, 3)), UnstablePlatform((3, 3))),
        ports=(
            Port("entry", (0, 6)),
            Port("exit_true", (0, 1)),
            Port("exit_false", (4, 1)),
        ),
        contract=(
            Assertion("entry", "exit_true", True, note="fresh choice, true side"),
            Assertion("entry", "exit_false", True, note="fresh choice, false side"),
            Assertion("exit_true", "exit_false", False, note="committed true seals false"),
            Assertion("exit_true", "entry", False, note="no way back up"),
            Assertion("exit_false", "exit_true", False),
            Assertion("exit_false", "entry", False),
        ),
        notes="binary choice; exits sealed by unstable platforms",
    )


def tunnel_width(symbols) -> int:
    """The width of a tunnel, known before it is built: its buttons and
    one open cell at each end."""
    return len(symbols) + 2


def build_tunnel(symbols=()) -> GadgetBlueprint:
    """1-tall corridor of forced buttons applying (door, action) symbols
    in order; buttons block walking, so every traversal dashes through
    (and fires) all of them."""
    m = len(symbols)
    w = tunnel_width(symbols)
    buttons: list[Button] = []
    _lane(1, 1, symbols, buttons)
    return GadgetBlueprint(
        kind="tunnel",
        rows=_from_art(["#" * w, "." * w, "#" * w]),
        buttons=tuple(buttons),
        ports=(Port("tunnel_in", (0, 1)), Port("tunnel_out", (w - 1, 1))),
        contract=(
            Assertion("tunnel_in", "tunnel_out", True),
            Assertion("tunnel_out", "tunnel_in", True),
        ),
        notes=f"literal tunnel, {m} forced symbols in order",
    )


def final_passage_width(num_clauses: int) -> int:
    """The width of the final passage, known before it is built: two
    columns per clause wall and four more."""
    return 2 * num_clauses + 4


def build_final_passage(num_clauses: int) -> GadgetBlueprint:
    """The clause check walls composed in series along one corridor;
    passable end to end iff every clause has at least one open door.
    Door ids are 3*clause + slot: clause c's wall is the column
    x = 3 + 2c, slot s its door at y = 1 + s over the corridor row y = 1,
    and the gap columns x = 2 + 2c beside the walls are open to the
    ceiling, three cells tall.

    Walls in series, for any k (the passage holds no button, so its door
    bits stay fixed inside it):
    - only if: a wall spans every open row between the solid floor and
      ceiling, and a closed door blocks a path as solid does, so one
      fully closed wall cuts the passage in two;
    - if: from the corridor in the gap west of wall c, with s its lowest
      open slot, walk east (s = 0), or jump east with rise s, rest in the
      open door on the closed one below it, and walk east to drop into
      the next gap.  A crossing uses only its wall and the two gaps
      beside it, so the crossings chain from passage_in to flag_port
      whatever the other walls hold.

    The contract asserts that the flag is reached with slot s open in
    every wall, for each s, and not with every door closed or one wall
    closed."""
    k = num_clauses
    w = final_passage_width(k)
    above = "#" + "." * (w - 2) + "#"  # jump room over the corridor
    # two columns follow the last wall, or the boundary blocks the top door's exit
    doors = tuple(Door(3 * c + s, ((3 + 2 * c, 1 + s),)) for c in range(k) for s in range(3))
    contract = [Assertion("passage_in", "flag_port", k == 0,
                          note="all doors closed" if k else "empty passage")]
    if k:
        contract += [Assertion("passage_in", "flag_port", True,
                               doors=tuple((3 * c + s, True) for c in range(k)),
                               note=f"slot {s} open in every wall") for s in range(3)]
        contract.append(Assertion("passage_in", "flag_port", False,
                                  doors=tuple((3 * c, True) for c in range(k - 1)),
                                  note="one clause fully closed"))
    return GadgetBlueprint(
        kind="final_passage",
        rows=_from_art(["#" * w, above, above, "." * w, "#" * w]),
        doors=doors,
        ports=(Port("passage_in", (0, 1)), Port("flag_port", (w - 1, 1))),
        contract=tuple(contract),
        notes=f"{k} clause walls in series",
    )


def exists_width(true_symbols, false_symbols) -> int:
    """The width of the existential gadget, known before it is built:
    the junction, the longer lane of symbols and its valve, the merge."""
    return 9 + max(len(true_symbols), len(false_symbols))


def build_exists_gadget(first_door: int, true_symbols, false_symbols) -> GadgetBlueprint:
    """One-time (per forward entry) binary choice.

    Two lanes leave a junction: the ground lane commits the variable to
    true, the upper lane to false.  Each lane ends in a valve, so a lane
    can only be crossed forward and exactly one full symbol list is
    applied before the merged exit.  The return path is a plain corridor.
    Symbol lists must put OPEN symbols before CLOSE symbols.  Its own
    doors are first_door (true valve) and first_door + 1 (false valve).
    """
    w = exists_width(true_symbols, false_symbols)
    solid, band, shaft = "#" * w, "." * w, "#." + "#" * (w - 4) + ".#"
    rows = _from_art([
        solid, band,  # y8: return corridor + ports
        solid, solid, solid,
        "#" + "." * (w - 2) + "#",  # y4: upper lane
        shaft, shaft,  # junction climb at x=1, merge drop at x=w-2
        band, solid,  # y1: ground lane + ports
    ])

    buttons: list[Button] = []
    doors = _lane(1, 3, [*true_symbols, *_valve(first_door)], buttons)
    doors |= _lane(4, 3, [*false_symbols, *_valve(first_door + 1)], buttons)

    return GadgetBlueprint(
        kind="exists",
        rows=rows,
        doors=_doors(doors),
        buttons=tuple(buttons),
        ports=(
            Port("q_in", (0, 1)),
            Port("q_out", (w - 1, 1)),
            Port("ret_in", (w - 1, 8)),
            Port("ret_out", (0, 8)),
        ),
        contract=(
            Assertion("q_in", "q_out", True, note="fresh: some branch commits"),
            Assertion("ret_in", "ret_out", True, note="return is a plain corridor"),
            Assertion("ret_out", "ret_in", True),
            Assertion("q_in", "ret_out", False, note="forward and return are isolated"),
            Assertion("q_out", "q_in", False, note="exit is sealed behind the valves"),
        ),
        notes="existential choice; ground lane = true, upper lane = false",
    )


_FORALL_PIT = 5  # the universal gadget's pit column in the return corridor


def forall_width(true_symbols, false_symbols) -> int:
    """The width of the universal gadget, known before it is built: the
    longer of the forward tunnel and the flip tunnel, which starts past
    the pit."""
    return max(len(true_symbols) + 9, _FORALL_PIT + len(false_symbols) + 10, 14)


def build_forall_gadget(first_door: int, true_symbols, false_symbols) -> GadgetBlueprint:
    """Forced two-pass quantifier.

    Forward pass: a tunnel applies the true configuration, closes the
    exhaust gate FX, opens the flip gate FT, and exits through a valve.
    First return: the return corridor has a pit that drops the player in
    front of the flip gate; while FT is open the only way on is the flip
    tunnel, which applies the false configuration, swaps the gates and
    reroutes the player forward (a drop onto the reroute ledge).  Second
    return: FT is closed, the player climbs out of the pit, passes the
    now-open FX gate (re-closing it behind: the gadget is reset) and
    continues outward.

    Own doors, from first_door: +0 forward valve, +1 FT (flip gate),
    +2 FX (exhaust gate), +3 flip valve.
    """
    fc = _FORALL_PIT
    w = forall_width(true_symbols, false_symbols)
    solid, band, pit = "#" * w, "." * w, "#" * fc + "." + "#" * (w - fc - 1)
    rows = _from_art([
        solid, band,  # y8: return corridor + ports
        pit, pit,  # pit climb shaft
        "#" * fc + "." * (w - fc - 1) + "#",  # y5: flip tunnel
        "#" * (w - 2) + ".#",  # y4: flip tunnel drop
        "#" * (w - 2) + "..",  # y3: reroute ledge + port
        solid, band, solid,  # y1: forward tunnel + ports
    ])

    ft, fx = first_door + 1, first_door + 2
    buttons: list[Button] = []
    # forward tunnel: [true symbols, -FX, +FT, +V, V, -V]
    doors = _lane(1, 2, [*true_symbols, (fx, CLOSE), (ft, OPEN), *_valve(first_door)],
                  buttons)
    # flip tunnel: [FT gate, false symbols, -FT, +FX, +V, V, -V] then the drop
    doors |= _lane(5, fc + 1, [ft, *false_symbols, (ft, CLOSE), (fx, OPEN),
                               *_valve(first_door + 3)], buttons)
    # return corridor: [ret_out ... -FX, FX gate ... pit ... ret_in]
    doors |= _lane(8, 2, [(fx, CLOSE), fx], buttons)

    return GadgetBlueprint(
        kind="forall",
        rows=rows,
        doors=_doors(doors),
        buttons=tuple(buttons),
        ports=(
            Port("q_in", (0, 1)),
            Port("q_out", (w - 1, 1)),
            Port("ret_in", (w - 1, 8)),
            Port("ret_out", (0, 8)),
            Port("reroute_out", (w - 1, 3)),
        ),
        contract=(
            Assertion("q_in", "q_out", True, note="fresh forward pass"),
            Assertion("ret_in", "ret_out", False, note="fresh: both gates closed"),
            Assertion("ret_in", "reroute_out", False, note="fresh: flip gate closed"),
            Assertion("ret_in", "reroute_out", True, doors=((ft, True),),
                      note="flip gate open: forced through the flip tunnel"),
            Assertion("ret_in", "ret_out", False, doors=((ft, True),),
                      note="flip gate open: cannot skip the flip"),
            Assertion("ret_in", "ret_out", True, doors=((fx, True),),
                      note="exhaust gate open: pass through outward"),
            Assertion("q_in", "ret_out", False, note="bands are isolated"),
        ),
        notes="universal quantifier: true pass, forced flip, exhaust",
    )


def build_elevator() -> GadgetBlueprint:
    """Vertical connector: dash up through a space-block column, land on
    its top, hop off onto the upper ledge.  Two-way (dashing back down is
    allowed); used where the layout needs repeatable ascent.  Its lift,
    7 rows from elev_in to elev_out, is the distance from the QBF
    layout's forward band to its return band."""
    rows = _from_art([
        "#..##",  # y9: jump headroom over the block top
        "....#",  # y8: upper ledge (elev_out at x=0)
        *["##.##"] * 6,  # y7..y3: block column; y2: launch cell
        "...##",  # y1: entry (elev_in at x=0)
        "#####",
    ])
    return GadgetBlueprint(
        kind="elevator",
        rows=rows,
        blocks=(SpaceBlock((2, 3, 2, 7)),),
        ports=(Port("elev_in", (0, 1)), Port("elev_out", (0, 8))),
        contract=(
            Assertion("elev_in", "elev_out", True),
            Assertion("elev_out", "elev_in", True, note="two-way by design"),
        ),
        notes="space-block lift of 6 rows",
    )


ALL_GADGET_BUILDERS = {
    "variable": build_variable_gadget,
    "tunnel": lambda: build_tunnel(((0, OPEN), (1, OPEN))),
    "final_passage": lambda: build_final_passage(2),
    # own doors from 0; the symbols drive door 4, above them
    "exists": lambda: build_exists_gadget(0, ((4, OPEN),), ((4, CLOSE),)),
    "forall": lambda: build_forall_gadget(0, ((4, OPEN),), ((4, CLOSE),)),
    "elevator": build_elevator,
}


def catalog() -> str:
    """Human-readable dump of every gadget kind, its ports and contract."""
    lines = []
    for kind, builder in ALL_GADGET_BUILDERS.items():
        bp = builder()
        lines.append(f"{kind} ({bp.width}x{bp.height}, variant {bp.variant})")
        lines.append(f"  {bp.notes}")
        for p in bp.ports:
            lines.append(f"  port {p.name} at {p.cell}")
        for a in bp.contract:
            cond = ""
            if a.doors:
                cond = " given doors " + ", ".join(f"{i}={'open' if v else 'closed'}"
                                                   for i, v in a.doors)
            verdict = "REACHABLE" if a.reachable else "UNREACHABLE"
            note = f"  [{a.note}]" if a.note else ""
            lines.append(f"  contract {a.from_port} -> {a.to_port}: {verdict}{cond}{note}")
        lines.append("")
    return "\n".join(lines)
