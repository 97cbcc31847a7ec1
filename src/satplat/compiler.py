"""Compile formulas into levels.

NP pipeline (3-CNF): one variable chamber per variable, cascading down
and to the right.  Each gadget holds only the cells its contract uses,
and each strip is as narrow as its gadgets allow.  The false exit drops
in the column just east of the chamber, to a tunnel at the foot of that
shaft, just below the chamber.  The true exit drops west of the
chamber, to a tunnel at the foot of that shaft, on a row below the
false one, that runs east under the chamber.  The layout is planar: the
false tunnel ends in a one-way merge shaft that feeds the next chamber,
and the true row joins that shaft from the side.  After the last
chamber the shaft feeds the final passage of clause walls, with the
flag beyond.  Tunnel buttons open the doors of the clauses containing
the literal.

PSPACE pipeline (QBF): quantifier gadgets in a row on a forward band,
then one final passage of clause walls, then a space-block elevator up
to a return band that runs back over everything.  The gadgets abut,
but each universal one keeps the column east of it for its one-way
reroute drop, which puts the player forward again until the gadget is
exhausted.  The spawn and the flag sit in the first open column, at
the west ends of the forward and return bands.

A plan's wires are its corridors: `route_and_place` carves every wire
cell outside every gadget, and the gadgets must leave the rest open.
Wires may join at their ends but never cross.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

from satplat.formula import CnfFormula, QbfFormula, Quantifier
from satplat.gadgets import (
    GadgetBlueprint,
    build_elevator,
    build_exists_gadget,
    build_final_passage,
    build_forall_gadget,
    build_tunnel,
    build_variable_gadget,
    exists_width,
    final_passage_width,
    forall_width,
    stamp_into,
    tunnel_width,
)
from satplat.level import (
    CLOSE,
    EMPTY,
    NP,
    OPEN,
    SOLID,
    Flag,
    Level,
    LevelBuilder,
    LevelError,
    Spawn,
    own_kind,
    variant_of,
)

# Most cells a plan's grid may have.  An NP grid grows with n^2: random
# 3-CNF at seed 1 fits up to n=k=123, and n=k=1000 would be 271M cells.
MAX_GRID_CELLS = 1 << 22

V_PITCH = 20  # rows consumed per variable strip
QBF_HEIGHT = 14  # rows of every QBF grid


class CompileError(LevelError):
    pass


@own_kind
class Placement(NamedTuple):
    blueprint: GadgetBlueprint
    origin: tuple[int, int]
    prefix: str


@own_kind
class Wire(NamedTuple):
    """A rectilinear corridor; points are polyline vertices.  The cells
    between consecutive vertices are carved wherever no gadget covers
    them, and the crossing check reads the same segments."""

    name: str
    points: tuple[tuple[int, int], ...]


@dataclass
class LayoutPlan:
    """A dataclass, not a NamedTuple: the planners set its spawn and
    flag and append its placements and wires after it is built."""

    width: int
    height: int
    placements: list[Placement] = field(default_factory=list)
    spawn: tuple[int, int] | None = None
    flag: tuple[int, int] | None = None
    wires: list[Wire] = field(default_factory=list)


def _segments(wires: list[Wire]):
    """Each wire segment as (wire name, x_lo, y_lo, x_hi, y_hi); a segment
    runs along one axis."""
    for wire in wires:
        for (x0, y0), (x1, y1) in zip(wire.points, wire.points[1:]):
            if x0 != x1 and y0 != y1:
                raise CompileError(f"wire {wire.name} has a diagonal segment {(x0, y0)} -> {(x1, y1)}")
            yield wire.name, min(x0, x1), min(y0, y1), max(x0, x1), max(y0, y1)


def detect_crossings(wires: list[Wire]) -> None:
    """Refuse any strict interior intersection of perpendicular wire
    segments: a plan is planar.  Endpoint touches are joins, not
    crossings.  More than two wires meeting at one point is named as
    such."""
    segments = list(_segments(wires))
    horizontal = [s for s in segments if s[2] == s[4]]  # y_lo == y_hi
    vertical = [s for s in segments if s[2] != s[4]]
    hits: dict[tuple[int, int], set[str]] = {}
    for h_name, hx_lo, hy, hx_hi, _ in horizontal:
        for v_name, vx, vy_lo, _, vy_hi in vertical:
            if hx_lo < vx < hx_hi and vy_lo < hy < vy_hi:
                hits.setdefault((vx, hy), set()).update((h_name, v_name))
    if hits:
        pt = min(hits)
        names = sorted(hits[pt])
        if len(names) > 2:
            raise CompileError(f"more than two wires cross at {pt}: {names}")
        raise CompileError(f"wires {names} cross at {pt}")


def _check_grid(w: int, h: int) -> None:
    """Refuse a grid over `MAX_GRID_CELLS` cells.  The planners check
    their grid so far as each stage is laid out, so an oversized formula
    is refused before its gadgets are built."""
    if w * h > MAX_GRID_CELLS:
        raise CompileError(f"grid {w}x{h} has {w * h} cells, over the bound of {MAX_GRID_CELLS}")


def _span(x_lo: int, y_lo: int, x_hi: int, y_hi: int, w: int) -> slice:
    """A wire segment's cells as a slice of a grid indexed by y * w + x,
    along the segment's one varying axis."""
    return slice(y_lo * w + x_lo, y_hi * w + x_hi + 1, 1 if y_lo == y_hi else w)


def _corridors(plan: LayoutPlan) -> bytearray:
    """The plan's grid by y * w + x: 1 inside a placement, 2 on a wire
    outside every placement (a corridor cell), 0 elsewhere.  A grid over
    `MAX_GRID_CELLS` cells is refused before it is allocated."""
    w, h = plan.width, plan.height
    _check_grid(w, h)
    grid = bytearray(w * h)
    for p in plan.placements:  # stamp_into rejects one that does not fit
        ox, oy = p.origin
        row = b"\1" * p.blueprint.width
        for i in range(oy * w + ox, (oy + p.blueprint.height) * w + ox, w):
            grid[i:i + len(row)] = row
    for name, x_lo, y_lo, x_hi, y_hi in _segments(plan.wires):
        if x_lo < 0 or y_lo < 0 or x_hi >= w or y_hi >= h:
            raise CompileError(f"wire {name} leaves the grid: {(x_lo, y_lo)} -> {(x_hi, y_hi)}")
        cells = _span(x_lo, y_lo, x_hi, y_hi, w)
        grid[cells] = grid[cells].replace(b"\0", b"\2")
    return grid


_TILES = bytes.maketrans(b"\0\1\2", (SOLID + SOLID + EMPTY).encode())


def route_and_place(plan: LayoutPlan) -> Level:
    """Deterministically realize a plan: check the grid bound, refuse
    any wire crossing, carve the wires outside the placements, stamp
    every placement, check that the wires run open through them, and
    validate the result."""
    corridors = _corridors(plan)
    detect_crossings(plan.wires)

    w, h = plan.width, plan.height
    builder = LevelBuilder(w, h)
    if w > 0 and 2 in corridors[:w] + corridors[-w:] + corridors[::w] + corridors[w - 1::w]:
        # a corridor cell on the boundary: carve refuses the first, in wire order
        for _, *segment in _segments(plan.wires):
            for i in range(len(corridors))[_span(*segment, w)]:
                if corridors[i] == 2:
                    builder.carve(i % w, i // w)
    tiles = corridors.translate(_TILES).decode()  # the corridors open, the rest solid
    builder.grid = [tiles[y * w:(y + 1) * w] for y in range(h)]
    for p in plan.placements:
        stamp_into(builder, p.blueprint, p.origin, p.prefix)
    # Every wire cell outside the placements is carved, so a solid one
    # lies in a gadget.
    tiles = "".join(builder.grid)
    for name, *segment in _segments(plan.wires):
        span = _span(*segment, w)
        i = tiles[span].find(SOLID)
        if i >= 0:
            i = range(len(tiles))[span][i]
            raise CompileError(f"wire {name} runs through solid gadget cell {(i % w, i // w)}")
    builder.add(Spawn(plan.spawn))
    builder.add(Flag(plan.flag))
    return builder.build()


def plan_report(plan: LayoutPlan) -> str:
    carved = _corridors(plan).count(2)
    variant = variant_of(b for p in plan.placements for b in p.blueprint.buttons)
    lines = [
        f"variant {variant}, grid {plan.width}x{plan.height}",
        f"placements {len(plan.placements)}, carved cells {carved}, wires {len(plan.wires)}",
    ]
    for p in plan.placements:
        lines.append(f"  {p.blueprint.kind:14s} at {p.origin} as {p.prefix or '-'}")
    for w in plan.wires:
        lines.append(f"  wire {w.name}: " + " -> ".join(map(str, w.points)))
    return "\n".join(lines) + "\n"


def check_size(num_variables: int, num_clauses: int, variant: str) -> None:
    """Refuse a formula of this size and variant (NP for 3-CNF, PSPACE
    for QBF) whose plan cannot fit the grid bound, from the counts alone,
    so the CLI runs it on a file's header before the formula is read.
    The narrowest plan the counts allow: empty tunnels for NP, and for
    QBF only existential gadgets, which hold the 3k literal symbols
    between them."""
    n, k = num_variables, num_clauses
    if variant == NP:
        # a strip: the chamber, the false tunnel east of it and the merge shaft
        strip = build_variable_gadget().width + tunnel_width(()) + 3
        passage_x = 6 + strip * n if n else 4
        _check_grid(passage_x + final_passage_width(k) + 2, 6 + V_PITCH * n if n else 10)
    else:
        gadgets = exists_width((), ()) * n + 3 * k  # abutting, one symbol per literal
        _check_grid(2 + gadgets + final_passage_width(k) + build_elevator().width + 1,
                    QBF_HEIGHT)


# --- NP: 3-CNF --------------------------------------------------------------


def _occurrences(formula: CnfFormula):
    """pos[v], neg[v]: global door ids (3*clause + slot) per literal, for
    the variables that occur; read them with `.get(v, ())`."""
    pos: dict[int, list[int]] = {}
    neg: dict[int, list[int]] = {}
    for c, clause in enumerate(formula.clauses):
        for s, lit in enumerate(clause.literals):
            (neg if lit.negated else pos).setdefault(lit.variable, []).append(3 * c + s)
    return pos, neg


def plan_3sat(formula: CnfFormula) -> LayoutPlan:
    n, k = formula.num_variables, formula.num_clauses
    check_size(n, k, NP)
    pos, neg = _occurrences(formula)

    plan = LayoutPlan(0, 0)

    # The cascade: chamber i sits V_PITCH rows above chamber i+1; the
    # passage pocket row for the strip after the last chamber is pr_n.
    cy1 = (17 + V_PITCH * (n - 1)) if n else 0
    cx = 6

    if n == 0:
        pr = 4
        plan.spawn = (2, pr)
        height = 10
    else:
        plan.spawn = (cx - 3, cy1 + 6)
        height = cy1 + 9

    chamber = build_variable_gadget()

    for i in range(1, n + 1):
        cy = cy1 - V_PITCH * (i - 1)
        rt, ru = cy - 10, cy - 2  # the true row runs below the false row
        t_syms = [(d, OPEN) for d in pos.get(i, ())]
        f_syms = [(d, OPEN) for d in neg.get(i, ())]
        tx0 = cx - 1  # the true exit drops at tx0 - 1, west of the chamber
        fx0 = cx + chamber.width + 1  # the false exit drops at fx0 - 1, just east of it
        mx = max(tx0 + tunnel_width(t_syms), fx0 + tunnel_width(f_syms))  # the merge shaft
        _check_grid(mx + 3, height)  # the grid so far, up to the merge pocket
        plan.placements.append(Placement(chamber, (cx, cy), f"x{i}."))
        plan.placements.append(Placement(build_tunnel(t_syms), (tx0, rt - 1), f"x{i}.true."))
        plan.placements.append(Placement(build_tunnel(f_syms), (fx0, ru - 1), f"x{i}.false."))
        pr = cy - 14

        plan.wires.append(Wire(f"x{i}.true", (
            (cx, cy + 1), (tx0 - 1, cy + 1), (tx0 - 1, rt), (mx, rt),
        )))
        plan.wires.append(Wire(f"x{i}.false", (
            (cx + chamber.width - 1, cy + 1), (fx0 - 1, cy + 1), (fx0 - 1, ru), (mx, ru),
            (mx, pr), (mx + 2, pr),
        )))
        if i == 1:
            plan.wires.append(Wire("spawn", (plan.spawn, (cx, cy1 + 6))))
        cx = mx + 2

    # Final stage: the merge shaft ends at (cx - 2, pr) for n >= 1.
    px0 = cx if n else 4
    fx = px0 + final_passage_width(k)
    _check_grid(fx + 2, height)
    plan.placements.append(Placement(build_final_passage(k), (px0, pr - 1), "passage."))
    plan.flag = (fx, pr)
    plan.wires.append(Wire("final", ((cx - 2 if n else 2, pr), (fx, pr))))
    plan.width, plan.height = fx + 2, height
    return plan


def compile_3sat(formula: CnfFormula) -> Level:
    """NP-variant level whose solvability matches the formula's
    satisfiability."""
    return route_and_place(plan_3sat(formula))


def witness_trace(level: Level, assignment: dict[int, bool], num_variables: int):
    """The trace a satisfying assignment implies: drop through the chosen
    exit of each chamber (the 1-tall tunnels force every button press on
    the way) and walk the final passage to the flag.  Returns None if some
    leg is unreachable (e.g. the assignment does not satisfy the
    formula), and raises RuntimeError if a leg's search reaches
    `solver.DEFAULT_MAX_STATES` states first."""
    from satplat.sim import initial_state
    from satplat.solver import solve_between

    state = initial_state(level)
    moves = []
    waypoints = []
    for i in range(1, num_variables + 1):
        name = f"x{i}.exit_true" if assignment[i] else f"x{i}.exit_false"
        waypoints.append(level.port(name).cell)
    waypoints.append(level.flag.cell)
    for target in waypoints:
        leg = solve_between(level, state, target)
        if leg is None:
            return None
        trace, state = leg
        moves.extend(trace)
    return tuple(moves)


# --- PSPACE: QBF ------------------------------------------------------------


def plan_qbf(qbf: QbfFormula) -> LayoutPlan:
    k = qbf.matrix.num_clauses
    pos, neg = _occurrences(qbf.matrix)

    fwd_y, ret_y = 2, 9
    # the flag pocket is the west end of the return band
    plan = LayoutPlan(0, QBF_HEIGHT, spawn=(1, fwd_y), flag=(1, ret_y))
    x = 2
    door_base = 3 * k

    # A quantifier gadget's width follows from its symbols, so the grid is
    # checked for every gadget before the first is built.
    gadgets = []
    end = x
    for quant, var in qbf.prefix:
        ps, ns = pos.get(var, ()), neg.get(var, ())
        true_syms = tuple((d, OPEN) for d in ps) + tuple((d, CLOSE) for d in ns)
        false_syms = tuple((d, OPEN) for d in ns) + tuple((d, CLOSE) for d in ps)
        if quant is Quantifier.EXISTS:
            end += exists_width(true_syms, false_syms)  # the next placement abuts it
        else:
            end += forall_width(true_syms, false_syms) + 1  # and its reroute shaft
        _check_grid(end, QBF_HEIGHT)
        gadgets.append((quant, true_syms, false_syms))
    elev = build_elevator()  # lifts the forward band to the return band
    plan.width = end + final_passage_width(k) + elev.width + 1
    _check_grid(plan.width, QBF_HEIGHT)

    for qi, (quant, true_syms, false_syms) in enumerate(gadgets, start=1):
        if quant is Quantifier.EXISTS:
            bp = build_exists_gadget(door_base, true_syms, false_syms)
        else:
            bp = build_forall_gadget(door_base, true_syms, false_syms)
        plan.placements.append(Placement(bp, (x, 1), f"q{qi}."))
        door_base += len(bp.doors)
        x += bp.width
        if quant is Quantifier.FORALL:  # the reroute shaft drops to the forward band
            plan.wires.append(Wire(f"q{qi}.reroute", ((x - 1, 4), (x, 4), (x, fwd_y))))
            x += 1

    plan.placements.append(Placement(build_final_passage(k), (x, 1), "passage."))
    x += final_passage_width(k)
    plan.placements.append(Placement(elev, (x, 1), "lift."))
    plan.wires.append(Wire("forward", (plan.spawn, (x, fwd_y))))
    plan.wires.append(Wire("return", ((x, ret_y), plan.flag)))
    return plan


def compile_qbf(qbf: QbfFormula) -> Level:
    """PSPACE-variant level whose solvability matches the QBF's truth."""
    plan = plan_qbf(qbf)
    return route_and_place(plan)
