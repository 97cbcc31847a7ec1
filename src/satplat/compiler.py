"""Compile formulas into levels.

NP pipeline (3-CNF): one variable chamber per variable, cascading down
and to the right.  Each chamber's true exit drops into a tunnel that runs
east below the chamber, crosses under the false exit's drop shaft (a
crossover gadget covers the crossing), and both tunnels pour into a
one-way merge shaft that feeds the next chamber.  After the last chamber
the shaft feeds the final passage of clause walls, with the flag beyond.
Tunnel buttons open the doors of the clauses containing the literal.

PSPACE pipeline (QBF): quantifier gadgets in a row on a forward band,
then the clause walls, then a space-block elevator up to a return band
that runs back over everything.  Universal gadgets reroute the player
forward again (one-way drop) until exhausted; the flag sits at the far
end of the return band.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from satplat.formula import CnfFormula, QbfFormula, Quantifier
from satplat.gadgets import (
    GadgetBlueprint,
    build_clause_gadget,
    build_crossover,
    build_elevator,
    build_exists_gadget,
    build_final_passage,
    build_forall_gadget,
    build_tunnel,
    build_variable_gadget,
    stamp_into,
)
from satplat.level import (
    CLOSE,
    NP,
    OPEN,
    PSPACE,
    Flag,
    Level,
    LevelBuilder,
    LevelError,
    Spawn,
)

DEFAULT_MAX_VARS = 8
DEFAULT_MAX_CLAUSES = 8
DEFAULT_MAX_PREFIX = 4
DEFAULT_MAX_QBF_CLAUSES = 4

V_PITCH = 20  # rows consumed per variable strip


class CompileError(LevelError):
    pass


@dataclass(frozen=True)
class Placement:
    blueprint: GadgetBlueprint
    origin: tuple[int, int]
    prefix: str
    door_offset: int = 0


@dataclass(frozen=True)
class Wire:
    """A rectilinear routed path, kept for the plan report and for the
    crossing audit; points are polyline vertices."""

    name: str
    points: tuple[tuple[int, int], ...]


@dataclass
class LayoutPlan:
    variant: str
    width: int
    height: int
    placements: list[Placement] = field(default_factory=list)
    carves: list[tuple[int, int]] = field(default_factory=list)
    spawn: tuple[int, int] | None = None
    flag: tuple[int, int] | None = None
    wires: list[Wire] = field(default_factory=list)
    crossings: list[tuple[int, int]] = field(default_factory=list)


def _segments(wire: Wire):
    for a, b in zip(wire.points, wire.points[1:]):
        yield a, b


def detect_crossings(wires: list[Wire]) -> list[tuple[int, int]]:
    """Strict interior intersections between perpendicular wire segments.
    Endpoint touches are joins, not crossings.  More than two wires
    meeting at one point is a routing error."""
    hits: dict[tuple[int, int], set[str]] = {}
    for i, wa in enumerate(wires):
        for wb in wires[i:]:
            for (a1, a2) in _segments(wa):
                for (b1, b2) in _segments(wb):
                    if wa is wb and (a1, a2) == (b1, b2):
                        continue
                    pt = _cross_point(a1, a2, b1, b2)
                    if pt is not None:
                        hits.setdefault(pt, set()).update((wa.name, wb.name))
    for pt, names in hits.items():
        if len(names) > 2:
            raise CompileError(f"more than two wires cross at {pt}: {sorted(names)}")
    return sorted(hits)


def _cross_point(a1, a2, b1, b2):
    def is_h(p, q):
        return p[1] == q[1]

    if is_h(a1, a2) == is_h(b1, b2):
        return None  # parallel or collinear: joins are allowed
    if is_h(a1, a2):
        h1, h2, v1, v2 = a1, a2, b1, b2
    else:
        h1, h2, v1, v2 = b1, b2, a1, a2
    hy = h1[1]
    vx = v1[0]
    hx_lo, hx_hi = sorted((h1[0], h2[0]))
    vy_lo, vy_hi = sorted((v1[1], v2[1]))
    if hx_lo < vx < hx_hi and vy_lo < hy < vy_hi:
        return (vx, hy)
    return None


def route_and_place(plan: LayoutPlan) -> Level:
    """Deterministically realize a plan: stamp every placement, carve
    every corridor cell, verify every wire crossing is covered by a
    crossover, and validate the result."""
    crossings = detect_crossings(plan.wires)
    cover = {
        (p.origin[0] + 5, p.origin[1] + 5)
        for p in plan.placements
        if p.blueprint.kind == "crossover"
    }
    for pt in crossings:
        if pt not in cover:
            raise CompileError(f"wire crossing at {pt} is not covered by a crossover")
    plan.crossings = crossings

    builder = LevelBuilder(plan.width, plan.height, plan.variant)
    # Carve first: stamping rejects any carved cell inside a blueprint
    # rectangle, so conflicts between corridors and gadgets cannot slip
    # through silently.
    for cell in plan.carves:
        builder.carve(*cell)
    for p in plan.placements:
        stamp_into(builder, p.blueprint, p.origin, p.door_offset, p.prefix)
    builder.add(Spawn(plan.spawn))
    builder.add(Flag(plan.flag))
    return builder.build(validate=True)


def plan_report(plan: LayoutPlan) -> str:
    lines = [
        f"variant {plan.variant}, grid {plan.width}x{plan.height}",
        f"placements {len(plan.placements)}, carved cells {len(plan.carves)}, "
        f"wires {len(plan.wires)}, crossings {len(plan.crossings)}",
    ]
    for p in plan.placements:
        lines.append(f"  {p.blueprint.kind:14s} at {p.origin} as {p.prefix or '-'}")
    for w in plan.wires:
        lines.append(f"  wire {w.name}: " + " -> ".join(map(str, w.points)))
    for pt in plan.crossings:
        lines.append(f"  crossing at {pt} (crossover)")
    return "\n".join(lines) + "\n"


# --- NP: 3-CNF --------------------------------------------------------------


def _occurrences(formula: CnfFormula):
    """pos[v], neg[v]: global door ids (3*clause + slot) per literal."""
    pos = {v: [] for v in range(1, formula.num_variables + 1)}
    neg = {v: [] for v in range(1, formula.num_variables + 1)}
    for c, clause in enumerate(formula.clauses):
        for s, lit in enumerate(clause.literals):
            (neg if lit.negated else pos)[lit.variable].append(3 * c + s)
    return pos, neg


def plan_3sat(formula: CnfFormula, top_flag: bool = False) -> LayoutPlan:
    n, k = formula.num_variables, formula.num_clauses
    if n > DEFAULT_MAX_VARS or k > DEFAULT_MAX_CLAUSES:
        raise CompileError(f"layout bounds exceeded: n={n} (max {DEFAULT_MAX_VARS}), "
                           f"k={k} (max {DEFAULT_MAX_CLAUSES})")
    pos, neg = _occurrences(formula)

    plan = LayoutPlan(NP, 0, 0)
    carve = plan.carves.append

    # The cascade: chamber i sits V_PITCH rows above chamber i+1; the
    # passage pocket row for the strip after the last chamber is pr_n.
    # The top-flag variant pushes the passage 11 rows deeper.
    cy1 = (17 + V_PITCH * (n - 1) + (11 if top_flag else 0)) if n else 0
    cx = 6
    pr = cy1 + 6  # row of the pocket feeding the next stage (spawn row for n=0)

    if n == 0:
        pr = 4
        plan.spawn = (2, pr)
        carve((2, pr))
        carve((3, pr))
        px0 = 4
        height = 10
    else:
        plan.spawn = (cx - 3, cy1 + 6)
        for x in (cx - 3, cx - 2, cx - 1):
            carve((x, cy1 + 6))
        height = cy1 + 9

    spawn_wire = [plan.spawn]

    for i in range(1, n + 1):
        cy = cy1 - V_PITCH * (i - 1)
        rt, ru = cy - 2, cy - 10
        chamber = build_variable_gadget(i)
        plan.placements.append(Placement(chamber, (cx, cy), f"x{i}."))
        # true exit pocket and drop to the true tunnel band
        carve((cx - 2, cy + 1))
        carve((cx - 1, cy + 1))
        carve((cx - 2, cy))
        carve((cx - 2, cy - 1))
        for x in range(cx - 2, cx + 9):
            carve((x, rt))
        cross = build_crossover()
        ox, oy = cx + 9, cy - 7
        plan.placements.append(Placement(cross, (ox, oy), f"x{i}.cross."))
        # true tunnel east of the crossover
        t_bp = build_tunnel([(d, OPEN) for d in pos[i]])
        tx0 = cx + 20
        plan.placements.append(Placement(t_bp, (tx0, rt - 1), f"x{i}.true."))
        t_end = tx0 + t_bp.width - 1
        # false drop continues below the crossover into the false tunnel
        for y in range(ru, oy):
            carve((ox + 5, y))
        f_bp = build_tunnel([(d, OPEN) for d in neg[i]])
        fx0 = cx + 15
        plan.placements.append(Placement(f_bp, (fx0, ru - 1), f"x{i}.false."))
        f_end = fx0 + f_bp.width - 1
        mx = max(t_end, f_end) + 1
        for x in range(t_end + 1, mx):
            carve((x, rt))
        for x in range(f_end + 1, mx):
            carve((x, ru))
        # merge shaft down to the next pocket
        pr = cy - 14
        for y in range(pr, rt + 1):
            carve((mx, y))
        carve((mx + 1, pr))

        plan.wires.append(Wire(f"x{i}.true", (
            (cx, cy + 1), (cx - 2, cy + 1), (cx - 2, rt), (mx, rt), (mx, pr), (mx + 2, pr),
        )))
        plan.wires.append(Wire(f"x{i}.false", (
            (cx + 8, cy + 1), (ox + 5, cy + 1), (ox + 5, ru), (mx, ru),
        )))
        if i == 1:
            spawn_wire.append((cx, cy1 + 6))
            plan.wires.append(Wire("spawn", tuple(spawn_wire)))
        cx = mx + 2

    # Final stage: pocket cells at (cx-2, pr), (cx-1, pr) already carved
    # (merge shaft bottom) for n >= 1.
    if not top_flag or n == 0:
        px0 = cx if n else 4
        passage = build_final_passage(k)
        plan.placements.append(Placement(passage, (px0, pr - 1), "passage."))
        fx = px0 + passage.width
        carve((fx, pr))
        plan.flag = (fx, pr)
        plan.wires.append(Wire("final", ((cx - 2 if n else 2, pr), (fx, pr))))
        width = fx + 2
    else:
        width, height = _plan_top_flag(plan, formula, cx - 2, pr, height)

    plan.width, plan.height = width, height
    return plan


def _plan_top_flag(plan: LayoutPlan, formula: CnfFormula, mx: int, pr: int, height: int):
    """Variant layout: the passage sits deeper, its exit rides an elevator
    up to a flag corridor that crosses the level's inflow shaft through a
    crossover (the flag ends up above the passage)."""
    carve = plan.carves.append
    k = formula.num_clauses
    # mx is the last merge column; the default pocket row pr becomes the
    # crossover approach row, and the passage moves 11 rows deeper.
    preg = pr
    oy = preg - 8
    ox = mx + 2
    pr2 = preg - 11
    plan.placements.append(Placement(build_crossover(), (ox, oy), "flagcross."))
    # approach pocket into B1 (the merge shaft already ends at (mx, preg))
    carve((mx + 1, preg))
    # B2 shaft down to the passage pocket
    bx = ox + 5
    for y in range(pr2, oy):
        carve((bx, y))
    carve((bx + 1, pr2))
    px0 = bx + 2
    passage = build_final_passage(k)
    plan.placements.append(Placement(passage, (px0, pr2 - 1), "passage."))
    pe = px0 + passage.width
    carve((pe, pr2))
    lift = 8  # lands the flag corridor exactly on the crossover's A row
    ex0 = pe + 1
    plan.placements.append(Placement(build_elevator(lift), (ex0, pr2 - 1), "flaglift."))
    fcr = pr2 + lift  # flag corridor row (the elevator's upper ledge)
    for x in range(ox + 11, ex0):
        carve((x, fcr))
    carve((mx, fcr))
    carve((mx + 1, fcr))
    plan.flag = (mx, fcr)
    plan.wires.append(Wire("final", (
        (mx, pr + 4), (mx, preg), (ox + 5, preg), (ox + 5, pr2), (px0, pr2), (pe, pr2),
    )))
    plan.wires.append(Wire("flag", ((ex0, fcr), (mx, fcr))))
    return ex0 + 6, height


def compile_3sat(formula: CnfFormula, top_flag: bool = False) -> Level:
    """NP-variant level whose solvability matches the formula's
    satisfiability."""
    plan = plan_3sat(formula, top_flag)
    return route_and_place(plan)


def witness_trace(level: Level, assignment: dict[int, bool], num_variables: int):
    """The trace a satisfying assignment implies: drop through the chosen
    exit of each chamber (the 1-tall tunnels force every button press on
    the way) and walk the final passage to the flag.  Returns None if some
    leg is unreachable (e.g. the assignment does not satisfy the
    formula)."""
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


def _symbol_lists(formula: CnfFormula, var: int):
    pos, neg = _occurrences(formula)
    true_syms = tuple((d, OPEN) for d in pos[var]) + tuple((d, CLOSE) for d in neg[var])
    false_syms = tuple((d, OPEN) for d in neg[var]) + tuple((d, CLOSE) for d in pos[var])
    return true_syms, false_syms


def plan_qbf(qbf: QbfFormula) -> LayoutPlan:
    n = qbf.matrix.num_variables
    k = qbf.matrix.num_clauses
    if n > DEFAULT_MAX_PREFIX or k > DEFAULT_MAX_QBF_CLAUSES:
        raise CompileError(f"layout bounds exceeded: prefix {n} (max {DEFAULT_MAX_PREFIX}), "
                           f"k={k} (max {DEFAULT_MAX_QBF_CLAUSES})")

    plan = LayoutPlan(PSPACE, 0, 0)
    carve = plan.carves.append
    fwd_y, ret_y = 2, 9

    plan.spawn = (2, fwd_y)
    carve((2, fwd_y))
    carve((3, fwd_y))
    x = 4
    door_base = 3 * k
    fwd_wire = [(2, fwd_y)]
    ret_wire_pts = []

    for qi, (quant, var) in enumerate(qbf.prefix, start=1):
        true_syms, false_syms = _symbol_lists(qbf.matrix, var)
        if quant is Quantifier.EXISTS:
            bp = build_exists_gadget(var, true_syms, false_syms)
            n_doors = 2
        else:
            bp = build_forall_gadget(var, true_syms, false_syms)
            n_doors = 4
        plan.placements.append(Placement(bp, (x, 1), f"q{qi}.", door_offset=door_base))
        door_base += n_doors
        east = x + bp.width - 1
        fwd_wire.append((east, fwd_y))
        # forward connector (and the reroute drop for universal gadgets)
        for gx in range(east + 1, east + 4):
            carve((gx, fwd_y))
            carve((gx, ret_y))
        if quant is Quantifier.FORALL:
            jx = east + 2
            carve((east + 1, 4))
            carve((jx, 4))
            carve((jx, 3))
            plan.wires.append(Wire(f"q{qi}.reroute", ((east, 4), (jx, 4), (jx, fwd_y))))
        ret_wire_pts.append((east, ret_y))
        x = east + 4

    for c in range(k):
        bp = build_clause_gadget(c)
        plan.placements.append(Placement(bp, (x, 1), f"c{c}.", door_offset=3 * c))
        for gx in range(x, x + bp.width):
            carve((gx, ret_y))
        x += bp.width

    lift = ret_y - fwd_y
    elev = build_elevator(lift)
    plan.placements.append(Placement(elev, (x, 1), "lift."))
    plan.wires.append(Wire("forward", tuple(fwd_wire + [(x, fwd_y)])))
    plan.wires.append(Wire("return", tuple([(x, ret_y)] + ret_wire_pts[::-1] + [(2, ret_y)])))

    # flag pocket at the west end of the return band
    carve((2, ret_y))
    carve((3, ret_y))
    plan.flag = (2, ret_y)

    plan.width = x + elev.width + 1
    plan.height = 14
    return plan


def compile_qbf(qbf: QbfFormula) -> Level:
    """PSPACE-variant level whose solvability matches the QBF's truth."""
    plan = plan_qbf(qbf)
    return route_and_place(plan)
