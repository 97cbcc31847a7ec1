"""The cell-by-cell step core that the table-driven core replaced, kept
frozen as the reference that `tests/test_step_core.py` compares against.

`reference_step(level, state, move)` returns the next state as a plain
tuple `(x, y, has_dash, door_open, platform_broken)`, or `BLOCKED` or
`DEATH`.  It reads only the static grid of `sim_context(level)`: `code`,
`eid`, `buttons`, `plat_cells`, `physics` and the grid size.
"""

from __future__ import annotations

from satplat.sim import BLOCKED, COMPASS_DELTA, DEATH, sim_context

# Cell codes in the packed grid (as in `satplat.sim`).
_EMPTY, _SOLID, _DOOR, _PLAT, _BUTTON, _BLOCK = range(6)


def reference_step(level, state, move):
    if move.kind == "WALK":
        kind, a, b = 0, move.dx, 0
    elif move.kind == "JUMP":
        kind, a, b = 1, move.dx, move.rise
    else:
        kind, (a, b) = 2, COMPASS_DELTA[move.direction]
    return _step_packed(sim_context(level), *state, kind, a, b)


def _step_packed(ctx, x: int, y: int, has_dash: int, doors: int,
                 plats: int, kind: int, a: int, b: int):
    w, h = ctx.width, ctx.height
    code = ctx.code
    eid = ctx.eid

    def walkable(cx: int, cy: int) -> bool:
        if not (0 <= cx < w and 0 <= cy < h):
            return False
        c = code[cy * w + cx]
        if c == _EMPTY:
            return True
        if c == _DOOR:
            return bool((doors >> eid[cy * w + cx]) & 1)
        if c == _PLAT:
            return bool((plats >> eid[cy * w + cx]) & 1)
        return False  # solid, button, block

    fired: list[int] = []
    transited = False

    if kind == 0:  # WALK
        nx = x + a
        if not walkable(nx, y):
            return BLOCKED
        px, py = nx, y

    elif kind == 1:  # JUMP: ascend b cells, then shift a
        for i in range(1, b + 1):
            if not walkable(x, y + i):
                return BLOCKED
        px, py = x, y + b
        if a:
            if not walkable(x + a, py):
                return BLOCKED
            px = x + a

    else:  # DASH
        if not has_dash:
            return BLOCKED
        cx, cy = x, y
        moved = False
        for _ in range(ctx.physics.dash_length):
            nx, ny = cx + a, cy + b
            if not (0 <= nx < w and 0 <= ny < h):
                break
            i = ny * w + nx
            c = code[i]
            if c == _BLOCK:
                # Space-block transit: carried straight through the block
                # cells (chaining into an abutting block) to the first cell
                # beyond; a blocked exit kills.
                transited = True
                tx, ty = nx, ny
                while 0 <= tx < w and 0 <= ty < h and code[ty * w + tx] == _BLOCK:
                    tx += a
                    ty += b
                # Buttons swept before the block have already fired.
                tdoors = doors
                for bi in fired:
                    door_id, set_open = ctx.buttons[bi]
                    tdoors = tdoors | (1 << door_id) if set_open else tdoors & ~(1 << door_id)
                if not (0 <= tx < w and 0 <= ty < h):
                    return DEATH
                tc = code[ty * w + tx]
                ti = ty * w + tx
                exit_ok = (
                    tc == _EMPTY
                    or tc == _BUTTON
                    or (tc == _DOOR and (tdoors >> eid[ti]) & 1)
                    or (tc == _PLAT and (plats >> eid[ti]) & 1)
                )
                if not exit_ok:
                    return DEATH
                cx, cy = tx, ty
                moved = True
                if tc == _BUTTON:
                    fired.append(eid[ti])
                break
            passable = (
                c == _EMPTY
                or c == _BUTTON
                or (c == _DOOR and (doors >> eid[i]) & 1)
                or (c == _PLAT and (plats >> eid[i]) & 1)
            )
            if not passable:
                break
            cx, cy = nx, ny
            moved = True
            if c == _BUTTON:
                fired.append(eid[i])
        if not moved:
            return BLOCKED
        px, py = cx, cy

    for bi in fired:
        door_id, set_open = ctx.buttons[bi]
        doors = doors | (1 << door_id) if set_open else doors & ~(1 << door_id)

    # Gravity: fall until the cell below blocks (solid, closed door,
    # unbroken platform, or space block).
    while py > 0:
        i = (py - 1) * w + px
        c = code[i]
        if c == _EMPTY or c == _BUTTON:
            py -= 1
        elif c == _DOOR and (doors >> eid[i]) & 1:
            py -= 1
        elif c == _PLAT and (plats >> eid[i]) & 1:
            py -= 1
        else:
            break

    # Platform breaking: standing on an intact platform breaks it; the
    # player stays put this step.
    below = (py - 1) * w + px
    support = code[below] if py > 0 else _SOLID
    if support == _PLAT:
        plats |= 1 << eid[below]

    # Platform reform: broken platforms far enough away come back.
    if plats:
        reform = ctx.physics.reform_distance
        for pid, bx, by in ctx.plat_cells:
            if (plats >> pid) & 1:
                d = abs(bx - px)
                dy2 = abs(by - py)
                if (d if d > dy2 else dy2) >= reform:
                    plats &= ~(1 << pid)

    if kind == 2:
        has_dash = 0
    if transited:
        has_dash = 1
    if support == _SOLID or support == _PLAT:
        has_dash = 1

    return (px, py, has_dash, doors, plats)
