"""The level model and the movement rules.

Builds a small level by hand, renders it, and walks through the core
mechanics: gravity, dashing, buttons, doors, and a crumbling platform.
"""

from satplat.level import Button, Door, Flag, LevelBuilder, Spawn, UnstablePlatform, render_ascii
from satplat.sim import initial_state, legal_moves, step, dash, walk

builder = LevelBuilder(12, 7)
for x in range(1, 11):
    builder.carve(x, 3)  # the walking corridor
builder.carve(1, 4)  # headroom at the spawn
builder.carve(8, 2)  # a pit under the platform
builder.carve(8, 1)
builder.add(Spawn((1, 3)))
builder.add(Button((4, 3), door_id=0))  # blocks walking; a dash fires it
builder.add(Door(0, ((6, 3),)))
builder.add(UnstablePlatform((8, 2)))  # bridges the pit
builder.add(Flag((10, 3)))
level = builder.build()

print(render_ascii(level))
print()

state = initial_state(level)
print("legal moves at spawn:", ", ".join(map(str, legal_moves(level, state))))

state = step(level, state, walk(1))
state = step(level, state, walk(1))
print("walking into the button from", state.position, "->",
      step(level, state, walk(1)))

state = step(level, state, dash("E"))
print("a dash sweeps the button and stops at the closed door:",
      state.position, "door bits:", bin(state.door_open))

for move in (walk(1), walk(1), walk(1)):
    state = step(level, state, move)
print("through the open door, now standing on the platform at", state.position,
      "- broken:", bool(state.platform_broken))
print()
print(render_ascii(level, state))

state = step(level, state, dash("E"))
print("\ndashing off before it gives way lands at", state.position)
print("the platform reforms once the player is 2 cells away:",
      not state.platform_broken)
