"""The gadget library and its machine-checked contracts.

Every blueprint declares which port pairs must (or must not) be
reachable, optionally under forced door/platform states.  The checker
stamps the gadget alone into a solid level and runs the search.
"""

from satplat.gadgets import (
    ALL_GADGET_BUILDERS,
    build_variable_gadget,
    check_contract,
    contract_level,
)
from satplat.level import render_ascii

bp = build_variable_gadget()
level = contract_level(bp)
print("the variable chamber, stamped alone (entry top left, exits below):\n")
print(render_ascii(level))
print()

for assertion, ok in check_contract(bp):
    verdict = "reachable" if assertion.reachable else "unreachable"
    print(f"  {'ok' if ok else 'FAIL'}  {assertion.from_port} -> "
          f"{assertion.to_port}: {verdict}")

print("\nchecking every gadget's full contract:")
for kind, builder in sorted(ALL_GADGET_BUILDERS.items()):
    results = list(check_contract(builder()))
    status = "ok" if all(ok for _, ok in results) else "FAIL"
    print(f"  {status}  {kind}: {len(results)} assertions")
