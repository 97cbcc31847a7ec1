#!/usr/bin/env python3
"""satplat benchmark: compile -> solve -> check, one seeded workload per run.

    python3 benchmarks/run.py --workload np-search --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the library is imported from its
`src/`. Each run sets up several times (imports, input generation and
one warm-up item) and reports the median as setup_s; then it solves any
witness corpus once, untimed, and processes items in a closed loop, one
after another in this one process, for --seconds. Every output is checked: verdicts against the
benchmark's own brute-force evaluation and satplat's oracles, witnesses
by replay, mutants by failing replay.

--trace 0 prints the end-to-end metrics. --trace 1 spends half of
--seconds on a loop with a span around every call into the library,
re-runs the same items untraced to measure the tracing overhead, re-solves
the loop's first level, if it solved one, under tracemalloc for bytes per
state, and prints the per-layer
metrics. The last line of stdout is the result object; the
line before it holds the details (tail percentile and sample count,
failure kinds, digest, deterministic counts, machine). Both are also
written under benchmarks/out/, with the spans of a traced run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import resource
import statistics
import sys
import tracemalloc
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

from metrics import TAIL_BEYOND, equivalent_ratio, new_state_ratio, ratio, self_times, tail
from reference import Clock
from spans import NullTracer, Tracer
from workloads import COUNT_KEYS, SOLVE_MAX_TIME, WORKLOADS, digest, load_library
from workloads import replay as traced_replay

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_REPS = 5

END_TO_END = {
    "items_per_s": "1/s", "item_s.p50": "s", "item_s.tail": "s",
    "compile_s.p50": "s", "peak_rss_mb": "MB", "setup_s": "s",
}
# Per-layer figures: `<layer>.<op>_s` is the mean time per measured item;
# counts are totals over the run's digest items, which repeat exactly.
PER_LAYER = {
    "solver.solve_s": "s", "solver.search_s": "s", "solver.overhead_s": "s",
    "solver.states_expanded": "count", "solver.states_visited": "count",
    "solver.frontier_peak": "count", "solver.expansions_per_s": "1/s",
    "solver.new_state_ratio": "ratio", "solver.bytes_per_state": "B",
    "solver.trace_moves": "count", "solver.self_s": "s",
    "sim.context_s": "s", "sim.replay_s": "s", "sim.replay_moves": "count",
    "sim.step_calls": "count", "sim.step_us": "us", "sim.self_s": "s",
    "compiler.plan_s": "s", "compiler.route_s": "s", "compiler.cells": "count",
    "compiler.placements": "count", "compiler.self_s": "s",
    "level.save_s": "s", "level.load_s": "s", "level.doc_bytes": "count",
    "level.self_s": "s",
    "formula.parse_s": "s", "formula.oracle_s": "s", "formula.self_s": "s",
    "verify.prefix_s": "s", "verify.mutate_s": "s", "verify.mutants": "count",
    "verify.equivalent_ratio": "ratio", "verify.self_s": "s",
    "trace.overhead_s": "s", "trace.overhead_share": "ratio",
}
LAYERS = ("solver", "sim", "compiler", "level", "formula", "verify")


def set_up(workload, seed: int, clock: Clock):
    """SETUP_REPS set-ups, each timed as (start, end); then the entries
    for the loop, made once with the last set-up's library, and the
    seconds that took.

    The entries are made outside the timed set-ups because, on
    witness-mutation, solving the seeded corpus costs more than the rest
    of set-up and follows the seed: with it, set-up time spread by a
    quarter over ten seeds."""
    times = []
    for _ in range(SETUP_REPS):
        clock.sample()
        start = perf_counter()
        lib = load_library()
        inputs = workload.inputs(seed)
        warm = workload.warm_up(lib)
        times.append((start, perf_counter()))
    clock.sample()
    if not Path(lib.formula.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"satplat was imported from {lib.formula.__file__}, not {SRC}")
    start = perf_counter()
    entries, checks = workload.set_up(lib, inputs)
    return lib, entries, checks, warm, times, perf_counter() - start


def measure(workload, lib, entries, seed: int, t, clock, seconds: float, count=None):
    """Closed loop over the entries, one item after another: at least the
    digest items (and enough for a tail percentile), then until `seconds`
    have passed and a cycle is complete; or exactly `count` items.
    Returns the results, each item's factor to nominal time, and the
    wall time."""
    minimum = max(workload.digest, TAIL_BEYOND + 1)
    results, windows = [], []
    start = perf_counter()
    deadline = start + seconds
    i = 0
    while i < count if count is not None else (
            i < minimum or perf_counter() < deadline or i % workload.cycle):
        clock.tick()
        t.item = i
        entry = entries[i % len(entries)]
        begin = perf_counter()
        result = workload.run_item(lib, t, entry, random.Random(f"{seed}:{i}"))
        windows.append((begin, perf_counter()))
        if i >= workload.digest:
            # Only the digest items keep their level document: kept for
            # every item, the documents made peak_rss_mb grow with the
            # number of items a run completes, so with the machine's speed.
            result.fingerprint, result.doc = b"", None
        results.append(result)
        i += 1
    clock.sample()
    scales = [clock.scale(*window) for window in windows]
    return results, scales, perf_counter() - start


def totals(results) -> dict[str, int]:
    out = {key: sum(r.counts[key] for r in results) for key in COUNT_KEYS}
    out["frontier_peak"] = max((r.counts["frontier_peak"] for r in results), default=0)
    return out


def memory_pass(lib, doc: str):
    """Re-solve one level under tracemalloc, which slows it about 20x:
    bytes of peak allocation during `solve` per visited state (the
    context is built beforehand)."""
    lib.sim.sim_context.cache_clear()
    level = lib.level.load_level(doc)
    lib.sim.sim_context(level)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        visited = lib.solver.solve(level, max_time=SOLVE_MAX_TIME).stats.states_visited
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    return ratio(peak, visited), visited


def span_seconds(spans) -> dict[str, float]:
    """Total seconds per span name, and self seconds per layer under the
    key `<layer>.self`."""
    out = defaultdict(float)
    for span, self_s in zip(spans, self_times(spans)):
        out[span.name] += span.end - span.start
        out[span.name.split(".")[0] + ".self"] += self_s
    return out


def layer_metrics(lib, workload, t, results, overhead, memory):
    """Per-layer figures from the traced loop (see PER_LAYER). A layer
    the loop does not call reads 0: witness-mutation makes no timed
    search and asks no oracle."""
    items = len(results)
    head = results[:workload.digest]
    loop = span_seconds(t.spans)
    loop["sim.self"] += t.total("sim.step.s")
    m = {f"{layer}.self_s": loop[layer + ".self"] / items for layer in LAYERS}
    for name in ("solver.solve", "sim.context", "sim.replay", "compiler.plan",
                 "compiler.route", "level.save", "level.load", "formula.parse",
                 "formula.oracle", "verify.prefix", "verify.mutate"):
        m[name + "_s"] = loop[name] / items

    search_s = sum(r.search_s for r in results) / items
    moves = len(lib.sim.canonical_moves(lib.level.PhysicsParams()))
    head_counts = totals(head)
    digest_ids = set(range(workload.digest))
    m.update({
        "solver.search_s": search_s,
        "solver.overhead_s": m["solver.solve_s"] - search_s,
        "solver.states_expanded": head_counts["states_expanded"],
        "solver.states_visited": head_counts["states_visited"],
        "solver.frontier_peak": head_counts["frontier_peak"],
        "solver.expansions_per_s": ratio(sum(r.counts["states_expanded"] for r in results),
                                         search_s * items),
        "solver.new_state_ratio": new_state_ratio(head_counts["states_visited"],
                                                  head_counts["states_expanded"], moves)[0],
        "solver.bytes_per_state": memory[0],
        "solver.trace_moves": head_counts["trace_moves"],
        "sim.replay_moves": t.total("sim.replay_moves", digest_ids),
        "sim.step_calls": t.total("sim.step.calls", digest_ids),
        "sim.step_us": 1e6 * ratio(t.total("sim.step.s"), t.total("sim.step.calls")),
        "compiler.cells": head_counts["cells"],
        "compiler.placements": head_counts["placements"],
        "level.doc_bytes": head_counts["doc_bytes"],
        "verify.mutants": head_counts["mutants"],
        "verify.equivalent_ratio": equivalent_ratio(head_counts["equivalent"],
                                                    head_counts["mutants"])[0],
        "trace.overhead_s": overhead[0],
        "trace.overhead_share": overhead[1],
    })
    notes = {
        "new_state_ratio_base": f"states_expanded x {moves} moves",
        "equivalent_ratio_base": "equivalent draws + mutants returned",
        "bytes_per_state_visited": memory[1],
    }
    return m, notes


def run(workload, seed: int, seconds: float, trace: bool):
    clock = Clock()
    lib, entries, setup_results, warm, setup_times, entries_s = set_up(workload, seed, clock)
    detail = {"workload": workload.name, "seed": seed, "seconds": seconds, "trace": int(trace),
              "entries_s": entries_s}
    if not trace:
        results, scales, wall = measure(workload, lib, entries, seed, NullTracer(), clock,
                                        seconds)
        item_s = [r.item_s * k for r, k in zip(results, scales)]
        tail_s, percentile, samples = tail(item_s)
        setup_s = [(end - start) * clock.scale(start, end) for start, end in setup_times]
        metrics = {
            "items_per_s": len(results) / sum(item_s),
            "item_s.p50": statistics.median(item_s),
            "item_s.tail": tail_s,
            "compile_s.p50": statistics.median(r.compile_s * k for r, k in zip(results, scales)),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "setup_s": statistics.median(setup_s),
        }
        units = END_TO_END
        raw_item_s = [r.item_s for r in results]
        detail.update(items=len(results), loop_s=wall,
                      tail={"percentile": percentile, "samples": samples},
                      raw={"items_per_s": len(results) / sum(raw_item_s),
                           "item_s.p50": statistics.median(raw_item_s),
                           "setup_s": statistics.median(e - s for s, e in setup_times)},
                      setup_s=setup_s, item_s=item_s)
        checked = results
    else:
        t = Tracer()
        step, replay = lib.verify.step, lib.verify.replay
        lib.verify.step = t.tally("sim.step", step)
        lib.verify.replay = lambda level, moves: traced_replay(lib, t, level, moves)
        try:
            results, scales, _ = measure(workload, lib, entries, seed, t, clock, seconds / 2)
        finally:
            lib.verify.step, lib.verify.replay = step, replay
        again, again_scales, _ = measure(workload, lib, entries, seed, NullTracer(), clock,
                                         0, count=len(results))
        traced_s = sum(r.item_s * k for r, k in zip(results, scales))
        untraced_s = sum(r.item_s * k for r, k in zip(again, again_scales))
        docs = [r.doc for r in results if r.doc]
        memory = memory_pass(lib, docs[0]) if docs else (0.0, 0)
        overhead = (traced_s - untraced_s, (traced_s - untraced_s) / untraced_s)
        metrics, notes = layer_metrics(lib, workload, t, results, overhead, memory)
        units = PER_LAYER
        OUT.mkdir(exist_ok=True)
        spans_file = OUT / f"spans-{workload.name}-seed{seed}.jsonl"
        t.write(spans_file)
        detail.update(items=len(results), traced_nominal_s=traced_s,
                      untraced_nominal_s=untraced_s, spans=len(t.spans),
                      spans_file=str(spans_file.relative_to(ROOT)), **notes)
        checked = results + again
    checked = checked + setup_results + warm
    failures = Counter(kind for r in checked for kind in r.failures)
    failed = sum(1 for r in checked if r.failures)
    head = results[:workload.digest]
    detail.update(
        attempted=len(checked), fail_ratio=failed / len(checked), failures=dict(failures),
        digest=digest(head), digest_items=len(head), counts=totals(head),
        reference_s=clock.median(), reference_samples=len(clock.samples), machine=machine(),
    )
    result = {
        "correct": failed == 0,
        "attempted": len(checked),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    return detail, result


def commit(root: Path) -> str | None:
    """The checked-out commit, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def machine() -> dict:
    sources = hashlib.sha256()
    for path in sorted((SRC / "satplat").glob("*.py")):
        sources.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "commit": commit(ROOT),
        "source_sha256": sources.hexdigest(),
    }


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "satplat" / "__init__.py").is_file():
        print(f"benchmark: no satplat sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    detail, result = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    OUT.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps({"detail": detail, "result": result}, indent=1) + "\n")
    detail.pop("item_s", None)  # in the file only: one number per item
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
