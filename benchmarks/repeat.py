#!/usr/bin/env python3
"""Run the benchmark untraced once per seed and summarise the spread of
each end-to-end metric.

    python3 benchmarks/repeat.py --workload np-search --seeds 1-10 --seconds 30 \
        --save benchmarks/out/np-a.json
    python3 benchmarks/repeat.py --compare benchmarks/out/np-a.json benchmarks/out/np-b.json

For every metric it prints the median, the quartiles and the spread
(third minus first quartile, as a share of the median). --compare puts
two saved sets side by side: the change of each median, and whether each
seed's digest and deterministic counts are identical in both.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from metrics import spread

HERE = Path(__file__).resolve().parent


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_set(workload: str, seed_list, seconds: int) -> list[dict]:
    runs = []
    for seed in seed_list:
        out = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", "0"],
            cwd=HERE.parent, capture_output=True, text=True, check=True, timeout=900,
        ).stdout.splitlines()
        runs.append({"seed": seed, "detail": json.loads(out[-2]), "result": json.loads(out[-1])})
        print(f"seed {seed}: correct={runs[-1]['result']['correct']}", file=sys.stderr)
    return runs


def summary(runs) -> dict[str, dict]:
    names = runs[0]["result"]["metrics"]
    out = {}
    for name in names:
        values = [r["result"]["metrics"][name]["value"] for r in runs]
        q1, median, q3 = statistics.quantiles(values, n=4)
        out[name] = {"median": statistics.median(values), "q1": q1, "q3": q3,
                     "spread": spread(values) if median else None}
    return out


def show(runs):
    print(f"{len(runs)} runs, all correct: {all(r['result']['correct'] for r in runs)}")
    for name, s in summary(runs).items():
        spread_text = "n/a" if s["spread"] is None else f"{s['spread']:.4f}"
        print(f"  {name:28s} median {s['median']:.6g}  q1 {s['q1']:.6g}  q3 {s['q3']:.6g}"
              f"  spread {spread_text}")


def compare(path_a: Path, path_b: Path):
    a, b = json.loads(path_a.read_text()), json.loads(path_b.read_text())
    sa, sb = summary(a), summary(b)
    for name in sa:
        change = sb[name]["median"] / sa[name]["median"] - 1 if sa[name]["median"] else 0.0
        print(f"  {name:28s} {sa[name]['median']:.6g} -> {sb[name]['median']:.6g}"
              f"  ({change:+.2%})")
    by_seed = {r["seed"]: r["detail"] for r in b}
    same = [by_seed.get(r["seed"], {}).get("digest") == r["detail"]["digest"]
            and by_seed[r["seed"]]["counts"] == r["detail"]["counts"] for r in a]
    print(f"digest and counts identical for {sum(same)} of {len(same)} seeds")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--save", type=Path)
    parser.add_argument("--compare", nargs=2, type=Path)
    args = parser.parse_args(argv)
    if args.compare:
        compare(*args.compare)
        return 0
    runs = run_set(args.workload, seeds(args.seeds), args.seconds)
    if args.save:
        args.save.parent.mkdir(parents=True, exist_ok=True)
        args.save.write_text(json.dumps(runs, indent=1) + "\n")
    show(runs)
    return 0


if __name__ == "__main__":
    sys.exit(main())
