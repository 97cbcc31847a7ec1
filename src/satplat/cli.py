"""Command-line front end.

Exit codes: 0 success / positive verdict; 1 negative but valid verdict
(unsolvable level, failed replay, corpus disagreement, search limit hit);
2 crash (bad input, unreadable path, usage error).  stdout carries
documents (levels, traces, reports); stderr carries diagnostics.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from satplat.compiler import (
    check_size,
    compile_qbf,
    plan_3sat,
    plan_report,
    route_and_place,
)
from satplat.formula import (
    dimacs_header,
    gen_random_3cnf,
    parse_dimacs,
    parse_qdimacs,
    write_dimacs,
)
from satplat.gadgets import ALL_GADGET_BUILDERS, catalog, check_contract
from satplat.level import NP, PSPACE, load_level, render_ascii, save_level
from satplat.sim import replay, replay_states, trace_from_text, trace_to_text
from satplat.solver import DEFAULT_MAX_STATES, LimitExceeded, Solvable, solve


def _write_out(text: str, out: str | None):
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _cmd_compile(args) -> int:
    text = Path(args.cnf).read_text()
    check_size(*dimacs_header(text), NP)  # a huge formula is refused before it is parsed
    plan = plan_3sat(parse_dimacs(text))
    level = route_and_place(plan)
    _write_out(save_level(level), args.output)
    if args.plan:
        sys.stderr.write(plan_report(plan))
    return 0


def _cmd_qcompile(args) -> int:
    text = Path(args.qdimacs).read_text()
    check_size(*dimacs_header(text), PSPACE)  # a huge prefix is refused before it is listed
    level = compile_qbf(parse_qdimacs(text))
    _write_out(save_level(level), args.output)
    return 0


def _cmd_solve(args) -> int:
    level = load_level(Path(args.level).read_text())
    result = solve(level, max_states=args.max_states, max_time=args.max_time)
    if args.stats:
        s = result.stats
        sys.stderr.write(
            f"expanded {s.states_expanded} visited {s.states_visited} "
            f"frontier_peak {s.frontier_peak} successor_lists {s.successor_lists} "
            f"elapsed {s.elapsed:.3f}s\n"
        )
    if isinstance(result, Solvable):
        _write_out(trace_to_text(result.trace), args.trace_out)
        return 0
    if isinstance(result, LimitExceeded):
        sys.stderr.write("search limit exceeded before a verdict\n")
    else:
        sys.stderr.write("unsolvable\n")
    return 1


def _cmd_replay(args) -> int:
    level = load_level(Path(args.level).read_text())
    trace = trace_from_text(Path(args.trace).read_text())
    ok = replay(level, trace)
    sys.stderr.write("replay ok\n" if ok else "replay failed\n")
    return 0 if ok else 1


def _cmd_render(args) -> int:
    level = load_level(Path(args.level).read_text())
    state = None
    if args.trace:
        trace = trace_from_text(Path(args.trace).read_text())
        states = list(replay_states(level, trace))
        if len(states) <= len(trace):
            sys.stderr.write(f"replay failed at move {len(states)}\n")
            return 1
        state = states[-1]
    sys.stdout.write(render_ascii(level, state) + "\n")
    return 0


def _cmd_gen(args) -> int:
    formula = gen_random_3cnf(args.n, args.k, args.seed)
    _write_out(write_dimacs(formula), args.output)
    return 0


def _cmd_verify(args) -> int:
    from satplat.corpus import CorpusSpec, run_corpus  # off the other commands' import path

    variant = PSPACE if args.pspace else NP
    if args.random:
        spec = CorpusSpec("RANDOM", variant, n=args.n, k=args.k,
                          count=args.count, seed=args.seed)
    else:
        spec = CorpusSpec("EXHAUSTIVE", variant, n_max=args.nmax, k_max=args.kmax)
    summary = run_corpus(spec, jobs=args.jobs, repro_dir=args.repro_dir)
    sys.stdout.write(summary.text())
    return 0 if summary.all_agree else 1


def _cmd_gadgets(args) -> int:
    sys.stdout.write(catalog())
    if args.check:
        failed = 0
        for kind, builder in ALL_GADGET_BUILDERS.items():
            for assertion, ok in check_contract(builder()):
                if not ok:
                    failed += 1
                    sys.stderr.write(f"FAIL {kind}: {assertion}\n")
        sys.stderr.write("all gadget contracts hold\n" if not failed
                         else f"{failed} contract assertions failed\n")
        return 0 if not failed else 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="satplat",
        description="Compile CNF/QBF formulas into platformer levels, solve, "
                    "and verify the reduction against brute-force oracles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compile", help="3-CNF (DIMACS) to NP-variant level")
    p.add_argument("cnf")
    p.add_argument("-o", "--output")
    p.add_argument("--plan", action="store_true", help="print the layout plan to stderr")
    p.set_defaults(func=_cmd_compile)

    p = sub.add_parser("qcompile", help="QBF (QDIMACS) to PSPACE-variant level")
    p.add_argument("qdimacs")
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_qcompile)

    p = sub.add_parser("solve", help="decide a level by exhaustive search")
    p.add_argument("level")
    p.add_argument("--trace-out")
    p.add_argument("--stats", action="store_true")
    p.add_argument("--max-states", type=int, default=DEFAULT_MAX_STATES)
    p.add_argument("--max-time", type=float, default=None)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("replay", help="check a witness trace")
    p.add_argument("level")
    p.add_argument("trace")
    p.set_defaults(func=_cmd_replay)

    p = sub.add_parser("render", help="ASCII-render a level (optionally after a trace)")
    p.add_argument("level")
    p.add_argument("trace", nargs="?")
    p.set_defaults(func=_cmd_render)

    p = sub.add_parser("gen", help="generate a random 3-CNF")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("verify", help="oracle-equivalence over a corpus")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--exhaustive", action="store_true")
    mode.add_argument("--random", action="store_true")
    p.add_argument("--pspace", action="store_true")
    p.add_argument("--nmax", type=int, default=2)
    p.add_argument("--kmax", type=int, default=2)
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--count", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--repro-dir")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("gadgets", help="dump the gadget catalog")
    p.add_argument("--check", action="store_true", help="also run every contract")
    p.set_defaults(func=_cmd_gadgets)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:  # every input error is a ValueError
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
