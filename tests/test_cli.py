import contextlib
import io
import json
import os
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from satplat.cli import main
from tests.conftest import SAMPLE_DIMACS


@pytest.fixture
def sample_cnf(tmp_path):
    p = tmp_path / "sample.cnf"
    p.write_text(SAMPLE_DIMACS)
    return p


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEndToEnd:
    def test_compile_solve_replay(self, tmp_path, sample_cnf, capsys):
        level = tmp_path / "sample.level"
        trace = tmp_path / "sample.trace"
        assert run(capsys, "compile", sample_cnf, "-o", level)[0] == 0
        code, out, err = run(capsys, "solve", level, "--trace-out", trace, "--stats")
        assert code == 0
        assert "expanded" in err and "successor_lists" in err
        code, _, err = run(capsys, "replay", level, trace)
        assert code == 0 and "replay ok" in err

    def test_solve_writes_trace_to_stdout(self, tmp_path, sample_cnf, capsys):
        level = tmp_path / "sample.level"
        run(capsys, "compile", sample_cnf, "-o", level)
        code, out, _ = run(capsys, "solve", level)
        assert code == 0
        assert out.splitlines()[0].startswith(("WALK", "JUMP", "DASH"))

    def test_unsolvable_exits_one(self, tmp_path, capsys):
        cnf = tmp_path / "unsat.cnf"
        cnf.write_text("p cnf 1 2\n1 0\n-1 0\n")
        level = tmp_path / "unsat.level"
        run(capsys, "compile", cnf, "-o", level)
        code, _, err = run(capsys, "solve", level)
        assert code == 1 and "unsolvable" in err

    def test_bad_replay_exits_one(self, tmp_path, sample_cnf, capsys):
        level = tmp_path / "sample.level"
        bad = tmp_path / "bad.trace"
        run(capsys, "compile", sample_cnf, "-o", level)
        bad.write_text("WALK L\n")
        code, _, err = run(capsys, "replay", level, bad)
        assert code == 1 and "failed" in err

    def test_render_of_failing_trace_exits_one(self, tmp_path, sample_cnf, capsys):
        level = tmp_path / "sample.level"
        bad = tmp_path / "bad.trace"
        run(capsys, "compile", sample_cnf, "-o", level)
        bad.write_text("WALK L\nWALK R\nWALK R\nWALK R\n")
        code, out, err = run(capsys, "render", level, bad)
        assert code == 1 and out == ""
        assert "replay failed at move 1" in err

    def test_render_of_out_of_range_move_exits_one(self, tmp_path, sample_cnf, capsys):
        # render agrees with replay on a move that is not canonical
        level = tmp_path / "sample.level"
        bad = tmp_path / "bad.trace"
        run(capsys, "compile", sample_cnf, "-o", level)
        bad.write_text("JUMP 1 9\n")
        code, _, err = run(capsys, "replay", level, bad)
        assert code == 1 and "replay failed" in err
        code, out, err = run(capsys, "render", level, bad)
        assert code == 1 and out == ""
        assert "replay failed at move 1" in err

    def test_zero_time_limit_is_reported(self, tmp_path, sample_cnf, capsys):
        # the clock is read on the first expansion, long before the 682
        # expansions this level takes to solve
        level = tmp_path / "sample.level"
        run(capsys, "compile", sample_cnf, "-o", level)
        code, out, err = run(capsys, "solve", level, "--max-time", "0", "--stats")
        assert code == 1 and out == ""
        assert "expanded 1 " in err and "search limit exceeded" in err

    def test_qcompile_and_render(self, tmp_path, capsys):
        q = tmp_path / "q.qdimacs"
        q.write_text("p cnf 1 1\ne 1 0\n1 0\n")
        level = tmp_path / "q.level"
        assert run(capsys, "qcompile", q, "-o", level)[0] == 0
        code, out, _ = run(capsys, "render", level)
        assert code == 0
        doc = json.loads(level.read_text())
        lines = out.rstrip("\n").splitlines()
        assert len(lines) == len(doc["tiles"])
        assert all(len(l) == len(doc["tiles"][0]) for l in lines)
        assert "S" in out and "F" in out

    def test_render_after_trace_shows_player_at_flag(self, tmp_path, sample_cnf, capsys):
        level = tmp_path / "s.level"
        trace = tmp_path / "s.trace"
        run(capsys, "compile", sample_cnf, "-o", level)
        run(capsys, "solve", level, "--trace-out", trace)
        code, out, _ = run(capsys, "render", level, trace)
        assert code == 0
        assert "@" in out and "F" not in out  # the player stands on the flag

    def test_gen_deterministic(self, tmp_path, capsys):
        code, out1, _ = run(capsys, "gen", "--n", 3, "--k", 2, "--seed", 5)
        assert code == 0
        _, out2, _ = run(capsys, "gen", "--n", 3, "--k", 2, "--seed", 5)
        assert out1 == out2
        assert out1.startswith("p cnf 3 2")

    def test_verify_exhaustive(self, capsys):
        code, out, _ = run(capsys, "verify", "--exhaustive", "--nmax", 1, "--kmax", 1)
        assert code == 0
        assert "6 items, 6 agree" in out

    def test_verify_random_pspace(self, capsys):
        code, out, _ = run(capsys, "verify", "--random", "--pspace",
                           "--n", 2, "--k", 1, "--count", 3, "--seed", 2)
        assert code == 0

    def test_verify_at_the_sat_oracle_bound(self, capsys):
        # SAT_BOUND is 20: the bound itself is still a corpus size.
        code, out, _ = run(capsys, "verify", "--random", "--n", 20, "--k", 1, "--count", 1)
        assert code == 0
        assert "1 items, 1 agree" in out

    def test_gadgets_catalog_and_check(self, capsys):
        code, out, err = run(capsys, "gadgets", "--check")
        assert code == 0
        assert "elevator" in out
        assert "all gadget contracts hold" in err

    def test_gadgets_check_exits_one_on_a_failed_contract(self, capsys, monkeypatch):
        monkeypatch.setattr("satplat.cli.check_contract",
                            lambda gadget: [("holds", True), ("breaks", False)])
        code, out, err = run(capsys, "gadgets", "--check")
        fails = [line for line in err.splitlines() if line.startswith("FAIL ")]
        assert code == 1
        assert "FAIL elevator: breaks" in fails and all(f.endswith(": breaks") for f in fails)
        assert f"{len(fails)} contract assertions failed" in err


class TestErrorPaths:
    def test_missing_file_exits_two(self, capsys):
        assert run(capsys, "compile", "/nonexistent.cnf")[0] == 2

    def test_malformed_formula_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.cnf"
        bad.write_text("p cnf 1 1\n1 2 0\n")
        code, _, err = run(capsys, "compile", bad)
        assert code == 2 and "error" in err

    def test_unknown_flag_exits_two(self, capsys):
        assert run(capsys, "solve")[0] == 2

    def test_directory_path_exits_two(self, tmp_path, capsys):
        code, _, err = run(capsys, "solve", tmp_path)
        assert code == 2 and err.startswith("error:")

    def test_non_integer_cell_exits_two(self, tmp_path, sample_cnf, capsys):
        level = tmp_path / "s.level"
        run(capsys, "compile", sample_cnf, "-o", level)
        doc = json.loads(level.read_text())
        next(e for e in doc["entities"] if e["kind"] == "spawn")["cell"] = "ab"
        level.write_text(json.dumps(doc))
        code, _, err = run(capsys, "solve", level)
        assert code == 2 and err.startswith("error:") and "cell" in err

    @pytest.mark.parametrize("kind, value", [("door", -1), ("door", 10**6)])
    def test_out_of_range_bit_id_exits_two(self, tmp_path, sample_cnf, capsys, kind, value):
        level = tmp_path / "s.level"
        run(capsys, "compile", sample_cnf, "-o", level)
        doc = json.loads(level.read_text())
        next(e for e in doc["entities"] if e["kind"] == kind)["id"] = value
        level.write_text(json.dumps(doc))
        code, out, err = run(capsys, "solve", level)
        assert code == 2 and out == "" and err.startswith("error:") and "bit-id-range" in err

    def test_port_off_the_grid_exits_two(self, tmp_path, sample_cnf, capsys):
        level = tmp_path / "s.level"
        run(capsys, "compile", sample_cnf, "-o", level)
        doc = json.loads(level.read_text())
        doc["ports"]["passage.flag_port"]["cell"] = [len(doc["tiles"][0]) + 3, 1]
        level.write_text(json.dumps(doc))
        code, out, err = run(capsys, "solve", level)
        assert code == 2 and out == "" and err.startswith("error:") and "port-cell" in err

    def test_huge_jump_rise_exits_two(self, tmp_path, sample_cnf, capsys):
        level = tmp_path / "s.level"
        run(capsys, "compile", sample_cnf, "-o", level)
        doc = json.loads(level.read_text())
        doc["physics"]["J"] = 1000000
        level.write_text(json.dumps(doc))
        code, out, err = run(capsys, "solve", level)
        assert code == 2 and out == "" and err.startswith("error:") and "physics-range" in err

    @pytest.mark.parametrize("command", ["solve", "render"])
    def test_zero_size_grid_exits_two(self, tmp_path, sample_cnf, capsys, command):
        level = tmp_path / "s.level"
        run(capsys, "compile", sample_cnf, "-o", level)
        doc = json.loads(level.read_text())
        doc["tiles"] = ["", "", ""]
        level.write_text(json.dumps(doc))
        code, out, err = run(capsys, command, level)
        assert code == 2 and out == "" and err.startswith("error:") and "grid-shape" in err

    @pytest.mark.parametrize("command", ["solve", "render", "replay"])
    def test_deeply_nested_document_exits_two(self, tmp_path, capsys, command):
        level = tmp_path / "deep.level"
        level.write_text("[" * 200_000)
        trace = tmp_path / "s.trace"
        trace.write_text("WALK R\n")
        code, out, err = run(capsys, command, level, *([trace] if command == "replay" else []))
        assert code == 2 and out == ""
        assert err.startswith("error: bad level document: ") and err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        ("verify", "--random", "--count", "-1"),
        ("verify", "--random", "--count", "0"),
        ("verify", "--exhaustive", "--nmax", "-1", "--kmax", "-1"),
        ("verify", "--random", "--jobs", "0"),
        ("verify", "--random", "--jobs", "-3"),
        ("gen", "--n", "1", "--k", "-1"),
        ("gen", "--n", "-2", "--k", "0"),
    ])
    def test_empty_or_negative_sizes_exit_two(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "" and err.startswith("error:")

    @pytest.mark.parametrize("argv", [
        ("verify", "--exhaustive", "--pspace", "--nmax", "13", "--kmax", "0"),
        ("verify", "--random", "--pspace", "--n", "13", "--k", "1", "--count", "1"),
        ("verify", "--exhaustive", "--nmax", "21", "--kmax", "0"),
        ("verify", "--random", "--n", "21", "--k", "1", "--count", "1"),
    ])
    def test_verify_above_an_oracle_bound_exits_two_before_any_item(self, capsys,
                                                                    monkeypatch, argv):
        import satplat.corpus

        monkeypatch.setattr(satplat.corpus, "corpus_items", None)
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "oracle bound exceeded" in err

    def test_trace_with_trailing_token_exits_two(self, tmp_path, sample_cnf, capsys):
        level = tmp_path / "s.level"
        trace = tmp_path / "s.trace"
        run(capsys, "compile", sample_cnf, "-o", level)
        run(capsys, "solve", level, "--trace-out", trace)
        trace.write_text(trace.read_text().replace("\n", " extra\n", 1))
        code, _, err = run(capsys, "replay", level, trace)
        assert code == 2 and "bad move text" in err

    @pytest.mark.parametrize("flag, value", [
        pytest.param("--max-states", "-1", id="--max-states"),
        pytest.param("--max-time", "-1", id="--max-time"),
        pytest.param("--max-time", "nan", id="--max-time-nan"),
    ])
    def test_negative_search_limit_exits_two(self, tmp_path, sample_cnf, capsys, flag, value):
        level = tmp_path / "s.level"
        run(capsys, "compile", sample_cnf, "-o", level)
        code, out, err = run(capsys, "solve", level, flag, value)
        assert code == 2 and out == "" and err.startswith("error:")

    def test_compile_plan_report(self, tmp_path, sample_cnf, capsys):
        level = tmp_path / "s.level"
        code, _, err = run(capsys, "compile", sample_cnf, "--plan", "-o", level)
        assert code == 0
        assert "carved cells" in err

    def test_compile_over_the_grid_bound_exits_two(self, tmp_path, capsys):
        from satplat.formula import gen_random_3cnf, write_dimacs

        cnf = tmp_path / "big.cnf"
        cnf.write_text(write_dimacs(gen_random_3cnf(128, 128, 0)))
        code, out, err = run(capsys, "compile", cnf)
        assert code == 2 and out == ""
        assert err.startswith("error: grid ") and "over the bound" in err

    @pytest.mark.parametrize("command, header", [
        ("compile", "p cnf 200000 0\n"), ("qcompile", "p cnf 500000 0\n"),
        pytest.param("compile", "p cnf 1 100000\n" + "1 0\n" * 100_000, id="compile-clauses"),
    ])
    def test_a_tiny_file_declaring_a_huge_formula_is_refused_quickly(self, tmp_path, command,
                                                                     header):
        # Refused as its stages are laid out: no gadget grid is built for
        # variables that do not fit, and nothing is listed per variable.
        path = tmp_path / "huge.cnf"
        path.write_text(header)
        limit = ("import resource, sys; resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30)); "
                 "from satplat.cli import main; sys.exit(main(sys.argv[1:]))")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        done = subprocess.run([sys.executable, "-c", limit, command, str(path)], env=env,
                              capture_output=True, text=True, timeout=10)
        assert done.returncode == 2 and done.stdout == ""
        assert done.stderr.startswith("error: grid ") and "over the bound" in done.stderr

    def test_compile_refuses_a_huge_header_before_the_clauses_are_parsed(self, tmp_path,
                                                                         capsys):
        # 100,000 clauses `1 0` (400 KB): even with empty tunnels the plan
        # is 200022 columns wide, so the header alone refuses it.
        path = tmp_path / "clauses.cnf"
        path.write_text("p cnf 1 100000\n" + "1 0\n" * 100_000)
        start = time.perf_counter()
        code, out, err = run(capsys, "compile", path)
        assert time.perf_counter() - start < 0.1
        assert code == 2 and out == ""
        assert err == "error: grid 200022x26 has 5200572 cells, over the bound of 4194304\n"

    def test_qcompile_refuses_a_huge_header_before_the_prefix_is_listed(self, tmp_path,
                                                                         capsys):
        # 500,000 implicit existentials: the header alone shows that the
        # narrowest plan is over the bound.
        path = tmp_path / "huge.qdimacs"
        path.write_text("p cnf 500000 0\n")
        start = time.perf_counter()
        code, out, err = run(capsys, "qcompile", path)
        assert time.perf_counter() - start < 0.1
        assert code == 2 and out == ""
        assert err == "error: grid 4500012x14 has 63000168 cells, over the bound of 4194304\n"


# --- fuzzing main ---------------------------------------------------------

FUZZ_VALUES = ("-1", "0", "1", "x", "")

# subcommand -> (positional arguments it takes, {flag: value pool or None})
FUZZ_COMMANDS = {
    "compile": (1, {"-o": "out", "--plan": None}),
    "qcompile": (1, {"-o": "out"}),
    "solve": (1, {"--trace-out": "out", "--stats": None,
                  "--max-states": "value", "--max-time": "value"}),
    "replay": (2, {}),
    "render": (2, {}),
    "gen": (0, {"--n": "value", "--k": "value", "--seed": "value", "-o": "out"}),
    "verify": (0, {"--exhaustive": None, "--random": None, "--pspace": None,
                   "--nmax": "value", "--kmax": "value", "--n": "value",
                   "--k": "value", "--count": "value", "--seed": "value",
                   "--jobs": "value", "--repro-dir": "out"}),
    "gadgets": (0, {"--check": None}),
    "bogus": (0, {}),
}


@pytest.fixture(scope="module")
def fuzz_files(tmp_path_factory):
    from satplat.compiler import compile_3sat
    from satplat.formula import parse_dimacs
    from satplat.level import save_level
    from satplat.sim import trace_to_text
    from satplat.solver import solve

    root = tmp_path_factory.mktemp("cli_fuzz")
    level = compile_3sat(parse_dimacs(SAMPLE_DIMACS))
    files = {
        "level": root / "valid.level",
        "trace": root / "valid.trace",
        "cnf": root / "valid.cnf",
        "json": root / "malformed.level",
        "dir": root / "a_directory",
    }
    files["level"].write_text(save_level(level))
    files["trace"].write_text(trace_to_text(solve(level).trace))
    files["cnf"].write_text(SAMPLE_DIMACS)
    files["json"].write_text('{"variant": "NP", "width": ')
    files["dir"].mkdir()
    inputs = [str(p) for p in files.values()] + [str(root / "missing.cnf")]
    outputs = [str(root / "out.txt"), str(files["dir"]), str(root / "no" / "such" / "out")]
    return inputs, outputs


@st.composite
def cli_argvs(draw, inputs, outputs):
    pools = {"value": st.sampled_from(FUZZ_VALUES), "out": st.sampled_from(outputs)}
    command = draw(st.sampled_from(sorted(FUZZ_COMMANDS)))
    arity, flags = FUZZ_COMMANDS[command]
    argv = [command]
    if command == "verify":
        # every drawn value is at most 1, so these bounds cannot be lifted
        # and --jobs never starts a worker pool
        argv += ["--nmax", "1", "--kmax", "1", "--count", "1"]
    paths = st.sampled_from(inputs)
    argv += draw(st.lists(paths, min_size=arity, max_size=arity)
                 | st.lists(paths, max_size=arity + 1))
    for flag in draw(st.lists(st.sampled_from(sorted(flags) + ["-h", "--bogus"]),
                              max_size=4)):
        argv.append(flag)
        if flags.get(flag):
            argv.append(draw(pools[flags[flag]]))
    return argv


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_main_never_raises_and_exits_0_1_or_2(fuzz_files, data):
    inputs, outputs = fuzz_files
    argv = data.draw(cli_argvs(inputs, outputs))
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    assert code in (0, 1, 2), (argv, code)
