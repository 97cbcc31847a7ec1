import json

import pytest

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
        assert "expanded" in err
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

    def test_qcompile_and_render(self, tmp_path, capsys):
        q = tmp_path / "q.qdimacs"
        q.write_text("p cnf 1 1\ne 1 0\n1 0\n")
        level = tmp_path / "q.level"
        assert run(capsys, "qcompile", q, "-o", level)[0] == 0
        code, out, _ = run(capsys, "render", level)
        assert code == 0
        doc = json.loads(level.read_text())
        lines = out.rstrip("\n").splitlines()
        assert len(lines) == doc["height"]
        assert all(len(l) == doc["width"] for l in lines)
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

    def test_gadgets_catalog_and_check(self, capsys):
        code, out, err = run(capsys, "gadgets", "--check")
        assert code == 0
        assert "crossover" in out
        assert "all gadget contracts hold" in err


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

    def test_top_flag_compile(self, tmp_path, sample_cnf, capsys):
        level = tmp_path / "tf.level"
        assert run(capsys, "compile", sample_cnf, "--top-flag", "-o", level)[0] == 0
        code, _, _ = run(capsys, "solve", level)
        assert code == 0

    def test_compile_plan_report(self, tmp_path, sample_cnf, capsys):
        level = tmp_path / "s.level"
        code, _, err = run(capsys, "compile", sample_cnf, "--plan", "-o", level)
        assert code == 0
        assert "crossings" in err
