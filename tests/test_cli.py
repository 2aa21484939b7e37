import json
import time
import tracemalloc

import pytest

from astable.cli import main

GUARD_LP = "% q holds when every p(t) fails\nAnd{ not p(a); not p(b) } -> q.\n"
GUARD_FO = "#domain a, b.\nforall X (not p(X)) -> q.\n"


@pytest.fixture
def guard_lp(tmp_path):
    path = tmp_path / "guard.lp"
    path.write_text(GUARD_LP)
    return str(path)


@pytest.fixture
def guard_fo(tmp_path):
    path = tmp_path / "guard.fo"
    path.write_text(GUARD_FO)
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestSolve:
    def test_all_intensional(self, capsys, guard_lp):
        code, out, _ = run(capsys, "solve", guard_lp, "--intensional-all")
        assert code == 0
        assert out == "{q}\n"

    def test_intensional_q_four_lines(self, capsys, guard_lp):
        code, out, _ = run(capsys, "solve", guard_lp, "--intensional", "q")
        assert code == 0
        assert out == "{p(a)}\n{p(a),p(b)}\n{p(b)}\n{q}\n"

    def test_intensional_none_lists_classical_models(self, capsys, guard_lp):
        code, out, _ = run(capsys, "solve", guard_lp, "--intensional-none")
        assert code == 0
        assert len(out.splitlines()) == 7  # all 2^3 interpretations but {}

    def test_default_is_all_intensional(self, capsys, guard_lp):
        code, out, _ = run(capsys, "solve", guard_lp)
        assert out == "{q}\n"

    def test_json_lines(self, capsys, guard_lp):
        code, out, _ = run(capsys, "solve", guard_lp, "--intensional", "q", "--json")
        got = [json.loads(line) for line in out.splitlines()]
        assert got[0] == {"atoms": ["p(a)"]}
        assert got[-1] == {"atoms": ["q"]}

    def test_fo_input_with_intensional_pred(self, capsys, guard_fo):
        code, out, _ = run(capsys, "solve", guard_fo, "--intensional-pred", "q")
        assert code == 0
        assert out == "{p(a)}\n{p(a),p(b)}\n{p(b)}\n{q}\n"

    def test_fo_input_with_ground_intensional_atoms(self, capsys, guard_fo):
        code, out, _ = run(capsys, "solve", guard_fo, "--intensional", "q")
        assert code == 0
        assert out == "{p(a)}\n{p(a),p(b)}\n{p(b)}\n{q}\n"

    def test_sigma_adds_extensional_atoms(self, capsys, guard_lp):
        code, out, _ = run(capsys, "solve", guard_lp, "--intensional", "q", "--sigma", "r")
        assert code == 0
        assert "{p(a),r}" in out.splitlines()

    def test_cap_exceeded_is_exit_two(self, capsys, tmp_path):
        path = tmp_path / "wide.lp"
        path.write_text(" & ".join(f"x{i}" for i in range(25)) + ".\n")
        code, _, err = run(capsys, "solve", str(path))
        assert code == 2
        assert "cap" in err

    def test_missing_file_is_exit_one(self, capsys):
        code, _, err = run(capsys, "solve", "/nonexistent/prog.lp")
        assert code == 1

    def test_parse_error_is_exit_one(self, capsys, tmp_path):
        path = tmp_path / "bad.lp"
        path.write_text("p ->.\n")
        code, _, err = run(capsys, "solve", str(path))
        assert code == 1
        assert "parse error" in err

    def test_pred_flag_requires_fo_input(self, capsys, guard_lp):
        code, _, err = run(capsys, "solve", guard_lp, "--intensional-pred", "q")
        assert code == 1


class TestParseGround:
    def test_parse_prints_canonical_program(self, capsys, guard_lp):
        code, out, _ = run(capsys, "parse", guard_lp)
        assert code == 0
        assert out == "not p(a) & not p(b) -> q.\n"

    def test_parse_is_idempotent(self, capsys, guard_lp, tmp_path):
        _, once, _ = run(capsys, "parse", guard_lp)
        again = tmp_path / "canon.lp"
        again.write_text(once)
        _, twice, _ = run(capsys, "parse", str(again))
        assert once == twice

    def test_ground_matches_hand_grounding(self, capsys, guard_fo):
        code, out, _ = run(capsys, "ground", guard_fo)
        assert code == 0
        assert out == "not p(a) & not p(b) -> q.\n"

    def test_ground_then_solve_pipeline(self, capsys, guard_fo, tmp_path):
        _, grounded, _ = run(capsys, "ground", guard_fo)
        lp = tmp_path / "grounded.lp"
        lp.write_text(grounded)
        code, out, _ = run(capsys, "solve", str(lp), "--intensional-all")
        assert out == "{q}\n"


class TestGraph:
    def test_dot_output(self, capsys, guard_lp):
        code, out, _ = run(
            capsys, "graph", guard_lp, "--intensional", "q,p(a),p(b)", "--dot"
        )
        assert code == 0
        assert out.startswith("digraph dg {\n")
        assert out.count('";') + out.count('box];') == 3  # three vertices
        assert "->" not in out.replace("digraph", "")

    def test_part1_highlighting(self, capsys, guard_lp):
        _, out, _ = run(
            capsys, "graph", guard_lp, "--intensional", "q,p(a)", "--dot",
            "--part1", "q",
        )
        assert '"q" [shape=box];' in out

    def test_text_listing(self, capsys, guard_lp):
        _, out, _ = run(capsys, "graph", guard_lp, "--intensional", "q")
        assert out == "vertices: q\nedges: (none)\n"


class TestSplitSolve:
    def test_matches_solve(self, capsys, tmp_path):
        path = tmp_path / "chain.lp"
        path.write_text("p1 -> p0.\np2 -> p1.\np2.\n")
        _, direct, _ = run(capsys, "solve", str(path))
        _, split, _ = run(capsys, "split-solve", str(path))
        assert direct == split == "{p0,p1,p2}\n"

    def test_lemma_mode_with_parts(self, capsys, tmp_path):
        path = tmp_path / "guard_fact.lp"
        path.write_text("And{ not p(a) } -> q.\np(a).\n")
        code, out, _ = run(
            capsys, "split-solve", str(path), "--part1", "q", "--part2", "p(a)"
        )
        assert code == 0
        assert out == "{p(a)}\n"

    def test_lemma_mode_precondition_violation_exit_two(self, capsys, tmp_path):
        path = tmp_path / "cycle.lp"
        path.write_text("p -> q.\nq -> p.\n")
        code, _, err = run(
            capsys, "split-solve", str(path), "--part1", "p", "--part2", "q"
        )
        assert code == 2
        assert "strongly connected component" in err

    def test_fallback_warns_but_answers(self, capsys, tmp_path):
        path = tmp_path / "even.lp"
        path.write_text("not q -> p.\nnot p -> q.\n")
        code, out, err = run(capsys, "split-solve", str(path))
        assert code == 0
        assert out == "{p}\n{q}\n"
        assert "falling back" in err

    def test_long_positive_chain(self, capsys, tmp_path):
        # every block has width 1, but the dependency path is 1,500 deep
        names = [f"v{i:05d}" for i in range(1500)]
        path = tmp_path / "long_chain.lp"
        path.write_text(
            "".join(f"{names[i + 1]} -> {names[i]}.\n" for i in range(1499))
            + f"{names[-1]}.\n"
        )
        code, out, err = run(capsys, "split-solve", str(path))
        assert code == 0
        assert out == "{" + ",".join(names) + "}\n"
        assert err == ""

    def test_five_thousand_atom_positive_chain(self, capsys, tmp_path):
        names = [f"v{i:05d}" for i in range(5000)]
        path = tmp_path / "long_chain.lp"
        path.write_text(
            "".join(f"{names[i + 1]} -> {names[i]}.\n" for i in range(4999))
            + f"{names[-1]}.\n"
        )
        code, out, err = run(capsys, "split-solve", str(path))
        assert (code, err) == (0, "")
        assert out == "{" + ",".join(names) + "}\n"

    def test_frontier_past_the_cap_exits_two(self, capsys, tmp_path):
        path = tmp_path / "choices18.lp"
        path.write_text("".join(f"c{i:02d} | not c{i:02d}.\n" for i in range(18)))
        t0 = time.perf_counter()
        code, out, err = run(capsys, "split-solve", str(path), "--max-atoms", "16")
        assert time.perf_counter() - t0 < 5.0
        assert (code, out) == (2, "")
        assert err.startswith("error: modular frontier of") and err.count("\n") == 1


class TestMemory:
    @pytest.mark.parametrize("command", ["solve", "split-solve"])
    def test_twelve_choices_peak_under_two_megabytes(self, capsys, tmp_path, command):
        # 4,096 models, each held once as its sorted atom tuple on the way out
        path = tmp_path / "choices12.lp"
        path.write_text("".join(f"c{i} | not c{i}.\n" for i in range(12)))
        tracemalloc.start()
        try:
            code = main([command, str(path)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert len(capsys.readouterr().out.splitlines()) == 4096
        assert peak < 2_000_000


class TestCheckDefinition:
    def test_conservative_definition(self, capsys, tmp_path):
        base = tmp_path / "base.lp"
        base.write_text("p(a,b).\n")
        module = tmp_path / "tc.lp"
        module.write_text(
            "p(a,b) -> q(a,b).\n"
            "q(a,b) & q(b,b) -> q(a,b).\n"
        )
        code, out, _ = run(
            capsys, "check-definition", str(base), str(module),
            "--defined", "q(a,b),q(b,b)",
        )
        assert code == 0
        assert "conservative" in out
        assert "{p(a,b),q(a,b)} -> {p(a,b)}" in out

    def test_rejection_is_exit_two(self, capsys, tmp_path):
        base = tmp_path / "base.lp"
        base.write_text("p.\n")
        module = tmp_path / "bad.lp"
        module.write_text("not q -> q.\n")
        code, _, err = run(
            capsys, "check-definition", str(base), str(module), "--defined", "q"
        )
        assert code == 2
        assert "not a definition" in err


class TestVerifyCommand:
    def test_green_suite_exit_zero(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "lemma1", "--iters", "30", "--seed", "5")
        assert code == 0
        assert "30 passed, 0 failed" in out

    def test_unsound_finds_counterexample_exit_three(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--suite", "split_lemma", "--iters", "150",
            "--seed", "5", "--unsound",
        )
        assert code == 3
        assert "counterexample" in out

    def test_env_seed_default(self, capsys, monkeypatch):
        monkeypatch.setenv("ASTABLE_SEED", "99")
        code, out1, _ = run(capsys, "verify", "--suite", "lemma1", "--iters", "20")
        assert code == 0
        monkeypatch.setenv("ASTABLE_SEED", "99")
        _, out2, _ = run(capsys, "verify", "--suite", "lemma1", "--iters", "20")
        assert out1 == out2

    def test_unknown_suite_usage_error(self, capsys):
        code = main(["verify", "--suite", "nope"])
        assert code == 1


class TestRemovedOptions:
    @pytest.mark.parametrize(
        "command, removed",
        [
            (["solve", "FILE"], ["--workers", "2"]),
            (["split-solve", "FILE"], ["--workers", "2"]),
            (["check-definition", "FILE", "FILE", "--defined", "q"], ["--workers", "2"]),
            (["bench"], ["--workers", "2"]),
            (["graph", "FILE"], ["--json"]),
            (["graph", "FILE"], ["--max-atoms", "3"]),
            (["graph", "FILE"], ["--sigma", "r"]),
        ],
    )
    def test_is_one_usage_error(self, capsys, guard_lp, command, removed):
        argv = [guard_lp if a == "FILE" else a for a in command + removed]
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err.startswith("usage: astable ")
        assert "Traceback" not in err
        errors = [line for line in err.splitlines() if "error:" in line]
        assert errors == [f"astable: error: unrecognized arguments: {' '.join(removed)}"]


class TestConsoleScript:
    def test_output_identical_across_processes(self, guard_lp):
        import os
        import subprocess
        import sys
        from pathlib import Path

        import astable

        # the child imports the same package as this process
        env = {**os.environ, "PYTHONPATH": str(Path(astable.__file__).resolve().parents[1])}
        cmd = [sys.executable, "-m", "astable.cli", "solve", guard_lp, "--intensional", "q"]
        first = subprocess.run(cmd, capture_output=True, text=True, env=env)
        second = subprocess.run(cmd, capture_output=True, text=True, env=env)
        assert first.returncode == second.returncode == 0
        assert first.stdout == second.stdout == "{p(a)}\n{p(a),p(b)}\n{p(b)}\n{q}\n"


class TestBenchCommand:
    def test_csv_to_file(self, capsys, tmp_path):
        out_file = tmp_path / "bench.csv"
        code, _, _ = run(capsys, "bench", "--out", str(out_file))
        assert code == 0
        lines = out_file.read_text().strip().splitlines()
        assert lines[0] == "instance,atoms,blocks,naive_micros,modular_micros,models"
        assert any(line.startswith("chain8x5,40,8,,") for line in lines)
