"""The differential check `scripts/differential.py`: its seeded corpus is
the same for the same seed, its generator imports nothing from the
package, and its one-tree and two-tree modes pass on this tree."""

import subprocess
import sys
from pathlib import Path

import astable

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "differential.py"
SRC = str(Path(astable.__file__).resolve().parents[1])


def _corpus(seed: int, count: int) -> str:
    # drawn in a fresh interpreter, which must not load the package
    code = (
        f"import sys; sys.path.insert(0, {str(SCRIPT.parent)!r}); import differential, json; "
        f"print(json.dumps(differential.corpus({seed}, {count}))); "
        "sys.exit('the generator loaded astable' if 'astable' in sys.modules else 0)"
    )
    done = subprocess.run([sys.executable, "-I", "-c", code], capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    return done.stdout


def _differential(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(SCRIPT), *args], capture_output=True, text=True, timeout=120)


def test_the_same_seed_draws_the_same_corpus():
    first = _corpus(1, 40)
    assert first == _corpus(1, 40)
    assert first != _corpus(2, 40)
    assert first.count('"program"') == 40


def test_one_tree_mode_passes():
    done = _differential(SRC, "--seed", "1", "--count", "10")
    assert done.returncode == 0, done.stdout + done.stderr
    lines = done.stdout.splitlines()
    assert [line.split()[0] for line in lines[:3]] == ["solve", "split-solve", "check-definition"]
    assert lines[-1].startswith("10 cases, seed 1: solve and split-solve agree on the ")
    assert lines[-1].endswith("where both exit 0; no traceback")


def test_two_tree_mode_prints_one_digest_per_command_for_equal_trees():
    done = _differential(SRC, SRC, "--seed", "7", "--count", "10")
    assert done.returncode == 0, done.stdout + done.stderr
    lines = done.stdout.splitlines()
    assert [len(line.split()) for line in lines[:3]] == [2, 2, 2]
    assert lines[-1] == "10 cases, seed 7: every command prints the same bytes in both trees"


def _script():
    sys.path.insert(0, str(SCRIPT.parent))
    try:
        import differential
    finally:
        sys.path.remove(str(SCRIPT.parent))
    return differential


def test_oracle_reads_programs_and_flags_itself():
    differential = _script()
    ground = {"program": "not not x_1 -> x_1.\nnot x_1 -> x_1.\n", "first_order": None}
    assert differential.oracle(ground, ["solve", "prog.lp", "--max-atoms", "3"]) == (1, "{x_1}\n")
    # with x_1 extensional both interpretations are tried, and only {x_1} is a model
    argv = ["solve", "prog.lp", "--max-atoms", "3", "--sigma", "s", "--intensional-none"]
    assert differential.oracle(ground, argv) == (2, "{s,x_1}\n{x_1}\n")
    # a grounded exists is a disjunction; the signature is every atom of p over the domain
    first_order = {"program": "", "first_order": "#domain a, b.\nexists X (p(X)).\nforall X (p(X) -> q(X)).\n"}
    argv = ["solve", "prog.fo", "--max-atoms", "3", "--intensional-pred", "p,q"]
    assert differential.oracle(first_order, argv) == (4, "{p(a),q(a)}\n{p(b),q(b)}\n")
    assert differential.oracle(first_order, [*argv[:-1], "p,r"]) == (4, None)


def test_oracle_agrees_on_ten_programs_and_reports_a_planted_line(capsys):
    differential = _script()
    cases = differential.corpus(1, 10)
    results = differential._run(SRC, cases)
    assert differential.check_one_tree(cases, results, 1) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("oracle: the ") and lines[-1].startswith("10 cases, seed 1: ")
    k = next(k for k, got in enumerate(results) if got["split-solve"][0] == 0)
    results[k]["split-solve"][1] += "{zz}\n"
    assert differential.check_one_tree(cases, results, 1) == 1
    shown = capsys.readouterr().out
    assert shown.startswith(f"case {k}: astable split-solve ")
    assert "--- oracle, " in shown and "{zz}\n--- split-solve stderr" in shown


def test_definition_oracle_pairs_the_models_itself():
    differential = _script()
    # d is defined by x_1 over the choice of x_1: two models, each paired
    # with its projection
    case = {
        "program": "x_1 | not x_1.\n",
        "module": "x_1 -> d0.\n",
        "argv": {"check-definition": ["check-definition", "prog.lp", "def.lp", "--defined", "d0", "--max-atoms", "5"]},
    }
    assert differential.definition_oracle(case) == (
        2, "definition for 1 atoms: conservative (2 stable models)\n{} -> {}\n{d0,x_1} -> {x_1}\n"
    )
    # d0 from not d0 is no conservative extension: the base model {} has none
    assert differential.definition_oracle({**case, "module": "not d0 -> d0.\n"}) == (2, None)


def test_oracle_reports_a_planted_pair_line(capsys):
    differential = _script()
    cases = differential.corpus(1, 10)
    results = differential._run(SRC, cases)
    assert differential.check_one_tree(cases, results, 1) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[1].startswith("oracle: the ") and "runs of check-definition that exit 0 print its pairs" in lines[1]
    k = next(k for k, got in enumerate(results) if got["check-definition"][0] == 0)
    out = results[k]["check-definition"][1]
    results[k]["check-definition"][1] = out.replace(" -> {", " -> {zz,", 1)
    assert results[k]["check-definition"][1] != out
    assert differential.check_one_tree(cases, results, 1) == 1
    shown = capsys.readouterr().out
    assert shown.startswith(f"case {k}: astable check-definition ")
    assert "--- oracle, " in shown and " -> {zz," in shown
