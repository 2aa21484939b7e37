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
