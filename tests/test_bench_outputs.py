"""Every command of one benchmark pass prints exactly what the benchmark's
own oracles expect.  `perfbench/workloads.py` is loaded by path, as
`test_tracer.py` loads `spans.py`, so a speedup that changes a byte of
output fails here, not only in a benchmark run."""

import importlib.util
import sys
from pathlib import Path

import pytest

from astable.cli import main

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def _load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclass looks its module up there
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("workload", ["enumerate", "modular", "many_small"])
def test_one_pass_matches_the_benchmark_oracles(workload, tmp_path, capsys):
    workloads = _load_workloads()
    (commands,) = workloads.build(workload, 7, tmp_path, 1)
    assert commands
    for cmd in commands:
        code = main(list(cmd.argv))
        out, err = capsys.readouterr()
        assert cmd.check(code, out, err) is None, cmd.label
