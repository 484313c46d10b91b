"""Every command of the benchmark's export workload passes its own output check.

The export workload (perfbench/workloads.py) runs wavefunction grids and
spectrum tables through ``cli.main`` and checks each output (exit code,
CSV header, row and field counts, finite values). This runs the same
commands and checks in-process, with stdout captured by pytest, so an
output the benchmark would refuse fails here first.
"""

import sys
from pathlib import Path

import pytest

from dunkl_oscillator import cli

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
workloads = pytest.importorskip("workloads")


@pytest.mark.parametrize("size", ["EXPORT_WARMUP", "EXPORT_SIZE"])
@pytest.mark.parametrize("seed", [0, 7])
def test_export_commands_pass_their_checks(seed, size, capsysbinary):
    commands = workloads.export_commands(workloads.make_inputs(seed), getattr(workloads, size))
    assert commands
    for label, argv, check in commands:
        code = cli.main(argv)
        outcome = check(code, capsysbinary.readouterr().out)
        assert outcome.problem is None, (label, outcome.problem)
