"""Benchmark workloads: inputs drawn from a seed, the operations of one
pass, and the check applied to every operation's output.

Only the standard library is imported at module level, so that the timed
set-up (package import plus one warm-up pass) starts from a cold
interpreter. Every call into the package goes through its public API: the
``dunkl_oscillator`` namespace, ``cli.main``, or the command line.
"""

from __future__ import annotations

import math
import os
import random
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
PROBE = Path(__file__).resolve().parent / "probe.py"

WORKLOADS = ("sweep", "export", "cli-cold")

# Spinor-compatible deformations (both integer or both half-odd; the sweep
# lets IntegralityError through for anything else). All three give the same
# record count in every sweep cell and mu_x + mu_y = 2, so every seed does
# the same amount of work and the same export states are buildable.
MU_FAMILY = ((1.0, 1.0), (0.5, 1.5), (1.5, 0.5))
# (regime, omega_c / omega): w~ = +omega, w~ = -omega and w~ = 0.
REGIMES = (("w+", 0.0), ("w-", 4.0), ("critical", 2.0))
ALL_SUITES = ("kg", "angular", "ortho", "dirac", "nrlimit")
# the critical regime raises in the dirac and nrlimit suites
CRITICAL_SUITES = ("kg", "angular", "ortho")
# suites whose records do not depend on (n_max, k_max): run once per regime
SIZE_FREE_SUITES = ("angular", "ortho", "nrlimit")
# (n_max, k_max) of the sweep; the first is also the warm-up pass. ROADMAP
# aim 1 adds (8, 8), left out here: its cells take 19 s of a 21 s pass,
# which leaves one sample per cell in a run of the benchmark's length.
SWEEP_SIZES = ((2, 2), (4, 4))
# export sizes: (polar grid side, spectrum n range top, spectrum k_max)
EXPORT_WARMUP = (4, 2, 2)
EXPORT_SIZE = (64, 30, 300)

WF_HEADER = "rho,phi,re_upper,im_upper,re_lower,im_lower"
SPECTRUM_HEADER = "sector,n,branch,k,k_prime,E_plus,regime"


@dataclass(frozen=True)
class Inputs:
    seed: int
    mu_x: float
    mu_y: float
    omega: float


def make_inputs(seed: int) -> Inputs:
    """Seed 0 is the baseline mu = (1, 1), omega = 1; others draw both."""
    if seed == 0:
        return Inputs(0, 1.0, 1.0, 1.0)
    rng = random.Random(seed)
    mu_x, mu_y = rng.choice(MU_FAMILY)
    return Inputs(seed, mu_x, mu_y, round(rng.uniform(0.8, 1.25), 3))


def shuffled(ops: list, seed: int) -> list:
    out = list(ops)
    random.Random(seed).shuffle(out)
    return out


@dataclass(frozen=True)
class Outcome:
    units: int  # verification records or CSV data rows produced
    problem: str | None = None
    failed_records: int = 0  # sweep only: records with pass=false
    stdout_bytes: int = 0


@dataclass(frozen=True)
class Op:
    label: str
    run: Callable[[], object]
    check: Callable[[object], Outcome]


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


# ---------------------------------------------------------------------------
# sweep: run_suite per (regime, suite, size) cell
# ---------------------------------------------------------------------------

def expected_records(d, params, config, suite: str, n_max: int, k_max: int) -> int:
    """Records run_suite should return, enumerated here from public functions."""
    if suite == "all":
        return sum(expected_records(d, params, config, s, n_max, k_max) for s in ALL_SUITES)
    sectors = d.ALL_SECTORS
    if suite == "angular":
        return sum(len(d.modes_for_sector(s, params, 4)) for s in sectors)
    if suite == "ortho":
        return len(sectors)
    if suite == "nrlimit":
        return 2 * len(sectors)  # match + rate per sector
    modes = [(s, m) for s in sectors for m in d.modes_for_sector(s, params, n_max)]
    regime = d.classify_regime(config)
    if regime is d.Regime.CRITICAL:
        return 2 * 2 * len(modes)  # two energies, two components
    buildable = 0
    for sector, mode in modes:
        for k in range(k_max + 1):
            try:
                d.pair_radial_indices(sector, regime, k, params)
                d.energy(d.Component.UPPER, sector, mode, k, config, 1)
            except (d.InvalidPairError, d.NegativeRadicandError):
                continue
            buildable += 1
    return buildable * (2 if suite == "kg" else 1)


def check_report(expected: int, report) -> Outcome:
    """Record count, unique sorted names, finite residuals; the failing
    records counted in the emitted JSON must agree with the report."""
    checks = report.to_dict()["checks"]
    names = [c["name"] for c in checks]
    failed = sum(1 for c in checks if not c["pass"])
    problem = None
    if failed != sum(1 for r in report.records if not r.passed) or report.passed != (failed == 0):
        problem = "pass flags disagree between records and JSON"
    elif len(checks) != expected:
        problem = f"{len(checks)} records, expected {expected}"
    elif names != sorted(names) or len(set(names)) != len(names):
        problem = "record names not unique and sorted"
    elif not all(math.isfinite(c["residual"]) for c in checks):
        problem = "non-finite residual"
    return Outcome(len(checks), problem, failed)


def sweep_ops(inputs: Inputs, sizes=SWEEP_SIZES) -> list[Op]:
    import dunkl_oscillator as d

    params = d.DunklParams(inputs.mu_x, inputs.mu_y)

    def cell(regime: str, config, suite: str, n_max: int, k_max: int) -> Op:
        expected = expected_records(d, params, config, suite, n_max, k_max)
        return Op(f"{regime}/{suite}/({n_max},{k_max})",
                  partial(run_cell, params, config, suite, n_max, k_max),
                  partial(check_report, expected))

    ops = []
    for regime, ratio in REGIMES:
        config = d.OscillatorConfig(omega=inputs.omega, omega_c=ratio * inputs.omega)
        suites = CRITICAL_SUITES if regime == "critical" else ALL_SUITES
        ops += [cell(regime, config, suite, *size) for size in sizes for suite in suites
                if suite not in SIZE_FREE_SUITES or size == sizes[0]]
    # ROADMAP aim 1's own end-to-end figure: run_suite("all") at w~ > 0
    ops.append(cell("w+", d.OscillatorConfig(omega=inputs.omega), "all", *sizes[0]))
    return ops


def run_cell(params, config, suite: str, n_max: int, k_max: int):
    import dunkl_oscillator as d

    # looked up per call, so that the traced run sees the wrapped function
    return d.run_suite(params, config, suite=suite, threads=1, n_max=n_max, k_max=k_max)


# ---------------------------------------------------------------------------
# export and cli-cold: CSV output of the command-line front end
# ---------------------------------------------------------------------------

def check_csv(header: str, rows: int, float_cols: tuple[int, ...], rc: int, out: bytes,
              marker: str | None = None) -> Outcome:
    """Exit code, header, row count, field count, and finite floats; a
    float column may instead hold ``marker`` (spectrum: "unphysical")."""
    if rc != 0:
        return Outcome(0, f"exit code {rc}", stdout_bytes=len(out))
    lines = out.decode().splitlines()
    if not lines or lines[0] != header:
        return Outcome(0, "missing or wrong CSV header", stdout_bytes=len(out))
    data = lines[1:]
    if len(data) != rows:
        return Outcome(len(data), f"{len(data)} rows, expected {rows}", stdout_bytes=len(out))
    width = header.count(",") + 1
    for line in data:
        cells = line.split(",")
        if len(cells) != width:
            return Outcome(len(data), f"row with {len(cells)} fields", stdout_bytes=len(out))
        try:
            values = [float(cells[i]) for i in float_cols if cells[i] != marker]
        except ValueError:
            return Outcome(len(data), f"unparseable row {line!r}", stdout_bytes=len(out))
        if not all(math.isfinite(v) for v in values):
            return Outcome(len(data), f"non-finite value in row {line!r}", stdout_bytes=len(out))
    return Outcome(len(data), stdout_bytes=len(out))


def _common_args(inputs: Inputs, ratio: float) -> list[str]:
    return ["--mu-x", repr(inputs.mu_x), "--mu-y", repr(inputs.mu_y),
            "--omega", repr(inputs.omega), "--omega-c", repr(ratio * inputs.omega)]


def export_commands(inputs: Inputs, size=EXPORT_SIZE) -> list[tuple[str, list[str], Callable]]:
    """(label, argv, output check) per command of one export pass: a
    wavefunction grid per regime and a spectrum table per bound regime.

    Sector (-1,-1) has sigma = -(mu_x + mu_y) = -2 for the whole family, so
    n = 1, k = 1 pairs with k' = 2 at w~ > 0 and k' = 0 at w~ < 0.
    """
    grid, n_top, k_max = size
    grid_args = ["--grid-rho", str(grid), "--grid-phi", str(grid)]
    wf_check = partial(check_csv, WF_HEADER, grid * grid, (0, 1, 2, 3, 4, 5))
    cmds = []
    for regime, ratio in REGIMES[:2]:
        argv = ["wavefunction", *_common_args(inputs, ratio), "--sector=-1,-1",
                "--n", "1", "--k", "1", *grid_args]
        cmds.append((f"wavefunction/{regime}", argv, wf_check))
    argv = ["wavefunction", *_common_args(inputs, 2.0), "--n", "1", "--energy", "1.5", *grid_args]
    cmds.append(("wavefunction/critical", argv, wf_check))
    rows = (2 * n_top + 1) * (k_max + 1)  # n = 0 has one branch in sector (+1,+1)
    check = partial(check_csv, SPECTRUM_HEADER, rows, (1, 3, 5), marker="unphysical")
    for regime, ratio in REGIMES[:2]:
        argv = ["spectrum", *_common_args(inputs, ratio), "--sector", "1,1",
                "--n", f"0:{n_top}", "--k-max", str(k_max)]
        cmds.append((f"spectrum/{regime}", argv, check))
    return cmds


def capture_fd1(main, argv: list[str]) -> tuple[int, bytes]:
    """Run ``main(argv)`` with file descriptor 1 sent to a temporary file.

    The CLI binds ``out=sys.stdout`` when its functions are defined, so
    swapping ``sys.stdout`` (contextlib.redirect_stdout) captures nothing.
    """
    sys.stdout.flush()
    with tempfile.TemporaryFile(dir=OUT) as sink:
        saved = os.dup(1)
        os.dup2(sink.fileno(), 1)
        try:
            rc = main(argv)
            sys.stdout.flush()
        finally:
            os.dup2(saved, 1)
            os.close(saved)
        sink.seek(0)
        return rc, sink.read()


def export_ops(inputs: Inputs, size=EXPORT_SIZE) -> list[Op]:
    import dunkl_oscillator.cli as cli

    OUT.mkdir(exist_ok=True)

    def run(argv):
        return capture_fd1(cli.main, argv)  # looked up per call, so tracing sees it

    return [Op(label, partial(run, argv), lambda res, c=check: c(*res))
            for label, argv, check in export_commands(inputs, size)]


def cli_cold_commands(inputs: Inputs) -> list[tuple[str, list[str], Callable]]:
    """The README's spectrum and wavefunction examples with the seed's inputs.

    The bound-state example uses sector (1,-1), n = 1/2; its k is chosen
    so that the partner index is k' = 0 (README: k = 1 at mu = (1, 1)).
    """
    mu = ["--mu-x", repr(inputs.mu_x), "--mu-y", repr(inputs.mu_y), "--omega", repr(inputs.omega)]
    k = round(inputs.mu_x - inputs.mu_y + 1.0)
    grid = ["--grid-rho", "12", "--grid-phi", "16"]
    wf_check = partial(check_csv, WF_HEADER, 12 * 16, (0, 1, 2, 3, 4, 5))
    return [
        ("spectrum", ["spectrum", *mu, "--sector", "1,1", "--n", "0:2", "--k-max", "3"],
         partial(check_csv, SPECTRUM_HEADER, 5 * 4, (1, 3, 5), marker="unphysical")),
        ("wavefunction/bound", ["wavefunction", *mu, "--sector", "1,-1", "--n", "0.5",
                                "--k", str(k), *grid], wf_check),
        ("wavefunction/critical", ["wavefunction", "--omega", repr(inputs.omega), "--omega-c",
                                   repr(2.0 * inputs.omega), "--n", "1", "--energy", "1.5"], wf_check),
    ]


def run_child(cmd: list[str]) -> tuple[int, bytes]:
    proc = subprocess.run(cmd, capture_output=True, env=child_env(), cwd=ROOT, timeout=120)
    if proc.returncode != 0 and proc.stderr:
        sys.stderr.write(proc.stderr.decode(errors="replace"))
    return proc.returncode, proc.stdout


def cli_cold_ops(inputs: Inputs, spans_dir: Path | None = None) -> list[Op]:
    """One fresh interpreter per invocation; traced through probe.py when
    ``spans_dir`` is given (each invocation then writes its spans there)."""
    ops = []
    for i, (label, argv, check) in enumerate(cli_cold_commands(inputs)):
        if spans_dir is None:
            cmd = [sys.executable, "-m", "dunkl_oscillator.cli", *argv]
        else:
            cmd = [sys.executable, str(PROBE), "cli", str(spans_dir / f"{i}.npz"), *argv]
        ops.append(Op(label, partial(run_child, cmd), lambda res, c=check: c(*res)))
    return ops


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------

def warmup_ops(workload: str, inputs: Inputs) -> list[Op]:
    if workload == "sweep":
        return sweep_ops(inputs, SWEEP_SIZES[:1])
    if workload == "export":
        return export_ops(inputs, EXPORT_WARMUP)
    return cli_cold_ops(inputs)[:1]


def measure_ops(workload: str, inputs: Inputs) -> list[Op]:
    if workload == "sweep":
        ops = sweep_ops(inputs)
    elif workload == "export":
        ops = export_ops(inputs)
    else:
        ops = cli_cold_ops(inputs)
    return shuffled(ops, inputs.seed)


def timed_setup(workload: str, inputs: Inputs) -> tuple[float, float]:
    """(import seconds, set-up seconds): package import plus one warm-up pass.

    For cli-cold the set-up is one warm-up invocation and nothing is
    imported in this process.
    """
    start = time.perf_counter()
    import_s = 0.0
    if workload != "cli-cold":
        import dunkl_oscillator  # noqa: F401
        import dunkl_oscillator.cli  # noqa: F401

        import_s = time.perf_counter() - start
    for op in warmup_ops(workload, inputs):
        outcome = op.check(op.run())
        if outcome.problem:
            raise RuntimeError(f"warm-up {op.label}: {outcome.problem}")
    return import_s, time.perf_counter() - start
