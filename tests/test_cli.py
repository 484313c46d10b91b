"""Command-line interface: output shape, determinism, exit codes."""

import contextlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from dunkl_oscillator.cli import build_parser, main


def _run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


class TestSpectrum:
    def test_classical_table_contains_frozen_energies(self):
        code, text = _run(
            ["spectrum", "--mu-x", "0", "--mu-y", "0", "--omega", "1",
             "--sector", "1,1", "--n", "0:1", "--k-max", "1"]
        )
        assert code == 0
        lines = text.strip().splitlines()
        assert lines[0] == "sector,n,branch,k,k_prime,E_plus,regime"
        body = "\n".join(lines[1:])
        assert format(1.0, ".17g") in body          # n=0, k=0 rest state
        assert format(math.sqrt(13.0), ".17g") in body  # n=1 branch +, k=1
        assert "invalid" in body                      # k=0 has no partner

    def test_critical_regime_message(self, capsys):
        # no discrete spectrum: stdout is the empty table, the note goes to stderr
        argv = ["spectrum", "--omega", "1", "--omega-c", "2"]
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert captured.out == "sector,n,branch,k,k_prime,E_plus,regime\n"
        assert "critical" in captured.err and "free-particle" in captured.err
        assert main(argv + ["--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out) == []

    def test_negative_energy_column(self):
        code, text = _run(
            ["spectrum", "--mu-x", "0", "--mu-y", "0", "--n", "1:1",
             "--k-max", "0", "--negative-energies"]
        )
        assert code == 0
        assert "E_minus" in text.splitlines()[0]

    def test_integrality_violation_exits_2(self):
        assert main(["spectrum", "--mu-x", "0.3", "--mu-y", "1"]) == 2

    def test_json_format(self):
        code, text = _run(
            ["spectrum", "--mu-x", "1", "--mu-y", "1", "--format", "json",
             "--n", "1:1", "--k-max", "3"]
        )
        assert code == 0
        payload = json.loads(text)
        assert any(row["k_prime"] == "invalid" for row in payload)
        assert any(row["k_prime"] == "0" and row["k"] == 3 for row in payload)

    def test_rows_are_written_as_they_are_produced(self, monkeypatch):
        # Memory must stay flat in --k-max: the first data row goes out
        # before the last energy of the table is computed.
        from dunkl_oscillator import cli

        calls, writes = [], []
        energy = cli.energy

        def counting(*args):
            calls.append(args)
            return energy(*args)

        class Sink(io.StringIO):
            def write(self, text):
                writes.append(len(calls))
                return super().write(text)

        monkeypatch.setattr(cli, "energy", counting)
        for fmt in ("csv", "json"):
            calls.clear()
            writes.clear()
            sink = Sink()
            with contextlib.redirect_stdout(sink):
                assert main(["spectrum", "--n", "0:2", "--k-max", "3", "--format", fmt]) == 0
            assert len(calls) == 5 * 4
            assert writes[0] < len(calls)
        # the streamed JSON is the one json.dumps gives for the whole list
        text = sink.getvalue()
        assert text == json.dumps(json.loads(text), sort_keys=True) + "\n"

    def test_empty_table(self):
        argv = ["spectrum", "--sector=-1,-1", "--n", "0", "--k-max", "0"]
        assert _run(argv) == (0, "sector,n,branch,k,k_prime,E_plus,regime\n")
        assert _run(argv + ["--format", "json"]) == (0, "[]\n")

    def test_determinism(self):
        for argv in (
            ["spectrum", "--mu-x", "1", "--mu-y", "1", "--n", "0:2", "--k-max", "2"],
            ["verify", "--suite", "kg", "--mu-x", "1", "--mu-y", "1"],
        ):
            assert _run(argv) == _run(argv)


class TestWavefunction:
    ARGS = ["wavefunction", "--mu-x", "1", "--mu-y", "1", "--sector", "1,-1",
            "--n", "0.5", "--branch", "+", "--k", "1",
            "--grid-rho", "4", "--grid-phi", "4"]

    def test_defaults_build_a_state(self):
        # (+1,+1), n = 1, k = 1 at mu = 0 pairs with k' = 0 (k = 0 would need k' = -1)
        code, text = _run(["wavefunction"])
        assert code == 0
        assert len(text.strip().splitlines()) == 1 + 12 * 16

    def test_grid_shape_and_header(self):
        code, text = _run(self.ARGS)
        assert code == 0
        lines = text.strip().splitlines()
        assert lines[0] == "rho,phi,re_upper,im_upper,re_lower,im_lower"
        assert len(lines) == 1 + 16

    def test_values_finite(self):
        _, text = _run(self.ARGS)
        for ln in text.strip().splitlines()[1:]:
            for tok in ln.split(","):
                assert math.isfinite(float(tok))

    def test_round_trip(self):
        from dunkl_oscillator.angular_sector import AngularMode, SectorLabel
        from dunkl_oscillator.dunkl_calculus import DunklParams
        from dunkl_oscillator.solution_builder import OscillatorConfig, build_spinor

        _, text = _run(self.ARGS)
        sol = build_spinor(
            SectorLabel(1, -1),
            AngularMode(SectorLabel(1, -1), 0.5, 1, DunklParams(1.0, 1.0)),
            1,
            OscillatorConfig(omega=1.0),
            1,
        )
        for ln in text.strip().splitlines()[1:]:
            rho, phi, ru, iu, rl, il = (float(t) for t in ln.split(","))
            u = complex(sol.upper.eval_polar(rho, phi))
            lo = complex(sol.lower.eval_polar(rho, phi))
            assert u.real == pytest.approx(ru, rel=1e-12, abs=1e-15)
            assert u.imag == pytest.approx(iu, rel=1e-12, abs=1e-15)
            assert lo.real == pytest.approx(rl, rel=1e-12, abs=1e-15)
            assert lo.imag == pytest.approx(il, rel=1e-12, abs=1e-15)

    def test_grid_is_evaluated_one_rho_row_at_a_time(self, monkeypatch):
        # Memory must stay linear in the grid sides: each evaluation covers
        # one rho row, never the whole rho x phi grid.
        import dataclasses

        import numpy as np

        from dunkl_oscillator import cli
        from dunkl_oscillator.dunkl_calculus import ScalarField2D

        shapes = []
        build = cli.build_spinor

        def spy(field):
            def fn(rho, phi):
                shapes.append(np.broadcast(rho, phi).shape)
                return field.eval_polar(rho, phi)
            return ScalarField2D(fn)

        def build_spy(*args):
            sol = build(*args)
            return dataclasses.replace(sol, upper=spy(sol.upper), lower=spy(sol.lower))

        monkeypatch.setattr(cli, "build_spinor", build_spy)
        args = self.ARGS[:-4] + ["--grid-rho", "5", "--grid-phi", "7"]
        code, text = _run(args)
        assert code == 0 and len(text.splitlines()) == 1 + 35
        assert shapes == [(7,)] * 10

    def test_invalid_pair_exits_2(self):
        assert main(["wavefunction", "--mu-x", "1", "--mu-y", "1",
                     "--sector", "1,1", "--n", "1", "--k", "0"]) == 2

    def test_critical_needs_energy(self):
        assert main(["wavefunction", "--omega", "1", "--omega-c", "2", "--n", "1"]) == 2
        code = main(["wavefunction", "--omega", "1", "--omega-c", "2", "--n", "1",
                     "--energy", "1.5"])
        assert code == 0


class TestVerify:
    def test_passing_suites_on_defaults(self):
        for suite in ("kg", "angular", "ortho", "nrlimit"):
            code, text = _run(["verify", "--suite", suite])
            payload = json.loads(text)
            assert set(payload) == {"suite", "checks", "pass"}
            assert payload["pass"] is True and code == 0

    def test_dirac_suite_reports_coupling_failure(self):
        # the shared-angular closed-form pairs do not satisfy the coupled
        # first-order system; the suite reports that honestly (exit 1)
        code, text = _run(["verify", "--suite", "dirac"])
        payload = json.loads(text)
        assert code == 1 and payload["pass"] is False

    def test_unreachable_tolerance_fails(self):
        code, text = _run(["verify", "--suite", "kg", "--tol", "1e-15"])
        assert code == 1
        assert json.loads(text)["pass"] is False

    def test_unknown_suite_exits_2(self):
        assert main(["verify", "--suite", "nonsense"]) == 2

    def test_bad_precision_exits_2(self):
        assert main(["verify", "--suite", "kg", "--precision", "3"]) == 2

    def test_n_max_selects_the_sweep(self):
        code, default = _run(["verify", "--suite", "kg"])
        assert code == 0
        assert _run(["verify", "--suite", "kg", "--n-max", "2"]) == (code, default)
        _, small = _run(["verify", "--suite", "kg", "--n-max", "0"])
        assert 0 < len(json.loads(small)["checks"]) < len(json.loads(default)["checks"])

    def test_records_carry_schema(self):
        _, text = _run(["verify", "--suite", "angular"])
        payload = json.loads(text)
        rec = payload["checks"][0]
        assert set(rec) == {"name", "inputs", "residual", "tol", "pass"}


class TestNLadder:
    def test_n_zero_skipped_outside_sector_pp(self):
        code, text = _run(["spectrum", "--sector=-1,-1", "--n", "0:1", "--k-max", "0"])
        assert code == 0
        assert [ln.split(",")[1] for ln in text.splitlines()[1:]] == ["1", "1"]

    def test_mixed_sector_snaps_integer_start(self):
        code, text = _run(["spectrum", "--sector=1,-1", "--n", "0:2", "--k-max", "0"])
        assert code == 0
        assert sorted({ln.split(",")[1] for ln in text.splitlines()[1:]}) == ["0.5", "1.5"]

    def test_export_range_accepted(self):
        code, text = _run(["spectrum", "--n", "0:30", "--k-max", "300"])
        assert code == 0
        assert len(text.splitlines()) == 1 + 61 * 301


def _src_env():
    src = str(Path(__file__).resolve().parents[1] / "src")
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


def test_closed_stdout_exits_1_quietly():
    # about 1.5 MB of rows, far more than a pipe buffers, so the writer
    # meets the closed pipe while it is still writing
    proc = subprocess.Popen(
        [sys.executable, "-m", "dunkl_oscillator.cli", "spectrum", "--n", "0:30", "--k-max", "300"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_src_env(),
    )
    assert proc.stdout.readline().startswith(b"sector,n,branch")
    proc.stdout.close()
    stderr = proc.stderr.read()
    assert proc.wait(timeout=120) == 1
    assert stderr == b""


def test_spectrum_does_not_import_scipy():
    # scipy is imported lazily, and only by the Bessel evaluator: neither
    # the spectrum table nor the matrix oracle needs it
    code = (
        "import contextlib, io, sys\n"
        "from dunkl_oscillator import DunklParams, SectorLabel, matrix_oracle_lambda\n"
        "from dunkl_oscillator.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert main(['spectrum']) == 0\n"
        "assert len(matrix_oracle_lambda(SectorLabel(1, 1), DunklParams(1, 1))) == 47\n"
        "print('scipy' in sys.modules)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=_src_env(),
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


class TestArgparse:
    def test_unknown_suite_via_argparse(self):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["verify", "--suite", "wat"])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "--h", "0"],
            ["verify", "--h", "nan"],
            ["verify", "--tol", "-1"],
            ["verify", "--tol", "inf"],
            ["verify", "--n-max", "201"],
            ["verify", "--n-max", "nan"],
            ["verify", "--k-max", "201"],
            ["spectrum", "--k-max", "-1"],
            ["wavefunction", "--grid-rho", "0"],
            ["spectrum", "--sector", "2,1"],
        ],
    )
    def test_parser_rejects_out_of_range_values(self, argv, capsys):
        # each range is checked while parsing, before any physics object is built
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv)
        assert exc.value.code == 2
        assert f"argument {argv[1]}:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--suite", "kg", "--h", "0"],
        ["verify", "--suite", "kg", "--h=-1e-4"],
        ["verify", "--suite", "kg", "--h", "nan"],
        ["verify", "--suite", "kg", "--h", "inf"],
        ["verify", "--suite", "kg", "--k-max", "-1"],
        ["verify", "--suite", "kg", "--n-max", "-1"],
        ["verify", "--suite", "kg", "--n-max", "inf"],
        ["spectrum", "--k-max", "-1"],
        ["spectrum", "--n", "2:1"],
        ["spectrum", "--n", "0:inf"],
        ["spectrum", "--n", "nan"],
        ["spectrum", "--n", "0:201"],
        ["spectrum", "--n=-1:2"],
        ["spectrum", "--sector", "1,1", "--n", "1.5", "--mu-x", "1", "--mu-y", "1", "--k-max", "0"],
        ["spectrum", "--sector=1,-1", "--n", "0.7:2"],
        ["wavefunction", "--sector=-1,-1", "--n", "0"],
        ["wavefunction", "--k", "1", "--grid-rho", "0"],
        ["wavefunction", "--k", "1", "--grid-phi", "0"],
        ["verify", "--threads", "2"],
        ["spectrum", "--omega", "nan", "--n", "0", "--k-max", "0"],
        ["spectrum", "--omega", "inf"],
        ["spectrum", "--omega-c", "nan"],
        ["wavefunction", "--omega", "1", "--omega-c", "2", "--n", "1", "--energy", "nan",
         "--grid-rho", "2", "--grid-phi", "2"],
        ["wavefunction", "--omega", "1", "--omega-c", "2", "--n", "1", "--energy", "inf",
         "--grid-rho", "2", "--grid-phi", "2"],
        ["verify", "--suite", "kg", "--tol", "nan"],
        ["verify", "--suite", "kg", "--tol=-1"],
        ["verify", "--suite", "kg", "--n-max", "201"],
        ["verify", "--suite", "kg", "--n-max", "1e9"],
        ["verify", "--suite", "kg", "--n-max", "nan"],
        ["wavefunction", "--k", "1", "--format", "json"],
        ["verify", "--format", "csv"],
        ["spectrum", "--tol", "-5"],
        ["spectrum", "--precision", "5"],
        ["wavefunction", "--k", "1", "--precision", "18"],
        ["verify", "--suite", "kg", "--n-max", "0", "--k-max", "201"],
    ],
)
def test_invalid_input_exits_2(argv, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.strip()
