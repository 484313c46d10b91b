"""Command-line interface: output shape, determinism, exit codes."""

import argparse
import contextlib
import io
import json
import math
import os
import re
import shlex
import subprocess
import sys
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from dunkl_oscillator.cli import build_parser, main
from dunkl_oscillator.dunkl_calculus import DunklParams
from dunkl_oscillator.solution_builder import OscillatorConfig
from dunkl_oscillator.verification import SUITE_NAMES, GridSpec


def _run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


class _Discard(io.TextIOBase):
    """A stdout that counts the lines written to it and keeps none."""

    rows = 0

    def write(self, text):
        self.rows += text.count("\n")
        return len(text)


def _cell_bits(text) -> bytes:
    """The cells of a wavefunction CSV, parsed, as the bytes of a float array."""
    return np.array([[float(t) for t in ln.split(",")] for ln in text.splitlines()[1:]]).tobytes()


def _grid_bits(sol, grid: GridSpec, config: OscillatorConfig) -> bytes:
    """(rho, phi, re/im upper, re/im lower) of each grid point in CSV order,
    each component evaluated once on the whole grid (the radius column
    against the angle row, as verify evaluates it), as bytes."""
    rho, phi = grid.radii(config.length_scale)[:, None], grid.angles()[None, :]
    upper, lower = sol.upper.eval_polar(rho, phi), sol.lower.eval_polar(rho, phi)
    cells = (*np.broadcast_arrays(rho, phi), upper.real, upper.imag, lower.real, lower.imag)
    return np.stack(cells, axis=-1).tobytes()


def _strict_json(text):
    """``text`` as JSON, with NaN and Infinity rejected, as a strict parser does."""
    def reject(constant):
        raise ValueError(f"{constant} is not JSON")
    return json.loads(text, parse_constant=reject)


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

    def test_a_tiny_frequency_is_bound(self, capsys):
        # a spectrum needs no length scale: at |w~| = 1e-320, q underflows and every energy is m c^2
        assert main(["spectrum", "--omega", "1e-320", "--n", "1:1", "--branch", "+", "--k-max", "1"]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert captured.out.splitlines()[1:] == ["+1+1,1,+,0,invalid,1,positive", "+1+1,1,+,1,0,1,positive"]

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

    def test_every_energy_is_resolved_once_before_the_first_write(self, monkeypatch):
        # The energies are one column per mode and block of k. Before the
        # first write each mode's first block is computed and kept, and its
        # last k resolved, which settles every energy; the write pass
        # computes each later block once, so memory stays flat in --k-max
        # and the first byte does not wait on the table's length.
        from dunkl_oscillator import cli

        calls, writes = [], []
        energy_column = cli.energy_column

        def counting(*args):
            calls.append(args)
            return energy_column(*args)

        class Sink(io.StringIO):
            def write(self, text):
                writes.append(len(calls))
                return super().write(text)

        monkeypatch.setattr(cli, "energy_column", counting)
        for fmt in ("csv", "json"):
            calls.clear()
            writes.clear()
            sink = Sink()
            with contextlib.redirect_stdout(sink):
                assert main(["spectrum", "--n", "0:2", "--k-max", "3", "--format", fmt]) == 0
            assert len(calls) == 5  # one column of k = 0..3 per mode
            assert [list(args[2]) for args in calls] == [[0, 1, 2, 3]] * 5
            assert writes[0] == len(calls)
        # the streamed JSON is the one json.dumps gives for the whole list
        text = sink.getvalue()
        assert text == json.dumps(json.loads(text), sort_keys=True) + "\n"
        argv = ["spectrum", "--n", "1", "--k-max", "19"]
        whole = _run(argv)
        monkeypatch.setattr(cli, "_K_BLOCK", 4)
        calls.clear()
        writes.clear()
        with contextlib.redirect_stdout(Sink()) as sink:
            assert main(argv) == 0
        assert (0, sink.getvalue()) == whole
        blocks = [[lo, lo + 4] for lo in range(0, 20, 4)]  # two modes of five blocks
        resolve = [blocks[0], [19, 20]] * 2  # each mode's first block and its last k
        assert [[args[2][0], args[2][-1] + 1] for args in calls] == resolve + blocks[1:] * 2
        assert writes[0] == len(resolve)  # then the first block goes out

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_an_unresolved_energy_leaves_stdout_empty(self, fmt):
        # n = 1, branch + resolves at --omega 1e15 but branch - does not: the
        # error comes before the first row of the table
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr):
            code, out = _run(["spectrum", "--omega", "1e15", "--n", "1:2", "--k-max", "3", "--format", fmt])
        assert (code, out) == (2, "")
        lines = stderr.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ") and "n=1, b=-1" in lines[0]

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

    def test_a_zero_lower_amplitude_prints_plain_zeros(self):
        # at |w~| = 1e-20 q s rounds away against 1, so E = m c^2 and the
        # lower amplitude is 0: the component is a zero field, whose cells
        # read 0, where 0 times a negative profile would print -0
        code, text = _run(["wavefunction", "--omega", "1e-20"])
        assert code == 0
        lines = text.splitlines()[1:]
        assert len(lines) == 12 * 16
        assert all(line.split(",")[4:] == ["0", "0"] for line in lines)
        assert float(lines[0].split(",")[2]) != 0.0

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
        # 17 digits print each cell exactly: the cells parse back to the
        # array evaluation of the grid, the one that verify checks
        from dunkl_oscillator.angular_sector import AngularMode, SectorLabel
        from dunkl_oscillator.dunkl_calculus import DunklParams
        from dunkl_oscillator.solution_builder import build_spinor

        _, text = _run(self.ARGS)
        config = OscillatorConfig(omega=1.0)
        sol = build_spinor(AngularMode(SectorLabel(1, -1), 0.5, 1, DunklParams(1.0, 1.0)), 1, config)
        assert _cell_bits(text) == _grid_bits(sol, GridSpec(4, 4), config)

    def _spy_shapes(self, monkeypatch):
        """Record (component, rho, phi) of every field evaluation."""
        import dataclasses

        from dunkl_oscillator import cli
        from dunkl_oscillator.dunkl_calculus import ScalarField2D

        calls = []
        build = cli.build_spinor

        def spy(field, name):
            def fn(rho, phi):
                calls.append((name, np.array(rho), np.array(phi)))
                return field.eval_polar(rho, phi)
            return ScalarField2D(fn)

        def build_spy(*args):
            sol = build(*args)
            return dataclasses.replace(sol, rows=(spy(sol.upper, "upper"), spy(sol.lower, "lower")))

        monkeypatch.setattr(cli, "build_spinor", build_spy)
        return calls

    @pytest.mark.parametrize("block, heights", [(21, [3, 3, 3, 1]), (14, [2] * 5), (6, [1] * 10), (4096, [10])])
    def test_grid_is_evaluated_in_blocks_of_whole_rho_rows(self, monkeypatch, block, heights):
        # Memory must stay linear in the grid sides: each evaluation is a
        # block of whole rho rows (a column of radii against the whole phi
        # row) of at most _GRID_BLOCK points, or one row where a row alone is
        # longer, and each component evaluates each rho row once.
        from dunkl_oscillator import cli

        calls = self._spy_shapes(monkeypatch)
        monkeypatch.setattr(cli, "_GRID_BLOCK", block)
        args = self.ARGS[:-4] + ["--grid-rho", "10", "--grid-phi", "7"]
        code, text = _run(args)
        assert code == 0 and len(text.splitlines()) == 1 + 70
        config = OscillatorConfig(omega=1.0)
        rho, phi = GridSpec(10, 7).radii(config.length_scale), GridSpec(10, 7).angles()
        for name in ("upper", "lower"):
            mine = [(r, f) for kind, r, f in calls if kind == name]
            assert [r.shape for r, _ in mine] == [(h, 1) for h in heights]
            assert all(f.shape == (1, 7) and np.array_equal(f[0], phi) for _, f in mine)
            assert np.array_equal(np.concatenate([r[:, 0] for r, _ in mine]), rho)
            assert all(r.size * 7 <= max(block, 7) for r, _ in mine)

    def test_a_grid_of_the_block_size_is_one_evaluation(self, monkeypatch):
        from dunkl_oscillator import cli

        calls = self._spy_shapes(monkeypatch)
        assert cli._GRID_BLOCK == 64 * 64
        code, _ = _run(self.ARGS[:-4] + ["--grid-rho", "64", "--grid-phi", "64"])
        assert code == 0
        assert [(kind, r.shape, f.shape) for kind, r, f in calls] == [
            ("upper", (64, 1), (1, 64)), ("lower", (64, 1), (1, 64))]

    def test_memory_is_flat_in_grid_rho(self):
        # one block of at most _GRID_BLOCK points is alive at a time: the
        # peak of a 1024-row grid (16 blocks, about 7 MB of text) is that of
        # a 128-row one
        sink_rows, peaks = [], []
        for rows in (128, 1024):
            sink = _Discard()
            tracemalloc.start()
            try:
                with contextlib.redirect_stdout(sink):
                    assert main(self.ARGS[:-4] + ["--grid-rho", str(rows), "--grid-phi", "64"]) == 0
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            sink_rows.append(sink.rows)
        assert sink_rows == [1 + 128 * 64, 1 + 1024 * 64]
        assert peaks[1] < 2 * 2**20
        assert peaks[1] < 1.5 * peaks[0]

    @pytest.mark.parametrize("argv", [["--n", "100"], ["--n", "150"], ["--n", "200"],
                                      ["--sector=1,-1", "--n", "199.5"]])
    def test_large_n_exports_or_exits_2(self, argv, capsys):
        # the radial norm of these states overflows a double; the amplitude
        # is formed in log space, and one below the double range exits 2
        code = main(["wavefunction", *argv, "--grid-rho", "3", "--grid-phi", "2"])
        captured = capsys.readouterr()
        assert code in (0, 2)
        assert "Traceback" not in captured.err
        if code == 2:
            assert captured.out == "" and captured.err.startswith("error: ")
        else:
            values = [float(t) for ln in captured.out.splitlines()[1:] for t in ln.split(",")]
            assert all(math.isfinite(v) for v in values) and any(values[2:6] + values[-4:])

    def test_large_n_cut_off_does_not_depend_on_the_units(self, capsys):
        # the radial factor is evaluated in rho / length scale, so only the
        # state decides whether its constant fits a double
        for omega in ("0.001", "1", "1000"):
            code = main(["wavefunction", "--n", "100", "--omega", omega, "--grid-rho", "3", "--grid-phi", "2"])
            out = capsys.readouterr().out
            values = [float(t) for ln in out.splitlines()[1:] for t in ln.split(",")]
            assert code == 0 and values and all(math.isfinite(v) for v in values), omega
            assert main(["wavefunction", "--n", "150", "--omega", omega]) == 2
            assert capsys.readouterr().out == ""

    def test_zero_lower_component_is_written_as_zeros(self):
        # at omega = 1e-17, E rounds to m c^2, so the lower amplitude is 0
        code, text = _run(["wavefunction", "--omega", "1e-17", "--grid-rho", "2", "--grid-phi", "3"])
        assert code == 0
        rows = [[float(t) for t in ln.split(",")] for ln in text.strip().splitlines()[1:]]
        assert len(rows) == 6
        assert all(row[4:] == [0.0, 0.0] and any(row[2:4]) for row in rows)

    def test_invalid_pair_exits_2(self):
        assert main(["wavefunction", "--mu-x", "1", "--mu-y", "1",
                     "--sector", "1,1", "--n", "1", "--k", "0"]) == 2

    def test_a_length_scale_past_the_largest_double_exits_2(self, capsys):
        # the grid's radii are length scales, and 1 / sqrt(1e-313) is past the largest double
        assert main(["wavefunction", "--omega", "1e-313"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "error: the length scale sqrt(hbar / (m |w~|)) of |w~| = 1e-313 is not a finite double"]

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

    def test_nrlimit_passes_at_small_and_huge_frequencies(self):
        # the check runs in units of |w~|, so no light speed squared overflows
        for argv in (["--omega", "1e-3"], ["--omega", "1e305"], ["--omega-c", "1e308"]):
            code, text = _run(["verify", "--suite", "nrlimit", *argv])
            assert code == 0 and json.loads(text)["pass"] is True, argv

    def test_ortho_passes_where_two_mu_is_not_an_integer(self):
        code, text = _run(["verify", "--suite", "ortho", "--mu-x", "0.3", "--mu-y", "0.7"])
        checks = json.loads(text)["checks"]
        assert code == 0
        assert len(checks) == 4 and all(rec["pass"] for rec in checks)

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

    def test_an_empty_sweep_is_named_on_stderr(self, capsys):
        # at mu = (1,1), w~ > 0 the one mode of n = 0 pairs k = 0 with no k'
        # (k' = k - 3), so kg has no state to check: stdout and the exit code
        # stay those of an empty passing report, and stderr says why
        assert main(["verify", "--suite", "kg", "--mu-x", "1", "--mu-y", "1", "--n-max", "0", "--k-max", "0"]) == 0
        captured = capsys.readouterr()
        assert captured.out == '{"checks": [], "pass": true, "suite": "kg"}\n'
        assert captured.err == ("note: the sweep to --n-max 0 --k-max 0 has no bound state, "
                                "so no kg or dirac check ran\n")

    def test_a_default_verify_writes_nothing_to_stderr(self, capsys):
        main(["verify"])
        captured = capsys.readouterr()
        assert json.loads(captured.out)["checks"] and captured.err == ""

    def test_norm_out_of_range_exits_2_before_any_check(self, monkeypatch, capsys):
        from dunkl_oscillator import verification

        calls = []
        original = verification.kg_apply
        monkeypatch.setattr(verification, "kg_apply", lambda *a: calls.append(a) or original(*a))
        code = main(["verify", "--suite", "kg", "--n-max", "150", "--k-max", "1"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == "" and calls == []
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: the normalization constant")

    @pytest.mark.parametrize("mu", ["0", "1"])
    @pytest.mark.parametrize("n_max, k_max", [(100, 1), (150, 1), (140, 3), (2, 200)])
    def test_verify_exits_2_exactly_where_the_sweep_fails(self, mu, n_max, k_max, monkeypatch, capsys):
        # run_suite builds every state of the sweep before its first check,
        # evaluating no field; only n_max = 150 reaches a normalization
        # constant past the double range. At mu = (1,1), k = 200 pairs with
        # k' = 201 in sector (-1,-1), which the builder names when it reaches
        # that sector's modes.
        from dunkl_oscillator import verification
        from dunkl_oscillator.verification import CheckRecord, VerificationReport

        calls = []  # the batch sizes the kg check is handed

        def recorder(states, **kwargs):
            calls.append(len(states))
            return VerificationReport("kg", [CheckRecord("kg stub", {}, 0.0, 1.0)])

        monkeypatch.setattr(verification, "check_kg_eigen", recorder)
        code = main(["verify", "--suite", "kg", "--mu-x", mu, "--mu-y", mu, "--omega", "1",
                     "--n-max", str(n_max), "--k-max", str(k_max)])
        captured = capsys.readouterr()
        if n_max == 150:
            assert (code, captured.out, calls) == (2, "", [])
            assert captured.err.startswith("error: the normalization constant")
        elif (mu, k_max) == ("1", 200):
            assert (code, captured.out, calls) == (2, "", [])
            assert captured.err.startswith("error: k=200 pairs with the lower radial index k'=201 in sector (-1,-1); "
                                           "radial indices must be at most 200")
        else:
            states = sum(1 for _ in verification.sweep_bound_states(
                DunklParams(float(mu), float(mu)), OscillatorConfig(omega=1.0), n_max, k_max))
            assert (code, captured.err, sum(calls)) == (0, "", states)
            assert all(0 < size <= verification._SWEEP_BATCH for size in calls)

    @pytest.mark.parametrize("argv, n_max, k_max", [([], 2, 2), (["--n-max", "4", "--k-max", "4"], 4, 4)])
    def test_a_verify_builds_each_state_once(self, argv, n_max, k_max, monkeypatch):
        # a sweep that fits in one batch is built once, before the first
        # check, and its states are the ones checked
        from dunkl_oscillator import solution_builder, verification

        calls = []
        original = solution_builder.mode_states
        monkeypatch.setattr(solution_builder, "mode_states", lambda *a: calls.append(a) or original(*a))
        states = list(verification.sweep_bound_states(DunklParams(0.0, 0.0), OscillatorConfig(omega=1.0),
                                                      n_max, k_max))
        sweep, calls[:] = len(calls), []
        assert len(states) <= verification._SWEEP_BATCH
        assert _run(["verify", *argv])[0] in (0, 1)
        assert len(calls) == sweep > 0

    @pytest.mark.parametrize("suite", ["kg", "angular", "ortho", "dirac", "nrlimit"])
    def test_smallest_h_gives_finite_residuals(self, suite):
        code, text = _run(["verify", "--suite", suite, "--mu-x", "1", "--mu-y", "1", "--n-max", "1",
                           "--k-max", "1", "--h", "1.5e-154"])
        assert code in (0, 1) and "NaN" not in text and "Infinity" not in text
        assert _strict_json(text)["checks"]

    @pytest.mark.parametrize("suite", ["angular", "ortho"])
    def test_mu_at_its_cap_gives_strict_json(self, suite):
        # F(phi) grows like |cos|^-mu_x |sin|^-mu_y near the axes; past the
        # cap (a usage error) these suites read NaN from about mu = (500, 500)
        from dunkl_oscillator.cli import MAX_MU

        code, text = _run(["verify", "--suite", suite, "--mu-x", repr(MAX_MU), "--mu-y", repr(MAX_MU)])
        assert code in (0, 1) and _strict_json(text)["checks"]

    @pytest.mark.parametrize("omega, message", [
        # bound, with no floor under the critical tolerance
        ("1e-320", "the length scale sqrt(hbar / (m |w~|)) of |w~| = 9.99989e-321 is not a finite double"),
        ("1e-313", "the length scale sqrt(hbar / (m |w~|)) of |w~| = 1e-313 is not a finite double"),
        ("5e-308", "the kg check's largest radius, 1.78885e+154, overflows a double when squared"),
    ])
    def test_a_grid_past_the_double_range_is_one_line(self, omega, message, capsys):
        # past the double range the grid's radii, or kg's squares of them, are infinite: no check can run
        assert main(["verify", "--omega", omega]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err.splitlines()) == ("", [f"error: {message}"])

    def test_bessel_order_out_of_range_is_one_line(self, capsys):
        # n = 101 needs the free radial order 202, past the largest Bessel order
        assert main(["verify", "--suite", "kg", "--omega", "1", "--omega-c", "2", "--n-max", "101",
                     "--k-max", "0"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == ["error: bessel_j order 202 is outside [0, 200]"]

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

    @pytest.mark.parametrize("argv, ns", [
        (["--n", "0:2.9999999995"], ["0", "1", "2"]),
        (["--sector=1,-1", "--n", "0:2.4999999995"], ["0.5", "1.5"]),
    ])
    def test_a_range_ends_at_its_upper_bound(self, argv, ns):
        # the ladder's last n is the largest at most hi, however close the next one is
        code, text = _run(["spectrum", *argv, "--k-max", "0"])
        assert code == 0
        assert sorted({ln.split(",")[1] for ln in text.splitlines()[1:]}) == ns

    def test_mixed_sector_snaps_integer_start(self):
        code, text = _run(["spectrum", "--sector=1,-1", "--n", "0:2", "--k-max", "0"])
        assert code == 0
        assert sorted({ln.split(",")[1] for ln in text.splitlines()[1:]}) == ["0.5", "1.5"]

    @pytest.mark.parametrize(
        "argv, n",
        [
            (["wavefunction", "--sector=1,-1"], "1.5"),  # the default --n 1
            (["spectrum", "--sector=1,-1", "--n", "0"], "0.5"),
            (["spectrum", "--sector=1,-1", "--n", "2"], "2.5"),
        ],
    )
    def test_mixed_sector_single_integer_means_n_plus_half(self, argv, n):
        code, text = _run(argv)
        assert code == 0 and text
        assert (code, text) == _run([*argv[:2], "--n", n])

    @pytest.mark.parametrize("argv, rows", [
        (["--n", "0:1"], [("0", "+"), ("1", "+"), ("1", "-")]),
        (["--n", "0:1", "--branch", "-"], [("1", "-")]),  # n = 0 is the + mode alone
        (["--n", "0", "--branch", "-"], []),
        (["--sector=-1,-1", "--n", "0:2", "--branch", "+"], [("1", "+"), ("2", "+")]),
        (["--sector=1,-1", "--n", "1:2"], [("1.5", "+"), ("1.5", "-")]),
    ])
    def test_rows_are_the_sectors_modes_from_the_lowest_n(self, argv, rows):
        code, text = _run(["spectrum", *argv, "--k-max", "0"])
        assert code == 0
        assert [tuple(ln.split(",")[1:3]) for ln in text.splitlines()[1:]] == rows

    def test_export_range_accepted(self):
        code, text = _run(["spectrum", "--n", "0:30", "--k-max", "300"])
        assert code == 0
        assert len(text.splitlines()) == 1 + 61 * 301


def _src_env():
    src = str(Path(__file__).resolve().parents[1] / "src")
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


@pytest.mark.parametrize(
    ("argv", "head"),
    [
        (["spectrum", "--n", "0:30", "--k-max", "300"], b"sector,n,branch"),
        (["spectrum", "--n", "0:30", "--k-max", "300", "--format", "json"], b'[{"E_plus": '),
        (["wavefunction", "--grid-rho", "400", "--grid-phi", "64"], b"rho,phi,"),
    ],
    ids=["spectrum-csv", "spectrum-json", "wavefunction"],
)
def test_closed_stdout_exits_1_quietly(argv, head):
    # 1.5 to 2.5 MB of output, far more than a pipe buffers, so the writer
    # meets the closed pipe while it is still writing
    proc = subprocess.Popen(
        [sys.executable, "-m", "dunkl_oscillator.cli", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_src_env(),
    )
    assert proc.stdout.read(len(head)) == head
    proc.stdout.close()
    stderr = proc.stderr.read()
    assert proc.wait(timeout=120) == 1
    assert stderr == b""


def test_spectrum_does_not_import_scipy():
    # the package runs on numpy and the standard library: neither the
    # spectrum table, the matrix oracle, a free-state wavefunction (Bessel
    # J) nor the critical-regime kg suite imports scipy
    code = (
        "import contextlib, io, sys\n"
        "from dunkl_oscillator import DunklParams, OscillatorConfig, SectorLabel, matrix_oracle_lambda, run_suite\n"
        "from dunkl_oscillator.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert main(['spectrum']) == 0\n"
        "    assert main(['wavefunction', '--omega', '1', '--omega-c', '2', '--n', '1', '--energy', '1.5']) == 0\n"
        "assert len(matrix_oracle_lambda(SectorLabel(1, 1), DunklParams(1, 1))) == 47\n"
        "report = run_suite(DunklParams(1, 1), OscillatorConfig(omega=1.0, omega_c=2.0), suite='kg', threads=1,\n"
        "                   n_max=2, k_max=2)\n"
        "assert report.records\n"
        "print('scipy' in sys.modules)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=_src_env(),
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


class TestArgparse:
    def test_suite_choices_are_the_suite_names_and_all(self):
        (verify,) = (action.choices["verify"] for action in build_parser()._actions
                     if isinstance(action, argparse._SubParsersAction))
        (suite,) = (action for action in verify._actions if action.dest == "suite")
        assert suite.choices == (*SUITE_NAMES, "all")

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
            # 2^53 + 1: past the largest k a double holds exactly
            ["spectrum", "--k-max", "9007199254740993"],
            # an int too large for float() is rejected by the bound, not by OverflowError
            ["spectrum", "--k-max", "1" + "0" * 400],
            ["wavefunction", "--grid-rho", "1" + "0" * 400],
            ["wavefunction", "--k", "-1"],
            ["wavefunction", "--k", "201"],
            ["wavefunction", "--grid-rho", "0"],
            ["spectrum", "--sector", "2,1"],
            ["spectrum", "--omega", "-1"],
            ["spectrum", "--omega-c", "nan"],
            ["wavefunction", "--grid-phi", "1000001"],
            ["wavefunction", "--energy", "nan"],
            ["wavefunction", "--energy", "0"],
            # h^2, the second differences' divisor, is subnormal below 2^-511
            ["verify", "--h", "1e-155"],
            ["verify", "--h", "1e-320"],
            ["verify", "--mu-x", "200.00000000000003"],
            ["spectrum", "--mu-y", "1e52"],
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
        # an n 1e-10 off its ladder
        ["spectrum", "--mu-x", "1", "--mu-y", "1", "--sector=-1,-1", "--n", "1e-10", "--k-max", "3"],
        ["spectrum", "--n", "1e-10"],
        ["spectrum", "--n", "2.0000000001"],
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
        ["wavefunction", "--energy", "1.5"],
        ["wavefunction", "--n", "0:3"],
        # w~ < 0 pairs k = 200 with k' = k + sigma + 1 = 203, past the largest degree
        ["verify", "--suite", "kg", "--n-max", "1", "--k-max", "200", "--omega", "0.25",
         "--omega-c", "2.5", "--mu-x", "1", "--mu-y", "1"],
        ["wavefunction", "--k", "200", "--omega", "0.25", "--omega-c", "2.5", "--mu-x", "1",
         "--mu-y", "1"],
        # non-finite or overflowing deformation parameters
        ["spectrum", "--mu-x", "inf"],
        ["wavefunction", "--mu-x", "inf"],
        ["spectrum", "--mu-y", "nan"],
        ["spectrum", "--mu-x", "1e308", "--mu-y", "1e308"],
        ["wavefunction", "--mu-x", "1e308", "--mu-y", "1e308"],
        ["verify", "--suite", "angular", "--mu-x", "nan"],
        ["verify", "--suite", "angular", "--mu-y=-0.6"],
        # energies a double cannot resolve: at q = 2e15 the rounding bound of
        # the E = m c^2 radicand passes 1, and at omega_c = 1e308 it overflows
        ["spectrum", "--omega", "1e15", "--n", "0", "--k-max", "0"],
        ["spectrum", "--omega-c", "1e308"],
        # q = 1e304: the first block of k resolves, but the bound overflows by k = 100000
        ["spectrum", "--omega", "5e303", "--n", "1", "--branch", "+", "--k-max", "100000"],
        ["wavefunction", "--omega-c", "1e308"],
        ["verify", "--suite", "kg", "--omega-c", "1e308"],
        # E^2 overflows a double past about 1.34e154
        ["wavefunction", "--omega", "1", "--omega-c", "2", "--energy", "1e155"],
    ],
)
def test_invalid_input_exits_2(argv, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.strip()


@pytest.mark.parametrize("argv, pair", [
    # at w~ < 0 and mu = (1,1), k' = k + 3 in sector (+1,+1), the sweep's first
    (["verify", "--suite", "kg", "--n-max", "1", "--k-max", "200"],
     "k=200 pairs with the lower radial index k'=203"),
    (["verify", "--suite", "dirac", "--n-max", "0", "--k-max", "199"],
     "k=199 pairs with the lower radial index k'=202"),
    (["wavefunction", "--k", "200"], "k=200 pairs with the lower radial index k'=203"),
])
def test_partner_index_past_the_largest_degree_is_named_with_its_sector(argv, pair, capsys):
    from dunkl_oscillator import verification

    calls = []
    original = verification.kg_apply
    system = ["--omega", "0.25", "--omega-c", "2.5", "--mu-x", "1", "--mu-y", "1"]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(verification, "kg_apply", lambda *a: calls.append(a) or original(*a))
        assert main([*argv, *system]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and calls == []
    assert captured.err.startswith(f"error: {pair} in sector (+1,+1); radial indices must be at most 200")
    assert "laguerre" not in captured.err


@pytest.mark.parametrize("argv, h, limit, length", [
    (["--suite", "kg", "--h", "0.02"], "0.02", "0.01", "1"),
    (["--suite", "all", "--omega", "1e300"], "0.0001", "1e-152", "1e-150"),
    # critical point: the free state of energy 2 m c^2 has the smaller length 1 / sqrt(3)
    (["--suite", "kg", "--omega", "1", "--omega-c", "2", "--h", "0.006"], "0.006", "0.0057735", "0.57735"),
    # dirac takes the same bound: at about 1e154 length scales its radial factors overflowed to NaN
    (["--suite", "dirac", "--h", "0.02"], "0.02", "0.01", "1"),
    (["--suite", "dirac", "--h", "1e300"], "1e+300", "0.01", "1"),
])
def test_h_past_the_grid_is_named_before_any_check(argv, h, limit, length, capsys):
    from dunkl_oscillator import verification

    calls = []
    original = verification.kg_apply
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(verification, "kg_apply", lambda *a: calls.append(a) or original(*a))
        assert main(["verify", *argv, "--n-max", "0", "--k-max", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and calls == []
    assert captured.err.startswith(f"error: h {h} must be at most {limit} for suite {argv[1]}: ")
    assert captured.err.rstrip().endswith(f"length scale {length}") and "kg_apply" not in captured.err


def test_the_regime_is_named_before_the_step(capsys):
    # the default suite, all, holds dirac, which needs a bound regime at any h
    assert main(["verify", "--omega", "1", "--omega-c", "2", "--h", "0.02"]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "error: the dirac suite needs a non-critical regime\n")


@pytest.mark.parametrize("suite, h", [("kg", "0.01"), ("dirac", "0.01"), ("angular", "1")],
                         ids=["kg", "dirac", "angular"])
def test_h_at_the_grid_limit_runs(suite, h):
    # 10 h equal to the smallest radius, 0.1 length scale, is what kg_apply
    # accepts; at mu = 0 the angular check has no singular locus, so no limit
    code, text = _run(["verify", "--suite", suite, "--h", h, "--n-max", "0", "--k-max", "1"])
    assert code in (0, 1) and json.loads(text)["checks"]


@pytest.mark.parametrize("argv, over, under, limit", [
    (["--suite", "dirac", "--n-max", "1", "--k-max", "1"], "0.002", "0.0019", "0.0019509"),
    (["--suite", "angular"], "0.005", "0.0049", "0.00490874"),
    (["--suite", "kg", "--omega", "0.1", "--n-max", "1", "--k-max", "1"], "0.02", "0.019", "0.019635"),
    (["--suite", "all", "--n-max", "0", "--k-max", "0"], "0.002", "0.0019", "0.0019509"),
])
def test_h_past_an_axis_limit_is_named_before_any_check(argv, over, under, limit, capsys):
    # at mu != 0 the reflection guards keep each stencil 10 steps off the axes:
    # 0.1 L sin(pi/16) for dirac's Cartesian points, the angle half-step
    # pi/16 for kg and pi/64 for angular; all takes the smallest
    system = ["verify", "--mu-x", "1", "--mu-y", "1", *argv]
    assert main([*system, "--h", over]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: h {over} must be at most {limit} for suite {argv[1]}: ")
    assert main([*system, "--h", under]) in (0, 1)
    assert "singular locus" not in capsys.readouterr().err


def _floats(cells):
    for cell in cells:
        try:
            yield float(cell)
        except ValueError:  # sector, branch, "invalid", "unphysical", regime
            continue


@settings(max_examples=100, deadline=None)
@given(n=st.one_of(st.integers(0, 400).map(lambda i: i / 2), st.floats(0.0, 200.0)),
       sector=st.sampled_from(["1,1", "-1,-1", "1,-1", "-1,1"]), k=st.integers(0, 3),
       command=st.sampled_from(["wavefunction", "spectrum"]))
def test_any_n_exits_0_with_finite_floats_or_2_with_one_error_line(n, sector, k, command):
    if command == "wavefunction":
        argv = ["wavefunction", f"--sector={sector}", "--n", repr(n), "--k", str(k),
                "--grid-rho", "2", "--grid-phi", "2"]
    else:
        argv = ["spectrum", f"--sector={sector}", "--n", repr(n), "--k-max", str(k)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2)
    if code == 2:
        assert out.getvalue() == ""
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
    else:
        values = list(_floats(t for ln in out.getvalue().splitlines()[1:] for t in ln.split(",")))
        assert all(math.isfinite(v) for v in values)  # a table may have no rows


def _reference_spectrum(argv) -> str:
    """The spectrum table built one row at a time from the scalar
    ``energy()`` and ``pair_radial_indices()``, formatted one value at a
    time: the output the column path must reproduce byte for byte."""
    from dunkl_oscillator import cli
    from dunkl_oscillator.angular_sector import AngularMode, SectorLabel
    from dunkl_oscillator.dunkl_calculus import Component, DunklParams
    from dunkl_oscillator.solution_builder import (
        InvalidPairError,
        NegativeRadicandError,
        OscillatorConfig,
        classify_regime,
        energy,
        pair_radial_indices,
    )

    args = build_parser().parse_args(argv)
    params, config = DunklParams(args.mu_x, args.mu_y), OscillatorConfig(args.omega, args.omega_c)
    sector, regime = args.sector, classify_regime(config)
    spec = f".{args.precision}g"
    rows = []
    for n in cli._parse_n_values(args.n, sector):
        for branch in {"+": [1], "-": [-1], "both": [1, -1]}[args.branch]:
            if n == 0 and (branch == -1 or sector != SectorLabel(1, 1)):
                continue
            mode = AngularMode(sector, n, branch, params)
            for k in range(args.k_max + 1):
                try:
                    e_up = energy(Component.UPPER, sector, mode, k, config, 1)
                except NegativeRadicandError:
                    e_up = None
                try:
                    kp = str(pair_radial_indices(sector, regime, k, params))
                except InvalidPairError:
                    kp = "invalid"
                row = {"sector": f"{sector.s_x:+d}{sector.s_y:+d}", "n": n,
                       "branch": "+" if branch == 1 else "-", "k": k, "k_prime": kp,
                       "E_plus": e_up, "regime": regime.value}
                if args.negative_energies:
                    row["E_minus"] = None if e_up is None else -e_up
                rows.append(row)
    if args.fmt == "json":
        for row in rows:
            for key in ("E_plus", "E_minus"):
                if key in row:
                    v = row[key]
                    row[key] = "unphysical" if v is None else float(format(v, spec))
        return json.dumps(rows, sort_keys=True) + "\n"
    cols = ["sector", "n", "branch", "k", "k_prime", "E_plus"]
    cols += ["E_minus"] * args.negative_energies + ["regime"]
    lines = [",".join(cols)]
    for row in rows:
        lines.append(",".join("unphysical" if row[c] is None else
                              format(row[c], spec) if isinstance(row[c], float) else str(row[c])
                              for c in cols))
    return "\n".join(lines) + "\n"


_SPINOR_MU = st.one_of(
    st.tuples(st.integers(0, 3), st.integers(0, 3)),
    st.tuples(st.integers(0, 2), st.integers(0, 2)).map(lambda t: (t[0] + 0.5, t[1] + 0.5)),
)


@settings(max_examples=150, deadline=None)
@given(mu=_SPINOR_MU, sector=st.sampled_from(["1,1", "-1,-1", "1,-1", "-1,1"]),
       omega=st.sampled_from([0.3, 1.0, 1.7]), ratio=st.sampled_from([0.0, 1.0, 3.0, 4.0, 8.0]),
       branch=st.sampled_from(["+", "-", "both"]), precision=st.integers(6, 17),
       fmt=st.sampled_from(["csv", "json"]), negative=st.booleans(), lo=st.integers(0, 3),
       width=st.integers(0, 2), k_max=st.integers(0, 6), block=st.sampled_from([1, 2, 3, 4096]))
@example(mu=(3, 3), sector="-1,-1", omega=1.0, ratio=4.0, branch="both", precision=17, fmt="csv",
         negative=True, lo=1, width=1, k_max=3, block=2)
@example(mu=(3, 3), sector="-1,-1", omega=1.0, ratio=4.0, branch="+", precision=9, fmt="json",
         negative=True, lo=1, width=0, k_max=1, block=4096)
def test_spectrum_equals_the_per_k_reference(mu, sector, omega, ratio, branch, precision, fmt,
                                             negative, lo, width, k_max, block):
    # the column path (one energy column per mode and block of k, k' cells
    # made once per table) prints what the per-k path printed; blocks of 1-3
    # rows take the path that --k-max above 4095 takes
    from dunkl_oscillator import cli

    argv = ["spectrum", "--mu-x", repr(float(mu[0])), "--mu-y", repr(float(mu[1])),
            "--omega", repr(omega), "--omega-c", repr(ratio * omega), f"--sector={sector}",
            "--branch", branch, "--precision", str(precision), "--format", fmt,
            "--n", f"{lo}:{lo + width + (sector in ('1,-1', '-1,1')) / 2}", "--k-max", str(k_max)]
    if negative:
        argv.append("--negative-energies")
    with mock.patch.object(cli, "_K_BLOCK", block):
        code, text = _run(argv)
    assert code == 0
    assert text == _reference_spectrum(argv)
    if (mu, sector, ratio, lo) == ((3, 3), "-1,-1", 4.0, 1) and omega >= 1.0:
        assert "unphysical" in text  # k = 0 of the + branch


@pytest.mark.parametrize("precision", range(6, 18))
@pytest.mark.parametrize("system", [
    ["--mu-x", "3", "--mu-y", "3", "--omega-c", "4", "--sector=-1,-1", "--n", "1:2"],
    ["--mu-x", "0.5", "--mu-y", "1.5", "--omega", "0.3", "--sector=1,-1", "--n", "0.5:2.5"]], ids=["w-", "w+"])
def test_json_spectrum_is_byte_identical_at_every_precision(system, precision):
    # the JSON path rounds each energy to --precision digits, except at 17,
    # where the rounding is the identity: the bytes are the rounding reference's
    argv = ["spectrum", *system, "--branch", "both", "--k-max", "5", "--negative-energies",
            "--precision", str(precision), "--format", "json"]
    code, text = _run(argv)
    assert code == 0 and len(json.loads(text)) > 12
    assert text == _reference_spectrum(argv)


def test_spectrum_memory_is_flat_in_k_max():
    # one block of at most 4096 rows is alive at a time: the peak of a
    # 200001-row table (49 blocks, about 10 MB of text) is that of 2 blocks
    peaks = []
    for k_max in (8191, 200000):
        sink = _Discard()
        tracemalloc.start()
        try:
            with contextlib.redirect_stdout(sink):
                assert main(["spectrum", "--n", "0", "--k-max", str(k_max)]) == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert sink.rows == 1 + k_max + 1
    assert peaks[1] < 4 * 2**20
    assert peaks[1] < 1.5 * peaks[0]


def _wavefunction_state(argv):
    """(state, grid, config) of a ``wavefunction`` command line, built
    without the command."""
    from dunkl_oscillator import cli
    from dunkl_oscillator.angular_sector import AngularMode
    from dunkl_oscillator.dunkl_calculus import DunklParams
    from dunkl_oscillator.solution_builder import Regime, build_spinor, classify_regime, free_particle

    args = build_parser().parse_args(argv)
    params, config = DunklParams(args.mu_x, args.mu_y), OscillatorConfig(args.omega, args.omega_c)
    (n,) = cli._parse_n_values(args.n, args.sector)
    mode = AngularMode(args.sector, n, 1 if args.branch == "+" else -1, params)
    if classify_regime(config) is Regime.CRITICAL:
        sol = free_particle(mode, args.energy, config)
    else:
        sol = build_spinor(mode, args.k, config)
    return sol, GridSpec(args.grid_rho, args.grid_phi), config


def _reference_wavefunction(argv) -> str:
    """The wavefunction grid, evaluated on the whole grid at once and
    formatted one value at a time."""
    sol, grid, config = _wavefunction_state(argv)
    rho, phi = grid.radii(config.length_scale), grid.angles()
    upper, lower = sol.upper.eval_polar(rho[:, None], phi[None, :]), sol.lower.eval_polar(rho[:, None], phi[None, :])

    spec = f".{build_parser().parse_args(argv).precision}g"

    def fmt(value):
        return format(value, spec)

    lines = ["rho,phi,re_upper,im_upper,re_lower,im_lower\n"]
    for r, upper_row, lower_row in zip(rho, upper, lower):
        lines += [f"{fmt(r)},{fmt(f)},{fmt(u.real)},{fmt(u.imag)},{fmt(lo.real)},{fmt(lo.imag)}\n"
                  for f, u, lo in zip(phi, upper_row, lower_row)]
    return "".join(lines)


@pytest.mark.parametrize("precision", ["6", "12", "17"])
@pytest.mark.parametrize("system", [
    ["--mu-x", "1", "--mu-y", "1", "--sector", "1,-1", "--n", "0.5", "--k", "1"],
    ["--mu-x", "1.5", "--mu-y", "0.5", "--omega", "0.9", "--omega-c", "3.6", "--sector=-1,-1",
     "--n", "1", "--k", "1"],
    ["--mu-x", "1", "--mu-y", "1", "--omega", "1", "--omega-c", "2", "--n", "2", "--energy", "1.5"],
], ids=["w+", "w-", "critical"])
def test_wavefunction_equals_the_per_value_formatting(system, precision):
    argv = ["wavefunction", *system, "--precision", precision, "--grid-rho", "9", "--grid-phi", "11"]
    code, text = _run(argv)
    assert code == 0
    assert text == _reference_wavefunction(argv)


@pytest.mark.parametrize("system", [
    ["--sector=-1,-1", "--n", "1", "--k", "1"],
    ["--omega-c", "4", "--sector=-1,-1", "--n", "1", "--k", "1"],
    ["--omega-c", "2", "--n", "1", "--energy", "1.5"],
], ids=["w+", "w-", "critical"])
def test_wavefunction_cells_are_the_array_evaluation(system):
    # 17 digits print each cell exactly, and every cell is the one that
    # evaluating the whole grid at once gives. A radius evaluated alone (a
    # numpy scalar, through libm pow) differs from its array evaluation in
    # the last bit on a row or two of these bound grids.
    argv = ["wavefunction", "--mu-x", "1", "--mu-y", "1", *system,
            "--precision", "17", "--grid-rho", "64", "--grid-phi", "64"]
    code, text = _run(argv)
    assert code == 0
    assert _cell_bits(text) == _grid_bits(*_wavefunction_state(argv))


@settings(max_examples=500, deadline=None)
@given(x=st.floats(), precision=st.integers(6, 17))
@example(x=math.nan, precision=17)
@example(x=math.inf, precision=6)
@example(x=-math.inf, precision=17)
@example(x=0.0, precision=17)
@example(x=-0.0, precision=17)
@example(x=5e-324, precision=17)
@example(x=2.2250738585072009e-308, precision=17)
@example(x=-1.7976931348623157e308, precision=6)
@example(x=1.7976931348623157e308, precision=17)
def test_percent_template_prints_what_format_prints(x, precision):
    # the CSV writers put a whole block of values through one "%.<p>g"
    # template: it must print each value as format(value, ".<p>g") does
    assert ("%%.%dg" % precision) % x == format(x, f".{precision}g")


def _past(cap: float, toward: float) -> str:
    """The next double past ``cap`` (toward ``toward``), as a flag value."""
    return repr(math.nextafter(cap, toward))


# Each subcommand's numeric flags as (in range, past the parser's cap):
# values the parser accepts (0, a tiny and a huge value, each cap, and the
# steps on either side of each --h limit) and values one past it. n and k
# stay at most 1 (or past their cap) and grids at most 2 x 2, so one run is
# a few milliseconds.
_TINY, _HUGE = "5e-324", "1e308"
_SYSTEM_FLAGS = {
    "--mu-x": (["0", _TINY, "0.5", "1", "-0.5", "200.0"],
               [_HUGE, _past(-0.5, -math.inf), _past(200.0, math.inf)]),
    "--mu-y": (["0", _TINY, "0.5", "1", "200.0"], [_past(200.0, math.inf)]),
    "--omega": (["0", _TINY, "0.1", "1", "1e15", _HUGE], ["inf"]),
    "--omega-c": (["0", _TINY, "2", "2.5", _HUGE], ["nan"]),
}
_INDEX = (["0", "1"], ["-1", "201"])
_PRECISION = (["6", "17"], ["5", "18"])
_OWN_FLAGS = {
    "spectrum": {"--n": (["0", "1", "0:1", "1e308", "201"], []),
                 "--k-max": (_INDEX[0], ["-1", "9007199254740993"]), "--precision": _PRECISION},
    "wavefunction": {"--n": (["0", "1", "0.5", "201"], []), "--k": _INDEX, "--precision": _PRECISION,
                     "--grid-rho": (["1", "2"], ["0", "1000001"]), "--grid-phi": (["1", "2"], ["0", "1000001"]),
                     "--energy": ([_TINY, "1", "1.5", "1e154", "1e155", _HUGE], ["0"])},
    "verify": {"--n-max": _INDEX, "--k-max": _INDEX, "--tol": (["0", _TINY, _HUGE], ["inf"]),
               "--h": ([repr(2.0**-511), "1e-4", "0.0019", "0.002", "0.0049", "0.005", "0.01", "0.019", "0.02",
                        "1", "1e300"], ["0", _TINY, "1e-155", _past(2.0**-511, 0.0)])},
}
_CHOICES = {
    "spectrum": {"--sector": ["1,1", "1,-1", "-1,-1"], "--format": ["csv", "json"], "--branch": ["+", "-", "both"]},
    "wavefunction": {"--sector": ["1,1", "1,-1"], "--branch": ["+", "-"]},
    "verify": {"--suite": ["kg", "angular", "ortho", "dirac", "nrlimit", "all"]},
}


@st.composite
def _argv(draw) -> list[str]:
    # every flag in range, or left at its default; then at most one flag
    # past its cap, so most draws reach the physics
    command = draw(st.sampled_from(sorted(_OWN_FLAGS)))
    numeric = {**_SYSTEM_FLAGS, **_OWN_FLAGS[command]}
    values = {flag: draw(st.none() | st.sampled_from(choices)) for flag, choices in _CHOICES[command].items()}
    values.update((flag, draw(st.none() | st.sampled_from(ok))) for flag, (ok, _) in numeric.items())
    if draw(st.sampled_from([False, False, False, True])):
        past = draw(st.sampled_from([flag for flag, (_, bad) in numeric.items() if bad]))
        values[past] = draw(st.sampled_from(numeric[past][1]))
    argv = [command, *(f"{flag}={value}" for flag, value in values.items() if value is not None)]
    if command == "spectrum" and draw(st.booleans()):
        argv.append("--negative-energies")
    return argv


@settings(max_examples=120, deadline=None)
@given(argv=_argv())
@example(argv=["wavefunction", "--omega", "1", "--omega-c", "2", "--energy", "1e155"])
@example(argv=["verify", "--suite", "kg", "--mu-x", "1", "--mu-y", "1", "--n-max", "1", "--k-max", "1",
               "--h", "1e-155"])
@example(argv=["verify", "--suite", "ortho", "--mu-x", "1e155"])
@example(argv=["verify", "--suite", "kg", "--omega", "1", "--omega-c", "2", "--n-max", "101", "--k-max", "0"])
@example(argv=["verify", "--suite", "dirac", "--n-max", "1", "--k-max", "1", "--h", "1e300"])
# --h past the reflection guards' axis clearance: each stopped a check partway through
@example(argv=["verify", "--suite", "dirac", "--mu-x", "1", "--mu-y", "1", "--n-max", "1", "--k-max", "1",
               "--h", "0.002"])
@example(argv=["verify", "--suite", "angular", "--mu-x", "1", "--mu-y", "1", "--h", "0.005"])
@example(argv=["verify", "--suite", "kg", "--mu-x", "1", "--mu-y", "1", "--omega", "0.1", "--n-max", "1",
               "--k-max", "1", "--h", "0.02"])
@example(argv=["verify", "--suite", "all", "--mu-x", "1", "--mu-y", "1", "--h", "0.005"])
def test_any_flag_values_exit_0_1_or_2_with_clean_output(argv):
    # no traceback (an exception out of main), strict JSON, finite CSV cells,
    # and an exit 2 that prints only its message: a usage error of the
    # parser, or one `error:` line
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    text, lines = out.getvalue(), err.getvalue().splitlines()
    assert code in (0, 1, 2)
    assert not any("singular locus" in line for line in lines), lines  # --h is checked up front
    if code == 2:
        assert text == ""
        assert lines[0].startswith("usage: ") or len(lines) == 1 and lines[0].startswith("error: "), lines
        return
    if argv[0] == "verify" or "--format=json" in argv:
        _strict_json(text)
    else:
        cells = [cell for ln in text.splitlines()[1:] for cell in ln.split(",")]
        assert all(math.isfinite(v) for v in _floats(cells)), cells  # "unphysical" is not a float


def _exit_2_is_one_error_line(code, text, err):
    """Exit 2 prints one ``error:`` line and nothing to stdout."""
    if code == 2:
        assert (text, len(err.splitlines())) == ("", 1) and err.startswith("error: "), (text, err)
    return code == 2


@settings(max_examples=12, deadline=None)
@given(log_omega=st.floats(-320.0, 308.0), ratio=st.sampled_from([0.0, 2.0, 4.0]),
       suite=st.sampled_from([*SUITE_NAMES, "all"]))
@example(log_omega=-320.0, ratio=0.0, suite="all")
@example(log_omega=-320.0, ratio=0.0, suite="nrlimit")
@example(log_omega=math.log10(1e-313), ratio=0.0, suite="all")
@example(log_omega=math.log10(5e-308), ratio=0.0, suite="all")
@example(log_omega=-320.0, ratio=2.0, suite="kg")
@example(log_omega=308.0, ratio=2.0, suite="kg")
@example(log_omega=308.0, ratio=0.0, suite="all")
def test_any_frequency_gives_strict_json_or_one_error_line(log_omega, ratio, suite):
    # log-uniform omega over the whole double range, in each regime: verify
    # writes strict JSON or exits 2 with one error line, and a wavefunction
    # (a free state at the critical point) has no NaN or infinite cell
    omega = 10.0**log_omega
    assume(math.isfinite(ratio * omega))
    system = ["--omega", repr(omega), "--omega-c", repr(ratio * omega)]
    for argv in (["verify", "--suite", suite, *system],
                 ["wavefunction", *system, *(["--energy", "1.5"] if ratio == 2.0 else [])]):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        text = out.getvalue()
        assert code in ((0, 1, 2) if argv[0] == "verify" else (0, 2)), (argv, err.getvalue())
        if _exit_2_is_one_error_line(code, text, err.getvalue()):
            continue
        if argv[0] == "verify":
            assert _strict_json(text)["checks"]
        else:
            cells = [cell for ln in text.splitlines()[1:] for cell in ln.split(",")]
            assert len(cells) == 12 * 16 * 6 and all(math.isfinite(float(cell)) for cell in cells), argv


def _readme_commands():
    """The ``dunkl-oscillator`` lines of the README's "Command line" block,
    with continuations joined and ``> file`` redirections dropped."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = re.search(r"^## Command line\n+```sh\n(.*?)^```", text, re.M | re.S)
    assert block, "README has no sh block under '## Command line'"
    lines = block.group(1).replace("\\\n", " ").splitlines()
    return [shlex.split(line.split(" > ")[0]) for line in lines if line.startswith("dunkl-oscillator ")]


@pytest.mark.parametrize("argv", _readme_commands(), ids=lambda argv: " ".join(argv[1:]))
def test_readme_command_line_examples_run(argv, capsys):
    code = main(argv[1:])
    captured = capsys.readouterr()
    assert captured.out and captured.err == ""
    assert code in ((0, 1) if argv[1] == "verify" else (0,))
