"""Command-line front end: spectra, wavefunction grids, verification suites.

Output is deterministic: floats are printed with a fixed number of
significant digits (17 by default, enough to round-trip), rows come in a
fixed order, and files use UTF-8 with LF line endings and '.' decimals.

Exit codes: 0 success, 1 at least one verification check failed or
stdout was closed early, 2 configuration error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass

from .angular_sector import AngularMode, SectorLabel
from .dunkl_calculus import DEFAULT_STEP, Component, DunklParams
from .solution_builder import (
    IntegralityError,
    InvalidPairError,
    NegativeRadicandError,
    OscillatorConfig,
    Regime,
    RegimeError,
    build_spinor,
    classify_regime,
    energy,
    free_particle,
    pair_radial_indices,
)
from .special_functions import MAX_DEGREE
from .verification import GridSpec, run_suite


def _fmt(value: float, precision: int) -> str:
    return format(value, f".{precision}g")


def _parse_sector(text: str) -> SectorLabel:
    parts = text.replace("(", "").replace(")", "").split(",")
    if len(parts) != 2:
        raise ValueError(f"sector must be 'SX,SY', got {text!r}")
    return SectorLabel(int(parts[0]), int(parts[1]))


def _parse_n_values(text: str, sector: SectorLabel) -> list[float]:
    """The n ladder of ``--n lo[:hi]``: integers for equal-parity sectors,
    half-odds for mixed ones (an integer ``lo`` snaps up by 1/2 there)."""
    if ":" in text:
        lo, hi = (float(t) for t in text.split(":", 1))
    else:
        lo = hi = float(text)
    if not all(math.isfinite(v) and v <= MAX_DEGREE for v in (lo, hi)):
        raise ValueError(f"--n bounds must be finite and at most {MAX_DEGREE}, got {text!r}")
    offset = 0.0 if sector.epsilon == 1 else 0.5
    if offset and abs(lo - round(lo)) < 0.25:
        lo += offset  # half-odd family starts at 1/2
    if lo < 0.0 or abs(lo - offset - round(lo - offset)) > 1e-9:
        ladder = "a natural number" if sector.epsilon == 1 else "a positive half-odd number"
        raise ValueError(f"--n {text!r}: n must be {ladder} in sector ({sector})")
    count = math.floor(hi - lo + 1e-9) + 1
    if count < 1:
        raise ValueError(f"--n {text!r} selects no mode index")
    return [lo + i for i in range(count)]


def _require_at_least(value: int, low: int, flag: str) -> int:
    if value < low:
        raise ValueError(f"{flag} must be >= {low}, got {value}")
    return value


def _system(args: argparse.Namespace) -> tuple[DunklParams, OscillatorConfig]:
    """The physical system every subcommand's flags describe."""
    params = DunklParams(args.mu_x, args.mu_y)
    return params, OscillatorConfig(omega=args.omega, omega_c=args.omega_c)


@dataclass(frozen=True)
class SpectrumRun:
    params: DunklParams
    config: OscillatorConfig
    sector: SectorLabel
    n_values: list[float]
    branches: list[int]
    k_max: int
    fmt: str
    precision: int
    negative_energies: bool

    @classmethod
    def from_args(cls, args: argparse.Namespace) -> "SpectrumRun":
        params, config = _system(args)
        sector = _parse_sector(args.sector)
        return cls(
            params=params,
            config=config,
            sector=sector,
            n_values=_parse_n_values(args.n, sector),
            branches={"+": [1], "-": [-1], "both": [1, -1]}[args.branch],
            k_max=_require_at_least(args.k_max, 0, "--k-max"),
            fmt=args.fmt,
            precision=args.precision,
            negative_energies=args.negative_energies,
        )


@dataclass(frozen=True)
class WavefunctionRun:
    mode: AngularMode
    config: OscillatorConfig
    k: int
    grid_rho: int
    grid_phi: int
    free_energy: float | None
    precision: int

    @classmethod
    def from_args(cls, args: argparse.Namespace) -> "WavefunctionRun":
        params, config = _system(args)
        sector = _parse_sector(args.sector)
        n = _parse_n_values(args.n, sector)[0]
        return cls(
            mode=AngularMode(sector, n, 1 if args.branch == "+" else -1, params),
            config=config,
            k=args.k,
            grid_rho=_require_at_least(args.grid_rho, 1, "--grid-rho"),
            grid_phi=_require_at_least(args.grid_phi, 1, "--grid-phi"),
            free_energy=args.energy,
            precision=args.precision,
        )


@dataclass(frozen=True)
class VerifyRun:
    params: DunklParams
    config: OscillatorConfig
    suite: str
    tol: float | None
    h: float
    n_max: float
    k_max: int

    @classmethod
    def from_args(cls, args: argparse.Namespace) -> "VerifyRun":
        params, config = _system(args)
        if not (math.isfinite(args.h) and args.h > 0.0):
            raise ValueError(f"--h must be a positive finite step, got {args.h}")
        if not 0.0 <= args.n_max <= MAX_DEGREE:  # also rejects nan
            raise ValueError(f"--n-max must be between 0 and {MAX_DEGREE}, got {args.n_max}")
        if not 0 <= args.k_max <= MAX_DEGREE:
            raise ValueError(f"--k-max must be between 0 and {MAX_DEGREE}, got {args.k_max}")
        if args.tol is not None and not (math.isfinite(args.tol) and args.tol >= 0.0):
            raise ValueError(f"--tol must be finite and >= 0, got {args.tol}")
        return cls(
            params=params,
            config=config,
            suite=args.suite,
            tol=args.tol,
            h=args.h,
            n_max=args.n_max,
            k_max=args.k_max,
        )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dunkl-oscillator",
        description="Spectra, wavefunctions and verification for the "
        "reflection-deformed relativistic oscillator in a magnetic field.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def system(p: argparse.ArgumentParser) -> None:
        p.add_argument("--mu-x", type=float, default=0.0)
        p.add_argument("--mu-y", type=float, default=0.0)
        p.add_argument("--omega", type=float, default=1.0)
        p.add_argument("--omega-c", type=float, default=0.0)

    def sector_and_precision(p: argparse.ArgumentParser) -> None:
        p.add_argument("--sector", type=str, default="1,1", help="SX,SY with values +1/-1")
        p.add_argument("--precision", type=int, choices=range(6, 18), default=17,
                       metavar="6..17", help="significant digits of printed floats")

    p_spec = sub.add_parser("spectrum", help="tabulate bound energies")
    system(p_spec)
    sector_and_precision(p_spec)
    p_spec.add_argument("--format", dest="fmt", choices=("csv", "json"), default="csv")
    p_spec.add_argument("--negative-energies", action="store_true")
    p_spec.add_argument(
        "--n", type=str, default="0:2",
        help="mode index or range lo:hi (snaps to the half-odd ladder in mixed-parity sectors)",
    )
    p_spec.add_argument("--branch", choices=("+", "-", "both"), default="both")
    p_spec.add_argument("--k-max", type=int, default=2)

    p_wf = sub.add_parser("wavefunction", help="export a state on a polar grid as CSV")
    system(p_wf)
    sector_and_precision(p_wf)
    p_wf.add_argument("--n", type=str, default="1")
    p_wf.add_argument("--branch", choices=("+", "-"), default="+")
    p_wf.add_argument("--k", type=int, default=1)
    p_wf.add_argument("--grid-rho", type=int, default=12)
    p_wf.add_argument("--grid-phi", type=int, default=16)
    p_wf.add_argument("--energy", type=float, default=None,
                      help="free-particle energy (critical regime only)")

    p_ver = sub.add_parser("verify", help="run a verification suite, emit JSON")
    system(p_ver)
    p_ver.add_argument("--suite", choices=("kg", "angular", "ortho", "dirac", "nrlimit", "all"),
                       default="all")
    p_ver.add_argument("--tol", type=float, default=None)
    p_ver.add_argument("--h", type=float, default=DEFAULT_STEP)
    p_ver.add_argument("--n-max", type=float, default=2)
    p_ver.add_argument("--k-max", type=int, default=2)

    return parser


def _spectrum_rows(run: SpectrumRun):
    """Yield the table's rows one at a time, in output order."""
    regime = classify_regime(run.config)
    for n in run.n_values:
        for branch in run.branches:
            if n == 0 and (branch == -1 or run.sector != SectorLabel(1, 1)):
                continue  # n = 0 is a single mode, in sector (+1,+1) only
            mode = AngularMode(run.sector, n, branch, run.params)
            for k in range(run.k_max + 1):
                try:
                    e_up = energy(Component.UPPER, run.sector, mode, k, run.config, 1)
                except NegativeRadicandError:
                    e_up = None  # unphysical combination: marked, not dropped
                try:
                    kp_txt = str(pair_radial_indices(run.sector, regime, k, run.params))
                except InvalidPairError:
                    kp_txt = "invalid"
                row = {
                    "sector": f"{run.sector.s_x:+d}{run.sector.s_y:+d}",
                    "n": n,
                    "branch": "+" if branch == 1 else "-",
                    "k": k,
                    "k_prime": kp_txt,
                    "E_plus": e_up,
                    "regime": regime.value,
                }
                if run.negative_energies:
                    row["E_minus"] = None if e_up is None else -e_up
                yield row


def cmd_spectrum(run: SpectrumRun) -> int:
    out = sys.stdout
    if classify_regime(run.config) is Regime.CRITICAL:
        out.write("regime=critical: no discrete spectrum; use "
                  "'wavefunction --energy E' for free-particle states\n")
        return 0
    # Rows go out as they are produced, so memory stays flat in --k-max. The CSV
    # header or JSON "[" goes with the first row: an error before it prints nothing.
    if run.fmt == "json":
        sep = "["
        for row in _spectrum_rows(run):
            for key in ("E_plus", "E_minus"):
                if key in row:
                    v = row[key]
                    row[key] = "unphysical" if v is None else float(_fmt(v, run.precision))
            out.write(sep + json.dumps(row, sort_keys=True))
            sep = ", "
        out.write("[]\n" if sep == "[" else "]\n")
        return 0
    cols = ["sector", "n", "branch", "k", "k_prime", "E_plus"]
    if run.negative_energies:
        cols.append("E_minus")
    cols.append("regime")
    header = ",".join(cols) + "\n"
    for row in _spectrum_rows(run):
        cells = []
        for col in cols:
            v = row[col]
            if v is None:
                cells.append("unphysical")
            elif isinstance(v, float):
                cells.append(_fmt(v, run.precision))
            else:
                cells.append(str(v))
        out.write(header + ",".join(cells) + "\n")
        header = ""
    out.write(header)  # a table with no rows is its header alone
    return 0


def cmd_wavefunction(run: WavefunctionRun) -> int:
    out = sys.stdout
    mode, config = run.mode, run.config
    if classify_regime(config) is Regime.CRITICAL:
        if run.free_energy is None:
            raise ValueError("critical regime: supply --energy E >= m c^2")
        sol = free_particle(mode.sector, mode, run.free_energy, mode.params, config)
    else:
        sol = build_spinor(mode.sector, mode, run.k, config, 1)
    grid = GridSpec(run.grid_rho, run.grid_phi)
    rho, phi = grid.radii(config.length_scale), grid.angles()
    p = run.precision
    # One rho row at a time keeps memory linear in the grid sides; phi is
    # the same array on every row, so F(phi) is evaluated once. The header
    # goes out with the first row, so an evaluation error leaves stdout empty.
    header = "rho,phi,re_upper,im_upper,re_lower,im_lower\n"
    for r in rho:
        upper, lower = sol.upper.eval_polar(r, phi), sol.lower.eval_polar(r, phi)
        rs = _fmt(r, p)
        out.write(header + "".join(
            f"{rs},{_fmt(f, p)},{_fmt(u.real, p)},{_fmt(u.imag, p)},"
            f"{_fmt(lo.real, p)},{_fmt(lo.imag, p)}\n"
            for f, u, lo in zip(phi, upper, lower)
        ))
        header = ""
    return 0


def cmd_verify(run: VerifyRun) -> int:
    report = run_suite(
        run.params,
        run.config,
        suite=run.suite,
        tol=run.tol,
        h=run.h,
        n_max=run.n_max,
        k_max=run.k_max,
    )
    sys.stdout.write(json.dumps(report.to_dict(), sort_keys=True) + "\n")
    return 0 if report.passed else 1


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on usage errors
        return int(exc.code or 0)
    try:
        if args.command == "spectrum":
            code = cmd_spectrum(SpectrumRun.from_args(args))
        elif args.command == "wavefunction":
            code = cmd_wavefunction(WavefunctionRun.from_args(args))
        else:
            code = cmd_verify(VerifyRun.from_args(args))
        sys.stdout.flush()  # a reader that went away shows up here, not at exit
        return code
    except BrokenPipeError:
        # Point fd 1 at devnull so the interpreter's final flush cannot raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (ValueError, IntegralityError, InvalidPairError, NegativeRadicandError,
            RegimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
