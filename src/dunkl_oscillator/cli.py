"""Command-line front end: spectra, wavefunction grids, verification suites.

Output is deterministic: floats are printed with a fixed number of
significant digits (17 by default, enough to round-trip), rows come in a
fixed order, and files use UTF-8 with LF line endings and '.' decimals.
Stdout carries only the table or report; notes go to stderr. In the
critical regime ``spectrum`` prints an empty table (the CSV header alone,
or ``[]``), since there is no discrete spectrum.

Exit codes: 0 success, 1 at least one verification check failed or
stdout was closed early, 2 configuration error. Each flag's range is
checked by the parser, so an out-of-range value is a usage error (a usage
line, then ``argument --X: ...``) raised before any physics object is
built; the other configuration errors print ``error: ...`` (such as a
``wavefunction --n`` that selects more than one n, or an ``--energy``
outside the critical regime). In a mixed-parity sector a single integer
``--n`` means n + 1/2, and a range ``lo:hi`` starts at lo + 1/2.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from .angular_sector import AngularMode, SectorLabel
from .dunkl_calculus import DEFAULT_STEP, Component, DunklParams
from .solution_builder import (
    InvalidPairError,
    NegativeRadicandError,
    OscillatorConfig,
    Regime,
    build_spinor,
    check_norm_range,
    classify_regime,
    energy,
    free_particle,
    pair_radial_indices,
)
from .special_functions import MAX_DEGREE
from .verification import GridSpec, run_suite


def _fmt(value: float, precision: int) -> str:
    return format(value, f".{precision}g")


def _bounded(kind, low, high=math.inf, *, strict=False):
    """An argparse ``type=``: ``kind(text)``, finite and in [low, high]
    (``low`` itself excluded if ``strict``)."""

    def parse(text: str):
        value = kind(text)
        above = low < value if strict else low <= value
        if not (math.isfinite(value) and above and value <= high):
            span = f"{'>' if strict else '>='} {low}" + (f" and <= {high}" if high < math.inf else "")
            raise argparse.ArgumentTypeError(f"must be finite and {span}, got {text!r}")
        return value

    parse.__name__ = kind.__name__  # argparse names the type in "invalid int value"
    return parse


def _parse_sector(text: str) -> SectorLabel:
    """An argparse ``type=``: 'SX,SY' (parentheses allowed) with values +1/-1."""
    parts = text.replace("(", "").replace(")", "").split(",")
    try:
        return SectorLabel(*map(int, parts))  # TypeError unless there are two parts
    except (TypeError, ValueError):
        raise argparse.ArgumentTypeError(f"must be 'SX,SY' with values +1/-1, got {text!r}") from None


def _parse_n_values(text: str, sector: SectorLabel) -> list[float]:
    """The n ladder of ``--n lo[:hi]``: integers for equal-parity sectors,
    half-odds for mixed ones (an integer ``lo`` snaps up by 1/2 there, so a
    single integer n means n + 1/2)."""
    if ":" in text:
        lo, hi = (float(t) for t in text.split(":", 1))
    else:
        lo = hi = float(text)
    if not all(math.isfinite(v) and v <= MAX_DEGREE for v in (lo, hi)):
        raise ValueError(f"--n bounds must be finite and at most {MAX_DEGREE}, got {text!r}")
    offset = 0.0 if sector.epsilon == 1 else 0.5
    if offset and abs(lo - round(lo)) < 0.25:
        lo += offset  # half-odd family starts at 1/2
        if ":" not in text:
            hi = lo
    if lo < 0.0 or abs(lo - offset - round(lo - offset)) > 1e-9:
        ladder = "a natural number" if sector.epsilon == 1 else "a positive half-odd number"
        raise ValueError(f"--n {text!r}: n must be {ladder} in sector ({sector})")
    count = math.floor(hi - lo + 1e-9) + 1
    if count < 1:
        raise ValueError(f"--n {text!r} selects no mode index")
    return [lo + i for i in range(count)]


def _system(args: argparse.Namespace) -> tuple[DunklParams, OscillatorConfig]:
    """The physical system every subcommand's flags describe."""
    params = DunklParams(args.mu_x, args.mu_y)
    return params, OscillatorConfig(omega=args.omega, omega_c=args.omega_c)


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
        p.add_argument("--sector", type=_parse_sector, default="1,1", help="SX,SY with values +1/-1")
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
    p_spec.add_argument("--k-max", type=_bounded(int, 0), default=2)

    p_wf = sub.add_parser("wavefunction", help="export a state on a polar grid as CSV")
    system(p_wf)
    sector_and_precision(p_wf)
    p_wf.add_argument("--n", type=str, default="1")
    p_wf.add_argument("--branch", choices=("+", "-"), default="+")
    p_wf.add_argument("--k", type=_bounded(int, 0, MAX_DEGREE), default=1)
    p_wf.add_argument("--grid-rho", type=_bounded(int, 1), default=12)
    p_wf.add_argument("--grid-phi", type=_bounded(int, 1), default=16)
    p_wf.add_argument("--energy", type=float, default=None,
                      help="free-particle energy (critical regime only)")

    p_ver = sub.add_parser("verify", help="run a verification suite, emit JSON")
    system(p_ver)
    p_ver.add_argument("--suite", choices=("kg", "angular", "ortho", "dirac", "nrlimit", "all"),
                       default="all")
    p_ver.add_argument("--tol", type=_bounded(float, 0.0), default=None)
    p_ver.add_argument("--h", type=_bounded(float, 0.0, strict=True), default=DEFAULT_STEP)
    p_ver.add_argument("--n-max", type=_bounded(float, 0.0, MAX_DEGREE), default=2)
    p_ver.add_argument("--k-max", type=_bounded(int, 0, MAX_DEGREE), default=2)

    return parser


def _spectrum_rows(args: argparse.Namespace, params: DunklParams, config: OscillatorConfig,
                   n_values: list[float]):
    """Yield the table's rows one at a time, in output order."""
    sector, regime = args.sector, classify_regime(config)
    for n in n_values:
        for branch in {"+": [1], "-": [-1], "both": [1, -1]}[args.branch]:
            if n == 0 and (branch == -1 or sector != SectorLabel(1, 1)):
                continue  # n = 0 is a single mode, in sector (+1,+1) only
            mode = AngularMode(sector, n, branch, params)
            for k in range(args.k_max + 1):
                try:
                    e_up = energy(Component.UPPER, sector, mode, k, config, 1)
                except NegativeRadicandError:
                    e_up = None  # unphysical combination: marked, not dropped
                try:
                    kp_txt = str(pair_radial_indices(sector, regime, k, params))
                except InvalidPairError:
                    kp_txt = "invalid"
                row = {
                    "sector": f"{sector.s_x:+d}{sector.s_y:+d}",
                    "n": n,
                    "branch": "+" if branch == 1 else "-",
                    "k": k,
                    "k_prime": kp_txt,
                    "E_plus": e_up,
                    "regime": regime.value,
                }
                if args.negative_energies:
                    row["E_minus"] = None if e_up is None else -e_up
                yield row


def cmd_spectrum(args: argparse.Namespace) -> int:
    out = sys.stdout
    params, config = _system(args)
    n_values = _parse_n_values(args.n, args.sector)
    if classify_regime(config) is Regime.CRITICAL:
        print("regime=critical: no discrete spectrum; use "
              "'wavefunction --energy E' for free-particle states", file=sys.stderr)
        n_values = []  # the table has no rows
    rows = _spectrum_rows(args, params, config, n_values)
    # Rows go out as they are produced, so memory stays flat in --k-max. The CSV
    # header or JSON "[" goes with the first row: an error before it prints nothing.
    if args.fmt == "json":
        sep = "["
        for row in rows:
            for key in ("E_plus", "E_minus"):
                if key in row:
                    v = row[key]
                    row[key] = "unphysical" if v is None else float(_fmt(v, args.precision))
            out.write(sep + json.dumps(row, sort_keys=True))
            sep = ", "
        out.write("[]\n" if sep == "[" else "]\n")
        return 0
    cols = ["sector", "n", "branch", "k", "k_prime", "E_plus"]
    if args.negative_energies:
        cols.append("E_minus")
    cols.append("regime")
    header = ",".join(cols) + "\n"
    for row in rows:
        cells = []
        for col in cols:
            v = row[col]
            if v is None:
                cells.append("unphysical")
            elif isinstance(v, float):
                cells.append(_fmt(v, args.precision))
            else:
                cells.append(str(v))
        out.write(header + ",".join(cells) + "\n")
        header = ""
    out.write(header)  # a table with no rows is its header alone
    return 0


def cmd_wavefunction(args: argparse.Namespace) -> int:
    out = sys.stdout
    params, config = _system(args)
    n_values = _parse_n_values(args.n, args.sector)
    if len(n_values) != 1:
        raise ValueError(f"--n {args.n!r} selects {len(n_values)} mode indices; wavefunction exports one")
    mode = AngularMode(args.sector, n_values[0], 1 if args.branch == "+" else -1, params)
    if classify_regime(config) is Regime.CRITICAL:
        if args.energy is None:
            raise ValueError("critical regime: supply --energy E >= m c^2")
        sol = free_particle(mode.sector, mode, args.energy, params, config)
    elif args.energy is not None:
        raise ValueError("--energy applies only at the critical point")
    else:
        sol = build_spinor(mode.sector, mode, args.k, config, 1)
    grid = GridSpec(args.grid_rho, args.grid_phi)
    rho, phi = grid.radii(config.length_scale), grid.angles()
    p = args.precision
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


def cmd_verify(args: argparse.Namespace) -> int:
    params, config = _system(args)
    if args.suite in ("kg", "dirac", "all"):
        # the sweep builds its states lazily: a norm out of range fails here,
        # before the first check, not halfway through the records
        check_norm_range(params, config, args.n_max, args.k_max)
    report = run_suite(
        params,
        config,
        suite=args.suite,
        tol=args.tol,
        h=args.h,
        n_max=args.n_max,
        k_max=args.k_max,
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
            code = cmd_spectrum(args)
        elif args.command == "wavefunction":
            code = cmd_wavefunction(args)
        else:
            code = cmd_verify(args)
        sys.stdout.flush()  # a reader that went away shows up here, not at exit
        return code
    except BrokenPipeError:
        # Point fd 1 at devnull so the interpreter's final flush cannot raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except ValueError as exc:  # every configuration error of the package is one
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
