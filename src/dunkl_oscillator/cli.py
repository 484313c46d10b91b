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

import numpy as np

from .angular_sector import AngularMode, SectorLabel
from .dunkl_calculus import DEFAULT_STEP, Component, DunklParams
from .solution_builder import (
    OscillatorConfig,
    Regime,
    build_spinor,
    classify_regime,
    energy_column,
    free_particle,
    partner_offset,
)
from .special_functions import MAX_DEGREE
from .verification import GridSpec, run_suite, sweep_bound_states


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
        p.add_argument("--mu-x", type=_bounded(float, -0.5, MAX_MU), default=0.0)
        p.add_argument("--mu-y", type=_bounded(float, -0.5, MAX_MU), default=0.0)
        p.add_argument("--omega", type=_bounded(float, 0.0), default=1.0)
        p.add_argument("--omega-c", type=_bounded(float, 0.0), default=0.0)

    def sector_and_precision(p: argparse.ArgumentParser) -> None:
        p.add_argument("--sector", type=_parse_sector, default="1,1",
                       help="SX,SY with values +1/-1; a value that starts with '-' needs the '=' form, "
                       "as in --sector=-1,-1")
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
    p_wf.add_argument("--grid-rho", type=_bounded(int, 1, MAX_GRID_SIDE), default=12)
    p_wf.add_argument("--grid-phi", type=_bounded(int, 1, MAX_GRID_SIDE), default=16)
    p_wf.add_argument("--energy", type=_bounded(float, 0.0, strict=True), default=None,
                      help="free-particle energy, >= m c^2 (critical regime only)")

    p_ver = sub.add_parser("verify", help="run a verification suite, emit JSON")
    system(p_ver)
    p_ver.add_argument("--suite", choices=("kg", "angular", "ortho", "dirac", "nrlimit", "all"),
                       default="all")
    p_ver.add_argument("--tol", type=_bounded(float, 0.0), default=None)
    p_ver.add_argument("--h", type=_bounded(float, MIN_STEP), default=DEFAULT_STEP)
    p_ver.add_argument("--n-max", type=_bounded(float, 0.0, MAX_DEGREE), default=2)
    p_ver.add_argument("--k-max", type=_bounded(int, 0, MAX_DEGREE), default=2)

    return parser


# Radial indices per energy column: memory stays flat in --k-max.
_K_BLOCK = 4096
# Grid points per wavefunction evaluation, a block of whole rho rows (one
# row where a row alone is longer): memory stays linear in the grid sides.
_GRID_BLOCK = 4096
# Largest number of radii or angles of a wavefunction grid.
MAX_GRID_SIDE = 10**6
# Largest --mu-x and --mu-y; every suite was measured finite up to it. F(phi)
# grows like |cos phi|^-mu_x |sin phi|^-mu_y near the axes: from about
# mu = (500, 500) the ortho products overflow.
MAX_MU = 200.0
# Smallest --h: the second differences divide by h^2, a normal double from 2^-511.
MIN_STEP = 2.0**-511


def _spectrum_blocks(args: argparse.Namespace, params: DunklParams, config: OscillatorConfig,
                     n_values: list[float]):
    """Yield the table's text, one string per mode and block of k, in
    output order. Each block's energies are one ``energy_column`` call. The
    k and k' cells depend on the sector, the regime and mu only: the first
    block's are made once per table, later blocks' once per mode. A CSV
    block is one %-template call over its interleaved (k cells, E) values,
    whose rare NaN rows have a template of their own that prints
    ``unphysical``.

    Every energy is resolved before the first block is yielded, so an
    energy that a double cannot resolve raises before any row is written.
    A table of one block per mode keeps its columns; a longer one is
    checked in a pass of its own, so memory stays flat in ``--k-max``."""
    sector, regime = args.sector, classify_regime(config)
    modes = [AngularMode(sector, n, branch, params) for n in n_values
             for branch in {"+": [1], "-": [-1], "both": [1, -1]}[args.branch]
             if n != 0 or (branch == 1 and sector == SectorLabel(1, 1))]  # n = 0 is a single mode
    json_out, spec, sx = args.fmt == "json", f".{args.precision}g", f"{sector.s_x:+d}{sector.s_y:+d}"
    # json.dumps prints the rounded float's repr
    text = lambda v: '"unphysical"' if math.isnan(v) else repr(float(format(v, spec)))
    width = 2 + args.negative_energies  # CSV cells per row from k on: k cells, E_plus[, E_minus]

    def k_cells(lo: int, hi: int) -> list[str]:
        offset = partner_offset(sector, regime, params)
        pairs = ((k, k + offset if k + offset >= 0 else "invalid") for k in range(lo, hi))
        return [f'{k}, "k_prime": "{kp}"' if json_out else f"{k},{kp}," for k, kp in pairs]

    spans = [(lo, min(lo + _K_BLOCK, args.k_max + 1)) for lo in range(0, args.k_max + 1, _K_BLOCK)]

    def columns(mode: AngularMode):
        return (energy_column(Component.UPPER, mode, np.arange(lo, hi), config, 1) for lo, hi in spans)

    kept = [list(columns(mode)) for mode in modes] if len(spans) == 1 else None
    for mode in modes if kept is None else ():
        for _ in columns(mode):
            pass
    first = k_cells(*spans[0]) if modes else []
    for i, mode in enumerate(modes):
        b = "+" if mode.branch == 1 else "-"
        for (lo, hi), column in zip(spans, columns(mode) if kept is None else kept[i]):
            ks = first if lo == 0 else k_cells(lo, hi)
            if json_out:  # keys in sorted order, as json.dumps(row, sort_keys=True)
                column = column.tolist()
                es = [f'"E_plus": {text(v)}' for v in column]
                if args.negative_energies:
                    es = [f'"E_minus": {text(-v)}, {e}' for v, e in zip(column, es)]
                tail = f', "n": {json.dumps(mode.n)}, "regime": "{regime.value}", "sector": "{sx}"}}'
                yield ", ".join([f'{{{e}, "branch": "{b}", "k": {kc}{tail}' for e, kc in zip(es, ks)])
                continue
            head, tail = f"{sx},{format(mode.n, spec)},{b},", f",{regime.value}\n"
            cells = [None] * (width * len(ks))
            cells[0::width], cells[1::width] = ks, column.tolist()
            if args.negative_energies:
                cells[2::width] = (-column).tolist()
            # a NaN row's "%.0s" takes its value and prints nothing of it
            row, nan_row = (head + "%s" + ",".join([e] * (width - 1)) + tail for e in (f"%{spec}", "unphysical%.0s"))
            rows = [row] * len(ks)
            for j in np.flatnonzero(np.isnan(column)).tolist():
                rows[j] = nan_row
            yield "".join(rows) % tuple(cells)


def cmd_spectrum(args: argparse.Namespace) -> int:
    out = sys.stdout
    params, config = _system(args)
    n_values = _parse_n_values(args.n, args.sector)
    if classify_regime(config) is Regime.CRITICAL:
        print("regime=critical: no discrete spectrum; use "
              "'wavefunction --energy E' for free-particle states", file=sys.stderr)
        n_values = []  # the table has no rows
    blocks = _spectrum_blocks(args, params, config, n_values)
    # Each block goes out in one write as it is produced, so memory stays
    # flat in --k-max. The CSV header or JSON "[" goes with the first block,
    # which comes after every energy is resolved: an error prints nothing.
    if args.fmt == "json":
        sep = "["
        for block in blocks:
            out.write(sep + block)
            sep = ", "
        out.write("[]\n" if sep == "[" else "]\n")
        return 0
    header = ",".join(["sector,n,branch,k,k_prime,E_plus", *["E_minus"] * args.negative_energies, "regime\n"])
    for block in blocks:
        out.write(header + block)
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
    if args.energy is not None:  # free_particle rejects a non-critical regime
        sol = free_particle(mode.sector, mode, args.energy, params, config)
    elif classify_regime(config) is Regime.CRITICAL:
        raise ValueError("critical regime: supply --energy E >= m c^2")
    else:
        sol = build_spinor(mode.sector, mode, args.k, config, 1)
    grid = GridSpec(args.grid_rho, args.grid_phi)
    rho, phi = grid.radii(config.length_scale), grid.angles()
    spec = f".{args.precision}g"
    # Each component is evaluated once per block of whole rho rows, the
    # radius column against the angle row, so memory stays linear in the
    # grid sides. The phi cells are formatted once per grid into a line
    # template, so a rho row's lines are one %-template call and one write.
    # The header goes out with the first row, after the first block is
    # evaluated, so an evaluation error leaves stdout empty.
    lines = [f",{format(f, spec)},%{spec},%{spec},%{spec},%{spec}\n" for f in phi.tolist()]
    step = max(1, _GRID_BLOCK // phi.size)
    header = "rho,phi,re_upper,im_upper,re_lower,im_lower\n"
    for lo in range(0, rho.size, step):
        r = rho[lo:lo + step, None]
        upper, lower = sol.upper.eval_polar(r, phi[None, :]), sol.lower.eval_polar(r, phi[None, :])
        values = np.stack((upper.real, upper.imag, lower.real, lower.imag), axis=-1).reshape(len(r), -1)
        for rv, row in zip(r[:, 0].tolist(), values):
            rs = format(rv, spec)  # the rho cell opens each line
            out.write(header + rs + (rs.join(lines) % tuple(row.tolist())))
            header = ""
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    params, config = _system(args)
    if args.suite in ("kg", "dirac", "all") and classify_regime(config) is not Regime.CRITICAL:
        # building the sweep's states evaluates no field: a norm or radial
        # index out of range fails here, before the first check, not halfway
        # through the records
        for _ in sweep_bound_states(params, config, args.n_max, args.k_max):
            pass
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
