"""Command-line front end: spectra, wavefunction grids, verification suites.

Output is deterministic: floats are printed with a fixed number of
significant digits (17 by default, enough to round-trip), rows come in a
fixed order, and files use UTF-8 with LF line endings and '.' decimals.
Stdout carries only the table or report; notes go to stderr. One writer
sends each table and report out one block per write, the CSV header or
JSON ``[`` with the first. ``spectrum`` resolves each mode's first block
of k and its last k before that write, which settles every energy, and
keeps each first block; its CSV and JSON blocks are one %-template call
each over cells laid out in one cell order per format. So an unresolved
energy leaves stdout empty, the first byte does not wait on the table's
length, and memory stays flat in ``--k-max`` (at most 2^53) and linear in
the grid sides. In the critical regime ``spectrum`` prints an empty
table (the CSV header alone, or ``[]``), since there is no discrete
spectrum.

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
import functools
import itertools
import json
import math
import os
import sys

import numpy as np

from .angular_sector import AngularMode, SectorLabel, modes_for_sector
from .dunkl_calculus import DEFAULT_STEP, MIN_STEP, Component, DunklParams
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
from .verification import SUITE_NAMES, GridSpec, run_suite


def _bounded(kind, low, high=math.inf, *, strict=False):
    """An argparse ``type=``: ``kind(text)``, finite and in [low, high]
    (``low`` itself excluded if ``strict``)."""

    def parse(text: str):
        value = kind(text)
        above = low < value if strict else low <= value
        if not (above and value <= high and math.isfinite(value)):  # an int past high never meets float()
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
    if lo < 0.0 or not (lo - offset).is_integer():
        ladder = "a natural number" if sector.epsilon == 1 else "a positive half-odd number"
        raise ValueError(f"--n {text!r}: n must be {ladder} in sector ({sector})")
    count = math.floor(hi - lo) + 1
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
    p_spec.add_argument("--k-max", type=_bounded(int, 0, _MAX_SPECTRUM_K), default=2)

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
    p_ver.add_argument("--suite", choices=(*SUITE_NAMES, "all"), default="all")
    p_ver.add_argument("--tol", type=_bounded(float, 0.0), default=None)
    p_ver.add_argument("--h", type=_bounded(float, MIN_STEP), default=DEFAULT_STEP)
    p_ver.add_argument("--n-max", type=_bounded(float, 0.0, MAX_DEGREE), default=2)
    p_ver.add_argument("--k-max", type=_bounded(int, 0, MAX_DEGREE), default=2)

    return parser


_parser = functools.cache(build_parser)  # main builds the parser once per process


# Radial indices per energy column: memory stays flat in --k-max.
_K_BLOCK = 4096
# Largest spectrum --k-max, 2^53: the largest k a double holds exactly, so
# each row's energy is the one of its own k.
_MAX_SPECTRUM_K = 2**53
# Grid points per wavefunction evaluation, a block of whole rho rows (one
# row where a row alone is longer): memory stays linear in the grid sides.
_GRID_BLOCK = 4096
# Largest number of radii or angles of a wavefunction grid.
MAX_GRID_SIDE = 10**6
# Largest --mu-x and --mu-y; every suite was measured finite up to it. F(phi)
# grows like |cos phi|^-mu_x |sin phi|^-mu_y near the axes: from about
# mu = (500, 500) the ortho products overflow.
MAX_MU = 200.0


def _write(blocks, head: str = "", sep: str = "", tail: str = "") -> None:
    """The module's one writer to stdout: ``head`` with the first block,
    ``sep`` before each later block, ``tail`` at the end (``head + tail``
    with no blocks). Each block is one write as it comes, so a table
    streams and an error before the first block leaves stdout empty."""
    out, lead = sys.stdout, head
    for block in blocks:
        out.write(lead + block)
        lead, head = sep, ""
    out.write(head + tail)


def _spectrum_blocks(args: argparse.Namespace, params: DunklParams, config: OscillatorConfig,
                     modes: list[AngularMode], names: list[str]):
    """Yield the table's text, one string per mode of ``modes`` and block
    of k, in output order; ``names`` are the CSV columns, sorted as JSON keys.

    Each block's energies are one ``energy_column`` call. Before any row is
    written, each mode's first block and its last k are resolved, which
    raises for every energy that a double cannot resolve: a radicand can
    snap to 0 only at k <= (|mu_x| + |mu_y|)/2 + 1 <= 201, inside the first
    block, and the overflow bound grows with k. The write pass keeps each
    first block and computes each later block once. The k and k' cells are
    made once per table (later blocks': once per mode). A block of either
    format is one %-template call over its cells in the format's cell
    order; a NaN row has a template of its own that prints ``unphysical``."""
    sector, regime = args.sector, classify_regime(config)
    json_out, spec, end = args.fmt == "json", f".{args.precision}g", args.k_max + 1
    rounded = json_out and args.precision < 17
    if json_out:
        names = sorted(names)  # as json.dumps(row, sort_keys=True)
    order = [name for name in names if name in ("k", "E_plus", "E_minus")]  # a row's cells; k' rides in k's
    # per format: a k cell, an energy's slot, a NaN energy's slot (its "%.0s"
    # takes the value and prints nothing of it), a text cell, the row separator
    k_text, e_slot, nan_slot, text, row_sep = (('%d, "k_prime": "%s"', "%r", '"unphysical"%.0s', '"%s"', ", ")
                                               if json_out else ("%d,%s", f"%{spec}", "unphysical%.0s", "%s", ""))

    def k_cells(lo: int, hi: int) -> list[str]:
        offset = partner_offset(sector, regime, params)
        return [k_text % (k, k + offset if k + offset >= 0 else "invalid") for k in range(lo, hi)]

    def columns(mode: AngularMode, start: int = 0):  # (lo, E_plus) per block of k from start, made lazily
        return ((lo, energy_column(Component.UPPER, mode, np.arange(lo, min(lo + _K_BLOCK, end)), config))
                for lo in range(start, end, _K_BLOCK))

    def resolved(mode: AngularMode):  # the mode's first block, its last k resolved too
        first = next(columns(mode))
        if end > _K_BLOCK:
            next(columns(mode, end - 1))
        return first

    firsts = [resolved(mode) for mode in modes]
    first_ks = k_cells(0, min(_K_BLOCK, end)) if modes else []
    for mode, first in zip(modes, firsts):
        # n prints as a float (JSON 0.0, not 0), as --n parses it
        slots = {"sector": text % f"{sector.s_x:+d}{sector.s_y:+d}", "n": e_slot % float(mode.n), "k": "%s",
                 "branch": text % ("+" if mode.branch == 1 else "-"), "regime": text % regime.value,
                 "E_plus": e_slot, "E_minus": e_slot}
        fields = [f'"{name}": {slots[name]}' if json_out else slots[name] for name in names if name != "k_prime"]
        row = "{%s}" % ", ".join(fields) if json_out else ",".join(fields) + "\n"
        nan_row = row.replace(e_slot, nan_slot)  # its fixed cells hold no "%"
        for lo, column in itertools.chain([first], columns(mode, _K_BLOCK)):
            # json.dumps prints the rounded float's repr; 17 digits round-trip
            # every double, so there the rounding is the identity and is skipped
            plus = [float(format(v, spec)) for v in column.tolist()] if rounded else column.tolist()
            cells = {"k": first_ks if lo == 0 else k_cells(lo, lo + len(column)), "E_plus": plus,
                     "E_minus": [-v for v in plus] if args.negative_energies else None}
            flat = [None] * (len(order) * len(column))
            for i, name in enumerate(order):
                flat[i::len(order)] = cells[name]
            rows = [row] * len(column)
            for j in np.flatnonzero(np.isnan(column)).tolist():
                rows[j] = nan_row
            yield row_sep.join(rows) % tuple(flat)


def cmd_spectrum(args: argparse.Namespace) -> int:
    params, config = _system(args)
    n_values = _parse_n_values(args.n, args.sector)
    branches = {"+": (1,), "-": (-1,), "both": (1, -1)}[args.branch]
    modes = [mode for mode in modes_for_sector(args.sector, params, n_values[-1])
             if mode.n >= n_values[0] and mode.branch in branches]
    if classify_regime(config) is Regime.CRITICAL:
        print("regime=critical: no discrete spectrum; use "
              "'wavefunction --energy E' for free-particle states", file=sys.stderr)
        modes = []  # the table has no rows
    names = ["sector", "n", "branch", "k", "k_prime", "E_plus", *["E_minus"] * args.negative_energies, "regime"]
    blocks = _spectrum_blocks(args, params, config, modes, names)
    _write(blocks, *(("[", ", ", "]\n") if args.fmt == "json" else (",".join(names) + "\n",)))
    return 0


def cmd_wavefunction(args: argparse.Namespace) -> int:
    params, config = _system(args)
    n_values = _parse_n_values(args.n, args.sector)
    if len(n_values) != 1:
        raise ValueError(f"--n {args.n!r} selects {len(n_values)} mode indices; wavefunction exports one")
    mode = AngularMode(args.sector, n_values[0], 1 if args.branch == "+" else -1, params)
    if args.energy is not None:  # free_particle rejects a non-critical regime
        sol = free_particle(mode, args.energy, config)
    elif classify_regime(config) is Regime.CRITICAL:
        raise ValueError("critical regime: supply --energy E >= m c^2")
    else:
        sol = build_spinor(mode, args.k, config)
    grid = GridSpec(args.grid_rho, args.grid_phi)
    rho, phi = grid.radii(config.length_scale), grid.angles()
    spec = f".{args.precision}g"
    # Each component is evaluated once per block of whole rho rows, the
    # radius column against the angle row, so memory stays linear in the
    # grid sides. The phi cells are formatted once per grid into a line
    # template, so a rho row's lines are one %-template call and one write.
    lines = [f",{format(f, spec)},%{spec},%{spec},%{spec},%{spec}\n" for f in phi.tolist()]
    step = max(1, _GRID_BLOCK // phi.size)

    def rho_rows():
        for lo in range(0, rho.size, step):
            r = rho[lo:lo + step, None]
            upper, lower = sol.upper.eval_polar(r, phi[None, :]), sol.lower.eval_polar(r, phi[None, :])
            values = np.stack((upper.real, upper.imag, lower.real, lower.imag), axis=-1).reshape(len(r), -1)
            for rv, row in zip(r[:, 0].tolist(), values):
                rs = format(rv, spec)  # the rho cell opens each line
                yield rs + (rs.join(lines) % tuple(row.tolist()))

    _write(rho_rows(), "rho,phi,re_upper,im_upper,re_lower,im_lower\n")
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    report = run_suite(*_system(args), suite=args.suite, tol=args.tol, h=args.h, n_max=args.n_max,
                       k_max=args.k_max)
    if args.suite in ("kg", "dirac", "all") and not any(r.name.startswith(("kg", "dirac")) for r in report.records):
        print(f"note: the sweep to --n-max {args.n_max:g} --k-max {args.k_max} has no bound state, "
              "so no kg or dirac check ran", file=sys.stderr)
    _write([json.dumps(report.to_dict(), sort_keys=True, allow_nan=False) + "\n"])
    return 0 if report.passed else 1


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
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
