"""Command-line front end: every module's tables and checks as CSV or JSON.

Subcommands:

* spectrum: interval energy levels against the wall parameter, by default
  201 samples uniform in arctan(gamma L / 2) with energies scaled by
  2 m L^2 / pi^2 (so the Dirichlet endpoint reads 1, 4, 9, 16, 25).
* dot: finite-difference eigenvalues, uncertainty slacks, and spectral-flow
  checks for a gridded region (built-in shape or mask file); a level prints
  no flow where ``qdot_fd.spectral_flow_check`` returns None.
* scatter: half-line reflection phase shift over a wavenumber grid.
* wall: thin-square-well approximations of a Robin wall over a width list.
* hetero: junction-matrix validation verdict with identity residuals.
* dirac: domain-wall dispersion summary over an extension-parameter scan.

Output conventions: CSV always starts with a header row; JSON documents
carry "schema": 1.  CSV prints floats with 17 significant digits, JSON with
the shortest repr that reads back as the same double; both round-trip
exactly, and a given configuration reproduces byte-identical output.
Non-finite numbers appear as inf/-inf/nan in CSV and as the strings
"inf"/"-inf"/"nan" in JSON (which has no literal for them).  Diagnostics go
to stderr; data goes to stdout or the --output file.  Exit codes: 0 success,
2 usage or invalid configuration, 3 unreadable input or unwritable output,
4 solver failure.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
from itertools import chain
from json.encoder import encode_basestring_ascii
from typing import NamedTuple

# Before numpy and scipy load OpenBLAS: one thread unless the user set a count.  The dot
# path's small dense products run faster so, and their bits then follow no core count.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np

from . import box1d, dirac_wall, hetero, wall_models
from .errors import GridIOError, InvalidArgumentError, LabError, SolverFailureError

__all__ = ["build_parser", "main"]

SCHEMA_VERSION = 1
_SPECTRUM_LEVELS = 5


# ---------------------------------------------------------------------------
# rendering
#
# Every cmd_* returns (table, doc): the CSV table and the JSON body without
# "schema" and "command".  Each writer renders a whole _Table through one %
# template, so a float64 array column costs one tolist() and one formatting
# pass (%.17g in CSV, float.__repr__ in JSON) and no per-row Python work.
# _json writes the bytes json.dumps(body, indent=2) gives once tuples are
# lists and scalars follow _scalar, without the pure-Python encoder that
# json.dumps runs whenever indent is set.


class _Table(NamedTuple):
    """Columns of one length under keys; a column is a float64 ndarray or a
    sequence of cells of any kind _scalar takes (str, None, int, float).

    In CSV the keys are the header, one per column.  In JSON each row is an
    object: key i holds the row's cell of the next column, and a key (name, n)
    holds the next n columns' cells as a list.  A table without columns has
    no rows.
    """

    keys: list
    columns: list

    @property
    def row_count(self) -> int:
        return len(self.columns[0]) if self.columns else 0


def _fmt(value: float) -> str:
    return f"{float(value):.17g}"


def _csv(table: _Table) -> str:
    slots, columns = [], []
    for column in table.columns:
        if isinstance(column, np.ndarray):
            slots.append("%.17g")  # inf, -inf and nan print as _fmt prints them
            columns.append(column.tolist())
        else:
            slots.append("%s")
            columns.append(["" if c is None else c if isinstance(c, str) else _fmt(c) for c in column])
    lines = [",".join(table.keys).replace("%", "%%")] + [",".join(slots)] * table.row_count
    return "\n".join(lines) % tuple(chain.from_iterable(zip(*columns))) + "\n"


def _scalar(value) -> str:
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None or isinstance(value, bool):
        return "null" if value is None else "true" if value else "false"
    if isinstance(value, int):
        return int.__repr__(value)
    value = float(value)  # numpy scalars too
    if math.isfinite(value):
        return float.__repr__(value)
    return '"nan"' if math.isnan(value) else '"inf"' if value > 0 else '"-inf"'


def _wrap(opening: str, items: list, closing: str, indent: str) -> str:
    if not items:
        return opening + closing
    inner = indent + "  "
    return opening + inner + ("," + inner).join(items) + indent + closing


def _json_cells(column) -> list:
    if not isinstance(column, np.ndarray):
        return list(map(_scalar, column))
    cells = list(map(float.__repr__, column.tolist()))
    for i in np.flatnonzero(~np.isfinite(column)).tolist():
        cells[i] = _scalar(column[i])
    return cells


def _table_rows(table: _Table, indent: str) -> str:
    """table as a JSON array of one object per row, on a line indented by indent.

    One % fills a template of every row.  An array column's cells are its
    float.__repr__ strings, with the non-finite ones np.isfinite finds
    swapped for _scalar's strings; a list column's cells go through _scalar."""
    fields = []
    for key in table.keys:
        name, n = (key, None) if isinstance(key, str) else key
        value = "%s" if n is None else _wrap("[", ["%s"] * n, "]", indent + "    ")
        fields.append(encode_basestring_ascii(name).replace("%", "%%") + ": " + value)
    row = _wrap("{", fields, "}", indent + "  ")
    cells = chain.from_iterable(zip(*map(_json_cells, table.columns)))
    return _wrap("[", [row] * table.row_count, "]", indent) % tuple(cells)


def _json(value, indent: str = "\n") -> str:
    """value as JSON; indent is the newline and indentation of the line it starts on."""
    inner = indent + "  "
    if isinstance(value, dict):
        items = [f"{encode_basestring_ascii(k)}: {_json(v, inner)}" for k, v in value.items()]
        return _wrap("{", items, "}", indent)
    if isinstance(value, _Table):
        return _table_rows(value, indent)
    if isinstance(value, (list, tuple)):
        return _wrap("[", [_json(v, inner) for v in value], "]", indent)
    return _scalar(value)


def _render(params: dict, table: _Table, doc) -> str:
    if params["format"] == "csv":
        return _csv(table)
    return _json({"schema": SCHEMA_VERSION, "command": params["subcommand"], **doc}) + "\n"


# ---------------------------------------------------------------------------
# sweeps


_tan = np.vectorize(math.tan, otypes=[float])


def _arctan_samples(params: dict, name: str, scale: float):
    """(x, value) arrays of the --<name> samples, uniform in x = arctan(value * scale).

    A single --<name> gives one sample; otherwise --<name>-steps samples run
    from --<name>-min to --<name>-max, each end defaulting to the matching
    infinity; a NaN single value is rejected.  An x that reaches +-pi/2 (the
    float value) maps to +-inf: for the wall parameter that is the Dirichlet
    spectrum, which is also the correct limit for any gamma too large to
    distinguish from the wall at double precision.  value is math.tan(x) / scale,
    since np.tan may round differently.
    """
    single = params.get(name)
    if single is not None:
        if math.isnan(single):
            raise InvalidArgumentError(f"{name} must not be NaN")
        return np.array([math.atan(single * scale)]), np.array([single])
    steps = params[f"{name}_steps"]
    if steps < 2:
        article = "an" if name[0] in "aeiou" else "a"
        raise InvalidArgumentError(f"{article} {name} sweep needs at least 2 steps, got {steps}")
    half_pi = math.pi / 2.0
    lo, hi = params[f"{name}_min"], params[f"{name}_max"]
    x_lo = -half_pi if lo is None else math.atan(lo * scale)
    x_hi = half_pi if hi is None else math.atan(hi * scale)
    if not x_lo < x_hi:
        raise InvalidArgumentError(f"empty {name} range: min {lo} does not lie below max {hi}")
    t = np.arange(steps) / (steps - 1)
    x = x_lo * (1.0 - t) + x_hi * t
    with np.errstate(over="ignore"):
        value = _tan(x) / scale
    value[x <= -half_pi] = -math.inf
    value[x >= half_pi] = math.inf
    return x, value


# ---------------------------------------------------------------------------
# spectrum


def cmd_spectrum(params: dict):
    m, L = params["mass"], params["length"]
    box1d.BoxSpec(m=m, L=L, gamma=0.0)  # reject a bad m or L before sampling divides by L
    raw = params["raw_units"]
    scale = 1.0 if raw else 2.0 * (m * L * L) / math.pi**2
    x, gamma = _arctan_samples(params, "gamma", L / 2.0)
    energies = box1d._levels(m, L, gamma, _SPECTRUM_LEVELS)[1]
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite product exits 2 below
        energies = energies * scale
    if not np.isfinite(energies).all():
        i, n = np.argwhere(~np.isfinite(energies))[0]
        raise InvalidArgumentError(
            f"level {n} at gamma={gamma[i]} has a scaled energy beyond double precision; try --raw-units"
        )
    energies = list(energies.T)
    header = ["gamma" if raw else "arctan_half_gamma_L"]
    header += [f"e{n}" for n in range(_SPECTRUM_LEVELS)]
    doc = {
        "mass": m,
        "length": L,
        "units": "raw" if raw else "scaled_2mL2_over_pi2",
        "rows": _Table(["arctan_half_gamma_L", "gamma", ("energies", _SPECTRUM_LEVELS)], [x, gamma, *energies]),
    }
    return _Table(header, [gamma if raw else x, *energies]), doc


# ---------------------------------------------------------------------------
# dot


def _dot_grid(params: dict):
    from . import qdot_fd

    try:
        n, length, second = params["resolution"], params["length"], params["length2"]
        if params["grid"]:
            if (n, length, second) != (None, None, None):
                raise InvalidArgumentError("--resolution, --length and --length2 do not apply to --grid")
            return qdot_fd.read_grid(params["grid"]), {"grid_file": params["grid"]}
        shape = params["shape"]
        n = 64 if n is None else n
        length = 1.0 if length is None else length
        if second is not None and shape in ("interval", "disk"):
            raise InvalidArgumentError("--length2 applies to rect and annulus only")
        if shape == "interval":
            return qdot_fd.interval_grid(length, n), {"shape": "interval", "length": length}
        if shape == "rect":
            other = length if second is None else second
            return qdot_fd.rect_grid(length, other, n), {
                "shape": "rect",
                "length": length,
                "length2": other,
            }
        if shape == "disk":
            return qdot_fd.disk_grid(length, n), {"shape": "disk", "radius": length}
        inner = 0.5 * length if second is None else second  # annulus, the last --shape choice
        return qdot_fd.annulus_grid(inner, length, n), {
            "shape": "annulus",
            "inner_radius": inner,
            "outer_radius": length,
        }
    except MemoryError:
        raise InvalidArgumentError("the dot grid is too large to allocate") from None


def cmd_dot(params: dict):
    from . import qdot_fd  # only dot loads scipy

    grid, described = _dot_grid(params)
    gamma, m, count = params["gamma"], params["mass"], params["count"]
    ham = qdot_fd.build_hamiltonian(grid, gamma, m)
    if not 1 <= count <= grid.n_cells:
        raise InvalidArgumentError(f"count must be in [1, {grid.n_cells}], got {count}")
    # one level more than printed, so the flow check sees the top level's gap
    energies, vectors = qdot_fd.solve_lowest(ham, min(count + 1, grid.n_cells))
    flows = qdot_fd.spectral_flow_check(ham, energies, vectors)

    rows = []
    for n in range(count):
        mom = qdot_fd.moments(grid, gamma, vectors[:, n])
        rep = qdot_fd.uncertainty_general(mom)
        lhs, rhs = flows[n] or (None, None)
        rows.append([n, float(energies[n]), rep.slack_general, rep.slack_nonhermitean, lhs, rhs])

    header = ["n", "energy", "slack_general", "slack_nonhermitean", "flow_lhs", "flow_rhs"]
    levels = [
        {**dict(zip(header, row)), "flow": None if lhs is None else {"lhs": lhs, "rhs": rhs}}
        for *row, lhs, rhs in rows
    ]
    doc = {
        **described,
        "gamma": gamma,
        "mass": m,
        "cells": grid.n_cells,
        "spacing": grid.h,
        "levels": levels,
    }
    return _Table(header, list(zip(*rows))), doc


# ---------------------------------------------------------------------------
# scatter


def cmd_scatter(params: dict):
    gamma = params["gamma"]
    k_min, k_max, steps = params["k_min"], params["k_max"], params["k_steps"]
    if steps < 1:
        raise InvalidArgumentError(f"k-steps must be >= 1, got {steps}")
    if not (math.isfinite(k_min) and k_min > 0):
        raise InvalidArgumentError(f"k-min must be positive and finite, got {k_min}")
    if steps == 1:
        ks = [k_min]
    else:
        if not k_min < k_max:
            raise InvalidArgumentError(f"empty wavenumber range [{k_min}, {k_max}]")
        with np.errstate(over="ignore", invalid="ignore"):  # reflection rejects the inf and nan
            ks = k_min + (k_max - k_min) * np.arange(steps) / (steps - 1)
    r = wall_models.reflection(ks, gamma)
    table = _Table(["k", "phase_shift", "re_R", "im_R"], [r.k, r.delta, r.R.real, r.R.imag])
    return table, {"gamma": gamma, "rows": table}


# ---------------------------------------------------------------------------
# wall


def cmd_wall(params: dict):
    gamma, m = params["gamma"], params["mass"]
    try:
        widths = [float(tok) for tok in params["epsilons"].split(",") if tok.strip()]
    except ValueError:
        raise InvalidArgumentError(
            f"--epsilons must be a comma-separated float list, got {params['epsilons']!r}"
        ) from None
    if not widths:
        raise InvalidArgumentError("--epsilons list is empty")
    rows = []
    for eps in widths:
        well = wall_models.square_well_parameters(gamma, eps, m)
        eff = wall_models.effective_gamma(well, m)
        rows.append([eps, well.V0, well.q, eff, eff - gamma])
    header = ["epsilon", "well_depth", "well_wavenumber", "effective_gamma", "error"]
    table = _Table(header, list(zip(*rows)))
    return table, {"gamma": gamma, "mass": m, "rows": table}


# ---------------------------------------------------------------------------
# hetero


def cmd_hetero(params: dict):
    path = params["matrix"]
    entries = hetero.parse_interface_file(path)
    residuals = [
        {"identity": name, "residual": abs(value)}
        for name, value in hetero.bilinear_residuals(entries)
    ]
    try:
        matrix = hetero.validate_interface(entries)
        verdict, reason, theta = "accepted", None, matrix.theta
    except LabError as exc:
        verdict, reason, theta = "rejected", str(exc), None
    rows = [["verdict", verdict], ["theta", theta]]
    rows += [[r["identity"], r["residual"]] for r in residuals]
    doc = {
        "file": str(path),
        "verdict": verdict,
        "reason": reason,
        "theta": theta,
        "residuals": residuals,
    }
    return _Table(["name", "value"], list(zip(*rows))), doc


# ---------------------------------------------------------------------------
# dirac


def cmd_dirac(params: dict):
    eta = _arctan_samples(params, "eta", 1.0)[1]
    sin_phi, cos_phi = dirac_wall._mixing_parts(eta)
    # with p in units of m c, E/(m c^2) = sin(phi) - cos(phi) p, and the
    # decay rate/(m c) = cos(phi) + sin(phi) p changes sign at p = -cos/sin
    with np.errstate(divide="ignore", over="ignore"):
        threshold = np.where(sin_phi != 0.0, -cos_phi / sin_phi, np.where(cos_phi > 0.0, -np.inf, np.inf))
    side = np.select([sin_phi > 0.0, sin_phi < 0.0, cos_phi > 0.0], ["above", "below", "all"], "none")
    header = [
        "eta",
        "speed_over_c",
        "chemical_potential_over_mc2",
        "threshold_momentum_over_mc",
        "normalizable_side",
    ]
    table = _Table(header, [eta, np.abs(cos_phi), sin_phi, threshold, side.tolist()])
    return table, {"rows": table}


# ---------------------------------------------------------------------------
# wiring


def _add_output_flags(sub: argparse.ArgumentParser, default_format: str = "csv"):
    sub.add_argument(
        "--format", choices=("csv", "json"), default=default_format, help="output format"
    )
    sub.add_argument("--output", default=None, help="write to this file instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sae-lab",
        description="Robin-wall spectra, quantum-dot checks, junction and "
        "relativistic-wall tables as CSV or JSON.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    sp = sub.add_parser(
        "spectrum",
        help="interval levels against the wall parameter",
        description="Five lowest interval levels over a wall-parameter sweep, "
        "sampled uniformly in arctan(gamma L / 2); energies scaled by "
        "2 m L^2 / pi^2 unless --raw-units is given.",
    )
    sp.add_argument("--mass", type=float, default=1.0, help="particle mass (default 1)")
    sp.add_argument("--length", type=float, default=1.0, help="box length (default 1)")
    sp.add_argument("--gamma", type=float, default=None, help="single wall parameter instead of a sweep")
    sp.add_argument("--gamma-min", type=float, default=None, help="sweep start (default -inf)")
    sp.add_argument("--gamma-max", type=float, default=None, help="sweep end (default +inf)")
    sp.add_argument("--gamma-steps", type=int, default=201, help="sweep sample count (default 201)")
    sp.add_argument("--raw-units", action="store_true", help="emit gamma and unscaled energies")
    _add_output_flags(sp)

    dot = sub.add_parser(
        "dot",
        help="finite-difference region report",
        description="Eigenvalues, uncertainty slacks, and spectral-flow checks "
        "for a gridded region.",
    )
    dot.add_argument("--grid", default=None, help="mask file (overrides --shape)")
    dot.add_argument(
        "--shape", choices=("interval", "rect", "disk", "annulus"), default="disk",
        help="built-in region (default disk)",
    )
    dot.add_argument(
        "--resolution", type=int, default=None,
        help="cells across the primary dimension (default 64)",
    )
    dot.add_argument(
        "--length", type=float, default=None,
        help="interval length / rectangle first side / disk radius / annulus outer radius",
    )
    dot.add_argument(
        "--length2", type=float, default=None,
        help="rectangle second side (default: square) or annulus inner radius "
        "(default: half the outer)",
    )
    dot.add_argument("--gamma", type=float, default=0.0, help="uniform wall parameter (default 0)")
    dot.add_argument("--mass", type=float, default=1.0, help="particle mass (default 1)")
    dot.add_argument("--count", type=int, default=5, help="number of levels (default 5)")
    _add_output_flags(dot, default_format="json")

    sc = sub.add_parser(
        "scatter",
        help="reflection phase shift table",
        description="Half-line reflection phase shift and amplitude over a "
        "wavenumber grid.",
    )
    sc.add_argument("--gamma", type=float, default=1.0, help="wall parameter (default 1)")
    sc.add_argument("--k-min", type=float, default=0.1, help="first wavenumber (default 0.1)")
    sc.add_argument("--k-max", type=float, default=10.0, help="last wavenumber (default 10)")
    sc.add_argument("--k-steps", type=int, default=100, help="sample count (default 100)")
    _add_output_flags(sc)

    wl = sub.add_parser(
        "wall",
        help="thin-well approximation table",
        description="Square-well parameters that mimic a Robin wall, with the "
        "effective wall parameter actually produced at each width.",
    )
    wl.add_argument("--gamma", type=float, default=2.0, help="target wall parameter (default 2)")
    wl.add_argument("--mass", type=float, default=1.0, help="particle mass (default 1)")
    wl.add_argument(
        "--epsilons", default="0.02,0.01,0.005,0.0025",
        help="comma-separated well widths (default 0.02,0.01,0.005,0.0025)",
    )
    _add_output_flags(wl)

    he = sub.add_parser(
        "hetero",
        help="junction matrix verdict",
        description="Validate a junction matrix file and report the four "
        "probability-conservation identity residuals.",
    )
    he.add_argument("--matrix", required=True, help="junction matrix JSON file")
    _add_output_flags(he, default_format="json")

    dr = sub.add_parser(
        "dirac",
        help="domain-wall dispersion summary",
        description="Drift speed, chemical potential, and normalizability "
        "threshold of domain-wall modes, in units of c, m c^2 and m c, over "
        "an extension-parameter scan sampled uniformly in arctan(eta).",
    )
    dr.add_argument("--eta", type=float, default=None, help="single extension parameter instead of a scan")
    dr.add_argument("--eta-min", type=float, default=None, help="scan start (default -inf)")
    dr.add_argument("--eta-max", type=float, default=None, help="scan end (default +inf)")
    dr.add_argument("--eta-steps", type=int, default=41, help="scan sample count (default 41)")
    _add_output_flags(dr)

    return parser


_DISPATCH = {
    "spectrum": cmd_spectrum,
    "dot": cmd_dot,
    "scatter": cmd_scatter,
    "wall": cmd_wall,
    "hetero": cmd_hetero,
    "dirac": cmd_dirac,
}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser main reuses: building one costs over a millisecond."""
    return build_parser()


def main(argv=None) -> int:
    params = vars(_parser().parse_args(argv))
    try:
        text = _render(params, *_DISPATCH[params["subcommand"]](params))
    except LabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, GridIOError) else 4 if isinstance(exc, SolverFailureError) else 2

    out_path = params.get("output")
    try:
        if out_path is None:
            sys.stdout.write(text)
        else:
            with open(out_path, "w", newline="") as fh:
                fh.write(text)
    except OSError as exc:
        print(f"error: cannot write {out_path}: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
