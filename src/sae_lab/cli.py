"""Command-line front end: every module's tables and checks as CSV or JSON.

Subcommands:

* spectrum: interval energy levels against the wall parameter, by default
  201 samples uniform in arctan(gamma L / 2) with energies scaled by
  2 m L^2 / pi^2 (so the Dirichlet endpoint reads 1, 4, 9, 16, 25).
* dot: finite-difference eigenvalues, uncertainty slacks, and spectral-flow
  checks for a gridded region (built-in shape or mask file).
* scatter: half-line reflection phase shift over a wavenumber grid.
* wall: thin-square-well approximations of a Robin wall over a width list.
* hetero: junction-matrix validation verdict with identity residuals.
* dirac: domain-wall dispersion summary over an extension-parameter scan.

Output conventions: CSV always starts with a header row; JSON documents
carry "schema": 1.  Floats are printed with 17 significant digits so a
given configuration reproduces byte-identical output.  Non-finite numbers
appear as inf/-inf/nan in CSV and as the strings "inf"/"-inf"/"nan" in
JSON (which has no literal for them).  Diagnostics go to stderr; data goes
to stdout or the --output file.  Exit codes: 0 success, 2 usage or invalid
configuration, 3 unreadable input or unwritable output, 4 solver failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import box1d, dirac_wall, hetero, wall_models
from .errors import (
    DegenerateStateError,
    GridIOError,
    InvalidArgumentError,
    LabError,
    SolverFailureError,
)

__all__ = ["build_parser", "main"]

SCHEMA_VERSION = 1
_SPECTRUM_LEVELS = 5


# ---------------------------------------------------------------------------
# rendering
#
# Every cmd_* returns (header, rows, doc): the CSV table and the JSON body
# without "schema" and "command".  A doc whose "rows" is _KEYED_ROWS serves
# the CSV rows, keyed by the header, as its JSON rows.

_KEYED_ROWS = object()


def _fmt(value: float) -> str:
    return f"{float(value):.17g}"


def _csv(header, rows) -> str:
    lines = [",".join(header)]
    for row in rows:
        cells = []
        for cell in row:
            if cell is None:
                cells.append("")
            elif isinstance(cell, str):
                cells.append(cell)
            else:
                cells.append(_fmt(cell))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def _json_ready(value):
    if isinstance(value, dict):
        return {k: _json_ready(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_ready(v) for v in value]
    if isinstance(value, bool) or value is None or isinstance(value, (int, str)):
        return value
    value = float(value)
    if math.isfinite(value):
        return value
    if math.isnan(value):
        return "nan"
    return "inf" if value > 0 else "-inf"


def _render(params: dict, header, rows, doc) -> str:
    if params["format"] == "csv":
        return _csv(header, rows)
    body = {"schema": SCHEMA_VERSION, "command": params["subcommand"], **doc}
    if body.get("rows") is _KEYED_ROWS:
        body["rows"] = [dict(zip(header, row)) for row in rows]
    return json.dumps(_json_ready(body), indent=2) + "\n"


# ---------------------------------------------------------------------------
# sweeps


def _arctan_samples(params: dict, name: str, scale: float):
    """(x, value) samples of the --<name> options, uniform in x = arctan(value * scale).

    A single --<name> gives one sample; otherwise --<name>-steps samples run
    from --<name>-min to --<name>-max, each end defaulting to the matching
    infinity.  An x that reaches +-pi/2 (the float value) maps to +-inf: for
    the wall parameter that is the Dirichlet spectrum, which is also the
    correct limit for any gamma too large to distinguish from the wall at
    double precision.
    """
    single = params.get(name)
    if single is not None:
        return [(math.atan(single * scale), single)]
    if scale == 0.0:
        raise InvalidArgumentError(f"the {name} scale underflows to 0, so no sweep can sample {name}")
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
    samples = []
    for i in range(steps):
        t = i / (steps - 1)
        x = x_lo * (1.0 - t) + x_hi * t
        if x <= -half_pi:
            value = -math.inf
        elif x >= half_pi:
            value = math.inf
        else:
            value = math.tan(x) / scale
        samples.append((x, value))
    return samples


# ---------------------------------------------------------------------------
# spectrum


def cmd_spectrum(params: dict):
    m, L = params["mass"], params["length"]
    box1d.BoxSpec(m=m, L=L, gamma=0.0)  # reject a bad m or L before sampling divides by L
    raw = params["raw_units"]
    scale = 1.0 if raw else 2.0 * (m * L * L) / math.pi**2
    samples = _arctan_samples(params, "gamma", L / 2.0)
    energies = box1d._levels(m, L, [gamma for _, gamma in samples], _SPECTRUM_LEVELS)[1]
    with np.errstate(over="ignore", invalid="ignore"):
        energies = (energies * scale).tolist()
    rows = [[gamma if raw else x, *row] for (x, gamma), row in zip(samples, energies)]
    doc_rows = [
        {"arctan_half_gamma_L": x, "gamma": gamma, "energies": row}
        for (x, gamma), row in zip(samples, energies)
    ]
    header = ["gamma" if raw else "arctan_half_gamma_L"]
    header += [f"e{n}" for n in range(_SPECTRUM_LEVELS)]
    doc = {
        "mass": m,
        "length": L,
        "units": "raw" if raw else "scaled_2mL2_over_pi2",
        "rows": doc_rows,
    }
    return header, rows, doc


# ---------------------------------------------------------------------------
# dot


def _dot_grid(params: dict):
    from . import qdot_fd

    try:
        if params.get("grid"):
            return qdot_fd.read_grid(params["grid"]), {"grid_file": params["grid"]}
        shape = params["shape"]
        n = params["resolution"]
        length = params["length"]
        second = params.get("length2")
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
        if shape == "annulus":
            inner = 0.5 * length if second is None else second
            return qdot_fd.annulus_grid(inner, length, n), {
                "shape": "annulus",
                "inner_radius": inner,
                "outer_radius": length,
            }
        raise InvalidArgumentError(f"unknown shape {shape!r}")
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
    if math.isfinite(gamma):
        flows = qdot_fd.spectral_flow_check(ham, energies, vectors)
    else:
        flows = [None] * len(energies)

    rows = []
    for n in range(count):
        mom = qdot_fd.moments(grid, gamma, vectors[:, n])
        rep = qdot_fd.uncertainty_general(mom, grid.d)
        lhs, rhs = flows[n] or (None, None)
        rows.append([n, float(energies[n]), rep.slack_general, rep.slack_nonhermitean, lhs, rhs])

    header = ["n", "energy", "slack_general", "slack_nonhermitean", "flow_lhs", "flow_rhs"]
    levels = [
        {
            "n": n,
            "energy": energy,
            "slack_general": general,
            "slack_nonhermitean": nonhermitean,
            "flow": None if lhs is None else {"lhs": lhs, "rhs": rhs},
        }
        for n, energy, general, nonhermitean, lhs, rhs in rows
    ]
    doc = {
        **described,
        "gamma": gamma,
        "mass": m,
        "cells": grid.n_cells,
        "spacing": grid.h,
        "levels": levels,
    }
    return header, rows, doc


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
        ks = [k_min + (k_max - k_min) * i / (steps - 1) for i in range(steps)]
    rows = []
    for k in ks:
        r = wall_models.reflection(k, gamma)
        rows.append([r.k, r.delta, r.R.real, r.R.imag])
    return ["k", "phase_shift", "re_R", "im_R"], rows, {"gamma": gamma, "rows": _KEYED_ROWS}


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
    return header, rows, {"gamma": gamma, "mass": m, "rows": _KEYED_ROWS}


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
    return ["name", "value"], rows, doc


# ---------------------------------------------------------------------------
# dirac


def cmd_dirac(params: dict):
    m, c = params["mass"], params["light_speed"]
    rows = []
    for _, eta in _arctan_samples(params, "eta", 1.0):
        dirac_wall.EtaWall(eta, m=m, c=c)  # rejects a NaN eta and a bad m or c
        # with p in units of m c, E/(m c^2) = sin(phi) - cos(phi) p, and the
        # decay rate/(m c) = cos(phi) + sin(phi) p changes sign at p = -cos/sin
        sin_phi, cos_phi = dirac_wall._mixing_parts(eta)
        if sin_phi != 0.0:
            threshold, side = -cos_phi / sin_phi, "above" if sin_phi > 0.0 else "below"
        elif cos_phi > 0.0:
            threshold, side = -math.inf, "all"
        else:
            threshold, side = math.inf, "none"
        rows.append([eta, abs(cos_phi), sin_phi, threshold, side])
    header = [
        "eta",
        "speed_over_c",
        "chemical_potential_over_mc2",
        "threshold_momentum_over_mc",
        "normalizable_side",
    ]
    return header, rows, {"mass": m, "light_speed": c, "rows": _KEYED_ROWS}


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
        "--resolution", type=int, default=64,
        help="cells across the primary dimension (default 64)",
    )
    dot.add_argument(
        "--length", type=float, default=1.0,
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
        "threshold of domain-wall modes over an extension-parameter scan "
        "sampled uniformly in arctan(eta).",
    )
    dr.add_argument("--mass", type=float, default=1.0, help="fermion mass (default 1)")
    dr.add_argument("--light-speed", type=float, default=1.0, help="light speed (default 1)")
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


def main(argv=None) -> int:
    params = vars(build_parser().parse_args(argv))
    try:
        text = _render(params, *_DISPATCH[params["subcommand"]](params))
    except GridIOError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (SolverFailureError, DegenerateStateError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except LabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

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
