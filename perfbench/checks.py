"""Output checks and independent references for every benchmark operation.

``check(op, result)`` returns (problems, errors): a list of failed checks
(empty when the output is right) and the relative errors against references
that do not run the timed code path.  The references are

* box1d closed forms for interval dots, and sums of two of them for rect dots;
* scipy.special Bessel roots of the Robin condition for disk ground states;
* dirac_wall.numeric_oracle on sampled dirac rows;
* the exact Dirichlet and Neumann rows of a spectrum sweep;
* |R| = 1 for scatter rows;
* closed-form <x^2>, evaluated in mpmath, for uncertainty_report_1d.

Relative errors of energies are taken against max(|E_ref|, E_unit), where
E_unit is the lowest Dirichlet energy of the shape, so that a reference
energy at or near zero does not blow the ratio up.
"""

from __future__ import annotations

import csv
import io
import json
import math

import mpmath
from scipy.optimize import brentq
from scipy.special import i0e, i1e, j0, j1

J01 = 2.404825557695773  # first zero of J0

# The rasterized disk puts the full wall on every staircase face, so its
# boundary is longer than the circle by up to a factor 4/pi, and the
# ground state misses the continuum by up to ~45% at gamma = -3.  The check
# fails only beyond that; oracle_digits reports the size of the miss.
DISK_TOL = 0.6
# Interval and rect dots converge at first order in h to the closed forms, with
# an error that grows with the wall strength: allowed relative error is
# GRID_TOL * h * (1/L + |gamma|), where gamma = inf counts as 0.
GRID_TOL = 4.0
EXACT_TOL = 1e-12
DIRAC_TOL = 1e-8
MOMENT_TOL = 1e-8


def parse_table(text: str, fmt: str):
    """CSV text -> (header, rows of strings); JSON text -> parsed document."""
    if fmt == "json":
        return json.loads(text)
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


def _json_float(value) -> float:
    return float(value) if isinstance(value, str) else value


def rel_err(value: float, ref: float, unit: float) -> float:
    return abs(value - ref) / max(abs(ref), unit)


# ---------------------------------------------------------------------------
# references


def box_levels(m: float, L: float, gamma: float, count: int = 5):
    from sae_lab import box1d

    return [s.energy for s in box1d.solve_spectrum(box1d.BoxSpec(m, L, gamma), count)]


def disk_ground_energy(m: float, R: float, gamma: float) -> float:
    """Lowest root of the Robin condition psi' + gamma psi = 0 at r = R."""
    if gamma == 0:
        return 0.0
    if math.isinf(gamma):
        k = J01 / R
        return k * k / (2 * m)
    if gamma > 0:
        k = brentq(lambda k: -k * j1(k * R) + gamma * j0(k * R), 1e-12 / R, J01 / R, xtol=1e-15, rtol=8.9e-16)
        return k * k / (2 * m)
    # bound by the wall: I0(q r), with q I1(qR) + gamma I0(qR) = 0
    hi = 2.0 * abs(gamma) + 2.0 / R
    q = brentq(lambda q: q * i1e(q * R) + gamma * i0e(q * R), 1e-12 / R, hi, xtol=1e-15, rtol=8.9e-16)
    return -q * q / (2 * m)


def box_x2(L: float, branch: str, parity: str, w: float) -> float:
    """<x^2> of a box1d eigenstate on [-L/2, L/2], from closed-form integrals."""
    with mpmath.workdps(60):
        a = mpmath.mpf(L) / 2
        if branch == "zero-mode":
            return float(a * a / 3 if parity == "even" else 3 * a * a / 5)
        b = 2 * mpmath.mpf(w)
        if branch == "oscillatory":
            s, c = mpmath.sin(a * b), mpmath.cos(a * b)
            x2_cos = 2 * (a * a * s / b + 2 * a * c / b**2 - 2 * s / b**3)  # int x^2 cos(bx)
            norm_cos = s / b  # int cos(bx) / 2
            sign = 1 if parity == "even" else -1
        else:
            s, c = mpmath.sinh(a * b), mpmath.cosh(a * b)
            x2_cos = 2 * (a * a * s / b - 2 * a * c / b**2 + 2 * s / b**3)  # int x^2 cosh(bx)
            norm_cos = s / b
            sign = 1 if parity == "even" else -1
        if branch == "evanescent":
            # cosh^2 = (cosh + 1)/2, sinh^2 = (cosh - 1)/2
            m2 = x2_cos / 2 + sign * a**3 / 3
            m0 = norm_cos + sign * a
        else:
            # cos^2 = (1 + cos)/2, sin^2 = (1 - cos)/2
            m2 = a**3 / 3 + sign * x2_cos / 2
            m0 = a + sign * norm_cos
        return float(m2 / m0)


# ---------------------------------------------------------------------------
# per-kind checks


def _spectrum(op, text):
    p = op.params
    problems, errors = [], []
    if p["format"] == "csv":
        header, rows = parse_table(text, "csv")
        first = [float(r[0]) for r in rows]
        energies = [[float(x) for x in r[1:]] for r in rows]
        gammas = first if p["raw"] else [None] * len(rows)
        xs = None if p["raw"] else first
    else:
        doc = parse_table(text, "json")
        energies = [[_json_float(x) for x in row["energies"]] for row in doc["rows"]]
        gammas = [_json_float(row["gamma"]) for row in doc["rows"]]
        xs = None
    if len(energies) != p["rows"]:
        problems.append(f"{len(energies)} rows, expected {p['rows']}")
        return problems, errors
    scale = 1.0 if not p["raw"] else math.pi**2 / 2.0  # m = L = 1
    for i, row in enumerate(energies):
        if len(row) != 5 or not all(math.isfinite(e) for e in row):
            problems.append(f"row {i}: bad energies {row}")
            continue
        # the two wall-bound levels may tie: their splitting shrinks like exp(-|gamma| L)
        if any(b < a for a, b in zip(row, row[1:])):
            problems.append(f"row {i}: energies not ascending")
        g = gammas[i]
        if g is None:
            x = xs[i]
            g = math.inf if abs(x) >= math.pi / 2 else (0.0 if x == 0 else None)
        if g is not None and (math.isinf(g) or g == 0):
            ref = [(n + 1) ** 2 if math.isinf(g) else n**2 for n in range(5)]
            for e, r in zip(row, ref):
                err = rel_err(e, r * scale, scale)
                errors.append(err)
                if err > EXACT_TOL:
                    problems.append(f"row {i}: exact level {r * scale} read {e}")
    # every level rises with gamma across the sweep (rows run from -inf up)
    if p["rows"] > 1:
        for n in range(5):
            col = [row[n] for row in energies[1:-1]]
            if any(b < a - 1e-12 * abs(a) for a, b in zip(col, col[1:])):
                problems.append(f"level {n} not monotone in gamma")
                break
    return problems, errors


def _scatter(op, text):
    p = op.params
    problems, errors = [], []
    if p["format"] == "csv":
        _, rows = parse_table(text, "csv")
        amps = [(float(r[2]), float(r[3])) for r in rows]
    else:
        rows = parse_table(text, "json")["rows"]
        amps = [(_json_float(r["re_R"]), _json_float(r["im_R"])) for r in rows]
    if len(amps) != p["rows"]:
        return [f"{len(amps)} rows, expected {p['rows']}"], errors
    for re, im in amps:
        err = abs(math.hypot(re, im) - 1.0)
        errors.append(err)
        if err > EXACT_TOL:
            problems.append(f"|R| = {math.hypot(re, im)}")
    return problems, errors


def _dirac(op, text):
    from sae_lab import dirac_wall

    p = op.params
    problems, errors = [], []
    keys = ["eta", "speed_over_c", "chemical_potential_over_mc2", "threshold_momentum_over_mc", "normalizable_side"]
    if p["format"] == "csv":
        _, raw = parse_table(text, "csv")
        rows = [dict(zip(keys, r)) for r in raw]
    else:
        rows = parse_table(text, "json")["rows"]
    if len(rows) != p["rows"]:
        return [f"{len(rows)} rows, expected {p['rows']}"], errors
    for i in p["sample"]:
        row = rows[i]
        eta = _json_float(row["eta"]) if p["format"] == "json" else float(row["eta"])
        wall = dirac_wall.EtaWall(eta)
        at0 = dirac_wall.numeric_oracle(wall, 0.0)
        at1 = dirac_wall.numeric_oracle(wall, 1.0)
        ref = {"speed_over_c": at0.speed, "chemical_potential_over_mc2": at0.chemical_potential}
        slope = at1.decay_rate - at0.decay_rate
        if abs(slope) > 1e-6:
            ref["threshold_momentum_over_mc"] = -at0.decay_rate / slope
            side = "above" if slope > 0 else "below"
            if row["normalizable_side"] != side:
                problems.append(f"row {i}: side {row['normalizable_side']}, oracle {side}")
        for key, r in ref.items():
            value = _json_float(row[key]) if p["format"] == "json" else float(row[key])
            err = rel_err(value, r, 1.0)
            errors.append(err)
            if err > DIRAC_TOL:
                problems.append(f"row {i}: {key} {value}, oracle {r}")
    return problems, errors


def _wall(op, text):
    p = op.params
    _, rows = parse_table(text, "csv")
    if len(rows) != len(p["epsilons"]):
        return [f"{len(rows)} rows, expected {len(p['epsilons'])}"], []
    problems = []
    for r in rows:
        eps, eff, err = float(r[0]), float(r[3]), float(r[4])
        if not math.isfinite(eff) or abs(eff - p["gamma"] - err) > 1e-9 * max(1.0, abs(eff)):
            problems.append(f"epsilon {eps}: effective {eff}, error {err}")
    return problems, []


def _hetero(op, text):
    p = op.params
    if p["format"] == "csv":
        _, rows = parse_table(text, "csv")
        verdict = rows[0][1]
        residuals = [float(r[1]) for r in rows[2:]]
    else:
        doc = parse_table(text, "json")
        verdict = doc["verdict"]
        residuals = [r["residual"] for r in doc["residuals"]]
    problems = []
    if verdict != p["expect"]:
        problems.append(f"verdict {verdict}, expected {p['expect']}")
    if len(residuals) != 4:
        problems.append(f"{len(residuals)} residuals")
    elif p["expect"] == "accepted" and max(residuals) > 1e-9:
        problems.append(f"accepted matrix with residual {max(residuals)}")
    return problems, []


def _uncertainty(op, value):
    state, report = value
    obs = report.observables
    ref = box_x2(state.spec.L, state.branch, state.parity, state.wavenumber)
    err = abs(obs.var_x - ref) / ref
    problems = []
    if err > MOMENT_TOL:
        problems.append(f"var_x {obs.var_x}, closed form {ref}")
    if report.slack < -1e-9 * max(1.0, abs(report.lhs)):
        problems.append(f"negative slack {report.slack}")
    return problems, [err]


def _grid_tol(h: float, L: float, gamma: float) -> float:
    return GRID_TOL * h * (1.0 / L + (0.0 if math.isinf(gamma) else abs(gamma)))


def _dot(op, text):
    p = op.params
    problems, errors = [], []
    doc = parse_table(text, "json")
    energies = [lev["energy"] for lev in doc["levels"]]
    if len(energies) != 5 or not all(isinstance(e, float) for e in energies):
        return [f"bad levels {energies}"], errors
    if any(b < a - 1e-9 * max(1.0, abs(a)) for a, b in zip(energies, energies[1:])):
        problems.append("levels not ascending")
    if doc["cells"] != p["cells"]:
        problems.append(f"{doc['cells']} cells, expected {p['cells']}")
    m, g = 1.0, p["gamma"]
    if p["shape"] == "interval":
        L = p["lengths"][0]
        unit = math.pi**2 / (2 * m * L * L)
        refs, tol = box_levels(m, L, g), _grid_tol(p["h"], L, g)
    elif p["shape"] == "rect":
        Lx, Ly = p["lengths"]
        unit = math.pi**2 / (2 * m) * (1 / Lx**2 + 1 / Ly**2)
        ex, ey = box_levels(m, Lx, g), box_levels(m, Ly, g)
        refs = sorted(a + b for a in ex for b in ey)[:5]
        tol = _grid_tol(p["h"], min(Lx, Ly), g)
    elif p["shape"] == "disk":
        R = p["lengths"][0]
        unit = J01**2 / (2 * m * R * R)
        refs, tol = [disk_ground_energy(m, R, g)], DISK_TOL
    else:
        return problems, errors
    for n, ref in enumerate(refs):
        err = rel_err(energies[n], ref, unit)
        errors.append(err)
        if err > tol:
            problems.append(f"level {n}: {energies[n]}, reference {ref} (rel err {err:.3g} > {tol:.3g})")
    return problems, errors


_CHECKS = {
    "spectrum": _spectrum,
    "scatter": _scatter,
    "dirac": _dirac,
    "wall": _wall,
    "hetero": _hetero,
    "uncertainty": _uncertainty,
    "dot": _dot,
}


def check(op, output):
    """(problems, relative errors) for one successful operation's output."""
    try:
        return _CHECKS[op.kind](op, output)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"], []
