"""Acceptance gate: one test per release criterion, each printing a PASS line.

Run with ``pytest -v tests/test_acceptance.py`` to get one pass/fail line per
criterion.  Every tolerance below is part of the release contract; do not
loosen any of them to make a failure go away.
"""

from __future__ import annotations

import math
import time

import numpy as np
import pytest

from sae_lab.box1d import BoxSpec, solve_spectrum, spectral_flow, uncertainty_report_1d
from sae_lab.dirac_wall import (
    EtaWall,
    Lambda3D,
    axial_current_3d,
    dispersion_2p1,
    normal_current_3d,
    numeric_oracle,
    sample_lambda_3d,
    validate_lambda_3d,
)
from sae_lab.errors import NotSelfAdjointError
from sae_lab.hetero import (
    InterfaceState,
    current_mismatch,
    match_across,
    validate_interface,
)
from sae_lab.qdot_fd import (
    build_hamiltonian,
    disk_grid,
    interval_grid,
    moments,
    rect_grid,
    solve_lowest,
    spectral_flow_check,
)
from sae_lab.wall_models import effective_gamma, square_well_parameters

from sae_lab import cli


def _passed(tag: str, detail: str) -> None:
    print(f"PASS {tag}: {detail}")


def test_01_dirichlet_and_neumann_levels_exact():
    """Interval, m = 1, L = 1: hard-wall and free-end spectra to 1e-10 in <1s."""
    t0 = time.perf_counter()
    hard = [s.energy for s in solve_spectrum(BoxSpec(1.0, 1.0, math.inf), 5)]
    free = [s.energy for s in solve_spectrum(BoxSpec(1.0, 1.0, 0.0), 5)]
    elapsed = time.perf_counter() - t0

    worst = 0.0
    for n, e in enumerate(hard):
        exact = math.pi**2 * (n + 1) ** 2 / 2.0
        worst = max(worst, abs(e - exact) / exact)
    assert free[0] == 0.0
    for n, e in enumerate(free):
        if n == 0:
            continue
        exact = math.pi**2 * n**2 / 2.0
        worst = max(worst, abs(e - exact) / exact)
    assert worst <= 1e-10
    assert elapsed < 1.0
    _passed("criterion-01", f"worst rel err {worst:.2e}, {elapsed * 1e3:.0f} ms")


def test_02_negative_energy_counts_and_deep_well():
    """Bound-state counts for six boundary strengths, plus the deep-well limit."""
    expected = {-10.0: 2, -4.0: 2, -1.0: 1, -0.5: 1, 0.5: 0, 4.0: 0}
    for gamma, want in expected.items():
        energies = [s.energy for s in solve_spectrum(BoxSpec(1.0, 1.0, gamma), 4)]
        got = sum(1 for e in energies if e < 0.0)
        assert got == want, f"gamma={gamma}: {got} negative levels, expected {want}"

    deep = [s.energy for s in solve_spectrum(BoxSpec(1.0, 1.0, -50.0), 2)]
    target = -(50.0**2) / 2.0
    worst = max(abs(e - target) / abs(target) for e in deep)
    assert worst <= 0.01
    _passed("criterion-02", f"counts ok, deep-well rel dev {worst:.2e}")


def test_03_boundary_uncertainty_identity():
    """Boundary uncertainty relation: exhibits at gamma = 0 and -2/L, sweep slack."""
    flat = uncertainty_report_1d(solve_spectrum(BoxSpec(1.0, 1.0, 0.0), 1)[0])
    assert abs(flat.slack) <= 1e-9

    tilt = uncertainty_report_1d(solve_spectrum(BoxSpec(1.0, 1.0, -2.0), 2)[1])
    obs = tilt.observables
    assert abs(obs.a - 3.0) <= 1e-9
    assert abs(obs.b + 12.0) <= 1e-9
    assert abs(obs.c) <= 1e-9
    assert abs(tilt.dx - math.sqrt(3.0 / 20.0)) <= 1e-9
    assert abs(tilt.rhs + 16.0 / 3.0) <= 1e-9

    worst = math.inf
    for gamma in np.tan(np.linspace(-1.5, 1.5, 50)):
        for state in solve_spectrum(BoxSpec(1.0, 1.0, float(gamma)), 4):
            slack = uncertainty_report_1d(state).slack
            worst = min(worst, slack)
            assert slack >= -1e-9
    _passed("criterion-03", f"exhibits ok, min sweep slack {worst:.2e}")


def test_04_spectral_flow_two_routes():
    """dE/dgamma equals the boundary-density rule in closed form and on the grid."""
    worst = 0.0
    h = 1e-6
    for gamma in (-1.0, 0.5, 3.0):
        lo = solve_spectrum(BoxSpec(1.0, 1.0, gamma - h), 4)
        hi = solve_spectrum(BoxSpec(1.0, 1.0, gamma + h), 4)
        states = solve_spectrum(BoxSpec(1.0, 1.0, gamma), 4)
        for n in range(4):
            lhs = (hi[n].energy - lo[n].energy) / (2.0 * h)
            rhs = spectral_flow(states[n])
            worst = max(worst, abs(lhs - rhs) / abs(rhs))
    assert worst <= 1e-4

    grid = interval_grid(1.0, 2000)
    worst_fd = 0.0
    for gamma in (-1.0, 0.5, 3.0):
        ham = build_hamiltonian(grid, gamma, 1.0)
        w, v = solve_lowest(ham, 5)
        for lhs, rhs in spectral_flow_check(ham, w, v, h_gamma=1e-3)[:4]:
            worst_fd = max(worst_fd, abs(lhs - rhs) / abs(rhs))
    assert worst_fd <= 1e-4
    _passed("criterion-04", f"closed-form rel {worst:.2e}, grid rel {worst_fd:.2e}")


def test_05_finite_difference_first_order():
    """Interval FD solver: measured convergence order >= 1, 1e-3 at h = 1/2000."""
    gamma = 10.0
    exact = np.array([s.energy for s in solve_spectrum(BoxSpec(1.0, 1.0, gamma), 5)])
    hs, errs = [], []
    t0 = time.perf_counter()
    for n in (250, 500, 1000, 2000):
        grid = interval_grid(1.0, n)
        ham = build_hamiltonian(grid, gamma, 1.0)
        w, _ = solve_lowest(ham, 5)
        hs.append(1.0 / n)
        errs.append(float(np.max(np.abs(w - exact) / np.abs(exact))))
    elapsed = time.perf_counter() - t0
    order = float(np.polyfit(np.log(hs), np.log(errs), 1)[0])
    assert order >= 1.0
    assert errs[-1] <= 1e-3
    assert elapsed < 5.0
    _passed(
        "criterion-05",
        f"order {order:.4f}, rel err {errs[-1]:.2e} at h=1/2000, {elapsed:.2f} s",
    )


def test_06_disk_constant_mode_and_moments():
    """Free-end disk at h = 1/128: flat ground state and its boundary moments."""
    grid = disk_grid(1.0, 256)
    assert grid.h == 1.0 / 128.0
    field = 0.0
    ham = build_hamiltonian(grid, field, 1.0)
    w, v = solve_lowest(ham, 1)
    psi = v[:, 0]
    assert abs(w[0]) <= 1e-8
    dev = float(np.max(np.abs(psi / psi.mean() - 1.0)))
    assert dev <= 1e-6
    mom = moments(grid, field, psi)
    assert abs(mom.mean_nx - 2.0) / 2.0 <= 0.05
    drift = float(np.linalg.norm(mom.mean_n))
    assert drift <= 5e-2
    _passed(
        "criterion-06",
        f"E0 {w[0]:.1e}, flat dev {dev:.1e}, <n.x> {mom.mean_nx:.6f}, |<n>| {drift:.1e}",
    )


def test_07_levels_nondecreasing_in_gamma():
    """First four levels never decrease along a 20-point boundary-strength grid."""
    gammas = np.tan(np.linspace(math.atan(-20.0), math.atan(20.0), 20))
    shapes = {
        "disk": disk_grid(1.0, 32),
        "rect": rect_grid(1.0, 0.8, 28),
    }
    for name, grid in shapes.items():
        prev = None
        for gamma in gammas:
            ham = build_hamiltonian(grid, float(gamma), 1.0)
            w, _ = solve_lowest(ham, 4)
            if prev is not None:
                for n in range(4):
                    assert w[n] >= prev[n], f"{name}: level {n} dropped at gamma={gamma}"
            prev = w
    _passed("criterion-07", "disk and rectangle levels nondecreasing, exact compare")


def test_08_thin_wall_linear_error():
    """Thin-wall construction: error shrinks linearly in the width (exact at 0)."""
    eps = np.array([0.02, 0.01, 0.005, 0.0025])
    slopes = {}
    for gamma in (-3.0, 2.0):
        errs = [
            abs(effective_gamma(square_well_parameters(gamma, float(e), 1.0), 1.0) - gamma)
            for e in eps
        ]
        slope = float(np.polyfit(np.log(eps), np.log(errs), 1)[0])
        assert 0.85 <= slope <= 1.15
        slopes[gamma] = slope

    # The free-end construction is exact up to rounding, so a log-log slope is
    # meaningless there; assert exactness instead.
    worst0 = max(
        abs(effective_gamma(square_well_parameters(0.0, float(e), 1.0), 1.0)) for e in eps
    )
    assert worst0 <= 1e-10
    _passed(
        "criterion-08",
        f"slopes {slopes[-3.0]:.3f} / {slopes[2.0]:.3f}, free-end residual {worst0:.1e}",
    )


def _random_valid_entries(rng: np.random.Generator) -> np.ndarray:
    a = float(rng.choice([-1.0, 1.0])) * rng.uniform(0.3, 2.0)
    b = rng.uniform(-2.0, 2.0)
    c = rng.uniform(-2.0, 2.0)
    d = (1.0 + b * c) / a
    theta = rng.uniform(-math.pi / 2.0, math.pi / 2.0)
    return np.exp(1j * theta) * np.array([[a, b], [c, d]], dtype=complex)


def test_09_junction_matrices_accept_reject():
    """1000 valid junction matrices accepted with conserved current, 1000 broken ones rejected."""
    rng = np.random.default_rng(20260822)
    worst = 0.0
    for _ in range(1000):
        g = validate_interface(_random_valid_entries(rng))
        right = InterfaceState(
            complex(rng.normal(), rng.normal()), complex(rng.normal(), rng.normal())
        )
        left = match_across(right, g)
        worst = max(worst, current_mismatch(left, right))
    assert worst <= 1e-12

    rejected = 0
    for _ in range(1000):
        g = _random_valid_entries(rng)
        i, j = int(rng.integers(2)), int(rng.integers(2))
        g[i, j] += 1e-6 * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
        try:
            validate_interface(g)
        except NotSelfAdjointError:
            rejected += 1
    assert rejected == 1000
    _passed("criterion-09", f"1000 accepted (mismatch {worst:.1e}), 1000/1000 rejected")


def test_10_wall_dispersion_closed_vs_oracle():
    """Closed-form wall dispersion against the independent numeric oracle."""
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(100):
        eta = math.tan(rng.uniform(-math.pi / 2.0 * 0.98, math.pi / 2.0 * 0.98))
        p = rng.uniform(-3.0, 3.0)
        wall = EtaWall(eta)
        a = dispersion_2p1(wall, p)
        b = numeric_oracle(wall, p)
        for field in ("energy", "decay_rate", "speed", "chemical_potential"):
            x, y = getattr(a, field), getattr(b, field)
            worst = max(worst, abs(x - y) / max(1.0, abs(y)))
    assert worst <= 1e-12

    for eta in (0.0, math.inf, -math.inf):
        pt = dispersion_2p1(EtaWall(eta), 0.7)
        assert pt.speed == 1.0
        assert pt.chemical_potential == 0.0

    wall = EtaWall(2.0)
    d0 = dispersion_2p1(wall, 0.0).decay_rate
    d1 = dispersion_2p1(wall, 1.0).decay_rate
    p_star = -d0 / (d1 - d0)
    assert abs(p_star - 0.75) <= 1e-12
    _passed("criterion-10", f"100 samples rel {worst:.1e}, threshold {p_star:.15f} mc")


def test_11_pauli_wall_currents():
    """Accepted 2x2 wall matrices: no normal current, generic axial current."""
    rng = np.random.default_rng(11)
    worst_normal = 0.0
    axial_nonzero = 0
    for _ in range(100):
        normal = rng.normal(size=3)
        normal /= np.linalg.norm(normal)
        lam = sample_lambda_3d(rng, normal)
        wall = validate_lambda_3d(lam, normal)
        assert isinstance(wall, Lambda3D)
        spinor = rng.normal(size=2) + 1j * rng.normal(size=2)
        spinor /= np.linalg.norm(spinor)
        worst_normal = max(worst_normal, abs(normal_current_3d(wall, spinor)))
        if abs(axial_current_3d(wall, spinor)) > 1e-8:
            axial_nonzero += 1
    assert worst_normal <= 1e-12
    assert axial_nonzero >= 99
    _passed(
        "criterion-11",
        f"normal current {worst_normal:.1e}, axial nonzero {axial_nonzero}/100",
    )


def test_12_spectrum_figure_reproducible(tmp_path):
    """Spectrum scan, 201 samples: landmark rows correct and byte-identical reruns."""
    out1 = tmp_path / "scan1.csv"
    out2 = tmp_path / "scan2.csv"
    for out in (out1, out2):
        assert cli.main(["spectrum", "--gamma-steps", "201", "--output", str(out)]) == 0
    assert out1.read_bytes() == out2.read_bytes()

    lines = out1.read_text().splitlines()
    assert len(lines) == 202
    rows = [[float(x) for x in line.split(",")] for line in lines[1:]]
    dirichlet = [1.0, 4.0, 9.0, 16.0, 25.0]
    for r in (0, 200):
        for e, want in zip(rows[r][1:], dirichlet):
            assert abs(e - want) / want <= 1e-12
    assert rows[100][1] == 0.0
    for e, want in zip(rows[100][2:], [1.0, 4.0, 9.0, 16.0]):
        assert abs(e - want) / want <= 1e-12
    assert rows[50][2] == 0.0
    assert rows[50][1] < 0.0
    _passed("criterion-12", "endpoints, crossings, and byte-identical reruns ok")
