"""Tests for the junction-matrix module.

The acceptance predicate is algebraic, so most tests are identity checks:
random members of the valid family must conserve the current exactly, and
random perturbations off the family must be rejected.  The scattering
solver is checked against the closed-form mass-step solution.
"""

import cmath
import json
import math

import numpy as np
import pytest

from sae_lab.errors import GridIOError, InvalidArgumentError, NotSelfAdjointError
from sae_lab.hetero import (
    InterfaceState,
    RegionParams,
    current_mismatch,
    load_interface,
    match_across,
    normal_current,
    scatter_interface,
    validate_interface,
)


def random_valid_entries(rng):
    """A random member of the exp(i theta) SL(2, R) family."""
    theta = rng.uniform(-math.pi, math.pi)
    a = rng.uniform(0.3, 2.0) * rng.choice([-1.0, 1.0])
    b = rng.uniform(-2.0, 2.0)
    c = rng.uniform(-2.0, 2.0)
    d = (1.0 + b * c) / a
    return cmath.exp(1j * theta) * np.array([[a, b], [c, d]], dtype=complex)


def test_identity_is_valid():
    gm = validate_interface(np.eye(2))
    assert gm.theta == 0.0
    assert np.allclose(gm.real_factor, np.eye(2))


def test_phase_extraction():
    gm = validate_interface(cmath.exp(1j * math.pi / 3) * np.array([[2.0, 1.0], [1.0, 1.0]]))
    assert gm.theta == pytest.approx(math.pi / 3, abs=1e-14)
    assert np.allclose(gm.real_factor, [[2, 1], [1, 1]], atol=1e-13)


def test_phase_folds_into_half_open_window():
    # a phase of 2 pi/3 is the same family member as -pi/3 with negated factor
    gm = validate_interface(cmath.exp(2j * math.pi / 3) * np.array([[1.0, 0.5], [0.0, 1.0]]))
    assert gm.theta == pytest.approx(-math.pi / 3, abs=1e-14)
    assert -math.pi / 2 < gm.theta <= math.pi / 2
    assert np.allclose(gm.real_factor, [[-1, -0.5], [0, -1]], atol=1e-13)


def test_wrong_determinant_rejected():
    with pytest.raises(NotSelfAdjointError):
        validate_interface(np.array([[1.0, 0.0], [0.0, 2.0]]))


def test_tolerance_scales_per_identity(tmp_path):
    # one large entry must not loosen the determinant check so far that
    # diag(1e13, 1), of real determinant 1e13, passes
    path = tmp_path / "big.json"
    path.write_text('{"entries": [[1e13, 0], [0, 0], [0, 0], [1, 0]]}')
    with pytest.raises(NotSelfAdjointError, match="conj\\(g11\\) g22"):
        load_interface(path)
    # a determinant-1 factor with entries far from 1 still passes
    validate_interface(np.array([[1e13, 1e13], [0.0, 1e-13]]))


def test_orientation_reversal_rejected():
    with pytest.raises(NotSelfAdjointError, match="determinant -1"):
        validate_interface(np.array([[0.0, 1.0], [1.0, 0.0]]))


def test_phase_misalignment_rejected():
    g = np.array([[1.0, 0.0], [0.0, 1.0]], dtype=complex)
    g[1, 0] = 1e-3j
    with pytest.raises(NotSelfAdjointError):
        validate_interface(g)


def test_shape_and_finiteness():
    with pytest.raises(InvalidArgumentError):
        validate_interface(np.eye(3))
    with pytest.raises(InvalidArgumentError):
        validate_interface(np.array([[np.inf, 0.0], [0.0, 1.0]]))


def test_random_family_accepted_and_conserving():
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(500):
        gm = validate_interface(random_valid_entries(rng))
        z = rng.normal(size=4)
        state_right = InterfaceState(complex(z[0], z[1]), complex(z[2], z[3]))
        state_left = match_across(state_right, gm)
        worst = max(worst, current_mismatch(state_left, state_right))
    assert worst <= 1e-12


def test_random_perturbations_rejected():
    # an imaginary-direction kick off the real factor always breaks one of
    # the bilinear identities by at least ~eps/scale
    rng = np.random.default_rng(43)
    for _ in range(500):
        g = random_valid_entries(rng)
        theta = cmath.phase(g.ravel()[int(np.argmax(np.abs(g)))])
        k, l = rng.integers(0, 2, size=2)
        g[k, l] += 1e-6j * cmath.exp(1j * theta)
        with pytest.raises(NotSelfAdjointError):
            validate_interface(g)


def test_product_of_valid_is_valid():
    rng = np.random.default_rng(44)
    for _ in range(200):
        g1 = validate_interface(random_valid_entries(rng))
        g2 = validate_interface(random_valid_entries(rng))
        prod = validate_interface(g1.entries @ g2.entries)
        # phases add modulo pi
        expect = math.remainder(g1.theta + g2.theta, math.pi)
        if expect <= -math.pi / 2:
            expect += math.pi
        assert prod.theta == pytest.approx(expect, abs=1e-9)


def test_match_across_mixes_value_and_flux():
    gm = validate_interface(np.array([[1.0, 0.7], [0.0, 1.0]]))
    state = InterfaceState(0.0, 2.0)
    out = match_across(state, gm)
    assert out.value == pytest.approx(1.4)
    assert out.flux == pytest.approx(2.0)


def test_plane_wave_current():
    k, m = 1.7, 0.8
    state = InterfaceState(1.0, 1j * k / (2 * m))
    assert normal_current(state) == pytest.approx(k / m, rel=1e-14)


def test_scatter_trivial_interface():
    sol = scatter_interface(2.0, RegionParams(1.0), RegionParams(1.0), validate_interface(np.eye(2)))
    assert abs(sol.R) <= 1e-14
    assert sol.T == pytest.approx(1.0, abs=1e-14)
    assert sol.transmission == pytest.approx(1.0, rel=1e-14)


def test_scatter_mass_step_closed_form():
    # continuous value and flux: T = 2/(1+r), R = (1-r)/(1+r) with
    # r = k_right m_left / (k_left m_right)
    E, m1, m2, V2 = 3.0, 1.0, 2.5, 0.5
    sol = scatter_interface(E, RegionParams(m1), RegionParams(m2, V2), validate_interface(np.eye(2)))
    k1 = math.sqrt(2 * m1 * E)
    k2 = math.sqrt(2 * m2 * (E - V2))
    r = k2 * m1 / (k1 * m2)
    assert sol.T == pytest.approx(2 / (1 + r), rel=1e-14)
    assert sol.R == pytest.approx((1 - r) / (1 + r), rel=1e-14)
    assert sol.reflection + sol.transmission == pytest.approx(1.0, rel=1e-14)


def test_scatter_evanescent_total_reflection():
    sol = scatter_interface(1.0, RegionParams(1.0), RegionParams(1.0, 5.0), validate_interface(np.eye(2)))
    assert sol.k_right.real == pytest.approx(0.0, abs=1e-15)
    assert sol.k_right.imag > 0
    assert sol.transmission == 0.0
    assert abs(sol.R) == pytest.approx(1.0, rel=1e-13)


def test_scatter_flux_conservation_random_family():
    rng = np.random.default_rng(45)
    for _ in range(300):
        gm = validate_interface(random_valid_entries(rng))
        E = rng.uniform(0.5, 8.0)
        left = RegionParams(rng.uniform(0.2, 3.0), rng.uniform(-1.0, E - 0.1))
        right = RegionParams(rng.uniform(0.2, 3.0), rng.uniform(-1.0, E - 0.1))
        sol = scatter_interface(E, left, right, gm)
        assert sol.reflection + sol.transmission == pytest.approx(1.0, rel=1e-11)


def test_scatter_phase_factor_drops_out():
    g_real = np.array([[1.3, 0.4], [0.2, (1 + 0.4 * 0.2) / 1.3]])
    sol0 = scatter_interface(2.0, RegionParams(1.0), RegionParams(2.0), validate_interface(g_real))
    sol1 = scatter_interface(
        2.0, RegionParams(1.0), RegionParams(2.0), validate_interface(cmath.exp(0.9j) * g_real)
    )
    assert sol1.R == pytest.approx(sol0.R, rel=1e-13)
    assert abs(sol1.T) == pytest.approx(abs(sol0.T), rel=1e-13)
    assert sol1.transmission == pytest.approx(sol0.transmission, rel=1e-13)


def test_scatter_requires_propagating_left():
    with pytest.raises(InvalidArgumentError):
        scatter_interface(1.0, RegionParams(1.0, 2.0), RegionParams(1.0), validate_interface(np.eye(2)))


def test_region_params_validation():
    with pytest.raises(InvalidArgumentError):
        RegionParams(-1.0)
    with pytest.raises(InvalidArgumentError):
        RegionParams(1.0, math.inf)
    with pytest.raises(InvalidArgumentError):
        InterfaceState(complex("inf"), 0.0)


def test_load_interface(tmp_path):
    path = tmp_path / "junction.json"
    path.write_text(json.dumps({"entries": [[2.0, 0.0], [1.0, 0.0], [1.0, 0.0], [1.0, 0.0]]}))
    gm = load_interface(path)
    assert gm.theta == 0.0
    assert np.allclose(gm.real_factor, [[2, 1], [1, 1]])

    path.write_text(
        json.dumps({"theta": 0.7, "entries": [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]})
    )
    gm = load_interface(path)
    assert gm.theta == pytest.approx(0.7, abs=1e-14)


def test_load_interface_errors(tmp_path):
    with pytest.raises(GridIOError):
        load_interface(tmp_path / "missing.json")
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(GridIOError):
        load_interface(path)
    path.write_text(json.dumps({"entries": [[1, 0], [0, 0]]}))
    with pytest.raises(GridIOError):
        load_interface(path)
    path.write_text(json.dumps({"theta": "x", "entries": [[1, 0], [0, 0], [0, 0], [1, 0]]}))
    with pytest.raises(GridIOError):
        load_interface(path)
    # a well-formed file holding an invalid matrix fails validation instead
    path.write_text(json.dumps({"entries": [[1, 0], [0, 0], [0, 0], [2, 0]]}))
    with pytest.raises(NotSelfAdjointError):
        load_interface(path)
