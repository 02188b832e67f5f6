"""Tests for the junction-matrix module.

The acceptance predicate is algebraic, so most tests are identity checks:
random members of the valid family must conserve the current exactly, and
random perturbations off the family must be rejected.
"""

import cmath
import json
import math

import numpy as np
import pytest

from sae_lab.errors import GridIOError, InvalidArgumentError, NotSelfAdjointError
from sae_lab.hetero import (
    InterfaceState,
    current_mismatch,
    match_across,
    normal_current,
    parse_interface_file,
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
    # a phase of exactly -pi/2 lies outside the window: it folds to pi/2
    gm = validate_interface([[-1j, 0], [0, -1j]])
    assert gm.theta == math.pi / 2
    assert np.array_equal(gm.real_factor, -np.eye(2))


def test_wrong_determinant_rejected():
    with pytest.raises(NotSelfAdjointError):
        validate_interface(np.array([[1.0, 0.0], [0.0, 2.0]]))


def test_tolerance_scales_per_identity(tmp_path):
    # one large entry must not loosen the determinant check so far that
    # diag(1e13, 1), of real determinant 1e13, passes
    path = tmp_path / "big.json"
    path.write_text('{"entries": [[1e13, 0], [0, 0], [0, 0], [1, 0]]}')
    with pytest.raises(NotSelfAdjointError, match="conj\\(g11\\) g22"):
        validate_interface(parse_interface_file(path))
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


def test_region_params_validation():
    with pytest.raises(InvalidArgumentError):
        InterfaceState(complex("inf"), 0.0)


def test_load_interface(tmp_path):
    path = tmp_path / "junction.json"
    path.write_text(json.dumps({"entries": [[2.0, 0.0], [1.0, 0.0], [1.0, 0.0], [1.0, 0.0]]}))
    gm = validate_interface(parse_interface_file(path))
    assert gm.theta == 0.0
    assert np.allclose(gm.real_factor, [[2, 1], [1, 1]])

    path.write_text(
        json.dumps({"theta": 0.7, "entries": [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]})
    )
    gm = validate_interface(parse_interface_file(path))
    assert gm.theta == pytest.approx(0.7, abs=1e-14)


def test_load_interface_errors(tmp_path):
    with pytest.raises(GridIOError):
        validate_interface(parse_interface_file(tmp_path / "missing.json"))
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(GridIOError):
        validate_interface(parse_interface_file(path))
    path.write_text(json.dumps({"entries": [[1, 0], [0, 0]]}))
    with pytest.raises(GridIOError):
        validate_interface(parse_interface_file(path))
    path.write_text(json.dumps({"theta": "x", "entries": [[1, 0], [0, 0], [0, 0], [1, 0]]}))
    with pytest.raises(GridIOError):
        validate_interface(parse_interface_file(path))
    # a well-formed file holding an invalid matrix fails validation instead
    path.write_text(json.dumps({"entries": [[1, 0], [0, 0], [0, 0], [2, 0]]}))
    with pytest.raises(NotSelfAdjointError):
        validate_interface(parse_interface_file(path))
