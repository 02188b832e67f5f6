"""Tests for relativistic wall boundary data and domain-wall dispersion."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sae_lab import dirac_wall as dw
from sae_lab.errors import InvalidArgumentError, NotSelfAdjointError


def anticommutator(a, b):
    return a @ b + b @ a


# ---------------------------------------------------------------------------
# Pauli matrices


def test_pauli_algebra():
    for i in range(3):
        for j in range(3):
            expected = 2.0 * np.eye(2) if i == j else np.zeros((2, 2))
            assert np.allclose(anticommutator(dw.PAULI[i], dw.PAULI[j]), expected, atol=1e-15)
    # cyclic commutators fix the orientation of the triple
    assert np.allclose(dw.PAULI[0] @ dw.PAULI[1] - dw.PAULI[1] @ dw.PAULI[0], 2j * dw.PAULI[2])
    assert np.allclose(dw.PAULI[1] @ dw.PAULI[2] - dw.PAULI[2] @ dw.PAULI[1], 2j * dw.PAULI[0])
    assert np.allclose(dw.PAULI[2] @ dw.PAULI[0] - dw.PAULI[0] @ dw.PAULI[2], 2j * dw.PAULI[1])


def test_pauli_dot():
    v = np.array([0.3, -1.2, 0.77])
    expected = v[0] * dw.PAULI[0] + v[1] * dw.PAULI[1] + v[2] * dw.PAULI[2]
    assert np.array_equal(dw.pauli_dot(v), expected)
    with pytest.raises(InvalidArgumentError):
        dw.pauli_dot([1.0, 2.0])


# ---------------------------------------------------------------------------
# 3-d wall


def _random_unit_normal(rng):
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


def _random_spinor(rng):
    psi = rng.normal(size=2) + 1j * rng.normal(size=2)
    return psi / np.linalg.norm(psi)


def test_lambda_3d_diagonal_example():
    wall = dw.validate_lambda_3d(1j * np.eye(2), [0.0, 0.0, 1.0])
    rng = np.random.default_rng(11)
    for _ in range(20):
        assert abs(dw.normal_current_3d(wall, _random_spinor(rng))) <= 1e-15


def test_lambda_3d_rejections():
    with pytest.raises(NotSelfAdjointError):
        dw.validate_lambda_3d(np.eye(2), [0.0, 0.0, 1.0])
    with pytest.raises(InvalidArgumentError):
        dw.validate_lambda_3d(1j * np.eye(2), [0.0, 0.0, 2.0])
    with pytest.raises(InvalidArgumentError):
        dw.validate_lambda_3d(1j * np.eye(3), [0.0, 0.0, 1.0])
    with pytest.raises(InvalidArgumentError):
        dw.validate_lambda_3d(np.full((2, 2), np.nan + 0j), [0.0, 0.0, 1.0])
    with pytest.raises(InvalidArgumentError):
        dw.validate_lambda_3d(1j * np.eye(2), [0.0, np.inf, 1.0])


def test_rejected_lambda_3d_has_violating_spinor():
    leaky = dw.Lambda3D(lam=np.eye(2, dtype=complex), normal=np.array([0.0, 0.0, 1.0]))
    rng = np.random.default_rng(13)
    worst = max(abs(dw.normal_current_3d(leaky, _random_spinor(rng))) for _ in range(100))
    assert worst > 0.1


def test_lambda_3d_random_family():
    rng = np.random.default_rng(17)
    axial_magnitudes = []
    for _ in range(50):
        normal = _random_unit_normal(rng)
        lam = dw.sample_lambda_3d(rng, normal)
        wall = dw.validate_lambda_3d(lam, normal)
        for _ in range(20):
            psi = _random_spinor(rng)
            assert abs(dw.normal_current_3d(wall, psi)) <= 1e-12
            axial_magnitudes.append(abs(dw.axial_current_3d(wall, psi)))
    assert np.mean(axial_magnitudes) > 0.1
    # chiral breaking is generic: essentially every spinor sees a nonzero
    # axial current
    assert np.mean(np.asarray(axial_magnitudes) > 1e-8) >= 0.99


# ---------------------------------------------------------------------------
# domain-wall dispersion


def test_dispersion_massless_point():
    wall = dw.EtaWall(0.0)
    for p in [-1.0, 0.0, 0.4, 0.7, 3.0]:
        pt = dw.dispersion_2p1(wall, p)
        assert pt.energy == -p
        assert pt.decay_rate == 1.0
        assert pt.speed == 1.0
        assert pt.chemical_potential == 0.0
        assert pt.normalizable


def test_dispersion_unit_eta_point():
    pt = dw.dispersion_2p1(dw.EtaWall(1.0), 0.3)
    assert pt.energy == 1.0
    assert pt.speed == 0.0
    assert pt.chemical_potential == 1.0
    assert pt.decay_rate == 0.3
    assert pt.normalizable


def test_dispersion_infinite_eta():
    for eta in [math.inf, -math.inf]:
        wall = dw.EtaWall(eta)
        for p in [-2.0, 0.0, 1.5]:
            pt = dw.dispersion_2p1(wall, p)
            assert pt.energy == p
            assert pt.speed == 1.0
            assert pt.chemical_potential == 0.0
            assert pt.decay_rate == -1.0
            assert not pt.normalizable


def test_threshold_eta_two():
    wall = dw.EtaWall(2.0)
    k0 = dw.dispersion_2p1(wall, 0.0).decay_rate
    k1 = dw.dispersion_2p1(wall, 1.0).decay_rate
    p_star = -k0 / (k1 - k0)
    assert p_star == pytest.approx(0.75, rel=1e-12)
    assert not dw.dispersion_2p1(wall, 0.74).normalizable
    assert dw.dispersion_2p1(wall, 0.76).normalizable
    pt = dw.dispersion_2p1(dw.EtaWall(2.0), 1.0)
    assert pt.energy == pytest.approx(1.4, rel=1e-14)


def test_numeric_oracle_point_values():
    pt = dw.numeric_oracle(dw.EtaWall(0.0), -1.0)
    assert pt.energy == pytest.approx(1.0, rel=1e-13)
    assert pt.decay_rate == pytest.approx(1.0, rel=1e-13)
    pt = dw.numeric_oracle(dw.EtaWall(1.0), 0.3)
    assert pt.energy == pytest.approx(1.0, rel=1e-13)
    assert pt.decay_rate == pytest.approx(0.3, rel=1e-13)
    assert pt.speed == pytest.approx(0.0, abs=1e-13)
    assert pt.chemical_potential == pytest.approx(1.0, rel=1e-13)
    pt = dw.numeric_oracle(dw.EtaWall(2.0), 1.0)
    assert pt.energy == pytest.approx(1.4, rel=1e-13)


def test_closed_form_matches_oracle_everywhere():
    etas = [0.0, math.inf, -math.inf]
    for mag in [0.1, 0.25, 0.5, 0.8, 1.0, 1.25, 2.0, 4.0, 10.0, 1e4]:
        etas.extend([mag, -mag])
    momenta = [-2.3, -0.7, 0.0, 0.41, 1.9]
    samples = 0
    for eta in etas:
        wall = dw.EtaWall(eta)
        for p in momenta:
            closed = dw.dispersion_2p1(wall, p)
            ref = dw.numeric_oracle(wall, p)
            assert closed.energy == pytest.approx(ref.energy, rel=1e-12, abs=1e-12)
            assert closed.decay_rate == pytest.approx(ref.decay_rate, rel=1e-12, abs=1e-12)
            assert closed.speed == pytest.approx(ref.speed, rel=1e-12, abs=1e-12)
            assert closed.chemical_potential == pytest.approx(
                ref.chemical_potential, rel=1e-12, abs=1e-12
            )
            # at an exact threshold the sign of the decay rate is float
            # noise, so only compare the verdicts away from it
            if abs(closed.decay_rate) > 1e-9:
                assert closed.normalizable == ref.normalizable
            samples += 1
    assert samples >= 100


def test_oracle_solve_matches_40_digit_closed_form():
    # the oracle's (E, decay) against E = sin(phi) - cos(phi) p and
    # cos(phi) + sin(phi) p at 40 digits, scaled by 1 + |p| (m = c = 1)
    rng = np.random.default_rng(7)
    worst = 0.0
    with mpmath.workdps(40):
        for _ in range(3000):
            eta = math.tan(rng.uniform(-math.pi / 2, math.pi / 2))
            p = rng.uniform(-10.0, 10.0)
            pt = dw.numeric_oracle(dw.EtaWall(eta), p)
            e, p_ = mpmath.mpf(eta), mpmath.mpf(p)
            sin_phi, cos_phi = 2 * e / (1 + e * e), (1 - e * e) / (1 + e * e)
            err = max(
                abs(pt.energy - (sin_phi - cos_phi * p_)),
                abs(pt.decay_rate - (cos_phi + sin_phi * p_)),
            )
            worst = max(worst, float(err / (1 + abs(p_))))
    assert worst <= 1e-15


def test_speed_never_exceeds_c():
    etas = [0.0, 1e-8, -1e-8, 0.5, -1.0, 1.0, 3.7, -42.0, 1e6, -1e6, 1e300, math.inf, -math.inf]
    for eta in etas:
        pt = dw.dispersion_2p1(dw.EtaWall(eta), 0.3)
        assert pt.speed <= 1.0
    # light speed is reached only in the massless limits on a moderate grid
    for eta in [1e-6, 0.1, 0.9, 1.0, 1.1, 10.0, 1e6]:
        for signed in (eta, -eta):
            assert dw.dispersion_2p1(dw.EtaWall(signed), 0.3).speed < 1.0
    for eta in [0.0, math.inf, -math.inf]:
        assert dw.dispersion_2p1(dw.EtaWall(eta), 0.3).speed == 1.0


def test_reciprocal_eta_symmetry():
    # powers of two have exact reciprocals, so the symmetry is bitwise there
    for eta in [2.0, 4.0, 0.5, 64.0, -8.0]:
        a = dw.dispersion_2p1(dw.EtaWall(eta), 0.37)
        b = dw.dispersion_2p1(dw.EtaWall(1.0 / eta), 0.37)
        assert a.speed == b.speed
        assert a.chemical_potential == b.chemical_potential
    for eta in [0.3, 0.9, 2.5, 123.456, -0.77]:
        a = dw.dispersion_2p1(dw.EtaWall(eta), 0.37)
        b = dw.dispersion_2p1(dw.EtaWall(1.0 / eta), 0.37)
        assert a.speed == pytest.approx(b.speed, rel=5e-15, abs=1e-15)
        assert a.chemical_potential == pytest.approx(b.chemical_potential, rel=5e-15)


def mixing_parts_scalar(eta):
    """(sin phi, cos phi) of the wall mode, one scalar at a time: the reference
    an array call of _mixing_parts must match bit for bit."""
    if math.isinf(eta):
        return 0.0, -1.0
    if abs(eta) <= 1.0:
        return 2.0 * eta / (1.0 + eta * eta), (1.0 - eta) * (1.0 + eta) / (1.0 + eta * eta)
    r = 1.0 / eta
    sin_phi = 2.0 * r / (1.0 + r * r)
    if abs(eta) > 2.0:
        return sin_phi, -(1.0 - r) * (1.0 + r) / (1.0 + r * r)
    return sin_phi, -(eta - 1.0) * (eta + 1.0) / (1.0 + eta * eta)


# the branch edges and their neighbours, where eta^2 overflows, and the extremes
_EDGE_ETAS = [
    e
    for v in (0.0, 1.0, 2.0, math.inf, 5e-324, 1.35e154, 1e300)
    for s in (v, -v)
    for e in (s, math.nextafter(s, math.inf), math.nextafter(s, -math.inf))
]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(allow_nan=False), max_size=64))
def test_mixing_parts_over_an_array_is_the_scalar_rule(drawn):
    rng = np.random.default_rng(31)
    etas = _EDGE_ETAS + drawn + rng.uniform(-3, 3, 500).tolist()
    etas += (rng.choice([-1.0, 1.0], 500) * 10.0 ** rng.uniform(-320, 308, 500)).tolist()
    sin_phi, cos_phi = dw._mixing_parts(np.array(etas))
    got = [(a.hex(), b.hex()) for a, b in zip(sin_phi.tolist(), cos_phi.tolist())]
    assert got == [(a.hex(), b.hex()) for a, b in map(mixing_parts_scalar, etas)]


def test_eta_wall_validation():
    with pytest.raises(InvalidArgumentError):
        dw.EtaWall(math.nan)


def test_dispersion_argument_errors():
    wall = dw.EtaWall(0.5)
    with pytest.raises(InvalidArgumentError):
        dw.dispersion_2p1(wall, math.inf)
    with pytest.raises(InvalidArgumentError):
        dw.numeric_oracle(wall, math.nan)


# ---------------------------------------------------------------------------
# units m = c = 1


def _with_units(eta, p, m, c):
    """dispersion_2p1 and numeric_oracle as they read with the fermion's m and c."""
    sin_phi, cos_phi = dw._mixing_parts(eta)
    closed = (
        sin_phi * m * c * c - cos_phi * p * c,
        cos_phi * m * c + sin_phi * p,
        abs(cos_phi) * c,
        sin_phi * m * c * c,
    )

    def solve(q):
        if math.isinf(eta):
            a_up, a_lo = 1.0, 0.0
        elif abs(eta) > 1.0:
            a_up, a_lo = 1.0, 1.0 / eta
        else:
            a_up, a_lo = eta, 1.0
        mc2, qc = m * c * c, q * c
        lhs = np.array([[a_up, a_lo], [a_lo, -a_up]])
        E, kc = np.linalg.solve(lhs, np.array([qc * a_up + mc2 * a_lo, mc2 * a_up - qc * a_lo]))
        return float(E), float(kc / c)

    dp = max(1.0, abs(p)) * 0.25
    slope_h = (solve(p + dp)[0] - solve(p - dp)[0]) / (2.0 * dp)
    slope_2h = (solve(p + 2.0 * dp)[0] - solve(p - 2.0 * dp)[0]) / (4.0 * dp)
    oracle = (*solve(p), abs((4.0 * slope_h - slope_2h) / 3.0), solve(0.0)[0])
    return closed, oracle


def _bits(values):
    return [float(v).hex() for v in values]


def test_unit_formulas_are_bit_equal_to_the_m_c_forms_at_one():
    # dropping the factors m = c = 1.0 changes no bit of any field
    rng = np.random.default_rng(29)
    etas = [0.0, -0.0, 1.0, -1.0, 2.0, -2.0, math.inf, -math.inf, 1e300]
    etas += list(np.tan(rng.uniform(-math.pi / 2, math.pi / 2, 200)))
    etas += list(rng.choice([-1.0, 1.0], 100) * 10.0 ** rng.uniform(-300, 300, 100))
    for eta in etas:
        wall = dw.EtaWall(eta)
        for p in (-7.5, -1.0, -0.0, 0.0, 0.3, 1.0, 123.25):
            closed, oracle = _with_units(float(eta), p, 1.0, 1.0)
            for point, ref in ((dw.dispersion_2p1(wall, p), closed), (dw.numeric_oracle(wall, p), oracle)):
                got = (point.energy, point.decay_rate, point.speed, point.chemical_potential)
                assert _bits(got) == _bits(ref), (eta, p)
                assert point.normalizable == (ref[1] > 0.0)
    for _ in range(200):
        normal = _random_unit_normal(rng)
        wall = dw.validate_lambda_3d(dw.sample_lambda_3d(rng, normal), normal)
        upper = _random_spinor(rng)
        ns = dw.pauli_dot(wall.normal)
        vector = ns @ wall.lam + wall.lam.conj().T @ ns
        axial = ns + wall.lam.conj().T @ ns @ wall.lam
        c = 1.0
        assert dw.normal_current_3d(wall, upper).hex() == float(np.real(upper.conj() @ vector @ upper) * c).hex()
        assert dw.axial_current_3d(wall, upper).hex() == float(-np.real(upper.conj() @ axial @ upper) * c).hex()
