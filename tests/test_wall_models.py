"""Tests for scattering phases and the thin-well wall construction."""

import cmath
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sae_lab.errors import InvalidArgumentError, SingularConfigurationError
from sae_lab.wall_models import (
    WellApprox,
    effective_gamma,
    reflection,
    square_well_parameters,
)

INF = float("inf")


def test_neumann_phase():
    r = reflection(1.7, 0.0)
    assert r.delta == pytest.approx(2.0 * math.pi, abs=1e-15)
    assert r.R == pytest.approx(1.0 + 0j, abs=1e-14)


def test_dirichlet_phase():
    for gamma in (INF, -INF):
        r = reflection(0.3, gamma)
        assert r.delta == pytest.approx(math.pi, abs=1e-15)
        assert r.R == pytest.approx(-1.0 + 0j, abs=1e-14)


def test_exact_rational_point():
    # gamma=1, k=2: -(1+2i)/(1-2i) = (3-4i)/5
    r = reflection(2.0, 1.0)
    assert r.R == pytest.approx(0.6 - 0.8j, abs=1e-14)
    assert r.delta == pytest.approx(2.0 * math.atan(2.0) + math.pi, rel=1e-15)


@settings(max_examples=200, deadline=None)
@given(
    st.floats(min_value=1e-3, max_value=1e3),
    st.floats(min_value=-1e3, max_value=1e3).filter(lambda g: g != 0.0),
)
def test_phase_against_algebraic_amplitude(k, gamma):
    # independent route: R as the Mobius ratio, not the exponential
    r = reflection(k, gamma)
    direct = -(gamma + 1j * k) / (gamma - 1j * k)
    assert abs(r.R - direct) < 1e-13
    assert abs(abs(r.R) - 1.0) < 1e-15


@settings(max_examples=200, deadline=None)
@given(
    st.floats(min_value=1e-3, max_value=1e3),
    st.floats(min_value=1e-6, max_value=1e3),
    st.booleans(),
)
def test_phase_lands_in_the_right_half_window(k, mag, positive):
    # open-interval statements only hold where rounding cannot touch the
    # endpoints, hence the lower bound on |gamma|
    gamma = mag if positive else -mag
    r = reflection(k, gamma)
    if gamma > 0:
        assert math.pi < r.delta < 2.0 * math.pi
    else:
        assert 0.0 < r.delta < math.pi


def test_bad_wavenumber_rejected():
    for k in (0.0, -1.0, float("nan"), INF):
        with pytest.raises(InvalidArgumentError):
            reflection(k, 1.0)
    with pytest.raises(InvalidArgumentError):
        reflection(1.0, float("nan"))


@pytest.mark.parametrize("gamma", [0.0, 1e-300, -1e-300, 0.37, -0.37, 1e300, -1e300, INF, -INF])
def test_reflection_over_an_array_is_the_scalar_closed_form(gamma):
    rng = np.random.default_rng(7)
    k = np.concatenate([np.geomspace(1e-310, 1e308, 300), rng.uniform(0.01, 50.0, 20000)])
    r = reflection(k, gamma)
    delta = [2.0 * math.atan(ki / gamma) + math.pi if gamma != 0.0 else 2.0 * math.pi for ki in k.tolist()]
    R = [cmath.exp(1j * d) for d in delta]

    def bits(values):
        return [float(v).hex() for v in values]

    assert bits(r.k) == bits(k)
    assert bits(r.delta) == bits(delta)
    assert bits(r.R.real) == bits(z.real for z in R)
    assert bits(r.R.imag) == bits(z.imag for z in R)


def test_bad_wavenumber_in_an_array_is_named():
    with pytest.raises(InvalidArgumentError, match="got -3.0"):
        reflection([1.0, 2.0, -3.0, math.nan], 1.0)
    # in the order of a loop over k: a bad first k, then a NaN gamma, then the rest
    with pytest.raises(InvalidArgumentError, match="got nan"):
        reflection([math.nan, 1.0], math.nan)
    with pytest.raises(InvalidArgumentError, match="gamma must not be NaN"):
        reflection([1.0, INF], math.nan)


def test_well_parameters_closed_form():
    w = square_well_parameters(2.0, 0.01, 1.0)
    assert w.q == pytest.approx(math.pi / 0.02 - 4.0 / math.pi, rel=1e-15)
    assert w.V0 == pytest.approx(w.q**2 / 2.0, rel=1e-15)
    assert w.target_gamma == 2.0
    # with mass 3 the same q needs V0 smaller by 1/3
    w3 = square_well_parameters(2.0, 0.01, 3.0)
    assert w3.q == w.q
    assert w3.V0 == pytest.approx(w.V0 / 3.0, rel=1e-15)


def test_effective_gamma_linear_convergence():
    # gamma_eff - gamma ~ -(4 gamma^2 / pi^2) eps; check value and log-log slope
    for gamma in (-3.0, 2.0):
        eps = np.array([0.02, 0.01, 0.005, 0.0025])
        errs = np.array([
            abs(effective_gamma(square_well_parameters(gamma, e, 1.0), 1.0) - gamma)
            for e in eps
        ])
        slope = np.polyfit(np.log(eps), np.log(errs), 1)[0]
        assert slope == pytest.approx(1.0, abs=0.15)
        predicted = 4.0 * gamma**2 / math.pi**2 * eps[-1]
        assert errs[-1] == pytest.approx(predicted, rel=0.05)
        # approach from below
        assert effective_gamma(square_well_parameters(gamma, eps[-1], 1.0), 1.0) < gamma


def test_neumann_target_is_exact():
    # q*eps = pi/2 exactly up to rounding, and cot(pi/2) = 0
    for eps in (0.02, 0.01, 0.005, 0.0025):
        w = square_well_parameters(0.0, eps, 1.0)
        assert abs(effective_gamma(w, 1.0)) <= 1e-10


def test_effective_gamma_does_not_depend_on_mass():
    # V0 = q^2/2m carries the mass and q = sqrt(2 m V0) takes it out again,
    # up to the largest double, where 2 m overflows
    want = effective_gamma(square_well_parameters(2.0, 0.01, 1.0), 1.0)
    for m in (1e-300, 3.0, 1e300, sys.float_info.max):
        assert effective_gamma(square_well_parameters(2.0, 0.01, m), m) == pytest.approx(want, rel=1e-14)


def test_too_wide_well_rejected():
    gamma = 5.0
    bad_eps = math.pi**2 / (4.0 * gamma) * 1.01
    with pytest.raises(InvalidArgumentError):
        square_well_parameters(gamma, bad_eps, 1.0)
    # just under the threshold still works
    ok_eps = math.pi**2 / (4.0 * gamma) * 0.99
    assert square_well_parameters(gamma, ok_eps, 1.0).q > 0


def test_cotangent_pole_detected():
    q = 10.0 * math.pi
    w = WellApprox(epsilon=0.1, V0=q * q / 2.0, q=q, target_gamma=0.0)
    with pytest.raises(SingularConfigurationError):
        effective_gamma(w, 1.0)


@settings(max_examples=100, deadline=None)
@given(st.floats(min_value=-20.0, max_value=20.0), st.floats(min_value=1e-4, max_value=0.02))
def test_effective_gamma_tracks_target(gamma, eps):
    w = square_well_parameters(gamma, eps, 1.0)
    got = effective_gamma(w, 1.0)
    # linear error bound with a generous constant
    assert abs(got - gamma) <= 1.0 * max(1.0, gamma**2) * eps
