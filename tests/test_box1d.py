"""Tests for the 1-d Robin box solver.

Root literals below were frozen from an independent 50-digit mpmath oracle
(bisection on the quantization conditions, plus mpmath quadrature for the
moments); the package itself uses scipy.  Tolerances reflect double precision.
"""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from sae_lab import box1d
from sae_lab.box1d import (
    _SERIES_CUTOFF,
    BoxSpec,
    boundary_observables,
    eval_wavefunction,
    solve_spectrum,
    spectral_flow,
    uncertainty_report_1d,
)
from sae_lab.errors import DomainError, InvalidArgumentError

INF = float("inf")

# (m, L, gamma) -> list of (parity, branch, wavenumber, energy)
FROZEN = {
    (1, 1, 1): [
        ("even", "oscillatory", 1.306542374188806202229, 0.8535264877754612417037),
        ("odd", "oscillatory", 3.673194406304251445503, 6.746178573252421125684),
        ("even", "oscillatory", 6.58462004256417319219, 21.67861055246890699061),
        ("odd", "oscillatory", 9.631684635691870882129, 46.38467446071142375755),
        ("even", "oscillatory", 12.72324078413132999471, 80.94042802549141047288),
        ("odd", "oscillatory", 15.83410536933241415395, 125.3594464235607938204),
    ],
    (1, 1, -4): [
        ("even", "evanescent", 4.130676277949409456154, -8.531243256606993482644),
        ("odd", "evanescent", 3.830016096309074962706, -7.334511648993302690082),
        ("even", "oscillatory", 4.917428351999249285732, 12.09055079852302636837),
        ("odd", "oscillatory", 8.549564542916256094099, 36.54752693674542549592),
        ("even", "oscillatory", 11.91878381515865262102, 71.02870381624392340411),
        ("odd", "oscillatory", 15.19309203950117552491, 115.4150228603769946382),
    ],
    (1, 1, -0.5): [
        ("even", "evanescent", 1.043626895591537208949, -0.544578548601014653327),
        ("odd", "oscillatory", 2.786498150651177032042, 3.88228597179121484532),
        ("even", "oscillatory", 6.120152767193578552236, 18.72813494689360845662),
        ("odd", "oscillatory", 9.317556525915368697345, 43.40842980681403739164),
        ("even", "oscillatory", 12.48632576930179373059, 77.95416560856501551575),
        ("odd", "oscillatory", 15.6440630071210651966, 122.3683536853868925881),
    ],
    (2, 3, 2.5): [
        ("even", "oscillatory", 0.8328203138530206606243, 0.1733974187915609592202),
        ("odd", "oscillatory", 1.696851746350068659384, 0.7198264622728194369782),
        ("even", "oscillatory", 2.60436496424899898516, 1.695679216751922440527),
        ("odd", "oscillatory", 3.550578910570464159472, 3.151652650046936031848),
        ("even", "oscillatory", 4.525273162750957669601, 5.119524299378513855162),
        ("odd", "oscillatory", 5.519517489067843266684, 7.616268328031447328737),
    ],
}


@pytest.mark.parametrize("key", sorted(FROZEN, key=str))
def test_frozen_roots(key):
    m, L, gamma = key
    states = solve_spectrum(BoxSpec(m, L, gamma), 6)
    for state, (parity, branch, w, energy) in zip(states, FROZEN[key]):
        assert state.parity == parity
        assert state.branch == branch
        assert state.wavenumber == pytest.approx(w, rel=1e-12)
        assert state.energy == pytest.approx(energy, rel=1e-12)


def test_dirichlet_closed_form():
    for gamma in (INF, -INF):
        states = solve_spectrum(BoxSpec(1.0, 1.0, gamma), 5)
        for n, state in enumerate(states):
            want = math.pi**2 * (n + 1) ** 2 / 2.0
            assert state.energy == pytest.approx(want, rel=1e-14)
            assert state.branch == "oscillatory"


def test_neumann_closed_form():
    states = solve_spectrum(BoxSpec(1.0, 1.0, 0.0), 5)
    assert states[0].branch == "zero-mode"
    assert states[0].energy == 0.0
    for n, state in enumerate(states):
        assert state.energy == pytest.approx(math.pi**2 * n**2 / 2.0, rel=1e-14, abs=1e-300)


def test_negative_state_counts():
    # gamma in units of 1/L; counts 2/2/1/1/0/0
    for gamma, want in [(-10, 2), (-4, 2), (-1, 1), (-0.5, 1), (0.5, 0), (4, 0)]:
        states = solve_spectrum(BoxSpec(1.0, 1.0, gamma), 8)
        assert sum(1 for s in states if s.energy < 0) == want


def test_deep_binding_asymptote():
    states = solve_spectrum(BoxSpec(1.0, 1.0, -50.0), 4)
    for s in states[:2]:
        assert s.energy == pytest.approx(-(50.0**2) / 2.0, rel=1e-10)
    # remaining levels approach the Dirichlet ladder shifted down one slot
    assert states[2].energy == pytest.approx(5.353967696038527381632, rel=1e-12)


def test_linear_zero_mode_at_minus_two_over_L():
    states = solve_spectrum(BoxSpec(1.0, 1.0, -2.0), 4)
    assert states[0].branch == "evanescent"
    assert states[0].energy < 0
    assert states[1].branch == "zero-mode"
    assert states[1].parity == "odd"
    assert states[1].energy == 0.0
    # psi = sqrt(12/L^3) x
    assert eval_wavefunction(states[1], 0.25) == pytest.approx(math.sqrt(12.0) * 0.25, rel=1e-14)


def test_frozen_normalization_and_boundary_density():
    s0 = solve_spectrum(BoxSpec(1, 1, 1), 1)[0]
    assert s0.norm == pytest.approx(1.072479086567099082207, rel=1e-12)
    assert eval_wavefunction(s0, 0.5) ** 2 == pytest.approx(0.7253170866856988105514, rel=1e-12)
    obs = boundary_observables(s0)
    assert obs.var_x == pytest.approx(0.07369375226669607933004, rel=1e-12)

    e0 = solve_spectrum(BoxSpec(1, 1, -4), 1)[0]
    assert e0.norm == pytest.approx(0.484231485117583984922, rel=1e-12)
    assert eval_wavefunction(e0, 0.5) ** 2 == pytest.approx(3.765519868820819039724, rel=1e-12)
    assert boundary_observables(e0).var_x == pytest.approx(0.1494190497340592207849, rel=1e-12)

    o1 = solve_spectrum(BoxSpec(1, 1, -10), 2)[1]
    assert o1.parity == "odd" and o1.branch == "evanescent"
    assert o1.wavenumber == pytest.approx(9.999091217152325509385, rel=1e-12)
    assert o1.norm == pytest.approx(0.04265133328991326284918, rel=1e-12)
    assert eval_wavefunction(o1, 0.5) ** 2 == pytest.approx(10.00727654492562905326, rel=1e-12)


def _reference_moments(state):
    """(int f^2, <x^2>) in 50-digit mpmath from the antiderivatives of f^2.

    f^2 = (1 +- g)/2 for cos/sin and (g +- 1)/2 for cosh/sinh, g = cos(bx) or
    cosh(bx) with b = 2w; g0 and g2 are the antiderivatives of g and x^2 g at a,
    both odd in x, so each integral over [-a, a] is twice g0 or g2.
    """
    with mpmath.workdps(50):
        a, b = mpmath.mpf(state.spec.L) / 2, 2 * mpmath.mpf(state.wavenumber)
        sign = 1 if state.parity == "even" else -1
        if state.branch == "oscillatory":
            s, c, t = mpmath.sin(a * b), mpmath.cos(a * b), 1
        else:
            s, c, t = mpmath.sinh(a * b), mpmath.cosh(a * b), -1
        g0 = s / b
        g2 = a * a * s / b + t * (2 * a * c / b**2 - 2 * s / b**3)
        if state.branch == "oscillatory":
            m0, m2 = a + sign * g0, a**3 / 3 + sign * g2
        else:
            m0, m2 = g0 + sign * a, g2 + sign * a**3 / 3
        return m0, m2 / m0


def _series_cutoff_gammas():
    """Gammas whose lowest state of each branch and parity sits at u = wL just
    below and just above the series cutoff (L = 1)."""
    cases = []
    for u in (_SERIES_CUTOFF * (1 - 1e-6), _SERIES_CUTOFF * (1 + 1e-6)):
        cases += [
            (u * math.tan(u / 2), "oscillatory", "even", u),
            (-u / math.tan(u / 2), "oscillatory", "odd", u),
            (-u * math.tanh(u / 2), "evanescent", "even", u),
            (-u / math.tanh(u / 2), "evanescent", "odd", u),
        ]
    return cases


@pytest.mark.parametrize(
    "gamma", [1e-9, -1e-9, -2 + 1e-9, -2 - 1e-9, -5e4, -1e6, -1e12, 1e15]
    + [case[0] for case in _series_cutoff_gammas()],
)
def test_moments_match_closed_form_reference(gamma):
    # the wall-bound densities at gamma <= -5e4 are narrower than adaptive quadrature resolves
    states = solve_spectrum(BoxSpec(1.0, 1.0, gamma), 21)
    for s in states:
        rep = uncertainty_report_1d(s)
        m0, x2 = _reference_moments(s)
        assert rep.observables.var_x == pytest.approx(float(x2), rel=1e-13)
        log_m0 = float(mpmath.log(m0))
        assert abs(2 * s.log_norm + log_m0) <= 1e-15 * max(1.0, abs(log_m0))
        assert rep.slack >= -1e-9 * max(1.0, abs(rep.lhs))
    for g, branch, parity, u in _series_cutoff_gammas():
        if g == gamma:
            wL = [s.wavenumber for s in states if (s.branch, s.parity) == (branch, parity)]
            assert wL and wL[0] == pytest.approx(u, rel=1e-12)


def _bisect(f, lo, hi):
    """The root of an increasing f on [lo, hi] by 40-digit bisection."""
    with mpmath.workdps(40):
        lo, hi = mpmath.mpf(lo), mpmath.mpf(hi)
        for _ in range(160):
            mid = (lo + hi) / 2
            if f(mid) < 0:
                lo = mid
            else:
                hi = mid
        return (lo + hi) / 2


def _oracle_kL(c, n):
    """Level n of the phase equation x = n pi + 2 atan(c/x), x = kL, on
    (n pi, (n + 1) pi) for c > 0 and ((n - 1) pi, n pi) for c < 0, where x
    minus the right side runs from negative to positive."""
    with mpmath.workdps(40):
        c = mpmath.mpf(c)
        lo = (n if c > 0 else n - 1) * mpmath.pi

        def phase(x):
            return x - n * mpmath.pi - 2 * mpmath.atan(c / x)

        return _bisect(phase, max(lo, mpmath.mpf("1e-30")), lo + mpmath.pi)


def _oracle_qL(c, parity):
    """The wall state u = qL of c = gamma L < 0: u tanh(u/2) = |c| (even) or
    u coth(u/2) = |c| (odd), whose root lies below |c| + 2."""
    with mpmath.workdps(40):
        c = mpmath.mpf(c)
        if parity == "even":
            return _bisect(lambda u: u * mpmath.tanh(u / 2) + c, 0, 2 - c)
        return _bisect(lambda u: u / mpmath.tanh(u / 2) + c, mpmath.mpf("1e-30"), -c)


def test_oscillatory_levels_match_phase_equation_oracle():
    gammas = [2.0 * math.tan(t) for t in np.linspace(-math.pi / 2, math.pi / 2, 62)[1:-1]]
    gammas += [sign * 10.0**e for e in (13, 16, 20, 50, 100, 150, 200, 300) for sign in (1, -1)]
    # the wall states of gamma <= -1e200 have energies beyond double precision
    gammas = [g for g in gammas if g > -1e200]
    # just below gamma = 0, where the even wall state is born
    gammas += [-(10.0**-e) for e in (3, 6, 9, 11)]
    # gamma = -2/L, where level 1 turns from oscillatory to wall-bound, is a
    # small difference of large terms on both sides
    near = [-2.0 + sign * delta for delta in (1e-3, 1e-6, 1e-9, 1e-11) for sign in (1, -1)]
    k, _, branch, parity = box1d._levels(1.0, 1.0, gammas + near, 7)
    for row, gamma in enumerate(gammas + near):
        rel = 1e-13 if gamma in near else 1e-12
        for n in range(7):
            if branch[row, n] == 0:
                assert parity[row, n] == n % 2
                assert k[row, n] == pytest.approx(float(_oracle_kL(gamma, n)), rel=rel)
            elif branch[row, n] == 1:
                want = _oracle_qL(gamma, box1d._PARITIES[parity[row, n]])
                assert k[row, n] == pytest.approx(float(want), rel=rel)


def test_levels_near_linear_zero_mode_off_unit_length():
    # at L != 1, gamma + 2/L carries the rounding of 2/L, which near
    # gamma = -2/L is large against the difference itself
    cases = [(1.2606927674896788, -1.5864293439116408)]
    cases += [
        (L, -(2.0 / L) * (1.0 + sign * delta))
        for L in (0.37, 3.3)
        for delta in (1e-10, 1e-11)
        for sign in (1, -1)
    ]
    for L, gamma in cases:
        _, energy, branch, parity = box1d._levels(1.0, L, [gamma], 5)
        with mpmath.workdps(40):
            c = mpmath.mpf(gamma) * mpmath.mpf(L)  # exact: 106 bits
        for n in range(5):
            if branch[0, n] == 0:
                want = _oracle_kL(c, n) ** 2 / (2 * L * L)
            else:
                assert branch[0, n] == 1
                want = -_oracle_qL(c, box1d._PARITIES[parity[0, n]]) ** 2 / (2 * L * L)
            assert energy[0, n] == pytest.approx(float(want), rel=1e-13, abs=0.0)


def test_orthonormality_via_quadrature():
    states = solve_spectrum(BoxSpec(1.0, 1.0, 1.0), 4)
    for i, si in enumerate(states):
        for j, sj in enumerate(states):
            ip, _ = quad(
                lambda x: eval_wavefunction(si, x) * eval_wavefunction(sj, x),
                -0.5, 0.5, epsabs=1e-12, epsrel=1e-12, limit=200,
            )
            assert ip == pytest.approx(1.0 if i == j else 0.0, abs=1e-9)


def test_robin_condition_at_wall_by_finite_difference():
    for gamma in (1.0, -0.7, -3.5, 12.0):
        for s in solve_spectrum(BoxSpec(1.0, 1.0, gamma), 4):
            h = 1e-7
            half = 0.5
            deriv = (eval_wavefunction(s, half) - eval_wavefunction(s, half - h)) / h
            resid = gamma * eval_wavefunction(s, half) + deriv
            scale = max(1.0, abs(gamma)) * max(abs(eval_wavefunction(s, half)), s.norm)
            assert abs(resid) / scale < 1e-5


def test_continuity_across_zero_mode_crossings():
    for gamma0 in (0.0, -2.0):
        base = [s.energy for s in solve_spectrum(BoxSpec(1, 1, gamma0), 5)]
        for eps in (1e-9, -1e-9):
            near = [s.energy for s in solve_spectrum(BoxSpec(1, 1, gamma0 + eps), 5)]
            assert np.allclose(near, base, atol=1e-7)


def test_constant_state_uncertainty_saturates():
    state = solve_spectrum(BoxSpec(1.0, 1.0, 0.0), 1)[0]
    rep = uncertainty_report_1d(state)
    obs = rep.observables
    assert obs.a == pytest.approx(1.0, abs=1e-12)
    assert obs.b == 0.0
    assert obs.c == pytest.approx(0.0, abs=1e-12)
    assert rep.dx == pytest.approx(math.sqrt(1.0 / 12.0), rel=1e-10)
    assert abs(rep.slack) <= 1e-9


def test_linear_state_uncertainty_values():
    L = 1.0
    states = solve_spectrum(BoxSpec(1.0, L, -2.0 / L), 2)
    rep = uncertainty_report_1d(states[1])
    obs = rep.observables
    assert obs.a == pytest.approx(3.0, abs=1e-9)
    assert obs.b == pytest.approx(-12.0 / L**2, abs=1e-9)
    assert obs.c == pytest.approx(0.0, abs=1e-9)
    assert rep.dx == pytest.approx(math.sqrt(3.0 / 20.0) * L, rel=1e-9)
    assert rep.rhs == pytest.approx(-16.0 / (3.0 * L**2), abs=1e-9)
    assert rep.lhs == 0.0
    assert rep.slack >= 0


def test_slack_nonnegative_along_sweep():
    for gamma in np.linspace(-6.0, 6.0, 13):
        for s in solve_spectrum(BoxSpec(1.0, 1.0, float(gamma)), 4):
            assert uncertainty_report_1d(s).slack >= -1e-9


def test_spectral_flow_matches_centered_difference():
    m, L = 1.0, 1.0
    for gamma in (-1.0, 0.5, 3.0):
        h = 1e-5
        lo = solve_spectrum(BoxSpec(m, L, gamma - h), 4)
        hi = solve_spectrum(BoxSpec(m, L, gamma + h), 4)
        mid = solve_spectrum(BoxSpec(m, L, gamma), 4)
        for n in range(4):
            numeric = (hi[n].energy - lo[n].energy) / (2 * h)
            predicted = spectral_flow(mid[n])
            assert predicted == pytest.approx(numeric, rel=1e-4)


def test_spectral_flow_dirichlet_is_zero():
    for s in solve_spectrum(BoxSpec(1.0, 1.0, INF), 3):
        assert spectral_flow(s) == 0.0


def test_spectral_flow_neumann_ground_state():
    s = solve_spectrum(BoxSpec(1.0, 2.0, 0.0), 1)[0]
    # constant state: rho = 1/L at both walls
    assert spectral_flow(s) == pytest.approx(1.0 / 2.0, rel=1e-12)


def test_deeply_bound_states_do_not_overflow():
    states = solve_spectrum(BoxSpec(1.0, 1.0, -800.0), 3)
    assert states[0].energy == pytest.approx(-(800.0**2) / 2.0, rel=1e-9)
    rho = eval_wavefunction(states[0], 0.5) ** 2
    assert math.isfinite(rho)
    assert rho == pytest.approx(800.0, rel=1e-2)
    assert spectral_flow(states[0]) == pytest.approx(800.0, rel=1e-2)


@pytest.mark.parametrize("gamma", [-1e9, -1e12, -1e15])
def test_wavefunction_of_wall_bound_states_meets_the_wall_density(gamma):
    for s in solve_spectrum(BoxSpec(1.0, 1.0, gamma), 2):
        assert s.branch == "evanescent"
        rho = boundary_observables(s).rho_plus
        assert eval_wavefunction(s, 0.5) ** 2 == pytest.approx(rho, rel=1e-13)
        assert eval_wavefunction(s, -0.5) ** 2 == pytest.approx(rho, rel=1e-13)


def test_eval_outside_box_raises():
    s = solve_spectrum(BoxSpec(1.0, 1.0, 1.0), 1)[0]
    with pytest.raises(DomainError):
        eval_wavefunction(s, 0.5000001)
    with pytest.raises(DomainError):
        eval_wavefunction(s, np.array([0.0, -0.7]))


def test_invalid_arguments_rejected():
    with pytest.raises(InvalidArgumentError):
        BoxSpec(-1.0, 1.0, 0.0)
    with pytest.raises(InvalidArgumentError):
        BoxSpec(1.0, 0.0, 0.0)
    with pytest.raises(InvalidArgumentError):  # 2/L overflows
        BoxSpec(1.0, 1e-309, 0.0)
    with pytest.raises(InvalidArgumentError):
        BoxSpec(1.0, 1.0, float("nan"))
    with pytest.raises(InvalidArgumentError):
        solve_spectrum(BoxSpec(1.0, 1.0, 0.0), 0)
    # wall-bound energy -gamma^2/2m beyond double precision
    with pytest.raises(InvalidArgumentError):
        solve_spectrum(BoxSpec(1.0, 1.0, -1e200), 3)


@pytest.mark.parametrize("count", [5, 50])
@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_huge_gamma_reaches_the_dirichlet_levels(sign, count):
    # From |gamma| L = 2^52 on, the phase term of the oscillatory levels rounds
    # to its Dirichlet value.  Below it, a root search ends within a few ulps
    # of kL, so a level may dip by up to 2e-15 relative between neighbouring gammas.
    dirichlet = [s.energy for s in solve_spectrum(BoxSpec(1.0, 1.0, INF), count)]
    prev = None
    for gamma in np.sort(sign * np.logspace(13, 154, 400)):
        states = solve_spectrum(BoxSpec(1.0, 1.0, float(gamma)), count)
        energies = [s.energy for s in states]
        if prev is not None:
            assert all(b >= a - 2e-15 * abs(a) for a, b in zip(prev, energies))
        prev = energies
        if abs(gamma) >= 2.0**52:
            osc = [s.energy for s in states if s.branch == "oscillatory"]
            assert osc == pytest.approx(dirichlet[: len(osc)], rel=2e-15)


def test_spectrum_root_searches_match_the_levels_needed():
    gammas = [2.0 * math.tan(x) for x in np.linspace(-math.pi / 2, math.pi / 2, 202)[1:-1]]
    gammas += [base + eps for base in (0.0, -2.0) for eps in (0.0, 1e-9, -1e-9, 1e-13, -1e-13)]
    gammas += [1e15, -1e15, 1e100, -1e100, INF]
    # every root is solved on its own, so a sweep row is bit-equal to the
    # spectrum of its gamma alone
    for count in (1, 2, 5):
        k, energy, branch, parity = box1d._levels(1.0, 1.0, gammas, count)
        for row, gamma in enumerate(gammas):
            alone = solve_spectrum(BoxSpec(1.0, 1.0, gamma), count)
            assert [s.wavenumber for s in alone] == k[row].tolist()
            assert [s.energy for s in alone] == energy[row].tolist()
            assert [s.branch for s in alone] == [box1d._BRANCHES[b] for b in branch[row]]
            assert [s.parity for s in alone] == [box1d._PARITIES[p] for p in parity[row]]

    # the paper's monotonicity in gamma, to within 4 ulps, along the
    # 2001-row sweep of `spectrum --gamma-steps 2001`, at its finite gammas
    sweep = [2.0 * math.tan(x) for x in np.linspace(-math.pi / 2, math.pi / 2, 2001)[1:-1]]
    energy = box1d._levels(1.0, 1.0, sweep, 5)[1]
    lower, upper = energy[:-1], energy[1:]
    assert np.all(upper >= lower - 4.0 * np.spacing(np.abs(lower)))

    for gamma in gammas:
        spec = BoxSpec(1.0, 1.0, gamma)
        for count in (1, 2, 3, 4, 5, 6, 7, 10, 21):
            assert solve_spectrum(spec, count) == solve_spectrum(spec, 2 * count + 4)[:count]


def test_deep_wall_pair_is_ordered_as_solved():
    # Newton keeps each root in its bracket: the even wall state's lies at or
    # above |gamma| and the odd one's at or below it, so E0 <= E1 with no
    # reordering.  Below d = gamma L + 2 = -40 both brackets are the point
    # |gamma|, a tie; the splitting rounds away from gamma L ~ -38 on.
    gl = np.linspace(-60.0, -2.0, 200_001)[:-1]
    for L in (0.5, 1.0, 3.7):
        gammas = gl / L
        _, energy, branch, parity = box1d._levels(1.0, L, gammas, 2)
        assert np.all(branch == 1)
        assert np.all(parity == [0, 1])
        assert np.all(energy[:, 0] <= energy[:, 1])
        point = (gammas + 2.0 / L) * L < -40.0
        assert np.count_nonzero(point) > 0
        assert np.array_equal(energy[point, 0], energy[point, 1])


@settings(max_examples=25, deadline=None)
@given(st.floats(min_value=-25.0, max_value=25.0), st.integers(min_value=1, max_value=6))
def test_energies_strictly_increasing(gamma, count):
    # up to |gamma| = 25 the wall-pair splitting ~exp(-|gamma|L) still
    # exceeds double rounding, so strict ordering must hold
    states = solve_spectrum(BoxSpec(1.0, 1.0, gamma), count)
    energies = [s.energy for s in states]
    assert all(b > a for a, b in zip(energies, energies[1:]))
    assert [s.index for s in states] == list(range(count))


@settings(max_examples=15, deadline=None)
@given(st.floats(min_value=-12.0, max_value=12.0))
def test_states_normalized(gamma):
    for s in solve_spectrum(BoxSpec(1.0, 1.0, gamma), 3):
        total, _ = quad(
            lambda x: eval_wavefunction(s, x) ** 2,
            -0.5, 0.5, epsabs=1e-12, epsrel=1e-12, limit=200,
        )
        assert total == pytest.approx(1.0, abs=1e-9)
