"""Robin-walled particle in a 1-d box: exact spectra and boundary observables.

A particle of mass ``m`` lives on the interval [-L/2, L/2].  Both walls carry
the reflecting boundary condition

    gamma * psi + d(psi)/dn = 0,

with the same real parameter ``gamma`` on each side (n is the outward normal).
``gamma = 0`` is the Neumann wall, ``gamma = +/-inf`` the Dirichlet wall, and
sufficiently negative ``gamma`` binds states to the walls with negative energy.

Eigenstates come in four families, all handled here in closed form plus a
bracketed one-dimensional root search; their norms, <x^2> and wall densities
are elementary integrals, taken in closed form too:

* oscillatory even  ``cos(k x)``   with gamma*cos(kL/2) = k*sin(kL/2)
* oscillatory odd   ``sin(k x)``   with gamma*sin(kL/2) = -k*cos(kL/2)
* evanescent even   ``cosh(q x)``  with gamma = -q*tanh(qL/2)   (gamma < 0)
* evanescent odd    ``sinh(q x)``  with gamma = -q*coth(qL/2)   (gamma < -2/L)

plus the two zero-energy crossings: the constant state at gamma = 0 and the
linear state at gamma = -2/L.  Energies are k^2/2m and -q^2/2m respectively.

With x = kL and c = gamma L, the two oscillatory conditions are one bounded
phase equation, x = n pi + 2 atan(c/x): level n is even iff n is even, lies
in (n pi, (n + 1) pi) for c > 0 and in ((n - 1) pi, n pi) for c < 0, and
each level is one root search on its own bracket.  The Dirichlet wall is
its end c = inf.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from .errors import DomainError, InvalidArgumentError, SolverFailureError

__all__ = [
    "BoxSpec",
    "Eigenstate1D",
    "BoundaryObservables1D",
    "UncertaintyReport1D",
    "solve_spectrum",
    "eval_wavefunction",
    "boundary_observables",
    "uncertainty_report_1d",
    "spectral_flow",
]

# Within this distance of gamma L = 0 and gamma L = -2 the root brackets
# degenerate (the root collides with a bracket endpoint to machine
# precision), so we snap to the exact crossing.
_ZERO_MODE_SNAP = 1e-12
# Below this u = wL the state moments come from a power series (see
# _density_integrals), above it from the closed forms.
_SERIES_CUTOFF = 2.0

_BRENTQ_OPTS = dict(xtol=1e-15, rtol=8.9e-16, maxiter=200)


@dataclass(frozen=True)
class BoxSpec:
    """Interval problem definition: mass, box length, wall parameter.

    ``gamma`` lives on the extended real line; ``+inf`` and ``-inf`` both mean
    the Dirichlet wall (they are the same self-adjoint extension, approached
    from either side).
    """

    m: float
    L: float
    gamma: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.m) and self.m > 0):
            raise InvalidArgumentError(f"mass must be positive and finite, got {self.m}")
        if not (math.isfinite(self.L) and self.L > 0):
            raise InvalidArgumentError(f"box length must be positive and finite, got {self.L}")
        if math.isnan(self.gamma):
            raise InvalidArgumentError("gamma must not be NaN")

    @property
    def dirichlet(self) -> bool:
        return math.isinf(self.gamma)


@dataclass(frozen=True)
class Eigenstate1D:
    """One normalized eigenstate of the Robin box.

    ``branch`` is one of ``"oscillatory"``, ``"evanescent"``, ``"zero-mode"``;
    ``parity`` is ``"even"`` or ``"odd"``.  ``wavenumber`` holds k for
    oscillatory states, the decay rate q for evanescent ones, and 0 for the
    zero modes.  ``norm`` is the amplitude A of the closed-form wavefunction;
    ``log_norm`` is log(A), which stays finite for deeply bound states
    (huge q), where A underflows.
    """

    spec: BoxSpec
    index: int
    parity: str
    branch: str
    wavenumber: float
    energy: float
    norm: float
    log_norm: float


@dataclass(frozen=True)
class BoundaryObservables1D:
    """Boundary densities and the derived wall coefficients of one state.

    a = (L/2)(rho_+ + rho_-), b = gamma (rho_+ + rho_-), c = rho_+ - rho_-,
    where rho_+- are the probability densities at x = +-L/2.  ``mean_p2`` is
    the expectation of p^2 = -d^2/dx^2, which equals 2mE here and is allowed
    to be negative for wall-bound states.
    """

    a: float
    b: float
    c: float
    rho_plus: float
    rho_minus: float
    pbar: float
    mean_x: float
    var_x: float
    mean_p2: float


@dataclass(frozen=True)
class UncertaintyReport1D:
    """Both sides of the boundary-corrected uncertainty bound for one state.

    lhs = 2mE; rhs = pbar^2 + ((1 + c*<x> - a) / (2 dx))^2 + b + c^2/4.
    slack = lhs - rhs is nonnegative for every eigenstate, and zero exactly
    for the two zero-mode crossings.
    """

    lhs: float
    rhs: float
    slack: float
    dx: float
    observables: BoundaryObservables1D


def _density_integrals(L: float, branch: str, parity: str, w: float) -> tuple[float, float, float]:
    """log of the integral of f^2, <x^2> and the wall density f(L/2)^2 / int f^2.

    f is cos, sin, cosh or sinh(w x), or 1 and x for the zero modes, on
    [-a, a] with a = L/2.  Writing f^2 = (1 +- cos 2wx)/2 or (cosh 2wx +- 1)/2
    and K_j(u) = int_0^1 s^(2j) cos(us) ds (cosh for evanescent states), with
    u = wL, the integrals of f^2 and x^2 f^2 are a (1 +- K_0) and
    a^3 (1/3 +- K_1), or a (K_0 +- 1) and a^3 (K_1 +- 1/3).  <x> = 0 by parity.
    """
    if branch == "zero-mode":
        if parity == "even":
            return math.log(L), L * L / 12.0, 1.0 / L
        return 3.0 * math.log(L) - math.log(12.0), 0.15 * L * L, 3.0 / L
    a = 0.5 * L
    sign = 1.0 if parity == "even" else -1.0
    hyperbolic = branch == "evanescent"
    u = w * L
    log_scale = 0.0
    if hyperbolic and u >= _SERIES_CUTOFF:
        # sinh u, cosh u, 1 and f(a)^2 scaled by e^{-u}; the nested divisions
        # never form u^3, which overflows for the largest |gamma|
        log_scale = u
        sn, cs, one = -0.5 * math.expm1(-2.0 * u), 0.5 + 0.5 * math.exp(-2.0 * u), math.exp(-u)
        m0 = sn / u + sign * one
        m2 = (sn - 2.0 * (cs - sn / u) / u) / u + sign * one / 3.0
        wall = 0.25 * (1.0 + sign * one) ** 2
    else:
        even_odd = (math.cosh, math.sinh) if hyperbolic else (math.cos, math.sin)
        wall = even_odd[sign < 0](0.5 * u) ** 2
        if u < _SERIES_CUTOFF:
            # d_j = K_j(u) - K_j(0) = sum_{n >= 1} (-+u^2)^n / ((2n)! (2n + 2j + 1)),
            # so the odd states near a zero-mode crossing suffer no cancellation;
            # twelve terms reach double precision below the cutoff
            step = u * u if hyperbolic else -u * u
            term, d0, d1 = 1.0, 0.0, 0.0
            for n in range(1, 13):
                term *= step / ((2 * n - 1) * (2 * n))
                d0 += term / (2 * n + 1)
                d1 += term / (2 * n + 3)
            slope = 1.0 if hyperbolic else sign
            m0, m2 = (1.0 + sign) + slope * d0, (1.0 + sign) / 3.0 + slope * d1
        else:
            sn, cs = math.sin(u), math.cos(u)
            m0 = 1.0 + sign * sn / u
            m2 = 1.0 / 3.0 + sign * (sn + 2.0 * (cs - sn / u) / u) / u
    return log_scale + math.log(a * m0), a * a * (m2 / m0), wall / (a * m0)


def _bracketed_root(f, lo: float, hi: float, what: str) -> float:
    try:
        return float(brentq(f, lo, hi, **_BRENTQ_OPTS))
    except ValueError as exc:
        raise SolverFailureError(f"bracketed search for {what} failed on [{lo}, {hi}]: {exc}") from None


def _oscillatory_roots(L: float, gamma: float, levels: range) -> list[tuple[float, str]]:
    """Wavenumber k and parity of each oscillatory level n in ``levels``.

    With x = kL and c = gamma L, the even condition tan(x/2) = c/x and the odd
    one -cot(x/2) = c/x are one phase equation, x = n pi + 2 atan(c/x), and
    level n is even iff n is even.  Written about a base b = n pi for c >= 0,
    or b = (n - 1) pi for c < 0, the phase term y = 2 atan2(c, x), or
    2 atan2(x, -c), lies in [0, pi], so level n is the one root of
    x - (b + y) on [b, b + pi].  The rounded ends give -y <= 0 and
    (b + pi) - (b + y) >= 0, since atan2 never exceeds fl(pi/2) and
    2 fl(pi/2) = fl(pi); at the Dirichlet wall c = inf the upper end is the
    root.  For c < 0 level 0 is evanescent, and level 1 exists only while
    c > -2; its search starts just above the trivial root x = 0.
    """
    c = gamma * L

    def phase(x: float) -> float:
        return 2.0 * (math.atan2(c, x) if c >= 0 else math.atan2(x, -c))

    roots: list[tuple[float, str]] = []
    for n in levels:
        base = (n if c >= 0 else n - 1) * math.pi
        x = _bracketed_root(
            lambda x: x - (base + phase(x)), max(base, 2e-12), base + math.pi, f"oscillatory level {n}"
        )
        roots.append((x / L, "even" if n % 2 == 0 else "odd"))
    return roots


def _evanescent_roots(L: float, gamma: float) -> list[tuple[float, str]]:
    """Negative-energy decay rates, at most one per parity."""
    roots: list[tuple[float, str]] = []
    if gamma >= 0:
        return roots

    # Even: gamma + q*tanh(qL/2) is strictly increasing from gamma < 0 and
    # exceeds zero at q = |gamma|/tanh(|gamma| L/2) + 1, so exactly one root.
    def f_even(q: float) -> float:
        return gamma + q * math.tanh(0.5 * q * L)

    hi = -gamma / math.tanh(-0.5 * gamma * L) + 1.0
    roots.append((_bracketed_root(f_even, 0.0, hi, "even evanescent root"), "even"))

    # Odd: gamma + q*coth(qL/2) increases from gamma + 2/L, so a root exists
    # exactly when gamma < -2/L, and it lies below |gamma|.
    if gamma < -2.0 / L:
        def f_odd(q: float) -> float:
            return gamma + q / math.tanh(0.5 * q * L)

        roots.append((_bracketed_root(f_odd, 1e-12 / L, -gamma, "odd evanescent root"), "odd"))
    return roots


def _energy(spec: BoxSpec, branch: str, wavenumber: float) -> float:
    """k^2/2m, -q^2/2m or 0; InvalidArgumentError when a double cannot hold it."""
    if branch == "zero-mode":
        return 0.0
    try:
        magnitude = wavenumber**2 / (2.0 * spec.m)
    except OverflowError:
        magnitude = math.inf
    if math.isinf(magnitude):
        raise InvalidArgumentError(
            f"the {branch} level with wavenumber {wavenumber} at gamma={spec.gamma} "
            "has an energy beyond double precision"
        )
    return magnitude if branch == "oscillatory" else -magnitude


def _make_state(spec: BoxSpec, index: int, parity: str, branch: str, wavenumber: float) -> Eigenstate1D:
    energy = _energy(spec, branch, wavenumber)
    log_norm = -0.5 * _density_integrals(spec.L, branch, parity, wavenumber)[0]
    A = math.exp(log_norm)
    return Eigenstate1D(spec, index, parity, branch, wavenumber, energy, A, log_norm)


def solve_spectrum(spec: BoxSpec, count: int) -> list[Eigenstate1D]:
    """The ``count`` lowest eigenstates, in strictly increasing energy order.

    Within 1e-12/L of gamma = 0 and gamma = -2/L, where a root meets the end
    of its bracket, gamma snaps to the crossing and the zero mode is exact.
    Every other level is one guaranteed-sign bracketed root search, the
    Dirichlet wall included as c = gamma L = inf, so the count of
    negative-energy states is exact: none for gamma >= 0, one for
    -2/L <= gamma < 0, two for gamma < -2/L.  Those and the zero mode lie
    below every oscillatory level, so the levels to search are the rest.
    """
    if count < 1:
        raise InvalidArgumentError(f"count must be >= 1, got {count}")

    L = spec.L
    if abs(spec.gamma) * L <= _ZERO_MODE_SNAP:
        gamma, zero_modes = 0.0, [("even", "zero-mode", 0.0)]
    elif abs(spec.gamma + 2.0 / L) * L <= _ZERO_MODE_SNAP:
        gamma, zero_modes = -2.0 / L, [("odd", "zero-mode", 0.0)]
    else:
        # -inf and +inf are the same extension, the Dirichlet wall
        gamma, zero_modes = (math.inf if spec.dirichlet else spec.gamma), []
    entries = [(parity, "evanescent", q) for q, parity in _evanescent_roots(L, gamma)] + zero_modes
    levels = range(len(entries), count)
    entries += [(parity, "oscillatory", k) for k, parity in _oscillatory_roots(L, gamma, levels)]
    # rounding can swap the deeply bound wall pair
    entries.sort(key=lambda entry: _energy(spec, entry[1], entry[2]))
    states = [
        _make_state(spec, i, parity, branch, w)
        for i, (parity, branch, w) in enumerate(entries[:count])
    ]
    # Energies are strictly increasing analytically.  The one place doubles
    # cannot resolve the gap is the deeply bound wall pair, whose splitting
    # shrinks like exp(-|gamma| L); a tie there is expected, not a bug.
    for s1, s2 in zip(states, states[1:]):
        if s2.energy > s1.energy:
            continue
        wall_pair = s1.branch == "evanescent" and s2.branch == "evanescent"
        if s2.energy < s1.energy or not wall_pair:
            raise SolverFailureError(
                f"energy ordering violated: E_{s1.index}={s1.energy}, E_{s2.index}={s2.energy}"
            )
    return states


def eval_wavefunction(state: Eigenstate1D, x):
    """Evaluate the normalized wavefunction at x (scalar or array).

    Raises DomainError if any point lies outside [-L/2, L/2].
    """
    arr = np.asarray(x, dtype=float)
    half = state.spec.L / 2.0
    if np.any(np.abs(arr) > half):
        raise DomainError(f"coordinate outside [-{half}, {half}]")
    w = state.wavenumber
    if state.branch == "zero-mode":
        out = np.full_like(arr, state.norm) if state.parity == "even" else state.norm * arr
    elif state.branch == "oscillatory":
        out = state.norm * (np.cos(w * arr) if state.parity == "even" else np.sin(w * arr))
    else:
        # relative to the closed-form wall value psi(L/2) = sqrt(rho): the
        # factors below are cosh or sinh(wx) over cosh or sinh(wL/2)
        L = state.spec.L
        rho = _density_integrals(L, state.branch, state.parity, w)[2]
        ax = np.abs(arr)
        decay = math.sqrt(rho) * np.exp(w * (ax - half))
        if state.parity == "even":
            out = decay * (1.0 + np.exp(-2.0 * w * ax)) / (1.0 + math.exp(-w * L))
        else:
            out = np.sign(arr) * decay * np.expm1(-2.0 * w * ax) / math.expm1(-w * L)
    if np.isscalar(x) or arr.ndim == 0:
        return float(out)
    return out


def boundary_observables(state: Eigenstate1D) -> BoundaryObservables1D:
    """Wall densities and moments of one eigenstate, in closed form.

    For the Dirichlet walls both densities vanish identically, and the wall
    coefficients a, b, c are returned as exact zeros (the finite-gamma product
    gamma*rho tends to zero in that limit).
    """
    spec = state.spec
    _, var_x, rho = _density_integrals(spec.L, state.branch, state.parity, state.wavenumber)
    rho = 0.0 if spec.dirichlet else rho
    b = 0.0 if spec.dirichlet else 2.0 * spec.gamma * rho
    # Parity eigenstates are real with equal wall densities, so c = <x> = <p> = 0 exactly.
    mean_p2 = 2.0 * spec.m * state.energy
    return BoundaryObservables1D(spec.L * rho, b, 0.0, rho, rho, 0.0, 0.0, var_x, mean_p2)


def uncertainty_report_1d(state: Eigenstate1D) -> UncertaintyReport1D:
    """Evaluate the boundary-corrected uncertainty bound on one eigenstate."""
    obs = boundary_observables(state)
    dx = math.sqrt(obs.var_x)
    lhs = obs.mean_p2
    rhs = (
        obs.pbar**2
        + ((1.0 + obs.c * obs.mean_x - obs.a) / (2.0 * dx)) ** 2
        + obs.b
        + obs.c**2 / 4.0
    )
    return UncertaintyReport1D(lhs, rhs, lhs - rhs, dx, obs)


def spectral_flow(state: Eigenstate1D) -> float:
    """dE/d(gamma) of one level: (rho_+ + rho_-) / 2m.

    The wall densities come from ``boundary_observables``; both are zero for
    Dirichlet walls.
    """
    obs = boundary_observables(state)
    return (obs.rho_plus + obs.rho_minus) / (2.0 * state.spec.m)
