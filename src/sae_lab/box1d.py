"""Robin-walled particle in a 1-d box: exact spectra and boundary observables.

A particle of mass ``m`` lives on the interval [-L/2, L/2].  Both walls carry
the reflecting boundary condition

    gamma * psi + d(psi)/dn = 0,

with the same real parameter ``gamma`` on each side (n is the outward normal).
``gamma = 0`` is the Neumann wall, ``gamma = +/-inf`` the Dirichlet wall, and
sufficiently negative ``gamma`` binds states to the walls with negative energy.

Eigenstates come in four families, all handled here in closed form plus a
bracketed one-dimensional root search:

* oscillatory even  ``cos(k x)``   with gamma*cos(kL/2) = k*sin(kL/2)
* oscillatory odd   ``sin(k x)``   with gamma*sin(kL/2) = -k*cos(kL/2)
* evanescent even   ``cosh(q x)``  with gamma = -q*tanh(qL/2)   (gamma < 0)
* evanescent odd    ``sinh(q x)``  with gamma = -q*coth(qL/2)   (gamma < -2/L)

plus the two zero-energy crossings: the constant state at gamma = 0 and the
linear state at gamma = -2/L.  Energies are k^2/2m and -q^2/2m respectively.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad
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

# Below these thresholds the root brackets degenerate (the root collides with
# a bracket endpoint to machine precision), so we snap to the exact crossing.
_ZERO_MODE_SNAP = 1e-12
# From |gamma| L = 2^52 on, the oscillatory roots are taken at the Dirichlet
# wall (see _oscillatory_roots).
_DIRICHLET_SNAP = 2.0**52

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
    ``log_norm`` is log(A), kept separately so deeply bound states (huge q)
    can be evaluated without overflow.
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


def _logcosh(t: np.ndarray) -> np.ndarray:
    at = np.abs(t)
    return at + np.log1p(np.exp(-2.0 * at)) - math.log(2.0)


def _logsinh(t: np.ndarray) -> np.ndarray:
    # valid for t >= 0; -inf at t = 0 by construction
    with np.errstate(divide="ignore"):
        return t + np.log1p(-np.exp(-2.0 * t)) - math.log(2.0)


def _osc_norm(L: float, k: float, parity: str) -> float:
    """Normalization amplitude for cos(kx) / sin(kx) on [-L/2, L/2]."""
    t = k * L
    if parity == "even":
        norm = L / 2.0 + math.sin(t) / (2.0 * k)
    else:
        if t < 1e-3:
            # 1 - sin(t)/t = t^2/6 - t^4/120 + ...; avoid the cancellation
            norm = (L / 2.0) * (t * t / 6.0) * (1.0 - t * t / 20.0)
        else:
            norm = L / 2.0 - math.sin(t) / (2.0 * k)
    return 1.0 / math.sqrt(norm)


def _evan_log_norm(L: float, q: float, parity: str) -> float:
    """log(A) for cosh(qx) / sinh(qx) on [-L/2, L/2], overflow-safe."""
    t = q * L
    if parity == "even":
        log_norm = np.logaddexp(math.log(L / 2.0), _logsinh(t) - math.log(2.0 * q))
    else:
        if t < 1e-3:
            # sinh(t)/t - 1 = t^2/6 + t^4/120 + ...
            log_norm = math.log((L / 2.0) * (t * t / 6.0) * (1.0 + t * t / 20.0))
        elif t < 350.0:
            log_norm = math.log(math.sinh(t) / (2.0 * q) - L / 2.0)
        else:
            log_norm = _logsinh(t) - math.log(2.0 * q)
    return -0.5 * float(log_norm)


def _even_osc_f(k: float, L: float, gamma: float) -> float:
    u = 0.5 * k * L
    return gamma * math.cos(u) - k * math.sin(u)


def _odd_osc_f(k: float, L: float, gamma: float) -> float:
    u = 0.5 * k * L
    return gamma * math.sin(u) + k * math.cos(u)


def _bracketed_root(f, lo: float, hi: float, what: str) -> float:
    try:
        return float(brentq(f, lo, hi, **_BRENTQ_OPTS))
    except ValueError as exc:
        raise SolverFailureError(f"bracketed search for {what} failed on [{lo}, {hi}]: {exc}") from None


def _oscillatory_roots(spec: BoxSpec, n_each: int) -> list[tuple[float, str]]:
    """The first few positive-k roots of each parity, as (k, parity) pairs.

    Each root runs to a Dirichlet wavenumber as |gamma| grows: to the upper
    end of its phase bracket for gamma > 0, to the lower end for gamma < 0.
    Once |gamma| L >= 2^52 that wavenumber is taken directly.  The Robin shift
    of k, about 2/(|gamma| L) relative, is then at most 4.4e-16, while gamma
    times the rounding error of cos or sin at a bracket end can outweigh k and
    break the bracket.
    """
    L, gamma = spec.L, spec.gamma
    roots: list[tuple[float, str]] = []
    two_over_L = 2.0 / L
    snap = abs(gamma) * L >= _DIRICHLET_SNAP

    def root(f, lo: float, hi: float, what: str) -> float:
        # lo and hi bound the phase u = kL/2
        if snap:
            n = round(2.0 * (hi if gamma > 0 else lo) / math.pi)
            return n * math.pi / L
        return _bracketed_root(lambda k: f(k, L, gamma), lo * two_over_L, hi * two_over_L, what)

    for j in range(n_each):
        # Even parity: for gamma > 0 the phase u = kL/2 sits in (j pi, j pi + pi/2),
        # for gamma < 0 in (j pi + pi/2, (j+1) pi).  Signs at the endpoints are
        # gamma*(-1)^j and -k*(+-1), so the bracket is guaranteed.
        if gamma > 0:
            lo, hi = j * math.pi, j * math.pi + 0.5 * math.pi
        else:
            lo, hi = j * math.pi + 0.5 * math.pi, (j + 1) * math.pi
        roots.append((root(_even_osc_f, lo, hi, f"even oscillatory root {j}"), "even"))

        # Odd parity: for gamma > 0 the phase is in (j pi + pi/2, (j+1) pi), for
        # gamma < 0 in (j pi, j pi + pi/2).  The j = 0 bracket starts at k = 0
        # and contains a root only while gamma > -2/L; beyond that the state
        # has crossed into the evanescent family.
        if gamma > 0:
            lo, hi = j * math.pi + 0.5 * math.pi, (j + 1) * math.pi
        else:
            if j == 0 and gamma <= -two_over_L:
                continue
            # k = 0 solves the odd condition for every gamma: start just above it
            lo, hi = max(j * math.pi, 1e-12), j * math.pi + 0.5 * math.pi
        roots.append((root(_odd_osc_f, lo, hi, f"odd oscillatory root {j}"), "odd"))
    return roots


def _evanescent_roots(spec: BoxSpec) -> list[tuple[float, str]]:
    """Negative-energy decay rates, at most one per parity."""
    L, gamma = spec.L, spec.gamma
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
    if branch == "oscillatory":
        A = _osc_norm(spec.L, wavenumber, parity)
        log_norm = math.log(A)
    elif branch == "evanescent":
        log_norm = _evan_log_norm(spec.L, wavenumber, parity)
        A = math.exp(log_norm)
    else:  # zero-mode
        A = math.sqrt(1.0 / spec.L) if parity == "even" else math.sqrt(12.0 / spec.L**3)
        log_norm = math.log(A)
    return Eigenstate1D(spec, index, parity, branch, wavenumber, energy, A, log_norm)


def solve_spectrum(spec: BoxSpec, count: int) -> list[Eigenstate1D]:
    """The ``count`` lowest eigenstates, in strictly increasing energy order.

    Exact closed forms are used at the Dirichlet walls, at gamma = 0, and at
    gamma = -2/L (snapping within 1e-12/L of the last two, where the generic
    brackets degenerate); everything else comes from guaranteed-sign bracketed
    root searches, so the count of negative-energy states is exact: none for
    gamma >= 0, one for -2/L <= gamma < 0, two for gamma < -2/L.
    """
    if count < 1:
        raise InvalidArgumentError(f"count must be >= 1, got {count}")

    L = spec.L
    per_parity = count + 2
    entries: list[tuple[str, str, float]] = []  # (parity, branch, wavenumber)

    if spec.dirichlet:
        for n in range(count):
            k = (n + 1) * math.pi / L
            entries.append(("even" if n % 2 == 0 else "odd", "oscillatory", k))
    elif abs(spec.gamma) * L <= _ZERO_MODE_SNAP:
        entries.append(("even", "zero-mode", 0.0))
        for n in range(1, count):
            k = n * math.pi / L
            entries.append(("odd" if n % 2 == 1 else "even", "oscillatory", k))
    elif abs(spec.gamma + 2.0 / L) * L <= _ZERO_MODE_SNAP:
        # The lowest odd state is the linear zero mode; _oscillatory_roots sees
        # gamma <= -2/L and skips its degenerate j = 0 bracket on its own.
        exact = BoxSpec(spec.m, L, -2.0 / L)
        entries.append(("odd", "zero-mode", 0.0))
        for q, parity in _evanescent_roots(exact):
            entries.append((parity, "evanescent", q))
        for k, parity in _oscillatory_roots(exact, per_parity):
            entries.append((parity, "oscillatory", k))
    else:
        for q, parity in _evanescent_roots(spec):
            entries.append((parity, "evanescent", q))
        for k, parity in _oscillatory_roots(spec, per_parity):
            entries.append((parity, "oscillatory", k))

    entries.sort(key=lambda entry: _energy(spec, entry[1], entry[2]))
    if len(entries) < count:
        raise SolverFailureError(
            f"generated only {len(entries)} states, needed {count}"
        )
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
        if state.parity == "even":
            out = np.exp(state.log_norm + _logcosh(w * arr))
        else:
            out = np.sign(arr) * np.exp(state.log_norm + _logsinh(w * np.abs(arr)))
    if np.isscalar(x) or arr.ndim == 0:
        return float(out)
    return out


def _density_moment(state: Eigenstate1D, power: int) -> float:
    """integral of x^power * |psi|^2, split at 0 to help the quadrature."""
    half = state.spec.L / 2.0

    def integrand(x: float) -> float:
        return x**power * eval_wavefunction(state, x) ** 2

    lo, _ = quad(integrand, -half, 0.0, epsabs=1e-12, epsrel=1e-12, limit=200)
    hi, _ = quad(integrand, 0.0, half, epsabs=1e-12, epsrel=1e-12, limit=200)
    return lo + hi


def boundary_observables(state: Eigenstate1D) -> BoundaryObservables1D:
    """Wall densities and moments of one eigenstate.

    For the Dirichlet walls both densities vanish identically, and the wall
    coefficients a, b, c are returned as exact zeros (the finite-gamma product
    gamma*rho tends to zero in that limit).
    """
    spec = state.spec
    half = spec.L / 2.0
    if spec.dirichlet:
        rho_plus = rho_minus = a = b = c = 0.0
    else:
        rho_plus = eval_wavefunction(state, half) ** 2
        rho_minus = eval_wavefunction(state, -half) ** 2
        a = half * (rho_plus + rho_minus)
        b = spec.gamma * (rho_plus + rho_minus)
        c = rho_plus - rho_minus

    mean_x = _density_moment(state, 1)
    var_x = _density_moment(state, 2) - mean_x**2
    # Parity eigenstates are real with equal wall densities, so <p> = 0 exactly.
    pbar = 0.0
    mean_p2 = 2.0 * spec.m * state.energy
    return BoundaryObservables1D(a, b, c, rho_plus, rho_minus, pbar, mean_x, var_x, mean_p2)


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

    Zero for Dirichlet walls, where the boundary densities vanish.
    """
    spec = state.spec
    if spec.dirichlet:
        return 0.0
    half = spec.L / 2.0
    rho_plus = eval_wavefunction(state, half) ** 2
    rho_minus = eval_wavefunction(state, -half) ** 2
    return (rho_plus + rho_minus) / (2.0 * spec.m)
