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

# Below these thresholds the root brackets degenerate (the root collides with
# a bracket endpoint to machine precision), so we snap to the exact crossing.
_ZERO_MODE_SNAP = 1e-12
# From |gamma| L = 2^52 on, the oscillatory roots are taken at the Dirichlet
# wall (see _oscillatory_roots).
_DIRICHLET_SNAP = 2.0**52
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

    The brackets of the two parities interlace, so n_each roots of each parity
    are the lowest 2 n_each oscillatory levels (2 n_each - 1 once the odd j = 0
    root has turned evanescent), and the at most two evanescent levels lie
    below them all.  So n_each = (count + 1) // 2 + 1 yields at least count + 1
    of the lowest oscillatory levels, enough for the lowest count levels.
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
    log_norm = -0.5 * _density_integrals(spec.L, branch, parity, wavenumber)[0]
    A = math.exp(log_norm)
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
    per_parity = (count + 1) // 2 + 1
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
