"""Robin-walled particle in a 1-d box: exact spectra and boundary observables.

A particle of mass ``m`` lives on the interval [-L/2, L/2].  Both walls carry
the reflecting boundary condition

    gamma * psi + d(psi)/dn = 0,

with the same real parameter ``gamma`` on each side (n is the outward normal).
``gamma = 0`` is the Neumann wall, ``gamma = +/-inf`` the Dirichlet wall, and
sufficiently negative ``gamma`` binds states to the walls with negative energy.

Eigenstates come in four families, all handled here in closed form plus a
root of one transcendental equation each; their norms, <x^2> and wall
densities are elementary integrals, taken in closed form too:

* oscillatory even  ``cos(k x)``   with gamma*cos(kL/2) = k*sin(kL/2)
* oscillatory odd   ``sin(k x)``   with gamma*sin(kL/2) = -k*cos(kL/2)
* evanescent even   ``cosh(q x)``  with gamma = -q*tanh(qL/2)   (gamma < 0)
* evanescent odd    ``sinh(q x)``  with gamma = -q*coth(qL/2)   (gamma < -2/L)

plus the two zero-energy crossings: the constant state at gamma = 0 and the
linear state at gamma = -2/L.  Energies are k^2/2m and -q^2/2m respectively.

With x = kL and c = gamma L, the two oscillatory conditions are one bounded
phase equation, x = n pi + 2 atan(c/x): level n is even iff n is even, lies
in (n pi, (n + 1) pi) for c > 0 and in ((n - 1) pi, n pi) for c < 0, and
its bracket is that interval.  The Dirichlet wall is its end c = inf.  All
levels of all gammas asked for at once are one array of roots, found by one
Newton iteration kept inside the brackets (``_levels``); each root is a
function of (L, gamma, n) alone, whatever else is solved with it.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property

import numpy as np

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

# An entry of a root search stops at the first iterate whose step is at most
# this share of it, a few units in the last place; no search takes more than
# _MAX_STEPS steps.
_STEP_TOL = 4.0 * 2.0**-52
_MAX_STEPS = 100
# Taylor coefficients of (t - atan t)/t^3 in t^2, to double precision for
# t <= 1/2, and of (v cosh v - sinh v)/v^3 in v^2, for v <= 1.
_T_MINUS_ATAN = tuple((-1) ** j / (2 * j + 3) for j in range(26))
_V_COSH_MINUS_SINH = tuple(2 * k / math.factorial(2 * k + 1) for k in range(1, 11))
# tan w ~ w (1 - _ALPHA w^2) / (1 - 4 w^2/pi^2), exact at w = 0 and pi/2
_ALPHA = 4.0 * (1.0 - 8.0 / math.pi**2) / math.pi**2
_P16 = 16.0 / math.pi**2
_SPLIT = 2.0**27 + 1.0  # Veltkamp's splitter: a double into two 26-bit halves
_BRANCHES = ("oscillatory", "evanescent", "zero-mode")
_PARITIES = ("even", "odd")


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
        if math.isinf(2.0 / self.L):  # the crossing gamma = -2/L must be a double
            raise InvalidArgumentError(
                f"box length {self.L} is too small: 2/L exceeds double precision"
            )
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
    (huge q), where A underflows.  Both are computed when first read.
    """

    spec: BoxSpec
    index: int
    parity: str
    branch: str
    wavenumber: float
    energy: float

    @cached_property
    def log_norm(self) -> float:
        return -0.5 * _density_integrals(self.spec.L, self.branch, self.parity, self.wavenumber)[0]

    @cached_property
    def norm(self) -> float:
        return math.exp(self.log_norm)


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


def _poly(coeffs: tuple, s):
    """sum_j coeffs[j] s^j by Horner's rule."""
    p = coeffs[-1]
    for a in coeffs[-2::-1]:
        p = p * s + a
    return p


def _newton(x, lo, hi, fdf):
    """Roots in [lo, hi], one per entry, by Newton's method kept in the bracket.

    Each f must be increasing on its bracket and either concave or convex
    there, with its root inside; a bracket rounded to one point is its root.
    Then a Newton step, cut back to the bracket, never moves away from the
    root: after at most one step the iterates close in on it from one side
    (from below where f is concave, from above where it is convex).  An
    entry stops at the first iterate whose own step is at most _STEP_TOL of
    it (all roots here are nonnegative) and stays there, so its root depends
    only on its own function and start, not on the other entries.
    """
    x = np.fmin(np.fmax(x, lo), hi)
    for _ in range(_MAX_STEPS):
        f, df = fdf(x)
        step = np.fmin(np.fmax(x - f / df, lo), hi)
        moving = np.abs(step - x) > _STEP_TOL * x
        if not np.count_nonzero(moving):
            return x
        np.copyto(x, step, where=moving)
    raise SolverFailureError(f"a root search did not converge in {_MAX_STEPS} steps")


def _phase(c, width):
    """Level n of x - (n pi + 2 atan(c/x)), x = kL, for the rows c = gamma L
    and the columns n < ``width``, as (start, lo, hi, fdf).

    Level n lies in [n pi, (n + 1) pi] for c >= 0, where the function is
    increasing and concave, and in [(n - 1) pi, n pi] for c < 0, where it is
    convex, and increasing too except for level 1 at -2 < c < 0 (see
    _with_walls).  At c = 0 level 0 is the constant zero mode, the lower end
    x = 0 of its bracket.  Every array has the shape of the grid, which
    numpy handles faster than broadcasting.
    """
    c = c[:, None].repeat(width, axis=1)
    b = (np.arange(width) * math.pi)[None].repeat(len(c), axis=0)
    lo = b - math.pi * (c < 0)
    # With x = n pi + 2 sign(c) w, level n solves (n pi/2 + sign(c) w) tan w
    # = |c|/2 for w in [0, pi/2).  tan w ~ w (1 - _ALPHA w^2)/(1 - 4 w^2/pi^2),
    # exact at 0 and pi/2, makes this a quadratic in w, solved twice: the
    # second time with 1 - _ALPHA w^2 frozen at the first answer.
    s, t8 = b / np.abs(c), 8.0 / c
    w = 2.0 / (s + np.sqrt(s * s + t8 + _P16))
    r = 1.0 - _ALPHA * w * w
    s = s * r
    w = 2.0 / (s + np.sqrt(s * s + t8 * r + _P16))

    def fdf(x):
        y = np.arctan2(c, x)
        return x - (b + (y + y)), 1.0 + 2.0 / (c + x * (x / c))

    return b + np.copysign(w + w, c), lo, lo + math.pi, fdf


def _plus_two(g, L: float):
    """gamma L + 2 for the rows gamma, correctly rounded where -4 <= gamma L <= -1.

    Dekker's two-product splits gamma L exactly into fl(gamma L) + r, and by
    Sterbenz's lemma fl(gamma L) + 2 is exact on that range, so only the
    final sum rounds.  Both factors are scaled to mantissas in [1/2, 1)
    first, so no split overflows and r is exact.
    """
    mg, eg = np.frexp(g)
    ml, el = math.frexp(L)
    p = mg * ml
    t = mg * _SPLIT
    gh = t - (t - mg)
    gl = mg - gh
    t = ml * _SPLIT
    lh = t - (t - ml)
    ll = ml - lh
    r = ((gh * lh - p) + gh * ll + gl * lh) + gl * ll
    return (np.ldexp(p, eg + el) + 2.0) + np.ldexp(r, eg + el)


def _with_walls(L, g, e, d, neg, pair, phase):
    """``phase`` with the levels that gamma < 0 changes: the wall states q in
    column 0 (rows ``neg``) and column 1 (rows ``pair``), and level 1 of the
    other rows of ``neg``.

    With v = qL/2, the even wall state solves q + gamma coth v = 0,
    increasing and concave on [|gamma|, |gamma| coth(|gamma| L/2)], and the
    odd one e + (2/L)(v coth v - 1) = 0, e = gamma + 2/L = d/L, increasing
    and convex on [|gamma| tanh(|e| L/2), |gamma|].  Below d = gamma L + 2
    = -40 both brackets round to the point |gamma|, so that
    is both roots.  With y = |gamma| L/2 and eps = |e| L/2 the even state
    starts from v^2 = y (y + 1) and the odd one from v^2 = eps (eps + 3),
    both right to leading order for small and for large arguments.

    Level 1 at -2 < c < 0, c = gamma L, falls from its trivial root x = 0 to
    its minimum at x = sqrt(|c| d), and is increasing
    and convex beyond it, so its bracket starts there; at c = -2 it is the
    linear zero mode x = 0.  For d <= 1/4 it is written x d/c + 2 (t - atan t),
    t = x/|c|, its small difference taken apart: with s = t/(1 + sqrt(1 + t^2)),
    atan t = 2 atan s and t - 2 s = t s^2, so t - atan t = t s^2 + 2 (s - atan s),
    a power series in s^2 with s <= 1/3 at the root.
    """
    x0, lo, hi, phase_fdf = phase
    half, a = 0.5 * L, -g
    for j, rows in enumerate((neg, pair)):
        np.copyto(lo[:, j], a, where=rows)
        np.copyto(hi[:, j], a, where=rows)
    searched = neg & (d >= -40.0)
    if not np.count_nonzero(searched):
        return x0, lo, hi, phase_fdf
    even, odd = np.flatnonzero(searched), np.flatnonzero(searched & pair)
    rising = np.flatnonzero(neg & ~pair)
    crit = rising[d[rising] <= 0.25]
    ae, ao = a[even], e[odd]
    y, eps = ae * half, ao * -half
    # a root beyond the largest double ends on it, and its energy overflows
    hi[even, 0] = np.fmin(ae / np.tanh(y), sys.float_info.max)
    lo[odd, 1] = a[odd] * np.tanh(eps)
    x0[even, 0] = np.sqrt(y * (y + 1.0)) / half
    x0[odd, 1] = np.sqrt(eps * (eps + 3.0)) / half
    lo[rising, 1] = L * np.sqrt(a[rising] * e[rising])
    hi[rising, 1] = np.where(d[rising] > 0.0, math.pi, 0.0)
    ac, dc = a[crit] * L, d[crit]
    ratio = dc / -ac  # d/c = 1 + 2/c
    # the root has (t - atan t)/t = d/2, and (t - atan t)/t = t^2/3 + O(t^4)
    x0[crit, 1] = ac * np.sqrt(1.5 * dc)

    def fdf(x):
        f, df = phase_fdf(x)
        q = x[even, 0]
        ct = 1.0 / np.tanh(q * half)
        f[even, 0] = q - ae * ct
        df[even, 0] = 1.0 + ae * half * (ct * ct - 1.0)
        if len(odd):
            v = x[odd, 1] * half
            th = np.tanh(v)
            h = v / th - 1.0
            small = v <= 1.0
            if np.count_nonzero(small):
                vs = v[small]
                h[small] = vs * vs * vs * _poly(_V_COSH_MINUS_SINH, vs * vs) / np.sinh(vs)
            f[odd, 1] = ao + h / half
            df[odd, 1] = (th - v * (1.0 - th * th)) / (th * th)
        if len(crit):
            xc = x[crit, 1]
            t = xc / ac
            s = t / (1.0 + np.sqrt(1.0 + t * t))
            s2 = s * s
            f[crit, 1] = xc * ratio + 2.0 * t * s2 + 4.0 * s * s2 * _poly(_T_MINUS_ATAN, s2)
        return f, df

    return x0, lo, hi, fdf


def _levels(m: float, L: float, gammas, count: int):
    """The ``count`` lowest levels of the box at each of ``gammas``, as arrays.

    Returns wavenumber, energy, branch (an index into _BRANCHES) and parity
    (an index into _PARITIES), each of shape (len(gammas), count), row i
    for gammas[i] and column n for level n.

    With x = kL and c = gamma L, the even condition tan(x/2) = c/x and the
    odd one -cot(x/2) = c/x are one phase equation, x = n pi + 2 atan(c/x),
    and level n is even iff n is even.  Its phase term lies in [0, pi] for
    c >= 0 and in [-pi, 0] for c < 0, so level n is the one root on
    [n pi, (n + 1) pi] or on [(n - 1) pi, n pi]; at the Dirichlet wall
    c = inf it is the upper end.  Below the oscillatory levels lie the even
    wall state for c < 0, the odd one for c < -2, and a zero mode where one
    of them is born.

    Near c = -2 the odd level, oscillatory above and wall-bound below, is
    the small difference of large terms.  Both sides are taken analytically,
    with d = c + 2 correctly rounded there (``_plus_two``), e = d/L, and a
    power series where the difference is small:

    * above, x - 2 atan(t) = x d/c + 2 (t - atan t), t = x/|c|;
    * below, gamma + q coth(v) = e + (2/L)(v coth v - 1), v = qL/2.

    Every level is solved on its own, so its root is the same in any batch.
    """
    if count < 1:
        raise InvalidArgumentError(f"count must be >= 1, got {count}")
    g = np.array(gammas, dtype=float)
    width = max(count, 2)  # _with_walls solves the wall pair in columns 0 and 1
    with np.errstate(all="ignore"):
        g[g == -np.inf] = np.inf  # the same extension as +inf
        c, e = g * L, g + 2.0 / L
        d = e * L
        near = (c >= -4.0) & (c <= -1.0)
        if np.count_nonzero(near):
            d[near] = _plus_two(g[near], L)
            e[near] = d[near] / L
        snap0, snap2 = np.abs(c) <= _ZERO_MODE_SNAP, np.abs(d) <= _ZERO_MODE_SNAP
        if np.count_nonzero(snap0 | snap2):
            g[snap0], g[snap2] = 0.0, -2.0 / L
            c[snap0], c[snap2] = 0.0, g[snap2] * L
            e[snap2] = d[snap2] = 0.0
        neg, pair = c < 0, e < 0
        equations = _phase(c, width)
        walls = np.count_nonzero(neg)
        if walls:
            equations = _with_walls(L, g, e, d, neg, pair, equations)
        x = _newton(*equations)
        # below the oscillatory levels: the even wall state (c < 0) or the
        # constant zero mode (c = 0), then the odd wall state (c < -2) or the
        # linear zero mode (c = -2); the zero modes are x = 0
        wall = np.arange(width) < (neg * 1 + pair)[:, None]
        k = x / L
        if walls:
            np.copyto(k, x, where=wall)
        energy = k * k / m / 2.0
    branch = (x == 0.0) * 2 + wall  # oscillatory 0, evanescent 1, zero mode 2
    # from here on only the levels asked for: column 1 may overflow where they do not
    k, energy, branch, wall = k[:, :count], energy[:, :count], branch[:, :count], wall[:, :count]
    overflow = np.isinf(energy)
    if np.count_nonzero(overflow):
        i, j = np.argwhere(overflow)[0]
        raise InvalidArgumentError(
            f"the {_BRANCHES[branch[i, j]]} level with wavenumber {k[i, j]} at gamma={gammas[i]} "
            "has an energy beyond double precision"
        )
    parity = np.zeros(energy.shape, dtype=int)
    parity[:, 1::2] = 1
    if walls:
        np.negative(energy, out=energy, where=wall)
    # Energies are strictly increasing analytically.  The one place doubles
    # cannot resolve the gap is the deeply bound wall pair, whose splitting
    # shrinks like exp(-|gamma| L); a tie there is expected, not a bug.
    disorder = energy[:, 1:] <= energy[:, :-1]
    if walls:
        disorder[:, :1] &= ~pair[:, None]
    if np.count_nonzero(disorder):
        i, j = np.argwhere(disorder)[0]
        pair_of = f"E_{j}={energy[i, j]}, E_{j + 1}={energy[i, j + 1]}"
        if max(abs(energy[i, j]), abs(energy[i, j + 1])) < sys.float_info.min:
            raise InvalidArgumentError(
                f"the levels at gamma={gammas[i]} have energies below double precision: {pair_of}"
            )
        raise SolverFailureError(f"energy ordering violated: {pair_of}")
    return k, energy, branch, parity


def solve_spectrum(spec: BoxSpec, count: int) -> list[Eigenstate1D]:
    """The ``count`` lowest eigenstates, in strictly increasing energy order.

    Within 1e-12/L of gamma = 0 and gamma = -2/L, where a root meets the end
    of its bracket, gamma snaps to the crossing and the zero mode is exact.
    Every other level is one bracketed root search of ``_levels``, the
    Dirichlet wall included as c = gamma L = inf, so the count of
    negative-energy states is exact: none for gamma >= 0, one for
    -2/L <= gamma < 0, two for gamma < -2/L.
    """
    rows = [a.tolist()[0] for a in _levels(spec.m, spec.L, [spec.gamma], count)]
    return [
        Eigenstate1D(spec, index, _PARITIES[parity], _BRANCHES[branch], w, energy)
        for index, (w, energy, branch, parity) in enumerate(zip(*rows))
    ]


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
    mean_p2 = 2.0 * (spec.m * state.energy)
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
    return (obs.rho_plus + obs.rho_minus) / state.spec.m / 2.0
