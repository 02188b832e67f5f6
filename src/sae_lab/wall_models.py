"""Physical realizations of the Robin wall: scattering data and thin wells.

Two ways to pin down the wall parameter gamma of a perfectly reflecting
surface:

* scattering: a plane wave hitting the wall picks up the phase shift
  delta(k) = 2*arctan(k/gamma) + pi, with reflection amplitude
  R = exp(i delta) = -(gamma + ik)/(gamma - ik);
* construction: a hard wall plus a square well of width eps and depth
  -V0 = -q^2/2m reproduces an effective gamma_eff = q*cot(q*eps), which
  converges linearly in eps to any target gamma when q is slaved to it as
  q = pi/(2 eps) - (2/pi) gamma.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError, SingularConfigurationError

__all__ = [
    "ScatterResult",
    "WellApprox",
    "reflection",
    "square_well_parameters",
    "effective_gamma",
]

_atan = np.vectorize(math.atan, otypes=[float])


@dataclass(frozen=True)
class ScatterResult:
    """Reflection data over wavenumbers k: amplitude R and phase shift delta, each of k's shape.

    delta is reported in its principal form 2*arctan(k/gamma) + pi, which for
    k > 0 always lies in (0, 2*pi]: Dirichlet gives pi, Neumann 2*pi, and R is
    exp(i*delta), unimodular by construction.
    """

    k: np.ndarray
    R: np.ndarray
    delta: np.ndarray


@dataclass(frozen=True)
class WellApprox:
    """A hard wall dressed with a square well of width epsilon, depth V0.

    ``q`` is the interior wavenumber sqrt(2 m V0); ``target_gamma`` records
    which wall parameter the construction is aiming at.
    """

    epsilon: float
    V0: float
    q: float
    target_gamma: float


def reflection(k, gamma: float) -> ScatterResult:
    """Phase shift and reflection amplitude for plane waves of wavenumbers k.

    k is one wavenumber or an array of them, each > 0 and finite; gamma may
    be +-inf (Dirichlet, delta = pi).  Each element is bit-equal to the
    scalar closed form 2*atan(k/gamma) + pi and cmath.exp(1j*delta): atan is
    math.atan per element, since np.arctan may round differently.
    """
    k = np.asarray(k, dtype=float)
    gamma = float(gamma)
    bad = np.flatnonzero(~np.isfinite(k) | (k <= 0.0))
    # in the order of a loop over k: a bad first k, then a NaN gamma, then any bad k
    if len(bad) and (bad[0] == 0 or not math.isnan(gamma)):
        raise InvalidArgumentError(f"wavenumber must be positive and finite, got {float(k.flat[bad[0]])}")
    if math.isnan(gamma):
        raise InvalidArgumentError("gamma must not be NaN")
    with np.errstate(over="ignore"):
        delta = 2.0 * _atan(k / gamma) + math.pi if gamma != 0.0 else np.full(k.shape, 2.0 * math.pi)
    return ScatterResult(k, np.cos(delta) + 1j * np.sin(delta), delta)


def square_well_parameters(gamma: float, epsilon: float, m: float) -> WellApprox:
    """Well parameters that mimic a wall with the given gamma at width epsilon.

    Requires q = pi/(2 epsilon) - (2/pi) gamma > 0, which fails once gamma
    exceeds pi^2/(4 epsilon); shrink epsilon in that case.
    """
    if not (math.isfinite(epsilon) and epsilon > 0):
        raise InvalidArgumentError(f"well width must be positive and finite, got {epsilon}")
    if not (math.isfinite(m) and m > 0):
        raise InvalidArgumentError(f"mass must be positive and finite, got {m}")
    if not math.isfinite(gamma):
        raise InvalidArgumentError("thin-well construction needs finite gamma")
    q = math.pi / (2.0 * epsilon) - (2.0 / math.pi) * gamma
    if q <= 0.0:
        raise InvalidArgumentError(
            f"interior wavenumber q = {q} <= 0; epsilon = {epsilon} is too wide "
            f"for gamma = {gamma}"
        )
    V0 = 0.5 * (q * q / m)  # 2 m would overflow for m near the largest double
    if not math.isfinite(V0):
        raise InvalidArgumentError(
            f"the well is too deep for double precision: q = {q}, V0 = q^2/2m = {V0}"
        )
    return WellApprox(epsilon, V0, q, gamma)


def effective_gamma(well: WellApprox, m: float) -> float:
    """The wall parameter the well actually produces at its finite width.

    gamma_eff = q*cot(q*epsilon) with q = sqrt(2 m V0).  Raises when q*epsilon
    overflows or sits on a pole of the cotangent.
    """
    if not (math.isfinite(m) and m > 0):
        raise InvalidArgumentError(f"mass must be positive and finite, got {m}")
    q = math.sqrt(2.0 * (m * well.V0))
    phase = q * well.epsilon
    if not math.isfinite(phase):
        raise InvalidArgumentError(f"q*epsilon = {phase} is not finite; no effective gamma")
    s = math.sin(phase)
    if abs(s) < 1e-12:
        raise SingularConfigurationError(
            f"q*epsilon = {phase} lies on a cotangent pole; no finite effective gamma"
        )
    return q * math.cos(phase) / s
