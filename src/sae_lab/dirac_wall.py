"""Reflecting-wall boundary data for relativistic fermions.

Two related constructions live here:

* 3-d wall: the condition couples the lower 2-spinor to the upper one
  through a 2x2 matrix lam; admissibility means (n.sigma) lam is
  anti-Hermitean, where n is the outward unit normal.

* Domain walls in one extra dimension, in units m = c = 1: states bound to
  the wall disperse as E = sin(phi) - cos(phi) p with the wall parameter
  eta = tan(phi/2), decay rate cos(phi) + sin(phi) p, drift speed
  |cos(phi)| and chemical potential sin(phi).  The tan-half-angle
  parameterization makes the eta = 0 and eta = +-inf limits exact.  A
  separate numeric route solves the two-component bound-state equations, a
  2x2 linear system, and recovers the drift speed and chemical potential
  from finite differences of E(p), serving as an oracle for the closed
  forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError, NotSelfAdjointError

__all__ = [
    "PAULI",
    "Lambda3D",
    "EtaWall",
    "DispersionPoint",
    "pauli_dot",
    "validate_lambda_3d",
    "sample_lambda_3d",
    "normal_current_3d",
    "axial_current_3d",
    "dispersion_2p1",
    "numeric_oracle",
]

PAULI = np.array(
    [
        [[0.0 + 0.0j, 1.0], [1.0, 0.0]],
        [[0.0, -1.0j], [1.0j, 0.0]],
        [[1.0, 0.0], [0.0, -1.0]],
    ]
)

_ATOL = 1e-12


def pauli_dot(v) -> np.ndarray:
    """sigma . v for a real or complex 3-vector v."""
    v = np.asarray(v)
    if v.shape != (3,):
        raise InvalidArgumentError(f"need a 3-vector, got shape {v.shape}")
    return np.einsum("i,ijk->jk", v, PAULI)


@dataclass(frozen=True)
class Lambda3D:
    """Accepted 3-d wall data: 2x2 coupling matrix and outward unit normal.

    Construct through validate_lambda_3d, which enforces anti-Hermiticity of
    (n.sigma) lam.
    """

    lam: np.ndarray
    normal: np.ndarray


@dataclass(frozen=True)
class EtaWall:
    """Domain-wall extension parameter eta0 = tan(phi/2), in units m = c = 1.

    The mode disperses as E = sin(phi) - cos(phi) p.  eta0 may be +-inf
    (the limits are handled exactly).  There is no vector part: the
    3-vector the (4+1)-d wall also admits breaks rotation invariance along
    the wall, and no dispersion here uses it.
    """

    eta0: float

    def __post_init__(self):
        try:
            eta0 = float(self.eta0)
        except (TypeError, ValueError) as exc:
            raise InvalidArgumentError(f"eta0 must be a real number, got {self.eta0!r}") from exc
        if math.isnan(eta0):
            raise InvalidArgumentError("eta0 must not be NaN")
        object.__setattr__(self, "eta0", eta0)


@dataclass(frozen=True)
class DispersionPoint:
    """One point of a domain-wall dispersion relation.

    ``p`` is the signed wall-parallel momentum and ``decay_rate`` the
    transverse decay rate; the state is a genuine bound state only when it
    is positive.
    ``speed`` is |dE/dp| and ``chemical_potential`` the energy at p = 0,
    which shifts the filling of the wall modes.
    """

    p: float
    energy: float
    decay_rate: float
    speed: float
    chemical_potential: float
    normalizable: bool


# ---------------------------------------------------------------------------
# 3-d wall


def validate_lambda_3d(lam, normal) -> Lambda3D:
    """Accept 3-d wall data iff (n.sigma) lam is anti-Hermitean.

    ``normal`` must be a unit 3-vector (the outward normal at the wall
    point).  Rejection reports the anti-Hermiticity defect.
    """
    lam = np.asarray(lam, dtype=complex)
    if lam.shape != (2, 2):
        raise InvalidArgumentError(f"coupling matrix must be 2x2, got shape {lam.shape}")
    if not np.all(np.isfinite(lam.real) & np.isfinite(lam.imag)):
        raise InvalidArgumentError("coupling matrix entries must be finite")
    normal = np.asarray(normal, dtype=float)
    if normal.shape != (3,) or not np.all(np.isfinite(normal)):
        raise InvalidArgumentError("normal must be a finite 3-vector")
    if abs(np.linalg.norm(normal) - 1.0) > 1e-12:
        raise InvalidArgumentError(f"normal must be a unit vector, got norm {np.linalg.norm(normal)}")
    ns_lam = pauli_dot(normal) @ lam
    defect = np.max(np.abs(ns_lam + ns_lam.conj().T))
    scale = max(1.0, float(np.max(np.abs(lam))))
    if defect > _ATOL * scale:
        raise NotSelfAdjointError(
            f"(n.sigma) lam must be anti-Hermitean; defect {defect:.3e} exceeds {_ATOL * scale:.1e}"
        )
    return Lambda3D(lam=lam, normal=normal)


def sample_lambda_3d(rng: np.random.Generator, normal) -> np.ndarray:
    """A random member of the full 4-parameter family of accepted matrices.

    Every accepted lam has the form i (n.sigma) H with H Hermitean, and any
    Hermitean 2x2 H is a real combination of the identity and the three
    Pauli matrices; sampling those four coefficients covers the family.
    """
    coeffs = rng.normal(size=4)
    H = coeffs[0] * np.eye(2) + pauli_dot(coeffs[1:])
    return 1j * pauli_dot(np.asarray(normal, dtype=float)) @ H


def normal_current_3d(wall: Lambda3D, upper) -> float:
    """Normal vector current at the wall for an upper 2-spinor; zero when accepted.

    The full spinor is (upper, lam upper), and the current contraction
    reduces to upper^dagger [(n.sigma) lam + lam^dagger (n.sigma)] upper (c = 1).
    """
    upper = np.asarray(upper, dtype=complex)
    ns = pauli_dot(wall.normal)
    op = ns @ wall.lam + wall.lam.conj().T @ ns
    return float(np.real(upper.conj() @ op @ upper))


def axial_current_3d(wall: Lambda3D, upper) -> float:
    """Normal axial current at the wall, -upper^dagger [n.sigma + lam^dagger n.sigma lam] upper (c = 1).

    Generically nonzero for accepted walls: the reflecting wall breaks
    chiral symmetry no matter how the extension is chosen.
    """
    upper = np.asarray(upper, dtype=complex)
    ns = pauli_dot(wall.normal)
    op = ns + wall.lam.conj().T @ ns @ wall.lam
    return float(-np.real(upper.conj() @ op @ upper))


# ---------------------------------------------------------------------------
# domain-wall dispersion


def _mixing_parts(eta):
    """(sin phi, cos phi) for eta = tan(phi/2), exact at 0, +-1 and +-inf.

    eta is a number or an array, and each element gets the rule below with
    one rounding per operation, the bits it gets alone.  cos phi =
    (1 - eta^2)/(1 + eta^2) takes its numerator as (1 - eta)(1 + eta), which
    does not cancel near |eta| = 1.  For |eta| > 1 sin phi is formed from
    r = 1/eta (+0 at eta = +-inf), and so is cos phi for |eta| > 2, where
    eta^2 could overflow; so the eta -> 1/eta reflection (same sin, opposite
    cos) holds bit-exactly there.  For 1 < |eta| <= 2, cos phi is formed from
    eta itself, since rounding r near 1 would cost ~12 ulp; there the
    reflection holds to a few ulp, and bit-exactly for sin phi.
    """
    eta = np.asarray(eta, dtype=float)
    outer = np.abs(eta) > 1.0
    r = np.divide(1.0, eta, out=np.where(np.isinf(eta), 0.0, eta), where=outer & np.isfinite(eta))
    cos_r = (1.0 - r) * (1.0 + r) / (1.0 + r * r)
    with np.errstate(over="ignore", invalid="ignore"):  # the 1 < |eta| <= 2 form, kept only there
        near = -(eta - 1.0) * (eta + 1.0) / (1.0 + eta * eta)
    return 2.0 * r / (1.0 + r * r), np.select([~outer, np.abs(eta) > 2.0], [cos_r, -cos_r], near)


def dispersion_2p1(wall: EtaWall, p: float) -> DispersionPoint:
    """Dispersion of the (2+1)-d domain-wall mode at signed momentum p.

    E = sin(phi) - cos(phi) p with decay rate cos(phi) + sin(phi) p (units
    m = c = 1), where eta0 = tan(phi/2).  At eta0 = 0 this is the massless
    left-mover E = -p, bound for every momentum.

    Example:
        >>> pt = dispersion_2p1(EtaWall(0.0), 0.7)
        >>> (pt.energy, pt.decay_rate)
        (-0.7, 1.0)
    """
    if not math.isfinite(p):
        raise InvalidArgumentError(f"momentum must be finite, got {p}")
    sin_phi, cos_phi = map(float, _mixing_parts(wall.eta0))
    energy = sin_phi - cos_phi * p
    decay = cos_phi + sin_phi * p
    return DispersionPoint(
        p=p,
        energy=energy,
        decay_rate=decay,
        speed=abs(cos_phi),
        chemical_potential=sin_phi,
        normalizable=decay > 0.0,
    )


def _solve_wall_state(eta: float, p: float):
    """(E, decay rate k) of the bound two-component wall state by a linear solve.

    The exponentially decaying transverse profile turns the wave equation
    into two scalar conditions on the amplitude pair; the wall condition
    fixes the amplitude ratio to eta (or the pure upper amplitude at
    eta = +-inf).  With the amplitudes fixed the conditions are linear in
    E and k (units m = c = 1),

        a_up E + a_lo k = p a_up + a_lo
        a_lo E - a_up k = a_up - p a_lo,

    with determinant -(a_up^2 + a_lo^2), never zero.
    """
    if math.isinf(eta):
        a_up, a_lo = 1.0, 0.0
    elif abs(eta) > 1.0:
        a_up, a_lo = 1.0, 1.0 / eta
    else:
        a_up, a_lo = eta, 1.0
    lhs = np.array([[a_up, a_lo], [a_lo, -a_up]])
    rhs = np.array([p * a_up + a_lo, a_up - p * a_lo])
    E, k = np.linalg.solve(lhs, rhs)
    return float(E), float(k)


def numeric_oracle(wall: EtaWall, p: float) -> DispersionPoint:
    """Independent dispersion point: solved (E, decay rate) plus finite differences.

    The drift speed is |dE/dp| from a Richardson-extrapolated centered
    difference with a generous step (the step cancels exactly for a linear
    E(p) and the extrapolation removes the leading curvature term otherwise,
    keeping rounding noise at machine scale), and the chemical potential is
    E at p = 0.  Every field is produced without the closed forms.
    """
    if not math.isfinite(p):
        raise InvalidArgumentError(f"momentum must be finite, got {p}")
    eta = wall.eta0
    energy, decay = _solve_wall_state(eta, p)
    dp = max(1.0, abs(p)) * 0.25

    def energy_at(q: float) -> float:
        return _solve_wall_state(eta, q)[0]

    slope_h = (energy_at(p + dp) - energy_at(p - dp)) / (2.0 * dp)
    slope_2h = (energy_at(p + 2.0 * dp) - energy_at(p - 2.0 * dp)) / (4.0 * dp)
    speed = abs((4.0 * slope_h - slope_2h) / 3.0)
    return DispersionPoint(
        p=p,
        energy=energy,
        decay_rate=decay,
        speed=speed,
        chemical_potential=energy_at(0.0),
        normalizable=decay > 0.0,
    )
