"""Reflecting-wall boundary data for relativistic fermions.

Three related constructions live here:

* 1-d wall: a two-component fermion on the half-line with the wall condition
  lower(0) = lam * upper(0).  Self-adjointness forces lam onto the imaginary
  axis; the vector current then vanishes at the wall while the axial current
  c (1 + |lam|^2) |upper(0)|^2 stays positive, so the wall breaks chiral
  symmetry for every admissible lam.

* 3-d wall: the condition couples the lower 2-spinor to the upper one
  through a 2x2 matrix lam; admissibility means (n.sigma) lam is
  anti-Hermitean, where n is the outward unit normal.  The heavy-fermion
  limit maps accepted data onto a Hermitean 2x2 Robin matrix.

* Domain walls in one extra dimension: states bound to the wall disperse as
  E = sin(phi) m c^2 - cos(phi) p c with the wall parameter eta = tan(phi/2),
  decay rate cos(phi) m c + sin(phi) p, drift speed |cos(phi)| c and
  chemical potential sin(phi) m c^2.  The tan-half-angle parameterization
  makes the eta = 0 and eta = +-inf limits exact.  A separate numeric route
  solves the two-component bound-state equations, a 2x2 linear system, and
  recovers the drift speed and chemical potential from finite differences
  of E(p), serving as an oracle for the closed forms.

Sign convention for the 1-d heavy-fermion map: the scalar Robin parameter
refers to a left wall written as -gamma psi(0) + psi'(0) = 0 (the interval
solver's convention at its left end), which gives gamma = 2 m c i lam; an
attractive wall (gamma < 0) then corresponds to lam = i y with y > 0, the
values for which the relativistic wall binds a state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import InvalidArgumentError, NotSelfAdjointError

__all__ = [
    "ALPHA_1D",
    "BETA_1D",
    "PAULI",
    "ALPHA1_TILDE_2P1",
    "BETA_TILDE_2P1",
    "ALPHA3_TILDE_2P1",
    "ALPHA_TILDE_4P1",
    "BETA_TILDE_4P1",
    "ALPHA5_TILDE_4P1",
    "Lambda1D",
    "Lambda3D",
    "EtaWall",
    "DispersionPoint",
    "pauli_dot",
    "validate_lambda_1d",
    "boundary_current_1d",
    "axial_current_1d",
    "nonrel_gamma_1d",
    "validate_lambda_3d",
    "sample_lambda_3d",
    "normal_current_3d",
    "axial_current_3d",
    "pauli_gamma_matrix",
    "dispersion_2p1",
    "dispersion_4p1",
    "numeric_oracle",
]

# 1-d wall basis: velocity and mass matrices of the two-component fermion
ALPHA_1D = np.array([[0.0, 1.0], [1.0, 0.0]])
BETA_1D = np.array([[1.0, 0.0], [0.0, -1.0]])

PAULI = np.array(
    [
        [[0.0 + 0.0j, 1.0], [1.0, 0.0]],
        [[0.0, -1.0j], [1.0j, 0.0]],
        [[1.0, 0.0], [0.0, -1.0]],
    ]
)

# chiral-adapted basis for the (2+1)-d domain wall: motion along the first
# axis is diagonal, so wall states decouple into the two rows
ALPHA1_TILDE_2P1 = np.array([[1.0, 0.0], [0.0, -1.0]])
BETA_TILDE_2P1 = np.array([[0.0, 1.0], [1.0, 0.0]])
ALPHA3_TILDE_2P1 = np.array([[0.0 + 0.0j, 1.0j], [-1.0j, 0.0]])

_I2 = np.eye(2)
_Z2 = np.zeros((2, 2))

# the analogous 4x4 basis for the (4+1)-d wall
ALPHA_TILDE_4P1 = np.array([np.block([[s, _Z2], [_Z2, -s]]) for s in PAULI])
BETA_TILDE_4P1 = np.block([[_Z2, _I2], [_I2, _Z2]]).astype(complex)
ALPHA5_TILDE_4P1 = 1j * np.block([[_Z2, _I2], [-_I2, _Z2]])

_ATOL = 1e-12


def pauli_dot(v) -> np.ndarray:
    """sigma . v for a real or complex 3-vector v."""
    v = np.asarray(v)
    if v.shape != (3,):
        raise InvalidArgumentError(f"need a 3-vector, got shape {v.shape}")
    return np.einsum("i,ijk->jk", v, PAULI)


@dataclass(frozen=True)
class Lambda1D:
    """Accepted 1-d wall parameter: lower(0) = lam * upper(0).

    Construct through validate_lambda_1d, which enforces that lam is purely
    imaginary (the self-adjointness condition).
    """

    lam: complex
    m: float = 1.0
    c: float = 1.0


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
    """Domain-wall extension parameter eta0 = tan(phi/2) with the fermion's m and c.

    eta0 may be +-inf (the limits are handled exactly).  There is no vector
    part: the 3-vector the (4+1)-d wall also admits breaks rotation
    invariance along the wall, and no dispersion here uses it.
    """

    eta0: float
    m: float = 1.0
    c: float = 1.0

    def __post_init__(self):
        try:
            eta0 = float(self.eta0)
        except (TypeError, ValueError) as exc:
            raise InvalidArgumentError(f"eta0 must be a real number, got {self.eta0!r}") from exc
        if math.isnan(eta0):
            raise InvalidArgumentError("eta0 must not be NaN")
        object.__setattr__(self, "eta0", eta0)
        if not (math.isfinite(self.m) and self.m > 0):
            raise InvalidArgumentError(f"mass must be positive and finite, got {self.m}")
        if not (math.isfinite(self.c) and self.c > 0):
            raise InvalidArgumentError(f"light speed must be positive and finite, got {self.c}")


@dataclass(frozen=True)
class DispersionPoint:
    """One point of a domain-wall dispersion relation.

    ``p`` is the wall-parallel momentum (signed in (2+1)-d, a magnitude in
    (4+1)-d, where ``branch`` = +-1 picks the spin projection; branch 0
    marks the single (2+1)-d branch).  ``decay_rate`` is the transverse
    decay rate; the state is a genuine bound state only when it is positive.
    ``speed`` is |dE/dp| and ``chemical_potential`` the energy at p = 0,
    which shifts the filling of the wall modes.
    """

    p: float
    branch: int
    energy: float
    decay_rate: float
    speed: float
    chemical_potential: float
    normalizable: bool


# ---------------------------------------------------------------------------
# 1-d wall


def validate_lambda_1d(lam: complex, m: float = 1.0, c: float = 1.0, atol: float = 1e-14) -> Lambda1D:
    """Accept a 1-d wall parameter iff it is purely imaginary.

    Example:
        >>> validate_lambda_1d(0.7j).lam
        0.7j
    """
    lam = complex(lam)
    if not (math.isfinite(lam.real) and math.isfinite(lam.imag)):
        raise InvalidArgumentError(f"wall parameter must be finite, got {lam}")
    if not (math.isfinite(m) and m > 0 and math.isfinite(c) and c > 0):
        raise InvalidArgumentError(f"mass and light speed must be positive, got m={m}, c={c}")
    if abs(lam.real) > atol:
        raise NotSelfAdjointError(
            f"wall parameter must be purely imaginary; Re = {lam.real:.3e} exceeds {atol:.1e}"
        )
    return Lambda1D(lam=lam, m=float(m), c=float(c))


def boundary_current_1d(wall: Lambda1D, upper: complex = 1.0) -> float:
    """Vector current at the wall, c (lam + lam*) |upper|^2; zero when accepted."""
    return float(wall.c * 2.0 * wall.lam.real * abs(upper) ** 2)


def axial_current_1d(wall: Lambda1D, upper: complex = 1.0) -> float:
    """Axial current at the wall, c (1 + |lam|^2) |upper|^2; positive unless upper = 0."""
    return float(wall.c * (1.0 + abs(wall.lam) ** 2) * abs(upper) ** 2)


def nonrel_gamma_1d(wall: Lambda1D) -> float:
    """Robin parameter of the heavy-fermion limit: gamma = 2 m c i lam.

    The value refers to a left wall written as -gamma psi(0) + psi'(0) = 0,
    matching the interval solver's convention, so attractive walls
    (gamma < 0) correspond to Im lam > 0 - exactly the parameters for which
    the relativistic wall binds a state.

    Example:
        >>> w = validate_lambda_1d(-0.5j, m=1.0, c=1.0)
        >>> nonrel_gamma_1d(w)
        1.0
    """
    return float((2.0 * wall.m * wall.c * 1j * wall.lam).real)


# ---------------------------------------------------------------------------
# 3-d wall


def validate_lambda_3d(lam, normal, atol: float = _ATOL) -> Lambda3D:
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
    if defect > atol * scale:
        raise NotSelfAdjointError(
            f"(n.sigma) lam must be anti-Hermitean; defect {defect:.3e} exceeds {atol * scale:.1e}"
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


def normal_current_3d(wall: Lambda3D, upper, c: float = 1.0) -> float:
    """Normal vector current at the wall for an upper 2-spinor; zero when accepted.

    The full spinor is (upper, lam upper), and the current contraction
    reduces to c upper^dagger [(n.sigma) lam + lam^dagger (n.sigma)] upper.
    """
    upper = np.asarray(upper, dtype=complex)
    ns = pauli_dot(wall.normal)
    op = ns @ wall.lam + wall.lam.conj().T @ ns
    return float(np.real(upper.conj() @ op @ upper) * c)


def axial_current_3d(wall: Lambda3D, upper, c: float = 1.0) -> float:
    """Normal axial current at the wall, -c upper^dagger [n.sigma + lam^dagger n.sigma lam] upper.

    Generically nonzero for accepted walls: the reflecting wall breaks
    chiral symmetry no matter how the extension is chosen.
    """
    upper = np.asarray(upper, dtype=complex)
    ns = pauli_dot(wall.normal)
    op = ns + wall.lam.conj().T @ ns @ wall.lam
    return float(-np.real(upper.conj() @ op @ upper) * c)


def pauli_gamma_matrix(wall: Lambda3D, m: float = 1.0, c: float = 1.0) -> np.ndarray:
    """Hermitean 2x2 Robin matrix of the heavy-fermion limit: -2 m c i (n.sigma) lam.

    Example:
        >>> w = validate_lambda_3d(1j * np.eye(2), [0.0, 0.0, 1.0])
        >>> pauli_gamma_matrix(w)  # doctest: +NORMALIZE_WHITESPACE
        array([[ 2.+0.j, 0.+0.j],
               [ 0.+0.j, -2.+0.j]])
    """
    if not (math.isfinite(m) and m > 0 and math.isfinite(c) and c > 0):
        raise InvalidArgumentError(f"mass and light speed must be positive, got m={m}, c={c}")
    g = -2.0 * m * c * 1j * pauli_dot(wall.normal) @ wall.lam
    defect = np.max(np.abs(g - g.conj().T))
    if defect > _ATOL * max(1.0, float(np.max(np.abs(g)))):
        raise NotSelfAdjointError(f"resulting Robin matrix is not Hermitean (defect {defect:.3e})")
    return g


# ---------------------------------------------------------------------------
# domain-wall dispersion


def _mixing_parts(eta: float):
    """(sin phi, cos phi) for eta = tan(phi/2), exact at 0 and +-inf.

    For |eta| > 1 the reciprocal 1/eta is used, which makes the eta -> 1/eta
    reflection symmetry (same sin, opposite cos) hold bit-exactly.
    """
    if math.isinf(eta):
        return 0.0, -1.0
    if abs(eta) > 1.0:
        r = 1.0 / eta
        return 2.0 * r / (1.0 + r * r), -(1.0 - r * r) / (1.0 + r * r)
    return 2.0 * eta / (1.0 + eta * eta), (1.0 - eta * eta) / (1.0 + eta * eta)


def _dispersion_core(wall: EtaWall, p: float, branch: int) -> DispersionPoint:
    sin_phi, cos_phi = _mixing_parts(wall.eta0)
    m, c = wall.m, wall.c
    energy = sin_phi * m * c * c - cos_phi * p * c
    decay = cos_phi * m * c + sin_phi * p
    return DispersionPoint(
        p=p,
        branch=branch,
        energy=energy,
        decay_rate=decay,
        speed=abs(cos_phi) * c,
        chemical_potential=sin_phi * m * c * c,
        normalizable=decay > 0.0,
    )


def dispersion_2p1(wall: EtaWall, p: float) -> DispersionPoint:
    """Dispersion of the (2+1)-d domain-wall mode at signed momentum p.

    E = sin(phi) m c^2 - cos(phi) p c with decay rate
    cos(phi) m c + sin(phi) p, where eta0 = tan(phi/2).  At eta0 = 0 this is
    the massless left-mover E = -p c, bound for every momentum.

    Example:
        >>> pt = dispersion_2p1(EtaWall(0.0), 0.7)
        >>> (pt.energy, pt.decay_rate)
        (-0.7, 1.0)
    """
    if not math.isfinite(p):
        raise InvalidArgumentError(f"momentum must be finite, got {p}")
    return _dispersion_core(wall, p, branch=0)


def dispersion_4p1(wall: EtaWall, p_mag: float, branch: int) -> DispersionPoint:
    """Dispersion of a (4+1)-d domain-wall mode at momentum magnitude p_mag.

    The two spin projections along the momentum direction give the two
    branches E = sin(phi) m c^2 -+ cos(phi) p c (branch +1 takes the upper
    sign); each reduces to the (2+1)-d form at signed momentum +-p_mag.
    """
    if not (math.isfinite(p_mag) and p_mag >= 0):
        raise InvalidArgumentError(f"momentum magnitude must be finite and >= 0, got {p_mag}")
    if branch not in (+1, -1):
        raise InvalidArgumentError(f"branch must be +1 or -1, got {branch}")
    point = _dispersion_core(wall, branch * p_mag, branch=branch)
    # report the magnitude, not the signed reduction variable
    return replace(point, p=p_mag)


def _solve_wall_state(eta: float, m: float, c: float, p: float):
    """(E, decay rate) of the bound two-component wall state by a linear solve.

    The exponentially decaying transverse profile turns the wave equation
    into two scalar conditions on the amplitude pair; the wall condition
    fixes the amplitude ratio to eta (or the pure upper amplitude at
    eta = +-inf).  With the amplitudes fixed the conditions are linear in
    E and kc = c * decay,

        a_up E + a_lo kc = p c a_up + m c^2 a_lo
        a_lo E - a_up kc = m c^2 a_up - p c a_lo,

    with determinant -(a_up^2 + a_lo^2), never zero.
    """
    if math.isinf(eta):
        a_up, a_lo = 1.0, 0.0
    elif abs(eta) > 1.0:
        a_up, a_lo = 1.0, 1.0 / eta
    else:
        a_up, a_lo = eta, 1.0
    mc2, pc = m * c * c, p * c
    lhs = np.array([[a_up, a_lo], [a_lo, -a_up]])
    rhs = np.array([pc * a_up + mc2 * a_lo, mc2 * a_up - pc * a_lo])
    E, kc = np.linalg.solve(lhs, rhs)
    return float(E), float(kc / c)


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
    eta, m, c = wall.eta0, wall.m, wall.c
    energy, decay = _solve_wall_state(eta, m, c, p)
    dp = max(1.0, abs(p)) * 0.25

    def energy_at(q: float) -> float:
        return _solve_wall_state(eta, m, c, q)[0]

    slope_h = (energy_at(p + dp) - energy_at(p - dp)) / (2.0 * dp)
    slope_2h = (energy_at(p + 2.0 * dp) - energy_at(p - 2.0 * dp)) / (4.0 * dp)
    speed = abs((4.0 * slope_h - slope_2h) / 3.0)
    return DispersionPoint(
        p=p,
        branch=0,
        energy=energy,
        decay_rate=decay,
        speed=speed,
        chemical_potential=energy_at(0.0),
        normalizable=decay > 0.0,
    )
