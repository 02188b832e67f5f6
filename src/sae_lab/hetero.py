"""Interface matrices for junctions between regions of different mass.

A junction couples the wavefunction data on the two sides through a 2x2
matrix g acting on the pair (value, flux), where flux = (1/2m) n.grad(psi)
and n is the unit normal pointing from the left region into the right one:

    (value_left, flux_left) = g . (value_right, flux_right)

Probability is conserved across the junction exactly when g is a real
matrix of determinant 1 times an overall phase.  Equivalently, the four
bilinear combinations

    conj(g11) g22 - conj(g21) g12 = 1
    conj(g12) g21 - conj(g22) g11 = -1
    conj(g11) g21 - conj(g21) g11 = 0
    conj(g12) g22 - conj(g22) g12 = 0

all hold; validate_interface checks exactly these and reports the worst
violator on rejection.
"""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import GridIOError, InvalidArgumentError, NotSelfAdjointError

__all__ = [
    "InterfaceMatrix",
    "InterfaceState",
    "bilinear_residuals",
    "validate_interface",
    "match_across",
    "normal_current",
    "current_mismatch",
    "parse_interface_file",
]

_ATOL = 1e-12
# Entries up to 2**510 in modulus keep every bilinear below the largest double.
_MAX_ENTRY = 2.0**510


@dataclass(frozen=True)
class InterfaceMatrix:
    """A validated junction matrix: complex entries plus the extracted phase.

    ``entries`` is the 2x2 complex matrix; ``theta`` the common phase of its
    entries, folded into (-pi/2, pi/2].  ``real_factor`` recovers the
    determinant-1 real matrix.  Construct through validate_interface.
    """

    entries: np.ndarray
    theta: float

    @property
    def real_factor(self) -> np.ndarray:
        return np.real(np.exp(-1j * self.theta) * self.entries)


@dataclass(frozen=True)
class InterfaceState:
    """Wavefunction data at one side of the junction: (value, flux).

    ``flux`` is (1/2m) n.grad(psi) with the shared junction normal n, so the
    mass asymmetry lives in the state and the matrix stays mass-free.
    """

    value: complex
    flux: complex

    def __post_init__(self):
        for name in ("value", "flux"):
            z = complex(getattr(self, name))
            if not (math.isfinite(z.real) and math.isfinite(z.imag)):
                raise InvalidArgumentError(f"{name} must be finite, got {z}")
            object.__setattr__(self, name, z)


_IDENTITIES = (
    "conj(g11) g22 - conj(g21) g12 = 1",
    "conj(g12) g21 - conj(g22) g11 = -1",
    "conj(g11) g21 - conj(g21) g11 = 0",
    "conj(g12) g22 - conj(g22) g12 = 0",
)


def _all_finite(g: np.ndarray) -> bool:
    return bool(np.all(np.isfinite(g.real) & np.isfinite(g.imag)))


def _in_range(g: np.ndarray) -> bool:
    return _all_finite(g) and bool(np.max(np.abs(g)) <= _MAX_ENTRY)


def bilinear_residuals(g) -> list:
    """The four conserved bilinears minus their required values.

    Returns (description, complex residual) pairs; a valid junction matrix
    has every residual at rounding scale.  The residuals of a matrix with an
    entry that is not finite or exceeds 2**510 in modulus are not formed and
    read nan.
    """
    g = np.asarray(g, dtype=complex)
    if not _in_range(g):
        return [(name, complex(math.nan, math.nan)) for name in _IDENTITIES]
    return [
        (_IDENTITIES[0], np.conj(g[0, 0]) * g[1, 1] - np.conj(g[1, 0]) * g[0, 1] - 1.0),
        (_IDENTITIES[1], np.conj(g[0, 1]) * g[1, 0] - np.conj(g[1, 1]) * g[0, 0] + 1.0),
        (_IDENTITIES[2], np.conj(g[0, 0]) * g[1, 0] - np.conj(g[1, 0]) * g[0, 0]),
        (_IDENTITIES[3], np.conj(g[0, 1]) * g[1, 1] - np.conj(g[1, 1]) * g[0, 1]),
    ]


def validate_interface(entries) -> InterfaceMatrix:
    """Check a 2x2 complex matrix for probability-conserving junction form.

    Accepts exactly the matrices of the form exp(i theta) times a real
    matrix with determinant 1, with entries up to 2**510 in modulus.  Each
    identity's tolerance is absolute while its two products are ~1 and
    scales with the sum of their moduli beyond that.

    Example:
        >>> gm = validate_interface([[1, 0], [0, 1]])
        >>> gm.theta
        0.0
    """
    g = np.asarray(entries, dtype=complex)
    if g.shape != (2, 2):
        raise InvalidArgumentError(f"junction matrix must be 2x2, got shape {g.shape}")
    if not _all_finite(g):
        raise InvalidArgumentError("junction matrix entries must be finite")
    if not _in_range(g):
        raise InvalidArgumentError("junction matrix entries must not exceed 2**510 in modulus")
    a = np.abs(g)
    det_scale = a[0, 0] * a[1, 1] + a[1, 0] * a[0, 1]
    products = [det_scale, det_scale, 2.0 * a[0, 0] * a[1, 0], 2.0 * a[0, 1] * a[1, 1]]
    tols = [_ATOL * max(1.0, float(p)) for p in products]
    residuals = [abs(value) for _, value in bilinear_residuals(g)]
    worst = max(range(4), key=lambda k: residuals[k] / tols[k])
    if residuals[worst] > tols[worst]:
        det_real = np.conj(g[0, 0]) * g[1, 1] - np.conj(g[1, 0]) * g[0, 1]
        hint = ""
        if abs(det_real + 1.0) <= tols[0]:
            hint = " (real factor has determinant -1, orientation-reversing)"
        raise NotSelfAdjointError(
            f"junction matrix violates {_IDENTITIES[worst]} by {residuals[worst]:.3e}{hint}"
        )

    # common phase from the largest-magnitude entry, folded into (-pi/2, pi/2]
    flat = g.ravel()
    lead = flat[int(np.argmax(np.abs(flat)))]
    theta = math.remainder(cmath.phase(lead), math.pi)
    if theta <= -math.pi / 2:
        theta += math.pi
    return InterfaceMatrix(entries=g, theta=theta)


def match_across(state_right: InterfaceState, gamma_matrix: InterfaceMatrix) -> InterfaceState:
    """Map (value, flux) on the right side to the left side through the matrix."""
    g = gamma_matrix.entries
    value = g[0, 0] * state_right.value + g[0, 1] * state_right.flux
    flux = g[1, 0] * state_right.value + g[1, 1] * state_right.flux
    return InterfaceState(value=value, flux=flux)


def normal_current(state: InterfaceState) -> float:
    """Normal probability current carried by (value, flux): 2 Im(value* flux)."""
    return 2.0 * (np.conj(state.value) * state.flux).imag


def current_mismatch(state_left: InterfaceState, state_right: InterfaceState) -> float:
    """|normal current left - normal current right|; zero across a valid junction."""
    return abs(normal_current(state_left) - normal_current(state_right))


def _as_float(value) -> float:
    """float(value), reading an integer beyond the double range as +-inf,
    as JSON reads 1e400.  A JSON true or false is not a number: TypeError."""
    if isinstance(value, bool):
        raise TypeError(f"{value!r} is not a number")
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def parse_interface_file(path) -> np.ndarray:
    """Read a junction matrix file without validating it.

    Format: {"entries": [[re, im], [re, im], [re, im], [re, im]]} listing
    the entries row-major (11, 12, 21, 22), plus an optional "theta" that
    multiplies all entries by exp(i theta) (store the real factor and its
    phase separately).  Returns the raw 2x2 complex entries with any stored
    phase applied, so a caller can report how far an unacceptable matrix is
    from conserving probability.
    """
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise GridIOError(f"cannot read junction file {path}: {exc}") from None
    except (ValueError, RecursionError) as exc:  # bad JSON, bad UTF-8 or too deep
        raise GridIOError(f"junction file {path} is not valid JSON: {exc}") from None
    if not isinstance(data, dict) or "entries" not in data:
        raise GridIOError(f"junction file {path}: missing 'entries'")
    raw = data["entries"]
    if not (isinstance(raw, list) and len(raw) == 4):
        raise GridIOError(f"junction file {path}: 'entries' must list 4 [re, im] pairs")
    try:
        flat = [complex(_as_float(re), _as_float(im)) for re, im in raw]
    except (TypeError, ValueError):
        raise GridIOError(f"junction file {path}: 'entries' must list 4 [re, im] pairs") from None
    g = np.array(flat, dtype=complex).reshape(2, 2)
    theta = data.get("theta", 0.0)
    if type(theta) not in (int, float) or not math.isfinite(_as_float(theta)):  # bool is not a number
        raise GridIOError(f"junction file {path}: 'theta' must be a finite number")
    # the phase changes neither the verdict nor the residuals out of range
    if theta and _in_range(g):
        g = g * cmath.exp(1j * theta)
    return g

