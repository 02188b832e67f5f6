"""Finite-difference quantum dots with Robin boundaries in d = 1, 2, 3.

A dot is a set of cells on a uniform grid of spacing h (a rasterized shape:
interval, rectangle, disk, annulus, or anything read from a mask file).  The
kinetic term couples face-adjacent cells; every boundary face (a cell face
with no inside neighbor) carries a Robin parameter gamma_f, entering the
Hamiltonian as +gamma_f/(2 m h) on the diagonal of its cell.  ``gamma`` is
one number for every face or an array of one per face; +-inf is the Dirichlet
wall, the exact discrete limit gamma_f = 2/h, which eliminates a ghost cell
forced to -psi of its mirror.

Discrete conventions, chosen so the continuum boundary identities hold
exactly in the discrete model (not merely up to O(h)):

* volume sums weight cell centers by h^d;
* boundary sums take the probability density at the face's inside cell but
  the position at the face center, weighted by h^(d-1);
* the face enumeration is axis-major, then +/- orientation, then cells in
  C order; face indices in boundary-field files refer to this order.

With these choices a constant state on any shape gives <n.x> = d and
<n> = 0 exactly, the spectral-flow identity dE/dgamma = <boundary density>/2m
is exact, and the gradient form G = <p^2> - <gamma> is nonnegative, making
the general uncertainty slack safely nonnegative for every eigenstate.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.linalg import eigh, eigh_tridiagonal
from scipy.sparse.csgraph import connected_components
from scipy.sparse.linalg import LinearOperator, eigsh, splu

from .errors import (
    DegenerateStateError,
    GridIOError,
    InvalidArgumentError,
    SolverFailureError,
)

__all__ = [
    "DomainGrid",
    "DiscreteHamiltonian",
    "Moments",
    "UncertaintyReport",
    "GaussianPacket",
    "interval_grid",
    "rect_grid",
    "disk_grid",
    "annulus_grid",
    "read_grid",
    "write_grid",
    "read_robin_field",
    "build_hamiltonian",
    "solve_lowest",
    "moments",
    "uncertainty_general",
    "spectral_flow_check",
    "minimal_packet_gamma",
]


class DomainGrid:
    """A rasterized domain: boolean mask on a uniform grid plus geometry.

    ``mask`` has shape (nx,), (nx, ny) or (nx, ny, nz); True cells belong to
    the dot.  ``origin`` is the coordinate of the lower corner of cell
    (0, ..., 0), so cell centers sit at origin + (index + 1/2) h.

    Derived attributes, all in the fixed orders described in the module
    docstring: ``cell_centers`` (N, d); ``neighbors`` (d, 2, N), the cell
    across each cell's + (side 0) and - (side 1) face on every axis, -1 at a
    boundary face; and, read from it, ``links`` (rows i, j, axis for the
    kinetic couplings, j across the + face of i) and ``boundary_faces`` (rows
    cell, axis, orient).
    """

    def __init__(self, mask: np.ndarray, h: float, origin=None):
        mask = np.asarray(mask, dtype=bool)
        if mask.ndim not in (1, 2, 3):
            raise InvalidArgumentError(f"mask must be 1-, 2- or 3-dimensional, got shape {mask.shape}")
        # cell volumes h^d and densities 1/h^d must both be normal doubles
        if not (math.isfinite(h) and h > 0 and abs(math.log2(h)) * mask.ndim < 1022):
            raise InvalidArgumentError(f"grid spacing {h} leaves h^{mask.ndim} or its inverse out of range")
        if not mask.any():
            raise InvalidArgumentError("mask contains no cells")
        self.mask = mask
        self.d = mask.ndim
        self.h = float(h)
        if origin is None:
            origin = [-0.5 * self.h * n for n in mask.shape]
        self.origin = np.asarray(origin, dtype=float)
        if self.origin.shape != (self.d,):
            raise InvalidArgumentError(f"origin must have {self.d} components")
        if not math.isfinite(float(np.abs(self.origin).max()) + self.h * max(mask.shape)):
            raise InvalidArgumentError("cell coordinates must be finite")

        cell_index = np.full(mask.shape, -1, dtype=np.int64)
        inside = np.argwhere(mask)  # C order
        self.n_cells = len(inside)
        cell_index[tuple(inside.T)] = np.arange(self.n_cells)
        self.cell_centers = self.origin + (inside + 0.5) * self.h

        # one -1 cell padded on every side: the cell at index + step along an
        # axis is read from the padded index shifted by -step
        padded = np.pad(cell_index, 1, constant_values=-1)
        at = tuple((inside + 1).T)
        self.neighbors = np.array(
            [[np.roll(padded, -step, axis)[at] for step in (+1, -1)] for axis in range(self.d)]
        )
        axis, cell = np.nonzero(self.neighbors[:, 0] >= 0)
        self.links = np.column_stack([cell, self.neighbors[axis, 0, cell], axis])
        axis, side, cell = np.nonzero(self.neighbors < 0)
        self.boundary_faces = np.column_stack([cell, axis, 1 - 2 * side])
        self.n_faces = len(self.boundary_faces)

    def face_centers(self) -> np.ndarray:
        """(F, d) coordinates of the boundary face midpoints."""
        cells = self.boundary_faces[:, 0]
        axes = self.boundary_faces[:, 1]
        orients = self.boundary_faces[:, 2]
        centers = self.cell_centers[cells].copy()
        centers[np.arange(self.n_faces), axes] += 0.5 * self.h * orients
        return centers

    def face_normals(self) -> np.ndarray:
        """(F, d) outward unit normals (axis-aligned by construction)."""
        normals = np.zeros((self.n_faces, self.d))
        normals[np.arange(self.n_faces), self.boundary_faces[:, 1]] = self.boundary_faces[:, 2]
        return normals


@dataclass(frozen=True)
class DiscreteHamiltonian:
    """Assembled sparse symmetric Hamiltonian plus its ingredients.

    Immutable after assembly.  The ingredients (``gamma`` as passed in, a
    number or one per face) let the spectral-flow check rebuild it nearby.
    """

    matrix: sp.csr_matrix
    m: float
    V: np.ndarray
    grid: DomainGrid
    gamma: float | np.ndarray


@dataclass(frozen=True)
class Moments:
    """Volume and boundary moments of one normalized state.

    Vectors (mean_x, pbar, mean_n) have d components.  ``var_x`` is the total
    variance sum_a (<x_a^2> - <x_a>^2); ``mean_p2`` the full kinetic quadratic
    form including the boundary term, so mean_p2 - mean_gamma >= 0 always.
    ``xp_bar`` is the centered position-momentum correlator
    Im <psi| (x - <x>).grad |psi> h^d, zero for real states.
    """

    mean_x: np.ndarray
    var_x: float
    mean_p2: float
    pbar: np.ndarray
    xp_bar: float
    mean_n: np.ndarray
    mean_nx: float
    mean_gamma: float


@dataclass(frozen=True)
class UncertaintyReport:
    """Both uncertainty statements evaluated on one state.

    General form: lhs = <p^2> against rhs_general = |pbar|^2 + (N/(2 dx))^2
    + <gamma> + |<n>|^2/4 with N = d + <n>.<x> - <n.x>.  Product form:
    dx*dp against rhs_nonhermitean = sqrt(cov^2 + N^2/4) where cov is the
    x-p correlator and dp^2 = <p^2> - <gamma> - |pbar|^2 - |<n>|^2/4.
    """

    lhs: float
    rhs_general: float
    slack_general: float
    dx: float
    dp: float
    rhs_nonhermitean: float
    slack_nonhermitean: float


@dataclass(frozen=True)
class GaussianPacket:
    """exp(-alpha |x - center|^2 / 2 + i beta . (x - center)) with beta complex.

    ``beta_r`` tilts the phase (mean momentum); ``beta_i`` shears the
    envelope.  Both default to zero vectors.
    """

    alpha: float
    center: np.ndarray
    beta_r: np.ndarray | None = None
    beta_i: np.ndarray | None = None

    def __post_init__(self):
        if not (math.isfinite(self.alpha) and self.alpha > 0):
            raise InvalidArgumentError(f"packet width parameter must be positive, got {self.alpha}")
        object.__setattr__(self, "center", np.asarray(self.center, dtype=float))
        d = len(self.center)
        for name in ("beta_r", "beta_i"):
            v = getattr(self, name)
            v = np.zeros(d) if v is None else np.asarray(v, dtype=float)
            if v.shape != (d,):
                raise InvalidArgumentError(f"{name} must have {d} components")
            object.__setattr__(self, name, v)


# ---------------------------------------------------------------------------
# grid constructors and file format


def _check_size(n: int, *lengths: float) -> None:
    if n < 1:
        raise InvalidArgumentError(f"need at least one cell, got {n}")
    for length in lengths:
        if not (math.isfinite(length) and length > 0):
            raise InvalidArgumentError(f"lengths must be positive and finite, got {length}")


def interval_grid(L: float, n: int) -> DomainGrid:
    """n cells covering [-L/2, L/2]."""
    _check_size(n, L)
    return DomainGrid(np.ones(n, dtype=bool), L / n, origin=np.array([-L / 2.0]))


def rect_grid(Lx: float, Ly: float, n: int) -> DomainGrid:
    """Rectangle Lx x Ly with n cells along x (h = Lx/n)."""
    _check_size(n, Lx, Ly)
    h = Lx / n
    if not (h > 0 and n * (Ly / h) <= np.iinfo(np.intp).max):
        raise InvalidArgumentError(f"a {Lx} x {Ly} rectangle with {n} cells along x has too many cells")
    ny = max(1, round(Ly / h))
    return DomainGrid(np.ones((n, ny), dtype=bool), h, origin=np.array([-Lx / 2.0, -ny * h / 2.0]))


def _disk_box(radius: float, n: int):
    """Spacing and squared center distances of the n x n box around a disk."""
    if not math.isfinite(2.0 * radius * radius):
        raise InvalidArgumentError(f"radius {radius} is too large: squared distances overflow")
    h = 2.0 * radius / n
    centers = -radius + (np.arange(n) + 0.5) * h
    xx, yy = np.meshgrid(centers, centers, indexing="ij")
    return h, xx**2 + yy**2


def disk_grid(radius: float, n: int) -> DomainGrid:
    """Rasterized disk of the given radius, n cells across (h = 2 radius/n)."""
    _check_size(n, radius)
    h, rr = _disk_box(radius, n)
    return DomainGrid(rr < radius**2, h, origin=np.array([-radius, -radius]))


def annulus_grid(r_inner: float, r_outer: float, n: int) -> DomainGrid:
    """Rasterized annulus r_inner < r < r_outer, n cells across the outer box."""
    _check_size(n, r_inner, r_outer)
    if not r_inner < r_outer:
        raise InvalidArgumentError(f"need 0 < r_inner < r_outer, got {r_inner}, {r_outer}")
    h, rr = _disk_box(r_outer, n)
    return DomainGrid((rr > r_inner**2) & (rr < r_outer**2), h, origin=np.array([-r_outer, -r_outer]))


def read_grid(path) -> DomainGrid:
    """Read a mask file: header ``d h n1 [n2 [n3]]``, then 0/1 cells in C order.

    Whitespace between cells is ignored, so rows may be laid out one per line.
    """
    try:
        with open(path) as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise GridIOError(f"cannot read grid file {path}: {exc}") from None
    lines = text.splitlines()
    if not lines:
        raise GridIOError(f"grid file {path} is empty")
    head = lines[0].split()
    quoted = repr(lines[0][:40]) + ("..." if len(lines[0]) > 40 else "")
    try:
        d = int(head[0])
        h = float(head[1])
        dims = [int(tok) for tok in head[2:]]
    except (IndexError, ValueError):
        raise GridIOError(f"grid file {path}: bad header {quoted}") from None
    if d not in (1, 2, 3) or len(dims) != d or any(n < 1 for n in dims):
        raise GridIOError(f"grid file {path}: header dimensions inconsistent: {quoted}")
    body = "".join(lines[1:]).split()
    cells = "".join(body)
    if len(cells) != int(np.prod(dims)) or set(cells) - {"0", "1"}:
        raise GridIOError(
            f"grid file {path}: expected {int(np.prod(dims))} cells of 0/1, got {len(cells)}"
        )
    mask = (np.frombuffer(cells.encode(), dtype=np.uint8) == ord("1")).reshape(dims)
    try:
        return DomainGrid(mask, h)
    except InvalidArgumentError as exc:
        raise GridIOError(f"grid file {path}: {exc}") from None


def write_grid(grid: DomainGrid, path) -> None:
    """Inverse of read_grid, one x-row of cells per line."""
    header = f"{grid.d} {grid.h!r} " + " ".join(str(n) for n in grid.mask.shape)
    flat = grid.mask.reshape(grid.mask.shape[0], -1)
    rows = ["".join("1" if v else "0" for v in row) for row in flat]
    try:
        with open(path, "w") as fh:
            fh.write(header + "\n")
            fh.write("\n".join(rows) + "\n")
    except OSError as exc:
        raise GridIOError(f"cannot write grid file {path}: {exc}") from None


def read_robin_field(path, grid: DomainGrid) -> np.ndarray:
    """Read per-face gammas from CSV rows ``face_index,gamma``.

    Faces not listed keep gamma = 0 (Neumann).  A first line ``face,gamma``
    is accepted as a header.  ``inf``/``-inf`` entries mark Dirichlet faces.
    """
    try:
        with open(path) as fh:
            lines = [ln.strip() for ln in fh if ln.strip()]
    except (OSError, UnicodeDecodeError) as exc:
        raise GridIOError(f"cannot read boundary field {path}: {exc}") from None
    values = np.zeros(grid.n_faces)
    start = 1 if lines and lines[0].lower().replace(" ", "") == "face,gamma" else 0
    for ln in lines[start:]:
        parts = ln.split(",")
        try:
            idx = int(parts[0])
            val = float(parts[1])
        except (IndexError, ValueError):
            raise GridIOError(f"boundary field {path}: bad row {ln!r}") from None
        if not 0 <= idx < grid.n_faces:
            raise GridIOError(
                f"boundary field {path}: face {idx} out of range (grid has {grid.n_faces})"
            )
        values[idx] = val
    return values


# ---------------------------------------------------------------------------
# assembly and eigensolution


def _face_gammas(grid: DomainGrid, gamma) -> np.ndarray:
    """One finite gamma per boundary face; +-inf becomes the exact 2/h.

    A finite gamma with |gamma| h >= 2^52 is rejected: its face term
    outweighs the kinetic term 1/(2 m h^2) by more than double precision
    resolves, and the wall it stands for is the Dirichlet wall, gamma = inf.
    """
    vals = np.array(gamma, dtype=float)
    if np.isnan(vals).any():
        raise InvalidArgumentError("gamma values must not be NaN" if vals.ndim else "gamma must not be NaN")
    if vals.ndim == 0:
        vals = np.full(grid.n_faces, vals)
    if vals.shape != (grid.n_faces,):
        raise InvalidArgumentError(f"boundary field has {vals.size} values, grid has {grid.n_faces} faces")
    wall = np.isinf(vals)
    stiff = np.abs(vals) >= 2.0**52 / grid.h  # |gamma| h >= 2^52, without overflowing
    if np.any(stiff & ~wall):
        raise InvalidArgumentError(
            f"gamma={float(vals[stiff & ~wall][0])} on a grid of spacing h={grid.h} has |gamma| h >= 2^52; "
            "for the Dirichlet wall use gamma = inf (--gamma inf)"
        )
    vals[wall] = 2.0 / grid.h
    return vals


def build_hamiltonian(grid: DomainGrid, gamma, m: float, V=None) -> DiscreteHamiltonian:
    """Assemble the sparse symmetric Hamiltonian for the dot.

    ``gamma`` is a number or one per boundary face (grid face order), +-inf
    the Dirichlet wall.  ``V`` may be None, an array with one value per cell
    (grid cell order), or a callable evaluated on the cell centers.
    """
    gammas = _face_gammas(grid, gamma)
    if not (math.isfinite(m) and m > 0):
        raise InvalidArgumentError(f"mass must be positive and finite, got {m}")
    n = grid.n_cells
    h = grid.h
    if callable(V):
        V_arr = np.asarray(V(grid.cell_centers), dtype=float)
    elif V is None:
        V_arr = np.zeros(n)
    else:
        V_arr = np.asarray(V, dtype=float)
    if V_arr.shape != (n,):
        raise InvalidArgumentError(f"potential must have one value per cell ({n}), got {V_arr.shape}")

    # every row's Gershgorin sum |H_ii| + sum_j |H_ij| is at most |V_i| plus,
    # per cell face, 2t for a link or |gamma_f| h t for a boundary face; the
    # eigensolvers square numbers of that size (bisection pivots, residual
    # norms), so its square must stay a double
    kinetic = 2.0 * (m * h * h)
    t = 1.0 / kinetic if kinetic > 0 else math.inf
    face = float(np.abs(gammas).max(initial=0.0)) * h * t
    reach = float(np.abs(V_arr).max()) + 2 * grid.d * max(2.0 * t, face)
    if not math.isfinite(reach * reach):
        raise InvalidArgumentError(f"mass {m} and spacing {h} give a Hamiltonian beyond the double range")
    diag = V_arr.copy()
    i = grid.links[:, 0]
    j = grid.links[:, 1]
    np.add.at(diag, i, t)
    np.add.at(diag, j, t)
    np.add.at(diag, grid.boundary_faces[:, 0], gammas / (2.0 * (m * h)))

    rows = np.concatenate([np.arange(n), i, j])
    cols = np.concatenate([np.arange(n), j, i])
    vals = np.concatenate([diag, np.full(len(i), -t), np.full(len(j), -t)])
    matrix = sp.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()
    return DiscreteHamiltonian(matrix, float(m), V_arr, grid, gamma)


def _lowest_pairs(A: sp.csr_matrix, count: int):
    """The ``count`` lowest eigenpairs of one connected part, unit l2 vectors.

    Shift-invert Lanczos, or a dense solve for the whole spectrum, which
    Lanczos cannot return.  One start vector sees the further copies of a
    multiple level only through rounding, and a tight cluster of levels
    needs a wide basis to converge.  So the basis holds at least 60
    vectors, not ARPACK's 20, and the complement of the pairs found is
    searched again, from a fresh start, until it holds no level below the
    top one found.
    """
    n = A.shape[0]
    if count == n:
        return eigh(A.toarray())
    # shift below the spectrum (Gershgorin), factor once, invert-iterate
    diag = A.diagonal()
    row_abs = np.asarray(np.abs(A).sum(axis=1)).ravel()
    sigma = float((diag - (row_abs - np.abs(diag))).min()) - 1.0
    try:
        lu = splu((A - sigma * sp.identity(n, format="csr")).tocsc())
        op = LinearOperator((n, n), matvec=lu.solve, dtype=float)
        v0 = np.sin(np.arange(1, n + 1))
        # ARPACK may ask for a random restart vector; a seeded generator
        # keeps every solve, and so the output bytes, reproducible
        theta, v = eigsh(
            op, k=count, ncv=min(n, max(2 * count + 1, 60)), which="LM", v0=v0, tol=0,
            rng=np.random.default_rng(0),
        )

        def rest(x):  # the part of x outside the pairs found so far
            return x - v @ (v.T @ x)

        deflated = LinearOperator((n, n), matvec=lambda x: rest(lu.solve(rest(x))), dtype=float)
        while len(theta) < n - 1:
            start = rest(np.random.default_rng(len(theta)).standard_normal(n))
            t, x = eigsh(deflated, k=1, which="LA", v0=start, tol=0, rng=np.random.default_rng(0))
            if not t[0] > theta.min():
                break
            theta, v = np.append(theta, t), np.column_stack([v, x])
    except Exception as exc:
        raise SolverFailureError(f"shift-invert eigensolver failed: {exc}") from None
    w = 1.0 / theta + sigma
    order = np.argsort(w)[:count]
    return w[order], v[:, order]


def solve_lowest(ham: DiscreteHamiltonian, count: int):
    """The ``count`` lowest eigenpairs, vectors normalized to sum h^d psi^2 = 1.

    One route per dimension: the direct tridiagonal solver in d = 1, and in
    d >= 2 shift-invert Lanczos on each connected part of the dot, whose
    parts (a thin rasterized annulus, say) share eigenvalues exactly that one
    start vector cannot tell apart.  Every returned pair is residual-checked.
    """
    A = ham.matrix
    n = A.shape[0]
    if not 1 <= count <= n:
        raise InvalidArgumentError(f"count must be in [1, {n}], got {count}")
    grid = ham.grid

    if grid.d == 1:
        try:
            w, v = eigh_tridiagonal(A.diagonal(), A.diagonal(k=1), select="i", select_range=(0, count - 1))
        except np.linalg.LinAlgError as exc:
            raise SolverFailureError(f"tridiagonal eigensolver failed: {exc}") from None
    else:
        _, labels = connected_components(A, directed=False)
        parts = np.split(np.argsort(labels, kind="stable"), np.cumsum(np.bincount(labels))[:-1])
        pairs = [_lowest_pairs(A[cells][:, cells], min(count, len(cells))) for cells in parts]
        found = sorted((e, p, j) for p, (pw, _) in enumerate(pairs) for j, e in enumerate(pw))[:count]
        w, v = np.array([e for e, _, _ in found]), np.zeros((n, count))
        for col, (_, p, j) in enumerate(found):
            v[parts[p], col] = pairs[p][1][:, j]

    # fixed sign: largest-magnitude component positive
    lead = v[np.argmax(np.abs(v), axis=0), np.arange(v.shape[1])]
    v[:, lead < 0] *= -1
    resid = A @ v - v * w[np.newaxis, :]
    for kcol in range(v.shape[1]):
        tol = 1e-8 * max(1.0, abs(w[kcol]))
        r = np.linalg.norm(resid[:, kcol])
        if not np.isfinite(r) or r > tol:
            raise SolverFailureError(
                f"eigenpair {kcol} residual {r:.2e} exceeds {tol:.2e}"
            )
    v = v / grid.h ** (grid.d / 2.0)
    return w, v


# ---------------------------------------------------------------------------
# moments and uncertainty


def _gradient(grid: DomainGrid, psi: np.ndarray) -> np.ndarray:
    """(N, d) centered-difference gradient, one-sided where a neighbor is missing."""
    out = np.empty((grid.n_cells, grid.d), dtype=psi.dtype)
    for axis, (plus, minus) in enumerate(grid.neighbors):
        up = np.where(plus >= 0, psi[plus], psi)
        down = np.where(minus >= 0, psi[minus], psi)
        out[:, axis] = (up - down) / np.where((plus >= 0) & (minus >= 0), 2 * grid.h, grid.h)
    return out


def _in_double_range(fn):
    """fn, raising InvalidArgumentError where a term it forms leaves the double range."""

    @functools.wraps(fn)
    def checked(*args, **kwargs):
        try:
            with np.errstate(over="raise", invalid="raise", divide="raise"):
                return fn(*args, **kwargs)
        except (FloatingPointError, OverflowError) as exc:
            raise InvalidArgumentError(f"{fn.__name__} leaves the double range: {exc}") from None

    return checked


@_in_double_range
def moments(grid: DomainGrid, gamma, psi: np.ndarray) -> Moments:
    """Volume and boundary moments of a state given on the grid cells.

    ``gamma`` is as in ``build_hamiltonian``; ``psi`` may be real or complex,
    renormalized to sum h^d |psi|^2 = 1 before anything is measured.
    """
    psi = np.asarray(psi)
    if psi.shape != (grid.n_cells,):
        raise InvalidArgumentError(f"state must have one value per cell ({grid.n_cells})")
    h = grid.h
    hd = h**grid.d
    norm2 = hd * float(np.sum(np.abs(psi) ** 2))
    if norm2 <= 0 or not math.isfinite(norm2):
        raise InvalidArgumentError("state has zero or non-finite norm")
    psi = psi / math.sqrt(norm2)
    rho = np.abs(psi) ** 2

    mean_x = hd * rho @ grid.cell_centers
    var_x = float(hd * np.sum(rho * np.sum(grid.cell_centers**2, axis=1)) - np.dot(mean_x, mean_x))

    i = grid.links[:, 0]
    j = grid.links[:, 1]
    grad_sq = float(np.sum(np.abs(psi[i] - psi[j]) ** 2)) * h ** (grid.d - 2)

    cells = grid.boundary_faces[:, 0]
    axes = grid.boundary_faces[:, 1]
    orients = grid.boundary_faces[:, 2]
    hd1 = h ** (grid.d - 1)
    rho_f = rho[cells]
    gammas = _face_gammas(grid, gamma)
    mean_gamma = float(hd1 * np.sum(gammas * rho_f))
    mean_n = np.zeros(grid.d)
    np.add.at(mean_n, axes, hd1 * orients * rho_f)
    # n . x at a face reduces to orient * x_cell[axis] + h/2
    nx_face = orients * grid.cell_centers[cells, axes] + 0.5 * h
    mean_nx = float(hd1 * np.sum(nx_face * rho_f))

    grad = _gradient(grid, psi)
    pbar = hd * np.imag(np.einsum("i,id->d", np.conj(psi), grad))
    rel = grid.cell_centers - mean_x
    xp_bar = float(hd * np.imag(np.einsum("i,id,id->", np.conj(psi), rel, grad)))

    return Moments(mean_x, var_x, grad_sq + mean_gamma, pbar, xp_bar, mean_n, mean_nx, mean_gamma)


@_in_double_range
def uncertainty_general(mom: Moments, d: int) -> UncertaintyReport:
    """Evaluate both boundary-corrected uncertainty statements.

    Raises DegenerateStateError when the state has no position spread.
    """
    if mom.var_x <= 0:
        raise DegenerateStateError("state has zero position variance")
    dx = math.sqrt(mom.var_x)
    N = d + float(np.dot(mom.mean_n, mom.mean_x)) - mom.mean_nx
    p2 = float(np.dot(mom.pbar, mom.pbar))
    n2 = float(np.dot(mom.mean_n, mom.mean_n))
    lhs = mom.mean_p2
    rhs_general = p2 + (N / (2.0 * dx)) ** 2 + mom.mean_gamma + n2 / 4.0
    dp_sq = mom.mean_p2 - mom.mean_gamma - p2 - n2 / 4.0
    dp = math.sqrt(max(0.0, dp_sq))
    rhs_nh = math.hypot(mom.xp_bar, 0.5 * N)
    return UncertaintyReport(
        lhs=lhs,
        rhs_general=rhs_general,
        slack_general=lhs - rhs_general,
        dx=dx,
        dp=dp,
        rhs_nonhermitean=rhs_nh,
        slack_nonhermitean=dx * dp - rhs_nh,
    )


def spectral_flow_check(ham: DiscreteHamiltonian, w: np.ndarray, v: np.ndarray, h_gamma: float = 1e-5):
    """Compare dE/dgamma of every solved level against the boundary-density formula.

    ``w, v = solve_lowest(ham, count)`` for a finite uniform gamma.  Returns
    one (lhs, rhs) per level: lhs the centered difference of the eigenvalue
    under gamma -> gamma +- h_gamma (one solve each way for all levels), rhs
    = sum_f h^(d-1) rho_f / 2m from the vectors in hand (Hellmann-Feynman).
    A level within 1e-8 max(1, |E|) of a solved neighbor is degenerate, its
    derivative undefined: it gets None.  The top level has no solved
    neighbor above, so solve one level more than needed, unless ``count``
    is the whole spectrum.
    """
    gamma, grid, m = ham.gamma, ham.grid, ham.m
    if np.ndim(gamma) or not math.isfinite(gamma):
        raise InvalidArgumentError("spectral flow needs a finite uniform gamma")
    if h_gamma <= 0:
        raise InvalidArgumentError(f"step must be positive, got {h_gamma}")
    w_up, w_down = (
        solve_lowest(build_hamiltonian(grid, g, m, ham.V), len(w))[0]
        for g in (gamma + h_gamma, gamma - h_gamma)
    )
    lhs = (w_up - w_down) / (2.0 * h_gamma)
    rhs = grid.h ** (grid.d - 1) * np.sum(v[grid.boundary_faces[:, 0]] ** 2, axis=0) / m / 2.0
    gap = np.abs(np.diff(w))
    nearest = np.minimum(np.append(np.inf, gap), np.append(gap, np.inf))
    return [
        None if near < 1e-8 * max(1.0, abs(e)) else (float(a), float(b))
        for e, near, a, b in zip(w, nearest, lhs, rhs)
    ]


def minimal_packet_gamma(grid: DomainGrid, packet: GaussianPacket):
    """Boundary field matched to a Gaussian packet, plus its saturation report.

    The matched field gamma(x) = alpha n.(x - center) + n.beta_i (evaluated at
    face centers) makes the packet satisfy the Robin condition up to the
    normal phase gradient, so the product-form uncertainty bound saturates up
    to O(h) discretization error; the returned report quantifies it.
    """
    if packet.center.shape != (grid.d,):
        raise InvalidArgumentError(f"packet center must have {grid.d} components")
    rel_face = grid.face_centers() - packet.center
    normals = grid.face_normals()
    gammas = packet.alpha * np.sum(normals * rel_face, axis=1) + normals @ packet.beta_i

    rel = grid.cell_centers - packet.center
    beta = packet.beta_r + 1j * packet.beta_i
    psi = np.exp(-0.5 * packet.alpha * np.sum(rel**2, axis=1) + 1j * rel @ beta)
    report = uncertainty_general(moments(grid, gammas, psi), grid.d)
    return gammas, report
