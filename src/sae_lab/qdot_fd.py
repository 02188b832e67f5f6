"""Finite-difference quantum dots with Robin boundaries in d = 1, 2, 3.

A dot is a set of cells on a uniform grid of spacing h (a rasterized shape:
interval, rectangle, disk, annulus, or anything read from a mask file).  The
kinetic term couples face-adjacent cells; every boundary face (a cell face
with no inside neighbor) carries a Robin parameter gamma_f, entering the
Hamiltonian as +g_f/(2 m h) on the diagonal of its cell, g_f and dg_f/dgamma
defined in one place, ``_face_term``.  ``gamma`` is one number for every face
or one per face; g_f = gamma_f, except at the Dirichlet wall +-inf: the exact
discrete limit 2/h, which eliminates a ghost cell forced to -psi of its mirror.

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

The dot is free inside its walls: no potential, so gamma alone moves its
levels.  Each input has one form: the dimension of an uncertainty report is
that of its moments, and a Gaussian packet is its width alpha, center and
complex wave vector beta (one number or d), from which
``minimal_packet_gamma`` builds the wall the packet saturates.
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

from .errors import GridIOError, InvalidArgumentError, SolverFailureError

__all__ = [
    "DomainGrid",
    "DiscreteHamiltonian",
    "Moments",
    "UncertaintyReport",
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
    """A rasterized domain: boolean mask on a uniform grid of spacing h.

    ``mask`` has shape (nx,), (nx, ny) or (nx, ny, nz); True cells belong to
    the dot.  The box is centered on 0: cell i of an axis of n cells is
    centered at -h n/2 + (i + 1/2) h, so a mask file holds the whole grid.

    Derived attributes, all in the fixed orders described in the module
    docstring: ``cell_centers`` (N, d); ``neighbors`` (d, 2, N), the cell
    across each cell's + (side 0) and - (side 1) face on every axis, -1 at a
    boundary face; and, read from it, ``links`` (rows i, j, axis for the
    kinetic couplings, j across the + face of i) and ``boundary_faces`` (rows
    cell, axis, orient).
    """

    def __init__(self, mask: np.ndarray, h: float):
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
        corner = -0.5 * self.h * np.array(mask.shape)  # the lower corner of cell (0, ..., 0)
        if not math.isfinite(float(np.abs(corner).max()) + self.h * max(mask.shape)):
            raise InvalidArgumentError("cell coordinates must be finite")

        cell_index = np.full(mask.shape, -1, dtype=np.int64)
        inside = np.argwhere(mask)  # C order
        self.n_cells = len(inside)
        cell_index[tuple(inside.T)] = np.arange(self.n_cells)
        self.cell_centers = corner + (inside + 0.5) * self.h

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
        cells, axes, orients = self.boundary_faces.T
        centers = self.cell_centers[cells].copy()
        centers[np.arange(self.n_faces), axes] += 0.5 * self.h * orients
        return centers


class _Part:
    """One connected part of a d >= 2 dot: its cells and its block of the matrix.

    ``factor`` is (sigma, LU of block - sigma I) with sigma below the
    block's Gershgorin bound, built on first use.  That shifted block is
    positive definite, so it is factored without pivoting under a symmetric
    fill-reducing ordering, about half the fill of a pivoted LU.
    """

    def __init__(self, cells: np.ndarray, matrix: sp.csr_matrix):
        self.cells = cells
        self.matrix = matrix

    @functools.cached_property
    def factor(self):
        A = self.matrix
        diag = A.diagonal()
        row_abs = np.asarray(np.abs(A).sum(axis=1)).ravel()
        sigma = float((diag - (row_abs - np.abs(diag))).min()) - 1.0
        shifted = (A - sigma * sp.identity(A.shape[0], format="csr")).tocsc()
        lu = splu(shifted, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0, options={"SymmetricMode": True})
        return sigma, lu


@dataclass(frozen=True)
class DiscreteHamiltonian:
    """Assembled sparse symmetric Hamiltonian plus its ingredients.

    Immutable after assembly.  The ingredients (``gamma`` as passed in, a
    number or one per face) let the spectral-flow check assemble the
    Hamiltonian at gamma +- step; ``faces`` is its ``_face_term``, each
    face's g and dg/dgamma, resolved once at assembly.  In d >= 2 the
    connected parts, each with its shifted LU factor, are built on first use
    and shared by every solve on this Hamiltonian, so the flow check
    refactors nothing.
    """

    matrix: sp.csr_matrix
    m: float
    grid: DomainGrid
    gamma: float | np.ndarray
    faces: tuple[np.ndarray, np.ndarray]

    @functools.cached_property
    def _parts(self) -> list[_Part]:
        """The connected parts of the dot (d >= 2), in label order."""
        A = self.matrix
        _, labels = connected_components(A, directed=False)
        cells = np.split(np.argsort(labels, kind="stable"), np.cumsum(np.bincount(labels))[:-1])
        return [_Part(c, A[c][:, c]) for c in cells]


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


# ---------------------------------------------------------------------------
# grid constructors and file format


def _check_size(n: int, *lengths: float) -> None:
    if n < 1:
        raise InvalidArgumentError(f"need at least one cell, got {n}")
    for length in lengths:
        if not (math.isfinite(length) and length > 0):
            raise InvalidArgumentError(f"lengths must be positive and finite, got {length}")


def interval_grid(L: float, n: int) -> DomainGrid:
    """n cells of spacing h = L/n covering [-h n/2, h n/2], which is [-L/2, L/2] up to rounding."""
    _check_size(n, L)
    return DomainGrid(np.ones(n, dtype=bool), L / n)


def rect_grid(Lx: float, Ly: float, n: int) -> DomainGrid:
    """Rectangle Lx x Ly with n cells along x (h = Lx/n)."""
    _check_size(n, Lx, Ly)
    h = Lx / n
    if not (h > 0 and n * (Ly / h) <= np.iinfo(np.intp).max):
        raise InvalidArgumentError(f"a {Lx} x {Ly} rectangle with {n} cells along x has too many cells")
    ny = max(1, round(Ly / h))
    return DomainGrid(np.ones((n, ny), dtype=bool), h)


def _disk_box(radius: float, n: int):
    """Spacing and squared distances of the n x n box's cell centers, as DomainGrid places them."""
    if not math.isfinite(2.0 * radius * radius):
        raise InvalidArgumentError(f"radius {radius} is too large: squared distances overflow")
    h = 2.0 * radius / n
    centers = -0.5 * h * n + (np.arange(n) + 0.5) * h
    xx, yy = np.meshgrid(centers, centers, indexing="ij")
    return h, xx**2 + yy**2


def disk_grid(radius: float, n: int) -> DomainGrid:
    """Rasterized disk of the given radius, n cells across (h = 2 radius/n)."""
    _check_size(n, radius)
    h, rr = _disk_box(radius, n)
    return DomainGrid(rr < radius**2, h)


def annulus_grid(r_inner: float, r_outer: float, n: int) -> DomainGrid:
    """Rasterized annulus r_inner < r < r_outer, n cells across the outer box."""
    _check_size(n, r_inner, r_outer)
    if not r_inner < r_outer:
        raise InvalidArgumentError(f"need 0 < r_inner < r_outer, got {r_inner}, {r_outer}")
    h, rr = _disk_box(r_outer, n)
    return DomainGrid((rr > r_inner**2) & (rr < r_outer**2), h)


def read_grid(path) -> DomainGrid:
    """Read a mask file: header ``d h n1 [n2 [n3]]``, then 0/1 cells in C order.

    Whitespace between cells is ignored, so rows may be laid out one per line.
    ``read_grid(write_grid(g))`` has g's mask, h and cell centers bit for bit.
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


def _face_term(grid: DomainGrid, gamma) -> tuple[np.ndarray, np.ndarray]:
    """Per boundary face, the wall g of its diagonal entry g/(2 m h) and dg/dgamma.

    The one place gamma enters the dot: g = gamma, dg = 1 on a finite face,
    g = 2/h, dg = 0 on a +-inf face.  A finite |gamma| h >= 2^52 is rejected:
    its face term outweighs 1/(2 m h^2) beyond double precision; its wall is gamma = inf.
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
    return vals, np.where(wall, 0.0, 1.0)


def build_hamiltonian(grid: DomainGrid, gamma, m: float) -> DiscreteHamiltonian:
    """Assemble the sparse symmetric Hamiltonian for the dot.

    ``gamma`` is a number or one per boundary face (grid face order), +-inf
    the Dirichlet wall.
    """
    faces = _face_term(grid, gamma)
    if not (math.isfinite(m) and m > 0):
        raise InvalidArgumentError(f"mass must be positive and finite, got {m}")
    n = grid.n_cells
    h = grid.h

    # every row's Gershgorin sum |H_ii| + sum_j |H_ij| is at most, per cell
    # face, 2t for a link or |gamma_f| h t for a boundary face; the
    # eigensolvers square numbers of that size (bisection pivots, residual
    # norms), so its square must stay a double
    kinetic = 2.0 * (m * h * h)
    t = 1.0 / kinetic if kinetic > 0 else math.inf
    face = float(np.abs(faces[0]).max(initial=0.0)) * h * t
    reach = 2 * grid.d * max(2.0 * t, face)
    if not math.isfinite(reach * reach):
        raise InvalidArgumentError(f"mass {m} and spacing {h} give a Hamiltonian beyond the double range")
    diag = np.zeros(n)
    i = grid.links[:, 0]
    j = grid.links[:, 1]
    np.add.at(diag, i, t)
    np.add.at(diag, j, t)
    np.add.at(diag, grid.boundary_faces[:, 0], faces[0] / (2.0 * (m * h)))

    rows = np.concatenate([np.arange(n), i, j])
    cols = np.concatenate([np.arange(n), j, i])
    vals = np.concatenate([diag, np.full(len(i), -t), np.full(len(j), -t)])
    matrix = sp.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()
    return DiscreteHamiltonian(matrix, float(m), grid, gamma, faces)


def _lowest_pairs(part: _Part, count: int):
    """The ``count`` lowest eigenpairs of one connected part, unit l2 vectors.

    Shift-invert Lanczos on the part's shared factor, or a dense solve for
    the whole spectrum, which Lanczos cannot return.  One start vector sees
    the further copies of a multiple level only through rounding, and a
    tight cluster of levels needs a wide basis to converge.  So the basis
    holds at least 60 vectors, not ARPACK's 20, and the complement of the
    pairs found is searched again, from a fresh start, until it holds no
    level below the top one found.
    """
    A = part.matrix
    n = A.shape[0]
    if count == n:
        return eigh(A.toarray())
    try:
        sigma, lu = part.factor
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


def _orthonormal(S: np.ndarray) -> np.ndarray:
    """An orthonormal basis of the span of S's columns, without directions the others hold.

    SVQB (Stathopoulos & Wu, SIAM J. Sci. Comput. 23 (2002)) on the columns
    scaled to unit length: directions whose Gram eigenvalue is below 1e-12
    of the largest are dropped.  A second pass repairs the orthogonality the
    first lost to rounding.
    """
    for _ in range(2):
        G = S.T @ S
        g = np.diag(G)
        d = 1.0 / np.sqrt(np.where(g > 0, g, np.inf))  # a zero column stays zero
        mu, V = np.linalg.eigh(G * d * d[:, np.newaxis])
        keep = mu > 1e-12 * mu[-1]
        S = S @ (d[:, np.newaxis] * V[:, keep] / np.sqrt(mu[keep]))
    return S


_LOBPCG_STEPS = 100  # the most block LOBPCG steps ``_nearby_levels`` takes per part


def _lobpcg(B: sp.csr_matrix, X: np.ndarray, solve) -> np.ndarray:
    """The k lowest eigenvectors of symmetric ``B`` from the k orthonormal columns of ``X``.

    Block LOBPCG (Knyazev, SIAM J. Sci. Comput. 23 (2001)): each step takes
    the Rayleigh-Ritz pairs of span{X, solve(R), P}, with R the residual
    block and P the previous step's update.  The basis drops directions the
    span already holds: the residuals of a separable rectangle's levels are
    linearly dependent, which stops scipy's ``lobpcg`` at its first
    Cholesky factorization.  Runs until every residual norm is within half
    the bound ``solve_lowest`` checks, or for ``_LOBPCG_STEPS`` steps.  A shift
    far below the lowest level, under a strongly binding wall, takes 25
    steps on the 51k-cell disk at gamma = -3.
    """
    k = X.shape[1]
    BX = B @ X
    w, Y = np.linalg.eigh(X.T @ BX)
    X, BX = X @ Y, BX @ Y
    P = np.empty((len(X), 0))
    for _ in range(_LOBPCG_STEPS):
        R = BX - X * w
        if np.all(np.einsum("ik,ik->k", R, R) <= (0.5 * _residual_bound(w)) ** 2):
            break
        Q = _orthonormal(np.column_stack([X, solve(R), P]))
        theta, Y = np.linalg.eigh(Q.T @ (B @ Q))
        new, w = Q @ Y[:, :k], theta[:k]
        P, X = new - X @ (X.T @ new), new
        BX = B @ X
    return X


def _residual_bound(w: np.ndarray) -> np.ndarray:
    """The largest residual norm accepted for unit eigenvectors of the levels w."""
    return 1e-8 * np.maximum(1.0, np.abs(w))


def _form_sums(grid: DomainGrid, gammas: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Rows sum_links |x_i - x_j|^2, sum_faces gamma_f |x_f|^2, sum |x|^2 per column of x.

    Differences, not x^T A x, whose hoppings cancel diagonal entries of
    2d/(2 m h^2) to an absolute eps ||A||: eps n^2 relative on the lowest
    level, magnified by the flow check's small gamma step.  Each column is
    summed on its own contiguous copy: numpy adds pairwise only along a
    contiguous axis.
    """
    i, j, cells = grid.links[:, 0], grid.links[:, 1], grid.boundary_faces[:, 0]
    sums = np.empty((3, x.shape[1]))
    for k, col in enumerate(x.T):
        col = np.ascontiguousarray(col)
        rho = np.abs(col) ** 2
        sums[:, k] = np.sum(np.abs(col[i] - col[j]) ** 2), np.sum(gammas * rho[cells]), np.sum(rho)
    return sums


def _form_levels(grid: DomainGrid, m: float, gammas: np.ndarray, x: np.ndarray) -> np.ndarray:
    """(link/(2 m h^2) + face/(2 m h))/norm of each column of x, from ``_form_sums``."""
    link, face, norm = _form_sums(grid, gammas, x)
    return (link / (2.0 * (m * grid.h * grid.h)) + face / (2.0 * (m * grid.h))) / norm


def _checked_levels(ham: DiscreteHamiltonian, x: np.ndarray, where: str = "") -> np.ndarray:
    """E_k = ``_form_levels`` of column x_k on the Hamiltonian's wall: mean_p2/2m of ``moments``.

    Raises SolverFailureError unless every ||A x_k - E_k x_k|| is within ``_residual_bound``.
    """
    w = _form_levels(ham.grid, ham.m, ham.faces[0], x)
    resid = np.linalg.norm(ham.matrix @ x - x * w, axis=0)
    for kcol, (r, tol) in enumerate(zip(resid, _residual_bound(w))):
        if not r <= tol:
            raise SolverFailureError(f"eigenpair {kcol}{where} residual {r:.2e} exceeds {tol:.2e}")
    return w


def _tridiagonal_vectors(A: sp.csr_matrix, count: int) -> np.ndarray:
    """Unit eigenvectors of the ``count`` lowest levels of the tridiagonal ``A`` (d = 1), ascending."""
    try:
        return eigh_tridiagonal(A.diagonal(), A.diagonal(k=1), select="i", select_range=(0, count - 1))[1]
    except np.linalg.LinAlgError as exc:
        raise SolverFailureError(f"tridiagonal eigensolver failed: {exc}") from None


def solve_lowest(ham: DiscreteHamiltonian, count: int):
    """The ``count`` lowest eigenpairs, vectors normalized to sum h^d psi^2 = 1.

    One route per dimension: the direct tridiagonal solver in d = 1, and in
    d >= 2 shift-invert Lanczos on each connected part of the dot, whose
    parts (a thin rasterized annulus, say) share eigenvalues exactly that one
    start vector cannot tell apart.  The columns a part contributes are its
    own lowest levels.  On every route a level is its vector's difference-form
    energy (``_checked_levels``), not the solver's eigenvalue; levels ascend,
    and every returned pair is residual-checked.
    """
    A, grid, n = ham.matrix, ham.grid, ham.grid.n_cells
    if not 1 <= count <= n:
        raise InvalidArgumentError(f"count must be in [1, {n}], got {count}")

    if grid.d == 1:
        v = _tridiagonal_vectors(A, count)
    else:
        parts = ham._parts
        pairs = [_lowest_pairs(part, min(count, len(part.cells))) for part in parts]
        found = sorted((e, p, j) for p, (pw, _) in enumerate(pairs) for j, e in enumerate(pw))[:count]
        v = np.zeros((n, count))
        for col, (_, p, j) in enumerate(found):
            v[parts[p].cells, col] = pairs[p][1][:, j]

    # fixed sign: largest-magnitude component positive
    lead = v[np.argmax(np.abs(v), axis=0), np.arange(v.shape[1])]
    v[:, lead < 0] *= -1
    w = _checked_levels(ham, v)
    order = np.argsort(w, kind="stable")
    return w[order], v[:, order] / grid.h ** (grid.d / 2.0)


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
    ``mean_p2`` and ``mean_gamma`` come from the sums that give
    ``solve_lowest`` its levels, so mean_p2/2m is a state's level.
    """
    psi = np.asarray(psi)
    if psi.shape != (grid.n_cells,):
        raise InvalidArgumentError(f"state must have one value per cell ({grid.n_cells})")
    h = grid.h
    hd = h**grid.d
    link, face, norm = _form_sums(grid, _face_term(grid, gamma)[0], psi[:, np.newaxis])[:, 0]
    norm2 = hd * norm
    if norm2 <= 0 or not math.isfinite(norm2):
        raise InvalidArgumentError("state has zero or non-finite norm")
    psi = psi / math.sqrt(norm2)
    rho = np.abs(psi) ** 2

    mean_x = hd * rho @ grid.cell_centers
    var_x = float(hd * np.sum(rho * np.sum(grid.cell_centers**2, axis=1)) - np.dot(mean_x, mean_x))

    cells, axes, orients = grid.boundary_faces.T
    hd1 = h ** (grid.d - 1)
    rho_f = rho[cells]
    # each sum over the norm first, so that no step exceeds <p^2> ~ 1/h^2
    mean_gamma = float(face / norm / h)
    mean_n = np.zeros(grid.d)
    np.add.at(mean_n, axes, hd1 * orients * rho_f)
    # n . x at a face reduces to orient * x_cell[axis] + h/2
    nx_face = orients * grid.cell_centers[cells, axes] + 0.5 * h
    mean_nx = float(hd1 * np.sum(nx_face * rho_f))

    grad = _gradient(grid, psi)
    pbar = hd * np.imag(np.einsum("i,id->d", np.conj(psi), grad))
    rel = grid.cell_centers - mean_x
    xp_bar = float(hd * np.imag(np.einsum("i,id,id->", np.conj(psi), rel, grad)))

    mean_p2 = float((link / norm / h + face / norm) / h)
    return Moments(mean_x, var_x, mean_p2, pbar, xp_bar, mean_n, mean_nx, mean_gamma)


@_in_double_range
def uncertainty_general(mom: Moments) -> UncertaintyReport:
    """Evaluate both boundary-corrected uncertainty statements.

    The dimension d is that of the moments.  Raises InvalidArgumentError when
    the state has no position spread (a one-cell dot, say).
    """
    if mom.var_x <= 0:
        raise InvalidArgumentError("state has zero position variance")
    dx = math.sqrt(mom.var_x)
    N = len(mom.mean_x) + float(np.dot(mom.mean_n, mom.mean_x)) - mom.mean_nx
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


_FLOW_STEP = 1e-5  # delta, the gamma step of the flow check


def spectral_flow_check(ham: DiscreteHamiltonian, w: np.ndarray, v: np.ndarray):
    """Compare dE/dgamma of every solved level against the boundary-density formula.

    ``w, v = solve_lowest(ham, count)``.  Returns per level (lhs, rhs) or
    None: lhs the centered difference of its residual-checked
    difference-form energy at gamma +- delta from ``_nearby_levels``, rhs =
    sum_f h^(d-1) dg_f rho_f / 2m from ``v`` (Hellmann-Feynman, dg from
    ``_face_term``).  A per-face wall moves every finite face by +-delta and
    keeps its +-inf faces: the direction in which rhs weighs each face by dg.

    This alone decides which levels get None: a level within the residual
    bound of a solved neighbor (degenerate); the top level unless ``w`` is
    the whole spectrum (its neighbor above is unknown); and a level the step
    cannot resolve.  A level rounds to about r = eps (|link|/(2 m h^2) +
    |face|/(2 m h))/norm, its ``_form_levels`` in magnitude, so lhs is
    off by up to 2r/(2 delta) from its true 2 delta rhs/(2 delta); printing
    it only where 2 delta rhs >= 2^21 r bounds that error by 2 rhs/2^21 <
    1e-6 rhs.  A +-inf wall (dg = 0) keeps no level; with none kept, nothing
    is solved.
    """
    grid, m, h = ham.grid, ham.m, ham.grid.h
    g, dg = ham.faces
    rounding = np.finfo(float).eps * _form_levels(grid, m, np.abs(g), v)
    rhs = h ** (grid.d - 1) * np.sum(dg[:, np.newaxis] * v[grid.boundary_faces[:, 0]] ** 2, axis=0) / m / 2.0
    gap = np.abs(np.diff(w))
    nearest = np.minimum(np.append(np.inf, gap), np.append(gap, np.inf))
    keep = (nearest >= _residual_bound(w)) & (2.0 * _FLOW_STEP * rhs >= 2.0**21 * rounding)
    keep[-1] &= len(w) == grid.n_cells
    if not keep.any():
        return [None] * len(w)
    w_up, w_down = (_nearby_levels(ham, step, v) for step in (_FLOW_STEP, -_FLOW_STEP))
    lhs = (w_up - w_down) / (2.0 * _FLOW_STEP)
    return [(float(a), float(b)) if k else None for k, a, b in zip(keep, lhs, rhs)]


def _nearby_levels(ham: DiscreteHamiltonian, step: float, v: np.ndarray) -> np.ndarray:
    """The levels at the raw gamma + ``step`` that continue ``v = solve_lowest(ham, count)[1]``.

    In d = 1 they are ``solve_lowest``'s tridiagonal solve.  In d >= 2 each
    column of ``v`` lives on one connected part, and a part's columns are its
    k lowest levels.  They start block LOBPCG on the part's block of the new
    matrix, preconditioned by the part's shared factor, one block solve per
    step.  A part that ``solve_lowest`` solved densely (no more cells than
    levels asked for), or of fewer than 5 * k cells, too few for the block
    iteration, is solved densely again.  Levels are ``_checked_levels``,
    named by gamma + step, or by the step alone on a per-face wall.
    """
    near = build_hamiltonian(ham.grid, np.add(ham.gamma, step), ham.m)  # +-inf faces stay walls
    where = f" at gamma {float(near.gamma)!r}" if near.gamma.ndim == 0 else f" at gamma{step:+g} on every finite face"
    if ham.grid.d == 1:
        return _checked_levels(near, _tridiagonal_vectors(near.matrix, v.shape[1]), where)
    x = np.zeros_like(v)
    for part in ham._parts:
        cols = np.flatnonzero(np.any(v[part.cells] != 0, axis=0))
        if not len(cols):
            continue
        n, rows = len(part.cells), np.ix_(part.cells, cols)
        block = near.matrix[part.cells][:, part.cells]
        if n <= v.shape[1] or n < 5 * len(cols):
            x[rows] = eigh(block.toarray(), subset_by_index=[0, len(cols) - 1])[1]
        else:
            start = v[rows]
            x[rows] = _lobpcg(block, start / np.linalg.norm(start, axis=0), part.factor[1].solve)
    return _checked_levels(near, x, where)


def minimal_packet_gamma(grid: DomainGrid, alpha: float, center, beta=0.0):
    """Boundary field matched to a Gaussian packet, plus its saturation report.

    The packet is exp(-alpha |x - center|^2 / 2 + i beta . (x - center)), with
    ``beta`` one complex number for every axis or d of them: Re beta tilts
    the phase (the mean momentum) and Im beta shears the envelope.  The
    matched field gamma_f = alpha n.(x_f - center) + n.Im beta, at each face
    center x_f with outward normal n, makes the packet satisfy the Robin
    condition up to the normal phase gradient, so the product-form
    uncertainty bound saturates up to O(h) discretization error; the
    returned report quantifies it.
    """
    if not (math.isfinite(alpha) and alpha > 0):
        raise InvalidArgumentError(f"packet width parameter must be positive, got {alpha}")
    center = np.asarray(center, dtype=float)
    if center.shape != (grid.d,):
        raise InvalidArgumentError(f"packet center must have {grid.d} components")
    beta = np.array(beta, dtype=complex)
    if beta.ndim == 0:
        beta = np.full(grid.d, beta)
    if beta.shape != (grid.d,):
        raise InvalidArgumentError(f"beta must have {grid.d} components")
    # faces are axis-aligned: n.v = orient * v[axis]
    _, axes, orients = grid.boundary_faces.T
    rel_face = grid.face_centers() - center
    gammas = alpha * (orients * rel_face[np.arange(grid.n_faces), axes]) + orients * beta.imag[axes]

    rel = grid.cell_centers - center
    psi = np.exp(-0.5 * alpha * np.sum(rel**2, axis=1) + 1j * rel @ beta)
    report = uncertainty_general(moments(grid, gammas, psi))
    return gammas, report
