"""Tests for the finite-difference dot solver.

The independent oracle for assembly + eigensolution is the exact discrete
Dirichlet eigensystem: on n cells with the half-link wall elimination the
eigenvectors are sin(k (i+1/2) h) with k = (q+1) pi / L and eigenvalues
(2 - 2 cos(k h)) / (2 m h^2), exactly, for every h.  A finite wall
0 <= gamma h < 2 on the interval has an exact discrete closed form too, a
phase equation per level.  Rectangles follow by separability.  Everything
else cross-checks against the analytic interval solver or asserts
identities that hold exactly in the discrete model.
"""

import dataclasses
import math
import re
import warnings

import numpy as np
import pytest
from scipy.linalg import eigh
from scipy.optimize import brentq

from sae_lab import qdot_fd
from sae_lab.box1d import BoxSpec, solve_spectrum
from sae_lab.errors import (
    GridIOError,
    InvalidArgumentError,
    SolverFailureError,
)
from sae_lab.qdot_fd import (
    DomainGrid,
    _face_term,
    _gradient,
    Moments,
    annulus_grid,
    build_hamiltonian,
    disk_grid,
    interval_grid,
    minimal_packet_gamma,
    moments,
    read_grid,
    read_robin_field,
    rect_grid,
    solve_lowest,
    spectral_flow_check,
    uncertainty_general,
    write_grid,
)


def discrete_dirichlet_levels(n, L, m, count):
    h = L / n
    q = np.arange(count)
    k = (q + 1) * math.pi / L
    return (2.0 - 2.0 * np.cos(k * h)) / (2.0 * m * h * h)


def discrete_robin_levels(n, L, m, gamma, count):
    """Exact levels of the n-cell interval whose walls add gamma/(2 m h), 0 <= gamma h < 2.

    Level k is 4 t sin^2(theta/2), t = 1/(2 m h^2), with theta the root in
    [k pi/n, (k+1) pi/n] of n theta = k pi + 2 atan(q cot(theta/2)).
    """
    grid = interval_grid(L, n)
    h = grid.h
    g = _face_term(grid, gamma)[0][0]
    q = g * h / (2.0 - g * h)  # the face term's ghost cell, psi_g = (1 - g h) psi_c
    eps = np.finfo(float).eps

    def phase(theta, k):
        return n * theta - k * math.pi - 2.0 * math.atan2(q * math.cos(theta / 2.0), math.sin(theta / 2.0))

    theta = [
        k * math.pi / n if q == 0
        else brentq(phase, k * math.pi / n, (k + 1) * math.pi / n, args=(k,), xtol=1e-300, rtol=4 * eps)
        for k in range(count)
    ]
    return 4.0 / (2.0 * m * h * h) * np.sin(np.array(theta) / 2.0) ** 2


def ball_grid(n):
    """The ball of diameter 1 on n^3 cells (912 cells for n = 12)."""
    c = (np.arange(n) + 0.5) / n - 0.5
    x, y, z = np.meshgrid(c, c, c, indexing="ij")
    return DomainGrid(x * x + y * y + z * z < 0.25, 1.0 / n)


def box_grid():
    """A 6 x 5 x 4 box of spacing 0.2."""
    return DomainGrid(np.ones((6, 5, 4), dtype=bool), 0.2)


def test_dirichlet_interval_matches_discrete_closed_form():
    n, L, m = 500, 1.0, 1.0
    grid = interval_grid(L, n)
    ham = build_hamiltonian(grid, math.inf, m)
    w, v = solve_lowest(ham, 6)
    want = discrete_dirichlet_levels(n, L, m, 6)
    # LAPACK eigenvalue error scales like eps * ||H|| ~ 1e-10 here
    assert np.allclose(w, want, rtol=1e-9, atol=1e-9)
    # eigenvector shape is the sampled sine, up to sign fixed by the solver
    h = L / n
    x = grid.cell_centers[:, 0]
    model = np.sin(math.pi * (x + L / 2.0))
    model /= np.sqrt(h * np.sum(model**2))
    assert np.allclose(np.abs(v[:, 0]), np.abs(model), atol=1e-8)

    # a finite wall: every level to 16 ulp; the Neumann ground level is 0
    # exactly, and is bounded by 16 ulp of the level above it
    tol = 16 * np.finfo(float).eps
    for n in (8, 128, 2000):
        for gamma in (0.0, 1.0, 10.0):
            w, _ = solve_lowest(build_hamiltonian(interval_grid(L, n), gamma, m), 4)
            want = discrete_robin_levels(n, L, m, gamma, 4)
            if gamma == 0:
                assert want[0] == 0 and abs(w[0]) <= tol * want[1]
                w, want = w[1:], want[1:]
            assert np.all(np.abs(w - want) <= tol * want), (n, gamma, w, want)


def test_dirichlet_rectangle_is_separable_sum():
    nx, ny = 40, 30
    Lx, Ly = 1.0, 0.75
    grid = rect_grid(Lx, Ly, nx)
    assert grid.mask.shape == (nx, ny)
    ham = build_hamiltonian(grid, math.inf, 1.0)
    w, _ = solve_lowest(ham, 5)
    lx = discrete_dirichlet_levels(nx, Lx, 1.0, 8)
    ly = discrete_dirichlet_levels(ny, Ly, 1.0, 8)
    sums = np.sort((lx[:, None] + ly[None, :]).ravel())
    assert np.allclose(w, sums[:5], rtol=1e-10)

    box = box_grid()
    w, _ = solve_lowest(build_hamiltonian(box, math.inf, 1.0), 5)
    lx, ly, lz = (discrete_dirichlet_levels(n, n * box.h, 1.0, n) for n in box.mask.shape)
    sums = np.sort((lx[:, None, None] + ly[None, :, None] + lz[None, None, :]).ravel())
    assert np.allclose(w, sums[:5], rtol=1e-10)


def test_interval_converges_to_analytic_roots_first_order():
    m, L, gamma = 1.0, 1.0, 1.0
    exact = np.array([s.energy for s in solve_spectrum(BoxSpec(m, L, gamma), 5)])
    errs = []
    for n in (250, 500, 1000):
        grid = interval_grid(L, n)
        ham = build_hamiltonian(grid, gamma, m)
        w, _ = solve_lowest(ham, 5)
        errs.append(np.max(np.abs(w - exact) / np.abs(exact)))
    order = np.polyfit(np.log([1 / 250, 1 / 500, 1 / 1000]), np.log(errs), 1)[0]
    assert order >= 0.95
    assert errs[-1] <= 1e-3


def test_interval_negative_gamma_bound_states():
    m, L, gamma = 1.0, 1.0, -4.0
    exact = np.array([s.energy for s in solve_spectrum(BoxSpec(m, L, gamma), 4)])
    grid = interval_grid(L, 2000)
    ham = build_hamiltonian(grid, gamma, m)
    w, _ = solve_lowest(ham, 4)
    assert np.all(w[:2] < 0)
    assert np.allclose(w, exact, rtol=3e-3)


def test_neumann_constant_mode_is_exact():
    for grid in (disk_grid(0.5, 64), annulus_grid(0.25, 0.5, 64), rect_grid(1.0, 0.75, 24)):
        ham = build_hamiltonian(grid, 0.0, 1.0)
        w, v = solve_lowest(ham, 1)
        assert abs(w[0]) <= 1e-9
        flat = v[:, 0] * grid.h ** (grid.d / 2.0)  # back to unit l2 norm
        dev = np.max(np.abs(np.abs(flat) - 1.0 / math.sqrt(grid.n_cells)))
        assert dev <= 1e-7


def test_constant_state_boundary_identities_exact():
    # <n.x> = d and <n> = 0 are exact in the discrete model on any shape
    shapes = (disk_grid(0.5, 48), annulus_grid(0.2, 0.5, 40), rect_grid(1.0, 0.6, 18), ball_grid(12), box_grid())
    for grid in shapes:
        psi = np.ones(grid.n_cells)
        mom = moments(grid, 0.0, psi)
        assert mom.mean_nx == pytest.approx(grid.d, abs=1e-12)
        assert np.max(np.abs(mom.mean_n)) <= 1e-13
        assert mom.mean_p2 == pytest.approx(0.0, abs=1e-14)


def test_hamiltonian_bitwise_symmetric():
    grid = disk_grid(0.5, 32)
    rng = np.random.default_rng(7)
    field = rng.uniform(-3, 3, grid.n_faces)
    ham = build_hamiltonian(grid, field, 1.3)
    diff = (ham.matrix - ham.matrix.T).tocoo()
    # subtraction may keep explicit zeros, so test values not sparsity
    assert diff.nnz == 0 or np.max(np.abs(diff.data)) == 0.0


def test_scalar_gamma_is_its_per_face_array():
    # a number puts the same gamma on every face, bit for bit; one inf entry
    # puts the Dirichlet term on its own face only
    rng = np.random.default_rng(13)
    for grid in (interval_grid(1.0, 9), disk_grid(0.5, 16), ball_grid(6)):
        psi = rng.normal(size=grid.n_cells) + 1j * rng.normal(size=grid.n_cells)
        for gamma in (-3.0, 0.0, 2.5, math.inf):
            one, each = (build_hamiltonian(grid, g, 0.7).matrix for g in (gamma, np.full(grid.n_faces, gamma)))
            for part in ("data", "indices", "indptr"):
                assert np.array_equal(getattr(one, part), getattr(each, part))
            one, each = (moments(grid, g, psi) for g in (gamma, np.full(grid.n_faces, gamma)))
            for field in dataclasses.fields(Moments):
                assert np.array_equal(getattr(one, field.name), getattr(each, field.name))
            one, each = (_face_term(grid, g) for g in (gamma, np.full(grid.n_faces, gamma)))
            assert all(a.tobytes() == b.tobytes() for a, b in zip(one, each))
            assert np.all(one[1] == (0.0 if math.isinf(gamma) else 1.0))

        face = grid.n_faces - 1
        wall = np.zeros(grid.n_faces)
        wall[face] = math.inf
        want = np.zeros(grid.n_faces)
        want[face] = 2.0 / grid.h
        g, dg = _face_term(grid, wall)
        assert np.array_equal(g, want)
        # dg/dgamma is 1 on every finite face and 0 on the wall
        assert dg[face] == 0.0 and np.all(np.delete(dg, face) == 1.0)
        lift = build_hamiltonian(grid, wall, 0.7).matrix.diagonal() - build_hamiltonian(grid, 0.0, 0.7).matrix.diagonal()
        cell = grid.boundary_faces[face, 0]
        assert lift[cell] == pytest.approx(2.0 / grid.h / (2.0 * 0.7 * grid.h), rel=1e-14)
        assert np.count_nonzero(lift) == 1


def test_mean_p2_matches_energy_functional():
    # moments' G + <gamma> must equal 2m<H> exactly by construction
    grid = rect_grid(1.0, 0.8, 16)
    rng = np.random.default_rng(3)
    field = rng.uniform(-2, 2, grid.n_faces)
    ham = build_hamiltonian(grid, field, 0.7)
    psi = rng.normal(size=grid.n_cells)
    psi /= math.sqrt(grid.h**2 * np.sum(psi**2))
    mom = moments(grid, field, psi)
    quad_form = grid.h**2 * float(psi @ (ham.matrix @ psi))
    assert mom.mean_p2 == pytest.approx(2 * 0.7 * quad_form, rel=1e-12)
    assert mom.mean_p2 - mom.mean_gamma >= 0.0


def test_slack_translation_invariant():
    # slack_general depends only on shape-relative data; moving the disk off
    # the box center must not change it (the N combination is built to be
    # translation-proof).  The padding keeps the cells in C order and moves
    # the disk by (3.7, -1.2).
    mask = disk_grid(0.5, 40).mask
    g1 = DomainGrid(mask, 1.0 / 40)
    g2 = DomainGrid(np.pad(mask, ((296, 0), (0, 96))), 1.0 / 40)
    assert np.allclose(g2.cell_centers - g1.cell_centers, [3.7, -1.2], rtol=0, atol=1e-12)
    rng = np.random.default_rng(11)
    psi = rng.normal(size=g1.n_cells) + 0.5
    field = 0.8
    r1 = uncertainty_general(moments(g1, field, psi))
    r2 = uncertainty_general(moments(g2, field, psi))
    assert r1.slack_general == pytest.approx(r2.slack_general, rel=1e-9, abs=1e-9)
    assert r1.slack_nonhermitean == pytest.approx(r2.slack_nonhermitean, rel=1e-9, abs=1e-9)


def test_eigenstate_slack_nonnegative_on_shapes():
    cases = [(grid, (-3.0, -1.0, 0.0, 0.5, 2.0, 10.0), 4) for grid in (disk_grid(0.5, 40), rect_grid(1.0, 0.75, 20))]
    cases += [(grid, (-1.0, 0.0, 2.0), 5) for grid in (ball_grid(12), box_grid())]
    for grid, gammas, count in cases:
        for gamma in gammas:
            ham = build_hamiltonian(grid, gamma, 1.0)
            w, v = solve_lowest(ham, count)
            for kcol in range(count):
                rep = uncertainty_general(moments(grid, gamma, v[:, kcol]))
                assert rep.slack_general >= -1e-9
                assert rep.lhs == pytest.approx(2.0 * w[kcol], rel=1e-9, abs=1e-9)


@pytest.mark.parametrize(
    "grid, gamma, m",
    [
        (interval_grid(1.0, 2000), -3.0, 1.0),
        (interval_grid(1.0, 2000), 1.0, 1.0),
        (interval_grid(1.0, 2000), 5.0, 1.0),
        (disk_grid(0.5, 48), -3.0, 1.0),
        (rect_grid(1.0, 0.8, 16), 1.5, 0.7),
        (ball_grid(12), 1.0, 1.0),
    ],
    ids=["interval-3", "interval+1", "interval+5", "disk-48-3", "rect-0.7", "ball-12"],
)
def test_levels_are_difference_form_energies(grid, gamma, m):
    # one rule for a level: <p^2>/2m of its own vector, as moments measures
    # it, not the eigenvalue a solver returns (eps ||A|| off)
    w, v = solve_lowest(build_hamiltonian(grid, gamma, m), 5)
    energies = [moments(grid, gamma, x).mean_p2 / (2 * m) for x in v.T]
    assert np.max(np.abs(w - energies)) <= 1e-15 * np.max(np.abs(w))


def test_monotone_in_gamma_no_tolerance():
    gammas = np.tan(np.linspace(math.atan(-20.0), math.atan(20.0), 20))
    for grid in (disk_grid(0.5, 32), rect_grid(1.0, 0.75, 16)):
        prev = None
        for gamma in gammas:
            ham = build_hamiltonian(grid, float(gamma), 1.0)
            w, _ = solve_lowest(ham, 4)
            if prev is not None:
                assert np.all(w >= prev)
            prev = w


def test_spectral_flow_identity_interval():
    grid = interval_grid(1.0, 2000)
    for gamma in (-1.0, 0.5, 3.0):
        ham = build_hamiltonian(grid, gamma, 1.0)
        w, v = solve_lowest(ham, 5)
        flows = spectral_flow_check(ham, w, v)
        for level in range(4):
            lhs, rhs = flows[level]
            assert abs(lhs - rhs) / abs(lhs) <= 1e-7
    # the default step on a finer grid: eigenvalue differences are 2.7e-4 off
    grid = interval_grid(1.0, 3000)
    ham = build_hamiltonian(grid, 5.0, 1.0)
    w, v = solve_lowest(ham, 6)
    lhs, rhs = spectral_flow_check(ham, w, v)[0]
    assert abs(lhs - rhs) <= 1e-8 * rhs


def test_spectral_flow_degenerate_level_rejected():
    # the disk's first excited level is doubly degenerate by symmetry
    grid = disk_grid(0.5, 48)
    ham = build_hamiltonian(grid, 0.0, 1.0)
    w, v = solve_lowest(ham, 4)
    flows = spectral_flow_check(ham, w, v)
    assert flows[0] is not None
    assert flows[1] is None and flows[2] is None
    # a Dirichlet wall has no wall parameter to vary; a per-face array of one
    # value is the uniform wall, flow for flow
    dirichlet = build_hamiltonian(grid, math.inf, 1.0)
    assert spectral_flow_check(dirichlet, *solve_lowest(dirichlet, 4)) == [None] * 4
    assert spectral_flow_check(build_hamiltonian(grid, np.zeros(grid.n_faces), 1.0), w, v) == flows


@pytest.mark.parametrize(
    "grid, gamma",
    [(disk_grid(1.0, 32), 1e5), (interval_grid(1.0, 8), 1e10), (disk_grid(1.0, 32), math.inf)],
    ids=["disk-32-stiff", "interval-8-stiff", "disk-32-dirichlet"],
)
def test_spectral_flow_solves_nothing_when_no_level_is_kept(monkeypatch, grid, gamma):
    # the step resolves no level of a stiff wall, and a +-inf wall has
    # dg = 0: no Hamiltonian at gamma +- delta is built
    ham = build_hamiltonian(grid, gamma, 1.0)
    w, v = solve_lowest(ham, 6)
    built, real = [], qdot_fd.build_hamiltonian
    monkeypatch.setattr(qdot_fd, "build_hamiltonian", lambda *args: built.append(args) or real(*args))
    assert spectral_flow_check(ham, w, v) == [None] * 6
    assert built == []


def blocks_grid():
    """Four disconnected rectangles of different sizes, one of 2 x 2 cells."""
    mask = np.zeros((40, 12), dtype=bool)
    mask[:10, :8] = mask[14:25, :7] = mask[29:, 2:] = mask[11:13, 10:] = True
    return DomainGrid(mask, 0.05)


def axis_wall(grid, *gammas):
    """gammas[a] on every face normal to axis a."""
    return np.array(gammas)[grid.boundary_faces[:, 1]]


_RECT = rect_grid(1.0, 0.75, 24)
_DISK = disk_grid(0.5, 40)


@pytest.mark.parametrize(
    "grid, gamma",
    [
        (disk_grid(0.5, 48), -3.0),
        (disk_grid(0.5, 48), 0.0),
        (disk_grid(0.5, 48), 1.5),
        (rect_grid(1.0, 0.75, 24), 1.0),
        # one ring of weakly joined blobs; four parts whose levels
        # interleave, the 2 x 2 block's ground state among them at gamma 0.1
        (annulus_grid(0.46, 0.5, 45), 1.5),
        (blocks_grid(), 0.1),
        (blocks_grid(), 1.5),
        (ball_grid(12), 1.0),
        (box_grid(), 1.0),
        # per-face walls
        (_RECT, axis_wall(_RECT, 1.0, 3.0)),
        (_RECT, axis_wall(_RECT, math.inf, 2.0)),
        (interval_grid(1.0, 200), np.array([-1.0, 4.0])),
        (_DISK, np.random.default_rng(5).uniform(-2.0, 5.0, _DISK.n_faces)),
        (disk_grid(1.0, 40), minimal_packet_gamma(disk_grid(1.0, 40), 6.0, [0.1, -0.2])[0]),
    ],
    ids=[
        "disk-48-3", "disk-48+0", "disk-48+1.5", "rect-24", "ring", "blocks+0.1", "blocks+1.5", "ball-12", "box",
        "rect-24-x1-y3", "rect-24-xinf-y2", "interval-200-ends", "disk-40-seeded", "disk-40-packet",
    ],
)
def test_spectral_flow_matches_full_re_solves(grid, gamma):
    # the reference: a full solve of the Hamiltonian at each of gamma +- step;
    # on a per-face wall every finite face moves and every +-inf face stays
    count, step = 6, qdot_fd._FLOW_STEP
    ham = build_hamiltonian(grid, gamma, 1.0)
    w, v = solve_lowest(ham, count)
    flows = spectral_flow_check(ham, w, v)
    assert flows[-1] is None  # the top of a partial spectrum has no neighbor above
    up, down = (solve_lowest(build_hamiltonian(grid, g, 1.0), count)[0] for g in (gamma + step, gamma - step))
    checked = 0
    for flow, ref in zip(flows, (up - down) / (2 * step)):
        if flow is not None:
            assert flow[0] == pytest.approx(ref, rel=1e-6)
            checked += 1
    assert checked >= 1
    # bit-identical on the shared factor and on a fresh one
    assert spectral_flow_check(ham, w, v) == flows
    assert spectral_flow_check(build_hamiltonian(grid, gamma, 1.0), w, v) == flows


def test_spectral_flow_checks_every_nearby_pair(monkeypatch):
    # one LOBPCG step leaves residuals far above the bound: the check, not
    # the iteration, decides, and no warning escapes
    monkeypatch.setattr(qdot_fd, "_LOBPCG_STEPS", 1)
    grid = disk_grid(0.5, 24)
    ham = build_hamiltonian(grid, 1.0, 1.0)
    w, v = solve_lowest(ham, 4)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SolverFailureError, match="at gamma 1.00001 residual"):
            spectral_flow_check(ham, w, v)
    # a d = 1 solve at gamma +- step goes through the same check, named the
    # same way; a per-face wall's message names the step, not the array
    grid = interval_grid(1.0, 200)
    for gamma, where in ((1.0, "at gamma 1.00001 residual"), ([1.0, 2.0], "at gamma+1e-05 on every finite face residual")):
        ham = build_hamiltonian(grid, gamma, 1.0)
        w, v = solve_lowest(ham, 4)
        with monkeypatch.context() as patch:
            patch.setattr(qdot_fd, "_residual_bound", lambda w: 0.0 * w)  # only after the printed solve
            with pytest.raises(SolverFailureError, match=re.escape(where)):
                spectral_flow_check(ham, w, v)


@pytest.mark.parametrize("gx, gy", [(1.0, 3.0), (-1.0, 2.0), (math.inf, 0.5), (2.5, 2.5)])
def test_two_valued_rectangle_wall_is_separable(gx, gy):
    # gx on the x faces and gy on the y faces make A = A_x (x) I + I (x) A_y:
    # the lowest levels are the lowest sums of two interval spectra
    grid = _RECT
    (nx, ny), h = grid.mask.shape, grid.h
    w, _ = solve_lowest(build_hamiltonian(grid, axis_wall(grid, gx, gy), 1.0), 6)
    lx, ly = (solve_lowest(build_hamiltonian(interval_grid(n * h, n), g, 1.0), 6)[0] for n, g in ((nx, gx), (ny, gy)))
    want = np.sort((lx[:, None] + ly[None, :]).ravel())[:6]
    assert np.all(np.abs(w - want) <= 1e-13 * np.abs(want)), (w, want)


def test_gaussian_packet_saturation_first_order():
    # alpha=8 packet has visible boundary tails: the face sums converge O(h),
    # measured slack_general 1.810e-3 at h=1/2000 halving to 9.05e-4
    slacks = []
    for n in (2000, 4000):
        grid = interval_grid(1.0, n)
        field, rep = minimal_packet_gamma(grid, 8.0, [0.0])
        assert rep.slack_general >= 0.0
        slacks.append(rep.slack_general)
        # matched field on the two end faces is alpha*L/2 on both
        assert field == pytest.approx([4.0, 4.0], abs=1e-12)
    assert slacks[0] <= 2e-3
    assert 0.4 * slacks[0] <= slacks[1] <= 0.6 * slacks[0]


def test_interior_packet_slack_vanishes_quadratically():
    # with negligible tails (alpha=60) only O(h^2) quadrature error remains,
    # with or without a phase tilt (Re beta) and an envelope shear (Im beta)
    for beta in (0.0, 3j, 2 + 3j):
        grid = interval_grid(1.0, 2000)
        _, rep = minimal_packet_gamma(grid, 60.0, [0.0], beta)
        assert abs(rep.slack_nonhermitean) <= 1e-6
        grid = interval_grid(1.0, 4000)
        _, rep = minimal_packet_gamma(grid, 60.0, [0.0], beta)
        assert abs(rep.slack_nonhermitean) <= 2.5e-7


def test_degenerate_packet_recovers_neumann():
    grid = disk_grid(0.5, 24)
    field, _ = minimal_packet_gamma(grid, 1e-12, [0.0, 0.0])
    assert np.max(np.abs(field)) <= 1e-10


def test_cross_module_slack_agreement():
    # analytic interval eigenstates sampled on the grid must reproduce the
    # quadrature slack up to discretization error
    from sae_lab.box1d import eval_wavefunction, uncertainty_report_1d

    grid = interval_grid(1.0, 2000)
    x = grid.cell_centers[:, 0]
    for gamma in (1.0, -4.0):
        spec = BoxSpec(1.0, 1.0, gamma)
        for state in solve_spectrum(spec, 3):
            psi = eval_wavefunction(state, x)
            rep_fd = uncertainty_general(moments(grid, gamma, psi))
            rep_1d = uncertainty_report_1d(state)
            assert rep_fd.lhs == pytest.approx(rep_1d.lhs, rel=5e-3)
            assert rep_fd.slack_general == pytest.approx(
                rep_1d.slack, rel=0.2, abs=1e-3
            )


def test_gaussian_packet_momentum_kick():
    grid = interval_grid(1.0, 3000)
    beta = 9.0
    field, rep = minimal_packet_gamma(grid, 80.0, [0.0], beta)
    mom = moments(grid, field, _packet_vector(grid, 80.0, [0.0], beta))
    assert mom.pbar[0] == pytest.approx(beta, rel=1e-3)
    # the kick shifts pbar but not the saturation quality
    assert 0.0 <= rep.slack_nonhermitean <= 2e-3


def _packet_vector(grid, alpha, center, beta):
    rel = grid.cell_centers - center
    b = np.full(grid.d, beta, dtype=complex)
    return np.exp(-0.5 * alpha * np.sum(rel**2, axis=1) + 1j * rel @ b)


def test_disk_packet_2d():
    # staircase boundary: sampled states see O(h) errors of either sign, so
    # only near-saturation magnitude is guaranteed (measured -1.0e-3 at n=96)
    grid = disk_grid(0.5, 96)
    field, rep = minimal_packet_gamma(grid, 150.0, [0.05, -0.02])
    assert abs(rep.slack_nonhermitean) <= 5e-3
    assert abs(rep.slack_general) <= 1e-2 * abs(rep.lhs)
    assert rep.dx * rep.dp == pytest.approx(rep.rhs_nonhermitean + rep.slack_nonhermitean, rel=1e-12)


def test_iterative_path_matches_dense_oracle():
    cases = [
        # small grids (~200 and 400 cells) and a large one (~3200 cells)
        (disk_grid(0.5, 16), 1.5, 5),
        (rect_grid(1.0, 1.0, 20), 1.5, 5),
        (disk_grid(0.5, 64), 1.5, 5),
        # thin annuli with multiple levels: 16 disconnected parts whose
        # ground states coincide, and rings of weakly joined blobs whose
        # levels come in tight quartets.  Without the split into connected
        # parts, the wide Lanczos basis and the deflated search respectively,
        # these three go wrong.
        (annulus_grid(0.45, 0.5, 16), 0.0, 9),
        (annulus_grid(0.46, 0.5, 45), math.inf, 2),
        (annulus_grid(0.47, 0.5, 47), math.inf, 4),
        # 3-d: the ball's levels 1-3 are its triply degenerate p-level
        (ball_grid(12), 1.5, 5),
        (box_grid(), 1.5, 5),
    ]
    for grid, gamma, count in cases:
        ham = build_hamiltonian(grid, gamma, 1.0)
        w, v = solve_lowest(ham, count)
        w_dense = eigh(ham.matrix.toarray(), eigvals_only=True, subset_by_index=[0, count - 1])
        assert np.allclose(w, w_dense, rtol=1e-9, atol=1e-9)
        # determinism: a second run is bit-identical
        w2, v2 = solve_lowest(ham, count)
        assert np.array_equal(w, w2)
        assert np.array_equal(v, v2)


def test_grid_file_roundtrip(tmp_path):
    # a mask file holds the whole grid: every built-in shape reads back with
    # its mask, h and cell centers bit for bit
    rng = np.random.default_rng(41)
    make = {
        "interval": interval_grid,
        "rect": lambda L, n: rect_grid(L, L * rng.uniform(0.3, 1.5), n),
        "disk": disk_grid,
        "annulus": lambda L, n: annulus_grid(0.5 * L, L, n),
    }
    path = tmp_path / "grid.txt"
    for shape, draws in [("interval", 150), ("rect", 40), ("disk", 80), ("annulus", 40)]:
        for _ in range(draws):
            L = 10.0 ** rng.uniform(-0.3, 0.3)
            n = int(rng.integers(1 if shape != "annulus" else 2, 3001 if shape == "interval" else 129))
            grid = make[shape](L, n)
            write_grid(grid, path)
            back = read_grid(path)
            assert (back.d, back.h) == (grid.d, grid.h)
            assert np.array_equal(back.mask, grid.mask)
            assert np.array_equal(back.cell_centers, grid.cell_centers), (shape, L, n)


def test_grid_file_errors(tmp_path):
    with pytest.raises(GridIOError):
        read_grid(tmp_path / "missing.txt")
    bad = tmp_path / "bad.txt"
    bad.write_text("2 0.5\n11\n")
    with pytest.raises(GridIOError):
        read_grid(bad)
    bad.write_text("1 0.5 4\n111\n")  # three cells, header says four
    with pytest.raises(GridIOError):
        read_grid(bad)
    bad.write_text("1 0.5 4\n11x1\n")
    with pytest.raises(GridIOError):
        read_grid(bad)
    with pytest.raises(GridIOError, match="cannot write grid file"):
        write_grid(interval_grid(1.0, 4), tmp_path)


def test_robin_field_file(tmp_path):
    grid = interval_grid(1.0, 5)  # two faces
    path = tmp_path / "field.csv"
    path.write_text("face,gamma\n0,2.5\n1,inf\n")
    assert np.array_equal(read_robin_field(path, grid), [2.5, math.inf])
    path.write_text("0,1.0\n5,2.0\n")
    with pytest.raises(GridIOError):
        read_robin_field(path, grid)
    path.write_text("0,not-a-number\n")
    with pytest.raises(GridIOError):
        read_robin_field(path, grid)
    with pytest.raises(GridIOError, match="cannot read boundary field"):
        read_robin_field(tmp_path / "missing.csv", grid)


def test_invalid_configurations():
    with pytest.raises(InvalidArgumentError):
        DomainGrid(np.zeros((4, 4), dtype=bool), 0.1)
    with pytest.raises(InvalidArgumentError, match="mask must be 1-, 2- or 3-dimensional"):
        DomainGrid(np.ones((2, 2, 2, 2), dtype=bool), 0.1)
    with pytest.raises(InvalidArgumentError):
        build_hamiltonian(interval_grid(1.0, 4), 0.0, -1.0)
    grid = interval_grid(1.0, 4)
    with pytest.raises(InvalidArgumentError, match="boundary field has 3 values, grid has 2 faces"):
        moments(grid, np.zeros(3), np.ones(4))
    for psi, message in [
        (np.full(4, 1e200), "moments leaves the double range"),
        (np.ones(3), "state must have one value per cell"),
        (np.zeros(4), "state has zero or non-finite norm"),
    ]:
        with pytest.raises(InvalidArgumentError, match=message):
            moments(grid, 0.0, psi)
    with pytest.raises(InvalidArgumentError, match="boundary field has 3 values, grid has 2 faces"):
        build_hamiltonian(grid, np.zeros(3), 1.0)
    with pytest.raises(InvalidArgumentError, match="^gamma must not be NaN$"):
        build_hamiltonian(grid, math.nan, 1.0)
    with pytest.raises(InvalidArgumentError, match="^gamma values must not be NaN$"):
        build_hamiltonian(grid, np.array([0.0, math.nan]), 1.0)
    ham = build_hamiltonian(grid, 0.0, 1.0)
    with pytest.raises(InvalidArgumentError):
        solve_lowest(ham, 9)
    for alpha in (0.0, -1.0, math.nan):
        with pytest.raises(InvalidArgumentError, match="packet width parameter must be positive"):
            minimal_packet_gamma(grid, alpha, [0.0])
    with pytest.raises(InvalidArgumentError, match="^packet center must have 1 components$"):
        minimal_packet_gamma(grid, 1.0, [0.0, 0.0])
    with pytest.raises(InvalidArgumentError, match="^beta must have 2 components$"):
        minimal_packet_gamma(disk_grid(0.5, 8), 1.0, [0.0, 0.0], [1j, 2j, 3j])


def test_neighbor_table_matches_a_cell_by_cell_walk():
    # the reference walks every cell face by plain indexing; links, boundary
    # faces and the gradient must follow the table in the documented orders
    rng = np.random.default_rng(5)
    for shape in [(7,), (1,), (5, 6), (1, 4), (4, 1), (3, 4, 2), (2, 1, 3)]:
        mask = rng.random(shape) < 0.6
        mask.flat[0] = True
        grid = DomainGrid(mask, 0.3)
        cells = [tuple(c) for c in np.argwhere(mask)]
        index = {c: k for k, c in enumerate(cells)}
        table = np.full((grid.d, 2, len(cells)), -1, dtype=np.int64)
        for axis, side, k in np.ndindex(table.shape):
            across = list(cells[k])
            across[axis] += 1 - 2 * side
            table[axis, side, k] = index.get(tuple(across), -1)
        links = [(k, table[a, 0, k], a) for a, k in np.ndindex(grid.d, len(cells)) if table[a, 0, k] >= 0]
        faces = [(k, a, 1 - 2 * s) for a, s, k in np.ndindex(table.shape) if table[a, s, k] < 0]
        assert grid.neighbors.dtype == grid.links.dtype == grid.boundary_faces.dtype == np.int64
        assert np.array_equal(grid.neighbors, table)
        assert grid.links.tolist() == [list(row) for row in links]
        assert grid.boundary_faces.tolist() == [list(row) for row in faces]

        psi = rng.normal(size=len(cells))
        grad = np.zeros((len(cells), grid.d))
        for axis, k in np.ndindex(grid.d, len(cells)):
            up, down = table[axis, :, k]
            if up >= 0 and down >= 0:
                grad[k, axis] = (psi[up] - psi[down]) / (2 * grid.h)
            elif up >= 0:
                grad[k, axis] = (psi[up] - psi[k]) / grid.h
            elif down >= 0:
                grad[k, axis] = (psi[k] - psi[down]) / grid.h
        assert np.array_equal(_gradient(grid, psi), grad)
