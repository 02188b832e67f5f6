"""The paper's spectral-flow theorem as a property of every `dot` run.

dE_n/dgamma = (1/2m) sum_faces h^(d-1) |psi_n|^2 > 0: every flow that `dot`
prints, on any shape and wall, has lhs > 0 and lhs within 1e-6 rhs of rhs.
A flow may be null; `qdot_fd.spectral_flow_check` says when.  Each example
runs `dot` through `cli.main` on interval, rectangle, disk, annulus or a
ball mask file, with gamma log-uniform on both signs up to 1e14, or +-inf.
`dot` takes no per-face wall, so a second property calls the library on
walls with one gamma per face.  A third checks Ky Fan concavity: every sum
of the lowest levels is concave in a uniform gamma.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sae_lab import qdot_fd
from sae_lab.errors import SolverFailureError
from test_cli import _clean_exit

_GAMMAS = st.one_of(
    st.sampled_from([math.inf, -math.inf]),
    st.builds(lambda sign, exponent: sign * 10.0**exponent, st.sampled_from([-1.0, 1.0]), st.floats(-4.0, 14.0)),
)


@pytest.fixture(scope="module")
def ball_file(tmp_path_factory):
    """The ball of diameter 1 on 12^3 cells, as a mask file."""
    c = (np.arange(12) + 0.5) / 12 - 0.5
    x, y, z = np.meshgrid(c, c, c, indexing="ij")
    path = tmp_path_factory.mktemp("ball") / "ball.grid"
    qdot_fd.write_grid(qdot_fd.DomainGrid(x * x + y * y + z * z < 0.25, 1.0 / 12), path)
    return path


@settings(max_examples=150, deadline=None)
@given(
    shape=st.sampled_from(["interval", "rect", "disk", "annulus", "ball"]),
    resolution=st.integers(min_value=1, max_value=48),
    length2=st.floats(min_value=0.2, max_value=1.5),
    gamma=_GAMMAS,
    count=st.integers(min_value=1, max_value=6),
)
def test_every_printed_flow_is_positive_and_matches_its_rhs(shape, resolution, length2, gamma, count, ball_file):
    args = ["dot", f"--gamma={gamma!r}", f"--count={count}", "--format", "json"]
    if shape == "ball":
        args += ["--grid", str(ball_file)]
    else:
        args += ["--shape", shape, f"--resolution={resolution}"]
    if shape == "rect":
        args.append(f"--length2={length2!r}")
    rc, out = _clean_exit(args, codes=(0, 2, 4))
    if rc == 0:
        for level in json.loads(out)["levels"]:
            flow = level["flow"]
            if flow is not None:
                assert flow["lhs"] > 0 and abs(flow["lhs"] - flow["rhs"]) <= 1e-6 * flow["rhs"], (args, level)


_GRIDS = {
    "interval": lambda n: qdot_fd.interval_grid(1.0, n),
    "rect": lambda n: qdot_fd.rect_grid(1.0, 0.6, n),
    "disk": lambda n: qdot_fd.disk_grid(0.5, n),
    "annulus": lambda n: qdot_fd.annulus_grid(0.25, 0.5, n),
}


@settings(max_examples=100, deadline=None)
@given(
    shape=st.sampled_from(sorted(_GRIDS)),
    resolution=st.integers(min_value=2, max_value=24),  # an annulus needs 2 cells across
    low=st.floats(min_value=-20.0, max_value=20.0),
    width=st.floats(min_value=0.0, max_value=40.0),
    wall_share=st.sampled_from([0.0, 0.0, 0.1, 0.5]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    count=st.integers(min_value=1, max_value=6),
)
def test_every_per_face_flow_is_positive_and_matches_its_rhs(shape, resolution, low, width, wall_share, seed, count):
    # each face's gamma is uniform in [low, low + width], or +-inf on a
    # wall_share of the faces
    grid = _GRIDS[shape](resolution)
    rng = np.random.default_rng(seed)
    gamma = rng.uniform(low, low + width, grid.n_faces)
    gamma[rng.random(grid.n_faces) < wall_share] = math.inf
    gamma[rng.random(grid.n_faces) < wall_share / 2] *= -1.0
    ham = qdot_fd.build_hamiltonian(grid, gamma, 1.0)
    try:
        w, v = qdot_fd.solve_lowest(ham, min(count, grid.n_cells))
    except SolverFailureError:  # the printed solve; `dot` exits 4 there
        return
    for flow in qdot_fd.spectral_flow_check(ham, w, v):
        if flow is not None:
            lhs, rhs = flow
            assert lhs > 0 and abs(lhs - rhs) <= 1e-6 * rhs, (shape, resolution, gamma, flow)


@settings(max_examples=100, deadline=None)
@given(
    shape=st.sampled_from(sorted(_GRIDS)),
    resolution=st.integers(min_value=2, max_value=24),
    gamma=st.floats(min_value=-20.0, max_value=20.0),
    delta=st.floats(min_value=1e-3, max_value=4.0),
    count=st.integers(min_value=1, max_value=6),
)
def test_sums_of_the_lowest_levels_are_concave_in_gamma(shape, resolution, gamma, delta, count):
    # H(gamma) = H0 + gamma D with D >= 0 diagonal, so by Ky Fan's principle
    # each partial sum S_K = sum_{k<K} E_k is a minimum of functions affine in
    # gamma, hence concave: S_K(gamma - delta) - 2 S_K(gamma) + S_K(gamma + delta)
    # <= 0.  Single levels need not be concave, so only sums are tested.
    # The floor: a level is its vector's difference form, which rounds to about
    # eps (|link| + |face|)/(2 m norm) (`spectral_flow_check`), at most
    # eps ||A||, and ||A|| at each of the three walls is at most the
    # Gershgorin bound G = (4d/h^2 + 2d (|gamma| + delta)/h)/2m.  fsum adds the
    # 3K levels, weighted 1, -2 and 1, exactly, so the computed second
    # difference is at most 4 K eps G.
    grid = _GRIDS[shape](resolution)
    K = min(count, grid.n_cells)
    below, at, above = (
        qdot_fd.solve_lowest(qdot_fd.build_hamiltonian(grid, g, 1.0), K)[0] for g in (gamma - delta, gamma, gamma + delta)
    )
    G = (4 * grid.d / grid.h**2 + 2 * grid.d * (abs(gamma) + delta) / grid.h) / 2.0
    for k in range(1, K + 1):
        second = math.fsum([*below[:k], *(-2.0 * at[:k]), *above[:k]])
        assert second <= 4 * k * np.finfo(float).eps * G, (shape, resolution, gamma, delta, k, second)
