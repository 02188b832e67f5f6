"""The paper's spectral-flow theorem as a property of every `dot` run.

dE_n/dgamma = (1/2m) sum_faces h^(d-1) |psi_n|^2 > 0: every flow that `dot`
prints, on any shape and wall, has lhs > 0 and lhs within 1e-6 rhs of rhs.
A flow may be null; `qdot_fd.spectral_flow_check` says when.  Each example
runs `dot` through `cli.main` on interval, rectangle, disk, annulus or a
ball mask file, with gamma log-uniform on both signs up to 1e14, or +-inf.
`dot` takes no per-face wall, so a second property calls the library on
walls with one gamma per face.
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
