"""End-to-end tests of the command-line front end."""

import contextlib
import io
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import sae_lab.cli as cli
from sae_lab import box1d, dirac_wall, qdot_fd
from sae_lab.errors import SolverFailureError


def run_cli(args, capsys):
    rc = cli.main(args)
    out, err = capsys.readouterr()
    return rc, out, err


def parse_csv(text):
    lines = text.strip().split("\n")
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


def arctan_samples_loop(lo, hi, steps, scale):
    """The (x, value) samples of a sweep, one scalar at a time: the reference
    _arctan_samples' arrays must match bit for bit."""
    half_pi = math.pi / 2.0
    x_lo = -half_pi if lo is None else math.atan(lo * scale)
    x_hi = half_pi if hi is None else math.atan(hi * scale)
    samples = []
    for i in range(steps):
        t = i / (steps - 1)
        x = x_lo * (1.0 - t) + x_hi * t
        value = -math.inf if x <= -half_pi else math.inf if x >= half_pi else math.tan(x) / scale
        samples.append((x, value))
    return samples


@pytest.mark.parametrize(
    "lo, hi, steps, scale",
    [(None, None, 2001, 0.5), (-3.0, 1e4, 777, 1.0), (1.5, 2.5, 64, 1.0), (None, 1e-3, 100, 5e-324), (-1e300, 1e300, 64, 0.5)],
)
def test_arctan_samples_are_the_scalar_loop(lo, hi, steps, scale):
    params = {"eta": None, "eta_min": lo, "eta_max": hi, "eta_steps": steps}
    x, value = cli._arctan_samples(params, "eta", scale)
    got = [(a.hex(), b.hex()) for a, b in zip(x.tolist(), value.tolist())]
    assert got == [(a.hex(), b.hex()) for a, b in arctan_samples_loop(lo, hi, steps, scale)]


# ---------------------------------------------------------------------------
# spectrum


def test_spectrum_single_gamma_zero(capsys):
    rc, out, err = run_cli(["spectrum", "--gamma", "0"], capsys)
    assert rc == 0
    assert err == ""
    header, rows = parse_csv(out)
    assert header == ["arctan_half_gamma_L", "e0", "e1", "e2", "e3", "e4"]
    assert len(rows) == 1
    assert [float(v) for v in rows[0]] == [0.0, 0.0, 1.0, 4.0, 9.0, 16.0]


def test_spectrum_default_scan_landmarks(tmp_path, capsys):
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    assert cli.main(["spectrum", "--output", str(out_a)]) == 0
    assert cli.main(["spectrum", "--output", str(out_b)]) == 0
    capsys.readouterr()
    # identical configuration gives byte-identical output
    assert out_a.read_bytes() == out_b.read_bytes()

    header, rows = parse_csv(out_a.read_text())
    assert len(rows) == 201
    first = [float(v) for v in rows[0]]
    assert first[0] == pytest.approx(-math.pi / 2, rel=1e-15)
    assert first[1:] == pytest.approx([1.0, 4.0, 9.0, 16.0, 25.0], rel=1e-12)
    last = [float(v) for v in rows[200]]
    assert last[0] == pytest.approx(math.pi / 2, rel=1e-15)
    assert last[1:] == pytest.approx([1.0, 4.0, 9.0, 16.0, 25.0], rel=1e-12)
    middle = [float(v) for v in rows[100]]
    assert middle == [0.0, 0.0, 1.0, 4.0, 9.0, 16.0]
    # the quarter-way sample sits on the odd zero mode: one bound level
    # below zero and an exactly vanishing e1
    quarter = [float(v) for v in rows[50]]
    assert quarter[1] < 0.0
    assert quarter[2] == 0.0


def test_spectrum_json_bound_states(capsys):
    rc, out, err = run_cli(["spectrum", "--gamma", "-4", "--format", "json"], capsys)
    assert rc == 0
    doc = json.loads(out)
    assert doc["schema"] == 1
    assert doc["command"] == "spectrum"
    row = doc["rows"][0]
    assert row["gamma"] == -4.0
    assert len(row["energies"]) == 5
    assert row["energies"][0] < 0.0 and row["energies"][1] < 0.0
    assert row["energies"][2] > 0.0


def test_spectrum_raw_units(capsys):
    rc, out, _ = run_cli(["spectrum", "--gamma", "inf", "--raw-units"], capsys)
    assert rc == 0
    header, rows = parse_csv(out)
    assert header[0] == "gamma"
    vals = [float(v) for v in rows[0]]
    assert math.isinf(vals[0]) and vals[0] > 0
    assert vals[1] == pytest.approx(math.pi**2 / 2.0, rel=1e-14)


def test_spectrum_usage_errors(capsys):
    rc, out, err = run_cli(["spectrum", "--gamma-steps", "1"], capsys)
    assert rc == 2
    assert out == ""
    assert "steps" in err
    rc, _, err = run_cli(["spectrum", "--gamma-min", "5", "--gamma-max", "-5"], capsys)
    assert rc == 2
    assert "empty" in err
    with pytest.raises(SystemExit) as exc_info:
        cli.main(["spectrum", "--no-such-flag"])
    assert exc_info.value.code == 2
    capsys.readouterr()


def test_run_config_rejects_unknown_format(capsys):
    for command in ("spectrum", "dot", "scatter", "wall", "hetero", "dirac"):
        with pytest.raises(SystemExit) as exc_info:
            cli.main([command, "--format", "xml"])
        assert exc_info.value.code == 2
        out, err = capsys.readouterr()
        assert out == "" and "--format" in err


# ---------------------------------------------------------------------------
# dot


def test_dot_disk_neumann_report(capsys):
    rc, out, err = run_cli(
        ["dot", "--shape", "disk", "--resolution", "32", "--gamma", "0", "--count", "3"],
        capsys,
    )
    assert rc == 0
    doc = json.loads(out)
    assert doc["schema"] == 1
    assert doc["command"] == "dot"
    assert doc["shape"] == "disk"
    levels = doc["levels"]
    assert [lev["n"] for lev in levels] == [0, 1, 2]
    assert abs(levels[0]["energy"]) <= 1e-8
    assert abs(levels[0]["slack_general"]) <= 1e-9
    flow = levels[0]["flow"]
    assert flow["lhs"] == pytest.approx(flow["rhs"], rel=1e-4)
    # the first excited disk level is twofold degenerate, so its flow
    # derivative is undefined and reported as missing, also when its partner
    # is not printed
    assert levels[1]["flow"] is None
    rc, out, _ = run_cli(["dot", "--shape", "disk", "--resolution", "32", "--gamma", "0", "--count", "2"], capsys)
    assert rc == 0
    assert json.loads(out)["levels"][1]["flow"] is None


def test_dot_interval_matches_spectrum_endpoint(capsys):
    rc, dot_out, _ = run_cli(
        [
            "dot", "--shape", "interval", "--resolution", "500", "--gamma", "inf",
            "--count", "5", "--format", "csv",
        ],
        capsys,
    )
    assert rc == 0
    _, dot_rows = parse_csv(dot_out)
    rc, spec_out, _ = run_cli(["spectrum", "--gamma", "inf", "--raw-units"], capsys)
    assert rc == 0
    _, spec_rows = parse_csv(spec_out)
    for n in range(5):
        fd_energy = float(dot_rows[n][1])
        exact = float(spec_rows[0][1 + n])
        assert fd_energy == pytest.approx(exact, rel=2e-4)
    # Dirichlet walls have no wall parameter to vary, so no flow column
    assert dot_rows[0][4] == "" and dot_rows[0][5] == ""


def test_dot_grid_file_roundtrip(tmp_path, capsys):
    grid = qdot_fd.disk_grid(1.0, 24)
    path = tmp_path / "disk.grid"
    qdot_fd.write_grid(grid, path)
    rc, out, _ = run_cli(["dot", "--grid", str(path), "--count", "1"], capsys)
    assert rc == 0
    doc = json.loads(out)
    assert doc["cells"] == grid.n_cells
    assert doc["grid_file"] == str(path)

    # a 3-d mask: the ball of diameter 1 on 12^3 cells, whose levels 1-3
    # are the triply degenerate p-level
    c = (np.arange(12) + 0.5) / 12 - 0.5
    x, y, z = np.meshgrid(c, c, c, indexing="ij")
    qdot_fd.write_grid(qdot_fd.DomainGrid(x * x + y * y + z * z < 0.25, 1.0 / 12), path)
    rc, out, _ = run_cli(["dot", "--grid", str(path), "--count", "4"], capsys)
    assert rc == 0
    levels = json.loads(out)["levels"]
    assert levels[0]["flow"]["lhs"] == pytest.approx(levels[0]["flow"]["rhs"], rel=1e-4)
    assert [level["flow"] for level in levels[1:]] == [None, None, None]


@pytest.mark.parametrize(
    "shape, length, n, gamma, count",
    [("interval", 1.84996, 288, -1.0, 3), ("disk", 0.9572370830120515, 29, -3.0, 5)],
    ids=["interval-288", "disk-29"],
)
def test_dot_shape_prints_the_levels_of_its_mask_file(shape, length, n, gamma, count, tmp_path, capsys):
    # a grid is its mask and h: a built-in shape and its mask file print the
    # same levels, slacks included, bit for bit
    path = tmp_path / "shape.grid"
    qdot_fd.write_grid({"interval": qdot_fd.interval_grid, "disk": qdot_fd.disk_grid}[shape](length, n), path)
    levels = []
    for where in (["--shape", shape, f"--length={length!r}", f"--resolution={n}"], ["--grid", str(path)]):
        rc, out, _ = run_cli(["dot", *where, f"--gamma={gamma!r}", f"--count={count}", "--format", "json"], capsys)
        assert rc == 0
        levels.append(json.dumps(json.loads(out)["levels"]))
    assert levels[0] == levels[1]


@pytest.mark.parametrize(
    "extra, code",
    [([], 0), (["--length2", "0.3"], 2), (["--length", "5", "--resolution", "3"], 2),
     (["--length", "1"], 2), (["--resolution", "64"], 2)],
    ids=lambda value: " ".join(value) if isinstance(value, list) else f"exit{value}",
)
def test_dot_grid_rejects_the_built_in_shape_sizes(extra, code, tmp_path, capsys):
    # a mask file carries its own size and spacing, so these options would be ignored
    path = tmp_path / "disk.grid"
    qdot_fd.write_grid(qdot_fd.disk_grid(1.0, 8), path)
    rc, out, err = run_cli(["dot", "--grid", str(path), "--count", "1", "--format", "csv", *extra], capsys)
    assert rc == code
    if code:
        assert out == "" and err.startswith("error: ") and "--grid" in err
    else:
        assert out.startswith("n,energy,") and err == ""


def test_dot_io_and_usage_failures(tmp_path, capsys):
    rc, out, err = run_cli(["dot", "--grid", str(tmp_path / "missing.grid")], capsys)
    assert rc == 3
    assert out == ""
    assert "error" in err
    rc, _, err = run_cli(
        ["dot", "--shape", "interval", "--resolution", "10", "--count", "100"], capsys
    )
    assert rc == 2


def test_dot_bad_grid_files_exit_3_with_a_short_message(tmp_path, capsys):
    bad = tmp_path / "bad.grid"
    for text, message in [
        (b"\xff\xfe 2 0.1 4 4", "can't decode byte 0xff"),
        (b"[" * 100_000, "bad header"),
        (b"7 0.1 " + b"1" * 100_000, "bad header"),
        (b"", "is empty"),
        (b"1 0.1 3\n000\n", "mask contains no cells"),
        # the lower corner's |-h n/2| plus h n, 2.4e308, overflows
        (b"1 4e307 4\n1111\n", "cell coordinates must be finite"),
    ]:
        bad.write_bytes(text)
        rc, out, err = run_cli(["dot", "--grid", str(bad)], capsys)
        assert (rc, out) == (3, "") and err.startswith("error: ") and message in err, (text[:20], err)
        assert len(err) < 200 + len(str(bad))


def count_dot_calls(argv, monkeypatch, capsys):
    """(LU factorizations, solve_lowest calls) of one successful dot run."""
    calls = {"splu": 0, "solve_lowest": 0}

    def counting(name):
        real = getattr(qdot_fd, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        return wrapper

    for name in calls:
        monkeypatch.setattr(qdot_fd, name, counting(name))
    rc, _, _ = run_cli(argv, capsys)
    assert rc == 0
    return calls["splu"], calls["solve_lowest"]


@pytest.mark.parametrize("gamma", ["1", "inf"])
def test_dot_factors_once(gamma, monkeypatch, capsys):
    # one factor serves the solve at gamma and the flow check at gamma +- step
    argv = ["dot", "--shape", "disk", "--resolution", "64", "--gamma", gamma]
    assert count_dot_calls(argv, monkeypatch, capsys) == (1, 1)


def test_dot_factors_once_per_part(tmp_path, monkeypatch, capsys):
    # three blocks of different sizes, so their levels interleave, and a
    # 2 x 3 block with a level among the lowest six, which is solved densely
    # and never factored
    mask = np.zeros((40, 12), dtype=bool)
    mask[:10, :8] = mask[14:25, :7] = mask[29:, 2:] = mask[10:12, 9:] = True
    path = tmp_path / "blocks.grid"
    qdot_fd.write_grid(qdot_fd.DomainGrid(mask, 0.05), path)
    argv = ["dot", "--grid", str(path), "--gamma", "0.1"]
    assert count_dot_calls(argv, monkeypatch, capsys) == (3, 1)


def test_solver_failure_maps_to_exit_4(monkeypatch, capsys):
    def raising(error):
        def boom(*args, **kwargs):
            raise error

        return boom

    newton = box1d._newton
    disk = ["dot", "--shape", "disk", "--resolution", "16"]
    spectrum = ["spectrum", "--gamma", "3"]
    cases = [
        (qdot_fd, "solve_lowest", raising(SolverFailureError("synthetic failure")), disk, "synthetic failure"),
        (box1d, "_MAX_STEPS", 1, spectrum, "a root search did not converge in 1 steps"),
        # levels in descending order
        (box1d, "_newton", lambda *args: newton(*args)[:, ::-1], spectrum, "energy ordering violated"),
        (qdot_fd, "eigsh", raising(RuntimeError("synthetic")), disk, "shift-invert eigensolver failed"),
        (qdot_fd, "eigh_tridiagonal", raising(np.linalg.LinAlgError("synthetic")),
         ["dot", "--shape", "interval", "--resolution", "50"], "tridiagonal eigensolver failed"),
    ]
    for module, name, value, argv, message in cases:
        with monkeypatch.context() as patch:
            patch.setattr(module, name, value)
            rc, out, err = run_cli(argv, capsys)
        assert (rc, out) == (4, "") and err.startswith("error: ") and message in err, (name, err)


# ---------------------------------------------------------------------------
# scatter


def test_scatter_single_point(capsys):
    rc, out, _ = run_cli(
        ["scatter", "--gamma", "1", "--k-min", "1", "--k-max", "1", "--k-steps", "1"],
        capsys,
    )
    assert rc == 0
    header, rows = parse_csv(out)
    assert header == ["k", "phase_shift", "re_R", "im_R"]
    k, delta, re_r, im_r = (float(v) for v in rows[0])
    assert k == 1.0
    assert delta == pytest.approx(1.5 * math.pi, rel=1e-15)
    assert re_r == pytest.approx(0.0, abs=1e-15)
    assert im_r == pytest.approx(-1.0, rel=1e-15)


def test_scatter_neumann_phase(capsys):
    rc, out, _ = run_cli(
        ["scatter", "--gamma", "0", "--k-steps", "5", "--format", "json"], capsys
    )
    assert rc == 0
    doc = json.loads(out)
    assert all(row["phase_shift"] == pytest.approx(2 * math.pi) for row in doc["rows"])
    rc, _, err = run_cli(["scatter", "--k-min", "0"], capsys)
    assert rc == 2
    for args, message in [
        (["--k-steps", "0"], "k-steps must be >= 1, got 0"),
        (["--k-min", "2", "--k-max", "1"], "empty wavenumber range [2.0, 1.0]"),
    ]:
        assert run_cli(["scatter", *args], capsys) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "args, message",
    [
        (["--gamma=0.0", "--k-max=inf", "--k-steps=2"], "wavenumber must be positive and finite, got nan"),
        (["--gamma=nan", "--k-max=inf", "--k-steps=2"], "wavenumber must be positive and finite, got nan"),
        # the first k is good, so a NaN gamma is named before the last k overflows
        (["--gamma=nan", "--k-max=1.7e308", "--k-steps=3"], "gamma must not be NaN"),
        (["--gamma=1", "--k-max=1.7e308", "--k-steps=3"], "wavenumber must be positive and finite, got inf"),
    ],
)
def test_scatter_names_the_first_bad_wavenumber(args, message, capsys):
    rc, out, err = run_cli(["scatter", "--k-min=1.0", *args], capsys)
    assert (rc, out, err) == (2, "", f"error: {message}\n")


# ---------------------------------------------------------------------------
# wall


def test_wall_error_shrinks_first_order(capsys):
    rc, out, _ = run_cli(["wall", "--gamma", "2"], capsys)
    assert rc == 0
    header, rows = parse_csv(out)
    assert header[0] == "epsilon"
    errors = [abs(float(row[4])) for row in rows]
    assert all(e > 0 for e in errors)
    for wide, narrow in zip(errors, errors[1:]):
        assert wide / narrow == pytest.approx(2.0, abs=0.1)
    for args, message in [
        (["--epsilons", "0.02,zebra"], "--epsilons must be a comma-separated float list, got '0.02,zebra'"),
        (["--epsilons", ","], "--epsilons list is empty"),
        (["--gamma", "inf"], "thin-well construction needs finite gamma"),
        (["--epsilons", "-1"], "well width must be positive and finite, got -1.0"),
        (["--mass", "-1"], "mass must be positive and finite, got -1.0"),
    ]:
        assert run_cli(["wall", *args], capsys) == (2, "", f"error: {message}\n")


# ---------------------------------------------------------------------------
# hetero


def write_matrix(path, entries, theta=None):
    doc = {"entries": entries}
    if theta is not None:
        doc["theta"] = theta
    path.write_text(json.dumps(doc))


def test_hetero_accepts_and_reports_theta(tmp_path, capsys):
    path = tmp_path / "ok.json"
    write_matrix(path, [[2, 0], [0.5, 0], [1, 0], [0.75, 0]], theta=0.4)
    rc, out, _ = run_cli(["hetero", "--matrix", str(path)], capsys)
    assert rc == 0
    doc = json.loads(out)
    assert doc["verdict"] == "accepted"
    assert doc["theta"] == pytest.approx(0.4, rel=1e-12)
    assert all(r["residual"] <= 1e-12 for r in doc["residuals"])
    # -i times the identity has phase -pi/2 exactly, which folds to pi/2
    write_matrix(path, [[0, -1], [0, 0], [0, 0], [0, -1]])
    rc, out, _ = run_cli(["hetero", "--matrix", str(path)], capsys)
    doc = json.loads(out)
    assert rc == 0 and doc["verdict"] == "accepted" and doc["theta"] == math.pi / 2


def test_hetero_rejects_orientation_reversal(tmp_path, capsys):
    path = tmp_path / "flip.json"
    write_matrix(path, [[1, 0], [0, 0], [0, 0], [-1, 0]])
    rc, out, _ = run_cli(["hetero", "--matrix", str(path)], capsys)
    assert rc == 0
    doc = json.loads(out)
    assert doc["verdict"] == "rejected"
    assert "determinant -1" in doc["reason"]
    assert max(r["residual"] for r in doc["residuals"]) == pytest.approx(2.0)


def test_hetero_csv_and_io_errors(tmp_path, capsys):
    path = tmp_path / "ok.json"
    write_matrix(path, [[1, 0], [0, 0], [0, 0], [1, 0]])
    rc, out, _ = run_cli(["hetero", "--matrix", str(path), "--format", "csv"], capsys)
    assert rc == 0
    header, rows = parse_csv(out)
    assert header == ["name", "value"]
    assert rows[0] == ["verdict", "accepted"]
    rc, _, err = run_cli(["hetero", "--matrix", str(tmp_path / "nope.json")], capsys)
    assert rc == 3
    bad = tmp_path / "bad.json"
    for text in (b"{not json", b"\xff\xfe not UTF-8", b"[" * 100_000):
        bad.write_bytes(text)
        rc, _, err = run_cli(["hetero", "--matrix", str(bad)], capsys)
        assert rc == 3 and err.startswith("error: ")
    bad.write_text('{"theta": 0}')
    assert run_cli(["hetero", "--matrix", str(bad)], capsys) == (3, "", f"error: junction file {bad}: missing 'entries'\n")


def test_hetero_out_of_range_numbers(tmp_path, capsys):
    path = tmp_path / "m.json"
    # an integer theta beyond the double range is not a finite number
    write_matrix(path, [[1, 0], [0, 0], [0, 0], [1, 0]], theta=10**400)
    rc, out, err = run_cli(["hetero", "--matrix", str(path)], capsys)
    assert (rc, out) == (3, "") and err.startswith("error: ") and "theta" in err
    # entries that are not finite, or whose bilinears could overflow, are
    # rejected without forming the bilinears
    too_big = "junction matrix entries must not exceed 2**510 in modulus"
    for entries, theta, reason in [
        ([["inf", 0], [0, 0], [0, 0], [1, 0]], None, "junction matrix entries must be finite"),
        ([[10**400, 0], [0, 0], [0, 0], [1, 0]], None, "junction matrix entries must be finite"),
        ([[1e300, 0], [0, 0], [0, 0], [1e300, 0]], None, too_big),
        ([[1.7e308, 1.7e308], [0, 0], [0, 0], [1, 0]], 0.5, too_big),
    ]:
        write_matrix(path, entries, theta)
        rc, out, err = run_cli(["hetero", "--matrix", str(path)], capsys)
        assert (rc, err) == (0, "")
        doc = json.loads(out)
        assert (doc["verdict"], doc["reason"]) == ("rejected", reason)
        assert all(r["residual"] == "nan" for r in doc["residuals"])
    # at the bound, a real determinant-1 factor passes at any phase
    big = 2.0**510
    write_matrix(path, [[big, 0], [big, 0], [0, 0], [1 / big, 0]], theta=0.3)
    rc, out, err = run_cli(["hetero", "--matrix", str(path)], capsys)
    assert (rc, err) == (0, "")
    assert json.loads(out)["verdict"] == "accepted"


def test_hetero_json_bool_is_not_a_number(tmp_path, capsys):
    # JSON true and false are not 1 and 0: neither a theta nor an entry
    path = tmp_path / "m.json"
    identity = [[1, 0], [0, 0], [0, 0], [1, 0]]
    for theta in (True, False):
        write_matrix(path, identity, theta)
        rc, out, err = run_cli(["hetero", "--matrix", str(path)], capsys)
        assert (rc, out) == (3, "")
        assert err == f"error: junction file {path}: 'theta' must be a finite number\n"
    for entries in ([[True, 0], [0, 0], [0, 0], [1, 0]], [[1, 0], [0, 0], [0, False], [1, 0]]):
        write_matrix(path, entries)
        rc, out, err = run_cli(["hetero", "--matrix", str(path)], capsys)
        assert (rc, out) == (3, "")
        assert err == f"error: junction file {path}: 'entries' must list 4 [re, im] pairs\n"


# ---------------------------------------------------------------------------
# dirac


def test_dirac_single_eta(capsys):
    rc, out, _ = run_cli(["dirac", "--eta", "2"], capsys)
    assert rc == 0
    header, rows = parse_csv(out)
    assert header == [
        "eta",
        "speed_over_c",
        "chemical_potential_over_mc2",
        "threshold_momentum_over_mc",
        "normalizable_side",
    ]
    eta, speed, mu, threshold, side = rows[0]
    assert float(speed) == pytest.approx(0.6, rel=1e-14)
    assert float(mu) == pytest.approx(0.8, rel=1e-14)
    assert float(threshold) == pytest.approx(0.75, rel=1e-12)
    assert side == "above"


def test_dirac_scan_limits(capsys):
    rc, out, _ = run_cli(["dirac"], capsys)
    assert rc == 0
    _, rows = parse_csv(out)
    assert len(rows) == 41
    first, middle, last = rows[0], rows[20], rows[40]
    assert float(first[0]) == -math.inf
    assert float(first[1]) == 1.0 and float(first[2]) == 0.0
    assert first[4] == "none" and float(first[3]) == math.inf
    assert float(middle[0]) == 0.0
    assert float(middle[1]) == 1.0 and float(middle[2]) == 0.0
    assert middle[4] == "all" and float(middle[3]) == -math.inf
    assert float(last[0]) == math.inf and last[4] == "none"
    # negative eta drifts the opposite way: normalizable below the crossing
    rc, out, _ = run_cli(["dirac", "--eta", "-2"], capsys)
    _, rows = parse_csv(out)
    assert rows[0][4] == "below"
    assert float(rows[0][3]) == pytest.approx(-0.75, rel=1e-12)


def test_dirac_threshold_at_extreme_eta(capsys):
    # sin(phi) = 2e-20 and 2e-308 are tiny but not zero: the threshold is
    # finite, -cos(phi)/sin(phi)
    for eta, want in (("1e-20", -5e19), ("1e308", 5e307)):
        rc, out, _ = run_cli(["dirac", "--eta", eta], capsys)
        assert rc == 0
        _, rows = parse_csv(out)
        assert float(rows[0][3]) == pytest.approx(want, rel=1e-15)
        assert rows[0][4] == "above"


def test_dirac_json_encodes_infinities(capsys):
    rc, out, _ = run_cli(["dirac", "--eta-steps", "3", "--format", "json"], capsys)
    assert rc == 0
    doc = json.loads(out)
    assert doc["rows"][0]["eta"] == "-inf"
    assert doc["rows"][1]["eta"] == 0.0
    assert doc["rows"][2]["eta"] == "inf"


@pytest.mark.parametrize(
    "args",
    [["dirac", "--eta-steps", "2001"], ["dirac", "--eta-min", "-5", "--eta-max", "7", "--eta-steps", "301"]],
)
def test_dirac_speed_is_within_4_ulp(args, capsys):
    # |cos(phi)| = |1 - eta^2|/(1 + eta^2) against 40 digits, near |eta| = 1 too
    rc, out, _ = run_cli(args, capsys)
    assert rc == 0
    worst = 0.0
    with mpmath.workdps(40):
        for eta, speed, *_ in parse_csv(out)[1]:
            eta, speed = float(eta), float(speed)
            if math.isinf(eta):
                assert speed == 1.0
                continue
            exact = abs(1 - mpmath.mpf(eta) ** 2) / (1 + mpmath.mpf(eta) ** 2)
            if exact == 0:
                assert speed == 0.0
                continue
            worst = max(worst, float(abs(speed - exact)) / math.ulp(float(exact)))
    assert worst <= 4.0


# ---------------------------------------------------------------------------
# JSON writer


def json_ready(value):
    """The reference scalar rule: the writer must print the bytes of
    json.dumps(json_ready(doc), indent=2)."""
    if isinstance(value, dict):
        return {k: json_ready(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [json_ready(v) for v in value]
    if isinstance(value, bool) or value is None or isinstance(value, (int, str)):
        return value
    value = float(value)
    if math.isfinite(value):
        return value
    if math.isnan(value):
        return "nan"
    return "inf" if value > 0 else "-inf"


_HUGE = 1.7976931348623157e308
_JSON_SCALARS = st.one_of(
    st.floats(),
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -2.225e-308, _HUGE, -_HUGE]),
    st.integers(),
    st.integers(min_value=2**63, max_value=2**200).flatmap(lambda n: st.sampled_from([n, -n])),
    st.booleans(),
    st.none(),
    st.text(),
    st.floats().map(np.float64),
    st.integers(min_value=-(2**63), max_value=2**63 - 1).map(np.int64),
    st.booleans().map(np.bool_),
)


def _keyed(keys, row):
    """One table row as the dict it stands for."""
    cells, out = iter(row), {}
    for key in keys:
        if isinstance(key, str):
            out[key] = next(cells)
        else:
            out[key[0]] = [next(cells) for _ in range(key[1])]
    return out


def _column(length):
    """A float64 array column, finite or not, or a list column of any scalars."""
    finite = st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=length, max_size=length)
    floats = st.lists(st.floats() | st.sampled_from([math.inf, -math.inf, math.nan]), min_size=length, max_size=length)
    mixed = st.lists(_JSON_SCALARS, min_size=length, max_size=length)
    return (finite | floats).map(lambda cells: np.array(cells, dtype=float)) | mixed


@st.composite
def _column_tables(draw, nested=True):
    """(table, its rows as dicts), with plain and, if nested, (name, n) keys;
    a table without columns has no rows."""
    names = draw(st.lists(st.text(st.sampled_from('%sü\x00"\\,\n') | st.characters(), max_size=5), unique=True, min_size=1, max_size=4))
    keys = [name if not nested or draw(st.booleans()) else (name, draw(st.integers(0, 3))) for name in names]
    width = sum(1 if isinstance(key, str) else key[1] for key in keys)
    length = draw(st.integers(0, 4)) if width else 0
    columns = [draw(_column(length)) for _ in range(width)]
    return cli._Table(keys, columns), [_keyed(keys, row) for row in zip(*columns)]


def _json_nodes(children):
    lists = st.lists(children, max_size=4)
    return st.one_of(
        lists.map(lambda kids: ([v for v, _ in kids], [r for _, r in kids])),
        lists.map(lambda kids: (tuple(v for v, _ in kids), [r for _, r in kids])),
        st.dictionaries(st.text(), children, max_size=4).map(
            lambda d: ({k: v for k, (v, _) in d.items()}, {k: r for k, (_, r) in d.items()})
        ),
    )


# (document, the same document with every table as a list of dicts)
_JSON_DOCS = st.recursive(_JSON_SCALARS.map(lambda v: (v, v)) | _column_tables(), _json_nodes, max_leaves=8)


_EDGE_TABLE = cli._Table(
    ["k%s", ("ü", 3), "s"],
    [
        np.array([-math.inf, math.nan, 0.1]),
        np.array([0.5, -0.0, 1e-320]),
        [np.float64(0.1), np.int64(7), np.bool_(True)],
        [None, math.inf, -0.0],
        ["x", 1e-320, math.nan],
    ],
)


@settings(max_examples=100, deadline=None)
@given(_JSON_DOCS)
@example(({"rows": _EDGE_TABLE, "e": [], "t": ()}, {"rows": [_keyed(_EDGE_TABLE.keys, row) for row in zip(*_EDGE_TABLE.columns)], "e": [], "t": []}))
def test_json_writer_matches_the_stdlib(pair):
    doc, reference = pair
    assert cli._json(doc) == json.dumps(json_ready(reference), indent=2)


def csv_reference(table):
    """The per-cell CSV rule _csv must reproduce: _fmt per number, "" for None, a str as is."""
    def cell(value):
        return "" if value is None else value if isinstance(value, str) else cli._fmt(value)

    lines = [",".join(table.keys)] + [",".join(map(cell, row)) for row in zip(*table.columns)]
    return "\n".join(lines) + "\n"


@settings(max_examples=100, deadline=None)
@given(_column_tables(nested=False))
@example((cli._Table(["k%s", "ü", "a", "b", "s"], _EDGE_TABLE.columns), None))
def test_csv_writer_matches_the_per_cell_rule(pair):
    table, _ = pair
    assert cli._csv(table) == csv_reference(table)


@pytest.mark.parametrize(
    "args",
    [
        ["spectrum", "--format", "json"],
        ["spectrum", "--gamma-steps", "5", "--raw-units", "--format", "json"],
        ["spectrum", "--gamma=-0.0", "--format", "json"],
        ["dot", "--shape", "interval", "--resolution", "8", "--count", "2", "--gamma=inf"],
        ["dot", "--shape", "disk", "--resolution", "8", "--count", "3", "--gamma=-1"],
        ["scatter", "--gamma=inf", "--k-steps", "1", "--format", "json"],
        ["scatter", "--k-steps", "7", "--format", "json"],
        ["wall", "--gamma=-0.0", "--format", "json"],
        ["dirac", "--eta-steps", "3", "--format", "json"],
        ["dirac", "--format", "json"],
        ["hetero"],
    ],
    ids=" ".join,
)
def test_json_output_is_its_own_stdlib_encoding(args, tmp_path, capsys):
    if args == ["hetero"]:
        path = tmp_path / "jünction.json"
        write_matrix(path, [[0.6, 0.8], [0, 0], [0, 0], [0.6, -0.8]], theta=0.3)
        args = ["hetero", "--matrix", str(path)]
    rc, out, err = run_cli(args, capsys)
    assert (rc, err) == (0, "")
    assert out == json.dumps(json.loads(out), indent=2) + "\n"


def test_main_reuses_one_parser(capsys):
    first = ["dot", "--shape", "interval", "--count", "2", "--format", "csv"]
    outputs = [run_cli(args, capsys) for args in (first, ["dirac", "--eta-steps", "3", "--format", "json"], first)]
    assert outputs[0] == outputs[2] and outputs[0][0] == 0
    assert cli._parser() is cli._parser()
    assert cli.build_parser() is not cli.build_parser()


# ---------------------------------------------------------------------------
# cross-cutting behavior


def test_unwritable_output_maps_to_exit_3(tmp_path, capsys):
    target = tmp_path / "no" / "such" / "dir" / "out.csv"
    rc, _, err = run_cli(["spectrum", "--gamma", "0", "--output", str(target)], capsys)
    assert rc == 3
    assert "cannot write" in err


def test_missing_subcommand_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc_info:
        cli.main([])
    assert exc_info.value.code == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "args, code",
    [
        (["dot", "--shape", "disk", "--resolution", "0"], 2),
        (["dot", "--shape", "annulus", "--resolution", "0"], 2),
        (["dot", "--shape", "annulus", "--resolution", "8", "--length", "1", "--length2", "2"], 2),
        (["spectrum", "--length", "0"], 2),
        (["spectrum", "--gamma", "2e16"], 0),
        (["spectrum", "--gamma=-5e16", "--raw-units"], 0),
        (["spectrum", "--gamma", "1e300", "--format", "json"], 0),
        (["spectrum", "--gamma=-1e300"], 2),
        # every energy underflows to 0; L/2 underflows to 0; 2/L overflows
        (["spectrum", "--length", "1e300", "--gamma-steps", "2"], 2),
        (["spectrum", "--length", "5e-324", "--gamma-steps", "3"], 2),
        (["spectrum", "--length", "1.1125369292536007e-308", "--gamma=-1.7976931348623157e308"], 2),
        (["dot", "--shape", "interval", "--resolution", "3", "--count", "3"], 0),
        # one cell has no position spread, so no uncertainty report
        (["dot", "--shape", "interval", "--resolution", "1", "--count", "1"], 2),
        (["dot", "--shape", "rect", "--resolution", "1", "--count", "1"], 2),
        (["dot", "--shape", "disk", "--resolution", "1", "--count", "1"], 2),
        (["dot", "--shape", "rect", "--resolution", "8", "--length", "inf"], 2),
        (["dot", "--shape", "disk", "--resolution", "8", "--length", "inf"], 2),
        (["dot", "--shape", "rect", "--resolution", "8", "--length2", "1e300"], 2),
        # 8e17 cells fit numpy's index type, but not in memory
        (["dot", "--shape", "rect", "--resolution", "8", "--length2", "1e17"], 2),
        # --length2 sets the second rect side or the annulus inner radius only
        (["dot", "--shape", "disk", "--resolution", "8", "--length2", "0.3", "--count", "1"], 2),
        (["dot", "--shape", "interval", "--resolution", "8", "--length2", "0.3", "--count", "1"], 2),
        (["dot", "--shape", "rect", "--resolution", "2", "--count", "4"], 0),
        (["dot", "--shape", "rect", "--resolution", "2", "--count", "3"], 0),
        # levels 1-2 of this annulus are a degenerate pair that Lanczos can cut in two
        (["dot", "--shape", "annulus", "--resolution", "64", "--length", "1.3297881602528314", "--gamma", "5"], 0),
        # |gamma| h beyond 2^52 is the Dirichlet wall, asked for as --gamma inf
        (["dot", "--shape", "disk", "--resolution", "16", "--gamma", "1e300"], 2),
        (["dot", "--shape", "interval", "--resolution", "8", "--gamma=-1e300"], 2),
        # 1/(2 m h^2) or its row sums leave the double range; r^2 overflows
        (["dot", "--shape", "interval", "--resolution", "8", "--length", "1e-300"], 2),
        (["dot", "--shape", "rect", "--resolution", "8", "--length", "1e-300"], 2),
        (["dot", "--shape", "interval", "--resolution", "8", "--mass", "1e-320"], 2),
        (["dot", "--shape", "disk", "--resolution", "8", "--mass", "1e-320"], 2),
        (["dot", "--shape", "disk", "--resolution", "8", "--length", "1e300"], 2),
        (["dot", "--shape", "annulus", "--resolution", "8", "--length", "1e300"], 2),
        # 2m overflows, 1/(2 m h^2) and the energies do not
        (["dot", "--shape", "rect", "--resolution", "3", "--count", "2", "--length", "1e-150",
          "--mass", "1.7976931348623157e308", "--format", "csv"], 0),
        (["spectrum", "--gamma", "1", "--raw-units", "--mass", "1.7e308", "--length", "1e-10"], 0),
        # the scale 2 m L^2/pi^2, or a scaled energy, overflows; --raw-units prints them
        (["spectrum", "--mass", "1e308", "--gamma-steps", "9", "--format", "csv"], 2),
        (["spectrum", "--gamma=-1e150", "--length", "1e10", "--format", "csv"], 2),
        # q = pi/(2 eps) or V0 = q^2/2m overflows
        (["wall", "--epsilons", "1e-320"], 2),
        (["wall", "--mass", "5e-324", "--epsilons", "6.0416529135347695e-59"], 2),
        # q epsilon overflows
        (["wall", "--gamma=-282380978", "--epsilons", "1e300"], 2),
        (["dirac", "--eta", "nan"], 2),
    ],
    ids=lambda value: " ".join(value) if isinstance(value, list) else f"exit{value}",
)
def test_edge_inputs_end_in_a_clean_exit(args, code, capsys):
    rc, out, err = run_cli(args, capsys)
    assert rc == code
    if code == 0:
        assert err == ""
    else:
        assert out == ""
        assert err.startswith("error: ")


def test_masses_up_to_the_largest_double(capsys):
    big = 1.7976931348623157e308
    scaled = []
    for m in (1.0, big):
        rc, out, _ = run_cli(["spectrum", "--gamma", "1", "--raw-units", f"--mass={m!r}", "--length", "1e-10"], capsys)
        assert rc == 0
        scaled.append(np.array([float(v) for v in parse_csv(out)[1][0][1:]]) * m)
    assert np.allclose(scaled[1], scaled[0], rtol=1e-15, atol=0)

    rc, out, _ = run_cli(
        ["dot", "--shape", "rect", "--resolution", "3", "--count", "2", "--length", "1e-150",
         f"--mass={big!r}", "--format", "csv"],
        capsys,
    )
    assert rc == 0
    # the Neumann square's levels are 0 and t = 1/(2 m h^2), each its vector's
    # difference-form energy, so within a few ulp of t
    h = 1e-150 / 3
    t = 1.0 / (2.0 * (big * h * h))
    e0, e1 = (float(row[1]) for row in parse_csv(out)[1])
    assert abs(e1 - t) <= 4 * math.ulp(t)
    assert abs(e0) <= 4 * math.ulp(t)
    # the gamma step moves level 0 by less than its rounding: no flow
    assert parse_csv(out)[1][0][4:] == ["", ""]


@pytest.mark.parametrize("gamma, count", [("1e8", 2), ("1e10", 8), ("1e12", 8)])
def test_stiff_walls_print_no_flow_below_rounding(gamma, count, capsys):
    # the gamma step moves every level of this wall by less than its
    # rounding; a printed difference would be 0 or of the wrong sign
    rc, out, _ = run_cli(
        ["dot", "--shape", "interval", "--resolution", "8", f"--gamma={gamma}", f"--count={count}", "--format", "csv"],
        capsys,
    )
    assert rc == 0
    flows = [row[4:] for row in parse_csv(out)[1]]
    assert all(float(lhs) > 0 for lhs, _ in flows if lhs)
    if gamma == "1e8":
        assert flows == [["", ""], ["", ""]]


_WIDE = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -2.0, 5e-324, 1e-300, 1e300, -1e300, math.inf, -math.inf]),
    st.floats(allow_nan=False),
)


def _clean_exit(args, codes=(0, 2)):
    """(exit code, stdout) of one in-process run that must end in one of
    codes: no warning, no escaped exception, an error line alone on a
    nonzero exit and data alone on exit 0."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")  # a library warning would reach stderr outside pytest
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(args)
    out, err = out.getvalue(), err.getvalue()
    assert not caught, [str(w.message) for w in caught]
    assert rc in codes
    if rc != 0:
        assert out == "" and err.startswith("error: ")
    else:
        assert err == ""
    return rc, out


def _float_flags(**flags):
    return [f"--{name.replace('_', '-')}={value!r}" for name, value in flags.items() if value is not None]


def _energy_rows(out, fmt):
    """The energies of each row of a spectrum table."""
    if fmt == "csv":
        return [[float(v) for v in row[1:]] for row in parse_csv(out)[1]]
    return [[float(e) for e in r["energies"]] for r in json.loads(out)["rows"]]


@settings(max_examples=150, deadline=None)
@given(
    mass=_WIDE,
    length=_WIDE,
    gamma=st.none() | _WIDE,
    gamma_min=st.none() | _WIDE,
    gamma_max=st.none() | _WIDE,
    steps=st.integers(min_value=-1, max_value=64),
    raw=st.booleans(),
    fmt=st.sampled_from(["csv", "json"]),
)
@example(mass=1e308, length=1.0, gamma=None, gamma_min=None, gamma_max=None, steps=9, raw=False, fmt="csv")
def test_spectrum_argv_ends_in_a_clean_exit(mass, length, gamma, gamma_min, gamma_max, steps, raw, fmt):
    args = ["spectrum", f"--gamma-steps={steps}", "--format", fmt]
    args += _float_flags(mass=mass, length=length, gamma=gamma, gamma_min=gamma_min, gamma_max=gamma_max)
    if raw:
        args.append("--raw-units")
    rc, out = _clean_exit(args)
    if rc == 2:
        return
    if raw:
        if fmt == "csv":
            rows = [[float(v) for v in row] for row in parse_csv(out)[1]]
        else:
            rows = [[float(r["gamma"]), *map(float, r["energies"])] for r in json.loads(out)["rows"]]
        for row_gamma, *energies in rows:
            alone = box1d.solve_spectrum(box1d.BoxSpec(mass, length, row_gamma), 5)
            assert energies == [s.energy for s in alone]
    else:
        # every scaled energy is finite and is its raw energy times the scale, bit for bit
        scale = 2.0 * (mass * length * length) / math.pi**2
        raw_rc, raw_out = _clean_exit(args + ["--raw-units"])
        assert raw_rc == 0
        for scaled, unscaled in zip(_energy_rows(out, fmt), _energy_rows(raw_out, fmt), strict=True):
            assert all(map(math.isfinite, scaled))
            assert [e.hex() for e in scaled] == [(e * scale).hex() for e in unscaled]


@settings(max_examples=100, deadline=None)
@given(
    eta=st.none() | _WIDE,
    eta_min=st.none() | _WIDE,
    eta_max=st.none() | _WIDE,
    steps=st.integers(min_value=-1, max_value=64),
    fmt=st.sampled_from(["csv", "json"]),
)
def test_dirac_argv_ends_in_a_clean_exit(eta, eta_min, eta_max, steps, fmt):
    args = ["dirac", f"--eta-steps={steps}", "--format", fmt]
    rc, out = _clean_exit(args + _float_flags(eta=eta, eta_min=eta_min, eta_max=eta_max))
    if rc == 2:
        return
    # the table and the oracle-checked dispersion_2p1 share one closed form
    if fmt == "csv":
        header, rows = parse_csv(out)
        rows = [dict(zip(header, row)) for row in rows]
    else:
        rows = json.loads(out)["rows"]
    for row in rows:
        point = dirac_wall.dispersion_2p1(dirac_wall.EtaWall(float(row["eta"])), 0.0)
        assert float(row["speed_over_c"]).hex() == point.speed.hex()
        assert float(row["chemical_potential_over_mc2"]).hex() == point.chemical_potential.hex()


@settings(max_examples=100, deadline=None)
@given(
    gamma=_WIDE,
    k_min=_WIDE,
    k_max=_WIDE,
    steps=st.integers(min_value=-1, max_value=64),
    fmt=st.sampled_from(["csv", "json"]),
)
@example(gamma=0.0, k_min=1.0, k_max=math.inf, steps=2, fmt="csv")  # inf * 0 in the k grid
def test_scatter_argv_ends_in_a_clean_exit(gamma, k_min, k_max, steps, fmt):
    args = ["scatter", f"--k-steps={steps}", "--format", fmt]
    _clean_exit(args + _float_flags(gamma=gamma, k_min=k_min, k_max=k_max))


@settings(max_examples=100, deadline=None)
@given(
    gamma=_WIDE,
    mass=_WIDE,
    epsilons=st.lists(_WIDE, min_size=1, max_size=4),
    fmt=st.sampled_from(["csv", "json"]),
)
def test_wall_argv_ends_in_a_clean_exit(gamma, mass, epsilons, fmt):
    args = ["wall", "--epsilons=" + ",".join(map(repr, epsilons)), "--format", fmt]
    _clean_exit(args + _float_flags(gamma=gamma, mass=mass))


@settings(max_examples=100, deadline=None)
@given(
    shape=st.sampled_from(["interval", "rect", "disk", "annulus"]),
    resolution=st.integers(min_value=-1, max_value=24),
    count=st.integers(min_value=-1, max_value=8),
    length=st.none() | _WIDE,
    length2=st.none() | _WIDE,
    gamma=st.none() | _WIDE,
    mass=st.none() | _WIDE,
    fmt=st.sampled_from(["csv", "json"]),
)
def test_dot_argv_ends_in_a_clean_exit(shape, resolution, count, length, length2, gamma, mass, fmt):
    args = ["dot", "--shape", shape, f"--resolution={resolution}", f"--count={count}", "--format", fmt]
    _clean_exit(
        args + _float_flags(length=length, length2=length2, gamma=gamma, mass=mass), codes=(0, 2, 4)
    )


# JSON values a junction file may hold where a number belongs
_JSON_VALUE = st.one_of(
    _WIDE,
    st.sampled_from(["nan", "inf", "-inf", "1", "x", None, {}]),
    st.booleans(),
    st.integers(min_value=2**1024, max_value=2**1100).flatmap(lambda n: st.sampled_from([n, -n])),
    st.integers(min_value=-3, max_value=3),
)
_JSON_PAIR = st.one_of(
    st.lists(_JSON_VALUE, min_size=2, max_size=2),
    st.lists(_JSON_VALUE, max_size=3),
    st.lists(st.lists(_JSON_VALUE, max_size=2), min_size=2, max_size=2),
    _JSON_VALUE,
)


@settings(max_examples=150, deadline=None)
@given(
    entries=st.one_of(
        st.lists(st.lists(_JSON_VALUE, min_size=2, max_size=2), min_size=4, max_size=4),
        st.lists(_JSON_PAIR, min_size=3, max_size=5),
        _JSON_VALUE,
    ),
    theta=st.none() | _JSON_VALUE,
    fmt=st.sampled_from(["csv", "json"]),
)
def test_hetero_file_ends_in_a_clean_exit(entries, theta, fmt, tmp_path_factory):
    path = tmp_path_factory.getbasetemp() / "fuzzed_matrix.json"
    write_matrix(path, entries, theta)
    _clean_exit(["hetero", "--matrix", str(path), "--format", fmt], codes=(0, 2, 3, 4))


def _fresh_python(code, *args, **changes):
    """stdout of `python -c code args` in a new interpreter that imports this sae_lab,
    with the environment variables in ``changes`` set, or removed where None."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    env = {name: value for name, value in {**env, **changes}.items() if value is not None}
    result = subprocess.run(
        [sys.executable, "-c", code, *args], env=env, capture_output=True, text=True, check=True
    )
    return result.stdout.strip()


def test_cli_import_leaves_scipy_optimize_out():
    code = "import sys, sae_lab.cli; print(sorted(m for m in sys.modules if m.startswith('scipy.optimize')))"
    assert _fresh_python(code) == "[]"


_MAIN_THEN_MODULES = (
    "import contextlib, io, sys, sae_lab.cli\n"
    "with contextlib.redirect_stdout(io.StringIO()):\n"
    "    rc = sae_lab.cli.main(sys.argv[1:])\n"
    "loaded = [m for m in sys.modules if m == 'scipy' or m.startswith('scipy.') or m == 'sae_lab.qdot_fd']\n"
    "print(rc, sorted(loaded))"
)


@pytest.mark.parametrize(
    "args",
    [
        ["spectrum", "--gamma-steps", "5"],
        ["scatter", "--k-steps", "3"],
        ["wall"],
        ["dirac", "--eta-steps", "5"],
        ["hetero"],
    ],
    ids=lambda args: args[0],
)
def test_closed_form_subcommands_leave_scipy_out(args, tmp_path):
    # only dot needs scipy, so no other subcommand pays for importing it
    if args == ["hetero"]:
        path = tmp_path / "ok.json"
        write_matrix(path, [[1, 0], [0, 0], [0, 0], [1, 0]])
        args = ["hetero", "--matrix", str(path)]
    assert _fresh_python(_MAIN_THEN_MODULES, *args) == "0 []"


def test_dot_still_loads_its_solver():
    out = _fresh_python(_MAIN_THEN_MODULES, "dot", "--shape", "disk", "--resolution", "16")
    rc, loaded = out.split(" ", 1)
    assert rc == "0"
    assert "sae_lab.qdot_fd" in loaded and "'scipy'" in loaded


# Importing cli sets OPENBLAS_NUM_THREADS in this process too, so each child
# below names the value it starts with, or removes it.
@pytest.mark.parametrize("threads, expected", [(None, "1"), ("2", "2")])
def test_cli_import_sets_one_blas_thread_unless_the_user_set_a_count(threads, expected):
    code = "import os, sae_lab.cli; print(os.environ['OPENBLAS_NUM_THREADS'])"
    assert _fresh_python(code, OPENBLAS_NUM_THREADS=threads) == expected


@pytest.mark.parametrize("gamma", ["-1", "1"])
def test_dot_bytes_with_the_default_blas_threads_equal_one_thread(gamma):
    # disk-64 flow lhs values move by ~1e-10 between 1 and 2 BLAS threads
    code = "import sys, sae_lab.cli; sys.exit(sae_lab.cli.main(sys.argv[1:]))"
    args = ["dot", "--shape", "disk", "--resolution", "64", "--count", "6", "--format", "json", f"--gamma={gamma}"]
    unset = _fresh_python(code, *args, OPENBLAS_NUM_THREADS=None)
    assert json.loads(unset)["levels"][0]["flow"] is not None
    assert unset == _fresh_python(code, *args, OPENBLAS_NUM_THREADS="1")
