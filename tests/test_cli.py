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

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import sae_lab.cli as cli
from sae_lab import box1d, qdot_fd
from sae_lab.errors import InvalidArgumentError, SolverFailureError


def run_cli(args, capsys):
    rc = cli.main(args)
    out, err = capsys.readouterr()
    return rc, out, err


def parse_csv(text):
    lines = text.strip().split("\n")
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


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


def test_run_config_rejects_unknown_format():
    with pytest.raises(InvalidArgumentError):
        cli.RunConfig("spectrum", {"format": "xml"})


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


def test_dot_io_and_usage_failures(tmp_path, capsys):
    rc, out, err = run_cli(["dot", "--grid", str(tmp_path / "missing.grid")], capsys)
    assert rc == 3
    assert out == ""
    assert "error" in err
    rc, _, err = run_cli(
        ["dot", "--shape", "interval", "--resolution", "10", "--count", "100"], capsys
    )
    assert rc == 2


@pytest.mark.parametrize("gamma, solves", [("1", 3), ("inf", 1)])
def test_dot_solves_once_per_gamma(gamma, solves, monkeypatch, capsys):
    # one solve at gamma, plus one at each of gamma +- step for the flow check
    calls = []
    real = qdot_fd.solve_lowest

    def counting(ham, count):
        calls.append(count)
        return real(ham, count)

    monkeypatch.setattr(qdot_fd, "solve_lowest", counting)
    rc, _, _ = run_cli(["dot", "--shape", "disk", "--resolution", "64", "--gamma", gamma], capsys)
    assert rc == 0
    assert len(calls) == solves


def test_solver_failure_maps_to_exit_4(monkeypatch, capsys):
    def boom(ham, count):
        raise SolverFailureError("synthetic failure")

    monkeypatch.setattr(cli.qdot_fd, "solve_lowest", boom)
    rc, out, err = run_cli(["dot", "--shape", "disk", "--resolution", "16"], capsys)
    assert rc == 4
    assert "synthetic failure" in err


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
    rc, _, err = run_cli(["wall", "--epsilons", "0.02,zebra"], capsys)
    assert rc == 2


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
    bad.write_text("{not json")
    rc, _, err = run_cli(["hetero", "--matrix", str(bad)], capsys)
    assert rc == 3


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


def test_dirac_rows_do_not_depend_on_units(capsys):
    # every column is in units of m and c, so they drop out of the rows
    rc, plain, _ = run_cli(["dirac", "--eta-steps", "41"], capsys)
    assert rc == 0
    rc, scaled, _ = run_cli(["dirac", "--eta-steps", "41", "--mass", "2.5", "--light-speed", "3"], capsys)
    assert rc == 0
    assert scaled == plain


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
        (["dot", "--shape", "rect", "--resolution", "8", "--length", "inf"], 2),
        (["dot", "--shape", "disk", "--resolution", "8", "--length", "inf"], 2),
        (["dot", "--shape", "rect", "--resolution", "8", "--length2", "1e300"], 2),
        # 8e17 cells fit numpy's index type, but not in memory
        (["dot", "--shape", "rect", "--resolution", "8", "--length2", "1e17"], 2),
        (["dot", "--shape", "rect", "--resolution", "2", "--count", "4"], 0),
        (["dot", "--shape", "rect", "--resolution", "2", "--count", "3"], 0),
        # levels 1-2 of this annulus are a degenerate pair that Lanczos can cut in two
        (["dot", "--shape", "annulus", "--resolution", "64", "--length", "1.3297881602528314", "--gamma", "5"], 0),
        # |gamma| h beyond 2^52 is the Dirichlet wall, asked for as --gamma inf
        (["dot", "--shape", "disk", "--resolution", "16", "--gamma", "1e300"], 2),
        (["dot", "--shape", "interval", "--resolution", "8", "--gamma=-1e300"], 2),
        # q = pi/(2 eps) or V0 = q^2/2m overflows
        (["wall", "--epsilons", "1e-320"], 2),
        (["wall", "--mass", "5e-324", "--epsilons", "6.0416529135347695e-59"], 2),
        # q epsilon overflows
        (["wall", "--gamma=-282380978", "--epsilons", "1e300"], 2),
        # m c underflows to 0, but no row depends on m or c
        (["dirac", "--mass", "1e-300", "--light-speed", "1e-300", "--eta", "2"], 0),
        (["dirac", "--eta", "nan"], 2),
    ],
    ids=lambda value: " ".join(value) if isinstance(value, list) else f"exit{value}",
)
@pytest.mark.filterwarnings("error")  # a library warning would reach stderr outside pytest
def test_edge_inputs_end_in_a_clean_exit(args, code, capsys):
    rc, out, err = run_cli(args, capsys)
    assert rc == code
    if code == 0:
        assert err == ""
    else:
        assert out == ""
        assert err.startswith("error: ")


_WIDE = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -2.0, 5e-324, 1e-300, 1e300, -1e300, math.inf, -math.inf]),
    st.floats(allow_nan=False),
)


def _clean_exit(args):
    """(exit code, stdout) of one in-process run that must end in exit 0 or 2:
    no warning, no escaped exception, an error line alone on exit 2 and
    data alone on exit 0."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")  # a library warning would reach stderr outside pytest
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(args)
    out, err = out.getvalue(), err.getvalue()
    assert not caught, [str(w.message) for w in caught]
    assert rc in (0, 2)
    if rc == 2:
        assert out == "" and err.startswith("error: ")
    else:
        assert err == ""
    return rc, out


def _float_flags(**flags):
    return [f"--{name.replace('_', '-')}={value!r}" for name, value in flags.items() if value is not None]


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


@settings(max_examples=100, deadline=None)
@given(
    mass=_WIDE,
    light_speed=_WIDE,
    eta=st.none() | _WIDE,
    eta_min=st.none() | _WIDE,
    eta_max=st.none() | _WIDE,
    steps=st.integers(min_value=-1, max_value=64),
    fmt=st.sampled_from(["csv", "json"]),
)
def test_dirac_argv_ends_in_a_clean_exit(mass, light_speed, eta, eta_min, eta_max, steps, fmt):
    args = ["dirac", f"--eta-steps={steps}", "--format", fmt]
    _clean_exit(args + _float_flags(
        mass=mass, light_speed=light_speed, eta=eta, eta_min=eta_min, eta_max=eta_max
    ))


@settings(max_examples=100, deadline=None)
@given(
    gamma=_WIDE,
    k_min=_WIDE,
    k_max=_WIDE,
    steps=st.integers(min_value=-1, max_value=64),
    fmt=st.sampled_from(["csv", "json"]),
)
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


def test_cli_import_leaves_scipy_optimize_out():
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = "import sys, sae_lab.cli; print(sorted(m for m in sys.modules if m.startswith('scipy.optimize')))"
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "[]"
