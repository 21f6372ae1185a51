import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from perisum import cli
from perisum import energy as en
from perisum import kernel as kn
from perisum import validate as vd
from perisum.lattice import lattice_preset


def run_cli(args):
    return cli.main(args)


def test_kernel_eval_json(tmp_path, capsys):
    out = tmp_path / "kv.json"
    code = run_cli(["kernel-eval", "--lattice", "Z1", "--potential", "riesz:2",
                    "--x", "0.5", "--y", "0", "--tol", "1e-12",
                    "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    expect = math.pi**2 - 2.0 * math.sqrt(math.pi)
    assert payload["value"] == pytest.approx(expect, rel=1e-12)
    assert payload["plan"]["potential"] == "riesz:2"
    assert payload["terms_direct"] > 0
    assert "version" in payload


def test_kernel_eval_z2_example(tmp_path):
    out = tmp_path / "kv.json"
    code = run_cli(["kernel-eval", "--lattice", "Z2", "--potential",
                    "riesz:0.75", "--x", "0.3,0.1", "--y", "0,0",
                    "--tol", "1e-10", "--eta", "1", "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    for key in ("value", "abs_err_bound", "terms_direct", "terms_dual"):
        assert key in payload


def test_bad_potential_exits_2(capsys):
    code = run_cli(["kernel-eval", "--lattice", "Z1", "--potential",
                    "riesz:-1", "--x", "0.5", "--y", "0"])
    assert code == 2
    assert "positive" in capsys.readouterr().err


def test_missing_basis_file_exits_2(capsys):
    code = run_cli(["kernel-eval", "--lattice", "/nonexistent/basis.json",
                    "--potential", "riesz:2", "--x", "0.5", "--y", "0"])
    assert code == 2


def test_bad_point_dimension_exits_2(capsys):
    code = run_cli(["kernel-eval", "--lattice", "Z2", "--potential",
                    "riesz:2", "--x", "0.5,0.5,0.5", "--y", "0,0"])
    assert code == 2


def test_lattice_basis_file(tmp_path):
    basis = tmp_path / "basis.json"
    basis.write_text(json.dumps([[2.0, 0.0], [0.0, 2.0]]))
    out = tmp_path / "kv.json"
    code = run_cli(["kernel-eval", "--lattice", str(basis), "--potential",
                    "riesz:2", "--x", "0.5,0.5", "--y", "0,0",
                    "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["lattice"]["dim"] == 2
    assert payload["lattice"]["basis"] == [1.0, 0.0, 0.0, 1.0]


def test_energy_command(tmp_path):
    pts = tmp_path / "points.json"
    pts.write_text(json.dumps([[0.0], [0.5]]))
    out = tmp_path / "energy.json"
    code = run_cli(["energy", "--lattice", "Z1", "--potential", "riesz:2",
                    "--points", str(pts), "--tol", "1e-12",
                    "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    expect = 2.0 * math.pi**2 - 4.0 * math.sqrt(math.pi)
    assert payload["energy"] == pytest.approx(expect, rel=1e-12)
    assert payload["degenerate_pairs"] == []


@pytest.mark.parametrize("lattice,potential,x,y", [
    ("Z1", "riesz:2.5", "0.44600058973038437", "0.4494994397668116"),
    ("Z1", "logriesz:3", "0.3", "0"),
    ("Z2", "logriesz:4", "0.3,0.2", "0,0"),
], ids=["Z1-riesz2.5-near-lattice", "Z1-logriesz3", "Z2-logriesz4"])
def test_kernel_eval_eta_spread_within_bounds(tmp_path, lattice, potential, x, y):
    # the eta = 1 and eta = 4 values differ by at most the sum of their
    # reported bounds.  The truncation bound alone missed these by 116x
    # (one ulp of a value of 1.4e6 next to a lattice point), 48x and 25x
    # (a sigma-stencil's error at the integer dual order -1)
    out = tmp_path / "kv.json"
    payloads = []
    for eta in ("1", "4"):
        assert run_cli(["kernel-eval", "--lattice", lattice,
                        "--potential", potential, "--x", x, "--y", y,
                        "--tol", "1e-12", "--eta", eta, "--out", str(out)]) == 0
        payloads.append(json.loads(out.read_text()))
    one, four = payloads
    assert abs(one["value"] - four["value"]) <= (
        one["abs_err_bound"] + four["abs_err_bound"])


def test_energy_payload_carries_abs_err_bound(tmp_path):
    # the energy payload reports EnergyReport.abs_err_bound, N(N-1) times
    # the plan's bound, and the energy lies within it of the exact value
    pts = tmp_path / "points.json"
    pts.write_text(json.dumps([[0.0], [0.25], [0.5], [0.75]]))
    out = tmp_path / "energy.json"
    assert run_cli(["energy", "--lattice", "Z1", "--potential", "riesz:2",
                    "--points", str(pts), "--tol", "1e-10", "--eta", "2",
                    "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    lat = lattice_preset("Z1")
    pot = kn.Riesz(2.0)
    plan = kn.plan_ewald(lat, pot, 1e-10, eta=2.0)
    cfg = en.Configuration(lat, np.array([[0.0], [0.25], [0.5], [0.75]]))
    rep = en.total_energy(cfg, pot, plan)
    bound = payload["abs_err_bound"]
    assert bound == rep.abs_err_bound == 12 * plan.guaranteed_abs_err
    assert abs(payload["energy"] - vd.riesz_1d_minimum(4, 2.0)) <= bound


def test_energy_payload_carries_grad_abs_err_bound(tmp_path):
    # with --gradient the payload adds EnergyReport.grad_abs_err_bound, and
    # the gradient lies within it of a tol-1e-14 plan's; without it the
    # payload has no such key
    points = [[0.1, 0.7], [0.4, 0.2], [0.8, 0.5]]
    pts = tmp_path / "points.json"
    pts.write_text(json.dumps(points))
    out = tmp_path / "energy.json"
    argv = ["energy", "--lattice", "hex", "--potential", "logriesz:0.5",
            "--points", str(pts), "--tol", "1e-8", "--out", str(out)]
    assert run_cli(argv) == 0
    assert "grad_abs_err_bound" not in json.loads(out.read_text())
    assert run_cli(argv + ["--gradient"]) == 0
    payload = json.loads(out.read_text())
    lat = lattice_preset("hex")
    pot = kn.LogRiesz(0.5)
    cfg = en.Configuration(lat, np.array(points))
    plan = kn.plan_ewald(lat, pot, 1e-8)
    rep = en.total_energy(cfg, pot, plan, with_gradient=True)
    bound = payload["grad_abs_err_bound"]
    assert bound == rep.grad_abs_err_bound > 0.0
    tight = kn.plan_ewald(lat, pot, 1e-14, eta=plan.eta)
    exact = en.total_energy(cfg, pot, tight, with_gradient=True).gradient
    assert np.max(np.abs(np.array(payload["gradient"]) - exact)) <= bound


def test_minimize_deterministic_output(tmp_path):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    args = ["minimize", "--lattice", "Z1", "--potential", "riesz:2",
            "--N", "4", "--restarts", "2", "--seed", "42",
            "--max-iters", "300"]
    assert run_cli(args + ["--out", str(out1)]) == 0
    assert run_cli(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    payload = json.loads(out1.read_text())
    assert "plan" in payload and "restart_energies" in payload
    assert len(payload["restart_energies"]) == 2


def test_minimize_zero_iterations_reports_the_start(tmp_path):
    out = tmp_path / "m.json"
    assert run_cli(["minimize", "--lattice", "Z2", "--potential", "riesz:1",
                    "--N", "4", "--restarts", "1", "--max-iters", "0",
                    "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    start = en.Configuration.lattice_refinement(lattice_preset("Z2"), 2)
    assert payload["points"] == start.points.tolist()
    assert payload["converged"] is False
    assert payload["restart_energies"] == [payload["best_energy"]]


def test_growth_csv(tmp_path):
    out = tmp_path / "growth.csv"
    code = run_cli(["growth", "--lattice", "Z1", "--potential", "riesz:0.5",
                    "--N", "4,8", "--restarts", "1", "--format", "csv",
                    "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "N,E,E_per_N2,E_per_N_power,E_per_N2_logN"
    assert len(lines) == 3
    first = lines[1].split(",")
    assert int(first[0]) == 4
    # 17 significant digits round-trip
    assert float(first[1]) == pytest.approx(
        float(f"{float(first[1]):.17g}"), abs=0.0)


def test_validate_suite_exit_zero(capsys, tmp_path):
    out = tmp_path / "checks.json"
    code = run_cli(["validate", "--suite", "1d", "--json", str(out)])
    assert code == 0
    checks = json.loads(out.read_text())
    assert all(c["passed"] for c in checks)
    stdout = capsys.readouterr().out
    assert "checks passed" in stdout


def test_specfun_eval(capsys):
    code = run_cli(["specfun-eval", "--fn", "riemann_zeta", "--args", "2"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["value"] == pytest.approx(math.pi**2 / 6.0, rel=1e-13)


def test_origin_shorthand(tmp_path):
    out = tmp_path / "kv.json"
    code = run_cli(["kernel-eval", "--lattice", "Z2", "--potential",
                    "riesz:0.75", "--x", "0.3,0.1", "--y", "0",
                    "--out", str(out)])
    assert code == 0


def test_config_file_mirrors_flags(tmp_path):
    conf = tmp_path / "run.json"
    conf.write_text(json.dumps({
        "lattice": "Z1", "potential": "riesz:2", "N": 4,
        "restarts": 2, "seed": 42, "max_iters": 300,
    }))
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    assert run_cli(["minimize", "--config", str(conf),
                    "--out", str(out1)]) == 0
    assert run_cli(["minimize", "--lattice", "Z1", "--potential", "riesz:2",
                    "--N", "4", "--restarts", "2", "--seed", "42",
                    "--max-iters", "300", "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    # explicit flag overrides the config value
    out3 = tmp_path / "c.json"
    assert run_cli(["minimize", "--config", str(conf), "--N", "3",
                    "--out", str(out3)]) == 0
    assert len(json.loads(out3.read_text())["points"]) == 3


def test_help_exits_zero():
    assert run_cli(["--help"]) == 0


def test_minimize_payload_matches_stored_output(tmp_path):
    # minimize --lattice Z2 --potential riesz:1 --N 4 --restarts 2 --seed 3
    # --max-iters 200 as written before the plan was taken from the
    # MinimizeResult instead of being rebuilt for the provenance block;
    # points written again by the L-BFGS minimizer, which lands on the x<->y
    # mirror image (plus a translation) of the gradient-descent minimum
    stored = json.loads(
        (Path(__file__).parent / "data" / "minimize_z2_riesz1.json").read_text())
    out = tmp_path / "m.json"
    assert run_cli(["minimize", "--lattice", "Z2", "--potential", "riesz:1",
                    "--N", "4", "--restarts", "2", "--seed", "3",
                    "--max-iters", "200", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert list(payload) == list(stored)
    assert list(payload["plan"]) == list(stored["plan"])

    def close(a, b):
        # the kernel sums may move in the last few ulps between versions
        if isinstance(a, float):
            return a == pytest.approx(b, rel=1e-12, abs=1e-12)
        if isinstance(a, list):
            return len(a) == len(b) and all(close(x, y) for x, y in zip(a, b))
        if isinstance(a, dict):
            return all(close(a[k], b[k]) for k in a)
        return a == b

    for key in payload:
        assert close(payload[key], stored[key]), key
    # the reused plan is the one a fresh plan_ewald call builds for 4
    # points (eta = 8; the per-pair plan takes 16, and the file was written
    # again when minimize began pricing the split for its point count)
    z2 = lattice_preset("Z2")
    fresh = kn.plan_ewald(z2, kn.Riesz(1.0), 1e-10, n_points=4)
    assert payload["plan"] == json.loads(json.dumps(fresh.to_json_dict()))
    # the points are path-dependent, their energy is not: both the payload's
    # and the gradient-descent points stored before carry best_energy
    descent_points = [[0.3655114197805002, 0.6906785093754567],
                      [0.8655113867970917, 0.9406787412252169],
                      [0.36551141978050017, 0.1906785093750677],
                      [0.8655113867970917, 0.4406787412256441]]
    for points in (payload["points"], descent_points):
        e = en.total_energy(en.Configuration(z2, np.array(points)),
                            kn.Riesz(1.0), fresh).energy
        assert abs(e - payload["best_energy"]) <= (
            1e-12 * abs(payload["best_energy"]))
    # and best_energy is within its plan's bound of the energy of its
    # points on a tol-1e-15 plan
    rep = en.total_energy(en.Configuration(z2, np.array(payload["points"])),
                          kn.Riesz(1.0), fresh)
    tight = en.total_energy(en.Configuration(z2, np.array(payload["points"])),
                            kn.Riesz(1.0), kn.plan_ewald(z2, kn.Riesz(1.0), 1e-15))
    assert abs(payload["best_energy"] - tight.energy) <= (
        rep.abs_err_bound + tight.abs_err_bound)


def test_kernel_eval_gaussian_through_plan(tmp_path):
    # kernel-eval evaluates the Gaussian through its plan; the value agrees,
    # within its own bound, with the direct side of check_poisson, a box
    # walk that shares no shells, tail bound or family code with the plan,
    # less the lattice-average constant (pi/c)^(d/2) that applies for c < 1;
    # the plan records the requested eta, which the Gaussian does not read
    out = tmp_path / "kv.json"
    rng = np.random.default_rng(11)
    for name in ("Z1", "Z2", "Z3", "hex", "fcc-like"):
        lat = lattice_preset(name)
        d = lat.dimension
        for c, tol in ((0.5, 1e-12), (2.0, 1e-10)):
            const = (math.pi / c) ** (d / 2.0) if c < 1.0 else 0.0
            for _ in range(3):
                x, y = rng.random(d), rng.random(d)
                assert run_cli([
                    "kernel-eval", "--lattice", name,
                    "--potential", f"gaussian:{c:g}",
                    "--x", ",".join(repr(float(v)) for v in x),
                    "--y", ",".join(repr(float(v)) for v in y),
                    "--tol", repr(tol), "--eta", "4", "--out", str(out)]) == 0
                payload = json.loads(out.read_text())
                ref = vd.check_poisson(lat, lat.to_cartesian(x - y), c).lhs - const
                assert abs(payload["value"] - ref) <= payload["abs_err_bound"]
                assert payload["terms_direct"] == payload["plan"]["terms_direct"]
                assert payload["terms_dual"] == 0
                assert payload["plan"]["eta"] == 4.0


def test_growth_takes_its_plan_from_the_minimizations(tmp_path, monkeypatch):
    # growth --lattice Z2 --potential riesz:1 --N 4,9 --restarts 1 --seed 2
    # --max-iters 300 as written while the provenance plan was rebuilt by
    # an extra plan_ewald call, and each N planned again
    stored = (Path(__file__).parent / "data" / "growth_z2_riesz1.json").read_text()
    calls = []
    plan_ewald = kn.plan_ewald

    def counted(*args, **kwargs):
        calls.append(args)
        return plan_ewald(*args, **kwargs)

    monkeypatch.setattr(kn, "plan_ewald", counted)
    out = tmp_path / "g.json"
    assert run_cli(["growth", "--lattice", "Z2", "--potential", "riesz:1",
                    "--N", "4,9", "--restarts", "1", "--seed", "2",
                    "--max-iters", "300", "--out", str(out)]) == 0
    assert len(calls) == 1  # one plan serves every N
    payload, expect = json.loads(out.read_text()), json.loads(stored)
    assert list(payload) == list(expect)
    assert payload["columns"] == expect["columns"]
    for row, ref in zip(payload["rows"], expect["rows"], strict=True):
        assert row[0] == ref[0]
        assert row[1:] == pytest.approx(ref[1:], rel=1e-12)
    assert list(payload["plan"]) == list(expect["plan"])
    for key, value in payload["plan"].items():
        assert value == pytest.approx(expect["plan"][key], rel=1e-12), key
    fresh = plan_ewald(lattice_preset("Z2"), kn.Riesz(1.0), 1e-10)
    assert payload["plan"] == json.loads(json.dumps(fresh.to_json_dict()))


def test_provenance_ignores_threads_variable(tmp_path, monkeypatch):
    monkeypatch.setenv("PERISUM_THREADS", "4")
    out = tmp_path / "kv.json"
    assert run_cli(["kernel-eval", "--lattice", "Z1", "--potential", "log",
                    "--x", "0.25", "--y", "0", "--out", str(out)]) == 0
    assert "threads" not in json.loads(out.read_text())


def test_specfun_eval_rejects_extra_arguments(capsys):
    # riemann_zeta takes s alone; a second value used to land in an
    # ignored policy parameter
    assert run_cli(["specfun-eval", "--fn", "riemann_zeta",
                    "--args", "2,3"]) == 2
    assert "bad arguments" in capsys.readouterr().err
    assert run_cli(["specfun-eval", "--fn", "digamma", "--args", "one"]) == 2
    assert "--args" in capsys.readouterr().err


def test_parser_built_once_survives_a_usage_error(capsys):
    # main shares one parser per process; after an argparse usage error,
    # and call after call, it must parse as a fresh process does (the
    # defaults of --tol and --eta included)
    argv = ["kernel-eval", "--lattice", "hex", "--potential", "logriesz:0.5",
            "--x", "0.3,0.1", "--y", "0"]
    assert run_cli(["kernel-eval", "--lattice", "hex", "--potential",
                    "log", "--x", "0.3,0.1"]) == 2
    assert "--y" in capsys.readouterr().err
    outs = []
    for _ in range(2):
        assert run_cli(argv) == 0
        outs.append(capsys.readouterr().out)
    assert cli.build_parser() is cli.build_parser()
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    fresh = subprocess.run([sys.executable, "-m", "perisum.cli", *argv],
                           capture_output=True, text=True, env=env, check=True)
    assert outs == [fresh.stdout] * 2


def _assert_one_error_line(capsys):
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), captured.err
    assert "budget" not in lines[0]


@pytest.mark.parametrize("argv", [
    ["minimize", "--lattice", "Z1", "--potential", "riesz:2", "--N", "4",
     "--restarts", "0"],
    ["growth", "--lattice", "Z1", "--potential", "riesz:2", "--N", "4,8",
     "--restarts", "0"],
    ["kernel-eval", "--potential", "riesz:2", "--x", "0.3", "--y", "0",
     "--tol", "0"],
    ["kernel-eval", "--potential", "riesz:2", "--x", "0.3", "--y", "0",
     "--tol", "nan"],
    ["kernel-eval", "--potential", "riesz:2", "--x", "0.3", "--y", "0",
     "--eta", "-1"],
    ["kernel-eval", "--potential", "riesz:2", "--x", "0.3", "--y", "0",
     "--tol", "1e-17"],
    ["kernel-eval", "--potential", "riesz:2", "--x", "nan", "--y", "0"],
    ["growth", "--lattice", "Z1", "--potential", "riesz:2", "--N", "8,4"],
    ["specfun-eval", "--fn", "digamma", "--args=-1"],
    ["specfun-eval", "--fn", "exp_integral_e1", "--args=0"],
    ["specfun-eval", "--fn", "hurwitz_zeta", "--args=2,-1"],
    ["specfun-eval", "--fn", "gamma_upper", "--args=1,-1"],
    ["minimize", "--lattice", "Z1", "--potential", "riesz:2", "--N", "4",
     "--seed=-1"],
    ["growth", "--lattice", "Z1", "--potential", "riesz:2", "--N", "4,8",
     "--seed=-1"],
    ["validate", "--suite", "shift", "--seed=-1"],
], ids=["minimize-restarts-0", "growth-restarts-0", "tol-0", "tol-nan",
        "eta-negative", "tol-below-rounding-floor", "nan-point",
        "growth-decreasing-N",
        "digamma-negative", "e1-zero", "hurwitz-negative-q",
        "gamma-upper-negative-x", "minimize-seed-negative",
        "growth-seed-negative", "validate-seed-negative"])
def test_out_of_domain_input_exits_1(argv, capsys):
    assert run_cli(argv) == 1
    _assert_one_error_line(capsys)


def test_skewed_basis_exits_1(tmp_path, capsys):
    # the planner's shell walk refuses the sheared basis's 1e10-point
    # integer box instead of allocating it
    path = tmp_path / "basis.json"
    path.write_text(json.dumps([[1, 3000], [0, 1]]))
    assert run_cli(["kernel-eval", "--lattice", str(path), "--potential",
                    "riesz:1", "--x", "0.3,0.1", "--y", "0"]) == 1
    _assert_one_error_line(capsys)


@pytest.mark.parametrize("points", [[[0.1], [math.nan]], [[0.1, 0.2], [0.3, 0.4]]],
                         ids=["nan-point", "wrong-dimension"])
def test_energy_bad_points_exit_1(points, tmp_path, capsys):
    path = tmp_path / "points.json"
    path.write_text(json.dumps(points))
    assert run_cli(["energy", "--potential", "riesz:1",
                    "--points", str(path)]) == 1
    _assert_one_error_line(capsys)


@pytest.mark.parametrize("flag, text", [
    ("--lattice", "not json"),
    ("--points", "not json"),
    ("--config", "not json"),
    ("--lattice", "[[1.0, 0.0], [0.0]]"),
    ("--points", "[[0.1], [0.2, 0.3]]"),
    ("--lattice", '{"dim": 2, "basis": [2.0, 0.0, 0.0, 2.0]}'),
    ("--points", "0.5"),
    ("--config", '["--tol", "1e-8"]'),
], ids=["lattice-not-json", "points-not-json", "config-not-json",
        "ragged-basis", "ragged-points", "serialized-lattice-det-4",
        "scalar-points", "config-not-an-object"])
def test_malformed_input_file_exits_2(flag, text, tmp_path, capsys):
    # a well-formed energy call with one file replaced by a bad one (a
    # repeated --points takes the last value)
    points = tmp_path / "points.json"
    points.write_text("[[0.1], [0.6]]")
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    assert run_cli(["energy", "--potential", "riesz:1", "--points",
                    str(points), flag, str(bad)]) == 2
    _assert_one_error_line(capsys)


@pytest.mark.parametrize("argv", [
    ["kernel-eval", "--potential", "riesz:1", "--x", "0.3", "--y", "0"],
    ["energy", "--potential", "riesz:1", "--points", "points.json"],
    ["minimize", "--potential", "riesz:1", "--N", "4"],
], ids=["kernel-eval", "energy", "minimize"])
def test_format_only_for_growth(argv, capsys):
    # only growth has a table to write as CSV
    assert run_cli(argv + ["--format", "csv"]) == 2
    assert "--format" in capsys.readouterr().err


@pytest.mark.parametrize("command", [
    ["minimize", "--potential", "riesz:1", "--N", "4"],
    ["growth", "--potential", "riesz:1", "--N", "4,8"],
], ids=["minimize", "growth"])
@pytest.mark.parametrize("flag", [["--eta", "7"], ["--cartesian"]],
                         ids=["eta", "cartesian"])
def test_unread_flags_are_usage_errors(command, flag, capsys):
    # minimize and growth take no points and always split at eta = 1, so
    # neither flag would be read
    assert run_cli(command + flag) == 2
    assert flag[0] in capsys.readouterr().err


def test_energy_records_requested_eta_for_gaussian(tmp_path):
    # energy and kernel-eval follow one rule: the plan records the requested
    # eta, and the Gaussian's energy does not depend on it
    pts = tmp_path / "points.json"
    pts.write_text(json.dumps([[0.0], [0.3], [0.55]]))
    payloads = []
    for eta in ("1", "4"):
        out = tmp_path / f"energy{eta}.json"
        assert run_cli(["energy", "--potential", "gaussian:0.5", "--points",
                        str(pts), "--eta", eta, "--out", str(out)]) == 0
        payloads.append(json.loads(out.read_text()))
    assert [p["plan"]["eta"] for p in payloads] == [1.0, 4.0]
    assert payloads[0]["energy"] == payloads[1]["energy"]


def test_cli_import_leaves_out_integrate_and_optimize():
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    probe = ("import sys, perisum.cli; "
             "print(sorted(m for m in ('scipy.integrate', 'scipy.optimize') "
             "if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                         text=True, env=env, check=True).stdout
    assert out.strip() == "[]"


@pytest.mark.parametrize("command", [
    ["kernel-eval", "--x", "0.1", "--y", "0.3"],
    ["minimize", "--N", "3", "--restarts", "1"]], ids=["kernel-eval", "minimize"])
@pytest.mark.parametrize("potential, code", [
    ("gaussian:inf", 2), ("riesz:inf", 2), ("logriesz:inf", 2),
    ("riesz:400", 1)])
def test_out_of_range_family_parameter_exits_cleanly(command, potential, code,
                                                     capsys):
    # a non-finite parameter is a bad potential string; at s = 400,
    # Gamma(s/2) overflows in every term and bound, so no eta is plannable
    assert run_cli([command[0], "--potential", potential, *command[1:]]) == code
    _assert_one_error_line(capsys)


@pytest.mark.parametrize("potential", ["riesz:250", "riesz:300",
                                       "logriesz:250", "logriesz:300"])
def test_large_exponents_evaluate(potential, capsys):
    # the eta rungs whose majorants overflow are skipped, and a lower one
    # plans; on Z1 the nearest image, at distance 0.2, carries the whole
    # value.  minimize meets trials whose terms overflow to inf or NaN and
    # must reject them rather than end on one
    pot = kn.parse_potential(potential)

    def lead(r):
        return r**-pot.s * (math.log(r**-2) if isinstance(pot, kn.LogRiesz) else 1.0)

    assert run_cli(["kernel-eval", "--potential", potential, "--x", "0.1",
                    "--y", "0.3"]) == 0
    assert json.loads(capsys.readouterr().out)["value"] == pytest.approx(
        lead(0.2), rel=1e-12)
    # on Z2 the far images reach x = eta r^2 where x^(s/2) alone overflows
    assert run_cli(["kernel-eval", "--lattice", "Z2", "--potential", potential,
                    "--x", "0.2,0.1", "--y", "0,0"]) == 0
    assert json.loads(capsys.readouterr().out)["value"] == pytest.approx(
        lead(math.sqrt(0.05)), rel=1e-12)
    # three equally spaced points, the structured start, are the minimum;
    # the trials whose r^-s overflows write no warning
    assert run_cli(["minimize", "--potential", potential, "--N", "3",
                    "--restarts", "1"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert json.loads(captured.out)["best_energy"] == pytest.approx(
        6.0 * lead(1.0 / 3.0), rel=1e-12)
    # on Z2 the first step along gradients of ~1e150 and more leaves the
    # double range; minimize still ends on points whose energy it reports
    assert run_cli(["minimize", "--lattice", "Z2", "--potential", potential,
                    "--N", "3", "--restarts", "1"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    payload = json.loads(captured.out)
    z2 = lattice_preset("Z2")
    plan = kn.plan_ewald(z2, pot, 1e-10, n_points=3)
    assert payload["plan"] == json.loads(json.dumps(plan.to_json_dict()))
    assert math.isfinite(payload["best_energy"])
    e = en.total_energy(en.Configuration(z2, np.array(payload["points"])), pot,
                        plan).energy
    assert e == pytest.approx(payload["best_energy"], rel=1e-12)


@pytest.mark.parametrize("fn, args", [
    ("digamma", "nan"), ("gamma_upper", "0.25,nan"), ("gamma_upper", "nan,1"),
    ("erfc", "nan"), ("exp_integral_e1", "nan"), ("hurwitz_zeta", "2,nan"),
    ("riemann_zeta", "nan")])
def test_specfun_eval_refuses_nan(fn, args, capsys):
    assert run_cli(["specfun-eval", "--fn", fn, f"--args={args}"]) == 1
    _assert_one_error_line(capsys)


def test_specfun_eval_writes_strict_json_at_infinity(capsys):
    def strict(text):
        return json.loads(text, parse_constant=lambda c: pytest.fail(c))

    assert run_cli(["specfun-eval", "--fn", "gamma_upper",
                    "--args=0.25,inf"]) == 0
    payload = strict(capsys.readouterr().out)
    assert payload["value"] == 0.0 and payload["args"] == [0.25, "inf"]
    assert run_cli(["specfun-eval", "--fn", "digamma", "--args=inf"]) == 0
    assert strict(capsys.readouterr().out)["value"] == "inf"

