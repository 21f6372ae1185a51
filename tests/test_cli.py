import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from perisum import cli
from perisum import kernel as kn
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
    # MinimizeResult instead of being rebuilt for the provenance block
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
    # the reused plan is the one a fresh plan_ewald call builds
    fresh = kn.plan_ewald(lattice_preset("Z2"), kn.Riesz(1.0), 1e-10)
    assert payload["plan"] == json.loads(json.dumps(fresh.to_json_dict()))


def test_kernel_eval_gaussian_through_plan(tmp_path):
    # kernel-eval evaluates the Gaussian through its plan; the value agrees
    # with the standalone gaussian_kernel, whose tail estimate and shells
    # are the plan's own
    out = tmp_path / "kv.json"
    rng = np.random.default_rng(11)
    for name in ("Z1", "Z2", "Z3", "hex", "fcc-like"):
        lat = lattice_preset(name)
        for c, tol in ((0.5, 1e-12), (2.0, 1e-10)):
            for _ in range(3):
                x, y = rng.random(lat.dimension), rng.random(lat.dimension)
                assert run_cli([
                    "kernel-eval", "--lattice", name,
                    "--potential", f"gaussian:{c:g}",
                    "--x", ",".join(repr(float(v)) for v in x),
                    "--y", ",".join(repr(float(v)) for v in y),
                    "--tol", repr(tol), "--eta", "4", "--out", str(out)]) == 0
                payload = json.loads(out.read_text())
                plan = kn.plan_ewald(lat, kn.Gaussian(c), tol)
                kv = kn.gaussian_kernel(lat, lat.to_cartesian(x),
                                        lat.to_cartesian(y), c, plan.r_cut)
                assert abs(payload["value"] - kv.value) <= 1e-13 * (
                    1.0 + abs(kv.value))
                assert payload["abs_err_bound"] == kv.abs_err_bound
                assert payload["terms_direct"] == kv.terms_direct
                assert payload["terms_dual"] == kv.terms_dual == 0
                assert payload["plan"]["eta"] == 1.0


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
