"""The benchmark's workloads: inputs drawn from the seed, the operations
("ops") of one round, and an independent oracle for every op.

Every call goes through perisum's public entry points, looked up on their
modules at call time so the tracer's wrappers see them.  Oracles run outside
the timed region.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import math

import numpy as np

import perisum
import perisum.cli
from perisum import energy, kernel, lattice, validate

PERTURB = 1e-6   # relative perturbation fed to the negative control


def derive_seed(*keys):
    """A 32-bit seed for perisum calls that take an integer, from the
    workload seed and the op's position."""
    return int(np.random.SeedSequence(list(keys)).generate_state(1)[0])


def rel_err(a, b):
    return abs(a - b) / abs(b)


def _is_number(x):
    return isinstance(x, (int, float)) and math.isfinite(x)


class Relax:
    """energy.minimize with two restarts; starts drawn from the seed."""

    CASES = (("Z1", "riesz:0.5", 32), ("Z2", "riesz:1", 16))
    TOL = 1e-12
    RESTARTS = 2

    def __init__(self, seed):
        self.seed = seed

    def setup(self):
        self.cases = {}
        for name, text, n in self.CASES:
            lat = lattice.lattice_preset(name)
            pot = kernel.parse_potential(text)
            plan = kernel.plan_ewald(lat, pot, self.TOL)
            self.cases[name] = (lat, pot, n, plan)

    def ops(self, r):
        for i, name in enumerate(self.cases):
            lat, pot, n, _ = self.cases[name]
            yield name, functools.partial(
                energy.minimize, lat, pot, n, restarts=self.RESTARTS,
                seed=derive_seed(self.seed, r, i), tol_grad=1e-8 * n * n,
                tol=self.TOL, keep_trajectory=True)

    def prepare_oracles(self):
        _, pot, n, _ = self.cases["Z1"]
        self.z1_exact = validate.riesz_1d_minimum(n, pot.s)
        lat, pot, _, _ = self.cases["Z2"]
        self.z2_plan_eta2 = kernel.plan_ewald(lat, pot, self.TOL, eta=2.0)

    def energy_ok(self, name, res, best_energy):
        if name == "Z1":
            return rel_err(best_energy, self.z1_exact) <= 1e-8
        _, pot, _, _ = self.cases["Z2"]
        again = energy.total_energy(res.best_config, pot, self.z2_plan_eta2)
        return rel_err(best_energy, again.energy) <= 1e-10

    def check(self, name, res):
        return bool(res.converged) and self.energy_ok(name, res, res.best_energy)

    def control(self, name, res):
        return self.energy_ok(name, res, res.best_energy * (1.0 + PERTURB))

    def extras(self, records):
        grad_over_tol = 0.0
        iters = []
        for _, name, res in records:
            lat, pot, n, plan = self.cases[name]
            rep = energy.total_energy(res.best_config, pot, plan,
                                      with_gradient=True)
            gmax = float(np.max(np.abs(rep.gradient)))
            grad_over_tol = max(grad_over_tol, gmax / (1e-8 * n * n))
            iters.append(len(res.trajectory_summary) - 1)
        return {
            "energy.final_grad_over_tol": grad_over_tol,
            "energy.best_restart_iters": float(np.mean(iters)),
        }


class Bulk:
    """energy.total_energy on seeded random configurations, value-only and
    with gradient."""

    CASES = (("Z3", "riesz:1", 64), ("hex", "logriesz:0.5", 96))
    TOL = 1e-12
    COULOMB_PAIRS = 8

    def __init__(self, seed):
        self.seed = seed

    def setup(self):
        self.cases = {}
        for i, (name, text, n) in enumerate(self.CASES):
            lat = lattice.lattice_preset(name)
            pot = kernel.parse_potential(text)
            plan = kernel.plan_ewald(lat, pot, self.TOL)
            cfg = energy.Configuration.random(
                lat, n, np.random.default_rng([self.seed, i]))
            self.cases[name] = (lat, pot, cfg, plan)

    def ops(self, r):
        for name, (lat, pot, cfg, plan) in self.cases.items():
            yield name + ".value", functools.partial(
                energy.total_energy, cfg, pot, plan)
            yield name + ".grad", functools.partial(
                energy.total_energy, cfg, pot, plan, with_gradient=True)

    def prepare_oracles(self):
        """eta = 2 references per case, and the Z3 pair check against the
        classical erfc form (coulomb_kernel)."""
        self.refs = {}
        for name, (lat, pot, cfg, _) in self.cases.items():
            plan2 = kernel.plan_ewald(lat, pot, self.TOL, eta=2.0)
            self.refs[name] = energy.total_energy(cfg, pot, plan2,
                                                  with_gradient=True)
        lat, pot, cfg, plan = self.cases["Z3"]
        rng = np.random.default_rng([self.seed, 99])
        n = cfg.n_points
        worst = 0.0
        for _ in range(self.COULOMB_PAIRS):
            j, k = rng.choice(n, size=2, replace=False)
            x = lat.to_cartesian(cfg.points[j])
            y = lat.to_cartesian(cfg.points[k])
            d = cfg.points[j] - cfg.points[k]
            q = lat.to_cartesian(d - np.round(d))
            vals, _, _ = kernel.evaluate_batch(lat, pot, plan, q[None, :])
            worst = max(worst, abs(float(vals[0])
                                   - kernel.coulomb_kernel(lat, x, y, plan).value))
        self.coulomb_ok = worst <= 1e-12

    def energy_ok(self, name, e):
        return math.isfinite(e) and rel_err(e, self.refs[name].energy) <= 1e-10

    def check(self, label, rep):
        name, kind = label.split(".")
        ok = self.energy_ok(name, rep.energy)
        if name == "Z3":
            ok = ok and self.coulomb_ok
        if kind == "grad":
            ref = self.refs[name].gradient
            scale = float(np.max(np.abs(ref)))
            ok = ok and float(np.max(np.abs(rep.gradient - ref))) <= 1e-6 * scale
        return ok

    def control(self, label, rep):
        return self.energy_ok(label.split(".")[0], rep.energy * (1.0 + PERTURB))

    def extras(self, records):
        return {}


class Checks:
    """cli.main over a kernel-eval grid, plus one validate --suite all."""

    PRESETS = ("Z1", "Z2", "Z3", "hex", "fcc-like")
    POTENTIALS = ("riesz:0.5", "riesz:1", "riesz:2.5", "logriesz:0.5",
                  "logriesz:1.7", "log", "gaussian:0.5", "gaussian:2")
    TOLS = (1e-6, 1e-10, 1e-12)
    ETAS = (1.0, 4.0)

    def __init__(self, seed):
        self.seed = seed

    def setup(self):
        self.dims = {p: lattice.lattice_preset(p).dimension for p in self.PRESETS}

    @staticmethod
    def _cli(argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = perisum.cli.main(argv)
        return code, buf.getvalue()

    def ops(self, r):
        rng = np.random.default_rng([self.seed, r])
        for preset in self.PRESETS:
            for pot in self.POTENTIALS:
                x, y = (",".join(repr(float(v)) for v in rng.random(self.dims[preset]))
                        for _ in range(2))
                for tol in self.TOLS:
                    for eta in self.ETAS:
                        argv = ["kernel-eval", "--lattice", preset,
                                "--potential", pot, "--x", x, "--y", y,
                                "--tol", repr(tol), "--eta", repr(eta)]
                        yield (f"kernel-eval|{preset}|{pot}|{tol!r}|{eta!r}",
                               functools.partial(self._cli, argv))
        argv = ["validate", "--suite", "all",
                "--seed", str(derive_seed(self.seed, r))]
        yield "validate", functools.partial(self._cli, argv)

    def prepare_oracles(self):
        pass

    @staticmethod
    def _validate_counts(text):
        """(passed, total) from the 'k/n checks passed' summary line."""
        lines = text.strip().splitlines()
        if not lines or not lines[-1].endswith(" checks passed"):
            return None
        passed, total = lines[-1].split()[0].split("/")
        return int(passed), int(total)

    def check(self, label, out):
        code, text = out
        if code != 0:
            return False
        if label == "validate":
            counts = self._validate_counts(text)
            return counts is not None and counts[0] == counts[1] > 0
        try:
            payload = json.loads(text)
        except ValueError:
            return False
        return _is_number(payload.get("value")) and _is_number(
            payload.get("abs_err_bound"))

    def control(self, label, out):
        """A failed validation summary and a non-finite kernel value must both
        be rejected."""
        if label == "validate":
            return self.check(label, (1, "38/39 checks passed\n"))
        payload = json.loads(out[1])
        payload["value"] = "inf"
        return self.check(label, (0, json.dumps(payload)))

    def extras(self, records):
        """Per round: the eta = 1 vs eta = 4 spread of each kernel-eval grid
        point against the sum of the two reported abs_err_bound values (which
        bounds the spread if the bounds hold), and failed validation checks."""
        values = {}
        failed_checks = 0
        for r, label, (code, text) in records:
            if label == "validate":
                counts = self._validate_counts(text)
                if counts is not None:
                    failed_checks += counts[1] - counts[0]
                continue
            if code != 0:
                continue
            payload = json.loads(text)
            key, eta = label.rsplit("|", 1)
            values[(r, key, float(eta))] = (payload["value"],
                                            payload["abs_err_bound"])
        lo, hi = self.ETAS
        violations = pairs = 0
        worst = 0.0
        for (r, key, eta), (v1, b1) in values.items():
            if eta != lo or (r, key, hi) not in values:
                continue
            v4, b4 = values[(r, key, hi)]
            if not (_is_number(v1) and _is_number(v4)):
                continue
            pairs += 1
            ratio = abs(v1 - v4) / (b1 + b4) if b1 + b4 > 0 else (
                0.0 if v1 == v4 else math.inf)
            worst = max(worst, ratio)
            violations += ratio > 1.0
        rounds = len({r for r, _, _ in records})
        return {
            "kernel.eta_pairs": pairs / rounds,
            "kernel.bound_violations": violations / rounds,
            "kernel.eta_spread_over_bound.max": worst,
            "validate.checks_failed": failed_checks / rounds,
        }


WORKLOADS = {"relax": Relax, "bulk": Bulk, "checks": Checks}
