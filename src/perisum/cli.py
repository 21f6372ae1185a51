"""Command-line front end.

Subcommands: kernel-eval, energy, minimize, growth, validate, specfun-eval.
Points are fractional coordinates by default (--cartesian converts through
the basis).  Output is JSON or CSV with 17 significant digits so files
round-trip losslessly; identical arguments and seed reproduce bitwise
identical files.  Exit codes: 0 success, 1 failed validation, 2 usage error.

Environment: PERISUM_TOL overrides the default tolerance when --tol is not
given.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

import numpy as np

from . import __version__
from . import energy as en
from . import kernel as kn
from . import specfun as sf
from . import validate as vd
from .errors import PerisumError, UsageError
from .lattice import Lattice, PRESETS, lattice_preset

_DEFAULT_TOL = 1e-10


def _fmt(x):
    if isinstance(x, float):
        return float(f"{x:.17g}")
    return x


def _json_default(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    raise TypeError(f"cannot serialize {type(obj)}")


def _write_output(payload, path, fmt="json", csv_rows=None, csv_header=None):
    if fmt == "csv":
        lines = [",".join(csv_header)]
        for row in csv_rows:
            lines.append(",".join(f"{v:.17g}" if isinstance(v, float) else str(v)
                                  for v in row))
        text = "\n".join(lines) + "\n"
    else:
        text = json.dumps(payload, indent=2, default=_json_default) + "\n"
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load_lattice(spec):
    if spec in PRESETS:
        return lattice_preset(spec)
    if not os.path.exists(spec):
        raise UsageError(f"--lattice: {spec!r} is neither a preset "
                         f"({sorted(PRESETS)}) nor an existing file")
    with open(spec) as fh:
        obj = json.load(fh)
    if "basis" in obj and "dim" in obj:
        return Lattice.from_json_dict(obj)
    # plain nested-list basis file
    from .lattice import lattice_from_basis
    return lattice_from_basis(obj)


def _parse_point(text, dim):
    try:
        vals = [float(v) for v in text.split(",")]
    except ValueError:
        raise UsageError(f"bad point {text!r}; expected comma-separated floats")
    if len(vals) == 1 and dim > 1:
        # scalar shorthand broadcasts, so --y 0 means the origin
        vals = vals * dim
    if len(vals) != dim:
        raise UsageError(f"point {text!r} has {len(vals)} coordinates, "
                         f"lattice dimension is {dim}")
    return np.asarray(vals)


def _parse_potential_arg(text):
    try:
        return kn.parse_potential(text)
    except ValueError as exc:
        raise UsageError(str(exc))


def _tol_from(args):
    if args.tol is not None:
        return args.tol
    env = os.environ.get("PERISUM_TOL")
    if env:
        try:
            return float(env)
        except ValueError:
            raise UsageError(f"PERISUM_TOL={env!r} is not a number")
    return _DEFAULT_TOL


def _provenance(plan=None):
    out = {"version": __version__}
    if plan is not None:
        out["plan"] = plan.to_json_dict()
    return out


@functools.cache  # parsing leaves the parser unchanged: build it once
def build_parser():
    p = argparse.ArgumentParser(
        prog="perisum",
        description="Periodic lattice-sum kernels and torus energies.")
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    def add_common(sp, potential=True):
        sp.add_argument("--config", default=None,
                        help="JSON file of flag values (explicit flags win)")
        sp.add_argument("--lattice", default="Z1",
                        help="preset name or JSON basis file")
        if potential:
            sp.add_argument("--potential", required=True,
                            help="riesz:S | logriesz:S | log | gaussian:C")
        sp.add_argument("--tol", type=float, default=None,
                        help="Ewald truncation tolerance")
        sp.add_argument("--eta", type=float, default=1.0,
                        help="Ewald splitting parameter")
        sp.add_argument("--out", default=None, help="output file path")
        sp.add_argument("--format", choices=("json", "csv"), default="json")
        sp.add_argument("--cartesian", action="store_true",
                        help="interpret point inputs as Cartesian")

    ke = sub.add_parser("kernel-eval", help="evaluate the periodic kernel at one pair")
    add_common(ke)
    ke.add_argument("--x", required=True, help="first point (fractional)")
    ke.add_argument("--y", required=True, help="second point (fractional)")

    ev = sub.add_parser("energy", help="energy of a configuration from file")
    add_common(ev)
    ev.add_argument("--points", required=True,
                    help="JSON file with an NxD array of fractional points")
    ev.add_argument("--gradient", action="store_true",
                    help="include the gradient in the report")

    mn = sub.add_parser("minimize", help="torus-constrained local minimization")
    add_common(mn)
    mn.add_argument("--N", type=int, required=True)
    mn.add_argument("--restarts", type=int, default=4)
    mn.add_argument("--max-iters", type=int, default=2000)
    mn.add_argument("--seed", type=int, default=0)
    mn.add_argument("--tol-grad", type=float, default=None)

    gr = sub.add_parser("growth", help="minimize over an N list and tabulate rates")
    add_common(gr)
    gr.add_argument("--N", required=True, help="comma-separated increasing list")
    gr.add_argument("--restarts", type=int, default=2)
    gr.add_argument("--max-iters", type=int, default=2000)
    gr.add_argument("--seed", type=int, default=0)

    va = sub.add_parser("validate", help="run identity-check suites")
    va.add_argument("--suite", default="all",
                    choices=("all", "1d", "poisson", "shift"))
    va.add_argument("--seed", type=int, default=0)
    va.add_argument("--json", dest="json_out", default=None,
                    help="write the CheckResult array to this file")

    se = sub.add_parser("specfun-eval", help="evaluate one special function")
    se.add_argument("--fn", required=True,
                    choices=("gamma_upper", "hurwitz_zeta", "hurwitz_zeta_ds",
                             "hurwitz_zeta_dq", "riemann_zeta",
                             "riemann_zeta_ds", "digamma", "trigamma", "erfc",
                             "exp_integral_e1", "euler_gamma",
                             "stieltjes_gamma1"))
    se.add_argument("--args", default="", help="comma-separated numeric arguments")
    se.add_argument("--out", default=None)
    return p


def _cmd_kernel_eval(args):
    lat = _load_lattice(args.lattice)
    pot = _parse_potential_arg(args.potential)
    tol = _tol_from(args)
    x = _parse_point(args.x, lat.dimension)
    y = _parse_point(args.y, lat.dimension)
    if not args.cartesian:
        x = lat.to_cartesian(x)
        y = lat.to_cartesian(y)
    # only the singular families are split; the Gaussian's direct sum keeps
    # the default eta in its plan
    eta = args.eta if pot.singular else 1.0
    plan = kn.plan_ewald(lat, pot, tol, eta=eta)
    kv = kn.kernel_value(plan, x, y)
    payload = {
        "value": _fmt(kv.value) if math.isfinite(kv.value) else "inf",
        "abs_err_bound": _fmt(kv.abs_err_bound),
        "terms_direct": kv.terms_direct,
        "terms_dual": kv.terms_dual,
        "lattice": lat.to_json_dict(),
        **_provenance(plan),
    }
    _write_output(payload, args.out, args.format)
    return 0


def _cmd_energy(args):
    lat = _load_lattice(args.lattice)
    pot = _parse_potential_arg(args.potential)
    tol = _tol_from(args)
    if not os.path.exists(args.points):
        raise UsageError(f"points file {args.points!r} not found")
    with open(args.points) as fh:
        pts = np.asarray(json.load(fh), dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    if args.cartesian:
        pts = lat.to_fractional(pts)
    cfg = en.Configuration(lat, pts)
    plan = kn.plan_ewald(lat, pot, tol, eta=args.eta)
    rep = en.total_energy(cfg, pot, plan, with_gradient=args.gradient)
    payload = {
        "energy": _fmt(rep.energy) if math.isfinite(rep.energy) else "inf",
        "n_points": cfg.n_points,
        "degenerate_pairs": rep.degenerate_pairs,
        "gradient": rep.gradient,
        "lattice": lat.to_json_dict(),
        **_provenance(plan),
    }
    _write_output(payload, args.out, args.format)
    return 0


def _cmd_minimize(args):
    lat = _load_lattice(args.lattice)
    pot = _parse_potential_arg(args.potential)
    tol = _tol_from(args)
    res = en.minimize(lat, pot, args.N, restarts=args.restarts,
                      max_iters=args.max_iters, seed=args.seed,
                      tol_grad=args.tol_grad, tol=tol)
    payload = {
        "best_energy": _fmt(res.best_energy),
        "points": res.best_config.points,
        "converged": res.converged,
        "restarts_used": res.restarts_used,
        "restart_energies": [_fmt(e) for e in res.restart_energies],
        "seed": args.seed,
        "lattice": lat.to_json_dict(),
        **_provenance(res.plan),
    }
    _write_output(payload, args.out, args.format)
    return 0


def _cmd_growth(args):
    lat = _load_lattice(args.lattice)
    pot = _parse_potential_arg(args.potential)
    try:
        n_list = [int(v) for v in args.N.split(",")]
    except ValueError:
        raise UsageError(f"--N expects comma-separated integers, got {args.N!r}")
    tol = _tol_from(args)
    rows = en.growth_diagnostic(lat, pot, n_list, restarts=args.restarts,
                                max_iters=args.max_iters, seed=args.seed,
                                tol=tol)
    header = ["N", "E", "E_per_N2", "E_per_N_power", "E_per_N2_logN"]
    table = [(r.n, r.energy, r.per_n2, r.per_n_power, r.per_n2_log)
             for r in rows]
    payload = {
        "columns": header,
        "rows": [[_fmt(v) for v in row] for row in table],
        "lattice": lat.to_json_dict(),
        **_provenance(rows[-1].plan),
    }
    _write_output(payload, args.out, args.format, csv_rows=table,
                  csv_header=header)
    return 0


def _cmd_validate(args):
    results = vd.run_suite(args.suite, seed=args.seed)
    payload = [r.to_json_dict() for r in results]
    if args.json_out:
        with open(args.json_out, "w") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
    n_pass = sum(r.passed for r in results)
    for r in results:
        print(f"{'PASS' if r.passed else 'FAIL'}  {r.name}  "
              f"abs={r.abs_err:.3e} rel={r.rel_err:.3e} tol={r.tolerance:g}")
    print(f"{n_pass}/{len(results)} checks passed")
    return 0 if n_pass == len(results) else 1


def _cmd_specfun_eval(args):
    fn = getattr(sf, args.fn)
    arglist = [float(v) for v in args.args.split(",") if v != ""]
    try:
        val = fn(*arglist)
    except TypeError as exc:
        raise UsageError(f"bad arguments for {args.fn}: {exc}")
    payload = {"fn": args.fn, "args": arglist, "value": _fmt(float(val)),
               **_provenance()}
    _write_output(payload, args.out, "json")
    return 0


_DISPATCH = {
    "kernel-eval": _cmd_kernel_eval,
    "energy": _cmd_energy,
    "minimize": _cmd_minimize,
    "growth": _cmd_growth,
    "validate": _cmd_validate,
    "specfun-eval": _cmd_specfun_eval,
}


def run(args):
    return _DISPATCH[args.command](args)


def _expand_config(argv):
    """Replace '--config file.json' with the flags it mirrors; explicit
    command-line flags win because argparse takes the last occurrence."""
    if "--config" not in argv:
        return argv
    i = argv.index("--config")
    if i + 1 >= len(argv):
        raise UsageError("--config requires a file path")
    path = argv[i + 1]
    if not os.path.exists(path):
        raise UsageError(f"config file {path!r} not found")
    with open(path) as fh:
        conf = json.load(fh)
    flags = []
    for key, value in conf.items():
        name = "--" + str(key).replace("_", "-")
        if isinstance(value, bool):
            if value:
                flags.append(name)
        else:
            flags.extend([name, str(value)])
    head, tail = argv[:i], argv[i + 2:]
    # insert after the subcommand so later (explicit) flags override
    return head[:1] + flags + head[1:] + tail


def main(argv=None):
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    try:
        argv = _expand_config(list(argv))
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help
        return int(exc.code or 0)
    try:
        return run(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except PerisumError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
