"""Command-line front end.

Subcommands: kernel-eval, energy, minimize, growth, validate, specfun-eval;
each takes only the flags it reads.  Points are fractional coordinates by
default (--cartesian on kernel-eval and energy converts through the basis).
Output is strict JSON, whose floats are written in their shortest
round-trip form and an infinity as the text "inf" or "-inf"; kernel-eval,
energy and specfun-eval refuse a NaN result (exit 1), and minimize and
growth write a NaN as null.  growth can also write its table as CSV, with
17 significant digits.
Files round-trip losslessly, and identical arguments and seed reproduce
bitwise identical files.  Exit codes: 0 success, 1 failed validation or
input outside its domain, 2 usage error (a malformed input file included).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

import numpy as np

from . import __version__
from . import energy as en
from . import kernel as kn
from . import specfun as sf
from . import validate as vd
from .errors import InvalidParameter, PerisumError, UsageError
from .lattice import Lattice, PRESETS, lattice_from_basis, lattice_preset

_DEFAULT_TOL = 1e-10


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
        # JSON has no NaN or infinity: each command writes them through
        # _finite_or_text or refuses them
        text = json.dumps(payload, indent=2, default=_json_default,
                          allow_nan=False) + "\n"
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _read_json(path, flag):
    """The JSON value in the file a flag names; a missing, unreadable or
    malformed file is a usage error."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise UsageError(f"{flag}: file {path!r} not found")
    except (OSError, ValueError) as exc:
        raise UsageError(f"{flag}: {path!r} is not a readable JSON file: {exc}")


def _load_lattice(spec):
    if spec in PRESETS:
        return lattice_preset(spec)
    obj = _read_json(spec, f"--lattice (presets: {', '.join(sorted(PRESETS))})")
    try:
        if "basis" in obj and "dim" in obj:
            return Lattice.from_json_dict(obj)
        # plain nested-list basis file
        return lattice_from_basis(obj)
    except (TypeError, ValueError) as exc:
        raise UsageError(f"--lattice: {spec!r} holds no lattice basis: {exc}")


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

    def add_common(sp, points=False):
        sp.add_argument("--config", default=None,
                        help="JSON file of flag values (explicit flags win)")
        sp.add_argument("--lattice", default="Z1",
                        help="preset name or JSON basis file")
        sp.add_argument("--potential", required=True,
                        help="riesz:S | logriesz:S | log | gaussian:C")
        sp.add_argument("--tol", type=float, default=_DEFAULT_TOL,
                        help="Ewald truncation tolerance")
        sp.add_argument("--out", default=None, help="output file path")
        if points:  # the commands that take points also take the split
            sp.add_argument("--eta", type=float, default=None,
                            help="Ewald splitting parameter (default: the "
                                 "planner's cost-model choice)")
            sp.add_argument("--cartesian", action="store_true",
                            help="interpret point inputs as Cartesian")

    ke = sub.add_parser("kernel-eval", help="evaluate the periodic kernel at one pair")
    add_common(ke, points=True)
    ke.add_argument("--x", required=True, help="first point (fractional)")
    ke.add_argument("--y", required=True, help="second point (fractional)")

    ev = sub.add_parser("energy", help="energy of a configuration from file")
    add_common(ev, points=True)
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
    gr.add_argument("--format", choices=("json", "csv"), default="json")

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
    x = _parse_point(args.x, lat.dimension)
    y = _parse_point(args.y, lat.dimension)
    if not args.cartesian:
        x = lat.to_cartesian(x)
        y = lat.to_cartesian(y)
    plan = kn.plan_ewald(lat, pot, args.tol, eta=args.eta)
    kv = kn.kernel_value(plan, x, y)
    if math.isnan(kv.value):
        raise InvalidParameter("the kernel value is not a number: its terms "
                               "pass the double range")
    payload = {
        "value": _finite_or_text(kv.value),
        "abs_err_bound": _finite_or_text(kv.abs_err_bound),
        "terms_direct": kv.terms_direct,
        "terms_dual": kv.terms_dual,
        "lattice": lat.to_json_dict(),
        **_provenance(plan),
    }
    _write_output(payload, args.out)
    return 0


def _cmd_energy(args):
    lat = _load_lattice(args.lattice)
    pot = _parse_potential_arg(args.potential)
    try:
        pts = np.asarray(_read_json(args.points, "--points"), dtype=float)
    except (TypeError, ValueError) as exc:
        raise UsageError(f"--points: {args.points!r} holds no array of "
                         f"numbers: {exc}")
    if pts.ndim not in (1, 2):
        raise UsageError(f"--points: {args.points!r} holds a {pts.ndim}-d "
                         "array, not an N x D one")
    if pts.ndim == 1:
        pts = pts[:, None]
    if args.cartesian:
        pts = lat.to_fractional(pts)
    cfg = en.Configuration(lat, pts)
    plan = kn.plan_ewald(lat, pot, args.tol, eta=args.eta)
    rep = en.total_energy(cfg, pot, plan, with_gradient=args.gradient)
    if math.isnan(rep.energy):
        raise InvalidParameter("the energy is not a number: its terms pass "
                               "the double range")
    payload = {
        "energy": _finite_or_text(rep.energy),
        "abs_err_bound": rep.abs_err_bound,
        "n_points": cfg.n_points,
        "degenerate_pairs": rep.degenerate_pairs,
        "gradient": rep.gradient,
        **({"grad_abs_err_bound": rep.grad_abs_err_bound}
           if args.gradient else {}),
        "lattice": lat.to_json_dict(),
        **_provenance(plan),
    }
    _write_output(payload, args.out)
    return 0


def _cmd_minimize(args):
    lat = _load_lattice(args.lattice)
    pot = _parse_potential_arg(args.potential)
    res = en.minimize(lat, pot, args.N, restarts=args.restarts,
                      max_iters=args.max_iters, seed=args.seed,
                      tol_grad=args.tol_grad, tol=args.tol)
    payload = {
        "best_energy": _finite_or_text(res.best_energy),
        "points": res.best_config.points,
        "converged": res.converged,
        "restarts_used": res.restarts_used,
        "restart_energies": [_finite_or_text(e) for e in res.restart_energies],
        "seed": args.seed,
        "lattice": lat.to_json_dict(),
        **_provenance(res.plan),
    }
    _write_output(payload, args.out)
    return 0


def _cmd_growth(args):
    lat = _load_lattice(args.lattice)
    pot = _parse_potential_arg(args.potential)
    try:
        n_list = [int(v) for v in args.N.split(",")]
    except ValueError:
        raise UsageError(f"--N expects comma-separated integers, got {args.N!r}")
    rows = en.growth_diagnostic(lat, pot, n_list, restarts=args.restarts,
                                max_iters=args.max_iters, seed=args.seed,
                                tol=args.tol)
    header = ["N", "E", "E_per_N2", "E_per_N_power", "E_per_N2_logN"]
    table = [(r.n, r.energy, r.per_n2, r.per_n_power, r.per_n2_log)
             for r in rows]
    payload = {
        "columns": header,
        "rows": [[_finite_or_text(v) for v in row] for row in table],
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
    try:
        arglist = [float(v) for v in args.args.split(",") if v != ""]
    except ValueError:
        raise UsageError(f"--args expects comma-separated numbers, got {args.args!r}")
    # a NaN argument or value is refused (see _finite_or_text)
    if any(math.isnan(v) for v in arglist):
        raise InvalidParameter(f"{args.fn} takes no NaN argument, got {args.args!r}")
    try:
        val = float(fn(*arglist))
    except TypeError as exc:
        raise UsageError(f"bad arguments for {args.fn}: {exc}")
    if math.isnan(val):
        raise InvalidParameter(f"{args.fn} cannot be evaluated at {args.args!r}")
    payload = {"fn": args.fn, "args": [_finite_or_text(v) for v in arglist],
               "value": _finite_or_text(val), **_provenance()}
    _write_output(payload, args.out)
    return 0


def _finite_or_text(v):
    """v as JSON can hold it: an infinity as the text "inf" or "-inf", a
    NaN (growth's power column of a family without an exponent) as null."""
    if math.isnan(v):
        return None
    return v if math.isfinite(v) else ("inf" if v > 0 else "-inf")


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
    conf = _read_json(argv[i + 1], "--config")
    if not isinstance(conf, dict):
        raise UsageError("--config: the file must hold a JSON object of flags")
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
