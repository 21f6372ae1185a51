"""Per-layer metrics from a traced run.

Counts and times are per traced round (the mean over the run's traced
rounds), so they compare directly with solve_s.  A metric whose hook is
absent from the code under test is reported with "value": null and
"absent": true; a ratio whose denominator is zero on this workload is 0.
"""

# name -> (unit, hooks it needs)
PER_LAYER = {
    "setup.import_s": ("s", ()),
    "setup.plan_s": ("s", ()),
    "cli.main.calls": ("count", ("cli.main",)),
    "cli.main.self_s": ("s", ("cli.main",)),
    "cli.plan_ewald_per_call": ("ratio", ("cli.main", "kernel.plan_ewald")),
    "lattice.enumerate_shells.calls": ("count", ("lattice.enumerate_shells",)),
    "lattice.enumerate_shells.vectors": ("count", ("lattice.enumerate_shells",)),
    "lattice.enumerate_shells.self_s": ("s", ("lattice.enumerate_shells",)),
    "kernel.plan_ewald.calls": ("count", ("kernel.plan_ewald",)),
    "kernel.plan_ewald.self_s": ("s", ("kernel.plan_ewald",)),
    "kernel.plan.terms_direct": ("count", ("kernel.evaluate_batch",)),
    "kernel.plan.terms_dual": ("count", ("kernel.evaluate_batch",)),
    "kernel.evaluate_batch.calls": ("count", ("kernel.evaluate_batch",)),
    "kernel.evaluate_batch.pair_images": ("count", ("kernel.evaluate_batch",)),
    "kernel.evaluate_batch.self_s": ("s", ("kernel.evaluate_batch",)),
    "kernel.evaluate_batch.value_ns_per_pair_image": ("ns", ("kernel.evaluate_batch",)),
    "kernel.evaluate_batch.grad_ns_per_pair_image": ("ns", ("kernel.evaluate_batch",)),
    "kernel.evaluate_batch.peak_bytes_per_pair_image": ("B", ("kernel.evaluate_batch",)),
    "kernel.eta_pairs": ("count", ()),
    "kernel.bound_violations": ("count", ()),
    "kernel.eta_spread_over_bound.max": ("ratio", ()),
    "specfun.gammaincc.elements": ("count", ("specfun.gammaincc",)),
    "specfun.gammaincc.self_s": ("s", ("specfun.gammaincc",)),
    "specfun.gammaincc.ns_per_element": ("ns", ("specfun.gammaincc",)),
    "specfun.gammaincc.elements_per_pair_image": (
        "ratio", ("specfun.gammaincc", "kernel.evaluate_batch")),
    "specfun.gammaincc.share_of_solve": ("ratio", ("specfun.gammaincc",)),
    "specfun.exp1.elements": ("count", ("specfun.exp1",)),
    "specfun.erfc.elements": ("count", ("specfun.erfc",)),
    "specfun.gamma_upper_vec.calls": ("count", ("specfun.gamma_upper_vec",)),
    "specfun.gamma_upper_vec.self_s": ("s", ("specfun.gamma_upper_vec",)),
    "specfun.gamma_upper_dsigma_vec.calls": (
        "count", ("specfun.gamma_upper_dsigma_vec",)),
    "specfun.gamma_upper_dsigma_vec.self_s": (
        "s", ("specfun.gamma_upper_dsigma_vec",)),
    "energy.total_energy.calls": ("count", ("energy.total_energy",)),
    "energy.total_energy.self_s": ("s", ("energy.total_energy",)),
    "energy.minimize.calls": ("count", ("energy.minimize",)),
    "energy.minimize.self_s": ("s", ("energy.minimize",)),
    "energy.evals_per_restart": (
        "count", ("energy.minimize", "energy.total_energy")),
    "energy.best_restart_iters": ("count", ()),
    "energy.final_grad_over_tol": ("ratio", ()),
    "validate.run_suite.self_s": ("s", ("validate.run_suite",)),
    "validate.checks_failed": ("count", ()),
    "trace.solve_s": ("s", ()),
    "trace.overhead_s": ("s", ()),
    "trace.overhead_frac": ("ratio", ()),
    "trace.spans": ("count", ()),
}


def _div(a, b):
    return a / b if b else 0.0


def summarize(tracer, rounds, traced_solve_s, solve_s, extras):
    """PER_LAYER metrics other than setup.* (which come from the set-up
    probes) as {name: {"value", "unit"[, "absent"]}}.  extras holds metrics
    the workload computed from its outputs."""
    stats = tracer.per_name()
    counts = tracer.counts

    def calls(name):
        return stats.get(name, (0, 0.0, 0.0))[0]

    def self_s(name):
        return stats.get(name, (0, 0.0, 0.0))[2]

    op_s = sum(incl for n, (_, incl, _) in stats.items() if n.startswith("op."))
    pair_images = counts.get("kernel.evaluate_batch.pair_images", 0.0)
    batch_calls = calls("kernel.evaluate_batch")
    kernel_evals = calls("op.kernel-eval")
    restarts = counts.get("energy.minimize.restarts", 0.0)
    gamma_elements = counts.get("specfun.gammaincc.elements", 0.0)

    values = {
        "cli.main.calls": calls("cli.main") / rounds,
        "cli.main.self_s": self_s("cli.main") / rounds,
        "cli.plan_ewald_per_call": _div(
            tracer.under("kernel.plan_ewald", "op.kernel-eval"), kernel_evals),
        "lattice.enumerate_shells.calls": calls("lattice.enumerate_shells") / rounds,
        "lattice.enumerate_shells.vectors":
            counts.get("lattice.enumerate_shells.vectors", 0.0) / rounds,
        "lattice.enumerate_shells.self_s": self_s("lattice.enumerate_shells") / rounds,
        "kernel.plan_ewald.calls": calls("kernel.plan_ewald") / rounds,
        "kernel.plan_ewald.self_s": self_s("kernel.plan_ewald") / rounds,
        "kernel.plan.terms_direct": _div(
            counts.get("kernel.plan.terms_direct", 0.0), batch_calls),
        "kernel.plan.terms_dual": _div(
            counts.get("kernel.plan.terms_dual", 0.0), batch_calls),
        "kernel.evaluate_batch.calls": batch_calls / rounds,
        "kernel.evaluate_batch.pair_images": pair_images / rounds,
        "kernel.evaluate_batch.self_s": self_s("kernel.evaluate_batch") / rounds,
        "kernel.evaluate_batch.value_ns_per_pair_image": 1e9 * _div(
            counts.get("kernel.evaluate_batch.value_s", 0.0),
            counts.get("kernel.evaluate_batch.value_pair_images", 0.0)),
        "kernel.evaluate_batch.grad_ns_per_pair_image": 1e9 * _div(
            counts.get("kernel.evaluate_batch.grad_s", 0.0),
            counts.get("kernel.evaluate_batch.grad_pair_images", 0.0)),
        "kernel.evaluate_batch.peak_bytes_per_pair_image": tracer.peaks.get(
            "kernel.evaluate_batch.peak_bytes_per_pair_image", 0.0),
        "specfun.gammaincc.elements": gamma_elements / rounds,
        "specfun.gammaincc.self_s": self_s("specfun.gammaincc") / rounds,
        "specfun.gammaincc.ns_per_element": 1e9 * _div(
            self_s("specfun.gammaincc"), gamma_elements),
        "specfun.gammaincc.elements_per_pair_image": _div(gamma_elements, pair_images),
        "specfun.gammaincc.share_of_solve": _div(self_s("specfun.gammaincc"), op_s),
        "specfun.exp1.elements": counts.get("specfun.exp1.elements", 0.0) / rounds,
        "specfun.erfc.elements": counts.get("specfun.erfc.elements", 0.0) / rounds,
        "specfun.gamma_upper_vec.calls": calls("specfun.gamma_upper_vec") / rounds,
        "specfun.gamma_upper_vec.self_s": self_s("specfun.gamma_upper_vec") / rounds,
        "specfun.gamma_upper_dsigma_vec.calls":
            calls("specfun.gamma_upper_dsigma_vec") / rounds,
        "specfun.gamma_upper_dsigma_vec.self_s":
            self_s("specfun.gamma_upper_dsigma_vec") / rounds,
        "energy.total_energy.calls": calls("energy.total_energy") / rounds,
        "energy.total_energy.self_s": self_s("energy.total_energy") / rounds,
        "energy.minimize.calls": calls("energy.minimize") / rounds,
        "energy.minimize.self_s": self_s("energy.minimize") / rounds,
        "energy.evals_per_restart": _div(
            tracer.under("energy.total_energy", "energy.minimize"), restarts),
        "validate.run_suite.self_s": self_s("validate.run_suite") / rounds,
        "trace.solve_s": traced_solve_s,
        "trace.overhead_s": traced_solve_s - solve_s,
        "trace.overhead_frac": _div(traced_solve_s - solve_s, solve_s),
        "trace.spans": len(tracer.span_name) / rounds,
    }
    values.update(extras)

    out = {}
    for name, (unit, hooks) in PER_LAYER.items():
        if name.startswith("setup."):
            continue
        if any(tracer.status.get(h) == "absent" for h in hooks):
            out[name] = {"value": None, "unit": unit, "absent": True}
        else:
            out[name] = {"value": float(values.get(name, 0.0)), "unit": unit}
    return out
