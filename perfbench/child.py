"""One workload in one fresh, single-threaded process.

    python3 perfbench/child.py --workload NAME --seed N --seconds S
                               [--trace 0|1] [--setup-only] [--trace-out PATH]

Times `import perisum.cli` (which imports the package) and the workload's
set-up (lattices, plans, inputs), then runs rounds of the workload's ops in
a closed loop until S seconds have been spent in ops.  With --trace 1 every
round runs twice on the same inputs, untraced and then traced, so the
traced rounds give per-layer numbers and the difference gives the tracing
overhead.  Oracles run after the timed rounds.  Prints one JSON object as
the last line of stdout.
"""

import argparse
import json
import resource
import statistics
import sys
import time
import traceback


def parse_args(argv):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--trace-out", default=None)
    return p.parse_args(argv)


def run_round(wl, r, tracer=None):
    """Run round r's ops in order; returns (wall s, [(r, label, output)],
    failures).  An op that raises is a failure and yields no output."""
    records, failures = [], 0
    t0 = time.perf_counter()
    for label, op in wl.ops(r):
        try:
            if tracer is None:
                out = op()
            else:
                out = tracer.run("op." + label.split("|")[0], op)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            failures += 1
        else:
            records.append((r, label, out))
    return time.perf_counter() - t0, records, failures


def main(argv=None):
    args = parse_args(argv)
    t0 = time.perf_counter()
    import perisum.cli  # noqa: F401  (imports the perisum package too)
    import_s = time.perf_counter() - t0

    import workloads
    wl = workloads.WORKLOADS[args.workload](args.seed)
    t1 = time.perf_counter()
    wl.setup()
    plan_s = time.perf_counter() - t1
    if args.setup_only:
        print(json.dumps({"import_s": import_s, "plan_s": plan_s}), flush=True)
        return 0

    tracer = None
    if args.trace:
        import tracer as tracing
        tracer = tracing.Tracer()

    round_s, traced_s, untraced_records = [], [], []
    all_records, raised = [], 0
    spent, r = 0.0, 0
    while r == 0 or spent < args.seconds:
        dt, recs, bad = run_round(wl, r)
        round_s.append(dt)
        spent += dt
        untraced_records += recs
        all_records += recs
        raised += bad
        if tracer is not None:
            tracer.install()
            try:
                dt, recs, bad = run_round(wl, r, tracer)
            finally:
                tracer.uninstall()
            traced_s.append(dt)
            spent += dt
            all_records += recs
            raised += bad
        r += 1
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    wl.prepare_oracles()
    missed = sum(not wl.check(label, out) for _, label, out in all_records)
    controls_ok = True
    seen = set()
    for _, label, out in untraced_records:
        kind = label.split("|")[0]  # checks labels carry grid coordinates
        if kind not in seen:
            seen.add(kind)
            if wl.control(label, out):
                print(f"negative control passed for {label}", file=sys.stderr)
                controls_ok = False

    result = {
        "round_s": round_s,
        "solve_s": statistics.median(round_s),
        "rounds": len(round_s),
        "attempted": len(all_records) + raised,
        "failed": raised + missed,
        "controls_ok": controls_ok,
        "peak_rss_mib": peak_rss_mib,
    }
    if tracer is not None:
        import layers
        result["layers"] = layers.summarize(
            tracer, len(traced_s), statistics.median(traced_s),
            result["solve_s"], wl.extras(untraced_records))
        if args.trace_out:
            tracer.write(args.trace_out)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
