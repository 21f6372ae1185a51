"""perisum benchmark entry point.

    python3 perfbench/run.py --workload {relax,bulk,checks} --seed N
                             --seconds S --trace {0,1}

Run from the root of a perisum checkout; the package is imported from
./src.  Each workload runs in fresh single-threaded Python processes (BLAS
and OpenMP pools pinned to one thread): SETUP_PROBES processes that only
import perisum and build the workload's lattices and plans, whose wall
times from process start to "ready" give setup_s, then one process that
runs the workload's ops in a closed loop for S seconds and checks every op
against its oracle.  The last line of stdout is one JSON object:
end-to-end metrics with --trace 0, per-layer metrics with --trace 1.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

WORKLOADS = ("relax", "bulk", "checks")
SETUP_PROBES = 5
DEADLINE_S = 170.0  # the whole run, so it always ends within 180 s
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "BLIS_NUM_THREADS")


def child_env():
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("PERISUM_") and k != "PYTHONPATH"}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def child_cmd(args, *extra):
    return [sys.executable, str(HERE / "child.py"), "--workload", args.workload,
            "--seed", str(args.seed), *extra]


def setup_probe(args, env, deadline):
    """Wall time from spawning a fresh interpreter to its 'ready' line, and
    the probe's own import and plan timings."""
    t0 = time.perf_counter()
    with subprocess.Popen(child_cmd(args, "--setup-only"), cwd=ROOT, env=env,
                          stdout=subprocess.PIPE, text=True) as proc:
        try:
            line = proc.stdout.readline()
            ready = time.perf_counter() - t0
            proc.stdout.read()
            code = proc.wait(timeout=max(1.0, deadline - time.perf_counter()))
        except BaseException:
            proc.kill()
            raise
    if code != 0 or not line:
        raise RuntimeError(f"set-up probe exited with code {code}")
    probe = json.loads(line)
    return ready, probe["import_s"], probe["plan_s"]


def run_workload(args, env, trace_out, deadline):
    cmd = child_cmd(args, "--seconds", str(args.seconds),
                    "--trace", str(args.trace), "--trace-out", str(trace_out))
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                          text=True,
                          timeout=max(1.0, deadline - time.perf_counter()))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"workload process exited with code {proc.returncode}")
    return json.loads(lines[-1])


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (ROOT / "src" / "perisum" / "__init__.py").is_file():
        print(f"error: no perisum sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    env = child_env()
    deadline = time.perf_counter() + DEADLINE_S
    try:
        probes = [setup_probe(args, env, deadline) for _ in range(SETUP_PROBES)]
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        res = run_workload(args, env, out_dir / f"trace-{args.workload}.npz",
                           deadline)
    except (RuntimeError, OSError, ValueError, KeyError,
            subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if args.trace:
        metrics = {
            "setup.import_s": {"value": statistics.median(p[1] for p in probes),
                               "unit": "s"},
            "setup.plan_s": {"value": statistics.median(p[2] for p in probes),
                             "unit": "s"},
            **res["layers"],
        }
    else:
        metrics = {
            "setup_s": {"value": statistics.median(p[0] for p in probes),
                        "unit": "s"},
            "solve_s": {"value": res["solve_s"], "unit": "s"},
            "peak_rss_mib": {"value": res["peak_rss_mib"], "unit": "MiB"},
            "ok_frac": {"value": (res["attempted"] - res["failed"])
                        / res["attempted"], "unit": "ratio"},
        }
    print(f"{args.workload}: {res['rounds']} rounds of "
          f"{', '.join(f'{t:.3f}' for t in res['round_s'])} s; "
          f"{res['attempted']} ops, {res['failed']} failed; "
          f"negative controls {'ok' if res['controls_ok'] else 'NOT rejected'}")
    print(json.dumps({
        "correct": res["failed"] == 0 and res["controls_ok"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
