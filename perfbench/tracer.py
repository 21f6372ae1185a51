"""Outside-in tracer for perisum.

The tracer wraps public callables of perisum, and the scipy.special ufuncs
that perisum calls, in every module that binds them, so a call is seen
whichever module it goes through (``perisum.kernel.enumerate_shells`` and
``perisum.lattice.enumerate_shells`` are the same function bound twice;
``kernel.py`` reads ``scipy.special.gammaincc`` at call time).  Each call
records a span (name, start, end, parent span) and per-call counts.  Spans
stay in memory in flat lists and are written when the run ends.

A hooked name that no longer exists is reported as absent, never as zero,
so a refactor that renames or removes a function does not stop the run.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
import tracemalloc

import numpy as np

# span name -> (module that defines it, attribute)
HOOKS = {
    "cli.main": ("perisum.cli", "main"),
    "lattice.enumerate_shells": ("perisum.lattice", "enumerate_shells"),
    "kernel.plan_ewald": ("perisum.kernel", "plan_ewald"),
    "kernel.evaluate_batch": ("perisum.kernel", "evaluate_batch"),
    "specfun.gammaincc": ("scipy.special", "gammaincc"),
    "specfun.exp1": ("scipy.special", "exp1"),
    "specfun.erfc": ("scipy.special", "erfc"),
    "specfun.gamma_upper_vec": ("perisum.specfun", "gamma_upper_vec"),
    "specfun.gamma_upper_dsigma_vec": ("perisum.specfun", "gamma_upper_dsigma_vec"),
    "energy.total_energy": ("perisum.energy", "total_energy"),
    "energy.minimize": ("perisum.energy", "minimize"),
    "validate.run_suite": ("perisum.validate", "run_suite"),
}


def _binding_modules(home):
    """Modules that may bind a hooked name: the perisum package and its
    submodules, plus the module that defines the name."""
    names = [m for m in list(sys.modules)
             if m == "perisum" or m.startswith("perisum.")]
    if home not in names:
        names.append(home)
    return [sys.modules[m] for m in names if sys.modules.get(m) is not None]


class Tracer:
    """Span recorder with wrappers installed by ``install`` and removed by
    ``uninstall``.  Not thread-safe: the benchmark process is single-threaded."""

    def __init__(self):
        self.names = []            # span-name table
        self._name_id = {}
        self.span_name = []        # per span: index into names
        self.span_parent = []      # per span: parent span index or -1
        self.span_start = []
        self.span_end = []
        self.counts = {}           # "<span name>.<counter>" -> total
        self.peaks = {}            # metric name -> largest value seen
        self.status = {}           # span name -> "patched" | "absent"
        self._stack = []
        self._patches = []

    # -- spans -------------------------------------------------------------

    def _nid(self, name):
        nid = self._name_id.get(name)
        if nid is None:
            nid = self._name_id[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, name):
        idx = len(self.span_name)
        self.span_name.append(self._nid(name))
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self.span_start.append(0.0)
        self.span_end.append(0.0)
        self._stack.append(idx)
        return idx

    def _close(self, idx, t0, t1):
        self._stack.pop()
        self.span_start[idx] = t0
        self.span_end[idx] = t1

    def run(self, name, fn):
        """Call fn() inside a span named name (used for the benchmark's ops)."""
        idx = self._open(name)
        t0 = time.perf_counter()
        try:
            return fn()
        finally:
            self._close(idx, t0, time.perf_counter())

    def add(self, key, value):
        self.counts[key] = self.counts.get(key, 0.0) + float(value)

    # -- hooks -------------------------------------------------------------

    def install(self):
        for name, (home, attr) in HOOKS.items():
            mod = sys.modules.get(home)
            original = getattr(mod, attr, None) if mod is not None else None
            if original is None:
                self.status[name] = "absent"
                continue
            wrapper = self._wrap(name, original)
            for m in _binding_modules(home):
                for key, val in list(vars(m).items()):
                    if val is original:
                        setattr(m, key, wrapper)
                        self._patches.append((m, key, original))
            self.status[name] = "patched"

    def uninstall(self):
        for m, key, original in reversed(self._patches):
            setattr(m, key, original)
        self._patches.clear()

    def _wrap(self, name, fn):
        measure = _MEASURES.get(name)
        # evaluate_batch alone needs its arguments and runs under tracemalloc
        batch = name == "kernel.evaluate_batch"
        signature = None
        if batch:
            try:
                signature = inspect.signature(fn)
            except (TypeError, ValueError):
                measure = None
        tracer = self

        def wrapper(*args, **kwargs):
            idx = tracer._open(name)
            if batch:
                tracemalloc.start()
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                peak = 0
                if batch:
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                tracer._close(idx, t0, t1)
            if measure is not None:
                try:
                    bound = (signature.bind(*args, **kwargs).arguments
                             if signature is not None else None)
                    measure(tracer, bound, out, t1 - t0, peak)
                except (AttributeError, KeyError, TypeError):
                    tracer.add(name + ".unmeasured", 1)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    # -- results -----------------------------------------------------------

    def arrays(self):
        name = np.asarray(self.span_name, dtype=np.int64)
        parent = np.asarray(self.span_parent, dtype=np.int64)
        dur = (np.asarray(self.span_end, dtype=float)
               - np.asarray(self.span_start, dtype=float))
        return name, parent, dur

    def per_name(self):
        """{span name: (calls, inclusive s, self s)}; self time is the span's
        duration minus the durations of its direct children."""
        name, parent, dur = self.arrays()
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        k = len(self.names)
        calls = np.bincount(name, minlength=k)
        incl = np.bincount(name, weights=dur, minlength=k)
        own = np.bincount(name, weights=dur - child, minlength=k)
        return {n: (int(calls[i]), float(incl[i]), float(own[i]))
                for i, n in enumerate(self.names)}

    def under(self, child, ancestor):
        """Number of `child` spans with an `ancestor` span above them."""
        if child not in self._name_id or ancestor not in self._name_id:
            return 0
        name, parent, _ = self.arrays()
        target = self._name_id[ancestor]
        cur = parent[name == self._name_id[child]]
        found = np.zeros(cur.shape, dtype=bool)
        while True:
            live = cur >= 0
            if not live.any():
                return int(found.sum())
            found[live] |= name[cur[live]] == target
            cur[live] = parent[cur[live]]

    def write(self, path):
        """Write spans and hook status as compressed numpy arrays."""
        name, parent, _ = self.arrays()
        np.savez_compressed(
            path,
            names=np.asarray(self.names, dtype=str),
            name=name,
            parent=parent,
            start=np.asarray(self.span_start, dtype=float),
            end=np.asarray(self.span_end, dtype=float),
            meta=np.asarray(json.dumps({"hooks": self.status,
                                        "counts": self.counts})),
        )


# -- per-call counts, keyed by span name ------------------------------------


def _elements(name):
    def measure(tracer, args, out, dur, peak):
        tracer.add(name + ".elements", np.size(out))
    return measure


def _shells(tracer, args, out, dur, peak):
    tracer.add("lattice.enumerate_shells.vectors", len(out))


def _batch(tracer, args, out, dur, peak):
    plan = args["plan"]
    rows = np.atleast_2d(np.asarray(args["Q"])).shape[0]
    images = rows * plan.terms_direct
    kind = "grad" if args.get("want_grad", False) else "value"
    tracer.add("kernel.evaluate_batch.pair_images", images)
    tracer.add(f"kernel.evaluate_batch.{kind}_pair_images", images)
    tracer.add(f"kernel.evaluate_batch.{kind}_s", dur)
    tracer.add("kernel.plan.terms_direct", plan.terms_direct)
    tracer.add("kernel.plan.terms_dual", plan.terms_dual)
    if images:
        key = "kernel.evaluate_batch.peak_bytes_per_pair_image"
        tracer.peaks[key] = max(tracer.peaks.get(key, 0.0), peak / images)


def _minimize(tracer, args, out, dur, peak):
    tracer.add("energy.minimize.restarts", out.restarts_used)


def _suite(tracer, args, out, dur, peak):
    tracer.add("validate.run_suite.checks", len(out))
    tracer.add("validate.run_suite.failed", sum(not r.passed for r in out))


_MEASURES = {
    "specfun.gammaincc": _elements("specfun.gammaincc"),
    "specfun.exp1": _elements("specfun.exp1"),
    "specfun.erfc": _elements("specfun.erfc"),
    "specfun.gamma_upper_vec": _elements("specfun.gamma_upper_vec"),
    "specfun.gamma_upper_dsigma_vec": _elements("specfun.gamma_upper_dsigma_vec"),
    "lattice.enumerate_shells": _shells,
    "kernel.evaluate_batch": _batch,
    "energy.minimize": _minimize,
    "validate.run_suite": _suite,
}
