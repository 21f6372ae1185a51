import argparse
import importlib
import importlib.util
import pkgutil
from pathlib import Path

import perisum
from perisum import cli
from perisum import specfun as sf


def test_every_exported_name_resolves():
    for info in pkgutil.iter_modules(perisum.__path__):
        mod = importlib.import_module(f"perisum.{info.name}")
        for name in getattr(mod, "__all__", ()):
            assert hasattr(mod, name), f"perisum.{info.name}.{name}"


def test_specfun_eval_choices_resolve():
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    fn = next(a for a in sub.choices["specfun-eval"]._actions if a.dest == "fn")
    assert fn.choices
    for name in fn.choices:
        assert callable(getattr(sf, name, None)), name


def test_benchmark_tracer_hooks_resolve():
    # the benchmark's tracer reports a hooked name it cannot find as absent,
    # and the per-layer numbers that name feeds as null
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.HOOKS
    for name, (home, attr) in tracer.HOOKS.items():
        assert callable(getattr(importlib.import_module(home), attr, None)), name
