import argparse
import importlib
import pkgutil

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
