"""The benchmark's traced run wraps decgraph functions named in
``perfbench/spans.py``; a hook whose function is gone is only reported on
stderr, and its per-layer metrics read zero.  Every hook must resolve."""

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_hooks():
    name = "_decgraph_bench_spans"
    spec = importlib.util.spec_from_file_location(name, SPANS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # dataclasses look their module up here
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[name]
    return module.PACKAGE, module.HOOKS


def test_every_benchmark_hook_names_a_function_of_its_module():
    package, hooks = load_hooks()
    assert hooks
    for hook in hooks:
        home = importlib.import_module(f"{package}.{hook.module}")
        fn = getattr(home, hook.attr, None)
        assert inspect.isfunction(fn), f"{hook.module}.{hook.attr}"
        assert fn.__module__ == home.__name__, f"{hook.module}.{hook.attr}"
