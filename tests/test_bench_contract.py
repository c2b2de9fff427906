"""Every entry point the benchmark tracer wraps must still exist in bggkit.

The tracer in ``bench/tracer.py`` rebinds bggkit functions and methods by
name; if one is deleted or renamed, a traced benchmark run breaks.  The
tracer is compiled from its source text, so it is only read.
"""

import importlib
import types
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def _tracer():
    module = types.ModuleType("bench_tracer")
    exec(compile(TRACER.read_text(), str(TRACER), "exec"), module.__dict__)
    return module


def test_traced_functions_resolve():
    tracer = _tracer()
    for layer, mod, attr, _count in tracer.FUNCTIONS:
        module = importlib.import_module(f"bggkit.{mod}")
        assert callable(getattr(module, attr, None)), (layer, mod, attr)


def test_traced_methods_resolve():
    tracer = _tracer()
    for layer, mod, cls_name, meth, _count in tracer.METHODS:
        cls = getattr(importlib.import_module(f"bggkit.{mod}"), cls_name)
        assert meth in vars(cls), (layer, cls_name, meth)


def test_mono_cube_gram_keeps_its_cache():
    from bggkit import cube
    assert hasattr(cube.mono_cube_gram, "cache_info")
