"""Every entry point the benchmark tracer wraps must still exist in bggkit.

The tracer in ``bench/tracer.py`` rebinds bggkit functions and methods by
name; if one is deleted or renamed, a traced benchmark run breaks.  A
traced run also fails when a layer it expects on a workload records no
call, which caching can cause.  The tracer is compiled from its source
text, so it is only read.
"""

import functools
import importlib
import sys
import types
from collections import Counter
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _bench(name):
    """bench/<name>.py compiled from its source text; the file is only read."""
    path = BENCH / f"{name}.py"
    module = types.ModuleType(f"bench_{name}")
    module.__file__ = str(path)
    exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    return module


def _tracer():
    return _bench("tracer")


def _count_layers(monkeypatch, required) -> Counter:
    """Count the calls on each required layer: wrap every bggkit binding of
    its traced functions, and its traced methods, the way the tracer does."""
    tracer = _tracer()
    calls = Counter()

    def counting(name, fn):
        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    for layer, mod, attr, _count in tracer.FUNCTIONS:
        if layer not in required:
            continue
        original = getattr(importlib.import_module(f"bggkit.{mod}"), attr)
        for mod_name, module in list(sys.modules.items()):
            if module is not None and mod_name.split(".")[0] == "bggkit":
                for name, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, name, counting(layer, original))
    for layer, mod, cls_name, meth, _count in tracer.METHODS:
        if layer in required:
            cls = getattr(importlib.import_module(f"bggkit.{mod}"), cls_name)
            monkeypatch.setattr(cls, meth, counting(layer, vars(cls)[meth]))
    return calls


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


def test_cosserat_energy_reaches_traced_energy_layers(monkeypatch):
    # a traced energy run fails unless each of these layers records a call;
    # wrap every bggkit binding of each, the way the tracer rebinds them
    from bggkit import cube, energy
    from bggkit.linalg import SparseMat

    calls = Counter()

    def counting(name, fn):
        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    for name, original in [("energy.l2sq_scalar", energy.l2sq_scalar),
                           ("cube.stacked_cube_gram", cube.stacked_cube_gram),
                           ("cube.mono_cube_gram", cube.mono_cube_gram)]:
        for mod_name, mod in list(sys.modules.items()):
            if mod is not None and mod_name.split(".")[0] == "bggkit":
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        monkeypatch.setattr(mod, attr, counting(name, original))
    for meth in ("kron", "apply"):
        monkeypatch.setattr(SparseMat, meth, counting(f"SparseMat.{meth}", vars(SparseMat)[meth]))

    # a fresh bench worker builds the diagram too, reaching kron through build
    energy._twisted_map.cache_clear()
    energy._twisted_form.cache_clear()
    x = [energy.p_mono((1, 0, 0)), energy.p_mono((0, 1, 0)), energy.p_mono((0, 0, 1))]
    energy.cosserat_energy(x, [{}, {}, {}], energy.EnergyParams())
    missing = [name for name in ("energy.l2sq_scalar", "cube.stacked_cube_gram",
                                 "cube.mono_cube_gram", "SparseMat.kron", "SparseMat.apply")
               if not calls[name]]
    assert missing == []

    # a warm request, served from every cache and memo, still takes both routes
    calls.clear()
    energy.cosserat_energy(x, [{}, {}, {}], energy.EnergyParams())
    assert [name for name in ("energy.l2sq_scalar", "SparseMat.apply")
            if not calls[name]] == []


def test_bgg_oracles_reach_traced_certify_layers(monkeypatch):
    # a traced certify run fails unless each of these layers records a call;
    # B no longer forms G, so the oracles alone must reach the homotopy
    from bggkit import bgg, build, catalog

    required = {"bgg.G_column", "bgg.projection", "bgg.verify_T_column_identities",
                "bgg.verify_G_properties", "bgg.verify_chain_maps",
                "bgg.verify_block_structure", "linalg.pinv_onto",
                "linalg.projection_onto", "linalg.solve_dense", "linalg.column_space",
                "linalg.nullspace", "linalg.rank"}
    calls = _count_layers(monkeypatch, required)

    bd = build(catalog.get("plate-2d").spec, 3)
    ops = bgg.derive(bd)
    w = 3
    bgg.verify_T_column_identities(bd, ops.t, w)
    bgg.verify_G_properties(bd, ops.hs, ops.t, ops.g, w)
    bgg.verify_chain_maps(ops.bc, ops.b, w)
    for i in range(bd.n + 1):
        bgg.verify_block_structure(ops, i, w)
    assert sorted(required - set(calls)) == []


def test_korn_experiment_reaches_traced_korn_layers(monkeypatch):
    # a traced korn run fails unless every layer bench/run.py expects on korn
    # records a call
    from bggkit import korn

    required = {layer for layer, workloads in _bench("run").LAYERS.items()
                if "korn" in workloads}
    calls = _count_layers(monkeypatch, required)
    korn.korn2d_experiment(4)
    assert sorted(required - set(calls)) == []


def test_cohomology_path_reaches_traced_cohomology_layers(monkeypatch):
    # a traced cohomology run fails unless every layer bench/run.py expects
    # on cohomology records a call
    from bggkit import bgg, catalog, diagram

    required = {layer for layer, workloads in _bench("run").LAYERS.items()
                if "cohomology" in workloads}
    calls = _count_layers(monkeypatch, required)
    bd = diagram.build(catalog.get("higher-hessian-3d(3)").spec, 3)
    diagram.twisted_cohomology(bd)
    bgg.bgg_cohomology(bgg.derive(bd).bc)
    assert sorted(required - set(calls)) == []
