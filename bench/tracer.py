"""In-memory span tracer for the benchmark's traced runs.

``install(tracer)`` wraps bggkit's public functions and ``SparseMat`` methods
from outside: every module-level name binding of a wrapped function (the
``from .linalg import rank`` copies in ``bgg``, ``diagram`` and ``korn``, the
package re-exports) is replaced, and methods are replaced on their class.
Each call records a span (layer, start, end, parent) in memory; the spans are
reduced to per-layer ``calls``, ``s`` and ``self_s`` when the rep ends.

Work counters read matrices only through public accessors (``rows``,
``cols``, ``nnz``, ``entries()`` and ``__hash__``), so they keep working when
the storage behind ``SparseMat`` changes.  Counting runs inside a
``trace.count`` child span, so it is excluded from the caller's self time
and shows up in the tracing overhead instead.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter
from time import perf_counter

COUNT_SPAN = "trace.count"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self._stack: list[int] = []
        self.counters: Counter = Counter()
        self.maxima: dict = {}
        self.operands: dict = {}   # layer -> set of operand keys
        self.operand_calls: Counter = Counter()

    def _open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(perf_counter())
        return idx

    def _close(self, idx: int):
        self.ends[idx] = perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn, count=None):
        """Wrap fn in a span; count(args, result) runs in a trace.count span."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if count is not None:
                cidx = self._open(COUNT_SPAN)
                try:
                    count(self, args, result)
                finally:
                    self._close(cidx)
            return result
        return traced

    # -- counter helpers -------------------------------------------------

    def add(self, key: str, value):
        self.counters[key] += value

    def maximum(self, key: str, value):
        if value > self.maxima.get(key, 0):
            self.maxima[key] = value

    def operand(self, layer: str, key):
        self.operands.setdefault(layer, set()).add(key)
        self.operand_calls[layer] += 1

    # -- reduction ---------------------------------------------------------

    def layer_table(self) -> dict:
        """Per layer: calls, inclusive seconds (outermost spans) and self seconds."""
        n = len(self.names)
        child_time = [0.0] * n
        for k in range(n):
            p = self.parents[k]
            if p >= 0:
                child_time[p] += self.ends[k] - self.starts[k]
        table: dict = {}
        for k in range(n):
            name = self.names[k]
            row = table.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            dur = self.ends[k] - self.starts[k]
            row["calls"] += 1
            row["self_s"] += dur - child_time[k]
            if not self._inside_same(k):
                row["s"] += dur
        return table

    def _inside_same(self, k: int) -> bool:
        name = self.names[k]
        p = self.parents[k]
        while p >= 0:
            if self.names[p] == name:
                return True
            p = self.parents[p]
        return False


def _mat_key(m):
    return (m.rows, m.cols, m.nnz, hash(m))


def _count_matmul(tr: Tracer, args, out):
    a, b = args
    col_counts = Counter(c for _, c, _ in a.entries())
    row_counts = Counter(r for r, _, _ in b.entries())
    tr.add("linalg.matmul.madds", sum(n * row_counts[k] for k, n in col_counts.items()))
    tr.add("linalg.matmul.nnz_out", out.nnz)
    tr.add("linalg.matmul.cells_out", out.rows * out.cols)
    bits = max((v.denominator.bit_length() for _, _, v in out.entries()), default=0)
    tr.maximum("linalg.matmul.max_den_bits", bits)


def _count_kron(tr: Tracer, args, out):
    tr.add("linalg.kron.nnz_out", out.nnz)


def _count_rank(tr: Tracer, args, out):
    tr.add("linalg.rank.nnz_in", args[0].nnz)
    tr.operand("linalg.rank", _mat_key(args[0]))


def _count_nullspace(tr: Tracer, args, out):
    tr.operand("linalg.nullspace", _mat_key(args[0]))


def _count_solve_dense(tr: Tracer, args, out):
    tr.operand("linalg.solve_dense", (_mat_key(args[0]), _mat_key(args[1])))


def _count_stacked_gram(tr: Tracer, args, out):
    tr.add("cube.stacked_cube_gram.nnz_out", out.nnz)


def _wrap_cached(tr: Tracer, name: str, cached):
    """Span around an lru_cache'd function; counts hits from cache_info()."""
    @functools.wraps(cached)
    def traced(*args, **kwargs):
        before = cached.cache_info().hits
        idx = tr._open(name)
        try:
            result = cached(*args, **kwargs)
        finally:
            tr._close(idx)
        tr.add(name + ".hits", cached.cache_info().hits - before)
        return result
    traced.cache_info = cached.cache_info
    traced.cache_clear = cached.cache_clear
    return traced


def _rebind(original, replacement):
    """Replace every module-level binding of original inside bggkit."""
    count = 0
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "bggkit" or mod_name.startswith("bggkit.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)
                count += 1
    if count == 0:
        raise RuntimeError(f"no binding found for {original!r}")


# Module functions: (layer, module, attribute, counter).
FUNCTIONS = [
    ("linalg.block_matrix", "linalg", "block_matrix", None),
    ("linalg.rank", "linalg", "rank", _count_rank),
    ("linalg.nullspace", "linalg", "nullspace", _count_nullspace),
    ("linalg.column_space", "linalg", "column_space", None),
    ("linalg.solve_dense", "linalg", "solve_dense", _count_solve_dense),
    ("linalg.projection_onto", "linalg", "projection_onto", None),
    ("linalg.pinv_onto", "linalg", "pinv_onto", None),
    ("forms.exterior_derivative", "forms", "exterior_derivative", None),
    ("diagram.build", "diagram", "build", None),
    ("diagram.verify_identities", "diagram", "verify_identities", None),
    ("diagram.twisted_cohomology", "diagram", "twisted_cohomology", None),
    ("bgg.derive", "bgg", "derive", None),
    ("bgg.hodge_split", "bgg", "hodge_split", None),
    ("bgg.compute_T", "bgg", "compute_T", None),
    ("bgg.compute_D", "bgg", "compute_D", None),
    ("bgg.verify_T_column_identities", "bgg", "verify_T_column_identities", None),
    ("bgg.verify_G_properties", "bgg", "verify_G_properties", None),
    ("bgg.verify_chain_maps", "bgg", "verify_chain_maps", None),
    ("bgg.verify_block_structure", "bgg", "verify_block_structure", None),
    ("bgg.bgg_cohomology", "bgg", "bgg_cohomology", None),
    ("cube.stacked_cube_gram", "cube", "stacked_cube_gram", _count_stacked_gram),
    ("energy.l2sq", "energy", "l2sq_scalar", None),
    ("energy.l2sq", "energy", "l2sq_vec", None),
    ("energy.l2sq", "energy", "l2sq_mat", None),
    ("korn.korn2d_experiment", "korn", "korn2d_experiment", None),
    ("korn.eigh", "korn", "eigh", None),
    ("export.write_matrix_market", "export", "write_matrix_market", None),
]

# Methods: (layer, module, class, method, counter).
METHODS = [
    ("linalg.matmul", "linalg", "SparseMat", "__matmul__", _count_matmul),
    ("linalg.add", "linalg", "SparseMat", "__add__", None),
    ("linalg.kron", "linalg", "SparseMat", "kron", _count_kron),
    ("linalg.apply", "linalg", "SparseMat", "apply", None),
    ("diagram.column_ops", "diagram", "BuiltDiagram", "d", None),
    ("diagram.column_ops", "diagram", "BuiltDiagram", "K", None),
    ("diagram.column_ops", "diagram", "BuiltDiagram", "S", None),
    ("diagram.column_ops", "diagram", "BuiltDiagram", "d_V", None),
    ("diagram.column_ops", "diagram", "BuiltDiagram", "F", None),
    ("bgg.G_column", "bgg", "GOps", "column", None),
    ("bgg.projection", "bgg", "BGGComplex", "projection", None),
]

def install(tr: Tracer):
    """Wrap every traced entry point of an already imported bggkit."""
    import importlib
    mods = {m: importlib.import_module(f"bggkit.{m}")
            for m in ("linalg", "forms", "diagram", "bgg", "cube", "energy",
                      "korn", "export")}
    for layer, mod, attr, count in FUNCTIONS:
        original = getattr(mods[mod], attr)
        _rebind(original, tr.wrap(layer, original, count))
    cached = mods["cube"].mono_cube_gram
    _rebind(cached, _wrap_cached(tr, "cube.mono_cube_gram", cached))
    for layer, mod, cls_name, meth, count in METHODS:
        cls = getattr(mods[mod], cls_name)
        setattr(cls, meth, tr.wrap(layer, vars(cls)[meth], count))


def summary(tr: Tracer) -> dict:
    """Flat per-layer metrics of one traced rep."""
    out = {}
    for layer, row in tr.layer_table().items():
        for key, value in row.items():
            out[f"{layer}.{key}"] = value
    c = tr.counters
    out.update({key: value for key, value in c.items() if not key.endswith((".cells_out", ".hits"))})
    out.update(tr.maxima)
    if c["linalg.matmul.cells_out"]:
        out["linalg.matmul.dense_frac"] = c["linalg.matmul.nnz_out"] / c["linalg.matmul.cells_out"]
    calls = out.get("cube.mono_cube_gram.calls", 0)
    if calls:
        out["cube.mono_cube_gram.hit_ratio"] = c["cube.mono_cube_gram.hits"] / calls
    for layer, keys in tr.operands.items():
        out[f"{layer}.distinct_frac"] = len(keys) / tr.operand_calls[layer]
    out["trace.spans"] = len(tr.names)
    return out
