"""Ready-made diagrams with expected verification fingerprints.

Entries are constructed from the explicit constant tensors of each model
(coordinate projections/insertions, matrix action on the position vector,
bracket with the position vector, symmetric-index contraction).  Each entry
records the expected harmonic-space support, total degree-zero cohomology
and operator orders, with a source tag stating how the value is known.

Entries can also be serialized to a line-oriented text format so diagrams
can be added without touching the code; see ``to_text`` / ``parse_text``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .bgg import bgg_cohomology, derive
from .diagram import DiagramSpec, KappaSpec, build, verify_identities
from .export import frac_str
from .forms import ValueSpace
from .linalg import LinAlgError, SparseMat


def _mskw_gen(k: int) -> SparseMat:
    """3D skew generator: the matrix of v x (.) for v = e_k (1-based)."""
    ent = {}
    triples = {1: [(1, 2, -1), (2, 1, 1)],
               2: [(0, 2, 1), (2, 0, -1)],
               3: [(0, 1, -1), (1, 0, 1)]}
    for r, c, v in triples[k]:
        ent[(r, c)] = Fraction(v)
    return SparseMat(3, 3, ent)


def _unit_row(l: int, dim: int) -> SparseMat:
    return SparseMat(1, dim, {(0, l - 1): Fraction(1)})


def _unit_col(l: int, dim: int) -> SparseMat:
    return SparseMat(dim, 1, {(l - 1, 0): Fraction(1)})


@dataclass
class CatalogEntry:
    name: str
    spec: DiagramSpec
    expected: dict = field(default_factory=dict)

    # Optional per-row value actions for pullback equivariance checks:
    # a callable mapping an orthogonal matrix to one action matrix per row.
    value_actions: object = None


def conf_hessian_3d() -> CatalogEntry:
    rows = (
        ValueSpace("R", ("u",)),
        ValueSpace.coordinates("v", 3),
        ValueSpace("R", ("w",)),
    )
    kappa = KappaSpec((
        tuple(_unit_row(l, 3) for l in (1, 2, 3)),   # coordinate projections
        tuple(_unit_col(l, 3) for l in (1, 2, 3)),   # coordinate insertions
    ))
    spec = DiagramSpec("conf-hessian-3d", 3, rows, kappa)
    expected = {
        "upsilon_support": {(0, 0): 1, (1, 1): 5, (2, 1): 5, (3, 2): 1},
        "h0_total": 5,
        "operator_orders": [[2], [1], [2]],
        "source": {
            "upsilon_support": "constant-level kernel/range dimension count",
            "h0_total": "sum of row value-space dims; nullspace oracle",
            "operator_orders": "weight shift of derived differential blocks",
        },
    }

    def value_actions(a: SparseMat):
        one = SparseMat.identity(1)
        return [one, a.transpose(), one]

    return CatalogEntry(spec.name, spec, expected, value_actions)


def conf_deformation_3d() -> CatalogEntry:
    rows = (
        ValueSpace.coordinates("u", 3),
        ValueSpace("skw+R", ("s1", "s2", "s3", "t")),
        ValueSpace.coordinates("w", 3),
    )
    # Row 1: matrix action on the position vector.  The value (s, t) is the
    # matrix t*I - mskw(s); kappa_l extracts its l-th column.
    k1 = []
    for l in (1, 2, 3):
        ent = {(l - 1, 3): Fraction(1)}
        for k in (1, 2, 3):
            for r in range(3):
                val = -_mskw_gen(k).get(r, l - 1)
                if val != 0:
                    ent[(r, k - 1)] = val
        k1.append(SparseMat(3, 4, ent))
    # Row 2: bracket with the position vector: omega -> (-e_l x omega, -omega_l).
    k2 = []
    for l in (1, 2, 3):
        ent = {(3, l - 1): Fraction(-1)}
        for r, c, v in _mskw_gen(l).entries():
            ent[(r, c)] = -v
        k2.append(SparseMat(4, 3, ent))
    kappa = KappaSpec((tuple(k1), tuple(k2)))
    spec = DiagramSpec("conf-deformation-3d", 3, rows, kappa)
    expected = {
        "upsilon_support": {(0, 0): 3, (1, 0): 5, (2, 2): 5, (3, 2): 3},
        "h0_total": 10,
        "operator_orders": [[1], [3], [1]],
        "source": {
            "upsilon_support": "constant-level kernel/range dimension count",
            "h0_total": "conformal Killing field count; nullspace oracle",
            "operator_orders": "weight shift of derived differential blocks",
        },
    }
    return CatalogEntry(spec.name, spec, expected)


def _sym_indices(j: int) -> list[tuple[int, ...]]:
    """Sorted multi-indices of length j over {1,2,3} (basis of Sym^j)."""
    if j == 0:
        return [()]
    out = []
    prev = _sym_indices(j - 1)
    for m in prev:
        start = m[-1] if m else 1
        for k in range(start, 4):
            out.append(m + (k,))
    return out


def higher_hessian_3d(order: int) -> CatalogEntry:
    if order < 1:
        raise ValueError("higher-hessian order must be >= 1")
    rows = []
    for j in range(order + 1):
        labels = tuple("s" + "".join(map(str, m)) if m else "1"
                       for m in _sym_indices(j))
        rows.append(ValueSpace(f"Sym{j}", labels))
    kappa_rows = []
    for j in range(1, order + 1):
        src = _sym_indices(j)
        tgt = {m: k for k, m in enumerate(_sym_indices(j - 1))}
        maps = []
        src_index = {m: k for k, m in enumerate(src)}
        for l in (1, 2, 3):
            ent = {}
            for tk, row in tgt.items():
                full = tuple(sorted((l,) + tk))
                ent[(row, src_index[full])] = Fraction(1)
            maps.append(SparseMat(len(tgt), len(src), ent))
        kappa_rows.append(tuple(maps))
    spec = DiagramSpec(f"higher-hessian-3d({order})", 3, tuple(rows),
                       KappaSpec(tuple(kappa_rows)))
    from math import comb
    w_dim = 3 * comb(order + 2, 2) - comb(order + 1, 2)
    expected = {
        "upsilon_support": {(0, 0): 1, (1, order): comb(order + 3, 2),
                            (2, order): w_dim, (3, order): comb(order + 2, 2)},
        "h0_total": comb(order + 3, 3),
        "operator_orders": [[order + 1], [1], [1]],
        "source": {
            "upsilon_support": "symmetric-power dimension count",
            "h0_total": "polynomials of degree <= order; nullspace oracle",
            "operator_orders": "weight shift of derived differential blocks",
        },
    }
    return CatalogEntry(spec.name, spec, expected)


def mobius_2d() -> CatalogEntry:
    rows = (
        ValueSpace.coordinates("u", 2),
        ValueSpace("R+R", ("s", "t")),
        ValueSpace.coordinates("w", 2),
    )
    # Row 1: (s, t) -> x (x) s + x_perp (x) t
    k1 = (
        SparseMat.from_dense([[1, 0], [0, 1]]),
        SparseMat.from_dense([[0, -1], [1, 0]]),
    )
    # Row 2: u -> (x . u, -x_perp . u)
    k2 = (
        SparseMat.from_dense([[1, 0], [0, -1]]),
        SparseMat.from_dense([[0, 1], [1, 0]]),
    )
    kappa = KappaSpec((k1, k2))
    spec = DiagramSpec("mobius-2d", 2, rows, kappa)
    expected = {
        "upsilon_support": {(0, 0): 2, (1, 0): 2, (1, 2): 2, (2, 2): 2},
        "h0_total": 6,
        "operator_orders": [[1, 3], [1, 3]],
        "source": {
            "upsilon_support": "constant-level kernel/range dimension count",
            "h0_total": "nullspace oracle on low-degree fields",
            "operator_orders": "weight shift of derived differential blocks",
        },
    }
    return CatalogEntry(spec.name, spec, expected)


def elasticity_3d() -> CatalogEntry:
    rows = (
        ValueSpace.coordinates("u", 3),
        ValueSpace("Skw", ("w1", "w2", "w3")),
    )
    # kappa_l inserts the position slot: (kappa_l w)_j = mskw(w)_{l j}
    maps = []
    for l in (1, 2, 3):
        ent = {}
        for k in (1, 2, 3):
            for j in range(3):
                v = _mskw_gen(k).get(l - 1, j)
                if v != 0:
                    ent[(j, k - 1)] = v
        maps.append(SparseMat(3, 3, ent))
    kappa = KappaSpec((tuple(maps),))
    spec = DiagramSpec("elasticity-3d", 3, rows, kappa)
    expected = {
        "upsilon_support": {(0, 0): 3, (1, 0): 6, (2, 1): 6, (3, 1): 3},
        "h0_total": 6,
        "operator_orders": [[1], [2], [1]],
        "source": {
            "upsilon_support": "constant-level kernel/range dimension count",
            "h0_total": "rigid-motion kernel; nullspace oracle",
            "operator_orders": "weight shift of derived differential blocks",
        },
    }
    return CatalogEntry(spec.name, spec, expected)


def plate_2d() -> CatalogEntry:
    rows = (
        ValueSpace("R", ("u",)),
        ValueSpace.coordinates("v", 2),
    )
    kappa = KappaSpec((tuple(_unit_row(l, 2) for l in (1, 2)),))
    spec = DiagramSpec("plate-2d", 2, rows, kappa)
    expected = {
        "upsilon_support": {(0, 0): 1, (1, 1): 3, (2, 1): 2},
        "h0_total": 3,
        "operator_orders": [[2], [1]],
        "source": {
            "upsilon_support": "constant-level kernel/range dimension count",
            "h0_total": "affine kernel; nullspace oracle",
            "operator_orders": "weight shift of derived differential blocks",
        },
    }
    return CatalogEntry(spec.name, spec, expected)


_BUILDERS = {
    "conf-hessian-3d": conf_hessian_3d,
    "conf-deformation-3d": conf_deformation_3d,
    "mobius-2d": mobius_2d,
    "elasticity-3d": elasticity_3d,
    "plate-2d": plate_2d,
}

BASE_NAMES = tuple(_BUILDERS) + ("higher-hessian-3d(N)",)


def names(max_order: int = 4) -> list[str]:
    out = list(_BUILDERS)
    out[2:2] = [f"higher-hessian-3d({k})" for k in range(1, max_order + 1)]
    return out


def get(name: str) -> CatalogEntry:
    """Look up a catalog entry; higher-hessian-3d takes its order in parens."""
    if name in _BUILDERS:
        return _BUILDERS[name]()
    if name.startswith("higher-hessian-3d(") and name.endswith(")"):
        arg = name[len("higher-hessian-3d("):-1]
        try:
            order = int(arg)
        except ValueError:
            raise KeyError(f"bad higher-hessian order: {arg!r}")
        return higher_hessian_3d(order)
    raise KeyError(f"unknown diagram {name!r}; known: {', '.join(names())}")


# -- text serialization ------------------------------------------------------


def to_text(entry: CatalogEntry) -> str:
    """Serialize an entry to the line-oriented diagram format."""
    spec = entry.spec
    lines = [
        "# bggkit diagram, format v1",
        f"name {spec.name}",
        f"n {spec.n}",
        f"rows {len(spec.rows)}",
    ]
    for j, vs in enumerate(spec.rows):
        lines.append(f"row {j} name={vs.name} dim={vs.dim} "
                     f"labels={','.join(vs.basis_labels)}")
    for j in range(1, spec.N + 1):
        for l, mat in enumerate(spec.kappa.row(j), start=1):
            triples = " ".join(f"{r}:{c}:{frac_str(v)}" for r, c, v in mat.entries())
            lines.append(f"kappa {j} {l} {triples}".rstrip())
    for key in ("h0_total",):
        if key in entry.expected:
            src = entry.expected.get("source", {}).get(key, "unspecified")
            lines.append(f"expect {key} {entry.expected[key]} source={src}")
    if "upsilon_support" in entry.expected:
        src = entry.expected.get("source", {}).get("upsilon_support", "unspecified")
        for (i, j), dim in sorted(entry.expected["upsilon_support"].items()):
            lines.append(f"expect upsilon {i} {j} {dim} source={src}")
    if "operator_orders" in entry.expected:
        src = entry.expected.get("source", {}).get("operator_orders", "unspecified")
        for idx, orders in enumerate(entry.expected["operator_orders"]):
            lines.append(f"expect orders {idx} {','.join(map(str, orders))} source={src}")
    return "\n".join(lines) + "\n"


# Arguments each directive needs after its own words.
_ARGS = {"name": 1, "n": 1, "rows": 1, "row": 1, "kappa": 2, "expect": 1,
         "expect h0_total": 1, "expect upsilon": 3, "expect orders": 2}


def _need_args(directive: str, parts: list):
    need = _ARGS.get(directive, 0)
    if len(parts) - len(directive.split()) < need:
        raise ValueError(f"{directive}: needs {need} argument(s), "
                         f"got {' '.join(parts)!r}")


def _int(directive: str, what: str, token: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise ValueError(f"{directive}: {what} must be an integer, got {token!r}") from None


def parse_text(text: str) -> CatalogEntry:
    """Parse the diagram text format back into a catalog entry."""
    name = None
    n = None
    row_count = None
    rows: dict[int, ValueSpace] = {}
    kappa_entries: dict[tuple[int, int], list] = {}
    expected: dict = {"source": {}}
    declared: set[str] = set()
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        kind = parts[0]
        _need_args(kind, parts)
        if kind in ("name", "n", "rows"):
            if kind in declared:
                raise ValueError(f"{kind}: declared twice")
            declared.add(kind)
        if kind == "name":
            name = parts[1]
        elif kind == "n":
            n = _int("n", "value", parts[1])
        elif kind == "rows":
            row_count = _int("rows", "value", parts[1])
        elif kind == "row":
            j = _int("row", "index", parts[1])
            if j in rows:
                raise ValueError(f"row {j}: declared twice")
            bare = [p for p in parts[2:] if "=" not in p]
            if bare:
                raise ValueError(f"row {j}: needs key=value tokens, got {bare[0]!r}")
            attrs = dict(p.split("=", 1) for p in parts[2:])
            if "dim" not in attrs:
                raise ValueError(f"row {j}: needs dim=")
            labels = tuple(attrs["labels"].split(",")) if "labels" in attrs else None
            dim = _int(f"row {j}", "dim", attrs["dim"])
            if labels is None:
                labels = tuple(f"{attrs.get('name', 'e')}{k + 1}" for k in range(dim))
            if len(labels) != dim:
                raise ValueError(f"row {j}: {len(labels)} labels for dim {dim}")
            rows[j] = ValueSpace(attrs.get("name", f"V{j}"), labels)
        elif kind == "kappa":
            j, l = _int("kappa", "index", parts[1]), _int("kappa", "index", parts[2])
            if (j, l) in kappa_entries:
                raise ValueError(f"kappa {j} {l}: declared twice")
            triples = []
            for t in parts[3:]:
                try:
                    r, c, v = t.split(":")
                    triples.append((int(r), int(c), Fraction(v)))
                except (ValueError, ZeroDivisionError):
                    raise ValueError(
                        f"kappa {j} {l}: bad entry {t!r}, expected row:col:value") from None
            kappa_entries[(j, l)] = triples
        elif kind == "expect":
            src = "unspecified"
            if " source=" in line:
                line, src = line.split(" source=", 1)
                parts = line.split()
            _need_args(kind, parts)
            what = parts[1]
            _need_args(f"expect {what}", parts)
            rest = parts[2:]
            if what == "h0_total":
                expected["h0_total"] = _int("expect h0_total", "value", rest[0])
                expected["source"]["h0_total"] = src
            elif what == "upsilon":
                i, j, dim = (_int("expect upsilon", "value", x) for x in rest[:3])
                expected.setdefault("upsilon_support", {})[(i, j)] = dim
                expected["source"]["upsilon_support"] = src
            elif what == "orders":
                idx = _int("expect orders", "index", rest[0])
                orders = [_int("expect orders", "order", x) for x in rest[1].split(",")]
                lst = expected.setdefault("operator_orders", [])
                while len(lst) <= idx:
                    lst.append([])
                lst[idx] = orders
                expected["source"]["operator_orders"] = src
            else:
                raise ValueError(f"unknown expectation {what!r}")
        else:
            raise ValueError(f"unknown directive {kind!r}")
    if name is None or n is None or row_count is None:
        raise ValueError("diagram file must declare name, n and rows")
    if n < 1 or row_count < 1:
        raise ValueError(f"n and rows must be >= 1, got n {n} and rows {row_count}")
    if sorted(rows) != list(range(row_count)):
        raise ValueError("row declarations do not match the declared count")
    for j, l in kappa_entries:
        if not (1 <= j < row_count and 1 <= l <= n):
            raise ValueError(
                f"kappa {j} {l}: needs 1 <= j < {row_count} and 1 <= l <= {n}")
    row_spaces = tuple(rows[j] for j in range(row_count))
    kappa_rows = []
    for j in range(1, row_count):
        maps = []
        for l in range(1, n + 1):
            try:
                maps.append(SparseMat(row_spaces[j - 1].dim, row_spaces[j].dim,
                                      kappa_entries.get((j, l), [])))
            except LinAlgError as err:
                raise ValueError(f"kappa {j} {l}: {err}") from None
        kappa_rows.append(tuple(maps))
    spec = DiagramSpec(name, n, row_spaces, KappaSpec(tuple(kappa_rows)))
    return CatalogEntry(name, spec, expected)


def load_file(path) -> CatalogEntry:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_text(fh.read())


# -- fingerprinting -----------------------------------------------------------


@dataclass
class FingerprintReport:
    name: str
    w_max: int
    identity_ok: bool
    comparisons: list  # (key, expected, actual, ok)

    @property
    def ok(self) -> bool:
        return self.identity_ok and all(c[3] for c in self.comparisons)

    def lines(self) -> list[str]:
        out = [f"fingerprint {self.name} (w_max={self.w_max})"]
        out.append(f"  identities: {'pass' if self.identity_ok else 'FAIL'}")
        for key, expected, actual, ok in self.comparisons:
            mark = "pass" if ok else "FAIL"
            out.append(f"  {key}: expected {expected}, got {actual} [{mark}]")
        return out


def fingerprint(entry: CatalogEntry, w_max: int = 8) -> FingerprintReport:
    """Build, verify, derive, and compare every expected value of an entry.

    Raises ValueError when w_max is below the largest i + j of the harmonic
    support: the weight at which the last harmonic block, and with it the
    last derived operator, first appears.
    """
    bd = build(entry.spec, w_max)
    ops = derive(bd)
    need = max((i + j for i, j in ops.hs.support()), default=0)
    if w_max < need:
        raise ValueError(f"w_max {w_max} is too small to show the fingerprint "
                         f"of {entry.name}; use at least {need}")
    identity_ok = verify_identities(bd).ok
    comparisons = []
    if "upsilon_support" in entry.expected:
        actual = ops.hs.support()
        expected = entry.expected["upsilon_support"]
        comparisons.append(("upsilon_support", expected, actual, actual == expected))
    dims = bgg_cohomology(ops.bc)
    if "h0_total" in entry.expected:
        actual = sum(v for (i, w), v in dims.items() if i == 0)
        expected = entry.expected["h0_total"]
        comparisons.append(("h0_total", expected, actual, actual == expected))
    higher = all(v == 0 for (i, w), v in dims.items() if i > 0)
    comparisons.append(("higher_cohomology_vanishes", True, higher, higher))
    if "operator_orders" in entry.expected:
        actual_orders = [ops.bc.block_orders(i) for i in range(bd.n)]
        expected_orders = [list(o) for o in entry.expected["operator_orders"]]
        comparisons.append(("operator_orders", expected_orders, actual_orders,
                            actual_orders == expected_orders))
    return FingerprintReport(entry.name, w_max, identity_ok, comparisons)
