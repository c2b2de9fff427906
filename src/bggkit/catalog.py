"""Ready-made diagrams with expected verification fingerprints.

The fixed entries are the shipped text files ``data/<name>.diagram``, read
by the same parser as ``--diagram-file``; ``higher-hessian-3d(N)`` is
generated, its symmetric-index contraction kappa_l being the transpose of
multiplication by x_l on the degree-j monomials that index Sym^j.  Each
entry records the expected harmonic-space support, total degree-zero
cohomology and operator orders, with a source tag stating how the value is
known.

New diagrams need no code: see ``to_text`` / ``parse_text`` for the
line-oriented text format.
"""

from __future__ import annotations

from itertools import combinations_with_replacement
from math import comb
from pathlib import Path

from .bgg import bgg_cohomology, derive, hodge_split
from .diagram import DiagramSpec, InputError, KappaSpec, build, parse_rational, \
    verify_identities
from .forms import ValueSpace, _mult_scalar
from .linalg import LinAlgError, SparseMat, take_cols, take_rows


class CatalogEntry:
    """A diagram spec with its expected fingerprint values and their sources.

    ``value_actions``, when given, is a callable mapping an orthogonal matrix
    to one action matrix per row, for pullback equivariance checks.
    """

    def __init__(self, name: str, spec: DiagramSpec, expected: dict | None = None,
                 value_actions=None):
        self.name = name
        self.spec = spec
        self.expected = {} if expected is None else expected
        self.value_actions = value_actions


_DATA_DIR = Path(__file__).resolve().parent / "data"

# The fixed entries in listing order; each is read from _DATA_DIR.
_FIXED = ("conf-hessian-3d", "conf-deformation-3d", "mobius-2d",
          "elasticity-3d", "plate-2d")
_LISTED_ORDER = 4  # names() lists higher-hessian-3d up to this order; get() takes any


def _conf_hessian_actions(a: SparseMat):
    # rows R, R^3, R: pullback by a fixes the scalars and acts on v by a^T
    one = SparseMat.identity(1)
    return [one, a.transpose(), one]


def _sym_indices(j: int) -> list[tuple[int, ...]]:
    """Sorted multi-indices of length j over {1,2,3} (basis of Sym^j); index m
    stands for the monomial prod_{l in m} x_l, so this is monomials(3, j) reversed."""
    return list(combinations_with_replacement((1, 2, 3), j))


def higher_hessian_3d(order: int) -> CatalogEntry:
    if order < 1:
        raise InputError("higher-hessian order must be >= 1")
    rows = []
    for j in range(order + 1):
        labels = tuple("s" + "".join(map(str, m)) if m else "1"
                       for m in _sym_indices(j))
        rows.append(ValueSpace(f"Sym{j}", labels))
    # kappa_l removes one l from an index: (x_l times)^T in _sym_indices' order
    back = [range(comb(j + 2, 2) - 1, -1, -1) for j in range(order + 1)]
    kappa_rows = [tuple(take_rows(take_cols(_mult_scalar(3, j - 1, l).transpose(), back[j]),
                                  back[j - 1]) for l in (1, 2, 3))
                  for j in range(1, order + 1)]
    spec = DiagramSpec(f"higher-hessian-3d({order})", 3, tuple(rows),
                       KappaSpec(tuple(kappa_rows)))
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


def names() -> list[str]:
    out = list(_FIXED)
    out[2:2] = [f"higher-hessian-3d({k})" for k in range(1, _LISTED_ORDER + 1)]
    return out


def get(name: str) -> CatalogEntry:
    """Look up a catalog entry; higher-hessian-3d takes its order in parens."""
    if name in _FIXED:
        entry = load_file(_DATA_DIR / f"{name}.diagram")
        if name == "conf-hessian-3d":
            entry.value_actions = _conf_hessian_actions
        return entry
    if name.startswith("higher-hessian-3d(") and name.endswith(")"):
        arg = name[len("higher-hessian-3d("):-1]
        try:
            order = int(arg)
        except ValueError:
            raise InputError(f"bad higher-hessian order: {arg!r}") from None
        return higher_hessian_3d(order)
    raise InputError(f"unknown diagram {name!r}; known: {', '.join(names())}")


# -- text serialization ------------------------------------------------------


def _token(what: str, value: str) -> str:
    """value if the text format can carry it as a name or label, else InputError."""
    if not value or any(c.isspace() or c in "#,=" for c in value):
        raise InputError(f"{what} {value!r} is empty or holds whitespace, '#', ',' or '='")
    return value


# The expectation lines of each expected key, in file order.
_EXPECT_LINES = {
    "h0_total": lambda total: [f"h0_total {total}"],
    "upsilon_support": lambda support: [f"upsilon {i} {j} {dim}"
                                        for (i, j), dim in sorted(support.items())],
    "operator_orders": lambda orders: [f"orders {idx} {','.join(map(str, o))}".rstrip()
                                       for idx, o in enumerate(orders)],
}


def to_text(entry: CatalogEntry) -> str:
    """Serialize an entry to the line-oriented diagram format; a name or
    label that is empty or holds whitespace, '#', ',' or '=', or a source
    tag that the format cannot carry, raises InputError."""
    spec = entry.spec
    tokens = [("diagram name", spec.name)] + [("row name", vs.name) for vs in spec.rows] + [
        ("label", lab) for vs in spec.rows for lab in vs.basis_labels]
    for what, value in tokens:
        _token(what, value)
    for key, src in entry.expected.get("source", {}).items():
        if "#" in src or len(src.splitlines()) > 1 or src != src.rstrip():
            raise InputError(f"source {src!r} of {key} holds '#', a line break "
                             "or trailing whitespace")
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
            triples = " ".join(f"{r}:{c}:{str(v)}" for r, c, v in mat.entries())
            lines.append(f"kappa {j} {l} {triples}".rstrip())
    for key, show in _EXPECT_LINES.items():
        if key in entry.expected:
            src = entry.expected.get("source", {}).get(key, "unspecified")
            lines += [f"expect {line} source={src}" for line in show(entry.expected[key])]
    return "\n".join(lines) + "\n"


# The least and most arguments each directive takes after its own words, so a
# stray token is an error rather than silently dropped; most is None for the
# variable tails of row and kappa.  An operator index with no orders (its
# derived operator is zero at every weight) has an empty order list.
_ARITY = {"name": (1, 1), "n": (1, 1), "rows": (1, 1), "row": (1, None),
          "kappa": (2, None), "expect": (1, None), "expect h0_total": (1, 1),
          "expect upsilon": (3, 3), "expect orders": (1, 2)}


def _need_args(directive: str, parts: list):
    least, most = _ARITY.get(directive, (0, None))
    got = len(parts) - len(directive.split())
    if got < least:
        raise InputError(f"{directive}: needs {least} argument(s), "
                         f"got {' '.join(parts)!r}")
    if most is not None and got > most:
        raise InputError(f"{directive}: takes {most} argument(s), "
                         f"got {' '.join(parts)!r}")


def _int(directive: str, what: str, token: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise InputError(f"{directive}: {what} must be an integer, got {token!r}") from None


# the largest spatial dimension a diagram file may declare
MAX_N = 8


def parse_text(text: str) -> CatalogEntry:
    """Parse the diagram text format back into a catalog entry."""
    name = None
    n = None
    row_count = None
    rows: dict[int, ValueSpace] = {}
    kappa_entries: dict[tuple[int, int], list] = {}
    expected: dict = {"source": {}}
    declared: set[str] = set()

    def once(label: str):
        if label in declared:
            raise InputError(f"{label}: declared twice")
        declared.add(label)

    lines = text.splitlines()
    for raw in lines:
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        kind = parts[0]
        src = "unspecified"
        if kind == "expect" and " source=" in line:
            line, src = line.split(" source=", 1)
            parts = line.split()
        _need_args(" ".join(parts[:2]) if kind == "expect" else kind, parts)
        if kind in ("name", "n", "rows"):
            once(kind)
        if kind == "name":
            name = _token("name: diagram name", parts[1])
        elif kind == "n":
            n = _int("n", "value", parts[1])
            if n > MAX_N:
                # each row forms n kappa tensors, so the cap comes before any
                raise InputError(f"n must be <= {MAX_N}, got {n}")
        elif kind == "rows":
            row_count = _int("rows", "value", parts[1])
        elif kind == "row":
            j = _int("row", "index", parts[1])
            once(f"row {j}")
            bare = [p for p in parts[2:] if "=" not in p]
            if bare:
                raise InputError(f"row {j}: needs key=value tokens, got {bare[0]!r}")
            attrs = {}
            for key, value in (p.split("=", 1) for p in parts[2:]):
                if key in attrs or key not in ("name", "dim", "labels"):
                    why = "repeated" if key in attrs else "unknown"
                    raise InputError(f"row {j}: {why} key {key!r}")
                attrs[key] = value
            if "dim" not in attrs:
                raise InputError(f"row {j}: needs dim=")
            row_name = _token(f"row {j}: name", attrs.get("name", f"V{j}"))
            labels = tuple(_token(f"row {j}: label", lab) for lab in
                           attrs["labels"].split(",")) if "labels" in attrs else None
            dim = _int(f"row {j}", "dim", attrs["dim"])
            if dim < 1:
                raise InputError(f"row {j}: dim must be >= 1, got {dim}")
            if labels is None:
                labels = tuple(f"{row_name}{k + 1}" for k in range(dim))
            if len(labels) != dim:
                raise InputError(f"row {j}: {len(labels)} labels for dim {dim}")
            rows[j] = ValueSpace(row_name, labels)
        elif kind == "kappa":
            j, l = _int("kappa", "index", parts[1]), _int("kappa", "index", parts[2])
            once(f"kappa {j} {l}")
            triples = []
            for t in parts[3:]:
                try:
                    r, c, v = t.split(":")
                    triples.append((int(r), int(c), parse_rational(v)))
                except ValueError:
                    raise InputError(
                        f"kappa {j} {l}: bad entry {t!r}, expected row:col:value") from None
            kappa_entries[(j, l)] = triples
        elif kind == "expect":
            what, rest = parts[1], parts[2:]
            if what == "h0_total":
                once("expect h0_total")
                key = "h0_total"
                expected[key] = _int("expect h0_total", "value", rest[0])
            elif what == "upsilon":
                i, j, dim = (_int("expect upsilon", "value", x) for x in rest)
                once(f"expect upsilon {i} {j}")
                key = "upsilon_support"
                expected.setdefault(key, {})[(i, j)] = dim
            elif what == "orders":
                idx = _int("expect orders", "index", rest[0])
                if idx < 0:
                    raise InputError(f"expect orders: index must be >= 0, got {idx}")
                once(f"expect orders {idx}")
                key = "operator_orders"
                orders = [_int("expect orders", "order", x)
                          for x in rest[1].split(",")] if len(rest) > 1 else []
                expected.setdefault(key, {})[idx] = orders
            else:
                raise InputError(f"unknown expectation {what!r}")
            held = expected["source"].setdefault(key, src)
            if held != src:
                raise InputError(f"expect {what}: source {src!r} differs from the "
                                 f"earlier source {held!r}")
        else:
            raise InputError(f"unknown directive {kind!r}")
    if name is None or n is None or row_count is None:
        raise InputError("diagram file must declare name, n and rows")
    if n < 1 or row_count < 1:
        raise InputError(f"n and rows must be >= 1, got n {n} and rows {row_count}")
    # the count is compared first, so a huge declared count forms no list
    if len(rows) != row_count or sorted(rows) != list(range(row_count)):
        raise InputError("row declarations do not match the declared count")
    by_index = expected.get("operator_orders")
    if by_index:
        last = max(by_index)
        if last >= len(lines):
            raise InputError(f"expect orders: index must be < {len(lines)}, "
                             f"the file's line count, got {last}")
        expected["operator_orders"] = [by_index.get(idx, []) for idx in range(last + 1)]
    for j, l in kappa_entries:
        if not (1 <= j < row_count and 1 <= l <= n):
            raise InputError(
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
                raise InputError(f"kappa {j} {l}: {err}") from None
        kappa_rows.append(tuple(maps))
    spec = DiagramSpec(name, n, row_spaces, KappaSpec(tuple(kappa_rows)))
    return CatalogEntry(name, spec, expected)


def load_file(path) -> CatalogEntry:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_text(fh.read())


# -- fingerprinting -----------------------------------------------------------


class FingerprintReport:
    """The identity verdict and the (key, expected, actual, ok) comparisons
    of one ``fingerprint`` run."""

    def __init__(self, name: str, w_max: int, identity_ok: bool, comparisons: list):
        self.name = name
        self.w_max = w_max
        self.identity_ok = identity_ok
        self.comparisons = comparisons

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

    Raises InputError when w_max is below the largest i + j of the harmonic
    support: the weight at which the last harmonic block, and with it the
    last derived operator, first appears.
    """
    support = hodge_split(build(entry.spec, 0)).support()
    need = max((i + j for i, j in support), default=0)
    if w_max < need:
        raise InputError(f"w_max {w_max} is too small to show the fingerprint "
                         f"of {entry.name}; use at least {need}")
    bd = build(entry.spec, w_max)
    ops = derive(bd)
    identity_ok = verify_identities(bd).ok
    comparisons = []
    if "upsilon_support" in entry.expected:
        expected = entry.expected["upsilon_support"]
        comparisons.append(("upsilon_support", expected, support, support == expected))
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
