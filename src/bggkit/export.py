"""Deterministic operator export: Matrix Market coordinate files with exact
rational entries, human-readable stencil tables, and JSON.

The Matrix Market header uses a ``rational`` field qualifier; entries are
written 1-based, sorted by (row, column), as ``p/q`` (or a plain integer
when the denominator is one), so a fixed input always produces identical
bytes.  ``read_matrix_market`` round-trips these files exactly.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .bgg import DerivedOps
from .diagram import BuiltDiagram
from .forms import LinMap
from .linalg import SparseMat


class ExportError(ValueError):
    """A bad export request or Matrix Market file: invalid input."""


def frac_str(v: Fraction) -> str:
    return str(v.numerator) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"


def write_matrix_market(mat: SparseMat, comment: str = "") -> str:
    lines = ["%%MatrixMarket matrix coordinate rational general"]
    if comment:
        for part in comment.splitlines():
            lines.append(f"% {part}")
    lines.append(f"{mat.rows} {mat.cols} {mat.nnz}")
    for r, c, v in mat.entries():
        lines.append(f"{r + 1} {c + 1} {frac_str(v)}")
    return "\n".join(lines) + "\n"


def read_matrix_market(text: str) -> SparseMat:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("%%MatrixMarket"):
        raise ExportError("missing MatrixMarket header")
    header = lines[0].split()
    if header[1:4] != ["matrix", "coordinate", "rational"]:
        raise ExportError(f"unsupported MatrixMarket type: {lines[0]}")
    body = [ln for ln in lines[1:] if not ln.lstrip().startswith("%")]
    rows, cols, nnz = (int(x) for x in body[0].split())
    entries = []
    for ln in body[1:]:
        r, c, v = ln.split()
        entries.append((int(r) - 1, int(c) - 1, Fraction(v)))
    if len(entries) != nnz:
        raise ExportError(f"expected {nnz} entries, found {len(entries)}")
    return SparseMat(rows, cols, entries)


def to_json_payload(mat: SparseMat) -> dict:
    return {
        "rows": mat.rows,
        "cols": mat.cols,
        "entries": [[r + 1, c + 1, frac_str(v)] for r, c, v in mat.entries()],
    }


def write_json(mat: SparseMat, meta: dict | None = None) -> str:
    payload = to_json_payload(mat)
    if meta:
        payload.update(meta)
    return json.dumps(payload, indent=1, sort_keys=True) + "\n"


def write_stencil(linmap: LinMap, row_labels=None, col_labels=None) -> str:
    """Human-readable table: one line per nonzero output row."""
    mat = linmap.mat
    lines = [f"# {mat.rows} x {mat.cols}, {mat.nnz} entries"]
    by_row: dict[int, list] = {}
    for r, c, v in mat.entries():
        by_row.setdefault(r, []).append((c, v))
    for r in sorted(by_row):
        rl = row_labels[r] if row_labels else f"row{r}"
        terms = []
        for c, v in by_row[r]:
            cl = col_labels[c] if col_labels else f"col{c}"
            terms.append(f"{frac_str(v)}*[{cl}]")
        lines.append(f"[{rl}] = " + " + ".join(terms))
    return "\n".join(lines) + "\n"


OPERATOR_NAMES = ("d", "S", "K", "dV", "F", "T", "G", "A", "B", "D")
DERIVED = ("T", "G", "A", "B", "D")


def check_request(name: str, n: int, w_max: int, index: int, weight: int) -> str:
    """Canonical name of an operator request, with its weight in 0..w_max and
    its column index in 0..n; raises ExportError otherwise."""
    canonical = {"d_v": "dV", "dv": "dV"}.get(name.lower(), name)
    if canonical not in OPERATOR_NAMES:
        raise ExportError(f"unknown operator {name!r}; known: {', '.join(OPERATOR_NAMES)}")
    if weight > w_max or weight < 0:
        raise ExportError(f"weight {weight} outside built range 0..{w_max}")
    if index < 0 or index > n:
        raise ExportError(f"index {index} outside 0..{n}")
    return canonical


def get_operator(bd: BuiltDiagram, ops: DerivedOps | None, name: str,
                 index: int, weight: int) -> LinMap:
    """Resolve one of the named block operators at a column index and weight."""
    canonical = check_request(name, bd.n, bd.w_max, index, weight)
    if canonical not in DERIVED:
        return {"d": bd.d, "S": bd.S, "K": bd.K, "dV": bd.d_V,
                "F": bd.F}[canonical](index, weight)
    if ops is None:
        raise ExportError(f"operator {name} needs the derived pipeline")
    return {"T": ops.t.column, "G": ops.g.column, "A": ops.bc.A,
            "B": ops.b.column, "D": ops.bc.D}[canonical](index, weight)


def block_labels(space) -> list[str]:
    """Basis labels of a column-like space, for stencil output."""
    out = []
    for key, sub in getattr(space, "parts", ()):
        if hasattr(sub, "basis_labels"):
            out.extend(f"j={key} {lab}" for lab in sub.basis_labels())
        else:
            out.extend(f"j={key} c{k}" for k in range(sub.dim))
    if not out and hasattr(space, "basis_labels"):
        out = space.basis_labels()
    return out
