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
from .diagram import BuiltDiagram, InputError
from .forms import LinMap, SumSpace
from .linalg import SparseMat


HEADER = "%%MatrixMarket matrix coordinate rational general"


class ExportError(InputError):
    """A bad export request or Matrix Market file: invalid input."""


def write_matrix_market(mat: SparseMat, comment: str = "") -> str:
    lines = [HEADER]
    if comment:
        for part in comment.splitlines():
            lines.append(f"% {part}")
    lines.append(f"{mat.rows} {mat.cols} {mat.nnz}")
    for r, c, v in mat.entries():
        lines.append(f"{r + 1} {c + 1} {str(v)}")
    return "\n".join(lines) + "\n"


def _fields(k: int, line: str, kinds, what: str) -> list:
    """The whitespace-separated fields of file line k, parsed by kinds."""
    parts = line.split()
    if len(parts) == len(kinds):
        try:
            return [kind(p) for kind, p in zip(kinds, parts)]
        except (ValueError, ZeroDivisionError):
            pass
    raise ExportError(f"line {k}: bad {what} line: {line.strip()!r}")


def read_matrix_market(text: str) -> SparseMat:
    """Parse a file written by ``write_matrix_market``; any malformed line
    raises ExportError naming its 1-based line number."""
    lines = [(k, ln) for k, ln in enumerate(text.splitlines(), 1) if ln.strip()]
    if not lines or not lines[0][1].startswith("%%MatrixMarket"):
        raise ExportError("missing MatrixMarket header")
    if lines[0][1].strip() != HEADER:
        raise ExportError(f"unsupported MatrixMarket type: {lines[0][1]}")
    body = [(k, ln) for k, ln in lines[1:] if not ln.lstrip().startswith("%")]
    if not body:
        raise ExportError("missing size line")
    k, size = body[0]
    rows, cols, nnz = _fields(k, size, (int, int, int), "size")
    if min(rows, cols) < 0:
        raise ExportError(f"line {k}: negative size: {size.strip()!r}")
    entries = {}
    for k, ln in body[1:]:
        r, c, v = _fields(k, ln, (int, int, Fraction), "entry")
        if not (1 <= r <= rows and 1 <= c <= cols):
            raise ExportError(f"line {k}: entry ({r}, {c}) outside {rows} x {cols}")
        if (r - 1, c - 1) in entries:
            raise ExportError(f"line {k}: repeated entry ({r}, {c})")
        entries[(r - 1, c - 1)] = v
    if len(entries) != nnz:
        raise ExportError(f"expected {nnz} entries, found {len(entries)}")
    return SparseMat(rows, cols, entries)


def to_json_payload(mat: SparseMat) -> dict:
    return {
        "rows": mat.rows,
        "cols": mat.cols,
        "entries": [[r + 1, c + 1, str(v)] for r, c, v in mat.entries()],
    }


def write_json(mat: SparseMat, meta: dict | None = None) -> str:
    payload = to_json_payload(mat)
    if meta:
        payload.update(meta)
    return json.dumps(payload, indent=1, sort_keys=True) + "\n"


def write_stencil(linmap: LinMap) -> str:
    """Human-readable table: one line per nonzero output row, with the
    ``block_labels`` of linmap's spaces."""
    mat = linmap.mat
    row_labels, col_labels = block_labels(linmap.cod), block_labels(linmap.dom)
    lines = [f"# {mat.rows} x {mat.cols}, {mat.nnz} entries"]
    by_row: dict[int, list] = {}
    for r, c, v in mat.entries():
        by_row.setdefault(r, []).append(f"{str(v)}*[{col_labels[c]}]")
    for r in sorted(by_row):
        lines.append(f"[{row_labels[r]}] = " + " + ".join(by_row[r]))
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


def block_labels(space: SumSpace) -> list[str]:
    """Basis labels of a row-keyed column space, for stencil output; a part
    of harmonic coordinates names its k-th coordinate c{k}."""
    out = []
    for key, sub in space.parts:
        if hasattr(sub, "basis_labels"):
            out.extend(f"j={key} {lab}" for lab in sub.basis_labels())
        else:
            out.extend(f"j={key} c{k}" for k in range(sub.dim))
    return out
