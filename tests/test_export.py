from fractions import Fraction

import pytest

from bggkit import catalog, export
from bggkit.bgg import derive
from bggkit.diagram import InputError, build
from bggkit.linalg import SparseMat

F = Fraction


@pytest.fixture(scope="module")
def hessian():
    bd = build(catalog.get("conf-hessian-3d").spec, 4)
    return bd, derive(bd)


def test_round_trip_exact():
    m = SparseMat.from_dense([[F(1, 3), 0, F(-7)], [0, F(22, 7), 0]])
    text = export.write_matrix_market(m, "test matrix")
    back = export.read_matrix_market(text)
    assert back == m


MM_HEAD = "%%MatrixMarket matrix coordinate rational general\n% comment\n"


@pytest.mark.parametrize("text, message", [
    (MM_HEAD, "missing size line"),
    (MM_HEAD + "2 2\n", "line 3: bad size line: '2 2'"),
    (MM_HEAD + "2 2 1\n1 1 x\n", "line 4: bad entry line: '1 1 x'"),
    (MM_HEAD + "2 2 1\n1 1 1/0\n", "line 4: bad entry line: '1 1 1/0'"),
    (MM_HEAD + "2 2 1\n0 1 1\n", "line 4: entry (0, 1) outside 2 x 2"),
    (MM_HEAD + "2 2 1\n1 3 1\n", "line 4: entry (1, 3) outside 2 x 2"),
    (MM_HEAD + "2 2 2\n1 1 1\n\n1 1 2\n", "line 6: repeated entry (1, 1)"),
    # a symmetric file stores one triangle; read as general it would drop the other
    ("%%MatrixMarket matrix coordinate rational symmetric\n2 2 2\n1 1 1\n2 1 3\n",
     "unsupported MatrixMarket type: %%MatrixMarket matrix coordinate rational symmetric"),
    ("%%MatrixMarket matrix coordinate rational\n2 2 1\n1 1 1\n",
     "unsupported MatrixMarket type: %%MatrixMarket matrix coordinate rational"),
    ("2 2 0\n", "missing MatrixMarket header"),
    (MM_HEAD + "-1 2 0\n", "line 3: negative size: '-1 2 0'"),
    (MM_HEAD + "2 2 2\n1 1 1\n", "expected 2 entries, found 1"),
], ids=["no-size", "short-size", "bad-value", "zero-denominator", "index-zero",
        "index-past-shape", "repeated-entry", "symmetric", "no-qualifier",
        "no-header", "negative-size", "nnz-mismatch"])
def test_malformed_matrix_market_rejected(text, message):
    with pytest.raises(export.ExportError) as info:
        export.read_matrix_market(text)
    assert str(info.value) == message
    assert isinstance(info.value, InputError)


def test_deterministic_bytes(hessian):
    bd, ops = hessian
    lm = export.get_operator(bd, ops, "D", 0, 3)
    a = export.write_matrix_market(lm.mat, "c")
    b = export.write_matrix_market(lm.mat, "c")
    assert a == b
    assert a.startswith("%%MatrixMarket matrix coordinate rational general\n")


def test_export_all_operator_names(hessian):
    bd, ops = hessian
    for name in export.OPERATOR_NAMES:
        lm = export.get_operator(bd, ops, name, 1, 3)
        text = export.write_matrix_market(lm.mat)
        assert export.read_matrix_market(text) == lm.mat


def test_export_dv_aliases(hessian):
    bd, ops = hessian
    assert export.get_operator(bd, ops, "d_V", 1, 3).mat == \
        export.get_operator(bd, ops, "dV", 1, 3).mat


def test_zero_block_request(hessian):
    bd, ops = hessian
    # weight 0 exterior derivative out of the top block is the zero map
    lm = export.get_operator(bd, None, "d", 3, 3)
    text = export.write_matrix_market(lm.mat)
    back = export.read_matrix_market(text)
    assert back.is_zero() and back.rows == lm.mat.rows


def test_unknown_operator_rejected(hessian):
    bd, ops = hessian
    with pytest.raises(export.ExportError):
        export.get_operator(bd, ops, "Q", 0, 2)
    with pytest.raises(export.ExportError):
        export.get_operator(bd, ops, "D", 0, 99)
    with pytest.raises(export.ExportError):
        export.get_operator(bd, ops, "d", 7, 2)


def test_f_upper_triangular_with_identity_diagonal():
    bd = build(catalog.get("elasticity-3d").spec, 2)
    f = bd.F(0, 1)
    col = bd.column(0, 1)
    # diagonal blocks are identities
    for j in range(2):
        off = col.offset(j)
        dim = col.space(j).dim
        for k in range(dim):
            assert f.mat.get(off + k, off + k) == 1
    # strictly-lower block (row 1 from row 0) vanishes
    off0, off1 = col.offset(0), col.offset(1)
    d0 = col.space(0).dim
    for (r, c) in f.mat.data:
        assert not (r >= off1 and c < off1)


def test_stencil_output(hessian):
    bd, ops = hessian
    lm = export.get_operator(bd, None, "d", 0, 2)
    text = export.write_stencil(lm)
    assert "=" in text and "dx" in text


# D of conf-hessian-3d at (i, w) = (0, 3) maps harmonic coordinates to
# harmonic coordinates, which are labeled by row and position
D_0_3_STENCIL = """# 15 x 10, 27 entries
[j=1 c0] = 1*[j=0 c5]
[j=1 c1] = -2*[j=0 c0] + 4/3*[j=0 c2] + -2/3*[j=0 c7]
[j=1 c2] = 2*[j=0 c4]
[j=1 c3] = 2*[j=0 c1]
[j=1 c4] = 4*[j=0 c0] + -2/3*[j=0 c2] + -2/3*[j=0 c7]
[j=1 c5] = 2*[j=0 c6]
[j=1 c6] = -2/3*[j=0 c1] + 4*[j=0 c3] + -2/3*[j=0 c8]
[j=1 c7] = 1*[j=0 c5]
[j=1 c8] = 2*[j=0 c2]
[j=1 c9] = 4/3*[j=0 c1] + -2*[j=0 c3] + -2/3*[j=0 c8]
[j=1 c10] = 2*[j=0 c8]
[j=1 c11] = -2/3*[j=0 c4] + 4/3*[j=0 c6] + -2*[j=0 c9]
[j=1 c12] = 2*[j=0 c7]
[j=1 c13] = 1*[j=0 c5]
[j=1 c14] = 4/3*[j=0 c4] + -2/3*[j=0 c6] + -2*[j=0 c9]
"""


def test_stencil_of_derived_operator_is_pinned(hessian):
    bd, ops = hessian
    assert export.write_stencil(export.get_operator(bd, ops, "D", 0, 3)) == D_0_3_STENCIL


def test_json_payload(hessian):
    bd, ops = hessian
    lm = export.get_operator(bd, ops, "T", 1, 2)
    payload = export.to_json_payload(lm.mat)
    assert payload["rows"] == lm.mat.rows
    assert all(isinstance(e[2], str) for e in payload["entries"])


def test_export_bytes_independent_of_hash_seed():
    # the matrixmarket export of D and G must not depend on set or dict
    # iteration order, so two interpreters with different hash seeds agree
    import os
    import subprocess
    import sys
    from pathlib import Path

    import bggkit
    script = (
        "from bggkit.cli import main\n"
        "for op, idx in [('D', 0), ('D', 1), ('D', 2), ('G', 1), ('G', 2), ('G', 3)]:\n"
        "    main(['export', '--diagram', 'conf-hessian-3d', '--wmax', '3',\n"
        "          '--operator', op, '--index', str(idx), '--weight', '3',\n"
        "          '--format', 'matrixmarket'])\n")
    src = str(Path(bggkit.__file__).resolve().parent.parent)
    outputs = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, timeout=300, check=True)
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]
    assert outputs[0].count(b"%%MatrixMarket") == 6
