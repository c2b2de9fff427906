from fractions import Fraction

import pytest

from bggkit import catalog, export
from bggkit.bgg import derive
from bggkit.diagram import build
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
    text = export.write_stencil(
        lm, export.block_labels(lm.cod), export.block_labels(lm.dom))
    assert "=" in text and "dx" in text


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
