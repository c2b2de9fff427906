import json

import pytest

from bggkit.cli import main
from bggkit.export import read_matrix_market


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_verify_pass(capsys):
    code, out, _ = run(capsys, "verify", "--diagram", "plate-2d", "--wmax", "3")
    assert code == 0
    assert "0 failures" in out


def test_verify_json(capsys):
    code, out, _ = run(capsys, "verify", "--diagram", "plate-2d", "--wmax", "2",
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["diagram"] == "plate-2d"
    assert payload["wmax"] == 2
    assert all(c["ok"] for c in payload["checks"])


def test_unknown_diagram_exit_2(capsys):
    code, _, err = run(capsys, "verify", "--diagram", "nope")
    assert code == 2
    assert "unknown diagram" in err


def test_cohomology_text(capsys):
    code, out, _ = run(capsys, "cohomology", "--diagram", "elasticity-3d",
                       "--wmax", "3")
    assert code == 0
    assert "total H^0 across weights: 6" in out


def test_cohomology_json(capsys):
    code, out, _ = run(capsys, "cohomology", "--diagram", "plate-2d",
                       "--wmax", "3", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["cohomology"]["twisted"]["i=0,w=0"] == 1
    assert payload["cohomology"]["derived"] == payload["cohomology"]["twisted"]


def test_derive_fingerprint(capsys):
    code, out, _ = run(capsys, "derive", "--diagram", "conf-hessian-3d",
                       "--wmax", "6")
    assert code == 0
    assert "h0_total" in out and "FAIL" not in out


def test_export_matrixmarket_round_trip(capsys, tmp_path):
    out_file = tmp_path / "op.mtx"
    code, _, _ = run(capsys, "export", "--diagram", "conf-hessian-3d",
                     "--wmax", "4", "--operator", "D", "--index", "0",
                     "--weight", "3", "--format", "matrixmarket",
                     "-o", str(out_file))
    assert code == 0
    mat = read_matrix_market(out_file.read_text())
    assert mat.nnz > 0


def test_export_unknown_operator_exit_2(capsys):
    code, _, err = run(capsys, "export", "--diagram", "plate-2d",
                       "--operator", "Q", "--index", "0", "--weight", "1")
    assert code == 2


def test_diagram_file_loading(capsys, tmp_path):
    from bggkit import catalog
    entry = catalog.get("plate-2d")
    path = tmp_path / "plate.diagram"
    path.write_text(catalog.to_text(entry))
    code, out, _ = run(capsys, "verify", "--diagram-file", str(path),
                       "--wmax", "2")
    assert code == 0


def test_bad_kappa_file_exit_1(capsys, tmp_path):
    # a diagram whose tensors fail the exchange relation: build is rejected,
    # which the verify command reports as a verification failure
    text = """name broken
n 2
rows 3
row 0 name=a dim=1 labels=a
row 1 name=b dim=1 labels=b
row 2 name=c dim=1 labels=c
kappa 1 1 0:0:1
kappa 1 2
kappa 2 1
kappa 2 2 0:0:1
"""
    path = tmp_path / "broken.diagram"
    path.write_text(text)
    code, _, err = run(capsys, "verify", "--diagram-file", str(path),
                       "--wmax", "2")
    assert code == 1
    assert "commute" in err or "build failed" in err


def test_cosserat_energy_command(capsys):
    code, out, _ = run(capsys, "cosserat-energy", "--samples", "2",
                       "--degree", "1")
    assert code == 0
    assert "15/2" in out
    assert "verified" in out


def test_cosserat_energy_fields_file(capsys, tmp_path):
    payload = {
        "u": [{"1 0 0": "1"}, {"0 1 0": "1"}, {"0 0 1": "1"}],
        "omega": [{}, {}, {}],
    }
    path = tmp_path / "fields.json"
    path.write_text(json.dumps(payload))
    code, out, _ = run(capsys, "cosserat-energy", "--fields", str(path),
                       "--params", "1,1,1,1,1,1")
    assert code == 0
    assert "15/2" in out


def test_korn_command(capsys):
    code, out, _ = run(capsys, "korn2d", "--rmax", "4", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    assert payload["rows"][0]["kernel_dim"] == 6


@pytest.mark.parametrize("command", ["verify", "cohomology", "derive", "export"])
def test_negative_wmax_exit_2(capsys, command):
    extra = ["--operator", "d", "--index", "0", "--weight", "0"] \
        if command == "export" else []
    code, out, err = run(capsys, command, "--diagram", "plate-2d", "--wmax", "-3",
                         *extra)
    assert code == 2
    assert out == ""
    assert err.startswith("invalid input:") and "--wmax" in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("samples", ["0", "-1"])
def test_nonpositive_samples_exit_2(capsys, samples):
    code, out, err = run(capsys, "cosserat-energy", "--samples", samples)
    assert code == 2
    assert out == ""
    assert err.startswith("invalid input:") and "--samples" in err


def test_negative_degree_exit_2(capsys):
    code, out, err = run(capsys, "cosserat-energy", "--degree", "-1")
    assert code == 2
    assert out == ""
    assert err.startswith("invalid input:") and "--degree" in err


def _write_diagram(tmp_path, text):
    path = tmp_path / "bad.diagram"
    path.write_text(text)
    return str(path)


def test_kappa_entry_out_of_range_exit_2(capsys, tmp_path):
    # row 1 -> row 0 is a 1x2 tensor; column 5 does not exist
    path = _write_diagram(tmp_path, """name bad
n 2
rows 2
row 0 name=a dim=1 labels=a
row 1 name=b dim=2 labels=b1,b2
kappa 1 1 0:5:1
""")
    code, _, err = run(capsys, "verify", "--diagram-file", path, "--wmax", "2")
    assert code == 2
    assert err.startswith("invalid input:") and "kappa 1 1" in err


@pytest.mark.parametrize("header", ["n 0\nrows 1\nrow 0 name=a dim=1 labels=a",
                                    "n 2\nrows 0"])
def test_empty_diagram_file_exit_2(capsys, tmp_path, header):
    path = _write_diagram(tmp_path, f"name flat\n{header}\n")
    code, _, err = run(capsys, "verify", "--diagram-file", path, "--wmax", "2")
    assert code == 2
    assert err.startswith("invalid input:") and "must be >= 1" in err
