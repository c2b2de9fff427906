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


@pytest.mark.parametrize("name, message", [
    ("nosuch", "unknown diagram 'nosuch'; known: "),
    ("higher-hessian-3d(x)", "bad higher-hessian order: 'x'"),
])
def test_unknown_diagram_message_unquoted(capsys, name, message):
    code, out, err = run(capsys, "cohomology", "--diagram", name, "--wmax", "2")
    assert code == 2
    assert out == ""
    assert err.startswith(f"invalid input: {message}")
    assert not err.rstrip("\n").endswith('"')
    assert err.count("\n") == 1


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


@pytest.mark.parametrize("wmax, code", [("4", 2), ("5", 0)])
def test_derive_rejects_wmax_below_harmonic_support(capsys, wmax, code):
    # the harmonic support of conf-hessian-3d reaches i + j = 5
    got, _, err = run(capsys, "derive", "--diagram", "conf-hessian-3d",
                      "--wmax", wmax)
    assert got == code
    if code == 2:
        assert err.startswith("invalid input:") and "at least 5" in err
        assert err.count("\n") == 1


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


@pytest.mark.parametrize("operator, index, weight, message", [
    ("Q", "0", "1", "unknown operator 'Q'"),
    ("D", "0", "99", "weight 99 outside built range 0..8"),
    ("dv", "4", "1", "index 4 outside 0..3"),
], ids=["unknown-operator", "weight-above-wmax", "index-above-n"])
def test_export_rejects_request_before_building(capsys, monkeypatch, operator,
                                                index, weight, message):
    import bggkit.cli
    monkeypatch.setattr(bggkit.cli, "build", lambda *a: pytest.fail("built"))
    code, out, err = run(capsys, "export", "--diagram", "higher-hessian-3d(3)",
                         "--operator", operator, "--index", index, "--weight", weight)
    assert code == 2
    assert out == ""
    assert err.startswith(f"invalid input: {message}") and err.count("\n") == 1


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


@pytest.mark.parametrize("payload, named", [
    ({"u": ["x", {}, {}], "omega": [{}, {}, {}]}, ()),
    ({"u": [{"1 0 0": "1"}, {"0 1 0": "1"}], "omega": [{}, {}, {}]}, ()),
    ([1, 2], ()),
    ({"u": [{}, {}, {}], "omega": [{}, {"1,0,0": "1", "1, 0,0": "2"}, {}]},
     ("--fields omega", "monomial (1, 0, 0) given twice")),
    ({"u": [{"0 2 0": "0", "0,2,0": "3"}, {}, {}], "omega": [{}, {}, {}]},
     ("--fields u", "monomial (0, 2, 0) given twice")),
], ids=["component-not-object", "two-components", "top-level-list",
        "duplicate-monomial", "duplicate-monomial-one-zero"])
def test_bad_fields_file_exit_2(capsys, tmp_path, payload, named):
    path = tmp_path / "fields.json"
    path.write_text(json.dumps(payload))
    code, out, err = run(capsys, "cosserat-energy", "--fields", str(path),
                         "--params", "1,1,1,1,1,1")
    assert code == 2
    assert out == ""
    assert err.startswith("invalid input:") and "--fields" in err
    assert err.count("\n") == 1
    for part in named:
        assert part in err


@pytest.mark.parametrize("content", [b'{"u": [}', b"\xff\xfe{}"],
                         ids=["malformed-json", "not-utf8"])
def test_unparsable_fields_file_exit_2(capsys, tmp_path, content):
    path = tmp_path / "fields.json"
    path.write_bytes(content)
    code, out, err = run(capsys, "cosserat-energy", "--fields", str(path),
                         "--params", "1,1,1,1,1,1")
    assert (code, out) == (2, "")
    assert err.startswith(f"invalid input: --fields {path}: ")
    assert err.count("\n") == 1


def test_fields_zero_terms_are_dropped(capsys, tmp_path, monkeypatch):
    # a zero term must not raise the degree the twisted route is built at
    from bggkit import energy
    built = []
    real_build = energy.build
    monkeypatch.setattr(energy, "build",
                        lambda spec, w_max: built.append(w_max) or real_build(spec, w_max))
    outputs = []
    for u in ([{}, {}, {}], [{"7,0,0": "0"}, {}, {"0 0 0": "0/5"}]):
        path = tmp_path / "fields.json"
        path.write_text(json.dumps({"u": u, "omega": [{}, {}, {}]}))
        energy._twisted_map.cache_clear()
        energy._twisted_form.cache_clear()
        outputs.append(run(capsys, "cosserat-energy", "--fields", str(path),
                           "--params", "1,1,1,1,1,1"))
    assert built == [2, 2]
    assert outputs[0] == outputs[1] == (0, "params (mu=1, lam=1, mu_c=1, alpha=1, "
                                        "beta=1, gamma=1): energy = 0\n", "")


GOOD_FILE = ("name bad\nn 1\nrows 2\nrow 0 name=a dim=1 labels=a\n"
             "row 1 name=b dim=1 labels=b\nkappa 1 1 0:0:1\n")
BAD_FILE = ["verify", "--diagram-file", "{dir}/bad.diagram"]


def _not_int(directive, what, token):
    return f"{directive}: {what} must be an integer, got '{token}'"


@pytest.mark.parametrize("argv, edit, named", [
    (["cosserat-energy", "--fields", "{dir}"], None, ()),
    (["verify", "--diagram-file", "{dir}"], None, ()),
    (["cosserat-energy", "--params", "1,1,1/0,1,1,1"], None, ()),
    (BAD_FILE, ("0:0:1", "0:0:1/0"), ("kappa 1 1", "0:0:1/0")),
    (BAD_FILE, ("0:0:1", "0:0"), ("kappa 1 1", "0:0")),
    (BAD_FILE, ("n 1\n", "n 1\nn 2\n"), ("n: declared twice",)),
    (BAD_FILE, ("n 1", "n x"), (_not_int("n", "value", "x"),)),
    (BAD_FILE, ("rows 2", "rows 2.5"), (_not_int("rows", "value", "2.5"),)),
    (BAD_FILE, ("row 0", "row x"), (_not_int("row", "index", "x"),)),
    (BAD_FILE, ("dim=1 labels=a", "dim=x"), (_not_int("row 0", "dim", "x"),)),
    (BAD_FILE, ("dim=1 labels=a", "dim=0"), ("row 0: dim must be >= 1, got 0",)),
    (BAD_FILE, ("kappa 1 1", "kappa x 1"), (_not_int("kappa", "index", "x"),)),
    (BAD_FILE, ("kappa 1 1", "kappa 1 y"), (_not_int("kappa", "index", "y"),)),
    (BAD_FILE, ("0:0:1", "x:0:1"), ("kappa 1 1", "x:0:1")),
    (BAD_FILE, ("0:0:1", "0:y:1"), ("kappa 1 1", "0:y:1")),
    (BAD_FILE, ("name bad", "name bad file"),
     ("name: takes 1 argument(s), got 'name bad file'",)),
    (["korn2d", "--rmax", "2"], None, ("--rmax must be >= 3, got 2",)),
], ids=["fields-directory", "diagram-file-directory", "params-zero-denominator",
        "kappa-zero-denominator", "kappa-short-triple", "n-declared-twice",
        "n-not-integer", "rows-not-integer", "row-index-not-integer",
        "dim-not-integer", "dim-zero", "kappa-j-not-integer", "kappa-l-not-integer",
        "triple-row-not-integer", "triple-col-not-integer", "name-extra-token",
        "rmax-below-3"])
def test_bad_input_exit_2(capsys, tmp_path, argv, edit, named):
    if edit:
        (tmp_path / "bad.diagram").write_text(GOOD_FILE.replace(*edit, 1))
    code, out, err = run(capsys, *(a.format(dir=tmp_path) for a in argv))
    assert code == 2
    assert out == ""
    assert err.startswith("invalid input:")
    assert err.count("\n") == 1
    for part in named:
        assert part in err


@pytest.mark.parametrize("command", ["verify", "cohomology", "derive"])
def test_matrixmarket_format_only_on_export(capsys, command):
    # only export writes Matrix Market; the others must not accept the choice
    with pytest.raises(SystemExit) as exc:
        main([command, "--diagram", "plate-2d", "--wmax", "3",
              "--format", "matrixmarket"])
    assert exc.value.code == 2


def test_korn_command(capsys):
    code, out, _ = run(capsys, "korn2d", "--rmax", "4", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    assert payload["rows"][0]["kernel_dim"] == 6


def test_korn_float_failure_exit_1(capsys, monkeypatch):
    # numpy's LinAlgError is a ValueError, but a failed solve is not bad input
    import numpy as np
    from bggkit import korn
    real, degrees = korn.eigh, []

    def eigh(a, m):
        degrees.append(len(a))
        if len(degrees) == 2:
            raise np.linalg.LinAlgError("Matrix is not positive definite")
        return real(a, m)

    monkeypatch.setattr(korn, "eigh", eigh)
    code, out, err = run(capsys, "korn2d", "--rmax", "4")
    assert (code, out) == (1, "")
    assert err == ("float step failed: r=4: the float eigensolver failed: "
                   "Matrix is not positive definite\n")


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
