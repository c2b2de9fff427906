import hashlib
import io
import json
import re
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from bggkit.cli import main
from bggkit.energy import EnergyParams, cosserat_energy
from bggkit.export import read_matrix_market


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# sha256 of the stdout of two JSON reports, pinned so that a change to the
# elimination or the derivation shows as a changed byte
@pytest.mark.parametrize("argv, digest", [
    (("cohomology", "--diagram", "higher-hessian-3d(4)"),
     "edb8d570473ed11a1a7cec159284501141602ad15afe89abdfd3cf90982b0bbf"),
    (("derive", "--diagram", "conf-deformation-3d"),
     "cb538ab371b7b1663443fc152ec51b4462a4aac871468721a7f456a1689dbefc"),
], ids=["cohomology", "derive"])
def test_json_report_is_byte_identical(capsys, argv, digest):
    code, out, err = run(capsys, *argv, "--wmax", "6", "--format", "json")
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# sha256 of the Matrix Market export of each derived operator of
# conf-deformation-3d at weight 5, pinned when G, A and B were still summed
# by per-weight products, so that their symbol lifts keep every byte
EXPORT_DIGESTS = {
    ("G", 0): "1291ef2c8b8e52b19d674367ebbbd62e2bf538692e6efd07883a145478d5dcf4",
    ("G", 1): "0bffc52189698f771377512f7f1d679d7c80f05b150afe08088493d90652f832",
    ("G", 2): "7c9ba1c30514467d983a7b923e9db2d094357b40fe427bd8f2e983b4bae677aa",
    ("A", 0): "fcd703b205db683dc7d2561b028a6eaf461c6a46b05f38bf518c4f05e421fe83",
    ("A", 1): "9fbf8e216970384401c7bc3d645a9e2e77adb3298b59604aecfe1a8a8dacb77e",
    ("A", 2): "85f74e9ca2eab7064d722c13fc461c2f2ce2ea6cd72e558b1cd23329614835f8",
    ("B", 0): "2c9d7c58f0ff3656b708bcf179420a0e3cbc6cfe6fae2d61f7b611a092e66394",
    ("B", 1): "80748be0b0d944ebba565941660cc7743d1b8ceed15dc1407161f20c308fcce2",
    ("B", 2): "b72f35c6e31dd06e1c12427ce1727b14e3ad6b6c4f4f54552f17c20422ee2e0c",
    ("D", 0): "1eaa6fe3d600f50197eec0ced7015cc56575a5b834efba690eee1de985ab4a8f",
    ("D", 1): "406bd16bc994455057b8bec9e97417c3e8b47eb1e327d914103cc5163bbd2c08",
    ("D", 2): "d0b9dfe217a9024deaacdf8cb581e5c7f1789ae393400f648021fde9fb9c86ec",
}


@pytest.mark.parametrize("operator, index", sorted(EXPORT_DIGESTS))
def test_derived_export_is_byte_identical(capsys, operator, index):
    code, out, err = run(capsys, "export", "--diagram", "conf-deformation-3d", "--wmax", "5",
                         "--operator", operator, "--index", str(index), "--weight", "5",
                         "--format", "matrixmarket")
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == EXPORT_DIGESTS[operator, index]


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
    code, out, err = run(capsys, "verify", "--diagram-file", str(path),
                       "--wmax", "2")
    assert code == 1 and out == ""
    assert err.startswith("verification failed: ") and err.count("\n") == 1
    assert "commute" in err


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
    ({"u": [{"1 0": "1"}, {}, {}], "omega": [{}, {}, {}]},
     ("--fields u: bad term '1 0': '1'",)),
    ({"u": [{}, {}, {}], "omega": [{"1 0 0": "1"}, {}, {"3 3 3": "1"}]},
     ("--fields omega: term '3 3 3' has degree 9, above 8",)),
], ids=["component-not-object", "two-components", "top-level-list",
        "duplicate-monomial", "duplicate-monomial-one-zero", "two-exponents",
        "degree-above-cap"])
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


def test_fields_energy_of_any_length_is_printed(capsys, tmp_path):
    # a 3000-digit coefficient gives an energy of about 6000 digits, past
    # Python's 4300-digit int-to-str limit, which the command restores
    coeff = "7" * 3000
    path = tmp_path / "fields.json"
    path.write_text(json.dumps({"u": [{"1 0 0": coeff}, {}, {}], "omega": [{}, {}, {}]}))
    limit = sys.get_int_max_str_digits()
    code, out, err = run(capsys, "cosserat-energy", "--fields", str(path),
                         "--params", "1,1,1,1,1,1")
    assert (code, err) == (0, "")
    assert sys.get_int_max_str_digits() == limit
    value = cosserat_energy([{(1, 0, 0): Fraction(coeff)}, {}, {}], [{}, {}, {}],
                            EnergyParams.of(1, 1, 1, 1, 1, 1))
    sys.set_int_max_str_digits(0)
    try:
        want = str(value)
    finally:
        sys.set_int_max_str_digits(limit)
    assert len(want) > limit
    assert out == f"params {EnergyParams.of(1, 1, 1, 1, 1, 1)}: energy = {want}\n"


def test_fields_integer_literal_past_the_conversion_limit_exit_2(capsys, tmp_path):
    # json.load refuses an integer literal of more than 4300 digits with a
    # plain ValueError, not a JSONDecodeError
    path = tmp_path / "fields.json"
    path.write_text('{"u": [{"1 0 0": ' + "7" * 5000 + '}, {}, {}], "omega": [{}, {}, {}]}')
    code, out, err = run(capsys, "cosserat-energy", "--fields", str(path),
                         "--params", "1,1,1,1,1,1")
    assert (code, out) == (2, "")
    assert err.startswith(f"invalid input: --fields {path}: ")
    assert err.count("\n") == 1


HUGE = "1e999999999"


@pytest.mark.parametrize("where", ["fields", "params", "kappa"])
def test_exponent_notation_is_refused_before_it_is_expanded(capsys, tmp_path, where):
    # Fraction would form a billion-digit integer from 1e999999999 first
    fields = tmp_path / "fields.json"
    fields.write_text(json.dumps({"u": [{"1 0 0": HUGE if where == "fields" else "1"}, {}, {}],
                                  "omega": [{}, {}, {}]}))
    (tmp_path / "bad.diagram").write_text(GOOD_FILE.replace("0:0:1", f"0:0:{HUGE}"))
    params = f"{HUGE},1,1,1,1,1" if where == "params" else "1,1,1,1,1,1"
    argv = ["verify", "--diagram-file", str(tmp_path / "bad.diagram")] if where == "kappa" \
        else ["cosserat-energy", "--fields", str(fields), "--params", params]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("invalid input:") and HUGE in err
    assert err.count("\n") == 1


# --fields payloads of every JSON shape.  Monomial exponents stay <= 3, so a
# well-formed payload is quick to evaluate: the twisted route is built at
# w_max = degree + 1, and the CLI admits degrees up to 8.
_monomial_key = st.tuples(*[st.integers(0, 3)] * 3).flatmap(
    lambda m: st.sampled_from([" ", ",", ", "]).map(lambda sep: sep.join(map(str, m))))
_odd_key = st.one_of(
    st.text(alphabet=" ,-+/abx", max_size=6),
    st.lists(st.integers(-3, 3), max_size=4).map(lambda xs: " ".join(map(str, xs))))
_term_key = st.one_of(_monomial_key, _odd_key)
_scalar = st.one_of(
    st.integers(-10**6, 10**6),
    st.from_regex(r"-?[0-9]{1,4}(/[0-9]{1,3})?", fullmatch=True),
    st.text(alphabet=" ./-x", max_size=5),
    st.floats(), st.booleans(), st.none())
_json = st.recursive(_scalar, lambda inner: st.one_of(
    st.lists(inner, max_size=4), st.dictionaries(_term_key, inner, max_size=3)),
    max_leaves=8)
_component = st.one_of(st.dictionaries(_term_key, _scalar, max_size=3), _json)
_field = st.one_of(st.lists(_component, min_size=3, max_size=3),
                   st.lists(_component, max_size=4), _json)
_fields_payload = st.one_of(
    st.fixed_dictionaries({"u": _field, "omega": _field}),
    st.fixed_dictionaries({"u": _field, "omega": _field}, optional={"extra": _json}),
    st.dictionaries(st.sampled_from(["u", "omega", "x"]), _json, max_size=3),
    _json)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_fields_payload)
def test_any_fields_shape_exits_0_or_2_with_one_line(tmp_path, payload):
    path = tmp_path / "fields.json"
    path.write_text(json.dumps(payload))
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(["cosserat-energy", "--fields", str(path), "--params", "1,1,1,1,1,1"])
    if code == 0:
        assert err.getvalue() == ""
        assert out.getvalue().count("\n") == 1 and "energy = " in out.getvalue()
    else:
        assert (code, out.getvalue()) == (2, "")
        assert err.getvalue().startswith("invalid input: --fields")
        assert err.getvalue().count("\n") == 1


@pytest.mark.parametrize("command", ["verify", "derive"])
def test_non_utf8_diagram_file_exit_2(capsys, tmp_path, command):
    path = tmp_path / "bad.diagram"
    path.write_bytes(b"\xff\xfe")
    code, out, err = run(capsys, command, "--diagram-file", str(path))
    assert (code, out) == (2, "")
    assert err.startswith(f"invalid input: --diagram-file {path}: 'utf-8' codec ")
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
    (["cosserat-energy", "--fields", "{dir}"], None, ("--fields {dir}: ",)),
    (["verify", "--diagram-file", "{dir}"], None, ("--diagram-file {dir}: ",)),
    (["export", "--diagram", "plate-2d", "--operator", "d", "--index", "0",
      "--weight", "0", "-o", "{dir}"], None, ("--output {dir}: ",)),
    (["verify"], None, ("no diagram given (use --diagram or --diagram-file)",)),
    (BAD_FILE, ("dim=1 labels=a", "dim=2 labels=a"), ("row 0: 1 labels for dim 2",)),
    (BAD_FILE, ("name bad\n", "name bad\nexpect foo 1\n"), ("unknown expectation 'foo'",)),
    (BAD_FILE, ("kappa 1 1", "kappa 2 1"), ("kappa 2 1: needs 1 <= j < 2 and 1 <= l <= 1",)),
    (BAD_FILE, ("name bad\n", ""), ("diagram file must declare name, n and rows",)),
    (BAD_FILE, ("n 1\n", ""), ("diagram file must declare name, n and rows",)),
    (BAD_FILE, ("rows 2\n", ""), ("diagram file must declare name, n and rows",)),
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
    (BAD_FILE, ("name bad\n", "name bad\nexpect orders -1 1\n"),
     ("expect orders: index must be >= 0, got -1",)),
    (["cosserat-energy", "--params", "1,2,3,4,5,x"], None,
     ("--params 1,2,3,4,5,x: ", "'x'")),
    (["cosserat-energy", "--params", "1,2"], None,
     ("--params 1,2: expected mu,lam,mu_c,alpha,beta,gamma",)),
    (["korn2d", "--rmax", "2"], None, ("--rmax must be >= 3, got 2",)),
    (["verify", "--diagram", "plate-2d", "--diagram-file", "{dir}/bad.diagram"],
     ("name bad", "name both"), ("give --diagram or --diagram-file, not both",)),
], ids=["fields-directory", "diagram-file-directory", "output-directory", "no-diagram",
        "label-count", "unknown-expectation", "kappa-index-out-of-range", "no-name",
        "no-n", "no-rows", "params-zero-denominator",
        "kappa-zero-denominator", "kappa-short-triple", "n-declared-twice",
        "n-not-integer", "rows-not-integer", "row-index-not-integer",
        "dim-not-integer", "dim-zero", "kappa-j-not-integer", "kappa-l-not-integer",
        "triple-row-not-integer", "triple-col-not-integer", "name-extra-token",
        "orders-negative-index", "params-not-a-number", "params-too-few",
        "rmax-below-3", "diagram-and-diagram-file"])
def test_bad_input_exit_2(capsys, tmp_path, argv, edit, named):
    if edit:
        (tmp_path / "bad.diagram").write_text(GOOD_FILE.replace(*edit, 1))
    code, out, err = run(capsys, *(a.format(dir=tmp_path) for a in argv))
    assert code == 2
    assert out == ""
    assert err.startswith("invalid input:")
    assert err.count("\n") == 1
    for part in named:
        assert part.format(dir=tmp_path) in err


@pytest.mark.parametrize("argv, name, error", [
    (["verify", "--diagram", "plate-2d", "--wmax", "1"], "verify_identities", KeyError),
    (["korn2d", "--rmax", "3"], "korn2d_experiment", ValueError),
    (["cohomology", "--diagram", "plate-2d", "--wmax", "1"], "bgg_cohomology", OSError),
], ids=["KeyError", "ValueError", "OSError"])
def test_internal_error_propagates(monkeypatch, argv, name, error):
    # an exception raised inside the program is a bug, not invalid input:
    # main does not turn it into exit 2
    import bggkit.cli

    def fail(*args):
        raise error("internal")

    monkeypatch.setattr(bggkit.cli, name, fail)
    with pytest.raises(error, match="internal"):
        main(argv)


def test_cosserat_identity_failure_names_the_sample_count(capsys, monkeypatch):
    # the two closed-form checks and two samples pass; the third sample's
    # direct value is moved off the twisted route, which fails its check
    from bggkit import energy
    real, calls = energy._checked_twisted_norm, []

    def checked(direct, *args):
        calls.append(direct)
        return real(direct + (len(calls) == 5), *args)

    monkeypatch.setattr(energy, "_checked_twisted_norm", checked)
    code, out, err = run(capsys, "cosserat-energy", "--samples", "3", "--params", "1,1,1,1,1,1")
    assert (code, len(calls)) == (1, 5)
    assert out.count("\n") == 2 and "verified" not in out
    assert re.fullmatch(r"identity FAILED after 2 samples: energy mismatch: "
                        r"direct \S+ != twisted route \S+\n", err)


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


def test_korn_rmax_12_exits_0(capsys):
    # a float Cholesky fails on the whole unit-square pencil at r = 12, not on the classes
    code, out, _ = run(capsys, "korn2d", "--rmax", "12", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    assert [(r["degree"], r["kernel_dim"]) for r in payload["rows"]] == \
        [(r, 6) for r in range(3, 13)]


# sigma_min of korn2d --rmax 10 as float.hex, each for r = 2k+1 and 2k+2;
# pinned so that no change to the float step moves them unseen
KORN_RMAX_10_SIGMA_MIN = ["0x1.891069af29911p+1", "0x1.84331ac2d1512p+1",
                          "0x1.83e88bf7d574cp+1", "0x1.83d644f40268ep+1"]


def test_korn_rmax_10_json_is_pinned(capsys):
    code, out, _ = run(capsys, "korn2d", "--rmax", "10", "--format", "json")
    assert code == 0
    rows = json.loads(out)["rows"]
    assert [r["degree"] for r in rows] == list(range(3, 11))
    assert [float.hex(r["sigma_min"]) for r in rows] == \
        [h for h in KORN_RMAX_10_SIGMA_MIN for _ in range(2)]
    assert run(capsys, "korn2d", "--rmax", "10", "--format", "json")[1] == out


def test_korn_float_failure_exit_1(capsys, monkeypatch):
    # a failed float solve is not bad input: exit 1, not 2
    from bggkit import korn
    real, sizes = korn.eigh, []
    monkeypatch.setattr(korn, "eigh", lambda a, m: sizes.append(len(a)) or real(a, m))
    korn.korn2d_experiment(4)
    # distinct class cuts are solved in degree order: fail on the last, first met at degree 4
    last, solved = len(sizes), []

    def eigh(a, m):
        solved.append(len(a))
        if len(solved) == last:
            a = [[-x for x in row] for row in a]
        return real(a, m)

    monkeypatch.setattr(korn, "eigh", eigh)
    code, out, err = run(capsys, "korn2d", "--rmax", "4")
    assert (code, out) == (1, "")
    assert re.fullmatch(r"float step failed: r=4: a is not positive definite: "
                        r"Cholesky pivot 0 is -\S+\n", err)


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


EMPTY_OR_HUGE_HEADERS = {
    "n 0\nrows 1\nrow 0 name=a dim=1 labels=a": "must be >= 1",
    "n 2\nrows 0": "must be >= 1",
    # a row forms n kappa tensors, so n is capped before any is formed
    "n 9\nrows 2\nrow 0 name=a dim=1\nrow 1 name=b dim=1": "n must be <= 8, got 9",
    "n 1000000000\nrows 2\nrow 0 name=a dim=1\nrow 1 name=b dim=1":
        "n must be <= 8, got 1000000000"}


@pytest.mark.parametrize("header", EMPTY_OR_HUGE_HEADERS)
def test_empty_diagram_file_exit_2(capsys, tmp_path, header):
    path = _write_diagram(tmp_path, f"name flat\n{header}\n")
    code, _, err = run(capsys, "verify", "--diagram-file", path, "--wmax", "2")
    assert code == 2
    assert err.startswith("invalid input:") and EMPTY_OR_HUGE_HEADERS[header] in err
    assert err.count("\n") == 1
