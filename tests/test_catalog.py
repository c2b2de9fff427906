import hashlib
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bggkit import catalog
from bggkit.cli import main
from bggkit.diagram import DiagramSpec, InputError, KappaSpec
from bggkit.forms import ValueSpace
from bggkit.linalg import SparseMat
from bggkit.bgg import hodge_split
from bggkit.diagram import build

DATA_DIR = Path(__file__).resolve().parent.parent / "src" / "bggkit" / "data"

FIXED = ["conf-hessian-3d", "conf-deformation-3d", "mobius-2d",
         "elasticity-3d", "plate-2d"]


def test_names_listing():
    assert catalog.names() == [
        "conf-hessian-3d", "conf-deformation-3d", "higher-hessian-3d(1)",
        "higher-hessian-3d(2)", "higher-hessian-3d(3)", "higher-hessian-3d(4)",
        "mobius-2d", "elasticity-3d", "plate-2d"]


def _catalog_name(stem):
    # a file name cannot hold the parenthesized order of a generated entry
    base, _, order = stem.rpartition("-")
    return f"{base}({order})" if base == "higher-hessian-3d" else stem


@pytest.mark.parametrize("path", sorted(DATA_DIR.glob("*.diagram")),
                         ids=lambda p: p.stem)
def test_shipped_file_is_its_catalog_entry(path):
    entry = catalog.load_file(path)
    name = _catalog_name(path.stem)
    assert entry.name == name
    ref = catalog.get(name)
    assert (ref.name, ref.spec, ref.expected) == (entry.name, entry.spec, entry.expected)


def test_every_fixed_name_has_a_file():
    for name in FIXED:
        assert (DATA_DIR / f"{name}.diagram").is_file(), name


def test_only_conf_hessian_carries_value_actions():
    for name in catalog.names():
        assert (catalog.get(name).value_actions is not None) == (name == "conf-hessian-3d")


@pytest.mark.parametrize("name", ["higher-hessian-3d(1)"])
def test_shipped_files_match_builders(name):
    # the generated family is the one entry that also has a builder
    fname = name.replace("(", "-").replace(")", "") + ".diagram"
    entry = catalog.load_file(DATA_DIR / fname)
    ref = catalog.get(name)
    assert entry.spec == ref.spec
    for key in ("h0_total", "upsilon_support", "operator_orders", "source"):
        assert entry.expected.get(key) == ref.expected.get(key)


def test_expected_values_carry_source_tags():
    for name in FIXED:
        entry = catalog.get(name)
        src = entry.expected["source"]
        for key in ("upsilon_support", "h0_total", "operator_orders"):
            assert key in src and src[key]


# sha256 of to_text(higher_hessian_3d(k)); only k = 1 also ships as a file
_HIGHER_HESSIAN_TEXT = {
    1: "730614198b2cbeeaf93baea0734fd4228b00c2534ca185bce5e944c13d5f59e0",
    2: "3fb5113d92e6d3582ef540c91c88d1f219e21c90bcc7f3a5ec1107a03a8dbc01",
    3: "abe6ea349a968af0734b4250b54df9d1dd8f360fe5a32814ab7ae279640bbaf7",
    4: "d278406aaddcb16b1b90a877de291bd09e505c028771db84051ce42dee6a3d36",
    5: "067555e9aa1c1382a4fd1987e133b41279e94bd995a223d6c3d8bc970fb27ba8",
    6: "3c0a9c592cd7a10b3b9370020cf7c2dfd1eeea102e95e3c6cdf80a4ffc96adc7",
}


@pytest.mark.parametrize("order", sorted(_HIGHER_HESSIAN_TEXT))
def test_higher_hessian_text_is_pinned(order):
    text = catalog.to_text(catalog.higher_hessian_3d(order))
    assert hashlib.sha256(text.encode()).hexdigest() == _HIGHER_HESSIAN_TEXT[order]


def test_shipped_higher_hessian_file_matches_generator():
    shipped = (DATA_DIR / "higher-hessian-3d-1.diagram").read_bytes()
    assert shipped == catalog.to_text(catalog.higher_hessian_3d(1)).encode()


def test_higher_hessian_rejects_bad_order():
    with pytest.raises(InputError):
        catalog.higher_hessian_3d(0)
    with pytest.raises(InputError):
        catalog.get("higher-hessian-3d(x)")


@pytest.mark.parametrize("name", FIXED + ["higher-hessian-3d(1)",
                                          "higher-hessian-3d(3)"])
def test_fingerprints(name):
    # the last harmonic block, at (i, j), first appears at weight i + j;
    # the smallest w_max that fingerprint accepts
    entry = catalog.get(name)
    support = hodge_split(build(entry.spec, 0)).support()
    w_max = max(i + j for i, j in support)
    rep = catalog.fingerprint(entry, w_max)
    assert rep.ok, "\n".join(rep.lines())


def test_fingerprint_rejects_a_small_wmax_before_building_at_it(monkeypatch, capsys):
    # the harmonic support is read from a w_max 0 build, so a w_max below it
    # is rejected without building or deriving at that w_max
    built = []

    def recording_build(spec, w_max=8, validate=True):
        built.append(w_max)
        return build(spec, w_max, validate)

    monkeypatch.setattr(catalog, "build", recording_build)
    assert main(["derive", "--diagram", "conf-hessian-3d", "--wmax", "4"]) == 2
    assert capsys.readouterr().err == ("invalid input: w_max 4 is too small to show the "
                                       "fingerprint of conf-hessian-3d; use at least 5\n")
    assert built == [0]


def test_parse_rejects_malformed():
    with pytest.raises(ValueError):
        catalog.parse_text("name x\nn 2\nrows 2\nrow 0 name=a dim=1 labels=a\n")
    with pytest.raises(ValueError):
        catalog.parse_text("nonsense directive\n")


@pytest.mark.parametrize("line, directive", [
    ("name", "name"), ("kappa 1", "kappa"), ("expect upsilon 0", "expect upsilon"),
    ("row 0 name=a labels=a", "row 0"), ("row 0 dim=1 a", "row 0")])
def test_parse_rejects_short_directive(line, directive):
    with pytest.raises(ValueError, match=f"^{directive}: needs"):
        catalog.parse_text(line + "\n")


@pytest.mark.parametrize("old, new, directive, need", [
    ("name plate-2d\n", "name plate 2d\n", "name", 1),
    ("n 2\n", "n 2 3\n", "n", 1),
    ("expect h0_total 3 ", "expect h0_total 3 4 ", "expect h0_total", 1),
    ("expect orders 0 2 ", "expect orders 0 2 7 ", "expect orders", 2)],
    ids=["name", "n", "h0_total", "orders"])
def test_parse_rejects_trailing_tokens(old, new, directive, need):
    # a trailing token must be rejected, not silently dropped
    text = (DATA_DIR / "plate-2d.diagram").read_text()
    assert old in text
    catalog.parse_text(text)
    with pytest.raises(ValueError) as exc:
        catalog.parse_text(text.replace(old, new, 1))
    assert str(exc.value) == f"{directive}: takes {need} argument(s), got {new.strip()!r}"


_TWO_ROWS = ("name x\nn 1\nrows 2\nrow 0 name=a dim=1 labels=a\n"
             "row 1 name=b dim=2 labels=b,c\nkappa 1 1 0:0:1\n")


_TOKEN_RULE = " is empty or holds whitespace, '#', ',' or '='"


@pytest.mark.parametrize("old, new, message", [
    ("name x", "name a,b", "name: diagram name 'a,b'" + _TOKEN_RULE),
    ("row 1 name=b dim=2 labels=b,c", "row 1 dim=2 name=v=w", "row 1: name 'v=w'" + _TOKEN_RULE),
    ("labels=b,c", "labels=p=q,r", "row 1: label 'p=q'" + _TOKEN_RULE),
    ("labels=b,c", "labels=a,", "row 1: label ''" + _TOKEN_RULE),
    ("name=b", "name=", "row 1: name ''" + _TOKEN_RULE),
    ("labels=b,c", "labels=b,c lables=x,y", "row 1: unknown key 'lables'"),
    ("name=b", "name=a name=b", "row 1: repeated key 'name'")],
    ids=["name-comma", "row-name-equals", "label-equals", "empty-label", "empty-row-name",
         "unknown-row-key", "repeated-row-key"])
def test_parse_rejects_what_to_text_refuses(old, new, message, tmp_path, capsys):
    # parse_text and to_text share one token rule, and a row line holds only the
    # keys to_text writes, each once, so no parsed entry loses a token
    catalog.to_text(catalog.parse_text(_TWO_ROWS))
    text = _TWO_ROWS.replace(old, new, 1)
    with pytest.raises(ValueError) as exc:
        catalog.parse_text(text)
    assert str(exc.value) == message
    path = tmp_path / "bad.diagram"
    path.write_text(text)
    assert main(["verify", "--diagram-file", str(path)]) == 2
    assert capsys.readouterr().err == f"invalid input: {exc.value}\n"


@pytest.mark.parametrize("line, directive", [
    ("row 1 name=c dim=2 labels=c1,c2", "row 1"), ("kappa 1 1 0:0:2", "kappa 1 1"),
    ("name y", "name"), ("n 2", "n"), ("rows 2", "rows")],
    ids=["row", "kappa", "name", "n", "rows"])
def test_parse_rejects_repeated_directive(line, directive):
    text = ("name x\nn 1\nrows 2\nrow 0 name=a dim=1 labels=a\n"
            "row 1 name=b dim=1 labels=b\nkappa 1 1 0:0:1\n")
    catalog.parse_text(text)
    with pytest.raises(ValueError, match=f"^{directive}: declared twice"):
        catalog.parse_text(text + line + "\n")


@pytest.mark.parametrize("first, second, message", [
    ("expect h0_total 3", "expect h0_total 4", "expect h0_total: declared twice"),
    ("expect upsilon 0 0 1", "expect upsilon 0 0 2", "expect upsilon 0 0: declared twice"),
    ("expect orders 0 1", "expect orders 0 2", "expect orders 0: declared twice"),
    ("expect upsilon 0 0 1 source=a", "expect upsilon 1 0 1 source=b",
     "expect upsilon: source 'b' differs from the earlier source 'a'"),
    ("expect orders 0 1", "expect orders 1 1 source=b",
     "expect orders: source 'b' differs from the earlier source 'unspecified'")],
    ids=["h0_total", "upsilon", "orders", "upsilon-source", "orders-source"])
def test_parse_rejects_repeated_expectation(first, second, message, tmp_path, capsys):
    # each line parses alone; together they would keep only one value or tag
    for line in (first, second):
        catalog.parse_text(_TWO_ROWS + line + "\n")
    text = _TWO_ROWS + first + "\n" + second + "\n"
    with pytest.raises(ValueError) as exc:
        catalog.parse_text(text)
    assert str(exc.value) == message
    path = tmp_path / "bad.diagram"
    path.write_text(text)
    assert main(["verify", "--diagram-file", str(path)]) == 2
    assert capsys.readouterr().err == f"invalid input: {exc.value}\n"


def test_parse_rejects_an_orders_index_past_the_file(tmp_path, capsys):
    # the index is bounded before the order list is padded to it, so a huge
    # one is rejected without allocating that list
    text = _TWO_ROWS + "expect orders 1000000000 1\n"
    tracemalloc.start()
    try:
        with pytest.raises(InputError) as exc:
            catalog.parse_text(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(exc.value) == \
        "expect orders: index must be < 7, the file's line count, got 1000000000"
    assert peak < 1 << 20
    path = tmp_path / "bad.diagram"
    path.write_text(text)
    assert main(["verify", "--diagram-file", str(path)]) == 2
    assert capsys.readouterr().err == f"invalid input: {exc.value}\n"


def test_parse_rejects_a_huge_row_count_without_allocating(tmp_path, capsys):
    # one declared row against a count of a million: the counts differ, so
    # no list as long as the declared count is formed
    text = "name x\nn 1\nrows 1000000\nrow 0 name=a dim=1 labels=a\n"
    tracemalloc.start()
    try:
        with pytest.raises(InputError) as exc:
            catalog.parse_text(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(exc.value) == "row declarations do not match the declared count"
    assert peak < 1 << 20
    path = tmp_path / "bad.diagram"
    path.write_text(text)
    assert main(["verify", "--diagram-file", str(path)]) == 2
    assert capsys.readouterr().err == f"invalid input: {exc.value}\n"


def test_parse_pads_unlisted_orders_indices():
    entry = catalog.parse_text(_TWO_ROWS + "expect orders 2 1,2\n")
    assert entry.expected["operator_orders"] == [[], [], [1, 2]]


# -- text format round trip ---------------------------------------------------

# Tokens of the whitespace-separated format: no whitespace, no '#' (a comment),
# and no ',' or '=' inside a label or name.
_token = st.from_regex(r"[A-Za-z][A-Za-z0-9_.()-]{0,6}", fullmatch=True)
_source = st.from_regex(r"[a-z0-9]([a-z0-9;:() -]{0,10}[a-z0-9])?", fullmatch=True)
_value = st.one_of(st.integers(-9, 9), st.builds(Fraction, st.integers(-9, 9), st.integers(1, 7)))


@st.composite
def _entries(draw):
    n = draw(st.integers(1, 3))
    dims = draw(st.lists(st.integers(1, 3), min_size=1, max_size=4))
    rows = tuple(ValueSpace(draw(_token), tuple(draw(st.lists(
        _token, min_size=d, max_size=d, unique=True)))) for d in dims)
    kappa = []
    for j in range(1, len(dims)):
        maps = []
        for _ in range(n):
            cells = draw(st.dictionaries(
                st.tuples(st.integers(0, dims[j - 1] - 1), st.integers(0, dims[j] - 1)),
                _value, max_size=4))
            maps.append(SparseMat(dims[j - 1], dims[j], cells))
        kappa.append(tuple(maps))
    name = draw(_token)
    expected = {"source": {}}
    if draw(st.booleans()):
        expected["h0_total"] = draw(st.integers(-5, 50))
        expected["source"]["h0_total"] = draw(_source)
    if draw(st.booleans()):
        expected["upsilon_support"] = draw(st.dictionaries(
            st.tuples(st.integers(0, 4), st.integers(0, 4)), st.integers(0, 30),
            min_size=1, max_size=5))
        expected["source"]["upsilon_support"] = draw(_source)
    if draw(st.booleans()):
        expected["operator_orders"] = draw(st.lists(
            st.lists(st.integers(-3, 6), max_size=3), min_size=1, max_size=4))
        expected["source"]["operator_orders"] = draw(_source)
    return catalog.CatalogEntry(name, DiagramSpec(name, n, rows, KappaSpec(tuple(kappa))),
                                expected)


@settings(max_examples=150, deadline=None)
@given(_entries())
def test_text_round_trip_keeps_every_field(entry):
    back = catalog.parse_text(catalog.to_text(entry))
    assert (back.name, back.spec, back.expected) == (entry.name, entry.spec, entry.expected)


def test_row_without_labels_takes_default_labels():
    # a row line with no labels= names its basis <row name>1, <row name>2, ...
    entry = catalog.parse_text("name x\nn 1\nrows 2\nrow 0 name=a dim=1\n"
                               "row 1 dim=2\nkappa 1 1 0:1:1\n")
    assert [vs.basis_labels for vs in entry.spec.rows] == [("a1",), ("V11", "V12")]
    assert entry.spec.rows[1].name == "V1"
    back = catalog.parse_text(catalog.to_text(entry))
    assert (back.name, back.spec, back.expected) == (entry.name, entry.spec, entry.expected)


def _one_row_entry(name="x", row="a", label="a", source="s"):
    spec = DiagramSpec(name, 1, (ValueSpace(row, (label,)),), KappaSpec(()))
    return catalog.CatalogEntry(name, spec, {"h0_total": 1, "source": {"h0_total": source}})


@pytest.mark.parametrize("field, value", [
    ("diagram name", "a b"), ("diagram name", "a#b"), ("row name", "v=1"),
    ("row name", "v,1"), ("label", "a#b"), ("label", "a b"), ("label", "a,b"),
    ("label", "a=b"), ("label", "a\nb"), ("diagram name", ""), ("row name", ""),
    ("label", ""), ("source", "see #3"),
    ("source", "line\nbreak"), ("source", "ends\r\n"), ("source", "ends ")])
def test_to_text_rejects_what_the_format_cannot_carry(field, value):
    key = {"diagram name": "name", "row name": "row"}.get(field, field)
    good = _one_row_entry()
    assert catalog.parse_text(catalog.to_text(good)).spec == good.spec
    with pytest.raises(ValueError, match=f"^{field} "):
        catalog.to_text(_one_row_entry(**{key: value}))


@pytest.mark.parametrize("name", catalog.names())
def test_every_catalog_entry_serializes(name):
    entry = catalog.get(name)
    back = catalog.parse_text(catalog.to_text(entry))
    assert (back.name, back.spec, back.expected) == (entry.name, entry.spec, entry.expected)
