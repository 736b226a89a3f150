"""The report writer against ``json.dumps(obj, sort_keys=True, indent=2) + "\\n"``.

``io.report_to_json`` writes the text itself instead of calling ``json``,
whose ``indent`` path is its pure-Python encoder.  Its output must equal
that reference on any JSON value with string keys, and on everything the
command-line tool prints.
"""

import json
import math
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arrhom import cli, io
from arrhom.io import report_to_json

DIGEST_CASES = json.loads((Path(__file__).with_name("report_digests.json")).read_text(encoding="utf-8"))


def reference(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


_text = st.text(alphabet=st.characters(min_codepoint=0, max_codepoint=0x10FFFF, exclude_categories=["Cs"]))
_scalars = (
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**200), max_value=2**200)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.sampled_from([-0.0, 0.0, 1e16, 1e-7, 5e-324, 1.7976931348623157e308, 2**64, -(2**64) - 1])
    | _text
)
_json = st.recursive(
    _scalars,
    lambda inner: st.lists(inner, max_size=5)
    | st.lists(inner, max_size=5).map(tuple)
    | st.dictionaries(_text, inner, max_size=5),
    max_leaves=40,
)


@settings(max_examples=400, deadline=None)
@given(obj=_json)
def test_writer_equals_json_dumps_on_any_json_value(obj):
    assert report_to_json(obj) == reference(obj)


@pytest.mark.parametrize(
    "obj",
    [
        {},
        [],
        (),
        {"a": {}, "b": [], "c": ({}, [[]], [{}])},
        [[[[]]], {"x": {"y": {}}}],
        {"é": "ü \x00\x1f\"\\/", "\U0001f600": ["퟿", "", "\t\n\r\b\f"]},
        [-0.0, 0.0, 1e16, 1e15, 5e-324, 1e-5, 0.1, -1.5e300, math.inf, -math.inf, math.nan],
        [2**64, -(2**64), 2**64 + 1, 10**300, True, False, None],
        {"b": 1, "a": 2, "B": 3, "": 4, "aa": 5, "a\x00": 6},
        ("tuple", ("nested", ()), {"k": (1, 2)}),
        "top-level string",
        17,
        2.5,
        None,
    ],
)
def test_writer_equals_json_dumps_on_edge_values(obj):
    assert report_to_json(obj) == reference(obj)


@pytest.mark.parametrize(
    "obj, what",
    [
        ({1: "a"}, "keys must be str"),
        ({"a": {None: 1}}, "keys must be str"),
        ([{("t",): 1}], "keys must be str"),
        ({"a": Fraction(1, 2)}, "not JSON serializable"),
        ([object()], "not JSON serializable"),
        ({"a": {1, 2}}, "not JSON serializable"),
        ([b"bytes"], "not JSON serializable"),
        (1j, "not JSON serializable"),
    ],
)
def test_writer_rejects_non_str_keys_and_unknown_types(obj, what):
    with pytest.raises(TypeError, match=what):
        report_to_json(obj)


@pytest.fixture
def checked_emit(monkeypatch):
    """Every document the CLI prints, checked against the reference as printed."""
    emitted = []

    def checking(doc):
        text = io.report_to_json(doc)
        assert text == reference(doc)
        emitted.append(doc)
        return text

    monkeypatch.setattr(cli, "report_to_json", checking)
    return emitted


@pytest.mark.parametrize("case", DIGEST_CASES, ids=[str(c["corpus_index"]) + ("-float" if c["float"] else "") for c in DIGEST_CASES])
def test_every_subcommand_prints_what_json_dumps_prints(case, checked_emit, tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("ARR_SEED", raising=False)
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(case["instance"]), encoding="utf-8")
    seed = str(case["seed"])
    mode = ["--float"] if case["float"] else []
    runs = [
        ["h1", str(path), "--seed", seed, "--certificates", *mode],
        ["bounds", str(path), "--seed", seed],
        ["sharp-pairs", str(path)],
        ["oracle", str(path), "--line", str(case["seed"] % len(case["instance"]["lines"]))],
        ["validate", str(path)],
    ]
    for argv in runs:
        cli.main(argv)
    assert len(checked_emit) == len(runs)
    capsys.readouterr()


def test_fuzz_summary_prints_what_json_dumps_prints(checked_emit, capsys, monkeypatch):
    monkeypatch.delenv("ARR_SEED", raising=False)
    assert cli.main(["fuzz", "--trials", "20", "--seed", "4"]) == 0
    assert cli.main(["fuzz", "--trials", "0"]) == 0
    assert len(checked_emit) == 2
    capsys.readouterr()
