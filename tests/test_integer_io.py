"""Integer input and output stay on integers and keep their values.

``parse_rational`` returns an ``int`` for a JSON integer and for the decimal
text of one; every other literal goes through ``Fraction`` as before.  A
report prints each point's x and y from its integer triple, reduced with a
positive denominator, exactly as ``rational_str`` prints the ``Fraction``
coordinates.
"""

import json
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from arrhom.geometry import normalize
from arrhom.io import _point_dict, parse_instance, parse_rational, rational_str
from frame_helpers import triangular_grid

DIGEST_CASES = json.loads(Path(__file__).with_name("report_digests.json").read_text(encoding="utf-8"))

# strings int() or Fraction() accept that are not the decimal text of an int
EDGE_STRINGS = ["+3", " 3", "03", "-0", "3_0", "٣", "1e3", "3/1"]


@given(st.integers(min_value=-(10**60), max_value=10**60))
def test_integers_and_their_text_parse_as_ints(k):
    for value in (k, str(k)):
        got = parse_rational(value, "x")
        assert type(got) is int and got == Fraction(str(k))


@given(st.from_regex(r"-?[0-9]{1,40}", fullmatch=True))
def test_every_digit_string_keeps_its_value(text):
    got = parse_rational(text, "x")
    assert got == Fraction(text)
    assert (type(got) is int) == (str(int(text)) == text)


@pytest.mark.parametrize("text", EDGE_STRINGS)
def test_edge_strings_take_the_fraction_path(text):
    got = parse_rational(text, "x")
    assert type(got) is Fraction and got == Fraction(text)


def test_rational_str_of_an_int():
    for k in (0, 7, -7, 10**50):
        assert rational_str(k) == str(k) == rational_str(Fraction(k))


def _frames():
    for case in DIGEST_CASES:
        arr, _system = parse_instance(json.dumps(case["instance"]))
        yield normalize(arr, case["seed"])[0]
    for a in range(3, 10):  # 9 to 33 lines
        for seed in range(3):
            yield normalize(triangular_grid(a), seed)[0]


def test_points_print_from_their_integer_coordinates():
    points = 0
    for narr in _frames():
        for p in narr.points:
            d = _point_dict(p, set())
            assert (d["x"], d["y"]) == (rational_str(p.x), rational_str(p.y)), p
            points += 1
    assert points > 1000
