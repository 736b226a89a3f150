"""Mutated instance documents give a parse error or a result, never a traceback.

Starting from the complete quadrilateral's instance, each example replaces
values with random JSON values (huge integers, exponent strings, NaN-like
strings, nested lists and objects), drops keys and resizes lists.
``parse_instance`` may raise only ``ParseError``, and ``arrhom validate`` may
only exit 0, 1 or 2.
"""

import contextlib
import io
import json
import os
import tempfile

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from arrhom.cli import main
from arrhom.errors import ParseError
from arrhom.io import MAX_DIGITS, parse_instance

QUAD_DOC = {
    "lines": [[0, 1, 0], [1, 0, 0], [1, -1, 0], [1, 1, -1], [1, 0, -1], [0, 1, -1]],
    "local_system": {"order": 3, "exponents": [1] * 6},
}

# JSON integers that json.dumps cannot write (more than 4300 digits) are
# drawn as these placeholders and spliced into the text
HUGE = {f"@huge{k}@": "7" * k for k in (MAX_DIGITS, MAX_DIGITS + 1, 5000)}

_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(10**30), max_value=10**30),
    st.sampled_from([10**MAX_DIGITS - 1, -(10**MAX_DIGITS), 2**61, 16385, 0, -1]),
    st.sampled_from(sorted(HUGE)),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from(
        ["NaN", "nan", "-inf", "Infinity", "1e5000", "1e100000000", "-1e-100000000", "1e", "3/0", "1/3",
         "1_000", " 2 ", "0x10", "", "7" * 2500, f"1/{10**MAX_DIGITS}", "1e1000", "1e1001"]
    ),
    st.text(max_size=6),
)
_values = st.recursive(
    _scalars,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)


def _paths(node, prefix=()):
    yield prefix
    if isinstance(node, dict):
        for k, v in node.items():
            yield from _paths(v, prefix + (k,))
    elif isinstance(node, list):
        for i, v in enumerate(node):
            yield from _paths(v, prefix + (i,))


def _mutate(data, doc):
    path = data.draw(st.sampled_from(list(_paths(doc))))
    op = data.draw(st.sampled_from(["replace", "drop", "resize"]))
    if not path:
        return data.draw(_values) if op == "replace" else doc
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    key, node = path[-1], parent[path[-1]]
    if op == "replace":
        parent[key] = data.draw(_values)
    elif op == "drop":
        del parent[key]
    elif isinstance(node, list):
        size = data.draw(st.integers(min_value=0, max_value=len(node) + 3))
        fill = data.draw(st.lists(_values, min_size=size, max_size=size))
        parent[key] = (node + fill)[:size]
    return doc


@settings(max_examples=120, deadline=2000, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_mutated_instances_fail_only_with_parse_errors(data):
    doc = json.loads(json.dumps(QUAD_DOC))
    for _ in range(data.draw(st.integers(min_value=1, max_value=3))):
        doc = _mutate(data, doc)
    text = json.dumps(doc)
    for marker, digits in HUGE.items():
        text = text.replace(f'"{marker}"', digits)
    try:
        parse_instance(text)
    except ParseError:
        pass
    fd, path = tempfile.mkstemp(suffix=".json")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["validate", path])
    finally:
        os.unlink(path)
    assert code in (0, 1, 2), err.getvalue()
