"""The Fox oracle's integer chart is the chart of two rational frame changes.

``reference_chart`` is the chart that ``fox.decone`` replaced, kept here as
the reference: the input is transformed by the map with rows e_i, e_j and
the removed line, then, when a kept line is vertical, transformed again by
the least shear x -> x + t*y that leaves none vertical; the crossings are
the frame's affine points as fractions, and the initial wire order is the
order of the heights just left of the first crossing.  ``decone`` must give
the same lines, the same crossings in the same order with the same wires,
and ``wiring_diagram`` the same initial order, on every line of every
instance.
"""

from fractions import Fraction

import pytest

from arrhom.fox import decone, wiring_diagram
from arrhom.fuzz import corpus, sharp_corpus
from arrhom.geometry import Arrangement, Line, mat_identity, transform
from arrhom.local_system import LocalSystem


def _shear_x(t):
    return ((Fraction(1), Fraction(t), Fraction(0)), (Fraction(0), Fraction(1), Fraction(0)), mat_identity()[2])


def reference_chart(arr, line_id):
    """(lines, crossings as ((x, y), wires), initial order, shear t) of the two-map chart."""
    w = arr.lines[line_id]
    coeffs = (Fraction(w.a), Fraction(w.b), Fraction(w.c))
    k = next(k for k in (2, 1, 0) if coeffs[k])
    M = tuple(row for i, row in enumerate(mat_identity()) if i != k) + (coeffs,)
    chart = transform(arr, M)
    rest_ids = tuple(i for i in range(arr.n) if i != line_id)
    t = 0
    while any(chart.lines[i].a * t == chart.lines[i].b for i in rest_ids):
        t += 1
    if t:
        chart = transform(chart, _shear_x(t))
    lines = tuple(chart.lines[i] for i in rest_ids)
    wire = {lid: pos for pos, lid in enumerate(rest_ids)}
    crossings = tuple(
        ((p.x, p.y), tuple(wire[i] for i in p.line_ids)) for p in chart.points if not p.is_infinite
    )
    x_left = crossings[0][0][0] - 1 if crossings else Fraction(0)
    order = sorted(range(len(lines)), key=lambda i: lines[i].slope * x_left + lines[i].intercept)
    return lines, crossings, tuple(order), t


def _grid(a):
    """The triangular grid x = i, y = j (0 <= i, j < a), x + y = c (1 <= c <= 2a - 3), order 3."""
    lines = [(1, 0, -i) for i in range(a)] + [(0, 1, -j) for j in range(a)] + [(1, 1, -c) for c in range(1, 2 * a - 2)]
    exponents = [1] * len(lines)
    exponents[-1] += -sum(exponents) % 3
    return Arrangement([Line.from_coeffs(*l) for l in lines]), LocalSystem(order=3, exponents=exponents)


INSTANCES = {
    "corpus-20240810": lambda: [(i.arrangement, i.system) for i in corpus(20240810, 150)],
    "sharp-corpus-3": lambda: [(i.arrangement, i.system) for i in sharp_corpus(3, 100)],
    "grids-9-17": lambda: [_grid(3), _grid(5)],
}


@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_integer_chart_matches_the_two_map_chart(name):
    charts = sheared = 0
    for arr, system in INSTANCES[name]():
        for line_id in range(arr.n):
            lines, crossings, order, t = reference_chart(arr, line_id)
            dec = decone(arr, system, line_id)
            assert dec.lines == lines, (name, arr.lines, line_id)
            got = tuple(((Fraction(X, Z), Fraction(Y, Z)), wires) for (X, Y, Z), wires in dec.crossings)
            assert got == crossings, (name, arr.lines, line_id)
            assert all(Z > 0 for (_X, _Y, Z), _wires in dec.crossings)
            assert wiring_diagram(dec).initial_order == order, (name, arr.lines, line_id)
            charts += 1
            sheared += t > 0
    assert charts >= {"corpus-20240810": 600, "sharp-corpus-3": 400, "grids-9-17": 26}[name]
    assert sheared > 0  # some charts need a shear, so both branches are compared

