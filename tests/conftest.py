import pytest

from arrhom.geometry import Arrangement, Line
from arrhom.local_system import LocalSystem
from frame_helpers import line_q, points_on_line

# complete quadrilateral: the six lines through pairs of (0,0), (1,0), (0,1), (1,1)
QUADRILATERAL_LINES = (
    Line.from_coeffs(0, 1, 0),   # y = 0
    Line.from_coeffs(1, 0, 0),   # x = 0
    Line.from_coeffs(1, -1, 0),  # y = x
    Line.from_coeffs(1, 1, -1),  # x + y = 1
    Line.from_coeffs(1, 0, -1),  # x = 1
    Line.from_coeffs(0, 1, -1),  # y = 1
)

# the 9-line triangular grid x = i, y = j (0 <= i, j < 3) and x + y = c (1 <= c <= 3)
GRID_LINES = tuple(
    [(1, 0, -i) for i in range(3)] + [(0, 1, -j) for j in range(3)] + [(1, 1, -c) for c in range(1, 4)]
)


@pytest.fixture
def quadrilateral():
    return Arrangement(QUADRILATERAL_LINES)


@pytest.fixture
def quadrilateral_system():
    return LocalSystem(order=3, exponents=[1] * 6)


@pytest.fixture
def generic_triangle():
    return Arrangement(
        [
            Line.from_slope_intercept(0, 0),
            Line.from_slope_intercept(1, -2),
            Line.from_slope_intercept(-1, 3),
        ]
    )


def pencil(n, slopes=None):
    from fractions import Fraction

    if slopes is None:
        slopes = [Fraction(i) for i in range(n)]
    return Arrangement(Line.from_slope_intercept(s, 0) for s in slopes)


def signs_at(arr, point):
    """Side of every line at a point: +1 above, -1 below, 0 on it."""
    x, y = point
    return tuple((q > 0) - (q < 0) for q in (line_q(l, x, y) for l in arr.lines))


def point_off_edge(arr, line_id, p, direction, side):
    """A point next to the edge of a line that leaves vertex p.

    The edge runs from p in x-direction ``direction`` (+1 or -1) to the next
    point of the line, or one unit further along a ray.  The point lies above
    its midpoint (``side`` +1) or below it (-1), closer to it than to any
    other line, so it is inside a chamber that has this edge on its boundary.
    """
    line = arr.lines[line_id]
    ahead = [q.x for q in points_on_line(arr, line_id) if (q.x - p.x) * direction > 0]
    far = min(ahead, key=lambda x: abs(x - p.x)) if ahead else p.x + 2 * direction
    x = (p.x + far) / 2
    y = line.slope * x + line.intercept
    gap = min((abs(line_q(l, x, y)) for j, l in enumerate(arr.lines) if j != line_id), default=1)
    return (x, y + side * gap / 2)


def interior_points_at(arr, chamber, point_id):
    """Points of the chamber just off each of its boundary edges at a vertex."""
    p = arr.points[point_id]
    found = []
    for i in p.line_ids:
        for direction in (1, -1):
            q = point_off_edge(arr, i, p, direction, chamber.signs[i])
            if signs_at(arr, q) == chamber.signs:
                found.append(q)
    return found
