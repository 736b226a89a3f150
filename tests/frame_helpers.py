"""Exact projective helpers that only the tests need.

They check frames from outside the program: the incidence poset that every
frame must keep, the product and inverse of normalization maps, a line's
defining form and points, whether it is vertical, the lines bounding an angle,
and the per-pair form of the sharp-pair test; the triangular grids that several
tests walk and print; and the entries of a relation row by column.
"""

from fractions import Fraction

from arrhom.cyclo import column_entries
from arrhom.geometry import Arrangement, Line, _adjugate, _sign, mat_det


def triangular_grid(a: int) -> Arrangement:
    """The 4a - 3 lines x = i, y = j (0 <= i, j < a) and x + y = c (1 <= c <= 2a - 3)."""
    lines = [(1, 0, -i) for i in range(a)] + [(0, 1, -j) for j in range(a)] + [(1, 1, -c) for c in range(1, 2 * a - 2)]
    return Arrangement([Line.from_coeffs(*l) for l in lines])


def row_values(row, system) -> dict:
    """A relation row's entries by angle column, to compare exactly with ``==``.

    An exact system's rows are flat, keyed column * d + s for the term
    c zeta^s; they are read back into one ``CycloNumber`` per column.
    A float system's rows map columns to complex values already.
    """
    if not system.is_exact:
        return dict(row.coeffs)
    return column_entries(row.coeffs, system.order)


def incidence_signature(arr):
    """Canonical incidence poset: a sorted tuple of sorted line-id tuples."""
    return tuple(sorted(tuple(sorted(p.line_ids)) for p in arr.points))


def mat_mul(A, B):
    return tuple(tuple(sum(Fraction(A[i][k]) * B[k][j] for k in range(3)) for j in range(3)) for i in range(3))


def mat_inverse(A):
    d = mat_det(A)
    if d == 0:
        raise ValueError("singular transformation")
    return tuple(tuple(Fraction(v) / d for v in row) for row in _adjugate(A))


def mat_apply_point(A, P):
    return tuple(sum(A[i][k] * Fraction(P[k]) for k in range(3)) for i in range(3))


def line_q(line, x, y) -> Fraction:
    """The defining form y - slope*x - intercept of a non-vertical line."""
    return Fraction(y) - line.slope * Fraction(x) - line.intercept


def is_vertical(line) -> bool:
    return line.b == 0


def points_on_line(arr, line_id: int) -> list:
    return [p for p in arr.points if line_id in p.line_ids]


def angle_lines(basis, angle) -> tuple:
    """The ordered pair of lines bounding an angle of an angle basis."""
    lines = basis.lines_at(angle.point_id)
    return (lines[angle.index - 1], lines[angle.index % len(lines)])


def pair_component_labels(arr, li, lj) -> set:
    """Signs of li*lj over intersection points off both lines.

    The product sign is projectively well-defined and labels the two
    components of the real projective plane minus the two lines.  This
    per-pair form is the reference for :func:`arrhom.geometry.sharp_pairs`.
    """
    labels = set()
    for p in arr.points:
        vi = li.hom_eval(*p.coords)
        vj = lj.hom_eval(*p.coords)
        if vi == 0 or vj == 0:
            continue
        labels.add(_sign(vi * vj))
    return labels
