"""Exact projective helpers that only the tests need.

They check frames from outside the program: the incidence poset that every
frame must keep, and the product and inverse of normalization maps.
"""

from fractions import Fraction

from arrhom.geometry import _adjugate, mat_det


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
