"""Real-figure combinatorics of line arrangements.

Lines live in the real projective plane and are stored as primitive integer
covectors (a, b, c) for a*x + b*y + c*z = 0.  Intersection points are exact
projective points; an arrangement is *normalized* when every line has a
finite slope, slopes are pairwise distinct and every intersection point is
affine.  Normalization is a seeded search over rational projective maps.
Each candidate is screened on the input's integers (:func:`_normalizes`)
and only the accepted one is transformed and verified in full, so failures
are loud and reproducible rather than silent.  :func:`normalize` keeps its
frame per seed on the input.
The adapted frame of a neighbor certificate is one further projective map of
a normalized frame, which always exists (see :func:`adapted_frame`).  Its
bounded chambers are selected from the normalized frame's walk, not walked
again (:func:`adapted_chambers`): the cells of RP^2 minus the lines, with
unbounded chambers glued to those of opposite signs, that do not touch l0
from below.  A kept cell's sign on line j is its basic sign times
sign(s_j - s) (+1 for l0), times +1 above l0 and -1 below; at a vertex
with k lines, a of them below the cell, its corner is (k, 0) for a = 0 or
k, (a, +1) when those are the first a in slope order, and (k - a, -1)
otherwise.

Every frame is a projective image of the input, and the input's points are
intersected once.  :func:`transform` scales the map to an integer matrix N,
sends each line l to l adj(N) and each intersection point P to N P with its
line ids, since incidence is projectively invariant.  An incidence-signature
comparison would then hold by construction, so each mapped figure is checked
instead by integer evaluation: every mapped point lies on exactly its own
lines, and no two mapped points coincide; a failure raises InvariantError.
A frame is built in one integer pass (:func:`_figure`): the mapped points,
their (x, y) order, each point's line ids in slope order, from integer
slope ranks computed once per frame, and that check.

Chambers of a normalized arrangement come from one walk over the faces of
the planar figure, by integer half-edge ids.  The points sorted along each
line give its segments and its two rays, and the lines at each point are
already slope-sorted, so the next boundary edge of a face is read off the
ccw order of directions at a vertex, or of ray directions at infinity.  The
same walk records, at every vertex of a chamber, which angle between
consecutive lines the chamber fills and on which side of the vertical it
lies.  Line signs are evaluated as integer forms at one point of one face;
every other face takes a neighbour's signs across an edge, with that edge's
line negated, since the two faces of an edge lie on opposite sides of its
line and on the same side of every other line (the edge's interior meets no
other line), and the faces are connected through their edges.  A
normalized frame keeps its walk, so every report and check that reads one
frame shares one walk.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import NamedTuple

from .errors import (
    DuplicateLine,
    InvariantError,
    NormalizationFailed,
    NotAdjacent,
    NotNormalized,
)

__all__ = [
    "Arrangement",
    "Chamber",
    "IntersectionPoint",
    "Line",
    "NormalizationRecord",
    "adapted_chambers",
    "adapted_frame",
    "chambers",
    "euler_characteristic",
    "intersections",
    "mat_identity",
    "normalize",
    "sharp_pairs",
    "transform",
    "zaslavsky_bounded_count",
]


def _sign(x) -> int:
    return (x > 0) - (x < 0)


def _canonical_triple(a, b, c):
    """Scale a rational triple to a primitive integer one, first nonzero > 0."""
    if not (type(a) is int and type(b) is int and type(c) is int):
        a, b, c = Fraction(a), Fraction(b), Fraction(c)
        denom = lcm(a.denominator, b.denominator, c.denominator)
        a, b, c = int(a * denom), int(b * denom), int(c * denom)
    if not (a or b or c):
        raise ValueError("zero triple")
    return _primitive(a, b, c)


def _primitive(u, v, w) -> tuple:
    """A nonzero integer triple divided by its gcd, first nonzero entry > 0."""
    g = gcd(u, v, w)
    if (u or v or w) < 0:
        g = -g
    return (u // g, v // g, w // g)


@dataclass(frozen=True)
class Line:
    """A real projective line a*x + b*y + c*z = 0 with rational coefficients."""

    a: int
    b: int
    c: int

    @classmethod
    def from_coeffs(cls, a, b, c) -> "Line":
        return cls(*_canonical_triple(a, b, c))

    @classmethod
    def from_slope_intercept(cls, s, b0) -> "Line":
        # y = s*x + b0  <=>  -s*x + y - b0 = 0
        return cls.from_coeffs(-Fraction(s), 1, -Fraction(b0))

    @property
    def slope(self) -> Fraction:
        if self.b == 0:
            raise ValueError("vertical line has no finite slope")
        return Fraction(-self.a, self.b)

    @property
    def intercept(self) -> Fraction:
        if self.b == 0:
            raise ValueError("vertical line has no intercept")
        return Fraction(-self.c, self.b)

    def hom_eval(self, X, Y, Z):
        return self.a * X + self.b * Y + self.c * Z

    def __repr__(self):
        return f"Line({self.a}x{self.b:+}y{self.c:+}z=0)"


@dataclass(frozen=True)
class IntersectionPoint:
    """A point of the intersection set, as a primitive projective triple."""

    index: int
    coords: tuple  # (X, Y, Z) primitive integers, first nonzero positive
    line_ids: tuple  # incident lines; slope-sorted when the arrangement is normalized

    @property
    def is_infinite(self) -> bool:
        return self.coords[2] == 0

    @property
    def x(self) -> Fraction:
        return Fraction(self.coords[0], self.coords[2])

    @property
    def y(self) -> Fraction:
        return Fraction(self.coords[1], self.coords[2])

    @property
    def multiplicity(self) -> int:
        return len(self.line_ids)


def _cross(l1: Line, l2: Line):
    X = l1.b * l2.c - l1.c * l2.b
    Y = l1.c * l2.a - l1.a * l2.c
    Z = l1.a * l2.b - l1.b * l2.a
    return (X, Y, Z)


def _slope_ranks(lines):
    """Each line's place in slope order, or None when a line is vertical or
    two slopes coincide.

    With L the lcm of the |b|, the integer -a (L // b) is L times the slope
    -a/b, so these integers order the slopes exactly.
    """
    if not all(l.b for l in lines):
        return None
    L = lcm(*(l.b for l in lines))
    keys = [-l.a * (L // l.b) for l in lines]
    order = sorted(range(len(lines)), key=keys.__getitem__)
    if any(keys[i] == keys[j] for i, j in zip(order, order[1:])):
        return None
    ranks = [0] * len(lines)
    for r, i in enumerate(order):
        ranks[i] = r
    return tuple(ranks)


def _check_incidences(forms, groups) -> None:
    """Each mapped (coords, line ids) lies on exactly the forms (a, b, c)
    its ids name, by integer evaluation, and no two coincide; a failure is a
    fault in the map, not in the input, and raises InvariantError."""
    for (X, Y, Z), ids in groups:
        on = tuple(i for i, (a, b, c) in enumerate(forms) if a * X + b * Y + c * Z == 0)
        if on != tuple(sorted(ids)):
            raise InvariantError(f"mapped point {(X, Y, Z)} lies on lines {list(on)}, not {sorted(ids)}")
    if len({coords for coords, _ids in groups}) != len(groups):
        raise InvariantError("two mapped intersection points coincide")


def _figure(lines, ranks, groups, check=False) -> list:
    """Intersection points from (coords, line ids) pairs, in one pass.

    Affine points come first by (x, y), then points at infinity by their
    primitive (X, Y).  With D the lcm of the affine |Z|, the integers
    D (x, y) order the affine points exactly.  A point's line ids are in
    slope order (``ranks``) when the figure is normalized, in index order
    otherwise.

    With ``check``, the points are checked against the lines by
    :func:`_check_incidences`.
    """
    groups = list(groups)
    if check:
        _check_incidences([(l.a, l.b, l.c) for l in lines], groups)
    D = lcm(*(Z for (_X, _Y, Z), _ids in groups if Z))

    def key(group):
        X, Y, Z = group[0]
        return (0, X * (D // Z), Y * (D // Z)) if Z else (1, X, Y)

    by = ranks.__getitem__ if ranks is not None and all(Z for (_X, _Y, Z), _ids in groups) else None
    return [
        IntersectionPoint(idx, coords, tuple(sorted(ids, key=by)))
        for idx, (coords, ids) in enumerate(sorted(groups, key=key))
    ]


def intersections(lines) -> list:
    """All pairwise intersection points with coincidences merged.

    Points are exact projective points; parallel lines meet at infinity.
    """
    lines = list(lines)
    if len(set(lines)) != len(lines):
        raise DuplicateLine("arrangement lines must be pairwise distinct")
    groups = {}
    for i, j in itertools.combinations(range(len(lines)), 2):
        key = _canonical_triple(*_cross(lines[i], lines[j]))
        groups.setdefault(key, set()).update((i, j))
    return _figure(lines, _slope_ranks(lines), groups.items())


class Arrangement:
    """An ordered list of distinct lines with derived intersection data.

    ``points``, when given, are the intersection points already known (a
    projective image maps them, see :func:`transform`); otherwise they are
    computed from the lines on first use.  The slope order of the lines is
    computed once, with the arrangement.  :func:`normalize` keeps its frame
    per seed on the arrangement it normalizes, and :func:`chambers` keeps
    the walk of a normalized arrangement on it; both are immutable, so
    every caller may share them.
    """

    def __init__(self, lines, points=None):
        lines = tuple(lines)
        if len(set(lines)) != len(lines):
            raise DuplicateLine("arrangement lines must be pairwise distinct")
        if not lines:
            raise ValueError("arrangement needs at least one line")
        self.lines = lines
        self._ranks = _slope_ranks(lines)
        self._points = points
        self._normalized = None
        self._frames = {}  # seed -> (frame, or None for this arrangement; record)
        self._walk = None

    @property
    def n(self) -> int:
        return len(self.lines)

    @property
    def points(self):
        if self._points is None:
            self._points = intersections(self.lines)
        return self._points

    @property
    def is_normalized(self) -> bool:
        if self._normalized is None:
            self._normalized = self._ranks is not None and all(p.coords[2] for p in self.points)
        return self._normalized

    def __repr__(self):
        return f"Arrangement({self.n} lines, {len(self.points)} points)"


def euler_characteristic(arr: Arrangement) -> int:
    """Topological Euler characteristic of the complex projective complement."""
    n = arr.n
    return 3 - 2 * n + sum(p.multiplicity - 1 for p in arr.points)


def zaslavsky_bounded_count(arr: Arrangement) -> int:
    """Bounded-region count of the affine figure from intersection data."""
    if not arr.is_normalized:
        raise NotNormalized("Zaslavsky count needs a normalized arrangement")
    return sum(p.multiplicity - 1 for p in arr.points) - arr.n + 1


# ---------------------------------------------------------------------------
# projective transformations (3x3 rational matrices acting on points)


def mat_identity():
    return tuple(tuple(Fraction(int(i == j)) for j in range(3)) for i in range(3))


def _integer_matrix(A):
    """(N, den) with N = den A an integer matrix, den the lcm of A's denominators."""
    den = lcm(*(q.denominator for row in A for q in row))
    return tuple(tuple(q.numerator * (den // q.denominator) for q in row) for row in A), den


def mat_det(A):
    return (
        A[0][0] * (A[1][1] * A[2][2] - A[1][2] * A[2][1])
        - A[0][1] * (A[1][0] * A[2][2] - A[1][2] * A[2][0])
        + A[0][2] * (A[1][0] * A[2][1] - A[1][1] * A[2][0])
    )


def _adjugate(A):
    """adj(A) = det(A) A^{-1}, by cyclic cofactors."""
    return tuple(
        tuple(
            A[(j + 1) % 3][(i + 1) % 3] * A[(j + 2) % 3][(i + 2) % 3]
            - A[(j + 1) % 3][(i + 2) % 3] * A[(j + 2) % 3][(i + 1) % 3]
            for j in range(3)
        )
        for i in range(3)
    )


def _map_points(N, coords) -> list:
    """N P at each point P, for an integer matrix N, as primitive triples."""
    (a, b, c), (d, e, f), (g, h, i) = N
    return [_primitive(a * X + b * Y + c * Z, d * X + e * Y + f * Z, g * X + h * Y + i * Z) for X, Y, Z in coords]


def transform(arr: Arrangement, M) -> Arrangement:
    """Apply the point map v -> M v; line covectors map by M^{-1} on the right.

    M is scaled by the lcm of its denominators to an integer matrix N.  Lines
    map to l adj(N), which is l M^{-1} up to scale, and the arrangement's
    points map to N P with their line ids, since incidence is projectively
    invariant; nothing is intersected again.  :func:`_figure` orders the
    mapped points and verifies the mapped figure in the same pass, and the
    frame's slope order comes from integer ranks computed once.
    """
    N, _den = _integer_matrix(M)
    if mat_det(N) == 0:
        raise ValueError("singular transformation")
    (A, B, C), (D, E, F), (G, H, I) = _adjugate(N)
    frame = Arrangement(
        Line(*_primitive(l.a * A + l.b * D + l.c * G, l.a * B + l.b * E + l.c * H, l.a * C + l.b * F + l.c * I))
        for l in arr.lines
    )
    pts = arr.points
    mapped = zip(_map_points(N, [p.coords for p in pts]), (p.line_ids for p in pts))
    frame._points = _figure(frame.lines, frame._ranks, mapped, check=True)
    return frame


# ---------------------------------------------------------------------------
# normalized frames


@dataclass(frozen=True)
class NormalizationRecord:
    """The exact projective map applied by :func:`normalize`."""

    matrix: tuple  # 3x3 Fractions, acting on points
    seed: int

    @property
    def l_inf(self) -> Line:
        """The input-coordinates line sent to infinity."""
        return Line.from_coeffs(*self.matrix[2])


def _normalizes(arr: Arrangement, N) -> bool:
    """Whether ``transform(arr, N)`` is normalized, read off the input's lines.

    That frame's lines are l adj(N) = (a, b, c) up to scale.  It is
    normalized exactly when every b != 0 and the pairs (a, b) reduced to
    b > 0 are distinct, one per slope -a/b.  Its points are then affine: a
    point (X : Y : 0) on two lines with b != 0 has X != 0, and both lines
    have slope Y / X.
    """
    (A, B, _C), (D, E, _F), (G, H, _I) = _adjugate(N)
    slopes = set()
    for l in arr.lines:
        a, b = l.a * A + l.b * D + l.c * G, l.a * B + l.b * E + l.c * H
        if not b:
            return False
        g = gcd(a, b) if b > 0 else -gcd(a, b)
        slopes.add((a // g, b // g))
    return len(slopes) == arr.n


def _normalize_basic(arr: Arrangement, rng: random.Random, retries: int = 64):
    """The first candidate map (x : y : 1) -> (x + t y : y : u x + v y + 1)
    whose frame is normalized.

    Each candidate is screened on the input's integers (:func:`_normalizes`)
    and only the accepted one is transformed; its frame is still checked.
    """
    if arr.is_normalized:
        return arr, mat_identity()
    pts = arr.points
    has_infinite = any(p.is_infinite for p in pts)
    one, zero = Fraction(1), Fraction(0)
    for attempt in range(retries):
        u = v = 0
        if has_infinite:
            bound = 3 + attempt
            u, v = rng.randint(-bound, bound), rng.randint(-bound, bound)
            w = Line.from_coeffs(u, v, 1)
            if any(w.hom_eval(*p.coords) == 0 for p in pts):
                continue
            if w in arr.lines:
                continue
        for t_try in range(6):
            if t_try == 0:
                t = zero
            else:
                t = Fraction(rng.randint(1, 8 * t_try), rng.randint(1, 5)) * rng.choice((1, -1))
            p, q = t.numerator, t.denominator
            if _normalizes(arr, ((q, p, 0), (0, q, 0), (q * u, q * v, q))):
                M = ((one, t, zero), (zero, one, zero), (Fraction(u), Fraction(v), one))
                cand = transform(arr, M)
                if not cand.is_normalized:
                    raise InvariantError("a screened normalization candidate maps to a frame that is not normalized")
                return cand, M
    raise NormalizationFailed(f"basic normalization failed after {retries} attempts")


def sharp_pairs(arr: Arrangement) -> list:
    """All unordered line pairs with an empty complement component.

    A pair is sharp when one of the two components of the projective plane
    minus the two lines contains no intersection point of the arrangement.
    A pair's sign products over the points off both lines are read in point
    order, and the first product that differs from an earlier one settles
    the pair as not sharp.
    """
    coords = [p.coords for p in arr.points]
    signs = [[_sign(l.a * X + l.b * Y + l.c * Z) for X, Y, Z in coords] for l in arr.lines]
    out = []
    for i, j in itertools.combinations(range(arr.n), 2):
        first = 0
        for x, y in zip(signs[i], signs[j]):
            s = x * y
            if s and s != first:
                if first:
                    break
                first = s
        else:
            out.append((i, j))
    return out


def adapted_frame(narr: Arrangement, l0: int) -> Arrangement:
    """The frame with l0 = {y = 0}, other slopes distinct positive, no point below l0.

    ``narr`` is a normalized arrangement, and the frame is one projective map
    of it.  With l0 the line y = s x + b0, put y' = y - s x - b0, the
    defining form of l0; eps is half the least |y'| over the points off l0.
    The map M3 sends (x : y : 1) to (x : y' : y' + eps), so it sends the line
    y' = -eps, parallel to l0, to infinity.  That frame always exists:

    - no other line passes through l0's point at infinity, since a
      normalized arrangement has no parallel lines, so no line becomes
      parallel to l0 and none is sent to infinity;
    - no point lies on y' = -eps, since |y'| >= 2 eps off l0, so every point
      stays affine and no two other lines become parallel;
    - y' / (y' + eps) > 0 when |y'| >= 2 eps, so every point off l0 lies
      above the new l0.

    The shear x -> x + beta y then makes every other slope positive: on
    u = 1/slope it acts as u -> u + beta, and it keeps y.  beta is read from
    the lines alone, mapped by adj(N3) for N3 the integer multiple of M3.

    Both minima are taken by integer cross-multiplication, and only then
    made Fractions.  At a point (X : Y : Z), y' = l0(X, Y, Z) / (b Z) for
    l0 = (a, b, c), so the least |y'| is the least |l0(P)| / |Z|.
    """
    if not narr.is_normalized:
        raise NotNormalized("the adapted frame is built from a normalized arrangement")
    line0 = narr.lines[l0]
    least = None  # (|l0(P)|, |Z|) at a point off l0 with the least |y'|
    for p in narr.points:
        if l0 not in p.line_ids:
            u, z = abs(line0.hom_eval(*p.coords)), abs(p.coords[2])
            if least is None or u * least[1] < least[0] * z:
                least = (u, z)
    eps = Fraction(least[0], 2 * abs(line0.b) * least[1]) if least else Fraction(1)
    s, b0 = line0.slope, line0.intercept
    M3 = (
        (Fraction(1), Fraction(0), Fraction(0)),
        (-s, Fraction(1), -b0),
        (-s, Fraction(1), eps - b0),
    )
    N3 = _integer_matrix(M3)[0]
    adj = _adjugate(N3)
    least_u = None  # (num, den), den > 0: the least u = -b/a over the lines l adj(N3) but l0
    for i, l in enumerate(narr.lines):
        if i != l0:  # a != 0, as no other line is parallel to l0
            a, b = (l.a * adj[0][j] + l.b * adj[1][j] + l.c * adj[2][j] for j in range(2))
            u = (-b, a) if a > 0 else (b, -a)
            if least_u is None or u[0] * least_u[1] < least_u[0] * u[1]:
                least_u = u
    beta = 1 - Fraction(*least_u) if least_u and least_u[0] <= 0 else Fraction(0)
    # the shear's rows times N3, scaled by beta's denominator q > 0
    p, q = beta.numerator, beta.denominator
    N = (
        tuple(q * x + p * y for x, y in zip(N3[0], N3[1])),
        tuple(q * y for y in N3[1]),
        tuple(q * z for z in N3[2]),
    )
    out = transform(narr, N)
    _verify_adapted_single(out, l0)
    return out


def _verify_adapted_single(arr: Arrangement, l0: int):
    """The adapted frame's promises, checked on the integer coordinates.

    A line (a, b, c) has slope -a/b, which is positive exactly when a b < 0;
    a point (X : Y : Z) lies below y = 0 exactly when Y Z < 0.  Canonical
    lines have a > 0 or a = 0 < b, so (a, b) / gcd(a, b) is one key per slope.
    """
    line0 = arr.lines[l0]
    if (line0.a, line0.b, line0.c) != (0, 1, 0):
        raise NormalizationFailed("base line did not land on y = 0")
    slopes = set()
    for i, l in enumerate(arr.lines):
        if l.b == 0:
            raise NormalizationFailed("vertical line in adapted frame")
        if i != l0 and l.a * l.b >= 0:
            raise NormalizationFailed("non-positive slope in adapted frame")
        g = gcd(l.a, l.b)
        slopes.add((l.a // g, l.b // g))
    if len(slopes) != arr.n:
        raise NormalizationFailed("slope collision in adapted frame")
    for p in arr.points:
        _X, Y, Z = p.coords
        if Z == 0 or Y * Z < 0:
            raise NormalizationFailed("intersection point below the base line")


def _corner(signs, line_ids) -> tuple:
    """(angle, side) of the sector a chamber with these line signs fills at a
    vertex whose lines, in slope order, are ``line_ids``; as in :func:`_sector`.

    The sector right of the vertical between l_i and l_(i+1) lies above
    l_1 ... l_i, the one left of it above l_(i+1) ... l_k, and the two that
    cross the vertical above all k lines or none.
    """
    k = len(line_ids)
    above = [signs[j] > 0 for j in line_ids]
    a = sum(above)
    if a == 0 or a == k:
        return (k, 0)
    if all(above[:a]):
        return (a, 1)
    return (k - a, -1)


def adapted_chambers(narr: Arrangement, cells: list, frame: Arrangement, l0: int) -> list:
    """The bounded chambers of ``frame = adapted_frame(narr, l0)``, selected
    from ``cells = chambers(narr)`` without a new walk.

    The frame's line at infinity is L: y' = -eps (see :func:`adapted_frame`),
    so its bounded chambers are the cells of RP^2 minus the lines that L does
    not cross.  A projective cell is a bounded face of ``narr``, or two
    unbounded faces with opposite signs, glued across the line at infinity.

    *Selection.*  L meets the n lines in n distinct points, l0 at infinity
    among them, so it crosses n cells: the arrangement is not a pencil, so
    each cell is convex in some chart and L crosses it at most once.  No
    vertex lies in the strip between L and l0, so these are the cells that
    touch l0 from below: a face with ``signs[l0] < 0`` and a vertex on l0.
    Every other cell is kept.

    *Side.*  A kept face with ``signs[l0] > 0`` lies above l0, so y' > -eps.
    A kept face with ``signs[l0] < 0`` has no vertex on l0 and does not meet
    L; its vertices have y' <= -2 eps, so it lies on the side y' < -eps.

    *Signs.*  The frame maps P to N P for an integer N with det N > 0, as
    det M3 = eps and the shear has determinant 1, and l_j to l_j adj(N).  So
    at a point P with Z > 0, l_j adj(N) N P = det(N) l_j(P), and N P has
    third coordinate of the sign of y' + eps.  The frame sign of a cell on
    line j is therefore its basic sign times sign(b_j) sign(b~_j) times
    +1 on the side y' > -eps and -1 on the other, where b~_j is the
    y-coefficient of l_j adj(N) before it is canonicalized.  That factor
    is read from slopes: N sends (1 : s : 0), l0's direction, to (1 : 0 : 0),
    so the x-coefficient of l_j adj(N) has the sign of a_j + b_j s; the
    verified frame slopes are positive, so b~_j has the opposite sign, and
    sign(b_j) sign(b~_j) = sign(s_j - s) for j != l0.  For l0 it is +1.
    Both faces of a glued pair give the same frame signs, as their basic
    signs and their sides are opposite.

    *Vertices and corners.*  Basic points map to frame points with the same
    lines.  The map keeps orientation on the side y' > -eps and reverses it
    on the other, so a cell's counterclockwise vertices are those of its
    upper face, then those of its lower face reversed, started at the least
    frame id as :func:`chambers` starts a bounded chamber.  Each corner is
    read off the frame signs by :func:`_corner`.
    """
    lines = narr.lines
    line0 = lines[l0]
    flip = [
        1 if j == l0 else _sign((line0.a * l.b - l.a * line0.b) * line0.b * l.b)  # sign(s_j - s)
        for j, l in enumerate(lines)
    ]
    frame_id = {frozenset(q.line_ids): q.index for q in frame.points}
    to_frame = [frame_id[frozenset(p.line_ids)] for p in narr.points]
    on_l0 = {p.index for p in narr.points if l0 in p.line_ids}
    unbounded = {c.signs: c for c in cells if not c.bounded}
    out = []
    for c in cells:
        side = c.signs[l0]
        if c.bounded:
            if side < 0 and not on_l0.isdisjoint(c.vertex_ids):
                continue
            verts = c.vertex_ids if side > 0 else c.vertex_ids[::-1]
        else:
            if side < 0:
                continue  # taken up with the face of its pair above l0
            lower = unbounded[tuple(-x for x in c.signs)]
            if not on_l0.isdisjoint(lower.vertex_ids):
                continue
            verts = c.vertex_ids + lower.vertex_ids[::-1]
        signs = tuple(x * f * side for x, f in zip(c.signs, flip))
        verts = [to_frame[v] for v in verts]
        first = verts.index(min(verts))
        verts = tuple(verts[first:] + verts[:first])
        corners = tuple(_corner(signs, frame.points[v].line_ids) for v in verts)
        out.append(Chamber(len(out), signs, True, verts, len(verts), corners))
    return out


def normalize(arr: Arrangement, seed: int = 0):
    """Return an equivalent normalized arrangement and the map that made it.

    The returned record holds the exact 3x3 rational point map and the seed.
    Incidences are preserved, since every frame maps the input's points
    (checked in :func:`transform`); line indices are unchanged.
    """
    got = arr._frames.get(seed)
    if got is None:
        out, M = _normalize_basic(arr, random.Random(seed))
        # an input that is already normalized is its own frame, kept as None
        # so that it does not refer to itself
        got = arr._frames[seed] = (None if out is arr else out, NormalizationRecord(M, seed))
    return (arr if got[0] is None else got[0]), got[1]


# ---------------------------------------------------------------------------
# chamber enumeration


class Chamber(NamedTuple):
    """A connected component of the real plane minus the lines.

    ``signs`` records the side of every line.  ``vertex_ids`` are in
    counterclockwise boundary order: a bounded chamber starts at its leftmost
    vertex, an unbounded one runs from the end of one boundary ray to the
    start of the other.  ``corners`` is aligned with ``vertex_ids``: at each
    vertex, whose lines in slope order are l_1 < ... < l_k, the chamber fills
    one sector between consecutive directions, given as ``(angle, side)``.
    Angle i < k is the arc between l_i and l_{i+1}, right of the vertical
    (side 1) or left of it (side -1); the wrap-around angle k crosses the
    vertical (side 0).

    A chamber is an immutable named tuple, so a walk builds each one without
    a per-field ``object.__setattr__``.
    """

    index: int
    signs: tuple
    bounded: bool
    vertex_ids: tuple
    edge_count: int
    corners: tuple

    def corner(self, point_id: int) -> tuple:
        """The (angle, side) pair of the chamber at one of its vertices."""
        if point_id not in self.vertex_ids:
            raise NotAdjacent(f"chamber {self.index} has no vertex {point_id}")
        return self.corners[self.vertex_ids.index(point_id)]


def _sector(slot: int, k: int) -> tuple:
    """(angle, side) of the sector from ccw slot ``slot`` to the next one.

    The 2k slots at a vertex of multiplicity k are the rightward directions
    by increasing slope, then the leftward ones by increasing slope.
    """
    if slot % k == k - 1:
        return (k, 0)
    if slot < k:
        return (slot + 1, 1)
    return (slot - k + 1, -1)


def chambers(arr: Arrangement) -> tuple:
    """All chambers of the affine real figure of a normalized arrangement.

    Each face is walked once, with the face on the left of its half-edges.
    Half-edge (i, s, d) runs along segment s of line i, between the line's
    points s-1 and s in x order (the first and last segments are rays),
    rightward for d = 1 and leftward for d = -1.  At a vertex the next
    half-edge is the clockwise neighbour of the reversed incoming one in the
    ccw slot order of :func:`_sector`.  A half-edge running to infinity is
    followed by the next ray direction in the same cyclic order over all
    lines, entered from infinity.

    Line signs are sampled at one point of one face only.  Every other face
    takes its neighbour's signs across an edge, with the edge's line
    negated: the two faces of an edge lie on opposite sides of its line and
    on the same side of every other line, since the edge's interior meets
    no other line, and the faces are connected through their edges.

    Chambers are numbered as the vertical decomposition orders them: by the
    leftmost slab they meet, then by the number of lines below them there.

    The arrangement keeps its walk: a frame is walked once, however many
    reports and checks read it.  The walk is a tuple of frozen chambers.
    """
    if not arr.is_normalized:
        raise NotNormalized("chamber enumeration needs a normalized arrangement")
    if arr._walk is None:
        arr._walk = _walk(arr)
    return arr._walk


def _sampled_signs(arr: Arrangement) -> tuple:
    """Line signs of the face on the left of half-edge (0, 0, 1), above line
    0 and left of its first point, read at one point of that ray: the sign
    of a_j X + b_j Y + c_j Z for each covector scaled to b_j > 0, and +1 for
    line 0.

    With line 0 scaled to b > 0 and its first point P scaled to Z > 0,
    P - Z (b, -a, 0) lies on line 0 left of P, so on no other line; a lone
    line stands in (0 : -c : b) for P.
    """
    forms = [(l.a, l.b, l.c) if l.b > 0 else (-l.a, -l.b, -l.c) for l in arr.lines]
    a, b, c = forms[0]
    X, Y, Z = next((p.coords for p in arr.points if 0 in p.line_ids), (0, -c, b))
    if Z < 0:
        X, Y, Z = -X, -Y, -Z
    X, Y = X - Z * b, Y + Z * a
    signs = [_sign(fa * X + fb * Y + fc * Z) for fa, fb, fc in forms]
    signs[0] = 1
    return tuple(signs)


def _walk(arr: Arrangement) -> tuple:
    """The face walk of :func:`chambers`, over integer half-edge ids.

    *Ids.*  With m_i points on line i, line i has 2 m_i + 2 half-edges, and
    half-edge (i, s, d) gets id base[i] + 2s + (d < 0), base[i] the sum of
    2 m_j + 2 over j < i; its twin, on the same segment or ray the other
    way, is id ^ 1 (the doubly connected edge list of Muller and Preparata,
    1978).  Each half-edge's next id, end vertex (-1 at infinity) and end
    sector are filled once, per point from the ids of the half-edges that
    end there, aligned with its line ids.  The points ascend in x, so the
    s-th point met on line j ends (j, s, 1), and the leftmost point of a
    face has its least id.  Faces are traced through a ``face_of`` array;
    an unbounded face has one half-edge to infinity.

    *Signs.*  The n integer forms are evaluated at one point of one face
    (:func:`_sampled_signs`): the face above line 0, left of its first point.
    Every other face takes the signs of a neighbour across a twin pair,
    with that edge's line negated.  The two faces of an edge lie on
    opposite sides of its line and on the same side of every other line,
    since the edge's interior (a segment between consecutive points of its
    line, or a ray beyond the last) meets no other line.  The face graph is
    connected: a path between two faces can avoid the finitely many
    vertices, so it crosses lines only in the interiors of edges.  A search
    from the sampled face therefore gives every face its signs, and the
    face on the left of (i, s, d) has sign d on line i.
    """
    n = arr.n
    pts = arr.points
    rank = arr._ranks
    count = [0] * n  # points on each line
    for p in pts:
        for i in p.line_ids:
            count[i] += 1
    base = [0] * (n + 1)
    for i in range(n):
        base[i + 1] = base[i] + 2 * count[i] + 2
    size = base[n]
    line_of = [i for i in range(n) for _ in range(2 * count[i] + 2)]
    nxt = [0] * size
    end = [-1] * size
    sector = [None] * size
    # at infinity: the 2n ray directions in ccw order, rightward by slope,
    # then leftward, each entered from infinity; a ray out to infinity is
    # followed by the next direction
    by_slope = sorted(range(n), key=rank.__getitem__)
    from_inf = [base[j] + 2 * count[j] + 1 for j in by_slope] + [base[j] for j in by_slope]
    for i in range(n):
        nxt[base[i] + 2 * count[i]] = from_inf[(rank[i] + 1) % (2 * n)]
        nxt[base[i] + 1] = from_inf[(rank[i] + n + 1) % (2 * n)]
    # at a vertex of k lines, ccw slot u < k leaves rightward along its u-th
    # line and slot u >= k leftward along its (u - k)-th; a half-edge that
    # arrives along the r-th line is followed by the slot clockwise of its
    # reverse: r + k - 1 coming rightward, r - 1 (mod 2k) coming leftward
    cursor = base[:n]  # the id of (j, s, 1), s the points met on line j so far
    sectors = {}
    for v, p in enumerate(pts):
        ids = p.line_ids
        k = len(ids)
        at = sectors.get(k)
        if at is None:
            at = sectors[k] = [_sector(slot, k) for slot in range(2 * k)]
        starts = [cursor[j] for j in ids]
        for j in ids:
            cursor[j] += 2
        leave = [h + 2 for h in starts] + [h + 1 for h in starts]
        for r, h in enumerate(starts):
            slot = r + k - 1
            nxt[h] = leave[slot]
            end[h] = v
            sector[h] = at[slot]
            slot = r - 1 if r else 2 * k - 1
            h += 3
            nxt[h] = leave[slot]
            end[h] = v
            sector[h] = at[slot]

    face_of = [-1] * size
    faces = []
    for h in range(size):
        if face_of[h] < 0:
            f = len(faces)
            hes = []
            while face_of[h] < 0:
                face_of[h] = f
                hes.append(h)
                h = nxt[h]
            faces.append(hes)

    signs = [None] * len(faces)
    signs[0] = _sampled_signs(arr)  # face 0 is on the left of half-edge 0
    order = [0]
    for f in order:
        own = signs[f]
        for h in faces[f]:
            g = face_of[h ^ 1]
            if signs[g] is None:
                i = line_of[h]
                signs[g] = own[:i] + (-own[i],) + own[i + 1:]
                order.append(g)

    # chambers that meet the leftmost slab: the faces of the left rays
    left = {face_of[base[i] + d] for i in range(n) for d in (0, 1)}
    x_rank = [0]
    for (X, _Y, Z), (X2, _Y2, Z2) in zip((p.coords for p in pts), (p.coords for p in pts[1:])):
        x_rank.append(x_rank[-1] + (X * Z2 != X2 * Z))
    keys, rows = [], []
    for f, hes in enumerate(faces):
        ends = list(map(end.__getitem__, hes))
        corners = list(map(sector.__getitem__, hes))
        bounded = -1 not in ends
        if bounded:  # start with the half-edge into the leftmost vertex
            first = ends.index(min(ends))
            vertex_ids = ends[first:] + ends[:first]
            corners = corners[first:] + corners[:first]
        else:  # start with the half-edge from infinity, and drop the one to it
            first = ends.index(-1) + 1
            vertex_ids = ends[first:] + ends[:first - 1]
            corners = corners[first:] + corners[:first - 1]
        own = signs[f]
        keys.append((0 if f in left else 1 + x_rank[min(vertex_ids)], own.count(1)))
        rows.append((own, bounded, tuple(vertex_ids), len(hes), tuple(corners)))
    return tuple(Chamber(idx, *rows[f]) for idx, f in enumerate(sorted(range(len(rows)), key=keys.__getitem__)))
