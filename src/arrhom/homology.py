"""First twisted homology of the complement via angles and chambers.

Generators are the angles at resonant points: at a point p with incident
lines l_1 < ... < l_k in slope order, the k angles are the arcs (l_i, l_{i+1})
of the pencil of directions at p, the last one wrapping through the vertical
direction.  Relations come in two families:

* two rows per resonant point, with coefficients 1 on every angle and with
  the partial products m(l_1)...m(l_i) on the angle (l_i, l_{i+1});
* one row per bounded chamber, with a monodromy factor on the unique angle
  the chamber subtends at each of its resonant vertices.  The angle and the
  side of the vertical it lies on are the walk's corner there; the factor
  is 1 right of the vertical and on the wrap-around angle, and left of it
  the partial product that the point's ``point-`` row holds on that angle.

The first Betti number with coefficients in the local system is the number
of angles minus the rank of the stacked relation matrix.

In exact mode every entry is a monomial zeta^s with coefficient 1: s = 0 in
a ``point+`` row, s = e(l_1) + ... + e(l_i) mod d on angle i of a ``point-``
row, and a chamber entry is one of those two.  So the rows are built from
exponent sums, as the flat rows ``{column * d + s: 1}`` that
:func:`~arrhom.cyclo.rank_exponent_maps` certifies as built, and the float
cross-check reads each entry as the complex unit zeta^s.  An exact h1 makes
no ``CycloNumber``.  One builder serves both modes; the mode decides only
how a unit is multiplied and written as an entry.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .cyclo import _unit, rank_exponent_maps, rank_float
from .errors import InvariantError, NotNormalized, NotResonant
from .geometry import (
    Arrangement,
    Chamber,
    NormalizationRecord,
    chambers,
    euler_characteristic,
    normalize,
    zaslavsky_bounded_count,
)
from .local_system import LocalSystem, ResonantSet, resonant_points

__all__ = [
    "Angle",
    "AngleBasis",
    "HomologyReport",
    "RelationRow",
    "h1",
    "lambda_coeff",
    "point_rows",
    "relation_matrix",
    "sector_sums",
]


@dataclass(frozen=True)
class Angle:
    """The arc between consecutive directions l_i, l_{i+1} at a resonant point.

    ``index`` runs from 1 to mult(p); the last index is the wrap-around arc
    through the vertical direction.
    """

    point_id: int
    index: int


class AngleBasis:
    """Deterministically ordered angles over all resonant points.

    Each resonant point's angles are one block of columns: angle i at point p
    is column ``start[p] + i - 1``.
    """

    def __init__(self, arr: Arrangement, resonant: ResonantSet):
        if not arr.is_normalized:
            raise NotNormalized("angle basis needs a normalized arrangement")
        self._points = arr.points
        self.angles = []
        self.start = {}
        for pid in resonant.point_ids:
            self.start[pid] = len(self.angles)
            self.angles += [Angle(pid, i) for i in range(1, self._points[pid].multiplicity + 1)]

    @property
    def dim(self) -> int:
        return len(self.angles)

    def column(self, point_id: int, index: int) -> int:
        return self.start[point_id] + index - 1

    def lines_at(self, point_id: int) -> tuple:
        return self._points[point_id].line_ids  # slope-sorted


@dataclass(frozen=True)
class RelationRow:
    """A sparse relation supported on the angle basis.

    ``coeffs`` is in the system's mode: for an exact system the flat row
    ``{column * d + s: 1}`` of its entries zeta^s, the format of
    :func:`~arrhom.cyclo.rank_exponent_maps`; for a float one the map
    ``{column: complex value}``.
    """

    kind: str  # "point+", "point-" or "chamber"
    label: int  # point id or chamber id
    coeffs: dict = field(compare=False)

    @property
    def is_zero(self) -> bool:
        return not self.coeffs


def _units(system: LocalSystem):
    """The unit 1, the product of a unit with one line's monodromy, and the
    row entry ``(key, value)`` of a unit at a column, in the system's mode.

    An exact unit zeta^s is its exponent s mod d, so a product adds
    exponents and the entry at column j is the flat term ``(j * d + s, 1)``.
    A float unit is its complex value, and the entry is ``(j, value)``.
    """
    if system.is_exact:
        d, e = system.order, system.exponents
        return 0, lambda s, line: (s + e[line]) % d, lambda j, s: (j * d + s, 1)
    v = system.values
    return complex(1.0), lambda u, line: u * v[line], lambda j, u: (j, u)


def _point_entries(arr: Arrangement, system: LocalSystem, basis: AngleBasis, point_id: int, units):
    """The entries of one resonant point's ``point+`` and ``point-`` rows,
    angle by angle: 1, and the partial product m(l_1)...m(l_i) on angle i."""
    p = arr.points[point_id]
    if not system.is_resonant_at(p):
        raise NotResonant(f"point {point_id} is not resonant")
    one, times, entry = units
    plus, minus = [], []
    acc = one
    for col, line in enumerate(p.line_ids, basis.start[point_id]):
        acc = times(acc, line)
        plus.append(entry(col, one))
        minus.append(entry(col, acc))
    if system.is_exact and acc != one:
        raise InvariantError(f"monodromy product at resonant point {point_id} is not 1")
    return plus, minus


def point_rows(arr: Arrangement, system: LocalSystem, basis: AngleBasis, point_id: int):
    """The two kernel generators attached to one resonant point."""
    plus, minus = _point_entries(arr, system, basis, point_id, _units(system))
    return (
        RelationRow("point+", point_id, dict(plus)),
        RelationRow("point-", point_id, dict(minus)),
    )


def lambda_coeff(arr: Arrangement, system: LocalSystem, point_id: int, chamber: Chamber):
    """Monodromy correction factor of a chamber at one of its vertices.

    The factor is 1 right of the vertical through the vertex and on the
    wrap-around angle; left of it, on the angle (l_i, l_{i+1}), it is the
    partial product m(l_1)...m(l_i).
    """
    index, side = chamber.corner(point_id)
    out = system.one()
    if side < 0:
        for i in arr.points[point_id].line_ids[:index]:
            out = out * system.m(i)
    return out


def relation_matrix(arr: Arrangement, system: LocalSystem, resonant: ResonantSet, cells: list):
    """Angle basis and relation rows of a normalized arrangement from its chambers.

    Rows are ordered point rows first (plus then minus, by point id), then
    bounded chamber rows by chamber id.  Zero chamber rows are retained so
    the row census matches the chamber census.

    A bounded chamber's entry at a resonant vertex sits on the angle of its
    corner there, ``(i, side)``: the point's ``point-`` entry on angle i,
    m(l_1)...m(l_i), when the corner lies left of the vertical (side -1),
    and its ``point+`` entry 1 otherwise (:func:`lambda_coeff` is the same
    factor, computed anew).  So every entry is a unit; in exact mode it is
    zeta^s with s an exponent sum mod d, and the rows are flat
    (:class:`RelationRow`).
    """
    if not arr.is_normalized:
        raise NotNormalized("relation matrix needs a normalized arrangement")
    basis = AngleBasis(arr, resonant)
    units = _units(system)
    rows = []
    entries = {}  # resonant point id -> its point+ and point- entries
    for pid in resonant.point_ids:
        plus, minus = entries[pid] = _point_entries(arr, system, basis, pid, units)
        rows += (RelationRow("point+", pid, dict(plus)), RelationRow("point-", pid, dict(minus)))
    for ch in cells:
        if ch.bounded:
            coeffs = {}
            for pid, (index, side) in zip(ch.vertex_ids, ch.corners):
                at = entries.get(pid)
                if at is not None:
                    key, value = at[side < 0][index - 1]
                    coeffs[key] = value
            rows.append(RelationRow("chamber", ch.index, coeffs))
    return basis, rows


@dataclass
class HomologyReport:
    """Outcome of the angle/chamber computation; checks read its frame's analysis."""

    dim_A: int
    num_rows: int
    num_point_rows: int
    num_chamber_rows: int
    zero_chamber_rows: tuple
    rank_K: int
    h1: int
    euler: int
    h2: int
    zaslavsky_ok: bool
    float_agrees: bool
    record: NormalizationRecord
    arrangement: Arrangement = field(repr=False)
    resonant: ResonantSet = field(repr=False)
    chambers: tuple = field(repr=False)  # the frame's walk, shared with the frame
    basis: AngleBasis = field(repr=False)
    rows: list = field(repr=False)


def h1(arr: Arrangement, system: LocalSystem, seed: int = 0) -> HomologyReport:
    """Normalize, assemble the relation matrix and report dim A - rank K."""
    system.require_admissible(arr)
    if arr.n < 2:
        raise ValueError("need an arrangement of at least 2 lines")
    narr, record = normalize(arr, seed)
    resonant = resonant_points(narr, system)
    cells = chambers(narr)
    basis, rows = relation_matrix(narr, system, resonant, cells)
    K = [r.coeffs for r in rows]
    if system.is_exact:
        d = system.order
        rank_K = rank_exponent_maps(K, d)
        # every term is zeta^s with coefficient 1, at key column * d + s
        agrees = rank_float([{key // d: _unit(d, key % d) for key in row} for row in K]) == rank_K
    else:
        rank_K, agrees = rank_float(K), True
    betti = basis.dim - rank_K
    num_chamber_rows = sum(1 for r in rows if r.kind == "chamber")
    zas_ok = num_chamber_rows == zaslavsky_bounded_count(narr)
    e = euler_characteristic(narr)
    return HomologyReport(
        dim_A=basis.dim,
        num_rows=len(rows),
        num_point_rows=len(rows) - num_chamber_rows,
        num_chamber_rows=num_chamber_rows,
        zero_chamber_rows=tuple(r.label for r in rows if r.kind == "chamber" and r.is_zero),
        rank_K=rank_K,
        h1=betti,
        euler=e,
        h2=e + betti,
        zaslavsky_ok=zas_ok,
        float_agrees=agrees,
        record=record,
        arrangement=narr,
        resonant=resonant,
        chambers=cells,
        basis=basis,
        rows=rows,
    )


def sector_sums(rep: HomologyReport, system: LocalSystem):
    """Per-point sums of lambda-weighted angles over the two sides of the
    slope-minimal incident line, over *all* adjacent chambers, in one pass
    over the walk's corners.  Each corner is weighted by :func:`lambda_coeff`,
    not by the relation rows' read-off, so the check stays independent.

    Returns a dict point id -> (sum over the positive side, sum over the
    negative side), each as a column -> coefficient dict.  The positive-side
    sum must reproduce the all-ones point row and the negative-side sum the
    partial-product row.
    """
    arr, basis = rep.arrangement, rep.basis
    out = {pid: ({}, {}) for pid in rep.resonant.point_ids}
    zero = system.one() - system.one()
    for ch in rep.chambers:
        for pid, (index, _side) in zip(ch.vertex_ids, ch.corners):
            sums = out.get(pid)
            if sums is None:
                continue
            lam = lambda_coeff(arr, system, pid, ch)
            side = sums[0] if ch.signs[basis.lines_at(pid)[0]] > 0 else sums[1]
            col = basis.column(pid, index)
            side[col] = side.get(col, zero) + lam
    return out
