"""First twisted homology of the complement via angles and chambers.

Generators are the angles at resonant points: at a point p with incident
lines l_1 < ... < l_k in slope order, the k angles are the arcs (l_i, l_{i+1})
of the pencil of directions at p, the last one wrapping through the vertical
direction.  Relations come in two families:

* two rows per resonant point, with coefficients 1 on every angle and with
  the partial products m(l_1)...m(l_i) on the angle (l_i, l_{i+1});
* one row per bounded chamber, with a monodromy factor on the unique angle
  the chamber subtends at each of its resonant vertices.

The first Betti number with coefficients in the local system is the number
of angles minus the rank of the stacked relation matrix.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .cyclo import rank, rank_float
from .errors import InvariantError, NotNormalized, NotResonant, UnboundedChamber
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
    "angle_basis",
    "chamber_row",
    "h1",
    "lambda_coeff",
    "point_rows",
    "relation_matrix",
    "sector_sums",
    "subtended_angle",
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
    """Deterministically ordered angles over all resonant points."""

    def __init__(self, arr: Arrangement, resonant: ResonantSet):
        if not arr.is_normalized:
            raise NotNormalized("angle basis needs a normalized arrangement")
        self.angles = []
        self._col = {}
        self._lines_at = {}
        for pid in resonant.point_ids:
            p = arr.points[pid]
            self._lines_at[pid] = p.line_ids  # already slope-sorted
            for i in range(1, p.multiplicity + 1):
                self._col[(pid, i)] = len(self.angles)
                self.angles.append(Angle(pid, i))

    @property
    def dim(self) -> int:
        return len(self.angles)

    def column(self, point_id: int, index: int) -> int:
        return self._col[(point_id, index)]

    def lines_at(self, point_id: int) -> tuple:
        return self._lines_at[point_id]

    def angle_lines(self, angle: Angle) -> tuple:
        """The ordered pair of lines bounding the angle."""
        lines = self._lines_at[angle.point_id]
        k = len(lines)
        return (lines[angle.index - 1], lines[angle.index % k])


def angle_basis(arr: Arrangement, resonant: ResonantSet) -> AngleBasis:
    return AngleBasis(arr, resonant)


@dataclass(frozen=True)
class RelationRow:
    """A sparse relation supported on the angle basis."""

    kind: str  # "point+", "point-" or "chamber"
    label: int  # point id or chamber id
    coeffs: dict = field(compare=False)

    @property
    def is_zero(self) -> bool:
        return not self.coeffs


def point_rows(arr: Arrangement, system: LocalSystem, basis: AngleBasis, point_id: int):
    """The two kernel generators attached to one resonant point."""
    p = arr.points[point_id]
    if not system.is_resonant_at(p):
        raise NotResonant(f"point {point_id} is not resonant")
    lines = p.line_ids
    k = len(lines)
    one = system.one()
    plus = {basis.column(point_id, i): one for i in range(1, k + 1)}
    minus = {}
    acc = one
    for i in range(1, k + 1):
        acc = acc * system.m(lines[i - 1])
        minus[basis.column(point_id, i)] = acc
    if system.is_exact and acc != one:
        raise InvariantError(f"monodromy product at resonant point {point_id} is not 1")
    return (
        RelationRow("point+", point_id, plus),
        RelationRow("point-", point_id, minus),
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


def subtended_angle(arr: Arrangement, basis: AngleBasis, point_id: int, chamber: Chamber) -> Angle:
    """The unique angle at the point spanned by directions into the chamber."""
    return Angle(point_id, chamber.corner(point_id)[0])


def chamber_row(
    arr: Arrangement,
    system: LocalSystem,
    basis: AngleBasis,
    resonant: ResonantSet,
    chamber: Chamber,
) -> RelationRow:
    """The relation contributed by one bounded chamber."""
    if not chamber.bounded:
        raise UnboundedChamber(f"chamber {chamber.index} is unbounded")
    coeffs = {}
    for pid in chamber.vertex_ids:
        if pid not in resonant:
            continue
        ang = subtended_angle(arr, basis, pid, chamber)
        coeffs[basis.column(pid, ang.index)] = lambda_coeff(arr, system, pid, chamber)
    return RelationRow("chamber", chamber.index, coeffs)


def relation_matrix(arr: Arrangement, system: LocalSystem, resonant: ResonantSet, cells: list):
    """Angle basis and relation rows of a normalized arrangement from its chambers.

    Rows are ordered point rows first (plus then minus, by point id), then
    bounded chamber rows by chamber id.  Zero chamber rows are retained so
    the row census matches the chamber census.
    """
    if not arr.is_normalized:
        raise NotNormalized("relation matrix needs a normalized arrangement")
    basis = angle_basis(arr, resonant)
    rows = []
    for pid in resonant.point_ids:
        plus, minus = point_rows(arr, system, basis, pid)
        rows.append(plus)
        rows.append(minus)
    for ch in cells:
        if ch.bounded:
            rows.append(chamber_row(arr, system, basis, resonant, ch))
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
    chambers: list = field(repr=False)
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
    rank_K = rank(K)
    betti = basis.dim - rank_K
    num_chamber_rows = sum(1 for r in rows if r.kind == "chamber")
    zas_ok = num_chamber_rows == zaslavsky_bounded_count(narr)
    agrees = True
    if system.is_exact:
        agrees = rank_float([{j: x.to_complex() for j, x in row.items()} for row in K]) == rank_K
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
    slope-minimal incident line, over *all* adjacent chambers.

    Returns a dict point id -> (sum over the positive side, sum over the
    negative side), each as a column -> coefficient dict.  The positive-side
    sum must reproduce the all-ones point row and the negative-side sum the
    partial-product row.
    """
    arr, basis = rep.arrangement, rep.basis
    out = {}
    for pid in rep.resonant.point_ids:
        l1 = basis.lines_at(pid)[0]
        plus, minus = {}, {}
        for ch in rep.chambers:
            if pid not in ch.vertex_ids:
                continue
            ang = subtended_angle(arr, basis, pid, ch)
            lam = lambda_coeff(arr, system, pid, ch)
            side = plus if ch.signs[l1] > 0 else minus
            col = basis.column(pid, ang.index)
            side[col] = side.get(col, system.one() - system.one()) + lam
        out[pid] = (plus, minus)
    return out
