"""Combinatorial upper bounds on the twisted first Betti number, and the
sharp-pair checks on an h1 that the caller has computed.

Two bounds are computed per base line l0: the sum of mult(p) - 2 over the
resonant points on l0, and max(0, #R0 - 1) where R0 is that resonant set
(the latter requires more than one intersection point).

The second bound is certified constructively: in an adapted frame where l0
is the x-axis and every intersection point lies on or above it, each line
through a resonant point of l0 has a lowest intersection point off l0 (its
*neighbor*).  Every neighbor q yields an explicit kernel vector beta(q) in
the span of the partial-sum generators alpha(l); the certificate checks
exact membership of each beta(q) in the row space of the relation matrix
(rank stability under appending) and exact linear independence of the
family, giving dim(A'/K cap A') <= #A' - #N <= #R0 - 1.

The rank of the adapted frame's relation rows is not computed: it is the
report's ``rank_K``.  The frame has the basic frame's resonant points, so
the same number dim A of angles, and h1 = dim A - rank K is the same in
every chart.  So membership costs one rank, that of the rows with every
member appended, compared with ``rank_K``.  When rank K = dim A, as on
every h1 = 0 input, the row space holds every vector on the basis columns,
where the members live, so the frame's chambers and relation rows are not
built at all.

The adapted frame is one projective map of the basic frame that the
caller's h1 report already holds (:func:`geometry.adapted_frame`), so a
certificate runs no normalization search and intersects nothing.  A frame is
built only along a line that carries a resonant point of the basic frame;
along any other line the certificate is the vacuous 0 <= 0, read off the
basic frame alone.  The frame always exists; the fuzz battery counts a
failure to build it, along a line with a resonant point, as a violation.
Nor does a certificate walk chambers: it selects the cells of the report's
walk that the frame's line at infinity does not cross, the ones that do not
touch l0 from below (:func:`geometry.adapted_chambers`).  A cell's frame
sign on line j is its basic sign times sign(s_j - s), +1 for l0, times +1
above l0 and -1 below; its corner at a vertex follows from those signs and
the vertex's lines in slope order, as in the walk.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, lcm

from .cyclo import flatten_rows, rank, rank_exponent_maps, rank_float
from .errors import InvariantError, NotNormalized, PencilNotCovered
from .geometry import Arrangement, adapted_chambers, adapted_frame, sharp_pairs
from .homology import AngleBasis, HomologyReport, relation_matrix
from .local_system import LocalSystem, ResonantSet, resonant_points

__all__ = [
    "BetaCertificate",
    "SharpPairReport",
    "beta_certificate",
    "cdo_bound",
    "r0_bound",
    "sharp_pair_report",
]


def _require_line(arr: Arrangement, l0: int):
    """IndexError unless l0 names a line of ``arr``; a negative id is not
    read from the end."""
    if not 0 <= l0 < arr.n:
        raise IndexError(f"line {l0} is not a line of the arrangement")


def cdo_bound(arr: Arrangement, resonant: ResonantSet, l0: int) -> int:
    """Sum of (mult(p) - 2) over resonant points on the base line.

    ``resonant`` is the resonant set of ``arr`` itself.
    """
    _require_line(arr, l0)
    return sum(arr.points[pid].multiplicity - 2 for pid in resonant.on_line(l0))


def r0_bound(arr: Arrangement, resonant: ResonantSet, l0: int) -> int:
    """max(0, #R0 - 1) for the resonant set of ``arr``; undefined for pencils."""
    if len(arr.points) <= 1:
        raise PencilNotCovered("the resonant-count bound needs more than one point")
    _require_line(arr, l0)
    return max(0, len(resonant.on_line(l0)) - 1)


@dataclass
class BetaCertificate:
    """Constructive evidence for the max(0, #R0 - 1) bound along one line."""

    l0: int
    n_r0: int
    n_a_prime: int
    neighbors: dict  # line id -> neighbor point id (in the adapted frame)
    betas: list  # (point id, resonant flag, column -> coefficient)
    extra_members: list  # consecutive differences at non-resonant neighbors
    all_in_kernel: bool
    family_rank: int
    independent: bool
    counting_ok: bool  # #N >= #A' - #R0 + 1
    bound_value: int  # #A' - #N, an upper bound for dim(A'/K cap A')

    @property
    def ok(self) -> bool:
        return self.all_in_kernel and self.independent and self.counting_ok


def _vec_add(acc, vec, scale):
    for col, val in vec.items():
        cur = acc.get(col)
        acc[col] = val * scale if cur is None else cur + val * scale
    return acc


def beta_certificate(rep: HomologyReport, system: LocalSystem, l0: int) -> BetaCertificate:
    """Build and verify the neighbor certificate along one line.

    ``rep`` is the report of :func:`homology.h1` for ``system``: its basic
    frame ``rep.arrangement`` is mapped to the adapted frame, whose bounded
    chambers are selected from the report's walk ``rep.chambers``
    (:func:`geometry.adapted_chambers`), and its ``rank_K`` is the rank of
    the adapted frame's relation rows.  That frame has the report's
    resonant points (below), so the same dim A, and h1 = dim A - rank K does
    not depend on the chart.  A basis of another dimension raises
    :class:`~arrhom.errors.InvariantError`.

    A line that carries no resonant point of the basic frame gets the
    vacuous certificate, 0 <= 0, without a frame.  That is exact:
    ``transform`` maps each point with its line ids, and resonance reads
    only the line ids, so the adapted frame has a resonant point on l0
    exactly when the basic frame has one.  Without one, R0, A', the
    neighbors, the betas and the extra members are all empty, so every
    check holds and the family has rank 0.
    """
    narr = rep.arrangement
    system.require_admissible(narr)
    if len(narr.points) <= 1:
        raise PencilNotCovered("the neighbor certificate needs more than one point")
    if not narr.is_normalized:
        raise NotNormalized("the adapted frame is built from a normalized arrangement")
    _require_line(narr, l0)
    if not any(system.is_resonant_at(p) for p in narr.points if l0 in p.line_ids):
        return BetaCertificate(l0, 0, 0, {}, [], [], True, 0, True, True, 0)
    frame = adapted_frame(narr, l0)
    res = resonant_points(frame, system)
    r0 = res.on_line(l0)

    # each line through a resonant point of l0 has a unique lowest point off
    # l0; heights are compared as y D for D the lcm of the points' |Z|
    at_r0 = set(r0)
    a_prime = sorted({lid for p in frame.points if p.index in at_r0 for lid in p.line_ids} - {l0})
    D = lcm(*(p.coords[2] for p in frame.points))
    neighbors = {}
    for lid in a_prime:
        qs = sorted(
            (p.coords[1] * (D // p.coords[2]), p.index)
            for p in frame.points
            if lid in p.line_ids and l0 not in p.line_ids
        )
        if not qs or (len(qs) > 1 and qs[0][0] == qs[1][0]):
            raise InvariantError(f"line {lid} has no unique lowest point off the base line")
        neighbors[lid] = qs[0][1]
    n_points = sorted(set(neighbors.values()))

    # the members have entries only on basis columns, so at full column
    # rank (every h1 = 0 input) they lie in the row space: no rows needed
    if rep.rank_K < rep.dim_A:
        basis, rel_rows = relation_matrix(frame, system, res, adapted_chambers(narr, rep.chambers, frame, l0))
    else:
        basis, rel_rows = AngleBasis(frame, res), None
    if basis.dim != rep.dim_A:
        raise InvariantError(f"the adapted frame has {basis.dim} angles, the report {rep.dim_A}")
    one = system.one()

    # alpha(l) lives at the unique resonant base point that l passes through:
    # for l the i-th line after l0 there, the sum of the point's first i angles
    alpha_of_line = {}
    for pid in r0:
        lines_at = basis.lines_at(pid)
        if lines_at[0] != l0:
            raise InvariantError(f"base line {l0} is not slope-minimal at point {pid}")
        start = basis.start[pid]
        for i, lid in enumerate(lines_at[1:], 1):
            alpha_of_line[lid] = dict.fromkeys(range(start, start + i), one)

    betas = []
    extra = []
    for qid in n_points:
        q = frame.points[qid]
        lines_q = q.line_ids  # slope-sorted, never contains l0
        k = len(lines_q)
        vec = {}
        if qid in res:
            acc = one
            for lid in lines_q:
                acc = acc * system.m(lid)
                if lid in alpha_of_line:
                    _vec_add(vec, alpha_of_line[lid], (system.m(lid) - one) / acc)
            betas.append((qid, True, vec))
        else:
            first = lines_q[0]
            if first in alpha_of_line:
                _vec_add(vec, alpha_of_line[first], one * k)
            for lid in lines_q:
                if lid in alpha_of_line:
                    _vec_add(vec, alpha_of_line[lid], -one)
            betas.append((qid, False, vec))
            for la, lb in zip(lines_q, lines_q[1:]):
                diff = {}
                if la in alpha_of_line:
                    _vec_add(diff, alpha_of_line[la], one)
                if lb in alpha_of_line:
                    _vec_add(diff, alpha_of_line[lb], -one)
                extra.append((qid, diff))

    # span(R + S) = span(R) exactly when S lies in span(R), and rank(R) is
    # the report's rank_K: one rank test covers every beta vector and every
    # nonzero extra member
    beta_rows = [vec for _q, _f, vec in betas]
    members = beta_rows + [diff for _q, diff in extra if any(diff.values())]
    all_in = True
    if rel_rows is not None and members:
        rel = [r.coeffs for r in rel_rows]
        if system.is_exact:
            together = rank_exponent_maps(rel + flatten_rows(members)[0], system.order)
        else:
            together = rank_float(rel + members)
        if together < rep.rank_K:
            raise InvariantError(f"the adapted frame's rows with members have rank {together} < rank K {rep.rank_K}")
        all_in = together == rep.rank_K
    family_rank = rank(beta_rows)
    n_n = len(n_points)
    counting_ok = n_n >= len(a_prime) - len(r0) + 1 if r0 else True
    return BetaCertificate(
        l0=l0,
        n_r0=len(r0),
        n_a_prime=len(a_prime),
        neighbors=neighbors,
        betas=betas,
        extra_members=extra,
        all_in_kernel=all_in,
        family_rank=family_rank,
        independent=family_rank == n_n,
        counting_ok=counting_ok,
        bound_value=max(0, len(a_prime) - n_n),
    )


@dataclass
class SharpPairReport:
    """Sharp pairs of the arrangement and the theorems they trigger."""

    pairs: list
    bound_applicable: bool  # some sharp pair exists: h1 <= 1 must hold
    bound_satisfied: bool | None
    vanishing_applicable: bool  # constant monodromy of even order: h1 = 0
    vanishing_satisfied: bool | None
    constant_order: int | None  # effective order of a constant system

    @property
    def ok(self) -> bool:
        return (self.bound_satisfied is not False) and (self.vanishing_satisfied is not False)


def _effective_constant_order(system: LocalSystem) -> int | None:
    """The order of the common value when the monodromy map is constant."""
    if not system.is_exact:
        return None
    ks = set(system.exponents)
    if len(ks) != 1:
        return None
    return system.order // gcd(system.order, ks.pop())


def sharp_pair_report(arr: Arrangement, system: LocalSystem, h1_value: int) -> SharpPairReport:
    """List sharp pairs and check the bounds they imply for a computed h1.

    Pencils are excluded from both checks: with a single intersection point
    every pair is vacuously sharp while h1 can be as large as mult - 2, so
    the statements only make sense with more than one intersection point.
    """
    pairs = sharp_pairs(arr)
    applicable = bool(pairs) and len(arr.points) > 1
    bound_sat = (h1_value <= 1) if applicable else None
    d_eff = _effective_constant_order(system)
    vanishing = applicable and d_eff is not None and d_eff % 2 == 0 and arr.n % d_eff == 0
    vanishing_sat = (h1_value == 0) if vanishing else None
    return SharpPairReport(
        pairs=pairs,
        bound_applicable=applicable,
        bound_satisfied=bound_sat,
        vanishing_applicable=vanishing,
        vanishing_satisfied=vanishing_sat,
        constant_order=d_eff,
    )
