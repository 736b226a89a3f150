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

The adapted frame is one projective map of the basic frame that the
caller's h1 report already holds (:func:`geometry.adapted_frame`), so a
certificate runs no normalization search and intersects nothing.  The frame
always exists; the fuzz battery counts a failure to build it as a violation.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cyclo import rank
from .errors import InvariantError, PencilNotCovered
from .geometry import Arrangement, adapted_frame, chambers, sharp_pairs
from .homology import relation_matrix
from .local_system import LocalSystem, ResonantSet, resonant_points

__all__ = [
    "BetaCertificate",
    "SharpPairReport",
    "beta_certificate",
    "cdo_bound",
    "r0_bound",
    "sharp_pair_report",
]


def cdo_bound(arr: Arrangement, resonant: ResonantSet, l0: int) -> int:
    """Sum of (mult(p) - 2) over resonant points on the base line.

    ``resonant`` is the resonant set of ``arr`` itself.
    """
    return sum(arr.points[pid].multiplicity - 2 for pid in resonant.on_line(l0))


def r0_bound(arr: Arrangement, resonant: ResonantSet, l0: int) -> int:
    """max(0, #R0 - 1) for the resonant set of ``arr``; undefined for pencils."""
    if len(arr.points) <= 1:
        raise PencilNotCovered("the resonant-count bound needs more than one point")
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


def _alpha_line_vector(basis, point_id, a_prime_sorted, line_id, one):
    """Partial angle sum attached to a line through a resonant base point."""
    i = a_prime_sorted.index(line_id) + 1
    return {basis.column(point_id, j): one for j in range(1, i + 1)}


def _vec_add(acc, vec, scale):
    for col, val in vec.items():
        cur = acc.get(col)
        acc[col] = val * scale if cur is None else cur + val * scale
    return acc


def beta_certificate(narr: Arrangement, system: LocalSystem, l0: int) -> BetaCertificate:
    """Build and verify the neighbor certificate along one line.

    ``narr`` is a normalized arrangement, such as the basic frame of an h1
    report (``HomologyReport.arrangement``).
    """
    system.require_admissible(narr)
    if len(narr.points) <= 1:
        raise PencilNotCovered("the neighbor certificate needs more than one point")
    frame = adapted_frame(narr, l0)
    res = resonant_points(frame, system)
    basis, rel_rows = relation_matrix(frame, system, res, chambers(frame))
    one = system.one()
    r0 = res.on_line(l0)

    # alpha(l) lives at the unique resonant base point that l passes through
    alpha_of_line = {}
    for pid in r0:
        lines_at = basis.lines_at(pid)
        if lines_at[0] != l0:
            raise InvariantError(f"base line {l0} is not slope-minimal at point {pid}")
        a_prime_sorted = list(lines_at[1:])
        for lid in a_prime_sorted:
            alpha_of_line[lid] = _alpha_line_vector(basis, pid, a_prime_sorted, lid, one)
    a_prime = sorted(alpha_of_line)

    neighbors = {}
    for lid in a_prime:
        off = [p for p in frame.points if lid in p.line_ids and l0 not in p.line_ids]
        qs = sorted(off, key=lambda p: p.y)
        if not qs or (len(qs) > 1 and qs[0].y == qs[1].y):
            raise InvariantError(f"line {lid} has no unique lowest point off the base line")
        neighbors[lid] = qs[0].index
    n_points = sorted(set(neighbors.values()))

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

    # span(R + S) = span(R) exactly when S lies in span(R): one rank test
    # covers every beta vector and every nonzero extra member
    rel = [r.coeffs for r in rel_rows]
    beta_rows = [vec for _q, _f, vec in betas]
    members = beta_rows + [diff for _q, diff in extra if any(diff.values())]
    all_in = not members or rank(rel + members) == rank(rel)
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
    k = ks.pop()
    from math import gcd

    return system.order // gcd(system.order, k)


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
