"""Randomized instance generation and the per-trial check battery.

Arrangements are built from small rational data with deliberate
concurrences (hub points shared by several lines) so that resonant points
actually occur; admissible systems draw nonzero exponents summing to zero
modulo the order.  For order 2 every exponent is forced to 1, so the line
count must be even; the generators respect that.

``run_trial`` executes the full consistency battery on one instance: the
main computation against the Fox oracle, every per-line bound, the
sector-sum identity, the neighbor certificate, structural counts and
normalization-seed invariance.  Any failed check is reported as a violation
string; an empty list means the trial passed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

from .bounds import beta_certificate, cdo_bound, r0_bound, sharp_pair_report
from .cyclo import column_entries
from .errors import DuplicateLine, NormalizationFailed
from .fox import oracle_h1
from .geometry import Arrangement, Line, sharp_pairs
from .homology import h1, point_rows, sector_sums
from .local_system import LocalSystem

__all__ = [
    "MAX_LINES",
    "MAX_SHARP_LINES",
    "Instance",
    "TrialResult",
    "constant_system",
    "corpus",
    "random_arrangement",
    "random_system",
    "run_trial",
    "sharp_corpus",
]

# The generators draw distinct values from finite sets, and would draw
# forever past their size: a pencil's slopes are the 19 fractions p/q with
# |p| <= 4 and q <= 3, and the sharp corpus's conic tangents the 17 with
# |p| <= 5 and q <= 2.  So the corpora stop there.
MAX_LINES = 19
MAX_SHARP_LINES = 17


@dataclass(frozen=True)
class Instance:
    arrangement: Arrangement
    system: LocalSystem
    label: str


def _random_fraction(rng, lo=-4, hi=4, den=3):
    return Fraction(rng.randint(lo, hi), rng.randint(1, den))


def random_arrangement(rng: random.Random, n: int) -> Arrangement:
    """A rational arrangement of n distinct lines with frequent concurrences."""
    while True:
        hubs = [
            (_random_fraction(rng, -3, 3, 2), _random_fraction(rng, -3, 3, 2))
            for _ in range(rng.randint(1, 3))
        ]
        lines = []
        tries = 0
        while len(lines) < n and tries < 300:
            tries += 1
            roll = rng.random()
            line = None
            if roll < 0.55:
                hx, hy = rng.choice(hubs)
                if rng.random() < 0.4 and len(hubs) > 1:
                    gx, gy = rng.choice(hubs)
                    if (gx, gy) != (hx, hy):
                        line = Line.from_coeffs(gy - hy, hx - gx, gx * hy - hx * gy)
                else:
                    s = _random_fraction(rng)
                    line = Line.from_slope_intercept(s, hy - s * hx)
            elif roll < 0.7:
                line = Line.from_coeffs(1, 0, -rng.randint(-3, 3))  # vertical
            else:
                line = Line.from_slope_intercept(_random_fraction(rng), _random_fraction(rng, -6, 6, 2))
            if line is not None and line not in lines:
                lines.append(line)
        if len(lines) == n:
            try:
                return Arrangement(lines)
            except DuplicateLine:  # pragma: no cover - lines are deduped above
                continue


def random_system(rng: random.Random, n: int, d: int) -> LocalSystem:
    """An admissible exact system: nonzero exponents mod d summing to zero."""
    if d < 2:
        raise ValueError("order must be at least 2")
    if d == 2 and n % 2:
        raise ValueError("order 2 needs an even number of lines")
    for _ in range(10_000):
        ks = [rng.randint(1, d - 1) for _ in range(n - 1)]
        last = (-sum(ks)) % d
        if last != 0:
            return LocalSystem(order=d, exponents=ks + [last])
    raise ValueError(f"no admissible system found for n={n}, d={d}")


def _nonzero_sum_zero(rng: random.Random, m: int, d: int):
    """m nonzero residues mod d summing to zero, or None when impossible."""
    if m == 0:
        return []
    if m == 1 or (d == 2 and m % 2):
        return None
    for _ in range(200):
        ks = [rng.randint(1, d - 1) for _ in range(m - 1)]
        last = (-sum(ks)) % d
        if last != 0:
            return ks + [last]
    return None


def resonant_system(rng: random.Random, arr: Arrangement, d: int) -> LocalSystem:
    """An admissible system tuned to make some multiple point resonant.

    Falls back to a plain random system when no multiple point can carry a
    vanishing exponent sum (e.g. a triple point whose complement is a single
    line, where resonance would force trivial monodromy there).
    """
    cands = [p for p in arr.points if p.multiplicity >= 3]
    rng.shuffle(cands)
    for p in cands:
        k = p.multiplicity
        inside = _nonzero_sum_zero(rng, k, d)
        outside = _nonzero_sum_zero(rng, arr.n - k, d)
        if inside is None or outside is None:
            continue
        exps = [0] * arr.n
        rest = iter(outside)
        for i in range(arr.n):
            exps[i] = inside[p.line_ids.index(i)] if i in p.line_ids else next(rest)
        return LocalSystem(order=d, exponents=exps)
    if d == 2 and arr.n % 2:
        d = 4
    return random_system(rng, arr.n, d)


def _compatible_order(rng: random.Random, n: int, d_range) -> int:
    choices = [d for d in d_range if d != 2 or n % 2 == 0]
    return rng.choice(choices)


def constant_system(arr: Arrangement, d: int) -> LocalSystem:
    """The constant monodromy zeta_d; admissible exactly when d divides n."""
    if arr.n % d != 0:
        raise ValueError("a constant system needs the order to divide the line count")
    return LocalSystem(order=d, exponents=[1] * arr.n)


def _pencil(rng: random.Random, n: int) -> Arrangement:
    hub = (_random_fraction(rng, -2, 2, 2), _random_fraction(rng, -2, 2, 2))
    slopes = set()
    while len(slopes) < n:
        slopes.add(_random_fraction(rng))
    return Arrangement(
        Line.from_slope_intercept(s, hub[1] - s * hub[0]) for s in sorted(slopes)
    )


def _near_pencil(rng: random.Random, n: int) -> Arrangement:
    lines = list(_pencil(rng, n - 1).lines)
    hub_line = lines[0]
    while True:
        s = _random_fraction(rng)
        b = _random_fraction(rng, -5, 5, 2)
        extra = Line.from_slope_intercept(s, b)
        if extra not in lines and s != hub_line.slope:
            probe = Arrangement(lines + [extra])
            if max(p.multiplicity for p in probe.points) == n - 1:
                return probe


def _conic_tangents(rng: random.Random, n: int) -> Arrangement:
    # tangent lines y = 2tx - t^2 of the parabola y = x^2 are in convex
    # position; adjacent tangents always bound an empty region
    ts = set()
    while len(ts) < n:
        ts.add(_random_fraction(rng, -5, 5, 2))
    return Arrangement(Line.from_slope_intercept(2 * t, -t * t) for t in sorted(ts))


_QUADRILATERAL = (
    Line.from_coeffs(0, 1, 0),
    Line.from_coeffs(1, 0, 0),
    Line.from_coeffs(1, -1, 0),
    Line.from_coeffs(1, 1, -1),
    Line.from_coeffs(1, 0, -1),
    Line.from_coeffs(0, 1, -1),
)


def _random_quadrilateral(rng: random.Random) -> Arrangement:
    # sharpness is a property of the real projective plane, so any projective
    # image of the complete quadrilateral keeps its twelve sharp pairs
    from .geometry import mat_det, transform

    while True:
        M = tuple(
            tuple(Fraction(rng.randint(-3, 3)) for _ in range(3)) for _ in range(3)
        )
        if mat_det(M) != 0:
            return transform(Arrangement(_QUADRILATERAL), M)


def random_sharp_arrangement(rng: random.Random, n: int) -> Arrangement:
    """A non-pencil arrangement guaranteed to contain a sharp pair."""
    for _ in range(200):
        roll = rng.random()
        if roll < 0.3:
            arr = _near_pencil(rng, n)
        elif roll < 0.45:
            arr = _conic_tangents(rng, n)
        elif roll < 0.6 and n == 6:
            arr = _random_quadrilateral(rng)
        else:
            arr = random_arrangement(rng, n)
        if len(arr.points) > 1 and sharp_pairs(arr):
            return arr
    raise ValueError("no sharp-pair arrangement found")  # pragma: no cover


def corpus(seed: int, count: int, n_range=(3, 8), d_range=(2, 6)):
    """A reproducible list of general instances, biased toward resonance.

    More than ``MAX_LINES`` lines raise ``ValueError`` before any draw.
    """
    if n_range[1] > MAX_LINES:
        raise ValueError(f"the corpus draws at most {MAX_LINES} lines, not {n_range[1]}")
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        n = rng.randint(*n_range)
        shape = rng.random()
        if shape < 0.08 and n >= 3:
            arr, label = _pencil(rng, n), "pencil"
        elif shape < 0.16 and n == 6:
            arr, label = _random_quadrilateral(rng), "quadrilateral"
        else:
            arr, label = random_arrangement(rng, n), ""
        roll = rng.random()
        if roll < 0.25:
            ds = [d for d in range(max(2, d_range[0]), d_range[1] + 1) if n % d == 0]
            if ds:
                out.append(Instance(arr, constant_system(arr, rng.choice(ds)), label + "constant"))
                continue
        d = _compatible_order(rng, n, range(d_range[0], d_range[1] + 1))
        if roll < 0.75:
            out.append(Instance(arr, resonant_system(rng, arr, d), label + "resonant"))
        else:
            out.append(Instance(arr, random_system(rng, n, d), label + "random"))
    return out


def sharp_corpus(seed: int, count: int, n_range=(3, 8), even_constant: bool = False):
    """Instances whose arrangements contain a sharp pair.

    With ``even_constant`` the systems are constant of even order dividing
    the line count, the situation in which the twisted homology vanishes.
    More than ``MAX_SHARP_LINES`` lines raise ``ValueError`` before any draw.
    """
    if n_range[1] > MAX_SHARP_LINES:
        raise ValueError(f"the sharp corpus draws at most {MAX_SHARP_LINES} lines, not {n_range[1]}")
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        n = rng.randint(*n_range)
        if even_constant:
            ds = [d for d in range(2, 7) if d % 2 == 0 and n % d == 0]
            if not ds:
                continue
            arr = random_sharp_arrangement(rng, n)
            out.append(Instance(arr, constant_system(arr, rng.choice(ds)), "sharp-even-constant"))
        else:
            arr = random_sharp_arrangement(rng, n)
            d = _compatible_order(rng, n, range(2, 7))
            if rng.random() < 0.6:
                out.append(Instance(arr, resonant_system(rng, arr, d), "sharp-resonant"))
            else:
                out.append(Instance(arr, random_system(rng, n, d), "sharp"))
    return out


@dataclass
class TrialResult:
    h1: int
    oracle: int | None
    violations: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


def run_trial(
    arr: Arrangement,
    system: LocalSystem,
    seed: int = 0,
    with_oracle: bool = True,
    all_decones: bool = False,
    extra_seeds: int = 0,
    with_certificate: bool = True,
) -> TrialResult:
    """Run the full consistency battery on one instance."""
    violations = []
    rep = h1(arr, system, seed)
    if not rep.zaslavsky_ok:
        violations.append("bounded-chamber count disagrees with the Zaslavsky count")
    if not rep.float_agrees:
        violations.append("exact and floating-point ranks disagree")
    if rep.h1 < 0 or rep.h2 < 0:
        violations.append(f"negative Betti number: h1={rep.h1}, h2={rep.h2}")
    if system.is_exact:
        float_rep = h1(arr, system.to_float(), seed)
        if float_rep.h1 != rep.h1:
            violations.append(
                f"floating-point pipeline gives h1={float_rep.h1}, exact gives {rep.h1}"
            )

    narr = rep.arrangement
    res = rep.resonant
    for pid in res.point_ids:
        if narr.points[pid].multiplicity != len(
            [a for a in rep.basis.angles if a.point_id == pid]
        ):
            violations.append(f"angle count at point {pid} differs from its multiplicity")

    oracle = None
    if with_oracle:
        choices = range(arr.n) if all_decones else (0,)
        for lid in choices:
            oracle = oracle_h1(arr, system, lid)
            if oracle != rep.h1:
                violations.append(
                    f"oracle disagrees on decone line {lid}: {oracle} vs h1={rep.h1}"
                )

    pencil = len(arr.points) <= 1
    for lid in range(arr.n):
        if rep.h1 > cdo_bound(narr, res, lid):
            violations.append(f"CDO bound violated along line {lid}")
        if not pencil and rep.h1 > r0_bound(narr, res, lid):
            violations.append(f"resonant-count bound violated along line {lid}")

    if res.point_ids:
        sums = sector_sums(rep, system)
        for pid in res.point_ids:
            rows = [r.coeffs for r in point_rows(narr, system, rep.basis, pid)]
            if system.is_exact:
                rows = [column_entries(r, system.order) for r in rows]
            got = [{k: v for k, v in side.items() if v} for side in sums[pid]]
            if got != rows:
                violations.append(f"sector sums at point {pid} miss the point rows")

    if with_certificate and not pencil:
        for lid in range(arr.n):
            try:
                cert = beta_certificate(rep, system, lid)
            except NormalizationFailed as exc:
                violations.append(f"no adapted frame along line {lid}: {exc}")
                continue
            if not cert.ok:
                violations.append(f"neighbor certificate failed along line {lid}")

    for extra in range(1, extra_seeds + 1):
        other = h1(arr, system, seed + 7919 * extra)
        if other.h1 != rep.h1:
            violations.append(f"h1 changed under normalization seed {seed + 7919 * extra}")

    sp = sharp_pair_report(arr, system, rep.h1)
    if sp.bound_satisfied is False:
        violations.append("sharp pair present but h1 > 1")
    if sp.vanishing_satisfied is False:
        violations.append("even constant order with a sharp pair but h1 != 0")

    return TrialResult(h1=rep.h1, oracle=oracle, violations=violations)
