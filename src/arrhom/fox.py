"""Independent twisted Betti number via Fox calculus.

The projective complement of n lines equals the affine complement of the
other n-1 lines in the chart where the chosen line is the line at infinity.
A left-to-right sweep of the affine real figure produces a wiring diagram
and a finite presentation of the fundamental group with one generator per
affine line and mult(p)-1 relators per intersection point: the product of
the local meridian words at each crossing commutes with each of them.

Evaluating the Fox derivatives of the relators under the monodromy
representation gives the twisted chain complex of the presentation complex;
its first homology dimension is (g - 1) - rank(d2) whenever some monodromy
value differs from 1.  The computation never touches the angle/chamber
machinery, so it serves as an independent cross-check.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .cyclo import CycloNumber, rank
from .errors import InvariantError
from .geometry import Arrangement, _shear_x, mat_mul, transform
from .local_system import LocalSystem

__all__ = [
    "DeconedArrangement",
    "GroupPresentation",
    "WiringDiagram",
    "decone",
    "fox_complex",
    "oracle_h1",
    "presentation",
    "wiring_diagram",
]


@dataclass(frozen=True)
class DeconedArrangement:
    """An affine chart of the projective complement.

    ``lines`` are the remaining lines in a sweep-generic frame (no vertical
    line, pairwise distinct intersection abscissas); parallel lines are
    allowed, their crossing having moved to infinity.  ``monodromy`` are the
    unchanged per-line values; ``infinity_monodromy`` records their product,
    the total turning around the removed line, which must equal the inverse
    of that line's own value.
    """

    lines: tuple
    line_ids: tuple  # original indices, in original order
    monodromy: tuple
    monodromy_inverse: tuple
    removed: int
    infinity_monodromy: object = None


def _affine_crossings(lines):
    """Map (x, y) -> set of incident line positions; parallels never cross."""
    pts = {}
    for i in range(len(lines)):
        for j in range(i + 1, len(lines)):
            li, lj = lines[i], lines[j]
            if li.slope == lj.slope:
                continue
            x = (lj.intercept - li.intercept) / (li.slope - lj.slope)
            y = li.slope * x + li.intercept
            pts.setdefault((x, y), set()).update((i, j))
    return pts


def _sweep_generic(lines) -> bool:
    # distinct crossings must never align vertically; coincident crossings
    # share one abscissa by definition
    if any(l.is_vertical for l in lines):
        return False
    xs = [x for (x, _y) in _affine_crossings(lines)]
    return len(xs) == len(set(xs))


def _random_shears(seed: int):
    """The shears tried first: 0, then 63 random small rationals."""
    rng = random.Random(seed)
    yield Fraction(0)
    for attempt in range(1, 64):
        yield Fraction(rng.randint(1, 6 * attempt), rng.randint(1, 5)) * rng.choice((1, -1))


def _safe_shear(lines) -> int:
    """An integer shear x -> x + t*y that makes the lines sweep-generic.

    The shear moves a crossing (x, y) to abscissa x + t*y.  Two crossings
    at different heights y1 != y2 collide only for t = (x2 - x1)/(y1 - y2),
    which is at most the x-range of the crossings over their smallest
    nonzero y-gap in size; crossings at one height never collide.  The line
    a*x + b*y + c = 0 becomes vertical only for t = b/a.  So the first
    integer above that size which is no b/a is safe.
    """
    pts = set()
    for i, l1 in enumerate(lines):
        for l2 in lines[i + 1 :]:
            z = l1.a * l2.b - l2.a * l1.b
            if z:  # lines of the chart that are parallel cross at infinity
                pts.add((Fraction(l1.b * l2.c - l2.b * l1.c, z), Fraction(l1.c * l2.a - l2.c * l1.a, z)))
    ys = sorted({y for _x, y in pts})
    t = 1
    if len(ys) > 1:
        xs = [x for x, _y in pts]
        gap = min(b - a for a, b in zip(ys, ys[1:]))
        t = (max(xs) - min(xs)) // gap + 1
    while any(l.a * t == l.b for l in lines):
        t += 1
    return t


def _chart(arr, system, M, rest_ids, line_id, t):
    """The chart M sheared by t, or None when it is not sweep-generic."""
    moved = transform(arr, mat_mul(_shear_x(t), M))
    lines = tuple(moved.lines[i] for i in rest_ids)
    if not _sweep_generic(lines):
        return None
    mon = tuple(system.m(i) for i in rest_ids)
    turning = mon[0]
    for v in mon[1:]:
        turning = turning * v
    if system.is_exact and turning != system.m_inverse(line_id):
        raise InvariantError("monodromy around infinity is not m(removed line)^-1")
    return DeconedArrangement(
        lines=lines,
        line_ids=rest_ids,
        monodromy=mon,
        monodromy_inverse=tuple(system.m_inverse(i) for i in rest_ids),
        removed=line_id,
        infinity_monodromy=turning,
    )


def decone(arr: Arrangement, system: LocalSystem, line_id: int, seed: int = 0):
    """Remove one line and pass to the chart where it is the line at infinity.

    The chart is sheared by the first of :func:`_random_shears` that makes
    it sweep-generic; when none does, by :func:`_safe_shear`.
    """
    w = arr.lines[line_id]
    rows = None
    for keep in ((0, 1), (0, 2), (1, 2)):
        cand = [None, None, None]
        basis = [
            (Fraction(1), Fraction(0), Fraction(0)),
            (Fraction(0), Fraction(1), Fraction(0)),
            (Fraction(0), Fraction(0), Fraction(1)),
        ]
        cand[0], cand[1] = basis[keep[0]], basis[keep[1]]
        cand[2] = (Fraction(w.a), Fraction(w.b), Fraction(w.c))
        det = (
            cand[0][0] * (cand[1][1] * cand[2][2] - cand[1][2] * cand[2][1])
            - cand[0][1] * (cand[1][0] * cand[2][2] - cand[1][2] * cand[2][0])
            + cand[0][2] * (cand[1][0] * cand[2][1] - cand[1][1] * cand[2][0])
        )
        if det != 0:
            rows = tuple(cand)
            break
    M = rows
    rest_ids = tuple(i for i in range(arr.n) if i != line_id)
    for t in _random_shears(seed):
        dec = _chart(arr, system, M, rest_ids, line_id, t)
        if dec is not None:
            return dec
    unsheared = transform(arr, M)
    t = _safe_shear(tuple(unsheared.lines[i] for i in rest_ids))
    dec = _chart(arr, system, M, rest_ids, line_id, t)
    if dec is None:
        raise InvariantError(f"the shear {t} past every collision is not sweep-generic (seed={seed})")
    return dec


@dataclass(frozen=True)
class WiringDiagram:
    """Crossing events of the affine figure, swept by increasing abscissa.

    ``initial_order`` lists wire indices from bottom to top far to the left
    (equivalently by decreasing slope, refined by the heights there); each
    event records the abscissa and the contiguous block of wire positions
    that reverses.
    """

    initial_order: tuple
    events: tuple  # (x, lowest position, tuple of wire indices bottom..top)


def wiring_diagram(dec: DeconedArrangement) -> WiringDiagram:
    lines = dec.lines
    m = len(lines)
    events = sorted(_affine_crossings(lines).items(), key=lambda kv: kv[0][0])
    if events:
        x_left = events[0][0][0] - 1
    else:
        x_left = Fraction(0)
    order = sorted(range(m), key=lambda i: lines[i].slope * x_left + lines[i].intercept)
    evs = []
    cur = list(order)
    for (x, _y), wires in events:
        block = sorted(cur.index(w) for w in wires)
        lo, hi = block[0], block[-1]
        if block != list(range(lo, hi + 1)):
            raise InvariantError(f"crossing wires at x={x} are not adjacent")
        evs.append((x, lo, tuple(cur[lo : hi + 1])))
        cur[lo : hi + 1] = cur[lo : hi + 1][::-1]
    return WiringDiagram(tuple(order), tuple(evs))


@dataclass(frozen=True)
class GroupPresentation:
    """Generators (one per affine line) and sweep relators.

    Words are tuples of nonzero integers: +-(i+1) stands for the i-th
    generator or its inverse.  Every relator is a commutator of the local
    product with a local meridian, so the abelianization is free of rank
    ``len(generators)``.
    """

    generators: tuple
    relators: tuple


def _w_inv(w):
    return tuple(-c for c in reversed(w))


def _w_mul(*words):
    out = []
    for w in words:
        for c in w:
            if out and out[-1] == -c:
                out.pop()
            else:
                out.append(c)
    return tuple(out)


def presentation(dec: DeconedArrangement) -> GroupPresentation:
    wd = wiring_diagram(dec)
    m = len(dec.lines)
    words = [None] * m
    for wire in range(m):
        words[wire] = (wire + 1,)
    relators = []
    for _x, _lo, wires in wd.events:
        r = len(wires)
        local = [words[w] for w in wires]  # bottom to top
        prod = _w_mul(*local)
        for j in range(r - 1):
            relators.append(_w_mul(prod, local[j], _w_inv(prod), _w_inv(local[j])))
        # wires reverse; a wire passing above its lower neighbours is
        # conjugated by their product
        for j, wire in enumerate(wires):
            suffix = local[j + 1 :]
            if suffix:
                conj = _w_mul(*suffix)
                words[wire] = _w_mul(_w_inv(conj), words[wire], conj)
    return GroupPresentation(tuple(range(m)), tuple(relators))


def _fox_row_float(word, m, mon, mon_inv):
    """Monodromy-evaluated Fox derivatives of one word, float values."""
    row = [0j] * m
    pref = complex(1.0)
    for c in word:
        i = abs(c) - 1
        if c > 0:
            row[i] = row[i] + pref
            pref = pref * mon[i]
        else:
            pref = pref * mon_inv[i]
            row[i] = row[i] - pref
    return row


def _fox_row(word, m, exps, d):
    """Fox derivatives of one word under x_i -> zeta_d^exps[i], as exponent maps.

    Every prefix of the word evaluates to a monomial zeta^e, so each letter
    adds +1 or -1 at one exponent of one entry.
    """
    row = [{} for _ in range(m)]  # one exponent map per generator
    e = 0
    for c in word:
        i = abs(c) - 1
        if c < 0:
            e = (e - exps[i]) % d
        entry = row[i]
        v = entry.get(e, 0) + (1 if c > 0 else -1)
        if v:
            entry[e] = v
        else:
            del entry[e]
        if c > 0:
            e = (e + exps[i]) % d
    return [CycloNumber.from_terms(d, entry) for entry in row]


def fox_complex(pres: GroupPresentation, dec: DeconedArrangement):
    """The twisted two-term complex (d2, d1) of the presentation complex."""
    m = len(pres.generators)
    mon, mon_inv = dec.monodromy, dec.monodromy_inverse
    if isinstance(mon[0], CycloNumber):
        one = CycloNumber.one(mon[0].order)
        exps = [next(iter(x.terms)) for x in mon]  # each value is zeta^k, the map {k: 1}
        d2 = [_fox_row(w, m, exps, one.order) for w in pres.relators]
    else:
        one = complex(1.0)
        d2 = [_fox_row_float(w, m, mon, mon_inv) for w in pres.relators]
    d1 = [mon[i] - one for i in range(m)]
    return d2, d1


def oracle_h1(arr: Arrangement, system: LocalSystem, line_id: int | None = None, seed: int = 0) -> int:
    """Twisted first Betti number through the fundamental group route."""
    system.require_admissible(arr)
    if arr.n < 2:
        raise ValueError("need an arrangement of at least 2 lines")
    if line_id is None:
        line_id = 0
    dec = decone(arr, system, line_id, seed)
    pres = presentation(dec)
    g = len(pres.generators)
    if not pres.relators:
        return g - 1
    d2, _d1 = fox_complex(pres, dec)
    # the fundamental formula of Fox calculus gives d2 d1 = 0, and d1 != 0
    # since every monodromy is nontrivial, so rank(d2) <= g - 1
    return (g - 1) - rank(d2, upper=g - 1)
