"""Independent twisted Betti number via Fox calculus.

The projective complement of n lines equals the affine complement of the
other n-1 lines in the chart where the chosen line is the line at infinity.
A left-to-right sweep of the affine real figure produces a wiring diagram
and a finite presentation of the fundamental group (Randell 1982) with one
generator per affine line and mult(p)-1 relators per intersection point: the
product of the local meridian words at each crossing commutes with each of
them.

The chart is a projective image of the input (:func:`arrhom.geometry.transform`),
so its crossings are the input's intersection points off the removed line,
mapped and verified by integer evaluation; nothing is intersected again.
The sweep needs only that no line is vertical: crossings that share an
abscissa involve disjoint wires and are taken bottom to top, which is the
order a small shear would give them (see :func:`wiring_diagram`).

Evaluating the Fox derivatives of the relators under the monodromy
representation gives the twisted chain complex of the presentation complex;
its first homology dimension is (g - 1) - rank(d2) whenever some monodromy
value differs from 1.  The computation never touches the angle/chamber
machinery, so it serves as an independent cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .cyclo import CycloNumber, rank
from .errors import InvariantError
from .geometry import Arrangement, _shear_x, mat_identity, transform
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

    ``lines`` are the remaining lines, none of them vertical; parallel lines
    are allowed, their crossing having moved to infinity.  ``crossings`` are
    the chart's affine intersection points in (x, y) order, each as
    ``((x, y), wires)`` with ``wires`` the positions of its lines in
    ``lines``.  ``monodromy`` are the unchanged per-line values.
    """

    lines: tuple
    line_ids: tuple  # original indices, in original order
    crossings: tuple
    monodromy: tuple
    monodromy_inverse: tuple


def decone(arr: Arrangement, system: LocalSystem, line_id: int):
    """Remove one line and pass to the chart where it is the line at infinity.

    The point map M has the removed line as its last row, so a point's new
    Z is its value on that line: the points off it are the chart's affine
    crossings.  When a remaining line a*x + b*y + c = 0 is vertical (b = 0),
    the chart is sheared by x -> x + t*y, which turns b into b - t*a, with
    the least integer t >= 0 for which a*t != b on every remaining line.
    No other genericity is needed; see :func:`wiring_diagram`.
    """
    w = arr.lines[line_id]
    coeffs = (Fraction(w.a), Fraction(w.b), Fraction(w.c))
    k = next(k for k in (2, 1, 0) if coeffs[k])  # rows e_i, e_j (i, j != k) and w are independent
    M = tuple(row for i, row in enumerate(mat_identity()) if i != k) + (coeffs,)
    chart = transform(arr, M)
    rest_ids = tuple(i for i in range(arr.n) if i != line_id)
    t = 0
    while any(chart.lines[i].a * t == chart.lines[i].b for i in rest_ids):
        t += 1
    if t:
        chart = transform(chart, _shear_x(t))
    lines = tuple(chart.lines[i] for i in rest_ids)
    wire = {lid: pos for pos, lid in enumerate(rest_ids)}
    crossings = tuple(
        ((p.x, p.y), tuple(wire[i] for i in p.line_ids)) for p in chart.points if not p.is_infinite
    )
    mon = tuple(system.m(i) for i in rest_ids)
    turning = mon[0]
    for v in mon[1:]:
        turning = turning * v
    if system.is_exact and turning != system.m_inverse(line_id):
        raise InvariantError("monodromy around infinity is not m(removed line)^-1")
    return DeconedArrangement(
        lines=lines,
        line_ids=rest_ids,
        crossings=crossings,
        monodromy=mon,
        monodromy_inverse=tuple(system.m_inverse(i) for i in rest_ids),
    )


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
    """Sweep the chart's crossings in (x, y) order.

    A line that is not vertical has one height at each abscissa, so two
    crossings at one abscissa share no wire, and just left of that abscissa
    the wires of each form their own contiguous block.  Their block
    reversals, and the relators read from them, therefore commute, and
    taking them bottom to top gives exactly the diagram of the chart sheared
    by a small t > 0: x -> x + t*y separates them in that order and moves no
    crossing past another abscissa.  So the sweep needs no shear search and
    no check that abscissas are distinct, only the absence of vertical lines.
    """
    lines = dec.lines
    x_left = dec.crossings[0][0][0] - 1 if dec.crossings else Fraction(0)
    order = sorted(range(len(lines)), key=lambda i: lines[i].slope * x_left + lines[i].intercept)
    evs = []
    cur = list(order)
    for (x, _y), wires in dec.crossings:
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


def _fox_row_float(word, mon, mon_inv):
    """Monodromy-evaluated Fox derivatives of one word, float values, by generator."""
    row = {}
    pref = complex(1.0)
    for c in word:
        i = abs(c) - 1
        if c > 0:
            row[i] = row.get(i, 0j) + pref
            pref = pref * mon[i]
        else:
            pref = pref * mon_inv[i]
            row[i] = row.get(i, 0j) - pref
    return row


def _fox_row(word, exps, d):
    """Fox derivatives of one word under x_i -> zeta_d^exps[i], by generator.

    Every prefix of the word evaluates to a monomial zeta^e, so each letter
    adds +1 or -1 at one exponent of one entry.
    """
    row = {}  # generator -> exponent map
    e = 0
    for c in word:
        i = abs(c) - 1
        if c < 0:
            e = (e - exps[i]) % d
        entry = row.setdefault(i, {})
        v = entry.get(e, 0) + (1 if c > 0 else -1)
        if v:
            entry[e] = v
        else:
            del entry[e]
        if c > 0:
            e = (e + exps[i]) % d
    return {i: CycloNumber.from_terms(d, entry) for i, entry in row.items()}


def fox_complex(pres: GroupPresentation, dec: DeconedArrangement):
    """The twisted two-term complex (d2, d1) of the presentation complex;
    a row of d2 maps the generators in its relator to their derivatives."""
    m = len(pres.generators)
    mon, mon_inv = dec.monodromy, dec.monodromy_inverse
    if isinstance(mon[0], CycloNumber):
        one = CycloNumber.one(mon[0].order)
        exps = [next(iter(x.terms)) for x in mon]  # each value is zeta^k, the map {k: 1}
        d2 = [_fox_row(w, exps, one.order) for w in pres.relators]
    else:
        one = complex(1.0)
        d2 = [_fox_row_float(w, mon, mon_inv) for w in pres.relators]
    d1 = [mon[i] - one for i in range(m)]
    return d2, d1


def oracle_h1(arr: Arrangement, system: LocalSystem, line_id: int = 0, seed: int = 0) -> int:
    """Twisted first Betti number through the fundamental group route.

    ``seed`` is accepted for existing callers and ignored: the chart of
    :func:`decone` does not depend on it.
    """
    system.require_admissible(arr)
    if arr.n < 2:
        raise ValueError("need an arrangement of at least 2 lines")
    dec = decone(arr, system, line_id)
    pres = presentation(dec)
    g = len(pres.generators)
    if not pres.relators:
        return g - 1
    d2, _d1 = fox_complex(pres, dec)
    # the fundamental formula of Fox calculus gives d2 d1 = 0, and d1 != 0
    # since every monodromy is nontrivial, so rank(d2) <= g - 1
    return (g - 1) - rank(d2, upper=g - 1)
