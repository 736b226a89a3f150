"""Independent twisted Betti number via Fox calculus.

The projective complement of n lines equals the affine complement of the
other n-1 lines in the chart where the chosen line is the line at infinity.
A left-to-right sweep of the affine real figure produces a wiring diagram
and a finite presentation of the fundamental group (Randell 1982) with one
generator per affine line and mult(p)-1 relators per intersection point: the
product of the local meridian words at each crossing commutes with each of
them.

The chart is one integer projective map of the input (:func:`decone`), so
its crossings are the input's intersection points off the removed line,
mapped and verified by integer evaluation; nothing is intersected again,
and no rational number is built.  The sweep needs only that no line is
vertical: crossings that share an abscissa involve disjoint wires and are
taken bottom to top, which is the order a small shear would give them (see
:func:`wiring_diagram`).

Evaluating the Fox derivatives of the relators under the monodromy
representation gives the twisted chain complex of the presentation complex;
its first homology dimension is (g - 1) - rank(d2) whenever some monodromy
value differs from 1.  For an exact local system every prefix of a relator
evaluates to a power of zeta_d, so a row of d2 is a map from generator to
integer exponent map, handed as built to the certified modular rank
(:func:`arrhom.cyclo.rank_exponent_maps`).  The computation never touches
the angle/chamber machinery, so it serves as an independent cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, lcm

from .cyclo import rank_exponent_maps, rank_float
from .errors import InvariantError
from .geometry import Arrangement, Line, _primitive
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
    ``((X, Y, Z), wires)``: a primitive triple with Z > 0, the point
    (X/Z, Y/Z), and the positions of its lines in ``lines``, ascending.
    ``monodromy`` holds the remaining lines' values: their exponents mod
    ``order`` for an exact local system, their complex values for a float
    one, whose ``order`` is None.
    """

    lines: tuple
    line_ids: tuple  # original indices, in original order
    crossings: tuple
    monodromy: tuple
    order: int | None


def _shear(forms) -> int:
    """The least integer t >= 0 with b - t*a != 0 for every (a, b, c).

    A line other than the line at infinity has a != 0 or b != 0, so at most
    one t is excluded per line.
    """
    t = 0
    while any(a * t == b for a, b, _c in forms):
        t += 1
    return t


def decone(arr: Arrangement, system: LocalSystem, line_id: int) -> DeconedArrangement:
    """Remove one line and pass to the chart where it is the line at infinity.

    The point map N has rows e_i + t e_j, e_j and the removed line w, where
    w_k != 0 and i < j are the other two indices, so det N = +-w_k.  A
    point's new Z is its value on w: the points off w are the chart's
    affine crossings.  The shear t is chosen before mapping, on the input's
    integers: at t = 0 a remaining line l goes to l adj(N) up to sign,

        (a, b, c) = (w_k l_i - l_k w_i, w_k l_j - l_k w_j, l_k),

    whose value at N P is w_k times l's value at P; the shear x -> x + t*y
    turns it into (a, b - t*a, c), and t is the least integer >= 0 that
    leaves no line vertical (b - t*a != 0).  So one map is applied.  No
    other genericity is needed; see :func:`wiring_diagram`.

    Only the points off w are mapped, with Z > 0, and they are ordered by
    the integers D (X/Z, Y/Z), D the lcm of their Z.  The chart is checked
    as :func:`arrhom.geometry.transform` checks a frame, by integer
    evaluation: every mapped point lies on exactly its own lines and no two
    coincide.  No line is vertical, and for an exact local system the
    exponents of the remaining lines sum to minus the removed line's mod d,
    the monodromy m(w)^-1 around infinity.  A failure raises InvariantError.
    A line id outside 0..n-1 raises IndexError.
    """
    n = arr.n
    if not 0 <= line_id < n:
        raise IndexError(f"line {line_id} is not a line of the arrangement")
    w = arr.lines[line_id]
    wabc = (w.a, w.b, w.c)
    k = next(k for k in (2, 1, 0) if wabc[k])
    i, j = (m for m in range(3) if m != k)
    wi, wj, wk = wabc[i], wabc[j], wabc[k]
    rest_ids = tuple(m for m in range(n) if m != line_id)
    forms = []
    for m in rest_ids:
        l = arr.lines[m]
        labc = (l.a, l.b, l.c)
        forms.append((wk * labc[i] - labc[k] * wi, wk * labc[j] - labc[k] * wj, labc[k]))
    t = _shear(forms)
    forms = [_primitive(a, b - t * a, c) for a, b, c in forms]
    if not all(b for _a, b, _c in forms):
        raise InvariantError("a line of the decone chart is vertical")

    crossings = []
    for p in arr.points:
        ids = p.line_ids
        if line_id in ids:
            continue
        P = p.coords
        X, Y, Z = P[i] + t * P[j], P[j], wi * P[i] + wj * P[j] + wk * P[k]
        g = gcd(X, Y, Z)
        if Z < 0:
            g = -g
        X, Y, Z = X // g, Y // g, Z // g
        wires = tuple(sorted(m - (m > line_id) for m in ids))
        on = tuple(pos for pos, (a, b, c) in enumerate(forms) if a * X + b * Y + c * Z == 0)
        if not Z or on != wires:
            raise InvariantError(f"mapped point {(X, Y, Z)} lies on lines {list(on)}, not {list(wires)}")
        crossings.append(((X, Y, Z), wires))
    if len({P for P, _wires in crossings}) != len(crossings):
        raise InvariantError("two mapped intersection points coincide")
    Dz = lcm(*(Z for (_X, _Y, Z), _wires in crossings))
    crossings.sort(key=lambda c: (c[0][0] * (Dz // c[0][2]), c[0][1] * (Dz // c[0][2])))

    if system.is_exact:
        d, exps = system.order, system.exponents
        mon = tuple(exps[m] for m in rest_ids)
        if (sum(mon) + exps[line_id]) % d:
            raise InvariantError("monodromy around infinity is not m(removed line)^-1")
    else:
        d = None
        mon = tuple(system.values[m] for m in rest_ids)
    return DeconedArrangement(
        lines=tuple(Line(*f) for f in forms),
        line_ids=rest_ids,
        crossings=tuple(crossings),
        monodromy=mon,
        order=d,
    )


@dataclass(frozen=True)
class WiringDiagram:
    """Crossing events of the affine figure, swept by increasing abscissa.

    ``initial_order`` lists wire indices from bottom to top far to the left
    (by decreasing slope, then increasing intercept); each event records the
    crossing point (X, Y, Z) and the contiguous block of wire positions that
    reverses.
    """

    initial_order: tuple
    events: tuple  # ((X, Y, Z), lowest position, tuple of wire indices bottom..top)


def wiring_diagram(dec: DeconedArrangement) -> WiringDiagram:
    """Sweep the chart's crossings in (x, y) order.

    The initial order is read from integer keys: with L the lcm of the |b|,
    a line's slope -a/b and intercept -c/b are -1/L times a (L // b) and
    c (L // b).  Two lines of different slopes cross at an affine crossing,
    which lies right of every abscissa left of the first crossing, so there
    the line of larger slope is lower; parallel lines are ordered by their
    intercepts.  That is the order of the heights at any such abscissa, so
    no rational height is needed.

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
    L = lcm(*(l.b for l in lines))
    keys = [(l.a * (L // l.b), -l.c * (L // l.b)) for l in lines]
    order = sorted(range(len(lines)), key=keys.__getitem__)
    evs = []
    cur = list(order)
    for P, wires in dec.crossings:
        block = sorted(cur.index(w) for w in wires)
        lo, hi = block[0], block[-1]
        if block != list(range(lo, hi + 1)):
            raise InvariantError(f"crossing wires at {P} are not adjacent")
        evs.append((P, lo, tuple(cur[lo : hi + 1])))
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
    """The sweep's relators, from the meridian word of each wire.

    At a crossing the wires reverse: each wire but the top one ends up above
    the wires that were over it, so its word is conjugated by the product
    of their words.  Those suffix products are built once, top down, each
    from the one above it; free reduction is unique, so they are the words
    that multiplying each suffix from scratch gives.
    """
    wd = wiring_diagram(dec)
    m = len(dec.lines)
    words = [(wire + 1,) for wire in range(m)]
    relators = []
    for _x, _lo, wires in wd.events:
        local = [words[w] for w in wires]  # bottom to top
        conj = ()
        for j in range(len(wires) - 2, -1, -1):
            conj = _w_mul(local[j + 1], conj)  # local[j+1] ... local[-1]
            words[wires[j]] = _w_mul(_w_inv(conj), local[j], conj)
        prod = _w_mul(local[0], conj)
        prod_inv = _w_inv(prod)
        for w in local[:-1]:
            relators.append(_w_mul(prod, w, prod_inv, _w_inv(w)))
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
    """Fox derivatives of one word under x_i -> zeta_d^exps[i], by generator,
    as exponent maps ``{k: c}`` with int coefficients.

    Every prefix of the word evaluates to a monomial zeta^e, so each letter
    adds +1 or -1 at one exponent of one entry.  A map may end up empty.
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
    return row


def fox_complex(pres: GroupPresentation, dec: DeconedArrangement):
    """The twisted two-term complex (d2, d1) of the presentation complex;
    a row of d2 maps the generators in its relator to their derivatives.

    For an exact chart the entries are exponent maps, zeta^k - 1 being
    ``{0: -1, k: 1}``; for a float chart they are complex numbers.
    """
    mon = dec.monodromy
    if dec.order is not None:
        d2 = [_fox_row(w, mon, dec.order) for w in pres.relators]
        d1 = [{0: -1, k: 1} if k else {} for k in mon]
    else:
        mon_inv = [1.0 / v for v in mon]
        d2 = [_fox_row_float(w, mon, mon_inv) for w in pres.relators]
        d1 = [v - complex(1.0) for v in mon]
    return d2, d1


def oracle_h1(arr: Arrangement, system: LocalSystem, line_id: int = 0, seed: int = 0) -> int:
    """Twisted first Betti number through the fundamental group route.

    ``seed`` is accepted for existing callers and ignored: the chart of
    :func:`decone` does not depend on it.  A line id outside 0..n-1 raises
    IndexError before any chart is built.
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
    if dec.order is None:
        return (g - 1) - rank_float(d2)
    return (g - 1) - rank_exponent_maps(d2, dec.order, upper=g - 1)
