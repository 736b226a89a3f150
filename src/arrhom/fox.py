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
value differs from 1.  The rows of d2 come from one Fox vector per wire,
with no relator spelled out as a word (:func:`presentation`).  For an exact
local system a row maps each generator to an integer exponent map, handed
as built to the certified modular rank
(:func:`arrhom.cyclo.rank_exponent_maps`).  The computation never touches
the angle/chamber machinery, so it serves as an independent cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, lcm

from .cyclo import rank_exponent_maps, rank_float
from .errors import InvariantError
from .geometry import Arrangement, Line, _check_incidences, _primitive
from .local_system import LocalSystem

__all__ = [
    "DeconedArrangement",
    "GroupPresentation",
    "WiringDiagram",
    "decone",
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
    evaluation: every mapped point lies on exactly its own lines, not on
    the removed line Z = 0, and no two coincide.  No line is vertical, and
    for an exact local system the exponents of the remaining lines sum to
    minus the removed line's mod d, the monodromy m(w)^-1 around infinity.
    A failure raises InvariantError.
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
        crossings.append(((X, Y, Z), tuple(sorted(m - (m > line_id) for m in ids))))
    # the removed line is Z = 0, the last form: no crossing may lie on it
    _check_incidences(forms + [(0, 0, 1)], crossings)
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
    """The sweep presentation under the monodromy: one generator per affine
    line, and per relator its row of d2.

    A row maps a generator to the relator's Fox derivative there, evaluated
    at the monodromy: an exponent map ``{k: c}`` with nonzero int
    coefficients for an exact chart, a complex number for a float one.  An
    absent generator is zero.
    """

    generators: tuple
    relators: tuple


def _add_exact(out, a, b, vec, d):
    """out += (zeta^a - zeta^b) vec, or zeta^a vec when b is None, for
    exponents in 0..d-1, on flat keys g*d + k for the term zeta^k at
    generator g."""
    get = out.get
    la = d - a
    if b is None:
        for key, c in vec.items():
            key += a if key % d < la else a - d
            out[key] = get(key, 0) + c
        return
    lb = d - b
    for key, c in vec.items():
        k = key % d
        ka = key + a if k < la else key + a - d
        out[ka] = get(ka, 0) + c
        kb = key + b if k < lb else key + b - d
        out[kb] = get(kb, 0) - c


def _add_float(out, a, b, vec, _d):
    """out += (a - b) vec, or a vec when b is None, keyed by generator."""
    f = a if b is None else a - b
    get = out.get
    for g, c in vec.items():
        out[g] = get(g, 0j) + f * c


def _exponent_maps(flat, d):
    """A flat exact vector as ``{g: {k: c}}``, zero coefficients dropped."""
    row = {}
    for key, c in flat.items():
        if c:
            g, k = divmod(key, d)
            row.setdefault(g, {})[k] = c
    return row


def presentation(dec: DeconedArrangement) -> GroupPresentation:
    """The sweep's relators as rows of d2, from one Fox vector per wire.

    At a crossing the word w of each wire but the top one becomes S^-1 w S,
    S the product of the words above it, and gives the relator
    P w P^-1 w^-1, P the product of all of them.  No word is built: phi,
    sending generator j to line j's monodromy, is a ring map into the group
    ring Z[C_d] (C for a float chart) that keeps each wire's value, so the
    sweep carries per wire only F_w = (phi(dw/dx_j))_j.  By d(uv) = du + u dv
    (the Gassner-style identity of Cohen and Suciu, Comment. Math. Helv. 72,
    1997):

    - suffix products, top down: F_uv = F_u + phi(u) F_v;
    - new words: F_{S^-1 w S} = phi(S)^-1 (F_w + (phi(w) - 1) F_S);
    - rows: (1 - phi(w)) F_P + (phi(P) - 1) F_w.

    Each coefficient is a unit or a difference of two; the modes differ in
    the primitive that adds one times a vector, and in how units multiply.
    Z[C_d] is free on the powers of zeta, so an exact entry with its zero
    coefficients dropped is the exponent map that the relator's word, read
    letter by letter, gives: equal as a map, not only modulo Phi_d.  While
    built, an exact vector keys c zeta^k at generator g as g*d + k.  Rows
    come in sweep order: event by event, bottom to top.
    """
    m, d = len(dec.lines), dec.order
    if d is None:
        one, add, mul, inv = complex(1.0), _add_float, complex.__mul__, lambda u: 1.0 / u
        vecs = [{w: one} for w in range(m)]
    else:
        one, add, mul, inv = 0, _add_exact, lambda u, v: (u + v) % d, lambda u: -u % d
        vecs = [{w * d: 1} for w in range(m)]
    units = dec.monodromy  # phi of each wire's word
    rows = []
    for _P, _lo, wires in wiring_diagram(dec).events:
        local = [vecs[w] for w in wires]  # bottom to top, before the crossing
        phi_s, f_s = one, {}  # the product of the words above position j
        for j in range(len(wires) - 1, -1, -1):
            u = units[wires[j]]
            if j < len(wires) - 1:
                s_inv, conj = inv(phi_s), {}
                add(conj, s_inv, None, local[j], d)
                add(conj, mul(u, s_inv), s_inv, f_s, d)
                vecs[wires[j]] = conj
            f = dict(local[j])
            add(f, u, None, f_s, d)
            phi_s, f_s = mul(u, phi_s), f
        # phi_s, f_s now belong to P
        for w, f_w in zip(wires[:-1], local):
            row = {}
            add(row, one, units[w], f_s, d)
            add(row, phi_s, one, f_w, d)
            rows.append(row if d is None else _exponent_maps(row, d))
    return GroupPresentation(tuple(range(m)), tuple(rows))


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
    # the fundamental formula of Fox calculus gives d2 d1 = 0, and d1 != 0
    # since every monodromy is nontrivial, so rank(d2) <= g - 1
    if dec.order is None:
        return (g - 1) - rank_float(pres.relators)
    return (g - 1) - rank_exponent_maps(pres.relators, dec.order, upper=g - 1)
