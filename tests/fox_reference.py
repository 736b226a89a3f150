"""The Fox oracle's word path, kept as the reference for ``fox.presentation``.

``relator_words`` spells each relator of the sweep presentation out as a
free-group word, with every product and inverse taken from scratch, and
``fox_row`` / ``fox_row_float`` evaluate the Fox derivatives of one word
letter by letter, as the oracle did before it carried Fox vectors per wire.
Words are tuples of nonzero integers: +-(i+1) stands for the i-th generator
or its inverse.
"""

from arrhom.fox import wiring_diagram


def w_inv(w):
    return tuple(-c for c in reversed(w))


def w_mul(*words):
    out = []
    for w in words:
        for c in w:
            if out and out[-1] == -c:
                out.pop()
            else:
                out.append(c)
    return tuple(out)


def relator_words(dec):
    """The sweep's relators P w P^-1 w^-1, in sweep order, as reduced words.

    At a crossing each wire but the top one is conjugated by the product of
    the words above it; P is the product of all the crossing's words.
    """
    words = [(wire + 1,) for wire in range(len(dec.lines))]
    relators = []
    for _x, _lo, wires in wiring_diagram(dec).events:
        local = [words[w] for w in wires]
        prod = w_mul(*local)
        for j in range(len(wires) - 1):
            relators.append(w_mul(prod, local[j], w_inv(prod), w_inv(local[j])))
        for j, wire in enumerate(wires):
            suffix = local[j + 1 :]
            if suffix:
                conj = w_mul(*suffix)
                words[wire] = w_mul(w_inv(conj), words[wire], conj)
    return tuple(relators)


def fox_row(word, exps, d):
    """Fox derivatives of one word under x_i -> zeta_d^exps[i], by generator,
    as exponent maps ``{k: c}``; a map may end up empty.

    Every prefix of the word evaluates to a monomial zeta^e, so each letter
    adds +1 or -1 at one exponent of one entry.
    """
    row = {}
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


def fox_row_float(word, mon):
    """Fox derivatives of one word under x_i -> mon[i], complex values, by generator."""
    mon_inv = [1.0 / v for v in mon]
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


def reference_rows(dec):
    """The rows of d2 that the word path gives, in sweep order; exact rows
    with their empty maps dropped."""
    words = relator_words(dec)
    if dec.order is None:
        return [fox_row_float(w, dec.monodromy) for w in words]
    rows = [fox_row(w, dec.monodromy, dec.order) for w in words]
    return [{g: t for g, t in row.items() if t} for row in rows]
