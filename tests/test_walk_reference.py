"""The half-edge walk gives the chambers of the tuple-keyed walk it replaced.

``reference_walk`` is the walk that ``geometry._walk`` replaced, kept here as
the reference: half-edges are (line, segment, direction) tuples, the next one
is found by ``list.index`` at the vertex and a ``(line, point)`` dict, faces
are traced through a set of seen tuples, and every face's line signs are the
n integer forms evaluated at the midpoint of one of its segments or at a
point of one of its rays.  ``_walk`` evaluates the forms at one point and
propagates signs across edges; it must give equal chambers (same order,
signs, vertices, edge counts and corners) on every frame.
"""

import pytest

from arrhom import geometry
from arrhom.fuzz import corpus, sharp_corpus
from arrhom.geometry import Arrangement, Line, _sector, _walk, normalize
from conftest import pencil
from frame_helpers import triangular_grid


def _upper(coords) -> tuple:
    """The homogeneous coordinates of an affine point, scaled to Z > 0."""
    return coords if coords[2] > 0 else tuple(-v for v in coords)


def reference_walk(arr: Arrangement) -> tuple:
    n = arr.n
    lines = arr.lines
    pts = arr.points
    slope_rank = arr._ranks
    by_slope = sorted(range(n), key=slope_rank.__getitem__)
    on_line = [[] for _ in range(n)]  # x-sorted, as arr.points is
    place = {}  # (line, point id) -> position on the line
    for p in pts:
        for i in p.line_ids:
            place[i, p.index] = len(on_line[i])
            on_line[i].append(p)
    # the points ascend in x, so the leftmost point has the least id
    x_rank = [0]
    for (X, _Y, Z), (X2, _Y2, Z2) in zip((p.coords for p in pts), (p.coords for p in pts[1:])):
        x_rank.append(x_rank[-1] + (X * Z2 != X2 * Z))
    forms = [(l.a, l.b, l.c) if l.b > 0 else (-l.a, -l.b, -l.c) for l in lines]

    def step(he):
        """The next half-edge of the face, and (vertex, slot) where it starts."""
        i, s, d = he
        t = s if d > 0 else s - 1
        if not 0 <= t < len(on_line[i]):
            g = (slope_rank[i] + (0 if d > 0 else n) + 1) % (2 * n)
            j = by_slope[g % n]
            return ((j, len(on_line[j]), -1) if g < n else (j, 0, 1)), None
        p = on_line[i][t]
        k = len(p.line_ids)
        slot = (p.line_ids.index(i) + (k if d > 0 else 0) - 1) % (2 * k)
        j = p.line_ids[slot % k]
        pos = place[j, p.index]
        return ((j, pos + 1, 1) if slot < k else (j, pos, -1)), (p, slot)

    def signs_at(he):
        """Line signs of the face on the left of a half-edge, read on it.

        A segment PQ is read at |Z_Q| P + |Z_P| Q, its midpoint; a ray from P
        at P +- Z_P (b_i, -a_i, 0).
        """
        i, s, d = he
        on = on_line[i]
        if 0 < s < len(on):
            P, Q = _upper(on[s - 1].coords), _upper(on[s].coords)
            X, Y, Z = (Q[2] * u + P[2] * v for u, v in zip(P, Q))
        elif on:
            a, b, _c = forms[i]
            X, Y, Z = _upper(on[0].coords if s == 0 else on[-1].coords)
            t = -Z if s == 0 else Z
            X, Y = X + t * b, Y - t * a
        else:  # a lone line: its point at x = 0
            X, Y, Z = 0, -forms[i][2], forms[i][1]
        signs = [(v > 0) - (v < 0) for v in [a * X + b * Y + c * Z for a, b, c in forms]]
        signs[i] = d
        return tuple(signs)

    seen = set()
    faces = []
    for i in range(n):
        for s in range(len(on_line[i]) + 1):
            for d in (1, -1):
                he = (i, s, d)
                hes, ends = [], []  # the half-edges, and (vertex, slot) at the end of each or None
                while he not in seen:
                    seen.add(he)
                    hes.append(he)
                    he, end = step(he)
                    ends.append(end)
                if not hes:
                    continue
                bounded = None not in ends
                if bounded:  # start with the half-edge into the leftmost vertex
                    ids = [p.index for p, _slot in ends]
                    first = ids.index(min(ids))
                else:  # start with the half-edge from infinity
                    first = (ends.index(None) + 1) % len(ends)
                ends = [end for end in ends[first:] + ends[:first] if end is not None]
                signs = signs_at(hes[first])
                if any(he[1] == 0 for he in hes):
                    slab = 0  # the face meets the leftmost slab
                else:
                    slab = 1 + x_rank[min(p.index for p, _slot in ends)]
                faces.append((
                    (slab, signs.count(1)),
                    signs,
                    bounded,
                    tuple(p.index for p, _slot in ends),
                    len(hes),
                    tuple(_sector(slot, len(p.line_ids)) for p, slot in ends),
                ))
    faces.sort(key=lambda f: f[0])
    return tuple(geometry.Chamber(idx, *f[1:]) for idx, f in enumerate(faces))


def _frames(inputs, seeds):
    for arr in inputs:
        for seed in seeds:
            yield normalize(arr, seed)[0]


CORPORA = {
    "corpus-20240810": lambda: [i.arrangement for i in corpus(20240810, 150)],
    "corpus-7": lambda: [i.arrangement for i in corpus(7, 150)],
    "sharp-corpus-3": lambda: [i.arrangement for i in sharp_corpus(3, 100)],
    "battery": lambda: [i.arrangement for i in corpus(20240810, 100, n_range=(3, 6))],
}


@pytest.mark.parametrize("name", sorted(CORPORA))
def test_walk_matches_the_reference_on_the_corpora(name):
    frames = 0
    for narr in _frames(CORPORA[name](), range(3)):
        assert _walk(narr) == reference_walk(narr), (name, narr.lines)
        frames += 1
    assert frames >= 300


@pytest.mark.parametrize("a", range(3, 15))
def test_walk_matches_the_reference_on_the_grids(a):
    for narr in _frames([triangular_grid(a)], range(8)):
        assert _walk(narr) == reference_walk(narr), (a, narr.lines)


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
def test_walk_matches_the_reference_on_pencils_and_two_lines(n):
    two = Arrangement([Line.from_coeffs(1, -2, 3), Line.from_coeffs(4, 5, -6)])
    for arr in (pencil(n), two):
        for narr in _frames([arr], range(3)):
            got = _walk(narr)
            assert got == reference_walk(narr), (n, narr.lines)
            assert len(got) == (2 * narr.n if narr.n > 1 else 2) and not any(c.bounded for c in got)
