import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arrhom import geometry
from arrhom.errors import DuplicateLine, InvariantError, NotNormalized
from arrhom.fox import decone
from arrhom.fuzz import corpus, sharp_corpus
from arrhom.geometry import (
    Arrangement,
    Line,
    _verify_adapted_single,
    adapted_chambers,
    adapted_frame,
    chambers,
    euler_characteristic,
    intersections,
    mat_identity,
    mat_det,
    normalize,
    sharp_pairs,
    transform,
    zaslavsky_bounded_count,
)
from conftest import interior_points_at, pencil, signs_at
from frame_helpers import (
    incidence_signature,
    is_vertical,
    line_q,
    mat_inverse,
    mat_mul,
    pair_component_labels,
    points_on_line,
)


def test_line_canonicalization():
    a = Line.from_coeffs(Fraction(1, 2), Fraction(-1, 2), 0)
    b = Line.from_coeffs(-2, 2, 0)
    assert a == b == Line(1, -1, 0)
    assert Line.from_slope_intercept(Fraction(1, 3), 2) == Line.from_coeffs(-1, 3, -6)


def test_line_slope_intercept_and_q():
    l = Line.from_slope_intercept(Fraction(2, 3), Fraction(-1, 2))
    assert l.slope == Fraction(2, 3)
    assert l.intercept == Fraction(-1, 2)
    assert line_q(l, 0, 0) == Fraction(1, 2)
    assert line_q(l, 3, Fraction(3, 2)) == 0
    assert is_vertical(Line.from_coeffs(1, 0, -2))


def test_intersections_three_generic(generic_triangle):
    pts = generic_triangle.points
    assert len(pts) == 3
    assert all(p.multiplicity == 2 for p in pts)


def test_intersections_concurrent():
    arr = pencil(3)
    assert len(arr.points) == 1
    assert arr.points[0].multiplicity == 3


def test_intersections_duplicate_rejected():
    with pytest.raises(DuplicateLine):
        intersections([Line.from_coeffs(1, 1, 0), Line.from_coeffs(2, 2, 0)])


def test_intersections_quadrilateral(quadrilateral):
    # independently derived census: the four base points are triple, the
    # three diagonal points double (two of them at infinity)
    pts = quadrilateral.points
    assert sorted(p.multiplicity for p in pts) == [2, 2, 2, 3, 3, 3, 3]
    affine = {(p.x, p.y) for p in pts if not p.is_infinite}
    assert {(0, 0), (1, 0), (0, 1), (1, 1), (Fraction(1, 2), Fraction(1, 2))} == affine
    assert sum(p.is_infinite for p in pts) == 2
    # brute force merge over all 15 line pairs agrees
    seen = {}
    for i, j in itertools.combinations(range(6), 2):
        li, lj = quadrilateral.lines[i], quadrilateral.lines[j]
        X = li.b * lj.c - li.c * lj.b
        Y = li.c * lj.a - li.a * lj.c
        Z = li.a * lj.b - li.b * lj.a
        g = {p.index for p in pts if p.coords[0] * Z == X * p.coords[2] and p.coords[1] * Z == Y * p.coords[2] and p.coords[0] * Y == X * p.coords[1]}
        assert len(g) == 1
        seen.setdefault(g.pop(), set()).update((i, j))
    assert len(seen) == 7


def test_normalize_identity_when_already_normalized(generic_triangle):
    out, rec = normalize(generic_triangle, seed=3)
    assert rec.matrix == mat_identity()
    assert out.lines == generic_triangle.lines


def test_normalize_removes_vertical():
    arr = Arrangement([Line.from_coeffs(1, 0, 0), Line.from_slope_intercept(1, 1)])
    out, rec = normalize(arr, seed=0)
    assert out.is_normalized
    assert incidence_signature(out) == incidence_signature(arr)


def test_normalize_quadrilateral_preserves_poset(quadrilateral):
    out, rec = normalize(quadrilateral, seed=0)
    assert out.is_normalized
    assert incidence_signature(out) == incidence_signature(quadrilateral)
    # the record reproduces the output exactly
    again = transform(quadrilateral, rec.matrix)
    assert again.lines == out.lines
    # and is exactly invertible
    assert mat_mul(rec.matrix, mat_inverse(rec.matrix)) == mat_identity()


@pytest.mark.parametrize("seed", range(5))
def test_normalize_random_projective_images(quadrilateral, seed):
    rng = random.Random(seed)
    while True:
        M = tuple(tuple(Fraction(rng.randint(-3, 3)) for _ in range(3)) for _ in range(3))
        try:
            mat_inverse(M)
            break
        except ValueError:
            continue
    moved = transform(quadrilateral, M)
    out, _rec = normalize(moved, seed=seed)
    assert out.is_normalized
    assert incidence_signature(out) == incidence_signature(quadrilateral)


def _grid(a):
    """The triangular grid x = i, y = j (0 <= i, j < a), x + y = c (1 <= c <= 2a - 3)."""
    return Arrangement(
        [Line.from_coeffs(1, 0, -i) for i in range(a)]
        + [Line.from_coeffs(0, 1, -j) for j in range(a)]
        + [Line.from_coeffs(1, 1, -c) for c in range(1, 2 * a - 2)]
    )


@pytest.mark.parametrize(
    "make",
    [
        lambda: [(inst.arrangement, k) for k, inst in enumerate(corpus(20240810, 150))],
        lambda: [(inst.arrangement, k) for k, inst in enumerate(corpus(7, 150))],
        lambda: [(inst.arrangement, k) for k, inst in enumerate(sharp_corpus(3, 100))],
        lambda: [(_grid(a), seed) for a in (3, 5, 9) for seed in range(8)],
    ],
    ids=["corpus-20240810", "corpus-7", "sharp-corpus-3", "grids-9-17-33"],
)
def test_screen_accepts_a_candidate_iff_its_frame_is_normalized(make, monkeypatch):
    # every candidate map the search draws is screened on the input's
    # integers; the screen must say exactly what a full transform says
    drawn = []
    real = geometry._normalizes

    def recording(arr, N):
        drawn.append((arr, N, real(arr, N)))
        return drawn[-1][2]

    monkeypatch.setattr(geometry, "_normalizes", recording)
    searched = 0
    for arr, seed in make():
        if not arr.is_normalized:
            searched += 1
            normalize(Arrangement(arr.lines), seed)
    assert sum(ok for _arr, _N, ok in drawn) == searched  # the first accepted one is kept
    for arr, N, ok in drawn:
        assert transform(arr, N).is_normalized == ok, (arr.lines, N)
    assert len(drawn) > searched  # some candidates were rejected


def test_screen_agrees_with_transform_on_random_maps():
    # small random maps also send points to infinity, which the search's
    # candidates never do
    rng = random.Random(5)
    verdicts = set()
    for inst in corpus(20240810, 150):
        arr = inst.arrangement
        for _ in range(4):
            N = tuple(tuple(rng.randint(-2, 2) for _ in range(3)) for _ in range(3))
            if mat_det(N) == 0:
                continue
            frame = transform(arr, N)
            ok = geometry._normalizes(arr, N)
            assert ok == frame.is_normalized, (arr.lines, N)
            verdicts.add((ok, all(not p.is_infinite for p in frame.points)))
    assert verdicts == {(True, True), (False, True), (False, False)}


def test_a_screened_candidate_is_checked_after_its_transform(quadrilateral, monkeypatch):
    # the quadrilateral's vertical lines stay vertical under the first
    # candidate (no shear), so a screen that accepted it would be caught
    monkeypatch.setattr(geometry, "_normalizes", lambda arr, N: True)
    with pytest.raises(InvariantError, match="not normalized"):
        normalize(quadrilateral, 0)


def _reintersect(lines):
    """(index, coords, line ids) of every point, by intersecting all pairs.

    This is how frames were built before they mapped the input's points; it
    is kept as the oracle for the mapped points.
    """
    groups = {}
    for i, j in itertools.combinations(range(len(lines)), 2):
        li, lj = lines[i], lines[j]
        v = (li.b * lj.c - li.c * lj.b, li.c * lj.a - li.a * lj.c, li.a * lj.b - li.b * lj.a)
        g = math.gcd(*v)
        v = tuple(x // g for x in v)
        if next(x for x in v if x) < 0:
            v = tuple(-x for x in v)
        groups.setdefault(v, set()).update((i, j))

    def key(coords):
        X, Y, Z = coords
        return (0, Fraction(X, Z), Fraction(Y, Z)) if Z else (1, Fraction(X), Fraction(Y))

    normalized = (
        all(l.b for l in lines)
        and len({l.slope for l in lines}) == len(lines)
        and all(c[2] for c in groups)
    )
    by = (lambda i: lines[i].slope) if normalized else None
    return [
        (idx, coords, tuple(sorted(groups[coords], key=by)))
        for idx, coords in enumerate(sorted(groups, key=key))
    ]


def _frames(arr, seed):
    """The input, a random projective image and the frames normalize builds."""
    rng = random.Random(seed)
    yield arr
    while True:
        M = tuple(tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(3)) for _ in range(3))
        if mat_det(M) != 0:
            yield transform(arr, M)
            break
    basic = normalize(arr, seed)[0]
    yield basic
    yield adapted_frame(basic, seed % arr.n)


def _affine(points):
    """((x, y), sorted line ids) of the affine points among (index, coords, line ids)."""
    return [((Fraction(X, Z), Fraction(Y, Z)), tuple(sorted(ids))) for _i, (X, Y, Z), ids in points if Z]


@pytest.mark.parametrize(
    "make", [lambda: corpus(20240810, 100), lambda: corpus(7, 100), lambda: sharp_corpus(3, 100)],
    ids=["corpus-20240810", "corpus-7", "sharp-corpus-3"],
)
def test_mapped_points_match_reintersection(make):
    frames = 0
    for k, inst in enumerate(make()):
        for arr in _frames(inst.arrangement, k):
            got = [(p.index, p.coords, p.line_ids) for p in arr.points]
            assert got == _reintersect(arr.lines), (k, arr.lines)
            frames += 1
        # the decone chart of the Fox oracle sweeps its mapped affine points
        dec = decone(inst.arrangement, inst.system, k % inst.arrangement.n)
        got = [((Fraction(X, Z), Fraction(Y, Z)), wires) for (X, Y, Z), wires in dec.crossings]
        assert got == _affine(_reintersect(dec.lines)), (k, dec.lines)
        frames += 1
    assert frames >= 400


def test_chambers_three_generic(generic_triangle):
    chs = chambers(generic_triangle)
    assert len(chs) == 7
    bounded = [c for c in chs if c.bounded]
    assert len(bounded) == 1
    assert len(bounded[0].vertex_ids) == 3


def test_chambers_pencil():
    for n in (2, 3, 5):
        arr = pencil(n)
        chs = chambers(arr)
        assert len(chs) == 2 * n
        assert not any(c.bounded for c in chs)


def test_chambers_requires_normalized(quadrilateral):
    with pytest.raises(NotNormalized):
        chambers(quadrilateral)


def test_chambers_quadrilateral(quadrilateral):
    narr, _ = normalize(quadrilateral, seed=0)
    chs = chambers(narr)
    assert sum(c.bounded for c in chs) == 6
    assert len(chs) == 18
    assert zaslavsky_bounded_count(narr) == 6


def test_chamber_sample_points_interior(quadrilateral):
    # points computed here from the vertices alone: the centroid of a bounded
    # chamber, and points just off each edge at a vertex; exactly two edges at
    # every vertex border the chamber, and the points there carry its signs
    narr, _ = normalize(quadrilateral, seed=0)
    for ch in chambers(narr):
        assert 0 not in ch.signs
        for pid in ch.vertex_ids:
            assert len(interior_points_at(narr, ch, pid)) == 2
        if ch.bounded:
            verts = [narr.points[v] for v in ch.vertex_ids]
            centroid = (sum(v.x for v in verts) / len(verts), sum(v.y for v in verts) / len(verts))
            assert signs_at(narr, centroid) == ch.signs


@pytest.mark.parametrize("seed", range(4))
def test_chamber_vertex_cycles_are_ccw_polygons(seed):
    # consecutive vertices share a line, and a bounded cycle starts at its
    # leftmost vertex and has positive signed area
    from arrhom.fuzz import random_arrangement

    rng = random.Random(seed)
    narr, _ = normalize(random_arrangement(rng, rng.randint(4, 8)), seed=seed)
    for ch in chambers(narr):
        verts = [narr.points[v] for v in ch.vertex_ids]
        pairs = list(zip(verts, verts[1:] + verts[:1] if ch.bounded else verts[1:]))
        assert all(set(a.line_ids) & set(b.line_ids) for a, b in pairs)
        assert ch.edge_count == len(verts) + (0 if ch.bounded else 1)
        if ch.bounded:
            assert verts[0].x == min(v.x for v in verts)
            assert sum(a.x * b.y - b.x * a.y for a, b in pairs) > 0


def test_chamber_boundary_edges_consistent(quadrilateral):
    narr, _ = normalize(quadrilateral, seed=0)
    chs = chambers(narr)
    total_edges = sum(len(points_on_line(narr, i)) + 1 for i in range(narr.n))
    # every segment or ray borders exactly two chambers
    assert sum(c.edge_count for c in chs) == 2 * total_edges
    # one-point compactification Euler check: V' - E + F = 2
    assert (len(narr.points) + 1) - total_edges + len(chs) == 2
    for c in chs:
        if c.bounded:
            assert c.edge_count == len(c.vertex_ids) >= 3


@pytest.mark.parametrize("seed", range(8))
def test_chambers_randomized_zaslavsky(seed):
    from arrhom.fuzz import random_arrangement

    rng = random.Random(seed)
    arr = random_arrangement(rng, rng.randint(3, 7))
    narr, _ = normalize(arr, seed=seed)
    chs = chambers(narr)
    assert sum(c.bounded for c in chs) == zaslavsky_bounded_count(narr)
    total_edges = sum(len(points_on_line(narr, i)) + 1 for i in range(narr.n))
    assert (len(narr.points) + 1) - total_edges + len(chs) == 2
    assert sum(c.edge_count for c in chs) == 2 * total_edges


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6))
def test_incidence_poset_invariant_under_normalize(seed):
    from arrhom.fuzz import random_arrangement

    rng = random.Random(seed)
    arr = random_arrangement(rng, rng.randint(2, 6))
    out, _rec = normalize(arr, seed=seed)
    assert out.is_normalized
    assert incidence_signature(out) == incidence_signature(arr)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6))
def test_bounded_count_matches_zaslavsky(seed):
    from arrhom.fuzz import random_arrangement

    rng = random.Random(seed)
    arr = random_arrangement(rng, rng.randint(3, 7))
    narr, _ = normalize(arr, seed=seed)
    assert sum(c.bounded for c in chambers(narr)) == zaslavsky_bounded_count(narr)


def test_sharp_pairs_two_lines():
    arr = Arrangement([Line.from_slope_intercept(0, 0), Line.from_slope_intercept(1, 0)])
    assert sharp_pairs(arr) == [(0, 1)]


def test_sharp_pairs_three_generic(generic_triangle):
    assert sharp_pairs(generic_triangle) == [(0, 1), (0, 2), (1, 2)]


def test_sharp_pairs_quadrilateral_brute_force(quadrilateral):
    # naive oracle: classify every point off the pair by the sign of the
    # product of the two defining forms
    def brute(arr):
        out = []
        for i, j in itertools.combinations(range(arr.n), 2):
            labels = set()
            for p in arr.points:
                vi = arr.lines[i].hom_eval(*p.coords)
                vj = arr.lines[j].hom_eval(*p.coords)
                if vi != 0 and vj != 0:
                    labels.add(1 if vi * vj > 0 else -1)
            if len(labels) < 2:
                out.append((i, j))
        return out

    assert sharp_pairs(quadrilateral) == brute(quadrilateral)
    assert len(sharp_pairs(quadrilateral)) == 12


def test_sharp_pairs_match_pair_component_labels():
    # the one-sign-table sharp_pairs, which stops at a pair's second distinct
    # sign product, against the per-pair labels over every point; sign
    # products are projectively invariant, so the basic frame agrees too
    insts = corpus(20240810, 150) + corpus(7, 100) + sharp_corpus(3, 100)
    sharp = 0
    for k, inst in enumerate(insts):
        arr = inst.arrangement
        ref = [
            (i, j)
            for i, j in itertools.combinations(range(arr.n), 2)
            if len(pair_component_labels(arr, arr.lines[i], arr.lines[j])) < 2
        ]
        assert sharp_pairs(arr) == ref, k
        assert sharp_pairs(normalize(arr, k)[0]) == ref, k
        sharp += bool(ref)
    assert sharp >= 150


def test_euler_characteristic_examples(quadrilateral, generic_triangle):
    assert euler_characteristic(Arrangement([Line.from_slope_intercept(0, 0)])) == 1
    assert euler_characteristic(generic_triangle) == 0
    assert euler_characteristic(quadrilateral) == 2


def test_adapted_single_frame(quadrilateral):
    narr = normalize(quadrilateral, seed=1)[0]
    for l0 in range(6):
        out = adapted_frame(narr, l0)
        line0 = out.lines[l0]
        assert (line0.a, line0.b, line0.c) == (0, 1, 0)
        for i, l in enumerate(out.lines):
            if i != l0:
                assert l.slope > 0
        assert all(p.y >= 0 for p in out.points)
        assert incidence_signature(out) == incidence_signature(quadrilateral)


def test_adapted_frame_needs_a_normalized_arrangement(quadrilateral):
    with pytest.raises(NotNormalized):
        adapted_frame(quadrilateral, 0)


@pytest.fixture(scope="module")
def corpus_frames():
    """(instance index, basic frame, its chambers, l0, adapted frame) for every line
    of every instance with more than one point in three corpora."""
    insts = corpus(20240810, 150) + corpus(7, 150) + sharp_corpus(3, 100)
    out = []
    for k, inst in enumerate(insts):
        if len(inst.arrangement.points) <= 1:
            continue
        narr = normalize(inst.arrangement, k)[0]
        cells = chambers(narr)
        for l0 in range(narr.n):
            out.append((k, narr, cells, l0, adapted_frame(narr, l0)))
    return out


def test_adapted_frame_exists_along_every_line(corpus_frames):
    # one projective map of the basic frame, never a search: it must exist
    # for every line of every instance with more than one point
    for k, narr, _cells, l0, out in corpus_frames:
        _verify_adapted_single(out, l0)
        assert incidence_signature(out) == incidence_signature(narr), (k, l0)
    assert len(corpus_frames) >= 2000


def _chamber_set(cells):
    """Chambers as (signs, vertices, corners); their order and ids are not compared."""
    return {(c.signs, c.vertex_ids, c.corners) for c in cells}


def test_adapted_chambers_match_a_fresh_walk(corpus_frames):
    # the cells selected from the basic frame's walk are the bounded chambers
    # of a walk of the adapted frame itself
    for k, narr, cells, l0, frame in corpus_frames:
        fresh = [c for c in chambers(frame) if c.bounded]
        derived = adapted_chambers(narr, cells, frame, l0)
        assert len(derived) == len(fresh), (k, l0)
        assert _chamber_set(derived) == _chamber_set(fresh), (k, l0)
        assert all(c.bounded and c.edge_count == len(c.vertex_ids) for c in derived)

