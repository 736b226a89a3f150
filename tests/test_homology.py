import random
from fractions import Fraction

import pytest

from arrhom.cyclo import CycloNumber
from arrhom.errors import NotAdjacent, NotResonant
from arrhom.fuzz import corpus, random_arrangement, resonant_system, sharp_corpus
from arrhom.geometry import (
    Arrangement,
    Line,
    adapted_chambers,
    adapted_frame,
    chambers,
    normalize,
    transform,
)
from arrhom.homology import (
    AngleBasis,
    h1,
    lambda_coeff,
    point_rows,
    relation_matrix,
    sector_sums,
)
from arrhom.local_system import LocalSystem, resonant_points
from conftest import interior_points_at, pencil
from frame_helpers import angle_lines, row_values


W = CycloNumber.zeta(3)
ONE = CycloNumber.one(3)


def _normalized_quadrilateral(quadrilateral, seed=0):
    return normalize(quadrilateral, seed)[0]


def test_angle_basis_empty(generic_triangle):
    ls = LocalSystem(order=3, exponents=[1, 1, 1])
    basis = AngleBasis(generic_triangle, resonant_points(generic_triangle, ls))
    assert basis.dim == 0


def test_angle_basis_quadrilateral(quadrilateral, quadrilateral_system):
    narr = _normalized_quadrilateral(quadrilateral)
    res = resonant_points(narr, quadrilateral_system)
    basis = AngleBasis(narr, res)
    assert basis.dim == 12
    for pid in res.point_ids:
        angles = [a for a in basis.angles if a.point_id == pid]
        assert [a.index for a in angles] == [1, 2, 3]
        # angle arcs are consecutive slope pairs, wrapping at the end
        lines = basis.lines_at(pid)
        pairs = [angle_lines(basis, a) for a in angles]
        assert pairs == [(lines[0], lines[1]), (lines[1], lines[2]), (lines[2], lines[0])]


def test_angle_basis_single_triple_point():
    arr = pencil(3)
    ls = LocalSystem(order=3, exponents=[1, 1, 1])
    basis = AngleBasis(arr, resonant_points(arr, ls))
    assert basis.dim == 3


def test_point_rows_constant_monodromy(quadrilateral, quadrilateral_system):
    narr = _normalized_quadrilateral(quadrilateral)
    res = resonant_points(narr, quadrilateral_system)
    basis = AngleBasis(narr, res)
    for pid in res.point_ids:
        rows = point_rows(narr, quadrilateral_system, basis, pid)
        plus, minus = (row_values(r, quadrilateral_system) for r in rows)
        cols = [basis.column(pid, i) for i in (1, 2, 3)]
        assert [plus[c] for c in cols] == [ONE, ONE, ONE]
        # partial products of a constant order-3 map: w, w^2, then 1
        assert [minus[c] for c in cols] == [W, W * W, ONE]


def test_point_rows_reject_non_resonant(quadrilateral, quadrilateral_system):
    narr = _normalized_quadrilateral(quadrilateral)
    res = resonant_points(narr, quadrilateral_system)
    basis = AngleBasis(narr, res)
    double = next(p.index for p in narr.points if p.multiplicity == 2)
    with pytest.raises(NotResonant):
        point_rows(narr, quadrilateral_system, basis, double)


def test_lambda_right_side_is_one(quadrilateral, quadrilateral_system):
    narr = _normalized_quadrilateral(quadrilateral)
    res = resonant_points(narr, quadrilateral_system)
    right = 0
    for ch in chambers(narr):
        for pid in ch.vertex_ids:
            if pid not in res.point_ids:
                continue
            p = narr.points[pid]
            if any(x > p.x for x, _y in interior_points_at(narr, ch, pid)):
                right += 1
                assert lambda_coeff(narr, quadrilateral_system, pid, ch) == ONE
    assert right


def _slope_rule(arr, system, p, x0, y0):
    """Angle and lambda of the interior direction (x0, y0) at p, by slopes.

    The direction lies on angle i < k when its slope falls between those of
    l_i and l_{i+1}, else on the wrap-around angle k.  Lambda is 1 for
    x0 > 0 and the product of m(l) over the lines with s(l)*x0 > y0 for x0 < 0.
    """
    mu = y0 / x0
    slopes = [arr.lines[i].slope for i in p.line_ids]
    k = len(slopes)
    index = next((i + 1 for i in range(k - 1) if slopes[i] < mu < slopes[i + 1]), k)
    lam = system.one()
    if x0 < 0:
        for i in p.line_ids:
            if arr.lines[i].slope * x0 > y0:
                lam = lam * system.m(i)
    return index, lam


@pytest.mark.parametrize("seed", range(8))
def test_corner_data_matches_sampled_directions(seed):
    # the first random arrangement of the stream with a resonant point
    rng = random.Random(seed)
    while True:
        arr = random_arrangement(rng, rng.randint(4, 8))
        system = resonant_system(rng, arr, rng.randint(2, 6))
        narr, _ = normalize(arr, seed)
        res = resonant_points(narr, system)
        if res.point_ids:
            break
    cells = chambers(narr)
    basis, rows = relation_matrix(narr, system, res, cells)
    chamber_rows = {r.label: row_values(r, system) for r in rows if r.kind == "chamber"}
    checked = set()
    for ch in cells:
        for pid in ch.vertex_ids:
            if pid not in res:
                continue
            p = narr.points[pid]
            samples = interior_points_at(narr, ch, pid)
            assert len(samples) == 2
            for x, y in samples:
                index, lam = _slope_rule(narr, system, p, x - p.x, y - p.y)
                assert ch.corner(pid)[0] == index
                assert lambda_coeff(narr, system, pid, ch) == lam
                if ch.bounded:
                    assert chamber_rows[ch.index][basis.column(pid, index)] == lam
            checked.add(pid)
    assert checked == set(res.point_ids)


def test_lambda_sample_point_independence(quadrilateral, quadrilateral_system):
    # recompute lambda from several interior points of the same chamber and
    # check the result never moves
    narr = _normalized_quadrilateral(quadrilateral)
    res = resonant_points(narr, quadrilateral_system)
    ls = quadrilateral_system
    for ch in chambers(narr):
        if not ch.bounded:
            continue
        verts = [narr.points[v] for v in ch.vertex_ids]
        cx = sum(v.x for v in verts) / len(verts)
        cy = sum(v.y for v in verts) / len(verts)
        for pid in ch.vertex_ids:
            if pid not in res.point_ids:
                continue
            p = narr.points[pid]
            baseline = lambda_coeff(narr, ls, pid, ch)
            for v in verts:
                mx, my = (cx + v.x) / 2, (cy + v.y) / 2  # interior by convexity
                if mx == p.x:
                    continue
                x0, y0 = mx - p.x, my - p.y
                if x0 > 0:
                    lam = ls.one()
                else:
                    lam = ls.one()
                    for i in p.line_ids:
                        if narr.lines[i].slope * x0 > y0:
                            lam = lam * ls.m(i)
                assert lam == baseline


def test_lambda_requires_adjacency(quadrilateral, quadrilateral_system):
    narr = _normalized_quadrilateral(quadrilateral)
    chs = chambers(narr)
    ch = next(c for c in chs if c.bounded)
    outside = next(p.index for p in narr.points if p.index not in ch.vertex_ids)
    with pytest.raises(NotAdjacent):
        lambda_coeff(narr, quadrilateral_system, outside, ch)


def test_chamber_rows_structure(quadrilateral, quadrilateral_system):
    # every bounded chamber of the quadrilateral touches exactly two resonant
    # vertices, so each chamber row has two entries, both powers of the
    # order-3 root; the individual powers depend on the normalization frame
    narr = _normalized_quadrilateral(quadrilateral)
    res = resonant_points(narr, quadrilateral_system)
    cells = chambers(narr)
    basis, rows = relation_matrix(narr, quadrilateral_system, res, cells)
    powers = {str(ONE), str(W), str(W * W)}
    chamber_rows = [r for r in rows if r.kind == "chamber"]
    bounded = [ch for ch in cells if ch.bounded]
    assert [r.label for r in chamber_rows] == [ch.index for ch in bounded]
    for ch, row in zip(bounded, chamber_rows):
        values = row_values(row, quadrilateral_system)
        assert len(values) == len(row.coeffs) == 2
        assert {basis.angles[c].point_id for c in values} <= set(res.point_ids)
        assert len({basis.angles[c].point_id for c in values}) == 2
        assert all(str(v) in powers for v in values.values())
        for c in values:
            angle = basis.angles[c]
            assert ch.corner(angle.point_id)[0] == angle.index


def _grid(a):
    """The triangular grid x = i, y = j (0 <= i, j < a), x + y = c (1 <= c <= 2a - 3),
    order 3 with exponents 1, the last one or two raised to 2."""
    lines = [(1, 0, -i) for i in range(a)] + [(0, 1, -j) for j in range(a)]
    lines += [(1, 1, -c) for c in range(1, 2 * a - 2)]
    exps = [1] * len(lines)
    for k in range(1, 1 + (-len(lines)) % 3):
        exps[-k] = 2
    return Arrangement([Line.from_coeffs(*l) for l in lines]), LocalSystem(order=3, exponents=exps)


def _read_off_cases():
    """(arrangement, system, seed): two corpora, and the 9- and 17-line grids
    at seeds 0-7 in exact and float mode."""
    insts = corpus(20240810, 150) + sharp_corpus(3, 100)
    cases = [(inst.arrangement, inst.system, k) for k, inst in enumerate(insts)]
    for a in (3, 5):
        arr, system = _grid(a)
        cases += [(arr, s, seed) for seed in range(8) for s in (system, system.to_float())]
    return cases


def test_chamber_rows_read_the_reference_formula_off_the_walk():
    # every chamber-row entry is lambda_coeff at the column of the chamber's
    # corner, and a row is supported exactly on the chamber's resonant
    # vertices: in every basic frame, and in the adapted frame of every
    # certificate, whose chambers are selected from the basic walk
    frames = 0
    for arr, system, seed in _read_off_cases():
        narr = normalize(arr, seed)[0]
        cells = chambers(narr)
        walks = [(narr, cells)]
        if len(narr.points) > 1:
            for l0 in range(narr.n):
                frame = adapted_frame(narr, l0)
                walks.append((frame, adapted_chambers(narr, cells, frame, l0)))
        for frame, walk in walks:
            res = resonant_points(frame, system)
            basis, rows = relation_matrix(frame, system, res, walk)
            chamber_rows = [r for r in rows if r.kind == "chamber"]
            bounded = [ch for ch in walk if ch.bounded]
            assert [r.label for r in chamber_rows] == [ch.index for ch in bounded]
            for ch, row in zip(bounded, chamber_rows):
                vertices = [pid for pid in ch.vertex_ids if pid in res]
                values = row_values(row, system)
                assert {basis.angles[c].point_id for c in values} == set(vertices)
                assert values == {
                    basis.column(pid, ch.corner(pid)[0]): lambda_coeff(frame, system, pid, ch)
                    for pid in vertices
                }
            frames += 1
    assert frames > 1000


def test_relation_matrix_census(quadrilateral, quadrilateral_system):
    narr = _normalized_quadrilateral(quadrilateral)
    res = resonant_points(narr, quadrilateral_system)
    basis, rows = relation_matrix(narr, quadrilateral_system, res, chambers(narr))
    assert basis.dim == 12
    assert len(rows) == 14
    kinds = [r.kind for r in rows]
    assert kinds.count("point+") == kinds.count("point-") == 4
    assert kinds.count("chamber") == 6
    # point rows are supported on their own angle block only
    for r in rows:
        if r.kind in ("point+", "point-"):
            assert {basis.angles[c].point_id for c in row_values(r, quadrilateral_system)} == {r.label}


def test_h1_quadrilateral(quadrilateral, quadrilateral_system):
    rep = h1(quadrilateral, quadrilateral_system, seed=0)
    assert (rep.dim_A, rep.num_rows, rep.rank_K, rep.h1) == (12, 14, 11, 1)
    assert rep.zaslavsky_ok and rep.float_agrees
    assert rep.euler == 2 and rep.h2 == 3


def test_h1_no_resonance_is_zero(generic_triangle):
    rep = h1(generic_triangle, LocalSystem(order=3, exponents=[1, 1, 1]))
    assert rep.dim_A == 0 and rep.h1 == 0


def test_h1_pencil_point_rows_only():
    # a pencil of three lines with constant order-3 monodromy: the relation
    # matrix is just the two point rows on three angles
    arr = pencil(3)
    ls = LocalSystem(order=3, exponents=[1, 1, 1])
    rep = h1(arr, ls)
    assert rep.dim_A == 3
    assert rep.num_rows == 2 and rep.num_chamber_rows == 0
    assert rep.rank_K == 2 and rep.h1 == 1
    # the complement fibers over a thrice-punctured sphere, so h2 vanishes
    assert rep.h2 == 0


def test_zero_chamber_rows_kept_and_flagged():
    # bounded chambers with no resonant vertices contribute zero rows; they
    # stay in the census but cannot affect the rank
    lines = [Line.from_slope_intercept(0, 0)]
    for x in (0, 1, 2):
        lines.append(Line.from_slope_intercept(1, -x))
        lines.append(Line.from_slope_intercept(-1, x))
    arr = Arrangement(lines)
    ls = LocalSystem(order=6, exponents=[3, 1, 2, 1, 2, 1, 2])
    rep = h1(arr, ls)
    assert rep.zero_chamber_rows
    assert rep.num_chamber_rows == 10 and rep.num_rows == 18
    assert rep.dim_A == 12 and rep.h1 == 0


def test_h1_float_mode_matches_exact(quadrilateral, quadrilateral_system):
    rep = h1(quadrilateral, quadrilateral_system)
    frep = h1(quadrilateral, quadrilateral_system.to_float())
    assert frep.h1 == rep.h1 == 1


def test_h1_invariance_under_line_permutation(quadrilateral, quadrilateral_system):
    rng = random.Random(4)
    order = list(range(6))
    rng.shuffle(order)
    arr2 = Arrangement([quadrilateral.lines[i] for i in order])
    ls2 = LocalSystem(order=3, exponents=[quadrilateral_system.exponents[i] for i in order])
    assert h1(arr2, ls2).h1 == 1


def test_h1_invariance_under_seeds_and_transforms(quadrilateral, quadrilateral_system):
    base = h1(quadrilateral, quadrilateral_system, seed=0).h1
    for seed in range(1, 6):
        assert h1(quadrilateral, quadrilateral_system, seed=seed).h1 == base
    rng = random.Random(9)
    from arrhom.geometry import mat_det

    for _ in range(3):
        while True:
            M = tuple(tuple(Fraction(rng.randint(-3, 3)) for _ in range(3)) for _ in range(3))
            if mat_det(M) != 0:
                break
        moved = transform(quadrilateral, M)
        assert h1(moved, quadrilateral_system).h1 == base


def test_sector_sums_reproduce_point_rows(quadrilateral, quadrilateral_system):
    rep = h1(quadrilateral, quadrilateral_system, seed=0)
    sums = sector_sums(rep, quadrilateral_system)
    assert sorted(sums) == list(rep.resonant.point_ids)
    for pid in rep.resonant.point_ids:
        plus, minus = point_rows(rep.arrangement, quadrilateral_system, rep.basis, pid)
        got_plus = {k: v for k, v in sums[pid][0].items() if v}
        got_minus = {k: v for k, v in sums[pid][1].items() if v}
        assert got_plus == row_values(plus, quadrilateral_system)
        assert got_minus == row_values(minus, quadrilateral_system)


def test_every_resonant_point_has_two_chambers_per_angle(quadrilateral, quadrilateral_system):
    narr = _normalized_quadrilateral(quadrilateral)
    res = resonant_points(narr, quadrilateral_system)
    chs = chambers(narr)
    basis, rows = relation_matrix(narr, quadrilateral_system, res, chs)
    on_angle = {}  # column -> bounded chambers whose row has an entry there
    for r in rows:
        if r.kind == "chamber":
            for c in row_values(r, quadrilateral_system):
                on_angle[c] = on_angle.get(c, 0) + 1
    for pid in res.point_ids:
        count = {}
        for ch in chs:
            if pid in ch.vertex_ids:
                index = ch.corner(pid)[0]
                count[index] = count.get(index, 0) + 1
        mult = narr.points[pid].multiplicity
        assert count == {i: 2 for i in range(1, mult + 1)}
        # the bounded ones among them are the chamber rows on that angle
        for i in range(1, mult + 1):
            bounded = sum(1 for ch in chs if ch.bounded and pid in ch.vertex_ids and ch.corner(pid)[0] == i)
            assert on_angle.get(basis.column(pid, i), 0) == bounded
