import random
from collections import Counter
from dataclasses import replace
from fractions import Fraction

import pytest

from arrhom.cyclo import CycloNumber
from arrhom.geometry import Arrangement, Line, intersections
from arrhom.cyclo import rank_float
from arrhom.fox import decone, oracle_h1, presentation, wiring_diagram
from arrhom.fuzz import corpus, sharp_corpus
from arrhom.homology import h1
from arrhom.local_system import LocalSystem
from conftest import pencil
from fox_reference import reference_rows, relator_words
from frame_helpers import incidence_signature, is_vertical


def test_decone_two_lines():
    arr = Arrangement([Line.from_slope_intercept(0, 0), Line.from_slope_intercept(1, 0)])
    ls = LocalSystem(order=4, exponents=[1, 3])
    dec = decone(arr, ls, 0)
    assert len(dec.lines) == 1
    assert dec.line_ids == (1,)
    # one affine line: free group on one meridian, so h1 vanishes
    assert oracle_h1(arr, ls, 0) == 0


def test_decone_keeps_incidences(quadrilateral, quadrilateral_system):
    for lid in range(6):
        dec = decone(quadrilateral, quadrilateral_system, lid)
        sub = Arrangement([quadrilateral.lines[i] for i in dec.line_ids])
        assert incidence_signature(Arrangement(dec.lines)) == incidence_signature(sub)


def test_decone_product_consistency(quadrilateral, quadrilateral_system):
    # the chart carries exponents: their sum is the removed line's inverse
    for lid in range(6):
        dec = decone(quadrilateral, quadrilateral_system, lid)
        assert dec.order == 3
        prod = CycloNumber.one(3)
        for k in dec.monodromy:
            prod = prod * CycloNumber.zeta(3, k)
        assert prod == quadrilateral_system.m(lid).inverse()
    float_system = quadrilateral_system.to_float()
    for lid in range(6):
        dec = decone(quadrilateral, float_system, lid)
        assert dec.order is None
        assert dec.monodromy == tuple(float_system.values[i] for i in dec.line_ids)


@pytest.mark.parametrize("lid", [-1, 6, 7])
def test_decone_rejects_ids_that_name_no_line(quadrilateral, quadrilateral_system, lid):
    # -1 would keep the removed line among the wires and send it to
    # infinity, where no shear makes it non-vertical
    with pytest.raises(IndexError):
        decone(quadrilateral, quadrilateral_system, lid)
    with pytest.raises(IndexError):
        oracle_h1(quadrilateral, quadrilateral_system, lid)


def test_wiring_diagram_counts(quadrilateral, quadrilateral_system):
    for lid in range(6):
        dec = decone(quadrilateral, quadrilateral_system, lid)
        wd = wiring_diagram(dec)
        # sweep events are the intersection points of the five remaining
        # lines that do not lie on the removed one (those sit at infinity in
        # the deconed chart): two triple points and two double points
        mults = sorted(len(ws) for _x, _lo, ws in wd.events)
        assert mults == [2, 2, 3, 3]
        assert sorted(wd.initial_order) == [0, 1, 2, 3, 4]
        # census check against the projective picture
        off_removed = [
            p for p in quadrilateral.points if lid not in p.line_ids
        ]
        assert sorted(p.multiplicity for p in off_removed) == mults


def test_oracle_quadrilateral(quadrilateral, quadrilateral_system):
    assert oracle_h1(quadrilateral, quadrilateral_system) == 1


def test_oracle_independent_of_decone_line(quadrilateral, quadrilateral_system):
    values = {oracle_h1(quadrilateral, quadrilateral_system, lid) for lid in range(6)}
    assert values == {1}


def test_oracle_independent_of_chart_seed(quadrilateral, quadrilateral_system):
    values = {oracle_h1(quadrilateral, quadrilateral_system, 1, seed=s) for s in range(5)}
    assert values == {1}


def test_oracle_pencil():
    arr = pencil(3)
    ls = LocalSystem(order=3, exponents=[1, 1, 1])
    assert [oracle_h1(arr, ls, i) for i in range(3)] == [1, 1, 1]
    arr5 = pencil(5)
    ls5 = LocalSystem(order=5, exponents=[1] * 5)
    assert oracle_h1(arr5, ls5) == 3


def test_oracle_no_resonance_matches_zero(generic_triangle):
    ls = LocalSystem(order=3, exponents=[1, 1, 1])
    assert oracle_h1(generic_triangle, ls) == 0


@pytest.mark.parametrize("idx", range(20))
def test_oracle_matches_main_algorithm(idx):
    insts = corpus(seed=909, count=20, n_range=(3, 6), d_range=(2, 6))
    inst = insts[idx]
    rep = h1(inst.arrangement, inst.system, seed=idx)
    rng = random.Random(idx)
    lid = rng.randrange(inst.arrangement.n)
    assert oracle_h1(inst.arrangement, inst.system, lid, seed=idx) == rep.h1


def _grid(a):
    """The triangular grid x = i, y = j (0 <= i, j < a), x + y = c (1 <= c <= 2a - 3), order 3."""
    lines = [(1, 0, -i) for i in range(a)] + [(0, 1, -j) for j in range(a)] + [(1, 1, -c) for c in range(1, 2 * a - 2)]
    exponents = [1] * len(lines)
    exponents[-1] += -sum(exponents) % 3
    return Arrangement([Line.from_coeffs(*l) for l in lines]), LocalSystem(order=3, exponents=exponents)


CHARTS = {
    "corpus-20240810": lambda: [(i.arrangement, i.system, None) for i in corpus(20240810, 150)],
    "corpus-7": lambda: [(i.arrangement, i.system, None) for i in corpus(7, 150)],
    "sharp-3": lambda: [(i.arrangement, i.system, None) for i in sharp_corpus(3, 100)],
    "grids-9-17": lambda: [(*_grid(3), None), (*_grid(5), None)],
    "grid-33-line-0": lambda: [(*_grid(9), [0])],
}


@pytest.mark.parametrize("name", CHARTS)
def test_presentation_rows_equal_the_word_path(name):
    # the rows of d2 from per-wire Fox vectors are the Fox derivatives of
    # the relator words, evaluated letter by letter: equal as flat rows,
    # once zero coefficients are dropped, for an exact chart, and to
    # rounding, with the same float rank, for the float chart of the same
    # monodromy
    charts = 0
    for arr, system, line_ids in CHARTS[name]():
        for line_id in range(arr.n) if line_ids is None else line_ids:
            dec = decone(arr, system, line_id)
            pres = presentation(dec)
            terms = [{key: c for key, c in row.items() if c} for row in pres.relators]
            assert terms == reference_rows(dec), (name, arr.lines, line_id)
            assert all(type(key) is int and type(c) is int for row in pres.relators for key, c in row.items())
            assert pres.generators == tuple(range(len(dec.lines)))
            events = wiring_diagram(dec).events
            assert len(pres.relators) == sum(len(ws) - 1 for _x, _lo, ws in events)
            # the words are commutators: they abelianize to zero
            for word in relator_words(dec):
                exps = Counter()
                for c in word:
                    exps[abs(c)] += 1 if c > 0 else -1
                assert not any(exps.values())
            fdec = decone(arr, system.to_float(), line_id)
            rows, ref = presentation(fdec).relators, reference_rows(fdec)
            assert len(rows) == len(ref)
            for row, ref_row in zip(rows, ref):
                assert all(abs(row.get(g, 0j) - ref_row.get(g, 0j)) <= 1e-12 for g in row.keys() | ref_row.keys())
            assert rank_float(rows) == rank_float(ref)
            charts += 1
    assert charts == {"corpus-20240810": 817, "corpus-7": 819, "sharp-3": 558, "grids-9-17": 26, "grid-33-line-0": 1}[name]


@pytest.mark.parametrize("name", ["quadrilateral", "grid-9"])
def test_fox_fundamental_identity(name, quadrilateral, quadrilateral_system):
    # sum_j (dr/dx_j)(x_j - 1) = r - 1, and phi(r) = 1: each row of d2 times
    # d1 = (phi(x_j) - 1)_j vanishes.  For an exact chart it vanishes in
    # the group ring Z[C_d], coefficient by coefficient
    arr, system = {"quadrilateral": (quadrilateral, quadrilateral_system), "grid-9": _grid(3)}[name]
    for line_id in range(arr.n):
        dec = decone(arr, system, line_id)
        d, exps = dec.order, dec.monodromy
        rows = presentation(dec).relators
        assert rows
        for row in rows:
            acc = [0] * d
            for key, c in row.items():
                j, k = divmod(key, d)
                acc[(k + exps[j]) % d] += c
                acc[k] -= c
            assert acc == [0] * d
        fdec = decone(arr, system.to_float(), line_id)
        for row in presentation(fdec).relators:
            scale = max((abs(x) for x in row.values()), default=0.0)
            assert abs(sum(x * (fdec.monodromy[j] - 1) for j, x in row.items())) <= 1e-9 * scale


def test_grid_charts_sweep_shared_abscissas_as_a_small_shear_would():
    # crossings at one abscissa are swept bottom to top; shearing the chart
    # by a small t > 0 separates them in that order and gives the same
    # presentation, found from the sheared lines alone
    arr, ls = _grid(3)
    t = Fraction(1, 1000)
    shared = 0
    for line_id in range(arr.n):
        dec = decone(arr, ls, line_id)
        xs = [Fraction(X, Z) for (X, _Y, Z), _wires in dec.crossings]
        shared += len(set(xs)) < len(xs)
        sheared = tuple(Line.from_coeffs(l.a, l.b - t * l.a, l.c) for l in dec.lines)
        assert not any(is_vertical(l) for l in sheared)
        crossings = tuple(
            (tuple(c if p.coords[2] > 0 else -c for c in p.coords), tuple(sorted(p.line_ids)))
            for p in intersections(sheared)
            if not p.is_infinite
        )
        assert len(crossings) == len(dec.crossings)
        assert len({Fraction(X, Z) for (X, _Y, Z), _wires in crossings}) == len(crossings), line_id
        assert presentation(replace(dec, lines=sheared, crossings=crossings)) == presentation(dec), line_id
    assert shared >= 8  # every chart but line 6's, whose integer shear already separates them


def test_grid_charts_have_no_vertical_line_and_the_oracle_agrees():
    arr, ls = _grid(3)
    expected = h1(arr, ls).h1
    for line_id in range(arr.n):
        assert not any(is_vertical(l) for l in decone(arr, ls, line_id).lines)
        assert oracle_h1(arr, ls, line_id) == expected
