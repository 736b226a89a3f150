import random
from dataclasses import replace
from fractions import Fraction

import pytest

from arrhom.cyclo import CycloNumber
from arrhom.geometry import Arrangement, Line, incidence_signature, intersections
from arrhom.fox import decone, fox_complex, oracle_h1, presentation, wiring_diagram
from arrhom.fuzz import corpus
from arrhom.homology import h1
from arrhom.local_system import LocalSystem
from conftest import GRID_LINES, pencil


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
    for lid in range(6):
        dec = decone(quadrilateral, quadrilateral_system, lid)
        prod = CycloNumber.one(3)
        for v in dec.monodromy:
            prod = prod * v
        assert prod == quadrilateral_system.m_inverse(lid)


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


def test_presentation_relator_census(quadrilateral, quadrilateral_system):
    dec = decone(quadrilateral, quadrilateral_system, 0)
    pres = presentation(dec)
    wd = wiring_diagram(dec)
    assert len(pres.relators) == sum(len(ws) - 1 for _x, _lo, ws in wd.events)
    # commutator relators abelianize to zero, so H_1 of the group is free of
    # rank equal to the generator count
    for rel in pres.relators:
        exps = [0] * len(pres.generators)
        for c in rel:
            exps[abs(c) - 1] += 1 if c > 0 else -1
        assert all(e == 0 for e in exps)


def test_fox_fundamental_identity(quadrilateral, quadrilateral_system):
    dec = decone(quadrilateral, quadrilateral_system, 2)
    pres = presentation(dec)
    d2, d1 = fox_complex(pres, dec)
    zero = CycloNumber.zero(3)
    for row in d2:
        acc = zero
        for j, v in row.items():
            acc = acc + v * d1[j]
        assert acc.is_zero


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


def _grid_a3():
    return Arrangement([Line.from_coeffs(*l) for l in GRID_LINES]), LocalSystem(order=3, exponents=[1] * 9)


def test_grid_charts_sweep_shared_abscissas_as_a_small_shear_would():
    # crossings at one abscissa are swept bottom to top; shearing the chart
    # by a small t > 0 separates them in that order and gives the same
    # presentation, found from the sheared lines alone
    arr, ls = _grid_a3()
    t = Fraction(1, 1000)
    shared = 0
    for line_id in range(arr.n):
        dec = decone(arr, ls, line_id)
        xs = [x for (x, _y), _wires in dec.crossings]
        shared += len(set(xs)) < len(xs)
        sheared = tuple(Line.from_coeffs(l.a, l.b - t * l.a, l.c) for l in dec.lines)
        assert not any(l.is_vertical for l in sheared)
        crossings = tuple(((p.x, p.y), p.line_ids) for p in intersections(sheared) if not p.is_infinite)
        assert len(crossings) == len(dec.crossings)
        assert len({x for (x, _y), _wires in crossings}) == len(crossings), line_id
        assert presentation(replace(dec, lines=sheared, crossings=crossings)) == presentation(dec), line_id
    assert shared >= 8  # every chart but line 6's, whose integer shear already separates them


def test_grid_charts_have_no_vertical_line_and_the_oracle_agrees():
    arr, ls = _grid_a3()
    expected = h1(arr, ls).h1
    for line_id in range(arr.n):
        assert not any(l.is_vertical for l in decone(arr, ls, line_id).lines)
        assert oracle_h1(arr, ls, line_id) == expected
