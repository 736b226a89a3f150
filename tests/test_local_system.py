from fractions import Fraction

import pytest

from arrhom.cyclo import MAX_ORDER
from arrhom.errors import NotALocalSystem, TrivialOnLine
from arrhom.geometry import Arrangement, Line, normalize
from arrhom.local_system import LocalSystem, resonant_points
from conftest import pencil


def test_constant_map_admissible_when_order_divides(quadrilateral):
    ls = LocalSystem(order=3, exponents=[1] * 6)
    assert ls.validate(quadrilateral).ok
    ls2 = LocalSystem(order=6, exponents=[1] * 6)
    assert ls2.validate(quadrilateral).ok


def test_constant_map_rejected_when_product_fails():
    arr = Arrangement(
        [Line.from_slope_intercept(s, b) for s, b in ((0, 0), (1, 0), (2, 1), (3, 2))]
    )
    ls = LocalSystem(order=3, exponents=[1, 1, 1, 1])
    rep = ls.validate(arr)
    assert not rep.ok and not rep.product_ok
    with pytest.raises(NotALocalSystem):
        ls.require_admissible(arr)


def test_trivial_line_rejected(generic_triangle):
    ls = LocalSystem(order=6, exponents=[0, 3, 3])
    rep = ls.validate(generic_triangle)
    assert rep.product_ok and rep.trivial_lines == (0,)
    with pytest.raises(TrivialOnLine):
        ls.require_admissible(generic_triangle)


def test_exponents_mod_order(generic_triangle):
    ls = LocalSystem(order=6, exponents=[1, 1, -2])
    assert ls.exponents == (1, 1, 4)
    assert ls.validate(generic_triangle).ok


@pytest.mark.parametrize(
    "order, exponents",
    [
        (4, [1.5, 2.7, 1]),
        (4, [1, 2, True]),
        (4, [1, 2, Fraction(1)]),
        (4, ["1", 2, 1]),
        (3.5, [1, 1, 1]),
        (3.0, [1, 1, 1]),
        (True, [1, 1, 1]),
        (0, [1, 1, 1]),
        (MAX_ORDER + 1, [1, 1, 1]),
    ],
)
def test_exact_mode_takes_only_int_data(order, exponents):
    # nothing is truncated or coerced: a value that is not an int is refused,
    # as the file parser refuses it
    with pytest.raises(ValueError):
        LocalSystem(order=order, exponents=exponents)


def test_exponents_may_be_any_iterable_of_ints():
    ls = LocalSystem(order=5, exponents=iter([1, 7, -3]))
    assert ls.order == 5 and ls.exponents == (1, 2, 2)


def test_float_mode_validation(generic_triangle):
    import cmath

    vals = [cmath.exp(2j * cmath.pi / 3)] * 3
    ls = LocalSystem(values=vals)
    assert not ls.is_exact
    assert ls.validate(generic_triangle).ok
    with pytest.raises(ValueError):
        LocalSystem(values=[0.5, 1.0, 2.0])


def test_resonant_points_generic_triangle(generic_triangle):
    ls = LocalSystem(order=3, exponents=[1, 1, 1])
    assert resonant_points(generic_triangle, ls).point_ids == ()


def test_resonant_points_quadrilateral(quadrilateral, quadrilateral_system):
    res = resonant_points(quadrilateral, quadrilateral_system)
    assert len(res.point_ids) == 4
    assert all(quadrilateral.points[p].multiplicity == 3 for p in res.point_ids)
    # every line passes through exactly two resonant triple points
    assert all(len(res.on_line(i)) == 2 for i in range(6))


def test_near_pencil_order_four_not_resonant():
    arr = Arrangement(
        [
            Line.from_slope_intercept(0, 0),
            Line.from_slope_intercept(1, 0),
            Line.from_slope_intercept(-1, 0),
            Line.from_slope_intercept(2, 5),
        ]
    )
    ls = LocalSystem(order=4, exponents=[1, 1, 1, 1])
    assert ls.validate(arr).ok
    assert resonant_points(arr, ls).point_ids == ()


def test_resonance_invariant_under_normalization(quadrilateral, quadrilateral_system):
    res0 = resonant_points(quadrilateral, quadrilateral_system)
    narr, _ = normalize(quadrilateral, seed=11)
    res1 = resonant_points(narr, quadrilateral_system)
    key0 = sorted(tuple(sorted(quadrilateral.points[p].line_ids)) for p in res0.point_ids)
    key1 = sorted(tuple(sorted(narr.points[p].line_ids)) for p in res1.point_ids)
    assert key0 == key1


@pytest.mark.parametrize("d,mult,expect", [(3, 3, True), (3, 4, False), (2, 4, True), (4, 4, True), (5, 3, False)])
def test_constant_resonance_iff_order_divides_multiplicity(d, mult, expect):
    arr = pencil(mult)
    ls = LocalSystem(order=d, exponents=[1] * mult)
    point = arr.points[0]
    assert ls.is_resonant_at(point) is expect
