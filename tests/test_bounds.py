import pytest

from arrhom import bounds
from arrhom.bounds import BetaCertificate, beta_certificate, cdo_bound, r0_bound, sharp_pair_report
from arrhom.errors import PencilNotCovered
from arrhom.fuzz import corpus, sharp_corpus
from arrhom.cyclo import CycloNumber, rank_exponent_maps
from arrhom.geometry import Arrangement, Line, adapted_chambers, adapted_frame
from arrhom.homology import h1, relation_matrix
from arrhom.local_system import LocalSystem, resonant_points
from conftest import pencil


def test_bounds_no_resonance(generic_triangle):
    ls = LocalSystem(order=3, exponents=[1, 1, 1])
    res = resonant_points(generic_triangle, ls)
    for lid in range(3):
        assert cdo_bound(generic_triangle, res, lid) == 0
        assert r0_bound(generic_triangle, res, lid) == 0


def test_bounds_quadrilateral(quadrilateral, quadrilateral_system):
    # each line carries two resonant triple points
    res = resonant_points(quadrilateral, quadrilateral_system)
    for lid in range(6):
        assert cdo_bound(quadrilateral, res, lid) == 2
        assert r0_bound(quadrilateral, res, lid) == 1
    assert h1(quadrilateral, quadrilateral_system).h1 == 1  # the bound is sharp


def test_per_line_bounds_reject_ids_that_name_no_line(quadrilateral):
    # on the order-5 quadrilateral only the point of lines 0-2 is resonant,
    # so -6 (line 0 read from the end) and -1 (line 5) would answer for
    # another line
    system = LocalSystem(order=5, exponents=[1, 1, 3, 1, 2, 2])
    res = resonant_points(quadrilateral, system)
    assert [cdo_bound(quadrilateral, res, lid) for lid in range(6)] == [1, 1, 1, 0, 0, 0]
    for lid in (-6, -1, 6):
        with pytest.raises(IndexError):
            cdo_bound(quadrilateral, res, lid)
        with pytest.raises(IndexError):
            r0_bound(quadrilateral, res, lid)
    with pytest.raises(PencilNotCovered):  # the typed check comes first
        r0_bound(pencil(3), resonant_points(pencil(3), LocalSystem(order=3, exponents=[1, 1, 1])), -1)


def test_r0_bound_arithmetic():
    # a base line through three triple points, all resonant: bound is 2
    lines = [Line.from_slope_intercept(0, 0)]
    for x in (0, 1, 2):
        lines.append(Line.from_slope_intercept(1, -x))
        lines.append(Line.from_slope_intercept(-1, x))
    arr = Arrangement(lines)
    ls = LocalSystem(order=6, exponents=[3, 1, 2, 1, 2, 1, 2])
    assert ls.validate(arr).ok
    res = resonant_points(arr, ls)
    assert r0_bound(arr, res, 0) == 2
    assert cdo_bound(arr, res, 0) == 3
    assert h1(arr, ls).h1 <= 2


def test_quadruple_point_cdo():
    # four concurrent lines plus two generic ones; the quadruple point is
    # resonant exactly when its four exponents cancel, which forces the two
    # extra exponents to cancel between themselves
    lines = [Line.from_slope_intercept(s, 0) for s in (0, 1, -1, 2)]
    lines += [Line.from_slope_intercept(3, 7), Line.from_slope_intercept(4, 11)]
    arr = Arrangement(lines)
    ls = LocalSystem(order=8, exponents=[1, 2, 2, 3, 3, 5])
    assert ls.validate(arr).ok
    assert cdo_bound(arr, resonant_points(arr, ls), 0) == 2  # 4 - 2 at the quadruple point
    assert h1(arr, ls).h1 <= 2


def test_pencil_not_covered():
    arr = pencil(4)
    ls = LocalSystem(order=4, exponents=[1, 1, 1, 1])
    res = resonant_points(arr, ls)
    with pytest.raises(PencilNotCovered):
        r0_bound(arr, res, 0)
    with pytest.raises(PencilNotCovered):
        beta_certificate(h1(arr, ls), ls, 0)
    # the sum bound still applies and is attained
    assert cdo_bound(arr, res, 0) == 2
    assert h1(arr, ls).h1 == 2


def test_beta_certificate_quadrilateral(quadrilateral, quadrilateral_system):
    rep = h1(quadrilateral, quadrilateral_system)
    for lid in range(6):
        cert = beta_certificate(rep, quadrilateral_system, lid)
        assert cert.ok
        assert cert.n_r0 == 2 and cert.n_a_prime == 4
        assert len(set(cert.neighbors.values())) == 3
        assert cert.family_rank == 3
        assert cert.bound_value == 1  # equals max(0, #R0 - 1) here, and h1


def test_beta_certificate_formula_specializations(quadrilateral, quadrilateral_system):
    cert = beta_certificate(h1(quadrilateral, quadrilateral_system), quadrilateral_system, 0)
    for qid, resonant_flag, vec in cert.betas:
        assert vec, "a neighbor always contributes a nonzero vector"
    # non-resonant double-point neighbors contribute plain differences,
    # whose consecutive-difference members are recorded
    for _qid, diff in cert.extra_members:
        assert diff


def test_a_member_moved_off_the_row_space_fails_membership(monkeypatch, quadrilateral, quadrilateral_system):
    # h1 = 1, so the row space is a hyperplane of the 12 angle columns: the
    # first beta vector plus the unit vector e_c stays in it exactly when
    # e_c does, which the frame's own relation rows decide
    rep = h1(quadrilateral, quadrilateral_system)
    narr, system = rep.arrangement, quadrilateral_system
    frame = adapted_frame(narr, 0)
    res = resonant_points(frame, system)
    basis, rows = relation_matrix(frame, system, res, adapted_chambers(narr, rep.chambers, frame, 0))
    rel = [r.coeffs for r in rows]
    assert rank_exponent_maps(rel, 3) == rep.rank_K == basis.dim - 1
    real = bounds.flatten_rows
    outside = 0
    for c in range(basis.dim):

        def moved(members, c=c):
            first = dict(members[0])
            first[c] = first.get(c, CycloNumber.zero(3)) + 1
            return real([first] + members[1:])

        monkeypatch.setattr(bounds, "flatten_rows", moved)
        cert = beta_certificate(rep, system, 0)
        off = rank_exponent_maps(rel + [{c * 3: 1}], 3) > rep.rank_K
        assert cert.all_in_kernel is not off and cert.ok is not off, c
        outside += off
    assert outside > 0


def test_bounds_dominate_h1_on_fuzz():
    insts = corpus(seed=321, count=15, n_range=(3, 6), d_range=(2, 6))
    for i, inst in enumerate(insts):
        value = h1(inst.arrangement, inst.system, seed=i).h1
        pencil_case = len(inst.arrangement.points) <= 1
        res = resonant_points(inst.arrangement, inst.system)
        for lid in range(inst.arrangement.n):
            assert value <= cdo_bound(inst.arrangement, res, lid)
            if not pencil_case:
                assert value <= r0_bound(inst.arrangement, res, lid)


def test_beta_certificates_on_fuzz():
    # the adapted frame keeps every point's line ids, which are all that
    # resonance reads, so its resonant points on l0 are the basic frame's;
    # a line with none gets 0 <= 0 without a frame, and one with some the
    # full certificate
    insts = corpus(seed=654, count=10, n_range=(3, 6), d_range=(2, 6))
    insts += corpus(20240810, 150) + corpus(7, 150) + sharp_corpus(3, 100) + corpus(20240810, 100, n_range=(3, 6))
    vacuous = full = 0
    for i, inst in enumerate(insts):
        if len(inst.arrangement.points) <= 1:
            continue
        rep = h1(inst.arrangement, inst.system, i)
        narr, basic = rep.arrangement, rep.resonant
        for lid in range(inst.arrangement.n):
            frame = adapted_frame(narr, lid)
            adapted = resonant_points(frame, inst.system)
            assert {frozenset(frame.points[pid].line_ids) for pid in adapted.on_line(lid)} == {
                frozenset(narr.points[pid].line_ids) for pid in basic.on_line(lid)
            }, (i, lid)
            cert = beta_certificate(rep, inst.system, lid)
            assert cert.ok, (i, lid)
            if basic.on_line(lid):
                assert cert.n_r0 == len(basic.on_line(lid)) and cert.betas, (i, lid)
                full += 1
            else:
                assert cert == BetaCertificate(lid, 0, 0, {}, [], [], True, 0, True, True, 0), (i, lid)
                vacuous += 1
    assert vacuous > 2000 and full > 300


def test_sharp_pair_report_triangle(generic_triangle):
    ls = LocalSystem(order=3, exponents=[1, 1, 1])
    value = h1(generic_triangle, ls).h1
    rep = sharp_pair_report(generic_triangle, ls, value)
    assert rep.bound_applicable and rep.bound_satisfied
    assert value == 0
    assert rep.constant_order == 3
    assert not rep.vanishing_applicable  # odd order


def test_sharp_pair_report_quadrilateral(quadrilateral, quadrilateral_system):
    value = h1(quadrilateral, quadrilateral_system).h1
    rep = sharp_pair_report(quadrilateral, quadrilateral_system, value)
    assert rep.bound_applicable and rep.bound_satisfied and value == 1
    # the report checks the value it is given
    assert sharp_pair_report(quadrilateral, quadrilateral_system, 2).bound_satisfied is False


def test_sharp_pair_report_even_constant(quadrilateral):
    for d in (2, 6):
        ls = LocalSystem(order=d, exponents=[1] * 6)
        value = h1(quadrilateral, ls).h1
        rep = sharp_pair_report(quadrilateral, ls, value)
        assert rep.vanishing_applicable
        assert rep.vanishing_satisfied
        assert value == 0
        assert sharp_pair_report(quadrilateral, ls, 1).vanishing_satisfied is False


def test_sharp_pair_report_pencil_not_applicable():
    arr = pencil(5)
    ls = LocalSystem(order=5, exponents=[1] * 5)
    value = h1(arr, ls).h1
    rep = sharp_pair_report(arr, ls, value)
    assert rep.pairs  # vacuously sharp pairs exist
    assert not rep.bound_applicable  # but the theorem does not cover pencils
    assert value == 3


def test_sharp_fuzz_families():
    for i, inst in enumerate(sharp_corpus(seed=42, count=8)):
        value = h1(inst.arrangement, inst.system, seed=i).h1
        rep = sharp_pair_report(inst.arrangement, inst.system, value)
        assert rep.bound_applicable
        assert rep.bound_satisfied
    for i, inst in enumerate(sharp_corpus(seed=43, count=5, even_constant=True)):
        value = h1(inst.arrangement, inst.system, seed=i).h1
        rep = sharp_pair_report(inst.arrangement, inst.system, value)
        assert rep.vanishing_applicable and rep.vanishing_satisfied
