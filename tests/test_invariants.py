"""Internal invariants raise InvariantError, which `python -O` keeps.

Each check is made to fail by injecting a fault into the data it guards.
"""

import ast
import json
from dataclasses import replace
from pathlib import Path

import pytest

import arrhom
from arrhom import bounds, fox, geometry
from arrhom.cli import main
from arrhom.errors import ArrhomError, InvariantError
from arrhom.geometry import Arrangement, IntersectionPoint, normalize
from arrhom.homology import AngleBasis, h1, point_rows
from arrhom.local_system import LocalSystem, ResonantSet
from frame_helpers import triangular_grid

SRC = Path(arrhom.__file__).resolve().parent


def test_no_bare_assert_in_the_package():
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_invariant_error_is_a_package_error():
    assert issubclass(InvariantError, ArrhomError)


def test_point_rows_checks_the_resonance_product(quadrilateral, quadrilateral_system, monkeypatch):
    # a double point posing as resonant: its monodromy product is w^2, not 1
    monkeypatch.setattr(quadrilateral_system, "is_resonant_at", lambda p: True)
    narr, _ = normalize(quadrilateral, 0)
    double = next(p.index for p in narr.points if p.multiplicity == 2)
    basis = AngleBasis(narr, ResonantSet((double,), ()))
    with pytest.raises(InvariantError, match="product at resonant point"):
        point_rows(narr, quadrilateral_system, basis, double)


def test_beta_certificate_checks_the_base_line_is_slope_minimal(
    quadrilateral, quadrilateral_system, monkeypatch
):
    real = bounds.relation_matrix

    def reversed_basis(*args):
        basis, rows = real(*args)
        lines_at = basis.lines_at
        basis.lines_at = lambda pid: tuple(reversed(lines_at(pid)))
        return basis, rows

    monkeypatch.setattr(bounds, "relation_matrix", reversed_basis)
    rep = h1(quadrilateral, quadrilateral_system)
    with pytest.raises(InvariantError, match="slope-minimal"):
        bounds.beta_certificate(rep, quadrilateral_system, 0)


def test_beta_certificate_checks_each_line_has_a_lowest_point(
    quadrilateral, quadrilateral_system, monkeypatch
):
    real = bounds.adapted_frame

    def without_points_off_base(narr, l0):
        frame = real(narr, l0)
        frame._points = [p for p in frame.points if l0 in p.line_ids]
        return frame

    monkeypatch.setattr(bounds, "adapted_frame", without_points_off_base)
    rep = h1(quadrilateral, quadrilateral_system)
    with pytest.raises(InvariantError, match="no unique lowest point"):
        bounds.beta_certificate(rep, quadrilateral_system, 0)


def test_beta_certificate_checks_the_lowest_point_is_unique(
    quadrilateral, quadrilateral_system, monkeypatch
):
    # every point off the base line gets a twin at the same place, so each
    # line of A' has two lowest points; a mapped frame cannot have them
    # (transform rejects coincident points), so the points are given directly
    real = bounds.adapted_frame

    def with_twin_points(narr, l0):
        frame = real(narr, l0)
        off = [p for p in frame.points if l0 not in p.line_ids]
        twins = [IntersectionPoint(len(frame.points) + k, p.coords, p.line_ids) for k, p in enumerate(off)]
        return Arrangement(frame.lines, frame.points + twins)

    monkeypatch.setattr(bounds, "adapted_frame", with_twin_points)
    rep = h1(quadrilateral, quadrilateral_system)
    with pytest.raises(InvariantError, match="no unique lowest point"):
        bounds.beta_certificate(rep, quadrilateral_system, 0)


@pytest.mark.parametrize("a", [None, 4])
def test_beta_certificate_checks_the_report_has_the_frames_angles(a, quadrilateral, quadrilateral_system):
    # a report whose dim A is not the adapted frame's angle count, in both
    # branches: the quadrilateral (h1 = 1) builds the frame's relation rows,
    # the 13-line grid (h1 = 0) does not
    if a is None:
        arr, system = quadrilateral, quadrilateral_system
    else:
        arr, system = triangular_grid(a), LocalSystem(order=3, exponents=[1] * 11 + [2, 2])
    rep = h1(arr, system)
    assert rep.h1 == (1 if a is None else 0)
    assert bounds.beta_certificate(rep, system, 0).ok
    with pytest.raises(InvariantError, match="angles"):
        bounds.beta_certificate(replace(rep, dim_A=rep.dim_A + 1), system, 0)


def test_beta_certificate_checks_its_rows_reach_the_reports_rank(monkeypatch, quadrilateral, quadrilateral_system):
    # appending members never lowers a rank, so rows with members below the
    # report's rank_K mean the frame's rows do not have rank K
    rep = h1(quadrilateral, quadrilateral_system)
    monkeypatch.setattr(bounds, "rank_exponent_maps", lambda rows, order: rep.rank_K - 1)
    with pytest.raises(InvariantError, match="rank K"):
        bounds.beta_certificate(rep, quadrilateral_system, 0)


def test_decone_checks_the_monodromy_at_infinity(quadrilateral):
    # exponents that do not sum to 0 mod d: around infinity the kept lines
    # multiply to zeta^5, not to the removed line's inverse zeta^-1
    fox.decone(quadrilateral, LocalSystem(order=7, exponents=[1, 1, 1, 1, 1, 2]), 0)
    with pytest.raises(InvariantError, match="around infinity"):
        fox.decone(quadrilateral, LocalSystem(order=7, exponents=[1] * 6), 0)


def _with_points(arr, points):
    """The lines of ``arr`` with the given intersection points."""
    return Arrangement(arr.lines, [IntersectionPoint(k, c, ids) for k, (c, ids) in enumerate(points)])


def test_decone_checks_each_mapped_point_lies_on_its_lines(quadrilateral, quadrilateral_system):
    points = [(p.coords, p.line_ids) for p in quadrilateral.points]
    fox.decone(_with_points(quadrilateral, points), quadrilateral_system, 0)
    off = next(k for k, (_c, ids) in enumerate(points) if 0 not in ids)
    (X, Y, Z), ids = points[off]
    for fault in (((X + 1, Y, Z), ids), ((X, Y, Z), ids[:-1])):
        points[off] = fault
        with pytest.raises(InvariantError, match="mapped point .* lies on lines"):
            fox.decone(_with_points(quadrilateral, points), quadrilateral_system, 0)
    # a point that the removed line passes through, under the ids of another
    on = next(k for k, (_c, ids) in enumerate(points) if 0 in ids)
    points[off] = (points[on][0], ids)
    with pytest.raises(InvariantError, match="mapped point .* lies on lines"):
        fox.decone(_with_points(quadrilateral, points), quadrilateral_system, 0)


def test_decone_checks_mapped_points_are_distinct(quadrilateral, quadrilateral_system):
    points = [(p.coords, p.line_ids) for p in quadrilateral.points]
    twice = points + [next(g for g in points if 0 not in g[1])]
    with pytest.raises(InvariantError, match="coincide"):
        fox.decone(_with_points(quadrilateral, twice), quadrilateral_system, 0)


def test_decone_checks_no_line_is_vertical(monkeypatch, quadrilateral, quadrilateral_system):
    # without the shear, the lines x = 0 and x = 1 stay vertical in the
    # chart that removes y = 0
    fox.decone(quadrilateral, quadrilateral_system, 0)
    monkeypatch.setattr(fox, "_shear", lambda forms: 0)
    with pytest.raises(InvariantError, match="vertical"):
        fox.decone(quadrilateral, quadrilateral_system, 0)


def test_wiring_diagram_checks_crossing_wires_are_adjacent(quadrilateral, quadrilateral_system):
    # one crossing event of the bottom and the top wire, with wires between
    dec = fox.decone(quadrilateral, quadrilateral_system, 0)
    order = fox.wiring_diagram(dec).initial_order
    assert len(order) >= 3
    far_apart = replace(dec, crossings=(((0, 0, 1), tuple(sorted((order[0], order[-1])))),))
    with pytest.raises(InvariantError, match="not adjacent"):
        fox.wiring_diagram(far_apart)


def _perturb_mapped_point(monkeypatch, which):
    """Shift the image of the ``which``-th point a frame change maps."""
    real = geometry._map_points
    mapped = []

    def faulty(N, coords):
        out = real(N, coords)
        k = which - len(mapped)
        mapped.extend(out)
        if 0 <= k < len(out):
            X, Y, Z = out[k]
            out[k] = (X + 1, Y, Z)
        return out

    monkeypatch.setattr(geometry, "_map_points", faulty)


@pytest.mark.parametrize("which", [0, 3, 6])
def test_transform_checks_each_mapped_point_lies_on_its_lines(quadrilateral, monkeypatch, which):
    # the quadrilateral has points at infinity, so its basic frame is a real
    # projective change that maps all seven points
    _perturb_mapped_point(monkeypatch, which)
    with pytest.raises(InvariantError, match="mapped point .* lies on lines"):
        normalize(quadrilateral, 0)


def test_transform_checks_mapped_points_are_distinct(quadrilateral):
    groups = [(p.coords, p.line_ids) for p in quadrilateral.points]
    geometry._figure(quadrilateral.lines, None, groups, check=True)
    twice = groups + [groups[0]]
    with pytest.raises(InvariantError, match="coincide"):
        geometry._figure(quadrilateral.lines, None, twice, check=True)


def test_invariant_failure_exits_3(tmp_path, capsys, monkeypatch):
    # with the admissibility check bypassed, exponents that do not sum to
    # 0 mod d reach the chart's check of the monodromy around infinity
    monkeypatch.setattr(LocalSystem, "require_admissible", lambda self, arr: None)
    path = tmp_path / "quad.json"
    path.write_text(
        json.dumps(
            {
                "lines": [[0, 1, 0], [1, 0, 0], [1, -1, 0], [1, 1, -1], [1, 0, -1], [0, 1, -1]],
                "local_system": {"order": 3, "exponents": [1] * 5 + [2]},
            }
        )
    )
    assert main(["oracle", str(path)]) == 3
    assert "monodromy around infinity" in capsys.readouterr().err
