"""Internal invariants raise InvariantError, which `python -O` keeps.

Each check is made to fail by injecting a fault into the data it guards.
"""

import ast
import json
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

import arrhom
from arrhom import bounds, cyclo, fox, geometry
from arrhom.cli import main
from arrhom.errors import ArrhomError, InvariantError
from arrhom.geometry import Arrangement, IntersectionPoint, normalize
from arrhom.homology import angle_basis, point_rows
from arrhom.local_system import LocalSystem, ResonantSet

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
    basis = angle_basis(narr, ResonantSet((double,), ()))
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
    narr = normalize(quadrilateral, 0)[0]
    with pytest.raises(InvariantError, match="slope-minimal"):
        bounds.beta_certificate(narr, geometry.chambers(narr), quadrilateral_system, 0)


def test_beta_certificate_checks_each_line_has_a_lowest_point(
    quadrilateral, quadrilateral_system, monkeypatch
):
    real = bounds.adapted_frame

    def without_points_off_base(narr, l0):
        frame = real(narr, l0)
        frame._points = [p for p in frame.points if l0 in p.line_ids]
        return frame

    monkeypatch.setattr(bounds, "adapted_frame", without_points_off_base)
    narr = normalize(quadrilateral, 0)[0]
    with pytest.raises(InvariantError, match="no unique lowest point"):
        bounds.beta_certificate(narr, geometry.chambers(narr), quadrilateral_system, 0)


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
    narr = normalize(quadrilateral, 0)[0]
    with pytest.raises(InvariantError, match="no unique lowest point"):
        bounds.beta_certificate(narr, geometry.chambers(narr), quadrilateral_system, 0)


def test_decone_checks_the_monodromy_at_infinity(quadrilateral, quadrilateral_system, monkeypatch):
    monkeypatch.setattr(quadrilateral_system, "m_inverse", lambda i: quadrilateral_system.one())
    with pytest.raises(InvariantError, match="around infinity"):
        fox.decone(quadrilateral, quadrilateral_system, 0)


def test_wiring_diagram_checks_crossing_wires_are_adjacent(quadrilateral, quadrilateral_system):
    # one crossing event of the bottom and the top wire, with wires between
    dec = fox.decone(quadrilateral, quadrilateral_system, 0)
    order = fox.wiring_diagram(dec).initial_order
    assert len(order) >= 3
    far_apart = replace(dec, crossings=(((Fraction(0), Fraction(0)), (order[0], order[-1])),))
    with pytest.raises(InvariantError, match="not adjacent"):
        fox.wiring_diagram(far_apart)


def test_cyclotomic_polynomial_checks_exact_division(monkeypatch):
    monkeypatch.setattr(cyclo, "_poly_divmod", lambda num, den: ([1], [1]))
    with pytest.raises(InvariantError, match="not divisible"):
        cyclo.cyclotomic_polynomial.__wrapped__(12)


def _perturb_mapped_point(monkeypatch, which):
    """Shift the image of the ``which``-th point a frame change maps."""
    real = geometry._map_point
    mapped = []

    def faulty(N, P):
        X, Y, Z = real(N, P)
        mapped.append(P)
        return (X + 1, Y, Z) if len(mapped) == which + 1 else (X, Y, Z)

    monkeypatch.setattr(geometry, "_map_point", faulty)


@pytest.mark.parametrize("which", [0, 3, 6])
def test_transform_checks_each_mapped_point_lies_on_its_lines(quadrilateral, monkeypatch, which):
    # the quadrilateral has points at infinity, so its basic frame is a real
    # projective change that maps all seven points
    _perturb_mapped_point(monkeypatch, which)
    with pytest.raises(InvariantError, match="mapped point .* lies on lines"):
        normalize(quadrilateral, 0)


def test_transform_checks_mapped_points_are_distinct(quadrilateral):
    pts = quadrilateral.points
    geometry._check_mapped(quadrilateral.lines, pts)
    twice = pts + [IntersectionPoint(len(pts), pts[0].coords, pts[0].line_ids)]
    with pytest.raises(InvariantError, match="coincide"):
        geometry._check_mapped(quadrilateral.lines, twice)


def test_invariant_failure_exits_3(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(LocalSystem, "m_inverse", lambda self, i: self.one())
    path = tmp_path / "quad.json"
    path.write_text(
        json.dumps(
            {
                "lines": [[0, 1, 0], [1, 0, 0], [1, -1, 0], [1, 1, -1], [1, 0, -1], [0, 1, -1]],
                "local_system": {"order": 3, "exponents": [1] * 6},
            }
        )
    )
    assert main(["oracle", str(path)]) == 3
    assert "monodromy around infinity" in capsys.readouterr().err
