"""How often one report or one trial runs each expensive step.

h1, the chambers, the resonant set and the sharp pairs are computed once per
frame and handed to the checks, and the intersection points once per input:
every other frame, the Fox oracle's chart included, maps them.  Each counted function is wrapped wherever
its object is bound (``from .geometry import chambers`` copies the binding
into the importing module), so calls from every module are seen.
"""

import json
import sys
from collections import Counter

import pytest

from arrhom import bounds, cyclo, fox, fuzz, geometry, homology
from arrhom.cli import main
from arrhom.cyclo import CycloNumber
from arrhom.fuzz import run_trial
from arrhom.geometry import Arrangement, Line
from arrhom.local_system import LocalSystem
from conftest import GRID_LINES, QUADRILATERAL_LINES

TRACKED = {
    "h1": (homology, "h1"),
    "chambers": (geometry, "chambers"),
    "normalize": (geometry, "normalize"),
    "sharp_pairs": (geometry, "sharp_pairs"),
    "intersections": (geometry, "intersections"),
}


def _rebind(monkeypatch, original, wrapper):
    """Replace every binding of ``original`` in the loaded arrhom modules."""
    modules = [
        m for k, m in list(sys.modules.items())
        if m is not None and (k == "arrhom" or k.startswith("arrhom."))
    ]
    for mod in modules:
        for key, value in list(vars(mod).items()):
            if value is original:
                monkeypatch.setattr(mod, key, wrapper)


def _track(monkeypatch, counter, name, owner, attr):
    """Count the calls of ``owner.attr`` under ``name``, from every module."""
    original = getattr(owner, attr)

    def wrapper(*args, **kwargs):
        counter[name] += 1
        return original(*args, **kwargs)

    _rebind(monkeypatch, original, wrapper)


@pytest.fixture
def calls(monkeypatch):
    counter = Counter()
    for name, (owner, attr) in TRACKED.items():
        _track(monkeypatch, counter, name, owner, attr)
    return counter


@pytest.fixture
def quad_file(tmp_path):
    doc = {
        "lines": [[l.a, l.b, l.c] for l in QUADRILATERAL_LINES],
        "local_system": {"order": 3, "exponents": [1] * 6},
    }
    path = tmp_path / "quad.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_one_report_computes_each_fact_once(calls, quad_file, capsys):
    assert main(["h1", quad_file, "--no-oracle"]) == 0
    assert calls == {"h1": 1, "chambers": 1, "normalize": 1, "sharp_pairs": 1, "intersections": 1}


def test_certificates_add_one_chamber_walk_each(calls, quad_file, capsys):
    assert main(["h1", quad_file, "--no-oracle", "--certificates"]) == 0
    certs = json.loads(capsys.readouterr().out)["beta_certificates"]
    built = sum(1 for c in certs if not c["status"].startswith("unavailable"))
    assert built > 0
    assert calls["h1"] == 1
    assert calls["chambers"] == 1 + built
    assert calls["intersections"] == 1  # the input's; each frame maps its points


def test_trial_runs_h1_once_per_frame(calls, quadrilateral_system, monkeypatch):
    walks_in_sector_sums = []
    original = fuzz.sector_sums

    def spy(*args, **kwargs):
        before = calls["chambers"]
        out = original(*args, **kwargs)
        walks_in_sector_sums.append(calls["chambers"] - before)
        return out

    monkeypatch.setattr(fuzz, "sector_sums", spy)
    result = run_trial(Arrangement(QUADRILATERAL_LINES), quadrilateral_system, extra_seeds=1)
    assert result.ok, result.violations
    assert calls["h1"] == 3  # exact, float, one reseeded frame
    assert walks_in_sector_sums == [0]
    assert calls["intersections"] == 1


def test_trials_intersect_each_input_once(calls):
    insts = fuzz.corpus(20240810, 12, n_range=(3, 6))
    calls.clear()
    for i, inst in enumerate(insts):
        arr = Arrangement(inst.arrangement.lines)
        run_trial(arr, inst.system, seed=i, all_decones=arr.n <= 5, with_certificate=True, extra_seeds=1)
    assert calls["intersections"] == len(insts)


def test_a_certificate_maps_the_basic_frame_once(calls, monkeypatch, quadrilateral_system):
    # the adapted frame is one projective map of the report's basic frame:
    # no normalization search and no intersection of lines
    transforms = Counter()
    _track(monkeypatch, transforms, "transform", geometry, "transform")
    grid = Arrangement([Line.from_coeffs(*l) for l in GRID_LINES])
    grid_system = LocalSystem(order=3, exponents=[1] * 9)
    for arr, system in ((Arrangement(QUADRILATERAL_LINES), quadrilateral_system), (grid, grid_system)):
        narr = homology.h1(arr, system).arrangement
        for l0 in range(narr.n):
            calls.clear()
            transforms.clear()
            assert bounds.beta_certificate(narr, system, l0).ok
            assert transforms["transform"] == 1
            assert calls["normalize"] == 0 and calls["intersections"] == 0


@pytest.mark.parametrize("n", [3, 5, 7])
def test_trial_normalizes_three_times_whatever_n(calls, n):
    # exact, float and one reseeded frame; the certificates normalize nothing
    inst = fuzz.corpus(11, 1, n_range=(n, n))[0]
    calls.clear()
    result = run_trial(inst.arrangement, inst.system, all_decones=True, with_certificate=True, extra_seeds=1)
    assert result.ok, result.violations
    assert calls["normalize"] == 3


def test_one_certificate_runs_at_most_three_ranks(monkeypatch, quadrilateral, quadrilateral_system):
    # the relation rows, the rows with every member appended, the beta family
    ranks = Counter()
    _track(monkeypatch, ranks, "rank", cyclo, "rank")
    narr = geometry.normalize(quadrilateral, 0)[0]
    for l0 in range(narr.n):
        ranks.clear()
        cert = bounds.beta_certificate(narr, quadrilateral_system, l0)
        assert cert.ok and cert.betas
        assert ranks["rank"] <= 3


def test_oracle_maps_one_chart_and_intersects_nothing(calls, monkeypatch, generic_triangle):
    charts = Counter()
    _track(monkeypatch, charts, "transform", geometry, "transform")
    grid = Arrangement([Line.from_coeffs(*l) for l in GRID_LINES])
    grid_system = LocalSystem(order=3, exponents=[1] * 9)
    grid.points, generic_triangle.points  # the input's points, intersected once
    calls.clear()
    for lid in range(grid.n):  # every grid chart has a vertical line before its shear
        charts.clear()
        assert fox.oracle_h1(grid, grid_system, lid) == 1
        assert charts["transform"] == 2
    # decone the triangle y = 0, y = x - 2, y = 3 - x along y = x - 2: the
    # chart (X : Y : X - Y - 2Z) has the lines y = 0 and -x + 5y + 3 = 0,
    # neither vertical, so no shear follows the first map
    ls = LocalSystem(order=3, exponents=[1, 1, 1])
    charts.clear()
    assert fox.oracle_h1(generic_triangle, ls, 1) == 0
    assert charts["transform"] == 1
    assert fox.decone(generic_triangle, ls, 1).lines == (Line(0, 1, 0), Line.from_coeffs(-1, 5, 3))
    assert calls["intersections"] == 0


def test_grid_report_does_no_power_basis_reduction_on_the_hot_path(monkeypatch, tmp_path, capsys):
    # Fox rows, relation rows and exact rank work on exponent maps; only the
    # cold path (equality of long maps, hashing, printing) reduces mod Phi_d
    inside, reductions, entered = [], Counter(), Counter()
    real = cyclo._power_basis

    def counting(*args):
        reductions[inside[-1] if inside else "elsewhere"] += 1
        return real(*args)

    monkeypatch.setattr(cyclo, "_power_basis", counting)
    for owner, attr in ((fox, "_fox_row"), (homology, "relation_matrix"), (cyclo, "rank_exact")):
        original = getattr(owner, attr)

        def wrapper(*args, _fn=original, _name=attr, **kwargs):
            entered[_name] += 1
            inside.append(_name)
            try:
                return _fn(*args, **kwargs)
            finally:
                inside.pop()

        _rebind(monkeypatch, original, wrapper)

    path = tmp_path / "grid.json"
    path.write_text(json.dumps({"lines": GRID_LINES, "local_system": {"order": 3, "exponents": [1] * 9}}))
    assert main(["h1", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["h1"] == 1
    assert entered["_fox_row"] > 0 and entered["relation_matrix"] == 1 and entered["rank_exact"] == 2
    assert set(reductions) <= {"elsewhere"}
    (CycloNumber.zeta(3) + 1).inverse()  # the counter sees a cold-path reduction
    assert reductions["elsewhere"] >= 1


def test_relation_rows_reach_rank_exact_as_built(monkeypatch, tmp_path, capsys):
    # K goes to rank_exact in the rows the builders made: one entry per
    # relation coefficient, and no zero filled in for the angles a row misses
    reports, entries = [], []
    real_h1, real_rank = homology.h1, cyclo.rank_exact

    def recording_h1(*args, **kwargs):
        reports.append(real_h1(*args, **kwargs))
        return reports[-1]

    def recording_rank(rows, *args, **kwargs):
        entries.append(sum(len(r) for r in rows))
        return real_rank(rows, *args, **kwargs)

    _rebind(monkeypatch, real_h1, recording_h1)
    _rebind(monkeypatch, real_rank, recording_rank)
    path = tmp_path / "grid.json"
    path.write_text(json.dumps({"lines": GRID_LINES, "local_system": {"order": 3, "exponents": [1] * 9}}))
    assert main(["h1", str(path)]) == 0
    capsys.readouterr()
    (rep,) = reports
    assert len(entries) == 2  # K, then the Fox oracle's d2
    assert entries[0] == sum(len(r.coeffs) for r in rep.rows) < rep.num_rows * rep.dim_A
