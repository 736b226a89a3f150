"""How often one report or one trial runs each expensive step.

h1, the chambers, the resonant set and the sharp pairs are computed once per
basic frame and handed to the checks (a certificate selects its chambers from
that walk), and the intersection points once per input: every other frame,
the Fox oracle's chart included, maps them.  A normalization transforms only
the candidate map its integer screen accepts, and a frame keeps its walk, so
the exact and float h1 of a trial share one.  Each counted function is wrapped
wherever its object is bound (``from .geometry import chambers`` copies the
binding into the importing module), so calls from every module are seen.
"""

import importlib
import importlib.util
import json
import sys
from collections import Counter
from pathlib import Path

import pytest

from arrhom import bounds, cyclo, fox, fuzz, geometry, homology, local_system
from arrhom.cli import main
from arrhom.cyclo import CycloNumber
from arrhom.errors import NotALocalSystem, NotNormalized, PencilNotCovered
from arrhom.fuzz import run_trial
from arrhom.geometry import Arrangement, Line
from arrhom.local_system import LocalSystem
from conftest import GRID_LINES, QUADRILATERAL_LINES, pencil

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


def test_one_report_computes_each_fact_once(calls, quad_file, capsys, monkeypatch):
    _track(monkeypatch, calls, "transform", geometry, "transform")
    _track(monkeypatch, calls, "walk", geometry, "_walk")
    _track(monkeypatch, calls, "sampled_signs", geometry, "_sampled_signs")
    assert main(["h1", quad_file, "--no-oracle"]) == 0
    assert calls == {
        "h1": 1,
        "chambers": 1,
        "walk": 1,
        "sampled_signs": 1,
        "normalize": 1,
        "transform": 1,
        "sharp_pairs": 1,
        "intersections": 1,
    }


def test_one_report_finds_the_resonant_points_once(monkeypatch, quad_file, capsys):
    # the per-line bounds read the basic frame's resonant set from the report
    counter = Counter()
    _track(monkeypatch, counter, "resonant_points", local_system, "resonant_points")
    assert main(["h1", quad_file, "--no-oracle"]) == 0
    assert json.loads(capsys.readouterr().out)["bounds"]["min"] == 1
    assert counter == {"resonant_points": 1}


def test_a_report_reads_its_chamber_rows_off_the_walk(monkeypatch, tmp_path, capsys, quadrilateral_system):
    # a chamber's entry is the point- row's partial product at the corner the
    # walk stored, so a report computes no lambda_coeff and searches no
    # corner; the trial's sector-sum check still weights by lambda_coeff
    counter = Counter()
    _track(monkeypatch, counter, "lambda_coeff", homology, "lambda_coeff")
    real_corner = geometry.Chamber.corner

    def corner(self, point_id):
        counter["corner"] += 1
        return real_corner(self, point_id)

    monkeypatch.setattr(geometry.Chamber, "corner", corner)
    path = tmp_path / "grid.json"
    path.write_text(json.dumps({"lines": GRID_LINES, "local_system": {"order": 3, "exponents": [1] * 9}}))
    assert main(["h1", str(path), "--certificates"]) == 0
    assert json.loads(capsys.readouterr().out)["h1"] == 1
    assert counter == {}
    # a battery trial: oracle, certificates, one extra seed
    result = run_trial(Arrangement(QUADRILATERAL_LINES), quadrilateral_system, with_certificate=True, extra_seeds=1)
    assert result.ok, result.violations
    assert counter["lambda_coeff"] == counter["corner"] > 0


def test_certificates_walk_no_chambers(calls, quad_file, capsys):
    # each certificate selects its chambers from the report's one walk
    assert main(["h1", quad_file, "--no-oracle", "--certificates"]) == 0
    certs = json.loads(capsys.readouterr().out)["beta_certificates"]
    assert len(certs) == 6 and all(c["status"] == "ok" for c in certs)
    assert calls["h1"] == 1
    assert calls["chambers"] == 1
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
    # no normalization search, no intersection of lines and no chamber walk
    transforms = Counter()
    _track(monkeypatch, transforms, "transform", geometry, "transform")
    grid = Arrangement([Line.from_coeffs(*l) for l in GRID_LINES])
    grid_system = LocalSystem(order=3, exponents=[1] * 9)
    for arr, system in ((Arrangement(QUADRILATERAL_LINES), quadrilateral_system), (grid, grid_system)):
        rep = homology.h1(arr, system)
        for l0 in range(rep.arrangement.n):
            calls.clear()
            transforms.clear()
            assert bounds.beta_certificate(rep.arrangement, rep.chambers, system, l0).ok
            assert transforms["transform"] == 1
            assert calls["normalize"] == 0 and calls["intersections"] == 0 and calls["chambers"] == 0


def test_a_line_without_resonant_points_maps_no_frame(monkeypatch):
    # at order 5 only the point of lines 0, 1 and 2 is resonant (1 + 1 + 3),
    # so lines 3-5 get the vacuous certificate from the basic frame alone
    counter = Counter()
    for name, owner, attr in (
        ("transform", geometry, "transform"),
        ("relation_matrix", homology, "relation_matrix"),
        ("resonant_points", local_system, "resonant_points"),
        ("rank_exact", cyclo, "rank_exact"),
    ):
        _track(monkeypatch, counter, name, owner, attr)
    lines = [[0, 1, 0], [1, 0, 0], [1, -1, 0], [1, 1, -1], [1, 0, -1], [0, 1, -1]]
    arr = Arrangement([Line.from_coeffs(*l) for l in lines])
    system = LocalSystem(order=5, exponents=[1, 1, 3, 1, 2, 2])
    rep = homology.h1(arr, system)
    for l0 in range(6):
        counter.clear()
        cert = bounds.beta_certificate(rep.arrangement, rep.chambers, system, l0)
        assert cert.ok and cert.n_r0 == (1 if l0 < 3 else 0)
        if l0 < 3:
            assert counter["transform"] == counter["relation_matrix"] == counter["resonant_points"] == 1
        else:
            assert counter == {}
    # the typed checks still come first along a vacuous line, and a line id
    # that names no line is not taken for one
    for l0 in (-1, 6):
        with pytest.raises(IndexError):
            bounds.beta_certificate(rep.arrangement, rep.chambers, system, l0)
    with pytest.raises(NotNormalized):
        bounds.beta_certificate(arr, rep.chambers, system, 4)
    two = geometry.normalize(pencil(2), 0)[0]
    with pytest.raises(PencilNotCovered):
        bounds.beta_certificate(two, geometry.chambers(two), LocalSystem(order=5, exponents=[1, 4]), 0)
    with pytest.raises(NotALocalSystem):
        bounds.beta_certificate(rep.arrangement, rep.chambers, LocalSystem(order=5, exponents=[1, 1, 3, 1, 2, 1]), 4)


@pytest.mark.parametrize("n", [3, 5, 7])
def test_trial_normalizes_three_times_whatever_n(calls, n):
    # exact, float and one reseeded frame; the certificates normalize and
    # walk nothing
    inst = fuzz.corpus(11, 1, n_range=(n, n))[0]
    calls.clear()
    result = run_trial(inst.arrangement, inst.system, all_decones=True, with_certificate=True, extra_seeds=1)
    assert result.ok, result.violations
    assert calls["normalize"] == 3
    assert calls["chambers"] == 3


def test_normalize_transforms_only_the_accepted_candidate(monkeypatch):
    # candidates are screened on the input's integers: one transform per
    # normalize of an input that is not normalized, none for one that is
    transforms = Counter()
    _track(monkeypatch, transforms, "transform", geometry, "transform")
    grid = [Line.from_coeffs(*l) for l in GRID_LINES]
    inputs = [QUADRILATERAL_LINES, grid] + [inst.arrangement.lines for inst in fuzz.corpus(20240810, 40)]
    searched = 0
    for k, lines in enumerate(inputs):
        for seed in (k, k + 7919):
            arr = Arrangement(lines)
            transforms.clear()
            geometry.normalize(arr, seed)
            assert transforms["transform"] == (0 if arr.is_normalized else 1), (k, seed)
            searched += not arr.is_normalized
    assert searched >= 40


def test_trial_walks_each_distinct_frame_once(monkeypatch):
    # the exact and the float h1 share the basic frame and its walk; the
    # reseeded frame is the input itself when the input is normalized; a
    # walk evaluates the line forms at one point and propagates the signs
    walks, frames = Counter(), set()
    _track(monkeypatch, walks, "walk", geometry, "_walk")
    _track(monkeypatch, walks, "sampled_signs", geometry, "_sampled_signs")
    real = geometry.chambers

    def recording(arr):
        frames.add(id(arr))
        return real(arr)

    _rebind(monkeypatch, real, recording)
    normalized = 0
    for i, inst in enumerate(fuzz.corpus(20240810, 30, n_range=(3, 6))):
        arr = Arrangement(inst.arrangement.lines)
        walks.clear()
        frames.clear()
        result = run_trial(arr, inst.system, seed=i, all_decones=arr.n <= 5, with_certificate=True, extra_seeds=1)
        assert result.ok, result.violations
        assert walks["walk"] == len(frames) == (1 if arr.is_normalized else 2), i
        assert walks["sampled_signs"] == walks["walk"], i
        normalized += arr.is_normalized
    assert 0 < normalized < 30


def test_one_certificate_runs_at_most_three_ranks(monkeypatch, quadrilateral, quadrilateral_system):
    # the relation rows, the rows with every member appended, the beta family
    ranks = Counter()
    _track(monkeypatch, ranks, "rank", cyclo, "rank")
    narr = geometry.normalize(quadrilateral, 0)[0]
    cells = geometry.chambers(narr)
    for l0 in range(narr.n):
        ranks.clear()
        cert = bounds.beta_certificate(narr, cells, quadrilateral_system, l0)
        assert cert.ok and cert.betas
        assert ranks["rank"] <= 3


def test_oracle_maps_one_chart_and_intersects_nothing(calls, monkeypatch, generic_triangle):
    # the chart is one integer map of the input's points: no frame is
    # transformed, nothing is intersected, no CycloNumber is built, one
    # sweep of one wiring diagram builds the Fox rows, and they go to the
    # certified core without rank_exact's checks
    work = Counter()
    for name, owner, attr in (
        ("transform", geometry, "transform"),
        ("rank_exact", cyclo, "rank_exact"),
        ("rank_exponent_maps", cyclo, "rank_exponent_maps"),
        ("presentation", fox, "presentation"),
        ("wiring_diagram", fox, "wiring_diagram"),
    ):
        _track(monkeypatch, work, name, owner, attr)
    real_from_terms = CycloNumber.from_terms

    def counting_from_terms(cls, *args):
        work["from_terms"] += 1
        return real_from_terms(*args)

    monkeypatch.setattr(CycloNumber, "from_terms", classmethod(counting_from_terms))
    grid = Arrangement([Line.from_coeffs(*l) for l in GRID_LINES])
    grid_system = LocalSystem(order=3, exponents=[1] * 9)
    grid.points, generic_triangle.points  # the input's points, intersected once
    calls.clear()
    for lid in range(grid.n):  # every grid chart has a vertical line before its shear
        work.clear()
        assert fox.oracle_h1(grid, grid_system, lid) == 1
        assert work == {"presentation": 1, "wiring_diagram": 1, "rank_exponent_maps": 1}
    # decone the triangle y = 0, y = x - 2, y = 3 - x along y = x - 2: the
    # chart (X : Y : X - Y - 2Z) has the lines y = 0 and -x + 5y + 3 = 0,
    # neither vertical, so no shear is composed into the map
    ls = LocalSystem(order=3, exponents=[1, 1, 1])
    work.clear()
    assert fox.oracle_h1(generic_triangle, ls, 1) == 0
    assert work == {"presentation": 1, "wiring_diagram": 1, "rank_exponent_maps": 1}
    assert fox.decone(generic_triangle, ls, 1).lines == (Line(0, 1, 0), Line.from_coeffs(-1, 5, 3))
    assert calls["intersections"] == 0
    # the counters see each kind of work
    work.clear()
    geometry.transform(grid, geometry.mat_identity())
    assert cyclo.rank_exact([{0: CycloNumber.from_terms(3, {1: 1})}]) == 1
    assert work == {"transform": 1, "from_terms": 1, "rank_exact": 1, "rank_exponent_maps": 1}


def test_oracle_hands_the_presentation_rows_to_the_rank_unconverted(monkeypatch):
    # the sweep's flat rows are the rows of d2 that the certified core
    # takes: the same row objects, with no conversion in between
    built, handed = [], []
    real_presentation, real_rank = fox.presentation, cyclo.rank_exponent_maps

    def presentation(*args):
        built.append(real_presentation(*args))
        return built[-1]

    def rank_exponent_maps(rows, *args, **kwargs):
        handed.append(rows)
        return real_rank(rows, *args, **kwargs)

    _rebind(monkeypatch, real_presentation, presentation)
    _rebind(monkeypatch, real_rank, rank_exponent_maps)
    grid = Arrangement([Line.from_coeffs(*l) for l in GRID_LINES])
    assert fox.oracle_h1(grid, LocalSystem(order=3, exponents=[1] * 9), 0) == 1
    (pres,), (rows,) = built, handed
    assert rows is pres.relators
    assert all(type(key) is int and type(c) is int for row in rows for key, c in row.items())


def test_grid_report_does_no_power_basis_reduction_on_the_hot_path(monkeypatch, tmp_path, capsys):
    # Fox rows, relation rows and exact rank work on exponent maps; only the
    # cold path (equality and zero tests of long maps, printing) reduces mod Phi_d
    inside, reductions, entered = [], Counter(), Counter()
    real = cyclo._power_basis

    def counting(*args):
        reductions[inside[-1] if inside else "elsewhere"] += 1
        return real(*args)

    monkeypatch.setattr(cyclo, "_power_basis", counting)
    for owner, attr in (
        (fox, "presentation"),
        (homology, "relation_matrix"),
        (cyclo, "rank_exact"),
        (cyclo, "rank_exponent_maps"),
    ):
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
    assert entered["presentation"] == 1 and entered["relation_matrix"] == 1
    # K through rank_exact's checks, the Fox oracle's d2 straight to the core
    assert entered["rank_exact"] == 1 and entered["rank_exponent_maps"] == 2
    assert set(reductions) <= {"elsewhere"}
    assert CycloNumber.from_terms(3, {0: 1, 1: 1, 2: 1}) == 0  # the counter sees a cold-path reduction
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
    assert len(entries) == 1  # K; the Fox oracle's d2 goes to the certified core directly
    assert entries[0] == sum(len(r.coeffs) for r in rep.rows) < rep.num_rows * rep.dim_A


def _load_tracer():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_every_name_the_benchmark_tracer_wraps_resolves():
    # perfbench/tracer.py wraps functions by dotted name, resolved as
    # Tracer.install does: the module arrhom.<first part>, then getattr for
    # each further part; a deleted or renamed function must fail here, not
    # only in a traced benchmark run
    tracer = _load_tracer()
    assert tracer.SPANNED and tracer.COUNTED
    for name in tracer.SPANNED + tracer.COUNTED:
        mod_name, *parts = name.split(".")
        owner = importlib.import_module(f"arrhom.{mod_name}")
        for attr in parts:
            assert hasattr(owner, attr), name
            owner = getattr(owner, attr)
        assert callable(owner), name


def test_the_benchmark_tracer_counts_cyclo_inverse(quad_file, capsys):
    # the battery corpus never divides by a partial product, so the counted
    # CycloNumber.inverse is checked here: the order-3 quadrilateral's
    # certificates divide at resonant neighbour points
    tracer = _load_tracer().Tracer()
    tracer.install()
    try:
        assert main(["bounds", quad_file]) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert tracer.calls["cyclo.CycloNumber.inverse"] > 0
    assert tracer.calls["bounds.beta_certificate"] == 6
