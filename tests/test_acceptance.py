"""Acceptance suite.

One test per acceptance criterion, each printing a PASS/FAIL line.  The
randomized corpora are fixed-seed and shared across criteria:

* 200 general instances, 3 to 8 lines, orders 2 to 6;
* 100 sharp-pair instances plus 40 even-constant-order sharp instances.

Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import time

import pytest

from arrhom.bounds import beta_certificate, cdo_bound, r0_bound
from arrhom.fox import oracle_h1
from arrhom.fuzz import corpus, sharp_corpus
from arrhom.geometry import Arrangement, Line, zaslavsky_bounded_count
from arrhom.homology import h1, point_rows, sector_sums
from arrhom.local_system import LocalSystem, resonant_points
from frame_helpers import row_values

GENERAL_SEED = 20240810
SHARP_SEED = 424242
EVEN_SEED = 515151


def _report(num, ok, text):
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, text


@pytest.fixture(scope="session")
def general_corpus():
    return corpus(GENERAL_SEED, 200, n_range=(3, 8), d_range=(2, 6))


@pytest.fixture(scope="session")
def general_reports(general_corpus):
    return [
        h1(inst.arrangement, inst.system, seed=i)
        for i, inst in enumerate(general_corpus)
    ]


@pytest.fixture(scope="session")
def sharp_instances():
    return sharp_corpus(SHARP_SEED, 100, n_range=(3, 8))


@pytest.fixture(scope="session")
def even_sharp_instances():
    return sharp_corpus(EVEN_SEED, 40, n_range=(3, 8), even_constant=True)


def test_criterion_1_quadrilateral_example():
    lines = [
        Line.from_coeffs(0, 1, 0),
        Line.from_coeffs(1, 0, 0),
        Line.from_coeffs(1, -1, 0),
        Line.from_coeffs(1, 1, -1),
        Line.from_coeffs(1, 0, -1),
        Line.from_coeffs(0, 1, -1),
    ]
    arr = Arrangement(lines)
    system = LocalSystem(order=3, exponents=[1] * 6)
    t0 = time.perf_counter()
    rep = h1(arr, system, seed=0)
    elapsed = time.perf_counter() - t0
    ok = (
        rep.dim_A == 12
        and rep.num_rows == 14
        and rep.num_point_rows == 8
        and rep.num_chamber_rows == 6
        and rep.rank_K == 11
        and rep.h1 == 1
        and elapsed < 1.0
    )
    _report(
        1,
        ok,
        f"quadrilateral with constant order-3 monodromy: dim A={rep.dim_A}, "
        f"matrix {rep.num_rows}x{rep.dim_A} ({rep.num_point_rows}+{rep.num_chamber_rows}), "
        f"rank {rep.rank_K}, h1={rep.h1}, {elapsed:.3f}s",
    )


def test_criterion_2_oracle_equivalence(general_corpus, general_reports):
    t0 = time.perf_counter()
    mismatches = []
    decones = 0
    for i, (inst, rep) in enumerate(zip(general_corpus, general_reports)):
        n = inst.arrangement.n
        lids = range(n) if n <= 6 else (0,)
        for lid in lids:
            decones += 1
            value = oracle_h1(inst.arrangement, inst.system, lid, seed=i)
            if value != rep.h1:
                mismatches.append((i, lid, rep.h1, value))
    elapsed = time.perf_counter() - t0
    ok = not mismatches and len(general_corpus) >= 200 and elapsed < 300
    _report(
        2,
        ok,
        f"{len(general_corpus)} instances, {decones} decone checks, "
        f"{len(mismatches)} mismatches, {elapsed:.1f}s"
        + (f"; first: {mismatches[:3]}" if mismatches else ""),
    )


def test_criterion_3_bound_suite(general_corpus, general_reports):
    violations = []
    checked = 0
    for i, (inst, rep) in enumerate(zip(general_corpus, general_reports)):
        arr, system = inst.arrangement, inst.system
        if len(arr.points) <= 1:
            continue
        res = resonant_points(arr, system)
        for lid in range(arr.n):
            checked += 1
            if rep.h1 > r0_bound(arr, res, lid):
                violations.append((i, lid, "r0"))
            if rep.h1 > cdo_bound(arr, res, lid):
                violations.append((i, lid, "cdo"))
    ok = not violations and checked > 0
    _report(3, ok, f"{checked} per-line bound checks, {len(violations)} violations")


def test_criterion_4_sharp_pair_theorems(sharp_instances, even_sharp_instances):
    violations = []
    for i, inst in enumerate(sharp_instances):
        value = h1(inst.arrangement, inst.system, seed=i).h1
        if value > 1:
            violations.append(("bound", i, value))
    for i, inst in enumerate(even_sharp_instances):
        value = h1(inst.arrangement, inst.system, seed=i).h1
        if value != 0:
            violations.append(("vanishing", i, value))
    ok = not violations and len(sharp_instances) >= 100
    _report(
        4,
        ok,
        f"{len(sharp_instances)} sharp instances (h1<=1) and "
        f"{len(even_sharp_instances)} even-constant ones (h1=0), "
        f"{len(violations)} violations",
    )


def test_criterion_5_beta_certificates(general_corpus, general_reports):
    failures = []
    built = 0
    skipped = 0
    for i, (inst, rep) in enumerate(zip(general_corpus, general_reports)):
        arr, system = inst.arrangement, inst.system
        if len(arr.points) <= 1:
            skipped += 1
            continue
        for lid in range(arr.n):
            cert = beta_certificate(rep, system, lid)
            built += 1
            if not cert.all_in_kernel:
                failures.append((i, lid, "membership"))
            if not cert.independent:
                failures.append((i, lid, "independence"))
            if not cert.counting_ok:
                failures.append((i, lid, "counting"))
    ok = not failures and built > 0
    _report(
        5,
        ok,
        f"{built} certificates built ({skipped} skipped), {len(failures)} failures",
    )


def test_criterion_6_sector_sum_identity(general_corpus, general_reports):
    bad = []
    points_checked = 0
    for i, (inst, rep) in enumerate(zip(general_corpus, general_reports)):
        system = inst.system
        narr = rep.arrangement
        res = resonant_points(narr, system)
        if not res.point_ids:
            continue
        sums = sector_sums(rep, system)
        for pid in res.point_ids:
            points_checked += 1
            plus, minus = point_rows(narr, system, rep.basis, pid)
            got_plus = {k: v for k, v in sums[pid][0].items() if v}
            got_minus = {k: v for k, v in sums[pid][1].items() if v}
            if got_plus != row_values(plus, system) or got_minus != row_values(minus, system):
                bad.append((i, pid))
    ok = not bad and points_checked > 0
    _report(6, ok, f"{points_checked} resonant points checked, {len(bad)} mismatches")


def test_criterion_7_structural_invariants(general_corpus, general_reports):
    problems = []
    seed_checks = 0
    for i, (inst, rep) in enumerate(zip(general_corpus, general_reports)):
        narr = rep.arrangement
        if not rep.zaslavsky_ok:
            problems.append((i, "zaslavsky"))
        if not rep.float_agrees:
            problems.append((i, "float-rank"))
        if rep.h2 < 0 or rep.h1 < 0:
            problems.append((i, "negative-betti"))
        res = resonant_points(narr, inst.system)
        for pid in res.point_ids:
            angles = [a for a in rep.basis.angles if a.point_id == pid]
            if len(angles) != narr.points[pid].multiplicity:
                problems.append((i, f"angles@{pid}"))
        for extra in range(1, 10):
            seed_checks += 1
            other = h1(inst.arrangement, inst.system, seed=1000 * extra + i)
            if other.h1 != rep.h1:
                problems.append((i, f"seed-{extra}"))
                break
    ok = not problems
    _report(
        7,
        ok,
        f"{len(general_corpus)} instances, {seed_checks} reseeded runs, "
        f"problems: {problems[:5] if problems else 'none'}",
    )
