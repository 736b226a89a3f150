"""The float rank eliminates row maps with the pivots of a dense elimination.

``dense_rank_float`` is the dense elimination that ``cyclo.rank_float``
replaced, kept here as the reference: the rows fill a matrix over the
sorted columns that occur, zeros written out.  Both must give the same rank
on every row set, including near-singular ones, ties between pivot
candidates, empty rows, absent columns and explicit zeros.
"""

import cmath
import random

import pytest

from arrhom.cyclo import _PIVOT_TOL, rank_float
from arrhom.fuzz import corpus, sharp_corpus
from arrhom.geometry import Arrangement, Line
from arrhom.homology import h1
from arrhom.local_system import LocalSystem
from frame_helpers import row_values


def dense_rank_float(rows) -> int:
    """Rank by partial pivoting on the dense matrix of the rows."""
    col = {j: i for i, j in enumerate(sorted({j for r in rows for j in r}))}
    nrows, ncols = len(rows), len(col)
    m = [[0j] * ncols for _ in rows]
    for dense, r in zip(m, rows):
        for j, x in r.items():
            dense[col[j]] = complex(x)
    scale = max((abs(x) for r in m for x in r), default=0.0)
    if scale == 0.0:
        return 0
    thresh = _PIVOT_TOL * scale
    r = 0
    for c in range(ncols):
        piv, best = None, thresh
        for i in range(r, nrows):
            if abs(m[i][c]) > best:
                piv, best = i, abs(m[i][c])
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        for i in range(r + 1, nrows):
            if m[i][c] != 0:
                f = m[i][c] / m[r][c]
                for j in range(c, ncols):
                    m[i][j] -= f * m[r][j]
        r += 1
        if r == nrows:
            break
    return r


def _entry(rng):
    """A complex value, a small integral float, or a zero of either sign."""
    kind = rng.random()
    if kind < 0.1:
        return float(rng.randint(-2, 2))
    if kind < 0.2:
        return rng.choice((0j, complex(-0.0, 0.0), complex(0.0, -0.0)))
    return complex(rng.uniform(-3, 3), rng.uniform(-3, 3))


def _columns(rng):
    ncols = rng.randint(1, 10)
    return sorted(rng.sample(range(3 * ncols), ncols))  # keys with gaps


def _random_rows(rng):
    """Row maps over scattered column keys, near the pivot threshold."""
    nrows, cols = rng.randint(1, 10), _columns(rng)
    rows = []
    for _ in range(nrows):
        shape = rng.random()
        if shape < 0.1:
            row = {}
        elif shape < 0.45 and len(rows) >= 2:
            # a combination of earlier rows plus noise of 1e-13 to 1e-6
            a, b = rng.sample(rows, 2)
            c = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            eps = 10.0 ** rng.randint(-13, -6)
            row = {j: a.get(j, 0j) + c * b.get(j, 0j) + eps * complex(rng.random(), rng.random())
                   for j in set(a) | set(b)}
        elif shape < 0.55 and rows:
            # the same magnitudes as an earlier row: pivot candidates tie
            a = rng.choice(rows)
            row = {j: rng.choice((x, -x, complex(x).conjugate(), 1j * x)) for j, x in a.items()}
        else:
            row = {j: _entry(rng) for j in cols if rng.random() < 0.6}
        if row and rng.random() < 0.2:
            row[rng.choice(cols)] = 0j
        rows.append(row)
    return rows


def _tied_rows(rng):
    """A row, unit multiples of it whose leading entries tie exactly and
    whose other entries move by 0.3 to 1 times the pivot threshold, a few
    other rows and empty rows, in random order.  Which of the tied rows
    becomes the pivot decides which residues are left behind, and whether
    they pass the threshold."""
    cols = _columns(rng)
    base = {j: complex(rng.uniform(-3, 3), rng.uniform(-3, 3)) for j in cols if rng.random() < 0.8}
    if not base:
        return [{}]
    lead = min(base)
    size = _PIVOT_TOL * max(abs(x) for x in base.values())
    rows = [base]
    for _ in range(rng.randint(1, 4)):
        u = rng.choice((1, -1, 1j, -1j))
        rows.append({
            j: u * x + (0j if j == lead else rng.uniform(0.3, 1.0) * size * cmath.exp(2j * cmath.pi * rng.random()))
            for j, x in base.items()
        })
    rows += [{j: _entry(rng) for j in cols if rng.random() < 0.3} for _ in range(rng.randint(0, 3))]
    rows += [{} for _ in range(rng.randint(0, 2))]  # empty rows move in swaps too
    rng.shuffle(rows)
    return rows


@pytest.mark.parametrize("chunk", range(10))
@pytest.mark.parametrize("make", [_random_rows, _tied_rows])
def test_rank_float_matches_the_dense_reference(make, chunk):
    rng = random.Random(7000 + chunk)
    for _ in range(60):
        rows = make(rng)
        assert rank_float(rows) == dense_rank_float(rows), rows


def test_rank_float_breaks_ties_by_row_order():
    # rows 0 and 1 tie in column 0.  With row 0 as the pivot both residues
    # in column 1 are 7e-10, below the threshold of about 1e-9; with row 1
    # row 2 would keep 1.4e-9 and the rank would be 2
    e = 7e-10
    rows = [{0: 1.0, 1: 1.0}, {0: -1.0, 1: -1.0 + e}, {0: 1.0, 1: 1.0 + e}]
    assert rank_float(rows) == dense_rank_float(rows) == 1
    assert rank_float([rows[1], rows[0], rows[2]]) == 2
    # the swap that brings {0: 1} up moves the empty row down, and the tied
    # rows keep their order; without the empty row it moves the first tied
    # row to the end, and the second one becomes the pivot of column 1
    pivot = {0: 1.0}
    tied = [{1: 1.0, 2: 1.0}, {1: -1.0, 2: -1.0 + e}, {1: 1.0, 2: 1.0 + e}]
    assert rank_float([{}] + tied + [pivot]) == dense_rank_float([{}] + tied + [pivot]) == 2
    assert rank_float(tied + [pivot]) == 3
    assert rank_float([{}, {0: 1e-12}, {5: 1.0}]) == dense_rank_float([{}, {0: 1e-12}, {5: 1.0}]) == 1


def test_rank_float_leaves_its_rows_unchanged():
    rng = random.Random(11)
    for _ in range(50):
        rows = _random_rows(rng)
        before = [dict(r) for r in rows]
        ids = [id(r) for r in rows]
        rank_float(rows)
        assert rows == before and [id(r) for r in rows] == ids


def _float_matrices(arr, system):
    """K under zeta -> e^(2 pi i/d), as the exact report cross-checks it,
    and the float report's own rows."""
    out = []
    if system.is_exact:
        rows = h1(arr, system).rows
        out.append([{j: x.to_complex() for j, x in row_values(r, system).items()} for r in rows])
        system = system.to_float()
    out.append([r.coeffs for r in h1(arr, system).rows])
    return out


@pytest.mark.parametrize(
    "make", [lambda: corpus(20240810, 150), lambda: corpus(7, 150), lambda: sharp_corpus(3, 100)],
    ids=["corpus-20240810", "corpus-7", "sharp-3"],
)
def test_report_matrices_match_the_dense_reference(make):
    for inst in make():
        for K in _float_matrices(inst.arrangement, inst.system):
            assert rank_float(K) == dense_rank_float(K)


@pytest.mark.parametrize("a", [3, 5, 9])
def test_grid_matrices_match_the_dense_reference(a):
    # x = i, y = j (0 <= i, j < a) and x + y = c (1 <= c <= 2a - 3): 4a - 3 lines
    lines = (
        [Line.from_coeffs(1, 0, -i) for i in range(a)]
        + [Line.from_coeffs(0, 1, -j) for j in range(a)]
        + [Line.from_coeffs(1, 1, -c) for c in range(1, 2 * a - 2)]
    )
    exps = [1] * len(lines)
    for k in range(1, 1 + (-len(lines)) % 3):
        exps[-k] = 2
    for K in _float_matrices(Arrangement(lines), LocalSystem(order=3, exponents=exps)):
        assert rank_float(K) == dense_rank_float(K) > 0
