import cmath
import json
import random
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arrhom import cyclo
from arrhom.cyclo import (
    CycloNumber,
    euler_phi,
    rank,
    rank_exact,
    rank_exponent_maps,
    rank_float,
    rank_prime,
)
from arrhom.errors import ModeMismatch, OrderMismatch
from conftest import GRID_LINES

# --- reference: Phi_d by exact division of x^d - 1 -------------------------
# integer polynomials as coefficient lists, low degree first


def _trim(p):
    while p and p[-1] == 0:
        p.pop()
    return p


def _poly_mul(p, q):
    if not p or not q:
        return []
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                out[i + j] += a * b
    return _trim(out)


def _poly_divmod(num, den):
    """Polynomial division; den must be monic so this is exact over Z."""
    num = list(num)
    quot = [0] * max(0, len(num) - len(den) + 1)
    while len(num) >= len(den) and num:
        shift = len(num) - len(den)
        coeff = num[-1]
        quot[shift] = coeff
        for i, c in enumerate(den):
            num[shift + i] -= coeff * c
        _trim(num)
    return quot, num


@lru_cache(maxsize=None)
def cyclotomic_polynomial(d: int) -> tuple:
    """Coefficients of Phi_d, low degree first: x^d - 1 divided by the
    product of Phi_e over the proper divisors e of d."""
    if d == 1:
        return (-1, 1)
    num = [-1] + [0] * (d - 1) + [1]
    den = [1]
    for e in range(1, d):
        if d % e == 0:
            den = _poly_mul(den, list(cyclotomic_polynomial(e)))
    quot, rem = _poly_divmod(num, den)
    assert not rem
    return tuple(quot)


def test_minimal_polynomials():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)


@pytest.mark.parametrize("d", range(1, 21))
def test_product_over_divisors_is_x_d_minus_one(d):
    # independent identity: the product of Phi_e over e | d equals x^d - 1
    prod = [1]
    for e in range(1, d + 1):
        if d % e == 0:
            phi_e = cyclotomic_polynomial(e)
            out = [0] * (len(prod) + len(phi_e) - 1)
            for i, a in enumerate(prod):
                for j, b in enumerate(phi_e):
                    out[i + j] += a * b
            prod = out
    expected = [-1] + [0] * (d - 1) + [1]
    assert prod == expected


@pytest.mark.parametrize("d", range(1, 13))
def test_primitive_root_is_a_root(d):
    z = cmath.exp(2j * cmath.pi / d)
    val = sum(c * z**k for k, c in enumerate(cyclotomic_polynomial(d)))
    assert abs(val) < 1e-9


def test_mul_examples():
    w = CycloNumber.zeta(3)
    assert w * w == CycloNumber.from_terms(3, {0: -1, 1: -1})
    a = CycloNumber.from_terms(5, {0: 2, 1: 3, 3: -2})
    assert a * CycloNumber.one(5) == a
    i = CycloNumber.zeta(4)
    assert i * i == CycloNumber.from_terms(4, {0: -1}) == -1


def test_inverse_examples():
    assert CycloNumber.one(7).inverse() == CycloNumber.one(7)
    for d in (2, 3, 5, 8, 12):
        z = CycloNumber.zeta(d)
        assert z.inverse() == CycloNumber.zeta(d, d - 1)
        assert (-z).inverse() == -CycloNumber.zeta(d, d - 1)
        assert z * z.inverse() == 1 == CycloNumber.zeta(d, 3) / CycloNumber.zeta(d, 3)


def test_inverse_of_zero_raises():
    with pytest.raises(ZeroDivisionError):
        CycloNumber.zero(6).inverse()
    with pytest.raises(ZeroDivisionError):
        CycloNumber.from_terms(3, {0: 1, 1: 1, 2: 1}).inverse()


@pytest.mark.parametrize(
    "value",
    [
        CycloNumber.one(3) + CycloNumber.zeta(3),  # -zeta^2, but not as a single term
        CycloNumber.zeta(5, 2) * 2,
        CycloNumber.from_terms(12, {0: 1, 1: -1}),
        CycloNumber.from_terms(7, {0: 1, 2: 1, 4: 1}),
    ],
    ids=["unit-in-two-terms", "twice-a-root", "binomial", "three-terms"],
)
def test_inverse_takes_only_plus_or_minus_a_root_of_unity(value):
    with pytest.raises(ValueError, match="not a unit"):
        value.inverse()
    with pytest.raises(ValueError):
        CycloNumber.one(value.order) / value


@pytest.mark.parametrize("bad", [Fraction(1, 2), Fraction(3), 0.5, 1.0, 1j, True, "1"])
def test_coefficients_are_ints(bad):
    with pytest.raises(TypeError, match="int coefficients"):
        CycloNumber.from_terms(5, {0: 1, 2: bad})
    z = CycloNumber.zeta(5)
    for op in (lambda: z + bad, lambda: bad + z, lambda: z - bad, lambda: z * bad, lambda: bad * z, lambda: z / bad):
        with pytest.raises(TypeError):
            op()
    assert z != bad and not (z == bad)


def test_order_mismatch():
    with pytest.raises(OrderMismatch):
        CycloNumber.zeta(3) + CycloNumber.zeta(4)
    with pytest.raises(OrderMismatch):
        CycloNumber.zeta(3) * CycloNumber.zeta(6)


def _random_cyclo(rng, d):
    """A random element of Z[zeta_d] with a coefficient at every power-basis exponent."""
    return CycloNumber.from_terms(d, {k: rng.randint(-4, 4) for k in range(euler_phi(d))})


def _power(x, n):
    """x^n as n repeated products."""
    out = CycloNumber.one(x.order)
    for _ in range(n):
        out = out * x
    return out


@settings(max_examples=40, deadline=None)
@given(d=st.integers(min_value=1, max_value=12), seed=st.integers(min_value=0, max_value=10**6))
def test_ring_axioms(d, seed):
    rng = random.Random(seed)
    a, b, c = (_random_cyclo(rng, d) for _ in range(3))
    assert (a + b) * c == a * c + b * c
    assert (a * b) * c == a * (b * c)
    assert a + b == b + a
    assert a * b == b * a and a - a == 0 and a * 1 == a
    u = CycloNumber.zeta(d, rng.randrange(d)) * rng.choice((1, -1))
    assert u * u.inverse() == CycloNumber.one(d)
    assert (a * u) / u == a


@pytest.mark.parametrize("d", range(1, 13))
def test_root_of_unity_identities(d):
    z = CycloNumber.zeta(d)
    assert _power(z, d) == CycloNumber.one(d)
    for j in range(1, d):
        if d % 1 == 0:
            total = CycloNumber.zero(d)
            for i in range(d):
                total = total + CycloNumber.zeta(d, i * j)
            if j % d != 0:
                assert total.is_zero


def test_embedding_consistency():
    rng = random.Random(7)
    for d in (3, 5, 8, 12):
        a, b = _random_cyclo(rng, d), _random_cyclo(rng, d)
        assert abs((a * b).to_complex() - a.to_complex() * b.to_complex()) < 1e-9


# --- rank ------------------------------------------------------------------

W = CycloNumber.zeta(3)
W2 = W * W
ONE3 = CycloNumber.one(3)
ZERO3 = CycloNumber.zero(3)

# Relation matrix of the complete quadrilateral with constant order-3
# monodromy: eight point rows (two per triple point) and six chamber rows,
# each a map from column to entry.
QUADRILATERAL_MATRIX = [
    {0: ONE3, 1: ONE3, 2: ONE3},
    {0: W, 1: W2, 2: ONE3},
    {3: ONE3, 4: ONE3, 5: ONE3},
    {3: W, 4: W2, 5: ONE3},
    {6: ONE3, 7: ONE3, 8: ONE3},
    {6: W, 7: W2, 8: ONE3},
    {9: ONE3, 10: ONE3, 11: ONE3},
    {9: W, 10: W2, 11: ONE3},
    {1: W2, 11: ONE3},
    {2: ONE3, 10: ONE3},
    {6: W, 9: ONE3},
    {7: W2, 11: ONE3},
    {3: ONE3, 10: W2},
    {4: ONE3, 9: W},
]


def _complex(rows):
    """The rows under zeta_d -> e^(2 pi i/d)."""
    return [{j: x.to_complex() for j, x in r.items()} for r in rows]


def _q(value):
    """An integer as an element of Z[zeta_1] = Z."""
    return CycloNumber.from_terms(1, {0: value})


def test_rank_identity():
    assert rank([{0: ONE3, 1: ZERO3}, {0: ZERO3, 1: ONE3}]) == 2
    assert rank([{0: ONE3}, {1: ONE3}]) == 2


def test_rank_quadrilateral_matrix_is_11():
    assert rank(QUADRILATERAL_MATRIX) == 11
    assert rank_float(_complex(QUADRILATERAL_MATRIX)) == 11


def test_rank_repeated_row_invariance():
    m = QUADRILATERAL_MATRIX
    assert rank(m + [m[3]]) == rank(m)


def _random_matrix(rng, d, nrows, ncols, bound=2):
    """Rows with an entry, possibly zero, in every one of ``ncols`` columns."""
    out = []
    for _ in range(nrows):
        row = {}
        for j in range(ncols):
            v = CycloNumber.zero(d)
            for k in range(euler_phi(d)):
                v = v + CycloNumber.zeta(d, k) * rng.randint(-bound, bound)
            row[j] = v
        out.append(row)
    return out


RANK_ORDERS = (2, 3, 4, 5, 6, 7, 12)


@pytest.mark.parametrize("seed", range(2 * len(RANK_ORDERS)))
def test_rank_exact_matches_float(seed):
    # every order once with small coefficients, then once with coefficients
    # up to 10^6; odd seeds append rows that are sums of earlier rows
    rng = random.Random(seed)
    d = RANK_ORDERS[seed % len(RANK_ORDERS)]
    bound = 2 if seed < len(RANK_ORDERS) else 10**6
    nrows, ncols = rng.randint(1, 12), rng.randint(1, 12)
    m = _random_matrix(rng, d, nrows, ncols, bound)
    if seed % 2:
        m += [{j: a + m[-1][j] for j, a in m[rng.randrange(nrows)].items()} for _ in range(3)]
    assert rank_exact(m) == rank_float(_complex(m))


def _record_images(monkeypatch):
    """Collect (p, rank mod p) for every modular image that rank_exact takes."""
    images = []
    real = cyclo._rank_mod

    def recording(rows, p, w, phi, cap):
        images.append((p, real(rows, p, w, phi, cap)))
        return images[-1][1]

    monkeypatch.setattr(cyclo, "_rank_mod", recording)
    return images


def test_rank_prime_sequence():
    for d in (1, 2, 3, 7, 12, 1009):
        seen = []
        for k in range(4):
            p, w = rank_prime(d, k)
            assert p < 2**61 and (p - 1) % d == 0 and all(p % q for q in range(2, 1000) if q < p)
            assert pow(w, d, p) == 1
            assert all(pow(w, j, p) != 1 for j in range(1, d) if d % j == 0)
            seen.append(p)
        assert seen == sorted(seen, reverse=True) and len(set(seen)) == 4


def test_rank_survives_an_unlucky_first_prime(monkeypatch):
    # the entry P vanishes modulo the first prime, where the rank drops to 1
    images = _record_images(monkeypatch)
    P, _ = rank_prime(3, 0)
    m = [{0: ONE3 * P}, {1: ONE3}]
    assert rank_exact(m) == 2
    assert images == [(P, 1), (rank_prime(3, 1)[0], 2)]


def test_rank_deficient_certification_uses_several_primes(monkeypatch):
    # rank 2, and rank 1 modulo the first prime; no prime reaches 3 rows
    # and 3 nonzero columns, so the answer stands only once the primes
    # outweigh the norm bound
    images = _record_images(monkeypatch)
    P, _ = rank_prime(3, 0)
    p_ = ONE3 * P
    m = [{0: p_, 2: p_}, {1: W}, {0: p_, 1: W, 2: p_}]
    assert rank_exact(m) == 2
    assert images[0] == (P, 1) and len(images) > 2
    # large entries over Q(zeta_12): a third row in the span of the first two
    images.clear()
    rng = random.Random(3)
    a, b = _random_matrix(rng, 12, 2, 4, 10**6)
    two, z = CycloNumber.from_terms(12, {0: 2}), CycloNumber.zeta(12, 5)
    m = [a, b, {j: two * x + z * b[j] for j, x in a.items()}]
    assert rank_exact(m) == 2 == rank_float(_complex(m))
    assert len(images) > 1


def _record_rows(monkeypatch, name):
    """Collect the rows handed to ``cyclo.<name>``."""
    seen = []
    real = getattr(cyclo, name)

    def recording(rows, *args):
        seen.append(rows)
        return real(rows, *args)

    monkeypatch.setattr(cyclo, name, recording)
    return seen


def _flat(row, d):
    """A row of CycloNumber entries in the flat format, keyed j * d + k."""
    return {j * d + k: c for j, x in row.items() for k, c in x.terms.items()}


def test_rank_exact_hands_the_entries_own_maps(monkeypatch):
    # every row reaches the certified core as one flat row of its entries'
    # own int terms, with no rescaling, and an entry whose map is empty
    # adds no key; the core eliminates the (column, exponent, coefficient)
    # terms that the keys split into
    flat, terms = _record_rows(monkeypatch, "rank_exponent_maps"), _record_rows(monkeypatch, "_rank_mod")
    m = [{0: W, 1: ONE3 * 2}, {1: W2 + 3, 2: W}, {0: ONE3 + W * 2, 2: W2 * 2, 3: ZERO3}, {0: W * 2, 1: ONE3 * 4}]
    assert rank_exact(m) == rank_float(_complex(m)) == 3
    assert flat == [[_flat(r, 3) for r in m]]
    assert flat[0][2] == {0: 1, 1: 2, 8: 2}
    assert terms[0][2] == [(0, 0, 1), (0, 1, 2), (2, 2, 2)]
    assert all(type(c) is int for row in flat[0] for c in row.values())
    assert rank_exact([{0: CycloNumber.from_terms(1, {0: 3})}]) == 1
    assert rank_exact([{-1: W}, {0: ONE3}]) == 2  # a negative column keeps its own key


@pytest.mark.parametrize("column", [0.5, 1.0, "0", None, True])
def test_rank_exact_rejects_columns_that_are_not_ints(column):
    # a flat key j * d + k reads back as (j, k) only for an int j: at d = 2
    # column 0.5 with exponent 0 would be key 1.0, column 0's zeta term
    one = CycloNumber.one(2)
    with pytest.raises(TypeError, match="int columns"):
        rank_exact([{0: one, column: one}])
    with pytest.raises(TypeError, match="int columns"):
        rank([{column: W}])


def test_rank_is_capped_by_the_columns_that_occur(monkeypatch):
    # three nonzero rows, one nonzero column: the first prime that reaches
    # rank 1 ends the certification, long before the primes would outweigh
    # the norm bound of these large entries
    images = _record_images(monkeypatch)
    m = [{0: W * 10**40}, {0: ONE3 * 3**50, 5: ZERO3}, {4: ZERO3, 0: W2 * 7**30}]
    assert rank_exact(m) == 1
    assert len(images) == 1


def test_rank_bound_counts_only_the_cap_largest_rows(monkeypatch):
    # five proportional rows over two columns: rank 1 below the cap 2, so
    # primes are used until they outweigh the bound, which takes the two
    # largest row norms, not all five
    images = _record_images(monkeypatch)
    m = [{0: ONE3 * 2 ** (40 + i), 1: W * 2 ** (40 + i)} for i in range(5)]
    assert rank_exact(m) == 1 == rank_float(_complex(m))
    norms = sorted(2 * 4 ** (40 + i) for i in range(5))

    def primes_for(bound):
        need, bits, k = euler_phi(3) * bound.bit_length(), 0, 0
        while 2 * bits < need:
            bits += rank_prime(3, k)[0].bit_length() - 1
            k += 1
        return k

    assert len(images) == primes_for(norms[-1] * norms[-2]) == 3
    assert primes_for(norms[0] * norms[1] * norms[2] * norms[3] * norms[4]) == 8
    assert all(r == 1 for _p, r in images)


@pytest.mark.parametrize("seed", range(6))
def test_rank_core_takes_exponent_maps(seed, monkeypatch):
    # the certified core on flat rows of the entries' own terms gives
    # rank_exact's rank; zero coefficients and empty rows are zeros, rows
    # are not mutated, and upper caps the rank
    rng = random.Random(200 + seed)
    d = rng.choice([2, 3, 5, 12])
    m = _random_matrix(rng, d, rng.randint(1, 8), rng.randint(1, 8))
    m += [{j: x + m[0][j] for j, x in m[-1].items()}]
    rows = [_flat(r, d) for r in m]
    rows[0][9 * d + 1] = 0  # a column whose only coefficient is zero
    rows.append({0: 0, 3 * d: 0})
    rows.append({})
    before = [dict(r) for r in rows]
    r = rank_exponent_maps(rows, d)
    assert r == rank_exact(m) == rank_float(_complex(m))
    assert rows == before
    assert rank_exponent_maps(rows, d, upper=r) == r
    assert rank_exponent_maps(rows, d, upper=0) == 0
    assert rank_exponent_maps([{0: 0}, {}], d) == rank_exponent_maps([], d) == 0
    # a zero coefficient is no column: with one column the cap is 1, so the
    # first prime ends the certification of these large entries
    images = _record_images(monkeypatch)
    assert rank_exponent_maps([{0: 2**100, d: 0}, {1 % d: 3**70, 2 * d + 1 % d: 0}], d) == 1
    assert len(images) == 1


def test_rank_exact_matches_float_30x30():
    rng = random.Random(99)
    m = _random_matrix(rng, 3, 30, 30)
    assert rank_exact(m) == rank_float(_complex(m))


@pytest.mark.parametrize("seed", range(6))
def test_rank_transpose(seed):
    rng = random.Random(100 + seed)
    m = _random_matrix(rng, rng.choice([2, 3, 4, 6]), rng.randint(1, 10), rng.randint(1, 10))
    mt = [{i: r[j] for i, r in enumerate(m)} for j in m[0]]
    assert rank(m) == rank(mt)


def test_low_rank_products():
    # outer products have rank 1
    rng = random.Random(5)
    u = [_random_cyclo(rng, 6) for _ in range(8)]
    v = [_random_cyclo(rng, 6) for _ in range(9)]
    m = [{j: a * b for j, b in enumerate(v)} for a in u]
    if any(not a.is_zero for a in u) and any(not b.is_zero for b in v):
        assert rank(m) == 1


def test_mode_mismatch():
    with pytest.raises(ModeMismatch):
        rank([{0: ONE3, 1: complex(1.0)}])


def test_empty_and_rational_matrices():
    assert rank([]) == 0
    assert rank([{}, {}]) == 0
    assert rank([{0: _q(1), 1: _q(2)}, {0: _q(-3), 1: _q(-6)}]) == 1
    assert rank([{0: 0.0, 1: 0.0}]) == 0


@pytest.mark.parametrize(
    "rows, error",
    [
        ([{0: ONE3}, {1: ONE3, 2: 1j}], ModeMismatch),
        ([{0: 1j}, {0: 0.5, 3: W}], ModeMismatch),
        ([{0: ONE3, 1: CycloNumber.zeta(4)}], OrderMismatch),
        ([{0: ONE3}, {1: CycloNumber.zeta(6)}], OrderMismatch),
        ([{0: ONE3, 1: Fraction(1, 2)}], TypeError),
        ([{0: ONE3}, {0: 1}], TypeError),
        ([{0: 1j, 1: Fraction(1, 2)}], TypeError),
        ([{0: 3}], TypeError),
        ([{}, {0: "1"}], TypeError),
    ],
    ids=[
        "exact-then-float",
        "float-then-exact",
        "orders-in-a-row",
        "orders-across-rows",
        "fraction-in-exact",
        "int-in-exact",
        "fraction-in-float",
        "int-first",
        "string",
    ],
)
def test_rank_rejects_mixed_rows(rows, error):
    with pytest.raises(error):
        rank(rows)


def _near_singular_rows(rng, nrows, ncols):
    """Random complex rows, some of them combinations of earlier rows plus
    noise of 1e-13 to 1e-6, so that pivots fall near the 1e-9 threshold."""
    rows = []
    for i in range(nrows):
        if i >= 2 and rng.random() < 0.5:
            a, b = rng.sample(rows, 2)
            c = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            eps = 10.0 ** rng.randint(-13, -6)
            rows.append([x + c * y + eps * complex(rng.random(), rng.random()) for x, y in zip(a, b)])
        else:
            rows.append([complex(rng.uniform(-3, 3), rng.uniform(-3, 3)) for _ in range(ncols)])
    return rows


@pytest.mark.parametrize("seed", range(40))
def test_rank_float_reads_absent_columns_as_zero(seed):
    # dict rows with absent columns and empty rows eliminate exactly like the
    # same rows with every column, 0..ncols-1, written out as 0j
    rng = random.Random(seed)
    nrows, ncols = rng.randint(1, 9), rng.randint(1, 9)
    dense = _near_singular_rows(rng, nrows, ncols)
    gone = {j for j in range(ncols) if rng.random() < 0.3}
    for row in dense:
        for j in range(ncols):
            if j in gone or rng.random() < 0.2:
                row[j] = 0j
    for i in rng.sample(range(nrows), rng.randint(0, nrows // 2)):
        dense[i] = [0j] * ncols
    sparse = [{j: x for j, x in enumerate(row) if x != 0j} for row in dense]
    assert rank_float(sparse) == rank_float([dict(enumerate(row)) for row in dense])


# --- sparse exponent maps --------------------------------------------------


def _naive_power_basis(d, terms):
    """sum c_k x^k reduced modulo Phi_d by long division, low degree first."""
    phi = cyclotomic_polynomial(d)
    deg = len(phi) - 1
    poly = [0] * max(d, deg)
    for k, c in terms.items():
        poly[k % d] += c
    for top in range(len(poly) - 1, deg - 1, -1):
        c = poly[top]
        if c:
            for i, p in enumerate(phi):
                poly[top - deg + i] -= c * p
    return tuple(poly[:deg])


def _naive_product(d, a, b):
    """The product of two exponent maps modulo x^d - 1, before any reduction."""
    out = {}
    for i, x in a.items():
        for j, y in b.items():
            out[(i + j) % d] = out.get((i + j) % d, 0) + x * y
    return out


def _from_map(d, terms):
    out = CycloNumber.zero(d)
    for k, c in terms.items():
        out = out + CycloNumber.zeta(d, k) * c
    return out


def _horner_reference(d, k):
    """zeta_d^k evaluated in the power basis as the Horner loop over its coefficients."""
    z = cmath.exp(2j * cmath.pi / d)
    out = 0j
    for c in reversed(_naive_power_basis(d, {k: 1})):
        out = out * z + complex(c)
    return out


def _bits(z):
    return (z.real.hex(), z.imag.hex())


def test_order_6_folds_the_half_turn():
    z = CycloNumber.zeta(6)
    assert not (_power(z, 3) + 1)
    assert (_power(z, 3) + 1).is_zero
    assert _power(z, 4) == -z
    assert CycloNumber.zeta(6, 4).terms == {4: 1} and (-z).terms == {1: -1}
    assert _power(z, 3) == CycloNumber.from_terms(6, {0: -1}) and _power(z, 3) != 1
    assert CycloNumber.zeta(6, 2) * 3 != CycloNumber.zeta(6, 5) * 3
    assert CycloNumber.zeta(6, 2) * 3 == CycloNumber.zeta(6, 5) * -3


def test_euler_phi_from_the_factorization():
    for d in range(1, 60):
        assert euler_phi(d) == len(cyclotomic_polynomial(d)) - 1
    assert euler_phi(3000017) == 3000016  # prime: Phi_d is never built
    assert euler_phi(2**20) == 2**19


@pytest.mark.parametrize("d", range(1, 31))
def test_to_complex_is_the_power_basis_horner_value(d):
    for k in range(-1, d + 1):
        assert _bits(CycloNumber.zeta(d, k).to_complex()) == _bits(_horner_reference(d, k))


def test_to_complex_at_a_large_order():
    d = 1009
    for k in (0, 1, 255, 512, 1007, 1008):
        assert _bits(CycloNumber.zeta(d, k).to_complex()) == _bits(_horner_reference(d, k))


_maps = st.dictionaries(
    st.integers(min_value=0, max_value=40),
    st.integers(min_value=-5, max_value=5),
    max_size=6,
)


@settings(max_examples=60, deadline=None)
@given(d=st.integers(min_value=1, max_value=24), a=_maps, b=_maps)
def test_sums_and_products_match_the_naive_reduction(d, a, b):
    x, y = _from_map(d, a), _from_map(d, b)
    sum_map = dict(a)
    for k, c in b.items():
        sum_map[k] = sum_map.get(k, 0) + c
    assert cyclo._power_basis(d, (x + y).terms) == _naive_power_basis(d, sum_map)
    assert cyclo._power_basis(d, (x * y).terms) == _naive_power_basis(d, _naive_product(d, a, b))
    assert (x - y).is_zero == (x == y) == (_naive_power_basis(d, a) == _naive_power_basis(d, b))
    assert bool(x * y) == any(_naive_power_basis(d, _naive_product(d, a, b)))


def test_monomial_inverse_negates_the_exponent():
    z = CycloNumber.zeta(1009, 5) * -1
    inv = z.inverse()
    assert inv.terms == {1004: -1}
    assert z * inv == 1
    assert CycloNumber.zeta(12, 7).inverse().terms == {5: 1}


# --- large orders end to end -----------------------------------------------

# on the grid, with exponents s + i t, s' + j t and -(s + s' + c t) for the
# lines x = i, y = j and x + y = c, every triple point (i, j, i + j) is resonant
GRID_EXPONENTS = [1, 6, 11, 2, 7, 12, -8, -13, -18]
# the complete quadrilateral with equal values on opposite lines: h1 = 1, so
# the rank is certified by the norm bound, with about phi(d) / 6 primes
QUAD_LINES = [[0, 1, 0], [1, 0, 0], [1, -1, 0], [1, 1, -1], [1, 0, -1], [0, 1, -1]]
QUAD_EXPONENTS = [1, 2, -3, -3, 2, 1]


@pytest.mark.parametrize(
    "lines, exponents, order, h1",
    [
        (GRID_LINES, GRID_EXPONENTS, 1009, 0),
        (GRID_LINES, GRID_EXPONENTS, 5003, 0),
        (QUAD_LINES, QUAD_EXPONENTS, 1009, 1),
        (QUAD_LINES, QUAD_EXPONENTS, 5003, 1),
    ],
    ids=["grid-1009", "grid-5003", "quad-1009", "quad-5003"],
)
def test_large_order_report(tmp_path, capsys, lines, exponents, order, h1):
    from arrhom.cli import main

    path = tmp_path / "instance.json"
    path.write_text(json.dumps({"lines": lines, "local_system": {"order": order, "exponents": exponents}}))
    assert main(["h1", str(path)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["h1"] == h1
    assert report["oracle"] == {"agrees": True, "h1": h1}
    assert all(report["consistency"].values())


def test_oracle_rank_stops_at_its_upper_bound(monkeypatch):
    # rank(d2) = g - 1 when h1 = 0, and g - 1 is passed as the upper bound,
    # so the first prime that reaches it ends the certification
    from arrhom.fox import oracle_h1
    from arrhom.geometry import Arrangement, Line
    from arrhom.local_system import LocalSystem

    arr = Arrangement([Line.from_coeffs(*l) for l in GRID_LINES])
    images = _record_images(monkeypatch)
    assert oracle_h1(arr, LocalSystem(order=5003, exponents=GRID_EXPONENTS)) == 0
    assert len(images) == 1
