import cmath
import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arrhom import cyclo
from arrhom.cyclo import (
    CycloNumber,
    cyclotomic_polynomial,
    euler_phi,
    rank,
    rank_exact,
    rank_float,
    rank_prime,
)
from arrhom.errors import ModeMismatch, OrderMismatch
from conftest import GRID_LINES


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
    assert w * w == CycloNumber(3, (-1, -1))
    a = CycloNumber(5, (Fraction(1, 2), 3, 0, -2))
    assert a * CycloNumber.one(5) == a
    i = CycloNumber.zeta(4)
    assert i * i == CycloNumber.from_rational(4, -1)


def test_inverse_examples():
    assert CycloNumber.one(7).inverse() == CycloNumber.one(7)
    for d in (2, 3, 5, 8, 12):
        z = CycloNumber.zeta(d)
        assert z.inverse() == CycloNumber.zeta(d, d - 1)
    w = CycloNumber.zeta(3)
    a = CycloNumber.one(3) + w
    inv = a.inverse()
    assert inv == -w
    assert a * inv == CycloNumber.one(3)


def test_inverse_of_zero_raises():
    with pytest.raises(ZeroDivisionError):
        CycloNumber.zero(6).inverse()


def test_order_mismatch():
    with pytest.raises(OrderMismatch):
        CycloNumber.zeta(3) + CycloNumber.zeta(4)
    with pytest.raises(OrderMismatch):
        CycloNumber.zeta(3) * CycloNumber.zeta(6)


def _random_cyclo(rng, d):
    deg = euler_phi(d)
    return CycloNumber(d, [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(deg)])


@settings(max_examples=40, deadline=None)
@given(d=st.integers(min_value=1, max_value=12), seed=st.integers(min_value=0, max_value=10**6))
def test_field_axioms(d, seed):
    rng = random.Random(seed)
    a, b, c = (_random_cyclo(rng, d) for _ in range(3))
    assert (a + b) * c == a * c + b * c
    assert (a * b) * c == a * (b * c)
    assert a + b == b + a
    if not a.is_zero:
        assert a * a.inverse() == CycloNumber.one(d)


@pytest.mark.parametrize("d", range(1, 13))
def test_root_of_unity_identities(d):
    z = CycloNumber.zeta(d)
    assert z**d == CycloNumber.one(d)
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
    """A rational as an element of Q(zeta_1) = Q."""
    return CycloNumber.from_rational(1, Fraction(value))


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
    m = [{0: CycloNumber.from_rational(3, P)}, {1: ONE3}]
    assert rank_exact(m) == 2
    assert images == [(P, 1), (rank_prime(3, 1)[0], 2)]


def test_rank_deficient_certification_uses_several_primes(monkeypatch):
    # rank 2, and rank 1 modulo the first prime; no prime reaches 3 rows
    # and 3 nonzero columns, so the answer stands only once the primes
    # outweigh the norm bound
    images = _record_images(monkeypatch)
    P, _ = rank_prime(3, 0)
    p_ = CycloNumber.from_rational(3, P)
    m = [{0: p_, 2: p_}, {1: W}, {0: p_, 1: W, 2: p_}]
    assert rank_exact(m) == 2
    assert images[0] == (P, 1) and len(images) > 2
    # large entries over Q(zeta_12): a third row in the span of the first two
    images.clear()
    rng = random.Random(3)
    a, b = _random_matrix(rng, 12, 2, 4, 10**6)
    two, z = CycloNumber.from_rational(12, 2), CycloNumber.zeta(12, 5)
    m = [a, b, {j: two * x + z * b[j] for j, x in a.items()}]
    assert rank_exact(m) == 2 == rank_float(_complex(m))
    assert len(images) > 1


def test_rank_scales_each_row_by_its_denominators():
    z = CycloNumber.zeta(5)
    half = CycloNumber.from_rational(5, Fraction(1, 2))
    row = {0: half + z * Fraction(1, 3), 1: CycloNumber.from_rational(5, Fraction(1, 5))}
    m = [row, {j: x * 6 for j, x in row.items()}]
    assert rank_exact(m) == 1
    m[1][1] = m[1][1] + Fraction(1, 7)
    assert rank_exact(m) == 2
    assert rank([{0: _q(Fraction(1, 2)), 1: _q(Fraction(1, 3))}, {0: _q(3), 1: _q(2)}]) == 1


def test_rank_is_capped_by_the_columns_that_occur(monkeypatch):
    # three nonzero rows, one nonzero column: the first prime that reaches
    # rank 1 ends the certification, long before the primes would outweigh
    # the norm bound of these large entries
    images = _record_images(monkeypatch)
    m = [{0: W * 10**40}, {0: ONE3 * 3**50, 5: ZERO3}, {4: ZERO3, 0: W2 * 7**30}]
    assert rank_exact(m) == 1
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
    assert rank([{0: _q(Fraction(1, 2)), 1: _q(1)}, {0: _q(1), 1: _q(2)}]) == 1
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
    poly = [Fraction(0)] * max(d, deg)
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
    assert not (z**3 + 1)
    assert (z**3 + 1).is_zero
    assert z**4 == -z
    assert hash(z**4) == hash(-z)
    assert CycloNumber.zeta(6, 4).terms == {4: 1} and (-z).terms == {1: -1}
    assert z**3 == CycloNumber.from_rational(6, -1) and z**3 != 1
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
    st.one_of(
        st.integers(min_value=-5, max_value=5),
        st.fractions(min_value=-3, max_value=3, max_denominator=4),
    ),
    max_size=6,
)


@settings(max_examples=60, deadline=None)
@given(d=st.integers(min_value=1, max_value=24), a=_maps, b=_maps)
def test_sums_and_products_match_the_naive_reduction(d, a, b):
    x, y = _from_map(d, a), _from_map(d, b)
    sum_map = dict(a)
    for k, c in b.items():
        sum_map[k] = sum_map.get(k, 0) + c
    assert (x + y).coeffs == _naive_power_basis(d, sum_map)
    assert (x * y).coeffs == _naive_power_basis(d, _naive_product(d, a, b))
    assert (x - y).is_zero == (x == y) == (_naive_power_basis(d, a) == _naive_power_basis(d, b))
    assert bool(x * y) == any(_naive_power_basis(d, _naive_product(d, a, b)))
    if x == y:
        assert hash(x) == hash(y)


def test_monomial_inverse_negates_the_exponent():
    z = CycloNumber.zeta(1009, 5) * Fraction(2, 3)
    inv = z.inverse()
    assert inv.terms == {1004: Fraction(3, 2)}
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
