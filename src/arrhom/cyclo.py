"""Exact arithmetic in cyclotomic fields Q(zeta_d), plus matrix rank.

Elements are stored in the power basis 1, zeta, ..., zeta^{phi(d)-1} modulo
the d-th cyclotomic polynomial, with arbitrary-precision rational
coefficients.

Exact rank is computed from modular images, not over Q(zeta_d) itself.
Scaling each row by the lcm of its coefficient denominators puts every
entry in Z[zeta_d] without changing the rank r.  For a prime p = 1 (mod d)
and a primitive d-th root w mod p, zeta -> w is a ring map Z[zeta_d] -> F_p,
so the rank mod p never exceeds r, and it falls short only when p divides
the norm N(Delta) of a fixed nonzero r x r minor Delta.  Hadamard's
inequality in every complex embedding bounds |N(Delta)| by H^phi(d), where
H is the product of the row norms (each entry counted as the l1-norm of its
coefficients).  Once the distinct primes used multiply to more than
H^phi(d), one of them reached r, so the largest rank seen is exact.

A floating-point fallback exists for monodromy values that are not roots of
unity: matrices of plain ``complex`` numbers are eliminated with partial
pivoting and a relative tolerance.  A matrix must be all-exact or all-float;
mixtures raise :class:`~arrhom.errors.ModeMismatch`.
"""

from __future__ import annotations

import cmath
from fractions import Fraction
from functools import lru_cache
from math import lcm
from numbers import Rational as _Rational

from .errors import InvariantError, ModeMismatch, OrderMismatch

__all__ = [
    "CycloNumber",
    "cyclotomic_polynomial",
    "euler_phi",
    "rank",
    "rank_exact",
    "rank_float",
    "rank_prime",
    "to_complex_matrix",
]


# ---------------------------------------------------------------------------
# integer / rational polynomial helpers (coefficient lists, low degree first)


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
    """Coefficients of Phi_d, low degree first, monic with integer entries.

    Computed by exact division of x^d - 1 by the product of Phi_e over the
    proper divisors e of d.
    """
    if d < 1:
        raise ValueError("order must be a positive integer")
    if d == 1:
        return (-1, 1)
    num = [-1] + [0] * (d - 1) + [1]
    den = [1]
    for e in range(1, d):
        if d % e == 0:
            den = _poly_mul(den, list(cyclotomic_polynomial(e)))
    quot, rem = _poly_divmod(num, den)
    if rem:
        raise InvariantError(f"x^{d} - 1 is not divisible by the lower cyclotomic factors")
    return tuple(quot)


def euler_phi(d: int) -> int:
    return len(cyclotomic_polynomial(d)) - 1


@lru_cache(maxsize=None)
def _reduction_rows(d):
    """x^(phi+k) mod Phi_d for k = 0..phi-2, as integer coefficient tuples."""
    phi_poly = cyclotomic_polynomial(d)
    deg = len(phi_poly) - 1
    rows = []
    cur = [-c for c in phi_poly[:-1]]  # x^deg = -(c_0 + ... + c_{deg-1} x^{deg-1})
    for _ in range(max(0, deg - 1)):
        rows.append(tuple(cur))
        top = cur[-1]
        cur = [0] + cur[:-1]
        if top:
            base = rows[0]
            cur = [c + top * b for c, b in zip(cur, base)]
    return tuple(rows)


def _reduce_mod_phi(d, conv):
    """Reduce a coefficient list of length <= 2*phi-1 modulo Phi_d."""
    deg = euler_phi(d)
    out = list(conv[:deg]) + [Fraction(0)] * max(0, deg - len(conv))
    rows = _reduction_rows(d)
    for k, c in enumerate(conv[deg:]):
        if c:
            row = rows[k]
            for j in range(deg):
                if row[j]:
                    out[j] += c * row[j]
    return out


class CycloNumber:
    """An element of Q(zeta_d), reduced in the power basis mod Phi_d."""

    __slots__ = ("order", "coeffs")

    def __init__(self, order, coeffs):
        deg = euler_phi(order)
        coeffs = tuple(Fraction(c) for c in coeffs)
        if len(coeffs) != deg:
            raise ValueError(f"need {deg} coefficients for order {order}")
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "coeffs", coeffs)

    def __setattr__(self, name, value):
        raise AttributeError("CycloNumber is immutable")

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, order):
        return cls(order, (Fraction(0),) * euler_phi(order))

    @classmethod
    def one(cls, order):
        return cls.from_rational(order, 1)

    @classmethod
    def from_rational(cls, order, value):
        deg = euler_phi(order)
        return cls(order, (Fraction(value),) + (Fraction(0),) * (deg - 1))

    @classmethod
    def zeta(cls, order, power=1):
        """zeta_d^power as a reduced element."""
        k = power % order
        deg = euler_phi(order)
        if k < deg:
            coeffs = [Fraction(0)] * deg
            coeffs[k] = Fraction(1)
            return cls(order, coeffs)
        poly = [Fraction(0)] * k + [Fraction(1)]
        phi = [Fraction(c) for c in cyclotomic_polynomial(order)]
        _, rem = _frac_divmod(poly, phi)
        rem = rem + [Fraction(0)] * (deg - len(rem))
        return cls(order, rem[:deg])

    # -- helpers -------------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, CycloNumber):
            if other.order != self.order:
                raise OrderMismatch(
                    f"orders differ: {self.order} vs {other.order}"
                )
            return other
        if isinstance(other, _Rational):
            return CycloNumber.from_rational(self.order, other)
        return None

    @property
    def is_zero(self):
        return not any(self.coeffs)

    def __bool__(self):
        return not self.is_zero

    # -- ring operations ------------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return CycloNumber(self.order, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    __radd__ = __add__

    def __neg__(self):
        return CycloNumber(self.order, tuple(-a for a in self.coeffs))

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return CycloNumber(self.order, tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        conv = [Fraction(0)] * (2 * len(a) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    if y:
                        conv[i + j] += x * y
        return CycloNumber(self.order, _reduce_mod_phi(self.order, conv))

    __rmul__ = __mul__

    def inverse(self):
        """Multiplicative inverse via the extended Euclidean algorithm."""
        if self.is_zero:
            raise ZeroDivisionError("inverse of zero cyclotomic number")
        # xgcd(a, Phi_d) over Q[x]; Phi_d is irreducible so the gcd is 1.
        a = _trim([Fraction(c) for c in self.coeffs])
        b = [Fraction(c) for c in cyclotomic_polynomial(self.order)]
        s0, s1 = [Fraction(1)], []
        r0, r1 = a, b
        while r1:
            q, r = _frac_divmod(r0, r1)
            r0, r1 = r1, r
            s0, s1 = s1, _trim([x - y for x, y in _zip_pad(s0, _poly_mul_frac(q, s1))])
        # r0 is a nonzero constant c with s0*a = c (mod Phi)
        c = r0[0]
        deg = euler_phi(self.order)
        inv = [x / c for x in s0]
        inv = _reduce_mod_phi(self.order, inv + [Fraction(0)] * max(0, deg - len(inv)))
        return CycloNumber(self.order, inv[:deg])

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other * self.inverse()

    def __pow__(self, n):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.inverse() ** (-n)
        out = CycloNumber.one(self.order)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    # -- comparison / conversion ----------------------------------------------

    def __eq__(self, other):
        if isinstance(other, CycloNumber):
            return self.order == other.order and self.coeffs == other.coeffs
        if isinstance(other, _Rational):
            return self == CycloNumber.from_rational(self.order, other)
        return NotImplemented

    def __hash__(self):
        return hash((self.order, self.coeffs))

    def to_complex(self) -> complex:
        z = cmath.exp(2j * cmath.pi / self.order)
        out = 0j
        for c in reversed(self.coeffs):
            out = out * z + complex(c)
        return out

    def __repr__(self):
        terms = []
        for j, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if j == 0:
                terms.append(str(c))
            else:
                mon = "z" if j == 1 else f"z^{j}"
                terms.append(mon if c == 1 else f"{c}*{mon}")
        body = " + ".join(terms) if terms else "0"
        return f"Cyclo({self.order}: {body})"


def _zip_pad(p, q):
    n = max(len(p), len(q))
    p = list(p) + [Fraction(0)] * (n - len(p))
    q = list(q) + [Fraction(0)] * (n - len(q))
    return zip(p, q)


def _poly_mul_frac(p, q):
    if not p or not q:
        return []
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                out[i + j] += a * b
    return _trim(out)


def _frac_divmod(num, den):
    num = list(num)
    quot = [Fraction(0)] * max(0, len(num) - len(den) + 1)
    lead = den[-1]
    while len(num) >= len(den) and num:
        shift = len(num) - len(den)
        coeff = num[-1] / lead
        quot[shift] = coeff
        for i, c in enumerate(den):
            num[shift + i] -= coeff * c
        _trim(num)
    return quot, num


# ---------------------------------------------------------------------------
# exact rank from certified modular images

_PRIME_CEILING = 1 << 61
# Miller-Rabin with these bases decides primality of every n < 3.3e24
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    s, t = 0, n - 1
    while t % 2 == 0:
        s, t = s + 1, t // 2
    for a in _MR_BASES:
        x = pow(a, t, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _prime_factors(n: int) -> list:
    out, q = [], 2
    while q * q <= n:
        if n % q == 0:
            out.append(q)
            while n % q == 0:
                n //= q
        q += 1
    if n > 1:
        out.append(n)
    return out


@lru_cache(maxsize=None)
def rank_prime(d: int, k: int) -> tuple:
    """The k-th prime p = 1 (mod d) below 2^61, counting down from 2^61,
    with a primitive d-th root of unity w mod p, as ``(p, w)``.

    Sending zeta_d to w is a ring map Z[zeta_d] -> F_p, since Phi_d(w) = 0
    mod p.  Primes are found on first use for each order, not at import.
    """
    top = _PRIME_CEILING if k == 0 else rank_prime(d, k - 1)[0]
    p = top - 1 - (top - 2) % d  # largest p < top with p = 1 (mod d)
    while not _is_prime(p):
        p -= d
    factors = _prime_factors(d)
    g = 2
    while True:
        w = pow(g, (p - 1) // d, p)
        if all(pow(w, d // q, p) != 1 for q in factors):
            return p, w
        g += 1


def _rank_mod(rows, p: int, w: int, phi: int, cap: int) -> int:
    """Rank over F_p of integer rows under zeta -> w, by sparse elimination.

    ``rows`` holds lists of (column, power-basis coefficients); each row is
    reduced against the pivot rows found so far, which are kept monic in
    their leading column.
    """
    powers = [1] * phi
    for j in range(1, phi):
        powers[j] = powers[j - 1] * w % p
    pivots = {}
    for entries in rows:
        row = {}
        for col, cs in entries:
            v = sum(c * q for c, q in zip(cs, powers)) % p
            if v:
                row[col] = v
        while row:
            lead = min(row)
            piv = pivots.get(lead)
            if piv is None:
                inv = pow(row[lead], -1, p)
                pivots[lead] = {j: v * inv % p for j, v in row.items()}
                break
            f = row[lead]
            for j, v in piv.items():
                x = (row.get(j, 0) - f * v) % p
                if x:
                    row[j] = x
                else:
                    row.pop(j, None)
        if len(pivots) == cap:
            break
    return len(pivots)


def rank_exact(rows) -> int:
    """Rank over Q(zeta_d) of a matrix of :class:`CycloNumber`, certified
    from its images modulo primes.

    Each row is scaled by the lcm of its coefficient denominators, which
    leaves the rank r unchanged and puts every entry in Z[zeta_d].  For
    primes p = 1 (mod d) from :func:`rank_prime`, the row images under
    zeta -> w in F_p are eliminated sparsely.  The result is exact:

    - rank mod p <= r, since a nonzero minor mod p lifts to a nonzero minor;
    - if rank mod p < r, then p divides N(Delta) for a fixed nonzero r x r
      minor Delta: Delta lies in the kernel of Z[zeta_d] -> F_p, which is a
      prime over p, and N(Delta) is Delta times algebraic integers;
    - |N(Delta)| <= H^phi(d), where H is the product over rows of
      max(1, ||row||_2) with each entry counted as the l1-norm of its
      coefficients, because every complex embedding of Delta is bounded by
      Hadamard's inequality.

    So the distinct primes that fall short all divide one nonzero integer
    of size at most H^phi(d).  Primes are used until the rank reaches the
    number of nonzero rows or of columns, or their product exceeds
    H^phi(d); the largest rank seen is then r.
    """
    if not rows or not rows[0]:
        return 0
    ncols = len(rows[0])
    scaled = []  # nonzero rows as lists of (column, integer coefficients)
    norms = 1  # product over rows of max(1, ||row||_2^2)
    order = phi = None
    for r in rows:
        entries = [(j, x.coeffs) for j, x in enumerate(r) if x]
        if not entries:
            continue
        den = lcm(*(c.denominator for _j, cs in entries for c in cs))
        ints = [(j, tuple(c.numerator * (den // c.denominator) for c in cs)) for j, cs in entries]
        scaled.append(ints)
        norms *= sum(sum(map(abs, cs)) ** 2 for _j, cs in ints)
        if order is None:
            order, phi = r[entries[0][0]].order, len(entries[0][1])
    if not scaled:
        return 0
    cap = min(len(scaled), ncols)
    limit = norms**phi  # H^(2 phi)
    best, product, k = 0, 1, 0
    while best < cap and product * product <= limit:
        p, w = rank_prime(order, k)
        best = max(best, _rank_mod(scaled, p, w, phi, cap))
        product *= p
        k += 1
    return best


def rank_float(rows, tol: float = 1e-9) -> int:
    """Rank of a complex matrix with partial pivoting.

    A pivot counts when its magnitude exceeds tol times the largest entry
    magnitude of the input matrix; the threshold is a documented heuristic.
    """
    m = [[complex(x) for x in r] for r in rows]
    if not m or not m[0]:
        return 0
    nrows, ncols = len(m), len(m[0])
    scale = max((abs(x) for r in m for x in r), default=0.0)
    if scale == 0.0:
        return 0
    thresh = tol * scale
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


def _classify(matrix):
    """Return ('exact', order) or ('float', None); reject mixtures."""
    saw_cyclo_order = None
    saw_complex = False
    saw_other = False
    for row in matrix:
        for x in row:
            if isinstance(x, CycloNumber):
                if saw_cyclo_order is None:
                    saw_cyclo_order = x.order
                elif saw_cyclo_order != x.order:
                    raise OrderMismatch("matrix mixes cyclotomic orders")
            elif isinstance(x, complex):
                saw_complex = True
            elif isinstance(x, float):
                saw_complex = True
            elif isinstance(x, _Rational):
                saw_other = True
            else:
                raise TypeError(f"unsupported scalar {type(x).__name__}")
    if saw_cyclo_order is not None and saw_complex:
        raise ModeMismatch("matrix mixes exact and floating-point scalars")
    if saw_cyclo_order is not None:
        return "exact", saw_cyclo_order
    if saw_complex:
        return "float", None
    if saw_other:
        return "exact", 1  # plain rational matrix
    return "float", None


def rank(matrix, tol: float = 1e-9) -> int:
    """Rank of a rectangular matrix of uniform scalar mode."""
    rows = [list(r) for r in matrix]
    if not rows or not rows[0]:
        return 0
    ncols = len(rows[0])
    if any(len(r) != ncols for r in rows):
        raise ValueError("matrix is not rectangular")
    mode, order = _classify(rows)
    if mode == "float":
        return rank_float(rows, tol)
    coerced = [
        [x if isinstance(x, CycloNumber) else CycloNumber.from_rational(order, x) for x in r]
        for r in rows
    ]
    return rank_exact(coerced)


def to_complex_matrix(rows):
    """Embed an exact matrix into complex numbers via zeta_d -> e^(2 pi i/d)."""
    out = []
    for r in rows:
        out.append([x.to_complex() if isinstance(x, CycloNumber) else complex(x) for x in r])
    return out
