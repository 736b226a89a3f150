"""Exact arithmetic in the cyclotomic integers Z[zeta_d], plus matrix rank.

An element is stored as a sparse map from exponents k mod d to nonzero int
coefficients, the combination sum c_k zeta^k.  Every exact quantity of the
program is such a combination with few terms: monodromies, partial
products, point and chamber rows, Fox derivatives and beta vectors.  So the
ring operations never touch the power basis: a sum merges two maps and a
product convolves their exponents mod d, which is a shift when one factor
is a monomial.  A value is built only from ints; any other coefficient
raises ``TypeError``.  The only divisors are partial products of
monodromies, so only the units +-zeta^k are inverted.

The map is not a canonical form (for d = 3, 1 + zeta + zeta^2 = 0).  The
power-basis coefficients modulo Phi_d are computed only when equality,
printing or the zero test of a map with three or more terms needs them.
Monomials need no reduction: c zeta^a = c' zeta^b exactly when a = b and
c = c', or when d is even, b = a + d/2 and c = -c'.

Exact rank is computed from modular images, not over Q(zeta_d) itself.
Every entry lies in Z[zeta_d].  For a prime p = 1 (mod d) and a primitive
d-th root w mod p, zeta -> w is a ring map Z[zeta_d] -> F_p, so the rank
mod p never exceeds the rank r, and it falls short only when p divides
the norm N(Delta) of a fixed nonzero r x r minor Delta.  Every complex
embedding sends zeta^k to a number of modulus 1, so it sends an entry to a
number of modulus at most the l1 norm of its map, and Hadamard's inequality
bounds |N(Delta)| by H^phi(d), where H is the product of the row norms of
Delta's own r rows with each entry counted as that l1 norm; r is at most
the rank's cap, so the cap largest row norms bound it.  Once the distinct
primes used multiply to more than H^phi(d), one of them reached r, so the
largest rank seen is exact.  A first prime that reaches the cap needs no
bound, so the norms are computed only when it falls short.  The certified
core, :func:`rank_exponent_maps`, takes flat rows that key the int
coefficient of zeta^k at column j as j * d + k; :func:`flatten_rows` checks
rows of ``CycloNumber`` entries and writes their terms into such rows (for
:func:`rank_exact` and the certificates' members), and the relation matrix
and the Fox oracle build them themselves.

A row is a map from column to value, as its builder made it; an absent
entry is zero.  A floating-point fallback exists for monodromy values that
are not roots of unity: copies of rows of ``complex`` numbers are
eliminated as maps, with partial pivoting and a relative tolerance, and
choose the same pivots as a dense elimination of the same rows would
(:func:`rank_float`).  Rows must be all-exact or all-float; mixtures raise
:class:`~arrhom.errors.ModeMismatch`.
"""

from __future__ import annotations

import cmath
from functools import lru_cache
from math import prod

from .errors import InvariantError, ModeMismatch, OrderMismatch

__all__ = [
    "MAX_ORDER",
    "CycloNumber",
    "column_entries",
    "euler_phi",
    "flatten_rows",
    "rank",
    "rank_exact",
    "rank_exponent_maps",
    "rank_float",
    "rank_prime",
]

# Largest accepted order d.  A rank below its cap is certified with about
# phi(d) * log2(H) / 60 primes of 61 bits, so a report with h1 > 0 takes time in
# proportion to phi(d); and values zeta^k with small k/d lie so close to 1
# that the float cross-check can lose the rank.  The complete quadrilateral
# with h1 = 1 takes 2.8 s at order 16381 and passes every check; at 32749
# its float cross-check fails (README, "Guarantees and limits").
MAX_ORDER = 1 << 14


@lru_cache(maxsize=None)
def _prime_factors(n: int) -> tuple:
    out, q = [], 2
    while q * q <= n:
        if n % q == 0:
            out.append(q)
            while n % q == 0:
                n //= q
        q += 1
    if n > 1:
        out.append(n)
    return tuple(out)


def euler_phi(d: int) -> int:
    """phi(d) = d * prod(1 - 1/q) over the primes q dividing d."""
    if d < 1:
        raise ValueError("order must be a positive integer")
    out = d
    for q in _prime_factors(d):
        out = out // q * (q - 1)
    return out


@lru_cache(maxsize=None)
def _binomials(d):
    """Exponents a with (x^d - 1)/Phi_d = prod (x^a - 1) over ``up`` / prod over ``down``.

    Phi_d is the product of (x^(d/e) - 1)^mu(e) over the squarefree divisors
    e of d; the factor e = 1 is x^d - 1 itself.
    """
    primes = _prime_factors(d)
    up, down = [], []
    for mask in range(1, 1 << len(primes)):
        e = 1
        for i, q in enumerate(primes):
            if mask >> i & 1:
                e *= q
        (up if bin(mask).count("1") % 2 else down).append(d // e)
    return tuple(up), tuple(down)


def _times_binomial(f, a):
    """f * (x^a - 1)."""
    out = [0] * a + f
    for i, c in enumerate(f):
        out[i] -= c
    return out


def _over_binomial(f, a):
    """f / (x^a - 1), which must be exact."""
    n = len(f) - a
    q = [0] * max(n, 0)
    for i in range(n):
        q[i] = (q[i - a] if i >= a else 0) - f[i]
    for i in range(max(n, 0), len(f)):
        if f[i] != (q[i - a] if 0 <= i - a < n else 0):
            raise InvariantError(f"x^{a} - 1 does not divide the polynomial")
    return q


def _power_basis(d, terms) -> tuple:
    """The coefficients of sum c_k x^k modulo Phi_d, as a tuple of length phi(d).

    With B = (x^d - 1)/Phi_d and f = q Phi_d + r, f B = q (x^d - 1) + r B and
    deg(r B) < d, so folding f B modulo x^d - 1 leaves r B, and dividing by B
    leaves r.  B is a ratio of binomials x^a - 1, so each step is O(d).
    """
    phi = euler_phi(d)
    if all(k < phi for k in terms):
        out = [0] * phi
        for k, c in terms.items():
            out[k] = c
        return tuple(out)
    up, down = _binomials(d)
    f = [0] * d
    for k, c in terms.items():
        f[k] = c
    for a in up:
        f = _times_binomial(f, a)
    for a in down:
        f = _over_binomial(f, a)
    folded = f[:d]
    for i in range(d, len(f)):
        folded[i - d] += f[i]
    for a in down:
        folded = _times_binomial(folded, a)
    for a in up:
        folded = _over_binomial(folded, a)
    return tuple(folded)


@lru_cache(maxsize=None)
def _horner_chain(d: int) -> tuple:
    """Horner values of zeta_d^k for k < phi(d): v_0 = 1, v_(k+1) = v_k z + 0."""
    z = cmath.exp(2j * cmath.pi / d)
    out = [1 + 0j]
    for _ in range(1, euler_phi(d)):
        out.append(out[-1] * z + 0j)
    return tuple(out)


@lru_cache(maxsize=None)
def _unit(d: int, k: int) -> complex:
    """zeta_d^k as a complex number, bit for bit the Horner evaluation of its
    power-basis coefficients at e^(2 pi i/d).

    For k < phi(d) the coefficients are a single 1 at k: Horner multiplies 1
    by z k times, adding 0 each time.  Larger k are reduced first.
    """
    if k < euler_phi(d):
        return _horner_chain(d)[k]
    z = cmath.exp(2j * cmath.pi / d)
    out = 0j
    for c in reversed(_power_basis(d, {k: 1})):
        out = out * z + complex(c)
    return out


_set = object.__setattr__


def _make(order, terms):
    """A CycloNumber from a map that has no zero coefficient."""
    out = object.__new__(CycloNumber)
    _set(out, "order", order)
    _set(out, "terms", terms)
    return out


def _not_int(c) -> TypeError:
    return TypeError(f"cyclotomic integers take int coefficients, not {type(c).__name__}")


class CycloNumber:
    """An element of Z[zeta_d]: a sparse map from exponents mod d to ints.

    ``terms`` must not be mutated.  Build values with the class methods.
    """

    __slots__ = ("order", "terms")

    def __setattr__(self, name, value):
        raise AttributeError("CycloNumber is immutable")

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, order):
        return _make(order, {})

    @classmethod
    def one(cls, order):
        return _make(order, {0: 1})

    @classmethod
    def from_terms(cls, order, terms):
        """sum c zeta^k over a map k -> c of ints; exponents are read mod d."""
        out = {}
        for k, c in terms.items():
            if type(c) is not int:
                raise _not_int(c)
            k %= order
            v = out.get(k, 0) + c
            if v:
                out[k] = v
            else:
                out.pop(k, None)
        return _make(order, out)

    @classmethod
    def zeta(cls, order, power=1):
        """zeta_d^power."""
        return _make(order, {power % order: 1})

    # -- helpers -------------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, CycloNumber):
            if other.order != self.order:
                raise OrderMismatch(
                    f"orders differ: {self.order} vs {other.order}"
                )
            return other
        if type(other) is int:
            return _make(self.order, {0: other} if other else {})
        raise _not_int(other)

    @property
    def is_zero(self):
        terms = self.terms
        if len(terms) <= 1:
            return not terms
        if len(terms) == 2:
            # c zeta^a + c' zeta^b vanishes only as c zeta^a - c zeta^(a + d/2)
            (a, c), (b, c2) = terms.items()
            d = self.order
            return c == c2 and 2 * (a - b) % d == 0
        return not any(_power_basis(self.order, terms))

    def __bool__(self):
        return not self.is_zero

    # -- ring operations ------------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        a, b = self.terms, other.terms
        if len(a) < len(b):
            a, b = b, a
        out = dict(a)
        for k, c in b.items():
            s = out.get(k, 0) + c
            if s:
                out[k] = s
            else:
                del out[k]
        return _make(self.order, out)

    __radd__ = __add__

    def __neg__(self):
        return _make(self.order, {k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __mul__(self, other):
        other = self._coerce(other)
        d = self.order
        a, b = self.terms, other.terms
        if len(a) < len(b):
            a, b = b, a
        if len(b) == 1:
            ((s, f),) = b.items()
            return _make(d, {(k + s) % d: c * f for k, c in a.items()})
        out = {}
        for s, f in b.items():
            for k, c in a.items():
                e = (k + s) % d
                v = out.get(e, 0) + c * f
                if v:
                    out[e] = v
                else:
                    out.pop(e, None)
        return _make(d, out)

    __rmul__ = __mul__

    def inverse(self):
        """The inverse of a unit +-zeta^k, which negates its exponent.

        The program divides only by partial products of monodromies, so no
        other inverse is needed: any other nonzero map raises ``ValueError``,
        also one that equals a unit in the ring (1 + zeta_3 = -zeta_3^2),
        and zero raises ``ZeroDivisionError``.
        """
        d, terms = self.order, self.terms
        if len(terms) == 1:
            ((k, c),) = terms.items()
            if c in (1, -1):
                return _make(d, {-k % d: c})
        elif self.is_zero:
            raise ZeroDivisionError("inverse of zero cyclotomic number")
        raise ValueError(f"{self!r} is not a unit +-zeta^k")

    def __truediv__(self, other):
        return self * self._coerce(other).inverse()

    # -- comparison / conversion ----------------------------------------------

    def __eq__(self, other):
        if type(other) is int:
            other = self._coerce(other)
        elif not isinstance(other, CycloNumber):
            return NotImplemented
        return self.order == other.order and (self - other).is_zero

    def to_complex(self) -> complex:
        """The embedding zeta_d -> e^(2 pi i/d), as one sum over the exponents."""
        d = self.order
        out = 0j
        for k, c in self.terms.items():
            u = _unit(d, k)
            out += u if c == 1 else c * u
        return out

    def __repr__(self):
        terms = []
        for j, c in enumerate(_power_basis(self.order, self.terms)):
            if c == 0:
                continue
            if j == 0:
                terms.append(str(c))
            else:
                mon = "z" if j == 1 else f"z^{j}"
                terms.append(mon if c == 1 else f"{c}*{mon}")
        body = " + ".join(terms) if terms else "0"
        return f"Cyclo({self.order}: {body})"


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
        if p < 2:
            raise ValueError(f"no prime p = 1 (mod {d}) below 2^61")
    factors = _prime_factors(d)
    g = 2
    while True:
        w = pow(g, (p - 1) // d, p)
        if all(pow(w, d // q, p) != 1 for q in factors):
            return p, w
        g += 1


def _rank_mod(rows, p: int, w: int, exponents, cap: int) -> int:
    """Rank over F_p of integer rows under zeta -> w, by sparse elimination.

    ``rows`` holds lists of (column, exponent, nonzero int coefficient);
    ``exponents`` are the exponents that occur, whose images w^k are
    computed once.  Each row is reduced against the pivot rows found so far,
    which are kept monic in their leading column.
    """
    powers = {k: pow(w, k, p) for k in exponents}
    pivots = {}
    for terms in rows:
        row = {}
        for col, k, c in terms:
            row[col] = row.get(col, 0) + c * powers[k]
        row = {col: m for col, v in row.items() if (m := v % p)}
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


_FLOATS = (complex, float)
_PIVOT_TOL = 1e-9  # relative pivot threshold of the float mode, a documented heuristic


def _mismatch(x) -> Exception:
    """The typed error for an entry that does not fit the mode of its rows."""
    if isinstance(x, (CycloNumber, *_FLOATS)):
        return ModeMismatch("rows mix exact and floating-point values")
    return TypeError(f"unsupported scalar {type(x).__name__}")


def flatten_rows(rows) -> tuple:
    """Rows that map int columns to :class:`CycloNumber` entries as flat rows
    keyed j * d + k, the format of :func:`rank_exponent_maps`, with their
    order d (``None`` when no row has an entry).

    Each entry's own terms are written, with no rescaling.  An entry that is
    not a ``CycloNumber`` raises :class:`~arrhom.errors.ModeMismatch` (or
    ``TypeError`` for a scalar of no mode), two orders raise
    :class:`~arrhom.errors.OrderMismatch`, and a column that is not an int,
    whose key would read back as another column's, raises ``TypeError``.
    """
    flat_rows = []
    order = None
    for r in rows:
        flat = {}
        for j, x in r.items():
            if type(x) is not CycloNumber:
                raise _mismatch(x)
            if x.order != order:
                if order is not None:
                    raise OrderMismatch(f"rows mix cyclotomic orders {order} and {x.order}")
                order = x.order
            if type(j) is not int:
                raise TypeError(f"exact rank takes int columns, not {type(j).__name__}")
            base = j * order
            for k, c in x.terms.items():
                flat[base + k] = c
        flat_rows.append(flat)
    return flat_rows, order


def column_entries(row, order: int) -> dict:
    """A flat row, keyed j * d + k, read back as a map from column j to its
    :class:`CycloNumber` entry, the sum of the row's c zeta^k at that column."""
    terms = {}
    for key, c in row.items():
        j, k = divmod(key, order)
        terms.setdefault(j, {})[k] = c
    return {j: CycloNumber.from_terms(order, t) for j, t in terms.items()}


def rank_exact(rows, upper: int | None = None) -> int:
    """Rank over Q(zeta_d) of rows that map int columns to :class:`CycloNumber`.

    Every entry lies in Z[zeta_d], with int coefficients by construction, so
    the rows are checked and written as flat rows (:func:`flatten_rows`, which
    names the errors) for :func:`rank_exponent_maps`, which certifies the rank.
    """
    return rank_exponent_maps(*flatten_rows(rows), upper)


def rank_exponent_maps(rows, order: int, upper: int | None = None) -> int:
    """Rank over Q(zeta_d), d = ``order``, of flat integer rows, certified
    from their images modulo primes.

    A row maps the key j * d + k, for an int column j and 0 <= k < d, to the
    int coefficient c of c zeta^k in its entry at column j; a zero c is no
    term, and rows are not mutated.  One pass splits each key into its
    column and exponent.  For primes p = 1 (mod d) from :func:`rank_prime`,
    the row images under zeta -> w in F_p are eliminated sparsely.  The
    result is the rank r over Q(zeta_d):

    - rank mod p <= r, since a nonzero minor mod p lifts to a nonzero minor;
    - if rank mod p < r, then p divides N(Delta) for a fixed nonzero r x r
      minor Delta: Delta lies in the kernel of Z[zeta_d] -> F_p, which is a
      prime over p, and N(Delta) is Delta times algebraic integers;
    - |N(Delta)| <= H^phi(d), where H is the product of the ``cap`` largest
      row norms max(1, ||row||_2), each entry counted as the l1 norm of its
      coefficients.  Every complex embedding sends zeta^k to a number of
      modulus 1, so that l1 norm bounds the entry in every embedding, and
      Hadamard's inequality bounds every embedding of Delta by the product
      of the norms of its own r rows.  Since r <= cap and every norm of a
      nonzero row is >= 1, that product is at most H.

    So the distinct primes that fall short all divide one nonzero integer
    of size at most H^phi(d).  Primes are used until the rank reaches
    ``cap``, the least of the number of nonzero rows, of columns with a
    nonzero entry and ``upper``, or their product exceeds H^phi(d); the
    largest rank seen is then r.  The first prime always runs, and a rank
    that reaches ``cap`` needs no bound, so the norms, H and the bit target
    are computed only once the first prime falls short; the primes used and
    the rank are the same as if they had been computed first.  An entry's
    coefficients are those of its exponent map, so H, the cap and the
    primes do not depend on the format.
    ``upper`` must be an upper bound on r that the caller knows: a prime
    that reaches it proves r = upper.  The comparison is by bit lengths:
    the product is at least 2^b with
    b = sum(bit_length(p) - 1), and H^(2 phi(d)) < 2^(phi(d) * bit_length(H^2)),
    so 2 b >= that exponent proves product > H^phi(d).

    Zero tests are structural: a zero coefficient is skipped.  Nonzero
    coefficients that sum to zero are kept; their images are 0 mod every p.
    """
    int_rows = []  # nonzero rows as lists of (column, exponent, coefficient)
    exponents = set()
    columns = set()
    for r in rows:
        terms = []
        for key, c in r.items():
            if c:
                j, k = divmod(key, order)
                terms.append((j, k, c))
                exponents.add(k)
                columns.add(j)
        if terms:
            int_rows.append(terms)
    cap = min(len(int_rows), len(columns))
    if upper is not None:
        cap = min(cap, upper)
    if cap <= 0:
        return 0
    p, w = rank_prime(order, 0)
    best = _rank_mod(int_rows, p, w, exponents, cap)
    if best == cap:
        return best
    need = _norm_bits(int_rows, order, cap)  # H^(2 phi) < 2^need
    bits, k = p.bit_length() - 1, 1
    while best < cap and 2 * bits < need:
        p, w = rank_prime(order, k)
        best = max(best, _rank_mod(int_rows, p, w, exponents, cap))
        bits += p.bit_length() - 1
        k += 1
    return best


def _norm_bits(int_rows, order: int, cap: int) -> int:
    """phi(d) * bit_length(H^2), for H the product of the ``cap`` largest row
    norms max(1, ||row||_2), each entry counted as the l1 norm of its
    coefficients; so H^(2 phi(d)) < 2^result."""
    norms = []  # ||row||_2^2 per nonzero row, each >= 1
    for terms in int_rows:
        l1 = {}  # column -> l1 norm of its entry
        for j, _k, c in terms:
            l1[j] = l1.get(j, 0) + abs(c)
        norms.append(sum(v * v for v in l1.values()))
    norms.sort(reverse=True)
    return euler_phi(order) * prod(norms[:cap]).bit_length()


def rank_float(rows) -> int:
    """Rank of rows that map columns to complex numbers, with partial pivoting.

    Copies of the rows are eliminated as maps over the sorted columns that
    occur; an absent entry is zero.  For column c the pivot is the first
    remaining row of largest magnitude there, and it counts when that
    exceeds 1e-9 times the largest entry magnitude; the threshold is a
    documented heuristic.  A swap moves it to the top of the remaining rows,
    empty ones included, and each remaining row with a nonzero entry at c is
    reduced at the pivot row's entries in columns >= c.

    A dense elimination of the same rows makes the same choices.  It also
    subtracts f * 0j where the pivot row holds a zero, which changes at most
    the sign of a zero; finite arithmetic carries such a difference only
    into signs of zeros, and neither ``abs`` nor ``!= 0`` sees one.  So both
    choose the same pivots and give the same rank.
    """
    for r in rows:
        for x in r.values():
            if not isinstance(x, _FLOATS):
                raise _mismatch(x)
    m = [{j: complex(x) for j, x in r.items()} for r in rows]
    scale = max((abs(x) for row in m for x in row.values()), default=0.0)
    if scale == 0.0:
        return 0
    thresh = _PIVOT_TOL * scale
    nrows = len(m)
    r = 0
    for c in sorted({j for row in m for j in row}):
        piv, best = None, thresh
        for i in range(r, nrows):
            x = abs(m[i].get(c, 0j))
            if x > best:
                piv, best = i, x
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        p = m[r][c]
        tail = [(j, v) for j, v in m[r].items() if j >= c]
        for row in m[r + 1:]:
            x = row.get(c)
            if x:  # present and nonzero
                f = x / p
                for j, v in tail:
                    row[j] = row.get(j, 0j) - f * v
        r += 1
        if r == nrows:
            break
    return r


def rank(rows, upper: int | None = None) -> int:
    """Rank of rows that map columns to values, in the mode of the first
    value: :func:`rank_exact` (with ``upper``, a known bound on the rank) for
    a :class:`CycloNumber`, :func:`rank_float` otherwise; 0 without values.
    """
    for r in rows:
        for x in r.values():
            return rank_exact(rows, upper) if type(x) is CycloNumber else rank_float(rows)
    return 0
