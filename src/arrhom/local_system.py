"""Rank-one monodromy data on an arrangement and resonant points.

A local system assigns to every line a nonzero complex number whose product
over all lines is 1.  The exact mode stores roots of unity zeta_d^k through
integer exponents modulo a common order d; the float mode stores arbitrary
unit-modulus complex values.  Lines with trivial monodromy are rejected
outright: the homology algorithm assumes nontriviality on every line.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cyclo import MAX_ORDER, CycloNumber
from .errors import NotALocalSystem, TrivialOnLine
from .geometry import Arrangement

__all__ = ["AdmissibilityReport", "LocalSystem", "ResonantSet", "resonant_points"]

_UNIT_TOL = 1e-12
_PRODUCT_TOL = 1e-9


@dataclass(frozen=True)
class AdmissibilityReport:
    ok: bool
    product_ok: bool
    trivial_lines: tuple
    message: str = ""


class LocalSystem:
    """Monodromy map for the lines of an arrangement, exact or float."""

    def __init__(self, order=None, exponents=None, values=None):
        if values is not None:
            if order is not None or exponents is not None:
                raise ValueError("give either exponents with an order, or values")
            vals = tuple(complex(v) for v in values)
            for v in vals:
                if not abs(abs(v) - 1.0) <= _UNIT_TOL:  # NaN fails too
                    raise ValueError("float monodromy values must have modulus 1")
            self.order = None
            self.exponents = None
            self.values = vals
        else:
            if order is None or exponents is None:
                raise ValueError("exact mode needs an order and exponents")
            if type(order) is not int or not 1 <= order <= MAX_ORDER:
                raise ValueError(f"order must be an int from 1 to {MAX_ORDER}")
            exponents = tuple(exponents)
            if any(type(k) is not int for k in exponents):
                raise ValueError("exponents must be ints")
            self.order = order
            self.exponents = tuple(k % order for k in exponents)
            self.values = None

    @property
    def is_exact(self) -> bool:
        return self.values is None

    @property
    def n(self) -> int:
        return len(self.exponents if self.is_exact else self.values)

    def m(self, line_id: int):
        """Monodromy of one line, as a CycloNumber or a complex number."""
        if self.is_exact:
            return CycloNumber.zeta(self.order, self.exponents[line_id])
        return self.values[line_id]

    def one(self):
        return CycloNumber.one(self.order) if self.is_exact else complex(1.0)

    def to_float(self) -> "LocalSystem":
        if not self.is_exact:
            return self
        return LocalSystem(values=[self.m(i).to_complex() for i in range(self.n)])

    def validate(self, arr: Arrangement) -> AdmissibilityReport:
        """Check the product-one constraint and nontriviality on every line."""
        if self.n != arr.n:
            return AdmissibilityReport(
                False, False, (), "exponent count differs from the line count"
            )
        if self.is_exact:
            product_ok = sum(self.exponents) % self.order == 0
            trivial = tuple(i for i, k in enumerate(self.exponents) if k == 0)
        else:
            prod = complex(1.0)
            for v in self.values:
                prod *= v
            product_ok = abs(prod - 1.0) <= _PRODUCT_TOL
            trivial = tuple(
                i for i, v in enumerate(self.values) if abs(v - 1.0) <= _PRODUCT_TOL
            )
        ok = product_ok and not trivial
        msg = ""
        if not product_ok:
            msg = "monodromy values do not multiply to 1"
        elif trivial:
            msg = f"trivial monodromy on lines {list(trivial)}"
        return AdmissibilityReport(ok, product_ok, trivial, msg)

    def require_admissible(self, arr: Arrangement):
        rep = self.validate(arr)
        if not rep.product_ok:
            raise NotALocalSystem(rep.message)
        if rep.trivial_lines:
            raise TrivialOnLine(rep.message)
        return rep

    def is_resonant_at(self, point) -> bool:
        if point.multiplicity < 3:
            return False
        if self.is_exact:
            return sum(self.exponents[i] for i in point.line_ids) % self.order == 0
        prod = complex(1.0)
        for i in point.line_ids:
            prod *= self.values[i]
        return abs(prod - 1.0) <= _PRODUCT_TOL

    def __repr__(self):
        if self.is_exact:
            return f"LocalSystem(order={self.order}, exponents={list(self.exponents)})"
        return f"LocalSystem(float, {len(self.values)} values)"


@dataclass(frozen=True)
class ResonantSet:
    """Resonant point ids together with their restriction to each line."""

    point_ids: tuple
    by_line: tuple  # tuple over line ids of tuples of point ids

    def on_line(self, line_id: int) -> tuple:
        return self.by_line[line_id]

    def __contains__(self, point_id) -> bool:
        return point_id in self.point_ids

    def __len__(self):
        return len(self.point_ids)


def resonant_points(arr: Arrangement, system: LocalSystem) -> ResonantSet:
    """Points of multiplicity >= 3 where the incident monodromies multiply to 1."""
    ids = []
    per_line = [[] for _ in range(arr.n)]
    for p in arr.points:
        if system.is_resonant_at(p):
            ids.append(p.index)
            for i in p.line_ids:
                per_line[i].append(p.index)
    return ResonantSet(tuple(ids), tuple(tuple(v) for v in per_line))
