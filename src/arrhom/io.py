"""Arrangement files and reports.

The input format is JSON: ``lines`` is a list of projective coefficient
triples for a*x + b*y + c*z = 0, each entry an integer or a rational string
like "3/2" (floats are rejected in exact mode); ``local_system`` carries
either ``order`` with integer ``exponents`` or float ``values`` as [re, im]
pairs.  Rationals are serialized back as strings so nothing is lost.

Reports are plain dicts; serialized with sorted keys they are byte-stable
for a fixed input and seed.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

from .bounds import beta_certificate, cdo_bound, r0_bound, sharp_pair_report
from .cyclo import MAX_ORDER
from .errors import NormalizationFailed, ParseError, PencilNotCovered
from .fox import oracle_h1
from .geometry import Arrangement, Line
from .homology import h1
from .local_system import LocalSystem, resonant_points

__all__ = [
    "MAX_DIGITS",
    "build_report",
    "dump_instance",
    "parse_instance",
    "parse_rational",
    "rational_str",
]


# Most digits of a line coefficient once the line is scaled to integers.
# Reports print numbers in decimal, and CPython (3.11 on) converts no int of
# more than 4300 digits.  The largest printed numbers are the basic frame's
# points: 2 x 2 minors of the coefficients (at most 2 * MAX_DIGITS + 1
# digits) times the few-digit entries of the normalization map, so they stay
# near 2000 digits.
MAX_DIGITS = 1000
_MAX_LITERAL = 2 * MAX_DIGITS + 2  # a numerator, a denominator, a sign and a slash


def _json_int(text: str):
    """A JSON integer, kept as text when it has more than MAX_DIGITS digits,
    so that it is rejected with its position, not by the int conversion limit."""
    return int(text) if len(text.lstrip("-")) <= MAX_DIGITS else text


def _too_large(literal: str) -> bool:
    """Whether a rational literal is too long or has a decimal exponent beyond
    MAX_DIGITS, read from its text: ``Fraction("1e100000000")`` alone builds
    an integer of 10^8 digits."""
    exponent = literal.lower().partition("e")[2].strip().lstrip("+-").replace("_", "")
    return len(literal) > _MAX_LITERAL or (exponent.isdecimal() and int(exponent) > MAX_DIGITS)


def parse_rational(value, where: str) -> Fraction:
    if isinstance(value, bool):
        raise ParseError("expected a rational number, got a boolean", where)
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        raise ParseError(
            "float coefficients are not accepted in exact mode; use a string like '3/2'",
            where,
        )
    if isinstance(value, str):
        if _too_large(value):
            msg = f"rational literal longer than {_MAX_LITERAL} characters or with an exponent beyond {MAX_DIGITS}"
            raise ParseError(msg, where)
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"bad rational literal {value!r} ({exc})", where) from None
    raise ParseError(f"expected a rational number, got {type(value).__name__}", where)


def _parse_float(value, where: str) -> float:
    """A finite real number: a JSON number or a numeric string."""
    if isinstance(value, bool) or not isinstance(value, (int, float, str)):
        raise ParseError(f"expected a real number, got {type(value).__name__}", where)
    try:
        out = float(value)
    except (ValueError, OverflowError):
        raise ParseError(f"bad real number {value!r}", where) from None
    if not math.isfinite(out):
        raise ParseError(f"real number {value!r} is not finite", where)
    return out


def rational_str(q: Fraction) -> str:
    q = Fraction(q)
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def parse_instance(text: str):
    """Parse an arrangement file into (Arrangement, LocalSystem)."""
    try:
        doc = json.loads(text, parse_int=_json_int)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg}", f"line {exc.lineno} column {exc.colno}") from None
    except RecursionError:
        raise ParseError("invalid JSON: nested too deeply", "$") from None
    if not isinstance(doc, dict):
        raise ParseError("top level must be an object", "$")
    raw_lines = doc.get("lines")
    if not isinstance(raw_lines, list) or not raw_lines:
        raise ParseError("'lines' must be a non-empty list", "lines")
    lines = []
    for i, triple in enumerate(raw_lines):
        if not isinstance(triple, list) or len(triple) != 3:
            raise ParseError("each line needs exactly three coefficients", f"lines[{i}]")
        coeffs = [parse_rational(v, f"lines[{i}][{j}]") for j, v in enumerate(triple)]
        if coeffs == [0, 0, 0]:
            raise ParseError("line coefficients must not all vanish", f"lines[{i}]")
        line = Line.from_coeffs(*coeffs)
        if max(abs(line.a), abs(line.b), abs(line.c)) >= 10**MAX_DIGITS:
            raise ParseError(f"a coefficient has more than {MAX_DIGITS} digits in integer form", f"lines[{i}]")
        lines.append(line)
    try:
        arr = Arrangement(lines)
    except Exception as exc:
        raise ParseError(str(exc), "lines") from None

    raw_ls = doc.get("local_system")
    if not isinstance(raw_ls, dict):
        raise ParseError("'local_system' must be an object", "local_system")
    if "values" in raw_ls:
        vals = raw_ls["values"]
        if not isinstance(vals, list) or len(vals) != arr.n:
            raise ParseError("'values' must list one [re, im] pair per line", "local_system.values")
        parsed = []
        for i, pair in enumerate(vals):
            where = f"local_system.values[{i}]"
            if not isinstance(pair, list) or len(pair) != 2:
                raise ParseError("each value is an [re, im] pair", where)
            parsed.append(complex(*(_parse_float(v, where) for v in pair)))
        try:
            system = LocalSystem(values=parsed)
        except ValueError as exc:
            raise ParseError(str(exc), "local_system.values") from None
    else:
        order = raw_ls.get("order")
        exps = raw_ls.get("exponents")
        if not isinstance(order, int) or isinstance(order, bool) or order < 1:
            raise ParseError("'order' must be a positive integer", "local_system.order")
        if order > MAX_ORDER:
            raise ParseError(f"'order' must be at most {MAX_ORDER}, got {order}", "local_system.order")
        if not isinstance(exps, list) or len(exps) != arr.n:
            raise ParseError("'exponents' must list one integer per line", "local_system.exponents")
        for i, k in enumerate(exps):
            if not isinstance(k, int) or isinstance(k, bool):
                msg = f"exponents must be integers of at most {MAX_DIGITS} digits"
                raise ParseError(msg, f"local_system.exponents[{i}]")
        system = LocalSystem(order=order, exponents=exps)
    return arr, system


def dump_instance(arr: Arrangement, system: LocalSystem) -> dict:
    doc = {
        "lines": [[rational_str(l.a), rational_str(l.b), rational_str(l.c)] for l in arr.lines]
    }
    if system.is_exact:
        doc["local_system"] = {"order": system.order, "exponents": list(system.exponents)}
    else:
        doc["local_system"] = {"values": [[v.real, v.imag] for v in system.values]}
    return doc


def _record_dict(record) -> dict:
    return {
        "matrix": [[rational_str(v) for v in row] for row in record.matrix],
        "seed": record.seed,
        "profile": "basic",
        "l_inf": [record.l_inf.a, record.l_inf.b, record.l_inf.c],
    }


def _point_dict(arr, p, resonant) -> dict:
    out = {
        "id": p.index,
        "lines": list(p.line_ids),
        "multiplicity": p.multiplicity,
        "resonant": p.index in resonant,
    }
    if p.is_infinite:
        out["at_infinity"] = True
        out["direction"] = [rational_str(p.coords[0]), rational_str(p.coords[1])]
    else:
        out["x"] = rational_str(p.x)
        out["y"] = rational_str(p.y)
    return out


def build_report(
    arr: Arrangement,
    system: LocalSystem,
    seed: int = 0,
    with_oracle: bool = True,
    with_certificates: bool = False,
) -> dict:
    """The full JSON-ready report for one instance."""
    rep = h1(arr, system, seed)
    narr = rep.arrangement
    sp = sharp_pair_report(arr, system, rep.h1)
    pencil = len(arr.points) <= 1
    resonant = resonant_points(arr, system)

    per_line = []
    for lid in range(arr.n):
        entry = {"line": lid, "cdo": cdo_bound(arr, resonant, lid)}
        if pencil:
            entry["r0"] = None
            entry["r0_note"] = "bound not applicable to pencils"
        else:
            entry["r0"] = r0_bound(arr, resonant, lid)
        per_line.append(entry)
    finite_bounds = [e["cdo"] for e in per_line] + [
        e["r0"] for e in per_line if e["r0"] is not None
    ]

    report = {
        "input": dump_instance(arr, system),
        "normalization": _record_dict(rep.record),
        "census": {
            "lines": arr.n,
            "points": [_point_dict(narr, p, rep.resonant) for p in narr.points],
            "resonant_points": list(rep.resonant.point_ids),
            "bounded_chambers": rep.num_chamber_rows,
            "zaslavsky_ok": rep.zaslavsky_ok,
        },
        "matrix": {
            "rows": rep.num_rows,
            "point_rows": rep.num_point_rows,
            "chamber_rows": rep.num_chamber_rows,
            "columns": rep.dim_A,
            "zero_chamber_rows": list(rep.zero_chamber_rows),
        },
        "dim_A": rep.dim_A,
        "rank": rep.rank_K,
        "h1": rep.h1,
        "euler_characteristic": rep.euler,
        "h2": rep.h2,
        "bounds": {"per_line": per_line, "min": min(finite_bounds) if finite_bounds else 0},
        "sharp_pairs": [list(p) for p in sp.pairs],
        "consistency": {
            "zaslavsky_ok": rep.zaslavsky_ok,
            "float_rank_agrees": rep.float_agrees,
        },
    }

    report["theorems"] = {
        "resonant_count_bound": {
            "applicable": not pencil,
            "satisfied": None if pencil else all(
                rep.h1 <= e["r0"] for e in per_line if e["r0"] is not None
            ),
        },
        "sharp_pair_bound": {
            "applicable": sp.bound_applicable,
            "satisfied": sp.bound_satisfied,
        },
        "even_constant_vanishing": {
            "applicable": sp.vanishing_applicable,
            "satisfied": sp.vanishing_satisfied,
            "constant_order": sp.constant_order,
        },
    }

    if with_oracle and system.is_exact:
        value = oracle_h1(arr, system, 0)
        report["oracle"] = {"h1": value, "agrees": value == rep.h1}
        report["consistency"]["oracle_agrees"] = value == rep.h1
    else:
        report["oracle"] = None

    if with_certificates and system.is_exact and not pencil:
        certs = []
        for lid in range(arr.n):
            try:
                cert = beta_certificate(narr, system, lid)
            except (NormalizationFailed, PencilNotCovered) as exc:
                certs.append({"line": lid, "status": f"unavailable: {exc}"})
                continue
            certs.append(
                {
                    "line": lid,
                    "status": "ok" if cert.ok else "FAILED",
                    "resonant_on_line": cert.n_r0,
                    "lines_through_them": cert.n_a_prime,
                    "neighbors": len(set(cert.neighbors.values())),
                    "all_in_kernel": cert.all_in_kernel,
                    "family_rank": cert.family_rank,
                    "independent": cert.independent,
                    "counting_ok": cert.counting_ok,
                    "implied_bound": cert.bound_value,
                }
            )
        report["beta_certificates"] = certs

    return report


def report_to_json(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2) + "\n"
