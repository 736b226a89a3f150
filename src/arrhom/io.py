"""Arrangement files and reports.

The input format is JSON: ``lines`` is a list of projective coefficient
triples for a*x + b*y + c*z = 0, each entry an integer or a rational string
like "3/2" (floats are rejected in exact mode); ``local_system`` carries
either ``order`` with integer ``exponents`` or float ``values`` as [re, im]
pairs.  Rationals are serialized back as strings so nothing is lost.
Integers, and strings that are the decimal text of one, are parsed as ints,
so an integer input reaches the lines' integer scaling without a
``Fraction``; a report's point coordinates are printed from the points'
integer triples.

Reports are plain dicts; serialized with sorted keys they are byte-stable
for a fixed input and seed.  :func:`report_to_json` writes exactly the text
of ``json.dumps(report, sort_keys=True, indent=2) + "\\n"``, without the
pure-Python encoder that ``json`` uses whenever ``indent`` is set: strings,
ints and floats are written by the same C-level functions ``json`` calls,
and containers by one recursive join.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote

from .bounds import beta_certificate, cdo_bound, r0_bound, sharp_pair_report
from .cyclo import MAX_ORDER
from .errors import NormalizationFailed, ParseError, PencilNotCovered
from .fox import oracle_h1
from .geometry import Arrangement, Line
from .homology import h1
from .local_system import LocalSystem

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


def _is_int_text(text: str) -> bool:
    """Whether ``text`` is the decimal text ``str`` writes for an int: ASCII
    digits with an optional minus, no leading zero, no ``-0``."""
    digits = text[1:] if text[:1] == "-" else text
    return digits.isascii() and digits.isdecimal() and (digits[0] != "0" or text == "0")


def parse_rational(value, where: str):
    """A rational coefficient: an ``int`` for a JSON integer or the decimal
    text of one, a ``Fraction`` for any other accepted literal."""
    if isinstance(value, bool):
        raise ParseError("expected a rational number, got a boolean", where)
    if isinstance(value, int):
        return value
    if isinstance(value, float):
        raise ParseError(
            "float coefficients are not accepted in exact mode; use a string like '3/2'",
            where,
        )
    if isinstance(value, str):
        if _too_large(value):
            msg = f"rational literal longer than {_MAX_LITERAL} characters or with an exponent beyond {MAX_DIGITS}"
            raise ParseError(msg, where)
        if _is_int_text(value):
            return int(value)
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


def _ratio_str(num: int, den: int) -> str:
    """num / den in lowest terms with den > 0, as "num" or "num/den"."""
    g = math.gcd(num, den)
    if den < 0:
        g = -g
    num, den = num // g, den // g
    return str(num) if den == 1 else f"{num}/{den}"


def rational_str(q) -> str:
    if type(q) is int:
        return str(q)
    q = Fraction(q)
    return _ratio_str(q.numerator, q.denominator)


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
    l_inf = record.l_inf
    return {
        "matrix": [[rational_str(v) for v in row] for row in record.matrix],
        "seed": record.seed,
        "profile": "basic",
        "l_inf": [l_inf.a, l_inf.b, l_inf.c],
    }


def _point_dict(p, resonant) -> dict:
    """A point of the basic frame, which has no point at infinity."""
    X, Y, Z = p.coords
    return {
        "id": p.index,
        "lines": list(p.line_ids),
        "multiplicity": p.multiplicity,
        "resonant": p.index in resonant,
        "x": _ratio_str(X, Z),
        "y": _ratio_str(Y, Z),
    }


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

    # the basic frame is a projective image of the input: the same line ids,
    # multiplicities and resonant points on each line
    per_line = []
    for lid in range(arr.n):
        entry = {"line": lid, "cdo": cdo_bound(narr, rep.resonant, lid)}
        if pencil:
            entry["r0"] = None
            entry["r0_note"] = "bound not applicable to pencils"
        else:
            entry["r0"] = r0_bound(narr, rep.resonant, lid)
        per_line.append(entry)
    finite_bounds = [e["cdo"] for e in per_line] + [
        e["r0"] for e in per_line if e["r0"] is not None
    ]

    report = {
        "input": dump_instance(arr, system),
        "normalization": _record_dict(rep.record),
        "census": {
            "lines": arr.n,
            "points": [_point_dict(p, rep.resonant) for p in narr.points],
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
                cert = beta_certificate(rep, system, lid)
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


def _leaf(x) -> str:
    """The JSON text of a scalar, as ``json.dumps`` writes it."""
    if isinstance(x, str):
        return _quote(x)
    if x is None:
        return "null"
    if x is True:
        return "true"
    if x is False:
        return "false"
    if isinstance(x, int):
        return int.__repr__(x)
    if isinstance(x, float):
        if x != x:
            return "NaN"
        if x in (math.inf, -math.inf):
            return "Infinity" if x > 0 else "-Infinity"
        return float.__repr__(x)
    raise TypeError(f"Object of type {type(x).__name__} is not JSON serializable")


def _encode(x, pad: str) -> str:
    """The JSON text of a dict, list or tuple nested at ``pad``."""
    if not x:
        return "{}" if isinstance(x, dict) else "[]"
    inner = pad + "  "
    parts = []
    if isinstance(x, dict):
        for key in x:
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
        for key in sorted(x):
            v = x[key]
            t = type(v)
            if t is str:
                text = _quote(v)
            elif t is int:
                text = int.__repr__(v)
            elif isinstance(v, (dict, list, tuple)):
                text = _encode(v, inner)
            else:
                text = _leaf(v)
            parts.append(_quote(key) + ": " + text)
        return "{" + inner + ("," + inner).join(parts) + pad + "}"
    for v in x:
        t = type(v)
        if t is str:
            text = _quote(v)
        elif t is int:
            text = int.__repr__(v)
        elif isinstance(v, (dict, list, tuple)):
            text = _encode(v, inner)
        else:
            text = _leaf(v)
        parts.append(text)
    return "[" + inner + ("," + inner).join(parts) + pad + "]"


def report_to_json(report) -> str:
    """Exactly ``json.dumps(report, sort_keys=True, indent=2) + "\\n"``.

    ``json`` falls back to its pure-Python encoder whenever ``indent`` is
    set, so the text is written here directly, with the same C-level
    leaves: ``encode_basestring_ascii`` for strings, ``int.__repr__`` and
    ``float.__repr__`` (NaN and the infinities as ``json`` spells them).
    Scalars are written inline in the container loops.  Keys must be str
    (reports have no other); any other key or an unsupported value raises
    TypeError.
    """
    if isinstance(report, (dict, list, tuple)):
        return _encode(report, "\n") + "\n"
    return _leaf(report) + "\n"
