"""JSON literal formats shared by every CLI subcommand.

Element format:

    {"ring": {"type": "Q"}, "entries": [["1/2", "-3"], ...]}
    {"ring": {"type": "Zmod", "n": 4}, "entries": [[3]]}
    {"ring": {"type": "MatZmod", "n": 2, "size": 6}, "entries": [[0, 1], ...]}

Rational entries are strings ("p/q" or a plain integer string); modular
entries, n and size are JSON integers, and a float, bool or string there
is an InputError.  A bare integer is accepted for Zmod input.  Triples
are {"a": <elem>, "b": <elem>, "c": <elem>} in one common ring.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import gcd

from .drazin import DrazinCertificate
from .errors import InputError
from .rings import (
    MatrixContext,
    MatrixRingContext,
    RingElem,
    ZModContext,
    matrix_ring,
    rationals_matrix,
    zmod,
)


def _shown(text: str, width: int = 40) -> str:
    """text cut to a short prefix, so that an error line quoting a user
    literal (or an exception that quotes one) stays one short line."""
    return text if len(text) <= width else text[:width] + "..."


def _parse_rational(v) -> Fraction:
    if isinstance(v, bool):
        raise InputError(f"not a rational entry: {v!r}")
    if isinstance(v, int):
        return Fraction(v)
    if isinstance(v, str):
        try:
            return Fraction(v)
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(f"bad rational entry {_shown(repr(v))}: {_shown(str(exc), 80)}")
    raise InputError(
        f"rational entries must be integers or 'p/q' strings, got {_shown(repr(v))}"
    )


def _integer(v, what: str) -> int:
    """v if it is an int; a float, bool or string is never truncated or
    coerced into a modulus, a size or a residue."""
    if type(v) is not int:
        raise InputError(f"{what} must be an integer, got {_shown(repr(v))}")
    return v


def element_from_json(obj) -> RingElem:
    if not isinstance(obj, dict) or "ring" not in obj or "entries" not in obj:
        raise InputError("element literal needs 'ring' and 'entries'")
    ring = obj["ring"]
    entries = obj["entries"]
    if not isinstance(ring, dict):
        raise InputError("'ring' must be an object")
    kind = ring.get("type")
    try:
        if kind == "Q":
            if not isinstance(entries, list) or not entries:
                raise InputError("Q matrices need a nonempty entry array")
            if not all(isinstance(row, list) for row in entries):
                raise InputError("Q matrix rows must be arrays")
            rows = [[_parse_rational(v) for v in row] for row in entries]
            if any(len(r) != len(rows) for r in rows):
                raise InputError("Q matrices must be square")
            return rationals_matrix(len(rows)).elem(rows)
        if kind == "Zmod":
            ctx = zmod(_integer(ring["n"], "'n'"))
            if (
                isinstance(entries, list)
                and len(entries) == 1
                and isinstance(entries[0], list)
                and len(entries[0]) == 1
            ):
                entries = entries[0][0]
            return ctx.elem(_integer(entries, "a Zmod entry"))
        if kind == "MatZmod":
            ctx = matrix_ring(_integer(ring["n"], "'n'"), _integer(ring["size"], "'size'"))
            return ctx.elem([[_integer(v, "a MatZmod entry") for v in row] for row in entries])
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"malformed element literal: {exc}")
    raise InputError(f"unknown ring type {_shown(repr(kind))}")


def _rational_text(p: int, q: int) -> str:
    """p/q in lowest terms, q > 0, as str(Fraction(p, q)) writes it."""
    g = gcd(p, q)
    return str(p // g) if q == g else f"{p // g}/{q // g}"


def element_to_json(elem: RingElem) -> dict:
    ctx = elem.ctx
    if isinstance(ctx, MatrixContext):
        den = elem.payload.den
        return {
            "ring": {"type": "Q"},
            "entries": [[_rational_text(v, den) for v in row] for row in elem.payload.num],
        }
    if isinstance(ctx, ZModContext):
        return {"ring": {"type": "Zmod", "n": ctx.n}, "entries": [[elem.payload]]}
    if isinstance(ctx, MatrixRingContext):
        return {
            "ring": {"type": "MatZmod", "n": ctx.n, "size": ctx.size},
            "entries": [list(row) for row in elem.payload],
        }
    raise InputError(f"cannot serialize {ctx.label}")


def triple_from_json(obj) -> tuple[RingElem, RingElem, RingElem]:
    if not isinstance(obj, dict) or not {"a", "b", "c"} <= obj.keys():
        raise InputError("triple literal needs keys 'a', 'b', 'c'")
    a = element_from_json(obj["a"])
    b = element_from_json(obj["b"])
    c = element_from_json(obj["c"])
    if b.ctx is not a.ctx or c.ctx is not a.ctx:
        raise InputError("triple members must share one ring")
    return a, b, c


def triple_to_json(a: RingElem, b: RingElem, c: RingElem) -> dict:
    return {
        "a": element_to_json(a),
        "b": element_to_json(b),
        "c": element_to_json(c),
    }


def certificate_to_json(cert: DrazinCertificate) -> dict:
    out = {
        "inverse": element_to_json(cert.inverse),
        "index": cert.index,
        "witnesses": {
            # a certificate exists only once both equations are verified
            "bab_eq_b": True,
            "commutes": True,
            "core_nilpotent_index": (
                cert.core_nilpotency.index
                if cert.core_nilpotency and cert.core_nilpotency.is_nilpotent
                else None
            ),
        },
    }
    if cert.mode == "gdrazin":
        out["witnesses"]["core_quasinilpotent"] = cert.core_quasinilpotent
    return out


def hypothesis_report_to_json(report) -> dict:
    return {
        "holds": report.holds,
        "strong_holds": report.strong_holds,
        "pairwise": list(report.pairwise),
        "products": [element_to_json(p) for p in report.products],
    }


def poly_to_json(coeffs) -> list:
    """Ascending coefficient strings; index = degree."""
    return [str(v) for v in coeffs]


def dumps_canonical(obj) -> str:
    """Deterministic JSON text: sorted keys, fixed separators, newline."""
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"
