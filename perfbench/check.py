"""Output checks: every answer the benchmark times is also verified.

A query or sweep passes only if its exit code is 0, its stdout agrees with
what the benchmark recomputes on its own (`oracle`), and, where a digest
was recorded at the seed commit (`expected.json`), its exit code and the
sha256 of its stdout match that record byte for byte.  Each check returns
None or a one-line reason.
"""

from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction

import oracle
from oracle import QQ, Field

# triples, hypothesis triples, strong triples and separations of the
# exhaustive all-checks sweep of M_2(Z/2)
MAT2Z2_COUNTS = (4096, 1540, 1504, 36)
ALL_CHECKS = ("t22", "t27", "l21", "l26", "l31", "c23", "c24", "c28")


def digest(code, stdout: str) -> list:
    return [code, hashlib.sha256(stdout.encode()).hexdigest()]


def _matrix(literal: dict, f: Field):
    return [[f.canon(Fraction(v)) for v in row] for row in literal["entries"]]


# --- q_certify ---------------------------------------------------------------


def _check_drazin(q, out):
    exp = q["expect"]
    f = Field(exp["field"])
    mode = q["argv"][-1]
    if not out.get("exists") or out["index"] != exp["index"]:
        return f"index {out.get('index')} != {exp['index']}"
    if _matrix(out["inverse"], f) != exp["inverse"]:
        return "inverse differs from P (U^-1 + 0) P^-1"
    w = out["witnesses"]
    core_index = max(exp["index"], 1) if mode == "drazin" else None
    if not (w["bab_eq_b"] and w["commutes"] and w["core_nilpotent_index"] == core_index):
        return f"bad witnesses {w}"
    if mode == "gdrazin" and w.get("core_quasinilpotent") is not True:
        return "gdrazin core not flagged quasinilpotent"
    return None


def _check_transfer(q, out):
    a, b, c = q["expect"]["triple"]
    ac, ba = oracle.mat_mul(QQ, a, c), oracle.mat_mul(QQ, b, a)
    source, target = (ac, ba) if q["expect"]["direction"] == "backward" else (ba, ac)
    if out["formula_used"] != q["expect"]["direction"]:
        return "wrong formula_used"
    for side, elem in (("source", source), ("target", target)):
        cert = out[side]
        if _matrix(cert["element"], QQ) != elem:
            return f"{side} element is not the expected product"
        if not oracle.is_drazin_inverse(QQ, elem, _matrix(cert["inverse"], QQ), cert["index"]):
            return f"{side} inverse fails the Drazin equations"
    return None


def _check_check(q, out):
    a, b, c = q["expect"]["triple"]
    ab, ac = oracle.mat_mul(QQ, a, b), oracle.mat_mul(QQ, a, c)
    products = [oracle.mat_mul(QQ, oracle.mat_mul(QQ, x, y), a)
                for x, y in ((ab, ab), (ab, ac), (ac, ab), (ac, ac))]
    if not (out["holds"] and out["strong_holds"] and out["pairwise"] == [True] * 6):
        return "hypothesis not reported as holding"
    if [_matrix(p, QQ) for p in out["products"]] != products:
        return "quintic products differ"
    return None


def _check_jacobson(q, out):
    a, b, _ = q["expect"]["triple"]
    n = len(a)
    u = oracle.mat_add(QQ, oracle.identity(QQ, n), oracle.mat_mul(QQ, b, a), scale=-1)
    t = _matrix(out["one_minus_ba_inverse"], QQ)
    if not out["certified"] or oracle.mat_mul(QQ, t, u) != oracle.identity(QQ, n):
        return "(1 - ba)^-1 is wrong"
    return None


def _spectrum(m):
    cp = oracle.char_poly(m)
    zeros = next(i for i, v in enumerate(cp) if v != 0)
    return {"char_poly": cp, "reduced": oracle.squarefree_nonzero_part(cp), "zero_multiplicity": zeros}


def _check_compare(q, out):
    for key in ("m1", "m2"):
        want = _spectrum(q["expect"][key])
        got = out[key]
        if ([Fraction(v) for v in got["char_poly"]] != want["char_poly"]
                or [Fraction(v) for v in got["reduced"]] != want["reduced"]
                or got["zero_multiplicity"] != want["zero_multiplicity"]):
            return f"{key} spectrum differs"
    if out["nonzero_equal"] is not True:
        return "similar AC/BA reported with different nonzero spectra"
    return None


def _check_example(q, out):
    # the spectra themselves are checked by digest: every --n the generator
    # can pick has one recorded
    if out["nonzero_equal"] is not True or len(out["char_poly_ac"]) != q["expect"]["n"] + 1:
        return "spectra example output malformed"
    return None


_QUERY_CHECKS = {
    "drazin_q": _check_drazin,
    "drazin_f2": _check_drazin,
    "cline_transfer": _check_transfer,
    "cline_check": _check_check,
    "cline_jacobson": _check_jacobson,
    "spectra_compare": _check_compare,
    "spectra_example": _check_example,
}


def check_query(q: dict, op: dict, expected: dict, seed: int):
    if op["exit"] != 0:
        return f"exit {op['exit']}: {op['stderr'].strip()[-300:]}"
    got = digest(op["exit"], op["stdout"])
    if q["kind"] == "spectra_example":
        recorded = expected["spectra_example"].get(str(q["expect"]["n"]))
        if recorded is None:
            return f"no digest recorded for spectra example --n {q['expect']['n']}"
    else:
        recorded = expected["q_certify"].get(str(seed), {q["index"]: got})[q["index"]]
    if recorded != got:
        return "stdout digest differs from the seed-commit record"
    try:
        return _QUERY_CHECKS[q["kind"]](q, json.loads(op["stdout"]))
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        return f"unreadable output: {type(exc).__name__}: {exc}"


# --- sweeps ------------------------------------------------------------------


def expected_sweep(modulus: int, indices) -> dict:
    """Hypothesis and strong counts plus the separation list, recomputed."""
    total = hyp = strong = 0
    separations = []
    for idx in indices:
        total += 1
        holds, is_strong, triple = oracle.mat2_hypothesis(modulus, idx)
        if not holds:
            continue
        hyp += 1
        if is_strong:
            strong += 1
        else:
            ring = {"type": "MatZmod", "n": modulus, "size": 2}
            separations.append({k: {"ring": ring, "entries": [list(r) for r in v]}
                                for k, v in zip("abc", triple)})
    return {"triples_total": total, "triples_hypothesis": hyp,
            "triples_strong": strong, "separations_found": separations}


def sample_indices(modulus: int, seed: int, count: int) -> list:
    """The documented sample: `count` seeded draws over the triple space."""
    rng = random.Random(seed)
    total = modulus**12
    return sorted({rng.randrange(total) for _ in range(count)})


def check_sweep(op: dict, want: dict, recorded_digest):
    if op["exit"] != 0:
        return f"exit {op['exit']}: {op['stderr'].strip()[-300:]}"
    if recorded_digest is not None and digest(op["exit"], op["stdout"]) != recorded_digest:
        return "stdout digest differs from the seed-commit record"
    try:
        out = json.loads(op["stdout"])
        for key, value in want.items():
            if out[key] != value:
                return f"{key} differs from the recomputed value"
        counters = out["counters"]
        if sorted(counters) != sorted(ALL_CHECKS):
            return "counters do not cover every check"
        for name, tally in counters.items():
            if tally["checked"] != tally["passed"]:
                return f"{name}: checked {tally['checked']} != passed {tally['passed']}"
            if name == "c28":
                continue  # runs only where ac or ba has a group inverse
            should = want["triples_strong"] if name == "c24" else want["triples_hypothesis"]
            if tally["checked"] != should:
                return f"{name}: checked {tally['checked']} != {should}"
    except (KeyError, TypeError, ValueError) as exc:
        return f"unreadable output: {type(exc).__name__}: {exc}"
    return None
