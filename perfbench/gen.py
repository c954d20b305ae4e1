"""Seeded inputs for the benchmark workloads.

Everything here is a function of the workload seed alone.  The program under
test only ever sees the JSON literals and argv built here.  Each query also
carries what the benchmark expects of it, computed with `oracle`; that part
never reaches the program.

The q_certify queries are stratified: how often each kind, size, mode and
integer/rational choice occurs is fixed, so the seed varies the inputs but
not the cost mix.  The seed picks the entries, the scales, which
combinations meet, and the order.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import product

import oracle
from oracle import QQ, Field

# Size of a sample_mat2z4 sweep: its hypothesis triples, about 1024 draws
# and a few seconds at --jobs 2.  Their cost varies a lot: the finite-ring
# searches scan commutants, so triples whose ac or ba commutes with much of
# the ring dominate.  The sample is therefore also held to a fixed work
# estimate, the sum over its hypothesis triples of |comm(ac)|^2 +
# |comm(ba)|^2, so that each seed changes the triples but not the size.
SAMPLE_CERTIFIED = 240
SAMPLE_WORK = 4_600_000
SAMPLE_WORK_TOLERANCE = 0.03
DRAZIN_Q_SIZES = range(4, 13)
DRAZIN_F2_SIZES = (5, 6)  # 2^25 and 2^36 elements: over the enumeration budget
CLINE_SIZES = range(6, 13)
SPECTRA_EXAMPLE_SIZES = range(24, 65)
MODES = ("drazin", "gdrazin")
# kind -> queries per list: 50% Drazin over Q, 30% transfer identities,
# 10% spectra, 10% Drazin over F_2
MIX = {
    "drazin_q": 60,
    "cline_transfer": 20,
    "cline_check": 8,
    "cline_jacobson": 8,
    "spectra_compare": 6,
    "spectra_example": 6,
    "drazin_f2": 12,
}
SCALES = (Fraction(1, 2), Fraction(1, 3), Fraction(2, 3), Fraction(3, 2), Fraction(2))


def _stream(seed: int, name: str) -> random.Random:
    return random.Random(f"{seed}/{name}")


def _spread(rng: random.Random, values, count: int) -> list:
    """count values cycling through `values`, in seeded order: how often each
    value occurs is the same for every seed."""
    values = list(values)
    out = [values[i % len(values)] for i in range(count)]
    rng.shuffle(out)
    return out


def _nonzero(rng: random.Random, hi: int) -> int:
    return rng.choice([v for v in range(-hi, hi + 1) if v])


def _invertible(f: Field, rng: random.Random, n: int, diag: str):
    """L * D * R with L, R unit triangular and D diagonal, invertible by
    construction; D is the identity ("unit"), or has nonzero integer
    ("int") or rational ("rational") entries."""
    lo = [[f.canon(1 if i == j else (rng.randint(-2, 2) if j < i else 0))
           for j in range(n)] for i in range(n)]
    up = [[f.canon(1 if i == j else (rng.randint(-2, 2) if j > i else 0))
           for j in range(n)] for i in range(n)]
    if diag != "unit":
        d = [Fraction(_nonzero(rng, 3), rng.randint(1, 4) if diag == "rational" else 1)
             for _ in range(n)]
        up = [[d[i] * v for v in row] for i, row in enumerate(up)]
    return oracle.mat_mul(f, lo, up)


def _nilpotent(f: Field, rng: random.Random, k: int):
    """k x k strictly upper triangular with a nonzero superdiagonal: index k."""
    def entry(i, j):
        if j == i + 1:
            return _nonzero(rng, 3) if f.p is None else 1
        return rng.randint(-2, 2) if j > i else 0

    return [[f.canon(entry(i, j)) for j in range(k)] for i in range(k)]


def q_literal(m) -> dict:
    return {"ring": {"type": "Q"}, "entries": [[str(Fraction(v)) for v in row] for row in m]}


def f2_literal(m) -> dict:
    return {"ring": {"type": "MatZmod", "n": 2, "size": len(m)}, "entries": [list(r) for r in m]}


def _drazin_query(f: Field, rng: random.Random, n: int, k: int, rational_p: bool, mode: str):
    """a = P (U + N) P^-1 with U invertible and N nilpotent of index k, so
    the Drazin inverse is P (U^-1 + 0) P^-1 and the index is k."""
    if f.p is None:
        u = _invertible(f, rng, n - k, "rational" if rational_p else "int")
    else:
        u = _invertible(f, rng, n - k, "unit")
    # an integer P has determinant 1, so a stays integer-valued
    p = _invertible(f, rng, n, "rational" if rational_p else "unit")
    p_inv = oracle.inverse(f, p)
    a = oracle.mat_mul(f, oracle.mat_mul(f, p, oracle.block_diag(f, u, _nilpotent(f, rng, k))), p_inv)
    zeros = [[f.canon(0)] * k for _ in range(k)]
    x = oracle.mat_mul(f, oracle.mat_mul(f, p, oracle.block_diag(f, oracle.inverse(f, u), zeros)), p_inv)
    literal = q_literal(a) if f.p is None else f2_literal(a)
    return {
        "kind": "drazin_q" if f.p is None else "drazin_f2",
        "argv": ["drazin", "compute", "--input", "{input}", "--mode", mode],
        "files": {"input": literal},
        "expect": {"field": f.p, "inverse": x, "index": k},
    }


def _truncation(n: int):
    """The operator-triple truncation, built with clinelab itself."""
    from clinelab import build_example_triple

    t = build_example_triple(n)
    return [[[Fraction(v) for v in row] for row in m.payload] for m in (t.a, t.b, t.c)]


def _conjugated_triple(rng: random.Random, n: int, rational_s: bool):
    """S (A, sB, sC) S^-1 for the truncation triple; both conjugation and a
    common scale of b and c keep the quintic hypothesis (and aba = aca)."""
    a, b, c = _truncation(n)
    s = _invertible(QQ, rng, n, "rational" if rational_s else "unit")
    s_inv = oracle.inverse(QQ, s)
    scale = rng.choice(SCALES)

    def conj(m, k=1):
        return oracle.mat_scale(QQ, k, oracle.mat_mul(QQ, oracle.mat_mul(QQ, s, m), s_inv))

    return conj(a), conj(b, scale), conj(c, scale)


def _assert_hypothesis(triple_literal: dict, need_unit: bool) -> None:
    """Fail the generator, before anything is timed, on a bad triple."""
    from clinelab import check_hypothesis, is_unit
    from clinelab.serialize import triple_from_json

    a, b, c = triple_from_json(triple_literal)
    report = check_hypothesis(a, b, c)
    if not (report.holds and report.strong_holds):
        raise AssertionError("generated triple does not satisfy the hypothesis")
    if need_unit and not is_unit(a.ctx.one() - a * c):
        raise AssertionError("generated triple has 1 - ac singular")


def q_certify_queries(seed: int) -> list:
    """The seeded query list of the q_certify workload, shuffled."""
    rng = _stream(seed, "q_certify")
    queries = []
    n_q = MIX["drazin_q"]
    # the nilpotent block size k = n mod 4 ties each size to one index
    for n, rational_p, mode in _spread(rng, product(DRAZIN_Q_SIZES, (False, True), MODES), n_q):
        queries.append(_drazin_query(QQ, rng, n, n % 4, rational_p, mode))

    n_f2 = MIX["drazin_f2"]
    for n, k, mode in _spread(rng, product(DRAZIN_F2_SIZES, range(4), MODES), n_f2):
        queries.append(_drazin_query(Field(2), rng, n, k, False, mode))

    transfers = list(product(("forward", "backward"), MODES))
    for kind in ("cline_transfer", "cline_check", "cline_jacobson", "spectra_compare"):
        count = MIX[kind]
        for (n, rational_s), opt in zip(
            _spread(rng, product(CLINE_SIZES, (False, True)), count),
            _spread(rng, transfers, count),
        ):
            queries.append(_triple_query(rng, kind, n, rational_s, opt))

    # one size from each of equal bands of the size range
    bands, sizes = MIX["spectra_example"], SPECTRA_EXAMPLE_SIZES
    for band in range(bands):
        n = rng.choice(sizes[band * len(sizes) // bands:(band + 1) * len(sizes) // bands])
        queries.append({
            "kind": "spectra_example",
            "argv": ["spectra", "example", "--n", str(n)],
            "files": {},
            "expect": {"n": n},
        })

    rng.shuffle(queries)
    for i, q in enumerate(queries):
        q["index"] = i
    return queries


def _triple_query(rng: random.Random, kind: str, n: int, rational_s: bool, transfer) -> dict:
    a, b, c = _conjugated_triple(rng, n, rational_s)
    if kind == "spectra_compare":
        m1, m2 = oracle.mat_mul(QQ, a, c), oracle.mat_mul(QQ, b, a)
        return {
            "kind": kind,
            "argv": ["spectra", "compare", "--m1", "{m1}", "--m2", "{m2}"],
            "files": {"m1": q_literal(m1), "m2": q_literal(m2)},
            "expect": {"m1": m1, "m2": m2},
        }
    literal = {"a": q_literal(a), "b": q_literal(b), "c": q_literal(c)}
    _assert_hypothesis(literal, need_unit=kind == "cline_jacobson")
    expect = {"triple": (a, b, c)}
    if kind == "cline_transfer":
        argv = ["cline", "transfer", "--dir", transfer[0], "--mode", transfer[1], "--input", "{input}"]
        expect["direction"] = transfer[0]
    else:
        argv = ["cline", kind.split("_")[1], "--input", "{input}"]
    return {"kind": kind, "argv": argv, "files": {"input": literal}, "expect": expect}


def sample_params(seed: int) -> tuple[int, int]:
    """(sample seed, count) of the sample_mat2z4 sweep.

    A sample of `count` draws is the set of the first `count` values of
    random.Random(sample seed).randrange(4**12); count is the fewest draws
    that hold SAMPLE_CERTIFIED hypothesis triples.  Sample seeds come from
    the workload seed in turn until one meets the work estimate.
    """
    comm = oracle.mat2_commutant_sizes(4)
    candidates = _stream(seed, "sample_mat2z4")
    while True:
        sample_seed = candidates.randrange(2**31)
        draws = random.Random(sample_seed)
        seen, certified, work, count = set(), 0, 0, 0
        while certified < SAMPLE_CERTIFIED:
            idx = draws.randrange(4**12)
            count += 1
            if idx not in seen:
                seen.add(idx)
                holds, _, (a, b, c) = oracle.mat2_hypothesis(4, idx)
                if holds:
                    certified += 1
                    work += comm[oracle.mat2_mul(a, c, 4)] ** 2 + comm[oracle.mat2_mul(b, a, 4)] ** 2
        if abs(work - SAMPLE_WORK) <= SAMPLE_WORK_TOLERANCE * SAMPLE_WORK:
            return sample_seed, count
