"""Acceptance suite: one test per exit criterion, each printing a PASS/FAIL
line and enforcing its stated runtime budget (run with -s to see the lines).

All arithmetic is exact, so every comparison is == with zero tolerance.

Criterion 3 pins two nilpotency-index bounds.  Under the quintic hypothesis
a(ba)^2 = abaca = acaba = (ac)^2a the identities (ba)^(n+1) = b(ac)^n a
and (ac)^(n+1) = a(ba)^n c hold for n >= 2, so each index is at most
max(other index, 2) + 1 (what nilpotency_transfer enforces).  Under the
stronger aba = aca they hold for every n >= 1, which gives the classical
strict bound |index(ac) - index(ba)| <= 1.  Over Z/8 the strict bound fails
on exactly 32 hypothesis triples, all with aba != aca; the smallest is
(2, 0, 1), with index(ac) = 3 and index(ba) = 1.
See test_criterion_3_strict_index_bound_on_zmod8.
"""

import itertools
import random
import time
from fractions import Fraction

from clinelab import (
    build_example_triple,
    check_hypothesis,
    char_poly,
    cline_drazin,
    drazin_finite_ring,
    drazin_matrix,
    example_29_triple,
    is_quasinilpotent,
    is_unit,
    jacobson_inverse,
    matrix_ring,
    nilpotency,
    nilpotency_transfer,
    nonzero_spectrum_equal,
    rationals_matrix,
    sweep,
    try_inverse,
    verify_example_29,
    zmod,
)
from clinelab.serialize import dumps_canonical


def _line(num: str, ok: bool, elapsed: float, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num}: {status} ({elapsed:.2f}s) {detail}".rstrip())


def _triples(ring):
    return itertools.product(ring.elements(), repeat=3)


# --- criterion 1: the 6x6 separation reproduces exactly -----------------------


def test_criterion_1_separation_example():
    t0 = time.perf_counter()
    a, b, c = example_29_triple()
    rep = check_hypothesis(a, b, c)
    assert rep.holds
    assert all(p == rep.products[0] for p in rep.products)
    assert a * b * a != a * c * a
    x = matrix_ring(2, 3).elem([[0, 1, 0], [0, 0, 1], [0, 0, 0]])
    xw = nilpotency(x)
    assert xw.is_nilpotent and xw.index == 3
    report = verify_example_29()
    assert report.transfer_certified and report.ac_drazin_index == 3
    transfer = cline_drazin(a, b, c, "backward")
    assert transfer.target.inverse == b * transfer.source.inverse * transfer.source.inverse * a
    elapsed = time.perf_counter() - t0
    _line("1", True, elapsed, "separation triple reproduced")
    assert elapsed < 1.0


# --- criterion 2: exhaustive M_2(Z/2) ------------------------------------------


def test_criterion_2_exhaustive_m2z2():
    t0 = time.perf_counter()
    ring = matrix_ring(2, 2)
    one = ring.one()
    total = hypothesis_count = 0
    for a, b, c in _triples(ring):
        total += 1
        if not check_hypothesis(a, b, c).holds:
            continue
        hypothesis_count += 1
        ac, ba = a * c, b * a
        # (i) unit equivalence plus the explicit inverse formula
        u_ac, u_ba = is_unit(one - ac), is_unit(one - ba)
        assert u_ac == u_ba
        if u_ac:
            s = try_inverse(one - ac)
            t = jacobson_inverse(a, b, c, s)  # self-certifying
            assert t == try_inverse(one - ba)
        # (ii) quasinilpotency equivalence
        assert is_quasinilpotent(ac) == is_quasinilpotent(ba)
        # (iii) nilpotency equivalence with index gap at most one
        w_ac, w_ba = nilpotency(ac), nilpotency(ba)
        assert w_ac.is_nilpotent == w_ba.is_nilpotent
        if w_ac.is_nilpotent:
            assert abs(w_ac.index - w_ba.index) <= 1
        # (iv) both Drazin formulas re-certify
        cline_drazin(a, b, c, "backward")
        cline_drazin(a, b, c, "forward")
    assert total == 4096
    assert hypothesis_count > 0
    elapsed = time.perf_counter() - t0
    _line("2", True, elapsed, f"{hypothesis_count} hypothesis triples, zero failures")
    assert elapsed < 60.0


# --- criterion 3: Z/4 and Z/8 sweeps -------------------------------------------


def _zmod_checks(ring, strict_bound: bool):
    """Sweeps every hypothesis triple of ring and asserts inline the unit,
    quasinilpotency and nilpotency equivalences, both Drazin formulas, and
    index <= max(other index, 2) + 1 both ways, which nilpotency_transfer
    must accept.  Returns the strict-bound exceptions as
    {(a, b, c): (index(ac), index(ba), aba == aca)}, keyed by payload; with
    strict_bound there must be none."""
    one = ring.one()
    exceptions = {}
    for a, b, c in _triples(ring):
        report = check_hypothesis(a, b, c)
        if not report.holds:
            continue
        ac, ba = a * c, b * a
        u_ac, u_ba = is_unit(one - ac), is_unit(one - ba)
        assert u_ac == u_ba
        if u_ac:
            s = try_inverse(one - ac)
            t = jacobson_inverse(a, b, c, s)
            assert t == try_inverse(one - ba)
        assert is_quasinilpotent(ac) == is_quasinilpotent(ba)
        w_ac, w_ba = nilpotency(ac), nilpotency(ba)
        assert w_ac.is_nilpotent == w_ba.is_nilpotent
        if w_ac.is_nilpotent:
            i, j = w_ac.index, w_ba.index
            assert i <= max(j, 2) + 1 and j <= max(i, 2) + 1
            assert nilpotency_transfer(a, b, c) == (w_ac, w_ba)
            if abs(i - j) > 1:
                exceptions[(a.payload, b.payload, c.payload)] = (i, j, report.strong_holds)
        cline_drazin(a, b, c, "backward")
        cline_drazin(a, b, c, "forward")
    for e in ring.elements():
        w = nilpotency(e)
        assert is_quasinilpotent(e) == w.is_nilpotent
        if w.is_nilpotent:  # the index is the least k >= 1 with e^k = 0
            assert (e**w.index).is_zero and not (e ** (w.index - 1)).is_zero
    if strict_bound:
        assert exceptions == {}
    return exceptions


def test_criterion_3_zmod_sweeps():
    t0 = time.perf_counter()
    _zmod_checks(zmod(4), strict_bound=True)  # strict bound does hold in Z/4
    exceptions_z8 = _zmod_checks(zmod(8), strict_bound=False)
    elapsed = time.perf_counter() - t0
    _line(
        "3 (equivalences, formulas, qnil=nil, Z/4 bound)",
        True,
        elapsed,
        f"Z/8 strict-bound exceptions, pinned by the companion check: {len(exceptions_z8)}",
    )
    assert elapsed < 5.0


# Strict-bound exceptions in Z/8, derived by hand.  In Z/8 the index is 1
# for 0, 2 for 4 and 3 for 2 and 6, so the strict bound fails exactly when
# one of ac, ba is 0 and the other is 2 mod 4.  Z/8 is commutative, so the
# hypothesis reads a^3 b^2 = a^3 bc = a^3 c^2 and aba = aca reads
# a^2 b = a^2 c.
# - ac = 2 mod 4 and ba = 0.  If a is odd, then c = 2 mod 4 and b = 0, and
#   a^3 c^2 = 4 != 0 = a^3 b^2 breaks the hypothesis.  So a is in {2, 6},
#   c is odd and ab = 0 gives b in {0, 4}: 2*2*4 = 16 triples.  a^3 = 0
#   makes every hypothesis term vanish, and a^2 b = 0 != 4 = a^2 c.
# - ac = 0 and ba = 2 mod 4: the same argument with b and c swapped (an odd
#   a gives a^3 b^2 = 4 != 0), so a in {2, 6}, b odd, c in {0, 4}: 16 more.
_ODD = (1, 3, 5, 7)
_Z8_STRICT_EXCEPTIONS = {
    (a, b, c) for a in (2, 6) for b in (0, 4) for c in _ODD
} | {(a, b, c) for a in (2, 6) for b in _ODD for c in (0, 4)}


def test_criterion_3_strict_index_bound_on_zmod8():
    """Index transfer over Z/8, over every hypothesis triple with nilpotent
    ac.  The weak bound index <= max(other, 2) + 1 and nilpotency_transfer
    are asserted on every triple (inside _zmod_checks).  The strict bound
    |index(ac) - index(ba)| <= 1 is asserted on every triple with
    aba = aca, where Cline's identities hold for all n >= 1.  Without it
    the strict bound fails on exactly the 32 hand-derived triples above,
    each with indices {1, 3}; the smallest is (2, 0, 1) with (3, 1)."""
    t0 = time.perf_counter()
    exceptions = _zmod_checks(zmod(8), strict_bound=False)
    # aba = aca forces the strict bound, so no exception satisfies it
    assert [t for t, (_, _, strong) in exceptions.items() if strong] == []
    # the exact exception set, each with index pair {1, 3}
    assert len(_Z8_STRICT_EXCEPTIONS) == 32
    assert set(exceptions) == _Z8_STRICT_EXCEPTIONS
    assert all({i, j} == {1, 3} for i, j, _ in exceptions.values())
    # the smallest: ac = 2 has index 3 while ba = 0 has index 1
    assert exceptions[(2, 0, 1)] == (3, 1, False)
    elapsed = time.perf_counter() - t0
    _line(
        "3 (index bounds on Z/8)",
        True,
        elapsed,
        f"strict bound under aba = aca; {len(exceptions)} weak-only exceptions, "
        "smallest (2, 0, 1) with indices (3, 1)",
    )


# --- criterion 4: matrix engine vs exhaustive oracle on M_3(F_2) ----------------


def test_criterion_4_matrix_oracle_equivalence_m3f2():
    t0 = time.perf_counter()
    ring = matrix_ring(2, 3)
    assert ring.element_count == 512
    for e in ring.elements():
        ring_cert = drazin_finite_ring(e)
        field_cert = drazin_matrix(e)
        assert ring_cert is not None
        assert ring_cert.inverse.payload == field_cert.inverse.payload
        assert ring_cert.index == field_cert.index
    elapsed = time.perf_counter() - t0
    _line("4", True, elapsed, "512 matrices, both engines agree")
    assert elapsed < 120.0


# --- criterion 5: Jacobson formula vs direct elimination ------------------------


def test_criterion_5_jacobson_formula_vs_elimination():
    t0 = time.perf_counter()
    rng = random.Random(570)
    ctx = rationals_matrix(3)
    one = ctx.one()
    done = 0
    while done < 1000:
        a = ctx.elem(
            [[Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(3)] for _ in range(3)]
        )
        b = ctx.elem(
            [[Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(3)] for _ in range(3)]
        )
        s = try_inverse(one - a * b)
        if s is None:
            continue
        t = jacobson_inverse(a, b, b, s)
        assert t == try_inverse(one - b * a)
        done += 1
    elapsed = time.perf_counter() - t0
    _line("5", True, elapsed, "1000 random triples, exact agreement")
    assert elapsed < 30.0


# --- criterion 6: operator truncations ------------------------------------------


def test_criterion_6_operator_truncations():
    t0 = time.perf_counter()
    for n in (4, 8, 16, 32, 64):
        t = build_example_triple(n)
        assert t.a * t.b * t.a == t.a * t.c * t.a
        ac, ba = t.a * t.c, t.b * t.a
        assert nonzero_spectrum_equal(ac, ba)
        cert_ba = drazin_matrix(ba)
        cert_ac = drazin_matrix(ac)
        assert cert_ba.inverse * t.c == t.b * cert_ac.inverse
    elapsed = time.perf_counter() - t0
    _line("6", True, elapsed, "n in {4, 8, 16, 32, 64}")
    assert elapsed < 60.0


# --- criterion 7: classical AB/BA anchor ----------------------------------------


def test_criterion_7_charpoly_product_anchor():
    t0 = time.perf_counter()
    rng = random.Random(770)
    ctx = rationals_matrix(4)
    for _ in range(500):
        m = ctx.elem(
            [[Fraction(rng.randint(-8, 8), rng.randint(1, 3)) for _ in range(4)] for _ in range(4)]
        )
        n = ctx.elem(
            [[Fraction(rng.randint(-8, 8), rng.randint(1, 3)) for _ in range(4)] for _ in range(4)]
        )
        assert char_poly(m * n).char_poly == char_poly(n * m).char_poly
    elapsed = time.perf_counter() - t0
    _line("7", True, elapsed, "500 seeded pairs, exact equality")
    assert elapsed < 60.0


# --- criterion 8: byte-identical sweep reports -----------------------------------


def test_criterion_8_sweep_determinism():
    t0 = time.perf_counter()
    r1 = sweep(matrix_ring(2, 2), "l21,l26,l31", "exhaustive")
    r2 = sweep(matrix_ring(2, 2), "l21,l26,l31", "exhaustive")
    assert dumps_canonical(r1.to_json()) == dumps_canonical(r2.to_json())
    s1 = sweep(matrix_ring(2, 2), "all", "sample", seed=414, count=256)
    s2 = sweep(matrix_ring(2, 2), "all", "sample", seed=414, count=256)
    assert dumps_canonical(s1.to_json()) == dumps_canonical(s2.to_json())
    elapsed = time.perf_counter() - t0
    _line("8", True, elapsed, "byte-identical reports")
