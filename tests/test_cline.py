"""The quintic hypothesis and every transfer identity built on it."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clinelab import (
    BudgetExceeded,
    CertificationError,
    ContextMismatch,
    HypothesisViolation,
    InputError,
    build_example_triple,
    check_hypothesis,
    cline_drazin,
    cline_gdrazin,
    drazin_certificate,
    example_29_triple,
    gdrazin_certificate,
    jacobson_inverse,
    matrix_ring,
    nilpotency_transfer,
    power_transfer,
    qnil_transfer,
    rationals_matrix,
    special_case_formula,
    sweep,
    try_inverse,
    units_transfer,
    zmod,
)
from clinelab import cline, drazin, rings
from clinelab.cline import _certify_inverse
from clinelab.serialize import certificate_to_json, dumps_canonical

Z4 = zmod(4)
Z8 = zmod(8)
M2Q = rationals_matrix(2)


def _hypothesis_triples(ring):
    """All hypothesis triples of a small ring, found by direct product
    evaluation (independent of HypothesisReport plumbing)."""
    els = list(ring.elements())
    out = []
    for a, b, c in itertools.product(els, repeat=3):
        p1 = a * b * a * b * a
        p2 = a * b * a * c * a
        p3 = a * c * a * b * a
        p4 = a * c * a * c * a
        if p1 == p2 == p3 == p4:
            out.append((a, b, c))
    return out


def _random_matrix(ctx, rng, span=3):
    return ctx.elem(
        [[rng.randint(-span, span) for _ in range(ctx.n)] for _ in range(ctx.n)]
    )


# --- check_hypothesis --------------------------------------------------------


def test_equal_b_and_c_always_satisfy_hypothesis_strongly():
    rng = random.Random(11)
    for _ in range(20):
        a = _random_matrix(M2Q, rng)
        b = _random_matrix(M2Q, rng)
        rep = check_hypothesis(a, b, b)
        assert rep.holds and rep.strong_holds


def test_separation_triple_holds_weakly_but_not_strongly():
    a, b, c = example_29_triple()
    rep = check_hypothesis(a, b, c)
    assert rep.holds and not rep.strong_holds
    assert all(p.is_zero for p in rep.products)
    assert a * b * a != a * c * a


def test_shift_pair_fails_hypothesis():
    a = M2Q.elem([[0, 1], [0, 0]])
    c = M2Q.elem([[0, 0], [1, 0]])
    rep = check_hypothesis(a, a, c)
    assert not rep.holds
    assert rep.pairwise[2] is False  # p1 != p4


def test_holds_iff_all_pairwise():
    for a, b, c in itertools.product(Z4.elements(), repeat=3):
        rep = check_hypothesis(a, b, c)
        assert rep.holds == all(rep.pairwise)


def test_hypothesis_symmetric_under_swapping_b_and_c():
    for a, b, c in itertools.product(Z8.elements(), repeat=3):
        assert check_hypothesis(a, b, c).holds == check_hypothesis(a, c, b).holds


def test_strong_implies_weak():
    for a, b, c in itertools.product(Z8.elements(), repeat=3):
        rep = check_hypothesis(a, b, c)
        if rep.strong_holds:
            assert rep.holds


def test_context_mismatch():
    with pytest.raises(ContextMismatch):
        check_hypothesis(Z4.one(), Z8.one(), Z8.one())


def test_guard_after_a_holding_triple_still_refuses_a_failing_one():
    one, two = Z8.elem(1), Z8.elem(2)
    assert check_hypothesis(one, one, one).holds
    # same a and b objects, another c: the last report must not be reused
    assert not check_hypothesis(one, one, two).holds
    assert check_hypothesis(one, one, one).holds
    for guarded in (cline_drazin, cline_gdrazin, nilpotency_transfer, units_transfer):
        with pytest.raises(HypothesisViolation):
            guarded(one, one, two)


def test_equal_but_distinct_rational_triples_get_a_fresh_report():
    def triple():
        return (
            M2Q.elem([[0, 1], [0, 0]]),
            M2Q.elem([[0, 1], [0, 0]]),
            M2Q.elem([[0, 0], [1, 0]]),
        )

    first = check_hypothesis(*triple())
    again = check_hypothesis(*triple())
    assert again is not first
    assert again == first and not again.holds
    a, b, _ = triple()
    holding = check_hypothesis(a, b, b)
    assert holding.holds and holding.strong_holds
    assert holding.products == ((a * b) * (a * b) * a,) * 4


def test_report_products_match_the_twelve_product_definition():
    ring = matrix_ring(2, 2)
    for a, b, c in itertools.product(ring.elements(), repeat=3):
        ab, ac = a * b, a * c
        products = (ab * ab * a, ab * ac * a, ac * ab * a, ac * ac * a)
        report = check_hypothesis(a, b, c)
        assert report.products == products
        p1, p2, p3, p4 = products
        assert report.pairwise == (p1 == p2, p1 == p3, p1 == p4, p2 == p3, p2 == p4, p3 == p4)
        assert report.holds == all(report.pairwise)
        assert report.strong_holds == (ab * a == ac * a)


# --- transfers ---------------------------------------------------------------


def test_identity_triple_transfers_to_identity():
    one = M2Q.one()
    res = cline_gdrazin(one, one, one, "backward")
    assert res.source.inverse.is_one and res.target.inverse.is_one


def test_separation_triple_drazin_transfer_both_directions():
    a, b, c = example_29_triple()
    back = cline_drazin(a, b, c, "backward")
    assert back.source.index == 3  # ac nilpotent of index 3
    assert back.target.index == 2  # ba nilpotent of index 2
    assert back.target.inverse.is_zero
    fwd = cline_drazin(a, b, c, "forward")
    assert fwd.target.inverse.is_zero
    assert back.target.index <= back.source.index + 1


def test_transfer_requires_hypothesis():
    a = M2Q.elem([[0, 1], [0, 0]])
    c = M2Q.elem([[0, 0], [1, 0]])
    with pytest.raises(HypothesisViolation):
        cline_drazin(a, a, c, "backward")
    with pytest.raises(InputError):
        cline_drazin(a, a, a, "sideways")


def test_transfer_involution_on_finite_hypothesis_triples():
    for a, b, c in _hypothesis_triples(Z4):
        back = cline_gdrazin(a, b, c, "backward")
        fwd = cline_gdrazin(a, b, c, "forward")
        # both unique inverses: applying the two formulas must close the loop
        assert fwd.target.inverse == back.source.inverse
        assert back.target.inverse == fwd.source.inverse


def test_core_decomposition_identity_explicitly():
    a, b, c = example_29_triple()
    res = cline_drazin(a, b, c, "backward")
    d = res.source.inverse
    e = res.target.inverse
    ba = b * a
    p = a.ctx.one() - (a * c) * d
    assert ba - ba * ba * e == b * p * a


def test_gdrazin_transfer_exhaustive_on_z4():
    for a, b, c in _hypothesis_triples(Z4):
        res = cline_gdrazin(a, b, c, "backward")
        assert res.source is not None and res.target is not None
        assert res.target.core_quasinilpotent


def _rational_separation_triple():
    """The 6x6 block separation pattern lifted to the rationals."""
    ctx = rationals_matrix(6)
    rows_a = [[0] * 6 for _ in range(6)]
    rows_a[0][4] = 1  # top-right block is the 3x3 upper shift
    rows_a[1][5] = 1
    rows_b = [[0] * 6 for _ in range(6)]
    rows_c = [[0] * 6 for _ in range(6)]
    for i in range(3):
        rows_b[i][i] = 1
        rows_c[i][i] = 1
        rows_c[i + 3][i] = 1
        rows_c[i + 3][i + 3] = 1
    return ctx.elem(rows_a), ctx.elem(rows_b), ctx.elem(rows_c)


def test_rational_separation_triple_transfers_through_elimination_engine():
    a, b, c = _rational_separation_triple()
    rep = check_hypothesis(a, b, c)
    assert rep.holds and not rep.strong_holds
    back = cline_drazin(a, b, c, "backward")
    assert back.source.index == 3 and back.target.index == 2
    fwd = cline_drazin(a, b, c, "forward")
    assert fwd.target.inverse == back.source.inverse
    # the explicit unit formula, with the geometric-series inverse of 1 - ac
    ac = a * c
    s = a.ctx.one() + ac + ac * ac
    t = jacobson_inverse(a, b, c, s)
    assert (t * (a.ctx.one() - b * a)).is_one


# --- nilpotency and quasinilpotency transfer ---------------------------------


def test_certify_inverse_accepts_only_the_searched_inverse_on_m2z4():
    ring = matrix_ring(4, 2)
    for x in ring.elements()[::7]:
        for mode, compute in (("drazin", drazin_certificate), ("gdrazin", gdrazin_certificate)):
            searched = compute(x)
            assert _certify_inverse(x, searched.inverse, mode) is searched
            for wrong in (searched.inverse + ring.one(), x * x * searched.inverse):
                if wrong != searched.inverse:
                    with pytest.raises(CertificationError):
                        _certify_inverse(x, wrong, mode)


def test_certify_inverse_accepts_only_the_eliminated_inverse():
    # elimination certifies by the same rule: M_3(Q), and M_2(Z/7), whose
    # 2,401 elements are over INDEX_CAP
    m3q = rationals_matrix(3)
    xs = [
        m3q.elem(rows)
        for rows in (
            [[2, 1, 0], [0, 3, 0], [1, 0, -1]],
            [[1, 1, 1], [-1, -1, 1], [0, 0, 2]],
            [[0, 1, 0], [0, 0, 1], [0, 0, 0]],
            [[1, 2, 3], [2, 4, 6], [-1, -2, -3]],
        )
    ]
    m2z7 = matrix_ring(7, 2)
    xs += [m2z7.element_by_index(i) for i in range(0, 2401, 97)]
    for x in xs:
        assert x.ctx.eliminated
        for mode in ("drazin", "gdrazin"):
            inverse = drazin.drazin_matrix(x, mode).inverse
            cert = _certify_inverse(x, inverse, mode)
            assert cert.element == x and cert.inverse == inverse and cert.mode == mode
            for wrong in (inverse + x.ctx.one(), x * x * inverse):
                if wrong != inverse:
                    with pytest.raises(CertificationError):
                        _certify_inverse(x, wrong, mode)


@pytest.mark.parametrize("ring", [M2Q, matrix_ring(2, 2)], ids=repr)
@pytest.mark.parametrize("transfer", [cline_drazin, cline_gdrazin])
def test_transfer_refuses_a_core_off_the_decomposition_identity(monkeypatch, ring, transfer):
    # the target's certificate comes back with its core plus one, so the
    # core no longer equals left * (1 - source * d) * right
    certify = cline._certify_inverse

    def shifted_core(x, v, mode):
        cert = certify(x, v, mode)
        return cert._replace(core=cert.core + 1)

    monkeypatch.setattr(cline, "_certify_inverse", shifted_core)
    a = ring.elem([[1, 1], [0, 0]])
    for direction in ("forward", "backward"):
        with pytest.raises(CertificationError, match="core decomposition identity failed"):
            transfer(a, a, a, direction)


def test_transfers_under_a_lowered_budget(monkeypatch):
    # a budget of 10 gates the transfers of the enumerated rings, M_2(Z/2)
    # over F_2 as much as M_2(Z/4), and leaves the eliminated M_2(Z/7) as
    # it was
    m2z2 = _hypothesis_triples(matrix_ring(2, 2))[::97]
    m2z4 = [(x, x, x) for x in matrix_ring(4, 2).elements()[::51]]
    m2z7 = [(x, x, x) for x in map(matrix_ring(7, 2).element_by_index, range(0, 2401, 201))]

    def transfers(triples):
        return [
            dumps_canonical([certificate_to_json(r.source), certificate_to_json(r.target)])
            for a, b, c in triples
            for transfer in (cline_drazin, cline_gdrazin)
            for r in (transfer(a, b, c, "forward"), transfer(a, b, c, "backward"))
        ]

    transfers(m2z2)  # cached lookups stay gated
    eliminated = transfers(m2z7)
    monkeypatch.setenv("CLINE_LAB_BUDGET", "10")
    assert transfers(m2z7) == eliminated
    for a, b, c in m2z2 + m2z4:
        for transfer in (cline_drazin, cline_gdrazin):
            with pytest.raises(BudgetExceeded):
                transfer(a, b, c)


def test_all_checks_sweep_of_m2z2_reads_the_budget_once_per_lookup(monkeypatch):
    # the triple budget once, then the element budget once as the scan's
    # block starts, after which the ring's lookups skip the read (69,547
    # reads before a lookup made one, 9,423 while every lookup read it); a
    # fresh context, so cached lookups from other tests do not lower the
    # count
    reads = [0]
    real = rings.enumeration_budget

    def counting(*args):
        reads[0] += 1
        return real(*args)

    monkeypatch.setattr(rings, "enumeration_budget", counting)
    report = sweep(rings.MatrixRingContext(2, 2))
    assert report.triples_hypothesis == 1540
    assert reads[0] == 2


def test_nilpotency_transfer_on_separation_triple():
    a, b, c = example_29_triple()
    w_ac, w_ba = nilpotency_transfer(a, b, c)
    assert w_ac.index == 3 and w_ba.index == 2
    assert abs(w_ac.index - w_ba.index) <= 1


def test_ac_zero_forces_ba_cubed_zero():
    # ac = 0 gives a(ba)^2 = (ac)^2 a = 0, hence (ba)^3 = 0; the square
    # need not vanish (see the 5x5 witness below)
    for a, b, c in _hypothesis_triples(Z8):
        if (a * c).is_zero:
            assert ((b * a) ** 3).is_zero


def test_index_can_jump_from_one_to_three():
    # smallest witness that |index(ac) - index(ba)| <= 1 is NOT forced by
    # the weak hypothesis: (2, 0, 1) in Z/8
    a, b, c = Z8.elem(2), Z8.elem(0), Z8.elem(1)
    assert check_hypothesis(a, b, c).holds
    w_ac, w_ba = nilpotency_transfer(a, b, c)
    assert (w_ac.index, w_ba.index) == (3, 1)


def test_square_of_ba_can_survive_when_ac_is_zero():
    # 5x5 sharpness witness: a = E21 + E43, b = E32 + E54, c = 0
    M5 = rationals_matrix(5)
    a = M5.elem(
        [[0, 0, 0, 0, 0], [1, 0, 0, 0, 0], [0, 0, 0, 0, 0], [0, 0, 1, 0, 0], [0, 0, 0, 0, 0]]
    )
    b = M5.elem(
        [[0, 0, 0, 0, 0], [0, 0, 0, 0, 0], [0, 1, 0, 0, 0], [0, 0, 0, 0, 0], [0, 0, 0, 1, 0]]
    )
    c = M5.zero()
    assert check_hypothesis(a, b, c).holds
    assert (a * c).is_zero
    ba = b * a
    assert not (ba * ba).is_zero and (ba * ba * ba).is_zero
    w_ac, w_ba = nilpotency_transfer(a, b, c)  # bound holds: 3 <= max(1,2)+1
    assert (w_ac.index, w_ba.index) == (1, 3)


def test_neither_nilpotent_for_identity_triple():
    w_ac, w_ba = nilpotency_transfer(Z4.one(), Z4.one(), Z4.one())
    assert not w_ac.is_nilpotent and not w_ba.is_nilpotent


def test_qnil_transfer_trivial_and_exhaustive():
    assert qnil_transfer(Z4.zero(), Z4.one(), Z4.one()) == (True, True)
    for a, b, c in _hypothesis_triples(Z4):
        q_ac, q_ba = qnil_transfer(a, b, c)
        assert q_ac == q_ba


def test_qnil_transfer_rejects_matrix_contexts():
    with pytest.raises(ContextMismatch):
        qnil_transfer(M2Q.one(), M2Q.one(), M2Q.one())


# --- Jacobson-style inverse --------------------------------------------------


def test_jacobson_with_zero_a_gives_one():
    a = M2Q.zero()
    t = jacobson_inverse(a, M2Q.one(), M2Q.one(), M2Q.one())
    assert t.is_one


def test_jacobson_on_separation_triple_with_geometric_series():
    a, b, c = example_29_triple()
    ac = a * c
    s = a.ctx.one() + ac + ac * ac  # finite geometric series: ac^3 = 0
    t = jacobson_inverse(a, b, c, s)
    one = a.ctx.one()
    assert t * (one - b * a) == one and (one - b * a) * t == one


def test_jacobson_matches_elimination_on_random_triples():
    rng = random.Random(23)
    M3 = rationals_matrix(3)
    done = 0
    while done < 50:
        a = _random_matrix(M3, rng)
        b = _random_matrix(M3, rng)
        s = try_inverse(M3.one() - a * b)
        if s is None:
            continue
        t = jacobson_inverse(a, b, b, s)
        assert t == try_inverse(M3.one() - b * a)
        done += 1


def test_jacobson_rejects_wrong_witness():
    a, b, c = example_29_triple()
    with pytest.raises(InputError):
        jacobson_inverse(a, b, c, a.ctx.zero())


@pytest.mark.parametrize("modulus", [4, 8, 9])
def test_units_transfer_exhaustive_on_small_zmod(modulus):
    for a, b, c in _hypothesis_triples(zmod(modulus)):
        u_ac, u_ba = units_transfer(a, b, c)
        assert u_ac == u_ba


# --- special case and powers -------------------------------------------------


def test_special_case_reduces_to_classical_formula_for_equal_b_c():
    rng = random.Random(5)
    for _ in range(10):
        a = _random_matrix(M2Q, rng)
        b = _random_matrix(M2Q, rng)
        assert special_case_formula(a, b, b)


def test_special_case_on_operator_truncation():
    t = build_example_triple(8)
    assert t.a * t.b * t.a == t.a * t.c * t.a
    assert special_case_formula(t.a, t.b, t.c)


def test_special_case_with_zero_a():
    assert special_case_formula(M2Q.zero(), M2Q.one(), M2Q.elem([[1, 1], [0, 1]]))


def test_special_case_requires_strong_equality():
    a, b, c = example_29_triple()
    with pytest.raises(HypothesisViolation):
        special_case_formula(a, b, c)


def test_power_transfer_k1_matches_base_existence():
    a, b, c = example_29_triple()
    c1, c2 = power_transfer(a, b, c, 1)
    base = cline_gdrazin(a, b, c, "backward")
    assert c1.inverse == base.source.inverse
    assert c2.inverse == base.target.inverse


def test_power_transfer_k2_on_separation_triple():
    a, b, c = example_29_triple()
    c1, c2 = power_transfer(a, b, c, 2)
    assert c1 is not None and c2 is not None
    assert check_hypothesis(a, b * a * b, c * a * c).holds


def test_substitution_check_keeps_the_triples_report():
    # the aba = aca guards that run after power_transfer read this report
    a, b, c = example_29_triple()
    report = check_hypothesis(a, b, c)
    power_transfer(a, b, c, 2)
    assert check_hypothesis(a, b, c) is report
    with pytest.raises(HypothesisViolation):
        special_case_formula(a, b, c)


def test_power_transfer_k3_existence_agrees_on_m2z2_sample():
    ring = matrix_ring(2, 2)
    triples = _hypothesis_triples(ring)
    for a, b, c in triples[::37]:
        c1, c2 = power_transfer(a, b, c, 3)
        assert (c1.element, c2.element) == ((a * c) ** 3, (b * a) ** 3)


def test_power_transfer_rejects_bad_k():
    a, b, c = example_29_triple()
    with pytest.raises(InputError):
        power_transfer(a, b, c, 0)


# --- misc --------------------------------------------------------------------


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 7), st.integers(0, 7), st.integers(0, 7))
def test_lemma_25_whenever_drazin_exists_gdrazin_matches(ai, bi, ci):
    a = Z8.elem(ai)
    cd = drazin_certificate(a)
    cg = gdrazin_certificate(a)
    assert cd.inverse == cg.inverse
