"""Drazin / group / g-Drazin certificates and the two independent engines."""

import hashlib
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    certificate_by_commutant_search,
    drazin_by_inner_inverse,
    in_double_commutant_by_basis,
    index_profile,
    inverse_by_payload_scan,
    rank_profile,
)

from clinelab import (
    BudgetExceeded,
    CertificationError,
    ContextMismatch,
    commutant,
    drazin_certificate,
    drazin_finite_ring,
    drazin_matrix,
    gdrazin_certificate,
    gdrazin_finite_ring,
    group_inverse,
    in_double_commutant,
    is_polynomial_in,
    is_quasinilpotent,
    matrix_ring,
    nilpotency,
    example_29_triple,
    rationals_matrix,
    zmod,
)
from clinelab.drazin import _build_certificate
from clinelab.linalg import QQ, inverse
from clinelab.serialize import certificate_to_json, dumps_canonical
from clinelab.spectra import char_poly

M2Q = rationals_matrix(2)
M2Z2 = matrix_ring(2, 2)
Z4 = zmod(4)
Z8 = zmod(8)
_POWERS = (("drazin", drazin_finite_ring), ("gdrazin", gdrazin_finite_ring))


def _check_defining_equations(cert):
    a, b, k = cert.element, cert.inverse, cert.index
    assert b * a * b == b
    assert a * b == b * a
    assert a ** (k + 1) * b == a**k
    core = a - a * a * b
    assert cert.core == core
    if k == 0:
        assert core.is_zero and a * b == a.ctx.one()
    else:
        assert (core**k).is_zero and not (core ** (k - 1)).is_zero


# --- matrix algorithm --------------------------------------------------------


def test_invertible_matrix_gives_actual_inverse_index_zero():
    a = M2Q.elem([[1, 2], [3, 4]])
    cert = drazin_matrix(a)
    assert cert.index == 0
    assert (cert.inverse * a).is_one and (a * cert.inverse).is_one
    _check_defining_equations(cert)


def test_zero_matrix_has_zero_inverse_index_one():
    cert = drazin_matrix(M2Q.zero())
    assert cert.inverse.is_zero and cert.index == 1
    _check_defining_equations(cert)


def test_nilpotent_shift_has_zero_inverse_index_two():
    # expected value derived from the exhaustive finite-ring oracle on the
    # same payload over F_2, then asserted over Q
    shift_f2 = M2Z2.elem([[0, 1], [0, 0]])
    oracle = drazin_finite_ring(shift_f2)
    assert oracle.inverse.is_zero and oracle.index == 2

    cert = drazin_matrix(M2Q.elem([[0, 1], [0, 0]]))
    assert cert.inverse.is_zero and cert.index == 2
    _check_defining_equations(cert)


def test_idempotent_is_its_own_inverse_index_one():
    a = M2Q.elem([[1, 1], [0, 0]])
    assert a * a == a
    cert = drazin_matrix(a)
    assert cert.inverse == a and cert.index == 1
    _check_defining_equations(cert)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.lists(st.integers(-3, 3), min_size=3, max_size=3), min_size=3, max_size=3
    )
)
def test_matrix_certificates_close_defining_equations(rows):
    a = rationals_matrix(3).elem(rows)
    cert = drazin_matrix(a)
    _check_defining_equations(cert)
    assert cert.index == index_profile(a).index
    assert is_polynomial_in(cert.inverse, a)


def test_rank_profile_builds_each_power_once():
    # index 3: a 3x3 nilpotent Jordan block beside an invertible 1x1 block
    a = rationals_matrix(4).elem(
        [[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 0], [0, 0, 0, 5]]
    )
    ranks = rank_profile(a)
    assert ranks == [4, 3, 2, 1, 1]
    assert index_profile(a).ranks == tuple(ranks)
    assert drazin_matrix(a).index == index_profile(a).index == 3


# name -> (index, rows): a unit, zero, nilpotent blocks of size 2 and 3,
# and nilpotent blocks beside invertible ones
_Q_INDEX_CASES = {
    "unit": (0, [[2, 1, 0], [0, 3, 0], [1, 0, -1]]),
    "zero": (1, [[0, 0, 0], [0, 0, 0], [0, 0, 0]]),
    "idempotent": (1, [[1, 1, 0], [0, 0, 0], [0, 0, 0]]),
    "rank1": (1, [[1, 2, 3], [2, 4, 6], [-1, -2, -3]]),
    "nilpotent-index2": (2, [[0, 1, 0], [0, 0, 0], [0, 0, 0]]),
    "nilpotent-index3": (3, [[0, 1, 0], [0, 0, 1], [0, 0, 0]]),
    "index2-beside-unit": (2, [[0, 1, 0], [0, 0, 0], [0, 0, 7]]),
    "index3-beside-unit": (3, [[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 0], [0, 0, 0, -5]]),
    "index2-dense": (2, [[1, 1, 1], [-1, -1, 1], [0, 0, 2]]),
}


@pytest.mark.parametrize("index,rows", list(_Q_INDEX_CASES.values()), ids=list(_Q_INDEX_CASES))
def test_matrix_inverse_equals_the_inner_inverse_oracle(index, rows):
    a = rationals_matrix(len(rows)).elem(rows)
    for mode in ("drazin", "gdrazin"):
        cert = drazin_matrix(a, mode)
        assert cert.inverse == drazin_by_inner_inverse(a)
        assert cert.index == index_profile(a).index == index
        _check_defining_equations(cert)


@pytest.mark.parametrize("mode", ["drazin", "gdrazin"])
def test_zero_multiplicity_above_the_index(mode):
    # J_2 + 0 + 1 over Q (entries 1/3 and 2/3, so its rows carry a
    # denominator): det(x - a) = x^3 (x - 2/3), so the inverse is read off
    # with m = 3 powers of a while the index is 2
    a = rationals_matrix(4).elem(
        [[0, "1/3", 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, "2/3"]]
    )
    assert char_poly(a).zero_multiplicity == 3
    cert = drazin_matrix(a, mode)
    assert cert.index == 2
    assert cert.inverse == rationals_matrix(4).elem(
        [[0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, "3/2"]]
    )
    _check_defining_equations(cert)


@pytest.mark.parametrize("mode", ["drazin", "gdrazin"])
def test_zero_multiplicity_is_read_modulo_p(mode):
    # over Z the characteristic polynomial of [[1, 1], [1, 1]] is x^2 - 2x,
    # with 0 of multiplicity 1; modulo 2 it is x^2, and the matrix is
    # nilpotent of index 2
    a = M2Z2.elem([[1, 1], [1, 1]])
    cert = drazin_matrix(a, mode)
    assert cert.inverse.is_zero and cert.index == 2
    _check_defining_equations(cert)


@settings(max_examples=25, deadline=None)
@given(
    st.lists(
        st.lists(st.integers(-2, 2), min_size=3, max_size=3), min_size=3, max_size=3
    )
)
def test_matrix_inverse_lies_in_double_commutant(rows):
    # the polynomial witness cross-checked against the commutant basis
    a = rationals_matrix(3).elem(rows)
    cert = drazin_matrix(a)
    assert in_double_commutant_by_basis(cert.inverse, a)


# --- finite ring oracle ------------------------------------------------------


def test_one_inverts_to_one_index_zero():
    cert = drazin_finite_ring(Z4.one())
    assert cert.inverse.is_one and cert.index == 0


def test_two_mod_four_has_zero_inverse_index_two():
    cert = drazin_finite_ring(Z4.elem(2))
    assert cert.inverse.is_zero and cert.index == 2
    _check_defining_equations(cert)


@pytest.mark.parametrize("ring", [Z4, Z8, M2Z2])
def test_every_element_of_tested_finite_rings_is_drazin_invertible(ring):
    # every element has a Drazin inverse; its uniqueness is checked by the
    # commutant search of the oracle (tests/oracles.py)
    for e in ring.elements():
        _check_defining_equations(drazin_finite_ring(e))


@pytest.mark.parametrize("ring", [Z8, M2Z2])
def test_drazin_and_gdrazin_agree_elementwise(ring):
    for e in ring.elements():
        cd = drazin_finite_ring(e)
        cg = gdrazin_finite_ring(e)
        assert cd.inverse == cg.inverse


def test_gdrazin_certificate_flags_quasinilpotent_core():
    cert = gdrazin_finite_ring(Z4.elem(2))
    assert cert.core_quasinilpotent is True
    assert cert.inverse.is_zero


def test_polynomial_witness_matches_basis_check_over_prime_field():
    # the cheap double-commutant witness (inverse is a polynomial in the
    # element) cross-checked against the enumerated commutant, here over
    # F_2 where the elimination runs in characteristic 2
    for a in M2Z2.elements():
        cert = drazin_matrix(a)
        assert is_polynomial_in(cert.inverse, a)
        assert in_double_commutant(cert.inverse, a)


@pytest.mark.parametrize("size", [1, 2])
def test_matrix_oracle_agreement_on_small_f2_rings(size):
    ring = matrix_ring(2, size)
    for e in ring.elements():
        field_cert = drazin_matrix(e)
        ring_cert = drazin_finite_ring(e)
        assert field_cert.inverse.payload == ring_cert.inverse.payload
        assert field_cert.index == ring_cert.index


def test_polynomial_witness_is_the_double_commutant_over_f3():
    # over a field the double commutant of a matrix is exactly the
    # polynomials in it, so the span test must agree with the bitsets
    ring = matrix_ring(3, 2)
    for a in ring.elements():
        for b in ring.elements():
            assert is_polynomial_in(b, a) == in_double_commutant(b, a)


def test_matrix_oracle_agreement_on_m2f3_both_modes():
    ring = matrix_ring(3, 2)
    assert ring.element_count == 81
    for e in ring.elements():
        for mode, power in _POWERS:
            field_cert = drazin_matrix(e, mode)
            ring_cert = power(e)
            assert ring_cert.inverse.payload == field_cert.inverse.payload
            assert ring_cert.index == field_cert.index


def test_memoized_searches_keep_the_budget_gate(monkeypatch):
    firsts = {}
    for x in M2Z2.elements():
        first = (drazin_finite_ring(x), gdrazin_finite_ring(x), is_quasinilpotent(x))
        assert drazin_finite_ring(x) is first[0]
        assert gdrazin_finite_ring(x) is first[1]
        firsts[x] = first
    # a budget lowered after the lookups are cached still gates them
    monkeypatch.setenv("CLINE_LAB_BUDGET", "10")
    for x in M2Z2.elements():
        for fn in (drazin_finite_ring, gdrazin_finite_ring, is_quasinilpotent):
            with pytest.raises(BudgetExceeded):
                fn(x)
    monkeypatch.delenv("CLINE_LAB_BUDGET")
    for x, first in firsts.items():
        assert drazin_finite_ring(x) is first[0]
        assert gdrazin_finite_ring(x) is first[1]


def test_certificate_json_is_the_same_from_both_engines():
    # M_2(Z/3) has 81 elements and M_2(Z/5) 625: both are indexed, so
    # powered, and drazin_matrix eliminates over F_p on the same elements
    for p, count in ((3, 81), (5, 625)):
        ring = matrix_ring(p, 2)
        assert not ring.eliminated
        for e in ring.elements():
            for mode, power in _POWERS:
                assert dumps_canonical(certificate_to_json(drazin_matrix(e, mode))) == (
                    dumps_canonical(certificate_to_json(power(e)))
                )
        assert len(ring.elements()) == count


def test_lowered_budget_gates_enumerated_lookups_and_eliminates_prime_rings(monkeypatch):
    # under a budget of 10 neither indexed ring may be powered, M_2(Z/2)
    # over F_2 as much as M_2(Z/4); M_2(Z/7), over INDEX_CAP, is eliminated
    # at any budget
    ring = matrix_ring(7, 2)
    m2z7 = [ring.element_by_index(i) for i in range(0, 2401, 101)]
    computes = (drazin_certificate, gdrazin_certificate)

    def certificates():
        return [
            dumps_canonical(certificate_to_json(compute(x)))
            for x in m2z7
            for compute in computes
        ]

    eliminated = certificates()
    monkeypatch.setenv("CLINE_LAB_BUDGET", "10")
    for x in M2Z2.elements() + matrix_ring(4, 2).elements():
        for compute in computes:
            with pytest.raises(BudgetExceeded):
                compute(x)
    assert certificates() == eliminated
    assert len(eliminated) == 48


def test_eliminated_lookups_never_enumerate(monkeypatch):
    # M_2(Z/7) is eliminated: its certificates and quasinilpotency flags
    # come from elimination and nilpotency, never from a ring scan
    from clinelab import drazin, rings

    def no_scan(*args):
        raise AssertionError("ring scan on an eliminated ring")

    monkeypatch.setattr(drazin, "_power_certificate", no_scan)
    monkeypatch.setattr(rings, "commutant", no_scan)
    ring = matrix_ring(7, 2)
    for i in range(0, 2401, 37):
        x = ring.element_by_index(i)
        for compute in (drazin_certificate, gdrazin_certificate):
            cert = compute(x)
            assert cert.core_quasinilpotent in (None, True)
            _check_defining_equations(cert)
        assert is_quasinilpotent(x) == nilpotency(x).is_nilpotent


# --- powering: every finite ring that is not eliminated ----------------------


@pytest.mark.parametrize(
    "ring",
    [Z8, zmod(360), M2Z2, matrix_ring(3, 2), matrix_ring(4, 2), matrix_ring(5, 2),
     matrix_ring(2, 3)],
    ids=repr,
)
def test_powering_equals_the_search_on_every_element_of_indexed_rings(ring):
    # the exhaustive commutant search of the oracle, which also checks
    # uniqueness and the double commutant: the whole certificate must
    # match, index and core witnesses included
    for e in ring.elements():
        for mode, power in _POWERS:
            assert power(e) == certificate_by_commutant_search(e, mode)


def test_indexed_drazin_lookups_never_enumerate(monkeypatch):
    # an indexed ring is powered: a Drazin-mode lookup reads no commutant,
    # through the API or the ring (a new context, so no lookup is cached yet)
    from clinelab import rings

    def no_scan(*args):
        raise AssertionError("ring scan for a Drazin lookup")

    monkeypatch.setattr(rings, "commutant", no_scan)
    monkeypatch.setattr(rings.MatrixRingContext, "_commutant", no_scan)
    ring = rings.MatrixRingContext(4, 2)
    for x in ring.elements():
        _check_defining_equations(drazin_certificate(x))


@pytest.mark.parametrize(
    "ring, extra",
    [(matrix_ring(6, 2), [[2, 1], [0, 2]]), (zmod(1500), 10)],
    ids=["M2(Z/6)", "Z/1500"],
)
def test_powering_equals_the_payload_scan_on_unindexed_rings(ring, extra):
    # extra is a unit at one prime of the modulus and nilpotent of index 2
    # or 3 at another, so its inverse is neither 0 nor a two-sided inverse
    assert not ring.indexed and not ring.eliminated
    sample = random.Random(25).sample(range(ring.element_count), 20)
    indices = set()
    for a in [ring.element_by_index(i) for i in sample] + [ring.elem(extra)]:
        for mode, power in _POWERS:
            cert = power(a)
            assert cert.inverse == inverse_by_payload_scan(a, mode)
            _check_defining_equations(cert)
            indices.add(cert.index)
    assert {0, 1} < indices


def test_unindexed_lookups_never_enumerate(monkeypatch):
    # over INDEX_CAP a ring over a composite modulus is powered: no
    # certificate and no quasinilpotency flag scans it, however large
    from clinelab import rings

    def no_scan(*args):
        raise AssertionError("ring scan on an unindexed ring")

    monkeypatch.setattr(rings, "commutant", no_scan)
    for ring in (matrix_ring(6, 2), matrix_ring(4, 3), zmod(360360)):
        for i in random.Random(3).sample(range(ring.element_count), 20):
            x = ring.element_by_index(i)
            for compute in (drazin_certificate, gdrazin_certificate):
                _check_defining_equations(compute(x))
            assert is_quasinilpotent(x) == nilpotency(x).is_nilpotent


def test_powered_lookups_keep_the_budget_gate(monkeypatch):
    x = matrix_ring(6, 2).elem([[2, 1], [0, 2]])
    first = (drazin_certificate(x), gdrazin_certificate(x))
    monkeypatch.setenv("CLINE_LAB_BUDGET", "1295")
    for fn in (drazin_certificate, gdrazin_certificate, is_quasinilpotent):
        with pytest.raises(BudgetExceeded, match="M2\\(Z/6\\) has 1296 elements"):
            fn(x)
    monkeypatch.setenv("CLINE_LAB_BUDGET", "1296")
    assert (drazin_certificate(x), gdrazin_certificate(x)) == first


# --- group inverse -----------------------------------------------------------


def test_group_inverse_of_invertible_is_inverse():
    a = M2Q.elem([[2, 0], [0, 3]])
    cert = group_inverse(a)
    assert cert is not None and (cert.inverse * a).is_one


def test_group_inverse_of_idempotent_is_itself():
    a = M2Q.elem([[1, 1], [0, 0]])
    cert = group_inverse(a)
    assert cert is not None and cert.inverse == a
    assert (a * cert.inverse * a) == a


def test_group_inverse_absent_for_index_two():
    assert group_inverse(M2Q.elem([[0, 1], [0, 0]])) is None
    assert group_inverse(Z4.elem(2)) is None


# --- dispatcher --------------------------------------------------------------


def test_dispatcher_uses_matrix_engine_for_over_budget_prime_matrix_ring():
    big = matrix_ring(2, 6)
    a = big.elem([[0] * 6 for _ in range(6)])
    cert = drazin_certificate(a)
    assert cert is not None and cert.inverse.ctx is big
    assert cert.index == 1


def test_dispatcher_context_errors():
    with pytest.raises(ContextMismatch):
        drazin_matrix(Z4.one())
    with pytest.raises(ContextMismatch):
        drazin_finite_ring(M2Q.one())


def test_elimination_needs_a_field():
    # Z/4 is not a field: M_2(Z/4) has no elimination engine
    with pytest.raises(ContextMismatch):
        drazin_matrix(matrix_ring(4, 2).elem([[2, 1], [0, 2]]))


def test_eliminated_certificate_stays_in_its_ring():
    a, _, c = example_29_triple()
    cert = drazin_certificate(a * c)
    ring = matrix_ring(2, 6)
    assert cert.element.ctx is ring
    assert cert.inverse.ctx is ring
    assert cert.core.ctx is ring


def test_elimination_on_an_indexed_ring_hands_out_interned_elements():
    ring = matrix_ring(3, 2)
    for mode in ("drazin", "gdrazin"):
        cert = drazin_matrix(ring.elem([[1, 2], [2, 1]]), mode)
        for x in (cert.element, cert.inverse, cert.core):
            assert x.idx is not None and ring.elements()[x.idx] is x


def test_gdrazin_dispatcher_on_matrix_context_marks_mode():
    cert = gdrazin_certificate(M2Q.elem([[0, 1], [0, 0]]))
    assert cert.mode == "gdrazin"
    assert cert.core_quasinilpotent is True


def test_finite_search_respects_commutant():
    # the returned inverse must commute with everything commuting with a
    for e in list(M2Z2.elements())[:8]:
        cert = drazin_finite_ring(e)
        for y in commutant(e):
            assert cert.inverse * y == y * cert.inverse


def test_nilpotent_element_inverse_is_zero_with_index_matching_witness():
    x = matrix_ring(2, 3).elem([[0, 1, 0], [0, 0, 1], [0, 0, 0]])
    cert = drazin_certificate(x)
    assert cert.inverse.is_zero
    assert cert.index == nilpotency(x).index == 3


# --- fault injection: each reachable check refuses a wrong candidate ----------


@pytest.mark.parametrize("ring", [M2Q, M2Z2], ids=repr)
@pytest.mark.parametrize(
    "a, b, mode, message",
    [
        ([[1, 0], [0, 0]], [[1, 1], [0, 0]], "drazin", "ab = ba failed"),
        ([[1, 0], [0, 1]], [[0, 0], [0, 0]], "drazin", "drazin core is not nilpotent"),
        ([[1, 0], [0, 1]], [[0, 0], [0, 0]], "gdrazin", "gdrazin core is not quasinilpotent"),
    ],
    ids=["commutes", "nilpotent-core", "quasinilpotent-core"],
)
def test_build_certificate_refuses_a_wrong_candidate(ring, a, b, mode, message):
    # on M_2(Z/2) the g-Drazin core goes through the enumerated quantifier;
    # "unit with nonzero core part" and "a^(k+1) b = a^k failed" follow from
    # the checks before them (ab = 1 gives a - a^2 b = 0; e = ab is an
    # idempotent commuting with a, so core^k = a^k (1 - e) = 0 gives
    # a^k = a^(k+1) b), so no candidate reaches them
    with pytest.raises(CertificationError, match=message):
        _build_certificate(ring.elem(a), ring.elem(b), mode)


def test_build_certificate_refuses_twice_the_inverse_over_q():
    a = M2Q.elem([[2, 0], [0, 3]])
    with pytest.raises(CertificationError, match="bab = b failed"):
        _build_certificate(a, M2Q.elem([[1, 0], [0, Fraction(2, 3)]]), "drazin")


def test_drazin_matrix_refuses_an_index_over_the_multiplicity_of_zero(monkeypatch):
    # the true certificate of a dense M_4(Q) element, its index raised to
    # 5, over every multiplicity of 0 a 4x4 matrix can have
    from clinelab import drazin

    build = drazin._build_certificate

    def raised_index(a, b, mode):
        return build(a, b, mode)._replace(index=5)

    a = _dense_of_index(random.Random(32), 4, 2)
    monkeypatch.setattr(drazin, "_build_certificate", raised_index)
    for mode in ("drazin", "gdrazin"):
        with pytest.raises(CertificationError, match="index exceeds the multiplicity of 0"):
            drazin_matrix(a, mode)


# --- pinned certificates -------------------------------------------------------


def _dense_of_index(rng, n, k):
    """P (J_k + D) P^-1 for a dense random rational P, J_k the nilpotent
    Jordan block of size k and D a diagonal of nonzero rationals on the
    other n - k places (two of them equal), so the index is exactly k."""
    ctx = rationals_matrix(n)

    def entry(nonzero=False):
        v = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        return v if nonzero or rng.random() < 0.5 else -v

    while True:
        p = ctx.elem([[entry() for _ in range(n)] for _ in range(n)])
        p_inv = inverse(QQ, p.payload)
        if p_inv is not None:
            break
    diag = [entry(True) for _ in range(n - k)]
    diag[-1] = diag[0]
    rows = [[0] * n for _ in range(n)]
    for i in range(k - 1):
        rows[i][i + 1] = 1
    for i, v in enumerate(diag, start=k):
        rows[i][i] = v
    return p * ctx.elem(rows) * ctx._wrap(p_inv)


def _pinned_elements(family):
    rng = random.Random(family)
    if family == "dense-q":
        return [_dense_of_index(rng, n, k) for n in (6, 12, 16) for k in (1, 2, 3)]
    size, p = {"m4z2": (4, 2), "m3z3": (3, 3), "m2z7": (2, 7)}[family]
    ring = matrix_ring(p, size)
    assert ring.eliminated
    return [
        ring.elem([[rng.randrange(p) for _ in range(size)] for _ in range(size)])
        for _ in range(24)
    ]


# sha256 of the canonical certificate JSON of every element, in order
_PINNED_CERTIFICATES = {
    ("dense-q", "drazin"): "87d91a14932bb72ec6da122daa31dcb4c50312a1c4dd563a94341fb810f6dabe",
    ("dense-q", "gdrazin"): "e750e99b5cc03c3ae4ff81cd9de6f02682c728c1355afd73343428d040a111ae",
    ("m4z2", "drazin"): "ebbb15873e6bb7389483169b22ccfda93aa66d888987bd34e0d4bc6d244bc380",
    ("m4z2", "gdrazin"): "dc6ba65dfee98b81880ea5cc953eb0890e36cc5587c16b45f445955f8dc9e97e",
    ("m3z3", "drazin"): "281fd4d4ecbcc5fb2de3106d53524d0bcda6704ec947679d1fd944f9f4ed50f1",
    ("m3z3", "gdrazin"): "17cabe456b5a5866a5081bdb567cfd74de705d598e9744ee6479d7a5b4e8508b",
    ("m2z7", "drazin"): "bd0aca911a1f63ee434efd7dcfbb30f22973c5b33e6084452d93786b7d5bb402",
    ("m2z7", "gdrazin"): "e0797f298e78a2fd62688dd6567f33f02dd9e46d06491d72b0e6592834328849",
}


@pytest.mark.parametrize("family,mode", list(_PINNED_CERTIFICATES))
def test_matrix_certificates_are_pinned(family, mode):
    certs = [drazin_matrix(a, mode) for a in _pinned_elements(family)]
    if family == "dense-q":
        assert [c.index for c in certs] == [1, 2, 3] * 3
    text = "".join(dumps_canonical(certificate_to_json(c)) for c in certs)
    assert hashlib.sha256(text.encode()).hexdigest() == _PINNED_CERTIFICATES[family, mode]
