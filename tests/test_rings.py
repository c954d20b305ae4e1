"""Contexts, canonical payloads, and the element predicates."""

import math
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    commutant_basis,
    in_double_commutant_by_basis,
    index_by_digits,
    index_profile,
    nilpotency_by_repeat,
)

import clinelab.rings as rings
from clinelab import (
    BudgetExceeded,
    ContextMismatch,
    InputError,
    commutant,
    example_29_triple,
    in_double_commutant,
    is_quasinilpotent,
    is_unit,
    matrix_ring,
    nilpotency,
    rationals_matrix,
    sweep,
    try_inverse,
    zmod,
)
from clinelab.linalg import ModularDomain, is_prime, rank
from clinelab.rings import NilpotencyWitness

Z4 = zmod(4)
Z8 = zmod(8)
M2Q = rationals_matrix(2)
M2Z2 = matrix_ring(2, 2)


# --- canonical form ---------------------------------------------------------


def test_rational_entries_are_canonical():
    e = M2Q.elem([[Fraction(2, 4), "3/9"], [0, Fraction(-2, -4)]])
    assert e.payload[0][0] == Fraction(1, 2)
    assert e.payload[0][1] == Fraction(1, 3)
    assert e.payload[1][1] == Fraction(1, 2)
    assert e.payload[1][1].denominator > 0


def test_modular_entries_reduced():
    assert Z4.elem(-1).payload == 3
    assert Z4.elem(7).payload == 3
    assert M2Z2.elem([[2, 3], [-1, 4]]).payload == ((0, 1), (1, 0))


def test_context_interning_makes_equality_structural():
    assert zmod(4) is Z4
    assert Z4.elem(2) == zmod(4).elem(6)
    assert M2Q.elem([[1, 0], [0, 1]]) == M2Q.one()


def test_context_mismatch_raises():
    with pytest.raises(ContextMismatch):
        Z4.elem(1) + zmod(5).elem(1)
    with pytest.raises(ContextMismatch):
        M2Q.one() * M2Z2.one()


def test_shape_validation():
    with pytest.raises(InputError):
        M2Q.elem([[1, 2, 3], [4, 5, 6]])
    with pytest.raises(InputError):
        M2Q.elem([[1], [2]])


@settings(max_examples=60)
@given(st.integers(-40, 40), st.integers(-40, 40))
def test_zmod_arithmetic_canonical_roundtrip(x, y):
    ex, ey = Z8.elem(x), Z8.elem(y)
    assert (ex + ey).payload == (x + y) % 8
    assert (ex * ey).payload == (x * y) % 8
    assert (-ex).payload == (-x) % 8


@settings(max_examples=40)
@given(
    st.lists(
        st.lists(st.fractions(max_denominator=6), min_size=2, max_size=2),
        min_size=2,
        max_size=2,
    )
)
def test_matrix_ops_stay_canonical(rows):
    e = M2Q.elem(rows)
    out = (e + e) * e - e
    for row in out.payload:
        for v in row:
            assert isinstance(v, Fraction)


def test_scalar_embedding():
    assert Z4.scalar(7) == Z4.elem(3)
    assert M2Q.scalar(-2) == M2Q.elem([[-2, 0], [0, -2]])
    assert (1 - Z4.elem(3)).payload == 2


# --- units ------------------------------------------------------------------


def test_identity_is_unit():
    assert is_unit(M2Q.one())


def test_two_is_not_a_unit_mod_four():
    assert not is_unit(Z4.elem(2))


def test_one_minus_ac_from_separation_triple_is_unit():
    a, _, c = example_29_triple()
    ac = a * c
    # ac is nilpotent (direct computation), hence 1 - ac is a unit
    k = nilpotency(ac)
    assert k.is_nilpotent and k.index <= 6
    assert is_unit(a.ctx.one() - ac)
    # same conclusion by elimination over F_2: full rank
    from clinelab import linalg

    u = a.ctx.one() - ac
    assert linalg.rank(u.ctx.domain, u.payload) == 6


def test_zmod_unit_test_agrees_with_enumeration():
    # Z/n decides units by gcd; the reference is a search for an inverse
    for n in range(2, 65):
        ring = zmod(n)
        one = ring.one()
        for x in ring.elements():
            assert is_unit(x) == any(x * u == one for u in ring.elements()), (n, x)


def test_matrix_ring_unit_test_agrees_with_enumeration():
    one = M2Z2.one()
    for e in M2Z2.elements():
        by_det = is_unit(e)
        by_search = any(e * u == one and u * e == one for u in M2Z2.elements())
        assert by_det == by_search


def test_try_inverse_round_trips():
    for e in M2Z2.elements():
        inv = try_inverse(e)
        if is_unit(e):
            assert inv is not None
            assert e * inv == M2Z2.one() and inv * e == M2Z2.one()
        else:
            assert inv is None
    # a composite modulus lifts the inverse from Q and scales it by det
    m = matrix_ring(4, 2).elem([[1, 2], [0, 3]])
    inv = try_inverse(m)
    assert inv is not None and m * inv == matrix_ring(4, 2).one()


@pytest.mark.parametrize("n, size", [(5, 2), (2, 3)])
def test_try_inverse_mod_prime_equals_the_field_inverse(n, size):
    # the adjugate lift over Q is the one path for every modulus
    from clinelab.linalg import inverse

    ring, field = matrix_ring(n, size), ModularDomain(n)
    units = 0
    for x in ring.elements():
        if is_unit(x):
            units += 1
            assert try_inverse(x).payload == inverse(field, x.payload)
    assert units == {5: 480, 2: 168}[n]  # |GL_2(F_5)|, |GL_3(F_2)|


@pytest.mark.parametrize("n, size, samples", [(4, 2, None), (6, 3, 300), (8, 2, 200)])
def test_try_inverse_mod_composite_n(n, size, samples):
    """x in M_m(Z/n) is a unit exactly when its reduction mod each prime
    p | n has full rank over F_p; a unit must get a two-sided inverse and
    anything else None.  M_2(Z/4) is run in full, the others on a seeded
    sample."""
    ring = matrix_ring(n, size)
    if samples is None:
        elems = list(ring.elements())
    else:
        rng = random.Random(n * 10 + size)
        elems = [
            ring.elem([[rng.randrange(n) for _ in range(size)] for _ in range(size)])
            for _ in range(samples)
        ]
    primes = [p for p in range(2, n + 1) if n % p == 0 and is_prime(p)]
    units = 0
    for e in elems:
        unit = all(
            rank(ModularDomain(p), [[v % p for v in row] for row in e.payload]) == size
            for p in primes
        )
        inv = try_inverse(e)
        if unit:
            units += 1
            assert inv is not None
            assert e * inv == ring.one() and inv * e == ring.one()
        else:
            assert inv is None
    assert 0 < units < len(elems)


# --- nilpotency -------------------------------------------------------------


def test_upper_shift_block_has_index_three():
    x = matrix_ring(2, 3).elem([[0, 1, 0], [0, 0, 1], [0, 0, 0]])
    w = nilpotency(x)
    assert w.is_nilpotent and w.index == 3
    assert not (x * x).is_zero and (x * x * x).is_zero


def test_identity_not_nilpotent():
    assert not nilpotency(M2Q.one()).is_nilpotent
    assert not nilpotency(Z4.one()).is_nilpotent


def test_ba_of_separation_triple_nilpotent_with_small_index():
    a, b, _ = example_29_triple()
    w = nilpotency(b * a)
    assert w.is_nilpotent
    assert w.index <= 7
    assert w.index == 2  # direct power computation: (ba)^2 = 0, ba != 0


def test_zero_has_index_one():
    assert nilpotency(M2Q.zero()).index == 1
    assert nilpotency(Z4.zero()).index == 1


def _check_nilpotency_against_the_oracle(xs):
    nilpotent = 0
    for x in xs:
        w = nilpotency(x)
        assert (w.is_nilpotent, w.index) == nilpotency_by_repeat(x)
        nilpotent += w.is_nilpotent
    return nilpotent


@pytest.mark.parametrize(
    "ring",
    [zmod(n) for n in (2, 8, 12, 64, 72, 97, 1000)]
    + [matrix_ring(n, 2) for n in (2, 3, 4, 5)]
    + [matrix_ring(2, 3)],
    ids=lambda ring: ring.label,
)
def test_bounded_nilpotency_equals_the_repeat_oracle_on_every_element(ring):
    assert _check_nilpotency_against_the_oracle(ring.elements()) >= 1


def test_bounded_nilpotency_equals_the_repeat_oracle_on_z4096():
    # every even element is nilpotent; the oracle walks a unit's whole
    # cycle, so the units are sampled
    ring = zmod(4096)
    odd = random.Random(4096).sample(range(1, 4096, 2), 100)
    xs = [ring.elem(k) for k in [*range(0, 4096, 2), *odd]]
    assert _check_nilpotency_against_the_oracle(xs) == 2048


@pytest.mark.parametrize("n, size", [(6, 2), (8, 2), (9, 2), (16, 2), (4, 3), (8, 3), (2, 4)])
def test_bounded_nilpotency_equals_the_repeat_oracle_on_samples(n, size):
    # random elements, and nilpotents P U P^-1 + rad(n) R (U strictly upper
    # triangular, P a unit): every reduction mod a prime p | n is nilpotent
    ring = matrix_ring(n, size)
    rng = random.Random(n * 10 + size)
    radical = math.prod(p for p in range(2, n + 1) if n % p == 0 and is_prime(p))

    def draw(upper=False):
        return ring.elem(
            [[rng.randrange(n) if j > i or not upper else 0 for j in range(size)]
             for i in range(size)]
        )

    built = []
    while len(built) < 60:
        p = draw()
        p_inv = try_inverse(p)
        if p_inv is not None:
            built.append(p * draw(upper=True) * p_inv + radical * draw())
    _check_nilpotency_against_the_oracle([draw() for _ in range(150)])
    assert _check_nilpotency_against_the_oracle(built) == len(built)


def _nilpotency_by_bound(x):
    """(is_nilpotent, index) by all B powers of x, as rings.nilpotency ran
    before it stopped at a repeated power."""
    ctx = x.ctx
    bound = ctx.size
    if ctx.domain is None or not ctx.domain.is_field:
        bound *= ctx.n.bit_length()
    p = x
    for k in range(1, bound + 1):
        if p.is_zero:
            return True, k
        p = p * x
    return False, None


@pytest.mark.parametrize("ring", [matrix_ring(4, 2), zmod(32), matrix_ring(3, 2)], ids=str)
def test_nilpotency_stops_at_a_repeated_power_with_the_bounded_witness(ring):
    for x in ring.elements():
        w = nilpotency(x)
        assert (w.is_nilpotent, w.index) == _nilpotency_by_bound(x)


def test_nilpotency_on_every_element_of_m2z4_makes_682_products(monkeypatch):
    # a fresh context, so no witness is cached; all B powers took 1,275
    ring = rings.MatrixRingContext(4, 2)
    count = [0]
    mul = rings.RingElem.__mul__

    def counted(self, other):
        count[0] += 1
        return mul(self, other)

    monkeypatch.setattr(rings.RingElem, "__mul__", counted)
    assert sum(nilpotency(x).is_nilpotent for x in ring.elements()) == 64
    assert count[0] == 682


@pytest.mark.parametrize(
    "x, index",
    [
        (matrix_ring(16, 2).elem([[0, 1], [2, 0]]), 8),  # x^2 = 2I
        (matrix_ring(8, 3).elem([[0, 0, 2], [1, 0, 0], [0, 1, 0]]), 9),  # x^3 = 2I
        (zmod(4096).elem(2), 12),
    ],
)
def test_nilpotency_reaches_the_index_bound(x, index):
    # m * e_max, the largest index M_m(Z/p^e) allows
    assert nilpotency(x) == NilpotencyWitness(True, index)
    assert nilpotency_by_repeat(x) == (True, index)


@settings(max_examples=40)
@given(
    st.lists(
        st.lists(st.integers(-3, 3), min_size=3, max_size=3), min_size=3, max_size=3
    )
)
def test_matrix_nilpotency_index_bounded_by_size(rows):
    m = rationals_matrix(3).elem(rows)
    w = nilpotency(m)
    if w.is_nilpotent:
        assert w.index <= 3
    prof = index_profile(m)
    ranks = prof.ranks
    # strictly decreasing before stabilization, constant after
    for i in range(len(ranks) - 2):
        assert ranks[i] > ranks[i + 1]
    assert ranks[-1] == ranks[-2]
    assert prof.index <= 3


# --- commutants -------------------------------------------------------------


def test_commutant_of_one_is_whole_ring():
    assert len(commutant(Z4.one())) == 4


def test_commutant_of_distinct_eigenvalue_diagonal_is_diagonal():
    d = M2Q.elem([[1, 0], [0, 2]])
    basis = commutant_basis(d)
    assert len(basis) == 2
    for y in basis:
        assert y.payload[0][1] == 0 and y.payload[1][0] == 0


def test_commutant_of_shift_is_span_of_identity_and_shift():
    x = M2Q.elem([[0, 1], [0, 0]])
    basis = commutant_basis(x)
    assert len(basis) == 2
    for y in basis:
        # solving xy = yx entrywise forces y = alpha I + beta x
        assert y.payload[1][0] == 0
        assert y.payload[0][0] == y.payload[1][1]
        assert y * x == x * y


def test_commutant_budget_is_enforced(monkeypatch):
    with pytest.raises(BudgetExceeded):
        commutant(matrix_ring(2, 6).one())
    monkeypatch.setenv("CLINE_LAB_BUDGET", "10")
    with pytest.raises(BudgetExceeded):
        commutant(M2Z2.one())
    monkeypatch.setenv("CLINE_LAB_BUDGET", "16")
    assert len(commutant(M2Z2.one())) == 16


def test_double_commutant_membership():
    a = M2Q.elem([[0, 1], [0, 0]])
    assert in_double_commutant_by_basis(a, a)
    assert in_double_commutant_by_basis(M2Q.one(), a)
    assert not in_double_commutant_by_basis(M2Q.elem([[1, 0], [0, 0]]), a)


def test_commutant_is_finite_ring_only():
    # over Q the commutant is an infinite set; no engine enumerates it
    a = M2Q.elem([[0, 1], [0, 0]])
    with pytest.raises(ContextMismatch):
        commutant(a)
    with pytest.raises(ContextMismatch):
        in_double_commutant(a, a)


def test_double_commutant_implies_commuting():
    for a in M2Z2.elements():
        for b in commutant(a):
            if in_double_commutant(b, a):
                assert a * b == b * a


# --- quasinilpotency --------------------------------------------------------


def test_zero_is_quasinilpotent():
    assert is_quasinilpotent(Z4.zero())
    assert is_quasinilpotent(M2Q.zero())


def test_two_mod_four_is_quasinilpotent():
    # comm(2) is all of Z/4 and 1 + 2y lands in {1, 3}, always a unit
    assert is_quasinilpotent(Z4.elem(2))


def test_one_mod_four_is_not_quasinilpotent():
    # y = -1 gives 1 + (-1)(1) = 0
    assert not is_quasinilpotent(Z4.one())


@pytest.mark.parametrize("ring", [Z4, Z8, zmod(6), zmod(9), M2Z2])
def test_nilpotent_implies_quasinilpotent(ring):
    for e in ring.elements():
        if nilpotency(e).is_nilpotent:
            assert is_quasinilpotent(e)


@pytest.mark.parametrize("ring", [Z4, Z8, zmod(6), zmod(9), M2Z2])
def test_quasinilpotent_equals_nilpotent_in_tested_finite_rings(ring):
    # recorded as a suite observation; the code never assumes it
    for e in ring.elements():
        assert is_quasinilpotent(e) == nilpotency(e).is_nilpotent


# --- enumeration and conversions --------------------------------------------


@settings(max_examples=50)
@given(st.integers(0, 15))
def test_element_index_round_trip(i):
    e = M2Z2.element_by_index(i)
    assert e.idx == i
    assert index_by_digits(M2Z2, e) == i


def test_enumeration_is_lexicographic_in_payload():
    flat = [tuple(v for row in e.payload for v in row) for e in M2Z2.elements()]
    assert flat == sorted(flat)


# --- indexed finite rings -----------------------------------------------------


def test_indexed_ring_hands_out_interned_elements():
    from clinelab.serialize import element_from_json, element_to_json

    ring = matrix_ring(3, 2)
    x = ring.elem([[1, 2], [0, 1]])
    assert ring.indexed and x.idx is not None
    assert ring.elem([[4, 5], [3, 1]]) is x
    assert ring.elements()[x.idx] is x
    assert ring.element_by_index(x.idx) is x
    assert element_from_json(element_to_json(x)) is x
    assert x * try_inverse(x) is ring.one()
    assert Z8.elem(11) is Z8.elements()[3]


def test_over_cap_ring_stays_unindexed_with_structural_equality():
    ring = matrix_ring(2, 6)
    a, b, c = example_29_triple()
    x = a * c + b
    y = ring.elem([list(row) for row in x.payload])
    assert not ring.indexed
    assert x.idx is None and y is not x
    assert x == y and hash(x) == hash(y)
    assert ring._elems is None and ring._products is None


def test_index_is_built_on_first_use():
    from clinelab.rings import MatrixRingContext

    ring = MatrixRingContext(3, 2)
    assert ring._elems is None
    ring.one()
    assert len(ring._elems) == 81 and ring._products is None


@pytest.mark.parametrize("ring", [M2Z2])
def test_enumeration_agrees_with_element_by_index(ring):
    # indexed rings enumerate through the index
    for i, e in enumerate(ring.elements()):
        assert ring.element_by_index(i) == e
        assert index_by_digits(ring, e) == i
    assert i == ring.element_count - 1


@pytest.mark.parametrize("ring", [matrix_ring(6, 2), zmod(1500)], ids=repr)
def test_unindexed_rings_number_their_elements_but_do_not_enumerate(ring):
    # over INDEX_CAP element_by_index reads the digits of an index, and no
    # enumerating predicate accepts the ring
    assert not ring.indexed
    last = ring.element_count - 1
    for i in random.Random(1500).sample(range(ring.element_count), 60) + [0, last]:
        e = ring.element_by_index(i)
        assert e.idx is None and index_by_digits(ring, e) == i
    x = ring.element_by_index(7)
    with pytest.raises(ContextMismatch):
        ring.elements()
    with pytest.raises(ContextMismatch):
        commutant(x)
    with pytest.raises(ContextMismatch):
        in_double_commutant(x, x)


@pytest.mark.parametrize("ring", [zmod(12), matrix_ring(3, 2)])
def test_indexed_arithmetic_matches_payload_arithmetic(ring):
    # the payload routines are the reference for the index lookups
    els = ring.elements()
    for x in els:
        assert (-x).payload == ring._neg(x.payload)
        for y in els:
            assert (x * y).payload == ring._mul(x.payload, y.payload)
            assert (x + y).payload == ring._add(x.payload, y.payload)


def test_indexed_sums_and_negations_are_interned_on_m2z4():
    # M_2(Z/4) is not a field; every sum, negation and difference read from
    # the tables must be the payload result, handed out as the interned element
    ring = matrix_ring(4, 2)
    els = ring.elements()
    for x in els:
        neg = -x
        assert neg.payload == ring._neg(x.payload)
        assert neg is els[ring._pos[neg.payload]]
        for y in els:
            s, d = x + y, x - y
            assert s.payload == ring._add(x.payload, y.payload)
            assert d.payload == ring._add(x.payload, ring._neg(y.payload))
            assert s is els[ring._pos[s.payload]]
            assert d is els[ring._pos[d.payload]]


def _commutant_by_payloads(ring, a):
    """comm(a) by payload products, independent of the index tables."""
    mul = ring._mul
    return [y for y in ring.elements() if mul(a.payload, y.payload) == mul(y.payload, a.payload)]


def _in_double_commutant_by_payloads(ring, b, comm_a):
    mul = ring._mul
    return all(mul(b.payload, y.payload) == mul(y.payload, b.payload) for y in comm_a)


@pytest.mark.parametrize("ring", [M2Z2, matrix_ring(3, 2)])
def test_double_commutant_mask_test_matches_enumeration(ring):
    els = ring.elements()
    for a in els:
        comm_a = _commutant_by_payloads(ring, a)
        for b in els:
            assert in_double_commutant(b, a) == _in_double_commutant_by_payloads(ring, b, comm_a)


def test_double_commutant_mask_test_matches_enumeration_on_m2z4_sample():
    ring = matrix_ring(4, 2)
    els = ring.elements()
    rng = random.Random(20)
    for a in rng.sample(els, 24):
        comm_a = _commutant_by_payloads(ring, a)
        members = 0
        # b from comm(a) and from the whole ring, so both answers occur
        for b in rng.sample(comm_a, min(len(comm_a), 24)) + rng.sample(els, 24):
            expected = _in_double_commutant_by_payloads(ring, b, comm_a)
            assert in_double_commutant(b, a) == expected
            members += expected
        assert members > 0


@pytest.mark.parametrize("ring", [zmod(12), M2Z2, matrix_ring(3, 2), matrix_ring(4, 2)])
def test_commutant_from_masks_matches_enumeration_in_order(ring):
    for x in ring.elements():
        assert list(commutant(x)) == _commutant_by_payloads(ring, x)


@pytest.mark.parametrize("n, size", [(2, 2), (3, 2), (2, 3), (4, 2)])
def test_product_lines_match_payload_products(n, size):
    # the complete product table, cell i*N + j = index(x_i*x_j), against
    # payload products; a row is x*y and a column y*x for every y
    ring = matrix_ring(n, size)
    els, pos, mul = ring.elements(), ring._pos, ring._mul
    table = [pos[mul(x.payload, y.payload)] for x in els for y in els]
    assert ring._product_table().tolist() == table


def test_product_lines_match_payload_products_on_m2z5_sample():
    ring = matrix_ring(5, 2)
    els, pos, mul = ring.elements(), ring._pos, ring._mul
    table, count = ring._product_table(), len(els)
    for x in random.Random(5).sample(els, 40):
        i = x.idx
        assert table[i * count : (i + 1) * count].tolist() == [
            pos[mul(x.payload, y.payload)] for y in els
        ]
        assert table[i::count].tolist() == [pos[mul(y.payload, x.payload)] for y in els]


def test_zmod_commuting_masks_are_full():
    ring = zmod(12)
    for x in ring.elements():
        assert ring._commuting_mask(x.idx) == 2**12 - 1
        assert commutant(x) == ring.elements()


@pytest.mark.parametrize("n", [8, 12])
def test_one_by_one_matrix_rings_use_residue_index_arithmetic(n):
    # M_1(Z/n) numbers each element by its one entry, as Z/n does, so its
    # index arithmetic is residue arithmetic and builds no product table
    from clinelab.rings import MatrixRingContext

    ring = MatrixRingContext(n, 1)  # a fresh context: nothing is cached yet
    els, pos = ring.elements(), ring._pos
    assert [x.payload for x in els] == [((k,),) for k in range(n)]
    for x in els:
        assert (-x).payload == ring._neg(x.payload)
        assert ring._commuting_mask(x.idx) == 2**n - 1
        for y in els:
            assert (x * y).idx == pos[ring._mul(x.payload, y.payload)]
            assert (x + y).idx == pos[ring._add(x.payload, y.payload)]
    assert commutant(els[3]) == els
    assert ring._products is None


def test_unit_test_and_inverse_share_one_determinant(monkeypatch):
    from clinelab import linalg
    from clinelab.rings import MatrixRingContext

    ring = MatrixRingContext(4, 2)  # a fresh context: nothing is cached yet
    calls = []
    det_int = linalg.det_int
    monkeypatch.setattr(linalg, "det_int", lambda a: calls.append(a) or det_int(a))
    units = 0
    for x in ring.elements():
        inv = try_inverse(x)
        assert (inv is not None) == is_unit(x)
        if inv is not None:
            assert x * inv is ring.one() and inv * x is ring.one()
            units += 1
    assert units == 96  # |GL_2(Z/4)|
    assert sorted(calls) == sorted(x.payload for x in ring.elements())


@pytest.mark.parametrize("ring", [M2Q, Z8, M2Z2, matrix_ring(2, 6)], ids=repr)
def test_rings_pickle_as_their_factory_call(ring):
    assert pickle.loads(pickle.dumps(ring)) is ring


def test_indexed_matrix_rings_have_one_product_path(monkeypatch):
    # with the payload product gone, a sweep of fresh indexed contexts
    # still runs: every product is read from the complete table
    from clinelab.rings import MatrixRingContext

    def no_payload_products(self, x, y):
        raise AssertionError("payload product on an indexed ring")

    monkeypatch.setattr(MatrixRingContext, "_mul", no_payload_products)
    report = sweep(MatrixRingContext(2, 2), "all")
    assert (report.triples_hypothesis, report.triples_strong) == (1540, 1504)
    report = sweep(MatrixRingContext(4, 2), "all", "sample", seed=7, count=4000)
    assert (report.triples_hypothesis, report.triples_strong) == (865, 617)
    assert report.counters["t22"] == {"checked": 865, "passed": 865}


def test_double_commutant_keeps_the_budget_gate_after_masks_are_cached(monkeypatch):
    a, b = M2Z2.elements()[6], M2Z2.elements()[9]
    in_double_commutant(b, a)
    assert M2Z2._masks[a.idx] is not None and M2Z2._masks[b.idx] is not None
    monkeypatch.setenv("CLINE_LAB_BUDGET", "10")
    with pytest.raises(BudgetExceeded):
        in_double_commutant(b, a)


# --- the engine rule -----------------------------------------------------------


def test_uses_elimination_on_each_ring_family(monkeypatch):
    # the ring alone picks its engine, at any budget: indexed rings and
    # rings over a non-field are enumerated, other matrix rings over a
    # field eliminated
    enumerated = [Z8, zmod(7), M2Z2, matrix_ring(3, 2), matrix_ring(5, 2), matrix_ring(2, 3)]
    enumerated += [matrix_ring(4, 2), matrix_ring(4, 3), matrix_ring(6, 2)]
    eliminated = [M2Q, rationals_matrix(5), matrix_ring(7, 2), matrix_ring(3, 3)]
    eliminated += [matrix_ring(2, m) for m in (4, 5, 6)]
    for budget in (None, "10", "80", "81", "2401", str(2**40)):
        if budget is not None:
            monkeypatch.setenv("CLINE_LAB_BUDGET", budget)
        assert [ring.eliminated for ring in enumerated] == [False] * len(enumerated)
        assert [ring.eliminated for ring in eliminated] == [True] * len(eliminated)


def test_huge_rings_are_built_and_gated_without_their_counts():
    # M_2000(Z/3) has 3^4000000 elements: neither the context nor the budget
    # check may build that integer, and the message names it as a power
    ring = matrix_ring(3, 2000)
    assert not ring.indexed and ring._count is None
    assert ring.eliminated
    with pytest.raises(BudgetExceeded, match=r"M2000\(Z/3\) has 3\^4000000 elements"):
        commutant(ring.zero())
    assert ring._count is None


def _det_cofactor(rows):
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        minor = [row[:j] + row[j + 1 :] for row in rows[1:]]
        term = rows[0][j] * _det_cofactor(minor)
        total += -term if j % 2 else term
    return total


@settings(max_examples=80)
@given(
    st.lists(
        st.lists(st.integers(-6, 6), min_size=4, max_size=4), min_size=4, max_size=4
    )
)
def test_bareiss_determinant_matches_cofactor_expansion(rows):
    from clinelab.linalg import det_int

    assert det_int(rows) == _det_cofactor(rows)


def test_bareiss_handles_zero_pivots():
    from clinelab.linalg import det_int

    assert det_int([[0, 2], [3, 4]]) == -6
    assert det_int([[0, 0, 1], [0, 2, 0], [3, 0, 0]]) == -6
    assert det_int([[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]]) == 1


def test_rank_of_powers_non_increasing():
    from clinelab import linalg

    m = rationals_matrix(3).elem([[1, 1, 0], [0, 0, 1], [0, 0, 0]])
    ranks = []
    p = m.ctx.one()
    for _ in range(4):
        ranks.append(linalg.rank(m.ctx.domain, p.payload))
        p = p * m
    assert all(ranks[i] >= ranks[i + 1] for i in range(len(ranks) - 1))
