"""The exact kernels against the textbook routines on the domain's entries.

rref and rank run on one fraction-free row step over Q and Z/p; over Q a
matrix is integer rows over one denominator (linalg.QMatrix), so mat_mul,
drazin's span test and the Faddeev-LeVerrier pass work on ints alone.
Inputs go in through mat_canon and results are compared as the rows of
Fractions the payload gives.  Each is checked here against a routine that does the
same job on the domain's own entries: the textbook Gauss-Jordan of
tests/oracles.py (over Q and over F_2, F_3, F_5 and F_101), the span test
there, a plain triple-loop product and a Fraction Faddeev-LeVerrier.
sympy, when installed, is an independent oracle for rank, inverse and
char_poly.
"""

import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import in_krylov_span, inner_inverse, rref_field

from clinelab import InputError, drazin_matrix, rationals_matrix
from clinelab.drazin import is_polynomial_in
from clinelab.linalg import (
    MILLER_RABIN_BOUND,
    QQ,
    ModularDomain,
    faddeev_leverrier,
    inverse,
    is_prime,
    mat_add,
    mat_canon,
    mat_combination,
    mat_mul,
    mat_neg,
    rank,
    rref,
)
from clinelab.serialize import element_from_json
from clinelab.spectra import char_poly

BIG = 10**12


def _entry(rng, num, den):
    return Fraction(rng.randint(-num, num), rng.randint(1, den))


def _dense(rng, n, m, num=9, den=7):
    return tuple(tuple(_entry(rng, num, den) for _ in range(m)) for _ in range(n))


def _ref_mul(a, b):
    return tuple(
        tuple(sum((a[i][k] * b[k][j] for k in range(len(b))), Fraction(0))
              for j in range(len(b[0])))
        for i in range(len(a))
    )


def _low_rank(rng, n, r, num=9, den=7):
    """A product of n x r and r x n random matrices: rank at most r."""
    return _ref_mul(_dense(rng, n, r, num, den), _dense(rng, r, n, num, den))


def _nilpotent_conjugate(rng, n, k):
    """P (U + N) P^-1 with U invertible on n - k coordinates and N a k x k
    Jordan block: index k, so the Drazin inverse is a genuine polynomial."""
    while True:
        p = _dense(rng, n, n)
        p_inv = inverse(QQ, mat_canon(QQ, p))
        if p_inv is not None:
            break
    d = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n - k):
        d[i][i] = Fraction(rng.choice([-3, -1, 2, 5]), rng.randint(1, 4))
    for i in range(n - k, n - 1):
        d[i][i + 1] = Fraction(1)
    return _ref_mul(_ref_mul(p, tuple(map(tuple, d))), p_inv)


def _q(rows):
    return tuple(tuple(Fraction(v) for v in row) for row in rows)


def _rows(m):
    """A matrix payload as the tuple of its rows."""
    return tuple(map(tuple, m))


def _square_cases():
    rng = random.Random(20260518)
    cases = {
        "zero3": _q([[0] * 3] * 3),
        "one-by-one": _q([[Fraction(-7, 3)]]),
        "one-by-one-zero": _q([[0]]),
        "identity4": _q([[int(i == j) for j in range(4)] for i in range(4)]),
        "integer5": _q([[rng.randint(-20, 20) for _ in range(5)] for _ in range(5)]),
        "integer-singular4": _q([[1, 2, 3, 4], [2, 4, 6, 8], [0, 1, -1, 2], [1, 3, 2, 6]]),
        "mixed-signs6": _dense(rng, 6, 6),
        "singular6-rank3": _low_rank(rng, 6, 3),
        "singular5-rank1": _low_rank(rng, 5, 1),
        "nilpotent-index3": _nilpotent_conjugate(rng, 6, 3),
        "big-denominators5": _dense(rng, 5, 5, BIG, BIG),
        "big-denominators-singular5": _low_rank(rng, 5, 2, BIG, BIG),
        "zero-pivot-first": _q([[0, 1, 2], [Fraction(1, 2), 0, 1], [1, 1, 4]]),
    }
    return cases


SQUARE = _square_cases()
RECT = {
    "wide3x5": _dense(random.Random(7), 3, 5),
    "tall5x3": _dense(random.Random(8), 5, 3, BIG, BIG),
    "wide-rank1": _ref_mul(_dense(random.Random(9), 3, 1), _dense(random.Random(10), 1, 5)),
}
ALL = {**SQUARE, **RECT}


def _prime_field_cases():
    rng = random.Random(20261018)
    cases = {}
    for p in (2, 3, 5, 101):
        f = ModularDomain(p)

        def rand(n, m):
            return tuple(tuple(rng.randrange(p) for _ in range(m)) for _ in range(n))

        fixed = {
            "zero3": [[0] * 3] * 3,
            "one-by-one": [[p - 1]],
            "integer-singular4": [[1, 2, 3, 4], [2, 4, 6, 8], [0, 1, -1, 2], [1, 3, 2, 6]],
            "zero-pivot-first": [[0, 1, 2], [1, 0, 1], [1, 1, 4]],
            "zero-column-first": [[0, 1, 1], [0, 0, 1], [0, 1, 0]],
        }
        for name, rows in fixed.items():
            cases[f"F{p}-{name}"] = (f, tuple(tuple(v % p for v in row) for row in rows))
        cases[f"F{p}-random5"] = (f, rand(5, 5))
        cases[f"F{p}-singular6-rank2"] = (f, mat_mul(f, rand(6, 2), rand(2, 6)))
        cases[f"F{p}-wide3x5"] = (f, rand(3, 5))
        cases[f"F{p}-tall5x3"] = (f, rand(5, 3))
        cases[f"F{p}-wide-rank1"] = (f, mat_mul(f, rand(3, 1), rand(1, 5)))
    return cases


FIELDS = {**{name: (QQ, a) for name, a in ALL.items()}, **_prime_field_cases()}
_on_every_field = pytest.mark.parametrize("dom, a", list(FIELDS.values()), ids=list(FIELDS))


def _params(cases):
    return pytest.mark.parametrize("a", list(cases.values()), ids=list(cases))


@_on_every_field
def test_rref_matches_the_field_routine_exactly(dom, a):
    r, e, pivots = rref(dom, mat_canon(dom, a))
    assert (_rows(r), _rows(e), pivots) == rref_field(dom, a)
    entry = Fraction if dom is QQ else int
    assert all(type(v) is entry for m in (r, e) for row in m for v in row)
    assert (_ref_mul(e, a) if dom is QQ else mat_mul(dom, e, a)) == _rows(r)


@_on_every_field
def test_rank_matches_the_field_routine(dom, a):
    assert rank(dom, mat_canon(dom, a)) == len(rref_field(dom, a)[2])


@_params(ALL)
def test_mat_mul_matches_the_fraction_product(a):
    rng = random.Random(len(a) * 31 + len(a[0]))
    cases = [
        _dense(rng, len(a[0]), 4),
        _dense(rng, len(a[0]), 3, BIG, BIG),
        _q([[rng.randint(-5, 5) for _ in range(2)] for _ in range(len(a[0]))]),
        _q([[0] * 3] * len(a[0])),
    ]
    for b in cases:
        got = mat_mul(QQ, mat_canon(QQ, a), mat_canon(QQ, b))
        assert _rows(got) == _ref_mul(a, b)
        assert all(type(v) is Fraction for row in got for v in row)


@_params(SQUARE)
def test_inverse_and_inner_inverse_match_the_field_routine(a):
    _, e, pivots = rref_field(QQ, a)
    n = len(a)
    inv = inverse(QQ, mat_canon(QQ, a))
    if len(pivots) == n:
        assert _rows(inv) == e
        assert _ref_mul(a, inv) == _q([[int(i == j) for j in range(n)] for i in range(n)])
    else:
        assert inv is None
    g = inner_inverse(QQ, mat_canon(QQ, a))
    expected = [[Fraction(0)] * n for _ in range(n)]
    for i, j in enumerate(pivots):
        expected[j] = list(e[i])
    assert g == tuple(map(tuple, expected))
    assert _ref_mul(_ref_mul(a, g), a) == a


@_params(SQUARE)
def test_krylov_span_test_matches_the_field_routine(a):
    ctx = rationals_matrix(len(a))
    x = ctx.elem(a)
    x2 = (x * x).payload
    poly = ctx.elem(
        [[Fraction(-3, 7) * v for v in row] for row in x2]
    ) + x + ctx.one() * 5
    members = [ctx.one(), x, poly, drazin_matrix(x).inverse]
    rng = random.Random(len(a))
    others = [
        ctx.elem(_dense(rng, len(a), len(a))),
        ctx.elem(_dense(rng, len(a), len(a), BIG, BIG)),
        ctx.elem([[int((i, j) == (0, len(a) - 1)) for j in range(len(a))]
                  for i in range(len(a))]),
    ]
    for b in members:
        assert is_polynomial_in(b, x)
        assert in_krylov_span(b, x)
    for b in others:
        assert is_polynomial_in(b, x) == in_krylov_span(b, x)


def _char_poly_ref(rows):
    """Faddeev-LeVerrier on Fractions, ascending coefficients."""
    n = len(rows)
    coeffs = [Fraction(1)]
    nk = rows
    for k in range(1, n + 1):
        if k > 1:
            nk = _ref_mul(rows, aug)
        c = -sum(nk[i][i] for i in range(n)) / k
        coeffs.append(c)
        aug = tuple(
            tuple(v + c if i == j else v for j, v in enumerate(row))
            for i, row in enumerate(nk)
        )
    return tuple(reversed(coeffs))


@_params(SQUARE)
def test_char_poly_matches_the_fraction_recurrence(a):
    desc = char_poly(a)
    assert desc.char_poly == _char_poly_ref(a)
    assert all(type(v) is Fraction for v in desc.char_poly)


@_params(SQUARE)
def test_faddeev_leverrier_steps_are_sums_of_powers(a):
    # on the integer rows M, B_k = sum_(i<=k) c_i M^(k-i) for every k, the
    # c_k are the characteristic polynomial's, and B_n = 0
    m = mat_canon(QQ, a).num
    n = len(m)
    steps = list(faddeev_leverrier(m))
    assert tuple(c for c, _ in reversed(steps)) == _char_poly_ref(_q(m))
    power = _q([[int(i == j) for j in range(n)] for i in range(n)])
    powers = [power]
    for _ in range(n):
        powers.append(_ref_mul(powers[-1], m))
    for k, (_, b) in enumerate(steps):
        want = [[sum(steps[i][0] * powers[k - i][r][s] for i in range(k + 1)) for s in range(n)]
                for r in range(n)]
        assert b == want
    assert not any(map(any, steps[n][1]))


def test_prime_field_kernels_keep_the_field_routine():
    f5 = ModularDomain(5)
    a = ((1, 2, 3), (2, 4, 1), (3, 1, 4))
    assert rref(f5, a) == rref_field(f5, a)
    assert rank(f5, a) == len(rref_field(f5, a)[2])
    assert is_prime(5) and is_prime(2) and not is_prime(1) and not is_prime(91)


def test_is_prime_against_trial_division():
    def by_division(n):
        return n >= 2 and all(n % f for f in range(2, int(n**0.5) + 1))

    assert [n for n in range(5000) if is_prime(n)] == [n for n in range(5000) if by_division(n)]


def test_is_prime_on_strong_pseudoprimes_and_large_primes():
    # Carmichael numbers, and the least strong pseudoprime to the bases
    # 2..37, which only the base 41 exposes (it is 399165290221 * 798330580441)
    for n in (561, 1105, 41041, 3215031751, 318665857834031151167461):
        assert not is_prime(n)
    for n in (2**31 - 1, 2**61 - 1, 10**18 + 3, 2**64 - 59):
        assert is_prime(n)
    assert not is_prime(2**61 + 1)
    # just below the bound the test still decides: the largest prime there,
    # and an odd composite with no factor among the bases
    assert is_prime(MILLER_RABIN_BOUND - 168)
    assert not is_prime(MILLER_RABIN_BOUND - 8)


def test_is_prime_rejects_moduli_beyond_the_proven_range():
    with pytest.raises(InputError):
        is_prime(MILLER_RABIN_BOUND)  # = 1287836182261 * 2575672364521
    with pytest.raises(InputError):
        is_prime(2**89 - 1)
    assert not is_prime(2**100)  # a factor among the bases decides it


# --- the payload over Q: integer rows over one denominator ---------------------


def _rational_matrices(n):
    """n x n Fraction matrices with denominators up to 10^12, some rows zero,
    and the zero and identity matrices."""
    row = st.one_of(
        st.just((Fraction(0),) * n),
        st.tuples(*[st.fractions(max_denominator=BIG)] * n),
    )
    return st.one_of(
        st.sampled_from([_q([[0] * n] * n), _q([[int(i == j) for j in range(n)] for i in range(n)])]),
        st.tuples(*[row] * n),
    )


def _assert_lowest_terms(m):
    flat = [x for row in m.num for x in row]
    assert m.den > 0
    assert gcd(m.den, *flat) == 1
    if not any(flat):
        assert m.den == 1


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 4).flatmap(lambda n: st.tuples(_rational_matrices(n), _rational_matrices(n))))
def test_payload_sum_negation_and_product_match_fractions(pair):
    a, b = pair
    pa, pb = mat_canon(QQ, a), mat_canon(QQ, b)
    sums = tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))
    negations = tuple(tuple(-x for x in row) for row in a)
    for got, want in (
        (pa, a),
        (mat_add(QQ, pa, pb), sums),
        (mat_neg(QQ, pa), negations),
        (mat_mul(QQ, pa, pb), _ref_mul(a, b)),
    ):
        assert _rows(got) == want
        _assert_lowest_terms(got)
        assert got == mat_canon(QQ, want) and hash(got) == hash(mat_canon(QQ, want))


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 4).flatmap(_rational_matrices), st.randoms(use_true_random=False))
def test_entry_forms_give_one_payload(a, rnd):
    ctx = rationals_matrix(len(a))

    def spelled(v):
        k = rnd.randint(1, 9)
        return f"{v.numerator * k}/{v.denominator * k}" if rnd.random() < 0.5 else str(v)

    forms = [
        ctx.elem(a),
        ctx.elem([[int(v) if v.denominator == 1 else v for v in row] for row in a]),
        ctx.elem([[rnd.choice([v, str(v)]) for v in row] for row in a]),
        element_from_json({"ring": {"type": "Q"}, "entries": [[spelled(v) for v in row] for row in a]}),
    ]
    for e in forms:
        _assert_lowest_terms(e.payload)
        assert e.payload == forms[0].payload
        assert hash(e.payload) == hash(forms[0].payload)
        assert _rows(e.payload) == a


_int_rows = st.integers(1, 3).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(-BIG, BIG), min_size=n, max_size=n), min_size=n, max_size=n
    )
)


@settings(max_examples=100, deadline=None)
@given(_int_rows, st.integers(-BIG, BIG), st.integers(-BIG, BIG).filter(bool))
def test_mat_combination_matches_fractions(rows, c, d):
    # over Q in lowest terms whatever the signs of c and d; over Z/p the
    # same Fractions read modulo p, for every d that is a unit mod p
    got = mat_combination(QQ, c, rows, d)
    assert _rows(got) == tuple(tuple(Fraction(c * x, d) for x in row) for row in rows)
    _assert_lowest_terms(got)
    for p in (2, 3, 101, 1000003):
        if d % p:
            dom = ModularDomain(p)
            got = mat_combination(dom, c, rows, d)
            assert got == tuple(tuple(c * x * pow(d, -1, p) % p for x in row) for row in rows)


# --- sympy as an independent oracle -------------------------------------------


def _sympy_matrix(sympy, a):
    return sympy.Matrix([[sympy.Rational(v.numerator, v.denominator) for v in row] for row in a])


def _from_sympy(v):
    return Fraction(int(v.p), int(v.q))


@_params(ALL)
def test_rank_against_sympy(a):
    sympy = pytest.importorskip("sympy")
    assert rank(QQ, mat_canon(QQ, a)) == _sympy_matrix(sympy, a).rank()


@_params(SQUARE)
def test_inverse_against_sympy(a):
    sympy = pytest.importorskip("sympy")
    m = _sympy_matrix(sympy, a)
    inv = inverse(QQ, mat_canon(QQ, a))
    if m.det() == 0:
        assert inv is None
    else:
        expected = m.inv()
        assert _rows(inv) == tuple(
            tuple(_from_sympy(expected[i, j]) for j in range(len(a))) for i in range(len(a))
        )


@_params(SQUARE)
def test_char_poly_against_sympy(a):
    sympy = pytest.importorskip("sympy")
    coeffs = _sympy_matrix(sympy, a).charpoly().all_coeffs()
    assert char_poly(a).char_poly == tuple(_from_sympy(v) for v in reversed(coeffs))
