"""Characteristic polynomials, squarefree reduction, operator truncations."""

import random
from fractions import Fraction

import pytest

from clinelab import (
    CertificationError,
    InputError,
    build_example_triple,
    char_poly,
    check_hypothesis,
    nonzero_spectrum_equal,
    rationals_matrix,
    try_inverse,
)
from clinelab import cli, linalg, spectra

# --- independent oracle: cofactor expansion over Q[lambda] -------------------


def _pnorm(p):
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    return tuple(p)


def _padd(p, q):
    n = max(len(p), len(q))
    return _pnorm(
        [
            (p[i] if i < len(p) else 0) + (q[i] if i < len(q) else 0)
            for i in range(n)
        ]
    )


def _pmul(p, q):
    if not p or not q:
        return ()
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, pi in enumerate(p):
        for j, qj in enumerate(q):
            out[i + j] += pi * qj
    return _pnorm(out)


def _charpoly_cofactor(rows):
    """det(lambda I - M) by direct first-row cofactor expansion."""
    n = len(rows)
    lam_minus = [
        [
            _pnorm([-Fraction(rows[i][j])] + ([1] if i == j else []))
            for j in range(n)
        ]
        for i in range(n)
    ]

    def det(mat):
        if len(mat) == 1:
            return mat[0][0]
        total = ()
        for j, entry in enumerate(mat[0]):
            if not entry:
                continue
            minor = [row[:j] + row[j + 1 :] for row in mat[1:]]
            term = _pmul(entry, det(minor))
            if j % 2:
                term = tuple(-v for v in term)
            total = _padd(total, term)
        return total

    return det(lam_minus)


def test_char_poly_matches_cofactor_oracle_on_random_matrices():
    rng = random.Random(17)
    for _ in range(30):
        n = rng.randint(1, 3)
        rows = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
        assert char_poly(rows).char_poly == _charpoly_cofactor(rows)
    for _ in range(20):
        n = rng.randint(1, 3)
        rows = [
            [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(n)]
            for _ in range(n)
        ]
        assert char_poly(rows).char_poly == _charpoly_cofactor(rows)


# --- descriptor structure ----------------------------------------------------


def test_zero_matrix_descriptor():
    d = char_poly([[0, 0, 0], [0, 0, 0], [0, 0, 0]])
    assert d.char_poly == (0, 0, 0, 1)
    assert d.reduced == (1,)
    assert d.zero_multiplicity == 3


def test_identity_descriptor():
    d = char_poly([[1, 0], [0, 1]])
    assert d.char_poly == (1, -2, 1)  # (lambda - 1)^2
    assert d.reduced == (-1, 1)  # lambda - 1
    assert d.zero_multiplicity == 0


def test_swap_matrix_descriptor():
    d = char_poly([[0, 1], [1, 0]])
    assert d.char_poly == (-1, 0, 1)  # lambda^2 - 1, already squarefree
    assert d.reduced == (-1, 0, 1)
    assert d.zero_multiplicity == 0


def _sympy_reduced(sympy, rows):
    """sqf_part of det(lambda I - M) with the factor lambda removed, made
    monic, ascending."""
    lam = sympy.Symbol("lam")
    m = sympy.Matrix(
        [[sympy.Rational(Fraction(v).numerator, Fraction(v).denominator) for v in row] for row in rows]
    )
    sf = sympy.Poly(sympy.sqf_part(m.charpoly(lam).as_expr()), lam, domain="QQ")
    if sf.eval(0) == 0:
        sf = sympy.quo(sf, sympy.Poly(lam, lam, domain="QQ"))
    return tuple(Fraction(int(v.p), int(v.q)) for v in reversed(sf.monic().all_coeffs()))


def _conjugate(rng, rows):
    """P rows P^-1 for a random rational P."""
    n = len(rows)
    ctx = rationals_matrix(n)
    while True:
        p = ctx.elem(
            [[Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n)] for _ in range(n)]
        )
        p_inv = try_inverse(p)
        if p_inv is not None:
            return p * ctx.elem(rows) * p_inv


def _jordan(blocks):
    """Block-diagonal rows of the Jordan blocks (eigenvalue, size)."""
    n = sum(size for _, size in blocks)
    rows = [[Fraction(0)] * n for _ in range(n)]
    at = 0
    for lam, size in blocks:
        for i in range(at, at + size):
            rows[i][i] = Fraction(lam)
            if i + 1 < at + size:
                rows[i][i + 1] = Fraction(1)
        at += size
    return rows


def _descriptor_cases():
    rng = random.Random(29)
    for _ in range(40):
        n = rng.randint(1, 4)
        yield [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
    for _ in range(20):  # a common denominator d > 1
        n = rng.randint(1, 4)
        yield [[Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(n)] for _ in range(n)]
    # repeated nonzero eigenvalues, in Jordan blocks and apart, with d > 1
    for blocks in (
        [("1/2", 2), ("1/2", 1), (-3, 1), (0, 2)],
        [("2/3", 3), (-1, 1), (-1, 1), (0, 2), (5, 1)],
        [(-4, 2), (-4, 2), ("7/5", 1)],
        [("-1/3", 1), ("-1/3", 1), ("-1/3", 1)],
    ):
        yield _jordan(blocks)
        yield _conjugate(rng, _jordan(blocks)).payload
    yield _conjugate(rng, _jordan([(0, 3), (0, 1)])).payload  # nilpotent
    yield [[0, 1, 0], [0, 0, 1], [0, 0, 0]]
    yield [[0] * 4 for _ in range(4)]
    yield [[Fraction(-5, 3)]]
    yield [[0]]


def test_descriptor_invariants_on_random_matrices():
    sympy = pytest.importorskip("sympy")
    for rows in _descriptor_cases():
        n = len(rows)
        d = char_poly(rows)
        assert len(d.char_poly) == n + 1 and d.char_poly[-1] == 1  # monic deg n
        assert d.reduced[-1] == 1
        assert d.reduced[0] != 0  # zero root stripped
        assert d.reduced == _sympy_reduced(sympy, rows)


def test_char_poly_rejects_bad_input():
    with pytest.raises(InputError):
        char_poly([[1, 2], [3, 4], [5, 6]])
    with pytest.raises(InputError):
        char_poly([])


def test_char_poly_costs_one_faddeev_leverrier_pass(monkeypatch):
    calls = []
    kernel = linalg.faddeev_leverrier

    def counted(rows):
        calls.append(len(rows))
        return kernel(rows)

    monkeypatch.setattr(linalg, "faddeev_leverrier", counted)
    for rows in (
        [[3, 1], [0, 7]],
        [["1/2", "1/3", 0], [0, "-2/3", 0], [0, 0, "1/2"]],
        [[0, 1], [0, 0]],
        [[0, 0], [0, 0]],
    ):
        calls.clear()
        char_poly(rationals_matrix(len(rows)).elem(rows))
        assert calls == [len(rows)]


# --- nonzero spectrum comparison ---------------------------------------------


def test_equal_matrices_have_equal_nonzero_spectra():
    m = [[1, 2], [3, 4]]
    assert nonzero_spectrum_equal(m, m)


def test_nilpotent_and_zero_have_equal_empty_nonzero_spectra():
    assert nonzero_spectrum_equal([[0, 1], [0, 0]], [[0]])


def test_different_sizes_same_nonzero_spectrum():
    assert nonzero_spectrum_equal([[1, 0], [0, 0]], [[1]])
    assert not nonzero_spectrum_equal([[2]], [[1]])


def test_ab_vs_ba_char_poly_anchor():
    rng = random.Random(31)
    ctx = rationals_matrix(4)
    for _ in range(30):
        m = ctx.elem([[rng.randint(-4, 4) for _ in range(4)] for _ in range(4)])
        n = ctx.elem([[rng.randint(-4, 4) for _ in range(4)] for _ in range(4)])
        assert char_poly(m * n).char_poly == char_poly(n * m).char_poly


# --- operator truncations ----------------------------------------------------


def test_truncation_requires_dimension_four():
    with pytest.raises(InputError):
        build_example_triple(3)


def test_truncation_n4_exact_matrices():
    t = build_example_triple(4)
    a = [[int(v) for v in row] for row in t.a.payload]
    b = [[int(v) for v in row] for row in t.b.payload]
    c = [[int(v) for v in row] for row in t.c.payload]
    assert a == [[0, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 1]]
    assert b == [[0, 0, 0, 0], [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1]]
    assert c == [[0, 0, 0, 0], [0, 0, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1]]
    # frozen product check, independent of the constructor's own gate
    aba = t.a * t.b * t.a
    aca = t.a * t.c * t.a
    expected = [[0] * 4 for _ in range(4)]
    expected[3][3] = 1
    assert aba == aca == t.a.ctx.elem(expected)


@pytest.mark.parametrize("n", [4, 8, 16])
def test_truncations_satisfy_aba_eq_aca_and_hypothesis(n):
    t = build_example_triple(n)
    rep = check_hypothesis(t.a, t.b, t.c)
    assert rep.strong_holds and rep.holds


@pytest.mark.parametrize("n", [4, 8, 16])
def test_truncation_nonzero_spectra_match(n):
    t = build_example_triple(n)
    assert nonzero_spectrum_equal(t.a * t.c, t.b * t.a)
    # classical reversed-product comparison as well
    assert nonzero_spectrum_equal(t.a * t.c, t.c * t.a)


def test_a_failed_exact_division_is_a_certification_error(monkeypatch, tmp_path, capsys):
    with pytest.raises(CertificationError):
        spectra._exact_quotient([1, 0, 1], [1, 1])  # x^2 + 1 = (x + 1)(x - 1) + 2
    # a wrong gcd surfaces as that error, and the CLI exits 2 with one line
    monkeypatch.setattr(spectra, "_gcd", lambda f, g: [1, 1])
    with pytest.raises(CertificationError):
        char_poly([[2, 0], [0, 3]])
    path = tmp_path / "m.json"
    path.write_text('{"ring": {"type": "Q"}, "entries": [["2", "0"], ["0", "3"]]}')
    assert cli.main(["spectra", "compare", "--m1", str(path), "--m2", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
