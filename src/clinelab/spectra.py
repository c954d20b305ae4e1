"""Exact characteristic polynomials and desk-scale spectrum comparisons.

The interesting operator statements reduce, for finite matrices, to an
invertibility equivalence: lambda - ac is invertible iff lambda - ba is,
for every nonzero lambda.  Two matrices therefore have equal nonzero
spectra exactly when the squarefree parts of their characteristic
polynomials agree after every factor of lambda is removed.  That is a
structural comparison of exact polynomials; no root-finding and no
algebraic-number arithmetic is ever needed.  The polynomials are over Z
(see char_poly); only the outputs are Fractions.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from . import linalg
from .errors import CertificationError, ContextMismatch, InputError, ReadingValidationError
from .rings import MatrixContext, RingElem, rationals_matrix

# ---------------------------------------------------------------------------
# dense polynomials over Z: lists of ints, ascending degree, no trailing
# zeros; [] is the zero polynomial.


def _gcd(f, g):
    """gcd(f, g) up to sign, for a primitive f: the last nonzero term of the
    primitive pseudo-remainder sequence (Collins, J. ACM 14, 1967; Brown &
    Traub, J. ACM 18, 1971)."""
    g = linalg.primitive(g)
    while g:
        r = list(f)  # lead(g)*r - lead(r)*x^j*g until deg r < deg g
        while len(r) >= len(g):
            top, j = r.pop(), len(r) - len(g) + 1
            r = [g[-1] * v for v in r]
            r[j:] = [x - top * y for x, y in zip(r[j:], g)]
            while r and r[-1] == 0:
                r.pop()
        f, g = g, linalg.primitive(r)
    return f


def _exact_quotient(f, g):
    """f / g over Z, for a g with leading term +-1 that divides f."""
    r, dg = list(f), len(g) - 1
    quot = [0] * (len(f) - dg)
    for j in reversed(range(len(quot))):
        quot[j] = v = r[j + dg] * g[-1]
        r[j : j + dg + 1] = [x - v * y for x, y in zip(r[j:], g)]
    if any(r):
        raise CertificationError("squarefree part does not divide the characteristic polynomial")
    return quot


class SpectrumDescriptor(
    namedtuple("SpectrumDescriptor", "char_poly reduced zero_multiplicity")
):
    """Exact characteristic polynomial plus its zero-stripped squarefree part.

    Coefficients are ascending (index = degree); char_poly is monic of
    degree n, reduced is monic with reduced(0) != 0, and the roots of
    reduced over the algebraic closure are exactly the nonzero spectrum.
    """

    __slots__ = ()


def _as_rational_matrix(m) -> RingElem:
    if isinstance(m, RingElem):
        if not isinstance(m.ctx, MatrixContext):
            raise ContextMismatch("expected a matrix over the rationals")
        return m
    rows = [list(r) for r in m]
    if not rows or any(len(r) != len(rows) for r in rows):
        raise InputError("expected a nonempty square matrix")
    return rationals_matrix(len(rows)).elem(rows)


def char_poly(m) -> SpectrumDescriptor:
    """Characteristic polynomial det(lambda I - M) via Faddeev-LeVerrier.

    All polynomial work is over Z, on the monic det(x - N) of N = d*M, d
    the common denominator of M.  Stripped of its factor x^m0 it is q, and
    s = q / gcd(q, q') is its squarefree part: q is primitive, so by
    Gauss's lemma the gcd over Z is the gcd over Q up to sign, and s is
    monic once its sign is fixed.  The roots of s are d times the nonzero
    eigenvalues, so reduced(lambda) = s(d lambda) / d^k, k = deg s.
    """
    elem = _as_rational_matrix(m)
    rows, d = elem.payload.num, elem.payload.den
    c = [ck for ck, _ in linalg.faddeev_leverrier(rows)]
    n, m0 = len(rows), 0
    while c[n - m0] == 0:  # c_0 = 1 stops it
        m0 += 1
    q = c[n - m0 :: -1]
    s = _exact_quotient(q, _gcd(q, [i * v for i, v in enumerate(q)][1:]))
    if s[-1] < 0:
        s = [-v for v in s]
    k = len(s) - 1
    return SpectrumDescriptor(
        char_poly=tuple(Fraction(c[n - j], d ** (n - j)) for j in range(n + 1)),
        reduced=tuple(Fraction(v, d ** (k - i)) for i, v in enumerate(s)),
        zero_multiplicity=m0,
    )


def nonzero_spectrum_equal(m1, m2) -> bool:
    """Whether the nonzero spectra agree as sets (sizes may differ)."""
    return char_poly(m1).reduced == char_poly(m2).reduced


class TruncatedOperatorTriple(namedtuple("TruncatedOperatorTriple", "n a b c")):
    """n-by-n truncations of the sequence-space operator triple.

    The coordinate rules (1-indexed, identity from coordinate 4 onward):
        A: (x1, x2, x3, x4, ...) -> (0, x2, 0, x4, 0, x6, ...)
        B: (x1, x2, x3, x4, ...) -> (0, x1, x2, x4, x5, ...)
        C: (x1, x2, x3, x4, ...) -> (0, 0, x1, x4, x5, ...)
    Every truncation satisfies ABA = ACA exactly; the constructor verifies
    this, turning the reading of the trailing dots into a tested assumption.
    """

    __slots__ = ()


def build_example_triple(n: int) -> TruncatedOperatorTriple:
    if n < 4:
        raise InputError("truncation dimension must be at least 4")
    ctx = rationals_matrix(n)
    a_rows = [[1 if (i == j and i % 2 == 1) else 0 for j in range(n)] for i in range(n)]
    b_rows = [[0] * n for _ in range(n)]
    c_rows = [[0] * n for _ in range(n)]
    b_rows[1][0] = 1
    b_rows[2][1] = 1
    c_rows[2][0] = 1
    for i in range(3, n):
        b_rows[i][i] = 1
        c_rows[i][i] = 1
    a, b, c = ctx.elem(a_rows), ctx.elem(b_rows), ctx.elem(c_rows)
    if a * b * a != a * c * a:
        raise ReadingValidationError(
            f"ABA != ACA at truncation {n}; the coordinate reading is wrong"
        )
    return TruncatedOperatorTriple(n=n, a=a, b=b, c=c)
