"""Exact characteristic polynomials and desk-scale spectrum comparisons.

The interesting operator statements reduce, for finite matrices, to an
invertibility equivalence: lambda - ac is invertible iff lambda - ba is,
for every nonzero lambda.  Two matrices therefore have equal nonzero
spectra exactly when the squarefree parts of their characteristic
polynomials agree after every factor of lambda is removed.  That is a
structural comparison of exact polynomials; no root-finding and no
algebraic-number arithmetic is ever needed.

Drazin and g-Drazin spectra are empty for finite matrices (every square
matrix over a field has a Drazin inverse); drazin_spectrum_matrix returns
the empty set together with verified certificates at sample shifts to
document that emptiness rather than assume it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .drazin import drazin_matrix
from .errors import ContextMismatch, InputError, ReadingValidationError
from .rings import MatrixContext, RingElem, rationals_matrix

# ---------------------------------------------------------------------------
# dense polynomials over Q: tuples of Fractions, ascending degree, no
# trailing zeros; () is the zero polynomial.

_F0 = Fraction(0)


def _poly_norm(coeffs):
    c = list(coeffs)
    while c and c[-1] == 0:
        c.pop()
    return tuple(Fraction(v) for v in c)


def _poly_divmod(f, g):
    if not g:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(f)
    dg = len(g) - 1
    lead = g[-1]
    quot = [_F0] * max(len(f) - dg, 0)
    while len(rem) - 1 >= dg and any(rem):
        while rem and rem[-1] == 0:
            rem.pop()
        if len(rem) - 1 < dg:
            break
        shift = len(rem) - 1 - dg
        q = rem[-1] / lead
        quot[shift] = q
        for i in range(dg + 1):
            rem[shift + i] -= q * g[i]
        rem.pop()
    return _poly_norm(quot), _poly_norm(rem)


def _poly_monic(f):
    if not f:
        return ()
    lead = f[-1]
    if lead == 1:
        return f
    return tuple(v / lead for v in f)


def _poly_gcd(f, g):
    f, g = _poly_norm(f), _poly_norm(g)
    while g:
        f, g = g, _poly_divmod(f, g)[1]
    return _poly_monic(f)


def _poly_deriv(f):
    return _poly_norm(tuple(i * f[i] for i in range(1, len(f))))


def _poly_eval(f, x):
    acc = _F0
    for c in reversed(f):
        acc = acc * x + c
    return acc


@dataclass(frozen=True)
class SpectrumDescriptor:
    """Exact characteristic polynomial plus its zero-stripped squarefree part.

    Coefficients are ascending (index = degree); char_poly is monic of
    degree n, reduced is monic with reduced(0) != 0, and the roots of
    reduced over the algebraic closure are exactly the nonzero spectrum.
    """

    char_poly: tuple
    reduced: tuple
    zero_multiplicity: int


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

    linalg.faddeev_leverrier runs on plain ints, on the numerator d*M of
    M's payload (d its common denominator), and only its coefficients are
    read; the coefficient of lambda^(n-k) is then divided by d^k.
    """
    elem = _as_rational_matrix(m)
    rows, d = elem.payload.num, elem.payload.den
    desc = [c for c, _ in linalg.faddeev_leverrier(rows)]
    n = len(rows)
    ascending = _poly_norm(Fraction(desc[n - j], d ** (n - j)) for j in range(n + 1))
    if len(ascending) != n + 1:
        raise AssertionError("characteristic polynomial lost its degree")
    zero_mult = 0
    while ascending[zero_mult] == 0:
        zero_mult += 1
    sf = _poly_divmod(ascending, _poly_gcd(ascending, _poly_deriv(ascending)))[0]
    sf = _poly_monic(sf)
    if sf and sf[0] == 0:
        sf = _poly_norm(sf[1:])  # squarefree, so at most one factor of lambda
    return SpectrumDescriptor(
        char_poly=ascending, reduced=sf, zero_multiplicity=zero_mult
    )


def nonzero_spectrum_equal(m1, m2) -> bool:
    """Whether the nonzero spectra agree as sets (sizes may differ)."""
    return char_poly(m1).reduced == char_poly(m2).reduced


@dataclass(frozen=True)
class TruncatedOperatorTriple:
    """n-by-n truncations of the sequence-space operator triple.

    The coordinate rules (1-indexed, identity from coordinate 4 onward):
        A: (x1, x2, x3, x4, ...) -> (0, x2, 0, x4, 0, x6, ...)
        B: (x1, x2, x3, x4, ...) -> (0, x1, x2, x4, x5, ...)
        C: (x1, x2, x3, x4, ...) -> (0, 0, x1, x4, x5, ...)
    Every truncation satisfies ABA = ACA exactly; the constructor verifies
    this, turning the reading of the trailing dots into a tested assumption.
    """

    n: int
    a: RingElem
    b: RingElem
    c: RingElem


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


def _rational_roots(poly) -> tuple:
    """All rational roots of a nonzero polynomial over Q, sorted."""
    if not poly:
        raise InputError("zero polynomial has every root")
    if len(poly) == 1:
        return ()
    denom_lcm = 1
    for v in poly:
        denom_lcm = denom_lcm * v.denominator // math.gcd(denom_lcm, v.denominator)
    ints = [int(v * denom_lcm) for v in poly]
    while ints and ints[0] == 0:
        ints = ints[1:]  # factor of x contributes root 0, handled separately
    lead = abs(ints[-1])
    const = abs(ints[0])
    roots = set()
    for p in _divisors(const):
        for q in _divisors(lead):
            for cand in (Fraction(p, q), Fraction(-p, q)):
                if _poly_eval(poly, cand) == 0:
                    roots.add(cand)
    return tuple(sorted(roots))


def _divisors(v: int):
    v = abs(v)
    out = []
    d = 1
    while d * d <= v:
        if v % d == 0:
            out.append(d)
            if d != v // d:
                out.append(v // d)
        d += 1
    return sorted(out)


@dataclass(frozen=True)
class DrazinSpectrumReport:
    """The (empty) Drazin spectrum of a matrix, with evidence.

    For each sample shift lambda (rational eigenvalues, 0 when present,
    and 1 as a generic fallback) a verified Drazin certificate of
    lambda - M is attached, witnessing that no scalar is excluded.
    """

    spectrum: frozenset
    descriptor: SpectrumDescriptor
    shift_certificates: tuple  # ((Fraction, DrazinCertificate), ...)


def drazin_spectrum_matrix(m) -> DrazinSpectrumReport:
    elem = _as_rational_matrix(m)
    ctx = elem.ctx
    desc = char_poly(elem)
    shifts = set(_rational_roots(desc.reduced))
    if desc.zero_multiplicity:
        shifts.add(Fraction(0))
    shifts.add(Fraction(1))
    certs = []
    for lam in sorted(shifts):
        shifted = ctx.elem(
            [[lam if i == j else 0 for j in range(ctx.n)] for i in range(ctx.n)]
        ) - elem
        certs.append((lam, drazin_matrix(shifted)))
    return DrazinSpectrumReport(
        spectrum=frozenset(), descriptor=desc, shift_certificates=tuple(certs)
    )
