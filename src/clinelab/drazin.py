"""Drazin, group, and g-Drazin inverses with verified certificates.

The ring alone picks the rule: eliminate over a field when not indexed,
power otherwise.  Elimination (M_n(Q), M_m(Z/p) over INDEX_CAP elements):
one Faddeev-LeVerrier pass (linalg.faddeev_leverrier) gives the
characteristic polynomial x^m q(x), q(0) != 0, and with it the inverse as a
polynomial in a; the index comes from the certificate's core.  Every other
finite ring, indexed or not, reads the inverse off a power of a, memoized
per element and gated by the element budget (BudgetExceeded over it).
Either way the inverse is a polynomial in a, so it lies in the double
commutant by construction.  Every certificate is re-verified against the
defining equations before it is returned; a verification failure raises
CertificationError because it can only mean a bug.
"""

from __future__ import annotations

import math
from collections import namedtuple
from itertools import accumulate, repeat
from operator import mul

from . import linalg
from .errors import CertificationError, ContextMismatch
from .rings import RingElem, is_quasinilpotent, nilpotency, require_budget

DRAZIN = "drazin"
GDRAZIN = "gdrazin"


class DrazinCertificate(
    namedtuple(
        "DrazinCertificate",
        "element inverse index mode core core_nilpotency core_quasinilpotent",
    )
):
    """A verified inverse with its index and core witness.

    A certificate is built only after bab = b and ab = ba have been
    checked, so those carry no field; both engines compute b as a
    polynomial in a, so it lies in the double commutant.  index 0
    means the element is a unit (then core = 0 and ab = 1); the zero
    element has index 1.  For mode "drazin" the core a - a^2 b carries a
    nilpotency witness; for mode "gdrazin" a quasinilpotency flag.
    """

    __slots__ = ()


def _field(a: RingElem, caller: str):
    """The entry field of a's matrix ring; ContextMismatch if there is none."""
    dom = a.ctx.domain
    if dom is None or not dom.is_field:
        raise ContextMismatch(f"{caller} needs a matrix over a field, not {a.ctx.label}")
    return dom


def _vector(m: RingElem) -> list:
    """vec(m) as a row for linalg.extend_basis."""
    dom = m.ctx.domain
    rows, den = linalg.int_rows(dom, m.payload)
    return linalg.as_row(dom, linalg.mat_flatten(rows), den)


def is_polynomial_in(b: RingElem, a: RingElem) -> bool:
    """Whether b lies in the span of I, a, a^2, ... (matrices over a field).

    Membership implies b is in the double commutant of a, and needs no
    enumeration of the ring.  By Cayley-Hamilton the span is that of
    I, a, ..., a^(n-1), and it stops growing at the first power that
    reduces to zero against the ones before it; b is a member exactly when
    vec(b) reduces to zero against them too.
    """
    dom = _field(a, "is_polynomial_in")
    basis: list = []
    powers = accumulate(repeat(a, len(a.payload) - 1), mul, initial=a.ctx.one())
    for power in powers:
        if not linalg.extend_basis(dom, basis, _vector(power)):
            break
    return not linalg.extend_basis(dom, basis, _vector(b))


def _build_certificate(a: RingElem, b: RingElem, mode: str) -> DrazinCertificate:
    """Assemble and fully verify a certificate for inverse candidate b, a
    polynomial in a (so in its double commutant) by the caller's
    construction.  The product ab is formed once and every check reads it:
    bab = b*ab, the core a - a^2 b = a - a*ab, and a^(k+1) b = a^k*ab."""
    ctx = a.ctx
    ab = a * b
    if b * ab != b:
        raise CertificationError("bab = b failed")
    if ab != b * a:
        raise CertificationError("ab = ba failed")
    core = a - a * ab
    witness = nilpotency(core)
    if ab == ctx.one():
        index = 0
        if not core.is_zero:
            raise CertificationError("unit with nonzero core part")
    else:
        index = witness.index
    core_witness = None
    core_qnil = None
    if mode == DRAZIN:
        if index is None:
            raise CertificationError("drazin core is not nilpotent")
        a_k = a**index
        if a_k * ab != a_k:
            raise CertificationError("a^(k+1) b = a^k failed")
        core_witness = witness
    else:
        core_qnil = is_quasinilpotent(core)
        if not core_qnil:
            raise CertificationError("gdrazin core is not quasinilpotent")
    return DrazinCertificate(
        element=a,
        inverse=b,
        index=index,
        mode=mode,
        core=core,
        core_nilpotency=core_witness,
        core_quasinilpotent=core_qnil,
    )


def drazin_matrix(a: RingElem, mode: str = DRAZIN) -> DrazinCertificate:
    """Drazin inverse of a square matrix over a field (Q or Z/p).

    Faddeev-LeVerrier runs on the integer rows N = d*a (d the common
    denominator over Q, 1 over Z/p).  With t the largest k whose c_k is
    nonzero in the field, det(x - N) = x^m q(x) for m = n - t and
    q(0) = c_t, and m is at least the index.  Then B_(t-1) is
    (q(N) - q(0))/N, so s = -d B_(t-1)/c_t gives a^m = a^(m+1) s, and
    b = a^m s^(m+1) is the Drazin inverse (Drazin, Amer. Math. Monthly 65,
    1958), a polynomial in a by construction; when t = 0, a is nilpotent
    and b = 0.  Every defining equation is verified before returning.
    """
    dom = _field(a, "drazin_matrix")
    rows, d = linalg.int_rows(dom, a.payload)
    t = 0
    for k, (c_k, b_k) in enumerate(linalg.faddeev_leverrier(rows)):
        if k and dom.canon(c_k):
            t, c_t, b_t = k, c_k, prev
        prev = b_k
    s = a.ctx._wrap(linalg.mat_combination(dom, -d, b_t, c_t)) if t else a.ctx.zero()
    m = len(rows) - t
    cert = _build_certificate(a, a**m * s ** (m + 1), mode)
    if cert.index > m:
        raise CertificationError("certificate index exceeds the multiplicity of 0")
    return cert


def _power_certificate(a: RingElem, mode: str) -> DrazinCertificate:
    """The certificate of b = a^(2L - 1) on M_m(Z/n) (Z/n is M_1), kept in
    the ring's cache after the budget check, which every call makes.

    The powers of a form a finite cyclic semigroup whose period divides
    L = |GL_m(Z/n)|, where |GL_m(Z/p^e)| = p^((e-1)m^2) * prod over i < m
    of (p^m - p^i), multiplied over the prime powers p^e of n.  Its index
    is at most m*e for the largest prime exponent e of n (rings.nilpotency),
    and L is at least that: with p the prime of exponent e, L >=
    |GL_m(Z/p^e)| >= p^((e-1)m^2) * p^(m-1)(p-1) >= 2^(e-1) * 2^(m-1) >=
    e*m.  So a^L is idempotent and b is the Drazin inverse (Drazin, Amer.
    Math. Monthly 65, 1958), a polynomial in a.  Quasinilpotent means
    nilpotent in a finite ring, so b is the g-Drazin inverse too.  n is
    within the element budget, so trial division is short.
    """
    ctx = a.ctx
    if not ctx.is_finite_ring:
        raise ContextMismatch(f"{mode}_finite_ring needs a finite-ring context")
    require_budget(ctx)

    def power():
        m, n = ctx.size, ctx.n
        order, p = 1, 2
        while n > 1:
            p = p if p * p <= n else n
            e = 0
            while n % p == 0:
                n, e = n // p, e + 1
            if e:
                order *= p ** ((e - 1) * m * m) * math.prod(p**m - p**i for i in range(m))
            p += 1
        return _build_certificate(a, a ** (2 * order - 1), mode)

    return ctx.cached((mode, a.payload), power)


def drazin_finite_ring(a: RingElem) -> DrazinCertificate:
    """Drazin inverse on a finite ring, by powering (_power_certificate)."""
    return _power_certificate(a, DRAZIN)


def gdrazin_finite_ring(a: RingElem) -> DrazinCertificate:
    """The same power, its core certified quasinilpotent by
    rings.is_quasinilpotent (enumerated on an indexed ring)."""
    return _power_certificate(a, GDRAZIN)


def _dispatch(a: RingElem, mode: str) -> DrazinCertificate:
    """The certificate of a from its ring's engine (RingContext.eliminated).

    An eliminated ring goes to drazin_matrix.  Any other ring goes to its
    memoized power, whose budget check is the only one a lookup makes;
    over the budget it raises BudgetExceeded.
    """
    if a.ctx.eliminated:
        return drazin_matrix(a, mode)
    return drazin_finite_ring(a) if mode == DRAZIN else gdrazin_finite_ring(a)


def drazin_certificate(a: RingElem) -> DrazinCertificate:
    """Drazin inverse via the appropriate engine for a's context."""
    return _dispatch(a, DRAZIN)


def gdrazin_certificate(a: RingElem) -> DrazinCertificate:
    """g-Drazin inverse; on an indexed ring its core is certified by the
    enumerated quasinilpotency predicate, so the generalized notion is
    tested in its own terms rather than collapsed to nilpotency."""
    return _dispatch(a, GDRAZIN)


def group_inverse(a: RingElem):
    """The Drazin certificate when its index is at most 1, else None."""
    cert = drazin_certificate(a)
    return cert if cert.index <= 1 else None
