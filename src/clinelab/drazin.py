"""Drazin, group, and g-Drazin inverses with verified certificates.

Two engines compute an inverse.  Elimination works on any square matrix
over a field, M_n(Q) or M_m(Z/p) with p prime: one Krylov pass over the
powers of a finds its minimal polynomial, whose lowest nonzero term gives
the index and whose other terms give the inverse as a polynomial in a.
Exhaustive search works on any enumerable finite ring and doubles as an
independent oracle where both apply.  The ring alone picks the engine
(rings.uses_elimination): the element budget only gates a search, and a
search over it raises BudgetExceeded.  Every certificate is re-verified
against the defining equations before it is returned; a verification
failure raises CertificationError because it can only mean a bug.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import linalg
from .errors import CertificationError, ContextMismatch
from .rings import (
    NilpotencyWitness,
    RingElem,
    commutant,
    in_double_commutant,
    is_quasinilpotent,
    nilpotency,
    require_budget,
)

DRAZIN = "drazin"
GDRAZIN = "gdrazin"


@dataclass(frozen=True)
class DrazinCertificate:
    """A verified inverse with its index and core witness.

    A certificate is built only after bab = b, ab = ba and double-commutant
    membership of b have been checked, so those carry no field.  index 0
    means the element is a unit (then core = 0 and ab = 1); the zero
    element has index 1.  For mode "drazin" the core a - a^2 b carries a
    nilpotency witness; for mode "gdrazin" a quasinilpotency flag.
    """

    element: RingElem
    inverse: RingElem
    index: int | None
    mode: str
    core: RingElem
    core_nilpotency: NilpotencyWitness | None
    core_quasinilpotent: bool | None


def _field(a: RingElem, caller: str):
    """The entry field of a's matrix ring; ContextMismatch if there is none."""
    dom = a.ctx.domain
    if dom is None or not dom.is_field:
        raise ContextMismatch(f"{caller} needs a matrix over a field, not {a.ctx.label}")
    return dom


def _vector(m: RingElem, tail: list) -> list:
    """vec(m) ++ tail as a row for linalg.extend_basis."""
    dom = m.ctx.domain
    rows, den = linalg.int_rows(dom, m.payload)
    return linalg.as_row(dom, linalg.mat_flatten(rows), den, tail)


def _krylov(a: RingElem):
    """Echelon rows of vec(a^i) ++ e_i (e_i the unit vector of length n + 1)
    for i = 0, 1, ..., d, where a^d is the first power whose vector part
    reduces to zero.  That last row has its pivot in the tail and carries
    the minimal polynomial: its tail is r with sum_j r_j a^j = 0.  Returns
    (basis, [a^0, ..., a^d], r).
    """
    dom = a.ctx.domain
    n = len(a.payload)
    basis: list = []
    powers = [a.ctx.one()]
    while True:
        tail = [0] * (n + 1)
        tail[len(powers) - 1] = 1
        linalg.extend_basis(dom, basis, _vector(powers[-1], tail))
        pivot, row = basis[-1]
        if pivot >= n * n:
            return basis, powers, row[n * n:]
        powers.append(powers[-1] * a)


def is_polynomial_in(b: RingElem, a: RingElem) -> bool:
    """Whether b lies in the span of I, a, a^2, ... (matrices over a field).

    Membership implies b is in the double commutant of a, and needs no
    enumeration of the ring.  vec(b) ++ 0 is reduced against a's Krylov
    rows; b is a member exactly when its vector part reduces to zero.
    """
    dom = _field(a, "is_polynomial_in")
    n = len(a.payload)
    basis, _, _ = _krylov(a)
    independent = linalg.extend_basis(dom, basis, _vector(b, [0] * (n + 1)))
    return not independent or basis[-1][0] >= n * n


def _build_certificate(a: RingElem, b: RingElem, mode: str) -> DrazinCertificate:
    """Assemble and fully verify a certificate for inverse candidate b,
    which the caller has shown to lie in the double commutant of a."""
    ctx = a.ctx
    bab = b * a * b
    if bab != b:
        raise CertificationError("bab = b failed")
    if a * b != b * a:
        raise CertificationError("ab = ba failed")
    core = a - a * a * b
    witness = nilpotency(core)
    if a * b == ctx.one():
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
        if a ** (index + 1) * b != a**index:
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

    Let sum_j r_j a^j = 0 be the minimal polynomial and k the lowest j with
    r_j != 0; k is the index.  Then a^k = a^(k+1) s for the polynomial
    s = -r_k^-1 sum_(j>k) r_j a^(j-k-1), and b = a^k s^(k+1) is the
    Drazin inverse (Drazin, Amer. Math. Monthly 65, 1958), a polynomial in
    a by construction.  Every defining equation is verified before
    returning.
    """
    dom = _field(a, "drazin_matrix")
    _, powers, r = _krylov(a)
    k = next(j for j, x in enumerate(r) if x)
    terms = range(k + 1, len(powers))
    if terms:
        s = a.ctx._wrap(
            linalg.mat_combination(
                dom, [-r[j] for j in terms], [powers[j - k - 1].payload for j in terms], r[k]
            )
        )
    else:  # the minimal polynomial is x^k: a is nilpotent
        s = a.ctx.zero()
    cert = _build_certificate(a, powers[k] * s ** (k + 1), mode)
    if cert.index != k:
        raise CertificationError("certificate index disagrees with the minimal polynomial")
    return cert


def _core_ok(core: RingElem, mode: str) -> bool:
    if mode == DRAZIN:
        return nilpotency(core).is_nilpotent
    return is_quasinilpotent(core)


def _finite_ring_search(a: RingElem, mode: str):
    """Exhaustive search of comm(a) for the unique inverse of the given mode;
    never exits early, so the uniqueness of the defining equations is
    actually exercised.  The search runs once per element; later calls
    return its certificate (or None) from the ring's cache, after the same
    budget check."""
    ctx = a.ctx
    if not ctx.is_finite_ring:
        raise ContextMismatch(f"{mode}_finite_ring needs a finite-ring context")
    require_budget(ctx)

    def search():
        solutions = [
            b for b in commutant(a) if b * a * b == b and _core_ok(a - a * a * b, mode)
        ]
        if not solutions:
            return None
        if len(solutions) > 1:
            raise CertificationError(
                f"uniqueness violated: {len(solutions)} inverses found for {a!r}"
            )
        b = solutions[0]
        if not in_double_commutant(b, a):
            raise CertificationError("found inverse is not in the double commutant")
        return _build_certificate(a, b, mode)

    return ctx.cached((mode, a.payload), search)


def drazin_finite_ring(a: RingElem):
    """Exhaustive Drazin-inverse oracle for enumerable finite rings."""
    return _finite_ring_search(a, DRAZIN)


def gdrazin_finite_ring(a: RingElem):
    """Same search with quasinilpotency (rings.is_quasinilpotent) in place
    of nilpotency for the core part."""
    return _finite_ring_search(a, GDRAZIN)


def _dispatch(a: RingElem, mode: str):
    """The certificate of a from its ring's engine (rings.uses_elimination).

    An eliminated ring goes to drazin_matrix.  An enumerated ring goes to
    its memoized search, whose budget check is the only one a lookup
    makes; over the budget it raises BudgetExceeded.
    """
    if a.ctx.eliminated:
        return drazin_matrix(a, mode)
    return drazin_finite_ring(a) if mode == DRAZIN else gdrazin_finite_ring(a)


def drazin_certificate(a: RingElem):
    """Drazin inverse via the appropriate engine for a's context."""
    return _dispatch(a, DRAZIN)


def gdrazin_certificate(a: RingElem):
    """g-Drazin inverse; enumerated rings go through the enumerated
    quasinilpotency predicate so the generalized notion is tested in its
    own terms rather than collapsed to nilpotency up front."""
    return _dispatch(a, GDRAZIN)


def group_inverse(a: RingElem):
    """The Drazin certificate when its index is at most 1, else None."""
    cert = drazin_certificate(a)
    if cert is None or cert.index is None or cert.index > 1:
        return None
    return cert
