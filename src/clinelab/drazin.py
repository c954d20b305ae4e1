"""Drazin, group, and g-Drazin inverses with verified certificates.

Two engines compute an inverse.  Elimination works on any square matrix
over a field, M_n(Q) or M_m(Z/p) with p prime: the rank-stabilization index
plus an inner inverse of a^(2k+1) from recorded row operations.  Exhaustive
search works on any enumerable finite ring and doubles as an independent
oracle where both apply.  rings.uses_elimination alone chooses the engine
for a ring.  Every certificate is re-verified against the defining
equations before it is returned; a verification failure raises
CertificationError because it can only mean a bug.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import linalg
from .errors import BudgetExceeded, CertificationError, ContextMismatch
from .rings import (
    NilpotencyWitness,
    RingElem,
    commutant,
    in_double_commutant,
    is_quasinilpotent,
    nilpotency,
    require_budget,
    uses_elimination,
)

DRAZIN = "drazin"
GDRAZIN = "gdrazin"


@dataclass(frozen=True)
class IndexProfile:
    """Ranks of successive powers of a matrix, through first stabilization.

    ranks[k] = rank(a^k); index is the first k with ranks[k] == ranks[k+1].
    """

    ranks: tuple[int, ...]
    index: int


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


def _rank_profile(a: RingElem):
    """Ranks of a^0, a^1, ... through first stabilization, and the powers
    [a^0, a^1, ...] built to get them (each computed once)."""
    dom = a.ctx.domain
    powers = [a.ctx.one(), a]
    ranks = [len(a.payload)]
    while True:
        if len(powers) == len(ranks):
            powers.append(powers[-1] * a)
        r = linalg.rank(dom, powers[len(ranks)].payload)
        ranks.append(r)
        if r == ranks[-2]:
            return ranks, powers


def index_profile(a: RingElem) -> IndexProfile:
    _field(a, "index_profile")
    ranks, _ = _rank_profile(a)
    return IndexProfile(tuple(ranks), len(ranks) - 2)


def _reduce_against(dom, vec, basis):
    v = list(vec)
    for pivot, row in basis:
        f = v[pivot]
        if f != dom.zero:
            v = [dom.canon(x - f * y) for x, y in zip(v, row)]
    return v


def _in_krylov_span_field(b: RingElem, a: RingElem) -> bool:
    """is_polynomial_in on the domain's own entries (any field)."""
    dom = a.ctx.domain
    basis: list = []
    p = a.ctx.one()
    for _ in range(len(a.payload) + 1):
        v = _reduce_against(dom, linalg.mat_flatten(p.payload), basis)
        pivot = next((i for i, x in enumerate(v) if x != dom.zero), None)
        if pivot is None:
            break
        inv = dom.inv(v[pivot])
        basis.append((pivot, tuple(dom.canon(inv * x) for x in v)))
        p = p * a
    vb = _reduce_against(dom, linalg.mat_flatten(b.payload), basis)
    return all(x == dom.zero for x in vb)


def is_polynomial_in(b: RingElem, a: RingElem) -> bool:
    """Whether b lies in the span of I, a, a^2, ... (matrices over a field).

    Membership implies b is in the double commutant of a, and needs no
    enumeration of the ring.  The powers stop at the first one that adds
    nothing to the span.  Over Q each matrix enters as a primitive integer
    vector and is reduced fraction-free.
    """
    if _field(a, "is_polynomial_in") is not linalg.QQ:
        return _in_krylov_span_field(b, a)

    def vector(m):
        return linalg.int_vector(linalg.mat_flatten(m.payload))

    basis: list = []
    p = a.ctx.one()
    for _ in range(len(a.payload) + 1):
        if not linalg.extend_basis(basis, vector(p)):
            break
        p = p * a
    return not linalg.extend_basis(basis, vector(b))


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
        # elimination rings are matrices over a field, where quasinilpotent
        # means nilpotent; enumerated rings decide the quantifier itself
        core_qnil = witness.is_nilpotent if uses_elimination(ctx) else is_quasinilpotent(core)
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

    With k the rank-stabilization index, any inner inverse G of a^(2k+1)
    yields the Drazin inverse b = a^k G a^k.  The result is unique, so the
    choice of G is safe; every witness is verified before returning.
    """
    dom = _field(a, "drazin_matrix")
    ranks, powers = _rank_profile(a)
    k = len(ranks) - 2
    while len(powers) <= 2 * k + 1:
        powers.append(powers[-1] * a)
    h = powers[2 * k + 1]
    g = a.ctx._wrap(linalg.inner_inverse(dom, h.payload))
    if h * g * h != h:
        raise CertificationError("inner inverse construction failed")
    b = powers[k] * g * powers[k]
    if not is_polynomial_in(b, a):
        raise CertificationError("Drazin inverse is not a polynomial in a")
    cert = _build_certificate(a, b, mode)
    if cert.index != k:
        raise CertificationError("certificate index disagrees with rank profile")
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
    """Same search with quasinilpotency (decided by enumeration) in place of
    nilpotency for the core part."""
    return _finite_ring_search(a, GDRAZIN)


def _dispatch(a: RingElem, mode: str, eliminate=None):
    """The certificate of a from the engine uses_elimination picks.

    A finite ring goes straight to its memoized search, whose budget check
    is the only one a lookup makes.  Only when that check fails, and
    uses_elimination agrees (M_m(Z/p) over the budget), does eliminate(a,
    mode) answer instead, drazin_matrix by default; M_n(Q) always goes to
    it.
    """
    if a.ctx.is_finite_ring:
        try:
            return drazin_finite_ring(a) if mode == DRAZIN else gdrazin_finite_ring(a)
        except BudgetExceeded:
            if not uses_elimination(a.ctx):
                raise
    # looked up per call, like the searches above: a default argument would
    # bind the function once and miss a later rebinding of the module name
    if eliminate is None:
        return drazin_matrix(a, mode)
    return eliminate(a, mode)


def drazin_certificate(a: RingElem):
    """Drazin inverse via the appropriate engine for a's context."""
    return _dispatch(a, DRAZIN)


def gdrazin_certificate(a: RingElem):
    """g-Drazin inverse; finite rings go through the enumerated
    quasinilpotency predicate so the generalized notion is tested in its
    own terms rather than collapsed to nilpotency up front."""
    return _dispatch(a, GDRAZIN)


def group_inverse(a: RingElem):
    """The Drazin certificate when its index is at most 1, else None."""
    cert = drazin_certificate(a)
    if cert is None or cert.index is None or cert.index > 1:
        return None
    return cert
