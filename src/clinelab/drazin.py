"""Drazin, group, and g-Drazin inverses with verified certificates.

Matrices over exact fields get a direct algorithm (rank-stabilization index
plus an inner inverse of a^(2k+1) from recorded row operations); enumerable
finite rings get an exhaustive search that doubles as an independent oracle.
Every certificate is re-verified against the defining equations before it is
returned; a verification failure raises CertificationError because it can
only mean a bug.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import linalg
from .errors import CertificationError, ContextMismatch
from .rings import (
    MatrixContext,
    MatrixRingContext,
    NilpotencyWitness,
    RingElem,
    ZModContext,
    _require_budget,
    commutant,
    enumeration_budget,
    in_double_commutant,
    is_quasinilpotent,
    nilpotency,
    to_matrix_over_field,
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
    """A claimed inverse plus the three defining witnesses, all verified.

    index 0 means the element is a unit (then core = 0 and ab = 1); the
    zero element has index 1.  For mode "drazin" the core a - a^2 b carries
    a nilpotency witness; for mode "gdrazin" a quasinilpotency flag.
    """

    element: RingElem
    inverse: RingElem
    index: int | None
    mode: str
    bab_equals_b: bool
    double_commutant: bool
    commutes: bool
    core: RingElem
    core_nilpotency: NilpotencyWitness | None
    core_quasinilpotent: bool | None


def index_profile(a: RingElem) -> IndexProfile:
    if not isinstance(a.ctx, MatrixContext):
        raise ContextMismatch("index_profile needs a matrix-over-field context")
    ctx = a.ctx
    ranks = [ctx.n]
    p = ctx.one()
    while True:
        p = p * a
        r = linalg.rank(ctx.domain, p.payload)
        ranks.append(r)
        if r == ranks[-2]:
            return IndexProfile(tuple(ranks), len(ranks) - 2)


def _reduce_against(dom, vec, basis):
    v = list(vec)
    for pivot, row in basis:
        f = v[pivot]
        if f != dom.zero:
            v = [dom.canon(x - f * y) for x, y in zip(v, row)]
    return v


def is_polynomial_in(b: RingElem, a: RingElem) -> bool:
    """Whether b lies in the span of I, a, a^2, ... (matrix contexts).

    Membership implies b is in the double commutant of a, and is cheap even
    when the full commutant basis would be too large to compute.
    """
    ctx = a.ctx
    if not isinstance(ctx, MatrixContext):
        raise ContextMismatch("is_polynomial_in needs a matrix-over-field context")
    dom = ctx.domain
    basis: list = []
    p = ctx.one()
    for _ in range(ctx.n + 1):
        v = _reduce_against(dom, linalg.mat_flatten(p.payload), basis)
        pivot = next((i for i, x in enumerate(v) if x != dom.zero), None)
        if pivot is None:
            break
        inv = dom.inv(v[pivot])
        basis.append((pivot, tuple(dom.canon(inv * x) for x in v)))
        p = p * a
    vb = _reduce_against(dom, linalg.mat_flatten(b.payload), basis)
    return all(x == dom.zero for x in vb)


def _build_certificate(
    a: RingElem,
    b: RingElem,
    mode: str,
    double_commutant_ok: bool,
    budget: int | None = None,
) -> DrazinCertificate:
    """Assemble and fully verify a certificate for inverse candidate b."""
    ctx = a.ctx
    bab = b * a * b
    if bab != b:
        raise CertificationError("bab = b failed")
    if a * b != b * a:
        raise CertificationError("ab = ba failed")
    core = a - a * a * b
    if a * b == ctx.one():
        index = 0
        if not core.is_zero:
            raise CertificationError("unit with nonzero core part")
    else:
        witness = nilpotency(core)
        index = witness.index if witness.is_nilpotent else None
    core_witness = None
    core_qnil = None
    if mode == DRAZIN:
        core_witness = nilpotency(core)
        if index == 0:
            if not core.is_zero:
                raise CertificationError("index 0 requires a zero core")
        elif not (core_witness.is_nilpotent and core_witness.index == index):
            raise CertificationError("core nilpotency index mismatch")
        if index is None:
            raise CertificationError("drazin core is not nilpotent")
        if a ** (index + 1) * b != a**index:
            raise CertificationError("a^(k+1) b = a^k failed")
    else:
        if isinstance(ctx, MatrixContext):
            core_qnil = nilpotency(core).is_nilpotent
        else:
            core_qnil = is_quasinilpotent(core, budget)
        if not core_qnil:
            raise CertificationError("gdrazin core is not quasinilpotent")
    return DrazinCertificate(
        element=a,
        inverse=b,
        index=index,
        mode=mode,
        bab_equals_b=True,
        double_commutant=double_commutant_ok,
        commutes=True,
        core=core,
        core_nilpotency=core_witness,
        core_quasinilpotent=core_qnil,
    )


def drazin_matrix(a: RingElem, mode: str = DRAZIN) -> DrazinCertificate:
    """Drazin inverse of a square matrix over an exact field.

    With k the rank-stabilization index, any inner inverse G of a^(2k+1)
    yields the Drazin inverse b = a^k G a^k.  The result is unique, so the
    choice of G is safe; every witness is verified before returning.
    """
    if not isinstance(a.ctx, MatrixContext):
        raise ContextMismatch("drazin_matrix needs a matrix-over-field context")
    ctx = a.ctx
    dom = ctx.domain
    powers = [ctx.one(), a]

    def pw(i: int) -> RingElem:
        while len(powers) <= i:
            powers.append(powers[-1] * a)
        return powers[i]

    ranks = [ctx.n]
    while True:
        r = linalg.rank(dom, pw(len(ranks)).payload)
        ranks.append(r)
        if r == ranks[-2]:
            break
    k = len(ranks) - 2
    h = pw(2 * k + 1)
    g = RingElem(ctx, linalg.inner_inverse(dom, h.payload))
    if h * g * h != h:
        raise CertificationError("inner inverse construction failed")
    b = pw(k) * g * pw(k)
    if not is_polynomial_in(b, a):
        raise CertificationError("Drazin inverse is not a polynomial in a")
    cert = _build_certificate(a, b, mode, double_commutant_ok=True)
    if cert.index != k:
        raise CertificationError("certificate index disagrees with rank profile")
    return cert


def _finite_ring_search(a: RingElem, core_ok, mode: str, budget):
    """Exhaustive search of comm(a) for the unique inverse; never exits early,
    so the uniqueness of the defining equations is actually exercised."""
    solutions = []
    for b in commutant(a, budget):
        if b * a * b == b and core_ok(a - a * a * b):
            solutions.append(b)
    if not solutions:
        return None
    if len(solutions) > 1:
        raise CertificationError(
            f"uniqueness violated: {len(solutions)} inverses found for {a!r}"
        )
    b = solutions[0]
    if not in_double_commutant(b, a, budget):
        raise CertificationError("found inverse is not in the double commutant")
    return _build_certificate(a, b, mode, double_commutant_ok=True, budget=budget)


def drazin_finite_ring(a: RingElem, budget: int | None = None):
    """Exhaustive Drazin-inverse oracle for enumerable finite rings.

    The search runs once per element; later calls return its certificate
    (or None) from the ring's cache, after the same budget check.
    """
    ctx = a.ctx
    if not ctx.is_finite_ring:
        raise ContextMismatch("drazin_finite_ring needs a finite-ring context")
    _require_budget(ctx, budget)
    return ctx.cached(
        (DRAZIN, a.payload),
        lambda: _finite_ring_search(
            a, lambda core: nilpotency(core).is_nilpotent, DRAZIN, budget
        ),
    )


def gdrazin_finite_ring(a: RingElem, budget: int | None = None):
    """Same search with quasinilpotency (decided by enumeration) in place of
    nilpotency for the core part; memoized like drazin_finite_ring."""
    ctx = a.ctx
    if not ctx.is_finite_ring:
        raise ContextMismatch("gdrazin_finite_ring needs a finite-ring context")
    _require_budget(ctx, budget)
    return ctx.cached(
        (GDRAZIN, a.payload),
        lambda: _finite_ring_search(
            a, lambda core: is_quasinilpotent(core, budget), GDRAZIN, budget
        ),
    )


def _map_to_context(cert: DrazinCertificate, ctx) -> DrazinCertificate:
    """Reinterpret a certificate computed in M_n(F_p) inside M_n(Z/p);
    payloads and arithmetic are identical, only algorithm dispatch differs."""
    return DrazinCertificate(
        element=ctx._wrap(cert.element.payload),
        inverse=ctx._wrap(cert.inverse.payload),
        index=cert.index,
        mode=cert.mode,
        bab_equals_b=cert.bab_equals_b,
        double_commutant=cert.double_commutant,
        commutes=cert.commutes,
        core=ctx._wrap(cert.core.payload),
        core_nilpotency=cert.core_nilpotency,
        core_quasinilpotent=cert.core_quasinilpotent,
    )


def _dispatch(a: RingElem, mode: str, budget: int | None):
    ctx = a.ctx
    if isinstance(ctx, MatrixContext):
        return drazin_matrix(a, mode)
    limit = enumeration_budget() if budget is None else budget
    if (
        isinstance(ctx, MatrixRingContext)
        and ctx.domain.is_field
        and ctx.element_count > limit
    ):
        # Same ring as M_n(F_p); elimination replaces an impossible sweep.
        cert = drazin_matrix(to_matrix_over_field(a), mode)
        return _map_to_context(cert, ctx)
    if isinstance(ctx, (ZModContext, MatrixRingContext)):
        if mode == DRAZIN:
            return drazin_finite_ring(a, budget)
        return gdrazin_finite_ring(a, budget)
    raise ContextMismatch(f"unsupported context {ctx.label}")


def drazin_certificate(a: RingElem, budget: int | None = None):
    """Drazin inverse via the appropriate engine for a's context."""
    return _dispatch(a, DRAZIN, budget)


def gdrazin_certificate(a: RingElem, budget: int | None = None):
    """g-Drazin inverse; finite rings go through the enumerated
    quasinilpotency predicate so the generalized notion is tested in its
    own terms rather than collapsed to nilpotency up front."""
    return _dispatch(a, GDRAZIN, budget)


def group_inverse(a: RingElem, budget: int | None = None):
    """The Drazin certificate when its index is at most 1, else None."""
    cert = drazin_certificate(a, budget)
    if cert is None or cert.index is None or cert.index > 1:
        return None
    return cert
