"""Hypothesis checking and the inverse-transfer identities.

Everything here revolves around one quintic product condition on a triple
(a, b, c):

    a(ba)^2 = abaca = acaba = (ac)^2 a

Under it, Drazin / g-Drazin invertibility transfers between ac and ba with
explicit formulas, nilpotency and quasinilpotency transfer, and 1 - ac is a
unit exactly when 1 - ba is, again with an explicit inverse.  The formula
functions refuse to run when the hypothesis fails (outside it they are
simply false), and every produced inverse is certified before it is
returned, by equality with the unique inverse whose certificate the
ring's engine (elimination or exhaustive search) verified in full.
"""

from __future__ import annotations

from collections import namedtuple

from .drazin import (
    DRAZIN,
    GDRAZIN,
    DrazinCertificate,
    _dispatch,
    drazin_certificate,
    gdrazin_certificate,
)
from .errors import (
    CertificationError,
    ContextMismatch,
    HypothesisViolation,
    InputError,
    MissingInverse,
)
from .rings import (
    RingElem,
    is_quasinilpotent,
    is_unit,
    matrix_ring,
    nilpotency,
)

FORWARD = "forward"  # (ba) -> (ac)
BACKWARD = "backward"  # (ac) -> (ba)


class HypothesisReport(namedtuple("HypothesisReport", "products holds strong_holds pairwise")):
    """The four quintic products and which of their equalities hold.

    pairwise lists (p1,p2), (p1,p3), (p1,p4), (p2,p3), (p2,p4), (p3,p4).
    strong_holds records the stricter aba = aca condition, which implies
    holds but not conversely.
    """

    __slots__ = ()


class TransferResult(namedtuple("TransferResult", "source target formula_used")):
    """Certificates on both sides of a transfer, plus the direction used."""

    __slots__ = ()


def _require_common_context(*elems: RingElem):
    ctx = elems[0].ctx
    for e in elems[1:]:
        if e.ctx is not ctx:
            raise ContextMismatch("all triple members must share one ring")
    return ctx


# (a, b, c, report) of the last triple evaluated; held whole so that one
# assignment replaces it and its members cannot be freed and their ids reused
_last_hypothesis: tuple | None = None


def check_hypothesis(a: RingElem, b: RingElem, c: RingElem) -> HypothesisReport:
    """Evaluate the four five-factor products for a triple.

    The report of the last triple is kept, keyed on the identity of a, b
    and c, so the guards of the identities a sweep runs on a triple reuse
    the sweep's own evaluation.  Elements are immutable, so the same three
    objects always give the same report.
    """
    global _last_hypothesis
    last = _last_hypothesis
    if last is not None and last[0] is a and last[1] is b and last[2] is c:
        return last[3]
    report = _evaluate_hypothesis(a, b, c)
    _last_hypothesis = (a, b, c, report)
    return report


def _remember_hypothesis(a: RingElem, b: RingElem, c: RingElem, report: HypothesisReport):
    """Keep report as the evaluation of (a, b, c), for a caller that
    decided the triple without check_hypothesis (a sweep's class walk)."""
    global _last_hypothesis
    _last_hypothesis = (a, b, c, report)


def _evaluate_hypothesis(a: RingElem, b: RingElem, c: RingElem) -> HypothesisReport:
    """check_hypothesis without the memo: neither read nor replaced."""
    _require_common_context(a, b, c)
    ab = a * b
    ac = a * c
    aba = ab * a
    aca = ac * a
    p1 = ab * aba
    p2 = ab * aca
    p3 = ac * aba
    p4 = ac * aca
    pairwise = (p1 == p2, p1 == p3, p1 == p4, p2 == p3, p2 == p4, p3 == p4)
    return HypothesisReport(
        products=(p1, p2, p3, p4),
        holds=all(pairwise),
        strong_holds=aba == aca,
        pairwise=pairwise,
    )


def _require_hypothesis(a, b, c) -> HypothesisReport:
    report = check_hypothesis(a, b, c)
    if not report.holds:
        raise HypothesisViolation(
            "a(ba)^2 = abaca = acaba = (ac)^2 a does not hold for this triple"
        )
    return report


def _certify_inverse(x: RingElem, v: RingElem, mode: str) -> DrazinCertificate:
    """Certify a claimed (g-)Drazin inverse v of x.

    The engine's certificate of x holds x's unique inverse, verified in
    full, so v is accepted exactly when it is that inverse.  The rule is
    the same on both engines.
    """
    cert = _dispatch(x, mode)
    if cert is None or cert.inverse != v:
        raise CertificationError("transferred inverse is not the engine's unique inverse")
    return cert


def _transfer(a, b, c, direction: str, mode: str) -> TransferResult:
    _require_hypothesis(a, b, c)
    if direction not in (FORWARD, BACKWARD):
        raise InputError(f"direction must be {FORWARD!r} or {BACKWARD!r}")
    compute = drazin_certificate if mode == DRAZIN else gdrazin_certificate
    # the target is left * right, and its inverse left * d^2 * right
    if direction == BACKWARD:
        name, source_elem, left, right = "ac", a * c, b, a
    else:
        name, source_elem, left, right = "ba", b * a, a, c
    source = compute(source_elem)
    if source is None:
        raise MissingInverse(f"{name} has no inverse of the requested kind")
    d = source.inverse
    target_elem = left * right
    target_inv = left * d * d * right
    expected_core = left * (a.ctx.one() - source_elem * d) * right
    target = _certify_inverse(target_elem, target_inv, mode)
    if target.core != expected_core:
        raise CertificationError("core decomposition identity failed")
    return TransferResult(source=source, target=target, formula_used=direction)


def cline_gdrazin(a, b, c, direction: str = BACKWARD) -> TransferResult:
    """g-Drazin transfer: (ba)^d = b((ac)^d)^2 a and (ac)^d = a((ba)^d)^2 c."""
    return _transfer(a, b, c, direction, GDRAZIN)


def cline_drazin(a, b, c, direction: str = BACKWARD) -> TransferResult:
    """Drazin transfer; both certificates carry their indices."""
    return _transfer(a, b, c, direction, DRAZIN)


def nilpotency_transfer(a, b, c):
    """Nilpotency witnesses for ac and ba under the hypothesis.

    Both sides are nilpotent or neither is, and for n >= 2 the identity
    a(ba)^n = (ac)^n a pushes (ac)^n = 0 to (ba)^(n+1) = 0 (and back), so
    each index is at most max(other index, 2) + 1.  The max with 2 is
    sharp: an index can jump from 1 to 3, e.g. (a, b, c) = (2, 0, 1) in
    Z/8, where ac = 2 has index 3 while ba = 0 has index 1.
    """
    _require_hypothesis(a, b, c)
    w_ac = nilpotency(a * c)
    w_ba = nilpotency(b * a)
    if w_ac.is_nilpotent != w_ba.is_nilpotent:
        raise CertificationError("nilpotency transfer equivalence failed")
    if w_ac.is_nilpotent:
        if w_ba.index > max(w_ac.index, 2) + 1 or w_ac.index > max(w_ba.index, 2) + 1:
            raise CertificationError("nilpotency index bound failed")
    return w_ac, w_ba


def qnil_transfer(a, b, c):
    """Quasinilpotency flags for ac and ba; the hypothesis forces equality."""
    ctx = _require_common_context(a, b, c)
    if not ctx.is_finite_ring:
        raise ContextMismatch("qnil_transfer quantifies over comm(x); finite rings only")
    _require_hypothesis(a, b, c)
    q_ac = is_quasinilpotent(a * c)
    q_ba = is_quasinilpotent(b * a)
    if q_ac != q_ba:
        raise CertificationError("quasinilpotency transfer equivalence failed")
    return q_ac, q_ba


def jacobson_inverse(a, b, c, s: RingElem) -> RingElem:
    """Explicit inverse of 1 - ba from a supplied inverse s of 1 - ac:

        (1 - ba)^(-1) = (1 + b s a)(1 + ba) - b s a

    The result is certified two-sided before being returned.
    """
    _require_hypothesis(a, b, c)
    ctx = _require_common_context(a, b, c, s)
    one = ctx.one()
    u = one - a * c
    if s * u != one or u * s != one:
        raise InputError("s must be a two-sided inverse of 1 - ac")
    bsa = b * s * a
    t = (one + bsa) * (one + b * a) - bsa
    v = one - b * a
    if t * v != one or v * t != one:
        raise CertificationError("Jacobson-style inverse failed to certify")
    return t


def special_case_formula(a, b, c) -> bool:
    """Under the stronger aba = aca, verify (ba)^d c = b (ac)^d exactly."""
    if not check_hypothesis(a, b, c).strong_holds:
        raise HypothesisViolation("special case needs aba = aca")
    _special_case_holds(b, c, *_special_case_inverses(b * a, a * c))
    return True


def _special_case_inverses(ba: RingElem, ac: RingElem) -> tuple[RingElem, RingElem]:
    """(ba)^d and (ac)^d, the g-Drazin inverses the special case reads."""
    cert_ba = gdrazin_certificate(ba)
    cert_ac = gdrazin_certificate(ac)
    if cert_ba is None or cert_ac is None:
        raise MissingInverse("both g-Drazin inverses must exist")
    return cert_ba.inverse, cert_ac.inverse


def _special_case_holds(b: RingElem, c: RingElem, ba_d: RingElem, ac_d: RingElem) -> None:
    """The special case's identity (ba)^d c = b (ac)^d, from the inverses."""
    if ba_d * c != b * ac_d:
        raise CertificationError("(ba)^d c = b (ac)^d failed")


def power_transfer(a, b, c, k: int):
    """g-Drazin certificates for (ac)^k and (ba)^k; existence must agree.

    The k = 2 path also validates that the substitution triple
    (a, bab, cac) satisfies the quintic hypothesis, which is what reduces
    the power case to the base transfer.
    """
    if not isinstance(k, int) or k < 1:
        raise InputError("k must be a positive integer")
    _require_hypothesis(a, b, c)
    cert_ac = gdrazin_certificate((a * c) ** k)
    cert_ba = gdrazin_certificate((b * a) ** k)
    if (cert_ac is None) != (cert_ba is None):
        raise CertificationError("power transfer existence equivalence failed")
    if k == 2:
        # evaluated past the memo, which keeps (a, b, c) for the checks after
        if not _evaluate_hypothesis(a, b * a * b, c * a * c).holds:
            raise CertificationError("substitution triple (a, bab, cac) lost the hypothesis")
    return cert_ac, cert_ba


def example_29_triple() -> tuple[RingElem, RingElem, RingElem]:
    """The canonical separating triple: 6x6 matrices over Z/2, written as
    2x2 blocks over the 3x3 matrices, with x the upper shift (x^2 != 0,
    x^3 = 0):

        a = [[0, x], [0, 0]],  b = [[1, 0], [0, 0]],  c = [[1, 0], [1, 1]]

    It satisfies the quintic hypothesis while aba != aca.
    """
    ctx = matrix_ring(2, 6)
    x = ((0, 1, 0), (0, 0, 1), (0, 0, 0))
    i3 = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    z3 = ((0, 0, 0),) * 3

    def block(tl, tr, bl, br):
        rows = [list(tl[i]) + list(tr[i]) for i in range(3)]
        rows += [list(bl[i]) + list(br[i]) for i in range(3)]
        return ctx.elem(rows)

    a = block(z3, x, z3, z3)
    b = block(i3, z3, z3, z3)
    c = block(i3, z3, i3, i3)
    return a, b, c


def units_transfer(a, b, c) -> tuple[bool, bool]:
    """Unit flags of 1 - ac and 1 - ba; the hypothesis forces them equal."""
    ctx = _require_common_context(a, b, c)
    _require_hypothesis(a, b, c)
    one = ctx.one()
    u_ac = is_unit(one - a * c)
    u_ba = is_unit(one - b * a)
    if u_ac != u_ba:
        raise CertificationError("unit transfer equivalence failed")
    return u_ac, u_ba
