"""Independent references that the tests compare clinelab against.

The library row-reduces by a fraction-free row step, decides
double-commutant membership over Q by a polynomial witness, reads the
Drazin inverse off the characteristic polynomial and its index off the
certificate's core, numbers finite-ring elements through their index,
bounds nilpotency tests by the index bound, reads the Drazin inverse of
every finite ring that is not eliminated off a power of the element, and
sweeps by hypothesis class with each check run once per distinct input;
these helpers recompute each by another route.
"""

from dataclasses import dataclass

from clinelab import explorer, linalg
from clinelab.cline import check_hypothesis
from clinelab.drazin import _build_certificate
from clinelab.errors import CertificationError
from clinelab.rings import (
    RingElem,
    commutant,
    in_double_commutant,
    is_quasinilpotent,
    is_unit,
    nilpotency,
)
from clinelab.serialize import triple_to_json


def rref_field(dom, a):
    """Textbook Gauss-Jordan over any field, on the domain's own entries:
    each pivot row is scaled to pivot 1 and subtracted from the others.
    linalg.rref must return exactly what this returns."""
    if not dom.is_field:
        raise ValueError("rref requires a field domain")
    nrows = len(a)
    ncols = len(a[0]) if nrows else 0
    r = [list(row) for row in a]
    e = [list(row) for row in linalg.identity(dom, nrows)]
    zero = dom.zero
    pivots = []
    prow = 0
    for col in range(ncols):
        if prow == nrows:
            break
        sel = None
        for i in range(prow, nrows):
            if r[i][col] != zero:
                sel = i
                break
        if sel is None:
            continue
        if sel != prow:
            r[prow], r[sel] = r[sel], r[prow]
            e[prow], e[sel] = e[sel], e[prow]
        inv_p = dom.inv(r[prow][col])
        if inv_p != dom.one:
            r[prow] = [dom.canon(inv_p * x) for x in r[prow]]
            e[prow] = [dom.canon(inv_p * x) for x in e[prow]]
        for i in range(nrows):
            if i == prow:
                continue
            f = r[i][col]
            if f != zero:
                r[i] = [dom.canon(x - f * y) for x, y in zip(r[i], r[prow])]
                e[i] = [dom.canon(x - f * y) for x, y in zip(e[i], e[prow])]
        pivots.append(col)
        prow += 1
    return (
        tuple(tuple(row) for row in r),
        tuple(tuple(row) for row in e),
        tuple(pivots),
    )


def nullspace_basis(dom, a):
    """Basis vectors (tuples) of the right nullspace of a over a field."""
    nrows = len(a)
    ncols = len(a[0]) if nrows else 0
    r, _, pivots = linalg.rref(dom, a)
    pivot_set = set(pivots)
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        v = [dom.zero] * ncols
        v[free] = dom.one
        for i, j in enumerate(pivots):
            v[j] = dom.canon(-r[i][free])
        basis.append(tuple(v))
    return tuple(basis)


def commutant_basis(x: RingElem):
    """Basis of {y : xy = yx} as a linear space of matrices over a field.

    Solves the entrywise linear system directly: the commutator map sends
    the unit matrix E_kl to the matrix with column l equal to column k of
    x minus row k equal to row l of x.
    """
    ctx = x.ctx
    n = len(x.payload)
    dom = ctx.domain
    xm = x.payload
    cols = []
    for k in range(n):
        for l in range(n):
            col = []
            for i in range(n):
                for j in range(n):
                    v = dom.zero
                    if j == l:
                        v = v + xm[i][k]
                    if i == k:
                        v = v - xm[l][j]
                    col.append(dom.canon(v))
            cols.append(col)
    system = tuple(tuple(cols[c][r] for c in range(n * n)) for r in range(n * n))
    basis = nullspace_basis(dom, linalg.mat_canon(dom, system))
    return tuple(ctx.elem(linalg.mat_unflatten(v, n, n)) for v in basis)


def in_double_commutant_by_basis(b: RingElem, a: RingElem) -> bool:
    """Whether b commutes with every element of a basis of comm(a)."""
    return all(b * y == y * b for y in commutant_basis(a))


def index_by_digits(ring, e: RingElem) -> int:
    """e's position in ring's enumeration: its entries read row by row as
    base-n digits, the first entry most significant."""
    entries = [e.payload] if isinstance(e.payload, int) else linalg.mat_flatten(e.payload)
    i = 0
    for v in entries:
        i = i * ring.n + v
    return i


def nilpotency_by_repeat(x: RingElem):
    """(is_nilpotent, index) of an element of a finite ring, by powering
    until a power is zero or repeats (then the powers cycle, never zero)."""
    zero = x.ctx.zero()
    seen = {x.payload}
    p = x
    k = 1
    while True:
        if p == zero:
            return True, k
        p = p * x
        k += 1
        if p.payload in seen:
            return False, None
        seen.add(p.payload)


def inverse_by_payload_scan(a: RingElem, mode: str) -> RingElem:
    """The unique Drazin (mode "drazin") or g-Drazin inverse of a in its
    finite ring by a scan of every payload, as rings over INDEX_CAP were
    searched before they were powered: the b in comm(a) with bab = b whose
    core a - a^2 b is nilpotent, or quasinilpotent by definition (1 + yx a
    unit for every y in comm(x)).  It must be the only one, and in the
    double commutant of a."""
    ctx = a.ctx
    ring = [ctx._wrap(ctx._payload_at(i)) for i in range(ctx.element_count)]
    one = ctx.one()

    def comm(x):
        return [y for y in ring if x * y == y * x]

    def core_ok(x):
        if mode == "drazin":
            return nilpotency_by_repeat(x)[0]
        return all(is_unit(one + y * x) for y in comm(x))

    comm_a = comm(a)
    (b,) = [b for b in comm_a if b * a * b == b and core_ok(a - a * a * b)]
    assert all(b * y == y * b for y in comm_a)
    return b


def certificate_by_commutant_search(a: RingElem, mode: str):
    """The certificate of the unique Drazin (mode "drazin") or g-Drazin
    inverse of a in its indexed ring, as indexed rings were searched before
    they were powered: every b in comm(a) with bab = b whose core
    a - a^2 b is nilpotent, or quasinilpotent, is collected, never exiting
    early.  It must be the only one, and in the double commutant of a."""

    def core_ok(core):
        if mode == "drazin":
            return nilpotency(core).is_nilpotent
        return is_quasinilpotent(core)

    (b,) = [b for b in commutant(a) if b * a * b == b and core_ok(a - a * a * b)]
    assert in_double_commutant(b, a)
    return _build_certificate(a, b, mode)


def inner_inverse(dom, a):
    """Some G with a*G*a = a, for square a over a field.

    Built from the recorded row operations: with E*a = R (RREF, pivot
    columns j_0 < j_1 < ...), placing row i of E into row j_i of an
    otherwise-zero matrix gives an inner inverse.
    """
    n = len(a)
    _, e, pivots = linalg.rref(dom, a)
    g = [[dom.zero] * n for _ in range(n)]
    for i, j in enumerate(pivots):
        g[j] = list(e[i])
    return tuple(tuple(row) for row in g)


def drazin_by_inner_inverse(a: RingElem) -> RingElem:
    """The Drazin inverse a^k G a^k, with k the rank-stabilization index of
    a and G any inner inverse of a^(2k+1) (the result is unique)."""
    dom = a.ctx.domain
    k = 0
    while linalg.rank(dom, (a**k).payload) != linalg.rank(dom, (a ** (k + 1)).payload):
        k += 1
    g = a.ctx.elem(inner_inverse(dom, (a ** (2 * k + 1)).payload))
    return a**k * g * a**k


@dataclass(frozen=True)
class IndexProfile:
    """Ranks of successive powers of a matrix, through first stabilization.

    ranks[k] = rank(a^k); index is the first k with ranks[k] == ranks[k+1].
    """

    ranks: tuple[int, ...]
    index: int


def rank_profile(a: RingElem) -> list[int]:
    """Ranks of a^0, a^1, ... through first stabilization (a matrix over a
    field)."""
    dom = a.ctx.domain
    ranks = [len(a.payload)]
    p = a
    while True:
        ranks.append(linalg.rank(dom, p.payload))
        if ranks[-1] == ranks[-2]:
            return ranks
        p = p * a


def index_profile(a: RingElem) -> IndexProfile:
    """The index of a as the first k where the ranks of the powers of a
    stop falling; the library reads it off the nilpotency of the core
    a - a^2 b."""
    ranks = rank_profile(a)
    return IndexProfile(tuple(ranks), len(ranks) - 2)


def in_krylov_span(b: RingElem, a: RingElem) -> bool:
    """Whether b is a linear combination of I, a, a^2, ..., by Gaussian
    elimination on the domain's own entries (Fractions over Q)."""
    dom = a.ctx.domain
    basis = []
    p = a.ctx.one()

    def reduce(m):
        v = list(linalg.mat_flatten(m.payload))
        for pivot, row in basis:
            f = v[pivot]
            if f != dom.zero:
                v = [dom.canon(x - f * y) for x, y in zip(v, row)]
        return v

    for _ in range(len(a.payload) + 1):
        v = reduce(p)
        pivot = next((i for i, x in enumerate(v) if x != dom.zero), None)
        if pivot is None:
            break
        inv = dom.inv(v[pivot])
        basis.append((pivot, [dom.canon(inv * x) for x in v]))
        p = p * a
    return all(x == dom.zero for x in reduce(b))


def scan_per_triple(ctx, indices, selected):
    """explorer._scan_indices without the class walk or the check memo:
    the hypothesis is evaluated on every triple, and every part of every
    selected check runs on every hypothesis triple."""
    hypothesis = strong = examined = 0
    counters = {name: {"checked": 0, "passed": 0} for name in selected}
    separations = []
    violation = None
    for idx in indices:
        a, b, c = explorer._triple_by_index(ctx, idx)
        examined += 1
        report = check_hypothesis(a, b, c)
        if not report.holds:
            continue
        hypothesis += 1
        if report.strong_holds:
            strong += 1
        else:
            separations.append(triple_to_json(a, b, c))
        held = {}  # the state of the triple's (ac, ba) key, kept for this triple only
        for name in selected:
            try:
                ran = False
                for _, part in explorer._CHECKS[name]:
                    ran |= part(a, b, c, held)
            except CertificationError as exc:
                violation = (name, triple_to_json(a, b, c), str(exc))
                break
            if ran:
                counters[name]["checked"] += 1
                counters[name]["passed"] += 1
        if violation:
            break
    return {
        "examined": examined,
        "hypothesis": hypothesis,
        "strong": strong,
        "counters": counters,
        "separations": separations,
        "violation": violation,
    }
