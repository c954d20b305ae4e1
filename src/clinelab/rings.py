"""Ring contexts, ring elements, and the basic element predicates.

Two ring families are supported:

* square matrices over an exact field (rationals, or a prime field), and
* enumerable finite rings (integers mod n, and square matrices over them).

Elements are immutable and hashable; arithmetic always returns canonical
payloads, so structural equality coincides with ring equality.
"""

from __future__ import annotations

import math
import os
from array import array
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product

from . import linalg
from .errors import BudgetExceeded, ContextMismatch, InputError
from .linalg import ModularDomain, QQ, is_prime

DEFAULT_ENUMERATION_BUDGET = 2**20
DEFAULT_TRIPLE_BUDGET = 2**24
INDEX_CAP = 2**10  # finite rings with at most this many elements are indexed


def enumeration_budget(default: int = DEFAULT_ENUMERATION_BUDGET) -> int:
    """Active budget: CLINE_LAB_BUDGET when set, else `default`.

    The variable is the only budget control.  It caps both element
    enumeration (the default) and sweep triples (DEFAULT_TRIPLE_BUDGET),
    and require_budget, the one place a count is checked against it, reads
    it on every call.
    """
    raw = os.environ.get("CLINE_LAB_BUDGET")
    if raw is None:
        return default
    try:
        return int(raw)
    except ValueError:
        raise InputError(f"CLINE_LAB_BUDGET must be an integer, got {raw!r}")


@dataclass(frozen=True)
class NilpotencyWitness:
    """Outcome of a nilpotency test.

    index is the smallest k >= 1 with x^k = 0 (None when not nilpotent);
    the zero element has index 1 since x^0 = 1 by convention.
    """

    is_nilpotent: bool
    index: int | None = None


class RingElem:
    """An element of a RingContext; payload is canonical and immutable.

    idx is the element's position in its ring's enumeration when the ring
    is indexed (see FiniteRingContext), else None.
    """

    __slots__ = ("ctx", "payload", "idx")

    def __init__(self, ctx: "RingContext", payload, idx: int | None = None):
        object.__setattr__(self, "ctx", ctx)
        object.__setattr__(self, "payload", payload)
        object.__setattr__(self, "idx", idx)

    def __setattr__(self, name, value):
        raise AttributeError("RingElem is immutable")

    def __eq__(self, other):
        if not isinstance(other, RingElem):
            return NotImplemented
        return self.ctx is other.ctx and self.payload == other.payload

    def __hash__(self):
        return hash((id(self.ctx), self.payload))

    def _coerce(self, other) -> "RingElem":
        if isinstance(other, RingElem):
            if other.ctx is not self.ctx:
                raise ContextMismatch(
                    f"operands live in different rings: {self.ctx} vs {other.ctx}"
                )
            return other
        if isinstance(other, int):
            return self.ctx.scalar(other)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.ctx._wrap(self.ctx._add(self.payload, other.payload))

    __radd__ = __add__

    def __neg__(self):
        return self.ctx._wrap(self.ctx._neg(self.payload))

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        ctx = self.ctx
        if type(other) is not RingElem or other.ctx is not ctx:
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        i, j = self.idx, other.idx
        if i is not None and j is not None:
            return ctx._product(i, j)
        return ctx._wrap(ctx._mul(self.payload, other.payload))

    def __rmul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other * self

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            raise InputError("powers must be non-negative integers")
        result = self.ctx.one()
        base = self
        while k:
            if k & 1:
                result = result * base
            k >>= 1
            if k:
                base = base * base
        return result

    @property
    def is_zero(self) -> bool:
        return self.payload == self.ctx.zero().payload

    @property
    def is_one(self) -> bool:
        return self.payload == self.ctx.one().payload

    def __repr__(self):
        return f"RingElem({self.ctx.label}, {self.payload!r})"


class RingContext:
    """Common interface of the supported ring families."""

    is_finite_ring = False
    element_count: int | None = None
    label = "?"

    def __init__(self):
        self._cache: dict = {}
        self._zero: RingElem | None = None
        self._one: RingElem | None = None

    def cached(self, key, fn):
        try:
            return self._cache[key]
        except KeyError:
            value = fn()
            self._cache[key] = value
            return value

    # payload-level arithmetic, provided by subclasses
    def _canon(self, payload):
        raise NotImplementedError

    def _add(self, x, y):
        raise NotImplementedError

    def _neg(self, x):
        raise NotImplementedError

    def _mul(self, x, y):
        raise NotImplementedError

    def _zero_payload(self):
        raise NotImplementedError

    def _one_payload(self):
        raise NotImplementedError

    def _wrap(self, payload) -> RingElem:
        """The element with this canonical payload."""
        return RingElem(self, payload)

    def elem(self, payload) -> RingElem:
        return self._wrap(self._canon(payload))

    def zero(self) -> RingElem:
        if self._zero is None:
            self._zero = self._wrap(self._zero_payload())
        return self._zero

    def one(self) -> RingElem:
        if self._one is None:
            self._one = self._wrap(self._one_payload())
        return self._one

    def scalar(self, k: int) -> RingElem:
        """The image of the integer k under the unital ring map Z -> R."""
        result = self.zero()
        one = self.one()
        if k < 0:
            one = -one
            k = -k
        step = one
        while k:
            if k & 1:
                result = result + step
            k >>= 1
            if k:
                step = step + step
        return result

    # enumeration interface (finite rings only)
    def elements(self):
        raise BudgetExceeded(f"{self.label} is not enumerable")

    def element_by_index(self, i: int) -> RingElem:
        raise BudgetExceeded(f"{self.label} is not enumerable")

    def index_of(self, x: RingElem) -> int:
        raise BudgetExceeded(f"{self.label} is not enumerable")

    def __repr__(self):
        return self.label


class MatrixContext(RingContext):
    """n-by-n matrices over an exact field (rationals or a prime field)."""

    def __init__(self, domain, n: int, label: str):
        super().__init__()
        if n < 1:
            raise InputError("matrix size must be >= 1")
        self.domain = domain
        self.n = n
        self.label = label

    def _canon(self, payload):
        rows = tuple(tuple(row) for row in payload)
        if len(rows) != self.n or any(len(r) != self.n for r in rows):
            raise InputError(f"{self.label} expects a {self.n}x{self.n} matrix")
        return linalg.mat_canon(self.domain, rows)

    def _add(self, x, y):
        return linalg.mat_add(self.domain, x, y)

    def _neg(self, x):
        return linalg.mat_neg(self.domain, x)

    def _mul(self, x, y):
        return linalg.mat_mul(self.domain, x, y)

    def _zero_payload(self):
        return linalg.zeros(self.domain, self.n)

    def _one_payload(self):
        return linalg.identity(self.domain, self.n)


class FiniteRingContext(RingContext):
    """An enumerable finite ring whose elements are numbered 0..count-1.

    A ring of at most INDEX_CAP elements is indexed.  On first use it builds
    every element once, in enumeration order, and from then on hands out
    only those objects, each carrying its index: products are found by index
    (see _product), sums and negations are computed on payloads and then
    looked up.  Larger rings compute every result on payloads.
    """

    is_finite_ring = True

    def __init__(self, element_count: int):
        super().__init__()
        self.element_count = element_count
        self.indexed = element_count <= INDEX_CAP
        self._elems: tuple | None = None
        self._pos: dict | None = None

    def _payloads(self):
        """Every canonical payload, in enumeration order."""
        raise NotImplementedError

    def _payload_at(self, i: int):
        raise NotImplementedError

    def _product(self, i: int, j: int) -> RingElem:
        """The product of the elements with indices i and j (indexed rings)."""
        raise NotImplementedError

    def _index(self) -> tuple:
        if self._elems is None:
            payloads = tuple(self._payloads())
            self._pos = {p: i for i, p in enumerate(payloads)}
            self._elems = tuple(RingElem(self, p, i) for i, p in enumerate(payloads))
        return self._elems

    def _wrap(self, payload) -> RingElem:
        if not self.indexed:
            return RingElem(self, payload)
        elems = self._index()
        return elems[self._pos[payload]]

    def elements(self):
        """Every element in enumeration order; above 2^16 elements a lazy
        iterator, so callers must not keep or reuse it."""
        if self.indexed:
            return self._index()
        if self.element_count <= 2**16:
            return self.cached(
                ("elements",), lambda: tuple(map(self._wrap, self._payloads()))
            )
        return map(self._wrap, self._payloads())

    def element_by_index(self, i: int) -> RingElem:
        if not 0 <= i < self.element_count:
            raise InputError("index out of range")
        if self.indexed:
            return self._index()[i]
        return RingElem(self, self._payload_at(i))


class ZModContext(FiniteRingContext):
    """The ring of integers modulo n; payloads are ints in [0, n), and an
    element's index is its payload."""

    def __init__(self, n: int):
        if n < 2:
            raise InputError("modulus must be >= 2")
        super().__init__(n)
        self.n = n
        self.label = f"Z/{n}"

    def _canon(self, payload):
        if isinstance(payload, Fraction):
            if payload.denominator != 1:
                raise InputError("Z/n payload must be an integer")
            payload = payload.numerator
        if not isinstance(payload, int):
            raise InputError("Z/n payload must be an integer")
        return payload % self.n

    def _add(self, x, y):
        return (x + y) % self.n

    def _neg(self, x):
        return (-x) % self.n

    def _mul(self, x, y):
        return (x * y) % self.n

    def _product(self, i, j):
        return self._elems[(i * j) % self.n]

    def _zero_payload(self):
        return 0

    def _one_payload(self):
        return 1 % self.n

    def _payloads(self):
        return range(self.n)

    def _payload_at(self, i):
        return i

    def index_of(self, x: RingElem) -> int:
        return x.payload


class MatrixRingContext(FiniteRingContext):
    """m-by-m matrices over Z/n, treated as one enumerable finite ring.

    Elements are numbered by their entries read row by row as base-n digits,
    the first entry most significant.  An indexed ring keeps its products in
    an N-by-N table of indices that starts at -1 and fills in as pairs are
    first multiplied.
    """

    def __init__(self, n: int, size: int):
        if n < 2:
            raise InputError("modulus must be >= 2")
        if size < 1:
            raise InputError("matrix size must be >= 1")
        super().__init__(n ** (size * size))
        self.n = n
        self.size = size
        self.domain = ModularDomain(n)
        self.label = f"M{size}(Z/{n})"
        self._products: array | None = None

    def _canon(self, payload):
        rows = tuple(tuple(row) for row in payload)
        if len(rows) != self.size or any(len(r) != self.size for r in rows):
            raise InputError(f"{self.label} expects a {self.size}x{self.size} matrix")
        return linalg.mat_canon(self.domain, rows)

    def _add(self, x, y):
        return linalg.mat_add(self.domain, x, y)

    def _neg(self, x):
        return linalg.mat_neg(self.domain, x)

    def _mul(self, x, y):
        return linalg.mat_mul(self.domain, x, y)

    def _product(self, i, j):
        table = self._products
        if table is None:
            table = self._products = array("h", [-1]) * (self.element_count**2)
        cell = i * self.element_count + j
        k = table[cell]
        if k < 0:
            elems = self._elems
            k = self._pos[self._mul(elems[i].payload, elems[j].payload)]
            table[cell] = k
        return self._elems[k]

    def _zero_payload(self):
        return linalg.zeros(self.domain, self.size)

    def _one_payload(self):
        return linalg.identity(self.domain, self.size)

    def _payloads(self):
        size = self.size
        for digits in product(range(self.n), repeat=size * size):
            yield linalg.mat_unflatten(digits, size, size)

    def _payload_at(self, i):
        digits = []
        for _ in range(self.size * self.size):
            i, d = divmod(i, self.n)
            digits.append(d)
        digits.reverse()  # first entry is the most significant digit
        return linalg.mat_unflatten(tuple(digits), self.size, self.size)

    def index_of(self, x: RingElem) -> int:
        i = 0
        for v in linalg.mat_flatten(x.payload):
            i = i * self.n + v
        return i


@lru_cache(maxsize=None)
def rationals_matrix(n: int) -> MatrixContext:
    """Context of n-by-n matrices over the rationals."""
    return MatrixContext(QQ, n, f"M{n}(Q)")


@lru_cache(maxsize=None)
def prime_field_matrix(p: int, n: int) -> MatrixContext:
    """Context of n-by-n matrices over the field with p elements."""
    if not is_prime(p):
        raise InputError(f"{p} is not prime")
    return MatrixContext(ModularDomain(p), n, f"M{n}(F{p})")


@lru_cache(maxsize=None)
def zmod(n: int) -> ZModContext:
    return ZModContext(n)


@lru_cache(maxsize=None)
def matrix_ring(n: int, size: int) -> MatrixRingContext:
    return MatrixRingContext(n, size)


def to_matrix_over_field(x: RingElem) -> RingElem:
    """Reinterpret a matrix over Z/p (p prime) as a matrix over F_p.

    The two contexts share payloads and arithmetic; this only switches
    which algorithms (elimination vs enumeration) apply.
    """
    ctx = x.ctx
    if isinstance(ctx, MatrixContext):
        return x
    if not isinstance(ctx, MatrixRingContext) or not ctx.domain.is_field:
        raise ContextMismatch(f"{ctx.label} is not a matrix ring over a prime modulus")
    return RingElem(prime_field_matrix(ctx.n, ctx.size), x.payload)


def to_matrix_ring(x: RingElem) -> RingElem:
    """Inverse of to_matrix_over_field (prime-field matrices only)."""
    ctx = x.ctx
    if isinstance(ctx, MatrixRingContext):
        return x
    if not isinstance(ctx, MatrixContext) or not isinstance(ctx.domain, ModularDomain):
        raise ContextMismatch(f"{ctx.label} has no finite-ring counterpart")
    return matrix_ring(ctx.domain.n, ctx.n)._wrap(x.payload)


def require_budget(
    label: str, count: int, unit: str = "elements", default: int = DEFAULT_ENUMERATION_BUDGET
) -> None:
    """Raise BudgetExceeded when `count` exceeds the active budget.

    Every count checked against CLINE_LAB_BUDGET goes through here: the
    elements a finite-ring enumeration visits, the triples of an exhaustive
    sweep (default DEFAULT_TRIPLE_BUDGET), and the engine switch that sends
    large prime-modulus matrix rings to elimination.
    """
    limit = enumeration_budget(default)
    if count > limit:
        raise BudgetExceeded(f"{label} has {count} {unit}, over the budget {limit}")


def is_unit(x: RingElem) -> bool:
    """Whether x has a two-sided multiplicative inverse.

    Matrices over a field: full rank.  Matrices over Z/n: unit determinant
    (equivalent to invertibility over a commutative base).  Z/n itself:
    gcd(x, n) = 1.
    """
    ctx = x.ctx
    if isinstance(ctx, MatrixContext):
        return ctx.cached(
            ("unit", x.payload),
            lambda: linalg.rank(ctx.domain, x.payload) == ctx.n,
        )
    if isinstance(ctx, MatrixRingContext):
        def compute():
            d = linalg.det_int(x.payload) % ctx.n
            return math.gcd(d, ctx.n) == 1

        return ctx.cached(("unit", x.payload), compute)
    if isinstance(ctx, ZModContext):
        return math.gcd(x.payload, ctx.n) == 1
    raise ContextMismatch(f"unsupported context {ctx.label}")


def try_inverse(x: RingElem) -> RingElem | None:
    """The two-sided inverse of x, or None when x is not a unit."""
    ctx = x.ctx
    if isinstance(ctx, MatrixContext):
        inv = linalg.inverse(ctx.domain, x.payload)
        return None if inv is None else RingElem(ctx, inv)
    if isinstance(ctx, MatrixRingContext):
        if not is_unit(x):
            return None
        if ctx.domain.is_field:
            return ctx._wrap(linalg.inverse(ctx.domain, x.payload))
        return ctx._wrap(_adjugate_inverse(x.payload, ctx.n))
    if isinstance(ctx, ZModContext):
        try:
            return ctx._wrap(pow(x.payload, -1, ctx.n))
        except ValueError:
            return None
    raise ContextMismatch(f"unsupported context {ctx.label}")


def _adjugate_inverse(rows, n: int):
    """Inverse of an integer matrix mod n via adjugate / determinant."""
    m = len(rows)
    det = linalg.det_int(rows) % n
    det_inv = pow(det, -1, n)
    if m == 1:
        return ((det_inv % n,),)
    adj = [[0] * m for _ in range(m)]
    for i in range(m):
        for j in range(m):
            minor = [
                [rows[r][c] for c in range(m) if c != j]
                for r in range(m)
                if r != i
            ]
            cof = linalg.det_int(minor)
            if (i + j) % 2:
                cof = -cof
            adj[j][i] = (cof * det_inv) % n
    return tuple(tuple(r) for r in adj)


def nilpotency(x: RingElem) -> NilpotencyWitness:
    """Nilpotency test with exact index.

    Matrices over a field stop at exponent n (the index bound); finite
    rings stop at the first repeated power.
    """
    ctx = x.ctx

    def compute():
        if isinstance(ctx, MatrixContext):
            zero = ctx.zero()
            p = x
            for k in range(1, ctx.n + 1):
                if p == zero:
                    return NilpotencyWitness(True, k)
                p = p * x
            return NilpotencyWitness(False, None)
        zero = ctx.zero()
        seen = {x.payload}
        p = x
        k = 1
        while True:
            if p == zero:
                return NilpotencyWitness(True, k)
            p = p * x
            k += 1
            if p.payload in seen:
                return NilpotencyWitness(False, None)
            seen.add(p.payload)

    return ctx.cached(("nilpotency", x.payload), compute)


def _commutant_basis_matrix(ctx: MatrixContext, x: RingElem):
    """Basis of {y : xy = yx} as a linear space of matrices.

    Solves the entrywise linear system directly: the commutator map sends
    the unit matrix E_kl to the matrix with column l equal to column k of
    x minus row k equal to row l of x.
    """
    n = ctx.n
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
    basis = linalg.nullspace_basis(dom, system)
    return tuple(RingElem(ctx, linalg.mat_unflatten(v, n, n)) for v in basis)


def commutant(x: RingElem):
    """comm(x): exact element set for finite rings, a linear basis for
    matrices over a field (the set is infinite there)."""
    ctx = x.ctx
    if isinstance(ctx, MatrixContext):
        return ctx.cached(
            ("commutant", x.payload), lambda: _commutant_basis_matrix(ctx, x)
        )
    require_budget(ctx.label, ctx.element_count)

    def compute():
        return tuple(y for y in ctx.elements() if x * y == y * x)

    return ctx.cached(("commutant", x.payload), compute)


def in_double_commutant(b: RingElem, a: RingElem) -> bool:
    """Whether b commutes with everything that commutes with a."""
    if b.ctx is not a.ctx:
        raise ContextMismatch("double-commutant test needs a common ring")
    return all(b * y == y * b for y in commutant(a))


def is_quasinilpotent(x: RingElem) -> bool:
    """Whether 1 + yx is a unit for every y commuting with x.

    Finite rings decide the quantifier by enumeration; for matrices over a
    field this is equivalent to nilpotency and answered that way.
    """
    ctx = x.ctx
    if isinstance(ctx, MatrixContext):
        return nilpotency(x).is_nilpotent
    require_budget(ctx.label, ctx.element_count)

    def compute():
        one = ctx.one()
        return all(is_unit(one + y * x) for y in commutant(x))

    return ctx.cached(("qnil", x.payload), compute)
