"""Ring contexts, ring elements, and the basic element predicates.

Three ring families are supported, one context type each:

* M_n(Q), square matrices over the rationals (MatrixContext),
* Z/n, the integers modulo n (ZModContext), and
* M_m(Z/n), square matrices over Z/n (MatrixRingContext).

Z/n and M_m(Z/n) are finite.  Questions that quantify over a ring (Drazin
inverses, quasinilpotency) follow one rule per context, fixed when it is
built: eliminate over a field (M_n(Q), and M_m(Z/p) over INDEX_CAP
elements; RingContext.eliminated), search when indexed, power
otherwise.  Only indexed rings enumerate.  The element budget never
switches the rule; it gates the finite rings that are not eliminated, by
raising BudgetExceeded.

Elements are immutable and hashable; arithmetic always returns canonical
payloads, so structural equality coincides with ring equality.
"""

from __future__ import annotations

import math
import os
from array import array
from collections import namedtuple
from contextlib import contextmanager
from fractions import Fraction
from functools import lru_cache
from operator import add, eq

from . import linalg
from .errors import BudgetExceeded, ContextMismatch, InputError
from .linalg import ModularDomain, QQ

DEFAULT_ENUMERATION_BUDGET = 2**20
DEFAULT_TRIPLE_BUDGET = 2**24
INDEX_CAP = 2**10  # finite rings with at most this many elements are indexed
_BITS = bytes.maketrans(b"\x00\x01", b"01")


def enumeration_budget(default: int = DEFAULT_ENUMERATION_BUDGET) -> int:
    """Active budget: CLINE_LAB_BUDGET when set, else `default`.

    The variable is the only budget control.  It caps both element
    enumeration (the default) and sweep triples (DEFAULT_TRIPLE_BUDGET),
    and require_budget, the one place a count is checked against it, reads
    it on every call, except the element checks of the ring of a running
    sweep block (see budget_block).
    """
    raw = os.environ.get("CLINE_LAB_BUDGET")
    if raw is None:
        return default
    try:
        return int(raw)
    except ValueError:
        raise InputError(f"CLINE_LAB_BUDGET must be an integer, got {raw!r}")


class NilpotencyWitness(namedtuple("NilpotencyWitness", "is_nilpotent index", defaults=(None,))):
    """Outcome of a nilpotency test.

    index is the smallest k >= 1 with x^k = 0 (None when not nilpotent);
    the zero element has index 1 since x^0 = 1 by convention.
    """

    __slots__ = ()


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
        if self is other:
            return True
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
        ctx = self.ctx
        if type(other) is not RingElem or other.ctx is not ctx:
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        i, j = self.idx, other.idx
        if i is not None and j is not None:
            return ctx._sum(i, j)
        return ctx._wrap(ctx._add(self.payload, other.payload))

    __radd__ = __add__

    def __neg__(self):
        i = self.idx
        if i is not None:
            return self.ctx._negation(i)
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
    domain = None  # the entry domain of a matrix ring; None for Z/n
    eliminated = False
    """The engine rule, fixed when the ring is built and independent of the
    element budget: eliminate over a field (True), else search when indexed
    and power otherwise (False; drazin._finite_ring_search).  An indexed
    ring is searched even over a field, as the oracle the elimination
    engine is diffed against, so M_n(Q) and M_m(Z/p) over INDEX_CAP
    elements are eliminated."""
    indexed = False  # whether the ring enumerates (FiniteRingContext)
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

    def __repr__(self):
        return self.label


class _MatrixPayloads:
    """Payload arithmetic of size-by-size matrices over self.domain, shared
    by the two matrix contexts."""

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

    def _zero_payload(self):
        return linalg.zeros(self.domain, self.size)

    def _one_payload(self):
        return linalg.identity(self.domain, self.size)


class MatrixContext(_MatrixPayloads, RingContext):
    """n-by-n matrices over the rationals (size is n)."""

    domain = QQ
    eliminated = True

    def __init__(self, n: int):
        super().__init__()
        if n < 1:
            raise InputError("matrix size must be >= 1")
        self.n = self.size = n
        self.label = f"M{n}(Q)"

    def __reduce__(self):
        return rationals_matrix, (self.n,)


def _power_at_most(base: int, exp: int, bound: int) -> bool:
    """Whether base**exp <= bound, for base >= 2.  The power is built only
    when the bit lengths allow it, so it is never much larger than bound."""
    return exp * (base.bit_length() - 1) <= bound.bit_length() and base**exp <= bound


class FiniteRingContext(RingContext):
    """A finite ring of n**digits elements, numbered 0..count-1.

    Every element is a string of `digits` base-n digits (one for Z/n, the
    m*m entries for M_m(Z/n)), and its number is that string read as an
    integer, the first digit most significant.  The count itself is built
    only on demand: size tests go through _power_at_most.

    A ring of at most INDEX_CAP elements is indexed.  On first use it builds
    every element once, in enumeration order, and from then on hands out
    only those objects, each carrying its index: products, sums and
    negations are found by index (_product, _sum, _negation), and so is
    each element's commuting mask, the bitset of the indices of the
    elements that commute with it (_commuting_mask; each family builds it
    its own way).  Larger rings compute every result on payloads, and
    never enumerate.
    """

    is_finite_ring = True

    def __init__(self, n: int, digits: int):
        super().__init__()
        self.n = n
        self.digits = digits
        self.indexed = _power_at_most(n, digits, INDEX_CAP)
        self._count: int | None = None
        self._elems: tuple | None = None
        self._pos: dict | None = None

    @property
    def element_count(self) -> int:
        if self._count is None:
            self._count = self.n**self.digits
        return self._count

    def _from_digits(self, digits: tuple):
        """The payload with these base-n digits."""
        raise NotImplementedError

    def _payload_at(self, i: int):
        digits = []
        for _ in range(self.digits):
            i, d = divmod(i, self.n)
            digits.append(d)
        return self._from_digits(tuple(reversed(digits)))  # first is most significant

    # index arithmetic of indexed rings, provided by subclasses
    def _product(self, i: int, j: int) -> RingElem:
        raise NotImplementedError

    def _sum(self, i: int, j: int) -> RingElem:
        raise NotImplementedError

    def _negation(self, i: int) -> RingElem:
        raise NotImplementedError

    def _commuting_mask(self, i: int) -> int:
        """Bit j is set when the elements with indices i and j commute."""
        raise NotImplementedError

    def _index(self) -> tuple:
        if self._elems is None:
            payloads = tuple(map(self._payload_at, range(self.element_count)))
            self._pos = {p: i for i, p in enumerate(payloads)}
            self._elems = tuple(RingElem(self, p, i) for i, p in enumerate(payloads))
        return self._elems

    def _wrap(self, payload) -> RingElem:
        if not self.indexed:
            return RingElem(self, payload)
        elems = self._index()
        return elems[self._pos[payload]]

    def elements(self):
        """Every element in enumeration order (indexed rings only)."""
        if not self.indexed:
            raise ContextMismatch(f"{self.label} is not indexed, so it is not enumerated")
        return self._index()

    def element_by_index(self, i: int) -> RingElem:
        if not 0 <= i < self.element_count:
            raise InputError("index out of range")
        if self.indexed:
            return self._index()[i]
        return RingElem(self, self._payload_at(i))


class _ResidueIndex:
    """Index arithmetic of a one-digit ring, Z/n or M_1(Z/n): an element's
    index is its residue mod n, so products, sums and negations are
    residue arithmetic on indices, and the ring is commutative, so every
    commuting mask is full."""

    def _product(self, i, j):
        return self._elems[i * j % self.n]

    def _sum(self, i, j):
        return self._elems[(i + j) % self.n]

    def _negation(self, i):
        return self._elems[-i % self.n]

    def _commuting_mask(self, i):
        return (1 << self.n) - 1


class ZModContext(_ResidueIndex, FiniteRingContext):
    """The ring of integers modulo n; payloads are ints in [0, n), and an
    element's index is its payload."""

    size = 1  # as for M_1(Z/n)

    def __init__(self, n: int):
        if n < 2:
            raise InputError("modulus must be >= 2")
        super().__init__(n, 1)
        self.label = f"Z/{n}"

    def __reduce__(self):
        return zmod, (self.n,)

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

    def _zero_payload(self):
        return 0

    def _one_payload(self):
        return 1 % self.n

    def _from_digits(self, digits):
        return digits[0]


class MatrixRingContext(_MatrixPayloads, FiniteRingContext):
    """m-by-m matrices over Z/n, treated as one enumerable finite ring.

    The digits of an element are its entries read row by row.  An indexed
    ring of N elements keeps one complete N-by-N product table of indices,
    cell i*N + j holding index(x_i*x_j), built on the first product or
    mask; its commuting masks compare row i of the table with column i.
    Sums and negations are sparse, so their tables (N-by-N and N cells of
    -1) fill in as results are first asked for.  M_1(Z/n) builds none of
    these: its one entry is its index, so it takes the residue index
    arithmetic of Z/n (_ResidueIndex).

    The product table is built a row at a time, with no payload product.
    Column c of x*y is x times column c of y and fills only the digits
    (r, c), so index(x*y) = sum over c of T_x[col_c(y)] * n^(m-1-c), where
    T_x maps each of the n^m column vectors v to sum over r of
    ((x*v)_r mod n) * n^(m(m-1-r)), and is summed one row r of x at a time:
    the dot products of that row with every v, in code order, are built
    one entry of the row at a time.
    """

    def __new__(cls, n: int, size: int):
        return super().__new__(_ScalarMatrixRing if size == 1 else cls)

    def __init__(self, n: int, size: int):
        if n < 2:
            raise InputError("modulus must be >= 2")
        if size < 1:
            raise InputError("matrix size must be >= 1")
        super().__init__(n, size * size)
        self.size = size
        self.domain = ModularDomain(n)
        self.eliminated = self.domain.is_field and not self.indexed
        self.label = f"M{size}(Z/{n})"
        self._products: array | None = None
        self._sums: array | None = None
        self._negations: array | None = None
        self._masks: list | None = None

    def __reduce__(self):
        return matrix_ring, (self.n, self.size)

    def _fill(self, name: str, cell: int, op, *indices) -> int:
        """Store in cell of the table `name` the index of op applied to the
        payloads of the elements with these indices, and return it.  The
        table, N**len(indices) cells of -1, is made on its first fill."""
        table = getattr(self, name)
        elems = self._elems
        if table is None:
            table = array("h", [-1]) * len(elems) ** len(indices)
            setattr(self, name, table)
        k = table[cell] = self._pos[op(*[elems[i].payload for i in indices])]
        return k

    def _product_table(self) -> array:
        """The complete product table, built on first use and kept."""
        if self._products is None:
            n, m, elems = self.n, self.size, self._elems
            # the weight of digit k of a column code, and of column k of an index
            weights = [n ** (m - 1 - k) for k in range(m)]
            row_weights = [w**m for w in weights]
            codes = [
                [sum(row[c] * w for row, w in zip(e.payload, weights)) for e in elems]
                for c in range(m)
            ]
            digits = range(n)
            table = array("h")
            for x in elems:
                t = None
                for row, w in zip(x.payload, row_weights):
                    dots = [0]  # (x*v)_r for every column vector v, in code order
                    for entry in row:
                        dots = [d + entry * k for d in dots for k in digits]
                    part = [d % n * w for d in dots]
                    t = part if t is None else map(add, t, part)
                t = list(t)
                line = None
                for column_codes, w in zip(codes, weights):
                    part = map([v * w for v in t].__getitem__, column_codes)
                    line = part if line is None else map(add, line, part)
                table.extend(line)
            self._products = table
        return self._products

    def _product(self, i, j):
        elems = self._elems
        table = self._products
        if table is None:
            table = self._product_table()
        return elems[table[i * len(elems) + j]]

    def _sum(self, i, j):
        elems = self._elems
        cell = i * len(elems) + j
        table = self._sums
        k = -1 if table is None else table[cell]
        if k < 0:
            k = self._fill("_sums", cell, self._add, i, j)
        return elems[k]

    def _negation(self, i):
        table = self._negations
        k = -1 if table is None else table[i]
        if k < 0:
            k = self._fill("_negations", i, self._neg, i)
        return self._elems[k]

    def _commuting_mask(self, i):
        masks = self._masks
        if masks is None:
            masks = self._masks = [None] * len(self._elems)
        mask = masks[i]
        if mask is None:
            table, count = self._product_table(), len(self._elems)
            row, column = table[i * count : (i + 1) * count], table[i::count]
            # bytes of 0/1 per index, highest index first, read as binary
            mask = masks[i] = int(bytes(map(eq, row, column))[::-1].translate(_BITS), 2)
        return mask

    def _from_digits(self, digits):
        return linalg.mat_unflatten(digits, self.size, self.size)


class _ScalarMatrixRing(_ResidueIndex, MatrixRingContext):
    """M_1(Z/n), which MatrixRingContext(n, 1) builds."""


@lru_cache(maxsize=None)
def rationals_matrix(n: int) -> MatrixContext:
    """Context of n-by-n matrices over the rationals."""
    return MatrixContext(n)


@lru_cache(maxsize=None)
def zmod(n: int) -> ZModContext:
    return ZModContext(n)


@lru_cache(maxsize=None)
def matrix_ring(n: int, size: int) -> MatrixRingContext:
    return MatrixRingContext(n, size)


# The ring of the sweep block now running, when its elements were within the
# budget as the block started (budget_block); None outside such a block
_block_ring: FiniteRingContext | None = None


def require_budget(
    ctx: FiniteRingContext,
    power: int = 1,
    unit: str = "elements",
    default: int = DEFAULT_ENUMERATION_BUDGET,
) -> None:
    """Raise BudgetExceeded when |ctx|**power exceeds the active budget.

    Every count checked against CLINE_LAB_BUDGET goes through here: the
    elements of a searched or powered finite ring and the triples of an
    exhaustive sweep (power 3, default DEFAULT_TRIPLE_BUDGET).  No engine
    choice reads it.  A count far over the budget is neither built nor
    printed in full.  The element check of the ring of a running sweep
    block passes without reading the variable: it was read when the block
    started.
    """
    if ctx is _block_ring and power == 1 and default == DEFAULT_ENUMERATION_BUDGET:
        return
    limit = enumeration_budget(default)
    n, exp = ctx.n, ctx.digits * power
    if not _power_at_most(n, exp, limit):
        label = ctx.label if power == 1 else f"{ctx.label}^{power}"
        count = n**exp if exp == 1 or _power_at_most(n, exp, 2**64) else f"{n}^{exp}"
        raise BudgetExceeded(f"{label} has {count} {unit}, over the budget {limit}")


@contextmanager
def budget_block(ctx: FiniteRingContext):
    """Read the element budget of an enumerated ring once for a block of
    work on it (a sweep's scan), not on each of its lookups.

    When ctx is within the budget as the block starts, require_budget(ctx)
    at the element default passes without reading CLINE_LAB_BUDGET until
    the block ends, however it ends.  Otherwise, and on an eliminated ring,
    which no enumeration reaches, every call reads the variable, as outside
    a block, and raises where it would have.
    """
    global _block_ring
    previous = _block_ring
    if not ctx.eliminated and _power_at_most(ctx.n, ctx.digits, enumeration_budget()):
        _block_ring = ctx
    try:
        yield
    finally:
        _block_ring = previous


def _det(x: RingElem) -> int:
    """The integer determinant of x's entries, kept per payload (M_m(Z/n)):
    is_unit and try_inverse both read it."""
    return x.ctx.cached(("det", x.payload), lambda: linalg.det_int(x.payload))


def is_unit(x: RingElem) -> bool:
    """Whether x has a two-sided multiplicative inverse.

    Matrices over Q: full rank.  Matrices over Z/n: unit determinant
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
        return math.gcd(_det(x), ctx.n) == 1
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

        def compute():
            # adj(x) = det(x) * x^-1 over Q is an integer matrix, so
            # x^-1 = adj(x) * (det mod n)^-1 mod n
            det = _det(x)
            scale = pow(det, -1, ctx.n)
            inv = linalg.inverse(linalg.QQ, linalg.QMatrix(x.payload))
            return ctx._wrap(
                tuple(
                    tuple(v * det // inv.den * scale % ctx.n for v in row) for row in inv.num
                )
            )

        return ctx.cached(("inverse", x.payload), compute)
    if isinstance(ctx, ZModContext):
        try:
            return ctx._wrap(pow(x.payload, -1, ctx.n))
        except ValueError:
            return None
    raise ContextMismatch(f"unsupported context {ctx.label}")


def nilpotency(x: RingElem) -> NilpotencyWitness:
    """Nilpotency test with exact index, by at most B powers of x, stopping
    at the first power that repeats an earlier one (the powers then cycle
    without reaching 0).

    An m-by-m matrix over a field has index at most m, so B = m there.  A
    nilpotent N in M_m(Z/p^e) has N^m in pM_m, so N^(m*e) = 0, and by the
    Chinese remainder theorem the index over Z/n is at most m*e_max <=
    m*log2(n); so B = m * n.bit_length() otherwise (Z/n is M_1(Z/n)).
    """
    ctx = x.ctx

    def compute():
        bound = ctx.size
        if ctx.domain is None or not ctx.domain.is_field:
            bound *= ctx.n.bit_length()
        zero, seen = ctx.zero(), set()
        p = x
        for k in range(1, bound + 1):
            if p == zero:
                return NilpotencyWitness(True, k)
            if p in seen:
                break
            seen.add(p)
            p = p * x
        return NilpotencyWitness(False, None)

    return ctx.cached(("nilpotency", x.payload), compute)


def _require_index(ctx: RingContext, caller: str) -> None:
    """The element budget of a finite ring, then an index (over Q a
    commutant is an infinite set)."""
    if ctx.is_finite_ring:
        require_budget(ctx)
    if not ctx.indexed:
        raise ContextMismatch(f"{caller} enumerates its ring; {ctx.label} is not indexed")


def commutant(x: RingElem):
    """comm(x), the elements that commute with x, in enumeration order,
    read off x's commuting mask (indexed rings only)."""
    ctx = x.ctx
    _require_index(ctx, "commutant")
    mask = ctx._commuting_mask(x.idx)
    return tuple(y for y in ctx._elems if mask >> y.idx & 1)


def in_double_commutant(b: RingElem, a: RingElem) -> bool:
    """Whether b commutes with everything that commutes with a: whether
    every bit of a's commuting mask is set in b's (indexed rings only)."""
    ctx = a.ctx
    if b.ctx is not ctx:
        raise ContextMismatch("double-commutant test needs a common ring")
    _require_index(ctx, "in_double_commutant")
    return ctx._commuting_mask(a.idx) & ~ctx._commuting_mask(b.idx) == 0


def is_quasinilpotent(x: RingElem) -> bool:
    """Whether 1 + yx is a unit for every y commuting with x.

    Indexed rings decide the quantifier over the commutant.  On any other
    ring, over a field or finite, quasinilpotent means nilpotent (Koliha,
    Glasgow Math. J. 38, 1996), and is answered so, with no enumeration and,
    when eliminated, no budget check.
    """
    ctx = x.ctx
    if not ctx.eliminated:
        require_budget(ctx)
    if not ctx.indexed:
        return nilpotency(x).is_nilpotent

    def compute():
        one = ctx.one()
        return all(is_unit(one + y * x) for y in commutant(x))

    return ctx.cached(("qnil", x.payload), compute)
