"""Exact dense matrix routines over the two entry domains the package uses:
rationals (stdlib Fraction) and integers modulo n.

Matrices are immutable tuples of row tuples.  Nothing in here ever touches
floating point.  Division-based routines (rref, rank, inverse, extend_basis)
require the domain to be a field; purely multiplicative ones (mat_mul,
det_int) work over any modulus.

All exact elimination runs on one row step, _eliminate, which clears an
entry of v with pivot row p as p[col]*v - v[col]*p and never divides:
over Q it then divides by the content of the integer row, as in Bareiss
(Math. Comp. 22, 1968) but by the content rather than the previous pivot;
over Z/p it reduces modulo the prime.  rref (and with it inverse) and extend_basis
(and with it rank and drazin's Krylov pass) are its only callers, so each
field's row arithmetic is written once.  Over Q the kernels never do
arithmetic on Fractions: mat_mul scales each row of a and each column of b
by the lcm of its denominators and takes integer dot products, and rref
builds Fractions only for its result.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul as _mul

from .errors import InputError

Matrix = tuple  # tuple[tuple[entry, ...], ...]


# The first 13 primes.  No composite below MILLER_RABIN_BOUND is a strong
# pseudoprime to all of them (Sorenson & Webster, Math. Comp. 86, 2017);
# the bound itself is the least one that is.
_MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MILLER_RABIN_BOUND = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin on the bases 2..41.

    n with a factor among the bases is decided by that factor; any other n
    of at least MILLER_RABIN_BOUND is beyond the proven range and raises
    InputError.
    """
    if n < 2:
        return False
    for p in _MILLER_RABIN_BASES:
        if n % p == 0:
            return n == p
    if n >= MILLER_RABIN_BOUND:
        raise InputError(f"modulus {n} is beyond the proven primality range")
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MILLER_RABIN_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class RationalDomain:
    """Field of rationals; entries are Fractions in lowest terms."""

    is_field = True
    zero = Fraction(0)
    one = Fraction(1)

    def canon(self, v):
        return Fraction(v)

    def inv(self, v):
        return 1 / v

    def __repr__(self):
        return "Q"


class ModularDomain:
    """Integers modulo n; entries are ints in [0, n).  A field iff n is prime."""

    def __init__(self, n: int):
        if n < 2:
            raise ValueError("modulus must be >= 2")
        self.n = n
        self.is_field = is_prime(n)
        self.zero = 0
        self.one = 1 % n

    def canon(self, v):
        return int(v) % self.n

    def inv(self, v):
        if not self.is_field:
            raise ValueError(f"Z/{self.n} is not a field")
        return pow(v, -1, self.n)

    def __repr__(self):
        return f"Z/{self.n}"


QQ = RationalDomain()


def mat_canon(dom, rows) -> Matrix:
    return tuple(tuple(dom.canon(v) for v in row) for row in rows)


def identity(dom, n: int) -> Matrix:
    one, zero = dom.one, dom.zero
    return tuple(tuple(one if i == j else zero for j in range(n)) for i in range(n))


def zeros(dom, n: int, m: int | None = None) -> Matrix:
    zero = dom.zero
    m = n if m is None else m
    return tuple((zero,) * m for _ in range(n))


def mat_add(dom, a: Matrix, b: Matrix) -> Matrix:
    if isinstance(dom, ModularDomain):
        n = dom.n
        return tuple(tuple((x + y) % n for x, y in zip(ra, rb)) for ra, rb in zip(a, b))
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mat_neg(dom, a: Matrix) -> Matrix:
    if isinstance(dom, ModularDomain):
        n = dom.n
        return tuple(tuple((-x) % n for x in row) for row in a)
    return tuple(tuple(-x for x in row) for row in a)


def _scaled(vectors):
    """Each rational vector as (ints, d): d the lcm of its denominators and
    ints the integer vector d * v."""
    out = []
    for v in vectors:
        d = lcm(*[x.denominator for x in v])
        if d == 1:
            out.append(([x.numerator for x in v], 1))
        else:
            out.append(([x.numerator * (d // x.denominator) for x in v], d))
    return out


def primitive(v: list) -> list:
    """The integer vector v divided by its content (gcd of its entries)."""
    g = gcd(*v)
    return v if g < 2 else [x // g for x in v]


def mat_mul(dom, a: Matrix, b: Matrix) -> Matrix:
    cols = tuple(zip(*b))
    if isinstance(dom, ModularDomain):
        n = dom.n
        return tuple(
            tuple(sum(map(_mul, row, col)) % n for col in cols) for row in a
        )
    cols_i = _scaled(cols)
    return tuple(
        tuple(
            Fraction(sum(map(_mul, row, col)), d_row * d_col)
            for col, d_col in cols_i
        )
        for row, d_row in _scaled(a)
    )


def as_row(dom, v) -> list:
    """v as an elimination row: over Q the primitive integer vector on the
    same line, over Z/p the list of its residues."""
    return primitive(_scaled((v,))[0][0]) if dom is QQ else list(v)


def _eliminate(dom, v, p, col):
    """Row v with its col entry cleared by pivot row p: p[col]*v - v[col]*p,
    divided by its content over Q and reduced modulo the prime over Z/p.
    The result is a nonzero multiple of v - (v[col]/p[col])*p."""
    pc, f = p[col], v[col]
    w = [pc * x - f * y for x, y in zip(v, p)]
    return primitive(w) if dom is QQ else [x % dom.n for x in w]


def rref(dom, a: Matrix):
    """Gauss-Jordan over a field.

    Returns (R, E, pivots) with E*a = R, R in reduced row echelon form,
    E invertible, and pivots the tuple of pivot column indices in
    increasing order (pivot row choice: topmost nonzero candidate).

    The rows of [a | I] are eliminated with _eliminate, which never
    divides.  Pivot choices depend only on which entries are zero, and
    every row stays a nonzero multiple of the textbook routine's row (the
    one that scales each pivot row to pivot 1), so dividing back at the end
    gives its (R, E, pivots) exactly.  A pivot row is divided by its pivot.
    The textbook routine never scales a non-pivot row, nor subtracts it
    from another, so its E entry at its original row's position stays 1;
    such a row is divided by that entry.
    """
    if not dom.is_field:
        raise ValueError("rref requires a field domain")
    nrows = len(a)
    ncols = len(a[0]) if nrows else 0
    rows = [as_row(dom, (*ai, *ei)) for ai, ei in zip(a, identity(dom, nrows))]
    origin = list(range(nrows))
    pivots = []
    prow = 0
    for col in range(ncols):
        if prow == nrows:
            break
        sel = next((i for i in range(prow, nrows) if rows[i][col]), None)
        if sel is None:
            continue
        if sel != prow:
            rows[prow], rows[sel] = rows[sel], rows[prow]
            origin[prow], origin[sel] = origin[sel], origin[prow]
        p = rows[prow]
        for i in range(nrows):
            if i != prow and rows[i][col]:
                rows[i] = _eliminate(dom, rows[i], p, col)
        pivots.append(col)
        prow += 1
    r, e = [], []
    for i, v in enumerate(rows):
        s = v[pivots[i]] if i < prow else v[ncols + origin[i]]
        if dom is QQ:
            v = [Fraction(x, s) for x in v]
        else:
            s = dom.inv(s)
            v = [x * s % dom.n for x in v]
        r.append(tuple(v[:ncols]))
        e.append(tuple(v[ncols:]))
    return tuple(r), tuple(e), tuple(pivots)


def extend_basis(dom, basis: list, v: list) -> bool:
    """Reduce v against basis (a list of (pivot, row) pairs built by this
    function) and append what remains when it is nonzero.  Returns whether
    v was independent of basis.

    v is a row made by as_row, and each step is _eliminate, so a row is
    known only up to a nonzero scalar: integers with content 1 over Q,
    residues with an arbitrary nonzero pivot over Z/p.
    """
    for pivot, p in basis:
        if v[pivot]:
            v = _eliminate(dom, v, p, pivot)
    pivot = next((i for i, x in enumerate(v) if x), None)
    if pivot is None:
        return False
    basis.append((pivot, v))
    return True


def rank(dom, a: Matrix) -> int:
    basis: list = []
    return sum(extend_basis(dom, basis, as_row(dom, v)) for v in a)


def inverse(dom, a: Matrix) -> Matrix | None:
    """Two-sided inverse of a square matrix over a field, or None."""
    n = len(a)
    _, e, pivots = rref(dom, a)
    if len(pivots) != n:
        return None
    return e


def det_int(a) -> int:
    """Exact integer determinant via fraction-free Bareiss elimination.

    Entries must be Python ints.  Used to decide unit-ness of matrices
    over Z/n (lift, take det over Z, reduce mod n).
    """
    n = len(a)
    if n == 0:
        return 1
    m = [list(row) for row in a]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = m[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * pivot - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = pivot
    return sign * m[n - 1][n - 1]


def mat_flatten(a: Matrix) -> tuple:
    return tuple(v for row in a for v in row)


def mat_unflatten(vec, n: int, m: int) -> Matrix:
    return tuple(tuple(vec[i * m + j] for j in range(m)) for i in range(n))
