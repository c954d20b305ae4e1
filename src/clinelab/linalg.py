"""Exact dense matrix routines over the two entry domains the package uses:
rationals (stdlib Fraction) and integers modulo n.

Matrices are immutable tuples of row tuples.  Nothing in here ever touches
floating point.  Division-based routines (rref, rank, inverse, nullspace)
require the domain to be a field; purely multiplicative ones (mat_mul,
det_int) work over any modulus.
"""

from __future__ import annotations

from fractions import Fraction
from operator import mul as _mul

Matrix = tuple  # tuple[tuple[entry, ...], ...]


def is_probable_prime(n: int) -> bool:
    """Deterministic trial division; moduli in this package are small."""
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
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
        self.is_field = is_probable_prime(n)
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


def _int_valued(a: Matrix) -> bool:
    return all(v.denominator == 1 for row in a for v in row)


def mat_mul(dom, a: Matrix, b: Matrix) -> Matrix:
    cols = tuple(zip(*b))
    if isinstance(dom, ModularDomain):
        n = dom.n
        return tuple(
            tuple(sum(map(_mul, row, col)) % n for col in cols) for row in a
        )
    # integer-valued rational matrices multiply on plain ints (much faster)
    if _int_valued(a) and _int_valued(b):
        ai = tuple(tuple(v.numerator for v in row) for row in a)
        cols_i = tuple(tuple(v.numerator for v in col) for col in cols)
        return tuple(
            tuple(Fraction(sum(map(_mul, row, col))) for col in cols_i) for row in ai
        )
    return tuple(tuple(sum(map(_mul, row, col)) for col in cols) for row in a)


def rref(dom, a: Matrix):
    """Gauss-Jordan over a field.

    Returns (R, E, pivots) with E*a = R, R in reduced row echelon form,
    E invertible, and pivots the tuple of pivot column indices in
    increasing order (pivot row choice: topmost nonzero candidate).
    """
    if not dom.is_field:
        raise ValueError("rref requires a field domain")
    nrows = len(a)
    ncols = len(a[0]) if nrows else 0
    r = [list(row) for row in a]
    e = [list(row) for row in identity(dom, nrows)]
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


def rank(dom, a: Matrix) -> int:
    return len(rref(dom, a)[2])


def inverse(dom, a: Matrix) -> Matrix | None:
    """Two-sided inverse of a square matrix over a field, or None."""
    n = len(a)
    _, e, pivots = rref(dom, a)
    if len(pivots) != n:
        return None
    return e


def inner_inverse(dom, a: Matrix) -> Matrix:
    """Some G with a*G*a = a, for square a over a field.

    Built from the recorded row operations: with E*a = R (RREF, pivot
    columns j_0 < j_1 < ...), placing row i of E into row j_i of an
    otherwise-zero matrix gives an inner inverse.
    """
    n = len(a)
    _, e, pivots = rref(dom, a)
    g = [[dom.zero] * n for _ in range(n)]
    for i, j in enumerate(pivots):
        g[j] = list(e[i])
    return tuple(tuple(row) for row in g)


def nullspace_basis(dom, a: Matrix):
    """Basis vectors (tuples) of the right nullspace of a over a field."""
    nrows = len(a)
    ncols = len(a[0]) if nrows else 0
    r, _, pivots = rref(dom, a)
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
