"""Exact dense matrix routines over the two entry domains the package uses:
rationals (stdlib Fraction) and integers modulo n.

Matrices are immutable tuples of row tuples.  Nothing in here ever touches
floating point.  Division-based routines (rref, rank, inverse, extend_basis)
require the domain to be a field; purely multiplicative ones (mat_mul,
det_int) work over any modulus.

rank and drazin's Krylov pass share one echelon kernel, extend_basis, on
every field.  Over Q the kernels never do arithmetic on Fractions.  mat_mul
scales each row of a and each column of b by the lcm of its denominators
and takes integer dot products.  extend_basis and rref eliminate
fraction-free on integer rows, as in Bareiss (Math. Comp. 22, 1968), but
divide each new row by its content rather than by the previous pivot.
Fractions are built only for the result; rref's is exactly what the
field-generic _rref_field, the routine Z/p uses, returns.
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


def int_vector(v) -> list:
    """The primitive integer vector spanning the same line as rational v."""
    return primitive(_scaled((v,))[0][0])


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


def rref(dom, a: Matrix):
    """Gauss-Jordan over a field.

    Returns (R, E, pivots) with E*a = R, R in reduced row echelon form,
    E invertible, and pivots the tuple of pivot column indices in
    increasing order (pivot row choice: topmost nonzero candidate).
    """
    if dom is QQ:
        return _rref_q(a)
    return _rref_field(dom, a)


def _rref_field(dom, a: Matrix):
    """rref over any field, on the domain's own entries."""
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


def _rref_q(a: Matrix):
    """rref over Q by the same Gauss-Jordan steps on integer rows of [a | I].

    Row i starts as d_i * [a_i | e_i] (d_i its denominator lcm).  Pivot
    choices depend only on which entries are zero, and eliminating with
    pc * r - f * p in place of r - (f / pc) * p keeps every row a nonzero
    multiple of the Fraction routine's row, so dividing back at the end
    gives its (R, E, pivots) exactly.  A pivot row is divided by its pivot.
    The Fraction routine never scales a non-pivot row, nor subtracts it from
    another, so its E entry at its original row's position stays 1; such a
    row is divided by that entry.
    """
    nrows = len(a)
    ncols = len(a[0]) if nrows else 0
    rows = []
    for i, (ints, d) in enumerate(_scaled(a)):
        unit = [0] * nrows
        unit[i] = d
        rows.append(primitive(ints + unit))
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
        pc = p[col]
        for i in range(nrows):
            f = rows[i][col]
            if f and i != prow:
                rows[i] = primitive([pc * x - f * y for x, y in zip(rows[i], p)])
        pivots.append(col)
        prow += 1
    r, e = [], []
    for i, row in enumerate(rows):
        s = row[pivots[i]] if i < prow else row[ncols + origin[i]]
        r.append(tuple(Fraction(x, s) for x in row[:ncols]))
        e.append(tuple(Fraction(x, s) for x in row[ncols:]))
    return tuple(r), tuple(e), tuple(pivots)


def extend_basis(dom, basis: list, v: list) -> bool:
    """Reduce v against basis (a list of (pivot, row) pairs built by this
    function) and append what remains when it is nonzero.  Returns whether
    v was independent of basis.

    Over Q, v is an integer vector (see int_vector) and is reduced
    fraction-free, each step divided by its content.  Over Z/p, v holds
    residues, and each new row is scaled to pivot 1.
    """
    if dom is QQ:
        for pivot, row in basis:
            f = v[pivot]
            if f:
                v = primitive([row[pivot] * x - f * y for x, y in zip(v, row)])
    else:
        for pivot, row in basis:
            f = v[pivot]
            if f:
                v = [(x - f * y) % dom.n for x, y in zip(v, row)]
    pivot = next((i for i, x in enumerate(v) if x), None)
    if pivot is None:
        return False
    if dom is not QQ:
        inv = dom.inv(v[pivot])
        v = [x * inv % dom.n for x in v]
    basis.append((pivot, v))
    return True


def rank(dom, a: Matrix) -> int:
    basis: list = []
    rows = map(int_vector, a) if dom is QQ else map(list, a)
    return sum(extend_basis(dom, basis, row) for row in rows)


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
