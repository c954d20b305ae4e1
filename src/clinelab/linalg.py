"""Exact dense matrix routines over the two entry domains the package uses:
rationals and integers modulo n.

A matrix over Z/n is a tuple of row tuples of residues.  A matrix over Q is
a QMatrix: integer rows over one positive common denominator, in lowest
terms, so equal matrices have equal payloads and the kernels work on ints
alone.  Nothing in here ever touches floating point.  Division-based
routines (rref, rank, inverse, extend_basis) require the domain to be a
field; purely multiplicative ones (mat_mul, det_int) work over any modulus.

All exact elimination runs on one row step, _eliminate, which clears an
entry of v with pivot row p as p[col]*v - v[col]*p and never divides:
over Q it then divides by the content of the integer row, as in Bareiss
(Math. Comp. 22, 1968) but by the content rather than the previous pivot;
over Z/p it reduces modulo the prime.  rref (and with it inverse) and extend_basis
(and with it rank and drazin's span test) are its only callers, so each
field's row arithmetic is written once.  Over Q no kernel does arithmetic on
Fractions: a product is the integer dot products of the numerators over the
product of the denominators, reduced by one content gcd.

faddeev_leverrier is the one characteristic-polynomial kernel: one pass on
integer rows gives spectra.char_poly the integer coefficients on which it
takes the squarefree part, and drazin_matrix its Drazin inverse.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul as _mul

from .errors import InputError

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
    """Field of rationals.  Matrices over it are QMatrix payloads; an entry,
    as their rows give it, is a Fraction in lowest terms."""

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


class QMatrix:
    """A matrix over Q: the integer rows num over the common denominator den.

    den > 0 and gcd(den, every entry of num) = 1, so a rational matrix has
    exactly one QMatrix, and == and hash read only ints.  len, indexing and
    iteration give the rows as tuples of Fractions, built on demand: output
    and reference code read entries that way, the kernels read num and den.
    The constructor does not reduce; a result that may not be in lowest
    terms goes through _lowest.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: tuple, den: int = 1):
        self.num = num
        self.den = den

    def __eq__(self, other):
        if not isinstance(other, QMatrix):
            return NotImplemented
        return self.den == other.den and self.num == other.num

    def __hash__(self):
        return hash((self.num, self.den))

    def __len__(self):
        return len(self.num)

    def __getitem__(self, i: int) -> tuple:
        den = self.den
        return tuple(Fraction(x, den) for x in self.num[i])

    def __iter__(self):
        return map(self.__getitem__, range(len(self.num)))

    def __repr__(self):
        return repr(tuple(self))


Matrix = tuple | QMatrix  # over Z/n a tuple of row tuples of residues


def _lowest(num: tuple, den: int) -> QMatrix:
    """num / den as a QMatrix, for integer rows num and a nonzero den."""
    if den < 0:
        num, den = tuple(tuple(-x for x in row) for row in num), -den
    g = den
    for row in num:
        g = gcd(g, *row)
        if g == 1:
            return QMatrix(num, den)
    return QMatrix(tuple(tuple(x // g for x in row) for row in num), den // g)


def _ratio(v) -> tuple[int, int]:
    """(numerator, denominator) of v in lowest terms; a Fraction is built
    only for an entry that is not exactly an int or a Fraction."""
    t = type(v)
    if t is int:
        return v, 1
    if t is not Fraction:
        v = Fraction(v)
    return v.numerator, v.denominator


def mat_canon(dom, rows) -> Matrix:
    if dom is not QQ:
        return tuple(tuple(dom.canon(v) for v in row) for row in rows)
    parts = [[_ratio(v) for v in row] for row in rows]
    # with den the lcm of lowest-terms denominators, no prime divides den
    # and every numerator, so the result is already in lowest terms
    den = lcm(*[q for row in parts for _, q in row])
    return QMatrix(tuple(tuple(p * (den // q) for p, q in row) for row in parts), den)


def identity(dom, n: int) -> Matrix:
    rows = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    return QMatrix(rows) if dom is QQ else rows


def zeros(dom, n: int, m: int | None = None) -> Matrix:
    m = n if m is None else m
    rows = tuple((0,) * m for _ in range(n))
    return QMatrix(rows) if dom is QQ else rows


def mat_add(dom, a: Matrix, b: Matrix) -> Matrix:
    if isinstance(dom, ModularDomain):
        n = dom.n
        return tuple(tuple((x + y) % n for x, y in zip(ra, rb)) for ra, rb in zip(a, b))
    den = lcm(a.den, b.den)
    fa, fb = den // a.den, den // b.den
    return _lowest(
        tuple(
            tuple(fa * x + fb * y for x, y in zip(ra, rb)) for ra, rb in zip(a.num, b.num)
        ),
        den,
    )


def mat_neg(dom, a: Matrix) -> Matrix:
    if isinstance(dom, ModularDomain):
        n = dom.n
        return tuple(tuple((-x) % n for x in row) for row in a)
    return QMatrix(tuple(tuple(-x for x in row) for row in a.num), a.den)


def primitive(v: list) -> list:
    """The integer vector v divided by its content (gcd of its entries)."""
    g = gcd(*v)
    return v if g < 2 else [x // g for x in v]


def mat_mul(dom, a: Matrix, b: Matrix) -> Matrix:
    if isinstance(dom, ModularDomain):
        n = dom.n
        cols = tuple(zip(*b))
        return tuple(
            tuple(sum(map(_mul, row, col)) % n for col in cols) for row in a
        )
    cols = tuple(zip(*b.num))
    return _lowest(
        tuple(tuple(sum(map(_mul, row, col)) for col in cols) for row in a.num),
        a.den * b.den,
    )


def mat_combination(dom, c: int, rows: tuple, d: int) -> Matrix:
    """The matrix (c/d) * rows, for integer rows, an integer c and an
    integer d that is a unit of the domain."""
    if isinstance(dom, ModularDomain):
        n = dom.n
        f = c * dom.inv(d % n)
        return tuple(tuple(x * f % n for x in row) for row in rows)
    return _lowest(tuple(tuple(c * x for x in row) for row in rows), d)


def faddeev_leverrier(rows: tuple):
    """Yield (c_k, B_k) for k = 0..n, for a square matrix M of integer rows:
    det(x I - M) = sum_k c_k x^(n-k) and B_k = sum_(i<=k) c_i M^(k-i).

    B_0 = I, c_k = -tr(M B_(k-1))/k and B_k = M B_(k-1) + c_k I, on plain
    ints; every division is exact over Z, and B_n = 0 (Cayley-Hamilton).
    """
    n = len(rows)
    # M B_(k-1) is formed row by row as a combination of the rows of
    # B_(k-1), over the nonzero entries of that row of M only
    support = [[(j, v) for j, v in enumerate(row) if v] for row in rows]
    b = [[int(i == j) for j in range(n)] for i in range(n)]
    yield 1, b
    for k in range(1, n + 1):
        prev, b = b, []
        for entries in support:
            acc = [0] * n
            for j, v in entries:
                acc = [x + v * y for x, y in zip(acc, prev[j])]
            b.append(acc)
        c, r = divmod(-sum(b[i][i] for i in range(n)), k)
        if r:
            raise AssertionError("Faddeev-LeVerrier integer division not exact")
        for i in range(n):
            b[i][i] += c
        yield c, b


def int_rows(dom, a: Matrix) -> tuple:
    """(rows, den) with a = rows / den and rows of ints: (num, den) of a
    QMatrix over Q, (a, 1) over Z/n."""
    return (a.num, a.den) if dom is QQ else (a, 1)


def as_row(dom, ints, den: int = 1, tail=()) -> list:
    """The vector ints/den ++ tail as an elimination row: over Q the
    primitive integer vector ints ++ den*tail on its line, over Z/p the
    residues ints ++ tail."""
    if dom is QQ:
        return primitive([*ints, *(den * t for t in tail)])
    return [*ints, *tail]


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
    num, den = int_rows(dom, a)
    nrows = len(num)
    ncols = len(num[0]) if nrows else 0
    rows = [
        as_row(dom, ai, den, [int(i == j) for j in range(nrows)]) for i, ai in enumerate(num)
    ]
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
    r, e, scales = [], [], []
    for i, v in enumerate(rows):
        s = v[pivots[i]] if i < prow else v[ncols + origin[i]]
        if dom is not QQ:
            s = dom.inv(s)
            v = [x * s % dom.n for x in v]
        r.append(tuple(v[:ncols]))
        e.append(tuple(v[ncols:]))
        scales.append(s)
    if dom is QQ:
        return _divided(r, scales), _divided(e, scales), tuple(pivots)
    return tuple(r), tuple(e), tuple(pivots)


def _divided(rows: list, scales: list) -> QMatrix:
    """The rational matrix whose row i is rows[i] / scales[i], for integer
    rows and nonzero integer scales."""
    den = lcm(*scales)
    return _lowest(
        tuple(tuple(x * (den // s) for x in row) for row, s in zip(rows, scales)), den
    )


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
    return sum(extend_basis(dom, basis, as_row(dom, v)) for v in int_rows(dom, a)[0])


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
