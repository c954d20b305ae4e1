"""Independent exact arithmetic for checking clinelab's answers.

Nothing here imports clinelab: the benchmark recomputes what it checks with
its own dense matrix code over a field, either the rationals (Fraction
entries) or F_p (int entries reduced mod p).  Matrices are lists of row
lists.
"""

from __future__ import annotations

from fractions import Fraction


class Field:
    """The rationals (p = None) or the integers mod a prime p."""

    def __init__(self, p: int | None = None):
        self.p = p

    def canon(self, v):
        return Fraction(v) if self.p is None else int(v) % self.p

    def inv(self, v):
        return 1 / Fraction(v) if self.p is None else pow(v, -1, self.p)


QQ = Field()


def identity(f: Field, n: int):
    return [[f.canon(1 if i == j else 0) for j in range(n)] for i in range(n)]


def mat_mul(f: Field, a, b):
    cols = list(zip(*b))
    return [[f.canon(sum(x * y for x, y in zip(row, col))) for col in cols] for row in a]


def mat_add(f: Field, a, b, scale=1):
    return [[f.canon(x + scale * y) for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_scale(f: Field, s, a):
    return [[f.canon(s * x) for x in row] for row in a]


def block_diag(f: Field, top, bottom):
    n, m = len(top), len(bottom)
    rows = [list(r) + [f.canon(0)] * m for r in top]
    rows += [[f.canon(0)] * n + list(r) for r in bottom]
    return rows


def _eliminate(f: Field, a):
    """Gauss-Jordan on [a | I]; returns (rank, the right half)."""
    n = len(a)
    r = [[f.canon(x) for x in row] + [f.canon(1 if i == j else 0) for j in range(n)]
         for i, row in enumerate(a)]
    rank = 0
    for col in range(n):
        sel = next((i for i in range(rank, n) if r[i][col] != 0), None)
        if sel is None:
            continue
        r[rank], r[sel] = r[sel], r[rank]
        piv = f.inv(r[rank][col])
        r[rank] = [f.canon(piv * x) for x in r[rank]]
        for i in range(n):
            if i != rank and r[i][col] != 0:
                g = r[i][col]
                r[i] = [f.canon(x - g * y) for x, y in zip(r[i], r[rank])]
        rank += 1
    return rank, [row[n:] for row in r]


def rank(f: Field, a) -> int:
    return _eliminate(f, a)[0]


def inverse(f: Field, a):
    full, inv = _eliminate(f, a)
    if full != len(a):
        raise ValueError("singular matrix")
    return inv


def drazin_index(f: Field, a) -> int:
    """Smallest k with rank(a^k) == rank(a^(k+1))."""
    n = len(a)
    p = identity(f, n)
    prev = n
    k = 0
    while True:
        p = mat_mul(f, p, a)
        r = rank(f, p)
        if r == prev:
            return k
        prev = r
        k += 1


def is_drazin_inverse(f: Field, a, x, index: int) -> bool:
    """The three defining equations with the minimal index; they determine x."""
    if index != drazin_index(f, a):
        return False
    ak = identity(f, len(a))
    for _ in range(index):
        ak = mat_mul(f, ak, a)
    ax = mat_mul(f, a, x)
    return (
        ax == mat_mul(f, x, a)
        and mat_mul(f, x, ax) == x
        and mat_mul(f, mat_mul(f, ak, a), x) == ak
    )


# --- 2 x 2 matrices over Z/n, for the sweeps --------------------------------


def _mat2(modulus: int, i: int):
    """Element i of M_2(Z/n): base-n digits, most significant first, row-major."""
    d = []
    for _ in range(4):
        i, r = divmod(i, modulus)
        d.append(r)
    return ((d[3], d[2]), (d[1], d[0]))


def mat2_mul(x, y, m):
    return (
        ((x[0][0] * y[0][0] + x[0][1] * y[1][0]) % m, (x[0][0] * y[0][1] + x[0][1] * y[1][1]) % m),
        ((x[1][0] * y[0][0] + x[1][1] * y[1][0]) % m, (x[1][0] * y[0][1] + x[1][1] * y[1][1]) % m),
    )


def mat2_commutant_sizes(modulus: int) -> dict:
    """|comm(x)| for every x in M_2(Z/n)."""
    elems = [_mat2(modulus, i) for i in range(modulus**4)]
    return {x: sum(mat2_mul(x, y, modulus) == mat2_mul(y, x, modulus) for y in elems)
            for x in elems}


def mat2_hypothesis(modulus: int, idx: int):
    """(holds, aba == aca, (a, b, c)) for triple number idx of M_2(Z/n),
    where idx = (i_a * |R| + i_b) * |R| + i_c."""
    count = modulus**4
    a, b, c = (_mat2(modulus, i) for i in (idx // count**2, idx // count % count, idx % count))
    ab, ac = mat2_mul(a, b, modulus), mat2_mul(a, c, modulus)
    p = [mat2_mul(mat2_mul(x, y, modulus), a, modulus) for x, y in ((ab, ab), (ab, ac), (ac, ab), (ac, ac))]
    holds = p[0] == p[1] == p[2] == p[3]
    return holds, mat2_mul(ab, a, modulus) == mat2_mul(ac, a, modulus), (a, b, c)


# --- polynomials over Q, ascending coefficient lists -----------------------


def _norm(p):
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    return p


def char_poly(a):
    """det(xI - a) over Q from the power sums tr(a^k) (Newton's identities)."""
    n = len(a)
    sums = []
    p = identity(QQ, n)
    for _ in range(n):
        p = mat_mul(QQ, p, a)
        sums.append(sum(p[i][i] for i in range(n)))
    e = [Fraction(1)]  # elementary symmetric functions of the eigenvalues
    for k in range(1, n + 1):
        acc = sum((-1) ** (i - 1) * e[k - i] * sums[i - 1] for i in range(1, k + 1))
        e.append(acc / k)
    return [(-1) ** (n - d) * e[n - d] for d in range(n + 1)]


def _divmod(f, g):
    f, g = _norm(f), _norm(g)
    q = [Fraction(0)] * max(len(f) - len(g) + 1, 1)
    r = list(f)
    while len(_norm(r)) >= len(g):
        r = _norm(r)
        shift = len(r) - len(g)
        c = r[-1] / g[-1]
        q[shift] = c
        for i, v in enumerate(g):
            r[shift + i] -= c * v
    return _norm(q), _norm(r)


def _monic(p):
    p = _norm(p)
    return [Fraction(v) / p[-1] for v in p] if p else p


def squarefree_nonzero_part(p):
    """Monic squarefree part of p with the factor x removed."""
    a, b = _norm(p), _norm([i * v for i, v in enumerate(p)][1:])
    while b:
        a, b = b, _divmod(a, b)[1]
    sf = _monic(_divmod(p, a)[0])
    if sf and sf[0] == 0:
        sf = sf[1:]
    return sf
