"""Test-side polynomial helpers and determinant oracles over Q[x].

The library keeps no matrix over Q[x]: char_poly works over Q and the
resultant on coefficient lists.  These oracles compute the same quantities
the direct way, on lists of UniPoly rows.
"""

from cmforge.exact import UniPoly


def x_valuation(p):
    """Lowest exponent of p with a nonzero coefficient (0 for p = 0)."""
    return next((i for i, c in enumerate(p.coeffs) if c), 0)


def mul_xk(p, k):
    """p * x**k for k >= 0."""
    return UniPoly(p.var, [0] * k + list(p.coeffs))


def div_xk(p, k):
    """p / x**k for k >= 0; p must be divisible by x**k."""
    assert not any(p.coeffs[:k]), (p, k)
    return UniPoly(p.var, p.coeffs[k:])


def bareiss_det(rows, var="x"):
    """Determinant of a square matrix of UniPoly rows by the fraction-free
    Bareiss elimination: every division is exact in Q[x]."""
    a = [list(r) for r in rows]
    n = len(a)
    one = UniPoly.const(var, 1)
    if n == 0:
        return one
    sign, prev = 1, one
    for k in range(n - 1):
        if a[k][k].is_zero:
            swap = next((i for i in range(k + 1, n) if not a[i][k].is_zero), None)
            if swap is None:
                return UniPoly(var, [])
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                q, r = (a[i][j] * a[k][k] - a[i][k] * a[k][j]).divmod_(prev)
                assert r.is_zero
                a[i][j] = q
        prev = a[k][k]
    return a[n - 1][n - 1] * sign


def char_poly_oracle(m, var):
    """det(m - t*Id) for a Mat over Q, by Bareiss over Q[t]."""
    t = UniPoly.x(var)
    return bareiss_det([[UniPoly.const(var, m.entry(i, j)) - (t if i == j else 0)
                         for j in range(m.cols)] for i in range(m.rows)], var)


def sylvester_det(pc, qc, var="x"):
    """Resultant of coefficient lists (lowest degree first, UniPoly entries,
    no trailing zeros, both nonempty) as the determinant of their Sylvester
    matrix, p's rows first."""
    m, n = len(pc) - 1, len(qc) - 1
    zero = UniPoly(var, [])
    p, q = pc[::-1], qc[::-1]
    rows = [[zero] * i + p + [zero] * (n - 1 - i) for i in range(n)]
    rows += [[zero] * i + q + [zero] * (m - 1 - i) for i in range(m)]
    return bareiss_det(rows, var)
