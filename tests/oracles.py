"""Independent dense oracles used to cross-check the production routines.

Deliberately naive: dense Bareiss elimination for ranks and determinants,
dense RREF for kernels, dense Fraction matrix arithmetic, the plain-scan and
plain row-insertion fraction-free echelon forms, a Fraction LDL^T for
definiteness, a tiny monomial-dict calculus for assembling differential
operators by direct differentiation, and the exterior derivative on scalar
monomial forms by one loop over monomial, dx index and axis.  Nothing here shares code with the
package internals it is used to check.
"""

from fractions import Fraction
from itertools import combinations
from math import gcd


def bareiss_rank(dense) -> int:
    """Rank by dense fraction-free Bareiss elimination on integerized rows."""
    m = [[Fraction(x) for x in row] for row in dense]
    if not m or not m[0]:
        return 0
    rows, cols = len(m), len(m[0])
    # clear denominators globally
    den = 1
    for row in m:
        for x in row:
            if x.denominator != 1:
                den = den * x.denominator
    a = [[int(x * den) for x in row] for row in m]
    prev = 1
    r = 0
    for c in range(cols):
        piv = -1
        for i in range(r, rows):
            if a[i][c] != 0:
                piv = i
                break
        if piv < 0:
            continue
        a[r], a[piv] = a[piv], a[r]
        for i in range(rows):
            if i == r:
                continue
            for j in range(cols):
                if j == c:
                    continue
                a[i][j] = (a[r][c] * a[i][j] - a[i][c] * a[r][j]) // prev
            a[i][c] = 0
        prev = a[r][c]
        r += 1
        if r == rows:
            break
    return r


def bareiss_det(dense) -> Fraction:
    """Determinant of a square matrix by dense fraction-free Bareiss elimination."""
    m = [[Fraction(x) for x in row] for row in dense]
    n = len(m)
    den = 1
    for row in m:
        for x in row:
            den = den * x.denominator // gcd(den, x.denominator)
    a = [[int(x * den) for x in row] for row in m]
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if swap is None:
                return Fraction(0)
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[k][k] * a[i][j] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return Fraction(sign * a[-1][-1], den ** n) if n else Fraction(1)


def dense_nullspace(dense) -> list[list[Fraction]]:
    """Kernel basis by dense RREF over Fractions."""
    m = [[Fraction(x) for x in row] for row in dense]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(cols):
        piv = -1
        for i in range(r, rows):
            if m[i][c] != 0:
                piv = i
                break
        if piv < 0:
            continue
        m[r], m[piv] = m[piv], m[r]
        pv = m[r][c]
        m[r] = [x / pv for x in m[r]]
        for i in range(rows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    pivot_set = set(pivots)
    basis = []
    for fc in range(cols):
        if fc in pivot_set:
            continue
        vec = [Fraction(0)] * cols
        vec[fc] = Fraction(1)
        for ri, pc in enumerate(pivots):
            vec[pc] = -m[ri][fc]
        basis.append(vec)
    return basis


# -- dense Fraction matrices (for the sparse storage) -----------------------

# A dense matrix is a list of rows of Fractions.


def dense_matmul(a, b, cols):
    return [[sum((row[k] * b[k][j] for k in range(len(b))), Fraction(0))
             for j in range(cols)] for row in a]


def dense_add(a, b):
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def dense_scale(a, q):
    return [[Fraction(q) * x for x in row] for row in a]


def dense_transpose(a, cols):
    return [[row[j] for row in a] for j in range(cols)]


def dense_kron(a, b):
    return [[x * y for x in ra for y in rb] for ra in a for rb in b]


def dense_blocks(grid, row_dims, col_dims):
    """Block matrix from a grid of dense blocks; None blocks are zero."""
    out = []
    for bi, r in enumerate(row_dims):
        for i in range(r):
            line = []
            for bj, c in enumerate(col_dims):
                blk = grid[bi][bj]
                line.extend(blk[i] if blk is not None else [Fraction(0)] * c)
            out.append(line)
    return out


def dense_apply(a, vec):
    return [sum((x * y for x, y in zip(row, vec)), Fraction(0)) for row in a]


def scan_echelon(dense):
    """Fraction-free echelon form by the plain last-remaining-row scan.

    Each nonzero row is cleared of its denominators and divided by its
    content; then, for each column in order, the last unused row (in
    original order) holding it is the pivot, and every other unused row
    holding it becomes pivot*row - entry*pivot_row divided by its content.
    Returns (pivots, rows): (row position, column) pairs and {col: int} rows.
    """
    work = []
    for row in dense:
        ent = {c: Fraction(x) for c, x in enumerate(row) if x != 0}
        if not ent:
            continue
        den = 1
        for x in ent.values():
            den = den * x.denominator // gcd(den, x.denominator)
        ints = {c: int(x * den) for c, x in ent.items()}
        g = 0
        for x in ints.values():
            g = gcd(g, x)
        work.append({c: x // g for c, x in ints.items()})
    cols = len(dense[0]) if dense else 0
    used = [False] * len(work)
    pivots = []
    for col in range(cols):
        piv = max((i for i, row in enumerate(work) if not used[i] and col in row), default=-1)
        if piv < 0:
            continue
        used[piv] = True
        pivots.append((piv, col))
        prow = work[piv]
        p = prow[col]
        for i, row in enumerate(work):
            if used[i] or col not in row:
                continue
            a = row[col]
            new = {c: p * row.get(c, 0) - a * prow.get(c, 0) for c in row.keys() | prow.keys()}
            new = {c: x for c, x in new.items() if x}
            g = 0
            for x in new.values():
                g = gcd(g, x)
            work[i] = {c: x // g for c, x in new.items()} if g > 1 else new
    return pivots, work


def _primitive(ent):
    """{col: Fraction} scaled to coprime ints (content divided out), zeros dropped."""
    den = 1
    for x in ent.values():
        den = den * x.denominator // gcd(den, x.denominator)
    ints = {c: int(x * den) for c, x in ent.items() if x != 0}
    g = 0
    for x in ints.values():
        g = gcd(g, x)
    return {c: x // g for c, x in ints.items()}


def insert_echelon(dense):
    """Fraction-free echelon form by plain row insertion, last row first.

    Each nonzero row, from the last to the first, is cleared of its
    denominators and divided by its content.  While some stored row leads at
    the row's least column, the row becomes pivot*row - entry*stored_row
    divided by its content; a row that vanishes is dropped, and one that
    leads at a new column is stored.  Returns (pivots, rows): the leading
    columns in increasing order and the stored {col: int} rows in that order.
    """
    stored = []
    for line in reversed(dense):
        row = _primitive({c: Fraction(x) for c, x in enumerate(line)})
        while row:
            col = min(row)
            match = [s for s in stored if min(s) == col]
            if not match:
                stored.append(row)
                break
            prow = match[0]
            p, a = Fraction(prow[col]), Fraction(row[col])
            row = _primitive({c: p * row.get(c, 0) - a * prow.get(c, 0)
                              for c in row.keys() | prow.keys()})
    stored.sort(key=min)
    return [min(s) for s in stored], stored


def ldl_pivots(dense) -> list[Fraction]:
    """Pivots of the symmetric LDL^T factorization, without pivoting.

    By Sylvester's law of inertia the matrix is positive definite exactly
    when all n pivots are positive.  A non-positive pivot ends the
    factorization and is the last entry returned.
    """
    a = [[Fraction(x) for x in row] for row in dense]
    n = len(a)
    pivots = []
    for k in range(n):
        p = a[k][k]
        pivots.append(p)
        if p <= 0:
            break
        for i in range(k + 1, n):
            f = a[i][k] / p
            if f:
                for j in range(k + 1, n):
                    a[i][j] -= f * a[k][j]
    return pivots


# -- monomial-dict polynomial calculus (for operator oracles) --------------

# A scalar polynomial is {exponent_tuple: Fraction}; a tensor field is a
# nested list of scalar polynomials.


def poly_zero():
    return {}


def poly_monomial(alpha, coeff=Fraction(1)):
    return {tuple(alpha): Fraction(coeff)} if coeff != 0 else {}


def poly_add(p, q):
    out = dict(p)
    for a, c in q.items():
        s = out.get(a, Fraction(0)) + c
        if s == 0:
            out.pop(a, None)
        else:
            out[a] = s
    return out


def poly_scale(p, c):
    c = Fraction(c)
    return {a: c * v for a, v in p.items()} if c != 0 else {}


def poly_diff(p, k):
    """d/dx_k (0-based axis)."""
    out = {}
    for a, c in p.items():
        if a[k] == 0:
            continue
        b = list(a)
        b[k] -= 1
        out[tuple(b)] = c * a[k]
    return out


def poly_mul_coord(p, k):
    out = {}
    for a, c in p.items():
        b = list(a)
        b[k] += 1
        out[tuple(b)] = c
    return out


def poly_mul(p, q):
    """Product by the schoolbook double loop over both monomial dicts."""
    out = {}
    for a, c in p.items():
        for b, d in q.items():
            out = poly_add(out, {tuple(x + y for x, y in zip(a, b)): c * d})
    return out


def poly_eq(p, q):
    return poly_add(p, poly_scale(q, -1)) == {}


def cube_integral(p, n) -> Fraction:
    """Exact integral over the unit cube [0,1]^n."""
    total = Fraction(0)
    for a, c in p.items():
        f = Fraction(1)
        for ak in a:
            f /= (ak + 1)
        total += c * f
    return total


# -- scalar exterior derivative by a direct loop ----------------------------


def _lex_monomials(n, p):
    """Exponent tuples of degree p in n variables, lexicographic."""
    if p < 0:
        return []
    if n == 1:
        return [(p,)]
    return [(first,) + rest for first in range(p + 1) for rest in _lex_monomials(n - 1, p - first)]


def d_scalar_loop(n, i, p):
    """(rows, cols, entries) of d from degree-p coefficient i-forms to
    degree-(p-1) coefficient (i+1)-forms on R^n, basis (monomial, increasing
    1-based dx index) in lexicographic order: d(x^a dx^I) is the sum over
    axes k of a_k x^(a - e_k) dx^k ^ dx^I, and dx^k moves past the indices
    of I below k with one sign each."""
    src_m, src_f = _lex_monomials(n, p), list(combinations(range(1, n + 1), i))
    tgt_m = {a: k for k, a in enumerate(_lex_monomials(n, p - 1))}
    tgt_f = {f: k for k, f in enumerate(combinations(range(1, n + 1), i + 1))}
    ent = {}
    for a_k, alpha in enumerate(src_m):
        for f_k, idx in enumerate(src_f):
            col = a_k * len(src_f) + f_k
            for axis in range(1, n + 1):
                e = alpha[axis - 1]
                if e == 0 or axis in idx:
                    continue
                before = sum(1 for j in idx if j < axis)
                beta = list(alpha)
                beta[axis - 1] -= 1
                new_idx = idx[:before] + (axis,) + idx[before:]
                row = tgt_m[tuple(beta)] * len(tgt_f) + tgt_f[new_idx]
                ent[(row, col)] = Fraction((-1) ** before * e)
    return len(tgt_m) * len(tgt_f), len(src_m) * len(src_f), ent
