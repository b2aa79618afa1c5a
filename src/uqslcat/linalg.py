"""Dense exact linear algebra over a cyclotomic field.

Matrices are plain lists of rows of CycNum; all rank/kernel decisions are
exact, there is no floating point anywhere.
"""

from __future__ import annotations

from fractions import Fraction

from .cyclotomic import CycField, CycNum


def accumulate(pairs, out: dict | None = None) -> dict:
    """Add (key, value) pairs into a sparse dict, dropping every key whose
    sum cancels; returns the dict (a new one unless ``out`` is given)."""
    if out is None:
        out = {}
    for key, value in pairs:
        cur = out.get(key)
        tot = value if cur is None else cur + value
        if tot:
            out[key] = tot
        elif cur is not None:
            del out[key]
    return out


def zeros(field: CycField, m: int, n: int) -> list[list[CycNum]]:
    z = field.zero
    return [[z] * n for _ in range(m)]


def identity(field: CycField, n: int) -> list[list[CycNum]]:
    mat = zeros(field, n, n)
    for i in range(n):
        mat[i][i] = field.one
    return mat


def mat_copy(a):
    return [row[:] for row in a]


def transpose(a):
    return [list(col) for col in zip(*a)] if a else []


def mat_add(a, b):
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_sub(a, b):
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_neg(a):
    return [[-x for x in row] for row in a]


def mat_scale(c, a):
    return [[c * x for x in row] for row in a]


def add_scaled(out, c, a) -> None:
    """out += c a in place, over the nonzero entries of a."""
    for orow, row in zip(out, a):
        for k, x in enumerate(row):
            if x:
                orow[k] = orow[k] + c * x


def mat_mul(a, b):
    if not a or not b:
        return []
    n = len(b)
    bt = transpose(b)
    out = []
    for row in a:
        nz = [(k, x) for k, x in enumerate(row) if x]
        orow = []
        for col in bt:
            acc = None
            for k, x in nz:
                y = col[k]
                if y:
                    acc = x * y if acc is None else acc + x * y
            orow.append(acc if acc is not None else row[0].field.zero)
        out.append(orow)
    return out


def mat_vec(a, v):
    nz = [(k, y) for k, y in enumerate(v) if y]
    out = []
    for row in a:
        acc = None
        for k, y in nz:
            x = row[k]
            if x:
                acc = x * y if acc is None else acc + x * y
        out.append(acc if acc is not None else v[0].field.zero)
    return out


def mat_eq(a, b) -> bool:
    if len(a) != len(b):
        return False
    return all(ra == rb for ra, rb in zip(a, b))


def is_zero_mat(a) -> bool:
    return all(not x for row in a for x in row)


def hstack(a, b):
    if not a:
        return mat_copy(b)
    if not b:
        return mat_copy(a)
    return [ra + rb for ra, rb in zip(a, b)]


def kron(a, b):
    out = []
    for ra in a:
        for rb in b:
            row = []
            for x in ra:
                if x:
                    row.extend(x * y for y in rb)
                else:
                    row.extend(x for _ in rb)  # exact zeros
            out.append(row)
    return out


def rref(a) -> tuple[list[list[CycNum]], list[int]]:
    """Reduced row echelon form; returns (matrix, pivot column indices)."""
    mat = mat_copy(a)
    if not mat:
        return mat, []
    nrows, ncols = len(mat), len(mat[0])
    pivots = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        # prefer a short pivot entry to keep numbers small
        best = None
        for i in range(r, nrows):
            x = mat[i][c]
            if x:
                size = sum(abs(v) for v in x.num) + x.den
                if best is None or size < best[0]:
                    best = (size, i)
                if size <= 2:
                    break
        if best is None:
            continue
        i = best[1]
        if i != r:
            mat[r], mat[i] = mat[i], mat[r]
        inv = mat[r][c].inv()
        if mat[r][c] != 1:
            mat[r] = [x * inv if x else x for x in mat[r]]
        for i in range(nrows):
            if i != r:
                f = mat[i][c]
                if f:
                    rowr = mat[r]
                    mat[i] = [x - f * y if y else x for x, y in zip(mat[i], rowr)]
        pivots.append(c)
        r += 1
    return mat, pivots


def rank(a) -> int:
    return len(rref(a)[1])


def nullspace(a) -> list[list[CycNum]]:
    """Basis of the right kernel, canonical from the reduced echelon form."""
    if not a or not a[0]:
        return []
    field = a[0][0].field
    ncols = len(a[0])
    red, pivots = rref(a)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [field.zero] * ncols
        v[fc] = field.one
        for r, pc in enumerate(pivots):
            x = red[r][fc]
            if x:
                v[pc] = -x
        basis.append(v)
    return basis


def sparse_nullspace(field: CycField, entries, ncols: int) -> list[list[CycNum]]:
    """Basis of the null space of the system given as ((equation, unknown),
    coefficient) pairs in ncols unknowns, repeats summed: canonical from the
    reduced echelon form, so the order of the equations does not matter;
    every unit vector when no equation is left."""
    eqs = accumulate(entries)
    row_of = {key: i for i, key in enumerate(dict.fromkeys(key for key, _ in eqs))}
    mat = zeros(field, len(row_of), ncols)
    for (key, col), x in eqs.items():
        mat[row_of[key]][col] = x
    return nullspace(mat) if mat else identity(field, ncols)


def solve(a, b):
    """Any X with a @ X = b (b a matrix), or None when inconsistent."""
    if not a or not a[0]:  # X has no rows
        return [] if (not b or is_zero_mat(b)) else None
    field = a[0][0].field
    n = len(a[0])
    k = len(b[0]) if b else 0
    aug = hstack(a, b)
    red, pivots = rref(aug)
    for r in range(len(red)):
        if all(not red[r][c] for c in range(n)) and any(red[r][c] for c in range(n, n + k)):
            return None
    x = zeros(field, n, k)
    for r, pc in enumerate(pivots):
        if pc >= n:
            return None
        for j in range(k):
            x[pc][j] = red[r][n + j]
    return x


def solve_combination(images, rhs):
    """Coefficients c with sum_k c_k * images[k] = rhs, every image having
    the shape of rhs, from one solve over the stacked entries; None when rhs
    lies outside the span of the images."""
    flat = [[x] for row in rhs for x in row]
    if not images:
        return [] if is_zero_mat(flat) else None
    stacked = [[img[i][j] for img in images] for i, row in enumerate(rhs) for j in range(len(row))]
    sol = solve(stacked, flat)
    return None if sol is None else [row[0] for row in sol]


def inverse(a):
    field = a[0][0].field
    n = len(a)
    sol = solve(a, identity(field, n))
    if sol is None or rank(a) != n:
        raise ValueError("matrix is not invertible")
    return sol


def charpoly(a) -> list[CycNum]:
    """Characteristic polynomial det(xI - a), ascending coefficients,
    by the Faddeev-LeVerrier recursion."""
    field = a[0][0].field
    n = len(a)
    coeffs = [field.zero] * (n + 1)
    coeffs[n] = field.one
    m = identity(field, n)
    for k in range(1, n + 1):
        am = mat_mul(a, m)
        tr = am[0][0]
        for i in range(1, n):
            tr = tr + am[i][i]
        c = tr * Fraction(-1, k)
        coeffs[n - k] = c
        m = am
        for i in range(n):
            m[i][i] = m[i][i] + c
    return coeffs


class RowSpace:
    """Incrementally built subspace, held in reduced row echelon form."""

    def __init__(self, field: CycField, ncols: int):
        self.field = field
        self.ncols = ncols
        self.rows: list[list[CycNum]] = []
        self.pivots: list[int] = []

    @property
    def dim(self) -> int:
        return len(self.rows)

    def _reduce(self, vec):
        v = list(vec)
        for row, p in zip(self.rows, self.pivots):
            x = v[p]
            if x:
                v = [a - x * b if b else a for a, b in zip(v, row)]
        return v

    def contains(self, vec) -> bool:
        return not any(self._reduce(vec))

    def add(self, vec) -> bool:
        """Insert a vector; True when the dimension grew."""
        v = self._reduce(vec)
        p = next((i for i, x in enumerate(v) if x), None)
        if p is None:
            return False
        inv = v[p].inv()
        v = [x * inv if x else x for x in v]
        for row in self.rows:
            x = row[p]
            if x:
                row[:] = [a - x * b if b else a for a, b in zip(row, v)]
        at = next((k for k, q in enumerate(self.pivots) if q > p), len(self.pivots))
        self.rows.insert(at, v)
        self.pivots.insert(at, p)
        return True

    def basis(self) -> list[list[CycNum]]:
        return [row[:] for row in self.rows]
