import random
from fractions import Fraction

from uqslcat import linalg
from uqslcat.cyclotomic import CycField
from uqslcat.polys import roots_in_field


def rand_mat(field, rng, m, n, scale=3):
    return [
        [field.from_fraction(rng.randint(-scale, scale)) for _ in range(n)]
        for _ in range(m)
    ]


def test_rref_rank_nullspace():
    f = CycField(4)
    rng = random.Random(0)
    for _ in range(20):
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        a = rand_mat(f, rng, m, n)
        ns = linalg.nullspace(a)
        assert linalg.rank(a) + len(ns) == n
        for v in ns:
            assert all(not x for x in linalg.mat_vec(a, v))


def test_solve_and_inverse():
    f = CycField(6)
    rng = random.Random(1)
    for _ in range(15):
        n = rng.randint(1, 5)
        a = rand_mat(f, rng, n, n)
        if linalg.rank(a) < n:
            continue
        b = rand_mat(f, rng, n, 2)
        x = linalg.solve(a, b)
        assert x is not None and linalg.mat_eq(linalg.mat_mul(a, x), b)
        inv = linalg.inverse(a)
        assert linalg.mat_eq(linalg.mat_mul(a, inv), linalg.identity(f, n))


def test_solve_detects_inconsistency():
    f = CycField(4)
    a = [[f.one, f.one], [f.one, f.one]]
    b = [[f.one], [f.zero]]
    assert linalg.solve(a, b) is None


def test_charpoly_roots():
    f = CycField(4)
    i = f.gen()
    a = [[i, f.one, f.zero], [f.zero, i, f.zero], [f.zero, f.zero, -f.one]]
    cp = linalg.charpoly(a)
    roots, nonlinear = roots_in_field(cp)
    assert not nonlinear
    assert sorted((r.to_string(), m) for r, m in roots) == [("-1", 1), ("q", 2)]


def test_charpoly_matches_cayley_hamilton():
    f = CycField(6)
    rng = random.Random(3)
    a = rand_mat(f, rng, 4, 4)
    cp = linalg.charpoly(a)
    acc = linalg.zeros(f, 4, 4)
    power = linalg.identity(f, 4)
    for c in cp:
        acc = linalg.mat_add(acc, linalg.mat_scale(c, power))
        power = linalg.mat_mul(power, a)
    assert linalg.is_zero_mat(acc)


def test_rowspace_membership():
    f = CycField(4)
    rs = linalg.RowSpace(f, 3)
    assert rs.add([f.one, f.gen(), f.zero])
    assert not rs.add([f.gen(), -f.one, f.zero])  # i * first
    assert rs.add([f.zero, f.zero, f.one])
    assert rs.dim == 2
    assert rs.contains([f.one * 2, f.gen() * 2, f.zero])
    assert not rs.contains([f.zero, f.one, f.zero])


def test_sparse_nullspace():
    f = CycField(4)
    one, i = f.one, f.gen()
    # x0 + i x1 = 0 and x1 - x2 = 0, given as entries with a repeat that sums
    entries = [(("a", 0), one), (("a", 1), i), (("b", 1), one), (("b", 2), -one), (("b", 2), one), (("b", 2), -one)]
    basis = linalg.sparse_nullspace(f, entries, 3)
    assert basis == [[-i, one, one]]
    assert linalg.sparse_nullspace(f, reversed(entries), 3) == basis
    # equations that cancel leave every unit vector
    assert linalg.sparse_nullspace(f, [(("a", 0), one), (("a", 0), -one)], 2) == linalg.identity(f, 2)


# -- the fused kernels against plain reference loops ---------------------------------


def ref_mat_mul(a, b):
    field = a[0][0].field
    out = []
    for row in a:
        orow = []
        for j in range(len(b[0])):
            acc = field.zero
            for k, x in enumerate(row):
                acc = acc + x * b[k][j]
            orow.append(acc)
        out.append(orow)
    return out


def ref_rref(a):
    """Gauss-Jordan with the first nonzero pivot and plain * and -; the
    reduced echelon form is unique, so any pivot order gives it."""
    mat = [row[:] for row in a]
    pivots, r = [], 0
    for c in range(len(mat[0]) if mat else 0):
        i = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if i is None:
            continue
        mat[r], mat[i] = mat[i], mat[r]
        inv = mat[r][c].inv()
        mat[r] = [x * inv for x in mat[r]]
        for i in range(len(mat)):
            if i != r:
                f = mat[i][c]
                mat[i] = [x - f * y for x, y in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
    return mat, pivots


def bits(mat):
    return [[(x.field.order, x.num, x.den) for x in row] for row in mat]


def oracle_matrices():
    """E, F and their products on scrambled modules at p = 2..4, and dense
    random matrices with mixed denominators, at field orders 4, 6, 8."""
    from conftest import scramble
    from uqslcat.qmodules import build_p, direct_sum, irreducible

    rng = random.Random(11)
    out = []
    for p in (2, 3, 4):
        m = scramble(direct_sum(build_p(p, 1, 1), irreducible(p, -1, p - 1)), rng)
        out += [m.mat_e, m.mat_f, ref_mat_mul(m.mat_e, m.mat_f)]
        f = m.field
        out.append([[f.from_coeffs([Fraction(rng.randint(-4, 4), rng.choice((1, 2, 3)))
                                    for _ in range(f.degree)]) if rng.random() < 0.6 else f.zero
                     for _ in range(7)] for _ in range(5)])
    return out


def test_products_equal_reference_loops():
    mats = oracle_matrices()
    for a in mats:
        for b in mats:
            if len(a[0]) == len(b) and a[0][0].field is b[0][0].field:
                assert bits(linalg.mat_mul(a, b)) == bits(ref_mat_mul(a, b))
                for col in range(len(b[0])):
                    v = [row[col] for row in b]
                    assert bits([linalg.mat_vec(a, v)]) == bits([[row[0] for row in ref_mat_mul(a, [[y] for y in v])]])


def test_rref_and_rowspace_equal_reference_elimination():
    for a in oracle_matrices():
        for mat in (a, linalg.transpose(a)):
            red, pivots = linalg.rref(mat)
            want, want_pivots = ref_rref(mat)
            assert pivots == want_pivots and bits(red) == bits(want)
            rs = linalg.RowSpace(mat[0][0].field, len(mat[0]))
            ranks = [0] + [len(ref_rref(mat[:k + 1])[1]) for k in range(len(mat))]
            assert [rs.add(row) for row in mat] == [ranks[k + 1] > ranks[k] for k in range(len(mat))]
            assert rs.pivots == want_pivots and bits(rs.basis()) == bits(want[:len(want_pivots)])
