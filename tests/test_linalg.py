import random
from fractions import Fraction

import pytest

from conftest import sparse_nullspace
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


def test_inverse_rejects_what_is_not_invertible():
    f = CycField(4)
    one, i = f.one, f.gen()
    for bad in ([[one, f.zero]], [[one], [i]], [], [[one, i], [one]]):
        with pytest.raises(ValueError, match="nonempty square"):
            linalg.inverse(bad)
    for singular in ([[one, i], [i, -one]], [[one, one], [one, one]], [[f.zero]]):
        with pytest.raises(ValueError, match="not invertible"):
            linalg.inverse(singular)
    a = [[one, i], [f.zero, one + i]]
    assert linalg.mat_eq(linalg.mat_mul(a, linalg.inverse(a)), linalg.identity(f, 2))


def test_solve_detects_inconsistency():
    f = CycField(4)
    a = [[f.one, f.one], [f.one, f.one]]
    b = [[f.one], [f.zero]]
    assert linalg.solve(a, b) is None
    i = f.gen()
    assert linalg.solve([[f.one, i], [i, -f.one]], [[f.zero, f.one], [f.zero, f.zero]]) is None
    assert linalg.solve([[f.zero]], [[i]]) is None


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
    basis = sparse_nullspace(f, entries, 3)
    assert basis == [[-i, one, one]]
    assert sparse_nullspace(f, reversed(entries), 3) == basis
    # equations that cancel leave every unit vector
    assert sparse_nullspace(f, [(("a", 0), one), (("a", 0), -one)], 2) == linalg.identity(f, 2)


def test_span_basis_is_the_canonical_null_space_basis():
    # over Q(zeta_8), on random systems with sparse entries: the basis of the
    # span of the null space, given in any order, rescaled and mixed, is the
    # one sparse_nullspace returns, and as many vectors as the nullity
    f = CycField(8)
    rng = random.Random(24)
    values = [f.one, -f.one, f.gen(), f.from_fraction(Fraction(1, 2)) + f.gen() ** 3]
    for _ in range(30):
        neq, n = rng.randint(0, 5), rng.randint(1, 7)
        entries = [((i, j), rng.choice(values)) for i in range(neq) for j in range(n) if rng.random() < 0.4]
        want = sparse_nullspace(f, entries, n)
        vecs = [linalg.mat_scale(rng.choice(values), [v])[0] for v in want]
        mixed = [[a + b for a, b in zip(u, v)] for u, v in zip(vecs, vecs[1:])] + vecs[-1:]
        for given in (want, want[::-1], rng.sample(vecs, len(vecs)), mixed + [[f.zero] * n] + vecs):
            assert linalg.span_basis(given) == want
    assert linalg.span_basis([]) == []


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


def frac_rref(a):
    """Gauss-Jordan on fractions.Fraction, for matrices of rational elements."""
    mat = [[x.as_fraction() for x in row] for row in a]
    pivots, r = [], 0
    for c in range(len(mat[0]) if mat else 0):
        i = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if i is None:
            continue
        mat[r], mat[i] = mat[i], mat[r]
        mat[r] = [x / mat[r][c] for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c]:
                f = mat[i][c]
                mat[i] = [x - f * y for x, y in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
    return mat, pivots


def bits(mat):
    return [[(x.field.order, x.num, x.den) for x in row] for row in mat]


def oracle_matrices():
    """E, F and their products on scrambled modules at p = 2..4, and dense
    random matrices with mixed denominators, at field orders 4, 6, 8; per
    field also rational matrices with entries of 100 bits and more and with
    dependent rows, matrices with zero rows and columns, 1 x n and n x 1
    shapes, and a rational matrix with one irrational entry."""
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
        big = [[f.from_fraction(Fraction(rng.getrandbits(120) - 2 ** 119, rng.choice((1, 3, 2 ** 100 + 7))))
                if rng.random() < 0.8 else f.zero for _ in range(6)] for _ in range(4)]
        big.append([x * Fraction(2, 3) + y for x, y in zip(big[0], big[2])])
        out.append(big)
        small = [[f.from_fraction(Fraction(rng.randint(-3, 3), rng.choice((1, 2)))) for _ in range(5)]
                 for _ in range(4)]
        for row in small:
            row[1] = row[3] = f.zero
        small[2] = [f.zero] * 5
        out.append(small)
        out += [small[:1], [row[:1] for row in big]]
        mixed = [row[:] for row in small]
        mixed[0][0] = f.gen() + 1
        out.append(mixed)
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
            if all(x.is_rational() for row in mat for x in row):
                f = mat[0][0].field
                fracs, frac_pivots = frac_rref(mat)
                assert frac_pivots == pivots
                assert bits(red) == [[(f.order, (x.numerator,) + f.ztail, x.denominator) for x in row]
                                     for row in fracs]
            rs = linalg.RowSpace(mat[0][0].field, len(mat[0]))
            ranks = [0] + [len(ref_rref(mat[:k + 1])[1]) for k in range(len(mat))]
            assert [rs.add(row) for row in mat] == [ranks[k + 1] > ranks[k] for k in range(len(mat))]
            assert rs.pivots == want_pivots and bits(rs.basis()) == bits(want[:len(want_pivots)])
