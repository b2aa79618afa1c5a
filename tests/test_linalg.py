import random

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
