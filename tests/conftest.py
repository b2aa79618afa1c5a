"""Shared test helpers: module scrambling, the generic Hom solvers kept as
oracles, decisive isomorphism tests on Hom spaces, and an independent
decomposability oracle for quiver representations based on the
endomorphism algebra."""

import itertools
import random

import pytest

from uqslcat import linalg
from uqslcat.cyclotomic import CycField, CycNum
from uqslcat.kronecker import QuiverRep
from uqslcat.polys import factor_squarefree, pdeg, pdivmod, pgcd, pderiv, pmonic, ptrim
from uqslcat.qmodules import CP1, QMod


def sample_zs(p):
    """Seven-point sample of the projective line used across tests."""
    q = CycField(2 * p).gen()
    return [
        CP1.of(p, 1, 0),
        CP1.of(p, 0, 1),
        CP1.of(p, 1, 1),
        CP1.of(p, 1, -1),
        CP1.of(p, 1, 2),
        CP1.of(p, 1, q),
        CP1.of(p, 2, 1),
    ]


def scramble(m: QMod, rng: random.Random) -> QMod:
    """Conjugate by a random invertible K-homogeneous base change."""
    field = m.field
    by_weight = {}
    for i, w in enumerate(m.weights):
        by_weight.setdefault(w, []).append(i)
    g = linalg.zeros(field, m.dim, m.dim)
    for idxs in by_weight.values():
        k = len(idxs)
        while True:
            block = [[field.from_fraction(rng.randint(-2, 2)) for _ in range(k)] for _ in range(k)]
            if linalg.rank(block) == k:
                break
        for a, ia in enumerate(idxs):
            for b, ib in enumerate(idxs):
                g[ia][ib] = block[a][b]
    ginv = linalg.inverse(g)
    me = linalg.mat_mul(ginv, linalg.mat_mul(m.mat_e, g))
    mf = linalg.mat_mul(ginv, linalg.mat_mul(m.mat_f, g))
    return QMod(m.p, me, mf, m.weights, field=field)


# -- the generic Hom solvers, one unknown per entry of the map: oracles only ----


def sparse_nullspace(field: CycField, entries, ncols: int) -> list[list[CycNum]]:
    """Basis of the null space of the system given as ((equation, unknown),
    coefficient) pairs in ncols unknowns, repeats summed: canonical from the
    reduced echelon form, so the order of the equations does not matter;
    every unit vector when no equation is left."""
    eqs = linalg.accumulate(entries)
    row_of = {key: i for i, key in enumerate(dict.fromkeys(key for key, _ in eqs))}
    mat = linalg.zeros(field, len(row_of), ncols)
    for (key, col), x in eqs.items():
        mat[row_of[key]][col] = x
    return linalg.nullspace(mat) if mat else linalg.identity(field, ncols)


def intertwiner_basis(src: QMod, dst: QMod) -> list[list[list[CycNum]]]:
    """Canonical basis of Hom(src, dst): matrices Phi with
    Phi E = E Phi, Phi F = F Phi, Phi K = K Phi, solved exactly on
    K-weight-compatible positions."""
    if src.p != dst.p:
        raise ValueError("intertwiners need the same p")
    field = src.field
    pairs = [
        (r, c)
        for r in range(dst.dim)
        for c in range(src.dim)
        if dst.weights[r] == src.weights[c]
    ]
    unk = {rc: k for k, rc in enumerate(pairs)}

    def entries():  # ((equation, unknown), coefficient) of g_dst Phi - Phi g_src = 0
        for gname, g_dst, g_src in (("E", dst.mat_e, src.mat_e), ("F", dst.mat_f, src.mat_f)):
            for (k, c), col in unk.items():
                for r in range(dst.dim):
                    if g_dst[r][k]:
                        yield ((gname, r, c), col), g_dst[r][k]
            for (r, k), col in unk.items():
                for c in range(src.dim):
                    if g_src[k][c]:
                        yield ((gname, r, c), col), -g_src[k][c]

    out = []
    for v in sparse_nullspace(field, entries(), len(pairs)):
        phi = linalg.zeros(field, dst.dim, src.dim)
        for (r, c), col in unk.items():
            phi[r][c] = v[col]
        out.append(phi)
    return out


def rep_hom_basis(a: QuiverRep, b: QuiverRep):
    """Basis of quiver-representation morphisms a -> b, as pairs
    (phi0, phi1) with b.r phi0 = phi1 a.r and b.rbar phi0 = phi1 a.rbar;
    the unknowns are the entries of phi0, row by row, then those of phi1."""
    n0 = b.d0 * a.d0

    def entries():  # ((equation, unknown), coefficient) of b.x phi0 - phi1 a.x = 0 for x = r, rbar
        for x, (mat_b, mat_a) in enumerate(((b.r, a.r), (b.rbar, a.rbar))):
            for i in range(b.d1):
                for j in range(a.d0):
                    yield from ((((x, i, j), k * a.d0 + j), mat_b[i][k]) for k in range(b.d0))
                    yield from ((((x, i, j), n0 + i * a.d1 + k), -mat_a[k][j]) for k in range(a.d1))

    return [([v[k * a.d0:(k + 1) * a.d0] for k in range(b.d0)],
             [v[n0 + i * a.d1:n0 + (i + 1) * a.d1] for i in range(b.d1)])
            for v in sparse_nullspace(a.field, entries(), n0 + b.d1 * a.d1)]


def span_has_invertible(homs, dim, field) -> bool:
    """Decides whether the span of the given intertwiners contains an
    invertible one.  The determinant of a generic combination is a
    polynomial of degree at most dim in each coefficient, so vanishing on
    a full (dim+1)-point grid per variable certifies that no invertible
    combination exists."""
    k = len(homs)
    if k == 0 or dim == 0:
        return dim == 0
    grid = [field.from_fraction(t) for t in range(dim + 1)]
    for coeffs in itertools.product(grid, repeat=k):
        if not any(coeffs):
            continue
        phi = linalg.zeros(field, dim, dim)
        for c, h in zip(coeffs, homs):
            if c:
                phi = linalg.mat_add(phi, linalg.mat_scale(c, h))
        if linalg.rank(phi) == dim:
            return True
    return False


# -- independent decomposability oracle for Kronecker representations ---------


def _block_diag(phi0, phi1, field):
    d0 = len(phi0)
    d1 = len(phi1)
    out = linalg.zeros(field, d0 + d1, d0 + d1)
    for i in range(d0):
        for j in range(d0):
            out[i][j] = phi0[i][j]
    for i in range(d1):
        for j in range(d1):
            out[d0 + i][d0 + j] = phi1[i][j]
    return out


def _trace(mat):
    t = mat[0][0]
    for i in range(1, len(mat)):
        t = t + mat[i][i]
    return t


def _min_poly_degree(mat, field):
    dim = len(mat)
    krylov = [linalg.identity(field, dim)]
    rows = [[x for row in krylov[0] for x in row]]
    rs = linalg.RowSpace(field, dim * dim)
    rs.add(rows[0])
    power = krylov[0]
    for d in range(1, dim + 1):
        power = linalg.mat_mul(power, mat)
        flat = [x for row in power for x in row]
        if not rs.add(flat):
            return d
    return dim


def _min_poly(mat, field):
    dim = len(mat)
    deg = _min_poly_degree(mat, field)
    power = linalg.identity(field, dim)
    powers = [power]
    for _ in range(deg):
        power = linalg.mat_mul(power, mat)
        powers.append(power)
    # sum_d c_d mat^d = -mat^deg, one equation per entry
    lhs = [[powers[d][i][j] for d in range(deg)] for i in range(dim) for j in range(dim)]
    rhs = [[-powers[deg][i][j]] for i in range(dim) for j in range(dim)]
    sol = linalg.solve(lhs, rhs)
    assert sol is not None
    return [sol[d][0] for d in range(deg)] + [field.one]


def oracle_decomposable(rep: QuiverRep) -> bool:
    """Decides decomposability from the endomorphism algebra alone:
    compute End, its radical via the trace form, the semisimple quotient
    and its center; the representation is indecomposable exactly when the
    quotient is a division algebra, which over a cyclotomic field (where
    pencil blocks have commutative endomorphism residues) means a single
    central block of matrix size one."""
    field = rep.field
    homs = rep_hom_basis(rep, rep)
    k = len(homs)
    if rep.d0 + rep.d1 == 0:
        return False
    if k == 1:
        return False
    mats = [_block_diag(p0, p1, field) for p0, p1 in homs]
    gram = [[_trace(linalg.mat_mul(mats[i], mats[j])) for j in range(k)] for i in range(k)]
    rad_combos = linalg.nullspace(gram)
    abar_dim = k - len(rad_combos)
    if abar_dim == 1:
        return False
    # structure constants of the semisimple quotient on a complement of the radical
    flat = [[x for row in m for x in row] for m in mats]
    rs = linalg.RowSpace(field, len(flat[0]))
    rad_flat = []
    for combo in rad_combos:
        v = [field.zero] * len(flat[0])
        for c, fv in zip(combo, flat):
            if c:
                v = [a + c * b for a, b in zip(v, fv)]
        rad_flat.append(v)
        rs.add(v)
    reps_idx = []
    for i, fv in enumerate(flat):
        if rs.add(fv):
            reps_idx.append(i)
    assert len(reps_idx) == abar_dim
    basis_flat = rad_flat + [flat[i] for i in reps_idx]
    span = [[basis_flat[j][t] for j in range(len(basis_flat))] for t in range(len(flat[0]))]

    def quotient_coords(mat):
        vec = [[x] for row in mat for x in row]
        sol = linalg.solve(span, vec)
        assert sol is not None
        return [sol[len(rad_flat) + t][0] for t in range(abar_dim)]

    quo_mult = {}
    for a_i, i in enumerate(reps_idx):
        for a_j, j in enumerate(reps_idx):
            quo_mult[(a_i, a_j)] = quotient_coords(linalg.mat_mul(mats[i], mats[j]))
    # regular representation of the quotient
    reg = []
    for a_i in range(abar_dim):
        mat = [[quo_mult[(a_i, a_j)][t] for a_j in range(abar_dim)] for t in range(abar_dim)]
        reg.append(mat)
    # center of the quotient
    center = linalg.nullspace([
        [quo_mult[(a_i, a_j)][t] - quo_mult[(a_j, a_i)][t] for a_i in range(abar_dim)]
        for a_j in range(abar_dim)
        for t in range(abar_dim)
    ])
    zdim = len(center)
    if abar_dim > zdim:
        return True  # a matrix block of size >= 2 over its residue field
    # commutative semisimple: a field iff the minimal polynomial of a
    # primitive element is irreducible
    rng = random.Random(99)
    best = None
    for _ in range(60):
        coeffs = [field.from_fraction(rng.randint(-3, 3)) for _ in range(zdim)]
        mat = linalg.zeros(field, abar_dim, abar_dim)
        for c, sol in zip(coeffs, center):
            if c:
                zmat = linalg.zeros(field, abar_dim, abar_dim)
                for a_i in range(abar_dim):
                    if sol[a_i]:
                        zmat = linalg.mat_add(zmat, linalg.mat_scale(sol[a_i], reg[a_i]))
                mat = linalg.mat_add(mat, linalg.mat_scale(c, zmat))
        deg = _min_poly_degree(mat, field)
        if best is None or deg > best[0]:
            best = (deg, mat)
        if deg == zdim:
            break
    assert best is not None and best[0] == zdim, "no primitive element found"
    mp = _min_poly(best[1], field)
    sqfree = pdivmod(mp, pgcd(mp, pderiv(mp)))[0]
    if pdeg(sqfree) < pdeg(mp):
        return True  # nilpotents in a would-be semisimple algebra cannot happen; split detected
    factors = factor_squarefree(pmonic(ptrim(mp)))
    return len(factors) > 1


@pytest.fixture
def rng():
    return random.Random(20260810)
