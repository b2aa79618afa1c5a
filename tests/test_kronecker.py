import random

import pytest

from conftest import oracle_decomposable, rep_hom_basis, sample_zs
from uqslcat import linalg
from uqslcat.cyclotomic import CycField
from uqslcat.kronecker import (EigenvalueOutsideField, QuiverRep, _regular_hom_basis, canonical_rep,
                               classify, functor_F, functor_G)
from uqslcat.qmodules import (CP1, build_m2, build_o1, build_w2, irreducible,
                              verify_module)


def rep_of(field, rows_r, rows_rb):
    conv = lambda rows: [
        [x if hasattr(x, "field") else field.from_fraction(x) for x in row]
        for row in rows
    ]
    d1 = len(rows_r)
    d0 = len(rows_r[0]) if rows_r else 0
    return QuiverRep(d0, d1, conv(rows_r), conv(rows_rb), field)


def entry_set(decomp):
    return sorted(
        (kind, n, repr(z) if z is not None else None, mult)
        for (kind, n, z), mult in decomp.entries
    )


def test_simple_objects():
    f = CycField(4)
    d = classify(QuiverRep(1, 0, [], [], f))
    assert entry_set(d) == [("preprojective", 0, None, 1)]
    d = classify(QuiverRep(0, 1, [[], ], [[], ], f))
    assert entry_set(d) == [("preinjective", 0, None, 1)]


def test_canonical_rectangular_matrices():
    f = CycField(6)
    for n in (1, 2, 3):
        assert entry_set(classify(canonical_rep(f, "preprojective", n))) == [
            ("preprojective", n, None, 1)
        ]
        assert entry_set(classify(canonical_rep(f, "preinjective", n))) == [
            ("preinjective", n, None, 1)
        ]


def test_regular_parameterization():
    f = CycField(4)
    lam = f.gen()
    d = classify(rep_of(f, [[1]], [[lam]]))
    ((kind, n, z), mult), = d.entries
    assert (kind, n, mult) == ("regular", 1, 1)
    assert z.z1 == f.one and z.z2 == lam
    d = classify(rep_of(f, [[0]], [[1]]))
    ((kind, n, z), _), = d.entries
    assert z.z1 == f.zero and z.z2 == f.one


def test_two_distinct_eigenvalues_split():
    f = CycField(4)
    i = f.gen()
    d = classify(rep_of(f, [[1, 0], [0, 1]], [[i, 0], [0, -i]]))
    assert entry_set(d) == [("regular", 1, "1:-q", 1), ("regular", 1, "1:q", 1)]


def test_jordan_block_stays_together():
    f = CycField(4)
    i = f.gen()
    d = classify(rep_of(f, [[1, 0], [0, 1]], [[i, 1], [0, i]]))
    assert entry_set(d) == [("regular", 2, "1:q", 1)]


def test_eigenvalue_outside_field_reported():
    f = CycField(4)
    with pytest.raises(EigenvalueOutsideField) as exc:
        classify(rep_of(f, [[1, 0], [0, 1]], [[0, 1], [1, 1]]))
    assert exc.value.factors and len(exc.value.factors[0]) == 3  # quadratic factor


def test_classify_is_conjugation_invariant(rng):
    f = CycField(4)
    entries = [f.zero, f.one, -f.one, f.gen()]
    done = 0
    while done < 15:
        d0, d1 = rng.randint(1, 3), rng.randint(1, 3)
        rep = QuiverRep(
            d0, d1,
            [[entries[rng.randrange(4)] for _ in range(d0)] for _ in range(d1)],
            [[entries[rng.randrange(4)] for _ in range(d0)] for _ in range(d1)],
            f,
        )
        while True:
            g0 = [[f.from_fraction(rng.randint(-2, 2)) for _ in range(d0)] for _ in range(d0)]
            if linalg.rank(g0) == d0:
                break
        while True:
            g1 = [[f.from_fraction(rng.randint(-2, 2)) for _ in range(d1)] for _ in range(d1)]
            if linalg.rank(g1) == d1:
                break
        conj = QuiverRep(
            d0, d1,
            linalg.mat_mul(linalg.inverse(g1), linalg.mat_mul(rep.r, g0)),
            linalg.mat_mul(linalg.inverse(g1), linalg.mat_mul(rep.rbar, g0)),
            f,
        )
        try:
            a, b = classify(rep), classify(conj)
        except EigenvalueOutsideField:
            continue
        assert entry_set(a) == entry_set(b)
        done += 1


def test_dimension_vectors_off_the_root_system_are_decomposable(rng):
    # dimension vectors that are not roots of the affine A1 system must
    # decompose (real roots are (n+1, n), (n, n+1); imaginary (n, n))
    f = CycField(4)
    entries = [f.zero, f.one, -f.one, f.gen()]
    done = 0
    while done < 10:
        d0, d1 = rng.randint(1, 4), rng.randint(1, 4)
        if abs(d0 - d1) <= 1:
            continue
        rep = QuiverRep(
            d0, d1,
            [[entries[rng.randrange(4)] for _ in range(d0)] for _ in range(d1)],
            [[entries[rng.randrange(4)] for _ in range(d0)] for _ in range(d1)],
            f,
        )
        try:
            d = classify(rep)
        except EigenvalueOutsideField:
            continue
        assert d.summand_count() >= 2
        done += 1


def test_classify_matches_endomorphism_oracle(rng):
    f = CycField(4)
    entries = [f.zero, f.one, -f.one, f.gen()]
    checked = 0
    for _ in range(40):
        d0, d1 = rng.randint(0, 3), rng.randint(0, 3)
        if d0 + d1 == 0:
            continue
        rep = QuiverRep(
            d0, d1,
            [[entries[rng.randrange(4)] for _ in range(d0)] for _ in range(d1)],
            [[entries[rng.randrange(4)] for _ in range(d0)] for _ in range(d1)],
            f,
        )
        try:
            d = classify(rep)
        except EigenvalueOutsideField:
            continue
        assert (d.summand_count() > 1) == oracle_decomposable(rep)
        checked += 1
    assert checked >= 20


def test_functor_f_on_known_modules():
    for p, a, s in ((2, 1, 1), (3, 1, 2), (3, -1, 1)):
        rep = functor_F(build_m2(p, a, s), a)
        assert (rep.d0, rep.d1) == (1, 2)
        assert entry_set(classify(rep)) == [("preinjective", 1, None, 1)]
        rep = functor_F(build_w2(p, a, s), a)
        assert (rep.d0, rep.d1) == (2, 1)
        assert entry_set(classify(rep)) == [("preprojective", 1, None, 1)]
        rep = functor_F(build_o1(p, a, s, CP1.of(p, 1, 0)), a)
        assert rep.r[0][0] and not rep.rbar[0][0]
        rep = functor_F(irreducible(p, a, s), a)
        assert (rep.d0, rep.d1) == (1, 0)


def test_functor_g_examples():
    f = CycField(6)
    g = functor_G(canonical_rep(f, "preprojective", 0), 3, 1, 1)
    x = irreducible(3, 1, 1)
    assert g.dim == x.dim and linalg.mat_eq(g.mat_e, x.mat_e)
    # z = 0:1 gives the contragredient Verma
    from uqslcat.category import find_isomorphism

    g = functor_G(canonical_rep(f, "regular", 1, CP1.of(3, 0, 1)), 3, 1, 1)
    assert find_isomorphism(g, build_o1(3, 1, 1, CP1.of(3, 0, 1))) is not None


def test_functor_f_rejects_length_three():
    from uqslcat.qmodules import build_p

    with pytest.raises(ValueError):
        functor_F(build_p(2, 1, 1), 1)


def test_functor_f_rejects_a_top_of_both_signs():
    # W+ over a W- in the same block: functor_F(., +1) once returned a
    # representation whose G image had dimension 4 (p = 2) or 5 (p = 3)
    from uqslcat.qmodules import direct_sum

    for m in (direct_sum(build_w2(2, 1, 1), build_w2(2, -1, 1)),
              direct_sum(build_w2(3, 1, 1), build_w2(3, -1, 2))):
        with pytest.raises(ValueError):
            functor_F(m, 1)


def test_functors_additive(rng):
    f = CycField(4)
    p, a, s = 2, 1, 1
    r1 = rep_of(f, [[1]], [[f.gen()]])
    r2 = canonical_rep(f, "preprojective", 1)
    g_sum = functor_G(r1.direct_sum(r2), p, a, s)
    from uqslcat.qmodules import direct_sum
    from uqslcat.category import find_isomorphism

    g_parts = direct_sum(functor_G(r1, p, a, s), functor_G(r2, p, a, s))
    assert find_isomorphism(g_sum, g_parts) is not None
    back = functor_F(g_sum, a)
    assert entry_set(classify(back)) == entry_set(classify(r1.direct_sum(r2)))


def test_rep_serialization_roundtrip():
    f = CycField(6)
    rep = rep_of(f, [[1, 0], [f.gen(), 1]], [[0, 1], [1, 0]])
    back = QuiverRep.from_json(rep.to_json())
    assert back.d0 == rep.d0 and back.d1 == rep.d1
    assert linalg.mat_eq(back.r, rep.r) and linalg.mat_eq(back.rbar, rep.rbar)


def test_hom_basis_counts_schur():
    f = CycField(4)
    rho1 = canonical_rep(f, "preprojective", 1)
    assert len(rep_hom_basis(rho1, rho1)) == 1


def random_invertible(f, n, rng):
    while True:
        g = [[f.from_fraction(rng.randint(-1, 1)) for _ in range(n)] for _ in range(n)]
        if linalg.rank(g) == n:
            return g


def test_regular_hom_basis_equals_the_generic_solver(rng):
    # Hom(canonical, sub) from one Jordan chain of sub, for canonical regular
    # blocks in a random basis at every sample point (1:0 and 0:1 among them)
    for p in (2, 3):
        f = CycField(2 * p)
        for z in sample_zs(p):
            for n in range(1, 5):
                canon = canonical_rep(f, "regular", n, z)
                g0, g1 = random_invertible(f, n, rng), random_invertible(f, n, rng)
                sub = QuiverRep(n, n, *(linalg.mat_mul(g1, linalg.mat_mul(arrow, linalg.inverse(g0)))
                                        for arrow in (canon.r, canon.rbar)), f)
                basis = _regular_hom_basis(sub, n, z)
                assert basis == rep_hom_basis(canon, sub) and len(basis) == n


def test_equal_multisets_yield_explicit_conjugation():
    # the certificates compose to an explicit isomorphism whenever the
    # entry multisets agree, so classification is a complete invariant
    f = CycField(4)
    # eigenvalues q and q-1, both in the field
    a = QuiverRep(2, 2, [[f.one, f.zero], [f.zero, f.one]],
                  [[f.gen(), f.one], [f.zero, f.gen() - 1]], f)
    da = classify(a)
    g0 = [[f.one, f.gen()], [f.zero, f.one]]
    g1 = [[f.one, f.zero], [f.from_fraction(2), f.one]]
    b = QuiverRep(
        a.d0, a.d1,
        linalg.mat_mul(linalg.inverse(g1), linalg.mat_mul(a.r, g0)),
        linalg.mat_mul(linalg.inverse(g1), linalg.mat_mul(a.rbar, g0)),
        f,
    )
    db = classify(b)
    assert entry_set(da) == entry_set(db)
    # conj = S0_b (S0_a)^-1 intertwines a with b through the shared canonical form
    c0 = linalg.mat_mul(db.s0, linalg.inverse(da.s0))
    c1 = linalg.mat_mul(db.s1, linalg.inverse(da.s1))
    assert linalg.mat_eq(linalg.mat_mul(b.r, c0), linalg.mat_mul(c1, a.r))
    assert linalg.mat_eq(linalg.mat_mul(b.rbar, c0), linalg.mat_mul(c1, a.rbar))


MIXTURE_ENTRIES = [
    ("preinjective", 2, None, 1),
    ("preprojective", 0, None, 1), ("preprojective", 1, None, 2), ("preprojective", 3, None, 1),
    ("regular", 1, "1:q", 1), ("regular", 2, "0:1", 1), ("regular", 2, "1:q", 1),
]


def _scrambled_mixture(f, rng):
    # rho0 + rho1 + rho1 + rho3 + preinjective_2 + J2(1:q) + J1(1:q) + J2(0:1)
    q = CP1(f.one, f.gen())
    parts = [canonical_rep(f, "preprojective", n) for n in (0, 1, 1, 3)]
    parts += [canonical_rep(f, "preinjective", 2), canonical_rep(f, "regular", 2, q),
              canonical_rep(f, "regular", 1, q), canonical_rep(f, "regular", 2, CP1(f.zero, f.one))]
    rep = parts[0]
    for part in parts[1:]:
        rep = rep.direct_sum(part)
    g0, g1inv = random_invertible(f, rep.d0, rng), random_invertible(f, rep.d1, rng)
    conj = lambda m: linalg.mat_mul(g1inv, linalg.mat_mul(m, g0))
    return QuiverRep(rep.d0, rep.d1, conj(rep.r), conj(rep.rbar), f)


def _assert_certified(rep, d):
    assert linalg.mat_eq(linalg.mat_mul(rep.r, d.s0), linalg.mat_mul(d.s1, d.canonical.r))
    assert linalg.mat_eq(linalg.mat_mul(rep.rbar, d.s0), linalg.mat_mul(d.s1, d.canonical.rbar))
    assert linalg.rank(d.s0) == rep.d0 and linalg.rank(d.s1) == rep.d1


def test_scrambled_mixture_of_every_kind(rng):
    # several chains of one degree and shifts of lower-degree chains in the
    # minimal basis, two Jordan chains at one point, a block at infinity
    f = CycField(4)
    rep = _scrambled_mixture(f, rng)
    d = classify(rep)
    _assert_certified(rep, d)
    assert entry_set(d) == MIXTURE_ENTRIES


def test_transpose_swaps_the_singular_kinds(rng):
    f = CycField(4)
    rep = _scrambled_mixture(f, rng)
    swap = {"preprojective": "preinjective", "preinjective": "preprojective", "regular": "regular"}
    dt = classify(rep.transposed())
    _assert_certified(rep.transposed(), dt)
    assert entry_set(dt) == sorted((swap[kind], n, z, m) for kind, n, z, m in MIXTURE_ENTRIES)


def test_classify_checks_its_certificate_on_empty_shapes(monkeypatch):
    # with d0 = 0, with d1 = 0, and with a block that has no V1 columns, both
    # sides of each intertwining check are d1 x d0 matrices of field elements;
    # an arrow perturbed after the blocks were found is still refused
    from uqslcat import kronecker

    field = CycField(6)
    zero_one = canonical_rep(field, "preprojective", 0)  # X: one V0 column, no V1 column
    mixed = zero_one.direct_sum(canonical_rep(field, "preprojective", 1)).direct_sum(
        canonical_rep(field, "regular", 1, CP1.of(3, 1, 2)))
    reps = [QuiverRep(0, 2, [[], []], [[], []], field), QuiverRep(3, 0, [], [], field), mixed]
    compared, real_eq = [], linalg.mat_eq

    def spy_eq(a, b):
        compared.append((a, b))
        return real_eq(a, b)

    monkeypatch.setattr(linalg, "mat_eq", spy_eq)
    for rep in reps:
        compared.clear()
        decomp = classify(rep)
        assert len(compared) == 2 and decomp.summand_count() == (rep.d0 + rep.d1 if rep is not mixed else 3)
        for side in (mat for pair in compared for mat in pair):
            assert len(side) == rep.d1 and all(len(row) == rep.d0 for row in side)
            assert all(x is not None and x.field is field for row in side for x in row)
    assert any(blk.u0 and not blk.u1 for blk in classify(mixed).blocks)
    found, r = kronecker._decompose(mixed), linalg.mat_copy(mixed.r)
    r[0][0] = r[0][0] + field.one
    monkeypatch.setattr(kronecker, "_decompose", lambda rep: list(found))
    with pytest.raises(kronecker.ClassificationError, match="^certificate fails to intertwine r$"):
        classify(QuiverRep(mixed.d0, mixed.d1, r, mixed.rbar, field))
