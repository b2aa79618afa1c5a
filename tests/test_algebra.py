import random
from fractions import Fraction

import pytest

from uqslcat import linalg
from uqslcat.algebra import (AlgElem, TensorElem, antipode, base_algebra,
                             casimir, center_basis, coproduct, counit,
                             extended_algebra, verify_hopf)
from uqslcat.qmodules import action_matrix, build_p, direct_sum, irreducible


def random_elem(alg, rng, terms=3):
    out = alg.zero_el
    for _ in range(terms):
        out = out + alg.monomial(
            rng.randrange(alg.p), rng.randrange(alg.p),
            rng.randrange(alg.cartan_order), rng.randint(-3, 3),
        )
    return out


def test_defining_relations():
    for p in (2, 3, 4):
        alg = base_algebra(p)
        E, F, K, Kinv = alg.E, alg.F, alg.K, alg.K_inv
        q = alg.q
        assert K * E == E * K * (q ** 2)
        assert K * F == F * K * (q ** -2)
        assert E * F - F * E == (K - Kinv) * alg.qint_den_inv
        assert E ** p == alg.zero_el
        assert F ** p == alg.zero_el
        assert K ** (2 * p) == alg.one_el


def test_pbw_dimension():
    for p in (2, 3, 4, 5):
        assert len(list(base_algebra(p).basis_terms())) == 2 * p ** 3


def test_associativity_random():
    for p in (2, 3, 4):
        alg = base_algebra(p)
        rng = random.Random(p)
        for _ in range(15):
            a, b, c = (random_elem(alg, rng) for _ in range(3))
            assert (a * b) * c == a * (b * c)


def test_products_act_as_products_of_actions():
    # an oracle for the product kernel that does not use it: the sum of all
    # projective indecomposables is faithful, and its matrices come from
    # explicit formulas
    for p in (2, 3, 4):
        alg = base_algebra(p)
        m = direct_sum(*[build_p(p, a, s) for a in (1, -1) for s in range(1, p)],
                       irreducible(p, 1, p), irreducible(p, -1, p))
        rng = random.Random(30 + p)
        for _ in range(4):
            a, b = random_elem(alg, rng, 4), random_elem(alg, rng, 4)
            assert action_matrix(m, a * b) == linalg.mat_mul(action_matrix(m, a), action_matrix(m, b))


def test_coproduct_on_generators():
    alg = base_algebra(3)
    one = alg.field.one
    dK = coproduct(alg.K)
    assert dK.terms == {((0, 0, 1), (0, 0, 1)): one}
    d1 = coproduct(alg.one_el)
    assert d1 == TensorElem.unit(alg, 2)


def test_coproduct_ef_against_hand_expansion():
    # (1 (x) E + E (x) K)(K^-1 (x) F + F (x) 1) expanded term by term:
    # K^-1 (x) EF + F (x) E + q^-2 E K^-1 (x) FK + EF (x) K
    for p in (2, 3):
        alg = base_algebra(p)
        one = alg.field.one
        co = alg.cartan_order
        expect = {
            ((0, 0, co - 1), (1, 1, 0)): one,
            ((0, 1, 0), (1, 0, 0)): one,
            ((1, 0, co - 1), (0, 1, 1)): alg.qpow(-2),
            ((1, 1, 0), (0, 0, 1)): one,
        }
        assert coproduct(alg.E * alg.F) == TensorElem(alg, 2, expect)


def test_antipode_values():
    for p in (2, 3):
        alg = base_algebra(p)
        assert antipode(alg.K) == alg.monomial(0, 0, 2 * p - 1)  # K^-1 = K^(2p-1)
        assert antipode(alg.E) == -(alg.E * alg.K_inv)
        assert antipode(alg.F) == -(alg.K * alg.F)


def test_antipode_squared_is_conjugation_by_k():
    for p in (2, 3):
        alg = base_algebra(p)
        for gen in (alg.E, alg.F, alg.K):
            assert antipode(antipode(gen)) == alg.K * gen * alg.K_inv


def test_counit():
    alg = base_algebra(3)
    for l in range(6):
        assert counit(alg.monomial(0, 0, l)) == 1
    assert not counit(alg.E)
    assert not counit(alg.F * alg.K)


def test_counit_and_coproduct_multiplicative_random():
    for p in (2, 3):
        alg = base_algebra(p)
        rng = random.Random(17 + p)
        for _ in range(8):
            a, b = random_elem(alg, rng, 2), random_elem(alg, rng, 2)
            assert counit(a * b) == counit(a) * counit(b)
            assert coproduct(a * b) == coproduct(a) * coproduct(b)


def test_hopf_axioms_pass():
    for p in (2, 3):
        rep = verify_hopf(p)
        assert rep.passed, rep.failures


def test_hopf_negative_control():
    rep = verify_hopf(2, break_delta_e=True)
    assert not rep.passed
    bad = {k for k, v in rep.axioms.items() if not v}
    assert bad & {"coassociativity", "antipode_law"}


def test_casimir_forms_and_roots():
    cd = casimir(2)
    # beta values at p = 2 from (q^j + q^-j)/(q - q^-1)^2 at q = i
    assert cd.roots[0].as_fraction() == Fraction(-1, 2)
    assert not cd.roots[1]
    assert cd.roots[2].as_fraction() == Fraction(1, 2)
    assert cd.multiplicities == (1, 2, 1)
    # distinctness for p up to 5
    for p in (2, 3, 4, 5):
        roots = casimir(p).roots
        assert len({(r.num, r.den) for r in roots}) == p + 1


def test_casimir_minimal_polynomial():
    for p in (2, 3):
        cd = casimir(p)
        assert not cd.minimal_polynomial_applied()


def test_casimir_single_factor_does_not_annihilate():
    cd = casimir(2)
    alg = cd.element.alg
    assert (cd.element - alg.one_el * cd.roots[1])  # nonzero


def test_casimir_is_central():
    for p in (2, 3):
        alg = base_algebra(p)
        c = casimir(p).element
        for g in (alg.E, alg.F, alg.cartan):
            assert c * g == g * c


def test_casimir_powers_span_2p_dimensions():
    for p in (2, 3):
        alg = base_algebra(p)
        c = casimir(p).element
        pows = [alg.one_el]
        for _ in range(2 * p - 1):
            pows.append(pows[-1] * c)
        keys = sorted({t for el in pows for t in el.terms})
        mat = [[el.terms.get(k, alg.field.zero) for el in pows] for k in keys]
        assert linalg.rank(mat) == 2 * p


def test_center_dimension_and_centrality():
    for p in (2, 3, 4):
        basis = center_basis(p)
        assert len(basis) == 3 * p - 1
        alg = base_algebra(p)
        for z in basis:
            for g in (alg.E, alg.F, alg.cartan):
                assert z * g == g * z


def test_algelem_serialization():
    alg = base_algebra(3)
    x = alg.E * alg.F * alg.K - alg.monomial(0, 2, 5, Fraction(3, 7))
    assert AlgElem.from_json(x.to_json()) == x


def test_mismatched_p_rejected():
    with pytest.raises(ValueError):
        base_algebra(2).E * base_algebra(3).E


# -- the grouped product kernel against a streaming reference -------------------------


def rich_elem(alg, rng, terms=5):
    """Coefficients with mixed denominators times powers of the generator."""
    out = alg.zero_el
    for _ in range(terms):
        c = alg.roots[rng.randrange(alg.field.order)] * Fraction(rng.randint(-4, 4), rng.choice((1, 2, 3)))
        out = out + alg.monomial(rng.randrange(alg.p), rng.randrange(alg.p), rng.randrange(alg.cartan_order), c)
    return out


def streaming_products(alg, a: dict, b: dict, product) -> dict:
    """Every term c1 * c2 * c * zeta^k folded in one at a time with + ."""
    def terms():
        for s, c1 in a.items():
            for t, c2 in b.items():
                for key, c, k in product(s, t):
                    z = alg.roots[k] if c is None else c * alg.roots[k]
                    yield key, c1 * c2 * z
    return linalg.accumulate(terms())


def streaming_legs(alg):
    def legs(s, t):
        partial = [((), alg.field.one)]
        for pair in zip(s, t):
            partial = [(key + (u,), x * (alg.roots[k] if c is None else c * alg.roots[k]))
                       for key, x in partial for u, c, k in alg.mul_phased(*pair)]
        return [(key, x, 0) for key, x in partial]
    return legs


def test_grouped_products_and_coproducts_equal_streaming_reference():
    algs = [base_algebra(p) for p in (2, 3, 4)] + [extended_algebra(2)]
    for alg in algs:
        rng = random.Random(50 + alg.cartan_order)
        for _ in range(6):
            a, b = rich_elem(alg, rng), rich_elem(alg, rng)
            assert (a * b).terms == streaming_products(alg, a.terms, b.terms, alg.mul_phased)
            da, db = coproduct(a), coproduct(b)
            assert (da * db).terms == streaming_products(alg, da.terms, db.terms, streaming_legs(alg))
            assert antipode(a).terms == linalg.accumulate(
                (u, c * k) for t, c in a.terms.items() for u, k in alg.antipode_mono(t).items())
            for elem, leg in ((TensorElem(alg, 1, {(t,): c for t, c in a.terms.items()}), 0), (da, 0), (db, 1)):
                assert elem.apply_delta(leg).terms == linalg.accumulate(
                    (t[:leg] + u + t[leg + 1:], c * (alg.roots[k] if cu is None else cu))
                    for t, c in elem.terms.items() for u, cu, k in alg.delta_mono(t[leg]))
