import dataclasses
import hashlib
import json
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from uqslcat import algebra, linalg
from uqslcat.algebra import (AlgElem, QuantumAlgebra, TensorElem, _delta_monomial,
                             antipode, base_algebra, casimir, center_basis,
                             coproduct, counit, extended_algebra, verify_hopf)
from uqslcat.braiding import r_matrix
from uqslcat.cyclotomic import CycField
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
    # Delta(E) = 1 (x) E breaks the [E, F] relation; the coproduct it
    # defines on the basis is still multiplicative and coassociative
    for p in (2, 3, 4):
        rep = verify_hopf(p, break_delta_e=True)
        assert {k for k, v in rep.axioms.items() if not v} == {"counit_law", "antipode_law", "coproduct_algebra_map"}
        assert rep.failures == ["counit law fails on (1, 0, 0)", "antipode law fails on (1, 0, 0)",
                                "Delta([E,F]) relation"]


def test_hopf_negative_control_per_monomial():
    # a wrong S on one monomial with a Cartan power, while its core E^i F^j
    # is right, must fail the antipode law: S is checked on every monomial
    alg = QuantumAlgebra(2)
    assert verify_hopf(2, alg=alg).passed
    bad = (1, 0, 1)
    alg._antipode_cache[bad] = {t: -c for t, c in alg.antipode_mono(bad).items()}
    rep = verify_hopf(2, alg=alg)
    assert {k for k, v in rep.axioms.items() if not v} == {"antipode_law"}
    assert rep.failures == ["antipode law fails on (1, 0, 1)"]


def test_coproduct_perturbed_on_one_monomial_is_not_an_algebra_map():
    # one term dropped from Delta of one monomial t (not 1, E, F or C) must
    # be found at t itself: every monomial is checked as g * t'
    generators = {(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)}
    for p, cases in ((2, 10), (3, 46)):
        seen = 0
        for t in base_algebra(p).monos:
            alg = QuantumAlgebra(p)
            delta = alg.delta_mono(t)
            if t in generators or len(delta) < 2:
                continue
            seen += 1
            alg._delta_cache[t] = delta[:-1]
            rep = verify_hopf(p, alg=alg)
            assert not rep.axioms["coproduct_algebra_map"] and f"Delta not multiplicative on {t}" in rep.failures
        assert seen == cases


def test_tensor_elements_of_different_shapes_are_rejected():
    alg = base_algebra(2)
    d2 = coproduct(alg.E)
    d3 = d2.apply_delta(0)
    for op in (lambda a, b: a + b, lambda a, b: a - b, lambda a, b: a * b):
        with pytest.raises(ValueError, match="tensor elements with 2 and 3 legs"):
            op(d2, d3)
        with pytest.raises(ValueError, match="different algebras"):
            op(d2, coproduct(base_algebra(3).E))
    # the check is a raise, not an assert, so it holds under python -O
    code = ("from uqslcat.algebra import base_algebra, coproduct\n"
            "d = coproduct(base_algebra(2).E)\n"
            "try:\n    d + d.apply_delta(0)\nexcept ValueError:\n    print('rejected')")
    out = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "rejected"


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


def test_algelem_from_json_validates_its_fields():
    one = {"order": 4, "coeffs": ["1", "0"]}
    bad = [
        ("missing field 'f'", {"p": 2, "terms": [{"e": 0}]}),
        ("missing field 'terms'", {"p": 2}),
        ("missing field 'p'", {"terms": []}),
        ("field 'e' must be a JSON int", {"p": 2, "terms": [{"e": 1.7, "f": 0, "k": 0, "c": one}]}),
        ("field 'e' must be a JSON int", {"p": 2, "terms": [{"e": "1", "f": 0, "k": 0, "c": one}]}),
        ("field 'c' must be a JSON dict", {"p": 2, "terms": [{"e": 1, "f": 0, "k": 0, "c": 1}]}),
        ("E/F exponent out of range", {"p": 2, "terms": [{"e": 2, "f": 0, "k": 0, "c": one}]}),
    ]
    for message, doc in bad:
        with pytest.raises(ValueError, match=message) as err:
            AlgElem.from_json(doc)
        assert "\n" not in str(err.value)
    # terms that meet on one monomial are summed, and the Cartan power is reduced
    doc = {"p": 2, "terms": [{"e": 1, "f": 0, "k": 9, "c": one}, {"e": 1, "f": 0, "k": 1, "c": one}]}
    assert AlgElem.from_json(doc) == base_algebra(2).monomial(1, 0, 1, 2)


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


def streaming_legs_with_antipode(alg, d: TensorElem, leg: int) -> dict:
    """m(S (x) id) d or m(id (x) S) d, one streamed product per term of d."""
    def terms():
        for (u1, u2), c in d.terms.items():
            a, b = (alg.antipode_mono(u1), {u2: c}) if leg == 0 else ({u1: c}, alg.antipode_mono(u2))
            yield from streaming_products(alg, a, b, alg.mul_phased).items()
    return linalg.accumulate(terms())


def direct_antipode(alg, term) -> dict:
    """S(E^i F^j C^l) = C^-l (-KF)^j (-E K^-1)^i, one factor at a time."""
    i, j, l = term
    co, kk, one = alg.cartan_order, alg.kk, alg.field.one
    acc = {(0, 0, -l % co): one}
    for _ in range(j):
        acc = streaming_products(alg, acc, {(0, 1, kk): -alg.qpow(-2)}, alg.mul_phased)
    for _ in range(i):
        acc = streaming_products(alg, acc, {(1, 0, -kk % co): -one}, alg.mul_phased)
    return acc


def test_grouped_products_and_coproducts_equal_streaming_reference():
    # the per-core coproducts and antipodes against a build of each monomial
    for alg in [base_algebra(p) for p in (2, 3, 4, 5)] + [extended_algebra(2)]:
        for t in alg.basis_terms():
            direct = _delta_monomial(alg, t, *alg.delta_gens())
            assert {u: (c, k) for u, c, k in alg.delta_mono(t)} == {u: (c, k) for u, c, k in direct}
            assert alg.antipode_mono(t) == direct_antipode(alg, t)
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
            for d in (da, db):
                for leg in (0, 1):
                    assert d.multiply_legs_with_antipode(leg).terms == streaming_legs_with_antipode(alg, d, leg)
            for elem, leg in ((TensorElem(alg, 1, {(t,): c for t, c in a.terms.items()}), 0), (da, 0), (db, 1)):
                assert elem.apply_delta(leg).terms == linalg.accumulate(
                    (t[:leg] + u + t[leg + 1:], c * (alg.roots[k] if cu is None else cu))
                    for t, c in elem.terms.items() for u, cu, k in alg.delta_mono(t[leg]))
        # three-leg products
        for _ in range(2):
            ta, tb = coproduct(rich_elem(alg, rng, 2)).apply_delta(0), coproduct(rich_elem(alg, rng, 2)).apply_delta(1)
            assert (ta * tb).terms == streaming_products(alg, ta.terms, tb.terms, streaming_legs(alg))
    r = r_matrix(2)
    r13, r23 = r.insert_leg(1), r.insert_leg(0)
    assert (r13 * r23).terms == streaming_products(r.alg, r13.terms, r23.terms, streaming_legs(r.alg))
    # at p = 5 the legs of a coproduct normal-order into several terms
    alg = base_algebra(5)
    rng = random.Random(55)
    for _ in range(2):
        da, db = coproduct(rich_elem(alg, rng, 3)), coproduct(rich_elem(alg, rng, 3))
        assert (da * db).terms == streaming_products(alg, da.terms, db.terms, streaming_legs(alg))


def test_product_memo_is_bounded(monkeypatch):
    # a bound far below the distinct products of coproducts of rich elements
    # (verify_hopf(3) alone takes only 6): the memo is emptied when full,
    # never exceeds the bound, and the results stay right
    monkeypatch.setattr(algebra, "PRODUCT_MEMO_SIZE", 16)
    alg, sizes = QuantumAlgebra(3), []
    const_product = alg.const_product

    def spy(x, c):
        z = const_product(x, c)
        assert z == x * c
        sizes.append(len(alg._products))
        return z

    alg.const_product = spy
    rng = random.Random(55)
    for _ in range(3):
        a, b = rich_elem(alg, rng, 4), rich_elem(alg, rng, 4)
        coproduct(a) * coproduct(b)
    assert verify_hopf(3, alg=alg).passed
    assert max(sizes) == 16 and sizes.count(1) > 1
    assert center_basis(3, alg=alg) and max(sizes) == 16


def test_negative_tensor_power_is_rejected():
    d = coproduct(base_algebra(2).E)
    with pytest.raises(ValueError, match="negative powers"):
        d ** -1
    assert d ** 0 == TensorElem.unit(d.alg, 2)


def test_coefficients_from_another_field_are_rejected():
    alg, z8 = base_algebra(2), CycField(8).gen()
    for build in (lambda: alg.monomial(0, 0, 0, z8), lambda: alg.E + z8, lambda: z8 - alg.E,
                  lambda: alg.zero_el * z8, lambda: coproduct(alg.E).scale(z8),
                  lambda: AlgElem.from_json({"p": 2, "terms": [{"e": 0, "f": 0, "k": 0, "c": z8.to_json()}]})):
        with pytest.raises(ValueError, match="mismatched cyclotomic orders 8 and 4"):
            build()


ONE4 = {"order": 4, "coeffs": ["1", "0"]}


def tensor_doc(legs, *keys, c=ONE4):
    return {"p": 2, "legs": legs, "terms": [{"legs": [dict(zip("efk", leg)) for leg in key], "c": c} for key in keys]}


def test_tensor_from_json_validates_legs_and_coefficients():
    bad = {
        "a term lists 1 legs, the element has 2": tensor_doc(2, [(0, 0, 0)]),
        "field 'legs' must be a JSON int": tensor_doc(0),
        "E/F exponent out of range": tensor_doc(1, [(7, 0, 99)]),
        "field 'k' must be a JSON int": tensor_doc(1, [(0, 0, "1")]),
        "mismatched cyclotomic orders 8 and 4": tensor_doc(1, [(0, 0, 0)], c=CycField(8).one.to_json()),
        "missing field 'p'": {"legs": 1, "terms": []},
        "field 'p' must be a JSON int": {"p": 2.7, "legs": 1, "terms": []},
    }
    for message, doc in bad.items():
        with pytest.raises(ValueError, match=message) as err:
            TensorElem.from_json(doc)
        assert "\n" not in str(err.value)
    # the Cartan power is reduced, and terms that meet on one key are summed
    back = TensorElem.from_json(tensor_doc(2, [(1, 0, 99), (0, 1, 0)], [(1, 0, 3), (0, 1, 4)]))
    assert back.terms == {((1, 0, 3), (0, 1, 0)): base_algebra(2).field.from_fraction(2)}
    d = coproduct(base_algebra(3).E * base_algebra(3).F)
    assert TensorElem.from_json(d.to_json()) == d


# -- pinned outputs of the algebra layer ------------------------------------------------


def algebra_digests() -> dict[str, str]:
    """sha256 of products, coproducts, antipodes and the antipode law sums of
    seeded elements, of the center bases and of the Hopf reports."""
    def digest(value) -> str:
        return hashlib.sha256(json.dumps(value, sort_keys=True).encode()).hexdigest()

    out = {}
    for name, alg in [(f"base{p}", base_algebra(p)) for p in (2, 3, 4, 5)] + [("ext2", extended_algebra(2))]:
        rng = random.Random(1800 + alg.cartan_order)
        elems = [rich_elem(alg, rng, 4) for _ in range(6)]
        pairs = list(zip(elems[::2], elems[1::2]))
        deltas = [coproduct(a) for a in elems]
        out[f"{name}/products"] = digest([(a * b).to_json() for a, b in pairs])
        out[f"{name}/coproducts"] = digest([d.to_json() for d in deltas])
        out[f"{name}/tensor_products"] = digest([(da * db).to_json() for da, db in zip(deltas[::2], deltas[1::2])])
        out[f"{name}/antipodes"] = digest([antipode(a).to_json() for a in elems])
        out[f"{name}/legs_with_antipode"] = digest([d.multiply_legs_with_antipode(leg).to_json()
                                                   for d in deltas for leg in (0, 1)])
    for p in (2, 3, 4, 5):
        out[f"center{p}"] = digest([z.to_json() for z in center_basis(p)])
    reports = [(f"hopf{p}", verify_hopf(p)) for p in (2, 3, 4, 5, 6)]
    reports += [(f"hopf{p}_broken", verify_hopf(p, break_delta_e=True)) for p in (2, 3, 4)]
    reports.append(("hopf_ext2", verify_hopf(2, alg=extended_algebra(2))))
    for name, rep in reports:
        out[name] = digest(dataclasses.asdict(rep))
    return out


def test_algebra_outputs_are_pinned():
    # recorded before products took phased sums and the structure-constant memo
    digests = json.loads((Path(__file__).parent / "data" / "algebra_sha256.json").read_text())
    assert algebra_digests() == digests
