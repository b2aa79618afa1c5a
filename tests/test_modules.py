import random

import pytest
from hypothesis import given, settings, strategies as st

from conftest import intertwiner_basis, sample_zs, span_has_invertible
from uqslcat import linalg
from uqslcat.algebra import casimir
from uqslcat.category import find_isomorphism
from uqslcat.cyclotomic import CycField, qint
from uqslcat.qmodules import (CP1, QMod, action_matrix, block_index, build_glued,
                              build_m2, build_o1, build_p, build_w2, coerce_field,
                              direct_sum, dual, irreducible,
                              regular_module, semisimple_length_of, tensor,
                              verify_module, weight_character)


def all_constructed(p):
    out = []
    for a in (1, -1):
        for s in range(1, p + 1):
            out.append(irreducible(p, a, s))
        for s in range(1, p):
            out.append(build_w2(p, a, s))
            out.append(build_m2(p, a, s))
            out.append(build_p(p, a, s))
            for z in sample_zs(p)[:5]:
                out.append(build_o1(p, a, s, z))
    return out


def test_constructors_verify_and_have_right_dimensions():
    for p in (2, 3, 4, 5):
        for a in (1, -1):
            for s in range(1, p + 1):
                m = irreducible(p, a, s)
                assert m.dim == s and verify_module(m).ok
            for s in range(1, p):
                assert build_w2(p, a, s).dim == p + s
                assert build_m2(p, a, s).dim == 2 * p - s
                assert build_p(p, a, s).dim == 2 * p
                for z in sample_zs(p)[:5]:
                    assert build_o1(p, a, s, z).dim == p
        for m in all_constructed(p):
            chk = verify_module(m)
            assert chk.ok, (m.label, chk.violations)


def test_verify_module_negative_control():
    x = irreducible(3, 1, 2)
    mat_e = x.mat_e
    mat_e[0][1] = mat_e[0][1] + x.field.one
    m = QMod(x.p, mat_e, x.mat_f, x.weights, field=x.field)
    chk = verify_module(m)
    assert not chk.ok
    assert any("[E,F]" in v for v in chk.violations)


def test_irreducible_action_values():
    # dimension-2 module at p=2: weights (i, -i), E a_1 = [1][1] a_0 = a_0
    m = irreducible(2, 1, 2)
    f = m.field
    assert list(m.weights) == [1, 3] and [m.qpow(k) for k in m.weights] == [f.gen(), f.gen().inv()]
    assert m.mat_e[0][1] == f.one
    # trivial module
    t = irreducible(3, 1, 1)
    assert linalg.is_zero_mat(t.mat_e) and linalg.is_zero_mat(t.mat_f)
    assert list(t.weights) == [0] and t.qpow(0) == t.field.one
    # sign - flips the E coefficient
    m = irreducible(3, -1, 2)
    assert m.mat_e[0][1] == -qint(3, 1) * qint(3, 1)


def field_character(m):
    """The weight character with each weight as q^k in the field."""
    return {m.qpow(k): n for k, n in weight_character(m).items()}


def test_weight_characters():
    f = CycField(4)
    q = f.gen()
    assert weight_character(irreducible(2, 1, 2)) == {1: 1, 3: 1}
    assert field_character(irreducible(2, 1, 2)) == {q: 1, q.inv(): 1}
    # P+_1 at p=2: the explicit basis gives weights {1: 2, -1: 2}
    assert field_character(build_p(2, 1, 1)) == {f.one: 2, -f.one: 2}


@settings(max_examples=20, deadline=None)
@given(st.sampled_from([2, 3]), st.data())
def test_tensor_character_is_product(p, data):
    mods = all_constructed(p)
    a = data.draw(st.sampled_from(mods))
    b = data.draw(st.sampled_from(mods))
    ca, cb = field_character(a), field_character(b)
    expect = {}
    for wa, ka in ca.items():
        for wb, kb in cb.items():
            expect[wa * wb] = expect.get(wa * wb, 0) + ka * kb
    assert field_character(tensor(a, b)) == expect


def test_tensor_with_trivial_is_identity():
    for p in (2, 3):
        triv = irreducible(p, 1, 1)
        for m in (irreducible(p, -1, p), build_p(p, 1, 1), build_w2(p, 1, 1)):
            t = tensor(triv, m)
            assert verify_module(t).ok
            assert find_isomorphism(t, m) is not None


def test_tensor_of_sign_modules_at_p2():
    x = irreducible(2, -1, 1)
    t = tensor(x, x)
    assert find_isomorphism(t, irreducible(2, 1, 1)) is not None


def test_tensor_associative_up_to_isomorphism():
    rng = random.Random(4)
    for p in (2, 3):
        mods = [irreducible(p, 1, 2), irreducible(p, -1, 1), build_o1(p, 1, 1, CP1.of(p, 1, 1))]
        for _ in range(2):
            a, b, c = (rng.choice(mods) for _ in range(3))
            left = tensor(tensor(a, b), c)
            right = tensor(a, tensor(b, c))
            assert find_isomorphism(left, right) is not None


def test_dual_of_dual():
    for p in (2, 3):
        for m in all_constructed(p)[:10]:
            dd = dual(dual(m))
            assert verify_module(dd).ok
            assert find_isomorphism(dd, m) is not None


def _cartan_contragredient(m):
    # weight-preserving contragredient: x acts through the transpose of
    # the Cartan anti-involution E <-> F, K -> K
    return QMod(m.p, linalg.transpose(m.mat_f), linalg.transpose(m.mat_e),
                m.weights, field=m.field)


def test_duals_of_verma_modules():
    for p in (2, 3):
        for a in (1, -1):
            for s in range(1, p):
                verma_opp = build_o1(p, -a, p - s, CP1.of(p, 1, 0))
                verma = build_o1(p, a, s, CP1.of(p, 1, 0))
                cont = build_o1(p, a, s, CP1.of(p, 0, 1))
                # under the antipode duality the Verma comes back as the
                # Verma of the reflected label
                assert find_isomorphism(dual(verma_opp), verma) is not None
                # the weight-preserving contragredient gives the z = 0:1
                # member of the family, as claimed
                cc = _cartan_contragredient(verma_opp)
                assert verify_module(cc).ok
                assert find_isomorphism(cc, cont) is not None


def test_verma_is_highest_weight_module():
    # z = 1:0 gives a cyclic module generated by an E-killed vector of
    # weight a q^(s-1)
    for p in (2, 3):
        for a in (1, -1):
            for s in range(1, p):
                v = build_o1(p, a, s, CP1.of(p, 1, 0))
                col = [v.mat_e[i][0] for i in range(v.dim)]
                assert not any(col)
                assert v.qpow(v.weights[0]) == v.field.root_of_unity(s - 1) * a


def test_contragredient_verma_highest_weight_observation():
    # the E-kernel of the z = 0:1 module is one-dimensional with weight
    # a q^(-s-1) (= -a q^(p-s-1)); recorded as observed, matching the
    # stated weight through q^p = -1
    for p in (2, 3):
        for a in (1, -1):
            for s in range(1, p):
                v = build_o1(p, a, s, CP1.of(p, 0, 1))
                kernel = linalg.nullspace(v.mat_e)
                assert len(kernel) == 1
                vec = kernel[0]
                support = [i for i, x in enumerate(vec) if x]
                weights = {v.qpow(v.weights[i]) for i in support}
                assert weights == {v.field.root_of_unity(-s - 1) * a}


def test_o_family_distinguishes_z():
    for p in (2, 3):
        zs = sample_zs(p)
        for i, z1 in enumerate(zs):
            for j, z2 in enumerate(zs):
                a = build_o1(p, 1, 1, z1)
                b = build_o1(p, 1, 1, z2)
                homs = intertwiner_basis(a, b)
                has_iso = span_has_invertible(homs, a.dim, a.field)
                assert has_iso == (i == j), (z1, z2)


def test_glued_matches_appendix_forms():
    for p in (2, 3):
        for a in (1, -1):
            for s in range(1, p):
                f = CycField(2 * p)

                class Rep:
                    pass

                # one top over two socle copies, canonical shapes
                rep = Rep()
                rep.d0, rep.d1 = 1, 2
                rep.r = [[f.one], [f.zero]]
                rep.rbar = [[f.zero], [f.one]]
                g = build_glued(p, a, s, rep)
                assert find_isomorphism(g, build_m2(p, a, s)) is not None
                # two tops over one socle copy
                rep = Rep()
                rep.d0, rep.d1 = 2, 1
                rep.r = [[f.one, f.zero]]
                rep.rbar = [[f.zero, f.one]]
                g = build_glued(p, a, s, rep)
                assert find_isomorphism(g, build_w2(p, a, s)) is not None
                # single Verma-direction gluing
                rep = Rep()
                rep.d0, rep.d1 = 1, 1
                rep.r = [[f.one]]
                rep.rbar = [[f.zero]]
                g = build_glued(p, a, s, rep)
                assert find_isomorphism(g, build_o1(p, a, s, CP1.of(p, 1, 0))) is not None


def test_direct_sum_verifies():
    m = direct_sum(irreducible(2, 1, 2), build_p(2, 1, 1))
    assert verify_module(m).ok and m.dim == 6


def test_block_index_of_irreducibles():
    for p in (2, 3):
        for s in range(1, p):
            assert block_index(irreducible(p, 1, s)) == s
            assert block_index(irreducible(p, -1, p - s)) == s
        assert block_index(irreducible(p, 1, p)) == p
        assert block_index(irreducible(p, -1, p)) == 0


def test_casimir_action_matches_block():
    for p in (2, 3):
        cd = casimir(p)
        for s in range(1, p + 1):
            m = irreducible(p, 1, s)
            act = action_matrix(m, cd.element)
            assert act[0][0] == cd.roots[s]


def test_semisimple_lengths():
    for p in (2, 3):
        assert semisimple_length_of(irreducible(p, 1, 1)) == 1
        assert semisimple_length_of(build_o1(p, 1, 1, CP1.of(p, 1, 1))) == 2
        assert semisimple_length_of(build_p(p, 1, 1)) == 3


def test_regular_module():
    for p in (2, 3):
        reg = regular_module(p)
        assert reg.dim == 2 * p ** 3
        assert verify_module(reg).ok


def test_module_serialization_roundtrip():
    m = build_o1(3, -1, 2, CP1.of(3, 1, CycField(6).gen()))
    m2 = QMod.from_json(m.to_json())
    assert m2.p == m.p and m2.dim == m.dim
    assert linalg.mat_eq(m2.mat_e, m.mat_e)
    assert linalg.mat_eq(m2.mat_f, m.mat_f)
    assert m2.weights == m.weights


def test_json_roundtrip_keeps_the_grading():
    # files carry q^k in the field and the module keeps k: reading back what
    # to_json wrote gives the same exponents, weight spaces and blocks
    for p in (2, 3, 4):
        for m in all_constructed(p):
            back = QMod.from_json(m.to_json())
            assert back.weights == m.weights and all(k in range(2 * p) for k in back.weights), m
            assert back.spaces == m.spaces and all(back.blocks(g) == m.blocks(g) for g in "EF"), m


def test_grading_cannot_be_mutated():
    """Assigning a weight once desynchronized it from the stored blocks:
    verify_module read the old grading while to_json wrote the new one."""
    m = irreducible(2, 1, 1)
    with pytest.raises(TypeError):
        m.weights[0] = m.field.from_fraction(2)
    with pytest.raises(TypeError):
        m.spaces[m.field.from_fraction(2)] = (0,)
    with pytest.raises(AttributeError):
        m.spaces[m.weights[0]].append(1)
    assert verify_module(m).ok and m.to_json()["weights"] == [m.field.one.to_json()]


def test_coerce_field():
    m = irreducible(2, 1, 2)
    m8 = coerce_field(m, 8)
    assert m8.field.order == 8 and verify_module(m8).ok


def test_out_of_range_parameters():
    with pytest.raises(ValueError):
        irreducible(3, 1, 4)
    with pytest.raises(ValueError):
        build_p(3, 1, 3)
    with pytest.raises(ValueError):
        CP1.of(2, 0, 0)
