import hashlib
import json
import random
from pathlib import Path

import pytest

from conftest import intertwiner_basis
from uqslcat import linalg
from uqslcat.algebra import TensorElem, coproduct, counit, extended_algebra, verify_hopf
from uqslcat.braiding import (braid_action, k_diagonal, monodromy, r_matrix,
                              r_matrix_inverse, ribbon, ribbon_in_base,
                              ribbon_scalars, tensor_action,
                              verify_quasitriangular, verify_ribbon)
from uqslcat.cli import run
from uqslcat.qmodules import build_p, coerce_field, direct_sum, irreducible, tensor


def test_extended_algebra_relations():
    alg = extended_algebra(2)
    k, E, F = alg.cartan, alg.E, alg.F
    q = alg.q
    assert k ** 8 == alg.one_el
    assert k * k == alg.K
    assert k * E == E * k * q
    assert k * F == F * k * q.inv()
    assert E * E == alg.zero_el and F * F == alg.zero_el
    assert len(list(alg.basis_terms())) == 32


def test_extended_hopf_axioms():
    assert verify_hopf(2, alg=extended_algebra(2)).passed


def test_r_matrix_invertible():
    r = r_matrix(2)
    rinv = r_matrix_inverse(2)
    alg = extended_algebra(2)
    assert r * rinv == TensorElem.unit(alg, 2)


def test_r_intertwines_coproduct():
    alg = extended_algebra(2)
    r = r_matrix(2)
    for gen in (alg.E, alg.F, alg.cartan):
        d = coproduct(gen)
        assert r * d == d.flip() * r


def test_braiding_checks_reject_a_perturbed_r_matrix():
    # negative control: one E (x) F coefficient of R times zeta_8
    alg = extended_algebra(2)
    terms = dict(r_matrix(2).terms)
    key = ((1, 0, 3), (0, 1, 5))
    terms[key] = terms[key] * alg.field.gen()
    bad = TensorElem(alg, 2, terms)
    assert bad * r_matrix_inverse(2) != TensorElem.unit(alg, 2)
    for gen in (alg.E, alg.F):
        d = coproduct(gen)
        assert bad * d != d.flip() * bad


def test_extended_products_act_as_products_of_actions():
    # two-leg products against the product of their actions on m1 (x) m2,
    # for both choices of the square root of K
    alg = extended_algebra(2)
    f, rng = alg.field, random.Random(5)
    m1 = coerce_field(build_p(2, 1, 1), 8)
    m2 = coerce_field(direct_sum(build_p(2, -1, 1), irreducible(2, 1, 2)), 8)
    terms = list(alg.basis_terms())

    def random_tensor():
        return TensorElem(alg, 2, {(rng.choice(terms), rng.choice(terms)): f.root_of_unity(rng.randrange(8))
                                   * rng.randint(1, 3) for _ in range(4)})

    for sign in (1, -1):
        for _ in range(3):
            a, b = random_tensor(), random_tensor()
            act = lambda x: tensor_action(m1, m2, x, sign=sign)
            assert act(a * b) == linalg.mat_mul(act(a), act(b))


def test_hexagon_identities():
    rep = verify_quasitriangular(2)
    assert rep["hexagon_delta_leg1"] and rep["hexagon_delta_leg2"]
    assert all(rep.values()), rep


def test_p_other_than_two_rejected():
    with pytest.raises(ValueError):
        r_matrix(3)
    with pytest.raises(ValueError):
        ribbon(5)


def test_ribbon_element_properties():
    rep = verify_ribbon(2)
    assert rep["central"]
    assert rep["in_center_span"]
    assert rep["ribbon_axiom"]
    assert rep["trivial_module_scalar_one"]


def test_ribbon_counit_is_one():
    assert counit(ribbon(2)) == extended_algebra(2).field.one


def test_ribbon_scalars_on_irreducibles():
    scal = ribbon_scalars(2)
    f = extended_algebra(2).field
    assert scal["X+_1"] == f.one
    assert scal["X-_1"] == f.one
    assert scal["X+_2"] == f.gen()       # e^(i pi/4)
    assert scal["X-_2"] == -f.gen()


def test_k_diagonal_squares_to_k():
    for a in (1, -1):
        for s in (1, 2):
            m = coerce_field(irreducible(2, a, s), 8)
            for sign in (1, -1):
                kd = k_diagonal(m, sign)
                assert all(kd[i] * kd[i] == m.qpow(m.weights[i]) for i in range(m.dim))


def test_braiding_with_trivial_module():
    x1 = irreducible(2, 1, 1)
    x2 = irreducible(2, 1, 2)
    c = braid_action(x1, x2, sign=1)
    assert linalg.mat_eq(c, linalg.identity(coerce_field(x2, 8).field, 2))


def test_braiding_is_module_map():
    x1 = irreducible(2, 1, 1)
    x2 = irreducible(2, 1, 2)
    xm1 = irreducible(2, -1, 1)
    for a, b in ((x2, x2), (x1, x2), (x2, xm1), (xm1, xm1)):
        c = braid_action(a, b, sign=1)
        t_ab = coerce_field(tensor(a, b), 8)
        t_ba = coerce_field(tensor(b, a), 8)
        for gen in ("E", "F", "K"):
            assert linalg.mat_eq(
                linalg.mat_mul(c, t_ab.mat(gen)),
                linalg.mat_mul(t_ba.mat(gen), c),
            )
        assert linalg.rank(c) == t_ab.dim


def test_braiding_naturality_against_intertwiners():
    # c (phi (x) psi) = (psi (x) phi) c for module maps phi, psi
    x2 = irreducible(2, 1, 2)
    m = tensor(irreducible(2, -1, 1), irreducible(2, -1, 1))  # isomorphic to trivial
    phi = intertwiner_basis(coerce_field(m, 8), coerce_field(m, 8))[0]
    c1 = braid_action(m, x2, sign=1)
    x2e = coerce_field(x2, 8)
    lhs = linalg.mat_mul(c1, linalg.kron(phi, linalg.identity(x2e.field, 2)))
    rhs = linalg.mat_mul(linalg.kron(linalg.identity(x2e.field, 2), phi), c1)
    assert linalg.mat_eq(lhs, rhs)


def test_two_braiding_choices_differ():
    x1 = irreducible(2, 1, 1)
    x2 = irreducible(2, 1, 2)
    assert not linalg.mat_eq(braid_action(x1, x2, sign=1), braid_action(x1, x2, sign=-1))


def test_monodromy_is_intertwiner():
    mods = [irreducible(2, 1, 1), irreducible(2, 1, 2), irreducible(2, -1, 1), irreducible(2, -1, 2)]
    for a in mods:
        for b in mods:
            m = monodromy(a, b, sign=1)
            tt = coerce_field(tensor(a, b), 8)
            for gen in ("E", "F", "K"):
                g = tt.mat(gen)
                assert linalg.mat_eq(linalg.mat_mul(m, g), linalg.mat_mul(g, m))


def test_r_and_ribbon_serialize_as_term_lists():
    r = r_matrix(2)
    back = TensorElem.from_json(r.to_json())
    assert back == r
    v = ribbon(2)
    from uqslcat.algebra import AlgElem

    assert AlgElem.from_json(v.to_json(), extended_algebra(2)) == v


def test_ribbon_in_base_has_k_cartan():
    vb = ribbon_in_base(2)
    assert vb.alg.kk == 1 and vb.alg.field.order == 8
    # acting with it through the ordinary K-action gives the same scalars
    from uqslcat.qmodules import action_matrix

    m = coerce_field(irreducible(2, 1, 2), 8)
    act = action_matrix(m, vb)
    assert act[0][0] == m.field.gen()


DATA = Path(__file__).parent / "data"


def test_braiding_outputs_are_pinned(capsys):
    # braid-check --p 2 --format json and digests of R^-1 and of the
    # monodromy R_21 R, recorded before the integer-key product kernel
    assert run(["braid-check", "--p", "2", "--format", "json"]) == 0
    assert capsys.readouterr().out == (DATA / "braid_check_p2.json").read_text()
    digests = json.loads((DATA / "braiding_p2_sha256.json").read_text())
    r = r_matrix(2)
    for name, elem in (("r_matrix_inverse", r_matrix_inverse(2)), ("monodromy", r.flip() * r)):
        text = json.dumps(elem.to_json(), sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == digests[name]
