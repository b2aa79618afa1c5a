"""find_isomorphism is decisive: None exactly when the modules are not
isomorphic, otherwise an invertible intertwiner."""

from conftest import intertwiner_basis
from uqslcat import linalg
from uqslcat.category import find_isomorphism
from uqslcat.qmodules import CP1, build_o1, direct_sum, irreducible, tensor, weight_character


def is_isomorphism(phi, a, b) -> bool:
    return linalg.rank(phi) == a.dim == b.dim and all(
        linalg.mat_eq(linalg.mat_mul(b.mat(g), phi), linalg.mat_mul(phi, a.mat(g)))
        for g in ("E", "F", "K")
    )


def test_none_for_same_character_but_not_isomorphic():
    verma = build_o1(2, 1, 1, CP1.of(2, 1, 0))
    contragredient = build_o1(2, 1, 1, CP1.of(2, 0, 1))
    split = direct_sum(irreducible(2, 1, 1), irreducible(2, -1, 1))
    for a, b in ((verma, contragredient), (split, verma)):
        assert a.dim == b.dim and weight_character(a) == weight_character(b)
        assert find_isomorphism(a, b) is None
        assert find_isomorphism(b, a) is None


def test_intertwiner_found_in_a_five_dimensional_hom_space():
    # the triple tensor power of X+_2 at p = 3 in its two bracketings: no
    # single Hom basis element is invertible
    x = irreducible(3, 1, 2)
    left, right = tensor(tensor(x, x), x), tensor(x, tensor(x, x))
    homs = intertwiner_basis(left, right)
    assert left.dim == 8 and len(homs) == 5
    assert not any(linalg.rank(h) == 8 for h in homs)
    phi = find_isomorphism(left, right)
    assert phi is not None and is_isomorphism(phi, left, right)
