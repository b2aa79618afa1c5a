import cmath
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from uqslcat.cyclotomic import (CycField, CycNum, cyclotomic_polynomial, dot,
                                parse_cyc, q_parameter, qint, sub_mul)

ORDERS = [4, 6, 8, 10, 12]


def test_cyclotomic_polynomials_against_sympy():
    import sympy

    x = sympy.symbols("x")
    for n in range(1, 30):
        mine = list(cyclotomic_polynomial(n))
        ref = [int(c) for c in sympy.Poly(sympy.cyclotomic_poly(n, x), x).all_coeffs()[::-1]]
        assert mine == ref


def test_q_relations():
    for p in range(2, 7):
        q = q_parameter(p)
        assert q ** p == -1
        assert q ** (2 * p) == 1
        assert q * q.inv() == 1


def test_q_squared_is_minus_one_at_p2():
    q = q_parameter(2)
    assert q * q == -1


def test_qint_examples():
    assert not qint(2, 0)
    assert qint(2, 1) == 1
    assert not qint(2, 2)  # q^2 = -1 forces [2] = 0
    # [2] at p=3 equals q + q^-1 = 2cos(pi/3) = 1
    assert qint(3, 2) == 1


def test_qint_symmetry_and_vanishing():
    for p in range(2, 7):
        for n in range(-3 * p, 3 * p + 1):
            assert qint(p, p - n) == qint(p, n)
        assert not qint(p, p)


def test_float_embedding_oracle():
    # exact evaluation of (q + q^-1)^2 against the numeric root
    for p in (2, 3, 5):
        q = q_parameter(p)
        val = (q + q.inv()) ** 2
        z = cmath.exp(1j * cmath.pi / p)
        assert abs(val.to_complex() - (z + 1 / z) ** 2) < 1e-12


def test_to_complex_basics():
    f = CycField(4)
    assert f.one.to_complex() == 1.0
    assert abs(q_parameter(2).to_complex() - 1j) < 1e-12
    assert abs(qint(3, 2).to_complex() - 1.0) < 1e-12


def test_exact_identities_evaluate_to_zero():
    for p in (2, 3, 4, 5):
        q = q_parameter(p)
        ident = q ** p + 1  # q^p = -1
        assert abs(ident.to_complex()) < 1e-10
        assert not ident


coeff = st.fractions(min_value=-5, max_value=5, max_denominator=6)


@st.composite
def field_elements(draw, order=None):
    order = order or draw(st.sampled_from(ORDERS))
    field = CycField(order)
    return field.from_coeffs([draw(coeff) for _ in range(field.degree)])


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(ORDERS), st.data())
def test_field_axioms(order, data):
    a = data.draw(field_elements(order=order))
    b = data.draw(field_elements(order=order))
    c = data.draw(field_elements(order=order))
    assert (a + b) * c == a * c + b * c
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    if a:
        assert a * a.inv() == 1
        assert (b / a) * a == b


def test_division_by_zero():
    f = CycField(4)
    with pytest.raises(ZeroDivisionError):
        f.one / f.zero


def test_mismatched_orders_rejected():
    with pytest.raises(ValueError):
        CycField(4).one + CycField(6).one


def test_galois_and_embedding():
    f = CycField(8)
    z = f.gen()
    for a in (1, 3, 5, 7):
        assert z.galois(a) == z ** a
    # zeta_4 -> zeta_8^2
    v = CycField(4).gen()
    assert v.embed(8) == CycField(8).gen() ** 2
    # embedding is a ring map on a sample
    x = CycField(4).from_coeffs([Fraction(1, 2), 3])
    y = CycField(4).from_coeffs([2, Fraction(-1, 3)])
    assert (x * y).embed(8) == x.embed(8) * y.embed(8)


@settings(max_examples=40, deadline=None)
@given(field_elements())
def test_serialization_roundtrip(a):
    assert CycNum.from_json(a.to_json()) == a
    assert parse_cyc(a.to_string(), a.order) == a


def test_parse_forms():
    for text, order, want in [
        ("0", 4, CycField(4).zero),
        ("-1/2", 4, CycField(4).from_fraction(Fraction(-1, 2))),
        ("q^2", 8, CycField(8).gen() ** 2),
        ("2q-1", 6, CycField(6).gen() * 2 - 1),
        ("(1+q)^2", 6, (CycField(6).gen() + 1) ** 2),
    ]:
        assert parse_cyc(text, order) == want
    with pytest.raises(ValueError):
        parse_cyc("q+", 4)
    with pytest.raises(ValueError):
        parse_cyc("foo", 4)


# -- the fused product kernel against chains of * and + ----------------------------

KERNEL_ORDERS = [1, 4, 6, 8, 10, 12]
big = st.integers(2 ** 200, 2 ** 230).flatmap(lambda n: st.sampled_from([n, -n]))
kernel_coeff = st.one_of(st.just(0), st.integers(-5, 5), big)
kernel_den = st.one_of(st.sampled_from([1, 2, 3, 6, 35]), st.integers(2 ** 200, 2 ** 210))


@st.composite
def kernel_elements(draw, field):
    """Elements with zero, small and 200-bit numerators over mixed denominators."""
    if draw(st.integers(0, 5)) == 0:
        return field.zero
    return field.from_coeffs([Fraction(draw(kernel_coeff), draw(kernel_den)) for _ in range(field.degree)])


def same_bits(a: CycNum, b: CycNum) -> bool:
    return a.field is b.field and a.num == b.num and a.den == b.den


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(KERNEL_ORDERS), st.data())
def test_dot_equals_naive_sum_of_products(order, data):
    field = CycField(order)
    pairs = data.draw(st.lists(st.tuples(kernel_elements(field), kernel_elements(field)), max_size=7))
    naive = field.zero
    for x, y in pairs:
        naive = naive + x * y
    assert same_bits(dot(field, pairs), naive)
    assert same_bits(dot(field, iter(pairs)), naive)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(KERNEL_ORDERS), st.data())
def test_sub_mul_equals_naive_update(order, data):
    field = CycField(order)
    x, f, y = (data.draw(kernel_elements(field)) for _ in range(3))
    assert same_bits(sub_mul(x, f, y), x - f * y)


def test_kernel_rejects_mixed_fields():
    a, b = CycField(4).gen(), CycField(6).gen()
    with pytest.raises(ValueError, match="mismatched cyclotomic orders"):
        dot(CycField(4), [(a, a), (a, b)])
    with pytest.raises(ValueError, match="mismatched cyclotomic orders"):
        dot(CycField(4), [(b, b)])
    for args in ((a, a, b), (a, b, a), (b, a, a)):
        with pytest.raises(ValueError, match="mismatched cyclotomic orders"):
            sub_mul(*args)
    with pytest.raises(ValueError, match="mismatched cyclotomic orders"):
        a * b
