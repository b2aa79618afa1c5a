import cmath
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from uqslcat import linalg
from uqslcat.cyclotomic import (CycField, CycNum, cyclotomic_polynomial, dot, dot_phased,
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
    """Elements with zero, small and 200-bit numerators over mixed denominators;
    about half of them rational, so both paths of the kernel run."""
    if draw(st.integers(0, 5)) == 0:
        return field.zero
    coeffs = [Fraction(draw(kernel_coeff), draw(kernel_den)) for _ in range(field.degree)]
    if draw(st.booleans()):
        coeffs[1:] = [0] * (field.degree - 1)
    return field.from_coeffs(coeffs)


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
    # generators take the vector path, the ones the rational path
    for a, b in ((CycField(4).gen(), CycField(6).gen()), (CycField(4).one, CycField(6).one)):
        with pytest.raises(ValueError, match="mismatched cyclotomic orders"):
            dot(CycField(4), [(a, a), (a, b)])
        with pytest.raises(ValueError, match="mismatched cyclotomic orders"):
            dot(CycField(4), [(b, b)])
        for args in ((a, a, b), (a, b, a), (b, a, a)):
            with pytest.raises(ValueError, match="mismatched cyclotomic orders"):
                sub_mul(*args)
        with pytest.raises(ValueError, match="mismatched cyclotomic orders"):
            a * b
    # a field mismatch after the sum has left the rational path
    f4 = CycField(4)
    with pytest.raises(ValueError, match="mismatched cyclotomic orders"):
        dot(f4, [(f4.one, f4.one), (f4.gen(), f4.one), (f4.one, CycField(6).one)])


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 24), st.integers(-60, 60), st.data())
def test_rotation_equals_product_by_root_of_unity(order, k, data):
    # k runs below zero and above the order; the elements mix denominators
    field = CycField(order)
    x = data.draw(kernel_elements(field))
    y, z = x.times_root(k), x * field.root_of_unity(k)
    assert same_bits(y, z)
    assert (y is field.zero) == (z is field.zero) == (x is field.zero)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 24), st.data())
def test_dot_phased_equals_sum_of_rotated_products(order, data):
    # the phases run below zero and above the order; the elements mix
    # denominators and 200-bit numerators, and the list may be empty
    field = CycField(order)
    triples = data.draw(st.lists(st.tuples(kernel_elements(field), kernel_elements(field), st.integers(-60, 60)),
                                 max_size=7))
    naive = field.zero
    for x, y, k in triples:
        naive = naive + (x * y).times_root(k)
    assert same_bits(dot_phased(field, triples), naive)
    assert (dot_phased(field, triples) is field.zero) == (naive is field.zero)
    # each term cancelled by its negative, one full turn of the phase apart
    assert dot_phased(field, triples + [(-x, y, k + order) for x, y, k in triples]) is field.zero


def test_dot_phased_rejects_a_foreign_field():
    f4, f6 = CycField(4), CycField(6)
    for a, b in ((f4.gen(), f6.gen()), (f4.one, f6.one)):
        for triples in ([(a, b, 0)], [(b, a, 1)], [(a, a, 2), (b, b, 3)]):
            with pytest.raises(ValueError, match="mismatched cyclotomic orders"):
                dot_phased(f4, triples)
    assert dot_phased(f4, []) is f4.zero


@st.composite
def rationals(draw):
    return Fraction(draw(kernel_coeff), draw(kernel_den)) if draw(st.integers(0, 5)) else Fraction(0)


def as_rational(field, r: Fraction) -> tuple:
    # the normalized representation of r, built without the field's arithmetic
    return (field, (r.numerator,) + (0,) * (field.degree - 1), r.denominator)


def rep(x: CycNum) -> tuple:
    return (x.field, x.num, x.den)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(KERNEL_ORDERS), st.lists(rationals(), min_size=3, max_size=9))
def test_rational_path_equals_fraction_arithmetic(order, fracs):
    field = CycField(order)
    a, b, c = fracs[:3]
    x, y, z = (field.from_fraction(r) for r in (a, b, c))
    assert rep(x) == as_rational(field, a)
    assert rep(x * y) == as_rational(field, a * b)
    assert rep(sub_mul(x, y, z)) == as_rational(field, a - b * c)
    if a:
        assert rep(x.inv()) == as_rational(field, 1 / a)
    pairs = list(zip(fracs, reversed(fracs)))
    assert rep(dot(field, [(field.from_fraction(u), field.from_fraction(v)) for u, v in pairs])) == \
        as_rational(field, sum((u * v for u, v in pairs), Fraction(0)))


def test_every_zero_is_the_shared_zero():
    for order in KERNEL_ORDERS:
        f = CycField(order)
        for a in (f.from_fraction(Fraction(-3, 7)), f.gen() + Fraction(1, 2)):
            assert a - a is f.zero
            assert a * 0 is f.zero and f.zero * a is f.zero
            assert sub_mul(a, f.one, a) is f.zero
            assert dot(f, [(a, f.one), (-a, f.one)]) is f.zero
        assert -f.zero is f.zero
        assert f.from_fraction(0) is f.zero
        assert f.from_coeffs([0] * f.degree) is f.zero


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(KERNEL_ORDERS), st.data())
def test_truth_of_every_kernel_result_is_its_coefficients(order, data):
    # bool(x) is the identity test x is not field.zero: it must agree with
    # the coefficients on whatever the kernel builds
    field = CycField(order)
    x, y, z = (data.draw(kernel_elements(field)) for _ in range(3))
    a = data.draw(st.sampled_from([a for a in range(1, order + 1) if math.gcd(a, order) == 1]))
    results = [x * y, x * field.zero, x + y, x - y, x - x, -x, -field.zero,
               dot(field, [(x, y), (z, x)]), dot(field, [(x, y), (-x, y)]), dot(field, []),
               sub_mul(x, y, z), sub_mul(x, field.one, x),
               field.from_coeffs(x.coeffs), field.from_coeffs([0] * field.degree),
               CycNum.from_json(x.to_json()), x.galois(a), x.embed(2 * order)]
    if x:
        results.append(x.inv())
    rat = [field.from_fraction(Fraction(e.num[0], e.den)) for e in (x, y, z)]
    for u, v, w in (rat, (x, field.gen(), z)):  # the integer and the vector path of rref
        red, _ = linalg.rref([[u, v, w], [v, w, u], [u + v, v + w, w + u]])
        results += [e for row in red for e in row]
    for r in results:
        assert bool(r) == any(r.num)
