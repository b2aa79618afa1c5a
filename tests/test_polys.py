"""Factorization over Q against sympy's factor_list, the oracle: the same
monic factors, multiplicities and order, on random products of
irreducibles, the Galois norms the decompositions meet, cyclotomic and
Swinnerton-Dyer polynomials, and edge cases.  A subprocess in which
importing sympy fails decomposes modules whose classification factors a
norm, so the package itself never needs sympy."""

import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
import sympy

from conftest import scramble
from uqslcat.cli import parse_label
from uqslcat.cyclotomic import CycField
from uqslcat.polys import factor_rational, factor_squarefree, galois_norm, pmul, pshift, roots_in_field
from uqslcat.qmodules import direct_sum

X = sympy.Symbol("x")
SRC = Path(__file__).resolve().parent.parent / "src"


def reference(coeffs):
    poly = sympy.Poly([sympy.Rational(c.numerator, c.denominator) for c in reversed(coeffs)], X, domain="QQ")
    out = []
    for fac, mult in poly.factor_list()[1]:
        cs = [Fraction(int(c.p), int(c.q)) for c in reversed(fac.all_coeffs())]
        out.append(([c / cs[-1] for c in cs], mult))
    return out


def coefficients(expr):
    return [Fraction(int(c.p), int(c.q)) for c in reversed(sympy.Poly(expr, X).all_coeffs())]


def agrees(coeffs):
    coeffs = [Fraction(c) for c in coeffs]
    got = factor_rational(coeffs)
    assert got == reference(coeffs), coeffs
    return got


def random_irreducible(rng, degree):
    while True:
        g = rng.randint(1, 5) * X ** degree + sum(rng.randint(-9, 9) * X ** i for i in range(degree))
        if sympy.Poly(g, X).is_irreducible:
            return g


@pytest.mark.parametrize("seed", range(8))
def test_random_products_of_irreducibles(seed):
    rng = random.Random(seed)
    for _ in range(25):
        f = sympy.Rational(rng.choice([1, -3, 7]), rng.choice([1, 2, 5]))
        for _ in range(rng.randint(1, 4)):
            f *= random_irreducible(rng, rng.randint(1, 6)) ** rng.choice([1, 1, 2, 3])
        f *= X ** rng.choice([0, 0, 1, 2])
        agrees(coefficients(f))


# Galois norms that factor_squarefree meets: on the first 40 criterion-7 sums
# (the first is the norm of a shift that is not squarefree), in canonical_mix,
# and on sums of O modules at p = 3.
NORMS = [
    ["4", "-4", "5", "-4", "1"],
    ["20", "-16", "9", "-4", "1"],
    ["1/16", "-1/4", "-1/8", "5/4", "1/16", "-5/2", "-1/2", "2", "1"],
    ["31/16", "5/8", "21/4", "-35/16", "51/16", "-5/4", "-1", "0", "1"],
    ["21", "-36", "25", "-8", "1"],
    ["4", "-6", "7", "-3", "1"],
]


@pytest.mark.parametrize("norm", NORMS)
def test_norms_met_by_decompositions(norm):
    agrees([Fraction(c) for c in norm])


def test_cyclotomic_polynomials_and_their_products():
    for n in range(1, 61):
        assert len(agrees(coefficients(sympy.cyclotomic_poly(n, X)))) == 1
    for n in range(1, 41):
        assert len(agrees([-1] + [0] * (n - 1) + [1])) == len(sympy.divisors(n))


def test_swinnerton_dyer_polynomials_up_to_degree_16():
    """Irreducible, yet split into factors of degree at most 2 modulo every
    prime: the hard case for recombination."""
    polys = [sympy.swinnerton_dyer_poly(n, X) for n in range(1, 5)]
    for g in polys:
        assert len(agrees(coefficients(g))) == 1
    agrees(coefficients(polys[2] * polys[1] ** 2 * (3 * X - 1)))


def test_non_monic_rational_linear_and_constant_inputs():
    agrees([Fraction(-1, 2), 0, 2])  # 2x^2 - 1/2
    agrees([Fraction(5, 3), Fraction(7, 4)])
    agrees([0, Fraction(-3, 7)])
    agrees([Fraction(1, 6), Fraction(-5, 6), 1])
    assert factor_rational([Fraction(5)]) == [] and factor_rational([0]) == [] and factor_rational([0, 0]) == []
    assert factor_rational([0, 0, 0, 4]) == [([0, 1], 3)]


def test_roots_in_field_with_many_modular_factors():
    """Twelve distinct roots in Q(zeta_12): the norms of degree 48 split into
    many factors modulo every prime (the shifts by 0, 1 and 2 times zeta are
    not squarefree, the shift by 3 is), and each root comes back with its
    multiplicity."""
    field = CycField(12)
    z = field.gen()
    want = [(z ** k + field.from_fraction(k), 1 + k % 2) for k in range(12)]
    p, sqfree = [field.one], [field.one]
    for root, mult in want:
        sqfree = pmul(sqfree, [-root, field.one])
        for _ in range(mult):
            p = pmul(p, [-root, field.one])
    roots, nonlinear = roots_in_field(p)
    assert not nonlinear and sorted(roots, key=str) == sorted(want, key=str)
    for s in range(4):
        agrees(galois_norm(pshift(sqfree, z * -s)))


def test_factor_squarefree_pulls_back_through_a_shift():
    """x^2 - 1 and x^2 + 1 over Q(i): the unshifted norms (x^2 - 1)^2 and
    (x^2 + 1)^2 are not squarefree, and x^2 + 1 only splits through a
    shifted norm, since i and -i are conjugate."""
    field = CycField(4)
    for c, roots in ((-1, ["-1", "1"]), (1, ["-q", "q"])):
        got = factor_squarefree([field.from_fraction(c), field.zero, field.one])
        assert all(len(f) == 2 for f in got) and sorted((-f[0]).to_string() for f in got) == roots


SUMS = [  # scrambled sums whose classification factors a norm over Q
    (2, ["W-:1:3", "O+:1:4:1/2", "O+:1:1:1/q"]),  # criterion-7 corpus entry 4
    (3, ["O+:1:1:1/1", "O+:1:2:1/2", "X-:2"]),
]

NO_SYMPY = """
import json, sys
sys.modules["sympy"] = None  # any import of sympy now raises ImportError
from uqslcat import category, polys
from uqslcat.qmodules import QMod
calls = []
factor = polys.factor_rational
polys.factor_rational = lambda coeffs: calls.append(coeffs) or factor(coeffs)
got = [category.decompose(QMod.from_json(m)).multiset() for m in json.loads(sys.stdin.read())]
print(json.dumps({"multisets": got, "calls": len(calls), "sympy": repr(sys.modules.get("sympy"))}))
"""


def test_decompose_never_imports_sympy():
    modules, want = [], []
    for p, labels in SUMS:
        lbls = [parse_label(text, p) for text in labels]
        modules.append(scramble(direct_sum(*[lbl.rebuild(p) for lbl in lbls]), random.Random(p)).to_json())
        want.append({str(lbl): 1 for lbl in lbls})
    env = dict(os.environ, PYTHONPATH=str(SRC))
    got = subprocess.run([sys.executable, "-c", NO_SYMPY], input=json.dumps(modules), env=env,
                         capture_output=True, text=True, check=True)
    result = json.loads(got.stdout)
    assert result["multisets"] == want
    assert result["calls"] >= len(SUMS) and result["sympy"] == "None"
