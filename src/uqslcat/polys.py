"""Univariate polynomials over a cyclotomic field, with exact root finding.

Polynomials are ascending coefficient lists of CycNum.  Roots that lie in
the coefficient field are recovered by a norm-based factorization: shift
the variable by a multiple of the field generator until the Galois norm of
the polynomial is squarefree over Q, factor that rational polynomial, and
pull each rational factor back through an exact gcd.  Factors that stay
nonlinear witness eigenvalues living outside the field and are reported,
never approximated.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .cyclotomic import CycField, CycNum, dot, sub_mul


def ptrim(p: list[CycNum]) -> list[CycNum]:
    p = list(p)
    while len(p) > 1 and not p[-1]:
        p.pop()
    return p


def pdeg(p) -> int:
    return len(p) - 1


def pmul(p, q):
    return ptrim([dot(p[0].field, ((p[i], q[k - i]) for i in range(max(0, k - len(q) + 1), min(k, len(p) - 1) + 1)))
                  for k in range(len(p) + len(q) - 1)])


def pdivmod(p, q):
    field = p[0].field
    p = list(p)
    dq = pdeg(ptrim(q))
    if dq == 0 and not q[0]:
        raise ZeroDivisionError("polynomial division by zero")
    inv_lead = q[dq].inv()
    out = [field.zero] * max(len(p) - dq, 1)
    for k in range(len(p) - dq - 1, -1, -1):
        c = p[k + dq]
        if c:
            c = c * inv_lead
            out[k] = c
            for i in range(dq + 1):
                if q[i]:
                    p[k + i] = sub_mul(p[k + i], c, q[i])
    return ptrim(out), ptrim(p)


def pmonic(p):
    p = ptrim(p)
    lead = p[-1]
    if not lead or lead == 1:
        return p
    inv = lead.inv()
    return [a * inv for a in p]


def pgcd(p, q):
    a, b = ptrim(p), ptrim(q)
    while not (len(b) == 1 and not b[0]):
        a, b = b, pdivmod(a, b)[1]
    if len(a) == 1 and not a[0]:
        return a
    return pmonic(a)


def pderiv(p):
    field = p[0].field
    if len(p) == 1:
        return [field.zero]
    return ptrim([p[i] * i for i in range(1, len(p))])


def peval(p, x: CycNum) -> CycNum:
    acc = p[0].field.zero
    for c in reversed(p):
        acc = acc * x + c
    return acc


def pshift(p, c: CycNum):
    """p(x + c): its coefficient of x^i is the sum over k >= i of
    binom(k, i) c^(k - i) p_k."""
    field, powers = p[0].field, [c ** e for e in range(len(p))]
    return ptrim([dot(field, ((p[k], powers[k - i] * math.comb(k, i)) for k in range(i, len(p))))
                  for i in range(len(p))])


def galois_conjugate_poly(p, a: int):
    return [c.galois(a) for c in p]


def galois_norm(p) -> list[Fraction]:
    """Product over all Galois conjugates; lands in Q[x]."""
    field: CycField = p[0].field
    units = [a for a in range(1, field.order + 1) if math.gcd(a, field.order) == 1]
    prod = [field.one]
    for a in units:
        prod = pmul(prod, galois_conjugate_poly(p, a))
    out = []
    for c in prod:
        if not c.is_rational():
            raise AssertionError("Galois norm must have rational coefficients")
        out.append(c.as_fraction())
    return out


def factor_rational(coeffs: list[Fraction]) -> list[tuple[list[Fraction], int]]:
    """Irreducible factorization over Q (monic factors), via sympy."""
    import sympy

    x = sympy.Symbol("x")
    poly = sympy.Poly(
        [sympy.Rational(c.numerator, c.denominator) for c in reversed(coeffs)],
        x,
        domain="QQ",
    )
    _, factors = poly.factor_list()
    out = []
    for fac, mult in factors:
        cs = [Fraction(int(c.p), int(c.q)) for c in reversed(fac.all_coeffs())]
        lead = cs[-1]
        if lead != 1:
            cs = [c / lead for c in cs]
        out.append((cs, mult))
    return out


def factor_squarefree(p) -> list[list[CycNum]]:
    """Monic irreducible factors over the coefficient field of a monic
    squarefree polynomial (Trager's norm trick)."""
    field: CycField = p[0].field
    p = pmonic(p)
    if pdeg(p) == 0:
        return []
    if pdeg(p) == 1:
        return [p]
    zeta = field.gen()
    for s in range(0, 50):
        shifted = pshift(p, zeta * (-s))
        norm_factors = factor_rational(galois_norm(shifted))
        if all(mult == 1 for _, mult in norm_factors):  # the norm is squarefree
            break
    else:  # pragma: no cover - theory guarantees a good shift exists
        raise AssertionError("no squarefree Galois norm found")
    factors = []
    remaining = shifted
    for fac_q, _ in norm_factors:
        fac_k = [field.from_fraction(c) for c in fac_q]
        h = pgcd(remaining, fac_k)
        if pdeg(h) > 0:
            factors.append(pshift(h, zeta * s))
            remaining = pdivmod(remaining, h)[0]
    prod = [field.one]
    for f in factors:
        prod = pmul(prod, f)
    assert prod == p, "factorization must multiply back to the input"
    return factors


def roots_in_field(p) -> tuple[list[tuple[CycNum, int]], list[list[CycNum]]]:
    """All roots of p inside its coefficient field with multiplicities,
    plus the monic irreducible factors of degree >= 2 (the part of the
    spectrum outside the field)."""
    field: CycField = p[0].field
    p = pmonic(ptrim(p))
    if pdeg(p) == 0:
        return [], []
    sqfree = pdivmod(p, pgcd(p, pderiv(p)))[0]
    roots = []
    nonlinear = []
    for fac in factor_squarefree(sqfree):
        if pdeg(fac) == 1:
            root = -fac[0]
            assert not peval(p, root)
            mult = 0
            rem = p
            while True:
                quo, r = pdivmod(rem, [-root, field.one])
                if len(r) == 1 and not r[0]:
                    mult += 1
                    rem = quo
                else:
                    break
            roots.append((root, mult))
        else:
            nonlinear.append(fac)
    return roots, nonlinear
