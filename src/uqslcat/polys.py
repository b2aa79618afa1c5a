"""Univariate polynomials over a cyclotomic field, with exact root finding.

Polynomials are ascending coefficient lists of CycNum.  Roots that lie in
the coefficient field are recovered by a norm-based factorization: shift
the variable by a multiple of the field generator until the Galois norm of
the polynomial is squarefree over Q, factor that rational polynomial, and
pull each rational factor back through an exact gcd.  Factors that stay
nonlinear witness eigenvalues living outside the field and are reported,
never approximated.

The rational factorization is the package's own, over Z[x]: split modulo
a small prime (Cantor-Zassenhaus), Hensel-lift the factors above the
Mignotte bound, and recombine them by trial division (Zassenhaus).  It is
deterministic, and every factor it returns has been divided out exactly.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

from .cyclotomic import CycField, CycNum, InternalError, dot, sub_mul


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
            raise InternalError("Galois norm must have rational coefficients")
        out.append(c.as_fraction())
    return out


# -- factorization over Q ------------------------------------------------------
#
# Integer polynomials are ascending lists of ints without trailing zeros, []
# being zero; modulo m their entries are residues in [0, m).

_PRIME_TRIALS = 5  # primes tried to prove a polynomial squarefree; admissible primes compared to factor it


def _trim(f):
    while f and not f[-1]:
        f.pop()
    return f


def _add(f, g, m, c=1):
    """f + c g modulo m."""
    out = list(f) + [0] * (len(g) - len(f))
    for i, b in enumerate(g):
        out[i] += c * b
    return _trim([x % m for x in out])


def _mul(f, g, m):
    """f g modulo m."""
    out = [0] * (len(f) + len(g) - 1) if f and g else []
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] += a * b
    return _trim([x % m for x in out])


def _divmod(f, g, m):
    """Quotient and remainder of f by g modulo m; lc(g) is a unit modulo m."""
    f, dg, inv = list(f), len(g) - 1, pow(g[-1], -1, m)
    q = [0] * max(len(f) - dg, 0)
    for k in range(len(q) - 1, -1, -1):
        q[k] = c = f[k + dg] * inv % m
        if c:
            for i, b in enumerate(g):
                f[k + i] -= c * b
    return _trim(q), _trim([x % m for x in f[:dg]])


def _gcd_mod(f, g, m):
    """The monic gcd of f and g modulo the prime m."""
    while g:
        f, g = g, _divmod(f, g, m)[1]
    return _add([], f, m, pow(f[-1], -1, m))


def _gcdex(f, g, m):
    """(d, s, t) with s f + t g = d, the monic gcd of f and g modulo the prime m."""
    r0, r1, s0, s1, t0, t1 = f, g, [1], [], [], [1]
    while r1:
        q, r = _divmod(r0, r1, m)
        r0, r1, s0, s1, t0, t1 = r1, r, s1, _add(s0, _mul(q, s1, m), m, -1), t1, _add(t0, _mul(q, t1, m), m, -1)
    inv = pow(r0[-1], -1, m)
    return tuple(_add([], x, m, inv) for x in (r0, s0, t0))


def _powmod(f, e, g, m):
    """f^e modulo g and m."""
    out, f = [1], _divmod(f, g, m)[1]
    while e:
        if e & 1:
            out = _divmod(_mul(out, f, m), g, m)[1]
        f, e = _divmod(_mul(f, f, m), g, m)[1], e >> 1
    return out


def _deriv(f):
    return _trim([i * c for i, c in enumerate(f)][1:])


def _primitive(f):
    """f over the gcd of its coefficients, with a positive leading coefficient."""
    c = math.gcd(*f) if f[-1] > 0 else -math.gcd(*f)
    return [x // c for x in f]


def _integer(coeffs) -> list[int]:
    """The primitive integer polynomial with the roots of a rational one."""
    den = math.lcm(*(Fraction(c).denominator for c in coeffs))
    f = _trim([int(c * den) for c in coeffs])
    return _primitive(f) if f else f


def _quo(f, g):
    """f / g in Z[x], or None when g does not divide f.  A quotient that
    divides f has coefficients of at most 2^deg(q) |f|_2 (Mignotte), so a
    larger one stops the division early."""
    q = [0] * (len(f) - len(g) + 1)
    bound = 2 ** len(q) * (math.isqrt(sum(c * c for c in f)) + 1)
    f, dg = list(f), len(g) - 1
    for k in range(len(q) - 1, -1, -1):
        q[k], r = divmod(f[k + dg], g[-1])
        if r or abs(q[k]) > bound:
            return None
        for i, b in enumerate(g):
            f[k + i] -= q[k] * b
    return q if q and not any(f[:dg]) else None


def _odd_primes():
    m = 1
    while True:
        m += 2
        if all(m % k for k in range(3, math.isqrt(m) + 1, 2)):
            yield m


def _gcd(f, g):
    """The primitive gcd of nonzero f and g in Z[x] (Brown, J. ACM 18, 1971):
    b times their monic gcds modulo the primes m that do not divide
    b = gcd(lc f, lc g), joined by CRT over the primes of the least degree
    seen, until the primitive part of the balanced residue is stable and
    divides f and g.  The gcd over Q has no higher degree than one modulo
    such an m, so a common divisor of that degree is the gcd."""
    b, h, mod, last = math.gcd(f[-1], g[-1]), [], 1, None
    for m in _odd_primes():
        if b % m == 0:
            continue
        hm = _gcd_mod(_add([], f, m), _add([], g, m), m)
        if len(hm) == 1:
            return [1]
        if len(hm) > len(h) > 0:
            continue  # m divides a resultant that the gcd does not
        if len(hm) < len(h):
            h, mod = [], 1  # the earlier primes were of that kind
        lift = pow(mod, -1, m)
        h = [x + mod * ((b * y - x) * lift % m) for x, y in zip(h or [0] * len(hm), hm)]
        mod *= m
        cand = _primitive([x - mod if 2 * x > mod else x for x in h])
        if cand == last and _quo(f, cand) is not None and _quo(g, cand) is not None:
            return cand
        last = cand


def _images(f):
    """(m, f modulo m made monic) for the odd primes m, ascending, that do
    not divide lc(f), each with whether f stays squarefree modulo m."""
    for m in _odd_primes():
        if f[-1] % m:
            fm = _add([], f, m, pow(f[-1], -1, m))
            yield m, fm, len(_gcd_mod(fm, _add([], _deriv(fm), m), m)) == 1


def _squarefree_part(f):
    """f over its gcd with f'.  f is its own part when it stays squarefree
    modulo one of the first primes (gcd(f, f') = 1 modulo m then holds over
    Q as well); otherwise the gcd is computed exactly."""
    if any(sqf for _, _, sqf in itertools.islice(_images(f), _PRIME_TRIALS)):
        return f
    return _quo(f, _gcd(f, _deriv(f)))


def _distinct_degree(f, m):
    """(g, d) for each d: g the product of the monic irreducible factors of
    degree d of the monic squarefree f modulo the prime m."""
    out, h, d = [], [0, 1], 0
    while len(f) - 1 >= 2 * (d + 1):
        d += 1
        h = _powmod(h, m, f, m)  # x^(m^d) modulo f
        g = _gcd_mod(f, _add(h, [0, 1], m, -1), m)
        if len(g) > 1:
            out.append((g, d))
            f = _divmod(f, g, m)[0]
    return out + [(f, len(f) - 1)] if len(f) > 1 else out


def _equal_degree(g, d, m, rng):
    """The monic irreducible factors of g, a product of factors of degree d
    modulo the odd prime m, split by gcds with random a^((m^d - 1)/2) - 1."""
    while len(g) - 1 > d:
        a = _trim([rng.randrange(m) for _ in range(len(g) - 1)])
        part = _gcd_mod(g, _add(_powmod(a, (m ** d - 1) // 2, g, m), [1], m, -1), m)
        if 1 < len(part) < len(g):
            return _equal_degree(part, d, m, rng) + _equal_degree(_divmod(g, part, m)[0], d, m, rng)
    return [g]


def _hensel_step(m, f, g, h, s, t):
    """f = g h and s g + t h = 1 modulo m, h monic, lifted to modulo m^2."""
    mm = m * m
    e = _add(f, _mul(g, h, mm), mm, -1)
    q, r = _divmod(_mul(s, e, mm), h, mm)
    g, h = _add(_add(g, _mul(t, e, mm), mm), _mul(q, g, mm), mm), _add(h, r, mm)
    b = _add(_add(_mul(s, g, mm), _mul(t, h, mm), mm), [1], mm, -1)
    c, d = _divmod(_mul(s, b, mm), h, mm)
    return g, h, _add(s, d, mm, -1), _add(_add(t, _mul(t, b, mm), mm, -1), _mul(c, g, mm), mm, -1)


def _hensel_lift(m, f, factors, mod):
    """Monic F_i, equal to factors_i modulo the prime m, with
    f = lc(f) F_1 ... F_r modulo mod, a power of m (binary tree of steps)."""
    if len(factors) == 1:
        return [_add([], f, mod, pow(f[-1], -1, mod))]
    k = len(factors) // 2
    g, h = [f[-1] % m], [1]
    for fac in factors[:k]:
        g = _mul(g, fac, m)
    for fac in factors[k:]:
        h = _mul(h, fac, m)
    _, s, t = _gcdex(g, h, m)
    step = m
    while step < mod:
        g, h, s, t = _hensel_step(step, f, g, h, s, t)
        step *= step
    return _hensel_lift(m, g, factors[:k], mod) + _hensel_lift(m, h, factors[k:], mod)


def _zassenhaus(f) -> list[list[int]]:
    """The irreducible factors in Z[x] of a primitive squarefree f with a
    positive leading coefficient and f(0) != 0 (Zassenhaus, J. Number
    Theory 1, 1969): factor modulo a prime, Hensel-lift above the Mignotte
    bound, and recombine subsets of the lifted factors by trial division.
    Of the first primes that keep f squarefree, the one with the fewest
    factors (counted after the distinct-degree step) is used, and the
    equal-degree step is seeded by it (Cantor and Zassenhaus, Math. Comp.
    36, 1981)."""
    lc, n, tried = f[-1], len(f) - 1, []
    for m, fm, sqf in _images(f):
        if sqf:
            parts = _distinct_degree(fm, m)
            tried.append((sum((len(g) - 1) // d for g, d in parts), m, parts))
            if len(tried) == _PRIME_TRIALS or tried[-1][0] == 1:
                break
    count, m, parts = min(tried, key=lambda t: t[0])
    if count == 1:
        return [f]
    rng = random.Random(m)
    modular = [fac for g, d in parts for fac in _equal_degree(g, d, m, rng)]
    # a factor of f, scaled to the leading coefficient lc, has coefficients below bound / 2
    bound, mod = 2 * lc * 2 ** n * (math.isqrt(sum(c * c for c in f)) + 1), m
    while mod <= bound:
        mod *= m
    lifted = _hensel_lift(m, f, modular, mod)
    symmetric = lambda x: x - mod if 2 * x > mod else x
    found, rest, size = [], list(range(len(lifted))), 1
    while 2 * size <= len(rest):
        for subset in itertools.combinations(rest, size):
            const = symmetric(math.prod((lifted[i][0] for i in subset), start=lc) % mod)
            if not const or lc * f[0] % const:  # the constant term of a scaled factor divides lc f(0)
                continue
            g = [lc]
            for i in subset:
                g = _mul(g, lifted[i], mod)
            g = _primitive([symmetric(x) for x in g])
            q = _quo(f, g)
            if q is not None:
                found.append(g)
                f, lc, rest = q, q[-1], [i for i in rest if i not in subset]
                break
        else:
            size += 1
    return found + [f]


def factor_rational(coeffs) -> list[tuple[list[Fraction], int]]:
    """The monic irreducible factors over Q of a rational polynomial, with
    multiplicities.  The primitive integer polynomial is its squarefree
    part times the rest; _zassenhaus divides the part into its factors
    exactly, and each factor is divided out of the rest as often as it
    goes, which must leave 1.  The order is ascending degree, then
    multiplicity, then the primitive integer coefficients from the highest
    degree down."""
    f, found = _integer(coeffs), []
    if len(f) < 2:
        return []
    zeros = next(i for i, c in enumerate(f) if c)
    if zeros:
        found.append(([0, 1], zeros))
        f = f[zeros:]
    if len(f) > 1:
        part = _squarefree_part(f)
        f = _quo(f, part)
        for g in _zassenhaus(part):
            k = 1
            while (q := _quo(f, g)) is not None:
                f, k = q, k + 1
            found.append((g, k))
    if f != [1]:
        raise InternalError("the rational factors do not multiply back to the input")
    found.sort(key=lambda gk: (len(gk[0]), gk[1], gk[0][::-1]))
    return [([Fraction(c, g[-1]) for c in g], k) for g, k in found]


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
        norm = galois_norm(shifted)
        f = _integer(norm)
        if _squarefree_part(f) == f:
            break
    else:  # pragma: no cover - theory guarantees a good shift exists
        raise InternalError("no squarefree Galois norm found")
    factors = []
    remaining = shifted
    for fac_q, _ in factor_rational(norm):
        fac_k = [field.from_fraction(c) for c in fac_q]
        h = pgcd(remaining, fac_k)
        if pdeg(h) > 0:
            factors.append(pshift(h, zeta * s))
            remaining = pdivmod(remaining, h)[0]
    prod = [field.one]
    for f in factors:
        prod = pmul(prod, f)
    if prod != p:
        raise InternalError("the factors over the field do not multiply back to the input")
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
            if peval(p, root):
                raise InternalError("a linear factor's root is not a root of the polynomial")
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
