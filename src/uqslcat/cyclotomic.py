"""Exact arithmetic in cyclotomic fields Q(zeta_N).

Everything downstream (quantum-group structure constants, module matrices,
pencil canonical forms) is computed over these fields, never over floats.
An element is stored as an integer coefficient vector modulo the N-th
cyclotomic polynomial together with a common positive denominator, always
gcd-reduced, so equality is literal equality of the representation.

Products share one kernel (`_mul_into`, then `_reduce`): `__mul__`, the
sum of products `dot` and the update x - f*y `sub_mul` each reduce modulo
Phi_N and normalize once; the canonical form makes sums order-free.

The quantum parameter of the p-th root-of-unity quantum group is
q = zeta_{2p} = exp(i*pi/p); the braiding computations at p=2 live in the
bigger field Q(zeta_8), reached through `embed`.
"""

from __future__ import annotations

import cmath
import math
import re
from fractions import Fraction
from functools import lru_cache


def _poly_divmod_int(num: list[int], den: list[int]) -> tuple[list[int], list[int]]:
    # Exact division of integer polynomials (ascending coefficients),
    # valid only when den is monic.
    assert den[-1] == 1
    num = list(num)
    q = [0] * (max(len(num) - len(den) + 1, 0))
    for k in range(len(num) - len(den), -1, -1):
        c = num[k + len(den) - 1]
        if c:
            q[k] = c
            for i, d in enumerate(den):
                num[k + i] -= c * d
    while len(num) > 1 and num[-1] == 0:
        num.pop()
    return q, num


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Monic integer coefficients of Phi_n, ascending, built by dividing
    x^n - 1 by the cyclotomic polynomials of the proper divisors of n."""
    if n < 1:
        raise ValueError("cyclotomic polynomial needs n >= 1")
    if n == 1:
        return (-1, 1)
    poly = [0] * (n + 1)
    poly[0], poly[n] = -1, 1
    for d in range(1, n):
        if n % d == 0:
            q, r = _poly_divmod_int(poly, list(cyclotomic_polynomial(d)))
            assert r == [0], "x^n - 1 must be divisible by Phi_d"
            poly = q
    return tuple(poly)


def _euler_phi(n: int) -> int:
    return sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)


class CycField:
    """The field Q(zeta_N) presented as Q[x]/Phi_N(x); one shared instance
    per order."""

    _instances: dict[int, "CycField"] = {}

    def __new__(cls, order: int):
        inst = cls._instances.get(order)
        if inst is None:
            inst = super().__new__(cls)
            inst._init(order)
            cls._instances[order] = inst
        return inst

    def _init(self, order: int) -> None:
        if order < 1:
            raise ValueError("order must be a positive integer")
        self.order = order
        self.phi_poly = cyclotomic_polynomial(order)
        self.degree = len(self.phi_poly) - 1
        assert self.degree == _euler_phi(order)
        # reduction rows: x^(degree+k) = sum_i red[k][i] * x^i
        red = []
        row = [-c for c in self.phi_poly[:-1]]
        red.append(tuple(row))
        for _ in range(self.degree - 2):
            top = row[-1]
            row = [0] + row[:-1]
            if top:
                row = [a + top * b for a, b in zip(row, red[0])]
            red.append(tuple(row))
        self.red = red
        self.zero = CycNum(self, (0,) * self.degree, 1)
        self.one = CycNum(self, (1,) + (0,) * (self.degree - 1), 1)

    # -- constructors ---------------------------------------------------

    def gen(self) -> "CycNum":
        """The canonical generator zeta_N = exp(2*i*pi/N)."""
        if self.degree == 1:
            # Q(zeta_1) = Q(zeta_2) = Q: the root is 1 or -1.
            return self.one if self.order == 1 else -self.one
        num = [0] * self.degree
        num[1] = 1
        return CycNum(self, tuple(num), 1)

    def root_of_unity(self, k: int) -> "CycNum":
        return self._root_cached(k % self.order)

    @lru_cache(maxsize=None)
    def _root_cached(self, k: int) -> "CycNum":
        return self.gen() ** k

    def from_fraction(self, a) -> "CycNum":
        a = Fraction(a)
        num = [a.numerator] + [0] * (self.degree - 1)
        return CycNum(self, tuple(num), a.denominator)

    def from_coeffs(self, coeffs) -> "CycNum":
        """Element from a length-degree list of rationals."""
        fracs = [Fraction(c) for c in coeffs]
        if len(fracs) != self.degree:
            raise ValueError(f"need {self.degree} coefficients for order {self.order}")
        den = math.lcm(*(f.denominator for f in fracs)) if fracs else 1
        num = [int(f * den) for f in fracs]
        return _make(self, num, den)

    def __repr__(self) -> str:
        return f"CycField({self.order})"


def _mul_into(acc: list[int], an, bn) -> None:
    # acc += an * bn as polynomials in the generator (2 * degree - 1 slots)
    for i, a in enumerate(an):
        if a:
            for j, b in enumerate(bn):
                if b:
                    acc[i + j] += a * b


def _reduce(field: CycField, acc: list[int], den: int) -> "CycNum":
    # acc / den folded modulo Phi_N and normalized; a sum that cancels is the shared zero
    deg, red = field.degree, field.red
    for k in range(len(acc) - 1, deg - 1, -1):
        ck = acc[k]
        if ck:
            for i, ri in enumerate(red[k - deg]):
                if ri:
                    acc[i] += ck * ri
    num = acc[:deg]
    return _make(field, num, den) if any(num) else field.zero


def dot(field: CycField, pairs) -> "CycNum":
    """The sum of x * y over the (x, y) pairs of elements of field, formed
    over one common denominator and reduced and normalized once."""
    acc, den = [0] * (2 * field.degree - 1), 1
    for x, y in pairs:
        if x.field is not field or y.field is not field:
            raise ValueError(f"mismatched cyclotomic orders {x.order} and {y.order} in a sum over {field}")
        d, an = x.den * y.den, x.num
        if d != den:
            if den % d:
                new = math.lcm(den, d)
                acc, den = [c * (new // den) for c in acc], new
            an = [a * (den // d) for a in an]
        _mul_into(acc, an, y.num)
    return _reduce(field, acc, den)


def sub_mul(x: "CycNum", f: "CycNum", y: "CycNum") -> "CycNum":
    """x - f * y, reduced and normalized once: the row update of elimination."""
    field = x.field
    if f.field is not field or y.field is not field:
        raise ValueError(f"mismatched cyclotomic orders {x.order}, {f.order} and {y.order}")
    d = f.den * y.den
    den = x.den if d == x.den else math.lcm(x.den, d)
    acc = [a * (den // x.den) for a in x.num] + [0] * (field.degree - 1)
    _mul_into(acc, [-a * (den // d) for a in f.num], y.num)
    return _reduce(field, acc, den)


def _make(field: CycField, num: list[int], den: int) -> "CycNum":
    if den < 0:
        num = [-a for a in num]
        den = -den
    g = math.gcd(den, *num)
    if g > 1:
        num = [a // g for a in num]
        den //= g
    return CycNum(field, tuple(num), den)


class CycNum:
    """An element of Q(zeta_N); immutable and hashable."""

    __slots__ = ("field", "num", "den", "_hash")

    def __init__(self, field: CycField, num: tuple[int, ...], den: int):
        self.field = field
        self.num = num
        self.den = den
        self._hash = None

    # -- basic predicates -----------------------------------------------

    def __bool__(self) -> bool:
        return any(self.num)

    def is_rational(self) -> bool:
        return not any(self.num[1:])

    def as_fraction(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self} is not rational")
        return Fraction(self.num[0], self.den)

    @property
    def order(self) -> int:
        return self.field.order

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(a, self.den) for a in self.num)

    # -- ring operations -------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, CycNum):
            if other.field is not self.field:
                raise ValueError(
                    f"mismatched cyclotomic orders {self.order} and {other.order}"
                )
            return other
        if isinstance(other, (int, Fraction)):
            return self.field.from_fraction(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if not self:
            return o
        if not o:
            return self
        da, db = self.den, o.den
        if da == db:
            num = [a + b for a, b in zip(self.num, o.num)]
            return _make(self.field, num, da)
        num = [a * db + b * da for a, b in zip(self.num, o.num)]
        return _make(self.field, num, da * db)

    __radd__ = __add__

    def __neg__(self):
        return CycNum(self.field, tuple(-a for a in self.num), self.den)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        f = self.field
        if not any(self.num) or not any(o.num):
            return f.zero
        acc = [0] * (2 * f.degree - 1)
        _mul_into(acc, self.num, o.num)
        return _reduce(f, acc, self.den * o.den)

    __rmul__ = __mul__

    def inv(self) -> "CycNum":
        if not self:
            raise ZeroDivisionError("division by zero in cyclotomic field")
        u = _inv_core(self.field, self.num)
        # (num/den)^-1 = den * (num)^-1
        return u * self.den

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inv()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inv()

    def __pow__(self, n: int):
        if n < 0:
            return self.inv() ** (-n)
        result = self.field.one
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.field.from_fraction(other)
        if not isinstance(other, CycNum):
            return NotImplemented
        return (
            self.field is other.field
            and self.den == other.den
            and self.num == other.num
        )

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.field.order, self.num, self.den))
        return self._hash

    # -- Galois action and embeddings -------------------------------------

    def galois(self, a: int) -> "CycNum":
        """Apply the automorphism zeta -> zeta^a (a coprime to the order)."""
        f = self.field
        if math.gcd(a, f.order) != 1:
            raise ValueError("galois exponent must be coprime to the order")
        return dot(f, ((f.root_of_unity(a * i), f.from_fraction(Fraction(c, self.den)))
                       for i, c in enumerate(self.num)))

    def embed(self, order: int) -> "CycNum":
        """Image under Q(zeta_M) -> Q(zeta_N), zeta_M -> zeta_N^(N/M),
        for M dividing N."""
        if order == self.order:
            return self
        if order % self.order:
            raise ValueError(f"no embedding of order {self.order} into {order}")
        big, step = CycField(order), order // self.order
        return dot(big, ((big.root_of_unity(step * i), big.from_fraction(Fraction(c, self.den)))
                         for i, c in enumerate(self.num)))

    # -- numeric evaluation (display / cross-checks only) ----------------

    def to_complex(self) -> complex:
        z = cmath.exp(2j * cmath.pi / self.order)
        acc = 0j
        for a in reversed(self.num):
            acc = acc * z + a
        return acc / self.den

    # -- presentation ------------------------------------------------------

    def to_string(self) -> str:
        """Exact human-readable form, polynomial in the generator `q`
        (= exp(2*i*pi/N) for this field's order N)."""
        if not self:
            return "0"
        parts = []
        for i, a in enumerate(self.num):
            if not a:
                continue
            coeff = Fraction(a, self.den)
            if i == 0:
                term = str(coeff)
            else:
                mon = "q" if i == 1 else f"q^{i}"
                if coeff == 1:
                    term = mon
                elif coeff == -1:
                    term = "-" + mon
                else:
                    term = f"{coeff}*{mon}"
            if parts and not term.startswith("-"):
                parts.append("+" + term)
            else:
                parts.append(term)
        return "".join(parts)

    def __repr__(self) -> str:
        return f"CycNum[{self.order}]({self.to_string()})"

    # -- serialization -----------------------------------------------------

    def to_json(self) -> dict:
        return {
            "order": self.order,
            "coeffs": [str(c) for c in self.coeffs],
        }

    @staticmethod
    def from_json(data: dict) -> "CycNum":
        order = json_field(data, "order", int, 1)
        coeffs = json_field(data, "coeffs", list)
        # phi(N) >= sqrt(N/2) bounds the order by the coefficient count before
        # the field, whose set-up cost grows with N, is built
        if order > 2 * len(coeffs) ** 2 or _euler_phi(order) != len(coeffs):
            raise ValueError(f"field 'coeffs' needs phi(order) entries for order {order}, got {len(coeffs)}")
        try:
            if not all(_RATIONAL.fullmatch(c) for c in coeffs):
                raise ValueError
            return CycField(order).from_coeffs([Fraction(c) for c in coeffs])
        except (TypeError, ValueError, ArithmeticError):
            raise ValueError(f"field 'coeffs' takes integer or a/b strings, got {coeffs!r:.80}") from None


def json_field(data, key: str, kind: type, lo: int = 0, hi: float = math.inf):
    """data[key] of a parsed JSON object, checked with json_value."""
    if not isinstance(data, dict) or key not in data:
        raise ValueError(f"missing field {key!r}")
    return json_value(data[key], f"field {key!r}", kind, lo, hi)


def json_value(value, what: str, kind: type, lo: int = 0, hi: float = math.inf):
    """A value read from JSON, of type ``kind`` and, for an int, in
    [lo, hi); otherwise a ValueError names it as ``what``."""
    if type(value) is not kind or kind is int and not lo <= value < hi:
        bounds = f" in [{lo}, {hi})" if kind is int else ""
        raise ValueError(f"{what} must be a JSON {kind.__name__}{bounds}, got {value!r:.80}")
    return value


@lru_cache(maxsize=16384)
def _inv_core(field: CycField, num: tuple[int, ...]) -> CycNum:
    # extended Euclid in Q[x] against Phi_N; returns the inverse of the
    # integer-vector element `num`.
    mod = [Fraction(c) for c in field.phi_poly]
    a = [Fraction(c) for c in num]

    def deg(p):
        d = len(p) - 1
        while d > 0 and not p[d]:
            d -= 1
        return d

    def trim(p):
        while len(p) > 1 and not p[-1]:
            p.pop()
        return p

    r0, r1 = trim(mod), trim(list(a))
    s0, s1 = [Fraction(0)], [Fraction(1)]
    while deg(r1) > 0 or r1[0]:
        if deg(r1) == 0:
            break
        # divide r0 by r1
        q = [Fraction(0)] * (deg(r0) - deg(r1) + 1) if deg(r0) >= deg(r1) else []
        rem = list(r0)
        lead = r1[deg(r1)]
        for k in range(deg(r0) - deg(r1), -1, -1):
            c = rem[k + deg(r1)] / lead
            if c:
                q[k] = c
                for i in range(deg(r1) + 1):
                    rem[k + i] -= c * r1[i]
        rem = trim(rem)
        # s_new = s0 - q*s1
        qs = [Fraction(0)] * (len(q) + len(s1) - 1)
        for i, qi in enumerate(q):
            if qi:
                for j, sj in enumerate(s1):
                    qs[i + j] += qi * sj
        s_new = [
            (s0[i] if i < len(s0) else 0) - (qs[i] if i < len(qs) else 0)
            for i in range(max(len(s0), len(qs)))
        ]
        r0, r1 = r1, rem
        s0, s1 = s1, trim(s_new)
    if not r1[0]:
        raise ZeroDivisionError("element is not invertible (gcd with Phi_N not constant)")
    c = r1[0]
    out = [si / c for si in s1]
    out += [Fraction(0)] * (field.degree - len(out))
    return field.from_coeffs(out[: field.degree])


# -- the quantum parameter ---------------------------------------------------


def q_parameter(p: int) -> CycNum:
    """q = exp(i*pi/p) as the generator of Q(zeta_2p)."""
    if p < 2:
        raise ValueError("p must be >= 2")
    return CycField(2 * p).gen()


@lru_cache(maxsize=None)
def qint(p: int, n: int) -> CycNum:
    """The quantum integer [n] = (q^n - q^-n)/(q - q^-1) at q = exp(i*pi/p)."""
    if p < 2:
        raise ValueError("p must be >= 2")
    field = CycField(2 * p)
    n = n % (2 * p)  # q^(2p) = 1 makes [n] periodic
    num = field.root_of_unity(n) - field.root_of_unity(-n)
    den = field.root_of_unity(1) - field.root_of_unity(-1)
    return num / den


# -- parsing -----------------------------------------------------------------

_TOKEN = re.compile(r"\s*([0-9]+|[qz]|\^|\*|\+|\-|/|\(|\))")
_RATIONAL = re.compile(r"-?[0-9]+(/[0-9]+)?")
MAX_EXPONENT = 1000


def parse_cyc(text: str, order: int) -> CycNum:
    """Parse an exact field-element expression such as ``1``, ``-1/2``,
    ``q^2``, ``2*q-1`` or ``(1+q)^2``.  ``q`` (or ``z``) denotes the
    canonical generator of Q(zeta_order).  The exponent of a power, times
    those of the powers around it, is at most MAX_EXPONENT."""
    field = CycField(order)
    nested = 1  # largest exponent product among the powers parsed so far
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            raise ValueError(f"bad character in field element: {text[pos:]!r}")
        tokens.append(m.group(1))
        pos = m.end()
    tokens.append(None)
    idx = 0

    def peek():
        return tokens[idx]

    def take():
        nonlocal idx
        t = tokens[idx]
        idx += 1
        return t

    def parse_expr():
        t = peek()
        neg = False
        if t in ("+", "-"):
            take()
            neg = t == "-"
        acc = parse_term()
        if neg:
            acc = -acc
        while peek() in ("+", "-"):
            op = take()
            rhs = parse_term()
            acc = acc - rhs if op == "-" else acc + rhs
        return acc

    def parse_term():
        acc = parse_power()
        while True:
            t = peek()
            if t == "*":
                take()
                acc = acc * parse_power()
            elif t == "/":
                take()
                acc = acc / parse_power()
            elif t is not None and (t.isdigit() or t in ("q", "z") or t == "("):
                acc = acc * parse_power()  # implicit multiplication, e.g. 2q
            else:
                return acc

    def parse_power():
        nonlocal nested
        outer, nested = nested, 1
        base = parse_atom()
        if peek() == "^":
            take()
            sign = 1
            if peek() == "-":
                take()
                sign = -1
            t = take()
            if t is None or not t.isdigit():
                raise ValueError("expected integer exponent")
            nested *= int(t)
            if nested > MAX_EXPONENT:
                raise ValueError(f"exponent {nested} exceeds the bound {MAX_EXPONENT} "
                                 "(the exponents of nested powers multiply)")
            base = base ** (sign * int(t))
        nested = max(outer, nested)
        return base

    def parse_atom():
        t = take()
        if t is None:
            raise ValueError("unexpected end of field element")
        if t.isdigit():
            return field.from_fraction(int(t))
        if t in ("q", "z"):
            return field.gen()
        if t == "(":
            inner = parse_expr()
            if take() != ")":
                raise ValueError("unbalanced parentheses")
            return inner
        if t == "-":
            return -parse_atom()
        raise ValueError(f"unexpected token {t!r} in field element")

    value = parse_expr()
    if peek() is not None:
        raise ValueError(f"trailing input in field element: {text!r}")
    return value
