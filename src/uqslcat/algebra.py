"""The restricted quantum sl(2) at q = exp(i*pi/p) on its PBW basis.

Elements are exact coefficient dictionaries on the monomials E^i F^j C^l,
0 <= i, j <= p-1, where C is the Cartan generator: K with K^(2p) = 1 for
the quantum group itself, or its square root k with k^(4p) = 1 and k^2 = K
for the extension that carries the universal R-matrix.  Multiplication
normal-orders via

    C E C^-1 = q^w E,   C F C^-1 = q^-w F,   [E, F] = (K - K^-1)/(q - q^-1),

truncating E^p = F^p = 0, with w = 2 for C = K and w = 1 for C = k.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .cyclotomic import CycField, CycNum
from .linalg import accumulate, nullspace

Term = tuple[int, int, int]  # (E power, F power, Cartan power)


@lru_cache(maxsize=None)
def base_algebra(p: int, field_order: int | None = None) -> "QuantumAlgebra":
    return QuantumAlgebra(p, field_order=field_order)


@lru_cache(maxsize=None)
def extended_algebra(p: int = 2) -> "QuantumAlgebra":
    """The quantum group extended by the square root k of K (p = 2 is the
    case with the explicit R-matrix)."""
    return QuantumAlgebra(p, half_cartan=True)


class QuantumAlgebra:
    def __init__(self, p: int, *, half_cartan: bool = False, field_order: int | None = None):
        if p < 2:
            raise ValueError("p must be >= 2")
        self.p = p
        self.half_cartan = half_cartan
        self.cartan_order = 4 * p if half_cartan else 2 * p
        self.kk = 2 if half_cartan else 1  # K = cartan^kk
        self.w = 1 if half_cartan else 2  # cartan E cartan^-1 = q^w E
        default_order = 4 * p if half_cartan else 2 * p
        order = field_order or default_order
        if order % (2 * p):
            raise ValueError("field order must contain the 2p-th roots of unity")
        self.field = CycField(order)
        self._qstep = order // (2 * p)
        self.q = self.field.root_of_unity(self._qstep)
        self._qdiff_inv = (self.qpow(1) - self.qpow(-1)).inv()
        self._core: dict[tuple[int, int], dict[Term, CycNum]] = {}
        self._delta_cache: dict[Term, dict] = {}
        self._antipode_cache: dict[Term, dict] = {}
        self.dimension = p * p * self.cartan_order

    # -- scalars ----------------------------------------------------------

    def qpow(self, n: int) -> CycNum:
        return self.field.root_of_unity(n * self._qstep)

    @property
    def qint_den_inv(self) -> CycNum:
        return self._qdiff_inv

    def qint(self, n: int) -> CycNum:
        return (self.qpow(n) - self.qpow(-n)) * self._qdiff_inv

    # -- basis -------------------------------------------------------------

    def basis_terms(self):
        for i in range(self.p):
            for j in range(self.p):
                for l in range(self.cartan_order):
                    yield (i, j, l)

    def monomial(self, i: int, j: int, l: int, coeff=1) -> "AlgElem":
        if not (0 <= i < self.p and 0 <= j < self.p):
            raise ValueError("E/F exponent out of range")
        c = coeff if isinstance(coeff, CycNum) else self.field.from_fraction(coeff)
        if not c:
            return self.zero_el
        return AlgElem(self, {(i, j, l % self.cartan_order): c})

    @property
    def zero_el(self) -> "AlgElem":
        return AlgElem(self, {})

    @property
    def one_el(self) -> "AlgElem":
        return AlgElem(self, {(0, 0, 0): self.field.one})

    @property
    def E(self) -> "AlgElem":
        return self.monomial(1, 0, 0)

    @property
    def F(self) -> "AlgElem":
        return self.monomial(0, 1, 0)

    @property
    def cartan(self) -> "AlgElem":
        return self.monomial(0, 0, 1)

    @property
    def K(self) -> "AlgElem":
        return self.monomial(0, 0, self.kk)

    @property
    def K_inv(self) -> "AlgElem":
        return self.monomial(0, 0, -self.kk)

    # -- structure constants -------------------------------------------------

    def core_fe(self, j: int, r: int) -> dict[Term, CycNum]:
        """F^j E^r in normal order: dict (e, f, m) -> coeff on E^e F^f C^m."""
        key = (j, r)
        cached = self._core.get(key)
        if cached is not None:
            return cached
        if j == 0:
            out = {(r, 0, 0): self.field.one}
        else:
            kk, co = self.kk, self.cartan_order

            def terms():
                for (e, f, m), c in self.core_fe(j - 1, r).items():
                    yield (e, f + 1, m), c
                    if e:
                        coef = c * self.qint(e) * self._qdiff_inv
                        yield (e - 1, f, (m + kk) % co), -coef * self.qpow(e - 1 - 2 * f)
                        yield (e - 1, f, (m - kk) % co), coef * self.qpow(1 - e + 2 * f)

            out = accumulate(terms())
        self._core[key] = out
        return out

    def mul_terms(self, t1: Term, t2: Term) -> dict[Term, CycNum]:
        (i, j, l), (r, t, u) = t1, t2
        p, w, co = self.p, self.w, self.cartan_order
        base = self.qpow(w * l * (r - t))
        # distinct terms of F^j E^r stay distinct after the shift, so nothing cancels
        return {
            (i + e, f + t, (m + l + u) % co): c * base * self.qpow(-w * m * t) if m and t else c * base
            for (e, f, m), c in self.core_fe(j, r).items()
            if i + e < p and f + t < p
        }

    # -- Hopf structure on monomials -----------------------------------------

    def delta_gens(self):
        one, kk, co = self.field.one, self.kk, self.cartan_order
        dE = {((0, 0, 0), (1, 0, 0)): one, ((1, 0, 0), (0, 0, kk)): one}
        dF = {((0, 0, co - kk), (0, 1, 0)): one, ((0, 1, 0), (0, 0, 0)): one}
        return dE, dF

    def delta_mono(self, term: Term) -> dict:
        cached = self._delta_cache.get(term)
        if cached is None:
            cached = self._delta_cache[term] = _delta_monomial(self, term, *self.delta_gens())
        return cached

    def antipode_mono(self, term: Term) -> dict[Term, CycNum]:
        cached = self._antipode_cache.get(term)
        if cached is not None:
            return cached
        i, j, l = term
        co, kk = self.cartan_order, self.kk
        # S(E^i F^j C^l) = C^-l (-KF)^j (-E K^-1)^i, with KF = q^-2 FK
        acc = {(0, 0, (-l) % co): self.field.one}
        sF = {(0, 1, kk): -self.qpow(-2)}
        sE = {(1, 0, (-kk) % co): -self.field.one}
        for _ in range(j):
            acc = _dict_mul(self, acc, sF)
        for _ in range(i):
            acc = _dict_mul(self, acc, sE)
        self._antipode_cache[term] = acc
        return acc

    @staticmethod
    def counit_mono(term: Term) -> bool:
        return term[0] == 0 and term[1] == 0


def _dict_mul(alg: QuantumAlgebra, a: dict, b: dict) -> dict:
    return accumulate(
        (t, c * k)
        for t1, c1 in a.items()
        for t2, c2 in b.items()
        for c in (c1 * c2,)
        for t, k in alg.mul_terms(t1, t2).items()
    )


def _tensor_mul(alg: QuantumAlgebra, a: dict, b: dict) -> dict:
    """Product of tensor elements given as dicts on tuples of monomials,
    multiplied leg by leg."""

    out: dict = {}
    for s, c1 in a.items():
        for t, c2 in b.items():
            legs = []
            for s_leg, t_leg in zip(s, t):
                d = alg.mul_terms(s_leg, t_leg)
                if not d:
                    break
                legs.append(d)
            else:
                partial = [((), c1 * c2)]
                for d in legs:
                    partial = [(key + (u,), c * k) for key, c in partial for u, k in d.items()]
                accumulate(partial, out)
    return out


def _tensor_power(alg: QuantumAlgebra, d: dict, n: int) -> dict:
    out = {((0, 0, 0), (0, 0, 0)): alg.field.one}
    for _ in range(n):
        out = _tensor_mul(alg, out, d)
    return out


def _delta_monomial(alg: QuantumAlgebra, term: Term, dE: dict, dF: dict) -> dict:
    """Delta(E^i F^j C^l) = Delta(E)^i Delta(F)^j (C^l (x) C^l), built from
    the given coproducts of E and F."""
    i, j, l = term
    out = _tensor_mul(alg, _tensor_power(alg, dE, i), _tensor_power(alg, dF, j))
    if l:
        co = alg.cartan_order
        out = {((e1, f1, (m1 + l) % co), (e2, f2, (m2 + l) % co)): c
               for ((e1, f1, m1), (e2, f2, m2)), c in out.items()}
    return out


class AlgElem:
    """Element of the (possibly extended) quantum group, coefficients on
    normal-ordered PBW monomials."""

    __slots__ = ("alg", "terms")

    def __init__(self, alg: QuantumAlgebra, terms: dict[Term, CycNum]):
        self.alg = alg
        self.terms = terms

    @property
    def p(self) -> int:
        return self.alg.p

    def __bool__(self) -> bool:
        return bool(self.terms)

    def _coerce(self, other):
        if isinstance(other, AlgElem):
            if other.alg is not self.alg:
                raise ValueError("elements from different algebras")
            return other
        if isinstance(other, (int, Fraction, CycNum)):
            return self.alg.monomial(0, 0, 0, other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return AlgElem(self.alg, accumulate(o.terms.items(), dict(self.terms)))

    __radd__ = __add__

    def __neg__(self):
        return AlgElem(self.alg, {t: -c for t, c in self.terms.items()})

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
        if isinstance(other, (int, Fraction, CycNum)):
            c = other if isinstance(other, CycNum) else self.alg.field.from_fraction(other)
            if not c:
                return self.alg.zero_el
            return AlgElem(self.alg, {t: v * c for t, v in self.terms.items()})
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return AlgElem(self.alg, _dict_mul(self.alg, self.terms, o.terms))

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction, CycNum)):
            return self * other
        return NotImplemented

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative powers not supported on algebra elements")
        result = self.alg.one_el
        for _ in range(n):
            result = result * self
        return result

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.terms == o.terms

    def __hash__(self):
        return hash((id(self.alg), tuple(sorted(self.terms.items(), key=lambda kv: kv[0]))))

    def __repr__(self):
        if not self.terms:
            return "AlgElem(0)"
        bits = []
        for (i, j, l), c in sorted(self.terms.items()):
            mono = "".join(
                s
                for s, e in (("E", i), ("F", j), ("C", l))
                for s in ([f"{s}^{e}" if e > 1 else s] if e else [])
            )
            bits.append(f"({c.to_string()})*{mono or '1'}")
        return "AlgElem(" + " + ".join(bits) + ")"

    # -- serialization ----------------------------------------------------

    def to_json(self) -> dict:
        return {
            "p": self.alg.p,
            "terms": [
                {"e": i, "f": j, "k": l, "c": c.to_json()}
                for (i, j, l), c in sorted(self.terms.items())
            ],
        }

    @staticmethod
    def from_json(data: dict, alg: QuantumAlgebra | None = None) -> "AlgElem":
        alg = alg or base_algebra(int(data["p"]))
        out = alg.zero_el
        for t in data["terms"]:
            out = out + alg.monomial(int(t["e"]), int(t["f"]), int(t["k"]), CycNum.from_json(t["c"]))
        return out


class TensorElem:
    """Element of a tensor power of the algebra: exact coefficients on
    tuples of PBW monomials."""

    __slots__ = ("alg", "legs", "terms")

    def __init__(self, alg: QuantumAlgebra, legs: int, terms: dict):
        self.alg = alg
        self.legs = legs
        self.terms = terms

    @staticmethod
    def unit(alg: QuantumAlgebra, legs: int) -> "TensorElem":
        return TensorElem(alg, legs, {((0, 0, 0),) * legs: alg.field.one})

    @staticmethod
    def zero(alg: QuantumAlgebra, legs: int) -> "TensorElem":
        return TensorElem(alg, legs, {})

    def __bool__(self):
        return bool(self.terms)

    def __add__(self, other):
        assert self.legs == other.legs and self.alg is other.alg
        return TensorElem(self.alg, self.legs, accumulate(other.terms.items(), dict(self.terms)))

    def __neg__(self):
        return TensorElem(self.alg, self.legs, {t: -c for t, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c) -> "TensorElem":
        c = c if isinstance(c, CycNum) else self.alg.field.from_fraction(c)
        if not c:
            return TensorElem.zero(self.alg, self.legs)
        return TensorElem(self.alg, self.legs, {t: v * c for t, v in self.terms.items()})

    def __mul__(self, other):
        assert self.legs == other.legs and self.alg is other.alg
        return TensorElem(self.alg, self.legs, _tensor_mul(self.alg, self.terms, other.terms))

    def __eq__(self, other):
        return (
            isinstance(other, TensorElem)
            and self.alg is other.alg
            and self.legs == other.legs
            and self.terms == other.terms
        )

    def __pow__(self, n: int):
        out = TensorElem.unit(self.alg, self.legs)
        for _ in range(n):
            out = out * self
        return out

    def flip(self, a: int = 0, b: int = 1) -> "TensorElem":
        out = {}
        for t, c in self.terms.items():
            key = list(t)
            key[a], key[b] = key[b], key[a]
            out[tuple(key)] = c
        return TensorElem(self.alg, self.legs, out)

    def insert_leg(self, position: int) -> "TensorElem":
        """Place identity on a new leg, e.g. R -> R_13 in a triple tensor."""
        out = {}
        for t, c in self.terms.items():
            key = list(t)
            key.insert(position, (0, 0, 0))
            out[tuple(key)] = c
        return TensorElem(self.alg, self.legs + 1, out)

    def apply_delta(self, leg: int, delta_mono=None) -> "TensorElem":
        """Replace one leg by its coproduct, producing legs+1."""
        dm = delta_mono or self.alg.delta_mono
        return TensorElem(self.alg, self.legs + 1, accumulate(
            (t[:leg] + u + t[leg + 1:], c * k)
            for t, c in self.terms.items()
            for u, k in dm(t[leg]).items()
        ))

    def apply_counit(self, leg: int):
        out = accumulate(
            (t[:leg] + t[leg + 1:], c)
            for t, c in self.terms.items()
            if QuantumAlgebra.counit_mono(t[leg])
        )
        if self.legs == 2:
            return AlgElem(self.alg, {k[0]: v for k, v in out.items()})
        return TensorElem(self.alg, self.legs - 1, out)

    def to_json(self) -> dict:
        return {
            "p": self.alg.p,
            "half_cartan": self.alg.half_cartan,
            "legs": self.legs,
            "terms": [
                {
                    "legs": [{"e": i, "f": j, "k": l} for (i, j, l) in key],
                    "c": c.to_json(),
                }
                for key, c in sorted(self.terms.items())
            ],
        }

    @staticmethod
    def from_json(data: dict, alg: "QuantumAlgebra | None" = None) -> "TensorElem":
        if alg is None:
            p = int(data["p"])
            alg = extended_algebra(p) if data.get("half_cartan") else base_algebra(p)
        terms = {}
        for t in data["terms"]:
            key = tuple((int(leg["e"]), int(leg["f"]), int(leg["k"])) for leg in t["legs"])
            terms[key] = CycNum.from_json(t["c"])
        return TensorElem(alg, int(data["legs"]), terms)

    def multiply_legs_with_antipode(self, apply_s_to: int) -> AlgElem:
        """m(S (x) id) or m(id (x) S) on a two-leg element."""
        alg, one = self.alg, self.alg.field.one
        return AlgElem(alg, accumulate(
            (t, c * k)
            for (t1, t2), c in self.terms.items()
            for t, k in (_dict_mul(alg, alg.antipode_mono(t1), {t2: one}) if apply_s_to == 0
                         else _dict_mul(alg, {t1: one}, alg.antipode_mono(t2))).items()
        ))


# -- Hopf operations on elements ------------------------------------------------


def coproduct(a: AlgElem) -> TensorElem:
    return TensorElem(a.alg, 1, {(t,): c for t, c in a.terms.items()}).apply_delta(0)


def antipode(a: AlgElem) -> AlgElem:
    alg = a.alg
    return AlgElem(alg, accumulate(
        (u, c * k) for t, c in a.terms.items() for u, k in alg.antipode_mono(t).items()
    ))


def counit(a: AlgElem) -> CycNum:
    acc = a.alg.field.zero
    for t, c in a.terms.items():
        if QuantumAlgebra.counit_mono(t):
            acc = acc + c
    return acc


# -- Hopf axiom verification -----------------------------------------------------


@dataclass
class HopfReport:
    p: int
    axioms: dict[str, bool]
    failures: list[str]

    @property
    def passed(self) -> bool:
        return all(self.axioms.values())


def verify_hopf(p: int, *, break_delta_e: bool = False, alg: QuantumAlgebra | None = None) -> HopfReport:
    """Check the Hopf-algebra axioms on every PBW basis monomial:
    coassociativity, the counit law, both antipode laws, and that the
    coproduct and counit respect the defining relations.  The
    ``break_delta_e`` switch drops the E-tensor-Cartan term of the
    coproduct of E as a negative control."""
    alg = alg or base_algebra(p)
    delta_mono = alg.delta_mono
    if break_delta_e:
        dE_broken = {((0, 0, 0), (1, 0, 0)): alg.field.one}
        dF = alg.delta_gens()[1]
        delta_mono = lru_cache(maxsize=None)(lambda term: _delta_monomial(alg, term, dE_broken, dF))

    failures: list[str] = []
    axioms = {}

    def delta_of(elem: AlgElem) -> TensorElem:
        return TensorElem(alg, 1, {(t,): c for t, c in elem.terms.items()}).apply_delta(0, delta_mono)

    basis = list(alg.basis_terms())

    ok = True
    for t in basis:
        el = TensorElem(alg, 1, {(t,): alg.field.one})
        d = el.apply_delta(0, delta_mono)
        lhs = d.apply_delta(0, delta_mono)
        rhs = d.apply_delta(1, delta_mono)
        if lhs != rhs:
            ok = False
            failures.append(f"coassociativity fails on {t}")
            break
    axioms["coassociativity"] = ok

    ok = True
    for t in basis:
        el = AlgElem(alg, {t: alg.field.one})
        d = delta_of(el)
        if d.apply_counit(0) != el or d.apply_counit(1) != el:
            ok = False
            failures.append(f"counit law fails on {t}")
            break
    axioms["counit_law"] = ok

    ok = True
    for t in basis:
        el = AlgElem(alg, {t: alg.field.one})
        d = delta_of(el)
        target = alg.one_el * (alg.field.one if QuantumAlgebra.counit_mono(t) else alg.field.zero)
        if d.multiply_legs_with_antipode(0) != target or d.multiply_legs_with_antipode(1) != target:
            ok = False
            failures.append(f"antipode law fails on {t}")
            break
    axioms["antipode_law"] = ok

    # Delta is an algebra map: enough to check it on the generators and the
    # defining relations, plus a deterministic sample of monomial pairs.
    ok = True
    E, F, C = alg.E, alg.F, alg.cartan
    dE, dF, dC = delta_of(E), delta_of(F), delta_of(C)
    one2 = TensorElem.unit(alg, 2)
    checks = [
        ("Delta(E)^p = 0", not (dE ** alg.p)),
        ("Delta(F)^p = 0", not (dF ** alg.p)),
        ("Delta(C)^order = 1", dC ** alg.cartan_order == one2),
        ("Delta(C E) relation", dC * dE == (dE * dC).scale(alg.qpow(alg.w))),
        ("Delta(C F) relation", dC * dF == (dF * dC).scale(alg.qpow(-alg.w))),
        (
            "Delta([E,F]) relation",
            dE * dF - dF * dE
            == (dC ** alg.kk - dC ** (alg.cartan_order - alg.kk)).scale(alg.qint_den_inv),
        ),
    ]
    for name, good in checks:
        if not good:
            ok = False
            failures.append(name)
    sample = _sample_pairs(basis)
    for t1, t2 in sample:
        a = AlgElem(alg, {t1: alg.field.one})
        b = AlgElem(alg, {t2: alg.field.one})
        if delta_of(a * b) != delta_of(a) * delta_of(b):
            ok = False
            failures.append(f"Delta not multiplicative on {t1},{t2}")
            break
    axioms["coproduct_algebra_map"] = ok

    ok = True
    for t1, t2 in sample:
        a = AlgElem(alg, {t1: alg.field.one})
        b = AlgElem(alg, {t2: alg.field.one})
        if counit(a * b) != counit(a) * counit(b):
            ok = False
            failures.append(f"counit not multiplicative on {t1},{t2}")
            break
    axioms["counit_algebra_map"] = ok

    return HopfReport(alg.p, axioms, failures)


def _sample_pairs(basis: list[Term]) -> list[tuple[Term, Term]]:
    import random

    rng = random.Random(20240 + len(basis))
    pairs = [(basis[0], basis[-1])]
    for _ in range(30):
        pairs.append((rng.choice(basis), rng.choice(basis)))
    return pairs


# -- Casimir element and the center ------------------------------------------------


@dataclass
class CasimirData:
    element: AlgElem
    roots: list[CycNum]  # beta_0 .. beta_p
    multiplicities: tuple[int, ...]

    def minimal_polynomial_applied(self) -> AlgElem:
        """Psi_2p(C) as an algebra element (zero when the relation holds)."""
        alg = self.element.alg
        acc = alg.one_el
        for j, beta in enumerate(self.roots):
            factor = self.element - alg.one_el * beta
            for _ in range(self.multiplicities[j]):
                acc = acc * factor
        return acc


def casimir(p: int, alg: QuantumAlgebra | None = None) -> CasimirData:
    """C = EF + (q^-1 K + q K^-1)/(q - q^-1)^2, with its spectrum
    beta_j = (q^j + q^-j)/(q - q^-1)^2 of multiplicity pattern 1,2,...,2,1."""
    alg = alg or base_algebra(p)
    s_inv = ((alg.qpow(1) - alg.qpow(-1)) ** 2).inv()
    c1 = alg.E * alg.F + (alg.K * alg.qpow(-1) + alg.K_inv * alg.qpow(1)) * s_inv
    c2 = alg.F * alg.E + (alg.K * alg.qpow(1) + alg.K_inv * alg.qpow(-1)) * s_inv
    assert c1 == c2, "the two normal-ordered forms of the Casimir must agree"
    roots = [(alg.qpow(j) + alg.qpow(-j)) * s_inv for j in range(p + 1)]
    mults = tuple([1] + [2] * (p - 1) + [1])
    return CasimirData(c1, roots, mults)


def center_basis(p: int, alg: QuantumAlgebra | None = None) -> list[AlgElem]:
    """Exact basis of the center, as the null space of the commutator
    action.  Commuting with K already forces equal E and F exponents, so
    the system is solved on the monomials E^i F^i C^l."""
    alg = alg or base_algebra(p)
    candidates = [
        (i, i, l) for i in range(p) for l in range(alg.cartan_order)
    ]
    images: list[dict[Term, CycNum]] = []
    for t in candidates:
        m = AlgElem(alg, {t: alg.field.one})
        comm = {}
        for g in (alg.E, alg.F):
            d = (g * m - m * g).terms
            for u, c in d.items():
                comm[(g is alg.F, u)] = c
        images.append(comm)
    rows_keys = sorted({k for img in images for k in img})
    if not rows_keys:
        return [AlgElem(alg, {t: alg.field.one}) for t in candidates]
    mat = [
        [img.get(k, alg.field.zero) for img in images]
        for k in rows_keys
    ]
    basis = []
    for vec in nullspace(mat):
        terms = {t: c for t, c in zip(candidates, vec) if c}
        basis.append(AlgElem(alg, terms))
    return basis
