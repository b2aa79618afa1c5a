"""The restricted quantum sl(2) at q = exp(i*pi/p) on its PBW basis.

Elements are exact coefficient dictionaries on the monomials E^i F^j C^l,
0 <= i, j <= p-1, where C is the Cartan generator: K with K^(2p) = 1 for
the quantum group itself, or its square root k with k^(4p) = 1 and k^2 = K
for the extension that carries the universal R-matrix.  Multiplication
normal-orders via

    C E C^-1 = q^w E,   C F C^-1 = q^-w F,   [E, F] = (K - K^-1)/(q - q^-1),

truncating E^p = F^p = 0, with w = 2 for C = K and w = 1 for C = k.

The structure constants are phase-indexed: a product of two monomials
gives each term as c * zeta^k, with zeta the field generator, k an integer
and c a normal-ordering coefficient of F^j E^r (None for a power of zeta).
Tensor products add k across legs.  Each output term is one triple
(c1, c2 * c, k), and the triples of an output key are summed by one
`dot_phased`, which places each product at its phase in an accumulator
of N slots and folds modulo Phi_N once, so a phase costs no product and
no rotation.  The products c2 * c by a structure constant take few
distinct values and come from a per-algebra memo (`const_product`) of at
most PRODUCT_MEMO_SIZE entries.  The cached coproducts of monomials are
phase-indexed the same way; `apply_delta` rotates each coefficient by
zeta^k (`CycNum.times_root`) and takes its products from the same memo.

Inside a tensor product the monomials are numbered once per algebra
(`monos`, `mono_id`) and a multi-leg key is one integer, its leg ids in
radix `dimension`: a leg product is integer arithmetic on a per-call
table of id products, and the output keys are decoded once.
`TensorElem.terms` keeps tuples of monomials as its keys.

There is one product routine, `_dict_mul`: it sums the products of a list
of pairs of dicts, with one `dot_phased` per output key over every pair,
and a plain product is its one-pair case.  The coproduct and antipode of
E^i F^j C^l are built once per core E^i F^j and reached for each l by a
Cartan shift: Delta(E^i F^j C^l) = Delta(E^i F^j) (C^l (x) C^l) adds l to
the Cartan power of both legs, and S(E^i F^j C^l) = C^-l S(E^i F^j) is
one left product by a Cartan monomial.  The antipode law m(S (x) id)
Delta(x) sums S(u) * rest_u over every monomial u on the first leg as one
such summed product, and likewise m(id (x) S).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .cyclotomic import CycField, CycNum, InternalError, dot_phased, json_field
from .linalg import accumulate, accumulate_dot, nullspace

Term = tuple[int, int, int]  # (E power, F power, Cartan power)
PRODUCT_MEMO_SIZE = 4096  # entries of an algebra's memo of structure-constant products


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
        self.roots = [self.field.root_of_unity(k) for k in range(order)]
        self._phase_of = {z: k for k, z in enumerate(self.roots)}
        self._core: dict[tuple[int, int], list] = {}
        self._delta_cache: dict[Term, list] = {}
        self._antipode_cache: dict[Term, dict] = {}
        self._products: dict[tuple[CycNum, CycNum], CycNum] = {}
        self.monos = list(self.basis_terms())  # monomial id -> term
        self.mono_id = {t: x for x, t in enumerate(self.monos)}
        self.dimension = len(self.monos)

    # -- scalars ----------------------------------------------------------

    def qpow(self, n: int) -> CycNum:
        return self.field.root_of_unity(n * self._qstep)

    @property
    def qint_den_inv(self) -> CycNum:
        return self._qdiff_inv

    def qint(self, n: int) -> CycNum:
        return (self.qpow(n) - self.qpow(-n)) * self._qdiff_inv

    def const_product(self, x: CycNum, c: CycNum) -> CycNum:
        """x * c for a structure constant c, from a memo keyed by value: the
        products of the Hopf and braiding checks take few distinct values.
        The memo is emptied when it reaches PRODUCT_MEMO_SIZE entries."""
        memo = self._products
        z = memo.get((x, c))
        if z is None:
            if len(memo) >= PRODUCT_MEMO_SIZE:
                memo.clear()
            z = memo[x, c] = x * c
        return z

    # -- basis -------------------------------------------------------------

    def basis_terms(self):
        for i in range(self.p):
            for j in range(self.p):
                for l in range(self.cartan_order):
                    yield (i, j, l)

    def term(self, i: int, j: int, l: int) -> Term:
        """The monomial E^i F^j C^l, its Cartan power reduced."""
        if not (0 <= i < self.p and 0 <= j < self.p):
            raise ValueError(f"E/F exponent out of range [0, {self.p}): E^{i} F^{j}")
        return (i, j, l % self.cartan_order)

    def scalar(self, coeff) -> CycNum:
        """A rational or an element of the coefficient field, as the latter."""
        if not isinstance(coeff, CycNum):
            return self.field.from_fraction(coeff)
        if coeff.field is not self.field:
            raise ValueError(f"mismatched cyclotomic orders {coeff.order} and {self.field.order}")
        return coeff

    def monomial(self, i: int, j: int, l: int, coeff=1) -> "AlgElem":
        t, c = self.term(i, j, l), self.scalar(coeff)
        return AlgElem(self, {t: c}) if c else self.zero_el

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

    def core_fe(self, j: int, r: int) -> list[tuple[Term, CycNum | None, int]]:
        """F^j E^r in normal order, as triples (e, f, m), c, k: the
        coefficient c * zeta^k on E^e F^f C^m, where c is None when the
        coefficient is a power of zeta and k is 0 otherwise."""
        key = (j, r)
        cached = self._core.get(key)
        if cached is not None:
            return cached
        if j == 0:
            out = [((r, 0, 0), None, 0)]
        else:
            kk, co, roots = self.kk, self.cartan_order, self.roots

            def terms():
                for (e, f, m), c, k in self.core_fe(j - 1, r):
                    c = roots[k] if c is None else c
                    yield (e, f + 1, m), c
                    if e:
                        coef = c * self.qint(e) * self._qdiff_inv
                        yield (e - 1, f, (m + kk) % co), -coef * self.qpow(e - 1 - 2 * f)
                        yield (e - 1, f, (m - kk) % co), coef * self.qpow(1 - e + 2 * f)

            phase = self._phase_of
            out = [(t, None, phase[c]) if c in phase else (t, c, 0) for t, c in accumulate(terms()).items()]
        self._core[key] = out
        return out

    def mul_phased(self, t1: Term, t2: Term) -> list[tuple[Term, CycNum | None, int]]:
        """E^i F^j C^l * E^r F^t C^u as triples term, c, k: the coefficient
        c * zeta^k, with c from core_fe and 0 <= k < the field order."""
        (i, j, l), (r, t, u) = t1, t2
        p, co, n, sw = self.p, self.cartan_order, self.field.order, self.w * self._qstep
        # distinct terms of F^j E^r stay distinct after the shift, so nothing cancels
        return [((i + e, f + t, (m + l + u) % co), c, (k + sw * (l * (r - t) - m * t)) % n)
                for (e, f, m), c, k in self.core_fe(j, r) if i + e < p and f + t < p]

    # -- Hopf structure on monomials -----------------------------------------

    def delta_gens(self):
        one, kk, co = self.field.one, self.kk, self.cartan_order
        dE = {((0, 0, 0), (1, 0, 0)): one, ((1, 0, 0), (0, 0, kk)): one}
        dF = {((0, 0, co - kk), (0, 1, 0)): one, ((0, 1, 0), (0, 0, 0)): one}
        return dE, dF

    def delta_mono(self, term: Term) -> list[tuple[tuple[Term, Term], CycNum | None, int]]:
        """Delta(E^i F^j C^l), built once per core E^i F^j and shifted by
        C^l (x) C^l for each l."""
        cached = self._delta_cache.get(term)
        if cached is None:
            i, j, l = term
            cached = self._delta_cache[term] = (_cartan_shift(self, self.delta_mono((i, j, 0)), l) if l
                                                else _delta_monomial(self, term, *self.delta_gens()))
        return cached

    def antipode_mono(self, term: Term) -> dict[Term, CycNum]:
        """S(E^i F^j C^l) = C^-l S(E^i F^j): one left product by a Cartan
        monomial on the core, which is built once per (i, j)."""
        cached = self._antipode_cache.get(term)
        if cached is not None:
            return cached
        i, j, l = term
        co, kk, one = self.cartan_order, self.kk, self.field.one
        if l:
            acc = _dict_mul(self, [({(0, 0, (-l) % co): one}, self.antipode_mono((i, j, 0)))])
        else:
            # S(E^i F^j) = (-KF)^j (-E K^-1)^i, with KF = q^-2 FK
            acc = {(0, 0, 0): one}
            sF = {(0, 1, kk): -self.qpow(-2)}
            sE = {(1, 0, (-kk) % co): -one}
            for _ in range(j):
                acc = _dict_mul(self, [(acc, sF)])
            for _ in range(i):
                acc = _dict_mul(self, [(acc, sE)])
        self._antipode_cache[term] = acc
        return acc

    @staticmethod
    def counit_mono(term: Term) -> bool:
        return term[0] == 0 and term[1] == 0


def _dict_mul(alg: QuantumAlgebra, pairs, product=None) -> dict:
    """Sum over the (a, b) pairs of dicts of every c1 * c2 * product(s, t),
    for the terms s, c1 of a and t, c2 of b, where product (alg.mul_phased by
    default) gives triples key, c, k for c * zeta^k * key.  Each output key
    is one `dot_phased` over the triples c1, c2 * c, k of every pair, with
    c2 * c from the algebra's memo of structure-constant products."""
    field, product, const, groups = alg.field, product or alg.mul_phased, alg.const_product, {}
    for a, b in pairs:
        for s, c1 in a.items():
            for t, c2 in b.items():
                for key, c, k in product(s, t):
                    groups.setdefault(key, []).append((c1, c2 if c is None else const(c2, c), k))
    return {key: v for key, triples in groups.items() if (v := dot_phased(field, triples))}


def _tensor_mul(alg: QuantumAlgebra, a: dict, b: dict) -> dict:
    """Product of tensor elements given as dicts on tuples of monomials,
    multiplied leg by leg: the phase indices of the legs add.  Inside, a
    monomial is its id in alg.monos and a multi-leg key one integer, the
    ids in radix D = alg.dimension; the product of a pair of ids x, y,
    which recurs on many legs, is kept for this call under x * D + y."""
    D, ids, monos, leg_products = alg.dimension, alg.mono_id, alg.monos, {}

    def legs(s, t):
        partial = None
        for x, y in zip(s, t):
            d = leg_products.get(x * D + y)
            if d is None:
                d = leg_products[x * D + y] = [(ids[u], c, k) for u, c, k in alg.mul_phased(monos[x], monos[y])]
            if not d:
                return ()
            partial = d if partial is None else [
                (key * D + u, cu if c is None else c if cu is None else c * cu, k + ku)
                for key, c, k in partial for u, cu, ku in d]
        return partial

    def coded(elem):
        return {tuple(ids[u] for u in key): c for key, c in elem.items()}

    out = _dict_mul(alg, [(coded(a), coded(b))], legs)
    scales = [D ** i for i in reversed(range(len(next(iter(a))) if a else 0))]
    return {tuple(monos[key // s % D] for s in scales): c for key, c in out.items()}


def _tensor_power(alg: QuantumAlgebra, d: dict, n: int) -> dict:
    out = {((0, 0, 0), (0, 0, 0)): alg.field.one}
    for _ in range(n):
        out = _tensor_mul(alg, out, d)
    return out


def _delta_monomial(alg: QuantumAlgebra, term: Term, dE: dict, dF: dict) -> list:
    """Delta(E^i F^j C^l) = Delta(E)^i Delta(F)^j (C^l (x) C^l), built from
    the given coproducts of E and F, as phase-indexed triples (u1, u2), c, k
    like those of core_fe."""
    i, j, l = term
    phase = alg._phase_of
    out = _tensor_mul(alg, _tensor_power(alg, dE, i), _tensor_power(alg, dF, j))
    return _cartan_shift(alg, [(u, *((None, phase[c]) if c in phase else (c, 0))) for u, c in out.items()], l)


def _cartan_shift(alg: QuantumAlgebra, triples: list, l: int) -> list:
    """Phase-indexed coproduct triples times C^l (x) C^l on the right, which
    adds l to the Cartan power of both legs."""
    co = alg.cartan_order
    return [(((e1, f1, (m1 + l) % co), (e2, f2, (m2 + l) % co)), c, k)
            for ((e1, f1, m1), (e2, f2, m2)), c, k in triples]


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
            c = self.alg.scalar(other)
            if not c:
                return self.alg.zero_el
            return AlgElem(self.alg, {t: v * c for t, v in self.terms.items()})
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return AlgElem(self.alg, _dict_mul(self.alg, [(self.terms, o.terms)]))

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
        alg = alg or base_algebra(json_field(data, "p", int, 2))
        return AlgElem(alg, accumulate((alg.term(*(json_field(t, x, int, -math.inf) for x in "efk")),
                                        alg.scalar(CycNum.from_json(json_field(t, "c", dict))))
                                       for t in json_field(data, "terms", list)))


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

    def _coerce(self, other):
        if not isinstance(other, TensorElem):
            return None
        if other.alg is not self.alg:
            raise ValueError("elements from different algebras")
        if other.legs != self.legs:
            raise ValueError(f"tensor elements with {self.legs} and {other.legs} legs")
        return other

    def __add__(self, other):
        if self._coerce(other) is None:
            return NotImplemented
        return TensorElem(self.alg, self.legs, accumulate(other.terms.items(), dict(self.terms)))

    def __neg__(self):
        return TensorElem(self.alg, self.legs, {t: -c for t, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c) -> "TensorElem":
        c = self.alg.scalar(c)
        if not c:
            return TensorElem.zero(self.alg, self.legs)
        return TensorElem(self.alg, self.legs, {t: v * c for t, v in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, CycNum)):
            return self.scale(other)
        if self._coerce(other) is None:
            return NotImplemented
        return TensorElem(self.alg, self.legs, _tensor_mul(self.alg, self.terms, other.terms))

    def __eq__(self, other):
        return (
            isinstance(other, TensorElem)
            and self.alg is other.alg
            and self.legs == other.legs
            and self.terms == other.terms
        )

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative powers not supported on tensor elements")
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
        """Replace one leg by its coproduct, producing legs+1.  A coefficient
        c meets zeta^k from a per-term table of rotations, and a structure
        constant from the algebra's memo of products."""
        dm, const = delta_mono or self.alg.delta_mono, self.alg.const_product

        def terms():
            for t, c in self.terms.items():
                rot = {0: c}
                for u, cu, k in dm(t[leg]):
                    z = rot.get(k)
                    if z is None:
                        z = rot[k] = c.times_root(k)
                    yield t[:leg] + u + t[leg + 1:], z if cu is None else const(z, cu)

        return TensorElem(self.alg, self.legs + 1, accumulate(terms()))

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
            p = json_field(data, "p", int, 2)
            alg = extended_algebra(p) if data.get("half_cartan") else base_algebra(p)
        legs, terms = json_field(data, "legs", int, 1), []
        for t in json_field(data, "terms", list):
            key = json_field(t, "legs", list)
            if len(key) != legs:
                raise ValueError(f"a term lists {len(key)} legs, the element has {legs}")
            mono = tuple(alg.term(*(json_field(leg, x, int, -math.inf) for x in "efk")) for leg in key)
            terms.append((mono, alg.scalar(CycNum.from_json(json_field(t, "c", dict)))))
        return TensorElem(alg, legs, accumulate(terms))

    def multiply_legs_with_antipode(self, apply_s_to: int) -> AlgElem:
        """m(S (x) id) or m(id (x) S) on a two-leg element: the terms are
        grouped by their monomial u on the leg that S acts on, and the sum of
        S(u) * rest_u (or rest_u * S(u)) over every u is one summed product."""
        alg, groups = self.alg, {}
        for t, c in self.terms.items():
            groups.setdefault(t[apply_s_to], {})[t[1 - apply_s_to]] = c
        pairs = [(alg.antipode_mono(u), rest) for u, rest in groups.items()]
        return AlgElem(alg, _dict_mul(alg, pairs if apply_s_to == 0 else [(b, a) for a, b in pairs]))


# -- Hopf operations on elements ------------------------------------------------


def coproduct(a: AlgElem) -> TensorElem:
    return TensorElem(a.alg, 1, {(t,): c for t, c in a.terms.items()}).apply_delta(0)


def antipode(a: AlgElem) -> AlgElem:
    alg = a.alg
    return AlgElem(alg, accumulate_dot(alg.field, ((u, c, k) for t, c in a.terms.items()
                                                  for u, k in alg.antipode_mono(t).items())))


def counit(a: AlgElem) -> CycNum:
    return sum((c for t, c in a.terms.items() if QuantumAlgebra.counit_mono(t)), a.alg.field.zero)


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
    """Decide the Hopf-algebra axioms from the presentation, in three steps.

    1. Relations: Delta(E), Delta(F), Delta(C) satisfy the defining
       relations and Delta(1) = 1 (x) 1, and S(E), S(F), S(C) satisfy them
       in the opposite algebra with S(1) = 1; the counit does by inspection.
    2. One induction over the basis: each monomial t is g * t' exactly, g
       its leading generator (E, else F, else C) and t' earlier in basis
       order.  Delta(t) = Delta(g) Delta(t'), eps(t) = eps(g) eps(t') and
       S(t) = S(t') S(g) on every t prove that the coded Delta and eps are
       algebra maps and S an anti-algebra map; a failure is a
       counterexample, since t = g * t'.
    3. Coassociativity, the counit law and both antipode laws, on 1, C, F
       and E when steps 1 and 2 hold: both sides of coassociativity and of
       the counit law are then algebra maps, and the set where an antipode
       law holds is closed under products, since
       sum S(x1 y1) x2 y2 = sum S(y1) eps(x) y2.  When a premise fails,
       the laws are decided on every basis monomial instead.

    Each check stops at its first failure.  The ``break_delta_e`` switch
    drops the E-tensor-Cartan term of the coproduct of E as a negative
    control."""
    alg = alg or base_algebra(p)
    delta_mono, one, unit = alg.delta_mono, alg.field.one, (0, 0, 0)
    if break_delta_e:
        broken_gens = {(unit, (1, 0, 0)): one}, alg.delta_gens()[1]
        delta_mono = lru_cache(maxsize=None)(lambda term: _delta_monomial(alg, term, *broken_gens))
    deltas = {t: TensorElem(alg, 1, {(t,): one}).apply_delta(0, delta_mono) for t in alg.monos}

    # step 1: the images of 1, E, F, C satisfy the defining relations
    gens = E, F, C = (1, 0, 0), (0, 1, 0), (0, 0, 1)
    relation_failures = _relation_failures(alg, "Delta", [deltas[g] for g in (unit, *gens)],
                                           TensorElem.unit(alg, 2), lambda a, b: a * b)
    s_ok = not _relation_failures(alg, "S", [AlgElem(alg, alg.antipode_mono(g)) for g in (unit, *gens)],
                                  alg.one_el, lambda a, b: b * a)

    # step 2: t = g * t' on every monomial after 1
    step2 = {"Delta": None, "counit": None}
    for t in alg.monos[1:]:
        i, j, l = t
        g, rest = (E, (i - 1, j, l)) if i else (F, (0, j - 1, l)) if j else (C, (0, 0, l - 1))
        if step2["Delta"] is None and deltas[t] != deltas[g] * deltas[rest]:
            step2["Delta"] = f"Delta not multiplicative on {t}"
        if step2["counit"] is None and alg.counit_mono(t) != (alg.counit_mono(g) and alg.counit_mono(rest)):
            step2["counit"] = f"counit not multiplicative on {t}"
        s_ok = s_ok and alg.antipode_mono(t) == _dict_mul(alg, [(alg.antipode_mono(rest), alg.antipode_mono(g))])
    proved = s_ok and not relation_failures and not any(step2.values())

    # step 3: the laws on the generators once proved, else on every monomial
    first_failure = {"coassociativity": None, "counit_law": None, "antipode_law": None}
    for t in (unit, C, F, E) if proved else alg.monos:
        el, d = AlgElem(alg, {t: one}), deltas[t]
        if first_failure["coassociativity"] is None and d.apply_delta(0, delta_mono) != d.apply_delta(1, delta_mono):
            first_failure["coassociativity"] = f"coassociativity fails on {t}"
        if first_failure["counit_law"] is None and (d.apply_counit(0) != el or d.apply_counit(1) != el):
            first_failure["counit_law"] = f"counit law fails on {t}"
        if first_failure["antipode_law"] is None:
            target = alg.one_el if QuantumAlgebra.counit_mono(t) else alg.zero_el
            if d.multiply_legs_with_antipode(0) != target or d.multiply_legs_with_antipode(1) != target:
                first_failure["antipode_law"] = f"antipode law fails on {t}"
    axioms = {name: failure is None for name, failure in first_failure.items()}
    axioms["coproduct_algebra_map"] = not relation_failures and step2["Delta"] is None
    axioms["counit_algebra_map"] = step2["counit"] is None
    failures = [f for f in (*first_failure.values(), *relation_failures, *step2.values()) if f is not None]
    return HopfReport(alg.p, axioms, failures)


def _relation_failures(alg: QuantumAlgebra, name: str, images: list, unit, mul) -> list[str]:
    """The names of the relations that the images of 1, E, F, C break
    under the product mul (the opposite product for an anti-algebra map)."""
    one, e, f, c = images
    order, kk = alg.cartan_order, alg.kk
    checks = [
        (f"{name}(1) = 1", one == unit),
        (f"{name}(E)^p = 0", not e ** alg.p),
        (f"{name}(F)^p = 0", not f ** alg.p),
        (f"{name}(C)^order = 1", c ** order == unit),
        (f"{name}(C E) relation", mul(c, e) == mul(e, c) * alg.qpow(alg.w)),
        (f"{name}(C F) relation", mul(c, f) == mul(f, c) * alg.qpow(-alg.w)),
        (f"{name}([E,F]) relation", mul(e, f) - mul(f, e) == (c ** kk - c ** (order - kk)) * alg.qint_den_inv),
    ]
    return [check for check, good in checks if not good]


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
    if c1 != c2:
        raise InternalError("the two normal-ordered forms of the Casimir disagree")
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
