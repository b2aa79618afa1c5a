"""Braiding data at p = 2: the quantum group extended by a square root
k of K carries an explicit universal R-matrix, and its ribbon element
already lies in the unextended algebra.

Everything is exact over Q(zeta_8).  The R-matrix inverse is produced in
closed form, splitting R into its Cartan part H (inverted by conjugating
the root-of-unity phases) and a nilpotent E-F part, and then verified by
multiplication.  Module braidings need a square root of the K-action;
both consistent choices are exposed, giving the two braiding matrices.
"""

from __future__ import annotations

from fractions import Fraction

from . import linalg
from .algebra import (AlgElem, QuantumAlgebra, TensorElem, base_algebra,
                      center_basis, coproduct, counit, extended_algebra,
                      verify_hopf)
from .cyclotomic import CycNum
from .qmodules import QMod, coerce_field, family_label, monomial_action


def _require_p2(p: int) -> None:
    if p != 2:
        raise ValueError("the explicit R-matrix and ribbon element are p = 2 only")


def r_matrix(p: int = 2) -> TensorElem:
    """R = (1/8) sum_(n,m) (i^(-nm/2) + 2 i^(n-m-nm/2+1) E (x) F) k^n (x) k^m
    over Q(zeta_8), with i^(1/2) = zeta_8."""
    _require_p2(p)
    alg = extended_algebra(2)
    f = alg.field
    eighth = f.from_fraction(Fraction(1, 8))
    terms: dict = {}
    for n in range(8):
        for m in range(8):
            # i^(-nm/2) = zeta8^(-nm)
            c = f.root_of_unity(-n * m) * eighth
            terms[((0, 0, n), (0, 0, m))] = c
            # 2 i^(n-m-nm/2+1) = 2 zeta8^(2(n-m+1)-nm)
            c2 = f.root_of_unity(2 * (n - m + 1) - n * m) * eighth * 2
            terms[((1, 0, n), (0, 1, m))] = c2
    return TensorElem(alg, 2, terms)


def _cartan_part_inverse(alg: QuantumAlgebra) -> TensorElem:
    f = alg.field
    eighth = f.from_fraction(Fraction(1, 8))
    terms = {
        ((0, 0, n), (0, 0, m)): f.root_of_unity(n * m) * eighth
        for n in range(8)
        for m in range(8)
    }
    return TensorElem(alg, 2, terms)


def r_matrix_inverse(p: int = 2) -> TensorElem:
    """Exact inverse: with R = H(1 + x) and x nilpotent of square zero,
    R^-1 = H^-1 - H^-1 (R - H) H^-1; verified by multiplication."""
    _require_p2(p)
    alg = extended_algebra(2)
    r = r_matrix(2)
    hinv = _cartan_part_inverse(alg)
    h = TensorElem(alg, 2, {t: c for t, c in r.terms.items() if t[0][0] == 0})
    y = r - h
    rinv = hinv - hinv * y * hinv
    if r * rinv != TensorElem.unit(alg, 2) or rinv * r != TensorElem.unit(alg, 2):
        raise AssertionError("closed-form R inverse failed verification")
    return rinv


def verify_quasitriangular(p: int = 2) -> dict[str, bool]:
    """The defining checks: R intertwines the coproduct with its
    opposite on all generators, is invertible, and satisfies both
    coproduct (hexagon) identities; the extended algebra itself passes
    the Hopf axioms."""
    _require_p2(p)
    alg = extended_algebra(2)
    r = r_matrix(2)
    report = {}
    report["extended_hopf_axioms"] = verify_hopf(2, alg=alg).passed
    try:
        r_matrix_inverse(2)
        report["invertible"] = True
    except AssertionError:
        report["invertible"] = False
    ok = True
    for gen in (alg.E, alg.F, alg.cartan):
        d = coproduct(gen)
        ok = ok and (r * d == d.flip() * r)
    report["intertwines_coproduct"] = ok
    r13_from12 = r.insert_leg(1)  # R_13
    r23 = r.insert_leg(0)
    r12 = r.insert_leg(2)
    lhs1 = r.apply_delta(0)  # (Delta (x) id) R
    report["hexagon_delta_leg1"] = lhs1 == r13_from12 * r23
    lhs2 = r.apply_delta(1)  # (id (x) Delta) R
    report["hexagon_delta_leg2"] = lhs2 == r13_from12 * r12
    return report


def ribbon(p: int = 2) -> AlgElem:
    """The ribbon element in the extended algebra; all Cartan powers are
    even, so it lies in the unextended quantum group (over Q(zeta_8))."""
    _require_p2(p)
    alg = extended_algebra(2)
    f = alg.field
    z8 = f.gen()
    i = f.root_of_unity(2)
    one = alg.one_el
    K, E, F = alg.K, alg.E, alg.F
    K2 = K * K
    fe = F * E
    pre = (one * z8 - K * fe * (z8.inv() * 2)) * (one + K2)
    post = (K + fe * (i * 2)) * (one - K2)
    v = (pre + post) * (z8.inv() * Fraction(1, 2))
    if any(l % 2 for (_, _, l) in v.terms):
        raise AssertionError("ribbon element must have even Cartan powers")
    return v


def ribbon_in_base(p: int = 2) -> AlgElem:
    """The ribbon element as an element of the unextended algebra, with
    coefficients in Q(zeta_8)."""
    v = ribbon(p)
    alg8 = base_algebra(2, field_order=8)
    out = alg8.zero_el
    for (i, j, l), c in v.terms.items():
        out = out + alg8.monomial(i, j, l // 2, c)
    return out


def verify_ribbon(p: int = 2) -> dict[str, bool]:
    """Centrality, membership in the computed center, the ribbon axiom
    Delta(v) = (R_21 R)^-1 (v (x) v), and the normalization on the
    trivial module."""
    _require_p2(p)
    alg = extended_algebra(2)
    v = ribbon(2)
    report = {}
    report["central"] = all(v * g == g * v for g in (alg.E, alg.F, alg.cartan))
    # membership in the center of the unextended algebra
    vb = ribbon_in_base(2)
    basis = [
        AlgElem(vb.alg, {t: c.embed(8) for t, c in z.terms.items()})
        for z in center_basis(2)
    ]
    keys = sorted({t for el in basis + [vb] for t in el.terms})
    mat = [[el.terms.get(k, vb.alg.field.zero) for el in basis] for k in keys]
    rhs = [[vb.terms.get(k, vb.alg.field.zero)] for k in keys]
    report["in_center_span"] = linalg.solve(mat, rhs) is not None
    # ribbon axiom, checked multiplicatively to avoid inverting the monodromy
    r = r_matrix(2)
    monodromy = r.flip() * r
    dv = coproduct(v)
    vv = TensorElem(alg, 2, {(t1, t2): c1 * c2 for t1, c1 in v.terms.items() for t2, c2 in v.terms.items()})
    report["ribbon_axiom"] = (monodromy * dv == vv)
    report["trivial_module_scalar_one"] = counit(v) == alg.field.one
    return report


# -- module-level braiding ---------------------------------------------------------


def k_diagonal(m: QMod, sign: int = 1) -> list[CycNum]:
    """A consistent diagonal action of the square root k of K on a
    module over Q(zeta_8): square roots of the K-eigenvalues propagated
    along the E/F graph, seeded per connected component (the overall
    choice of root flips with ``sign``, giving the two braidings)."""
    if m.field.order % 8:
        raise ValueError("extend the module to Q(zeta_8) first")
    f = m.field
    if any(w ** 4 != f.one for w in m.weights):
        raise ValueError("K eigenvalue is not a fourth root of unity")
    exps = []
    for w in m.weights:
        for t in range(8):
            if f.root_of_unity(2 * t) == w:
                exps.append(t)
                break
        else:
            raise ValueError("module weight admits no square root")
    kappa: list[int | None] = [None] * m.dim
    for seed in range(m.dim):
        if kappa[seed] is not None:
            continue
        kappa[seed] = exps[seed] % 8
        stack = [seed]
        while stack:
            i = stack.pop()
            for mat, step in ((m.mat_e, 2), (m.mat_f, -2)):
                for j in range(m.dim):
                    if mat[j][i]:
                        want = (kappa[i] + step) % 8
                        if kappa[j] is None:
                            kappa[j] = want
                            stack.append(j)
                        elif kappa[j] != want:
                            raise ValueError("module admits no consistent square root of K")
                    if mat[i][j]:
                        want = (kappa[i] - step) % 8
                        if kappa[j] is None:
                            kappa[j] = want
                            stack.append(j)
                        elif kappa[j] != want:
                            raise ValueError("module admits no consistent square root of K")
    out = []
    for i, t in enumerate(kappa):
        val = f.root_of_unity(t)
        if sign < 0:
            val = -val
        if val * val != m.weights[i]:
            raise ValueError("square root propagation failed")
        out.append(val)
    return out


def tensor_action(m1: QMod, m2: QMod, elem: TensorElem, sign: int = 1):
    """Action matrix of a two-leg tensor element on m1 (x) m2 over
    Q(zeta_8)."""
    m1 = coerce_field(m1, 8) if m1.field.order % 8 else m1
    m2 = coerce_field(m2, 8) if m2.field.order % 8 else m2
    act1, act2 = monomial_action(m1, k_diagonal(m1, sign)), monomial_action(m2, k_diagonal(m2, sign))
    return linalg.mat_comb(m1.field, ((c, linalg.kron(act1(t1), act2(t2))) for (t1, t2), c in elem.terms.items()),
                           m1.dim * m2.dim, m1.dim * m2.dim)


def braid_action(m1: QMod, m2: QMod, sign: int = 1):
    """The braiding m1 (x) m2  ->  m2 (x) m1: flip composed with the
    action of the universal R-matrix (choice of square root of K given
    by ``sign``)."""
    if m1.p != 2 or m2.p != 2:
        raise ValueError("braiding is implemented at p = 2")
    rho = tensor_action(m1, m2, r_matrix(2), sign=sign)
    d1, d2 = m1.dim, m2.dim
    flipped = [[None] * (d1 * d2) for _ in range(d1 * d2)]
    for i in range(d1):
        for j in range(d2):
            flipped[j * d1 + i] = rho[i * d2 + j]
    return flipped


def monodromy(m1: QMod, m2: QMod, sign: int = 1):
    """Double braiding on m1 (x) m2 (an intertwiner of the module
    structure)."""
    c12 = braid_action(m1, m2, sign)
    c21 = braid_action(m2, m1, sign)
    return linalg.mat_mul(c21, c12)


def ribbon_scalars(p: int = 2) -> dict[str, CycNum]:
    """The scalar by which the ribbon element acts on each irreducible."""
    _require_p2(p)
    from .qmodules import action_matrix, irreducible

    vb = ribbon_in_base(2)
    out = {}
    for a in (1, -1):
        for s in (1, 2):
            m = coerce_field(irreducible(2, a, s), 8)
            act = action_matrix(m, vb)
            scalar = act[0][0]
            for i in range(m.dim):
                for j in range(m.dim):
                    expect = scalar if i == j else m.field.zero
                    if act[i][j] != expect:
                        raise AssertionError("ribbon element acts non-scalar on an irreducible")
            out[family_label("X", a, s)] = scalar
    return out
