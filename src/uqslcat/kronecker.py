"""Representations of the Kronecker quiver (two vertices, two parallel
arrows) over a cyclotomic field, with exact classification into
preprojectives, preinjectives and CP1-parameterized regular tubes, and
the pair of functors translating between such representations and
quantum-group modules of semisimple length two.

The classification peels off indecomposable summands one at a time:

* a minimal-degree polynomial solution v(x) of (r + x rbar) v(x) = 0
  spans a preprojective summand;
* the same on the transposed representation yields a preinjective one;
* what remains is a regular pencil, split along the exact Jordan
  structure of (r + t rbar)^-1 rbar for a shift t making the first
  factor invertible; eigenvalues are Moebius-transported to points of
  CP1, and an eigenvalue whose minimal polynomial does not split over
  the field is reported as an error, never approximated.

Every summand is put into its literal canonical matrix form by solving
for an isomorphism from the canonical representation, and the assembled
base change is verified before returning.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import linalg
from .cyclotomic import CycField, CycNum, json_field, json_value
from .polys import roots_in_field
from .qmodules import CP1, QMod, build_glued, block_index, intertwiner_basis, \
    irreducible, semisimple_length_of


class ClassificationError(RuntimeError):
    """Internal failure: the structure theory promised something the
    computation could not realize."""


class EigenvalueOutsideField(ValueError):
    """The regular part of a pencil has an eigenvalue that is not a
    field element; carries the offending irreducible factor."""

    def __init__(self, factors):
        self.factors = factors
        desc = "; ".join(
            "+".join(f"({c.to_string()})*x^{k}" for k, c in enumerate(f) if c)
            for f in factors
        )
        super().__init__(
            f"pencil eigenvalues outside the coefficient field; irreducible factor(s): {desc}"
        )


class QuiverRep:
    """A pair of d1 x d0 matrices (r, rbar): the two arrow maps V0 -> V1."""

    def __init__(self, d0: int, d1: int, r, rbar, field: CycField | None = None):
        self.d0 = d0
        self.d1 = d1
        self.r = r
        self.rbar = rbar
        if field is None:
            probe = (r[0][0] if (d1 and d0) else None)
            if probe is None:
                raise ValueError("field needed for an empty representation")
            field = probe.field
        self.field = field
        for mat in (r, rbar):
            if len(mat) != d1 or any(len(row) != d0 for row in mat):
                raise ValueError("arrow matrix shapes must be d1 x d0")

    def transposed(self) -> "QuiverRep":
        return QuiverRep(self.d1, self.d0, linalg.transpose(self.r),
                         linalg.transpose(self.rbar), self.field)

    def direct_sum(self, other: "QuiverRep") -> "QuiverRep":
        f = self.field
        d0, d1 = self.d0 + other.d0, self.d1 + other.d1
        r = linalg.zeros(f, d1, d0)
        rb = linalg.zeros(f, d1, d0)
        for i in range(self.d1):
            for j in range(self.d0):
                r[i][j] = self.r[i][j]
                rb[i][j] = self.rbar[i][j]
        for i in range(other.d1):
            for j in range(other.d0):
                r[self.d1 + i][self.d0 + j] = other.r[i][j]
                rb[self.d1 + i][self.d0 + j] = other.rbar[i][j]
        return QuiverRep(d0, d1, r, rb, f)

    def __repr__(self):
        return f"QuiverRep(d0={self.d0}, d1={self.d1})"

    def to_json(self) -> dict:
        return {
            "d0": self.d0,
            "d1": self.d1,
            "r": [[x.to_json() for x in row] for row in self.r],
            "rbar": [[x.to_json() for x in row] for row in self.rbar],
        }

    @staticmethod
    def from_json(data: dict, order: int | None = None) -> "QuiverRep":
        d0, d1 = json_field(data, "d0", int), json_field(data, "d1", int)
        mats = []
        for key in ("r", "rbar"):
            rows = json_field(data, key, list)
            if len(rows) != d1 or any(len(json_value(row, f"a row of field {key!r}", list)) != d0
                                      for row in rows):
                raise ValueError(f"field {key!r} must be a {d1} x {d0} matrix (no ragged or empty rows)")
            mats.append([[CycNum.from_json(x) for x in row] for row in rows])
        entries = [x for mat in mats for row in mat for x in row]
        if not entries and not order:
            raise ValueError("cannot infer the field of an empty representation")
        field = entries[0].field if entries else CycField(order)
        if any(x.field is not field for x in entries):
            raise ValueError("fields 'r' and 'rbar' mix cyclotomic orders")
        return QuiverRep(d0, d1, mats[0], mats[1], field)


def canonical_rep(field: CycField, kind: str, n: int, z: CP1 | None = None) -> QuiverRep:
    """The canonical matrices: preprojective rho_n of dimension (n+1, n),
    preinjective of dimension (n, n+1), or a regular Jordan tube of
    dimension (n, n) at z in CP1."""
    one, zero = field.one, field.zero
    if kind == "preprojective":
        r = linalg.zeros(field, n, n + 1)
        rb = linalg.zeros(field, n, n + 1)
        for i in range(n):
            r[i][i] = one
            rb[i][i + 1] = one
        return QuiverRep(n + 1, n, r, rb, field)
    if kind == "preinjective":
        r = linalg.zeros(field, n + 1, n)
        rb = linalg.zeros(field, n + 1, n)
        for i in range(n):
            r[i][i] = one
            rb[i + 1][i] = one
        return QuiverRep(n, n + 1, r, rb, field)
    if kind == "regular":
        assert z is not None and n >= 1
        jordan = linalg.zeros(field, n, n)
        ident = linalg.identity(field, n)
        if z.z1:
            lam = z.z2
            for i in range(n):
                jordan[i][i] = lam
                if i + 1 < n:
                    jordan[i][i + 1] = one
            return QuiverRep(n, n, ident, jordan, field)
        for i in range(n - 1):
            jordan[i][i + 1] = one
        return QuiverRep(n, n, jordan, ident, field)
    raise ValueError(f"unknown kind {kind!r}")


def rep_hom_basis(a: QuiverRep, b: QuiverRep):
    """Basis of quiver-representation morphisms a -> b, as pairs
    (phi0, phi1) with b.r phi0 = phi1 a.r and b.rbar phi0 = phi1 a.rbar."""
    field = a.field
    sys = linalg.BlockSystem(field)
    sys.add_block("phi0", b.d0, a.d0)
    sys.add_block("phi1", b.d1, a.d1)
    for (mat_b, mat_a) in ((b.r, a.r), (b.rbar, a.rbar)):
        for i in range(b.d1):
            for j in range(a.d0):
                terms = []
                for k in range(b.d0):
                    terms.append((mat_b[i][k], "phi0", k, j))
                for k in range(a.d1):
                    terms.append((-mat_a[k][j], "phi1", i, k))
                sys.equation(terms)
    return [(sol["phi0"], sol["phi1"]) for sol in sys.kernel()]


@dataclass
class PencilBlock:
    kind: str  # preprojective | preinjective | regular
    n: int  # rho_n / rhobar_n index, or Jordan size for regular
    z: CP1 | None
    u0: list[list[CycNum]]  # columns in the input coordinates
    u1: list[list[CycNum]]

    def canonical(self, field) -> QuiverRep:
        return canonical_rep(field, self.kind, self.n, self.z)

    def sort_key(self):
        kind_order = {"preprojective": 0, "preinjective": 1, "regular": 2}
        zkey = self.z.sort_key() if self.z else ()
        return (kind_order[self.kind], self.n, repr(zkey))

    def label(self) -> tuple:
        if self.kind == "regular":
            return (self.kind, self.n, self.z)
        return (self.kind, self.n, None)


@dataclass
class QuiverDecomp:
    entries: list[tuple[tuple, int]]  # (label, multiplicity), canonical order
    blocks: list[PencilBlock]
    s0: list[list[CycNum]]  # input.r @ s0 == s1 @ canonical.r
    s1: list[list[CycNum]]
    canonical: QuiverRep

    def summand_count(self) -> int:
        return sum(m for _, m in self.entries)


def classify(rep: QuiverRep) -> QuiverDecomp:
    blocks = _decompose(rep)
    blocks.sort(key=lambda blk: blk.sort_key())
    field = rep.field
    canon: QuiverRep | None = None
    for blk in blocks:
        piece = blk.canonical(field)
        canon = piece if canon is None else canon.direct_sum(piece)
    if canon is None:
        canon = QuiverRep(0, 0, [], [], field)
    s0 = _columns_matrix(field, rep.d0, [col for blk in blocks for col in blk.u0])
    s1 = _columns_matrix(field, rep.d1, [col for blk in blocks for col in blk.u1])
    if rep.d0 and linalg.rank(s0) != rep.d0:
        raise ClassificationError("base change on V0 is not invertible")
    if rep.d1 and linalg.rank(s1) != rep.d1:
        raise ClassificationError("base change on V1 is not invertible")
    if not linalg.mat_eq(_safe_mul(rep.r, s0), _safe_mul(s1, canon.r)):
        raise ClassificationError("certificate fails to intertwine r")
    if not linalg.mat_eq(_safe_mul(rep.rbar, s0), _safe_mul(s1, canon.rbar)):
        raise ClassificationError("certificate fails to intertwine rbar")
    counted: dict[tuple, int] = {}
    order: list[tuple] = []
    for blk in blocks:
        lbl = blk.label()
        if lbl not in counted:
            counted[lbl] = 0
            order.append(lbl)
        counted[lbl] += 1
    entries = [(lbl, counted[lbl]) for lbl in order]
    return QuiverDecomp(entries, blocks, s0, s1, canon)


def _safe_mul(a, b):
    if not a or not b or not a[0] or not b[0]:
        rows = len(a)
        cols = len(b[0]) if b else 0
        return [[None] * cols for _ in range(rows)] if rows and cols else ([[] for _ in range(rows)] if rows else [])
    return linalg.mat_mul(a, b)


def _columns_matrix(field, nrows, cols):
    return [[cols[j][i] for j in range(len(cols))] for i in range(nrows)]


def _decompose(rep: QuiverRep) -> list[PencilBlock]:
    field = rep.field
    if rep.d0 == 0 and rep.d1 == 0:
        return []
    if rep.d0 == 0:
        return [
            PencilBlock("preinjective", 0, None, [], [_unit(field, rep.d1, i)])
            for i in range(rep.d1)
        ]
    if rep.d1 == 0:
        return [
            PencilBlock("preprojective", 0, None, [_unit(field, rep.d0, i)], [])
            for i in range(rep.d0)
        ]
    chain = _min_right_chain(rep)
    if chain is not None:
        return _extract_singular(rep, chain, transposed=False)
    chain_t = _min_right_chain(rep.transposed())
    if chain_t is not None:
        return _extract_singular(rep, chain_t, transposed=True)
    if rep.d0 != rep.d1:
        raise ClassificationError("regular pencil with unequal dimensions")
    return _regular_split(rep)


def _unit(field, n, i):
    v = [field.zero] * n
    v[i] = field.one
    return v


def _min_right_chain(rep: QuiverRep):
    """Minimal-degree nonzero solution (v_0, ..., v_n) of
    r v_0 = 0, r v_i = -rbar v_(i-1), rbar v_n = 0."""
    field = rep.field
    for n in range(rep.d0):
        sys = linalg.BlockSystem(field)
        for i in range(n + 1):
            sys.add_block(f"v{i}", rep.d0, 1)
        for i in range(n + 2):
            for row in range(rep.d1):
                terms = []
                if i <= n:
                    terms += [(rep.r[row][k], f"v{i}", k, 0) for k in range(rep.d0)]
                if i >= 1:
                    terms += [(rep.rbar[row][k], f"v{i-1}", k, 0) for k in range(rep.d0)]
                sys.equation(terms)
        sols = sys.kernel()
        if sols:
            sol = sols[0]
            chain = [[sol[f"v{i}"][k][0] for k in range(rep.d0)] for i in range(n + 1)]
            if not any(chain[0]):
                raise ClassificationError("minimal chain must have nonzero constant term")
            return chain
    return None


def _extract_singular(rep: QuiverRep, chain, transposed: bool) -> list[PencilBlock]:
    field = rep.field
    work = rep.transposed() if transposed else rep
    n = len(chain) - 1
    # basis e_j = (-1)^j v_(n+1-j) satisfies r e_j = rbar e_(j+1)
    u0 = []
    for j in range(1, n + 2):
        sign = field.one if j % 2 == 0 else -field.one
        u0.append([sign * x for x in chain[n + 1 - j]])
    u1 = [linalg.mat_vec(work.r, u0[j]) for j in range(n)]
    rs = linalg.RowSpace(field, work.d1)
    for col in u1:
        if not rs.add(col):
            raise ClassificationError("chain image vectors are dependent")
    if any(linalg.mat_vec(work.rbar, u0[0])) or any(linalg.mat_vec(work.r, u0[n])):
        raise ClassificationError("chain boundary conditions violated")
    proj = _split_projector(work, u0, u1)
    if transposed:
        pi0, pi1 = linalg.transpose(proj["pi1"]), linalg.transpose(proj["pi0"])
        # the summand is the image of each pi, spanned by the rows of its transpose
        (red0, piv0), (red1, piv1) = linalg.rref(proj["pi1"]), linalg.rref(proj["pi0"])
        sub0, sub1 = red0[:len(piv0)], red1[:len(piv1)]
        kind = "preinjective"
    else:
        pi0, pi1 = proj["pi0"], proj["pi1"]
        sub0, sub1 = u0, u1
        kind = "preprojective"
    block = _canonical_block(rep, kind, n, None, sub0, sub1)
    return [block] + _decompose_on(rep, linalg.nullspace(pi0), linalg.nullspace(pi1))


def _split_projector(rep: QuiverRep, u0, u1):
    """Projectors (pi0, pi1) = (U0 A, U1 B) onto the subrepresentation
    spanned by the given columns, commuting with both arrows."""
    field = rep.field
    k0, k1 = len(u0), len(u1)
    U0 = _columns_matrix(field, rep.d0, u0)
    U1 = _columns_matrix(field, rep.d1, u1)
    sys = linalg.BlockSystem(field)
    sys.add_block("A", k0, rep.d0)
    sys.add_block("B", k1, rep.d1)
    one, zero = field.one, field.zero
    for i in range(k0):
        for j in range(k0):
            sys.equation(
                [(U0[t][j], "A", i, t) for t in range(rep.d0)],
                one if i == j else zero,
            )
    for i in range(k1):
        for j in range(k1):
            sys.equation(
                [(U1[t][j], "B", i, t) for t in range(rep.d1)],
                one if i == j else zero,
            )
    for mat in ("r", "rbar"):
        M = getattr(rep, mat)
        MU0 = _safe_mul(M, U0) if k0 else [[] for _ in range(rep.d1)]
        # U1 B M = M U0 A  entrywise
        for i in range(rep.d1):
            for j in range(rep.d0):
                terms = []
                for t in range(k1):
                    if U1[i][t]:
                        for l in range(rep.d1):
                            if M[l][j]:
                                terms.append((U1[i][t] * M[l][j], "B", t, l))
                for t in range(k0):
                    if MU0[i][t]:
                        terms.append((-MU0[i][t], "A", t, j))
                sys.equation(terms)
    sol = sys.solve()
    if sol is None:
        raise ClassificationError("summand projector system is inconsistent")
    A, B = sol["A"], sol["B"]
    pi0 = _safe_mul(U0, A) if k0 else linalg.zeros(field, rep.d0, rep.d0)
    pi1 = _safe_mul(U1, B) if k1 else linalg.zeros(field, rep.d1, rep.d1)
    return {"pi0": pi0, "pi1": pi1, "A": A, "B": B}


def _restrict(rep: QuiverRep, u0, u1):
    """The subrepresentation on the spans of the columns u0 (in V0) and u1
    (in V1), in those bases, with the column matrices (U0, U1)."""
    field = rep.field
    k0, k1 = len(u0), len(u1)
    U0 = _columns_matrix(field, rep.d0, u0)
    U1 = _columns_matrix(field, rep.d1, u1)
    if k0 and k1:
        r_s = linalg.solve(U1, _safe_mul(rep.r, U0))
        rb_s = linalg.solve(U1, _safe_mul(rep.rbar, U0))
        if r_s is None or rb_s is None:
            raise ClassificationError("the columns do not span an arrow-stable subrepresentation")
    else:
        r_s = rb_s = linalg.zeros(field, k1, k0)
    return QuiverRep(k0, k1, r_s, rb_s, field), U0, U1


def _decompose_on(rep: QuiverRep, u0, u1) -> list[PencilBlock]:
    """Blocks of the subrepresentation on the given columns, with their
    columns carried back to the coordinates of rep."""
    sub, U0, U1 = _restrict(rep, u0, u1)
    return [
        PencilBlock(blk.kind, blk.n, blk.z, [linalg.mat_vec(U0, col) for col in blk.u0],
                    [linalg.mat_vec(U1, col) for col in blk.u1])
        for blk in _decompose(sub)
    ]


def _canonical_block(rep: QuiverRep, kind, n, z, u0, u1) -> PencilBlock:
    """Adjust the bases of an identified indecomposable summand so the
    restricted arrows take the literal canonical matrix form."""
    field = rep.field
    sub, U0, U1 = _restrict(rep, u0, u1)
    k0, k1 = sub.d0, sub.d1
    canon = canonical_rep(field, kind, n, z)
    homs = rep_hom_basis(canon, sub)
    iso = None
    for phi0, phi1 in homs:
        ok0 = (k0 == 0) or linalg.rank(phi0) == k0
        ok1 = (k1 == 0) or linalg.rank(phi1) == k1
        if ok0 and ok1:
            iso = (phi0, phi1)
            break
    if iso is None:
        raise ClassificationError(f"no isomorphism to canonical {kind} block")
    phi0, phi1 = iso
    new_u0 = [linalg.mat_vec(U0, [phi0[i][j] for i in range(k0)]) for j in range(canon.d0)]
    new_u1 = [linalg.mat_vec(U1, [phi1[i][j] for i in range(k1)]) for j in range(canon.d1)]
    return PencilBlock(kind, n, z, new_u0, new_u1)


def _regular_split(rep: QuiverRep) -> list[PencilBlock]:
    field = rep.field
    d = rep.d0
    shift = None
    for cand in range(d + 1):
        t = field.from_fraction(cand)
        trial = linalg.mat_add(rep.r, linalg.mat_scale(t, rep.rbar))
        if linalg.rank(trial) == d:
            shift = t
            amat = trial
            break
    if shift is None:
        raise ClassificationError("regular pencil without invertible member")
    b = linalg.mat_mul(linalg.inverse(amat), rep.rbar)
    cp = linalg.charpoly(b)
    roots, nonlinear = roots_in_field(cp)
    if nonlinear:
        raise EigenvalueOutsideField(nonlinear)
    mu, mult = roots[0]
    one = field.one
    nmat = [[b[i][j] - (mu if i == j else field.zero) for j in range(d)] for i in range(d)]
    if mult < d:
        # split the generalized eigenspace off and recurse on both halves
        u0 = linalg.nullspace(linalg.mat_pow(nmat, mult))
        u1 = [linalg.mat_vec(amat, v) for v in u0]
        proj = _split_projector(rep, u0, u1)
        return _decompose_on(rep, u0, u1) + \
            _decompose_on(rep, linalg.nullspace(proj["pi0"]), linalg.nullspace(proj["pi1"]))
    # single eigenvalue: peel one maximal Jordan chain
    powers = [linalg.identity(field, d)]
    while not linalg.is_zero_mat(powers[-1]):
        powers.append(linalg.mat_mul(powers[-1], nmat))
    height = len(powers) - 1  # nilpotency index
    vec = None
    for i in range(d):
        cand = _unit(field, d, i)
        if any(linalg.mat_vec(powers[height - 1], cand)):
            vec = cand
            break
    if vec is None:
        raise ClassificationError("no vector of maximal Jordan height")
    chain_cols = []
    for k in range(height - 1, -1, -1):
        chain_cols.append(linalg.mat_vec(powers[k], vec))
    u0 = chain_cols
    u1 = [linalg.mat_vec(amat, v) for v in u0]
    z = _eigenvalue_to_z(field, shift, mu)
    proj = _split_projector(rep, u0, u1)
    block = _canonical_block(rep, "regular", height, z, u0, u1)
    return [block] + _decompose_on(rep, linalg.nullspace(proj["pi0"]), linalg.nullspace(proj["pi1"]))


def _eigenvalue_to_z(field, shift: CycNum, mu: CycNum) -> CP1:
    denom = field.one - shift * mu
    if not denom:
        return CP1(field.zero, field.one)
    return CP1(field.one, mu / denom)


# -- the two functors -----------------------------------------------------------


def socle_embeddings(p: int, a, s_top: int):
    """The two fixed embeddings of the opposite irreducible into the
    one-top-two-socle module: first the F-gluing copy, then the E-gluing
    copy (the basis of the rank-two extension space)."""
    from .qmodules import build_m2

    a = 1 if a in (1, "+") else -1
    m2 = build_m2(p, a, s_top)
    field = m2.field
    t = p - s_top
    eps = linalg.zeros(field, m2.dim, t)  # F-gluing copy: second socle block
    epsbar = linalg.zeros(field, m2.dim, t)  # E-gluing copy: first socle block
    for k in range(t):
        epsbar[s_top + k][k] = field.one
        eps[s_top + t + k][k] = field.one
    return m2, eps, epsbar


def functor_F(m: QMod, sign, with_data: bool = False):
    """Quiver representation of a semisimple-length-two module whose top
    is concentrated in the given sign: V0 = Hom(M2, m) and
    V1 = Hom(X_socle, m), with the arrows given by composition with the
    two socle embeddings."""
    sign = 1 if sign in (1, "+") else -1
    if semisimple_length_of(m) > 2:
        raise ValueError("the quiver functor needs semisimple length <= 2")
    p = m.p
    s_block = block_index(m)
    if not 1 <= s_block <= p - 1:
        raise ValueError("the quiver functor applies to the non-semisimple blocks only")
    s_top = s_block if sign > 0 else p - s_block
    m2, eps, epsbar = socle_embeddings(p, sign, s_top)
    x_soc = irreducible(p, -sign, p - s_top)
    v0 = intertwiner_basis(m2, m)
    v1 = intertwiner_basis(x_soc, m)
    field = m.field
    d0, d1 = len(v0), len(v1)

    def coords(phi_eps):
        c = linalg.solve_combination(v1, phi_eps)
        if c is None:
            raise ClassificationError("socle composition left the socle Hom space")
        return c

    r = linalg.zeros(field, d1, d0)
    rbar = linalg.zeros(field, d1, d0)
    for j, phi in enumerate(v0):
        ce = coords(linalg.mat_mul(phi, eps))
        cb = coords(linalg.mat_mul(phi, epsbar))
        for i in range(d1):
            r[i][j] = ce[i]
            rbar[i][j] = cb[i]
    rep = QuiverRep(d0, d1, r, rbar, field)
    if with_data:
        return rep, v0, v1, (s_top, x_soc)
    return rep


def functor_G(rep: QuiverRep, p: int, a, s: int) -> QMod:
    """Inverse functor: glue rep.d0 copies of the sign-a irreducible of
    dimension s over rep.d1 socle copies, F-gluing weighted by r and
    E-gluing by rbar."""
    return build_glued(p, a, s, rep)
