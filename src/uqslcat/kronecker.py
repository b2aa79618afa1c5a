"""Representations of the Kronecker quiver (two vertices, two parallel
arrows) over a cyclotomic field, with exact classification into
preprojectives, preinjectives and CP1-parameterized regular tubes, and
the pair of functors translating between such representations and
quantum-group modules of semisimple length two.

The classification finds each kind of summand in one pass:

* all preprojective summands at once, from a minimal polynomial basis of
  ker(r + x rbar), whose coefficient vectors span them in canonical form;
  one generalized Sylvester solve then gives a complementary
  subrepresentation (the complement is not canonical, as Hom(regular,
  preprojective) is nonzero);
* the preinjective summands by duality, from the transposed
  representation;
* what remains is a regular pencil, split along the exact Jordan
  structure of (r + t rbar)^-1 rbar for a shift t making the first
  factor invertible; eigenvalues are Moebius-transported to points of
  CP1, and an eigenvalue whose minimal polynomial does not split over
  the field is reported as an error, never approximated.

Each Jordan block takes its literal canonical matrix form from one Jordan
chain, which with its shifts spans the maps from the canonical block; no
Hom space is solved for, and the assembled base change is verified.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate

from . import linalg
from .cyclotomic import CycField, CycNum, InternalError, dot, json_field, json_value
from .polys import roots_in_field
from .qmodules import (CP1, QMod, _sign, block_index, build_glued, irreducible_weights, require_own_field, submodule,
                       weight_basis)


class ClassificationError(InternalError):
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
        if z is None or n < 1:
            raise ValueError("a regular block needs a point z and n >= 1")
        lam, ident = z.z2 if z.z1 else zero, linalg.identity(field, n)
        jordan = [[lam if j == i else one if j == i + 1 else zero for j in range(n)] for i in range(n)]
        return QuiverRep(n, n, ident, jordan, field) if z.z1 else QuiverRep(n, n, jordan, ident, field)
    raise ValueError(f"unknown kind {kind!r}")


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
    canon = QuiverRep(0, 0, [], [], field)
    for blk in blocks:
        canon = canon.direct_sum(blk.canonical(field))
    s0 = linalg.transpose([col for blk in blocks for col in blk.u0]) or linalg.zeros(field, rep.d0, 0)
    s1 = linalg.transpose([col for blk in blocks for col in blk.u1]) or linalg.zeros(field, rep.d1, 0)
    if rep.d0 and linalg.rank(s0) != rep.d0:
        raise ClassificationError("base change on V0 is not invertible")
    if rep.d1 and linalg.rank(s1) != rep.d1:
        raise ClassificationError("base change on V1 is not invertible")
    zero = linalg.zeros(field, rep.d1, rep.d0)  # what mat_mul leaves as [] when a factor has no rows
    for name, arrow, canon_arrow in (("r", rep.r, canon.r), ("rbar", rep.rbar, canon.rbar)):
        if not linalg.mat_eq(linalg.mat_mul(arrow, s0) or zero, linalg.mat_mul(s1, canon_arrow) or zero):
            raise ClassificationError(f"certificate fails to intertwine {name}")
    counted: dict[tuple, int] = {}  # in first-seen order
    for blk in blocks:
        counted[blk.label()] = counted.get(blk.label(), 0) + 1
    return QuiverDecomp(list(counted.items()), blocks, s0, s1, canon)


def _decompose(rep: QuiverRep) -> list[PencilBlock]:
    field = rep.field
    if rep.d0 == 0 or rep.d1 == 0:
        return [PencilBlock("preinjective", 0, None, [], [u]) for u in linalg.identity(field, rep.d1)] + \
            [PencilBlock("preprojective", 0, None, [u], []) for u in linalg.identity(field, rep.d0)]
    t, amat, rank = _generic_member(rep)
    if rank < rep.d0:
        return _preprojective_split(rep, rep.d0 - rank)
    if rank < rep.d1:
        return _from_transpose(rep)
    return _regular_blocks(rep, t, amat)


def _generic_member(rep: QuiverRep):
    """(t, r + t rbar, rank) for the first t = 0, 1, ... where the rank is
    the rank rho over F(x): a nonzero rho x rho minor of r + x rbar has at
    most rho roots, so one of t = 0..rho attains it."""
    field, best = rep.field, None
    for cand in range(min(rep.d0, rep.d1) + 1):
        t = field.from_fraction(cand)
        amat = linalg.mat_add(rep.r, linalg.mat_scale(t, rep.rbar))
        rank = linalg.rank(amat)
        if best is None or rank > best[2]:
            best = (t, amat, rank)
        if rank == min(rep.d0, rep.d1):
            break
    return best


def _minimal_basis(rep: QuiverRep, count: int):
    """The coefficient lists (v_0, ..., v_n) of a minimal polynomial basis
    of ker(r + x rbar), which has count members, found degree by degree:
    the solutions of degree <= n are the kernel of a block-Toeplitz matrix,
    and those outside the span of the x-shifts of the lower-degree members
    are new members of degree n."""
    field, d0, d1 = rep.field, rep.d0, rep.d1
    chains: list[list[list[CycNum]]] = []
    for n in range(d0):
        width = (n + 1) * d0
        toeplitz = linalg.zeros(field, (n + 2) * d1, width)
        for i in range(n + 1):
            for row in range(d1):
                toeplitz[i * d1 + row][i * d0:(i + 1) * d0] = rep.r[row]
                toeplitz[(i + 1) * d1 + row][i * d0:(i + 1) * d0] = rep.rbar[row]
        shifts = linalg.RowSpace(field, width)
        for chain in chains:
            flat = [x for v in chain for x in v]
            for j in range(n + 2 - len(chain)):
                shifts.add([field.zero] * (j * d0) + flat + [field.zero] * (width - j * d0 - len(flat)))
        for sol in linalg.nullspace(toeplitz):
            if shifts.add(sol):
                chains.append([sol[i * d0:(i + 1) * d0] for i in range(n + 1)])
        if len(chains) == count:
            return chains
    raise ClassificationError("minimal polynomial basis is incomplete")


def _preprojective_split(rep: QuiverRep, count: int) -> list[PencilBlock]:
    """All preprojective blocks from one minimal basis, then the blocks of
    one complementary subrepresentation."""
    field = rep.field
    rs0, rs1 = linalg.RowSpace(field, rep.d0), linalg.RowSpace(field, rep.d1)
    blocks = []
    for chain in _minimal_basis(rep, count):
        n = len(chain) - 1
        # e_i = (-1)^i v_(n-i) satisfies r e_i = rbar e_(i+1), rbar e_0 = 0 = r e_n
        u0 = [[-x for x in chain[n - i]] if i % 2 else chain[n - i] for i in range(n + 1)]
        u1 = [linalg.mat_vec(rep.r, u0[i]) for i in range(n)]
        if not all(rs0.add(v) for v in u0) or not all(rs1.add(v) for v in u1):
            raise ClassificationError("minimal basis coefficients are dependent")
        blocks.append(PencilBlock("preprojective", n, None, u0, u1))
    comp0, comp1 = _complement(rep, rs0, rs1)
    return blocks + _decompose_on(rep, comp0, comp1)


def _complement(rep: QuiverRep, rs0, rs1):
    """Columns of a subrepresentation complementary to the one held by the
    row spaces rs0, rs1 (in reduced echelon form).

    In the bases (rows of rs_i, unit vectors off their pivots) both arrows
    are block upper triangular; the graph of (X0, X1) over the unit vectors
    is arrow-stable exactly when M_AA X0 - X1 M_CC = -M_AC for M = r, rbar."""
    field = rep.field
    rows0, rows1 = rs0.basis(), rs1.basis()
    free0 = [c for c in range(rep.d0) if c not in rs0.pivots]
    free1 = [j for j in range(rep.d1) if j not in rs1.pivots]
    k0, k1, m0, m1 = len(rows0), len(rows1), len(free0), len(free1)
    x0, x1 = linalg.zeros(field, k0, m0), linalg.zeros(field, k1, m1)
    if k1 and m0:
        system, rhs = [], []
        for mat in (rep.r, rep.rbar):
            m_aa = linalg.transpose([[img[q] for q in rs1.pivots] for img in (linalg.mat_vec(mat, v) for v in rows0)])
            m_cc_t = [[mat[j][c] - dot(field, ((mat[q][c], row[j]) for q, row in zip(rs1.pivots, rows1)))
                       for j in free1] for c in free0]
            system += linalg.hstack(linalg.kron(m_aa, linalg.identity(field, m0)),
                                    linalg.mat_neg(linalg.kron(linalg.identity(field, k1), m_cc_t)))
            rhs += [[-mat[q][c]] for q in rs1.pivots for c in free0]
        sol = linalg.solve(system, rhs)
        if sol is None:
            raise ClassificationError("the preprojective part has no complement")
        x0 = [[sol[a * m0 + c][0] for c in range(m0)] for a in range(k0)]
        x1 = [[sol[k0 * m0 + i * m1 + j][0] for j in range(m1)] for i in range(k1)]

    def graph(n, free, rows, x):  # column c: the unit vector at free[c] plus sum_a x[a][c] rows[a]
        cols = linalg.mat_mul(linalg.transpose(x), rows) if rows else linalg.zeros(field, len(free), n)
        for col, unit in zip(cols, free):
            col[unit] += 1
        return cols

    return graph(rep.d0, free0, rows0, x0), graph(rep.d1, free1, rows1, x1)


def _from_transpose(rep: QuiverRep) -> list[PencilBlock]:
    """Blocks by duality: decompose the transpose and read its blocks back
    through the rows of the inverse base changes; preprojective and
    preinjective swap, and a regular block keeps its point with its basis
    reversed (the transposed Jordan block is lower triangular)."""
    blocks = _decompose(rep.transposed())
    inv1 = linalg.inverse(linalg.transpose([c for b in blocks for c in b.u0]))
    inv0 = linalg.inverse(linalg.transpose([c for b in blocks for c in b.u1]))
    swap = {"preprojective": "preinjective", "preinjective": "preprojective", "regular": "regular"}
    out, at0, at1 = [], 0, 0
    for blk in blocks:
        u0, u1 = inv0[at1:at1 + len(blk.u1)], inv1[at0:at0 + len(blk.u0)]
        at0, at1 = at0 + len(blk.u0), at1 + len(blk.u1)
        if blk.kind == "regular":
            u0, u1 = u0[::-1], u1[::-1]
        out.append(PencilBlock(swap[blk.kind], blk.n, blk.z, u0, u1))
    return out


def _restrict(rep: QuiverRep, u0, u1):
    """The subrepresentation on the spans of the columns u0 (in V0) and u1
    (in V1), in those bases, with the column matrices (U0, U1)."""
    field = rep.field
    k0, k1 = len(u0), len(u1)
    U0 = linalg.transpose(u0) or linalg.zeros(field, rep.d0, 0)
    U1 = linalg.transpose(u1) or linalg.zeros(field, rep.d1, 0)
    if k0 and k1:
        r_s = linalg.solve(U1, linalg.mat_mul(rep.r, U0))
        rb_s = linalg.solve(U1, linalg.mat_mul(rep.rbar, U0))
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


def _regular_hom_basis(sub: QuiverRep, n: int, z: CP1):
    """Hom(canonical, sub) for sub isomorphic to the canonical regular block of
    size n at z, in the canonical basis on the entries of phi0, then of phi1,
    row by row (linalg.span_basis).  With x the arrow that is I in the
    canonical form (r when z1 != 0, else rbar) and y the other, N = x^-1 y - z2 I
    (x^-1 y at 0:1) has one Jordan chain: for a unit vector w outside ker N^(n-1),
    phi0 = (N^(n-1) w, ..., w) and x phi0 are an isomorphism, and as the maps
    commuting with a nilpotent Jordan block are its polynomials, the Hom is
    spanned by (phi0 S^k, x phi0 S^k), k < n, S the shift of the canonical block."""
    field, zero = sub.field, sub.field.zero
    x, y = (sub.r, sub.rbar) if z.z1 else (sub.rbar, sub.r)
    lam = z.z2 if z.z1 else zero
    nil = [[v - lam if i == j else v for j, v in enumerate(row)]
           for i, row in enumerate(linalg.mat_mul(linalg.inverse(x), y))]
    powers = list(accumulate([nil] * (n - 1), linalg.mat_mul, initial=linalg.identity(field, n)))  # N^k, k < n
    top = next((k for k in range(n) if any(row[k] for row in powers[-1])), None)
    if top is None:
        raise ClassificationError("regular block has no Jordan chain of its size")
    chain = [[row[top] for row in powers[n - 1 - j]] for j in range(n)]  # chain[j]: column j of phi0
    shifted = (linalg.transpose([[zero] * n] * k + chain[:n - k]) for k in range(n))  # phi0 S^k, the chain moved right
    flats = [[v for mat in (phi0, linalg.mat_mul(x, phi0)) for row in mat for v in row] for phi0 in shifted]
    return [tuple([v[off + i * n:off + (i + 1) * n] for i in range(n)] for off in (0, n * n))
            for v in linalg.span_basis(flats)]


def _canonical_block(rep: QuiverRep, n: int, z: CP1, u0, u1) -> PencilBlock:
    """Bring a regular Jordan block of size n at z to the literal canonical form
    by the first isomorphism in _regular_hom_basis (x phi0 has the rank of phi0)."""
    sub, U0, U1 = _restrict(rep, u0, u1)
    for phi0, phi1 in _regular_hom_basis(sub, n, z):
        if linalg.rank(phi0) == n:
            return PencilBlock("regular", n, z, [linalg.mat_vec(U0, col) for col in linalg.transpose(phi0)],
                               [linalg.mat_vec(U1, col) for col in linalg.transpose(phi1)])
    raise ClassificationError("no isomorphism to the canonical regular block")


def _regular_blocks(rep: QuiverRep, t: CycNum, amat) -> list[PencilBlock]:
    """Jordan blocks of a regular pencil with r + t rbar = amat invertible:
    one Jordan basis of b = amat^-1 rbar per eigenvalue mu, built top-down
    from the kernels of the powers of b - mu; V1 gets the images under amat."""
    field, d = rep.field, rep.d0
    b = linalg.mat_mul(linalg.inverse(amat), rep.rbar)
    roots, nonlinear = roots_in_field(linalg.charpoly(b))
    if nonlinear:
        raise EigenvalueOutsideField(nonlinear)
    blocks = []
    for mu, mult in roots:
        nmat = [[x - mu if i == j else x for j, x in enumerate(row)] for i, row in enumerate(b)]
        kernels, power = [[]], nmat
        while len(kernels[-1]) < mult:
            kernels.append(linalg.nullspace(power))
            if len(kernels[-1]) == len(kernels[-2]):
                raise ClassificationError("generalized eigenspace smaller than the multiplicity")
            power = linalg.mat_mul(power, nmat)
        chains = []  # chain[i] = (b - mu)^(len - 1 - i) top, so chain[j - 1] sits at height j
        for height in range(len(kernels) - 1, 0, -1):
            seen = linalg.RowSpace(field, d)
            for v in kernels[height - 1] + [ch[height - 1] for ch in chains]:
                seen.add(v)
            for top in kernels[height]:
                if seen.add(top):
                    chain = [top]
                    for _ in range(height - 1):
                        chain.insert(0, linalg.mat_vec(nmat, chain[0]))
                    chains.append(chain)
        z = _eigenvalue_to_z(field, t, mu)
        blocks += [_canonical_block(rep, len(ch), z, ch, [linalg.mat_vec(amat, v) for v in ch])
                   for ch in chains]
    return blocks


def _eigenvalue_to_z(field, shift: CycNum, mu: CycNum) -> CP1:
    denom = field.one - shift * mu
    if not denom:
        return CP1(field.zero, field.one)
    return CP1(field.one, mu / denom)


# -- the two functors -----------------------------------------------------------


def glued_form(m: QMod, sign: int, s_top: int, v0, v1):
    """(rep, basis) for top highest-weight vectors v0 and socle
    highest-weight vectors v1 of m, in the coordinates of their weight
    spaces: the ModMap basis sends the basis of build_glued(p, sign, s_top,
    rep), in its order, to F^nu u for u in v0, nu < s_top, then F^k w for w
    in v1, k < p - s_top, and rep is read off the action of m on them.
    Raises ValueError unless they are independent (weight by weight), span a
    submodule and carry exactly the action of build_glued(rep), so that
    basis is an injective module map from it into m."""
    p, field, t, f = m.p, m.field, m.p - s_top, m.blocks("F")
    chains = []  # (weight, vector of that weight space)
    for vecs, (a, length) in ((v0, (sign, s_top)), (v1, (-sign, t))):
        for v in vecs:
            for lam in irreducible_weights(p, a, length):
                chains.append((lam, v))
                v = linalg.mat_vec(f[lam], v) if v else v  # empty where the weight is missing
    by_weight: dict[int, list] = {}
    for lam, v in chains:
        by_weight.setdefault(lam, []).append(v)
    if any(linalg.rank(vecs) != len(vecs) for vecs in by_weight.values()):
        raise ValueError("the highest-weight vectors generate dependent columns")
    sub, basis = submodule(m, chains)
    d0, d1 = len(v0), len(v1)
    tops = irreducible_weights(p, sign, s_top)  # F on the bottom and E on the top of each top copy reach the socle
    r, rbar = (sub.blocks(g)[lam] if d0 else [[]] * d1 for g, lam in (("F", tops[-1]), ("E", tops[0])))
    rep = QuiverRep(d0, d1, r, rbar, field)
    glued = build_glued(p, sign, s_top, rep)
    if not (sub.weights == glued.weights and all(sub.blocks(g) == glued.blocks(g) for g in "EF")):
        raise ValueError("the module is not one top glued over one socle along its representation")
    return rep, basis


def functor_F(m: QMod, sign) -> QuiverRep:
    """Quiver representation of a semisimple-length-two module whose top
    is concentrated in the given sign: V0 = Hom(M2, m) and
    V1 = Hom(X_socle, m), which are the weight spaces of the top and socle
    highest weights, since M2 and X_socle are cyclic on their top vectors;
    the arrows are read off the action on the basis these generate under F.
    Raises ValueError unless G(F(m)) = m on that basis exactly, which
    rejects a module of greater length or with a top of both signs."""
    require_own_field(m, "functor_F")
    sign = _sign(sign)
    p = m.p
    s_block = block_index(m)
    if not 1 <= s_block <= p - 1:
        raise ValueError("the quiver functor applies to the non-semisimple blocks only")
    s_top = s_block if sign > 0 else p - s_block
    v0, v1 = (weight_basis(m, irreducible_weights(p, a, s)[0]) for a, s in ((sign, s_top), (-sign, p - s_top)))
    if len(v0) * s_top + len(v1) * (p - s_top) != m.dim:
        raise ValueError("the top and socle highest weights do not generate the module")
    return glued_form(m, sign, s_top, v0, v1)[0]


def functor_G(rep: QuiverRep, p: int, a, s: int) -> QMod:
    """Inverse functor: glue rep.d0 copies of the sign-a irreducible of
    dimension s over rep.d1 socle copies, F-gluing weighted by r and
    E-gluing by rbar."""
    return build_glued(p, a, s, rep)
