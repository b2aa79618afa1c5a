"""Finite-dimensional modules of the restricted quantum sl(2).

Every module carries exact matrices for E, F, K on a basis in which K is
diagonal (K is always diagonalizable since K^2p = 1), so E maps the weight
space M_lambda to M_(q^2 lambda), F maps it to M_(q^-2 lambda), and module
maps preserve it: checks and solves work on the weight blocks of the
dense matrices (weight_blocks), after checking that no entry lies off
them.  The families constructed here: the 2p irreducibles, the explicit
two-step gluings with two modules on top / on the bottom, the projective
covers, and the general gluing of m top copies with n socle copies along
a pair of coefficient matrices, which realizes every indecomposable of
semisimple length two.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .algebra import AlgElem, base_algebra
from .cyclotomic import CycField, CycNum, json_field, json_value, qint


# The largest p a module file may state: building the field Q(zeta_2p) alone
# takes about a second at p = 5000 (2-vCPU x86-64 VM, Python 3.11).
MAX_P = 1000


def _sign(a) -> int:
    if a in (1, -1):
        return a
    if a in ("+", "plus"):
        return 1
    if a in ("-", "minus"):
        return -1
    raise ValueError(f"bad sign {a!r}")


def family_label(family: str, a: int, s: int) -> str:
    """The label of the sign-a member at s of a module family, e.g. X+_1."""
    return f"{family}{'+' if a > 0 else '-'}_{s}"


class CP1:
    """A point z = z1 : z2 of the projective line over Q(zeta_2p),
    stored in the canonical form (1, z2/z1) or (0, 1)."""

    __slots__ = ("z1", "z2")

    def __init__(self, z1: CycNum, z2: CycNum):
        if not z1 and not z2:
            raise ValueError("z1 and z2 must not both be zero")
        if z1:
            self.z1 = z1.field.one
            self.z2 = z2 / z1
        else:
            self.z1 = z1.field.zero
            self.z2 = z2.field.one

    @staticmethod
    def of(p: int, z1, z2) -> "CP1":
        field = CycField(2 * p)
        conv = lambda v: v if isinstance(v, CycNum) else field.from_fraction(v)
        return CP1(conv(z1), conv(z2))

    def __eq__(self, other):
        return isinstance(other, CP1) and self.z1 == other.z1 and self.z2 == other.z2

    def __hash__(self):
        return hash((self.z1, self.z2))

    def __repr__(self):
        return f"{self.z1.to_string()}:{self.z2.to_string()}"

    def sort_key(self):
        return (0 if self.z1 else 1, self.z2.num, self.z2.den)

    def to_json(self) -> list[str]:
        return [self.z1.to_string(), self.z2.to_string()]


class QMod:
    """A finite-dimensional module: exact E, F, K matrices on a
    K-eigenbasis."""

    def __init__(self, p, mat_e, mat_f, weights, label=None, field=None):
        self.p = p
        self.field = field or (weights[0].field if weights else CycField(2 * p))
        self.dim = len(weights)
        self.mat_e = mat_e
        self.mat_f = mat_f
        self.weights = list(weights)
        self.label = label

    @property
    def mat_k(self):
        mat = linalg.zeros(self.field, self.dim, self.dim)
        for i, w in enumerate(self.weights):
            mat[i][i] = w
        return mat

    def mat(self, gen: str):
        if gen == "E":
            return self.mat_e
        if gen == "F":
            return self.mat_f
        if gen == "K":
            return self.mat_k
        raise ValueError(f"unknown generator {gen!r}")

    def __repr__(self):
        tag = f" {self.label}" if self.label else ""
        return f"QMod(p={self.p}, dim={self.dim}{tag})"

    def relabel(self, label):
        return QMod(self.p, self.mat_e, self.mat_f, self.weights, label, self.field)

    # -- serialization -----------------------------------------------------

    def to_json(self) -> dict:
        def sparse(mat):
            return [
                [i, j, x.to_json()]
                for i, row in enumerate(mat)
                for j, x in enumerate(row)
                if x
            ]

        return {
            "p": self.p,
            "dim": self.dim,
            "label": self.label,
            "weights": [w.to_json() for w in self.weights],
            "E": sparse(self.mat_e),
            "F": sparse(self.mat_f),
            "K": [[i, i, w.to_json()] for i, w in enumerate(self.weights)],
        }

    @staticmethod
    def from_json(data: dict) -> "QMod":
        p = json_field(data, "p", int, 2, MAX_P + 1)
        dim = json_field(data, "dim", int)
        field = CycField(2 * p)

        def number(c, key):
            x = CycNum.from_json(c)
            if x.field is not field:
                raise ValueError(f"field {key!r} has an entry of order {x.order}, not {field.order}")
            return x

        weights = [number(w, "weights") for w in json_field(data, "weights", list)]
        if len(weights) != dim:
            raise ValueError("field 'weights' does not match the stated dimension")
        if not all(weights):
            raise ValueError("field 'weights' has a zero entry, but K is invertible")

        def dense(key):
            mat = linalg.zeros(field, dim, dim)
            seen = set()
            for entry in json_field(data, key, list):
                if len(json_value(entry, f"an entry of field {key!r}", list)) != 3:
                    raise ValueError(f"entries of field {key!r} must be [i, j, coeff]")
                i, j = (json_value(x, f"an index in field {key!r}", int, 0, dim) for x in entry[:2])
                if (i, j) in seen:
                    raise ValueError(f"field {key!r} has two entries at [{i}, {j}]")
                seen.add((i, j))
                mat[i][j] = number(entry[2], key)
            return mat

        m = QMod(p, dense("E"), dense("F"), weights, data.get("label"), field)
        if data.get("K") and not linalg.mat_eq(dense("K"), m.mat_k):  # optional, redundant
            raise ValueError("field 'K' disagrees with the weight list")
        return m


# -- weight spaces ------------------------------------------------------------------


def q_of(m: QMod) -> CycNum:
    """q = exp(i pi/p) in the field of the module."""
    return CycField(2 * m.p).gen().embed(m.field.order)


def weight_spaces(weights) -> dict[CycNum, list[int]]:
    """Each weight with the indices of the basis vectors of that weight."""
    out: dict[CycNum, list[int]] = {}
    for i, w in enumerate(weights):
        out.setdefault(w, []).append(i)
    return out


def weight_blocks(mat, rows, cols, shift=None) -> dict | None:
    """lambda -> the block of mat from the weight-lambda basis vectors of
    its source to the weight-(shift lambda) ones of its target (no rows if
    none), for their weight_spaces cols and rows; shift None means 1, as for
    module maps.  None when mat has an entry off these blocks."""
    out = {}
    for lam, idx in cols.items():
        tgt = rows.get(lam if shift is None else shift * lam, [])
        keep = set(tgt)
        if any(row[c] for r, row in enumerate(mat) if r not in keep for c in idx):
            return None
        out[lam] = [[mat[r][c] for c in idx] for r in tgt]
    return out


def graded_kernel(field: CycField, blocks, cols, dim: int) -> list[list[CycNum]]:
    """The kernel of a map from its blocks on the weight spaces cols of its
    source: the null vectors of each block, lifted to length dim, in the
    order of linalg.nullspace on the whole map (by their last nonzero)."""
    out = []
    for lam, blk in blocks.items():
        for v in linalg.nullspace(blk) if blk else linalg.identity(field, len(cols[lam])):
            lift = dict(zip(cols[lam], v))
            out.append([lift.get(i, field.zero) for i in range(dim)])
    return sorted(out, key=lambda v: max(i for i, x in enumerate(v) if x))


@dataclass
class ModuleCheck:
    ok: bool
    violations: list[str]


def verify_module(m: QMod) -> ModuleCheck:
    """Exact check of all defining relations, one weight space at a time:
    the weights are 2p-th roots of unity; E and F have no entry off their
    weight blocks M_lambda -> M_(q^(+-2) lambda); and, if so, E^p and F^p
    vanish on each M_lambda, as products of p blocks along its q^2-orbit
    (which closes, as q^2p = 1), and [E, F] = (K - K^-1)/(q - q^-1) there."""
    field, p, q, spaces, violations = m.field, m.p, q_of(m), weight_spaces(m.weights), []
    q2, q2inv = q * q, (q * q).inv()
    if any(w ** (2 * p) != field.one for w in spaces):
        violations.append("K eigenvalue is not a 2p-th root of unity")
    e = weight_blocks(m.mat_e, spaces, spaces, q2)
    f = weight_blocks(m.mat_f, spaces, spaces, q2inv)
    for name, blocks, shift in (("E", e, q2), ("F", f, q2inv)):
        if blocks is None:
            continue
        powers = dict(blocks)  # gen^k on each M_lambda, with no rows once the orbit passes a missing weight
        for k in range(1, p):
            powers = {lam: linalg.mat_mul(blocks[shift ** k * lam], x) if x else x for lam, x in powers.items()}
        if not all(map(linalg.is_zero_mat, powers.values())):
            violations.append(f"{name}^p != 0")
    violations += [text for blocks, text in ((e, "KEK^-1 != q^2 E"), (f, "KFK^-1 != q^-2 F")) if blocks is None]
    if e is not None and f is not None:
        for lam, idx in spaces.items():  # a b on M_lambda, where b maps it to M_mu
            ab = lambda a, b, mu: (linalg.mat_mul(a[mu], b[lam]) if mu in spaces
                                   else linalg.zeros(field, len(idx), len(idx)))
            comm = linalg.mat_sub(ab(e, f, lam * q2inv), ab(f, e, lam * q2))
            want = linalg.mat_scale((lam - lam.inv()) / (q - q.inv()), linalg.identity(field, len(idx)))
            if not linalg.mat_eq(comm, want):
                violations.append("[E,F] != (K - K^-1)/(q - q^-1)")
                break
    return ModuleCheck(not violations, violations)


# -- weights of the irreducibles --------------------------------------------------


def irreducible_weights(p: int, a, s: int) -> list[CycNum]:
    a = _sign(a)
    field = CycField(2 * p)
    return [field.root_of_unity(s - 1 - 2 * n) * a for n in range(s)]


# -- constructors -----------------------------------------------------------------


def irreducible(p: int, a, s: int) -> QMod:
    """The irreducible of dimension s and highest weight (+-)q^(s-1)."""
    a = _sign(a)
    if not 1 <= s <= p:
        raise ValueError(f"irreducible needs 1 <= s <= p, got s={s}")
    field = CycField(2 * p)
    mat_e = linalg.zeros(field, s, s)
    mat_f = linalg.zeros(field, s, s)
    for n in range(s):
        if n >= 1:
            mat_e[n - 1][n] = qint(p, n) * qint(p, s - n) * a
        if n + 1 < s:
            mat_f[n + 1][n] = field.one
    return QMod(p, mat_e, mat_f, irreducible_weights(p, a, s),
                label=family_label("X", a, s), field=field)


def build_glued(p: int, a, s: int, rep) -> QMod:
    """The module with rep.d0 copies of the sign-a dimension-s irreducible
    on top and rep.d1 copies of the opposite irreducible in the socle; the
    F-gluing is weighted by rep.r and the E-gluing by rep.rbar."""
    a = _sign(a)
    if not 1 <= s <= p - 1:
        raise ValueError(f"glued modules need 1 <= s <= p-1, got s={s}")
    field = CycField(2 * p)
    m, n = rep.d0, rep.d1
    for mat in (rep.r, rep.rbar):
        if len(mat) != n or any(len(row) != m for row in mat):
            raise ValueError("malformed quiver representation: arrow matrices must be d1 x d0")
    t = p - s
    dim = m * s + n * t
    top = lambda j, nu: j * s + nu
    soc = lambda i, k: m * s + i * t + k
    mat_e = linalg.zeros(field, dim, dim)
    mat_f = linalg.zeros(field, dim, dim)
    weights: list[CycNum] = [field.zero] * dim
    wt_top = irreducible_weights(p, a, s)
    wt_soc = irreducible_weights(p, -a, t)
    for j in range(m):
        for nu in range(s):
            weights[top(j, nu)] = wt_top[nu]
            if nu >= 1:
                mat_e[top(j, nu - 1)][top(j, nu)] = qint(p, nu) * qint(p, s - nu) * a
            if nu + 1 < s:
                mat_f[top(j, nu + 1)][top(j, nu)] = field.one
        for i in range(n):
            if rep.rbar[i][j]:
                mat_e[soc(i, t - 1)][top(j, 0)] = rep.rbar[i][j]
            if rep.r[i][j]:
                mat_f[soc(i, 0)][top(j, s - 1)] = rep.r[i][j]
    for i in range(n):
        for k in range(t):
            weights[soc(i, k)] = wt_soc[k]
            if k >= 1:
                mat_e[soc(i, k - 1)][soc(i, k)] = -a * qint(p, k) * qint(p, t - k)
            if k + 1 < t:
                mat_f[soc(i, k + 1)][soc(i, k)] = field.one
    return QMod(p, mat_e, mat_f, weights, field=field)


def build_w2(p: int, a, s: int) -> QMod:
    """Two copies on top, one in the socle: E glues the first top copy,
    F glues the second."""
    from .kronecker import QuiverRep

    a = _sign(a)
    field = CycField(2 * p)
    one, zero = field.one, field.zero
    m = build_glued(p, a, s, QuiverRep(2, 1, [[zero, one]], [[one, zero]], field))
    return m.relabel(family_label("W", a, s) + "(2)")


def build_m2(p: int, a, s: int) -> QMod:
    """One copy on top, two in the socle: E glues into the first socle
    copy, F into the second."""
    from .kronecker import QuiverRep

    a = _sign(a)
    field = CycField(2 * p)
    one, zero = field.one, field.zero
    m = build_glued(p, a, s, QuiverRep(1, 2, [[zero], [one]], [[one], [zero]], field))
    return m.relabel(family_label("M", a, s) + "(2)")


def build_o1(p: int, a, s: int, z: CP1) -> QMod:
    """The CP1 family with one top and one socle copy; z = 1:0 is the
    Verma module, z = 0:1 its contragredient."""
    from .kronecker import QuiverRep

    a = _sign(a)
    m = build_glued(p, a, s, QuiverRep(1, 1, [[z.z1]], [[z.z2]], z.z1.field))
    return m.relabel(family_label("O", a, s) + f"(1,{z!r})")


def build_p(p: int, a, s: int) -> QMod:
    """The projective cover of the sign-a dimension-s irreducible,
    dimension 2p, with the explicit basis {a_n, b_n, x_k, y_k}."""
    a = _sign(a)
    if not 1 <= s <= p - 1:
        raise ValueError(f"projective covers need 1 <= s <= p-1, got s={s}")
    field = CycField(2 * p)
    one = field.one
    t = p - s
    A = lambda n: n
    B = lambda n: s + n
    X = lambda k: 2 * s + k
    Y = lambda k: 2 * s + t + k
    dim = 2 * p
    mat_e = linalg.zeros(field, dim, dim)
    mat_f = linalg.zeros(field, dim, dim)
    weights: list[CycNum] = [field.zero] * dim
    wt_top = irreducible_weights(p, a, s)
    wt_soc = irreducible_weights(p, -a, t)
    for n in range(s):
        weights[A(n)] = wt_top[n]
        weights[B(n)] = wt_top[n]
        coef = qint(p, n) * qint(p, s - n) * a
        if n >= 1:
            mat_e[A(n - 1)][A(n)] = coef
            mat_e[B(n - 1)][B(n)] = coef
            mat_e[A(n - 1)][B(n)] = one
        if n + 1 < s:
            mat_f[A(n + 1)][A(n)] = one
            mat_f[B(n + 1)][B(n)] = one
    for k in range(t):
        weights[X(k)] = wt_soc[k]
        weights[Y(k)] = wt_soc[k]
        coef = -a * qint(p, k) * qint(p, t - k)
        if k >= 1:
            mat_e[X(k - 1)][X(k)] = coef
            mat_e[Y(k - 1)][Y(k)] = coef
        if k + 1 < t:
            mat_f[X(k + 1)][X(k)] = one
            mat_f[Y(k + 1)][Y(k)] = one
    mat_e[A(s - 1)][Y(0)] = one
    mat_e[X(t - 1)][B(0)] = one
    mat_f[A(0)][X(t - 1)] = one
    mat_f[Y(0)][B(s - 1)] = one
    return QMod(p, mat_e, mat_f, weights,
                label=family_label("P", a, s), field=field)


def direct_sum(*mods: QMod) -> QMod:
    if not mods:
        raise ValueError("direct sum of nothing")
    p, field = mods[0].p, mods[0].field
    for m in mods:
        if m.p != p or m.field is not field:
            raise ValueError("direct sum needs modules over the same algebra")
    dim = sum(m.dim for m in mods)
    mat_e = linalg.zeros(field, dim, dim)
    mat_f = linalg.zeros(field, dim, dim)
    weights = []
    off = 0
    for m in mods:
        for i in range(m.dim):
            for j in range(m.dim):
                mat_e[off + i][off + j] = m.mat_e[i][j]
                mat_f[off + i][off + j] = m.mat_f[i][j]
        weights.extend(m.weights)
        off += m.dim
    return QMod(p, mat_e, mat_f, weights, field=field)


def tensor(a: QMod, b: QMod) -> QMod:
    """Tensor product along the coproduct: E acts as 1 (x) E + E (x) K,
    F as K^-1 (x) F + F (x) 1, K as K (x) K."""
    if a.p != b.p:
        raise ValueError("tensor needs the same p")
    field = a.field
    ia, ib = linalg.identity(field, a.dim), linalg.identity(field, b.dim)
    ka = a.mat_k
    kb = b.mat_k
    ka_inv = linalg.zeros(field, a.dim, a.dim)
    for i, w in enumerate(a.weights):
        ka_inv[i][i] = w.inv()
    mat_e = linalg.mat_add(linalg.kron(ia, b.mat_e), linalg.kron(a.mat_e, kb))
    mat_f = linalg.mat_add(linalg.kron(ka_inv, b.mat_f), linalg.kron(a.mat_f, ib))
    weights = [wa * wb for wa in a.weights for wb in b.weights]
    return QMod(a.p, mat_e, mat_f, weights, field=field)


def dual(m: QMod) -> QMod:
    """Contragredient module: x acts on the dual basis through the
    antipode, (x f)(v) = f(S(x) v), so E and F act by the transposes of
    S(E) = -E K^-1 (the columns of E scaled by the inverse weights) and
    S(F) = -K F (the rows of F scaled by the weights)."""
    k_inv = [w.inv() for w in m.weights]
    se_t = [[-(x * w) if x else x for x in col] for col, w in zip(zip(*m.mat_e), k_inv)]
    sf_t = [[-(w * x) if x else x for x, w in zip(col, m.weights)] for col in zip(*m.mat_f)]
    return QMod(m.p, se_t, sf_t, k_inv, field=m.field)


def weight_character(m: QMod) -> dict[CycNum, int]:
    return {w: len(idx) for w, idx in weight_spaces(m.weights).items()}


def regular_module(p: int) -> QMod:
    """The left regular module on the PBW basis, conjugated into a
    K-eigenbasis by the discrete Fourier transform in the K-exponent."""
    alg = base_algebra(p)
    field = alg.field
    terms = list(alg.basis_terms())
    index = {t: i for i, t in enumerate(terms)}
    dim = len(terms)

    def left_mult(gen_term):
        mat = linalg.zeros(field, dim, dim)
        for t in terms:
            for u, c in alg.mul_terms(gen_term, t).items():
                mat[index[u]][index[t]] = c
        return mat

    mat_e = left_mult((1, 0, 0))
    mat_f = left_mult((0, 1, 0))
    # Fourier columns: v_(i,j,m) = sum_l q^(-m l) E^i F^j K^l,
    # eigenvectors of left multiplication by K with eigenvalue q^(2(i-j)+m).
    fw = linalg.zeros(field, dim, dim)
    bw = linalg.zeros(field, dim, dim)
    inv2p = field.from_fraction(Fraction(1, 2 * p))
    weights: list[CycNum] = [field.zero] * dim
    for (i, j, m), cidx in index.items():
        weights[cidx] = alg.qpow(2 * (i - j) + m)
        for l in range(2 * p):
            fw[index[(i, j, l)]][cidx] = alg.qpow(-m * l)
            bw[cidx][index[(i, j, l)]] = alg.qpow(m * l) * inv2p
    mat_e = linalg.mat_mul(bw, linalg.mat_mul(mat_e, fw))
    mat_f = linalg.mat_mul(bw, linalg.mat_mul(mat_f, fw))
    mat_k = linalg.mat_mul(bw, linalg.mat_mul(left_mult((0, 0, 1)), fw))
    for i in range(dim):
        for j in range(dim):
            expect = weights[i] if i == j else field.zero
            assert mat_k[i][j] == expect, "Fourier basis must diagonalize K"
    return QMod(p, mat_e, mat_f, weights, label="Reg", field=field)


def action_matrix(m: QMod, elem: AlgElem):
    """Action matrix of an algebra element (base algebra, K-Cartan)."""
    if elem.alg.kk != 1:
        raise ValueError("action of the extended algebra needs a chosen square root of K")
    if elem.alg.p != m.p:
        raise ValueError("element and module have different p")
    field = m.field
    e_p = [linalg.identity(field, m.dim)]
    f_p = [linalg.identity(field, m.dim)]
    for _ in range(m.p - 1):
        e_p.append(linalg.mat_mul(e_p[-1], m.mat_e))
        f_p.append(linalg.mat_mul(f_p[-1], m.mat_f))
    out = linalg.zeros(field, m.dim, m.dim)
    for (i, j, l), c in elem.terms.items():
        c = c if c.field is field else c.embed(field.order)
        mat = linalg.mat_mul(e_p[i], f_p[j])
        kdiag = [w ** l for w in m.weights]
        for r in range(m.dim):
            row = mat[r]
            for cidx in range(m.dim):
                x = row[cidx]
                if x:
                    out[r][cidx] = out[r][cidx] + c * x * kdiag[cidx]
    return out


# -- intertwiners and sub/quotient structure ------------------------------------


def intertwiner_basis(src: QMod, dst: QMod) -> list[list[list[CycNum]]]:
    """Canonical basis of Hom(src, dst): matrices Phi with
    Phi E = E Phi, Phi F = F Phi, Phi K = K Phi, solved exactly on
    K-weight-compatible positions."""
    if src.p != dst.p:
        raise ValueError("intertwiners need the same p")
    field = src.field
    pairs = [
        (r, c)
        for r in range(dst.dim)
        for c in range(src.dim)
        if dst.weights[r] == src.weights[c]
    ]
    unk = {rc: k for k, rc in enumerate(pairs)}

    def entries():  # ((equation, unknown), coefficient) of g_dst Phi - Phi g_src = 0
        for gname, g_dst, g_src in (("E", dst.mat_e, src.mat_e), ("F", dst.mat_f, src.mat_f)):
            for (k, c), col in unk.items():
                for r in range(dst.dim):
                    if g_dst[r][k]:
                        yield ((gname, r, c), col), g_dst[r][k]
            for (r, k), col in unk.items():
                for c in range(src.dim):
                    if g_src[k][c]:
                        yield ((gname, r, c), col), -g_src[k][c]

    out = []
    for v in linalg.sparse_nullspace(field, entries(), len(pairs)):
        phi = linalg.zeros(field, dst.dim, src.dim)
        for (r, c), col in unk.items():
            phi[r][c] = v[col]
        out.append(phi)
    return out


def weight_vectors(m: QMod, weight: CycNum) -> list[list[CycNum]]:
    """The basis vectors of m of the given K-weight: a basis of the weight
    space, since the basis of m is a K-eigenbasis."""
    return [_basis_vec(m.field, m.dim, i) for i, w in enumerate(m.weights) if w == weight]


def maps_from_generator(src: QMod, gen: int, dst: QMod, images) -> list[list[list[CycNum]]]:
    """For each image v, the map src -> dst sending the basis vector gen of
    src to v: every other basis vector of src is (a multiple of) an E/F word
    applied to gen, found along columns of E and F with a single nonzero
    entry, and is sent to that word applied to v.  The result intertwines
    exactly when v is killed by all that kills gen; within one Casimir block
    this holds for every v of the weight of gen when src is a projective
    cover or the Steinberg module and gen its top vector."""
    steps, reached = [], [gen]  # steps: (basis index, from index, generator, coefficient)
    for i in reached:
        for g in ("E", "F"):
            col = [(r, row[i]) for r, row in enumerate(src.mat(g)) if row[i]]
            if len(col) == 1 and col[0][0] not in reached:
                reached.append(col[0][0])
                steps.append((col[0][0], i, g, col[0][1].inv()))
    if len(reached) != src.dim:
        raise ValueError(f"basis vector {gen} does not generate the module along single-entry columns")
    out = []
    for v in images:
        cols = {gen: list(v)}
        for j, i, g, inv in steps:
            cols[j] = [x * inv if x else x for x in linalg.mat_vec(dst.mat(g), cols[i])]
        out.append([[cols[j][r] for j in range(src.dim)] for r in range(dst.dim)])
    return out


def submodule(m: QMod, columns: list[list[CycNum]]) -> tuple[QMod, list[list[CycNum]]]:
    """Restrict the action to the span of K-homogeneous columns; returns
    the submodule and the embedding matrix (dim x k).  One solve per weight
    mu expresses the images of the columns of weights q^-2 mu under E and
    q^2 mu under F in the columns of weight mu.  Raises ValueError when a
    column is not K-homogeneous, when E or F has an entry off its weight
    blocks, or when the columns do not span a submodule."""
    field, k = m.field, len(columns)
    if k == 0:
        return QMod(m.p, [], [], [], field=field), [[] for _ in range(m.dim)]
    emb = linalg.transpose(columns)
    weights = []
    for col in columns:
        wset = {m.weights[i] for i, x in enumerate(col) if x}
        if len(wset) != 1:
            raise ValueError("submodule basis vectors must be K-homogeneous")
        weights.append(wset.pop())
    q2, spaces, sub = q_of(m) ** 2, weight_spaces(m.weights), weight_spaces(weights)
    acts = [(shift, weight_blocks(mat, spaces, spaces, shift), linalg.zeros(field, k, k))
            for mat, shift in ((m.mat_e, q2), (m.mat_f, q2.inv()))]
    if any(blocks is None for _, blocks, _ in acts):
        raise ValueError("E or F has an entry off its weight blocks")
    part = lambda lam: [[emb[i][j] for j in sub.get(lam, [])] for i in spaces[lam]]
    for mu in spaces:
        srcs = [(out, blocks, mu / shift) for shift, blocks, out in acts if mu / shift in sub]
        images = [linalg.mat_mul(blocks[lam], part(lam)) for _, blocks, lam in srcs]
        sol = linalg.solve(part(mu), [sum(rows, []) for rows in zip(*images)]) if srcs else []
        if sol is None:
            raise ValueError("the given columns do not span a submodule")
        targets = [(out, j) for out, _, lam in srcs for j in sub[lam]]
        for i, row in zip(sub.get(mu, []), sol):
            for (out, j), x in zip(targets, row):
                out[i][j] = x
    return QMod(m.p, acts[0][2], acts[1][2], weights, field=field), emb


def _basis_vec(field, n, i):
    v = [field.zero] * n
    v[i] = field.one
    return v


def radical_columns(m: QMod) -> list[list[CycNum]]:
    """Basis of rad(m), the annihilator of the socle of the dual, as
    K-homogeneous columns: each socle vector of dual(m) lies on one weight,
    so elimination never mixes weights."""
    rows = socle_columns(dual(m))
    return linalg.nullspace(rows) if rows else linalg.identity(m.field, m.dim)


def socle_columns(m: QMod) -> list[list[CycNum]]:
    """Basis of the maximal semisimple submodule: the span of the images
    of all maps from irreducibles.  Hom(X^a_s, m) is the space of vectors v
    of weight a q^(s-1) with E v = 0 and F^s v = 0, the relations of the top
    vector of X^a_s, each sent through maps_from_generator."""
    spaces, rs, out = weight_spaces(m.weights), linalg.RowSpace(m.field, m.dim), []
    for a in (1, -1):
        for s in range(1, m.p + 1):
            x = irreducible(m.p, a, s)
            images = []
            for v in weight_vectors(m, x.weights[0]):
                w = v
                for _ in range(s):
                    w = linalg.mat_vec(m.mat_f, w)
                images.append(linalg.mat_vec(m.mat_e, v) + w)
            if images:
                rows = [list(row) for row in zip(*images) if any(row)]
                tops = graded_kernel(m.field, {x.weights[0]: rows}, spaces, m.dim)
                for phi in maps_from_generator(x, 0, m, tops):
                    out += [list(col) for col in zip(*phi) if rs.add(col)]
    return out


def radical_series(m: QMod) -> list[tuple[QMod, list]]:
    """m = N_0 > N_1 > ... > N_l = 0 with semisimple quotients; each
    entry is (N_k, embedding into m), starting at k = 1."""
    series, cur, cur_emb = [], m, linalg.identity(m.field, m.dim)
    while cur.dim:
        nxt, emb = submodule(cur, radical_columns(cur))
        if nxt.dim == cur.dim:
            raise ValueError("radical series does not terminate")
        cur, cur_emb = nxt, (linalg.mat_mul(cur_emb, emb) if nxt.dim else [])
        series.append((cur, cur_emb))
    return series


def semisimple_length_of(m: QMod) -> int:
    """Length of the radical series (the minimal semisimple filtration
    length for these algebras)."""
    return len(radical_series(m))


def casimir_nil(m: QMod, spaces, lam: CycNum, js) -> dict[int, list[list[CycNum]]]:
    """j -> (q - q^-1)^2 (C - beta_j) on M_lambda for the blocks j in js: as
    C = E F + (q^-1 K + q K^-1)/(q - q^-1)^2 and beta_j = (q^j + q^-j)/(q - q^-1)^2,
    it is (q - q^-1)^2 E F + q^-1 lambda + q lambda^-1 - q^j - q^-j; squared
    for 0 < j < p, where C - beta_j is nilpotent of order two on the block."""
    q = q_of(m)
    e = weight_blocks(m.mat_e, spaces, {mu: spaces[mu] for mu in [lam * q ** -2] if mu in spaces}, q * q)
    f = weight_blocks(m.mat_f, spaces, {lam: spaces[lam]}, q ** -2)
    if e is None or f is None:
        raise ValueError("E or F has an entry off its weight blocks")
    n, base = len(spaces[lam]), q.inv() * lam + q * lam.inv()
    ef = linalg.mat_mul(e[lam * q ** -2], f[lam]) if f[lam] else linalg.zeros(m.field, n, n)  # E F on M_lambda
    cas = linalg.mat_scale((q - q.inv()) ** 2, ef)
    out = {}
    for j in js:
        shift = base - q ** j - q ** -j
        nil = [[x + shift if r == c else x for c, x in enumerate(row)] for r, row in enumerate(cas)]
        out[j] = linalg.mat_mul(nil, nil) if 0 < j < m.p else nil
    return out


def casimir_blocks(m: QMod):
    """Yield (s, columns) for the Casimir blocks s = 0..p: a basis of the
    part of m where C - beta_s is nilpotent, from the kernels of casimir_nil
    on the weight spaces."""
    spaces = weight_spaces(m.weights)
    nils = {lam: casimir_nil(m, spaces, lam, range(m.p + 1)) for lam in spaces}
    for s in range(m.p + 1):
        yield s, graded_kernel(m.field, {lam: nils[lam][s] for lam in spaces}, spaces, m.dim)


def block_index(m: QMod) -> int:
    """The Casimir block s in 0..p the module lives in; raises when the
    module mixes blocks."""
    for s, cols in casimir_blocks(m):
        if len(cols) == m.dim:
            return s
    raise ValueError("module does not lie in a single Casimir block")


def coerce_field(m: QMod, order: int) -> QMod:
    """Base-change the module matrices into a larger cyclotomic field."""
    conv = lambda mat: [[x.embed(order) for x in row] for row in mat]
    weights = [w.embed(order) for w in m.weights]
    return QMod(m.p, conv(m.mat_e), conv(m.mat_f), weights, m.label,
                field=CycField(order))
