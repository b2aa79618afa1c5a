"""Finite-dimensional modules of the restricted quantum sl(2).

Every module lives on a basis in which K is diagonal (K is always
diagonalizable since K^2p = 1), and every K-eigenvalue is a 2p-th root of
unity q^k, with -1 = q^p.  A weight is therefore its exponent k in Z/2p:
E maps the weight space M_k to M_(k+2), F maps it to M_(k-2), the dual
negates weights, the tensor product adds them, and module maps preserve
them.  Only the boundary sees field elements: files keep cyclotomic
weights, converted on loading, and K, JSON and the action of algebra
elements take q^k from QMod.qpow.  A QMod stores E and F only as their
weight blocks, fixed at construction, and every check and solve on it
reads them; dense matrices are sliced once (module input) or derived on
demand (views).  A module map is kept the same way, as a ModMap of weight
blocks; weight_blocks slices a dense map, checking that no entry lies off
them, and block_matrix puts the blocks back.  The families constructed
here, each laid out as irreducible chains by one helper plus its gluing
entries: the 2p irreducibles, the explicit two-step gluings with two
modules on top / on the bottom, the projective covers, and the general
gluing of m top copies with n socle copies along a pair of coefficient
matrices, which realizes every indecomposable of semisimple length two.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from types import MappingProxyType

from . import linalg
from .algebra import AlgElem, base_algebra
from .cyclotomic import CycField, CycNum, InternalError, json_field, json_value, qint


# The largest p a module file may state: building the field Q(zeta_2p) alone
# takes about a second at p = 5000 (2-vCPU x86-64 VM, Python 3.11).
MAX_P = 1000
# The largest dimension a module file may state (Reg(6) has 432): a file is read
# into dense E and F, so loading and verifying dim 1000 (200 Steinberg modules at
# p = 5) takes 2.7 s and 50 MB on the same VM, and both grow as dim^2.
MAX_DIM = 1000
# How E and F move a weight exponent.
STEP = {"E": 2, "F": -2}


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
    """A module on a K-eigenbasis: p, the field, the weights and E and F as
    weight blocks (see blocks), the one stored form of the action.  The
    weights are exponents k in range(2p), K acting on the basis vector by
    q^k (see qpow).  All is fixed at construction, so a module is
    immutable: the weights are a tuple and the weight spaces a read-only
    mapping.  QMod(p, mat_e, mat_f, weights) takes integer exponents, as
    .weights returns them, and slices dense E and F once; a generator with
    an entry off its blocks is kept as such, for verify_module to report,
    and every other reader raises.  mat(gen) and mat_e, mat_f, mat_k are
    dense views, derived on each call."""

    def __init__(self, p, mat_e, mat_f, weights, label=None, field=None):
        self._grade(p, field or CycField(2 * p), weights, label)
        self._action = {gen: weight_blocks(mat, self._rows[gen], self.spaces)
                        for gen, mat in (("E", mat_e), ("F", mat_f))}

    @classmethod
    def _from_blocks(cls, p, field, weights, e, f, label=None) -> "QMod":
        """The module whose E and F have the weight blocks e and f, in the form
        blocks returns; nothing is checked or copied."""
        m = cls.__new__(cls)
        m._grade(p, field, weights, label)
        m._action = {"E": e, "F": f}
        return m

    def _grade(self, p, field, weights, label):
        self.p, self.field, self.label = p, field, label
        self.weights, self.dim = tuple(k % (2 * p) for k in weights), len(weights)
        self.spaces = MappingProxyType(weight_spaces(self.weights))  # each weight with the indices of its basis vectors
        self._rows = {gen: {k: self.spaces.get(self.shift(k, gen), []) for k in self.spaces}
                      for gen in STEP}  # the basis indices of the rows of each block

    def shift(self, k: int, gen: str, times: int = 1) -> int:
        """The weight to which E (gen "E") or F, applied times times, moves
        the weight k."""
        return (k + times * STEP[gen]) % (2 * self.p)

    def qpow(self, k: int) -> CycNum:
        """q^k = exp(i pi k/p) in the module's field."""
        return self.field.root_of_unity(k * (self.field.order // (2 * self.p)))

    def blocks(self, gen: str) -> dict:
        """k -> the block of E (gen "E") from M_k to M_(k+2), or of F to
        M_(k-2), with no rows when that weight is missing; raises ValueError
        when the generator has an entry off these blocks."""
        blocks = self._action[gen]
        if blocks is None:
            raise ValueError("E or F has an entry off its weight blocks")
        return blocks

    def apply(self, gen: str, v: list[CycNum]) -> list[CycNum]:
        """E or F applied to the vector v, one weight block at a time."""
        zero = self.field.zero
        out = [zero] * self.dim
        for lam, blk in self.blocks(gen).items():
            part = [v[c] for c in self.spaces[lam]]
            if blk and any(x is not zero for x in part):
                for r, x in zip(self._rows[gen][lam], linalg.mat_vec(blk, part)):
                    out[r] = x
        return out

    def mat(self, gen: str):
        """The dense matrix of E, F or K, derived from the blocks."""
        if gen == "K":
            return [[self.qpow(k) if i == j else self.field.zero for j in range(self.dim)]
                    for i, k in enumerate(self.weights)]
        if gen not in self._action:
            raise ValueError(f"unknown generator {gen!r}")
        return block_matrix(self.field, self.blocks(gen), self._rows[gen], self.spaces, self.dim, self.dim)

    mat_e = property(lambda self: self.mat("E"))
    mat_f = property(lambda self: self.mat("F"))
    mat_k = property(lambda self: self.mat("K"))

    def __repr__(self):
        tag = f" {self.label}" if self.label else ""
        return f"QMod(p={self.p}, dim={self.dim}{tag})"

    def relabel(self, label):
        return QMod._from_blocks(self.p, self.field, self.weights, *self._action.values(), label)

    # -- serialization -----------------------------------------------------

    def to_json(self) -> dict:
        sparse = lambda mat: [[i, j, x.to_json()] for i, row in enumerate(mat) for j, x in enumerate(row) if x]
        return {
            "p": self.p,
            "dim": self.dim,
            "label": self.label,
            "weights": [self.qpow(k).to_json() for k in self.weights],
            "E": sparse(self.mat_e),
            "F": sparse(self.mat_f),
            "K": [[i, i, self.qpow(k).to_json()] for i, k in enumerate(self.weights)],
        }

    @staticmethod
    def from_json(data: dict) -> "QMod":
        p = json_field(data, "p", int, 2, MAX_P + 1)
        dim = json_field(data, "dim", int, 0, MAX_DIM + 1)
        field = CycField(2 * p)

        def number(c, key):
            x = CycNum.from_json(c)
            if x.field is not field:
                raise ValueError(f"field {key!r} has an entry of order {x.order}, not {field.order}")
            return x

        roots = {vec: k for k, vec in enumerate(field.root_vecs())}  # q^k by its nonzero coefficients
        weights = [roots.get(tuple((i, c) for i, c in enumerate(x.num) if c)) if x.den == 1 else None
                   for x in (number(w, "weights") for w in json_field(data, "weights", list))]
        if len(weights) != dim:
            raise ValueError("field 'weights' does not match the stated dimension")
        if None in weights:
            raise ValueError("field 'weights' has an entry that is not a power of q")

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


def weight_spaces(weights) -> dict[int, tuple[int, ...]]:
    """Each weight with the indices of the basis vectors of that weight."""
    out: dict[int, list[int]] = {}
    for i, w in enumerate(weights):
        out.setdefault(w, []).append(i)
    return {w: tuple(idx) for w, idx in out.items()}


def weight_blocks(mat, rows, cols) -> dict | None:
    """k -> the block of mat from the basis vectors cols[k] of its source
    (its weight spaces) to the rows[k] of its target (no rows if none): the
    target's weight spaces for a module map, QMod._rows[gen] for E or F.
    None when mat has an entry off these blocks."""
    out = {}
    for lam, idx in cols.items():
        tgt = rows.get(lam, [])
        keep = set(tgt)
        if any(row[c] for r, row in enumerate(mat) if r not in keep for c in idx):
            return None
        out[lam] = [[mat[r][c] for c in idx] for r in tgt]
    return out


def block_matrix(field, blocks, rows, cols, nrows: int, ncols: int) -> list:
    """The nrows x ncols matrix with the weight blocks blocks, laid out as
    weight_blocks(mat, rows, cols) slices them, and zero elsewhere."""
    out = linalg.zeros(field, nrows, ncols)
    for lam, blk in blocks.items():
        for r, row in zip(rows.get(lam, ()), blk):
            for c, x in zip(cols[lam], row):
                out[r][c] = x
    return out


def weight_basis(m: QMod, mu: int) -> list[list[CycNum]]:
    """The unit vectors of the weight space of m at mu, in its coordinates."""
    return linalg.identity(m.field, len(m.spaces.get(mu, ())))


def lift(m: QMod, lam: int, vecs) -> list[list[CycNum]]:
    """The vectors of m with the coordinates vecs on its weight space at lam."""
    idx, out = m.spaces.get(lam, ()), []
    for v in vecs:
        out.append([m.field.zero] * m.dim)
        for i, x in zip(idx, v):
            out[-1][i] = x
    return out


@dataclass(frozen=True)
class ModMap:
    """A map src -> dst that keeps weight, as its weight blocks: blocks[lam] is
    the dst_lam x src_lam matrix, in the coordinates of the two weight spaces,
    for every weight lam of src (no rows where dst has none).  dense() derives
    the dst.dim x src.dim matrix on each call."""
    src: QMod
    dst: QMod
    blocks: dict

    @classmethod
    def from_images(cls, src: QMod, dst: QMod, cols) -> "ModMap":
        """The map sending basis vector j of src to cols[j], a vector of the
        weight space of dst at the weight of j, in that space's coordinates."""
        return cls(src, dst, {lam: linalg.transpose([cols[c] for c in idx]) for lam, idx in src.spaces.items()})

    def dense(self) -> list:
        return block_matrix(self.dst.field, self.blocks, self.dst.spaces, self.src.spaces, self.dst.dim, self.src.dim)

    def __matmul__(self, other: "ModMap") -> "ModMap":
        """self after other, block by block; a weight that self's source lacks
        gives a zero block."""
        out = {lam: linalg.mat_mul(self.blocks[lam], blk) if lam in self.blocks
               else linalg.zeros(self.dst.field, len(self.dst.spaces.get(lam, ())), len(other.src.spaces[lam]))
               for lam, blk in other.blocks.items()}
        return ModMap(other.src, self.dst, out)

    def __add__(self, other: "ModMap") -> "ModMap":
        return ModMap(self.src, self.dst, {lam: linalg.mat_add(blk, other.blocks[lam])
                                           for lam, blk in self.blocks.items()})

    def scale(self, c) -> "ModMap":
        return ModMap(self.src, self.dst, {lam: linalg.mat_scale(c, blk) for lam, blk in self.blocks.items()})

    def is_zero(self) -> bool:
        return all(map(linalg.is_zero_mat, self.blocks.values()))


def graded_kernel(src: QMod, blocks) -> list[list[CycNum]]:
    """The kernel of a map out of src from its blocks on the weight spaces
    of src: the null vectors of each block, lifted to vectors of src, in the
    order of linalg.nullspace on the whole map (by their last nonzero)."""
    out = []
    for lam, blk in blocks.items():
        out += lift(src, lam, linalg.nullspace(blk) if blk else weight_basis(src, lam))
    return sorted(out, key=lambda v: max(i for i, x in enumerate(v) if x))


@dataclass
class ModuleCheck:
    ok: bool
    violations: list[str]


def verify_module(m: QMod) -> ModuleCheck:
    """Exact check of all defining relations, one weight space at a time
    (the weights are powers of q by construction, and QMod.from_json
    rejects any other): E and F have no entry off their weight blocks
    M_k -> M_(k+-2); and, if so, E^p and F^p vanish on each M_k, as
    products of p blocks along its orbit k, k+-2, ... (which closes, as
    q^2p = 1), and [E, F] = (K - K^-1)/(q - q^-1) = [k] there."""
    field, p, spaces, violations = m.field, m.p, m.spaces, []
    e, f = m._action["E"], m._action["F"]  # None where m.blocks raises
    for name, blocks in (("E", e), ("F", f)):
        if blocks is None:
            continue
        powers = dict(blocks)  # gen^k on each M_lambda, with no rows once the orbit passes a missing weight
        for k in range(1, p):
            powers = {lam: linalg.mat_mul(blocks[m.shift(lam, name, k)], x) if x else x for lam, x in powers.items()}
        if not all(map(linalg.is_zero_mat, powers.values())):
            violations.append(f"{name}^p != 0")
    violations += [text for blocks, text in ((e, "KEK^-1 != q^2 E"), (f, "KFK^-1 != q^-2 F")) if blocks is None]
    if e is not None and f is not None:
        for lam, idx in spaces.items():  # a b on M_lambda, where b maps it to M_mu
            ab = lambda a, b, mu: (linalg.mat_mul(a[mu], b[lam]) if mu in spaces
                                   else linalg.zeros(field, len(idx), len(idx)))
            comm = linalg.mat_sub(ab(e, f, m.shift(lam, "F")), ab(f, e, m.shift(lam, "E")))
            want = linalg.mat_scale(qint(p, lam).embed(field.order), linalg.identity(field, len(idx)))
            if not linalg.mat_eq(comm, want):
                violations.append("[E,F] != (K - K^-1)/(q - q^-1)")
                break
    return ModuleCheck(not violations, violations)


# -- constructors -----------------------------------------------------------------


def irreducible_weights(p: int, a, s: int) -> list[int]:
    """The weights of X^a_s, top first: a q^(s-1-2n) for n = 0..s-1, as
    exponents (a = -1 adds p)."""
    top = s - 1 if _sign(a) > 0 else s - 1 + p
    return [(top - 2 * n) % (2 * p) for n in range(s)]


def _chains(p: int, chains) -> tuple[list, list, list[int]]:
    """Dense E and F and the weights of the direct sum of the irreducibles
    X^a_s for the (a, s) in chains, each on its standard basis v_0..v_(s-1)
    in order: E v_n = [n][s-n] a v_(n-1) and F v_n = v_(n+1)."""
    field = CycField(2 * p)
    dim = sum(s for _, s in chains)
    mat_e, mat_f, weights = linalg.zeros(field, dim, dim), linalg.zeros(field, dim, dim), []
    for a, s in chains:
        off = len(weights)
        weights += irreducible_weights(p, a, s)
        for n in range(1, s):
            mat_e[off + n - 1][off + n] = qint(p, n) * qint(p, s - n) * a
            mat_f[off + n][off + n - 1] = field.one
    return mat_e, mat_f, weights


def irreducible(p: int, a, s: int) -> QMod:
    """The irreducible of dimension s and highest weight (+-)q^(s-1)."""
    a = _sign(a)
    if not 1 <= s <= p:
        raise ValueError(f"irreducible needs 1 <= s <= p, got s={s}")
    return QMod(p, *_chains(p, [(a, s)]), label=family_label("X", a, s))


def build_glued(p: int, a, s: int, rep) -> QMod:
    """The module with rep.d0 copies of the sign-a dimension-s irreducible
    on top and rep.d1 copies of the opposite irreducible in the socle; the
    F-gluing is weighted by rep.r and the E-gluing by rep.rbar."""
    a = _sign(a)
    if not 1 <= s <= p - 1:
        raise ValueError(f"glued modules need 1 <= s <= p-1, got s={s}")
    m, n = rep.d0, rep.d1
    for mat in (rep.r, rep.rbar):
        if len(mat) != n or any(len(row) != m for row in mat):
            raise ValueError("malformed quiver representation: arrow matrices must be d1 x d0")
    t = p - s
    top, soc = (lambda j, nu: j * s + nu), (lambda i, k: m * s + i * t + k)
    mat_e, mat_f, weights = _chains(p, [(a, s)] * m + [(-a, t)] * n)
    for j in range(m):
        for i in range(n):
            if rep.rbar[i][j]:
                mat_e[soc(i, t - 1)][top(j, 0)] = rep.rbar[i][j]
            if rep.r[i][j]:
                mat_f[soc(i, 0)][top(j, s - 1)] = rep.r[i][j]
    return QMod(p, mat_e, mat_f, weights)


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
    one, t = CycField(2 * p).one, p - s
    A, B = (lambda n: n), (lambda n: s + n)
    X, Y = (lambda k: 2 * s + k), (lambda k: 2 * s + t + k)
    mat_e, mat_f, weights = _chains(p, [(a, s), (a, s), (-a, t), (-a, t)])
    for n in range(1, s):
        mat_e[A(n - 1)][B(n)] = one
    mat_e[A(s - 1)][Y(0)] = one
    mat_e[X(t - 1)][B(0)] = one
    mat_f[A(0)][X(t - 1)] = one
    mat_f[Y(0)][B(s - 1)] = one
    return QMod(p, mat_e, mat_f, weights, label=family_label("P", a, s))


def direct_sum(*mods: QMod) -> QMod:
    """The direct sum, its basis the summands' bases in order: each block of
    E and F is block-diagonal over the summands at that weight."""
    if not mods:
        raise ValueError("direct sum of nothing")
    p, field, zero = mods[0].p, mods[0].field, mods[0].field.zero
    if any(m.p != p or m.field is not field for m in mods):
        raise ValueError("direct sum needs modules over the same algebra")
    weights = [w for m in mods for w in m.weights]
    spaces = weight_spaces(weights)

    def blocks(gen):
        out = {}
        for lam, idx in spaces.items():
            rows, off = [], 0
            for m in mods:
                n = len(m.spaces.get(lam, ()))
                blk = m.blocks(gen)[lam] if n else [[]] * len(m.spaces.get(m.shift(lam, gen), ()))
                rows += [[zero] * off + row + [zero] * (len(idx) - off - n) for row in blk]
                off += n
            out[lam] = rows
        return out

    return QMod._from_blocks(p, field, weights, blocks("E"), blocks("F"))


def tensor(a: QMod, b: QMod) -> QMod:
    """Tensor product along the coproduct: E acts as 1 (x) E + E (x) K,
    F as K^-1 (x) F + F (x) 1, K as K (x) K."""
    field = a.field
    if a.p != b.p or b.field is not field:
        raise ValueError("tensor needs modules over the same algebra")
    ia, ib = linalg.identity(field, a.dim), linalg.identity(field, b.dim)
    ka_inv = linalg.zeros(field, a.dim, a.dim)
    for i, k in enumerate(a.weights):
        ka_inv[i][i] = a.qpow(-k)
    mat_e = linalg.mat_add(linalg.kron(ia, b.mat_e), linalg.kron(a.mat_e, b.mat_k))
    mat_f = linalg.mat_add(linalg.kron(ka_inv, b.mat_f), linalg.kron(a.mat_f, ib))
    weights = [ka + kb for ka in a.weights for kb in b.weights]
    return QMod(a.p, mat_e, mat_f, weights, field=field)


def dual(m: QMod) -> QMod:
    """Contragredient module: x acts on the dual basis through the
    antipode, (x f)(v) = f(S(x) v), so E and F act by the transposes of
    S(E) = -E K^-1 and S(F) = -K F.  Its weight -k has the basis of M_k,
    and its blocks there are -q^-j E_j^T for j = k - 2 and -q^k F_l^T for
    l = k + 2."""
    e, f, neg = m.blocks("E"), m.blocks("F"), {k: -k % (2 * m.p) for k in m.spaces}
    flip = lambda blk, c: [[-(x * c) if x else x for x in col] for col in zip(*blk)]
    de = {neg[k]: flip(e[j], m.qpow(-j)) if (j := m.shift(k, "F")) in e else [] for k in m.spaces}
    df = {neg[k]: flip(f[l], m.qpow(k)) if (l := m.shift(k, "E")) in f else [] for k in m.spaces}
    return QMod._from_blocks(m.p, m.field, [neg[k] for k in m.weights], de, df)


def weight_character(m: QMod) -> dict[int, int]:
    return {w: len(idx) for w, idx in m.spaces.items()}


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
            for u, c, k in alg.mul_phased(gen_term, t):
                mat[index[u]][index[t]] = alg.roots[k] if c is None else c.times_root(k)
        return mat

    mat_e = left_mult((1, 0, 0))
    mat_f = left_mult((0, 1, 0))
    # Fourier columns: v_(i,j,m) = sum_l q^(-m l) E^i F^j K^l,
    # eigenvectors of left multiplication by K with eigenvalue q^(2(i-j)+m).
    fw = linalg.zeros(field, dim, dim)
    bw = linalg.zeros(field, dim, dim)
    inv2p = field.from_fraction(Fraction(1, 2 * p))
    weights = [0] * dim
    for (i, j, m), cidx in index.items():
        weights[cidx] = 2 * (i - j) + m
        for l in range(2 * p):
            fw[index[(i, j, l)]][cidx] = alg.qpow(-m * l)
            bw[cidx][index[(i, j, l)]] = alg.qpow(m * l) * inv2p
    mat_e = linalg.mat_mul(bw, linalg.mat_mul(mat_e, fw))
    mat_f = linalg.mat_mul(bw, linalg.mat_mul(mat_f, fw))
    mat_k = linalg.mat_mul(bw, linalg.mat_mul(left_mult((0, 0, 1)), fw))
    for i in range(dim):
        for j in range(dim):
            expect = alg.qpow(weights[i]) if i == j else field.zero
            if mat_k[i][j] != expect:
                raise InternalError("the Fourier basis does not diagonalize K")
    return QMod(p, mat_e, mat_f, weights, label="Reg", field=field)


def monomial_action(m: QMod, kdiag):
    """The action on m of the PBW monomials E^i F^j k^l, for a Cartan generator
    k acting by the diagonal kdiag (the weights when k = K): a function of
    (i, j, l) that builds each power of E and F, and each E^i F^j, once."""
    mats = {"E": m.mat_e, "F": m.mat_f}

    @cache
    def power(gen, n):
        return linalg.mat_mul(power(gen, n - 1), mats[gen]) if n else linalg.identity(m.field, m.dim)

    @cache
    def ef(i, j):
        return linalg.mat_mul(power("E", i), power("F", j))

    def act(term):
        i, j, l = term
        kl = [k ** l for k in kdiag]
        return [[x * k if x else x for x, k in zip(row, kl)] for row in ef(i, j)]

    return act


def action_matrix(m: QMod, elem: AlgElem):
    """Action matrix of an algebra element (base algebra, K-Cartan)."""
    if elem.alg.kk != 1:
        raise ValueError("action of the extended algebra needs a chosen square root of K")
    if elem.alg.p != m.p:
        raise ValueError("element and module have different p")
    field, act = m.field, monomial_action(m, [m.qpow(k) for k in m.weights])
    return linalg.mat_comb(field, ((c if c.field is field else c.embed(field.order), act(term))
                                   for term, c in elem.terms.items()), m.dim, m.dim)


# -- maps out of a generator, sub/quotient structure ------------------------------


def maps_from_generator(src: QMod, gen: int, dst: QMod, images) -> list[list[list[CycNum]]]:
    """For each image v, a vector of the weight space of dst at the weight of
    the basis vector gen of src, in that space's coordinates, the map
    src -> dst sending gen to v, as the images of the basis vectors of src in
    order, each a vector of the weight space of dst at its weight (empty where
    dst has none): every other basis vector of src is (a multiple of) an E/F
    word applied to gen, found along columns of E and F with a single nonzero
    entry, and is sent to that word applied to v, one weight block of dst at a
    time.  The result intertwines exactly when v is killed by all that kills
    gen; within one Casimir block this holds for every v of the weight of gen
    when src is a projective cover or the Steinberg module and gen its top
    vector."""
    steps, reached = [], [gen]  # steps: (basis index, from index, generator, coefficient)
    for i in reached:
        lam = src.weights[i]
        k = src.spaces[lam].index(i)  # column k of each block at lambda is basis vector i
        for g in ("E", "F"):
            col = [(r, row[k]) for r, row in zip(src._rows[g][lam], src.blocks(g)[lam]) if row[k]]
            if len(col) == 1 and col[0][0] not in reached:
                reached.append(col[0][0])
                steps.append((col[0][0], i, g, col[0][1].inv()))
    if len(reached) != src.dim:
        raise ValueError(f"basis vector {gen} does not generate the module along single-entry columns")
    blocks, zero, out = {g: dst.blocks(g) for g in STEP}, dst.field.zero, []
    for v in images:
        cols = [None] * src.dim
        cols[gen] = list(v)
        for j, i, g, inv in steps:
            cols[j] = ([x * inv if x else x for x in linalg.mat_vec(blocks[g][src.weights[i]], cols[i])]
                       if cols[i] else [zero] * len(dst.spaces.get(src.weights[j], ())))
        out.append(cols)
    return out


def submodule(m: QMod, basis) -> tuple[QMod, ModMap]:
    """Restrict the action to the span of basis, a list of pairs (weight lam,
    vector of M_lam in its coordinates); returns the submodule, on that basis
    in order, and its embedding as a ModMap.  One solve per weight mu
    expresses the images of the vectors of weights mu - 2 under E and mu + 2
    under F in the vectors of weight mu: the submodule's blocks into mu.
    Raises ValueError when E or F has an entry off its weight blocks, or when
    the vectors do not span a submodule."""
    weights = [lam for lam, _ in basis]
    spaces, sub = m.spaces, weight_spaces(weights)
    emb = {lam: linalg.transpose([basis[j][1] for j in idx]) for lam, idx in sub.items()}
    # E, then F: the generator that moves a target weight back to its source, the blocks of m, those of the submodule
    acts = [(back, m.blocks(gen), dict.fromkeys(sub, [])) for gen, back in (("E", "F"), ("F", "E"))]
    part = lambda lam: emb[lam] if lam in emb else [[]] * len(spaces[lam])
    for mu in spaces:
        srcs = [(out, blocks, lam) for back, blocks, out in acts if (lam := m.shift(mu, back)) in sub]
        images = [linalg.mat_mul(blocks[lam], part(lam)) for _, blocks, lam in srcs]
        sol = linalg.solve(part(mu), [sum(rows, []) for rows in zip(*images)]) if srcs else []
        if sol is None:
            raise ValueError("the given columns do not span a submodule")
        cut = len(sub[srcs[0][2]]) if srcs else 0  # sol has the first source's columns, then the second's
        for i, (out, _, lam) in enumerate(srcs):
            out[lam] = [row[cut:] if i else row[:cut] for row in sol]
    sm = QMod._from_blocks(m.p, m.field, weights, acts[0][2], acts[1][2])
    return sm, ModMap(sm, m, emb)


def column_submodule(m: QMod, columns: list[list[CycNum]]) -> tuple[QMod, list[list[CycNum]]]:
    """submodule on K-homogeneous columns, vectors of m: returns the
    submodule and the embedding matrix (dim x k).  Raises ValueError when a
    column is not K-homogeneous, and as submodule does."""
    basis = []
    for col in columns:
        wset = {m.weights[i] for i, x in enumerate(col) if x}
        if len(wset) != 1:
            raise ValueError("submodule basis vectors must be K-homogeneous")
        lam = wset.pop()
        basis.append((lam, [col[i] for i in m.spaces[lam]]))
    return submodule(m, basis)[0], linalg.transpose(columns) or [[] for _ in range(m.dim)]


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
    vector of X^a_s, and the image of such a map is spanned by v, F v, ...,
    F^(s-1) v, the images of the basis of X^a_s."""
    rs, out, f = linalg.RowSpace(m.field, m.dim), [], m.blocks("F")
    for a in (1, -1):
        for s in range(1, m.p + 1):
            lam = irreducible_weights(m.p, a, s)[0]
            if lam in m.spaces:
                fs = f[lam]  # F^k on M_lambda, with no rows once the orbit passes a missing weight
                for k in range(1, s):
                    fs = linalg.mat_mul(f[m.shift(lam, "F", k)], fs) if fs else fs
                for v in graded_kernel(m, {lam: m.blocks("E")[lam] + fs}):
                    for _ in range(s):
                        if rs.add(v):
                            out.append(v)
                        v = m.apply("F", v)
    return out


def radical_series(m: QMod) -> list[tuple[QMod, list]]:
    """m = N_0 > N_1 > ... > N_l = 0 with semisimple quotients; each
    entry is (N_k, embedding into m), starting at k = 1."""
    series, cur, cur_emb = [], m, linalg.identity(m.field, m.dim)
    while cur.dim:
        nxt, emb = column_submodule(cur, radical_columns(cur))
        if nxt.dim == cur.dim:
            raise ValueError("radical series does not terminate")
        cur, cur_emb = nxt, (linalg.mat_mul(cur_emb, emb) if nxt.dim else [])
        series.append((cur, cur_emb))
    return series


def semisimple_length_of(m: QMod) -> int:
    """Length of the radical series (the minimal semisimple filtration
    length for these algebras)."""
    return len(radical_series(m))


def casimir_nil(m: QMod, lam: int, js) -> dict[int, list[list[CycNum]]]:
    """j -> (q - q^-1)^2 (C - beta_j) on the weight space M_lambda, of weight
    q^lambda, for the blocks j in js: as C = E F + (q^-1 K + q K^-1)/(q - q^-1)^2
    and beta_j = (q^j + q^-j)/(q - q^-1)^2, it is (q - q^-1)^2 E F + q^(lambda-1)
    + q^(1-lambda) - q^j - q^-j; squared for 0 < j < p, where C - beta_j is
    nilpotent of order two on the block."""
    qpow, e, f = m.qpow, m.blocks("E"), m.blocks("F")
    n, base = len(m.spaces[lam]), qpow(lam - 1) + qpow(1 - lam)
    ef = linalg.mat_mul(e[m.shift(lam, "F")], f[lam]) if f[lam] else linalg.zeros(m.field, n, n)  # E F on M_lambda
    cas = linalg.mat_scale((qpow(1) - qpow(-1)) ** 2, ef)
    out = {}
    for j in js:
        shift = base - qpow(j) - qpow(-j)
        nil = [[x + shift if r == c else x for c, x in enumerate(row)] for r, row in enumerate(cas)]
        out[j] = linalg.mat_mul(nil, nil) if 0 < j < m.p else nil
    return out


def casimir_blocks(m: QMod):
    """Yield (s, span) for the Casimir blocks s = 0..p: span maps each weight
    lam to a basis, in the coordinates of M_lam, of the part of M_lam where
    C - beta_s is nilpotent (the kernel of casimir_nil), wherever it is not
    zero.  Block s can meet M_k only where the weight q^k has
    (q^k)^p = (-1)^(s-1), that is k = s - 1 (mod 2), as for the weights of
    X+_s and X-_(p-s)."""
    nils = {k: casimir_nil(m, k, range(1 - k % 2, m.p + 1, 2)) for k in m.spaces}
    for s in range(m.p + 1):
        yield s, {lam: ker for lam, nil in nils.items() if s in nil and (ker := linalg.nullspace(nil[s]))}


def block_index(m: QMod) -> int:
    """The Casimir block s in 0..p the module lives in; raises when the
    module mixes blocks."""
    for s, span in casimir_blocks(m):
        if sum(map(len, span.values())) == m.dim:
            return s
    raise ValueError("module does not lie in a single Casimir block")


def require_own_field(m: QMod, what: str) -> None:
    """Refuse, in one line, a module that is not over Q(zeta_2p): the covers,
    gluings and rebuilt families that what compares it with are."""
    if m.field.order != 2 * m.p:
        raise ValueError(f"{what} needs a module over the field of order 2p = {2 * m.p}, not {m.field.order}")


def coerce_field(m: QMod, order: int) -> QMod:
    """Base-change the module matrices into a larger cyclotomic field."""
    conv = lambda mat: [[x.embed(order) for x in row] for row in mat]
    return QMod(m.p, conv(m.mat_e), conv(m.mat_f), m.weights, m.label, field=CycField(order))
