"""Categorical analysis of the finite-dimensional module category.

Nothing solves for the entries of an unknown map: every Hom is read off
the structure of the category.  hom_space takes P1 -> P0 -> a from the
minimal resolution of a; a map out of a sum of covers is fixed by the
images of their top vectors, so Hom(a, b), the maps P0 -> b that kill the
image of P1, is one small null space.  The socle, the radical series and
the semisimple length come from weight vectors: Hom(X^a_s, M) is the
space of vectors of weight a q^(s-1) killed by E and F^s, and the radical
is the annihilator of the socle of the dual.

The decomposition algorithm follows the structure of the category and
solves for no intertwiner: split into Casimir blocks; inside a block the
projectives and the Steinberg module are cyclic on their top vector, so
their Hom spaces into the block are weight spaces, and all projective
summands come at once, with the annihilator of the projective part of
the dual as complement; the semisimple-length-two remainder splits by
the sign of its top and goes through the Kronecker-quiver functor, read
off highest-weight vectors, where the pencil canonical form names every
summand.  Each step keeps explicit bases, so the final report carries an
exact isomorphism certificate from the direct sum of the rebuilt canonical
modules onto the input.

Minimal projective resolutions are built by iterating projective
covers, which solve for no intertwiner either: the cover of a simple is
cyclic on its top vector, so its maps into a module are the top-weight
vectors of its Casimir block, and those outside F M + E^s M generate a
minimal cover.  Each syzygy is covered inside the term that holds it, as
null vectors at each weight, so the cover map is the next boundary; each
boundary block is row-reduced once, for the next syzygy and for the rank
that the exactness check reuses.  Since covers are minimal, Hom(-, simple)
kills all differentials and Ext dimensions are the multiplicities in the
terms; Yoneda products lift cocycles through the resolutions as chain
maps, solved degree by degree over those same top-vector maps.  A map out
of a sum of covers is fixed by the images of their top vectors, so each
lift is solved at those columns alone and then checked on the whole term.

Every step works one weight space at a time.  A module's own grading (its
weight spaces, q and the weight blocks of E and F) is what the QMod stores,
and every map of a decomposition, a resolution, an extension class or a
chain lift is a ModMap, its weight blocks, composed, added and compared
block by block.  Every step keeps each vector in the coordinates of one
weight space and moves it through the weight blocks of E and F; a map out
of a sum of covers is assembled from the images of their basis vectors,
and a certificate from the blocks of its summands, side by side at each
weight.  A dense matrix is built only when a dense view is read
(augmentation, boundaries, cocycle, certificate, the surjection of
projective_cover) and for the one result of find_isomorphism; no map is
sliced.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from functools import lru_cache, partial
from itertools import groupby

from . import linalg
from .cyclotomic import CycField, CycNum
from .kronecker import (ClassificationError, EigenvalueOutsideField, PencilBlock,
                        canonical_rep, classify, functor_G, glued_form)
from .qmodules import (CP1, ModMap, QMod, _sign, block_matrix, build_o1, build_p, casimir_blocks,
                       column_submodule, direct_sum, dual, family_label, irreducible, irreducible_weights,
                       maps_from_generator, radical_series, require_own_field, socle_columns, submodule,
                       weight_basis)
from .qmodules import semisimple_length_of as semisimple_length


# -- Hom spaces -------------------------------------------------------------------


@dataclass
class HomBasis:
    source: QMod
    target: QMod
    maps: list

    @property
    def dim(self) -> int:
        return len(self.maps)


def hom_space(a: QMod, b: QMod) -> HomBasis:
    """Exact basis of Hom(a, b), from P1 -> P0 -> a in the resolution of a: the
    maps sum_j c_j psi_j, over the _term_homs basis of Hom(P0, b), that kill d1
    of the top vectors of P1, each composed with a weight-wise section s of
    d0 (psi kills ker d0); in the canonical basis of their span (linalg.span_basis)
    on the weight-compatible entries, row by row."""
    if a.p != b.p:
        raise ValueError("Hom needs modules with the same p")
    for m in (a, b):
        require_own_field(m, "hom_space")
    res = minimal_resolution(a, 1)
    d0, d1 = res.maps
    p0 = d0.src
    blank, psis, at = [[b.field.zero] * len(b.spaces.get(w, ())) for w in p0.weights], [], 0
    for cover, top, cands in _term_homs(res.content[0], b):  # at: where the summand starts in P0
        psis += [ModMap.from_images(p0, b, blank[:at] + cols + blank[at + cover.dim:])
                 for cols in maps_from_generator(cover, top, b, cands)]
        at += cover.dim
    tops, at = [], 0  # the image under d1 of each summand's top vector of P1, at its weight
    for (sign, s), mult in res.content[1]:
        cover, top = _cover_of_simple(a.p, sign, s)
        lam = cover.weights[top]
        tops += [(lam, [row[d1.src.spaces[lam].index(k)] for row in d1.blocks[lam]])
                 for k in range(at + top, at + mult * cover.dim, cover.dim)]
        at += mult * cover.dim
    killed = linalg.transpose([[x for lam, v in tops for x in linalg.mat_vec(psi.blocks[lam], v)] for psi in psis])
    kernel = linalg.nullspace(killed) if killed else linalg.identity(b.field, len(psis))
    section = ModMap(a, p0, {lam: linalg.solve(d0.blocks[lam], linalg.identity(a.field, len(idx)))
                             for lam, idx in a.spaces.items()})
    pairs = [(r, c) for r in range(b.dim) for c in range(a.dim) if b.weights[r] == a.weights[c]]
    flats = [[phi[r][c] for r, c in pairs] for phi in ((psi @ section).dense() for psi in psis)]
    maps = [linalg.zeros(b.field, b.dim, a.dim) for _ in kernel]
    for phi, v in zip(maps, linalg.span_basis(linalg.mat_mul(kernel, flats))):
        for (r, c), x in zip(pairs, v):
            phi[r][c] = x
    return HomBasis(a, b, maps)


def find_isomorphism(a: QMod, b: QMod):
    """An invertible intertwiner a -> b, or None when a and b are not
    isomorphic.  Decisive by Krull-Schmidt: both modules are decomposed,
    they are isomorphic exactly when their indecomposable summands agree
    with multiplicities, and the map is then cert_b cert_a^-1, taken
    block by block at each weight.  Raises
    EigenvalueOutsideField, instead of guessing, when ``decompose`` meets
    a pencil eigenvalue outside the field of the modules."""
    if a.p != b.p:
        raise ValueError("isomorphisms need the same p")
    if a.dim != b.dim:
        return None
    if a.dim == 0:
        return []
    ra, rb = decompose(a), decompose(b)
    if ra.entries != rb.entries:
        return None
    blocks = {lam: linalg.mat_mul(rb.map.blocks[lam], linalg.inverse(blk)) for lam, blk in ra.map.blocks.items()}
    return block_matrix(a.field, blocks, b.spaces, a.spaces, b.dim, a.dim)


# -- blocks, socle, radical --------------------------------------------------------


@dataclass
class BlockPiece:
    s: int
    module: QMod
    embedding: ModMap  # piece -> m


def block_decompose(m: QMod) -> list[BlockPiece]:
    """Split into the generalized eigenspaces of the Casimir action; the
    piece at index s is the part where C - beta_s acts nilpotently."""
    pieces = [BlockPiece(s, *_span_submodule(m, span)) for s, span in casimir_blocks(m) if span]
    if sum(bp.module.dim for bp in pieces) != m.dim:
        raise ClassificationError("Casimir blocks do not exhaust the module")
    return pieces


def _span_submodule(m: QMod, span) -> tuple[QMod, ModMap]:
    """The submodule of m that the null vectors span[lam] span at each weight
    lam, in the coordinates of M_lam, with its embedding; its basis comes in
    the order of linalg.nullspace on all of m, by the index in m of the last
    nonzero entry of each vector."""
    last = lambda lv: m.spaces[lv[0]][max(i for i, x in enumerate(lv[1]) if x)]
    return submodule(m, sorted(((lam, v) for lam, vecs in span.items() for v in vecs), key=last))


def socle(m: QMod) -> tuple[QMod, list]:
    """The maximal semisimple submodule with its embedding."""
    return column_submodule(m, socle_columns(m))


# -- labels for the classification --------------------------------------------------


@dataclass(frozen=True)
class IndecLabel:
    family: str  # X, W, M, O, P
    a: int  # +1 / -1
    s: int
    n: int | None = None
    z: CP1 | None = None

    def __str__(self):
        base = family_label(self.family, self.a, self.s)
        if self.family in ("W", "M"):
            return f"{base}({self.n})"
        if self.family == "O":
            return f"{base}({self.n},{self.z!r})"
        return base

    def sort_key(self):
        fam = {"X": 0, "W": 1, "M": 2, "O": 3, "P": 4}[self.family]
        zk = repr(self.z.sort_key()) if self.z else ""
        return (fam, -self.a, self.s, self.n or 0, zk)

    def dim(self, p: int) -> int:
        if self.family == "X":
            return self.s
        if self.family == "P":
            return 2 * p
        if self.family == "W":
            return self.n * self.s + (self.n - 1) * (p - self.s)
        if self.family == "M":
            return (self.n - 1) * self.s + self.n * (p - self.s)
        return self.n * p  # O

    def rebuild(self, p: int) -> QMod:
        field = CycField(2 * p)
        if self.family == "X":
            return irreducible(p, self.a, self.s)
        if self.family == "P":
            return build_p(p, self.a, self.s)
        if self.family == "W":
            rep = canonical_rep(field, "preprojective", self.n - 1)
        elif self.family == "M":
            rep = canonical_rep(field, "preinjective", self.n - 1)
        else:
            rep = canonical_rep(field, "regular", self.n, self.z)
        return functor_G(rep, p, self.a, self.s).relabel(str(self))

    def to_json(self) -> dict:
        out = {"label": family_label(self.family, self.a, self.s)}
        if self.family in ("W", "M", "O"):
            out["n"] = self.n
        if self.family == "O":
            out["z"] = self.z.to_json()
        return out


def _label_from_pencil(blk: PencilBlock, sign: int, s_top: int, p: int) -> IndecLabel:
    if blk.kind == "preprojective":
        if blk.n == 0:
            return IndecLabel("X", sign, s_top)
        return IndecLabel("W", sign, s_top, blk.n + 1)
    if blk.kind == "preinjective":
        if blk.n == 0:
            return IndecLabel("X", -sign, p - s_top)
        return IndecLabel("M", sign, s_top, blk.n + 1)
    return IndecLabel("O", sign, s_top, blk.n, blk.z)


# -- full decomposition ---------------------------------------------------------------


@dataclass
class DecompReport:
    """The summands of module, with the isomorphism map from the direct sum of
    the rebuilt entries, in order, onto module; certificate is its dense
    matrix, a read-only view derived on each read."""
    module: QMod
    entries: list[tuple[IndecLabel, int]]
    map: ModMap

    certificate = property(lambda self: self.map.dense())

    def multiset(self) -> dict[str, int]:
        return {str(lbl): mult for lbl, mult in self.entries}

    def to_json(self, with_certificate: bool = False) -> dict:
        entries = []
        for lbl, mult in self.entries:
            d = lbl.to_json()
            d["mult"] = mult
            entries.append(d)
        out = {"p": self.module.p, "dim": self.module.dim, "entries": entries}
        if with_certificate:
            out["certificate"] = [[x.to_json() for x in row] for row in self.certificate]
        return out


def decompose(m: QMod) -> DecompReport:
    """Decompose into the classified indecomposables, with an exact
    isomorphism certificate from the direct sum of canonical rebuilds."""
    from .qmodules import verify_module

    require_own_field(m, "decompose")
    chk = verify_module(m)
    if not chk.ok:
        raise ValueError(f"not a module: {chk.violations}")
    pieces: list[tuple[IndecLabel, ModMap]] = []  # (label, embedding of the rebuilt label into m)
    for blockpiece in block_decompose(m):
        pieces.extend(_decompose_block(blockpiece))
    pieces.sort(key=lambda lf: lf[0].sort_key())
    entries: list[tuple[IndecLabel, int]] = []
    for lbl, _ in pieces:
        if entries and entries[-1][0] == lbl:
            entries[-1] = (lbl, entries[-1][1] + 1)
        else:
            entries.append((lbl, 1))
    # at each weight, the summands' blocks side by side, as direct_sum lays out their bases
    blocks = {lam: [sum(rows, []) for rows in zip(*(f.blocks[lam] for _, f in pieces if lam in f.blocks))]
              for lam in m.spaces}
    return DecompReport(m, entries, _verify_certificate(m, entries, blocks))


def _verify_certificate(m: QMod, entries, blocks) -> ModMap:
    """The isomorphism from the rebuilt entries onto m with the weight blocks
    blocks (the m_lam x rebuilt_lam block at each weight lam), checked one
    weight space at a time: it keeps weight (K) by construction, its blocks
    are square of full rank (invertible), and it intertwines E and F block
    by block, on the weight blocks of E and F that each module keeps."""
    if m.dim == 0:
        if entries:
            raise ClassificationError("empty module with entries")
        return ModMap(QMod._from_blocks(m.p, m.field, [], {}, {}), m, {})
    rebuilt = direct_sum(*[lbl.rebuild(m.p) for lbl, mult in entries for _ in range(mult)])
    theirs = rebuilt.spaces
    if rebuilt.dim != m.dim or set(theirs) != set(blocks):
        raise ClassificationError("certificate has wrong dimensions")
    if any(len(blk) != len(theirs[lam]) or any(len(row) != len(blk) for row in blk) or linalg.rank(blk) != len(blk)
           for lam, blk in blocks.items()):
        raise ClassificationError("certificate is not invertible")
    for gen in ("E", "F"):
        lhs, rhs = m.blocks(gen), rebuilt.blocks(gen)
        for lam in theirs:
            if (mu := m.shift(lam, gen)) in theirs and not linalg.mat_eq(
                    linalg.mat_mul(lhs[lam], blocks[lam]), linalg.mat_mul(blocks[mu], rhs[lam])):
                raise ClassificationError(f"certificate does not intertwine {gen}")
    return ModMap(rebuilt, m, blocks)


def _decompose_block(bp: BlockPiece) -> list[tuple[IndecLabel, ModMap]]:
    """All summands of one Casimir block, each with the embedding of its
    rebuild into the module.  In a semisimple block every highest-weight
    vector spans a copy of the Steinberg module.  Otherwise the projective
    summands come at once: P = P^a_s is cyclic on its top vector b_0, so
    Hom(P, m) is the weight space of b_0, and v generates an embedded copy
    exactly when F E v, the image of the socle of P, is nonzero; generators
    with independent F E v embed the whole projective part.  A projective
    part of dual(m) picked the same way pairs perfectly with it, since the
    rest of m has no projective summand, so its annihilator is a complement,
    one null space per weight: each row of a map into dual(m) is a
    functional on one weight space of m."""
    m, p, emb = bp.module, bp.module.p, bp.embedding
    if bp.s in (0, p):
        a = 1 if bp.s == p else -1
        x, top = _cover_of_simple(p, a, p)
        homs = maps_from_generator(x, top, m, weight_basis(m, x.weights[top]))
        if len(homs) * p != m.dim:
            raise ClassificationError("semisimple block of unexpected size")
        return [(IndecLabel("X", a, p), emb @ ModMap.from_images(x, m, cols)) for cols in homs]
    out: list[tuple[IndecLabel, ModMap]] = []
    dual_rows: dict[int, list] = {}  # weight lam of m -> functionals on M_lam
    dm = dual(m)
    for a, s in ((1, bp.s), (-1, p - bp.s)):
        proj, top = _cover_of_simple(p, a, s)
        gens = _projective_generators(m, proj.weights[top])
        dual_gens = _projective_generators(dm, proj.weights[top])
        if len(gens) != len(dual_gens):
            raise ClassificationError("the module and its dual have different projective parts")
        out += [(IndecLabel("P", a, s), emb @ ModMap.from_images(proj, m, cols))
                for cols in maps_from_generator(proj, top, m, gens)]
        for cols in maps_from_generator(proj, top, dm, dual_gens):
            for w, row in zip(proj.weights, cols):  # dual(m) at weight w is M_(-w) with the dual basis
                dual_rows.setdefault(-w % (2 * p), []).append(row)
    rest = m
    if dual_rows:
        rest, rest_emb = _span_submodule(m, {lam: linalg.nullspace(dual_rows[lam]) if lam in dual_rows
                                             else weight_basis(m, lam) for lam in m.spaces})
        emb = emb @ rest_emb
    if rest.dim:
        out.extend(_decompose_length_two(rest, emb, bp.s))
    return out


def _projective_generators(m: QMod, top: int) -> list[list[CycNum]]:
    """Vectors of the weight space at the top weight of a projective cover,
    in its coordinates, whose F E v are independent: the generators of a
    maximal projective part of that type."""
    up = m.shift(top, "E")
    if top not in m.spaces or up not in m.spaces:
        return []
    e, f, socle = m.blocks("E")[top], m.blocks("F")[up], linalg.RowSpace(m.field, len(m.spaces[top]))
    return [v for v in weight_basis(m, top) if socle.add(linalg.mat_vec(f, linalg.mat_vec(e, v)))]


def _top_radical(m: QMod, a: int, s: int, span) -> linalg.RowSpace:
    """rad(N) at the top weight lambda = a q^(s-1) of X^a_s, in the Casimir block of
    X^a_s, for the submodule N of m that span(mu) spans at each weight mu, in the
    coordinates of each weight space (all of m for partial(weight_basis, m)):
    F N_(lambda q^2) + E^s N_(lambda q^(-2s)), where lambda q^(-2s) is the top weight
    of the opposite simple X^(-a)_(p-s), as vectors of M_lambda, reached through
    the weight blocks of E and F."""
    lam, e, f = irreducible_weights(m.p, a, s)[0], m.blocks("E"), m.blocks("F")
    radical = linalg.RowSpace(m.field, len(m.spaces.get(lam, ())))
    up, low = m.shift(lam, "E"), m.shift(lam, "F", s)
    for v in span(up):
        radical.add(linalg.mat_vec(f[up], v))
    for v in span(low):
        for k in range(s):  # empty once the orbit passes a missing weight
            v = linalg.mat_vec(e[m.shift(low, "E", k)], v) if v else v
        if v:
            radical.add(v)
    return radical


def _decompose_length_two(m: QMod, emb: ModMap, s_block: int) -> list[tuple[IndecLabel, ModMap]]:
    """Split the projective-free remainder into its +/- parts by the sign
    of the top, and classify each through the Kronecker functor.

    The sign-a part is generated by top-weight vectors of sign a that are
    independent modulo the radical (see _top_radical).  With no projective
    summands left it has semisimple length two, so it meets the socle in
    no sign-a vector and the two parts are complementary; its socle
    highest-weight vectors are all of rad(m) at the opposite top weight.
    Its quiver representation is read off the basis that F generates from
    these two sets of vectors."""
    p = m.p
    tops = {1: s_block, -1: p - s_block}
    lams = {sign: irreducible_weights(p, sign, s_top)[0] for sign, s_top in tops.items()}
    radicals = {sign: _top_radical(m, sign, s_top, partial(weight_basis, m)) for sign, s_top in tops.items()}
    socles = {sign: radicals[-sign].basis() for sign in tops}
    out = []
    dims = 0
    for sign, s_top in tops.items():
        v0 = [v for v in weight_basis(m, lams[sign]) if radicals[sign].add(v)]
        if v0:
            dims += len(v0) * s_top + len(socles[sign]) * (p - s_top)
            out.extend(_classify_part(m, emb, sign, s_top, v0, socles[sign]))
    if dims != m.dim:
        raise ClassificationError("plus/minus top split does not exhaust the remainder")
    return out


def _classify_part(m: QMod, emb: ModMap, sign: int, s_top: int, v0, v1) -> list[tuple[IndecLabel, ModMap]]:
    """The summands of the part of m that the top vectors v0 generate over
    the socle highest-weight vectors v1, with their embeddings through emb.
    Copy k of a quiver column c is sum_j c_j (copy k of j): at the weight of
    each top (socle) copy, a summand maps in by its block's columns u0 (u1)."""
    try:
        rep, ev = glued_form(m, sign, s_top, v0, v1)  # ev: G(F(part)) -> m
    except ValueError as err:
        raise ClassificationError(f"quiver functor: {err}") from err
    full, p = emb @ ev, m.p
    out = []
    for blk in classify(rep).blocks:
        lbl = _label_from_pencil(blk, sign, s_top, p)
        copies = [(irreducible_weights(p, sign, s_top), blk.u0), (irreducible_weights(p, -sign, p - s_top), blk.u1)]
        out.append((lbl, full @ ModMap(lbl.rebuild(p), ev.src, {lam: linalg.transpose(cols)
                                                                for lams, cols in copies if cols for lam in lams})))
    return out


# -- projective covers and minimal resolutions ------------------------------------------


@lru_cache(maxsize=40)  # as _resolution; a QMod is immutable, so callers share it
def _cover_of_simple(p: int, a: int, s: int) -> tuple[QMod, int]:
    """The projective cover of X^a_s with the index of its top vector: P^a_s
    with b_0, or the Steinberg module X^a_p with its highest-weight vector."""
    if s == p:
        return irreducible(p, a, p), 0
    return build_p(p, a, s), s


def _top_vectors(m: QMod, a: int, s: int, span) -> list[list[CycNum]]:
    """A basis of the images of the top vector under Hom(cover of X^a_s, N),
    for the submodule N of m that span spans (see _top_radical), in the
    coordinates of M_lambda: the vectors of N of weight lambda = a q^(s-1) in
    the Casimir block j of X^a_s, where N can meet other blocks too, as the
    null space of casimir_nil on them, applied to each through the weight
    blocks of E and F: (q - q^-1)^2 E F + q^(lambda-1) + q^(1-lambda) - q^j - q^-j,
    twice for 0 < j < p."""
    lam, j = irreducible_weights(m.p, a, s)[0], s if a > 0 else m.p - s
    cols = linalg.transpose(span(lam))  # n x k
    if not cols:
        return []
    n, f, q, zero = len(cols), m.blocks("F")[lam], m.qpow, m.field.zero
    e = m.blocks("E")[m.shift(lam, "F")] if f else [[]] * n
    c, shift = (q(1) - q(-1)) ** 2, q(lam - 1) + q(1 - lam) - q(j) - q(-j)
    op = [[c * x for x in row] + [shift if i == r else zero for i in range(n)] for r, row in enumerate(e)]
    nil = lambda vecs: linalg.mat_mul(op, linalg.mat_mul(f, vecs) + vecs)  # [c E | shift] on [F v; v]
    null = nil(nil(cols)) if 0 < j < m.p else nil(cols)
    return [linalg.mat_vec(cols, k) for k in linalg.nullspace(null)]


def _images(dst: QMod, gens) -> list[list[CycNum]]:
    """The images in dst of the basis of the direct sum of the covers in gens,
    in order, under the map that sends the top vector of each (cover, index of
    its top vector, v) to the vector v of dst: each a vector of the weight
    space of dst at its weight, in that space's coordinates."""
    return [col for (pmod, top), run in groupby(gens, key=lambda g: g[:2])
            for cols in maps_from_generator(pmod, top, dst, [v for _, _, v in run]) for col in cols]


def projective_cover(m: QMod) -> tuple[QMod, list, list[tuple[tuple[int, int], int]]]:
    """(P, surjection P -> m, content) where content lists the simple
    tops (a, s) of the cover with multiplicities.  The cover of X^a_s is
    cyclic on its top vector, so its maps into m are the _top_vectors of m,
    and those independent modulo the _top_radical generate the summands of
    the cover, one per copy of X^a_s in the top of m."""
    require_own_field(m, "projective_cover")
    f, content, _ = _graded_cover(m, partial(weight_basis, m), range(m.p + 1))
    return f.src, f.dense(), content


def _graded_cover(m: QMod, span, casimir):
    """The cover of the submodule of m that span spans (see _top_radical), from
    tops in the Casimir blocks casimir, as a ModMap into m, assembled from the
    images of the covers' basis in the weight spaces of m, with the null spaces
    of its blocks from one elimination each."""
    gens, content = [], []  # gens: (cover, index of its top vector, image of that vector)
    for a in (1, -1):
        for s in range(1, m.p + 1):
            if (s if a > 0 else m.p - s) not in casimir:
                continue
            tops = _top_vectors(m, a, s, span)
            if not tops:
                continue
            radical = _top_radical(m, a, s, span)
            new = [v for v in tops if radical.add(v)]
            if new:
                gens += [(*_cover_of_simple(m.p, a, s), v) for v in new]
                content.append(((a, s), len(new)))
    cover = direct_sum(*(g[0] for g in gens)) if gens else QMod._from_blocks(m.p, m.field, [], {}, {})
    f = ModMap.from_images(cover, m, _images(m, gens))
    kernel = {lam: linalg.nullspace(blk) if blk else weight_basis(cover, lam) for lam, blk in f.blocks.items()}
    if cover.dim - sum(map(len, kernel.values())) != sum(len(span(mu)) for mu in m.spaces):
        raise ClassificationError("cover map is not surjective")
    return f, content, kernel


@dataclass
class Resolution:
    """The maps of a minimal projective resolution of module, as ModMaps: the
    augmentation terms[0] -> module, then d_k: terms[k] -> terms[k-1].  terms,
    augmentation and boundaries are read-only views; the last two are dense,
    derived on each read."""
    module: QMod
    content: list[list[tuple[tuple[int, int], int]]] = dc_field(default_factory=list)
    maps: list[ModMap] = dc_field(default_factory=list)
    _kernel: dict = dc_field(default_factory=dict)  # weight -> the kernel of the newest map there, in its coordinates

    terms = property(lambda self: [f.src for f in self.maps])
    augmentation = property(lambda self: self.maps[0].dense() if self.maps else [])
    boundaries = property(lambda self: [f.dense() for f in self.maps[1:]])

    def length(self) -> int:
        return len(self.maps) - 1

    def extend_to(self, length: int) -> "Resolution":
        if length < 0:
            raise ValueError("length must be >= 0")
        while self.length() < length:  # cover the module, or the newest kernel inside its term
            if not self.maps:
                f, content, kernel = _graded_cover(
                    self.module, partial(weight_basis, self.module), range(self.module.p + 1))
            else:
                casimir = {s if a > 0 else self.module.p - s for (a, s), _ in self.content[-1]}
                f, content, kernel = _graded_cover(self.maps[-1].src, lambda mu: self._kernel.get(mu, []), casimir)
                self._verify_step(f, kernel)  # a step that fails leaves self as it was
            self.maps.append(f)
            self.content.append(content)
            self._kernel = kernel
        return self

    def _verify_step(self, d: ModMap, kernel: dict) -> None:
        """d_(k-1) d_k = 0 and exactness at the newest term, per weight: rank d_k is
        the nullity of d_(k-1), each read off the elimination of its block."""
        if not (self.maps[-1] @ d).is_zero():
            raise ClassificationError("boundary composition is nonzero")
        for lam in d.dst.spaces:
            if len(d.src.spaces.get(lam, ())) - len(kernel.get(lam, ())) != len(self._kernel[lam]):
                raise ClassificationError("resolution is not exact")


@lru_cache(maxsize=40)  # every irreducible at p = 2..6, the CLI's default bound on p
def _resolution(p: int, a: int, s: int) -> Resolution:
    return Resolution(irreducible(p, a, s))


def resolution_of_irreducible(p: int, a: int, s: int, length: int) -> Resolution:
    """The minimal resolution of X^a_s to at least the given length, kept
    in a bounded cache and extended in place.  Every caller gets the same
    Resolution object, so it is read-only to them: only extend_to may grow
    it."""
    return _resolution(p, a, s).extend_to(length)


def minimal_resolution(x: QMod, length: int) -> Resolution:
    """Iterated projective covers, with exactness verified exactly."""
    require_own_field(x, "minimal_resolution")
    return Resolution(x).extend_to(length)


def ext_dim(p: int, source: tuple[int, int], target: tuple[int, int], degree: int) -> int:
    """dim Ext^degree between irreducibles, as the multiplicity of the cover
    of target in the degree term of the resolution of source: Hom(cover of
    X^a_s, X^b_t) is one-dimensional when (a, s) = (b, t) and zero
    otherwise, and by minimality Hom(-, target) kills the differentials."""
    if degree < 0:
        raise ValueError("degree must be >= 0")
    for a, s in (source, target):
        if a not in (1, -1) or s not in range(1, p + 1):
            raise ValueError(f"irreducibles are (a, s) with a = 1 or -1 and 1 <= s <= {p}, "
                             f"got {(a, s)!r}")
    res = resolution_of_irreducible(p, *source, degree)
    return dict(res.content[degree]).get(tuple(target), 0)


# -- extension classes and the Yoneda product ----------------------------------------


@dataclass
class ExtClass:
    p: int
    degree: int
    source: tuple[int, int]
    target: tuple[int, int]
    map: ModMap  # term_degree of the source resolution -> X_target

    cocycle = property(lambda self: self.map.dense())  # dim(X_target) x dim(term_degree)

    def __add__(self, other: "ExtClass") -> "ExtClass":
        if (self.p, self.degree, self.source, self.target) != (other.p, other.degree, other.source, other.target):
            raise ValueError("extension classes live in different Ext spaces")
        return ExtClass(self.p, self.degree, self.source, self.target, self.map + other.map)

    def __sub__(self, other: "ExtClass") -> "ExtClass":
        return self + other.scale(-1)

    def scale(self, c) -> "ExtClass":
        field = CycField(2 * self.p)
        c = c if isinstance(c, CycNum) else field.from_fraction(c)
        return ExtClass(self.p, self.degree, self.source, self.target, self.map.scale(c))

    def is_zero(self) -> bool:
        return self.map.is_zero()


def extension_class_of_middle(p: int, a: int, s: int, middle: QMod) -> ExtClass:
    """Degree-one class of a short exact sequence X_(-a, p-s) >-> middle ->> X_(a, s),
    where the middle is given on the glued basis (top block then socle
    block, both in standard coordinates)."""
    res, one, zero = resolution_of_irreducible(p, a, s, 1), middle.field.one, middle.field.zero

    def onto(x, off):  # the projection of the middle onto the basis of x, its basis vectors off, off + 1, ...
        return ModMap.from_images(middle, x, [[one if off + j == i else zero for j in x.spaces.get(w, ())]
                                              for i, w in enumerate(middle.weights)])

    top, socle = onto(res.module, 0), onto(_resolution(p, -a, p - s).module, s)  # the cached irreducibles
    lift = _solve_in_hom(res, 0, top, res.maps[0], "projective term does not lift over the extension")
    raw = lift @ res.maps[1]  # the augmentation lifted through the projection onto the top, on the next term
    if not (top @ raw).is_zero():
        raise ClassificationError("cocycle does not land in the socle")
    return ExtClass(p, 1, (a, s), (-a, p - s), socle @ raw)


def ext_basis_x(p: int, a: int, s: int) -> dict[tuple[int, int], ExtClass]:
    """The four degree-one generators of the block containing X_(a,s):
    keys (sign, index) with index 1 the Verma gluing (z = 1:0) and
    index 2 the contragredient gluing (z = 0:1)."""
    a = _sign(a)
    if not 1 <= s <= p - 1:
        raise ValueError("Ext generators live in the non-semisimple blocks")
    out: dict[tuple[int, int], ExtClass] = {}
    for sign, s_top in ((a, s), (-a, p - s)):
        for index, z in ((1, CP1.of(p, 1, 0)), (2, CP1.of(p, 0, 1))):
            middle = build_o1(p, sign, s_top, z)
            out[(sign, index)] = extension_class_of_middle(p, sign, s_top, middle)
    return out


def yoneda(u: ExtClass, v: ExtClass) -> ExtClass:
    """Composition product u v in Ext: v's target must be u's source; the
    cocycle of v is lifted through the resolution of u's source as a chain
    map, then composed with u."""
    if u.p != v.p:
        raise ValueError("classes from different algebras")
    if v.target != u.source:
        raise ValueError(
            f"not composable: v ends at {v.target} but u starts at {u.source}"
        )
    p = u.p
    n, m_deg = v.degree, u.degree
    res_a = resolution_of_irreducible(p, *v.source, n + m_deg)
    res_b = resolution_of_irreducible(p, *u.source, m_deg)
    # Lambda_k: term_(n+k)(A) -> term_k(B) lifts Lambda_(k-1) d(A) through d(B);
    # at k = 0 it lifts v's cocycle through the augmentation of B
    lam = None
    for k in range(m_deg + 1):
        rhs = lam @ res_a.maps[n + k] if k else v.map
        lam = _solve_in_hom(res_a, n + k, res_b.maps[k], rhs, "chain lift does not exist")
    return ExtClass(p, n + m_deg, v.source, u.target, u.map @ lam)


def _solve_in_hom(res: Resolution, k: int, post: ModMap, rhs: ModMap, failure: str) -> ModMap:
    """The map L in Hom(res.terms[k], post.src) with post L = rhs; raises
    ClassificationError(failure) when there is none.  A map out of the term
    is fixed by the images of the top vectors of its summands (see
    _term_homs), so L is solved at those vectors only, one small system per
    summand, in the coordinates of the weight space of its top vector; that
    is the whole system when rhs is a module map, and the full check of
    post L = rhs, weight by weight, keeps L exact when it is not."""
    term, dst = res.maps[k].src, post.src
    tops, at = [], 0  # tops: where L sends each summand's top vector; at: where the summand starts in term
    for cover, top, cands in _term_homs(res.content[k], dst):
        lam = cover.weights[top]
        x = [dst.field.zero] * len(dst.spaces.get(lam, ()))
        if cands:
            col = term.spaces[lam].index(at + top)
            sent = linalg.transpose([linalg.mat_vec(post.blocks[lam], v) for v in cands])
            coeffs = linalg.solve(sent, [[row[col]] for row in rhs.blocks[lam]])
            if coeffs is None:
                raise ClassificationError(failure)
            for c, v in zip(coeffs, cands):
                if c[0]:
                    x = [y + c[0] * z for y, z in zip(x, v)]
        tops.append((cover, top, x))
        at += cover.dim
    lift = ModMap.from_images(term, dst, _images(dst, tops))
    if (post @ lift).blocks != rhs.blocks:
        raise ClassificationError(failure)
    return lift


def _term_homs(content, dst: QMod) -> list:
    """Hom(P, dst) for the direct sum P of the covers that content lists, per
    summand of P, in order: the cover, the index of its top vector, and the
    _top_vectors of dst, where maps out of that cover can send it.  Each cover
    is cyclic on its top vector, so any choice of images of these vectors is
    a map (see _images), and the maps that send one summand's top vector to
    one of its _top_vectors and kill the other summands are a basis."""
    summands = []
    for (a, s), mult in content:
        summands += [(*_cover_of_simple(dst.p, a, s), _top_vectors(dst, a, s, partial(weight_basis, dst)))] * mult
    return summands
