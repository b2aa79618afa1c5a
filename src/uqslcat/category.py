"""Categorical analysis of the finite-dimensional module category.

hom_space is the one general Hom solve: a single null space over the
weight-compatible entries of the map.  Nothing else solves for an
intertwiner.  The socle, the radical series and the semisimple length
come from weight vectors: Hom(X^a_s, M) is the space of vectors of weight
a q^(s-1) killed by E and F^s, and the radical is the annihilator of the
socle of the dual.

The decomposition algorithm follows the structure of the category and
solves for no intertwiner: split into Casimir blocks; inside a block the
projectives and the Steinberg module are cyclic on their top vector, so
their Hom spaces into the block are weight spaces, and all projective
summands come at once, with the annihilator of the projective part of
the dual as complement; the semisimple-length-two remainder splits by
the sign of its top and goes through the Kronecker-quiver functor, read
off highest-weight vectors, where the pencil canonical form names every
summand.  Each step keeps explicit bases, so the final report carries an
exact isomorphism certificate from the direct sum of freshly rebuilt
canonical modules onto the input.

Minimal projective resolutions are built by iterating projective
covers, which solve for no intertwiner either: the cover of a simple is
cyclic on its top vector, so its maps into a module are the top-weight
vectors of its Casimir block, and those outside F M + E^s M generate a
minimal cover.  Since covers are minimal, Hom(-, simple) kills all
differentials and Ext dimensions are the multiplicities in the terms;
Yoneda products lift cocycles through the resolutions as chain maps,
solved degree by degree over those same top-vector maps.

Every step works one weight space at a time.  A module's own grading (its
weight spaces, q and the weight blocks of E and F) is read from the QMod,
which builds it once; only module maps (certificates, cover maps,
boundaries) are sliced here, by weight_blocks.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from functools import lru_cache

from . import linalg
from .cyclotomic import CycField, CycNum, dot
from .kronecker import (ClassificationError, EigenvalueOutsideField, PencilBlock,
                        canonical_rep, classify, functor_G, glued_form)
from .qmodules import (CP1, QMod, build_o1, build_p, casimir_blocks, casimir_nil, direct_sum, dual,
                       family_label, graded_kernel, intertwiner_basis, irreducible, irreducible_weights,
                       maps_from_generator, radical_series, socle_columns, submodule, weight_blocks,
                       weight_vectors)
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
    """Exact basis of the intertwiner space Hom(a, b)."""
    return HomBasis(a, b, intertwiner_basis(a, b))


def find_isomorphism(a: QMod, b: QMod):
    """An invertible intertwiner a -> b, or None when a and b are not
    isomorphic.  Decisive by Krull-Schmidt: both modules are decomposed,
    they are isomorphic exactly when their indecomposable summands agree
    with multiplicities, and the map is then cert_b cert_a^-1.  Raises
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
    return linalg.mat_mul(rb.certificate, linalg.inverse(ra.certificate))


# -- blocks, socle, radical --------------------------------------------------------


@dataclass
class BlockPiece:
    s: int
    module: QMod
    embedding: list  # dim(m) x dim(piece)


def block_decompose(m: QMod) -> list[BlockPiece]:
    """Split into the generalized eigenspaces of the Casimir action; the
    piece at index s is the part where C - beta_s acts nilpotently."""
    pieces = [BlockPiece(s, *submodule(m, cols)) for s, cols in casimir_blocks(m) if cols]
    if sum(bp.module.dim for bp in pieces) != m.dim:
        raise ClassificationError("Casimir blocks do not exhaust the module")
    return pieces


def socle(m: QMod) -> tuple[QMod, list]:
    """The maximal semisimple submodule with its embedding."""
    cols = socle_columns(m)
    return submodule(m, cols)


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
    module: QMod
    entries: list[tuple[IndecLabel, int]]
    certificate: list  # dim x dim isomorphism from the rebuilt direct sum

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

    chk = verify_module(m)
    if not chk.ok:
        raise ValueError(f"not a module: {chk.violations}")
    pieces: list[tuple[IndecLabel, list]] = []  # (label, columns dim(m) x dim(label))
    for blockpiece in block_decompose(m):
        pieces.extend(_decompose_block(blockpiece))
    pieces.sort(key=lambda lc: lc[0].sort_key())
    entries: list[tuple[IndecLabel, int]] = []
    for lbl, _ in pieces:
        if entries and entries[-1][0] == lbl:
            entries[-1] = (lbl, entries[-1][1] + 1)
        else:
            entries.append((lbl, 1))
    cols: list[list[CycNum]] = []
    for _, piece_cols in pieces:
        for j in range(len(piece_cols[0]) if piece_cols else 0):
            cols.append([piece_cols[i][j] for i in range(m.dim)])
    cert = [[cols[j][i] for j in range(len(cols))] for i in range(m.dim)]
    _verify_certificate(m, entries, cert)
    return DecompReport(m, entries, cert)


def _verify_certificate(m: QMod, entries, cert) -> None:
    """Check that cert is an isomorphism from the rebuilt entries onto m, one
    weight space at a time: no entry off its weight blocks (K), square blocks
    of full rank (invertible), and E and F intertwined block by block, on
    the weight blocks of E and F that each module keeps."""
    if m.dim == 0:
        if entries:
            raise ClassificationError("empty module with entries")
        return
    rebuilt = direct_sum(*[lbl.rebuild(m.p) for lbl, mult in entries for _ in range(mult)])
    if rebuilt.dim != m.dim or len(cert[0]) != m.dim:
        raise ClassificationError("certificate has wrong dimensions")
    theirs = rebuilt.spaces
    blocks = _graded(cert, m.spaces, theirs, "certificate does not intertwine K")
    if any(len(blk) != len(theirs[lam]) or linalg.rank(blk) != len(blk) for lam, blk in blocks.items()):
        raise ClassificationError("certificate is not invertible")
    q2 = m.q ** 2
    for gen, shift in (("E", q2), ("F", q2.inv())):
        lhs, rhs = m.blocks(gen), rebuilt.blocks(gen)
        for lam in theirs:
            if shift * lam in theirs and not linalg.mat_eq(
                    linalg.mat_mul(lhs[lam], blocks[lam]), linalg.mat_mul(blocks[shift * lam], rhs[lam])):
                raise ClassificationError(f"certificate does not intertwine {gen}")


def _graded(mat, rows, cols, failure: str) -> dict:
    """weight_blocks of a module map, raising ClassificationError(failure)
    instead of None."""
    blocks = weight_blocks(mat, rows, cols)
    if blocks is None:
        raise ClassificationError(failure)
    return blocks


def _decompose_block(bp: BlockPiece) -> list[tuple[IndecLabel, list]]:
    """All summands of one Casimir block.  In a semisimple block every
    highest-weight vector spans a copy of the Steinberg module.  Otherwise
    the projective summands come at once: P = P^a_s is cyclic on its top
    vector b_0, so Hom(P, m) is the weight space of b_0, and v generates an
    embedded copy exactly when F E v, the image of the socle of P, is
    nonzero; generators with independent F E v embed the whole projective
    part.  A projective part of dual(m) picked the same way pairs perfectly
    with it, since the rest of m has no projective summand, so its
    annihilator is a complement."""
    m, p = bp.module, bp.module.p
    if bp.s in (0, p):
        a = 1 if bp.s == p else -1
        x = irreducible(p, a, p)
        homs = maps_from_generator(x, 0, m, weight_vectors(m, x.weights[0]))
        if len(homs) * p != m.dim:
            raise ClassificationError("semisimple block of unexpected size")
        return [(IndecLabel("X", a, p), linalg.mat_mul(bp.embedding, phi)) for phi in homs]
    out: list[tuple[IndecLabel, list]] = []
    dual_rows: list[list[CycNum]] = []
    dm = dual(m)
    for a, s in ((1, bp.s), (-1, p - bp.s)):
        proj = build_p(p, a, s)  # generated by its top vector b_0, the basis vector s
        gens = _projective_generators(m, proj.weights[s])
        dual_gens = _projective_generators(dm, proj.weights[s])
        if len(gens) != len(dual_gens):
            raise ClassificationError("the module and its dual have different projective parts")
        for phi in maps_from_generator(proj, s, m, gens):
            out.append((IndecLabel("P", a, s), linalg.mat_mul(bp.embedding, phi)))
        for psi in maps_from_generator(proj, s, dm, dual_gens):
            dual_rows.extend(linalg.transpose(psi))
    rest, emb = m, bp.embedding
    if dual_rows:
        rest, rest_emb = submodule(m, linalg.nullspace(dual_rows))
        emb = linalg.mat_mul(emb, rest_emb)
    if rest.dim:
        out.extend(_decompose_length_two(rest, emb, bp.s))
    return out


def _projective_generators(m: QMod, top: CycNum) -> list[list[CycNum]]:
    """Vectors of the top weight of a projective cover whose F E v are
    independent: the generators of a maximal projective part of that type."""
    socle = linalg.RowSpace(m.field, m.dim)
    return [v for v in weight_vectors(m, top)
            if socle.add(linalg.mat_vec(m.mat_f, linalg.mat_vec(m.mat_e, v)))]


def _top_radical(m: QMod, a: int, s: int) -> linalg.RowSpace:
    """rad(m) at the top weight lambda = a q^(s-1) of X^a_s, in the Casimir
    block of X^a_s: F M_(lambda q^2) + E^s M_(lambda q^(-2s)), where
    lambda q^(-2s) is the top weight of the opposite simple X^(-a)_(p-s)."""
    lam, root = irreducible_weights(m.p, a, s)[0], CycField(2 * m.p).root_of_unity
    radical = linalg.RowSpace(m.field, m.dim)
    for v in weight_vectors(m, lam * root(2)):
        radical.add(linalg.mat_vec(m.mat_f, v))
    for v in weight_vectors(m, lam * root(-2 * s)):
        for _ in range(s):
            v = linalg.mat_vec(m.mat_e, v)
        radical.add(v)
    return radical


def _decompose_length_two(m: QMod, emb, s_block: int) -> list[tuple[IndecLabel, list]]:
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
    radicals = {sign: _top_radical(m, sign, s_top) for sign, s_top in tops.items()}
    socles = {sign: radicals[-sign].basis() for sign in tops}
    out = []
    dims = 0
    for sign, s_top in tops.items():
        v0 = [v for v in weight_vectors(m, irreducible_weights(p, sign, s_top)[0]) if radicals[sign].add(v)]
        if v0:
            dims += len(v0) * s_top + len(socles[sign]) * (p - s_top)
            out.extend(_classify_part(m, emb, sign, s_top, v0, socles[sign]))
    if dims != m.dim:
        raise ClassificationError("plus/minus top split does not exhaust the remainder")
    return out


def _classify_part(m: QMod, emb, sign: int, s_top: int, v0, v1) -> list[tuple[IndecLabel, list]]:
    """The summands of the part of m that the top vectors v0 generate over
    the socle highest-weight vectors v1, with their columns through emb."""
    try:
        rep, ev = glued_form(m, sign, s_top, v0, v1)  # ev: G(F(part)) -> m
    except ValueError as err:
        raise ClassificationError(f"quiver functor: {err}") from err
    full, t = linalg.mat_mul(emb, ev), m.p - s_top

    def spread(cols, copies, offset):  # copy k of a quiver column c is sum_j c_j (copy k of j)
        return [[dot(m.field, ((c, row[offset + j * copies + k]) for j, c in enumerate(col) if c))
                 for row in full] for col in cols for k in range(copies)]

    return [(_label_from_pencil(blk, sign, s_top, m.p),
             linalg.transpose(spread(blk.u0, s_top, 0) + spread(blk.u1, t, rep.d0 * s_top)))
            for blk in classify(rep).blocks]


# -- projective covers and minimal resolutions ------------------------------------------


def _cover_of_simple(p: int, a: int, s: int) -> tuple[QMod, int]:
    """The projective cover of X^a_s with the index of its top vector: P^a_s
    with b_0, or the Steinberg module X^a_p with its highest-weight vector."""
    if s == p:
        return irreducible(p, a, p), 0
    return build_p(p, a, s), s


def _top_vectors(m: QMod, a: int, s: int) -> list[list[CycNum]]:
    """A basis of the images of the top vector under Hom(cover of X^a_s, m):
    the vectors of weight lambda = a q^(s-1) in the Casimir block of X^a_s,
    where m can meet other blocks too, as the kernel of casimir_nil on that
    weight space."""
    lam, j = irreducible_weights(m.p, a, s)[0], s if a > 0 else m.p - s
    return graded_kernel(m, {lam: casimir_nil(m, lam, [j])[j]} if lam in m.spaces else {})


def projective_cover(m: QMod) -> tuple[QMod, list, list[tuple[tuple[int, int], int]]]:
    """(P, surjection P -> m, content) where content lists the simple
    tops (a, s) of the cover with multiplicities.  The cover of X^a_s is
    cyclic on its top vector, so its maps into m are the _top_vectors of m,
    and those independent modulo the _top_radical generate the summands of
    the cover, one per copy of X^a_s in the top of m."""
    return _graded_cover(m)[:3]


def _graded_cover(m: QMod):
    """projective_cover with the weight blocks of its surjection."""
    p, field = m.p, m.field
    cover_mods, cover_maps, content = [], [], []  # cover_maps: m.dim x dim(P) blocks
    for a in (1, -1):
        for s in range(1, p + 1):
            tops = _top_vectors(m, a, s)
            if not tops:
                continue
            radical = _top_radical(m, a, s)
            gens = [v for v in tops if radical.add(v)]
            if gens:
                pmod, top = _cover_of_simple(p, a, s)
                cover_mods += [pmod] * len(gens)
                cover_maps += maps_from_generator(pmod, top, m, gens)
                content.append(((a, s), len(gens)))
    cover = direct_sum(*cover_mods) if cover_mods else QMod(p, [], [], [], field=field)
    sur = [[x for phi in cover_maps for x in phi[i]] for i in range(m.dim)]
    blocks = _graded(sur, m.spaces, cover.spaces, "cover map is not graded")
    if sum(linalg.rank(blk) for blk in blocks.values()) != m.dim:
        raise ClassificationError("cover map is not surjective")
    return cover, sur, content, blocks


@dataclass
class Resolution:
    module: QMod
    terms: list[QMod] = dc_field(default_factory=list)
    content: list[list[tuple[tuple[int, int], int]]] = dc_field(default_factory=list)
    boundaries: list = dc_field(default_factory=list)  # d_k: terms[k] -> terms[k-1], k >= 1
    augmentation: list = dc_field(default_factory=list)  # terms[0] -> module
    _kernels: list = dc_field(default_factory=list)
    _newest_blocks: dict = dc_field(default_factory=dict)  # weight blocks of the newest map

    def length(self) -> int:
        return len(self.terms) - 1

    def extend_to(self, length: int) -> "Resolution":
        if length < 0:
            raise ValueError("length must be >= 0")
        while self.length() < length:  # cover the newest kernel, or the module itself
            src, emb = self._kernels[-1] if self.terms else (self.module, None)
            term, cover_map, content, blocks = _graded_cover(src)
            self.terms.append(term)
            self.content.append(content)
            self._kernels.append(submodule(term, graded_kernel(term, blocks)))
            if emb is None:
                self.augmentation, self._newest_blocks = cover_map, blocks
            else:  # the boundary to the previous term, through the kernel it covers
                self.boundaries.append(linalg.mat_mul(emb, cover_map) if src.dim else
                                       [[] for _ in range(self.terms[-2].dim)])
                self._verify_step()
        return self

    def _verify_step(self) -> None:
        """d_(k-1) d_k = 0 and exactness at the newest step k, per weight,
        with the blocks of d_(k-1) (or of the augmentation) kept from before."""
        k = len(self.terms) - 1
        mid, prev = self.terms[k - 1].spaces, self._newest_blocks
        cur = _graded(self.boundaries[k - 1], mid, self.terms[k].spaces, "resolution map is not graded")
        for lam, idx in mid.items():
            blk = cur.get(lam, [])
            if blk and prev[lam] and not linalg.is_zero_mat(linalg.mat_mul(prev[lam], blk)):
                raise ClassificationError("boundary composition is nonzero")
            if linalg.rank(prev[lam]) + linalg.rank(blk) != len(idx):
                raise ClassificationError("resolution is not exact")
        self._newest_blocks = cur


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
    cocycle: list  # dim(X_target) x dim(term_degree of the source resolution)

    def _compat(self, other: "ExtClass"):
        if (self.p, self.degree, self.source, self.target) != (
            other.p,
            other.degree,
            other.source,
            other.target,
        ):
            raise ValueError("extension classes live in different Ext spaces")

    def __add__(self, other: "ExtClass") -> "ExtClass":
        self._compat(other)
        return ExtClass(self.p, self.degree, self.source, self.target,
                        linalg.mat_add(self.cocycle, other.cocycle))

    def __sub__(self, other: "ExtClass") -> "ExtClass":
        self._compat(other)
        return ExtClass(self.p, self.degree, self.source, self.target,
                        linalg.mat_sub(self.cocycle, other.cocycle))

    def scale(self, c) -> "ExtClass":
        field = CycField(2 * self.p)
        c = c if isinstance(c, CycNum) else field.from_fraction(c)
        return ExtClass(self.p, self.degree, self.source, self.target,
                        linalg.mat_scale(c, self.cocycle))

    def is_zero(self) -> bool:
        return linalg.is_zero_mat(self.cocycle)


def extension_class_of_middle(p: int, a: int, s: int, middle: QMod) -> ExtClass:
    """Degree-one class of a short exact sequence X_(-a, p-s) >-> middle ->> X_(a, s),
    where the middle is given on the glued basis (top block then socle
    block, both in standard coordinates)."""
    res = resolution_of_irreducible(p, a, s, 1)
    t = p - s
    # lift the augmentation through the projection of the middle onto its top
    lift = _solve_in_hom(res, 0, middle, lambda h: h[:s], res.augmentation,
                         "projective term does not lift over the extension")
    raw = linalg.mat_mul(lift, res.boundaries[0])
    for i in range(s):
        if any(raw[i]):
            raise ClassificationError("cocycle does not land in the socle")
    cocycle = [raw[s + k] for k in range(t)]
    return ExtClass(p, 1, (a, s), (-a, p - s), cocycle)


def ext_basis_x(p: int, a: int, s: int) -> dict[tuple[int, int], ExtClass]:
    """The four degree-one generators of the block containing X_(a,s):
    keys (sign, index) with index 1 the Verma gluing (z = 1:0) and
    index 2 the contragredient gluing (z = 0:1)."""
    a = 1 if a in (1, "+") else -1
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
    through = [res_b.augmentation] + res_b.boundaries
    lam = None
    for k in range(m_deg + 1):
        rhs = linalg.mat_mul(lam, res_a.boundaries[n + k - 1]) if k else v.cocycle
        lam = _solve_in_hom(res_a, n + k, res_b.terms[k], lambda h: linalg.mat_mul(through[k], h), rhs,
                            "chain lift does not exist")
    cocycle = linalg.mat_mul(u.cocycle, lam)
    return ExtClass(p, n + m_deg, v.source, u.target, cocycle)


def _solve_in_hom(res: Resolution, k: int, dst: QMod, image_of, rhs, failure: str):
    """The map L in Hom(res.terms[k], dst) with image_of(L) = rhs, for a
    linear image_of; raises ClassificationError(failure) when there is none."""
    homs = _term_homs(res.content[k], dst)
    coeffs = linalg.solve_combination([image_of(h) for h in homs], rhs)
    if coeffs is None:
        raise ClassificationError(failure)
    return linalg.mat_comb(dst.field, ((c, h) for c, h in zip(coeffs, homs) if c), dst.dim, res.terms[k].dim)


def _term_homs(content, dst: QMod) -> list:
    """A basis of Hom(P, dst) for the direct sum P of the covers that
    content lists, in order.  Each cover is cyclic on its top vector, so
    the basis is the maps that send one summand's top vector to one of the
    _top_vectors of dst and kill the other summands."""
    summands = []  # (dim of the cover, its maps into dst)
    for (a, s), mult in content:
        pmod, top = _cover_of_simple(dst.p, a, s)
        summands += [(pmod.dim, maps_from_generator(pmod, top, dst, _top_vectors(dst, a, s)))] * mult
    width, zero = sum(d for d, _ in summands), dst.field.zero
    homs, off = [], 0
    for d, maps in summands:
        homs += [[[zero] * off + row + [zero] * (width - off - d) for row in phi] for phi in maps]
        off += d
    return homs
