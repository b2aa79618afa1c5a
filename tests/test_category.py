import dataclasses
import hashlib
import json
import random
from pathlib import Path
from types import MappingProxyType

import pytest

from conftest import intertwiner_basis, sample_zs, scramble
from test_weight_hom import random_labels, scrambled_sum
from uqslcat import category, kronecker, linalg, qmodules
from uqslcat.category import (IndecLabel, block_decompose, decompose, ext_basis_x,
                              ext_dim, find_isomorphism, hom_space,
                              minimal_resolution, projective_cover,
                              radical_series, resolution_of_irreducible,
                              semisimple_length, socle, yoneda)
from uqslcat.kronecker import ClassificationError, classify, functor_F
from uqslcat.qmodules import (CP1, QMod, build_m2, build_o1, build_p, build_w2,
                              coerce_field, direct_sum, irreducible, regular_module, tensor,
                              verify_module, weight_blocks)

EXT_DEPTH = {2: 8, 3: 8, 4: 6, 5: 5}  # the degrees to which the Ext table of the benchmark resolves


def test_hom_dimensions():
    for p in (2, 3):
        for a in (1, -1):
            for s in range(1, p + 1):
                x = irreducible(p, a, s)
                assert hom_space(x, x).dim == 1  # Schur
        for s in range(1, p):
            xm = irreducible(p, -1, p - s)
            assert hom_space(xm, build_m2(p, 1, s)).dim == 2
    pp = build_p(2, 1, 1)
    assert hom_space(pp, pp).dim == 2


def test_block_placement():
    for p in (2, 3):
        for s in range(1, p):
            assert block_decompose(irreducible(p, 1, s))[0].s == s
            assert block_decompose(irreducible(p, -1, p - s))[0].s == s
        assert block_decompose(irreducible(p, 1, p))[0].s == p
        assert block_decompose(irreducible(p, -1, p))[0].s == 0


def test_regular_module_blocks_at_p2():
    reg = regular_module(2)
    dims = {bp.s: bp.module.dim for bp in block_decompose(reg)}
    assert dims == {0: 4, 1: 8, 2: 4}


def test_block_pieces_are_submodules():
    m = direct_sum(build_p(3, 1, 1), irreducible(3, 1, 3), build_o1(3, -1, 2, CP1.of(3, 1, 1)))
    pieces = block_decompose(m)
    assert sum(bp.module.dim for bp in pieces) == m.dim
    for bp in pieces:
        assert verify_module(bp.module).ok


def test_socle_and_lengths():
    for p in (2, 3):
        for s in range(1, p):
            pr = build_p(p, 1, s)
            soc, _ = socle(pr)
            assert soc.dim == s
            assert find_isomorphism(soc, irreducible(p, 1, s)) is not None
            assert semisimple_length(pr) == 3
            verma = build_o1(p, 1, s, CP1.of(p, 1, 0))
            socv, _ = socle(verma)
            assert find_isomorphism(socv, irreducible(p, -1, p - s)) is not None
            assert semisimple_length(verma) == 2
        assert semisimple_length(irreducible(p, 1, p)) == 1


def test_radical_series_terminates():
    series = radical_series(build_p(2, 1, 1))
    assert [m.dim for m, _ in series] == [3, 1, 0]


def test_decompose_simple_cases():
    x = irreducible(2, 1, 2)
    assert decompose(direct_sum(x, x)).multiset() == {"X+_2": 2}
    assert decompose(build_p(2, 1, 1)).multiset() == {"P+_1": 1}
    assert decompose(build_w2(3, 1, 2)).multiset() == {"W+_2(2)": 1}
    assert decompose(build_m2(3, -1, 1)).multiset() == {"M-_1(2)": 1}
    assert list(decompose(build_o1(3, 1, 2, CP1.of(3, 0, 1))).multiset()) == ["O+_2(1,0:1)"]


def test_decompose_tensor_square_p2():
    tt = tensor(irreducible(2, 1, 2), irreducible(2, 1, 2))
    assert decompose(tt).multiset() == {"P+_1": 1}


def test_decompose_regular_modules():
    assert decompose(regular_module(2)).multiset() == {
        "P+_1": 1, "P-_1": 1, "X+_2": 2, "X-_2": 2,
    }
    assert decompose(regular_module(3)).multiset() == {
        "P+_1": 1, "P-_1": 1, "P+_2": 2, "P-_2": 2, "X+_3": 3, "X-_3": 3,
    }


def test_decompose_certificate_is_checked():
    # the certificate is verified inside decompose; spot-check shape here
    rep = decompose(direct_sum(irreducible(2, 1, 2), build_p(2, -1, 1)))
    assert len(rep.certificate) == 6 and len(rep.certificate[0]) == 6
    assert rep.multiset() == {"X+_2": 1, "P-_1": 1}


def test_decompose_scrambled_mixtures(rng):
    for p in (2, 3):
        zs = sample_zs(p)
        for trial in range(6):
            labels = []
            for _ in range(rng.randint(1, 3)):
                fam = rng.choice("XWMOP")
                a = rng.choice([1, -1])
                if fam == "X":
                    labels.append(IndecLabel("X", a, rng.randint(1, p)))
                elif fam == "P":
                    labels.append(IndecLabel("P", a, rng.randint(1, p - 1)))
                elif fam in "WM":
                    labels.append(IndecLabel(fam, a, rng.randint(1, p - 1), rng.randint(2, 4)))
                else:
                    labels.append(IndecLabel("O", a, rng.randint(1, p - 1), rng.randint(1, 4), rng.choice(zs)))
            m = scramble(direct_sum(*[l.rebuild(p) for l in labels]), rng)
            want = {}
            for l in labels:
                want[str(l)] = want.get(str(l), 0) + 1
            assert decompose(m).multiset() == want


def test_decompose_agrees_with_quiver_classification():
    # the W/M/O content reported for a length-two module matches the
    # pencil classification of its functor image
    p = 3
    m = direct_sum(
        build_w2(p, 1, 1),
        build_o1(p, 1, 1, CP1.of(p, 1, 2)),
        irreducible(p, 1, 1),
    )
    rep = functor_F(m, 1)
    qd = classify(rep)
    quiver_counts = {}
    for (kind, n, z), mult in qd.entries:
        quiver_counts[(kind, n, repr(z) if z else None)] = mult
    assert quiver_counts == {
        ("preprojective", 0, None): 1,
        ("preprojective", 1, None): 1,
        ("regular", 1, "1:2"): 1,
    }
    d = decompose(m)
    assert d.multiset() == {"X+_1": 1, "W+_1(2)": 1, "O+_1(1,1:2)": 1}


def test_projective_covers():
    for p in (2, 3):
        for s in range(1, p):
            cover, _, content = projective_cover(irreducible(p, 1, s))
            assert cover.dim == 2 * p and content == [((1, s), 1)]
        cover, _, content = projective_cover(irreducible(p, 1, p))
        assert cover.dim == p and content == [((1, p), 1)]
    # cover of a length-two module
    cover, sur, content = projective_cover(build_m2(2, 1, 1))
    assert content == [((1, 1), 1)]
    assert linalg.rank(sur) == 3


def test_resolution_pattern():
    for p in (2, 3):
        for a in (1, -1):
            for s in range(1, p):
                res = minimal_resolution(irreducible(p, a, s), 5)
                for n in range(6):
                    want_sign = a if n % 2 == 0 else -a
                    want_s = s if n % 2 == 0 else p - s
                    assert res.content[n] == [((want_sign, want_s), n + 1)]
                    assert res.terms[n].dim == 2 * p * (n + 1)


def test_resolution_kernels_are_w_family():
    # the boundary maps factor through the two-or-more-top gluings: the
    # kernel of the k-th map is the W-family member with k+2 tops of the
    # alternating label
    from uqslcat import linalg as la
    from uqslcat.qmodules import column_submodule

    for p, a, s in ((2, 1, 1), (3, 1, 1), (3, -1, 2)):
        res = minimal_resolution(irreducible(p, a, s), 3)
        maps = [res.augmentation] + res.boundaries
        for k in range(3):
            cols = la.nullspace(maps[k])
            ker, _ = column_submodule(res.terms[k], cols)
            got = decompose(ker).multiset()
            sign = -a if k % 2 == 0 else a
            s_top = (p - s) if k % 2 == 0 else s
            want = {f"W{'+' if sign > 0 else '-'}_{s_top}({k + 2})": 1}
            assert got == want, (p, a, s, k, got, want)


def test_hom_counts_of_glued_modules(rng):
    # Hom(two-socle gluing, glued(m, n)) has dimension m and
    # Hom(opposite irreducible, glued(m, n)) has dimension n
    from uqslcat.kronecker import QuiverRep

    for p, a, s in ((2, 1, 1), (3, 1, 2)):
        field = build_m2(p, a, s).field
        entries = [field.zero, field.one, -field.one, field.gen()]
        m2 = build_m2(p, a, s)
        x_soc = irreducible(p, -a, p - s)
        for _ in range(4):
            d0, d1 = rng.randint(1, 3), rng.randint(1, 3)
            rep = QuiverRep(
                d0, d1,
                [[entries[rng.randrange(4)] for _ in range(d0)] for _ in range(d1)],
                [[entries[rng.randrange(4)] for _ in range(d0)] for _ in range(d1)],
                field,
            )
            from uqslcat.kronecker import functor_G

            g = functor_G(rep, p, a, s)
            assert hom_space(m2, g).dim == d0
            assert hom_space(x_soc, g).dim == d1


def test_resolution_of_steinberg_terminates():
    for p in (2, 3):
        for a in (1, -1):
            res = minimal_resolution(irreducible(p, a, p), 3)
            assert res.terms[0].dim == p
            assert all(t.dim == 0 for t in res.terms[1:])


def test_projectives_are_injective():
    # Ext^1(S, P) = 0 for every simple S and projective P, computed as
    # honest cohomology of Hom(resolution of S, P) -- the differentials
    # do not vanish for a non-simple target, so this is an independent
    # check of injectivity
    from uqslcat import linalg as la

    def ext1(p, source, target):
        res = minimal_resolution(irreducible(p, *source), 2)
        h = [intertwiner_basis(res.terms[k], target) for k in range(3)]

        def delta(maps_from_prev, boundary, target_dim, src_dim):
            # phi -> phi . boundary, expressed in flattened coordinates
            return [
                [x for row in la.mat_mul(phi, boundary) for x in row]
                for phi in maps_from_prev
            ]

        d1 = delta(h[0], res.boundaries[0], target.dim, res.terms[1].dim)
        d2 = delta(h[1], res.boundaries[1], target.dim, res.terms[2].dim)
        # rank of d1 inside Hom(P1, T): express images in the h[1] basis
        flat1 = [[x for row in phi for x in row] for phi in h[1]]
        span1 = la.RowSpace(target.field, len(flat1[0]) if flat1 else 0)
        im_dim = 0
        for vec in d1:
            if any(vec) and span1.add(vec):
                im_dim += 1
        ker_dim = len(h[1]) - la.rank(d2) if h[1] else 0
        return ker_dim - im_dim

    for p in (2, 3):
        for a in (1, -1):
            for s_proj in range(1, p):
                proj = build_p(p, a, s_proj)
                for a2 in (1, -1):
                    for s2 in range(1, p + 1):
                        assert ext1(p, (a2, s2), proj) == 0
                # sanity: the same computation is nonzero for a
                # non-injective target of the right block
                verma = build_o1(p, a, s_proj, CP1.of(p, 1, 0))
                assert ext1(p, (a, s_proj), verma) != 0


def test_ext_one_table():
    for p in (2, 3):
        for a in (1, -1):
            for s in range(1, p + 1):
                for a2 in (1, -1):
                    for s2 in range(1, p + 1):
                        got = ext_dim(p, (a, s), (a2, s2), 1)
                        want = 2 if (s < p and a2 == -a and s2 == p - s) else 0
                        assert got == want


def test_ext_higher_pattern():
    for p in (2, 3):
        for a in (1, -1):
            for s in range(1, p):
                for n in range(5):
                    assert ext_dim(p, (a, s), (a, s), n) == (n + 1 if n % 2 == 0 else 0)
                    assert ext_dim(p, (a, s), (-a, p - s), n) == (n + 1 if n % 2 == 1 else 0)
    # Steinberg has no higher Ext
    for n in (1, 2, 3):
        assert ext_dim(2, (1, 2), (1, 2), n) == 0
        assert ext_dim(2, (1, 2), (-1, 2), n) == 0


def test_ext_dim_rejects_malformed_irreducibles():
    # ext_dim reads the target off the resolution's content, where a
    # malformed target would find nothing and read as 0
    for bad in ((1, 0), (1, 3), (-1, -1), (2, 1), (0, 1), ("x", 1), (1, 1.5)):
        with pytest.raises(ValueError):
            ext_dim(2, (1, 1), bad, 1)
        with pytest.raises(ValueError):
            ext_dim(2, bad, (1, 1), 1)


def test_resolution_cache_is_bounded():
    from uqslcat.category import _cover_of_simple, _resolution

    bound = _resolution.cache_info().maxsize
    assert bound == sum(2 * p for p in range(2, 7))  # every irreducible up to p = 6
    assert _cover_of_simple.cache_info().maxsize == bound
    keys = [(p, a, s) for p in range(2, 8) for a in (1, -1) for s in range(1, p + 1)]
    assert len(keys) > bound
    for key in keys:
        resolution_of_irreducible(*key, 0)
    assert _resolution.cache_info().currsize == bound
    for p in (2, 3):
        for s in range(1, p):
            for n in range(4):
                assert ext_dim(p, (1, s), (1, s), n) == (n + 1 if n % 2 == 0 else 0)
                assert ext_dim(p, (1, s), (-1, p - s), n) == (n + 1 if n % 2 == 1 else 0)


def _break_one_image(monkeypatch, which, image):
    """Make the which-th call of _images in the category module, where the
    top vectors of the covers get their images, send its first top vector to
    image(dst, lam, v) instead of v, a vector of the weight space of dst at lam
    in its coordinates."""
    real, calls = category._images, []

    def spy(dst, gens):
        calls.append(dst)
        gens = list(gens)
        if len(calls) == which:
            cover, top, v = gens[0]
            gens[0] = (cover, top, image(dst, cover.weights[top], v))
        return real(dst, gens)

    monkeypatch.setattr(category, "_images", spy)


def test_projective_cover_rejects_a_map_that_misses_a_generator(monkeypatch):
    _break_one_image(monkeypatch, 1, lambda dst, lam, v: [dst.field.zero] * len(v))
    with pytest.raises(ClassificationError, match="^cover map is not surjective$"):
        projective_cover(irreducible(3, 1, 1))


def test_resolution_step_rejects_a_boundary_that_misses_a_generator(monkeypatch):
    # the augmentation (call 1) is sound; step 1 (call 2) loses one generator
    _break_one_image(monkeypatch, 2, lambda dst, lam, v: [dst.field.zero] * len(v))
    with pytest.raises(ClassificationError, match="not exact|not surjective"):
        minimal_resolution(irreducible(3, 1, 1), 2)


def test_resolution_step_rejects_a_generator_outside_the_kernel(monkeypatch):
    # step 2 sends one of its generators to a vector of the term at the same
    # weight that d_1 does not kill
    d1 = minimal_resolution(irreducible(3, 1, 1), 2).boundaries[0]

    def outside(dst, lam, v):
        i = next(k for k, c in enumerate(dst.spaces[lam]) if any(row[c] for row in d1))
        return [dst.field.one if k == i else x for k, x in enumerate(v)]

    res = category.Resolution(irreducible(3, 1, 1)).extend_to(1)
    _break_one_image(monkeypatch, 1, outside)
    with pytest.raises(ClassificationError, match="^boundary composition is nonzero$"):
        res.extend_to(2)
    assert (res.length(), len(res.boundaries)) == (1, 1)  # the failed step left no trace


def test_resolution_maps_are_module_maps(monkeypatch):
    # the augmentation and every boundary keep weight and intertwine E and F
    # block by block; no resolution step builds a submodule
    def intertwines(mat, src, dst):
        blocks = weight_blocks(mat, dst.spaces, src.spaces)
        if blocks is None:
            return False
        for gen in ("E", "F"):
            for lam, blk in blocks.items():  # dst's gen after blk against blk after src's gen, M_lam -> N_mu
                mu = src.shift(lam, gen)
                zero = linalg.zeros(src.field, len(dst.spaces.get(mu, ())), len(src.spaces[lam]))
                left = linalg.mat_mul(dst.blocks(gen)[lam], blk) if blk else []
                right = linalg.mat_mul(blocks[mu], src.blocks(gen)[lam]) if blocks.get(mu) else []
                if not linalg.mat_eq(left or zero, right or zero):
                    return False
        return True

    checked = 0
    for name, res, n in pinned_resolutions():
        maps = [(res.augmentation, res.terms[0], res.module)]
        maps += [(res.boundaries[k - 1], res.terms[k], res.terms[k - 1]) for k in range(1, n + 1)]
        for mat, src, dst in maps:
            assert intertwines(mat, src, dst), name
            checked += bool(src.dim)
    assert checked > 200
    broken = linalg.mat_copy(res.boundaries[0])
    broken[0][0] = broken[0][0] + res.module.field.one
    assert not intertwines(broken, res.terms[1], res.terms[0])

    def no_submodule(*args):
        raise AssertionError("a resolution step built a submodule")

    monkeypatch.setattr(category, "submodule", no_submodule)
    monkeypatch.setattr(qmodules, "submodule", no_submodule)
    assert minimal_resolution(irreducible(4, -1, 1), 4).content[4] == [((-1, 1), 5)]


def test_resolution_steps_and_chain_lifts_stay_in_weight_spaces(monkeypatch):
    # resolution steps, Ext dimensions, extension classes and chain lifts build
    # no dense map, slice no dense map, lift no kernel out of its weight spaces
    # and build no submodule
    def refuse(name):
        def call(*args):
            raise AssertionError(f"{name} was called")
        return call

    monkeypatch.setattr(qmodules.ModMap, "dense", refuse("ModMap.dense"))
    monkeypatch.setattr(qmodules, "block_matrix", refuse("block_matrix"))  # which QMod.mat shares
    category._resolution.cache_clear()
    res = minimal_resolution(irreducible(4, -1, 1), 1)  # builds the two covers it alternates, densely
    resolution_of_irreducible(4, -1, 1, 0)
    gens = ext_basis_x(3, 1, 1)  # builds its middles from dense E and F
    for module, name in ((qmodules, "weight_blocks"), (qmodules, "graded_kernel"),
                         (category, "submodule"), (qmodules, "submodule")):
        monkeypatch.setattr(module, name, refuse(name))
    assert res.extend_to(8).content[8] == [((-1, 1), 9)]
    assert ext_dim(4, (-1, 1), (-1, 1), 8) == 9
    w = gens[(1, 1)]
    for degree in range(2, 6):
        w = yoneda(gens[(-1 if degree % 2 == 0 else 1, 1)], w)
    assert w.degree == 5 and not w.is_zero()
    assert resolution_of_irreducible(3, 1, 1, 0).length() == 5  # extended under the spies


def test_decompose_stays_in_weight_spaces(monkeypatch):
    # decompose, from the Casimir split to the certificate check, builds no
    # dense map, lifts no vector out of its weight space and slices no module
    # map: only the dense constructor of the rebuilt canonical modules slices
    # their E and F; reading the certificate of a report builds its matrix
    rng = random.Random(713)
    modules = [scrambled_sum(p, random_labels(p, rng, rng.randint(1, 4)), rng) for p in (2, 3) * 5]
    modules.append(regular_module(3))

    def refuse(name):
        def call(*args):
            raise AssertionError(f"{name} was called")
        return call

    real_blocks = qmodules.weight_blocks

    def slice_action(mat, rows, cols):  # a module map's rows are its target's weight spaces
        if isinstance(rows, MappingProxyType):
            raise AssertionError("weight_blocks sliced a module map")
        return real_blocks(mat, rows, cols)

    for module in (qmodules, category, kronecker):
        for name in ("lift", "block_matrix", "graded_kernel"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse(name))
    assert not hasattr(category, "weight_blocks") and not hasattr(kronecker, "weight_blocks")
    monkeypatch.setattr(qmodules, "weight_blocks", slice_action)
    monkeypatch.setattr(qmodules.ModMap, "dense", refuse("ModMap.dense"))
    reports = [decompose(m) for m in modules]
    with pytest.raises(AssertionError, match="^ModMap.dense was called$"):
        reports[0].certificate
    monkeypatch.undo()
    for m, report in zip(modules, reports):
        assert weight_blocks(report.certificate, m.spaces, report.map.src.spaces) == report.map.blocks
        assert sum(lbl.dim(m.p) * mult for lbl, mult in report.entries) == m.dim


def test_decompose_refuses_a_module_over_a_larger_field():
    # over Q(zeta_8) a p = 2 module passed the relation check and the Casimir
    # split, then failed deep inside with mismatched cyclotomic orders
    m = coerce_field(build_p(2, 1, 1), 8)
    want = "^decompose needs a module over the field of order 2p = 4, not 8$"
    for run in (lambda: decompose(m), lambda: find_isomorphism(m, m)):
        with pytest.raises(ValueError, match=want):
            run()


def test_every_entry_point_refuses_a_module_over_a_larger_field():
    # projective_cover and minimal_resolution raised mismatched cyclotomic
    # orders deep inside, functor_F refused with a misleading message, and
    # hom_space accepted the module; each now refuses it with one line
    m, x = coerce_field(build_w2(2, 1, 1), 8), irreducible(2, 1, 1)
    runs = [("decompose", lambda: decompose(m)), ("projective_cover", lambda: projective_cover(m)),
            ("minimal_resolution", lambda: minimal_resolution(m, 1)), ("functor_F", lambda: functor_F(m, 1)),
            ("hom_space", lambda: hom_space(m, x)), ("hom_space", lambda: hom_space(x, m))]
    for name, run in runs:
        with pytest.raises(ValueError, match=f"^{name} needs a module over the field of order 2p = 4, not 8$"):
            run()
    # the workaround: take Hom over Q(zeta_2p), then base-change the maps
    maps = [[[v.embed(8) for v in row] for row in phi] for phi in hom_space(x, build_w2(2, 1, 1)).maps]
    assert maps == intertwiner_basis(coerce_field(x, 8), m)


def test_module_maps_agree_with_dense_algebra():
    # composition, sums, scaling and from_images on the weight blocks give the
    # dense results on every map of the pinned resolutions, and d_(k-1) d_k = 0;
    # an augmentation maps into a module that lacks weights of its source, so
    # it has blocks with no rows, and a map back into the term composed after
    # it gets explicit zero blocks at those weights
    def dense_mul(a, b):  # linalg.mat_mul returns [] when a factor has no rows
        return linalg.mat_mul(a.dense(), b.dense()) or linalg.zeros(a.dst.field, a.dst.dim, b.src.dim)

    def full_shape(f):
        return all(len(blk) == len(f.dst.spaces.get(lam, ())) and all(len(row) == len(f.src.spaces[lam])
                                                                      for row in blk)
                   for lam, blk in f.blocks.items()) and set(f.blocks) == set(f.src.spaces)

    no_rows = checked = 0
    for name, res, n in pinned_resolutions():
        for k, f in enumerate(res.maps[:n + 1]):
            d, q = f.dense(), f.dst.qpow(1)
            cols = [[d[i][j] for i in f.dst.spaces.get(w, ())] for j, w in enumerate(f.src.weights)]
            assert linalg.mat_eq(qmodules.ModMap.from_images(f.src, f.dst, cols).dense(), d), name
            assert linalg.mat_eq((f + f.scale(q)).dense(), linalg.mat_add(d, linalg.mat_scale(q, d))), name
            assert full_shape(f) and f.is_zero() == linalg.is_zero_mat(d), name
            if k:
                comp = res.maps[k - 1] @ f
                assert full_shape(comp) and comp.is_zero(), name
                assert linalg.mat_eq(comp.dense(), dense_mul(res.maps[k - 1], f)), name
            checked += bool(f.src.dim)
        aug, one = res.maps[0], res.module.field.one
        g = qmodules.ModMap.from_images(res.module, aug.src, [[one] * len(aug.src.spaces.get(w, ()))
                                                              for w in res.module.weights])
        for comp, (a, b) in ((g @ aug, (g, aug)), (aug @ g, (aug, g))):
            assert full_shape(comp) and linalg.mat_eq(comp.dense(), dense_mul(a, b)), name
        no_rows += sum(not blk for blk in aug.blocks.values())
    assert checked > 200 and no_rows > 0


def test_shared_resolutions_are_left_as_they_were():
    # resolution_of_irreducible hands every caller the same cached object;
    # the Ext, extension-class and Yoneda callers may only extend it
    from uqslcat.category import extension_class_of_middle, resolution_of_irreducible

    def snapshot(res):
        rows = lambda mat: [row[:] for row in mat]
        return {"terms": [(rows(t.mat_e), rows(t.mat_f), t.weights[:]) for t in res.terms],
                "content": [c[:] for c in res.content],
                "boundaries": [rows(b) for b in res.boundaries],
                "augmentation": [rows(res.augmentation)]}

    p, keys = 3, [(1, 1), (-1, 2), (1, 2), (-1, 1)]
    shared = {key: resolution_of_irreducible(p, *key, 1) for key in keys}
    before = {key: snapshot(res) for key, res in shared.items()}
    gens = ext_basis_x(p, 1, 1)
    extension_class_of_middle(p, 1, 2, build_o1(p, 1, 2, CP1.of(p, 1, 1)))
    assert yoneda(gens[(1, 2)], yoneda(gens[(-1, 1)], gens[(1, 1)])).degree == 3
    for key in keys:
        for n in range(4):
            ext_dim(p, key, (1, 1), n)
    for key, res in shared.items():
        assert resolution_of_irreducible(p, *key, 0) is res and res.length() >= 3
        after = snapshot(res)
        for part, old in before[key].items():
            assert after[part][:len(old)] == old, (key, part)


def test_ext_generators_normalization():
    # the class of the z-gluing is linear in z: [O(1,z)] = z1 x1 + z2 x2
    from uqslcat.category import extension_class_of_middle

    for p, s in ((2, 1), (3, 1), (3, 2)):
        gens = ext_basis_x(p, 1, s)
        x1, x2 = gens[(1, 1)], gens[(1, 2)]
        z = CP1.of(p, 1, -1)
        mixed = extension_class_of_middle(p, 1, s, build_o1(p, 1, s, z))
        assert (x1.scale(z.z1) + x2.scale(z.z2) - mixed).is_zero()


def test_yoneda_relations():
    for p in (2, 3):
        for s in range(1, p):
            gens = ext_basis_x(p, 1, s)
            xp = {i: gens[(1, i)] for i in (1, 2)}
            xm = {i: gens[(-1, i)] for i in (1, 2)}
            assert (yoneda(xm[1], xp[2]) + yoneda(xm[2], xp[1])).is_zero()
            assert (yoneda(xp[1], xm[2]) + yoneda(xp[2], xm[1])).is_zero()
            # individual mixed products are nonzero classes in C^3
            assert not yoneda(xm[1], xp[1]).is_zero()
            assert not yoneda(xm[2], xp[2]).is_zero()


def test_yoneda_same_sign_not_composable():
    gens = ext_basis_x(2, 1, 1)
    for i in (1, 2):
        for j in (1, 2):
            for sign in (1, -1):
                with pytest.raises(ValueError):
                    yoneda(gens[(sign, i)], gens[(sign, j)])


def test_alternating_words_nonzero():
    for p in (2, 3):
        for s in range(1, p):
            gens = ext_basis_x(p, 1, s)
            w = gens[(1, 1)]
            for sign in (-1, 1, -1):
                w = yoneda(gens[(sign, 1)], w)
                assert not w.is_zero()
            assert w.degree == 4


def test_yoneda_refuses_a_cocycle_that_is_not_a_module_map():
    # a degree-one cocycle with one entry changed off the top vectors of the
    # summands of its term is no module map: changed inside a weight block,
    # the lift through the augmentation must fail, whichever columns the lift
    # is solved at; changed off the weight blocks, it is no map that keeps
    # weight, and slicing it into weight blocks refuses it
    gens = ext_basis_x(3, 1, 1)
    checked, off_blocks = 0, 0
    for v in gens.values():
        u = next(g for g in gens.values() if g.source == v.target)
        res = resolution_of_irreducible(3, *v.source, 1)
        tops, off = set(), 0
        for (a, s), mult in res.content[1]:
            cover, top = category._cover_of_simple(3, a, s)
            for _ in range(mult):
                tops.add(off + top)
                off += cover.dim
        for r, row in enumerate(v.cocycle):
            for c in sorted(set(range(len(row))) - tops):
                cocycle = linalg.mat_copy(v.cocycle)
                cocycle[r][c] = cocycle[r][c] + cocycle[r][c].field.one
                blocks = weight_blocks(cocycle, v.map.dst.spaces, v.map.src.spaces)
                if blocks is None:
                    off_blocks += 1
                else:
                    with pytest.raises(ClassificationError, match="^chain lift does not exist$"):
                        yoneda(u, dataclasses.replace(v, map=qmodules.ModMap(v.map.src, v.map.dst, blocks)))
                checked += 1
    assert (checked, off_blocks) == (60, 44)


def test_signs_are_checked():
    # every sign other than 1 and "+" was once taken as -1: ext_basis_x(3, 7, 1)
    # returned four classes, "plus" gave the generators of the block of X-_1,
    # and functor_F(m, 5) ran as sign -1
    m = build_w2(3, 1, 1)
    for run in (lambda: ext_basis_x(3, 7, 1), lambda: functor_F(m, 5), lambda: functor_F(m, 0)):
        with pytest.raises(ValueError, match="^bad sign"):
            run()
    assert irreducible(3, "plus", 1).label == "X+_1"
    assert {key: c.source for key, c in ext_basis_x(3, "plus", 1).items()} == {
        (1, 1): (1, 1), (1, 2): (1, 1), (-1, 1): (-1, 2), (-1, 2): (-1, 2)}
    plus, one = functor_F(m, "plus"), functor_F(m, 1)
    assert (plus.d0, plus.d1, plus.r, plus.rbar) == (one.d0, one.d1, one.r, one.rbar)


def test_ext_classes_are_cocycles():
    # every class kills the image of the next boundary map (automatic
    # from minimality since module maps preserve radicals; asserted here
    # against the implementation)
    from uqslcat.category import resolution_of_irreducible

    for p, s in ((2, 1), (3, 2)):
        gens = ext_basis_x(p, 1, s)
        samples = list(gens.values())
        samples.append(yoneda(gens[(-1, 1)], gens[(1, 1)]))
        samples.append(yoneda(gens[(1, 2)], gens[(-1, 2)]))
        for cls in samples:
            res = resolution_of_irreducible(p, *cls.source, cls.degree + 1)
            comp = linalg.mat_mul(cls.cocycle, res.boundaries[cls.degree])
            assert linalg.is_zero_mat(comp)


def test_decompose_rejects_non_module():
    x = irreducible(2, 1, 2)
    mat_e = x.mat_e
    mat_e[0][1] = mat_e[0][1] + x.field.one
    m = QMod(x.p, mat_e, x.mat_f, x.weights, field=x.field)
    with pytest.raises(ValueError):
        decompose(m)


# -- pinned outputs of the resolutions ---------------------------------------------------


def pinned_resolutions():
    """(name, resolution, length) for every irreducible at p = 2..5 to the
    depth of the Ext table, and for W_1(3), M_1(3) and O_1(2, 1:1) of both
    signs at p = 2..4 to length 4."""
    out = [(f"X{a:+d}_{s}/p{p}", resolution_of_irreducible(p, a, s, n), n)
           for p, n in EXT_DEPTH.items() for a in (1, -1) for s in range(1, p + 1)]
    for p in (2, 3, 4):
        for a in (1, -1):
            for lbl in (IndecLabel("W", a, 1, 3), IndecLabel("M", a, 1, 3),
                        IndecLabel("O", a, 1, 2, CP1.of(p, 1, 1))):
                out.append((f"{lbl}/p{p}", minimal_resolution(lbl.rebuild(p), 4), 4))
    return out


def resolution_digests() -> dict[str, str]:
    """sha256 of the content, augmentation and boundaries of the pinned
    resolutions, of the cover of Reg(3), of the cocycles of the degree-one
    generators at p = 2..5, and of the alternating Yoneda words to degree 6
    at p = 2, 3 and to degree 4 at p = 4."""
    def digest(value) -> str:
        return hashlib.sha256(json.dumps(value, sort_keys=True).encode()).hexdigest()

    mat = lambda a: [[x.to_json() for x in row] for row in a]
    out = {}
    for name, res, n in pinned_resolutions():  # cut at n: a cached resolution may reach further
        out[name] = digest({"content": res.content[:n + 1], "augmentation": mat(res.augmentation),
                            "boundaries": [mat(b) for b in res.boundaries[:n]]})
    cover, sur, content = projective_cover(regular_module(3))
    out["cover_reg3"] = digest({"cover": cover.to_json(), "map": mat(sur), "content": content})
    for p, depth in ((2, 6), (3, 6), (4, 4), (5, 1)):  # depth: the degree of the longest pinned word
        for s in range(1, p):
            gens = ext_basis_x(p, 1, s)
            out[f"ext_basis/p{p}/s{s}"] = digest({f"{sign}/{i}": mat(c.cocycle) for (sign, i), c in gens.items()})
            words = []
            for index in (1, 2):
                w = gens[(1, index)]
                for degree in range(2, depth + 1):
                    w = yoneda(gens[(-1 if degree % 2 == 0 else 1, index)], w)
                    words.append(mat(w.cocycle))
            if words:
                out[f"yoneda_words/p{p}/s{s}"] = digest(words)
    return out


def test_resolution_outputs_are_pinned():
    # recorded before the syzygies were covered inside their terms; the p = 4, 5
    # cocycles and the p = 4 words before resolution steps and chain lifts were
    # taken on cover generators
    digests = json.loads((Path(__file__).parent / "data" / "resolution_sha256.json").read_text())
    assert resolution_digests() == digests
