import random

import pytest

from conftest import sample_zs, scramble
from uqslcat import linalg
from uqslcat.category import (IndecLabel, block_decompose, decompose, ext_basis_x,
                              ext_dim, find_isomorphism, hom_space,
                              minimal_resolution, projective_cover,
                              radical_series, semisimple_length, socle, yoneda)
from uqslcat.kronecker import classify, functor_F
from uqslcat.qmodules import (CP1, build_m2, build_o1, build_p, build_w2,
                              direct_sum, irreducible, regular_module, tensor,
                              verify_module)


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
    from uqslcat.qmodules import submodule

    for p, a, s in ((2, 1, 1), (3, 1, 1), (3, -1, 2)):
        res = minimal_resolution(irreducible(p, a, s), 3)
        maps = [res.augmentation] + res.boundaries
        for k in range(3):
            cols = la.nullspace(maps[k])
            ker, _ = submodule(res.terms[k], cols)
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
    from uqslcat.qmodules import intertwiner_basis

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
    from uqslcat.category import _resolution, resolution_of_irreducible

    bound = _resolution.cache_info().maxsize
    assert bound == sum(2 * p for p in range(2, 7))  # every irreducible up to p = 6
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
    m = irreducible(2, 1, 2)
    m.mat_e[0][1] = m.mat_e[0][1] + m.field.one
    with pytest.raises(ValueError):
        decompose(m)
