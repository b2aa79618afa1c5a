"""Hom spaces read off weight vectors, against the generic solver.

``decompose`` and the Ext layer never solve for intertwiners: inside one
Casimir block they read Hom(P, M) and Hom(X^±_p, M) off a weight space
through ``maps_from_generator``, the radical at a top weight off the two
gluings, and the top of a module off the top-weight vectors outside
F M + E^s M, and the socle and the radical off the top vectors of the
simples in M and in its dual.  These tests compare each reading with
``intertwiner_basis`` and ``radical_columns``, and check that ``decompose``
keeps the Hom dimensions into and out of every simple and projective."""

import random

from conftest import sample_zs, scramble
from uqslcat import linalg
from uqslcat.category import (IndecLabel, _term_homs, _top_radical, block_decompose, decompose,
                              minimal_resolution, projective_cover)
from uqslcat.qmodules import (build_p, direct_sum, intertwiner_basis, irreducible,
                              irreducible_weights, maps_from_generator, radical_columns,
                              regular_module, socle_columns, weight_vectors)


def random_labels(p, rng, count, families="XWMOP"):
    """Summand labels drawn as in the criterion-7 corpus."""
    zs = sample_zs(p)
    labels = []
    for _ in range(count):
        fam = rng.choice(families)
        a = rng.choice([1, -1])
        if fam == "X":
            labels.append(IndecLabel("X", a, rng.randint(1, p)))
        elif fam == "P":
            labels.append(IndecLabel("P", a, rng.randint(1, p - 1)))
        elif fam in "WM":
            labels.append(IndecLabel(fam, a, rng.randint(1, p - 1), rng.randint(2, 4)))
        else:
            labels.append(IndecLabel("O", a, rng.randint(1, p - 1), rng.randint(1, 4), rng.choice(zs)))
    return labels


def scrambled_sum(p, labels, rng):
    return scramble(direct_sum(*[lbl.rebuild(p) for lbl in labels]), rng)


def span(field, vectors, n):
    """The reduced echelon basis of the span: equal spans give equal lists."""
    rs = linalg.RowSpace(field, n)
    for v in vectors:
        rs.add(v)
    return rs.basis()


def map_span(maps, src, dst):
    return span(src.field, [[x for row in phi for x in row] for phi in maps], src.dim * dst.dim)


def block_pieces():
    rng = random.Random(713)
    for trial in range(8):
        p = 2 if trial % 2 == 0 else 3
        yield from block_decompose(scrambled_sum(p, random_labels(p, rng, rng.randint(1, 4)), rng))
    yield from block_decompose(regular_module(3))
    rng = random.Random(404)
    for _ in range(2):
        yield from block_decompose(scrambled_sum(4, random_labels(4, rng, 3), rng))


def test_maps_from_generator_span_the_hom_spaces():
    seen = set()
    for piece in block_pieces():
        m, p = piece.module, piece.module.p
        if piece.s in (0, p):
            sources = [(irreducible(p, 1 if piece.s == p else -1, p), 0)]
        else:
            sources = [(build_p(p, 1, piece.s), piece.s), (build_p(p, -1, p - piece.s), p - piece.s)]
        for src, gen in sources:
            maps = maps_from_generator(src, gen, m, weight_vectors(m, src.weights[gen]))
            assert map_span(maps, src, m) == map_span(intertwiner_basis(src, m), src, m)
            for phi in maps:
                for g in ("E", "F", "K"):
                    assert linalg.mat_eq(linalg.mat_mul(m.mat(g), phi), linalg.mat_mul(phi, src.mat(g)))
            seen.add((p, piece.s, bool(maps)))
    # every p, and maps on both the semisimple and the non-semisimple blocks
    assert {p for p, _, _ in seen} == {2, 3, 4}
    assert any(s in (0, p) and hit for p, s, hit in seen)
    assert any(0 < s < p and hit for p, s, hit in seen)


def test_top_radical_is_the_radical_at_the_top_weight():
    rng = random.Random(909)
    checked = 0
    for p in (2, 3, 3, 4):
        m = scrambled_sum(p, random_labels(p, rng, 4, families="XWMO"), rng)
        for piece in block_decompose(m):
            if piece.s in (0, p):
                continue
            b = piece.module
            rad = radical_columns(b)
            for sign, s_top in ((1, piece.s), (-1, p - piece.s)):
                top = irreducible_weights(p, sign, s_top)[0]
                at_top = [v for v in rad if any(x for x, w in zip(v, b.weights) if w == top)]
                want = span(b.field, at_top, b.dim)
                assert _top_radical(b, sign, s_top).basis() == want
                checked += bool(want)
    assert checked >= 4


def generic_socle_and_radical(m):
    """The spans of the socle and the radical of m from the generic solver:
    the images of Hom(X, m) and the common kernel of Hom(m, X) over all
    simples X."""
    simples = [irreducible(m.p, a, s) for a in (1, -1) for s in range(1, m.p + 1)]
    images = [list(col) for x in simples for phi in intertwiner_basis(x, m) for col in zip(*phi)]
    rows = [row for x in simples for phi in intertwiner_basis(m, x) for row in phi]
    kernel = linalg.nullspace(rows) if rows else linalg.identity(m.field, m.dim)
    return span(m.field, images, m.dim), span(m.field, kernel, m.dim)


def test_socle_and_radical_against_the_generic_solver():
    modules = [piece.module for piece in block_pieces()]
    modules += [build_p(p, a, s) for p in (2, 3, 4) for a in (1, -1) for s in range(1, p)]
    for m in modules:
        soc, rad = socle_columns(m), radical_columns(m)
        assert (span(m.field, soc, m.dim), span(m.field, rad, m.dim)) == generic_socle_and_radical(m)
        for v in soc + rad:  # K-homogeneous, as submodule needs
            assert len({w for x, w in zip(v, m.weights) if x}) == 1


def hom_totals(m):
    """Sums over all simples X and projectives P of dim Hom(X, m),
    dim Hom(m, X) and dim Hom(P, m), from the generic solver."""
    p = m.p
    simples = [irreducible(p, a, s) for a in (1, -1) for s in range(1, p + 1)]
    projectives = [build_p(p, a, s) for a in (1, -1) for s in range(1, p)]
    return (sum(len(intertwiner_basis(x, m)) for x in simples),
            sum(len(intertwiner_basis(m, x)) for x in simples),
            sum(len(intertwiner_basis(pr, m)) for pr in projectives))


def test_decompose_keeps_hom_dimensions_on_scrambled_p4_sums():
    # the generic solver takes 1-3 s per Hom(P, m) at dim 40-50, so six
    # sums of two to four summands keep the test near 5 s
    rng = random.Random(5)
    rebuilt_totals = {}
    for _ in range(6):
        labels = random_labels(4, rng, rng.randint(2, 4))
        while sum(lbl.dim(4) for lbl in labels) > 60:
            labels.pop()
        m = scrambled_sum(4, labels, rng)
        want = [0, 0, 0]
        for lbl, mult in decompose(m).entries:
            if lbl not in rebuilt_totals:
                rebuilt_totals[lbl] = hom_totals(lbl.rebuild(4))
            want = [w + mult * t for w, t in zip(want, rebuilt_totals[lbl])]
        assert list(hom_totals(m)) == want


def test_projective_cover_against_the_generic_solver():
    # the first criterion-7 sums (p = 2 and 3, same draws) and one scrambled
    # p = 4 sum: modules that meet several Casimir blocks, in a scrambled basis
    rng = random.Random(713)
    modules = [scrambled_sum(p, random_labels(p, rng, rng.randint(1, 4)), rng) for p in (2, 3) * 4]
    rng = random.Random(4)
    modules.append(scrambled_sum(4, random_labels(4, rng, 3), rng))
    mixed = 0
    for m in modules:
        cover, sur, content = projective_cover(m)
        tops = [((a, s), len(intertwiner_basis(m, irreducible(m.p, a, s))))
                for a in (1, -1) for s in range(1, m.p + 1)]
        assert content == [(top, n) for top, n in tops if n]
        for g in ("E", "F", "K"):
            assert linalg.mat_eq(linalg.mat_mul(m.mat(g), sur), linalg.mat_mul(sur, cover.mat(g)))
        mixed += len(block_decompose(m)) > 1
    assert mixed >= 3 and len(block_decompose(modules[-1])) > 1


def test_term_homs_span_the_hom_spaces_of_resolution_terms():
    # Hom from each term into itself, and into the kernel of its map (a
    # module that is not projective), for every irreducible at p = 2..4
    for p in (2, 3, 4):
        for a in (1, -1):
            for s in range(1, p + 1):
                res = minimal_resolution(irreducible(p, a, s), 3)
                for k in range(4):
                    term = res.terms[k]
                    for dst in (term, res._kernels[k][0]):
                        want = intertwiner_basis(term, dst)
                        assert map_span(_term_homs(res.content[k], dst), term, dst) == map_span(want, term, dst)
