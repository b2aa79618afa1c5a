"""The weight-graded kernels against dense references.

The relation checks, the Casimir blocks, the restriction to a submodule
and the certificate check work one weight space at a time.  These tests
compare them with the dense computations they replace (the PBW Casimir's
action matrix, a dense solve for the restricted action, the dual through
diagonal matrices), and give each check a negative control that breaks
exactly one relation.  The weight blocks each module stores (QMod.spaces
and blocks) are compared with the dense slices they stand for, and a spy
checks that the package paths neither scan a module they built nor derive
its dense E or F."""

import random
import sys
from functools import partial

import pytest

from test_weight_hom import random_labels, scrambled_sum, span
from uqslcat import category, linalg, qmodules
from uqslcat.algebra import casimir
from uqslcat.category import (_top_vectors, _verify_certificate, block_decompose, decompose, ext_basis_x,
                              ext_dim, minimal_resolution, yoneda)
from uqslcat.cyclotomic import CycField
from uqslcat.kronecker import ClassificationError, QuiverRep
from uqslcat.qmodules import (CP1, QMod, action_matrix, build_glued, build_m2, build_o1, build_p, build_w2,
                              casimir_blocks, coerce_field, column_submodule, direct_sum, dual, irreducible, lift,
                              regular_module, socle_columns, tensor, verify_module, weight_blocks, weight_spaces)


def modules():
    """Scrambled criterion-7 style sums at p = 2 and 3, Reg(3), and one
    scrambled p = 4 sum."""
    rng = random.Random(713)
    for trial in range(6):
        p = 2 if trial % 2 == 0 else 3
        yield scrambled_sum(p, random_labels(p, rng, rng.randint(1, 4)), rng)
    yield regular_module(3)
    rng = random.Random(404)
    yield scrambled_sum(4, random_labels(4, rng, 3), rng)


def test_casimir_blocks_and_submodules_match_the_dense_computation():
    for m in modules():
        cd = casimir(m.p)
        act = action_matrix(m, cd.element)
        total = 0
        for s, span_at in casimir_blocks(m):
            cols = [v for lam, vecs in span_at.items() for v in lift(m, lam, vecs)]
            shifted = [[x - cd.roots[s] if i == j else x for j, x in enumerate(row)] for i, row in enumerate(act)]
            nil = shifted if s in (0, m.p) else linalg.mat_mul(shifted, shifted)
            assert span(m.field, cols, m.dim) == span(m.field, linalg.nullspace(nil), m.dim), (m, s)
            total += len(cols)
            if not cols:
                continue
            sub, emb = column_submodule(m, cols)
            for gen in ("E", "F"):
                assert linalg.mat_eq(sub.mat(gen), linalg.solve(emb, linalg.mat_mul(m.mat(gen), emb)))
            assert verify_module(sub).ok
        assert total == m.dim


def test_dual_matches_the_product_with_diagonal_matrices():
    rng = random.Random(713)
    for m in (regular_module(3), scrambled_sum(3, random_labels(3, rng, 3), rng)):
        k = linalg.zeros(m.field, m.dim, m.dim)
        k_inv = linalg.zeros(m.field, m.dim, m.dim)
        for i, w in enumerate(m.weights):
            k[i][i], k_inv[i][i] = m.qpow(w), m.qpow(w).inv()
        d = dual(m)
        assert [d.qpow(w) for w in d.weights] == [m.qpow(w).inv() for w in m.weights]
        assert d.mat_e == linalg.transpose(linalg.mat_neg(linalg.mat_mul(m.mat_e, k_inv)))
        assert d.mat_f == linalg.transpose(linalg.mat_neg(linalg.mat_mul(k, m.mat_f)))


def _swap_module(gen: str) -> QMod:
    """At p = 2, weights q and q^-1 with gen swapping them: gen respects the
    weights (q^2 q^-1 = q and q^2 q = q^-1) but gen^2 is the identity."""
    field = CycField(4)
    one, zero = field.one, field.zero
    swap, null = [[zero, one], [one, zero]], linalg.zeros(field, 2, 2)
    mats = (swap, null) if gen == "E" else (null, swap)
    return QMod(2, *mats, [1, -1], field=field)


def _off_weight(gen: str) -> QMod:
    """X+_3 at p = 3 with an entry of gen joining a_0 (weight q^2) and a_2
    (weight q^-2), which neither E nor F may join."""
    x = irreducible(3, 1, 3)
    mats = {"E": x.mat_e, "F": x.mat_f}
    i, j = (0, 2) if gen == "E" else (2, 0)
    mats[gen][i][j] = x.field.one
    return QMod(x.p, mats["E"], mats["F"], x.weights, field=x.field)


def _commutator_defect() -> QMod:
    """A module of dimension 12 with X+_1 moved to weight q, which X+_2 also
    has: E = F = 0 there, so [E, F] fails on that one weight space alone."""
    x = direct_sum(irreducible(3, 1, 1), build_p(3, 1, 1), irreducible(3, 1, 2), irreducible(3, 1, 3))
    return QMod(x.p, x.mat_e, x.mat_f, [1, *x.weights[1:]], field=x.field)


@pytest.mark.parametrize("build, violation", [
    (lambda: _swap_module("E"), "E^p != 0"),
    (lambda: _swap_module("F"), "F^p != 0"),
    (lambda: _off_weight("E"), "KEK^-1 != q^2 E"),
    (lambda: _off_weight("F"), "KFK^-1 != q^-2 F"),
    (_commutator_defect, "[E,F] != (K - K^-1)/(q - q^-1)"),
])
def test_verify_module_negative_controls(build, violation):
    chk = verify_module(build())
    assert not chk.ok and violation in chk.violations, chk.violations


def test_certificate_check_rejects_each_corruption():
    rng = random.Random(11)
    m = scrambled_sum(3, random_labels(3, rng, 4, families="WMP"), rng)
    # the check takes the weight blocks of a certificate: an entry off them is
    # no map that keeps weight, and slicing the dense certificate refuses it
    report = decompose(m)
    rebuilt = direct_sum(*[lbl.rebuild(3) for lbl, mult in report.entries for _ in range(mult)])
    blocks = lambda cert: weight_blocks(cert, m.spaces, rebuilt.spaces)
    assert _verify_certificate(m, report.entries, blocks(report.certificate)).blocks == report.map.blocks
    weights = rebuilt.weights
    i, j = next((i, j) for i in range(m.dim) for j in range(m.dim) if m.weights[i] != weights[j])
    off = linalg.mat_copy(report.certificate)
    off[i][j] = m.field.one
    assert blocks(off) is None
    j1, j2 = next((j1, j2) for j1 in range(m.dim) for j2 in range(j1 + 1, m.dim) if weights[j1] == weights[j2])
    deficient = linalg.mat_copy(report.certificate)
    for row in deficient:
        row[j2] = row[j1]
    with pytest.raises(ClassificationError, match="not invertible"):
        _verify_certificate(m, report.entries, blocks(deficient))
    j = next(j for j in range(m.dim) if any(rebuilt.mat_e[j]) or any(rebuilt.mat_f[j]))
    rescaled = linalg.mat_copy(report.certificate)
    for row in rescaled:
        row[j] = row[j] * m.field.from_fraction(2)
    with pytest.raises(ClassificationError, match="intertwine [EF]"):
        _verify_certificate(m, report.entries, blocks(rescaled))


def test_submodule_rejects_columns_outside_a_submodule():
    m = irreducible(3, 1, 3)
    zero, one = m.field.zero, m.field.one
    with pytest.raises(ValueError, match="do not span a submodule"):
        column_submodule(m, [[zero, zero, one]])  # E a_2 is a multiple of a_1
    with pytest.raises(ValueError, match="K-homogeneous"):
        column_submodule(m, [[one, one, zero]])


def test_casimir_blocks_reject_an_off_weight_action():
    for gen in ("E", "F"):
        with pytest.raises(ValueError, match="off its weight blocks"):
            block_decompose(_off_weight(gen))


def graded_sources():
    """Modules from every constructor, combinator and loader, and a scrambled sum."""
    field = CycField(6)
    zero, one, two = field.zero, field.one, field.from_fraction(2)
    glued = build_glued(3, -1, 2, QuiverRep(2, 2, [[one, zero], [two, one]], [[zero, one], [one, two]], field))
    x, p_mod = irreducible(3, 1, 2), build_p(3, -1, 1)
    soc, _ = column_submodule(p_mod, socle_columns(p_mod))
    yield from (irreducible(3, -1, 3), glued, build_w2(3, 1, 1), build_m2(3, -1, 2),
                build_o1(3, 1, 1, CP1.of(3, 1, 2)), p_mod, soc)
    yield from (direct_sum(x, p_mod), tensor(x, p_mod), dual(p_mod))
    yield from (regular_module(2), coerce_field(build_p(2, 1, 1), 8), QMod.from_json(glued.to_json()))
    yield from (glued.relabel("G"), column_submodule(p_mod, [])[0], dual(dual(glued)),
                coerce_field(direct_sum(irreducible(2, 1, 2), build_p(2, -1, 1)), 8))
    rng = random.Random(5)
    yield scrambled_sum(3, random_labels(3, rng, 3), rng)


def test_cached_grading_matches_the_dense_slices():
    for m in graded_sources():
        spaces = weight_spaces(m.weights)
        q = CycField(2 * m.p).gen().embed(m.field.order)
        assert m.spaces == spaces and all(k in range(2 * m.p) for k in m.weights), m
        assert all(m.mat_k[i][i] == q ** k for i, k in enumerate(m.weights)) and m.qpow(1) == q, m
        for gen, shift in (("E", q * q), ("F", (q * q).inv())):
            assert all(m.qpow(m.shift(k, gen)) == shift * m.qpow(k) for k in spaces), (m, gen)
            rows = {k: spaces.get(m.shift(k, gen), []) for k in spaces}
            blocks = m.blocks(gen)
            assert blocks == weight_blocks(m.mat(gen), rows, spaces), (m, gen)
            assert blocks is m.blocks(gen)
            rebuilt = linalg.zeros(m.field, m.dim, m.dim)  # the blocks put back hold every entry of the matrix
            for lam, blk in blocks.items():
                for r, row in zip(rows[lam], blk):
                    for c, x in zip(spaces[lam], row):
                        rebuilt[r][c] = x
            assert linalg.mat_eq(rebuilt, m.mat(gen)), (m, gen)


def test_off_block_action_fails_with_one_message():
    for gen in ("E", "F"):
        m = _off_weight(gen)
        for run in (lambda: column_submodule(m, linalg.identity(m.field, m.dim)), lambda: list(casimir_blocks(m)),
                    lambda: _top_vectors(m, 1, 3, partial(qmodules.weight_basis, m))):
            with pytest.raises(ValueError, match="^E or F has an entry off its weight blocks$"):
                run()


def test_off_block_module_is_reported_by_verify_module_and_refused_elsewhere():
    # the dense constructor keeps a generator with an off-block entry as such:
    # verify_module names it, and every reader of that generator raises
    for gen, violation in (("E", "KEK^-1 != q^2 E"), ("F", "KFK^-1 != q^-2 F")):
        m = _off_weight(gen)
        assert violation in verify_module(m).violations
        view = (lambda: m.mat_e) if gen == "E" else (lambda: m.mat_f)
        for run in (view, lambda: m.mat(gen), lambda: m.blocks(gen), lambda: m.apply(gen, m.mat_k[0]),
                    lambda: m.to_json(), lambda: direct_sum(m, m), lambda: dual(m)):
            with pytest.raises(ValueError, match="^E or F has an entry off its weight blocks$"):
                run()
        assert verify_module(m.relabel("broken")).violations == verify_module(m).violations


def test_direct_sum_blocks_are_block_diagonal():
    rng = random.Random(17)
    parts = [irreducible(3, 1, 2), scrambled_sum(3, random_labels(3, rng, 2), rng), build_p(3, -1, 1), dual(build_w2(3, 1, 1))]
    m = direct_sum(*parts)
    for gen in ("E", "F", "K"):
        want, off = linalg.zeros(m.field, m.dim, m.dim), 0
        for part in parts:
            for i, row in enumerate(part.mat(gen)):
                want[off + i][off:off + part.dim] = row
            off += part.dim
        assert linalg.mat_eq(m.mat(gen), want), gen
    assert verify_module(m).ok


def test_tensor_needs_modules_over_the_same_field():
    x = irreducible(2, 1, 2)
    with pytest.raises(ValueError, match="^tensor needs modules over the same algebra$"):
        tensor(coerce_field(x, 8), x)
    with pytest.raises(ValueError, match="^tensor needs modules over the same algebra$"):
        tensor(irreducible(3, 1, 2), x)


def test_package_paths_scan_no_built_module_and_derive_no_dense_action(monkeypatch):
    """weight_blocks runs only in the dense constructor, called by the
    canonical builders: no module map is sliced, not even the certificate
    of a decomposition, which is kept as weight blocks; no E or F view is
    derived at all, so no module built by direct_sum, submodule, dual or
    relabel derives one."""
    rng = random.Random(713)
    sums = [scrambled_sum(p, random_labels(p, rng, rng.randint(1, 4)), rng) for p in (2, 3) * 5]
    reg = regular_module(3)
    scans, views = [], []
    real_blocks, real_mat = qmodules.weight_blocks, QMod.mat

    def spy_blocks(mat, rows, cols):
        frame = sys._getframe(1)
        while frame.f_code.co_name.startswith("<"):  # a comprehension: look at the function it runs in
            frame = frame.f_back
        caller = frame.f_code.co_name
        scans.append((caller, frame.f_back.f_code.co_name if caller == "__init__" else type(rows)))
        return real_blocks(mat, rows, cols)

    def spy_mat(self, gen):
        if gen != "K":
            views.append((self, gen))
        return real_mat(self, gen)

    monkeypatch.setattr(qmodules, "weight_blocks", spy_blocks)
    monkeypatch.setattr(QMod, "mat", spy_mat)
    for m in sums + [reg]:
        decompose(m)
    minimal_resolution(irreducible(5, 1, 1), 5)
    category._resolution.cache_clear()  # so that ext_dim and yoneda resolve afresh under the spies
    assert ext_dim(3, (1, 1), (-1, 2), 3) == 4
    gens = ext_basis_x(3, 1, 1)
    assert not yoneda(gens[(1, 2)], yoneda(gens[(-1, 1)], gens[(1, 1)])).is_zero()
    assert views == []
    assert {caller for caller, _ in scans} == {"__init__"}
    assert {how for caller, how in scans} <= {"irreducible", "build_glued", "build_p"}
