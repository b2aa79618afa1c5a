"""Seeded inputs and known answers for the two benchmark workloads.

A pass is the workload's fixed input size: a list of job specs, plain
JSON that the benchmark draws once per run and hands to every process
that times the pass.  ``build_job`` turns a spec into a short list of
operations that run in order (a Yoneda word is built one product at a
time); modules travel as ``QMod.to_json`` output and are read back with
``QMod.from_json``, as the CLI reads them, so drawing the inputs warms
no cache of the timed process.  Every operation carries the answer it
must produce, taken from the paper's closed forms or from how the input
was built, never from the library itself.

The cost of a scrambled direct sum swings by up to 2x with its base
change, the signs of its summands and even the order of its basis, and
that of a canonical sum moves with the order of its summands, so
the direct sums are fixed: the scrambled ones are the first 40 of the
criterion-7 corpus, drawn from its own seed, and the canonical ones are
drawn by the same generator from that seed.  The run's ``--seed``
orders the jobs and picks the signs and O-family points of the resolved
modules and the Yoneda words; the order in which the Ext table is
requested decides which requests extend a cached resolution and which
reuse it.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from typing import Callable

from uqslcat import algebra, braiding, category, linalg, qmodules
from uqslcat.category import IndecLabel
from uqslcat.cyclotomic import CycField

DESIGN_SEED = 713  # the criterion-7 corpus seed of the acceptance tests


@dataclass
class Op:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], bool]


Job = list  # of Op, run in order


@dataclass
class Workload:
    name: str
    ps: tuple[int, ...]  # the p values whose algebra and Casimir the CLI sets up
    make_pass: Callable[[random.Random], list[dict]]  # job specs


# -- input helpers (copies of the acceptance-test helpers) ---------------------------


def sample_zs(p: int) -> list[qmodules.CP1]:
    """Seven-point sample of the projective line."""
    q = CycField(2 * p).gen()
    of = qmodules.CP1.of
    return [of(p, 1, 0), of(p, 0, 1), of(p, 1, 1), of(p, 1, -1), of(p, 1, 2), of(p, 1, q), of(p, 2, 1)]


def scramble(m: qmodules.QMod, rng: random.Random) -> qmodules.QMod:
    """Conjugate by a random invertible K-homogeneous integer base change."""
    field = m.field
    by_weight: dict = {}
    for i, w in enumerate(m.weights):
        by_weight.setdefault(w, []).append(i)
    g = linalg.zeros(field, m.dim, m.dim)
    for idxs in by_weight.values():
        k = len(idxs)
        while True:
            block = [[field.from_fraction(rng.randint(-2, 2)) for _ in range(k)] for _ in range(k)]
            if linalg.rank(block) == k:
                break
        for a, ia in enumerate(idxs):
            for b, ib in enumerate(idxs):
                g[ia][ib] = block[a][b]
    ginv = linalg.inverse(g)
    me = linalg.mat_mul(ginv, linalg.mat_mul(m.mat_e, g))
    mf = linalg.mat_mul(ginv, linalg.mat_mul(m.mat_f, g))
    return qmodules.QMod(m.p, me, mf, m.weights, field=field)


# -- direct sums --------------------------------------------------------------------


def labels_for(p: int, rng: random.Random, summands: tuple[int, int]) -> list[IndecLabel]:
    """Random indecomposables from the X/W/M/O/P families, as criterion 7 draws them."""
    zs = sample_zs(p)
    labels = []
    for _ in range(rng.randint(*summands)):
        fam = rng.choice("XWMOP")
        a = rng.choice([1, -1])
        if fam == "X":
            labels.append(IndecLabel("X", a, rng.randint(1, p)))
        elif fam == "P":
            labels.append(IndecLabel("P", a, rng.randint(1, p - 1)))
        elif fam in "WM":
            labels.append(IndecLabel(fam, a, rng.randint(1, p - 1), rng.randint(2, 4)))
        else:
            labels.append(IndecLabel("O", a, rng.randint(1, p - 1), rng.randint(1, 4),
                                     rng.choice(zs)))
    return labels


def criterion7_corpus(count: int) -> list[tuple[list[IndecLabel], qmodules.QMod]]:
    """The first ``count`` scrambled direct sums of the criterion-7 corpus,
    drawn exactly as the acceptance test draws them."""
    rng = random.Random(DESIGN_SEED)
    corpus = []
    for trial in range(count):
        p = 2 if trial % 2 == 0 else 3
        labels = labels_for(p, rng, (1, 4))
        corpus.append((labels, scramble(qmodules.direct_sum(*[lbl.rebuild(p) for lbl in labels]), rng)))
    return corpus


def canonical_designs(count: int) -> list[tuple[int, list[IndecLabel]]]:
    """Summand lists at p = 3, 4, 5 with 2 to 6 summands, from the design seed."""
    rng = random.Random(DESIGN_SEED)
    return [(p, labels_for(p, rng, (2, 6))) for p in ((3, 4, 5)[i % 3] for i in range(count))]


def multiset(labels) -> dict[str, int]:
    out: dict[str, int] = {}
    for lbl in labels:
        out[str(lbl)] = out.get(str(lbl), 0) + 1
    return out


def regular_multiset(p: int) -> dict[str, int]:
    """A Frobenius algebra holds each projective cover dim(top) times."""
    want = {f"X{c}_{p}": p for c in "+-"}
    for s in range(1, p):
        want.update({f"P{c}_{s}": s for c in "+-"})
    return want


def decompose_spec(kind: str, m: qmodules.QMod, labels) -> dict:
    return {"op": "decompose", "kind": kind, "module": m.to_json(), "want": multiset(labels)}


def scrambled_pass(rng: random.Random) -> list[dict]:
    jobs = [decompose_spec("decompose_scrambled", m, labels) for labels, m in criterion7_corpus(40)]
    rng.shuffle(jobs)
    return jobs


def canonical_jobs() -> list[dict]:
    jobs = []
    for p, labels in canonical_designs(20):
        m = qmodules.direct_sum(*[lbl.rebuild(p) for lbl in labels])
        jobs.append(decompose_spec("decompose_canonical", m, labels))
    for p in (2, 3, 4):
        jobs.append({"op": "decompose", "kind": "decompose_regular",
                     "module": qmodules.regular_module(p).to_json(), "want": regular_multiset(p)})
    return jobs


# -- Ext, Yoneda and resolutions -----------------------------------------------------

EXT_DEPTH = {2: 8, 3: 8, 4: 6, 5: 5}  # the Ext table is requested up to this degree


def ext_want(p: int, source, target, n: int) -> int:
    """dim Ext^n between irreducibles (criterion 4): the Steinberg modules
    are projective; otherwise Ext^n(X, X) = n + 1 in even degrees and
    Ext^n(X_(a,s), X_(-a,p-s)) = n + 1 in odd degrees."""
    a, s = source
    if s == p:
        return 1 if n == 0 and target == source else 0
    if target == source:
        return n + 1 if n % 2 == 0 else 0
    if target == (-a, p - s):
        return n + 1 if n % 2 == 1 else 0
    return 0


def yoneda_job(p: int, s: int, indices) -> Job:
    """The degree-one generators of the block of X_(+,s), the two mixed-sum
    relations, and alternating words of one gluing index up to degree 6,
    which survive (criterion 6)."""
    state: dict = {}
    partner = (-1, p - s)

    def gens():
        state["g"] = category.ext_basis_x(p, 1, s)
        return state["g"]

    def gens_ok(g):
        ends = {1: ((1, s), partner), -1: (partner, (1, s))}
        return len(g) == 4 and all(
            c.degree == 1 and (c.source, c.target) == ends[sign] and not c.is_zero()
            for (sign, _), c in g.items())

    def relation(first):
        g = state["g"]
        return (category.yoneda(g[(-first, 1)], g[(first, 2)])
                + category.yoneda(g[(-first, 2)], g[(first, 1)]))

    def step(index, degree):
        def run():
            g = state["g"]
            word = g[(1, index)] if degree == 2 else state["w"]
            state["w"] = category.yoneda(g[(-1 if degree % 2 == 0 else 1, index)], word)
            return state["w"]
        return run

    job = [Op("ext_basis_x", gens, gens_ok)]
    for first in (1, -1):
        job.append(Op("yoneda_relation", lambda first=first: relation(first), lambda c: c.is_zero()))
    for index in indices:
        for degree in range(2, 7):
            job.append(Op("yoneda_word", step(index, degree),
                          lambda c, d=degree: c.degree == d and not c.is_zero()))
    return job


def resolution_content(label: IndecLabel, p: int, length: int) -> list:
    """Terms of the minimal resolution of W, M and O modules: the syzygy
    raises a preprojective by one step, lowers a preinjective until it
    turns into a preprojective, and keeps the regular tube size."""
    a, s, n = label.a, label.s, label.n
    out = []
    for k in range(length + 1):
        if label.family == "W":
            sign, mult = a * (-1) ** k, n + k
        elif label.family == "O":
            sign, mult = a * (-1) ** k, n
        elif k <= n - 2:
            sign, mult = a * (-1) ** k, n - 1 - k
        else:
            sign, mult = a * (-1) ** (k - 1), k - n + 2
        out.append([[[sign, s if sign == a else p - s], mult]])
    return out


def resolution_spec(label: IndecLabel, p: int, length: int = 4) -> dict:
    return {"op": "minimal_resolution", "module": label.rebuild(p).to_json(), "length": length,
            "want": resolution_content(label, p, length)}


def ext_jobs(rng: random.Random) -> list[dict]:
    jobs = []
    for p, top in EXT_DEPTH.items():
        irreps = [(a, s) for a in (1, -1) for s in range(1, p + 1)]
        jobs += [{"op": "ext_dim", "p": p, "source": source, "target": target, "n": n,
                  "want": ext_want(p, source, target, n)}
                 for source in irreps for target in irreps for n in range(top + 1)]
    for p in (2, 3):
        for s in range(1, p):
            jobs.append({"op": "yoneda", "p": p, "s": s, "indices": rng.sample((1, 2), 2)})
    for p in (2, 3, 4):
        a = rng.choice((1, -1))
        jobs += [resolution_spec(IndecLabel("W", a, 1, 3), p),
                 resolution_spec(IndecLabel("M", a, 1, 3), p),
                 resolution_spec(IndecLabel("O", a, 1, 2, rng.choice(sample_zs(p))), p)]
    return jobs


# -- Hopf algebra and braiding -------------------------------------------------------


def hopf_jobs() -> list[dict]:
    jobs = [{"op": "verify_hopf", "p": p} for p in range(2, 6)]
    jobs += [{"op": "verify_hopf_broken"}, {"op": "verify_quasitriangular"},
             {"op": "verify_ribbon"}, {"op": "ribbon_scalars"}]
    jobs += [{"op": "center_basis", "p": p} for p in range(2, 6)]
    return jobs


def canonical_mix_pass(rng: random.Random) -> list[dict]:
    """Everything that keeps its numbers small: canonical decompositions,
    the Ext table, Yoneda products, resolutions, the Hopf and braiding
    checks.  One workload holds them all so that each run has the time
    for enough repetitions of the scrambled sums too."""
    jobs = canonical_jobs() + ext_jobs(rng) + hopf_jobs()
    rng.shuffle(jobs)
    return jobs


# -- operations, built from the specs in the process that times them -------------


def build_job(spec: dict) -> Job:
    """The operations of one job spec; modules arrive as JSON, as the CLI
    reads them."""
    kind = spec["op"]
    if kind == "decompose":
        m, want = qmodules.QMod.from_json(spec["module"]), spec["want"]
        return [Op(spec["kind"], lambda: category.decompose(m), lambda rep: rep.multiset() == want)]
    if kind == "ext_dim":
        p, n, want = spec["p"], spec["n"], spec["want"]
        source, target = tuple(spec["source"]), tuple(spec["target"])
        return [Op(kind, lambda: category.ext_dim(p, source, target, n), lambda got: got == want)]
    if kind == "yoneda":
        return yoneda_job(spec["p"], spec["s"], spec["indices"])
    if kind == "minimal_resolution":
        m, length, want = qmodules.QMod.from_json(spec["module"]), spec["length"], spec["want"]
        return [Op(kind, lambda: category.minimal_resolution(m, length),
                   lambda res: json.loads(json.dumps(res.content)) == want)]
    if kind == "verify_hopf":
        return [Op(kind, lambda: algebra.verify_hopf(spec["p"]), lambda rep: rep.passed)]
    if kind == "verify_hopf_broken":
        return [Op(kind, lambda: algebra.verify_hopf(2, break_delta_e=True),
                   lambda rep: not rep.passed)]
    if kind == "verify_quasitriangular":
        return [Op(kind, lambda: braiding.verify_quasitriangular(2),
                   lambda axioms: bool(axioms) and all(axioms.values()))]
    if kind == "verify_ribbon":
        return [Op(kind, lambda: braiding.verify_ribbon(2),
                   lambda axioms: bool(axioms) and all(axioms.values()))]
    if kind == "ribbon_scalars":
        return [Op(kind, lambda: braiding.ribbon_scalars(2),
                   lambda scalars: scalars["X+_1"] == CycField(8).one)]
    if kind == "center_basis":
        p = spec["p"]
        return [Op(kind, lambda: algebra.center_basis(p), lambda basis: len(basis) == 3 * p - 1)]
    raise ValueError(f"unknown operation {kind!r}")


WORKLOADS = {
    w.name: w
    for w in (
        Workload("scrambled_sums", (2, 3), scrambled_pass),
        Workload("canonical_mix", (2, 3, 4, 5), canonical_mix_pass),
    )
}
