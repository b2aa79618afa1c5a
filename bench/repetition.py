#!/usr/bin/env python3
"""One repetition of a benchmark pass, in a fresh interpreter.

    python3 bench/repetition.py P_VALUES [PASS_JSON [SPANS_CSV_GZ]]

``run.py`` starts this once per repetition, so every repetition starts
like a fresh CLI call: no cache of the package holds anything yet.  It
sets up as the CLI does (the imports, then ``base_algebra`` and
``casimir`` for each of the comma-separated p values), reads the job
specs of the pass, runs every operation in order, closed loop, and
checks each against its known answer.  Without a pass it stops after
the set-up.

Times are the process's own CPU time (user plus system; the process has
one thread), which leaves out the time the host gives to other work.
``setup_s`` runs from the start of the interpreter to the end of the
set-up.  CPU time still varies with how fast the host runs the process
(by up to 1.6x from one second to the next on a shared machine), so the
process also times a fixed piece of plain-Python work, the calibration
sample: three times right after the set-up, before the first operation,
and then after every ``CALIBRATE_EVERY_S`` of operations.  ``run.py``
scales the times by it.  With a spans path, every public function of the
package is wrapped before the pass, and the per-layer metrics are
reported; the spans are written to that path.  Prints one JSON object.
"""

from __future__ import annotations

import gc
import json
import random
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
# (metric, wrapped name, statistic): statistic is calls, busy or self seconds
LAYER_STATS = (
    ("linalg.rref_calls", "linalg.rref", "calls"),
    ("linalg.rref_s", "linalg.rref", "busy"),
    ("linalg.mat_mul_calls", "linalg.mat_mul", "calls"),
    ("linalg.mat_mul_s", "linalg.mat_mul", "busy"),
    ("qmodules.intertwiner_basis_calls", "qmodules.intertwiner_basis", "calls"),
    ("qmodules.intertwiner_basis_s", "qmodules.intertwiner_basis", "busy"),
    ("qmodules.intertwiner_basis_self_s", "qmodules.intertwiner_basis", "self"),
    ("qmodules.action_matrix_s", "qmodules.action_matrix", "busy"),
    ("qmodules.submodule_s", "qmodules.submodule", "busy"),
    ("qmodules.radical_columns_s", "qmodules.radical_columns", "busy"),
    ("qmodules.socle_columns_s", "qmodules.socle_columns", "busy"),
    ("qmodules.verify_module_s", "qmodules.verify_module", "busy"),
    ("category.block_decompose_s", "category.block_decompose", "busy"),
    ("category.top_of_s", "category.top_of", "busy"),
    ("category.decompose_self_s", "category.decompose", "self"),
    ("category.projective_cover_s", "category.projective_cover", "busy"),
    ("category.extend_to_calls", "category.extend_to", "calls"),
    ("category.extend_to_s", "category.extend_to", "busy"),
    ("category.yoneda_s", "category.yoneda", "busy"),
    ("kronecker.classify_calls", "kronecker.classify", "calls"),
    ("kronecker.classify_s", "kronecker.classify", "busy"),
    ("kronecker.functor_F_s", "kronecker.functor_F", "busy"),
    ("kronecker.rep_hom_basis_s", "kronecker.rep_hom_basis", "busy"),
    ("polys.roots_in_field_s", "polys.roots_in_field", "busy"),
    ("algebra.verify_hopf_s", "algebra.verify_hopf", "busy"),
    ("algebra.center_basis_s", "algebra.center_basis", "busy"),
    ("braiding.verify_quasitriangular_s", "braiding.verify_quasitriangular", "busy"),
    ("braiding.verify_ribbon_s", "braiding.verify_ribbon", "busy"),
)


CALIBRATE_EVERY_S = 0.25  # CPU seconds of operations between two calibration samples
CALIBRATION_SIZE = 12
# CPU seconds of one calibration sample on the reference host; on a 2-vCPU
# x86-64 VM under Python 3.11.7 samples read 3.3 to 6.4 ms
REFERENCE_SAMPLE_S = 0.004
_rng = random.Random(12)
CALIBRATION_MATRIX = [[_rng.randrange(-2**40, 2**40) for _ in range(CALIBRATION_SIZE)]
                      for _ in range(CALIBRATION_SIZE)]


def calibration_sample(rounds: int = 4) -> float:
    """CPU seconds of a fixed piece of work that runs no package code:
    fraction-free elimination of a fixed integer matrix (entries grow to
    about 500 bits) and a few thousand dict stores, with the collector
    off so that the package's heap does not change its cost."""
    gc.disable()
    start = time.process_time()
    for _ in range(rounds):
        m = [row[:] for row in CALIBRATION_MATRIX]
        prev = 1
        for k in range(CALIBRATION_SIZE - 1):
            pivot_row, pivot = m[k], m[k][k]
            for row in m[k + 1:]:
                f = row[k]
                for j in range(k + 1, CALIBRATION_SIZE):
                    row[j] = (row[j] * pivot - f * pivot_row[j]) // prev
            prev = pivot
        d = {}
        for i in range(4000):
            d[i * 2654435761 % 10007] = i
    elapsed = time.process_time() - start
    gc.enable()
    return elapsed


def cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def run_pass(jobs, tracer=None) -> tuple[list[str], list[float], int, list[float]]:
    """Run every operation of one pass; returns kinds, latencies, failures
    and calibration samples, each as [operations run before it, seconds]."""
    kinds, latencies, failed = [], [], 0
    samples, since = [[0, calibration_sample()]], 0.0
    for job in jobs:
        for op in job:
            if since >= CALIBRATE_EVERY_S:
                samples.append([len(latencies), calibration_sample()])
                since = 0.0
            start = time.process_time()
            try:
                out = tracer.span(f"op.{op.kind}", op.run) if tracer else op.run()
                latencies.append(time.process_time() - start)
                ok = op.check(out)
            except Exception:  # one op failing must not stop the run
                latencies.append(time.process_time() - start)
                traceback.print_exc(limit=3)
                ok = False
            kinds.append(op.kind)
            since += latencies[-1]
            if not ok:
                failed += 1
                print(f"FAILED {op.kind}", file=sys.stderr)
    samples.append([len(latencies), calibration_sample()])
    return kinds, latencies, failed, samples


def cyclotomic_micro(pairs, reps: int = 7) -> dict[str, float]:
    """Microseconds per CycNum mul, add and inv on the sampled operands, in
    reference time: each repetition is scaled by a calibration sample
    taken just before it.  The first operands of the pairs are distinct
    and the inverse cache is emptied before each inv repetition, so every
    inv is computed, not looked up."""
    from uqslcat import cyclotomic

    per = {"mul": [], "add": [], "inv": []}
    for _ in range(reps):
        speed = REFERENCE_SAMPLE_S / calibration_sample()
        start = time.process_time()
        for x, y in pairs:
            x * y
        per["mul"].append((time.process_time() - start) * speed)
        start = time.process_time()
        for x, y in pairs:
            x + y
        per["add"].append((time.process_time() - start) * speed)
        cyclotomic._inv_core.cache_clear()
        start = time.process_time()
        for x, _ in pairs:
            x.inv()
        per["inv"].append((time.process_time() - start) * speed)
    return {f"cyclotomic.{k}_us": statistics.median(v) / len(pairs) * 1e6 for k, v in per.items()}


def traced_metrics(tracer, inv_before) -> dict[str, float]:
    from uqslcat import cyclotomic

    hits, misses = (a - b for a, b in zip(cyclotomic._inv_core.cache_info()[:2], inv_before))
    metrics = cyclotomic_micro(tracer.operands)
    metrics["cyclotomic.inv_cache_hits"] = hits
    metrics["cyclotomic.inv_cache_misses"] = misses
    metrics.update(tracer.counters)
    for metric, name, stat in LAYER_STATS:
        calls, busy, self_s = tracer.stats(name)
        metrics[metric] = {"calls": calls, "busy": busy, "self": self_s}[stat]
    return metrics


def main() -> None:
    ps = [int(p) for p in sys.argv[1].split(",")]
    pass_path, spans_path = ([Path(a) for a in sys.argv[2:4]] + [None, None])[:2]

    sys.path.insert(0, str(SRC))
    import uqslcat.cli  # noqa: F401  (the CLI's imports)
    from uqslcat.algebra import base_algebra, casimir

    for p in ps:
        base_algebra(p)
        casimir(p)
    setup_s = cpu_seconds()
    out = {"setup_s": setup_s, "setup_calibration": [calibration_sample() for _ in range(3)]}
    if pass_path is None:
        print(json.dumps(out))
        return

    sys.path.insert(0, str(BENCH))
    import workloads
    from uqslcat import cyclotomic

    jobs = [workloads.build_job(spec) for spec in json.loads(pass_path.read_text())]
    tracer = None
    if spans_path:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install()
    inv_before = cyclotomic._inv_core.cache_info()[:2]
    kinds, latencies, failed, samples = run_pass(jobs, tracer)
    out.update(kinds=kinds, latencies=latencies, failed=failed, calibration=samples,
               peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    if tracer:
        tracer.uninstall()
        out["metrics"] = traced_metrics(tracer, inv_before)
        out["probe_s"] = tracer.probe_seconds
        out["layers"] = [{"name": name, "calls": calls, "busy_s": busy, "self_s": self_s}
                         for name, calls, busy, self_s in tracer.table()]
        tracer.write_spans(spans_path)
        out.update(spans_kept=len(tracer.span_start), spans_dropped=tracer.dropped,
                   operand_pairs=len(tracer.operands))
    print(json.dumps(out))


if __name__ == "__main__":
    main()
