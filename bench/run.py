#!/usr/bin/env python3
"""The uqslcat benchmark: two seeded exact-algebra workloads.

    python3 bench/run.py --workload scrambled_sums --seed 1 --seconds 60 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 60

Run from the repository root; the package is imported from ``src/``.
The seed draws one pass: the workload's fixed input size, a list of job
specs written to ``.bench_out/``.  The run times that pass again and
again while another repetition is expected to end within ``--seconds``
of wall time (at least twice).  Each repetition is a fresh interpreter
(``repetition.py``), so each starts like a fresh CLI call, with every
cache of the package empty; it runs the pass closed loop, one thread,
and checks every operation against its known answer.  Before the
repetitions, ``SETUP_REPEATS`` more interpreters only set up.

Times are CPU time of the repetition's process, scaled to a reference
host speed: each latency is divided by the mean of the calibration
samples taken just before and just after its operation, and multiplied
by ``REFERENCE_SAMPLE_S`` (both are in ``repetition.py``); a set-up
time is scaled by the median of the three samples taken right after it.
A shared machine runs the same code up to 1.6x slower from one second
to the next, which CPU time alone does not remove.  An operation's
latency is the median of its scaled times over the repetitions.
``run_s`` is the sum of those latencies (the time to a solution of the
pass), ``op_p50_s`` their median and ``op_tail_s`` the highest whole
percentile that leaves at least ten operations beyond it.  ``setup_s``
is the median over all interpreters of the time from interpreter start
to the end of the CLI's set-up, ``peak_rss_mb`` the largest peak
resident memory of a repetition.  The per-layer times of a traced pass
are scaled by the ratio of its scaled to its CPU time.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` spends a
third of the budget on plain repetitions, then runs the pass once more
with every public function of the package wrapped, and reports that
pass's per-layer metrics and the tracing overhead: traced time, less the
time spent measuring bit sizes, over the plain pass time, minus one.  Its
spans go to ``.bench_out/``.  The last line of standard output is one
JSON object.
"""

from __future__ import annotations

import argparse
import bisect
import importlib.metadata
import json
import math
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path[:0] = [str(SRC), str(BENCH)]
from repetition import REFERENCE_SAMPLE_S  # noqa: E402
OUT = ROOT / ".bench_out"
WORKLOAD_NAMES = ("scrambled_sums", "canonical_mix")
MIN_REPEATS = 2
SETUP_REPEATS = 6  # set-up-only interpreter starts per run, besides the repetitions


# -- measuring -------------------------------------------------------------------------


def tail_percentile(ops: int) -> int:
    """Highest whole percentile that leaves at least ten operations beyond
    it (p90 at 100 ops)."""
    return min(99, math.floor(100 * (ops - 10) / ops))


def percentile(values, q: int) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


def metadata(workload: str, seed: int) -> dict:
    commit = "unknown"
    if (ROOT / ".git").exists():
        got = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        commit = got.stdout.strip() or commit
    try:
        sympy = importlib.metadata.version("sympy")
    except importlib.metadata.PackageNotFoundError:
        sympy = "absent"
    src_lines = sum(len(f.read_text().splitlines()) for f in (SRC / "uqslcat").glob("*.py"))
    return {"workload": workload, "seed": seed, "nproc": os.cpu_count(),
            "python": platform.python_version(), "sympy": sympy, "commit": commit,
            "src_lines": src_lines}


# -- one run -----------------------------------------------------------------------------


def repetition(ps, *paths: Path) -> dict:
    """One repetition in a fresh interpreter (the set-up alone without a
    pass path); its tracebacks go to stderr."""
    cmd = [sys.executable, str(BENCH / "repetition.py"), ",".join(map(str, ps)), *map(str, paths)]
    got = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(got.stdout.strip().splitlines()[-1])


def scaled_setup(rep: dict) -> float:
    return rep["setup_s"] * REFERENCE_SAMPLE_S / statistics.median(rep["setup_calibration"])


def scaled(rep: dict) -> dict:
    """The repetition with its latencies in reference seconds."""
    at = [i for i, _ in rep["calibration"]]
    sample = [t for _, t in rep["calibration"]]
    latencies = []
    for k, t in enumerate(rep["latencies"]):
        before, after = bisect.bisect_right(at, k) - 1, bisect.bisect_left(at, k + 1)
        latencies.append(t * 2 * REFERENCE_SAMPLE_S / (sample[before] + sample[after]))
    return dict(rep, latencies=latencies, cpu_latencies=rep["latencies"])


def repeat(ps, pass_path: Path, seconds: float, min_repeats: int) -> tuple[list[dict], list[dict]]:
    """Set-ups alone, then repetitions while another one is expected to end
    within the budget."""
    start = time.perf_counter()
    setups = [repetition(ps) for _ in range(SETUP_REPEATS)]
    reps = []
    while len(reps) < min_repeats or \
            (time.perf_counter() - start) * (len(reps) + 1) / len(reps) <= seconds:
        reps.append(scaled(repetition(ps, pass_path)))
    return setups, reps


def op_latencies(reps) -> list[float]:
    return [statistics.median(col) for col in zip(*(r["latencies"] for r in reps))]


def run(workload_name: str, seed: int, seconds: float, trace: bool) -> dict:
    import workloads

    workload = workloads.WORKLOADS[workload_name]
    specs = workload.make_pass(random.Random(f"{workload_name}:{seed}"))
    OUT.mkdir(exist_ok=True)
    pass_path = OUT / f"pass-{workload_name}-seed{seed}.json"
    pass_path.write_text(json.dumps(specs))
    meta = metadata(workload_name, seed)
    setups, reps = repeat(workload.ps, pass_path, seconds / 3 if trace else seconds,
                  1 if trace else MIN_REPEATS)
    lat = op_latencies(reps)
    attempted = sum(len(r["latencies"]) for r in reps)
    failed = sum(r["failed"] for r in reps)
    meta.update(ops_per_pass=len(lat), repeats=len(reps))
    if not trace:
        q = tail_percentile(len(lat))
        return {
            "meta": meta, "attempted": attempted, "failed": failed,
            "ops": [[kind, t] for kind, t in zip(reps[0]["kinds"], lat)],
            "setups": [{k: r[k] for k in ("setup_s", "setup_calibration")} for r in setups + reps],
            "repetitions": [{k: r[k] for k in ("cpu_latencies", "calibration", "peak_rss_mb")}
                            for r in reps],
            "metrics": {
                "setup_s": statistics.median(scaled_setup(r) for r in setups + reps),
                "run_s": sum(lat),
                "op_p50_s": statistics.median(lat),
                "op_tail_s": percentile(lat, q),
                "peak_rss_mb": max(r["peak_rss_mb"] for r in reps),
            },
            "notes": {
                "setup_s": f"median of {len(setups) + len(reps)}",
                "run_s": f"sum of {len(lat)} ops, median of {len(reps)}",
                "op_tail_s": f"p{q} of {len(lat)} ops",
                "failed_frac": f"{failed / attempted:g} ({failed} of {attempted})",
            },
        }

    spans = OUT / f"spans-{workload_name}-seed{seed}.csv.gz"
    traced = scaled(repetition(workload.ps, pass_path, spans))
    metrics, layers = traced["metrics"], traced["layers"]
    speed = sum(traced["latencies"]) / sum(traced["cpu_latencies"])
    for name in metrics:
        if name.endswith("_s"):
            metrics[name] *= speed
    for row in layers:
        row.update(busy_s=row["busy_s"] * speed, self_s=row["self_s"] * speed)
    metrics["trace.overhead_frac"] = (sum(traced["latencies"]) - traced["probe_s"] * speed) \
        / sum(lat) - 1
    meta.update(spans=str(spans.relative_to(ROOT)), probe_s=traced["probe_s"],
                **{k: traced[k] for k in ("spans_kept", "spans_dropped", "operand_pairs")})
    return {
        "meta": meta, "attempted": attempted + len(traced["latencies"]),
        "failed": failed + traced["failed"], "metrics": metrics, "layers": layers,
        "traced_ops": [[kind, t] for kind, t in zip(traced["kinds"], traced["latencies"])],
    }


# -- output --------------------------------------------------------------------------------


def units(trace: bool) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def report(record: dict, trace: bool) -> dict:
    meta = record["meta"]
    print(" ".join(f"{k}={v}" for k, v in meta.items()))
    unit_of = units(trace)
    for name, unit in unit_of.items():
        note = record.get("notes", {}).get(name, "")
        print(f"{name:36s} {record['metrics'][name]:>16.6g} {unit:6s} {note}")
    if not trace:
        print(f"{'failed_frac':36s} {record['notes']['failed_frac']}")
    else:
        total = sum(row["busy_s"] for row in record["layers"] if row["name"].startswith("op."))
        print(f"{'wrapped function':36s} {'calls':>12s} {'busy s':>12s} {'share':>8s} {'self s':>12s}")
        for row in record["layers"]:
            print(f"{row['name']:36s} {row['calls']:12d} {row['busy_s']:12.4f} "
                  f"{row['busy_s'] / total:8.1%} {row['self_s']:12.4f}")
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{meta['workload']}-seed{meta['seed']}-trace{int(trace)}.json"
    path.write_text(json.dumps(record, indent=1, default=str))
    return {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": record["metrics"][name], "unit": unit}
                    for name, unit in unit_of.items()},
    }


def run_all(args) -> dict:
    """Each workload in its own process; one row per workload."""
    rows = {}
    for name in WORKLOAD_NAMES:
        got = subprocess.run([sys.executable, str(Path(__file__)), "--workload", name,
                              "--seed", str(args.seed), "--seconds", str(args.seconds),
                              "--trace", str(args.trace)],
                             capture_output=True, text=True, check=True)
        rows[name] = json.loads(got.stdout.strip().splitlines()[-1])
    metrics = list(next(iter(rows.values()))["metrics"])
    print(f"{'workload':18s}" + "".join(f"{m:>24s}" for m in metrics) + f"{'failed_frac':>14s}")
    for name, row in rows.items():
        cells = "".join(f"{row['metrics'][m]['value']:>17.6g} {row['metrics'][m]['unit']:6s}"
                        for m in metrics)
        print(f"{name:18s}{cells}{row['failed'] / row['attempted']:>14g}")
    return {"correct": all(r["correct"] for r in rows.values()),
            "attempted": sum(r["attempted"] for r in rows.values()),
            "failed": sum(r["failed"] for r in rows.values()),
            "workloads": rows}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=60)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "uqslcat" / "__init__.py").is_file():
        print(f"bench: no uqslcat package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        result = run_all(args)
    else:
        result = report(run(args.workload, args.seed, args.seconds, bool(args.trace)),
                        bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
