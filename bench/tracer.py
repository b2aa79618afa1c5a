"""Outside-in tracer: wraps the public functions of the uqslcat modules.

Nothing under ``src/`` is edited.  Every public function defined in a
layer module is replaced, on that module and on every uqslcat module that
imported it by name, with a wrapper that records a span (name, start,
end, parent) and per-name counts.  ``Resolution.extend_to`` is wrapped on
its class.  At the ``linalg.rref`` and ``kronecker.classify`` boundaries
the wrapper also records matrix cells and coefficient bit sizes; the
time spent on that is taken out of every open span and reported as
``probe_seconds``.  Untraced runs never call ``install``.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import random
import time
from array import array

LAYERS = ("cyclotomic", "linalg", "polys", "algebra", "qmodules", "kronecker",
          "category", "braiding")
MAX_SPANS = 2_000_000  # 24 bytes each in memory; later spans are counted, not kept
OPERAND_SEED = 1  # fixes which rref entries the cyclotomic micro-layer times


def max_bits(mat) -> int:
    """Largest bit size of a numerator or denominator among the CycNum entries."""
    top = 0
    for row in mat:
        for x in row:
            top = max(top, x.den, max(x.num), -min(x.num))
    return top.bit_length()


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_id: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.dropped = 0
        self.stack: list[list] = []  # [span index, name id, child s, start, probe s at start]
        self.probe_seconds = 0.0  # spent measuring bit sizes, kept out of every span
        self._replaced: list[tuple] = []  # (owner, attribute, original)
        self.calls: dict[int, int] = {}
        self.busy: dict[int, float] = {}
        self.self_time: dict[int, float] = {}
        self.depth: dict[int, int] = {}
        self.counters: dict[str, int] = {"linalg.rref_cells": 0, "linalg.rref_max_in_bits": 0,
                                         "linalg.rref_max_out_bits": 0,
                                         "kronecker.classify_max_in_bits": 0}
        self.operands: list[tuple] = []  # (x, y) pairs sampled from rref inputs
        self._operand_rng = random.Random(OPERAND_SEED)
        self._operand_firsts: set = set()
        self._rref_seen = 0

    # -- spans ------------------------------------------------------------------

    def _id(self, name: str) -> int:
        nid = self.name_id.get(name)
        if nid is None:
            nid = self.name_id[name] = len(self.names)
            self.names.append(name)
            self.calls[nid] = 0
            self.busy[nid] = 0.0
            self.self_time[nid] = 0.0
            self.depth[nid] = 0
        return nid

    def enter(self, nid: int) -> list:
        parent = self.stack[-1][0] if self.stack else -1
        idx = len(self.span_start)
        start = time.perf_counter()
        if idx < MAX_SPANS:
            self.span_name.append(nid)
            self.span_parent.append(parent)
            self.span_start.append(start)
            self.span_end.append(0.0)
        else:
            idx = -1
            self.dropped += 1
        frame = [idx, nid, 0.0, start, self.probe_seconds]
        self.depth[nid] += 1
        self.stack.append(frame)
        return frame

    def leave(self, frame: list) -> None:
        end = time.perf_counter()
        self.stack.pop()
        idx, nid, child, start, probed = frame
        elapsed = end - start - (self.probe_seconds - probed)
        if idx >= 0:
            self.span_end[idx] = end
        self.calls[nid] += 1
        self.self_time[nid] += elapsed - child
        self.depth[nid] -= 1
        if self.depth[nid] == 0:  # a recursive call is busy time once
            self.busy[nid] += elapsed
        if self.stack:
            self.stack[-1][2] += elapsed

    def span(self, name: str, fn, *args, **kwargs):
        frame = self.enter(self._id(name))
        try:
            return fn(*args, **kwargs)
        finally:
            self.leave(frame)

    # -- wrapping -------------------------------------------------------------------

    def wrap(self, name: str, fn):
        nid = self._id(name)
        before = {"linalg.rref": self._rref_in, "kronecker.classify": self._classify_in}.get(name)
        after = self._rref_out if name == "linalg.rref" else None
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                tracer.probe(before, *args)
            frame = tracer.enter(nid)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.leave(frame)
            if after is not None:
                tracer.probe(after, out)
            return out

        return wrapper

    def probe(self, fn, *args) -> None:
        start = time.perf_counter()
        fn(*args)
        self.probe_seconds += time.perf_counter() - start

    def _rref_in(self, mat, *_):
        if not mat or not mat[0]:
            return
        c = self.counters
        c["linalg.rref_cells"] += len(mat) * len(mat[0])
        c["linalg.rref_max_in_bits"] = max(c["linalg.rref_max_in_bits"], max_bits(mat))
        self._sample_operands(mat)

    def _rref_out(self, out):
        c = self.counters
        c["linalg.rref_max_out_bits"] = max(c["linalg.rref_max_out_bits"], max_bits(out[0]))

    def _classify_in(self, rep, *_):
        c = self.counters
        c["kronecker.classify_max_in_bits"] = max(
            c["kronecker.classify_max_in_bits"], max_bits(rep.r), max_bits(rep.rbar))

    def _sample_operands(self, mat, keep: int = 128, tries: int = 16) -> None:
        """Reservoir sample of nonzero entry pairs, one pair per rref call;
        the first entries of the kept pairs are distinct."""
        rng = self._operand_rng
        picks = [mat[rng.randrange(len(mat))][rng.randrange(len(mat[0]))] for _ in range(tries)]
        nonzero = [x for x in picks if x]
        if not nonzero or nonzero[0] in self._operand_firsts:
            return
        pair = (nonzero[0], nonzero[-1])
        self._rref_seen += 1
        if len(self.operands) < keep:
            self.operands.append(pair)
        else:
            slot = rng.randrange(self._rref_seen)
            if slot >= keep:
                return
            self._operand_firsts.discard(self.operands[slot][0])
            self.operands[slot] = pair
        self._operand_firsts.add(pair[0])

    def install(self) -> None:
        """Replace every public function of the layer modules, wherever a
        uqslcat module holds it, with its wrapper."""
        import uqslcat

        wrappers = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"uqslcat.{layer}")
            for attr, obj in vars(mod).items():
                if not attr.startswith("_") and inspect.isfunction(obj) \
                        and obj.__module__ == mod.__name__:
                    wrappers[obj] = self.wrap(f"{layer}.{attr}", obj)
        modules = [importlib.import_module(f"uqslcat.{layer}") for layer in LAYERS]
        modules += [uqslcat] + [importlib.import_module("uqslcat.cli")]
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._replace(mod, attr, wrappers[obj])
        resolution = importlib.import_module("uqslcat.category").Resolution
        self._replace(resolution, "extend_to", self.wrap("category.extend_to", resolution.extend_to))

    def _replace(self, owner, attr: str, wrapper) -> None:
        self._replaced.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._replaced):
            setattr(owner, attr, original)
        self._replaced.clear()

    # -- results --------------------------------------------------------------------

    def stats(self, name: str) -> tuple[int, float, float]:
        """(calls, busy seconds, self seconds) of one wrapped name."""
        nid = self.name_id.get(name)
        if nid is None:
            return 0, 0.0, 0.0
        return self.calls[nid], self.busy[nid], self.self_time[nid]

    def table(self) -> list[tuple[str, int, float, float]]:
        rows = [(name, *self.stats(name)) for name in self.names]
        return sorted(rows, key=lambda row: -row[3])

    def write_spans(self, path) -> None:
        """One line per span: index, parent index, name, start and end in
        microseconds from the first span."""
        t0 = self.span_start[0] if len(self.span_start) else 0.0
        with gzip.open(path, "wt") as out:
            out.write("id,parent,name,start_us,end_us\n")
            for i in range(len(self.span_start)):
                out.write(f"{i},{self.span_parent[i]},{self.names[self.span_name[i]]},"
                          f"{(self.span_start[i] - t0) * 1e6:.1f},{(self.span_end[i] - t0) * 1e6:.1f}\n")
