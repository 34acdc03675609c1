"""Spans around fgbo's public functions, installed from the benchmark's side.

Each wrapper replaces a function where its caller looks it up (for example
``fgbo.engine.fit``, which the engine imported by name), so the package is
run unmodified.  A span is (name, start, end, parent); spans stay in memory
until the run ends.  The layer of a span is the part of its name before the
first dot, and the layers are the package's modules.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

import numpy as np

# Layers whose self time adds up, with the engine's own loop, to the run.
RUN_LAYERS = ("gp", "kernels", "acquisition", "maxsum", "decomposition", "bench")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []

    def wrap(self, name, fn, count=None):
        """Return fn recording one span per call; count(counts, args, result)."""

        def traced(*args, **kwargs):
            index = len(self.spans)
            self.spans.append([name, 0.0, 0.0, self._stack[-1] if self._stack else -1])
            self._stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[index][1] = start
                self.spans[index][2] = end
            if count is not None:
                count(self.counts, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent}))
                fh.write("\n")

    def summary(self) -> dict:
        """Inclusive and self seconds and call counts per span name and layer."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        by_name: dict = defaultdict(lambda: {"s": 0.0, "self_s": 0.0, "calls": 0})
        by_layer: dict = defaultdict(float)
        for i, (name, start, end, parent) in enumerate(self.spans):
            own = (end - start) - child_time[i]
            entry = by_name[name]
            entry["s"] += end - start
            entry["self_s"] += own
            entry["calls"] += 1
            by_layer[name.split(".")[0]] += own
        return {"by_name": dict(by_name), "by_layer": dict(by_layer)}

    def top_level_stages(self, root_name: str) -> dict:
        """Inclusive seconds of the direct children of the root span, by name."""
        roots = {i for i, span in enumerate(self.spans) if span[0] == root_name}
        stages: dict = defaultdict(float)
        for name, start, end, parent in self.spans:
            if parent in roots:
                stages[name] += end - start
        return dict(stages)


def _count_fit(counts, args, posterior):
    if getattr(posterior, "jitter", 0.0) > 0.0:
        counts["gp.jitter_fits"] += 1


def _count_factor_rows(counts, args, result):
    counts["gp.factor_mean_var_rows"] += int(np.atleast_2d(args[2]).shape[0])


def _count_cross_entries(counts, args, result):
    kernel, U, V = args
    counts["kernels.cross_entries"] += int(result.shape[0] * result.shape[1] * kernel.arity)


def _count_tables(counts, args, acq):
    counts["acquisition.table_entries"] += sum(int(t.size) for t in acq.tables)


def _count_solve(counts, args, sol):
    diag = sol.diagnostics
    counts["maxsum.rounds"] += diag.rounds_used
    counts["maxsum.converged"] += int(diag.converged)
    counts["maxsum.message_lookups"] += diag.message_lookups
    counts["maxsum.decode_lookups"] += diag.decode_lookups


def _count_moves(counts, args, moves):
    counts["decomposition.moves_enumerated"] += len(moves)


def install(tracer: Tracer) -> None:
    """Wrap every traced function of the package in place, for this process."""
    from fgbo import decomposition, engine, gp, maxsum

    def patch(owner, attr, name, count=None):
        setattr(owner, attr, tracer.wrap(name, getattr(owner, attr), count))

    patch(engine, "fit", "gp.fit", _count_fit)
    patch(engine, "tabulate", "acquisition.tabulate", _count_tables)
    patch(engine, "solve", "maxsum.solve", _count_solve)
    patch(engine, "sample_posterior", "decomposition.sample_posterior")
    patch(engine, "evaluate", "bench.evaluate")
    patch(engine, "noisy_evaluate", "bench.noisy_evaluate")
    patch(gp, "cross_factor", "kernels.cross_factor", _count_cross_entries)
    patch(gp, "gram", "kernels.gram")
    patch(gp, "cross_additive", "kernels.cross_additive")
    patch(gp.FactorPosterior, "factor_mean_var_batch", "gp.factor_mean_var_batch", _count_factor_rows)
    patch(gp.FactorPosterior, "objective_mean_var_batch", "gp.objective_mean_var_batch")
    patch(maxsum, "decode", "maxsum.decode")
    patch(decomposition, "enumerate_moves", "decomposition.enumerate_moves", _count_moves)
    patch(decomposition, "log_evidence", "decomposition.log_evidence")
    # log_evidence's own call into the GP evidence, looked up in decomposition
    patch(decomposition, "log_marginal_likelihood", "gp.log_marginal_likelihood")
