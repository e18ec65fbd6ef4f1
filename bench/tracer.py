"""In-memory spans around the library's layer functions.

The tracer replaces each traced function, in every ``contagion`` module
that binds it by name, with a wrapper that records one span per call
(name, parent span, task index, start, end) and updates a few counters read
off the call's arguments and result. Nothing in the library is edited:
patches are installed for the traced pass only and removed afterwards.

A span's self time is its duration minus the time covered by its direct
children; a layer's self time is the sum over its spans. Spans stay in
memory until :meth:`Tracer.write_spans` dumps them.
"""

from __future__ import annotations

import contextlib
import functools
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

# Traced functions as (defining module, function name). Every module of the
# package that binds the same object under that name is patched too, so
# calls made through ``contagion.harness`` are caught.
TRACED = (
    ("netgen", "generate"),
    ("netgen", "augment_random_links"),
    ("powerlaw", "fit_discrete"),
    ("balance", "build_exposures"),
    ("balance", "build_balance_sheets"),
    ("clearing", "clear"),
    ("clearing", "cascade_metrics"),
    ("clearing", "total_initial_assets"),
    ("metrics", "summarize"),
    ("metrics", "compute_topo_indices"),
    ("metrics", "index_impact_correlation"),
    ("metrics", "gini"),
    ("harness", "run_experiment"),
)

LAYERS = ("netgen", "powerlaw", "balance", "clearing", "metrics", "harness")


def _count_clear(counters, args, kwargs, solution) -> None:
    scenario = args[2] if len(args) > 2 else kwargs["scenario"]
    size = len(solution.defaulted)
    counters["clearing.iterations"] += solution.iterations
    counters["clearing.defaults"] += size
    counters["clearing.max_cascade"] = max(counters["clearing.max_cascade"], size)
    counters["clearing.single_default"] += solution.defaulted == {scenario.shocked_bank}


def _count_generate(counters, args, kwargs, graph) -> None:
    counters["netgen.links"] += graph.link_count


def _count_augment(counters, args, kwargs, graph) -> None:
    before = args[0] if args else kwargs["graph"]
    counters["netgen.augment.links_added"] += graph.link_count - before.link_count


def _count_fit(counters, args, kwargs, fit) -> None:
    # Mirrors the cutoff search in fit_discrete: distinct values up to the
    # 90th percentile, each of which costs one exponent fit.
    x = np.asarray(args[0] if args else kwargs["samples"], dtype=np.int64)
    values = np.unique(x)
    counters["powerlaw.candidates"] += max(
        1, int((values <= np.quantile(x, 0.9)).sum())
    )


def _count_exposures(counters, args, kwargs, exposures) -> None:
    counters["balance.nnz"] += exposures.nnz


COUNTERS = {
    "clearing.clear": _count_clear,
    "netgen.generate": _count_generate,
    "netgen.augment_random_links": _count_augment,
    "powerlaw.fit_discrete": _count_fit,
    "balance.build_exposures": _count_exposures,
}


class Tracer:
    """Span and counter store for one traced pass."""

    def __init__(self) -> None:
        # Each span: (name, parent index or -1, task index, start, end).
        self.spans: list[tuple[str, int, int, float, float]] = []
        self.counters: dict[str, int] = defaultdict(int)
        self.task = -1
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        count = COUNTERS.get(name)
        spans, stack, counters = self.spans, self._stack, self.counters

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                counters[name + ".errors"] += 1
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[sid] = (name, parent, self.task, start, end)
            if count is not None:
                count(counters, args, kwargs, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Patch every traced function for the duration of the block."""
        import contagion

        modules = [getattr(contagion, m) for m in LAYERS]
        saved = []
        try:
            for mod_name, fn_name in TRACED:
                original = getattr(getattr(contagion, mod_name), fn_name)
                wrapper = self.wrap(f"{mod_name}.{fn_name}", original)
                for mod in modules:
                    if getattr(mod, fn_name, None) is original:
                        saved.append((mod, fn_name, original))
                        setattr(mod, fn_name, wrapper)
            yield self
        finally:
            for mod, fn_name, original in reversed(saved):
                setattr(mod, fn_name, original)

    def aggregate(self) -> dict[str, dict]:
        """Per span name: call count, busy seconds, self seconds, durations."""
        child = np.zeros(len(self.spans))
        for name, parent, _, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict] = {}
        for sid, (name, _, _, start, end) in enumerate(self.spans):
            entry = out.setdefault(
                name, {"calls": 0, "s": 0.0, "self_s": 0.0, "durations": []}
            )
            entry["calls"] += 1
            entry["s"] += end - start
            entry["self_s"] += end - start - child[sid]
            entry["durations"].append(end - start)
        return out

    def write_spans(self, path: Path) -> None:
        """Write every span as a CSV row, times in microseconds."""
        origin = self.spans[0][3] if self.spans else 0.0
        with open(path, "w", encoding="ascii") as fh:
            fh.write("id,parent,task,name,start_us,dur_us\n")
            for sid, (name, parent, task, start, end) in enumerate(self.spans):
                fh.write(
                    f"{sid},{parent},{task},{name},"
                    f"{(start - origin) * 1e6:.1f},{(end - start) * 1e6:.1f}\n"
                )
