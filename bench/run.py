#!/usr/bin/env python3
"""Benchmark runner for the contagion package.

Runs one workload (or all of them, each in its own process) for a fixed
time from the root of a checkout, checks every output against an
independent oracle, and prints one metric per line followed by a JSON
result line:

    python3 bench/run.py --workload scale-n20000 --seed 99 --seconds 45 --trace 0
    python3 bench/run.py --workload all

With ``--trace 0`` the metrics are the end-to-end ones: set-up time, banks
processed per second, and peak resident memory. The run repeats whole
cycles through the workload's tasks; the throughput is the work of every
cycle over their summed timed walls. With ``--trace 1`` one more cycle runs
with every layer function wrapped in a span, and the per-layer metrics are
reported instead. A result file with provenance lands in
``bench/results/``.

The exit code is 1 when any operation failed its check, 2 when the
package cannot be imported from the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import setup_probe

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RESULTS = BENCH_DIR / "results"
# Set-up is sampled in this process and in fresh interpreters, one after
# each of the first cycles and one after the last, so the samples fall at
# different moments of a run on a machine whose speed drifts; the median is
# reported.
SETUP_CHILDREN = 4
CHILD_TIMEOUT = 170
# Every task is timed at least this often, even when a cycle outlasts --seconds.
MIN_CYCLES = 2


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None, help="workload seed (default 99)")
    parser.add_argument("--seconds", type=float, default=45.0, help="timed body length")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--tiny", action="store_true", help="n=60 and 2 replications: a smoke run of every path"
    )
    return parser.parse_args(argv)


def setup_in_child() -> float:
    """Set-up seconds of a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, str(BENCH_DIR / "setup_probe.py")],
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT,
        check=True,
        cwd=ROOT,
    )
    return float(done.stdout.split()[-1])


def git_sha() -> str:
    """Commit of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(seed: int, workload, args) -> dict:
    import numpy
    import scipy

    return {
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_sha": git_sha(),
        "workload": workload.name,
        "seed": seed,
        "seconds": args.seconds,
        "tiny": args.tiny,
        "config": workload.config(),
    }


class Run:
    """One workload's closed loop of cycles through its tasks, with checks and digests."""

    def __init__(self, workload, seed: int):
        self.workload, self.seed = workload, seed
        self.tasks = workload.tasks(seed)
        self.work_per_cycle = sum(task.work for task in self.tasks)
        # walls[i] holds every timed wall of task i, one per cycle.
        self.walls: list[list[float]] = [[] for _ in self.tasks]
        self.digests: list[str] = []
        self.attempted = self.failed = 0
        self.problems: list[str] = []

    def _run(self, task):
        start = time.perf_counter()
        with contextlib.redirect_stderr(setup_probe.DiscardStream()):
            output = self.workload.run_task(task)
        return output, time.perf_counter() - start

    def digest_of(self, task, output) -> str:
        """SHA-256 of a task's outputs in ``write_run_directory`` number format."""
        lines = "\n".join(self.workload.digest_lines(task, output))
        return hashlib.sha256(lines.encode()).hexdigest()

    def _record(self, i: int, task, output) -> None:
        """Check a task's first outputs in full; a repeat must match them bit for bit."""
        digest = self.digest_of(task, output)
        if i == len(self.digests):
            check = self.workload.check(self.seed, task, output)
            self.attempted += check.attempted
            self.failed += check.failed
            self.problems += check.problems
            self.digests.append(digest)
            return
        self.attempted += task.ops
        if digest != self.digests[i]:
            self.failed += task.ops
            self.problems.append(f"{task.label}: repeat outputs differ from the first")

    @property
    def cycles(self) -> int:
        return len(self.walls[-1])

    def mean_cycle(self) -> float:
        """Timed seconds per whole cycle, over every cycle of the run."""
        return sum(sum(w[: self.cycles]) for w in self.walls) / self.cycles

    def timed(self, seconds: float, after_cycle=None) -> None:
        """Whole cycles while the next one should fit in ``seconds``, and at least MIN_CYCLES."""
        while self.cycles < MIN_CYCLES or (self.cycles + 1) * self.mean_cycle() <= seconds:
            for i, task in enumerate(self.tasks):
                try:
                    output, wall = self._run(task)
                except Exception:
                    self.attempted += task.ops
                    self.failed += task.ops
                    self.problems.append(f"{task.label} raised:\n{traceback.format_exc()}")
                    return
                self.walls[i].append(wall)
                self._record(i, task, output)
                # Free this task's outputs before the next starts, so peak
                # memory does not depend on how many tasks fit in the run.
                del output
            if after_cycle is not None:
                after_cycle()

    def traced(self, tracer) -> list[float]:
        """Replay one cycle under ``tracer``; outputs must not change."""
        walls = []
        for i, task in enumerate(self.tasks):
            tracer.task = i
            with tracer.installed():
                output, wall = self._run(task)
            walls.append(wall)
            if self.digest_of(task, output) != self.digests[i]:
                self.failed += task.ops
                self.problems.append(f"{task.label}: traced outputs differ from untraced")
        return walls


def quantile(values: list[float], q: float) -> float:
    return float(sorted(values)[min(len(values) - 1, int(q * len(values)))]) if values else 0.0


def layer_metrics(tracer, traced_wall: float, untraced_wall: float) -> dict:
    """Per-layer metrics from the traced pass, as {name: (value, unit)}."""
    from tracer import LAYERS

    agg = tracer.aggregate()
    counters = tracer.counters

    def busy(name):
        return agg.get(name, {}).get("s", 0.0)

    def calls(name):
        return agg.get(name, {}).get("calls", 0)

    def layer_self(layer):
        return sum(v["self_s"] for k, v in agg.items() if k.split(".")[0] == layer)

    clear_us = [d * 1e6 for d in agg.get("clearing.clear", {}).get("durations", [])]
    shocks = calls("clearing.clear")
    m = {
        "clearing.clear.s": (busy("clearing.clear"), "s"),
        "clearing.clear.calls": (shocks, "count"),
        "clearing.clear.p50_us": (quantile(clear_us, 0.5), "us"),
        "clearing.clear.p99_us": (quantile(clear_us, 0.99), "us"),
        "clearing.iterations": (counters["clearing.iterations"], "count"),
        "clearing.defaults": (counters["clearing.defaults"], "count"),
        "clearing.max_cascade": (counters["clearing.max_cascade"], "count"),
        "clearing.single_default_frac": (
            counters["clearing.single_default"] / shocks if shocks else 0.0,
            "ratio",
        ),
        "clearing.errors": (counters["clearing.clear.errors"], "count"),
        "clearing.cascade_metrics.s": (busy("clearing.cascade_metrics"), "s"),
        "netgen.generate.s": (busy("netgen.generate"), "s"),
        "netgen.generate.calls": (calls("netgen.generate"), "count"),
        "netgen.links": (counters["netgen.links"], "count"),
        "netgen.augment_random_links.s": (busy("netgen.augment_random_links"), "s"),
        "netgen.augment.links_added": (counters["netgen.augment.links_added"], "count"),
        "powerlaw.fit_discrete.s": (busy("powerlaw.fit_discrete"), "s"),
        "powerlaw.fit_discrete.calls": (calls("powerlaw.fit_discrete"), "count"),
        "powerlaw.candidates": (counters["powerlaw.candidates"], "count"),
        "balance.build_exposures.s": (busy("balance.build_exposures"), "s"),
        "balance.build_balance_sheets.s": (busy("balance.build_balance_sheets"), "s"),
        "balance.nnz": (counters["balance.nnz"], "count"),
        "metrics.summarize.s": (busy("metrics.summarize"), "s"),
        "metrics.compute_topo_indices.s": (busy("metrics.compute_topo_indices"), "s"),
        "metrics.index_impact_correlation.s": (busy("metrics.index_impact_correlation"), "s"),
        "metrics.gini.s": (busy("metrics.gini"), "s"),
        "harness.run_experiment.s": (busy("harness.run_experiment"), "s"),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (layer_self(layer), "s")
    covered = sum(v["self_s"] for v in agg.values())
    m["trace.wall_s"] = (traced_wall, "s")
    m["trace.coverage_frac"] = (covered / traced_wall, "ratio")
    m["trace.overhead_frac"] = (traced_wall / untraced_wall - 1.0, "ratio")
    return m


def run_one(args) -> int:
    try:
        with contextlib.redirect_stderr(setup_probe.DiscardStream()):
            setup = [setup_probe.warm_up()]
    except ImportError as exc:
        print(f"cannot import contagion from {setup_probe.SRC}: {exc}", file=sys.stderr)
        return 2
    import workloads
    from tracer import Tracer

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    if args.tiny:
        workload = workload.tiny()
    seed = workloads.ACCEPT_SEED if args.seed is None else args.seed

    RESULTS.mkdir(exist_ok=True)
    run = Run(workload, seed)
    wanted = 1 if args.tiny else 1 + SETUP_CHILDREN

    def sample_setup() -> None:
        # The last sample is kept for the end of the run.
        if len(setup) < wanted - 1:
            setup.append(setup_in_child())

    run.timed(args.seconds, after_cycle=sample_setup)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    while len(setup) < wanted:
        setup.append(setup_in_child())
    if run.cycles == 0:
        print(run.problems[-1], file=sys.stderr)
        return 1
    tracer = Tracer()
    traced_walls = run.traced(tracer) if args.trace else []

    rate = run.work_per_cycle / run.mean_cycle()
    end_to_end = {
        "setup_s": (statistics.median(setup), "s"),
        "banks_per_s": (rate, "1/s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    # The same rate under the workload's own unit, the cycles it rests on,
    # and the failure share; printed and recorded, not part of the JSON
    # metrics.
    views = {
        f"{workload.unit}_per_s": (rate, "1/s"),
        "cycles": (run.cycles, "count"),
        "fail_frac": (run.failed / run.attempted, "ratio"),
    }
    per_layer = {}
    if args.trace:
        per_layer = layer_metrics(tracer, sum(traced_walls), run.mean_cycle())
        tracer.write_spans(RESULTS / f"SPANS_{workload.name}_seed{seed}.csv")
    reported = per_layer if args.trace else end_to_end

    every = {**end_to_end, **views, **per_layer}
    for name, (value, unit) in every.items():
        print(f"{workload.name} {name} {value:.6g} {unit}")
    record = {
        "provenance": provenance(seed, workload, args),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in every.items()},
        "setup_samples_s": setup,
        "task_walls_s": {t.label: w for t, w in zip(run.tasks, run.walls)},
        "traced_task_walls_s": traced_walls,
        "work_per_cycle": run.work_per_cycle,
        "attempted": run.attempted,
        "failed": run.failed,
        "problems": run.problems[:50],
        # Every task's first outputs, so the digest compares across commits.
        "output_digest": hashlib.sha256(" ".join(run.digests).encode()).hexdigest(),
    }
    out = RESULTS / f"BENCH_{workload.name}_seed{seed}_trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=2) + "\n")
    for problem in run.problems[:20]:
        print(problem, file=sys.stderr)
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in reported.items()},
    }
    print(json.dumps(result))
    return 0 if run.failed == 0 else 1


def run_all(args) -> int:
    """Every workload in its own process, so peak memory is per workload."""
    try:
        setup_probe.import_contagion()
    except ImportError as exc:
        print(f"cannot import contagion from {setup_probe.SRC}: {exc}", file=sys.stderr)
        return 2
    import workloads

    status, attempted, failed, merged = 0, 0, 0, {}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name]
        cmd += ["--seconds", str(args.seconds), "--trace", str(args.trace)]
        cmd += [] if args.seed is None else ["--seed", str(args.seed)]
        cmd += ["--tiny"] if args.tiny else []
        done = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
        sys.stderr.write(done.stderr)
        lines = done.stdout.strip().splitlines()
        status = max(status, done.returncode)
        if done.returncode not in (0, 1) or not lines:
            continue
        print("\n".join(lines[:-1]), flush=True)
        result = json.loads(lines[-1])
        attempted += result["attempted"]
        failed += result["failed"]
        merged.update({f"{name}/{k}": v for k, v in result["metrics"].items()})
    if attempted == 0:
        return status or 2
    summary = {"correct": failed == 0 and status == 0, "attempted": attempted}
    print(json.dumps(summary | {"failed": failed, "metrics": merged}))
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
