"""Repository benchmark: run one workload, check it, print its metrics.

Run from the repository root::

    python3 perfbench/run.py --workload jacobi_pages --seed 1 --seconds 25 --trace 0

With ``--trace 0`` the last stdout line is a JSON object carrying the
end-to-end metrics; with ``--trace 1`` it carries the per-layer metrics
(see README.md in this directory for every workload and metric). Cells run
serially in this one process through ``repro.experiments.harness``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import pathlib
import platform
import resource
import statistics
import subprocess
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from repro.experiments import harness, parallel  # noqa: E402
from repro.sim.engine import engine_variant  # noqa: E402

from layers import BUCKETS, OBJECTS, LayerTracer  # noqa: E402
from workloads import WORKLOADS, build, sim_digest  # noqa: E402

#: Environment switches that select A/B-only simulator variants. A run
#: under either measures a different program, so every cell fails.
GUARDED_ENV = ("REPRO_SCALAR_ENGINE", "REPRO_NO_COALESCE")

#: Fresh processes timed for ``setup_s``; the median is reported.
SETUP_SAMPLES = 5


def guard_violations() -> list[str]:
    """Reasons the measured program is not the default one, if any."""
    reasons = [f"{name} is set" for name in GUARDED_ENV if os.environ.get(name)]
    if parallel.get_active() is not None:
        reasons.append("an experiments.parallel executor (and its "
                       "ResultCache) is active")
    return reasons


def measure_setup(workload: str, seed: int) -> float:
    """Median host seconds for a fresh interpreter to import the program
    and generate the workload's inputs (``--setup-only``)."""
    cmd = [sys.executable, str(pathlib.Path(__file__).resolve()),
           "--workload", workload, "--seed", str(seed), "--setup-only"]
    samples = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def run_pass(workload) -> tuple[float, list]:
    """One timed pass over the cell list. The pass ends with a full
    collection inside the timed region, so every pass pays for the cyclic
    garbage it made exactly once and starts from the same collector state.
    Without it, the collector's generation-1 threshold fires in roughly
    every other pass and the pass time swings about 1.7x."""
    t0 = time.perf_counter()
    results = [harness.run_workload(c.backend, c.threads, c.spawn, c.params,
                                    functional=c.functional, config=c.config)
               for c in workload.cells]
    gc.collect()
    return time.perf_counter() - t0, results


class Checker:
    """Counts attempted and failed cells across every pass of the run."""

    def __init__(self, workload, guard: list[str]):
        self.workload = workload
        self.guard = guard
        self.attempted = 0
        self.failed = 0

    def check(self, results, baseline=None) -> list[str]:
        """Check one pass and return its cells' digests; ``baseline`` is an
        untraced pass's digests that a traced pass must reproduce."""
        digests = [sim_digest(r) for r in results]
        for i, (cell, result) in enumerate(zip(self.workload.cells, results)):
            ok = (not self.guard
                  and self.workload.check(cell, result, digests[i])
                  and (baseline is None or digests[i] == baseline[i]))
            self.attempted += 1
            self.failed += not ok
        return digests


def run_passes(workload, seconds: float, checker: Checker, baseline=None,
               probe=None) -> list[dict]:
    """Timed passes while the next one is expected to end within
    ``seconds`` (at least one). Each pass is checked and reduced to a small
    summary at once, so memory does not grow with the number of passes.
    ``probe.begin()``/``probe.end()`` bracket each pass; ``end`` returns
    extra fields for the summary."""
    summaries: list[dict] = []
    start = time.perf_counter()
    while True:
        if probe is not None:
            probe.begin()
        wall, results = run_pass(workload)
        summary = probe.end() if probe is not None else {}
        summary.update(wall=wall, counts=pass_counts(results),
                       makespan=sum(r.elapsed for r in results),
                       digests=checker.check(results, baseline))
        summaries.append(summary)
        del results
        typical = statistics.median(s["wall"] for s in summaries)
        if time.perf_counter() - start + typical > seconds:
            return summaries


def _stat(stats: dict, section: str, key: str) -> float:
    return stats.get(section, {}).get(key, 0)


def pass_counts(results) -> dict:
    """Deterministic work counters of one pass, summed over its cells."""
    keys = {
        "sim.events_scheduled": ("engine", "scheduled_events"),
        "sim.events_coalesced": ("engine", "coalesced_events"),
        "sim.epochs_run": ("engine", "epochs_run"),
        "cache.installs": ("caches", "installs"),
        "cache.page_touches": ("caches", "page_touches"),
        "cache.invalidations": ("caches", "invalidations"),
        "cache.twins_created": ("caches", "twins_created"),
        "cache.diffs_taken": ("caches", "diffs_taken"),
        "backing.frames_created": ("memory_servers", "frames_created"),
        "backing.diffs_applied": ("memory_servers", "diffs_applied"),
        "backing.diff_bytes": ("memory_servers", "diff_bytes"),
        "compute_server.faults": ("compute_servers", "faults"),
        "compute_server.pages_fetched": ("compute_servers", "pages_fetched"),
        "rtbatch.trips": ("round_trips", "trips"),
        "rtbatch.lines": ("round_trips", "lines"),
        "rtbatch.recall_trips": ("memory_servers", "recall_trips"),
        "memory_server.pages_served": ("memory_servers", "pages_served"),
        "memory_server.recalls": ("memory_servers", "recalls"),
        "manager.requests.lock": ("manager", "requests.lock"),
        "manager.requests.barrier": ("manager", "requests.barrier"),
        "manager.barrier_rounds": ("manager", "barrier_rounds"),
        "fabric.messages": ("fabric", "messages"),
        "fabric.bytes": ("fabric", "bytes"),
        "faults.rpcs_delivered": ("faults", "rpcs_delivered"),
        "faults.jitter_stalls": ("faults", "jitter_stalls"),
        "hedges.issued": ("hedges", "hedges_issued"),
        "hedges.won": ("hedges", "hedges_won"),
        "hedges.ineligible": ("hedges", "hedges_ineligible"),
        "breaker.opens": ("hedges", "breaker_opens"),
        "admission.sheds": ("hedges", "sheds"),
        "retries.retransmits": ("faults", "retransmits"),
        "_prefetch_hits": ("prefetch", "prefetch_hits"),
        "_prefetch_installs": ("prefetch", "prefetch_installs"),
    }
    counts = dict.fromkeys(keys, 0)
    sim_time = dict.fromkeys(("cpu", "memory", "lock", "barrier"), 0.0)
    for result in results:
        for name, (section, key) in keys.items():
            counts[name] += _stat(result.stats, section, key)
        for thread in result.threads.values():
            for bucket in sim_time:
                sim_time[bucket] += thread.clock.detail.get(bucket, 0.0)
    hits, installs = counts.pop("_prefetch_hits"), counts.pop("_prefetch_installs")
    counts["cache.prefetch_accuracy"] = hits / installs if installs else 0.0
    counts["rtbatch.lines_per_trip"] = (counts["rtbatch.lines"] / counts["rtbatch.trips"]
                                        if counts["rtbatch.trips"] else 0.0)
    counts["hedges.win_ratio"] = (counts["hedges.won"] / counts["hedges.issued"]
                                  if counts["hedges.issued"] else 0.0)
    for bucket, value in sim_time.items():
        counts[f"sim_time.{bucket}_s"] = value
    return counts


COUNT_UNITS = {"cache.prefetch_accuracy": "ratio",
               "rtbatch.lines_per_trip": "lines/trip",
               "hedges.win_ratio": "ratio",
               "backing.diff_bytes": "B", "fabric.bytes": "B"}


def end_to_end(workload, name: str, seed: int, seconds: float,
               checker: Checker) -> dict:
    """Set-up samples first, then passes for the rest of the budget."""
    t0 = time.perf_counter()
    setup = measure_setup(name, seed)
    passes = run_passes(workload, seconds - (time.perf_counter() - t0), checker)
    wall = statistics.median(p["wall"] for p in passes)
    return {
        "wall_s": (wall, "s"),
        "touches_per_s": (passes[0]["counts"]["cache.page_touches"] / wall, "1/s"),
        "setup_s": (setup, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
        "sim_makespan_s": (passes[0]["makespan"], "sim_s"),
    }


class GcProbe:
    """Collector pauses per pass, through ``gc.callbacks``."""

    def __init__(self):
        self._pauses: list[float] = []
        self._started = 0.0

    def _on_gc(self, phase: str, _info: dict) -> None:
        if phase == "start":
            self._started = time.perf_counter()
        else:
            self._pauses.append(time.perf_counter() - self._started)

    def begin(self) -> None:
        self._pauses = []
        gc.callbacks.append(self._on_gc)

    def end(self) -> dict:
        gc.callbacks.remove(self._on_gc)
        return {"gc_pause_s": sum(self._pauses), "gc_collections": len(self._pauses)}


class TraceProbe:
    """Per-pass layer self time and object constructions."""

    def __init__(self, tracer: LayerTracer):
        self.tracer = tracer

    def begin(self) -> None:
        self._self_s = self.tracer.snapshot()
        self._objects = dict(self.tracer.objects)

    def end(self) -> dict:
        after = self.tracer.snapshot()
        return {"self_s": {b: after[b] - self._self_s[b] for b in BUCKETS},
                "objects": {k: self.tracer.objects[k] - self._objects[k]
                            for k in OBJECTS}}


def per_layer(workload, seconds: float, checker: Checker) -> dict:
    """Untraced passes for half the budget, then traced passes whose
    digests must equal the untraced ones."""
    untraced = run_passes(workload, seconds / 2, checker, probe=GcProbe())
    tracer = LayerTracer()
    tracer.install()
    try:
        traced = run_passes(workload, seconds / 2, checker,
                            baseline=untraced[0]["digests"],
                            probe=TraceProbe(tracer))
    finally:
        tracer.uninstall()

    metrics: dict = {}
    for name, value in untraced[0]["counts"].items():
        unit = COUNT_UNITS.get(name, "sim_s" if name.startswith("sim_time.")
                               else "count")
        metrics[name] = (value, unit)
    for key in OBJECTS:
        metrics[f"objects.{key}"] = (traced[0]["objects"][key], "count")
    for bucket in BUCKETS:
        metrics[f"{bucket}.self_s"] = (
            statistics.median(t["self_s"][bucket] for t in traced), "s")
    events = metrics["sim.events_scheduled"][0]
    metrics["sim.us_per_event"] = (
        metrics["sim.self_s"][0] / events * 1e6 if events else 0.0, "us")
    metrics["gc.pause_s"] = (
        statistics.median(p["gc_pause_s"] for p in untraced), "s")
    metrics["gc.collections"] = (
        statistics.median(p["gc_collections"] for p in untraced), "count")
    untraced_wall = statistics.median(p["wall"] for p in untraced)
    traced_wall = statistics.median(t["wall"] for t in traced)
    metrics["tracing.wall_s"] = (traced_wall, "s")
    metrics["tracing.overhead"] = (traced_wall / untraced_wall, "ratio")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="import and generate inputs, then exit "
                             "(the unit timed for setup_s)")
    args = parser.parse_args(argv)

    workload = build(args.workload, args.seed)
    if args.setup_only:
        return 0
    guard = guard_violations()
    checker = Checker(workload, guard)
    if args.trace:
        metrics = per_layer(workload, args.seconds, checker)
    else:
        metrics = end_to_end(workload, args.workload, args.seed,
                             args.seconds, checker)

    print(f"# workload={args.workload} seed={args.seed} "
          f"engine={engine_variant()} python={platform.python_version()}")
    for reason in guard:
        print(f"# GUARD: {reason}; every cell counts as failed")
    print(f"# failed_cells={checker.failed}/{checker.attempted}")
    for name, (value, unit) in metrics.items():
        print(f"# {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
