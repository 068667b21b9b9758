"""Render BENCH_perf.json and enforce the perf regression gates.

Reading the report::

    python tools/bench_report.py                 # pretty-print ./BENCH_perf.json
    python tools/bench_report.py path/to.json

The gate (run by CI after ``benchmarks/bench_perf.py``)::

    python tools/bench_report.py BENCH_perf.json --check

``--check`` runs every row of :data:`GATES` and exits non-zero if any row
fails. Each bound is a module constant below; there are no threshold flags.
The rows:

* ``smoke_wall`` -- the serial smoke campaign finishes within
  :data:`MAX_SMOKE_WALL_S` seconds, absolute.
* ``events`` -- scheduled DES events at least :data:`MIN_EVENT_REDUCTION` x
  below the recorded seed count. Event counts are deterministic, so this
  pins the batching/coalescing win itself, not the wall it happens to buy.
* ``events_rate`` -- the 256-server sweep cell sustains at least
  :data:`MIN_EVENTS_RATE` scheduled events/sec through its run phase.
* ``page_objects`` -- per-page object constructions (``CacheEntry``,
  ``ByteRanges``, ``PageFrame``) over the serial smoke campaign stay at or
  under :data:`MAX_PAGE_OBJECTS`: the columnar data plane builds none.
* ``batched_rt`` -- modeled round-trip request messages over the fig12
  smoke cells stay at or under :data:`MAX_RT_REQUESTS`.
* ``prefetch`` -- the stride-prefetch Jacobi campaign's remote line fetches
  and scheduled events stay under their ceilings, with prefetch accuracy at
  least :data:`MIN_PREFETCH_ACCURACY`.
* ``faults_off`` / ``replication_off`` -- bit-tight off-gates: an armed but
  silent fault injector, and an explicit ``replication_factor=1``, must
  leave the trajectory fingerprint (grid hash, elapsed, event and cache
  counters) identical to the default build, field for field.
* ``partition_safety`` -- idle fencing is bit-identical to the default
  build; the partition chaos cell ends data-identical with >= 1 quorum
  promotion and >= 1 fenced stale-epoch write; the checkpoint/restore round
  trip reproduces the straight-through final bytes.
* ``shard_scaling`` -- ``manager_shards=1`` is bit-identical to the default
  build, the mean per-shard manager RPC load deviates at most
  :data:`MAX_SHARD_LOAD_DEVIATION` across the 16 -> 64 -> 256 sweep, and
  tree barriers cut barrier RPCs at least :data:`MIN_BARRIER_REDUCTION` x
  versus flat at every sweep point.
* ``grayfail_off`` -- the default build reproduces the recorded PR 9
  Jacobi fingerprint field for field.
* ``grayfail`` -- under the recorded 10x slow-server storm the grayfail
  deployment ends data-identical to the fault-free run, slows down at most
  :data:`MAX_STORM_SLOWDOWN` x, and its breakers opened and servers shed.

``smoke_wall`` and ``events_rate`` are the only host-dependent rows; every
other bound gates deterministic simulated counts and is exact.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

#: Absolute serial smoke-campaign wall bound (best measured 1.48 s on a
#: 1-CPU reference box, plus shared-runner jitter headroom).
MAX_SMOKE_WALL_S = 3.0
MIN_EVENT_REDUCTION = 3.0
MIN_EVENTS_RATE = 100_000
#: Per-page object constructions per smoke campaign, pinned at the value
#: the columnar cache/backing/directory records (476,319 before them).
MAX_PAGE_OBJECTS = 0
#: Deterministic ceilings, pinned at the values the single batched fetch
#: path records: modeled round-trip request messages over the fig12
#: smoke cells, and the stride-prefetch campaign's remote line fetches and
#: scheduled DES events.
MAX_RT_REQUESTS = 499
MAX_PREFETCH_FETCH_REQUESTS = 191
MAX_PREFETCH_EVENTS = 3451
MIN_PREFETCH_ACCURACY = 0.6
MAX_SHARD_LOAD_DEVIATION = 0.25
MIN_BARRIER_REDUCTION = 2.0
MAX_STORM_SLOWDOWN = 2.0


def render(report: dict) -> str:
    lines = []
    base = report["baseline_seed"]
    host = report["host"]
    cpus = host.get("cpus_usable", host.get("cpus", "?"))
    engine = host.get("engine_default")
    lines.append(f"smoke campaign: {', '.join(report['smoke_figures'])}  "
                 f"(host: {cpus} cpu, python {host['python']}"
                 f"{', ' + engine + ' engine' if engine else ''})")
    lines.append("")
    lines.append(f"{'configuration':<26} {'wall (s)':>9} {'vs seed':>9} "
                 f"{'engine':>7}")
    lines.append("-" * 54)
    lines.append(f"{'seed baseline (' + base['commit'] + ')':<26} "
                 f"{base['wall_s']:>9.3f} {'1.00x':>9} {'scalar':>7}")
    for name, phase in report["phases"].items():
        speed = phase.get("speedup_vs_seed")
        # A warm result cache answers the campaign in ~zero wall time;
        # a speedup figure there is nonsense (or a division by zero at
        # generation time), so cache-hit phases render as "cached".
        vs_seed = f"{speed:.2f}x" if speed is not None else "cached"
        lines.append(f"{name:<26} {phase['wall_s']:>9.3f} "
                     f"{vs_seed:>9} "
                     f"{phase.get('engine', '?'):>7}")
    events = report.get("events")
    if events:
        lines.append("")
        lines.append(f"scheduled events: {events['scheduled']:,}  "
                     f"(seed: {events['scheduled_at_seed']:,}, "
                     f"{events['reduction_vs_seed']}x fewer; "
                     f"{events['coalesced']:,} coalesced)")
    rate = report.get("events_rate")
    if rate:
        lines.append("")
        lines.append(f"sustained dispatch: {rate['events_per_sec']:,} "
                     f"events/s  ({rate['events_scheduled']:,} events in "
                     f"{rate['run_wall_s']:.3f} s, {rate['engine']} engine, "
                     f"best of {rate.get('best_of', 1)})")
        lines.append(f"  campaign: {rate.get('campaign')}")
    objects = report.get("page_objects")
    if objects:
        lines.append("")
        before = sum(objects.get("before", {}).values())
        lines.append(f"per-page object constructions: "
                     f"{sum(objects['counts'].values()):,} "
                     f"{objects['counts']}  (before: {before:,}; "
                     f"ceiling {MAX_PAGE_OBJECTS:,})")
    lines.append("")
    lines.append(f"{'cell':<34} {'wall (s)':>9} {'events':>9} "
                 f"{'coalesced':>9} {'events/s':>10} {'cache-op/s':>11}")
    lines.append("-" * 86)
    for cell in report["cells"]:
        label = f"{cell['figure']}:{cell['workload']}:{cell['cell']}"
        lines.append(f"{label:<34} {cell['wall_s']:>9.3f} "
                     f"{cell['events']:>9,} "
                     f"{cell.get('events_coalesced', 0):>9,} "
                     f"{cell['events_per_sec']:>10,} "
                     f"{cell['cache_ops_per_sec']:>11,}")
    prefetch = report.get("prefetch")
    if prefetch:
        lines.append("")
        stride = prefetch.get("stride", {})
        lines.append(f"prefetch gate campaign: {prefetch.get('campaign')}")
        lines.append(
            f"  remote line fetches: {stride.get('fetch_requests', 0):,} "
            f"(stride; ceiling {MAX_PREFETCH_FETCH_REQUESTS:,})")
        lines.append(
            f"  prefetch accuracy:   "
            f"{(prefetch.get('prefetch_accuracy') or 0) * 100:.1f}%  "
            f"({stride.get('prefetch_hits', 0)}/"
            f"{stride.get('prefetch_installs', 0)} installs touched)")
        lines.append(
            f"  scheduled events:    {stride.get('events_scheduled', 0):,} "
            f"(stride; ceiling {MAX_PREFETCH_EVENTS:,})")
    chaos = report.get("chaos")
    if chaos:
        lines.append("")
        counters = chaos.get("counters", {})
        lines.append(
            f"chaos {chaos['plan']}: data_identical={chaos['data_identical']}"
            f"  retries={counters.get('retries', 0)}"
            f"  timeouts={counters.get('timeouts', 0)}"
            f"  retransmits={counters.get('retransmits', 0)}"
            f"  dup_rpcs_dropped={counters.get('dup_rpcs_dropped', 0)}")
    replication = report.get("replication")
    if replication:
        lines.append("")
        counters = replication.get("counters", {})
        overhead = replication.get("elapsed_overhead")
        lines.append(
            f"replication rf=2: "
            f"data_identical={replication['data_identical']}"
            f"  elapsed +{(overhead or 0) * 100:.1f}%"
            f"  wal_appends={counters.get('wal_appends', 0)}"
            f"  repl_ships={counters.get('repl_ships', 0)}"
            f"  replica_applies={counters.get('replica_applies', 0)}")
    shards = report.get("shard_scaling")
    if shards:
        lines.append("")
        lines.append(f"shard scaling campaign: {shards.get('campaign')}")
        lines.append(f"  {'servers':>8} {'shards':>7} {'rpc/shard':>10} "
                     f"{'barrier rpcs':>13} {'vs flat':>8}")
        for cell in shards.get("sweep", ()):
            reduction = cell.get("barrier_rpc_reduction")
            lines.append(
                f"  {cell['n_compute']:>8} {cell['shards']:>7} "
                f"{cell['per_shard_mean']:>10} "
                f"{cell['barrier_rpcs']:>13,} "
                f"{f'-{reduction:.1f}x' if reduction else 'n/a':>8}")
        dev = shards.get("per_shard_mean_deviation")
        if dev is not None:
            lines.append(f"  per-shard load deviation across sweep: "
                         f"{dev * 100:.1f}%")
    batched = report.get("batched_rt")
    if batched:
        lines.append("")
        requests = batched.get("requests", {})
        rt = batched.get("round_trips") or {}
        lines.append(
            f"batched round trips: {requests.get('total', 0):,} modeled "
            f"requests (fig12 smoke; ceiling {MAX_RT_REQUESTS:,})")
        if rt:
            lines.append(
                f"  ledger: {rt.get('trips', 0):,} trips / "
                f"{rt.get('lines', 0):,} lines "
                f"({rt.get('lines_per_trip_mean', 0)} lines/trip, "
                f"hist {rt.get('lines_per_trip_hist')})")
    grayfail = report.get("grayfail")
    if grayfail:
        lines.append("")
        counters = grayfail.get("counters", {})
        lines.append(
            f"gray failure (10x slow server): "
            f"off==PR9: {grayfail.get('off_identical_to_pr9')}  "
            f"data identical: {grayfail.get('data_identical')}  "
            f"slowdown {grayfail.get('storm_slowdown')}x")
        lines.append(
            f"  breakers: opens={counters.get('breaker_opens', 0)} "
            f"degraded={counters.get('breaker_degraded', 0)}  "
            f"sheds={counters.get('sheds', 0)}")
    for note in report.get("notes", ()):
        lines.append(f"note: {note}")
    return "\n".join(lines)


def _diverged(a: dict, b: dict) -> list[str]:
    """Fields on which two trajectory fingerprints differ (exact compare)."""
    return sorted(k for k in set(a) | set(b) if a.get(k) != b.get(k))


def _failed(problems: list[str]) -> tuple[bool, str]:
    return False, "FAILED: " + "; ".join(problems)


def gate_smoke_wall(phases: dict) -> tuple[bool, str]:
    smoke = phases["after_serial"]["wall_s"]
    return (smoke <= MAX_SMOKE_WALL_S,
            f"serial smoke wall {smoke:.3f} s (gate <= {MAX_SMOKE_WALL_S:.2f} s)")


def gate_events(events: dict) -> tuple[bool, str]:
    seed = events.get("scheduled_at_seed")
    scheduled = events.get("scheduled")
    if not seed or not scheduled:
        return False, f"unusable event counts (seed={seed}, now={scheduled})"
    reduction = seed / scheduled
    return (reduction >= MIN_EVENT_REDUCTION,
            f"scheduled events {scheduled:,} = {reduction:.2f}x fewer than "
            f"seed ({seed:,}); gate >= {MIN_EVENT_REDUCTION:.2f}x")


def gate_events_rate(rate: dict) -> tuple[bool, str]:
    per_sec = rate.get("events_per_sec") or 0
    return (per_sec >= MIN_EVENTS_RATE,
            f"{per_sec:,} events/s sustained on the 256-server sweep "
            f"({rate.get('engine')} engine; gate >= {MIN_EVENTS_RATE:,}/s)")


def gate_page_objects(block: dict) -> tuple[bool, str]:
    total = sum(block.get("counts", {}).values())
    return (bool(block.get("counts")) and total <= MAX_PAGE_OBJECTS,
            f"{total:,} per-page object constructions in the smoke campaign "
            f"(gate <= {MAX_PAGE_OBJECTS:,})")


def gate_batched_rt(block: dict) -> tuple[bool, str]:
    total = block.get("requests", {}).get("total")
    return (total is not None and total <= MAX_RT_REQUESTS,
            f"{total} modeled round-trip requests "
            f"(gate <= {MAX_RT_REQUESTS:,})")


def gate_prefetch(prefetch: dict) -> tuple[bool, str]:
    problems = []
    stride = prefetch.get("stride", {})
    fetches = stride.get("fetch_requests")
    if fetches is None or fetches > MAX_PREFETCH_FETCH_REQUESTS:
        problems.append(f"remote line fetches {fetches} > "
                        f"{MAX_PREFETCH_FETCH_REQUESTS:,}")
    events = stride.get("events_scheduled")
    if events is None or events > MAX_PREFETCH_EVENTS:
        problems.append(f"scheduled events {events} > {MAX_PREFETCH_EVENTS:,}")
    accuracy = prefetch.get("prefetch_accuracy")
    if accuracy is None or accuracy < MIN_PREFETCH_ACCURACY:
        problems.append(f"prefetch accuracy {accuracy} < "
                        f"{MIN_PREFETCH_ACCURACY:.2f}")
    if problems:
        return _failed(problems)
    return True, (f"{fetches:,} remote line fetches (gate <= "
                  f"{MAX_PREFETCH_FETCH_REQUESTS:,}), {events:,} events (gate "
                  f"<= {MAX_PREFETCH_EVENTS:,}), accuracy "
                  f"{accuracy * 100:.1f}% (gate >= "
                  f"{MIN_PREFETCH_ACCURACY * 100:.0f}%)")


def _identical(block: dict, a_key: str, b_key: str) -> tuple[bool, str]:
    """A bit-tight off-gate: fingerprints ``a_key`` and ``b_key`` of the
    block must agree field for field (exact floats and counter dicts)."""
    a = block.get(a_key, {})
    diverged = _diverged(a, block.get(b_key, {}))
    if diverged:
        return _failed([f"{a_key} vs {b_key} DIVERGED in: "
                        + ", ".join(diverged)])
    return True, f"{a_key} == {b_key} ({len(a)} fields compared)"


def gate_faults_off(block: dict) -> tuple[bool, str]:
    return _identical(block, "injector_absent", "injector_silent")


def gate_replication_off(block: dict) -> tuple[bool, str]:
    return _identical(block, "rf_absent", "rf_one")


def gate_partition_safety(block: dict) -> tuple[bool, str]:
    problems = []
    absent = block.get("fencing_absent", {})
    diverged = _diverged(absent, block.get("fencing_idle", {}))
    if diverged:
        problems.append("fencing-idle fingerprint DIVERGED in: "
                        + ", ".join(diverged))
    cut = block.get("partition", {})
    membership = cut.get("membership", {})
    if not cut.get("data_identical"):
        problems.append("partitioned run data NOT identical to baseline "
                        "(a stale-epoch write got applied?)")
    if membership.get("promotions", 0) < 1:
        problems.append("no quorum promotion during the partition cell")
    if membership.get("stale_writes_fenced", 0) < 1:
        problems.append("no stale-epoch write was fenced")
    ckpt = block.get("checkpoint", {})
    if not ckpt.get("roundtrip_identical"):
        problems.append("checkpoint/restore round trip diverged: "
                        f"{ckpt.get('final_sha256')} vs "
                        f"{ckpt.get('restored_sha256')}")
    if ckpt.get("checkpoints_taken", 0) < 1:
        problems.append("no checkpoints were taken")
    if problems:
        return _failed(problems)
    return True, (f"fencing idle bit-identical ({len(absent)} fields), cut "
                  f"survived with {membership.get('promotions')} promotion(s) "
                  f"and {membership.get('stale_writes_fenced')} fenced stale "
                  f"write(s), checkpoint round trip reproduced "
                  f"{ckpt.get('checkpoint_pages')} pages exactly")


def gate_shard_scaling(shards: dict) -> tuple[bool, str]:
    problems = []
    absent = shards.get("shards_absent", {})
    diverged = _diverged(absent, shards.get("shards_one", {}))
    if diverged:
        problems.append("shards=1 fingerprint DIVERGED in: "
                        + ", ".join(diverged))
    deviation = shards.get("per_shard_mean_deviation")
    if deviation is None or deviation > MAX_SHARD_LOAD_DEVIATION:
        problems.append(f"per-shard load deviation {deviation} > "
                        f"{MAX_SHARD_LOAD_DEVIATION:.2f}")
    sweep = shards.get("sweep", ())
    if not sweep:
        problems.append("empty sweep")
    for cell in sweep:
        reduction = cell.get("barrier_rpc_reduction")
        if reduction is None or reduction < MIN_BARRIER_REDUCTION:
            problems.append(f"barrier RPC reduction {reduction} < "
                            f"{MIN_BARRIER_REDUCTION:.1f}x at "
                            f"{cell.get('n_compute')} servers")
    if problems:
        return _failed(problems)
    return True, (f"shards=1 bit-identical ({len(absent)} fields), "
                  f"per-shard load deviation {deviation * 100:.1f}% (gate <= "
                  f"{MAX_SHARD_LOAD_DEVIATION * 100:.0f}%) across "
                  f"{'/'.join(str(c['n_compute']) for c in sweep)} servers, "
                  f"barriers -{sweep[-1]['barrier_rpc_reduction']:.1f}x vs "
                  f"flat (gate >= {MIN_BARRIER_REDUCTION:.1f}x)")


def gate_grayfail_off(block: dict) -> tuple[bool, str]:
    pin = block.get("pr9_fingerprint", {})
    if not block.get("off_identical_to_pr9"):
        return False, ("fingerprint DIVERGED from the PR 9 pin in: "
                       + ", ".join(_diverged(block.get("off_fingerprint", {}),
                                             pin)))
    return True, f"bit-identical to the PR 9 pin ({len(pin)} fields compared)"


def gate_grayfail(block: dict) -> tuple[bool, str]:
    problems = []
    if not block.get("data_identical"):
        problems.append("storm data DIVERGED from the fault-free run")
    slowdown = block.get("storm_slowdown")
    if slowdown is None or slowdown > MAX_STORM_SLOWDOWN:
        problems.append(f"storm slowdown {slowdown} > "
                        f"{MAX_STORM_SLOWDOWN:.2f}x")
    counters = block.get("counters", {})
    for key in ("breaker_opens", "sheds"):
        if not counters.get(key):
            problems.append(f"{key} == 0 (machinery never exercised)")
    if problems:
        return _failed(problems)
    return True, (f"data identical under the 10x slow-server storm; slowdown "
                  f"{slowdown:.2f}x (gate <= {MAX_STORM_SLOWDOWN:.2f}x); "
                  f"breaker_opens={counters.get('breaker_opens')} "
                  f"sheds={counters.get('sheds')}")


#: Every gate ``--check`` runs: (row name, report block it reads, gate).
GATES = (
    ("smoke_wall", "phases", gate_smoke_wall),
    ("events", "events", gate_events),
    ("events_rate", "events_rate", gate_events_rate),
    ("page_objects", "page_objects", gate_page_objects),
    ("batched_rt", "batched_rt", gate_batched_rt),
    ("prefetch", "prefetch", gate_prefetch),
    ("faults_off", "faults_off", gate_faults_off),
    ("replication_off", "replication_off", gate_replication_off),
    ("partition_safety", "partition_safety", gate_partition_safety),
    ("shard_scaling", "shard_scaling", gate_shard_scaling),
    ("grayfail_off", "grayfail", gate_grayfail_off),
    ("grayfail", "grayfail", gate_grayfail),
)


def run_gates(report: dict) -> list[tuple[str, bool, str]]:
    """Run every row of :data:`GATES`: ``[(row, ok, message), ...]``."""
    results = []
    for row, key, gate in GATES:
        block = report.get(key)
        if block:
            ok, msg = gate(block)
        else:
            ok, msg = False, (f"report has no '{key}' block; regenerate it "
                              f"with the current benchmarks/bench_perf.py")
        results.append((row, ok, msg))
    return results


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("report", nargs="?", default="BENCH_perf.json",
                        help="path to BENCH_perf.json")
    parser.add_argument("--check", action="store_true",
                        help="run every gate; exit 1 if any fails")
    args = parser.parse_args(argv)

    path = pathlib.Path(args.report)
    if not path.exists():
        print(f"no report at {path}; run "
              f"`PYTHONPATH=src python benchmarks/bench_perf.py` first",
              file=sys.stderr)
        return 2
    report = json.loads(path.read_text())
    print(render(report))
    if not args.check:
        return 0
    print()
    failed = False
    for row, ok, msg in run_gates(report):
        print(f"[{'PASS' if ok else 'FAIL'}] {row}: {msg}")
        failed |= not ok
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
