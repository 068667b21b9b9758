"""Render BENCH_perf.json and enforce the perf regression gate.

Reading the report::

    python tools/bench_report.py                 # pretty-print ./BENCH_perf.json
    python tools/bench_report.py path/to.json

The gates (used by CI after ``benchmarks/bench_perf.py``)::

    python tools/bench_report.py --check [--max-ratio 1.0]
    python tools/bench_report.py --check-events [--min-event-reduction 3.0]
    python tools/bench_report.py --check-events-rate [--min-events-rate
        100000] [--max-smoke-wall 3.0]
    python tools/bench_report.py --check-batched-rt [--max-smoke-wall 3.0]
    python tools/bench_report.py --check-faults-off
    python tools/bench_report.py --check-replication-off
    python tools/bench_report.py --check-prefetch [--min-prefetch-accuracy
        0.6]
    python tools/bench_report.py --check-shard-scaling
        [--max-shard-load-deviation 0.25] [--min-barrier-reduction 2.0]
    python tools/bench_report.py --check-grayfail-off
    python tools/bench_report.py --check-grayfail [--max-storm-slowdown 2.0]

``--check`` exits non-zero when the measured serial smoke-campaign wall
clock exceeds ``max_ratio x`` the recorded seed baseline -- i.e. when a
change has given back the hot-path optimization wins. The default ratio of
1.0 means "never slower than the unoptimized seed"; it is deliberately
loose because shared CI boxes jitter by +/-30%, and the point of the gate
is catching wholesale regressions (an accidental O(n) -> O(n^2) in the
DES hot path), not 5% noise.

``--check-events`` exits non-zero when the campaign's scheduled-event
count is less than ``min_event_reduction x`` below the recorded seed
count. Event counts are deterministic (no interpreter or box noise), so
this gate is tight: it pins the batching/coalescing win itself, not the
wall clock it happens to buy.

``--check-events-rate`` gates the epoch-sliced engine's dispatch
throughput: the 256-server sweep cell must sustain at least
``min_events_rate`` scheduled events/sec through its run phase, and the
serial smoke wall must stay under ``max_smoke_wall`` seconds absolute.
(The former ``max_smoke_ratio`` seed-relative slack leg was retired when
the batched round-trip layer pushed the wall well below it.)

``--check-batched-rt`` gates the batched round-trip layer: modeled
round-trip request messages over the fig12 smoke cells may not exceed
:data:`MAX_RT_REQUESTS`, and the serial smoke wall must stay under the
absolute target.

``--check-prefetch`` gates the stride prefetcher on the Jacobi smoke
campaign: remote line fetches (one ``fetch_requests`` per home-server
round trip) and scheduled DES events may not exceed
:data:`MAX_PREFETCH_FETCH_REQUESTS` and :data:`MAX_PREFETCH_EVENTS`, and
measured prefetch accuracy must be at least ``min_prefetch_accuracy``.
All three quantities are deterministic, so the gate is exact.

``--check-faults-off`` exits non-zero when the two recorded trajectory
fingerprints -- fault injector absent vs compiled in but disabled (an
all-zero FaultPlan) -- differ in any field. Fingerprints are exact
simulated metrics (grid hash, elapsed, event and cache counters), so this
gate is bit-tight: arming the fault subsystem with nothing to inject must
change NOTHING.

``--check-replication-off`` is the same bit-tight gate for the
replication subsystem: the default build vs an explicit
``replication_factor=1`` must produce identical trajectory fingerprints,
pinning the promise that at rf=1 no WAL, no checksums, no detector and no
extra events exist.

``--check-shard-scaling`` gates the sharded control plane on the
16 -> 64 -> 256 compute-server sweep: the ``manager_shards=1``
fingerprint must be bit-identical to the default build (same bit-tight
comparison as the other off-gates), the mean per-shard manager RPC load
must stay flat across the sweep (deviation at most
``max_shard_load_deviation``), and hierarchical tree barriers must cut
total barrier RPCs by at least ``min_barrier_reduction`` x versus flat
barriers at every sweep point. All quantities are deterministic RPC
counts, so the load and reduction gates are exact.

``--check-grayfail-off`` is the bit-tight off-gate for the gray-failure
layer: the default build's canonical Jacobi fingerprint must match the
recorded PR 9 pin field for field -- adaptive timeouts, retry budgets
and admission control may not perturb a single event until asked for.

``--check-grayfail`` gates the resilience itself on the recorded
slow-server storm cell (one memory server serving 10x slow): final data
must be bit-identical to the fault-free grayfail run, elapsed simulated
time may stretch by at most ``max_storm_slowdown`` x, and the counters
must show the machinery earned its keep -- breakers opened, overloaded
servers shed.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

#: Deterministic ceilings, pinned at the values the single batched fetch
#: path records: modeled round-trip request messages over the fig12
#: smoke cells, and the stride-prefetch campaign's remote line fetches and
#: scheduled DES events.
MAX_RT_REQUESTS = 499
MAX_PREFETCH_FETCH_REQUESTS = 191
MAX_PREFETCH_EVENTS = 3451


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


def check(report: dict, max_ratio: float) -> tuple[bool, str]:
    """The gate: serial smoke wall clock must stay under the seed baseline."""
    seed = report["baseline_seed"]["wall_s"]
    serial = report["phases"]["after_serial"]["wall_s"]
    ratio = serial / seed
    ok = ratio <= max_ratio
    msg = (f"serial smoke campaign: {serial:.3f} s = {ratio:.2f}x seed "
           f"baseline ({seed:.3f} s); gate allows <= {max_ratio:.2f}x")
    return ok, msg


def check_events(report: dict, min_reduction: float) -> tuple[bool, str]:
    """The event gate: scheduled events must stay well under the seed count.

    Deterministic (event counts don't jitter with the box), so it pins the
    batching/coalescing win independent of wall-clock noise.
    """
    events = report.get("events")
    if not events:
        return False, ("report has no 'events' block; regenerate it with "
                       "the current benchmarks/bench_perf.py")
    seed = events.get("scheduled_at_seed") or report["baseline_seed"].get(
        "events_scheduled")
    scheduled = events["scheduled"]
    if not seed or not scheduled:
        return False, f"unusable event counts (seed={seed}, now={scheduled})"
    reduction = seed / scheduled
    ok = reduction >= min_reduction
    msg = (f"scheduled events: {scheduled:,} = {reduction:.2f}x fewer than "
           f"seed ({seed:,}); gate requires >= {min_reduction:.2f}x")
    return ok, msg


def check_events_rate(report: dict, min_rate: float,
                      max_smoke_wall: float) -> tuple[bool, str]:
    """The dispatch-throughput gate for the epoch-sliced engine.

    Two legs:

    * the recorded 256-server sweep cell must sustain at least
      ``min_rate`` scheduled events/sec through its run phase;
    * the serial smoke campaign must finish within ``max_smoke_wall``
      seconds, absolute. (The gate used to allow ``max(max_smoke_wall,
      0.85 x seed)`` as slack for slow boxes; the batched round-trip
      layer cut the wall far enough that the seed-relative leg was pure
      dead headroom, so it's gone -- the absolute bound is the gate.)
    """
    rate = report.get("events_rate")
    if not rate:
        return False, ("report has no 'events_rate' block; regenerate it "
                       "with the current benchmarks/bench_perf.py")
    problems = []
    per_sec = rate.get("events_per_sec") or 0
    if per_sec < min_rate:
        problems.append(f"sustained dispatch {per_sec:,}/s < "
                        f"{min_rate:,.0f}/s on the 256-server sweep cell")
    smoke = report["phases"]["after_serial"]["wall_s"]
    if smoke > max_smoke_wall:
        problems.append(f"serial smoke wall {smoke:.3f} s > "
                        f"{max_smoke_wall:.2f} s absolute target")
    if problems:
        return False, "events-rate gate FAILED: " + "; ".join(problems)
    return True, (f"events rate: {per_sec:,}/s sustained on the 256-server "
                  f"sweep (gate >= {min_rate:,.0f}/s, {rate.get('engine')} "
                  f"engine); serial smoke {smoke:.3f} s <= "
                  f"{max_smoke_wall:.2f} s absolute target")


def check_batched_rt(report: dict,
                     max_smoke_wall: float) -> tuple[bool, str]:
    """The batched round-trip gate, two legs in one:

    * modeled round-trip request messages over the fig12 smoke cells may
      not exceed :data:`MAX_RT_REQUESTS` (deterministic, so exact);
    * the serial smoke wall must stay under ``max_smoke_wall`` seconds.
    """
    block = report.get("batched_rt")
    if not block:
        return False, ("report has no 'batched_rt' block; regenerate it "
                       "with the current benchmarks/bench_perf.py")
    problems = []
    total = block.get("requests", {}).get("total")
    if total is None or total > MAX_RT_REQUESTS:
        problems.append(f"modeled requests {total} > {MAX_RT_REQUESTS:,}")
    smoke = report["phases"]["after_serial"]["wall_s"]
    if smoke > max_smoke_wall:
        problems.append(f"serial smoke wall {smoke:.3f} s > "
                        f"{max_smoke_wall:.2f} s")
    if problems:
        return False, "batched round-trip gate FAILED: " + "; ".join(problems)
    return True, (f"batched round trips: {total:,} modeled requests "
                  f"(gate <= {MAX_RT_REQUESTS:,}); serial smoke "
                  f"{smoke:.3f} s <= {max_smoke_wall:.2f} s")


def check_prefetch(report: dict, min_accuracy: float) -> tuple[bool, str]:
    """The stride-prefetch gate: round trips and events under their
    ceilings, accurate speculation. Deterministic, so exact."""
    prefetch = report.get("prefetch")
    if not prefetch:
        return False, ("report has no 'prefetch' block; regenerate it with "
                       "the current benchmarks/bench_perf.py")
    problems = []
    stride = prefetch.get("stride", {})
    fetches = stride.get("fetch_requests")
    if fetches is None or fetches > MAX_PREFETCH_FETCH_REQUESTS:
        problems.append(f"remote line fetches {fetches} > "
                        f"{MAX_PREFETCH_FETCH_REQUESTS:,}")
    events = stride.get("events_scheduled")
    if events is None or events > MAX_PREFETCH_EVENTS:
        problems.append(f"scheduled events {events} > "
                        f"{MAX_PREFETCH_EVENTS:,}")
    accuracy = prefetch.get("prefetch_accuracy")
    if accuracy is None or accuracy < min_accuracy:
        problems.append(f"prefetch accuracy {accuracy} < {min_accuracy:.2f}")
    if problems:
        return False, "stride prefetch FAILED: " + "; ".join(problems)
    return True, (f"stride prefetch: {fetches:,} remote line fetches "
                  f"(gate <= {MAX_PREFETCH_FETCH_REQUESTS:,}), events "
                  f"{events:,} (gate <= {MAX_PREFETCH_EVENTS:,}), accuracy "
                  f"{accuracy * 100:.1f}% (gate >= {min_accuracy * 100:.0f}%)")


def check_faults_off(report: dict) -> tuple[bool, str]:
    """The faults-off gate: armed-but-silent must equal injector-absent,
    field for field (exact floats and counter dicts, no tolerance)."""
    fingerprints = report.get("faults_off")
    if not fingerprints:
        return False, ("report has no 'faults_off' block; regenerate it "
                       "with the current benchmarks/bench_perf.py")
    absent = fingerprints.get("injector_absent", {})
    silent = fingerprints.get("injector_silent", {})
    diverged = sorted(k for k in set(absent) | set(silent)
                      if absent.get(k) != silent.get(k))
    if diverged:
        return False, ("faults-off fingerprints DIVERGED in: "
                       + ", ".join(diverged))
    return True, ("faults-off fingerprints bit-identical "
                  f"({len(absent)} fields compared)")


def check_replication_off(report: dict) -> tuple[bool, str]:
    """The replication-off gate: explicit rf=1 must equal the default
    build, field for field -- the subsystem may not exist until asked."""
    fingerprints = report.get("replication_off")
    if not fingerprints:
        return False, ("report has no 'replication_off' block; regenerate "
                       "it with the current benchmarks/bench_perf.py")
    absent = fingerprints.get("rf_absent", {})
    rf_one = fingerprints.get("rf_one", {})
    diverged = sorted(k for k in set(absent) | set(rf_one)
                      if absent.get(k) != rf_one.get(k))
    if diverged:
        return False, ("replication-off fingerprints DIVERGED in: "
                       + ", ".join(diverged))
    return True, ("replication-off fingerprints bit-identical "
                  f"({len(absent)} fields compared)")


def check_partition_safety(report: dict) -> tuple[bool, str]:
    """The partition-safety gate, three sub-checks in one:

    * fencing idle must be bit-identical to the default build (field for
      field -- the fence may not perturb a healthy run);
    * the partition chaos cell must end with data identical to its
      fault-free baseline, with >= 1 promotion and >= 1 fenced
      stale-epoch write on the record (zero stale writes applied);
    * the checkpoint/restore round trip must reproduce the
      straight-through final bytes.
    """
    block = report.get("partition_safety")
    if not block:
        return False, ("report has no 'partition_safety' block; regenerate "
                       "it with the current benchmarks/bench_perf.py")
    problems = []
    absent = block.get("fencing_absent", {})
    idle = block.get("fencing_idle", {})
    diverged = sorted(k for k in set(absent) | set(idle)
                      if absent.get(k) != idle.get(k))
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
        return False, "partition safety FAILED: " + "; ".join(problems)
    return True, (f"partition safety: fencing idle bit-identical "
                  f"({len(absent)} fields), cut survived with "
                  f"{membership.get('promotions')} promotion(s) and "
                  f"{membership.get('stale_writes_fenced')} fenced stale "
                  f"write(s), checkpoint round trip reproduced "
                  f"{ckpt.get('checkpoint_pages')} pages exactly")


def check_shard_scaling(report: dict, max_deviation: float,
                        min_barrier_reduction: float) -> tuple[bool, str]:
    """The sharded-control-plane gate: shards=1 bit-identical, per-shard
    RPC load flat across the sweep, tree barriers beat flat barriers."""
    shards = report.get("shard_scaling")
    if not shards:
        return False, ("report has no 'shard_scaling' block; regenerate it "
                       "with the current benchmarks/bench_perf.py")
    problems = []
    absent = shards.get("shards_absent", {})
    one = shards.get("shards_one", {})
    diverged = sorted(k for k in set(absent) | set(one)
                      if absent.get(k) != one.get(k))
    if diverged:
        problems.append("shards=1 fingerprint DIVERGED in: "
                        + ", ".join(diverged))
    deviation = shards.get("per_shard_mean_deviation")
    if deviation is None or deviation > max_deviation:
        problems.append(f"per-shard load deviation {deviation} > "
                        f"{max_deviation:.2f}")
    sweep = shards.get("sweep", ())
    if not sweep:
        problems.append("empty sweep")
    for cell in sweep:
        reduction = cell.get("barrier_rpc_reduction")
        if reduction is None or reduction < min_barrier_reduction:
            problems.append(f"barrier RPC reduction {reduction} < "
                            f"{min_barrier_reduction:.1f}x at "
                            f"{cell.get('n_compute')} servers")
    if problems:
        return False, "shard scaling FAILED: " + "; ".join(problems)
    top = sweep[-1]
    return True, (f"shard scaling: shards=1 bit-identical "
                  f"({len(absent)} fields), per-shard load deviation "
                  f"{deviation * 100:.1f}% (gate <= "
                  f"{max_deviation * 100:.0f}%) across "
                  f"{'/'.join(str(c['n_compute']) for c in sweep)} servers, "
                  f"barriers -{top['barrier_rpc_reduction']:.1f}x vs flat "
                  f"(gate >= {min_barrier_reduction:.1f}x)")


def check_grayfail_off(report: dict) -> tuple[bool, str]:
    """The grayfail-off gate: the default build (no fault plan, no
    breaker/shedding knobs) must reproduce the PR 9 trajectory
    fingerprint field for field -- the gray-failure machinery may not
    exist until asked for."""
    block = report.get("grayfail")
    if not block:
        return False, ("report has no 'grayfail' block; regenerate it "
                       "with the current benchmarks/bench_perf.py")
    if not block.get("off_identical_to_pr9"):
        off = block.get("off_fingerprint", {})
        pin = block.get("pr9_fingerprint", {})
        diverged = sorted(k for k in set(off) | set(pin)
                          if off.get(k) != pin.get(k))
        return False, ("grayfail-off fingerprint DIVERGED from the PR 9 "
                       "pin in: " + ", ".join(diverged))
    return True, ("grayfail-off fingerprint bit-identical to the PR 9 pin "
                  f"({len(block.get('pr9_fingerprint', {}))} fields "
                  "compared)")


def check_grayfail(report: dict,
                   max_storm_slowdown: float) -> tuple[bool, str]:
    """The gray-failure resilience gate, three legs in one:

    * under the recorded 10x slow-server storm the grayfail deployment
      must end with data bit-identical to the fault-free run;
    * the storm slowdown must stay under ``max_storm_slowdown``;
    * the resilience machinery must have actually worked for a living:
      breakers opened, overloaded servers shed.
    """
    block = report.get("grayfail")
    if not block:
        return False, ("report has no 'grayfail' block; regenerate it "
                       "with the current benchmarks/bench_perf.py")
    problems = []
    if not block.get("data_identical"):
        problems.append("storm data DIVERGED from the fault-free run")
    slowdown = block.get("storm_slowdown")
    if slowdown is None or slowdown > max_storm_slowdown:
        problems.append(f"storm slowdown {slowdown} > "
                        f"{max_storm_slowdown:.2f}x")
    counters = block.get("counters", {})
    for key in ("breaker_opens", "sheds"):
        if not counters.get(key):
            problems.append(f"{key} == 0 (machinery never exercised)")
    if problems:
        return False, "gray-failure gate FAILED: " + "; ".join(problems)
    return True, (f"gray failure: data identical under 10x slow-server "
                  f"storm; slowdown {slowdown:.2f}x (gate <= "
                  f"{max_storm_slowdown:.2f}x); breaker_opens="
                  f"{counters.get('breaker_opens')} "
                  f"sheds={counters.get('sheds')}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("report", nargs="?", default="BENCH_perf.json",
                        help="path to BENCH_perf.json")
    parser.add_argument("--check", action="store_true",
                        help="regression gate: exit 1 if the serial smoke "
                             "run is slower than max-ratio x seed baseline")
    parser.add_argument("--max-ratio", type=float, default=1.0,
                        help="gate threshold vs seed baseline (default 1.0)")
    parser.add_argument("--check-events", action="store_true",
                        help="event gate: exit 1 if scheduled events are not "
                             "at least min-event-reduction x below the seed "
                             "count")
    parser.add_argument("--min-event-reduction", type=float, default=3.0,
                        help="required event-count reduction vs seed "
                             "(default 3.0)")
    parser.add_argument("--check-events-rate", action="store_true",
                        help="throughput gate: exit 1 unless the 256-server "
                             "sweep sustains min-events-rate events/sec and "
                             "the serial smoke wall stays under the "
                             "absolute target")
    parser.add_argument("--min-events-rate", type=float, default=100_000,
                        help="required sustained events/sec on the "
                             "256-server sweep cell (default 100000)")
    parser.add_argument("--max-smoke-wall", type=float, default=3.0,
                        help="absolute serial smoke wall bound in seconds, "
                             "shared by --check-events-rate and "
                             "--check-batched-rt (default 3.0: best "
                             "measured 1.48 s on the 1-CPU reference box "
                             "plus CI-runner jitter headroom)")
    parser.add_argument("--check-batched-rt", action="store_true",
                        help="batched round-trip gate: exit 1 unless modeled "
                             "round-trip requests stay under their ceiling "
                             "and the serial smoke wall is under the target")
    parser.add_argument("--check-prefetch", action="store_true",
                        help="stride-prefetch gate: exit 1 unless the "
                             "recorded fetch and event counts stay under "
                             "their ceilings and prefetch accuracy clears "
                             "its floor")
    parser.add_argument("--min-prefetch-accuracy", type=float, default=0.6,
                        help="required prefetch accuracy (default 0.6)")
    parser.add_argument("--check-faults-off", action="store_true",
                        help="determinism gate: exit 1 unless the recorded "
                             "injector-absent and injector-silent "
                             "fingerprints are bit-identical")
    parser.add_argument("--check-replication-off", action="store_true",
                        help="determinism gate: exit 1 unless the recorded "
                             "default-build and replication_factor=1 "
                             "fingerprints are bit-identical")
    parser.add_argument("--check-partition-safety", action="store_true",
                        help="gate: fencing idle bit-identical to defaults, "
                             "partition cell data-identical with >=1 fenced "
                             "stale write, checkpoint round trip exact")
    parser.add_argument("--check-shard-scaling", action="store_true",
                        help="control-plane gate: exit 1 unless shards=1 is "
                             "bit-identical, per-shard RPC load stays flat "
                             "across the sweep, and tree barriers cut "
                             "barrier RPCs by the required factor")
    parser.add_argument("--check-grayfail-off", action="store_true",
                        help="determinism gate: exit 1 unless the recorded "
                             "default-build fingerprint matches the PR 9 "
                             "pin bit for bit (gray-failure machinery off "
                             "is the PR 9 protocol, not a near miss)")
    parser.add_argument("--check-grayfail", action="store_true",
                        help="resilience gate: exit 1 unless the "
                             "slow-server storm run kept data bit-identical "
                             "under max-storm-slowdown with breakers opened "
                             "and sheds recorded")
    parser.add_argument("--max-storm-slowdown", type=float, default=2.0,
                        help="allowed elapsed-time ratio of the storm run "
                             "vs the fault-free grayfail run (default 2.0)")
    parser.add_argument("--max-shard-load-deviation", type=float,
                        default=0.25,
                        help="allowed per-shard mean RPC-load deviation "
                             "across the sweep (default 0.25)")
    parser.add_argument("--min-barrier-reduction", type=float, default=2.0,
                        help="required tree-vs-flat barrier RPC reduction "
                             "at every sweep point (default 2.0)")
    args = parser.parse_args(argv)

    path = pathlib.Path(args.report)
    if not path.exists():
        print(f"no report at {path}; run "
              f"`PYTHONPATH=src python benchmarks/bench_perf.py` first",
              file=sys.stderr)
        return 2
    report = json.loads(path.read_text())
    print(render(report))
    failed = False
    if args.check:
        ok, msg = check(report, args.max_ratio)
        print(f"\n[{'PASS' if ok else 'FAIL'}] {msg}")
        failed |= not ok
    if args.check_events:
        ok, msg = check_events(report, args.min_event_reduction)
        print(f"\n[{'PASS' if ok else 'FAIL'}] {msg}")
        failed |= not ok
    if args.check_events_rate:
        ok, msg = check_events_rate(report, args.min_events_rate,
                                    args.max_smoke_wall)
        print(f"\n[{'PASS' if ok else 'FAIL'}] {msg}")
        failed |= not ok
    if args.check_batched_rt:
        ok, msg = check_batched_rt(report, args.max_smoke_wall)
        print(f"\n[{'PASS' if ok else 'FAIL'}] {msg}")
        failed |= not ok
    if args.check_prefetch:
        ok, msg = check_prefetch(report, args.min_prefetch_accuracy)
        print(f"\n[{'PASS' if ok else 'FAIL'}] {msg}")
        failed |= not ok
    if args.check_faults_off:
        ok, msg = check_faults_off(report)
        print(f"\n[{'PASS' if ok else 'FAIL'}] {msg}")
        failed |= not ok
    if args.check_replication_off:
        ok, msg = check_replication_off(report)
        print(f"\n[{'PASS' if ok else 'FAIL'}] {msg}")
        failed |= not ok
    if args.check_partition_safety:
        ok, msg = check_partition_safety(report)
        print(f"\n[{'PASS' if ok else 'FAIL'}] {msg}")
        failed |= not ok
    if args.check_grayfail_off:
        ok, msg = check_grayfail_off(report)
        print(f"\n[{'PASS' if ok else 'FAIL'}] {msg}")
        failed |= not ok
    if args.check_grayfail:
        ok, msg = check_grayfail(report, args.max_storm_slowdown)
        print(f"\n[{'PASS' if ok else 'FAIL'}] {msg}")
        failed |= not ok
    if args.check_shard_scaling:
        ok, msg = check_shard_scaling(report, args.max_shard_load_deviation,
                                      args.min_barrier_reduction)
        print(f"\n[{'PASS' if ok else 'FAIL'}] {msg}")
        failed |= not ok
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
