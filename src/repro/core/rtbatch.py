"""Batched protocol round trips: the data plane's one request shape.

A per-operation protocol model would charge one request message, one
server service slot and one reply transfer per cache line (and one recall
round trip per owned page, one diff put per evicted page); on the smoke
campaigns that shape was ~10^5 modeled round trips, almost all of them
single-line -- pure per-trip overhead, both simulated and in wall clock.

This module aggregates everything bound for the SAME home server within a
round into ONE modeled round trip with the timing law

    trip cost = alpha + beta * lines

where alpha is the fixed per-trip part (request latency + control-message
serialization + one ``memserver_service_time`` charge + reply latency) and
beta the per-line part (per-page wire serialization at the link bandwidth
+ one ``install_page_time`` per page), all under the *existing*
interconnect parameters -- no new constants are introduced, the law is
what the per-operation model charges minus the repeated alphas.

Three aggregations ride the same trip structure:

* **demand + speculation** -- a faulted span's missing lines AND the
  stride/adjacent predictor's targets fetch as one trip per home
  (:func:`fault_lines_batched`); speculative riders install with
  ``prefetched=True`` and stay out of demand accounting;
* **recalls** -- the home pulls ALL pages one owner holds with a single
  recall request and a single bulk diff return
  (``MemoryServer.serve_fetch_bulk`` / ``_recall_bulk``);
* **merges** -- eviction write-backs group per home into one diff put
  (:func:`flush_diffs_batched`); barrier/region merges already shipped
  per home (``system._apply_at_homes``) and are only *accounted* here.

Fault composition is inherited, not re-implemented: a batch is one
request message through the injector's retry loop and one dedup sequence
number at the receiver, so a dropped batch retries as a batch and a
duplicated batch is dropped whole.

Gray-failure resilience rides the same trips (``config.grayfail_armed``):
shed (NACKed) requests back off under the plan's retry policy while
spending the destination's retry budget; a dry budget opens that
destination's circuit breaker, and while it is open the home's trips
degrade to the synchronous per-page path. All of it is unreachable at the
defaults.
"""

from __future__ import annotations

from collections import Counter
from itertools import chain
from typing import TYPE_CHECKING

from repro.errors import CommunicationError, recovery_action
from repro.faults.plan import RetryPolicy
from repro.interconnect.scl import CONTROL_BYTES
from repro.memory.backing import payload_crc_ok
from repro.sim.engine import Timeout

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.compute_server import ComputeServer

#: Backoff schedule for shed (NACKed) requests when no fault plan is
#: armed to supply one (admission control works under pure contention).
_SHED_RETRY = RetryPolicy()


class RoundTripLedger:
    """Per-home accounting of modeled round trips (``stats_report``'s
    ``round_trips`` namespace).

    ``record`` is called once per *successful* trip with the trip's kind
    (``demand`` -- a fault batch, speculative riders included; ``speculative``
    -- a pure prefetch trip; ``recall`` -- one bulk owner recall; ``merge``
    -- one bulk diff ship) and the number of distinct cache lines it moved.
    """

    __slots__ = ("per_home", "hist", "trips", "lines")

    def __init__(self):
        #: {home index: Counter(kind -> trips)}
        self.per_home: dict[int, Counter] = {}
        #: Power-of-two lines-per-trip histogram: {bucket floor: trips}.
        self.hist: Counter = Counter()
        self.trips = 0
        self.lines = 0

    def record(self, home: int, kind: str, lines: int) -> None:
        per_kind = self.per_home.get(home)
        if per_kind is None:
            per_kind = self.per_home[home] = Counter()
        per_kind[kind] += 1
        self.trips += 1
        self.lines += lines
        self.hist[1 << max(lines, 1).bit_length() - 1] += 1

    def snapshot(self) -> dict:
        hist = {}
        for floor in sorted(self.hist):
            label = "1" if floor == 1 else f"{floor}-{2 * floor - 1}"
            hist[label] = self.hist[floor]
        return {
            "trips": self.trips,
            "lines": self.lines,
            "lines_per_trip_mean": (round(self.lines / self.trips, 2)
                                    if self.trips else 0.0),
            "lines_per_trip_hist": hist,
            "by_home": {str(home): dict(sorted(per_kind.items()))
                        for home, per_kind in sorted(self.per_home.items())},
        }


# ----------------------------------------------------------------------
# gray-failure machinery: timing-law floors, recovery
# ----------------------------------------------------------------------
def trip_timeout_floor(system, src: str, dst: str, n_pages: int) -> float:
    """The timing law's ``alpha + beta * lines`` lower bound for one bulk
    trip of ``n_pages`` pages.

    Sizes the sender's retransmit timer: a clean reply to a k-page request cannot arrive before request
    latency + one service slot + the bulk data return + k installs, so a
    timer shorter than the law retransmits legitimately slow big batches
    (pinned by the satellite regression test).
    """
    config = system.config
    fabric = system.fabric
    return (fabric.path_time(src, dst, CONTROL_BYTES)
            + config.memserver_service_time
            + fabric.path_time(dst, src, n_pages * config.layout.page_bytes)
            + n_pages * config.install_page_time)


def recover(cs: "ComputeServer", server, err, backoffs: int = 0):
    """Generator: dispatch one retryable protocol error by its
    classification (the :mod:`repro.errors` taxonomy) and return the
    updated backoff count; fatal errors re-raise.

    * ``failover`` -- wait out the promotion, then let the caller
      re-resolve the home and retry;
    * ``refresh_epoch`` -- fenced by a newer view: re-read the membership
      epoch and re-issue;
    * ``backoff`` -- shed (NACKed) or declined: capped exponential delay
      under the plan's retry policy, then re-issue.

    Every dispatched failure also debits the destination's circuit
    breaker (when retry budgets are armed); the breaker tripping here is
    what degrades the NEXT attempt to the per-page path.
    """
    system = cs.system
    action = recovery_action(err)
    if action is None:
        raise err
    guard = system.breaker_for(server.component)
    if guard is not None:
        opens = guard.opens
        guard.failure(cs.engine.now)
        if guard.opens > opens and system.membership is not None:
            system.membership.gray_suspect(server.component)
    if action == "failover":
        yield from system.await_failover(server.index, err,
                                         comp=cs.component)
    elif action == "refresh_epoch":
        cs.known_epoch = system.membership.epoch
        cs.stats.incr("epoch_refreshes")
    else:  # "backoff"
        backoffs += 1
        cs.stats.counters["shed_backoffs"] += 1
        injector = system.injector
        retry = injector.retry if injector is not None else _SHED_RETRY
        delay = retry.delay(backoffs)
        if not cs.engine.try_advance(delay):
            yield Timeout(delay)
    return backoffs


def _home_trip(cs: "ComputeServer", tid: int, home: int, demand_pages,
               spec_pages, protect: set[int]):
    """Generator: land the bulk data for one home group, surviving gray
    failures -- shed (NACKed) requests back off under the retry budget,
    and an open breaker degrades the group to the per-page path.

    Returns ``(data, snapshots)`` for the install leg, or None when an
    open breaker degraded the group to the synchronous per-page path
    (which installed the demand pages itself; speculative riders are
    dropped, per-operation accounting applies).
    """
    system = cs.system
    counters = cs.stats.counters
    cache = system.cache_of(tid)
    inval_epoch = cache.inval_epoch
    epoch_get = inval_epoch.get
    resolve_home = system.directory.resolve_home
    server_pages = demand_pages + spec_pages
    nbytes = len(server_pages) * cache.layout.page_bytes
    armed = system.injector is not None
    backoffs = 0
    while True:
        server = system.memory_servers[resolve_home(home)]
        guard = system.breaker_for(server.component)
        if guard is not None and not guard.allow(cs.engine.now):
            counters["breaker_degraded"] += 1
            if demand_pages:
                yield from cs._fetch_pages(tid, demand_pages, protect,
                                           prefetched=False)
            return None
        floor = (trip_timeout_floor(system, cs.component, server.component,
                                    len(server_pages)) if armed else 0.0)
        # No epochs recorded yet -> every snapshot would read 0; skip
        # building the dict and compare against 0 in _live instead.
        snapshots = ({p: epoch_get(p, 0) for p in server_pages}
                     if inval_epoch else None)
        counters["fetch_requests"] += 1
        try:
            t = system.scl.send(cs.component, server.component,
                                category="fetch_req", timeout_floor=floor)
            if t is not None:
                yield from t
            data = yield from server.serve_fetch_bulk(tid, server_pages)
            # Read synchronously, before any other serve overwrites it.
            crcs = server.last_serve_crcs
            t = system.fabric.transfer_inline(server.component, cs.component,
                                              nbytes, category="page")
            if t is not None:
                yield from t
            if crcs is not None:
                for page in server_pages:
                    if payload_crc_ok(data.get(page), crcs.get(page)):
                        continue
                    counters["integrity_failures"] += 1
                    data[page] = yield from cs._repair_page(server, page)
                    counters["integrity_repairs"] += 1
        except CommunicationError as err:
            backoffs = yield from recover(cs, server, err, backoffs)
            continue
        if guard is not None:
            guard.success()
        return data, snapshots


def predict_lines(cs: "ComputeServer", tid: int, lines):
    """The policy's predictions for a run of demand-missed lines.

    The stride predictor observes every miss regardless; a batch wider
    than the prefetch degree predicts nothing -- it has already outrun
    anything the predictor could add, and measured on the Jacobi
    campaigns the lines past such a batch are installs that cross into
    other threads' partitions and get invalidated untouched. The targets
    are returned so they can ride the demand trip.
    """
    policy = cs.prefetch_policy
    issue = len(lines) <= policy.degree
    mode = policy.mode
    if mode == "adjacent":
        return tuple(line + 1 for line in lines) if issue else ()
    if mode == "stride":
        cache = cs.system.cache_of(tid)
        cache_counters = cache.stats.counters
        pages_per_line = cache.layout.pages_per_line
        allocated_span = cs.system.allocator.allocated_span
        prefetcher = cs.prefetcher
        targets: tuple[int, ...] = ()
        for line in lines:
            # Streams are keyed by allocation so a kernel alternating
            # between arrays (src/dst sweeps) trains one clean stride per
            # array. Feed the whole run; the last observation's prediction
            # is the freshest, so only it is issued.
            span = allocated_span(line * pages_per_line)
            targets = prefetcher.observe(
                tid, line, cache_counters,
                stream_key=span[0] if span else None)
        return targets if issue else ()
    return ()


def speculative_pages(cs: "ComputeServer", tid: int, targets,
                      exclude: frozenset) -> list[int]:
    """Expand predicted lines to the missing pages a trip should carry
    (skipping the demand batch's own lines).

    Pages another thread currently owns dirty are NOT speculated on:
    riders share the demand trip, so a guessed page would recall an
    active writer *synchronously* -- the faulting thread and the owner
    both stall for data the guess may never touch. Demand fetches still
    recall owners, as they must.
    """
    cache = cs.system.cache_of(tid)
    entries = cache.resident_page_set()
    line_pages = cache.layout.line_pages
    allocated_only = cs._allocated_only
    owner_of = cs.system.directory.owner_of
    pages: list[int] = []
    seen: set[int] = set()
    for line in targets:
        if line in exclude or line in seen:
            continue
        seen.add(line)
        missing = [p for p in line_pages(line) if p not in entries]
        for p in allocated_only(missing):
            owner = owner_of(p)
            if owner is None or owner == tid:
                pages.append(p)
    return pages


def fault_lines_batched(cs: "ComputeServer", tid: int, lines,
                        protect: set[int]):
    """Generator: the batched fault path -- one fault-handler charge and
    one round trip per home server for the whole missed span, with the
    predictor's targets riding the same trips as speculative cargo."""
    cache = cs.system.cache_of(tid)
    config = cs.system.config
    counters = cs.stats.counters
    allocated_only = cs._allocated_only
    line_pages = cache.layout.line_pages
    entries = cache.resident_page_set()
    demand: list[int] = []
    missed_lines: list[int] = []
    for line in lines:
        missing = [p for p in line_pages(line) if p not in entries]
        missing = allocated_only(missing)
        if missing:
            counters["faults"] += 1
            demand.extend(missing)
            missed_lines.append(line)
    if not missed_lines:
        return
    spec: list[int] = []
    targets = predict_lines(cs, tid, missed_lines)
    if targets:
        spec = speculative_pages(cs, tid, targets, frozenset(missed_lines))
    counters["batched_line_fetches"] += 1
    counters["batched_lines"] += len(missed_lines)
    if spec:
        counters["speculative_riders"] += len(spec)
    if not cs.engine.try_advance(config.fault_handler_time):
        yield Timeout(config.fault_handler_time)
    yield from fetch_batched(cs, tid, demand, spec, protect)


def fetch_batched(cs: "ComputeServer", tid: int, demand: list[int],
                  spec: list[int], protect: set[int]):
    """Generator: fetch demand + speculative pages, ONE round trip per
    home server (request message, bulk serve -- recalls included -- and
    one bulk data return; installs pay beta's per-page leg).

    Demand pages install like a demand fetch (may evict); speculative
    riders install with ``prefetched=True`` and never evict -- a full
    cache skips them.
    """
    cache = cs.system.cache_of(tid)
    token = cache.begin_fetch(chain(demand, spec))
    try:
        yield from _fetch_batched_flight(cs, tid, demand, spec, protect)
    finally:
        cache.end_fetch(token)


def _fetch_batched_flight(cs: "ComputeServer", tid: int, demand: list[int],
                          spec: list[int], protect: set[int]):
    system = cs.system
    cache = system.cache_of(tid)
    layout = cache.layout
    grouped: dict[int, tuple[list[int], list[int]]]
    if system.config.n_memory_servers == 1:
        # Single home: skip the per-page home lookups entirely.
        grouped = {0: (demand, spec)} if (demand or spec) else {}
    else:
        home_of_page = system.allocator.home_of_page
        grouped = {}
        for page in demand:
            grouped.setdefault(home_of_page(page), ([], []))[0].append(page)
        for page in spec:
            grouped.setdefault(home_of_page(page), ([], []))[1].append(page)

    inval_epoch = cache.inval_epoch
    epoch_get = inval_epoch.get
    entries = cache.resident_page_set()
    install_time = system.config.install_page_time
    engine = cs.engine
    try_advance = engine.try_advance
    counters = cs.stats.counters
    ledger = system.rt_ledger
    for home in sorted(grouped):
        demand_pages, spec_pages = grouped[home]
        server_pages = demand_pages + spec_pages
        trip = yield from _home_trip(cs, tid, home, demand_pages,
                                     spec_pages, protect)
        if trip is None:
            continue  # breaker degrade: the per-page path installed them
        data, snapshots = trip
        ledger.record(home, "demand" if demand_pages else "speculative",
                      len(layout.lines_of_pages(server_pages)))
        counters["pages_fetched"] += len(server_pages)

        # The batched install leg: beta's per-page install cost is ONE
        # modeled charge of k * install_page_time for the whole group.
        # Installs apply in bulk after the charge; any suspension
        # (eviction for the demand leg, the charge itself not advancing
        # inline) re-validates against raced fills and invalidation
        # epochs before bytes land. Speculative riders never evict: what
        # the cache cannot hold is skipped, not made room for.
        def _live(pages, snapshots=snapshots):
            if snapshots is None and not inval_epoch:
                # Still no epochs anywhere: only raced fills can
                # disqualify.
                return [p for p in pages if p not in entries], 0
            live = []
            dropped = 0
            for p in pages:
                if p in entries:
                    continue  # raced with another fill
                snap = 0 if snapshots is None else snapshots[p]
                if epoch_get(p, 0) != snap:
                    dropped += 1
                else:
                    live.append(p)
            return live, dropped

        stale = 0
        eligible_d = demand_pages
        eligible_s = spec_pages
        charged = False
        while True:
            eligible_d, dropped = _live(eligible_d)
            stale += dropped
            eligible_s, dropped = _live(eligible_s)
            stale += dropped
            need = len(eligible_d) - cache.free_pages
            if need > 0:
                yield from cs._evict(tid, need,
                                     protect | set(server_pages))
                continue
            room = cache.free_pages - len(eligible_d)
            if len(eligible_s) > room:
                keep = room if room > 0 else 0
                counters["prefetch_skipped_full"] += \
                    len(eligible_s) - keep
                eligible_s = eligible_s[:keep]
            k = len(eligible_d) + len(eligible_s)
            if k and not charged:
                charged = True
                delay = k * install_time
                if not try_advance(delay):
                    yield Timeout(delay)
                    continue  # suspended: re-validate before installing
            cache.install_many(eligible_d, data, prefetched=False)
            cache.install_many(eligible_s, data, prefetched=True)
            break
        if stale:
            counters["stale_fetch_dropped"] += stale


def flush_diffs_batched(cs: "ComputeServer", diffs, category: str = "diff"):
    """Generator: write diffs back grouped per logical home -- one put
    (diff-scan lead fused, one scan per diff) + one bulk apply per home,
    retrying through failovers and fencing rejects as a unit."""
    system = cs.system
    config = system.config
    fencing = system.membership is not None
    ledger = system.rt_ledger
    line_of = config.layout.line_of_page
    resolve_home = system.directory.resolve_home
    by_home: dict[int, list] = {}
    if config.n_memory_servers == 1:
        diffs = list(diffs)
        if diffs:
            by_home[0] = diffs
    else:
        home_of_page = system.allocator.home_of_page
        for diff in diffs:
            by_home.setdefault(home_of_page(diff.page), []).append(diff)
    for home in sorted(by_home):
        group = by_home[home]
        wire = sum(d.wire_bytes for d in group)
        backoffs = 0
        while True:
            server = system.memory_servers[resolve_home(home)]
            guard = system.breaker_for(server.component)
            try:
                t = system.scl.rdma_put(
                    cs.component, server.component, wire, category=category,
                    lead=config.diff_scan_time * len(group))
                if t is not None:
                    yield from t
                yield from server.apply_diffs(
                    group, epoch=cs.known_epoch if fencing else None)
            except CommunicationError as err:
                # Failover, fencing reject or shed: dispatch on the
                # error's recovery classification, then re-issue.
                backoffs = yield from recover(cs, server, err, backoffs)
                continue
            if guard is not None:
                guard.success()
            break
        ledger.record(home, "merge", len({line_of(d.page) for d in group}))
