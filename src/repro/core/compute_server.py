"""Compute servers: demand paging, prefetch and eviction for their threads.

"The compute servers are where the individual compute threads execute."
This class implements the fault path of §II: on a miss the thread requests
the whole multi-page cache line from its home; if the cache is full, victims
are chosen by the dirty-biased policy and written back before the install.

There is one fetch path: a faulted span's missing lines and the prefetch
policy's predictions travel as ONE round trip per home server
(:func:`repro.core.rtbatch.fault_lines_batched`). The policy
(``SamhitaConfig.prefetch``) decides what rides along:

* ``adjacent`` -- the paper's anticipatory paging: every demand miss also
  brings the adjacent line (the default);
* ``stride`` -- a per-thread reference-prediction table
  (:class:`~repro.core.prefetcher.StridePrefetcher`) detects forward and
  backward strides in the miss stream and fetches ``degree`` lines ahead,
  throttling back to adjacent-line behaviour when measured accuracy drops;
* ``none`` -- demand paging only.

Two synchronous per-request paths remain beside it, both for progress: the
pinned fetch a starving reader escalates to, and the per-page fetch an open
circuit breaker degrades to.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core import rtbatch
from repro.core.prefetcher import StridePrefetcher
from repro.errors import (
    CommunicationError,
    MemoryError_,
    ReplicationError,
)
from repro.memory.backing import payload_crc_ok
from repro.sim.engine import Timeout
from repro.sim.stats import StatSet

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.system import SamhitaSystem


class _CachedLock:
    """One cached lock-ownership grant (``config.lock_owner_cache``).

    ``held`` tracks whether the caching thread currently holds the lock
    locally; ``stash`` accumulates the release records (diffs, payload,
    spans, invalidate pages) of local releases the manager has not seen --
    surrendered on revoke, flushed at barrier entry, or shipped with the
    next full release RPC once a revoke is pending.
    """

    __slots__ = ("tid", "held", "stash", "revoke_pending")

    def __init__(self, tid: int):
        self.tid = tid
        self.held = False
        self.stash: list = []
        self.revoke_pending = False


class ComputeServer:
    """Fault/prefetch/eviction engine for the threads on one component."""

    def __init__(self, engine, component: str, system: "SamhitaSystem"):
        self.engine = engine
        self.component = component
        self.system = system
        self.threads: list[int] = []
        #: Cached lock-ownership grants: {lock_id: _CachedLock}. Only ever
        #: populated with ``config.lock_owner_cache``.
        self.lock_cache: dict[int, _CachedLock] = {}
        self.stats = StatSet(f"compute[{component}]")
        #: Last cluster epoch this sender observed (``config.fencing``):
        #: stamped on write-side RPCs, refreshed when a receiver fences a
        #: stale stamp after a failover this component missed.
        self.known_epoch = 0
        self.prefetch_policy = system.config.prefetch
        self.prefetcher = (StridePrefetcher(self.prefetch_policy, self.stats)
                           if self.prefetch_policy.mode == "stride" else None)

    def register_thread(self, tid: int) -> None:
        self.threads.append(tid)

    # ------------------------------------------------------------------
    # lock-ownership cache (config.lock_owner_cache)
    # ------------------------------------------------------------------
    def lock_cache_try_acquire(self, tid: int, lock_id: int):
        """Local fast path: True when ``tid`` holds a cached grant for the
        lock -- the acquire completes with zero manager traffic (any
        intervening foreign acquire would have revoked the grant, so there
        are no pending updates to apply either)."""
        entry = self.lock_cache.get(lock_id)
        if (entry is None or entry.tid != tid or entry.held
                or entry.revoke_pending):
            return False
        entry.held = True
        self.stats.counters["lock_cache_hits"] += 1
        return True

    def lock_cache_release(self, tid: int, lock_id: int, record):
        """Local release of a cache-held lock.

        Returns ``("local", None)`` when the record was stashed (no RPC
        needed), ``("rpc", stash)`` when a revoke is pending and the caller
        must issue a full release RPC carrying the stash, or
        ``("miss", None)`` when the lock is not cached here."""
        entry = self.lock_cache.get(lock_id)
        if entry is None or entry.tid != tid or not entry.held:
            return ("miss", None)
        if entry.revoke_pending:
            stash = entry.stash
            del self.lock_cache[lock_id]
            return ("rpc", stash)
        entry.held = False
        entry.stash.append(record)
        self.stats.counters["lock_cache_local_releases"] += 1
        return ("local", None)

    def lock_cache_install(self, tid: int, lock_id: int) -> None:
        """The manager granted cacheability at release: remember the grant
        (idle, empty stash -- the release's record went to the manager)."""
        self.lock_cache[lock_id] = _CachedLock(tid)

    def lock_cache_surrender(self, lock_id: int):
        """Manager-side revoke (synchronous call from the owning shard).

        Returns ``("idle", stash)`` -- the grant is surrendered and the
        stashed records travel back with the reply -- or ``("held", tid)``
        when the caching thread holds the lock right now: the grant is
        marked revoke-pending and the eventual release RPC carries the
        stash."""
        entry = self.lock_cache.get(lock_id)
        self.stats.counters["lock_cache_revoked"] += 1
        if entry is None:
            return ("idle", [])
        if entry.held:
            entry.revoke_pending = True
            return ("held", entry.tid)
        stash = entry.stash
        del self.lock_cache[lock_id]
        return ("idle", stash)

    def lock_cache_holds(self, tid: int, lock_id: int) -> bool:
        entry = self.lock_cache.get(lock_id)
        return entry is not None and entry.tid == tid and entry.held

    def lock_cache_take_stashes(self, tid: int):
        """Drain ``tid``'s non-empty stashes for a barrier-entry flush.
        The grants themselves stay cached: once the records reach the
        manager's logs, an idle cached grant is consistent with RegC's
        global consistency point."""
        drained = []
        for lock_id, entry in self.lock_cache.items():
            if entry.tid == tid and entry.stash:
                drained.append((lock_id, entry.stash))
                entry.stash = []
        if drained:
            self.stats.counters["lock_cache_flushes"] += len(drained)
        return drained

    # ------------------------------------------------------------------
    # fault path
    # ------------------------------------------------------------------
    def ensure_resident(self, tid: int, addr: int, nbytes: int):
        """Generator: make every page of [addr, addr+nbytes) resident.

        Retries when a concurrent consistency action (an IVY upgrade by
        another thread, a barrier invalidation) voids an in-flight fetch --
        the per-page invalidation guard drops the stale data and the next
        pass refetches. Under sustained write pressure (IVY readers racing
        a tight writer loop) ordinary fetches can be voided indefinitely,
        so after a few failed rounds the reader escalates to a *pinned*
        fetch that holds the home server for the whole transfer: nothing
        can invalidate mid-flight, guaranteeing progress.
        """
        cache = self.system.cache_of(tid)
        if cache.span_resident(addr, nbytes):
            return
        protect = set(cache.layout.pages_spanning(addr, nbytes))
        for attempt in range(64):
            if not cache.missing_pages(addr, nbytes):
                return
            if attempt < 8:
                yield from rtbatch.fault_lines_batched(
                    self, tid, cache.missing_lines(addr, nbytes), protect)
            else:
                missing = self._allocated_only(
                    cache.missing_pages(addr, nbytes))
                yield from self._fetch_pages_pinned(tid, missing, protect)
        raise MemoryError_(
            f"thread {tid} starved faulting [{addr:#x}, +{nbytes})")

    def _allocated_only(self, pages: list[int]) -> list[int]:
        """Drop pages outside any allocation (line tails past a region).

        Faulted spans are contiguous runs, so one region lookup usually
        answers for the whole run instead of a raising probe per page.
        """
        if not pages:
            return pages
        allocated_span = self.system.allocator.allocated_span
        span = None
        out = []
        for page in pages:
            if span is None or not span[0] <= page < span[1]:
                span = allocated_span(page)
                if span is None:
                    continue
            out.append(page)
        return out

    def _fetch_pages(self, tid: int, pages: list[int], protect: set[int],
                     prefetched: bool):
        """Generator: fetch pages (grouped per home server) and install them.

        Installs are guarded by per-page invalidation counters: data fetched
        before an invalidation of that page (barrier directive, page-grain
        acquire, IVY upgrade) is dropped instead of installed. The pages
        are registered as in flight for the duration so those counters
        actually advance (see :meth:`SoftwareCache.begin_fetch`).
        """
        cache = self.system.cache_of(tid)
        token = cache.begin_fetch(pages)
        try:
            yield from self._fetch_pages_flight(tid, pages, protect,
                                                prefetched)
        finally:
            cache.end_fetch(token)

    def _fetch_pages_flight(self, tid: int, pages: list[int],
                            protect: set[int], prefetched: bool):
        system = self.system
        cache = system.cache_of(tid)
        config = system.config
        home_of_page = system.allocator.home_of_page
        if len(pages) == 1:  # the common case: one page, one home
            grouped = [(home_of_page(pages[0]), pages)]
        else:
            by_server: dict[int, list[int]] = {}
            for page in pages:
                by_server.setdefault(home_of_page(page), []).append(page)
            grouped = sorted(by_server.items())

        epoch_get = cache.inval_epoch.get
        entries = cache.resident_page_set()
        install_time = config.install_page_time
        try_advance = self.engine.try_advance
        counters = self.stats.counters
        resolve_home = system.directory.resolve_home
        armed = system.injector is not None
        for server_index, server_pages in grouped:
            backoffs = 0
            while True:
                server = system.memory_servers[resolve_home(server_index)]
                snapshots = {p: epoch_get(p, 0) for p in server_pages}
                # Request message out, server service (+ recalls), data back.
                counters["fetch_requests"] += 1
                # Retransmit-timer floor: the reply to a k-page request is
                # legitimately alpha + beta*k away (ignored when fault-free).
                floor = (rtbatch.trip_timeout_floor(
                    system, self.component, server.component,
                    len(server_pages)) if armed else 0.0)
                try:
                    t = system.scl.send(self.component, server.component,
                                        category="fetch_req",
                                        timeout_floor=floor)
                    if t is not None:
                        yield from t
                    data = yield from server.serve_fetch(tid, server_pages)
                    # Read synchronously, before any other serve overwrites
                    # it (None unless the server has integrity armed).
                    crcs = server.last_serve_crcs
                    nbytes = len(server_pages) * cache.layout.page_bytes
                    t = system.fabric.transfer_inline(server.component,
                                                      self.component,
                                                      nbytes, category="page")
                    if t is not None:
                        yield from t
                    if crcs is not None:
                        # End-to-end verify before anything installs; a bad
                        # page is repaired from a replica, not raised.
                        for page in server_pages:
                            if payload_crc_ok(data.get(page),
                                              crcs.get(page)):
                                continue
                            counters["integrity_failures"] += 1
                            data[page] = yield from self._repair_page(
                                server, page)
                            counters["integrity_repairs"] += 1
                except CommunicationError as err:
                    # Home unreachable mid-exchange (failover), fenced
                    # (epoch refresh) or shed (backoff): dispatch on the
                    # error's recovery classification and refetch the whole
                    # group from whichever server then resolves.
                    backoffs = yield from rtbatch.recover(self, server, err,
                                                          backoffs)
                    continue
                break
            # Bulk-install fast path: when every install's inline advance
            # would succeed (capacity available, no pending event inside the
            # window, horizon clear), the whole group advances the clock in
            # one step -- with the same sequential float accumulation the
            # per-page path produces -- and installs in one batched call.
            # No event can run inside the window, so the per-page re-checks
            # of the slow path are provably no-ops here.
            engine = self.engine
            eligible = []
            stale = 0
            for p in server_pages:
                if p in entries:
                    continue  # raced fill: silent skip, like below
                if epoch_get(p, 0) != snapshots[p]:
                    stale += 1
                else:
                    eligible.append(p)
            k = len(eligible)
            if k and cache.free_pages >= k:
                target = engine.now
                for _ in range(k):
                    target = target + install_time
                if target <= engine._until and engine._next_time > target:
                    engine.now = target
                    engine._coalesced += k
                    cache.install_many(eligible, data, prefetched=prefetched)
                    if stale:
                        counters["stale_fetch_dropped"] += stale
                    counters["pages_fetched"] += len(server_pages)
                    continue
            for page in server_pages:
                if page in entries:
                    continue  # raced with another fill
                if epoch_get(page, 0) != snapshots[page]:
                    counters["stale_fetch_dropped"] += 1
                    continue
                if cache.free_pages == 0:
                    if prefetched:
                        counters["prefetch_skipped_full"] += 1
                        continue
                    yield from self._evict(tid, 1, protect | set(server_pages))
                if not try_advance(install_time):
                    yield Timeout(install_time)
                if epoch_get(page, 0) != snapshots[page]:
                    counters["stale_fetch_dropped"] += 1
                    continue
                cache.install(page, data.get(page), prefetched=prefetched)
            counters["pages_fetched"] += len(server_pages)

    def _repair_page(self, server, page: int):
        """Generator: ask the home to rebuild a page whose fetched copy
        failed its checksum (replica copy + unacked-WAL replay), and verify
        the repaired copy end to end."""
        t = self.system.scl.send(self.component, server.component,
                                 category="repair_req")
        if t is not None:
            yield from t
        repaired, crc = yield from server.serve_repair(self.component, page)
        if not payload_crc_ok(repaired, crc):
            raise ReplicationError(
                f"page {page}: repaired copy failed its checksum")
        return repaired

    def _fetch_pages_pinned(self, tid: int, pages: list[int], protect: set[int]):
        """Generator: starvation-proof fetch -- the home server is held for
        the whole request INCLUDING the data transfer, and the install runs
        synchronously on return, so no invalidation can void it."""
        cache = self.system.cache_of(tid)
        by_server: dict[int, list[int]] = {}
        for page in pages:
            by_server.setdefault(self.system.allocator.home_of_page(page), []).append(page)
        counters = self.stats.counters
        for server_index, server_pages in sorted(by_server.items()):
            # Pre-make room (evictions may need the same server).
            while cache.free_pages < len(server_pages):
                yield from self._evict(tid, 1, protect | set(server_pages))
            counters["fetch_requests"] += 1
            backoffs = 0
            while True:
                server = self.system.memory_servers[
                    self.system.directory.resolve_home(server_index)]
                floor = (rtbatch.trip_timeout_floor(
                    self.system, self.component, server.component,
                    len(server_pages))
                    if self.system.injector is not None else 0.0)
                try:
                    t = self.system.scl.send(self.component, server.component,
                                             category="fetch_req",
                                             timeout_floor=floor)
                    if t is not None:
                        yield from t
                    data = yield from server.serve_fetch_pinned(
                        tid, self.component, server_pages)
                except CommunicationError as err:
                    backoffs = yield from rtbatch.recover(self, server, err,
                                                          backoffs)
                    continue
                break
            for page in server_pages:
                if not cache.resident(page):
                    cache.install(page, data.get(page))
            counters["pinned_fetches"] += 1
            counters["pages_fetched"] += len(server_pages)

    # ------------------------------------------------------------------
    # eviction (dirty-biased write-back, §II)
    # ------------------------------------------------------------------
    def _evict(self, tid: int, count: int, protect: set[int]):
        """Generator: evict ``count`` pages; dirty victims' diffs ship as
        one merge trip per home server."""
        directory = self.system.directory
        cache = self.system.cache_of(tid)
        victims = cache.choose_victims(count, protect=protect)
        diffs = []
        for page in victims:
            diff = cache.evict(page)
            if diff is not None and not diff.empty:
                diffs.append(diff)
            # Only the page's *owner* surrenders ownership on eviction;
            # evicting a clean bystander copy must not erase the record of
            # someone else's lazily-held dirty data.
            if directory.owner_of(page) == tid:
                directory.clear_owner(page)
            directory.remove_sharer(page, tid)
        if diffs:
            yield from rtbatch.flush_diffs_batched(self, diffs)
        self.stats.counters["evictions"] += len(victims)
