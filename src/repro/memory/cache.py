"""The per-compute-thread software cache.

Each Samhita compute thread "has a local software cache through which it
accesses the shared global address space". This class is the mechanism only
-- residency, twins, dirty tracking, eviction choice -- while the protocol
(what to fetch from where, what to flush when) lives in
:mod:`repro.core.compute_server` and :mod:`repro.core.consistency`.

Policy knobs reproduced from the paper:

* cache lines span multiple pages (``layout.pages_per_line``);
* eviction "is biased towards pages that have been written to";
* a multiple-writer twin is created on the first ordinary-region write.
"""

from __future__ import annotations

from collections import Counter
from enum import Enum
from heapq import heapify, heappop, heappush
from typing import Iterable

import numpy as np

from repro.errors import ConsistencyError, MemoryError_, ProtectionError
from repro.memory.diff import (ByteRanges, PageDiff, SpanTwin,
                               compute_diff_spans)
from repro.memory.layout import MemoryLayout
from repro.sim.stats import StatSet


class EvictionPolicy(Enum):
    #: The paper's policy: prefer written (dirty) pages, LRU within a class.
    DIRTY_BIASED = "dirty-biased"
    #: Plain least-recently-used (ablation).
    LRU = "lru"
    #: Prefer clean pages -- the conventional write-back heuristic (ablation).
    CLEAN_FIRST = "clean-first"


# Module-level eviction key functions: keeps choose_victims lint-clean and
# avoids allocating a fresh closure on every eviction decision.
def _victim_key_dirty_biased(entry: "CacheEntry"):
    return (entry.dirty.empty, entry.last_access)  # dirty first, then LRU


def _victim_key_clean_first(entry: "CacheEntry"):
    return (not entry.dirty.empty, entry.last_access)


def _victim_key_lru(entry: "CacheEntry"):
    return entry.last_access


_VICTIM_KEYS = {
    EvictionPolicy.DIRTY_BIASED: _victim_key_dirty_biased,
    EvictionPolicy.CLEAN_FIRST: _victim_key_clean_first,
    EvictionPolicy.LRU: _victim_key_lru,
}


class CacheEntry:
    """One resident page."""

    __slots__ = ("page", "data", "twin", "dirty", "last_access", "prefetched")

    def __init__(self, page: int, data: np.ndarray | None, tick: int, prefetched: bool):
        self.page = page
        self.data = data
        #: Multiple-writer twin: a :class:`SpanTwin` (pre-images of dirty
        #: ranges only) on the zero-copy path; a raw page copy is still
        #: honoured everywhere for compatibility.
        self.twin: SpanTwin | np.ndarray | None = None
        self.dirty = ByteRanges()
        self.last_access = tick
        self.prefetched = prefetched

    @property
    def is_dirty(self) -> bool:
        return not self.dirty.empty


class SoftwareCache:
    """Mechanism for one thread's page cache."""

    def __init__(
        self,
        layout: MemoryLayout,
        capacity_pages: int,
        functional: bool = True,
        policy: EvictionPolicy = EvictionPolicy.DIRTY_BIASED,
        use_twins: bool = True,
        name: str = "cache",
    ):
        if capacity_pages < layout.pages_per_line:
            raise MemoryError_("cache must hold at least one full line")
        self.layout = layout
        self.capacity_pages = capacity_pages
        self.functional = functional
        self.policy = policy
        #: Multiple-writer twin/diff protocol; when False the cache behaves
        #: like a single-writer protocol and write-back ships whole pages.
        self.use_twins = use_twins
        self.name = name
        self.entries: dict[int, CacheEntry] = {}
        #: Residency bitmap mirroring ``entries.keys()`` -- lets span
        #: queries (the batched-plan hit test, miss classification) run as
        #: one vectorized slice check instead of a per-page dict probe.
        #: Maintained by install/evict/invalidate/clear, the only methods
        #: that change residency.
        self._resident_mask = np.zeros(1024, dtype=bool)
        #: Pages ordinary-written since the last barrier (the write-notice
        #: set). Independent of residency: an evicted page's notice must
        #: still reach threads holding stale copies.
        self.epoch_written: set[int] = set()
        #: Per-page invalidation counters. A fetch in flight when the page
        #: is invalidated must not install its (pre-invalidation) data; the
        #: fetcher registers its pages (:meth:`begin_fetch`), snapshots
        #: this counter and checks it at install time. Counters advance
        #: only for registered in-flight pages -- a bump on a page nobody
        #: is fetching has no observer, and barrier directives routinely
        #: list thousands of non-resident pages.
        self.inval_epoch: Counter = Counter()
        #: Active fetch registrations: token -> page set (see begin_fetch).
        self._inflight_sets: dict[int, set[int]] = {}
        self._inflight_token = 0
        self.stats = StatSet(name)
        self._tick = 0
        self._victim_key = _VICTIM_KEYS[policy]
        #: Precomputed heap-key prefixes for the two hot transitions: a
        #: just-installed (or just-diffed) entry is clean, a just-written
        #: entry is dirty, so their victim keys are ``(prefix, tick)``
        #: without calling the key function or probing the entry. None
        #: means LRU (the key is the bare tick).
        if policy is EvictionPolicy.DIRTY_BIASED:
            self._clean_key_first, self._dirty_key_first = True, False
        elif policy is EvictionPolicy.CLEAN_FIRST:
            self._clean_key_first, self._dirty_key_first = False, True
        else:
            self._clean_key_first = self._dirty_key_first = None
        #: Lazy min-heap of ``(victim_key, page)`` records. The heap is
        #: *lazy*: records go stale when a page is re-accessed (its key only
        #: grows then) and are re-validated against the live entry at pop
        #: time. The one key-DECREASING transition per policy (clean->dirty
        #: under the dirty-biased default, dirty->clean under clean-first)
        #: gets an eager push, so every resident page always owns at least
        #: one record with key <= its current key -- which makes the pop
        #: sequence exactly the ascending sort order, victim for victim.
        self._heap: list = []
        #: Resident-page count per cache line. ``missing_lines`` is a plain
        #: counter compare per line instead of a set intersection over the
        #: line's page range.
        self._line_resident: dict[int, int] = {}
        self._pages_per_line = layout.pages_per_line

    # ------------------------------------------------------------------
    # residency queries
    # ------------------------------------------------------------------
    def resident(self, page: int) -> bool:
        return page in self.entries

    def span_resident(self, addr: int, nbytes: int) -> bool:
        """True iff every page of ``[addr, addr+nbytes)`` is resident.

        One slice ``.all()`` over the residency bitmap -- the hit test the
        batched access-plan executor runs per operation.
        """
        if nbytes <= 0:
            return True
        page_bytes = self.layout.page_bytes
        first = addr // page_bytes
        last = (addr + nbytes - 1) // page_bytes
        mask = self._resident_mask
        if last >= mask.shape[0]:
            return False
        if first == last:
            return bool(mask[first])
        return bool(mask[first:last + 1].all())

    def missing_pages(self, addr: int, nbytes: int) -> list[int]:
        pages = self.layout.pages_spanning(addr, nbytes)
        if not pages:
            return []
        first, stop = pages.start, pages.stop
        mask = self._resident_mask
        n = mask.shape[0]
        if first >= n:
            return list(pages)
        hi = stop if stop <= n else n
        missing = [int(p) for p in np.flatnonzero(~mask[first:hi]) + first]
        if hi < stop:
            missing.extend(range(hi, stop))
        return missing

    def missing_lines(self, addr: int, nbytes: int) -> list[int]:
        """Lines with at least one non-resident page, for the span.

        A line is complete iff its resident-page count -- maintained by
        install/evict/invalidate/clear, the only residency changers -- has
        full cardinality: one dict probe per line instead of rebuilding a
        page-set intersection on every call.
        """
        counts = self._line_resident.get
        full = self._pages_per_line
        return [line for line in self.layout.lines_spanning(addr, nbytes)
                if counts(line, 0) < full]

    def resident_page_set(self):
        """Set view of the resident page numbers (live, do not mutate)."""
        return self.entries.keys()

    @property
    def resident_pages(self) -> int:
        return len(self.entries)

    @property
    def free_pages(self) -> int:
        return self.capacity_pages - len(self.entries)

    # ------------------------------------------------------------------
    # install / evict / invalidate
    # ------------------------------------------------------------------
    def install(self, page: int, data: np.ndarray | None, prefetched: bool = False) -> None:
        """Bring a fetched page into the cache (caller made room first)."""
        if len(self.entries) >= self.capacity_pages:
            raise MemoryError_(f"{self.name}: install over capacity")
        if page in self.entries:
            # Refresh of an already-resident page (re-fetch after a race).
            entry = self.entries[page]
            if entry.is_dirty:
                raise ConsistencyError(f"{self.name}: refreshing dirty page {page}")
            entry.data = data
            entry.prefetched = prefetched
            return
        self._tick += 1
        entry = CacheEntry(page, data, self._tick, prefetched)
        self.entries[page] = entry
        mask = self._resident_mask
        if page >= mask.shape[0]:
            grown = np.zeros(max(mask.shape[0] * 2, page + 1), dtype=bool)
            grown[:mask.shape[0]] = mask
            self._resident_mask = mask = grown
        mask[page] = True
        line = page // self._pages_per_line
        counts = self._line_resident
        counts[line] = counts.get(line, 0) + 1
        first = self._clean_key_first
        heappush(self._heap,
                 (self._tick if first is None else (first, self._tick), page))
        counters = self.stats.counters
        counters["installs"] += 1
        if prefetched:
            counters["prefetch_installs"] += 1

    def install_many(self, pages_data, prefetched: bool = False) -> None:
        """Batched :meth:`install` of distinct, non-resident pages.

        Contract (the bulk-fetch fast path guarantees it): the caller has
        verified capacity for the whole batch and that none of the pages is
        already resident. Per-entry ticks advance exactly as the per-page
        calls would; counters flush once.
        """
        entries = self.entries
        tick = self._tick
        heap = self._heap
        first = self._clean_key_first
        counts = self._line_resident
        counts_get = counts.get
        pages_per_line = self._pages_per_line
        pages: list[int] = []
        append = pages.append
        for page, data in pages_data:
            tick += 1
            entries[page] = CacheEntry(page, data, tick, prefetched)
            line = page // pages_per_line
            counts[line] = counts_get(line, 0) + 1
            heappush(heap, (tick if first is None else (first, tick), page))
            append(page)
        self._tick = tick
        n = len(pages)
        if n:
            # One vectorized residency-bitmap update for the whole batch.
            mask = self._resident_mask
            top = max(pages)
            if top >= mask.shape[0]:
                grown = np.zeros(max(mask.shape[0] * 2, top + 1), dtype=bool)
                grown[:mask.shape[0]] = mask
                self._resident_mask = mask = grown
            mask[pages] = True
        if len(entries) > self.capacity_pages:
            raise MemoryError_(f"{self.name}: install over capacity")
        counters = self.stats.counters
        counters["installs"] += n
        if prefetched:
            counters["prefetch_installs"] += n

    def choose_victims(self, count: int, protect: Iterable[int] = ()) -> list[int]:
        """Pick ``count`` pages to evict under the configured policy.

        Victims come out in ascending victim-key order: the heap's records
        are the exact sort keys, and keys are unique (``_tick`` is globally
        monotonic, so ``last_access`` never repeats), so ascending heap pops
        reproduce a full sort's prefix bit-for-bit -- at O(log n) per victim
        instead of O(n log n) per call.
        """
        if count <= 0:
            return []
        protected = set(protect)
        entries = self.entries
        available = len(entries) - len(protected & entries.keys())
        if available < count:
            raise MemoryError_(f"{self.name}: cannot evict {count} pages "
                               f"({available} unprotected)")
        heap = self._heap
        if len(heap) > 4 * len(entries) + 64:
            # Stale-record hygiene: rebuild from the live entries.
            key = self._victim_key
            heap[:] = [(key(e), p) for p, e in entries.items()]
            heapify(heap)
        key = self._victim_key
        victims: list[int] = []
        chosen: set[int] = set()
        pushback: list = []
        while len(victims) < count:
            if not heap:  # pragma: no cover - invariant backstop
                heap[:] = [(key(e), p) for p, e in entries.items()
                           if p not in chosen]
                heapify(heap)
            record = heappop(heap)
            page = record[1]
            entry = entries.get(page)
            if entry is None or page in chosen:
                continue  # stale: evicted, invalidated, or already picked
            current = key(entry)
            if current != record[0]:
                heappush(heap, (current, page))  # re-file under the live key
                continue
            pushback.append(record)
            if page in protected:
                continue
            victims.append(page)
            chosen.add(page)
        for record in pushback:
            heappush(heap, record)
        return victims

    def evict(self, page: int) -> PageDiff | None:
        """Drop a page; if dirty, return the diff that must be written back."""
        entry = self.entries.pop(page, None)
        if entry is None:
            raise MemoryError_(f"{self.name}: evicting non-resident page {page}")
        self._resident_mask[page] = False
        self._drop_line_count(page)
        counters = self.stats.counters
        counters["evictions"] += 1
        if entry.is_dirty:
            counters["evictions_dirty"] += 1
            return self._diff_of(entry)
        counters["evictions_clean"] += 1
        return None

    def begin_fetch(self, pages: Iterable[int]) -> int:
        """Register a fetch's pages as in flight; returns a token for
        :meth:`end_fetch`. While registered, :meth:`invalidate` advances
        the pages' invalidation counters, so the fetcher's snapshot/check
        pair sees any invalidation that lands mid-flight."""
        self._inflight_token += 1
        self._inflight_sets[self._inflight_token] = set(pages)
        return self._inflight_token

    def end_fetch(self, token: int) -> None:
        self._inflight_sets.pop(token, None)

    def invalidate(self, pages: Iterable[int]) -> list[int]:
        """Drop clean copies of the given pages; returns the pages dropped.

        An in-flight fetch of a listed page carries pre-invalidation data
        and must be discarded on arrival: the invalidation counter of
        every listed page some fetcher has registered (:meth:`begin_fetch`)
        advances, resident copy or not. Unregistered pages' counters are
        left alone -- no snapshot exists that could observe the bump, and
        barrier directives routinely list thousands of non-resident,
        un-fetched pages.

        Invalidating a dirty page is a protocol error -- the consistency
        layer must flush (multi-writer) diffs before invalidating.
        """
        if not isinstance(pages, (set, frozenset)):
            pages = set(pages)
        if self._inflight_sets:
            bump: set[int] = set()
            for inflight in self._inflight_sets.values():
                bump |= inflight & pages
            if bump:
                self.inval_epoch.update(bump)
        entries = self.entries
        # Barrier directives list every page anyone else wrote -- usually
        # thousands, nearly all non-resident. One set intersection (over
        # the smaller side) finds the residents.
        hits = entries.keys() & pages
        if not hits:
            return []
        dropped = []
        for page in sorted(hits):
            entry = entries[page]
            if not entry.dirty.empty:
                raise ConsistencyError(
                    f"{self.name}: invalidating dirty page {page} without flush")
            del entries[page]
            dropped.append(page)
        if dropped:
            self._resident_mask[dropped] = False
            for page in dropped:
                self._drop_line_count(page)
        self.stats.counters["invalidations"] += len(dropped)
        return dropped

    def _drop_line_count(self, page: int) -> None:
        line = page // self._pages_per_line
        counts = self._line_resident
        remaining = counts[line] - 1
        if remaining:
            counts[line] = remaining
        else:
            del counts[line]

    def inval_epoch_of(self, page: int) -> int:
        return self.inval_epoch.get(page, 0)

    # ------------------------------------------------------------------
    # data access (requires residency)
    # ------------------------------------------------------------------
    def _entry_for_access(self, page: int) -> CacheEntry:
        entry = self.entries.get(page)
        if entry is None:
            raise ProtectionError(f"{self.name}: access to non-resident page {page}")
        self._tick += 1
        entry.last_access = self._tick
        self.stats.incr("page_touches")
        if entry.prefetched:
            entry.prefetched = False
            self.stats.incr("prefetch_hits")
        return entry

    def _check_span(self, addr: int, nbytes: int) -> None:
        if addr < 0:
            raise MemoryError_(f"negative address: {addr:#x}")
        if nbytes < 0:
            raise MemoryError_(f"negative span: {nbytes}")

    def read(self, addr: int, nbytes: int) -> np.ndarray | None:
        """Gather bytes (functional) or just touch pages (timing).

        The page loop is inlined (no per-page method calls) and the stat
        counters are accumulated locally and flushed once per operation --
        reads and writes dominate every kernel's inner loop.
        """
        if nbytes == 0:
            return np.empty(0, dtype=np.uint8) if self.functional else None
        self._check_span(addr, nbytes)
        entries = self.entries
        page_bytes = self.layout.page_bytes
        first = addr // page_bytes
        last = (addr + nbytes - 1) // page_bytes
        end_addr = addr + nbytes
        tick = self._tick
        prefetch_hits = 0
        pieces = [] if self.functional else None
        try:
            for page in range(first, last + 1):
                entry = entries[page]
                tick += 1
                entry.last_access = tick
                if entry.prefetched:
                    entry.prefetched = False
                    prefetch_hits += 1
                if pieces is not None:
                    page_start = page * page_bytes
                    start = addr if addr > page_start else page_start
                    page_end = page_start + page_bytes
                    end = end_addr if end_addr < page_end else page_end
                    off = start - page_start
                    pieces.append(entry.data[off:off + (end - start)])
        except KeyError:
            self._tick = tick
            raise ProtectionError(
                f"{self.name}: access to non-resident page {page}") from None
        self._tick = tick
        counters = self.stats.counters
        counters["page_touches"] += last - first + 1
        if prefetch_hits:
            counters["prefetch_hits"] += prefetch_hits
        counters["reads"] += 1
        counters["read_bytes"] += nbytes
        if pieces is None:
            return None
        if len(pieces) == 1:
            return pieces[0]
        return np.concatenate(pieces)

    def write(self, addr: int, nbytes: int, data: np.ndarray | None,
              ordinary: bool = True) -> int:
        """Scatter bytes into resident pages; returns twins created.

        ``ordinary=True`` engages the multiple-writer machinery (twin on
        first write, dirty-range tracking); consistency-region writes pass
        ``ordinary=False`` because they propagate through the store log
        instead.
        """
        if nbytes == 0:
            return 0
        functional = self.functional
        if functional and data is not None and len(data) != nbytes:
            raise MemoryError_("write data length mismatch")
        self._check_span(addr, nbytes)
        entries = self.entries
        page_bytes = self.layout.page_bytes
        first = addr // page_bytes
        last = (addr + nbytes - 1) // page_bytes
        end_addr = addr + nbytes
        tick = self._tick
        prefetch_hits = 0
        use_twins = self.use_twins
        heap = self._heap
        dirty_first = self._dirty_key_first
        consumed = 0
        twins = 0
        try:
            for page in range(first, last + 1):
                entry = entries[page]
                tick += 1
                entry.last_access = tick
                if entry.prefetched:
                    entry.prefetched = False
                    prefetch_hits += 1
                page_start = page * page_bytes
                start = addr if addr > page_start else page_start
                page_end = page_start + page_bytes
                end = end_addr if end_addr < page_end else page_end
                off = start - page_start
                chunk = end - start
                if ordinary:
                    dirty = entry.dirty
                    ranges = dirty._ranges
                    newly_dirty = not ranges
                    if use_twins and functional:
                        twin = entry.twin
                        if twin is None and newly_dirty:
                            # Zero-copy twin: uninitialized scratch now,
                            # actual pre-image bytes captured span by span
                            # below.
                            twin = entry.twin = SpanTwin(page_bytes)
                            twins += 1
                        if type(twin) is SpanTwin:
                            # Snapshot the about-to-be-dirtied bytes this
                            # write adds; bytes already dirty were captured
                            # by the write that dirtied them. (A raw-ndarray
                            # twin is a full page copy and needs no upkeep.)
                            twin.snapshot(entry.data, dirty, off, off + chunk)
                    # ByteRanges.add's sequential branch, inlined (this loop
                    # dominates every kernel; the general splice is rare).
                    end_off = off + chunk
                    if newly_dirty:
                        ranges.append((off, end_off))
                    else:
                        last_s, last_e = ranges[-1]
                        if off >= last_s:
                            if off > last_e:
                                ranges.append((off, end_off))
                            elif end_off > last_e:
                                ranges[-1] = (last_s, end_off)
                        else:
                            dirty.add(off, end_off)
                    if newly_dirty:
                        # Clean->dirty is the one key-DECREASING transition
                        # of the dirty-biased order; file the live key
                        # eagerly so the lazy heap's min stays exact. The
                        # entry was just written, so its key is (dirty
                        # prefix, tick) without probing it.
                        heappush(heap,
                                 (tick if dirty_first is None
                                  else (dirty_first, tick), page))
                if functional and data is not None:
                    chunk_data = data[consumed:consumed + chunk]
                    entry.data[off:off + chunk] = chunk_data
                    if not ordinary and entry.twin is not None:
                        # Consistency-region stores propagate via the store
                        # log; mirroring them into the twin keeps them out
                        # of this thread's ordinary-region diff (shipping
                        # them there could overwrite other threads' CR
                        # updates at the home).
                        twin = entry.twin
                        if type(twin) is SpanTwin:
                            twin.mirror(chunk_data, entry.dirty,
                                        off, off + chunk)
                        else:
                            twin[off:off + chunk] = chunk_data
                consumed += chunk
        except KeyError:
            self._tick = tick
            raise ProtectionError(
                f"{self.name}: access to non-resident page {page}") from None
        self._tick = tick
        if ordinary:
            # One C-level bulk update instead of a per-page set.add.
            self.epoch_written.update(range(first, last + 1))
        counters = self.stats.counters
        counters["page_touches"] += last - first + 1
        if prefetch_hits:
            counters["prefetch_hits"] += prefetch_hits
        if twins:
            counters["twins_created"] += twins
        counters["writes"] += 1
        counters["write_bytes"] += nbytes
        return twins

    # ------------------------------------------------------------------
    # diffs & fine-grain updates
    # ------------------------------------------------------------------
    def _diff_of(self, entry: CacheEntry) -> PageDiff:
        if not self.use_twins:
            # Single-writer fallback: no twin exists, so the whole page is
            # the write-back unit (the classic DSM behaviour the paper's
            # multiple-writer protocol improves on).
            if self.functional:
                return PageDiff(entry.page, spans=[(0, entry.data.copy())])
            return PageDiff(entry.page, spans=[(0, None)],
                            sizes=[self.layout.page_bytes])
        twin = entry.twin
        if self.functional and twin is not None:
            if type(twin) is SpanTwin:
                spans = twin.diff_spans(entry.data, entry.dirty)
            else:
                spans = compute_diff_spans(twin, entry.data)
            diff = PageDiff(entry.page, spans=spans)
        else:
            diff = PageDiff.from_ranges(entry.page, entry.dirty)
        return diff

    def take_diff(self, page: int) -> PageDiff | None:
        """Extract the pending diff for one dirty page and mark it clean."""
        entry = self.entries.get(page)
        if entry is None:
            raise MemoryError_(f"{self.name}: take_diff on non-resident page {page}")
        if not entry.is_dirty:
            return None
        diff = self._diff_of(entry)
        entry.twin = None
        entry.dirty.clear()
        # Dirty->clean decreases the clean-first key; re-file eagerly (a
        # no-op for correctness under the other policies, whose keys only
        # grow here -- the stale record is discarded at pop time).
        heappush(self._heap, (self._victim_key(entry), page))
        counters = self.stats.counters
        counters["diffs_taken"] += 1
        counters["diff_bytes"] += diff.payload_bytes
        return diff

    def take_diff_sizes(self, pages):
        """Timing-mode bulk variant of :meth:`take_diff` for a recall batch.

        Returns ``(dirty_pages, payload_bytes, wire_bytes)`` summed over
        the dirty members of ``pages``, with take_diff's exact side
        effects (twin dropped, dirty ranges cleared, heap re-filed,
        counters) but none of the PageDiff objects: with no data to diff
        a span diff is pure sizes -- payload = dirty bytes, wire =
        payload + one span header per dirty range. Only valid with
        ``use_twins`` in timing mode (the caller gates on both).
        """
        entries = self.entries
        heap = self._heap
        clean_first = self._clean_key_first
        header = PageDiff.SPAN_HEADER_BYTES
        dirty_pages: list[int] = []
        payload = 0
        wire = 0
        for page in pages:
            entry = entries.get(page)
            if entry is None or not entry.dirty._ranges:
                continue
            ranges = entry.dirty
            nbytes = ranges.nbytes
            payload += nbytes
            wire += nbytes + header * len(ranges)
            entry.twin = None
            ranges.clear()
            # Just cleaned: the key is (clean prefix, last_access).
            heappush(heap,
                     (entry.last_access if clean_first is None
                      else (clean_first, entry.last_access), page))
            dirty_pages.append(page)
        if dirty_pages:
            counters = self.stats.counters
            counters["diffs_taken"] += len(dirty_pages)
            counters["diff_bytes"] += payload
        return dirty_pages, payload, wire

    def dirty_page_ids(self) -> list[int]:
        return sorted(p for p, e in self.entries.items() if e.is_dirty)

    def take_epoch_notices(self) -> list[int]:
        """Write notices for the ending epoch: pages ordinary-written since
        the previous barrier. Clears the set (pages may stay lazily dirty --
        ownership in the directory keeps them readable by others)."""
        notices = sorted(self.epoch_written)
        self.epoch_written.clear()
        return notices

    def apply_fine_grain(self, diffs: Iterable[PageDiff]) -> int:
        """Apply incoming fine-grained (consistency-region) updates to any
        resident copies; non-resident pages are skipped (they will fault to
        the already-updated home). Returns bytes applied."""
        applied = 0
        for diff in diffs:
            entry = self.entries.get(diff.page)
            if entry is None:
                continue
            if self.functional and entry.data is not None:
                diff.apply_to(entry.data)
                # Keep the twin in sync so these bytes don't reappear in the
                # thread's own ordinary-region diff.
                twin = entry.twin
                if twin is not None:
                    if type(twin) is SpanTwin:
                        for offset, span in diff.spans:
                            if span is not None:
                                twin.mirror(span, entry.dirty, offset,
                                            offset + len(span))
                    else:
                        diff.apply_to(twin)
            applied += diff.payload_bytes
        self.stats.incr("fine_grain_bytes", applied)
        return applied

    def clear(self) -> None:
        self.entries.clear()
        self._resident_mask[:] = False
        self._line_resident.clear()
        self._heap.clear()
