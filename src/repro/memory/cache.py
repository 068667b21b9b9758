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

Per-page state is columnar: a ``page -> slot`` dict maps each resident page
to a residency slot, and NumPy columns indexed by slot hold the last-access
tick, the prefetched flag and the dirty byte bounds ``[lo, hi)`` (``hi ==
0``: clean); a slot's page number is its key in that dict. Slots are recycled through a free-slot
stack, so the columns grow with the peak resident count, not with the page
numbers a cache has ever seen. A page whose dirty set stops being one
interval spills into a :class:`ByteRanges` in a sparse side dict (the diff's
span count must stay exact); functional page buffers and twins live in
slot-keyed side storage. Reads, writes, installs and diff extraction are
slice and fancy-index operations over a span's slots, and eviction computes
the policy key over the resident slots on demand.
"""

from __future__ import annotations

from collections import Counter
from enum import Enum
from typing import Iterable

import numpy as np

from repro.errors import ConsistencyError, MemoryError_, ProtectionError
from repro.memory.diff import ByteRanges, PageDiff, SpanTwin
from repro.memory.layout import MemoryLayout
from repro.sim.stats import StatSet

#: Slots allocated up front; the columns double on demand up to capacity.
_INITIAL_SLOTS = 64

#: Eviction key = class flag above this bit, last-access tick below it
#: (ticks are unique and never come near 2**62).
_CLASS_SHIFT = 62


class EvictionPolicy(Enum):
    #: The paper's policy: prefer written (dirty) pages, LRU within a class.
    DIRTY_BIASED = "dirty-biased"
    #: Plain least-recently-used (ablation).
    LRU = "lru"
    #: Prefer clean pages -- the conventional write-back heuristic (ablation).
    CLEAN_FIRST = "clean-first"


class CacheEntry:
    """Snapshot of one resident page, built on demand by
    :meth:`SoftwareCache.entry` for inspection (invariants, tests). The
    cache keeps no per-page objects; mutating a snapshot does not change
    the cache."""

    __slots__ = ("page", "data", "twin", "dirty", "last_access", "prefetched")

    def __init__(self, page: int, data: np.ndarray | None,
                 twin: SpanTwin | None, dirty: ByteRanges,
                 last_access: int, prefetched: bool):
        self.page = page
        self.data = data
        self.twin = twin
        self.dirty = dirty
        self.last_access = last_access
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
        #: Resident page -> residency slot (the row of every column).
        self._slots: dict[int, int] = {}
        n = min(capacity_pages, _INITIAL_SLOTS)
        self._last = np.zeros(n, dtype=np.int64)
        self._pref = np.zeros(n, dtype=bool)
        self._lo = np.zeros(n, dtype=np.int64)
        self._hi = np.zeros(n, dtype=np.int64)
        #: Free-slot stack (top at ``_nfree - 1``).
        self._free = np.arange(n - 1, -1, -1, dtype=np.intp)
        self._nfree = n
        #: Slot -> dirty ranges, only for pages whose dirty set is 2+
        #: disjoint intervals (``lo``/``hi`` then hold the hull).
        self._spill: dict[int, ByteRanges] = {}
        #: Functional mode: page buffers by slot (None in timing mode).
        self._bufs: list | None = [None] * n if functional else None
        #: Slot -> multiple-writer twin (functional, dirty pages only).
        self._twins: dict[int, SpanTwin] = {}
        #: Residency bitmap by page number -- lets span queries (the
        #: batched-plan hit test, miss classification) run as one
        #: vectorized slice check instead of a per-page dict probe.
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

    # ------------------------------------------------------------------
    # slot management
    # ------------------------------------------------------------------
    def _take_slots(self, k: int) -> np.ndarray:
        """Pop ``k`` free slots, doubling the columns if needed (callers
        checked capacity, so the columns never outgrow it)."""
        if self._nfree < k:
            n = self._last.shape[0]
            m = min(max(2 * n, n + k - self._nfree), self.capacity_pages)

            def grown(col):
                out = np.zeros(m, dtype=col.dtype)
                out[:n] = col
                return out

            self._last, self._pref, self._lo, self._hi = (
                grown(c) for c in (self._last, self._pref, self._lo, self._hi))
            free = np.empty(m, dtype=np.intp)
            free[:self._nfree] = self._free[:self._nfree]
            free[self._nfree:self._nfree + m - n] = np.arange(m - 1, n - 1, -1)
            self._free = free
            self._nfree += m - n
            if self._bufs is not None:
                self._bufs.extend([None] * (m - n))
        top = self._nfree
        self._nfree = top - k
        return self._free[top - k:top].copy()

    def _release(self, slots: list[int]) -> None:
        """Return clean slots (no dirty bounds, twin or spill) to the free
        stack, dropping their buffers."""
        top = self._nfree
        self._free[top:top + len(slots)] = slots
        self._nfree = top + len(slots)
        bufs = self._bufs
        if bufs is not None:
            for s in slots:
                bufs[s] = None

    def _ranges_of(self, slot: int) -> list[tuple[int, int]]:
        """The slot's dirty ranges as a sorted, disjoint list."""
        spilled = self._spill.get(slot)
        if spilled is not None:
            return spilled._ranges
        hi = int(self._hi[slot])
        return [(int(self._lo[slot]), hi)] if hi else []

    def _mark_clean(self, slot: int) -> None:
        self._lo[slot] = 0
        self._hi[slot] = 0
        self._twins.pop(slot, None)
        self._spill.pop(slot, None)

    # ------------------------------------------------------------------
    # residency queries
    # ------------------------------------------------------------------
    def resident(self, page: int) -> bool:
        return page in self._slots

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
        """Lines with at least one non-resident page, for the span: the
        residency bitmap over the span's whole lines, one row per line."""
        lines = self.layout.lines_spanning(addr, nbytes)
        if not lines:
            return []
        per_line = self.layout.pages_per_line
        first, stop = lines.start * per_line, lines.stop * per_line
        rows = self._resident_mask[first:stop]
        if rows.shape[0] < stop - first:  # past the bitmap: not resident
            rows = np.concatenate(
                [rows, np.zeros(stop - first - rows.shape[0], dtype=bool)])
        complete = rows.reshape(-1, per_line).all(axis=1)
        return (np.flatnonzero(~complete) + lines.start).tolist()

    def resident_page_set(self):
        """Set view of the resident page numbers (live, do not mutate)."""
        return self._slots.keys()

    @property
    def resident_pages(self) -> int:
        return len(self._slots)

    @property
    def free_pages(self) -> int:
        return self.capacity_pages - len(self._slots)

    def is_dirty(self, page: int) -> bool:
        """True iff ``page`` is resident with unflushed ordinary writes."""
        slot = self._slots.get(page)
        return slot is not None and bool(self._hi[slot])

    def _slots_among(self, pages) -> tuple[list[int], np.ndarray]:
        """The resident members of ``pages`` (in ``pages`` order) and
        their slots."""
        slots_of = self._slots
        resident = [p for p in pages if p in slots_of]
        return resident, np.fromiter(map(slots_of.__getitem__, resident),
                                     dtype=np.intp, count=len(resident))

    def dirty_among(self, pages) -> list[int]:
        """The resident dirty members of ``pages``, in ``pages`` order
        (one membership sweep and one vectorized dirty test)."""
        resident, slots = self._slots_among(pages)
        return [p for p, dirty in zip(resident, self._hi[slots].tolist())
                if dirty]

    def page_data(self, page: int) -> np.ndarray | None:
        """The resident page's live buffer (None: timing mode or absent)."""
        slot = self._slots.get(page)
        if slot is None or self._bufs is None:
            return None
        return self._bufs[slot]

    def entry(self, page: int) -> CacheEntry | None:
        """An inspection snapshot of one resident page (None if absent)."""
        slot = self._slots.get(page)
        if slot is None:
            return None
        return CacheEntry(page, self.page_data(page), self._twins.get(slot),
                          ByteRanges(self._ranges_of(slot)),
                          int(self._last[slot]), bool(self._pref[slot]))

    # ------------------------------------------------------------------
    # install / evict / invalidate
    # ------------------------------------------------------------------
    def install(self, page: int, data: np.ndarray | None, prefetched: bool = False) -> None:
        """Bring a fetched page into the cache (caller made room first)."""
        if len(self._slots) >= self.capacity_pages:
            raise MemoryError_(f"{self.name}: install over capacity")
        slot = self._slots.get(page)
        if slot is not None:
            # Refresh of an already-resident page (re-fetch after a race).
            if self._hi[slot]:
                raise ConsistencyError(f"{self.name}: refreshing dirty page {page}")
            if self._bufs is not None:
                self._bufs[slot] = data
            self._pref[slot] = prefetched
            return
        self.install_many([page], {page: data}, prefetched)

    def install_many(self, pages: list[int], data=None,
                     prefetched: bool = False) -> None:
        """Batched :meth:`install` of distinct, non-resident pages.

        ``data`` maps page -> bytes in functional mode (ignored in timing
        mode). Contract (the bulk-fetch fast path guarantees it): none of
        the pages is already resident. Capacity is checked before anything
        changes, so a rejected batch leaves the cache untouched. Ticks
        advance exactly as the per-page calls would; counters flush once.
        """
        k = len(pages)
        if not k:
            return
        if len(self._slots) + k > self.capacity_pages:
            raise MemoryError_(f"{self.name}: install over capacity")
        slots = self._take_slots(k)
        slot_list = slots.tolist()
        self._slots.update(zip(pages, slot_list))
        tick = self._tick
        self._tick = tick + k
        self._last[slots] = np.arange(tick + 1, tick + k + 1)
        self._pref[slots] = prefetched
        bufs = self._bufs
        if bufs is not None and data is not None:
            get = data.get
            for slot, page in zip(slot_list, pages):
                bufs[slot] = get(page)
        mask = self._resident_mask
        top = max(pages)
        if top >= mask.shape[0]:
            grown = np.zeros(max(mask.shape[0] * 2, top + 1), dtype=bool)
            grown[:mask.shape[0]] = mask
            self._resident_mask = mask = grown
        mask[pages] = True
        counters = self.stats.counters
        counters["installs"] += k
        if prefetched:
            counters["prefetch_installs"] += k

    def choose_victims(self, count: int, protect: Iterable[int] = ()) -> list[int]:
        """Pick ``count`` pages to evict under the configured policy.

        The key is computed over the resident slots on demand: the class
        flag (dirty-biased: clean pages last; clean-first: dirty pages
        last; LRU: none) above the last-access tick. Ticks are unique, so
        the ascending order is total and victims come out exactly as a
        full sort of the resident pages by ``(class, last_access)``.
        """
        if count <= 0:
            return []
        protected = set(protect)
        slots = self._slots
        available = len(slots) - len(protected & slots.keys())
        if available < count:
            raise MemoryError_(f"{self.name}: cannot evict {count} pages "
                               f"({available} unprotected)")
        occupied = np.fromiter(slots.values(), dtype=np.intp, count=len(slots))
        pages = np.fromiter(slots.keys(), dtype=np.int64, count=len(slots))
        keys = self._last[occupied]
        if self.policy is not EvictionPolicy.LRU:
            later = self._hi[occupied] != 0
            if self.policy is EvictionPolicy.DIRTY_BIASED:
                later = ~later
            keys = keys | (later.astype(np.int64) << _CLASS_SHIFT)
        if protected:
            keep = ~np.isin(pages, list(protected))
            keys, pages = keys[keep], pages[keep]
        if count < keys.shape[0]:
            head = np.argpartition(keys, count - 1)[:count]
            order = head[np.argsort(keys[head])]
        else:
            order = np.argsort(keys)
        return pages[order].tolist()

    def evict(self, page: int) -> PageDiff | None:
        """Drop a page; if dirty, return the diff that must be written back."""
        slot = self._slots.pop(page, None)
        if slot is None:
            raise MemoryError_(f"{self.name}: evicting non-resident page {page}")
        self._resident_mask[page] = False
        counters = self.stats.counters
        counters["evictions"] += 1
        diff = None
        if self._hi[slot]:
            counters["evictions_dirty"] += 1
            diff = self._diff_of(slot, page)
            self._mark_clean(slot)
        else:
            counters["evictions_clean"] += 1
        self._release([slot])
        return diff

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
        slots = self._slots
        # Barrier directives list every page anyone else wrote -- usually
        # thousands, nearly all non-resident. One set intersection (over
        # the smaller side) finds the residents.
        hits = slots.keys() & pages
        if not hits:
            return []
        dropped = sorted(hits)
        freed = np.fromiter(map(slots.__getitem__, dropped), dtype=np.intp,
                            count=len(dropped))
        if np.count_nonzero(self._hi[freed]):
            page = next(p for p in dropped if self.is_dirty(p))
            raise ConsistencyError(
                f"{self.name}: invalidating dirty page {page} without flush")
        for page in dropped:
            del slots[page]
        self._resident_mask[dropped] = False
        self._release(freed.tolist())
        self.stats.counters["invalidations"] += len(dropped)
        return dropped

    def inval_epoch_of(self, page: int) -> int:
        return self.inval_epoch.get(page, 0)

    # ------------------------------------------------------------------
    # data access (requires residency)
    # ------------------------------------------------------------------
    def _check_span(self, addr: int, nbytes: int) -> None:
        if addr < 0:
            raise MemoryError_(f"negative address: {addr:#x}")
        if nbytes < 0:
            raise MemoryError_(f"negative span: {nbytes}")

    def _touch(self, first: int, last: int):
        """Slots of pages ``first..last`` with their access recorded: one
        tick per page in page order, prefetched flags cleared and scored
        as hits. Raises (touching nothing) if any page is not resident.

        Returns a one-slot list for a single page (scalar column access
        is cheaper than building an index array), otherwise an array."""
        slots_of = self._slots
        tick = self._tick
        counters = self.stats.counters
        if first == last:
            slot = slots_of.get(first)
            if slot is None:
                raise ProtectionError(
                    f"{self.name}: access to non-resident page {first}")
            self._tick = tick + 1
            self._last[slot] = tick + 1
            counters["page_touches"] += 1
            if self._pref[slot]:
                self._pref[slot] = False
                counters["prefetch_hits"] += 1
            return [slot]
        n = last - first + 1
        try:
            slots = np.fromiter(map(slots_of.__getitem__, range(first, last + 1)),
                                dtype=np.intp, count=n)
        except KeyError as missing:
            raise ProtectionError(f"{self.name}: access to non-resident "
                                  f"page {missing.args[0]}") from None
        self._tick = tick + n
        counters["page_touches"] += n
        self._last[slots] = np.arange(tick + 1, tick + n + 1)
        hits = int(np.count_nonzero(self._pref[slots]))
        if hits:
            self._pref[slots] = False
            counters["prefetch_hits"] += hits
        return slots

    def read(self, addr: int, nbytes: int) -> np.ndarray | None:
        """Gather bytes (functional) or just touch pages (timing)."""
        if nbytes == 0:
            return np.empty(0, dtype=np.uint8) if self.functional else None
        self._check_span(addr, nbytes)
        page_bytes = self.layout.page_bytes
        first = addr // page_bytes
        last = (addr + nbytes - 1) // page_bytes
        slots = self._touch(first, last)
        counters = self.stats.counters
        counters["reads"] += 1
        counters["read_bytes"] += nbytes
        bufs = self._bufs
        if bufs is None:
            return None
        head = addr - first * page_bytes
        if first == last:
            return bufs[slots[0]][head:head + nbytes]
        tail = addr + nbytes - last * page_bytes
        pieces = [bufs[s] for s in slots.tolist()]
        pieces[0] = pieces[0][head:]
        pieces[-1] = pieces[-1][:tail]
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
        page_bytes = self.layout.page_bytes
        first = addr // page_bytes
        last = (addr + nbytes - 1) // page_bytes
        slots = self._touch(first, last)
        # Page i of the span writes [start_i, end_i): the first page from
        # ``head``, the last up to ``tail``, every middle page whole.
        head = addr - first * page_bytes
        tail = addr + nbytes - last * page_bytes
        twins = 0
        if functional:
            # Before the dirty ranges grow: twin snapshots read them.
            twins = self._write_bytes(slots, head, tail, data, ordinary)
        if ordinary:
            self._dirty_span(slots, head, tail)
            # One C-level bulk update instead of a per-page set.add.
            self.epoch_written.update(range(first, last + 1))
        counters = self.stats.counters
        if twins:
            counters["twins_created"] += twins
        counters["writes"] += 1
        counters["write_bytes"] += nbytes
        return twins

    def _write_bytes(self, slots, head: int, tail: int,
                     data: np.ndarray | None, ordinary: bool) -> int:
        """Functional half of :meth:`write`, page by page: an ordinary
        write first snapshots the pre-images of the bytes it is about to
        dirty into the page's twin (created on first write), then the
        bytes land. Returns twins created."""
        page_bytes = self.layout.page_bytes
        bufs = self._bufs
        twins = self._twins
        snapshot = ordinary and self.use_twins
        created = 0
        consumed = 0
        slot_list = slots if type(slots) is list else slots.tolist()
        last = len(slot_list) - 1
        for i, slot in enumerate(slot_list):
            start = head if i == 0 else 0
            end = tail if i == last else page_bytes
            twin = twins.get(slot)
            if snapshot:
                if twin is None:
                    # Zero-copy twin: uninitialized scratch, actual
                    # pre-image bytes captured span by span.
                    twin = twins[slot] = SpanTwin(page_bytes)
                    created += 1
                twin.snapshot(bufs[slot], self._ranges_of(slot), start, end)
            if data is not None:
                chunk = data[consumed:consumed + end - start]
                bufs[slot][start:end] = chunk
                consumed += end - start
                if not ordinary and twin is not None:
                    # Consistency-region stores propagate via the store
                    # log; mirroring them into the twin keeps them out of
                    # this thread's ordinary-region diff (shipping them
                    # there could overwrite other threads' CR updates at
                    # the home).
                    twin.mirror(chunk, self._ranges_of(slot), start, end)
        return created

    def _dirty_span(self, slots, head: int, tail: int) -> None:
        """Add each page's written bytes to its dirty ranges: the edge
        pages one by one, the middle pages (now wholly dirty) in one
        vectorized store."""
        n = len(slots)
        page_bytes = self.layout.page_bytes
        first = int(slots[0])
        if n == 1:
            self._add_range(first, head, tail)
            return
        self._add_range(first, head, page_bytes)
        self._add_range(int(slots[-1]), 0, tail)
        if n > 2:
            middle = slots[1:-1]
            self._lo[middle] = 0
            self._hi[middle] = page_bytes
            spill = self._spill
            if spill:
                for slot in spill.keys() & set(middle.tolist()):
                    del spill[slot]

    def _add_range(self, slot: int, start: int, end: int) -> None:
        """Insert [start, end) into one slot's dirty set, coalescing with
        touching or overlapping bytes exactly as :meth:`ByteRanges.add`."""
        lo, hi = int(self._lo[slot]), int(self._hi[slot])
        if not hi:
            self._lo[slot], self._hi[slot] = start, end
            return
        spilled = self._spill.get(slot)
        if spilled is None:
            if start <= hi and end >= lo:
                self._lo[slot] = min(lo, start)
                self._hi[slot] = max(hi, end)
                return
            spilled = self._spill[slot] = ByteRanges([(lo, hi)])
        spilled.add(start, end)
        ranges = spilled._ranges
        if len(ranges) == 1:
            del self._spill[slot]
        self._lo[slot], self._hi[slot] = ranges[0][0], ranges[-1][1]

    # ------------------------------------------------------------------
    # diffs & fine-grain updates
    # ------------------------------------------------------------------
    def _diff_of(self, slot: int, page: int) -> PageDiff:
        if not self.use_twins:
            # Single-writer fallback: no twin exists, so the whole page is
            # the write-back unit (the classic DSM behaviour the paper's
            # multiple-writer protocol improves on).
            if self.functional:
                return PageDiff(page, spans=[(0, self._bufs[slot].copy())])
            return PageDiff(page, spans=[(0, None)],
                            sizes=[self.layout.page_bytes])
        twin = self._twins.get(slot)
        ranges = self._ranges_of(slot)
        if self.functional and twin is not None:
            return PageDiff(page, spans=twin.diff_spans(self._bufs[slot], ranges))
        return PageDiff.from_ranges(page, ranges)

    def take_diff(self, page: int) -> PageDiff | None:
        """Extract the pending diff for one dirty page and mark it clean."""
        slot = self._slots.get(page)
        if slot is None:
            raise MemoryError_(f"{self.name}: take_diff on non-resident page {page}")
        if not self._hi[slot]:
            return None
        diff = self._diff_of(slot, page)
        self._mark_clean(slot)
        counters = self.stats.counters
        counters["diffs_taken"] += 1
        counters["diff_bytes"] += diff.payload_bytes
        return diff

    def take_diff_sizes(self, pages):
        """Timing-mode bulk variant of :meth:`take_diff` for a recall batch.

        Returns ``(dirty_pages, payload_bytes, wire_bytes)`` summed over
        the dirty members of ``pages`` (in ``pages`` order), with
        take_diff's exact side effects (dirty ranges cleared, counters) but
        none of the PageDiff objects: with no data to diff a span diff is
        pure sizes -- payload = dirty bytes, wire = payload + one span
        header per dirty range. Only valid with ``use_twins`` in timing
        mode (the caller gates on both).
        """
        resident, slots = self._slots_among(dict.fromkeys(pages))
        lo, hi = self._lo[slots], self._hi[slots]
        dirty = hi != 0
        if not dirty.any():
            return [], 0, 0
        slots = slots[dirty]
        dirty_pages = np.asarray(resident)[dirty].tolist()
        payload = int((hi[dirty] - lo[dirty]).sum())
        headers = len(dirty_pages)
        spill = self._spill
        if spill:
            for slot in spill.keys() & set(slots.tolist()):
                ranges = spill.pop(slot)
                payload += ranges.nbytes - int(self._hi[slot] - self._lo[slot])
                headers += len(ranges) - 1
        self._lo[slots] = 0
        self._hi[slots] = 0
        counters = self.stats.counters
        counters["diffs_taken"] += len(dirty_pages)
        counters["diff_bytes"] += payload
        return dirty_pages, payload, payload + PageDiff.SPAN_HEADER_BYTES * headers

    def dirty_page_ids(self) -> list[int]:
        return sorted(self.dirty_among(self._slots))

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
        slots = self._slots
        bufs = self._bufs
        twins = self._twins
        for diff in diffs:
            slot = slots.get(diff.page)
            if slot is None:
                continue
            if bufs is not None and bufs[slot] is not None:
                diff.apply_to(bufs[slot])
                # Keep the twin in sync so these bytes don't reappear in the
                # thread's own ordinary-region diff.
                twin = twins.get(slot)
                if twin is not None:
                    ranges = self._ranges_of(slot)
                    for offset, span in diff.spans:
                        if span is not None:
                            twin.mirror(span, ranges, offset,
                                        offset + len(span))
            applied += diff.payload_bytes
        self.stats.incr("fine_grain_bytes", applied)
        return applied

    def clear(self) -> None:
        for slot in self._slots.values():
            self._mark_clean(slot)
        self._release(list(self._slots.values()))
        self._slots.clear()
        self._resident_mask[:] = False
