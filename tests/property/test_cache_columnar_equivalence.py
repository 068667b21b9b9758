"""Differential test: the columnar cache against a dict-of-objects model.

:class:`RefCache` below is the straightforward per-page-object cache --
one entry object per resident page with its bytes, a whole-page twin, a
:class:`ByteRanges` dirty set, a last-access tick and a prefetched flag --
with victims chosen by a full sort. Random operation sequences run through
both, under every eviction policy and in functional and timing mode, and
everything observable must agree after every step: return values (victims,
diff spans and sizes, dropped pages, bytes read), raised errors, counters,
resident sets, per-page tick/flag/dirty state and page bytes.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import ConsistencyError, MemoryError_, ProtectionError
from repro.memory import (ByteRanges, EvictionPolicy, MemoryLayout, PageDiff,
                          SoftwareCache, compute_diff_spans)
from repro.sim.stats import StatSet

LAYOUT = MemoryLayout(page_bytes=64, pages_per_line=2)
PB = LAYOUT.page_bytes
N_PAGES = 8
CAPACITY = 6


class RefEntry:
    def __init__(self, data, tick, prefetched):
        self.data = data
        self.twin = None
        self.dirty = ByteRanges()
        self.last_access = tick
        self.prefetched = prefetched


class RefCache:
    """The per-page-object reference model of :class:`SoftwareCache`."""

    def __init__(self, functional, policy):
        self.functional = functional
        self.policy = policy
        self.entries: dict[int, RefEntry] = {}
        self.tick = 0
        self.stats = StatSet("ref")
        self.epoch_written: set[int] = set()
        self.inval_epoch: dict[int, int] = {}
        self.inflight: dict[int, set[int]] = {}
        self.token = 0

    def install_many(self, pages, data, prefetched):
        if len(self.entries) + len(pages) > CAPACITY:
            raise MemoryError_("over capacity")
        for page in pages:
            self.tick += 1
            self.entries[page] = RefEntry(
                data[page] if self.functional else None, self.tick,
                prefetched)
        if pages:
            self.stats.counters["installs"] += len(pages)
            if prefetched:
                self.stats.counters["prefetch_installs"] += len(pages)

    def install(self, page, data, prefetched):
        if len(self.entries) >= CAPACITY:
            raise MemoryError_("over capacity")
        entry = self.entries.get(page)
        if entry is None:
            self.install_many([page], {page: data}, prefetched)
            return
        if not entry.dirty.empty:
            raise ConsistencyError("refreshing dirty page")
        entry.data = data if self.functional else None
        entry.prefetched = prefetched

    def _touch(self, addr, nbytes):
        pages = list(LAYOUT.pages_spanning(addr, nbytes))
        if any(p not in self.entries for p in pages):
            raise ProtectionError("non-resident")
        hits = 0
        for page in pages:
            entry = self.entries[page]
            self.tick += 1
            entry.last_access = self.tick
            if entry.prefetched:
                entry.prefetched = False
                hits += 1
        counters = self.stats.counters
        counters["page_touches"] += len(pages)
        if hits:
            counters["prefetch_hits"] += hits
        return pages

    def _bounds(self, page, addr, nbytes):
        start = max(addr, page * PB)
        end = min(addr + nbytes, (page + 1) * PB)
        return start - page * PB, end - page * PB, start - addr

    def read(self, addr, nbytes):
        pages = self._touch(addr, nbytes)
        self.stats.counters["reads"] += 1
        self.stats.counters["read_bytes"] += nbytes
        if not self.functional:
            return None
        return np.concatenate([self.entries[p].data[s:e] for p in pages
                               for s, e, _ in [self._bounds(p, addr, nbytes)]])

    def write(self, addr, nbytes, data, ordinary):
        pages = self._touch(addr, nbytes)
        twins = 0
        for page in pages:
            entry = self.entries[page]
            start, end, at = self._bounds(page, addr, nbytes)
            if ordinary:
                if self.functional and entry.twin is None:
                    entry.twin = entry.data.copy()
                    twins += 1
                entry.dirty.add(start, end)
                self.epoch_written.add(page)
            if self.functional:
                chunk = data[at:at + end - start]
                entry.data[start:end] = chunk
                if not ordinary and entry.twin is not None:
                    entry.twin[start:end] = chunk
        counters = self.stats.counters
        if twins:
            counters["twins_created"] += twins
        counters["writes"] += 1
        counters["write_bytes"] += nbytes
        return twins

    def _diff(self, page, entry):
        if self.functional:
            return PageDiff(page, spans=compute_diff_spans(entry.twin,
                                                           entry.data))
        return PageDiff.from_ranges(page, entry.dirty)

    def _clean(self, entry):
        entry.twin = None
        entry.dirty = ByteRanges()

    def take_diff(self, page):
        entry = self.entries.get(page)
        if entry is None:
            raise MemoryError_("non-resident")
        if entry.dirty.empty:
            return None
        diff = self._diff(page, entry)
        self._clean(entry)
        self.stats.counters["diffs_taken"] += 1
        self.stats.counters["diff_bytes"] += diff.payload_bytes
        return diff

    def take_diff_sizes(self, pages):
        dirty_pages, payload, wire = [], 0, 0
        for page in pages:
            entry = self.entries.get(page)
            if entry is None or entry.dirty.empty or page in dirty_pages:
                continue
            payload += entry.dirty.nbytes
            wire += entry.dirty.nbytes + PageDiff.SPAN_HEADER_BYTES * len(
                entry.dirty)
            self._clean(entry)
            dirty_pages.append(page)
        if dirty_pages:
            self.stats.counters["diffs_taken"] += len(dirty_pages)
            self.stats.counters["diff_bytes"] += payload
        return dirty_pages, payload, wire

    def begin_fetch(self, pages):
        self.token += 1
        self.inflight[self.token] = set(pages)
        return self.token

    def end_fetch(self, token):
        self.inflight.pop(token, None)

    def invalidate(self, pages):
        pages = set(pages)
        for inflight in self.inflight.values():
            for page in inflight & pages:
                self.inval_epoch[page] = self.inval_epoch.get(page, 0) + 1
        hits = sorted(p for p in pages if p in self.entries)
        if any(not self.entries[p].dirty.empty for p in hits):
            raise ConsistencyError("dirty")
        for page in hits:
            del self.entries[page]
        if hits:
            self.stats.counters["invalidations"] += len(hits)
        return hits

    def _key(self, page):
        entry = self.entries[page]
        if self.policy is EvictionPolicy.LRU:
            return entry.last_access
        if self.policy is EvictionPolicy.DIRTY_BIASED:
            return (entry.dirty.empty, entry.last_access)
        return (not entry.dirty.empty, entry.last_access)

    def choose_victims(self, count, protect):
        candidates = sorted((p for p in self.entries if p not in protect),
                            key=self._key)
        if len(candidates) < count:
            raise MemoryError_("cannot evict")
        return candidates[:count]

    def evict(self, page):
        entry = self.entries.pop(page)
        counters = self.stats.counters
        counters["evictions"] += 1
        if entry.dirty.empty:
            counters["evictions_clean"] += 1
            return None
        counters["evictions_dirty"] += 1
        return self._diff(page, entry)

    def apply_fine_grain(self, diffs):
        applied = 0
        for diff in diffs:
            entry = self.entries.get(diff.page)
            if entry is None:
                continue
            if self.functional:
                diff.apply_to(entry.data)
                if entry.twin is not None:
                    diff.apply_to(entry.twin)
            applied += diff.payload_bytes
        self.stats.incr("fine_grain_bytes", applied)
        return applied


def _diff_repr(diff):
    if diff is None:
        return None
    return (diff.page, diff.sizes(),
            [(off, None if data is None else bytes(data))
             for off, data in diff.spans])


def _outcome(fn, *args):
    """``("ok", value)`` or ``("raised", error type)``."""
    try:
        return "ok", fn(*args)
    except (MemoryError_, ProtectionError, ConsistencyError) as err:
        return "raised", type(err)


def _assert_same_state(cache, ref):
    assert set(cache.resident_page_set()) == set(ref.entries)
    assert dict(cache.stats.counters) == dict(ref.stats.counters)
    assert cache.epoch_written == ref.epoch_written
    assert {p: n for p, n in cache.inval_epoch.items() if n} == ref.inval_epoch
    assert cache.dirty_page_ids() == sorted(
        p for p, e in ref.entries.items() if not e.dirty.empty)
    for page, expected in ref.entries.items():
        entry = cache.entry(page)
        assert entry.last_access == expected.last_access
        assert entry.prefetched == expected.prefetched
        assert list(entry.dirty) == list(expected.dirty)
        assert cache.is_dirty(page) == (not expected.dirty.empty)
        if ref.functional:
            assert bytes(entry.data) == bytes(expected.data)


page_st = st.integers(0, N_PAGES - 1)
span_st = st.tuples(st.integers(0, N_PAGES * PB - 1), st.integers(1, 2 * PB))
ops = st.one_of(
    st.tuples(st.just("install"), page_st, st.booleans()),
    st.tuples(st.just("install_many"), st.lists(page_st, max_size=6),
              st.booleans()),
    st.tuples(st.just("read"), span_st),
    st.tuples(st.just("write"), span_st, st.integers(1, 255)),
    st.tuples(st.just("cr_write"), span_st, st.integers(1, 255)),
    st.tuples(st.just("take_diff"), page_st),
    st.tuples(st.just("take_diff_sizes"), st.lists(page_st, max_size=6)),
    st.tuples(st.just("invalidate"), st.lists(page_st, max_size=4),
              st.lists(page_st, max_size=4)),
    st.tuples(st.just("evict"), st.integers(1, 3),
              st.sets(page_st, max_size=3)),
    st.tuples(st.just("fine_grain"), page_st, st.integers(0, PB - 1),
              st.integers(1, 8), st.integers(1, 255)),
    st.tuples(st.just("notices")),
)


@pytest.mark.parametrize("functional", [True, False],
                         ids=["functional", "timing"])
@pytest.mark.parametrize("policy", list(EvictionPolicy),
                         ids=[p.value for p in EvictionPolicy])
@settings(max_examples=120, deadline=None)
@given(script=st.lists(ops, min_size=1, max_size=40))
# One page dirtied among clean ones, a multi-page touch, then a full
# eviction: every policy's class order and the per-page tick order show.
@example(script=[("install_many", [0, 1, 2], False), ("write", (PB, 8), 1),
                 ("read", (0, 2 * PB)), ("evict", 3, set())])
def test_columnar_cache_matches_object_model(functional, policy, script):
    cache = SoftwareCache(LAYOUT, capacity_pages=CAPACITY,
                          functional=functional, policy=policy)
    ref = RefCache(functional, policy)

    def page_bytes(page):
        return np.full(PB, page + 1, dtype=np.uint8) if functional else None

    for op, *args in script:
        if op == "install":
            page, prefetched = args
            got = _outcome(cache.install, page, page_bytes(page), prefetched)
            want = _outcome(ref.install, page, page_bytes(page), prefetched)
        elif op == "install_many":
            pages, prefetched = args
            pages = [p for p in dict.fromkeys(pages) if p not in ref.entries]
            got = _outcome(cache.install_many, pages,
                           {p: page_bytes(p) for p in pages}, prefetched)
            want = _outcome(ref.install_many, pages,
                            {p: page_bytes(p) for p in pages}, prefetched)
        elif op == "read":
            (addr, nbytes), = args
            got = _outcome(cache.read, addr, nbytes)
            want = _outcome(ref.read, addr, nbytes)
            if got[0] == "ok" and functional:
                got = ("ok", bytes(got[1]))
                want = ("ok", bytes(want[1]))
        elif op in ("write", "cr_write"):
            (addr, nbytes), value = args
            data = ((np.arange(nbytes) + value).astype(np.uint8)
                    if functional else None)
            ordinary = op == "write"
            got = _outcome(cache.write, addr, nbytes, data, ordinary)
            want = _outcome(ref.write, addr, nbytes, data, ordinary)
        elif op == "take_diff":
            got = _outcome(cache.take_diff, args[0])
            want = _outcome(ref.take_diff, args[0])
            got = (got[0], _diff_repr(got[1]) if got[0] == "ok" else got[1])
            want = (want[0], _diff_repr(want[1]) if want[0] == "ok" else want[1])
        elif op == "take_diff_sizes":
            if functional:
                continue  # timing-mode bulk path only
            got = ("ok", cache.take_diff_sizes(args[0]))
            want = ("ok", ref.take_diff_sizes(args[0]))
        elif op == "invalidate":
            pages, in_flight = args
            tokens = (cache.begin_fetch(in_flight), ref.begin_fetch(in_flight))
            got = _outcome(cache.invalidate, pages)
            want = _outcome(ref.invalidate, pages)
            cache.end_fetch(tokens[0])
            ref.end_fetch(tokens[1])
        elif op == "evict":
            count, protect = args
            count = min(count, len(ref.entries))
            got = _outcome(cache.choose_victims, count, protect)
            want = _outcome(ref.choose_victims, count, protect)
            assert got == want
            if got[0] == "ok":
                got = ("ok", [_diff_repr(cache.evict(p)) for p in got[1]])
                want = ("ok", [_diff_repr(ref.evict(p)) for p in want[1]])
        elif op == "fine_grain":
            if not functional:
                continue
            page, offset, nbytes, value = args
            nbytes = min(nbytes, PB - offset)
            diff = PageDiff(page, spans=[
                (offset, np.full(nbytes, value, dtype=np.uint8))])
            got = ("ok", cache.apply_fine_grain([diff]))
            want = ("ok", ref.apply_fine_grain([diff]))
        else:  # notices
            got = ("ok", cache.take_epoch_notices())
            want = ("ok", sorted(ref.epoch_written))
            ref.epoch_written.clear()
        assert got == want, op
        _assert_same_state(cache, ref)


def test_rejected_install_batch_leaves_the_cache_untouched():
    cache = SoftwareCache(LAYOUT, capacity_pages=4, functional=False)
    cache.install_many([0, 1, 2])
    cache.read(0, PB)
    before = (set(cache.resident_page_set()), dict(cache.stats.counters),
              cache._tick, {p: cache.entry(p).last_access for p in range(3)})
    with pytest.raises(MemoryError_):
        cache.install_many([5, 6])
    after = (set(cache.resident_page_set()), dict(cache.stats.counters),
             cache._tick, {p: cache.entry(p).last_access for p in range(3)})
    assert after == before
    assert not cache.span_resident(5 * PB, 2 * PB)
    assert cache.missing_lines(4 * PB, 4 * PB) == [2, 3]
    cache.install_many([5])   # exactly the room that is left still fits
    assert cache.resident_pages == 4
