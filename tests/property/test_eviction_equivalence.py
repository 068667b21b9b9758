"""Property test: heap eviction picks victims in full-sort order.

The lazy min-heap claims its pop sequence equals the ascending sort of
the resident entries by victim key -- victim for victim, under every
policy, through any interleaving of the operations that move a page
between key classes (install, read, write, take_diff, evict, invalidate).
Drive random op sequences through a cache and assert ``choose_victims``
never diverges from that sort, computed here from ``_victim_key``.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.memory import EvictionPolicy, MemoryLayout, SoftwareCache

LAYOUT = MemoryLayout(page_bytes=256, pages_per_line=2)
N_PAGES = 10
PAGE = LAYOUT.page_bytes


def _cache(policy):
    return SoftwareCache(LAYOUT, capacity_pages=N_PAGES, functional=True,
                         policy=policy)


def _sorted_victims(cache, count, protect=()):
    """The reference order: a full sort of the unprotected residents."""
    candidates = [e for p, e in cache.entries.items() if p not in protect]
    candidates.sort(key=cache._victim_key)
    return [e.page for e in candidates[:count]]


ops = st.one_of(
    st.tuples(st.just("install"), st.integers(0, N_PAGES - 1)),
    st.tuples(st.just("read"), st.integers(0, N_PAGES - 1)),
    st.tuples(st.just("write"), st.integers(0, N_PAGES - 1)),
    st.tuples(st.just("take_diff"), st.integers(0, N_PAGES - 1)),
    st.tuples(st.just("evict"), st.integers(0, N_PAGES - 1)),
    st.tuples(st.just("invalidate"), st.integers(0, N_PAGES - 1)),
    st.tuples(st.just("victims"), st.integers(1, 3)),
)


@settings(max_examples=120, deadline=None)
@given(policy=st.sampled_from(list(EvictionPolicy)),
       script=st.lists(ops, min_size=1, max_size=60))
def test_heap_matches_sorted_victims(policy, script):
    c = _cache(policy)
    for op, arg in script:
        if op == "install":
            if arg in c.entries or c.free_pages == 0:
                continue
            c.install(arg, np.zeros(PAGE, np.uint8))
        elif op == "read":
            if arg not in c.entries:
                continue
            c.read(arg * PAGE, 8)
        elif op == "write":
            if arg not in c.entries:
                continue
            c.write(arg * PAGE, 8, np.full(8, arg + 1, np.uint8))
        elif op == "take_diff":
            if arg not in c.entries:
                continue
            c.take_diff(arg)
        elif op == "evict":
            if arg not in c.entries:
                continue
            if arg in c.dirty_page_ids():
                c.take_diff(arg)
            c.evict(arg)
        elif op == "invalidate":
            if arg in c.dirty_page_ids():
                continue
            c.invalidate([arg])
        else:  # victims
            count = min(arg, len(c.entries))
            if not count:
                continue
            assert c.choose_victims(count) == _sorted_victims(c, count)
    # Final full drain must agree too.
    remaining = len(c.entries)
    if remaining:
        assert c.choose_victims(remaining) == _sorted_victims(c, remaining)


@settings(max_examples=60, deadline=None)
@given(policy=st.sampled_from(list(EvictionPolicy)),
       protect=st.sets(st.integers(0, N_PAGES - 1), max_size=N_PAGES - 2))
def test_heap_matches_sorted_with_protection(policy, protect):
    c = _cache(policy)
    for page in range(N_PAGES):
        c.install(page, np.zeros(PAGE, np.uint8))
    for page in (1, 4, 7):
        c.write(page * PAGE, 8, np.ones(8, np.uint8))
    count = N_PAGES - len(protect)
    assert (c.choose_victims(count, protect=protect)
            == _sorted_victims(c, count, protect))


def test_heap_compaction_rebuild_preserves_order():
    # Hammer one page with clean->dirty transitions to flood the heap with
    # stale records until the 4*len(entries)+64 rebuild threshold trips.
    c = _cache(EvictionPolicy.DIRTY_BIASED)
    for page in range(N_PAGES):
        c.install(page, np.zeros(PAGE, np.uint8))
    for i in range(200):
        page = i % N_PAGES
        c.write(page * PAGE, 8, np.full(8, (i % 250) + 1, np.uint8))
        c.take_diff(page)
    assert len(c._heap) > 4 * N_PAGES + 64  # stale flood built up
    assert c.choose_victims(N_PAGES) == _sorted_victims(c, N_PAGES)
    # choose_victims detected the flood and rebuilt from live entries.
    assert len(c._heap) <= 4 * N_PAGES + 64
