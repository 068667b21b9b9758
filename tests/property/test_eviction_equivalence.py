"""Property test: eviction picks victims in full-sort order.

``choose_victims`` claims its victims are the ascending sort of the
resident pages by the policy's victim key -- victim for victim, under
every policy, through any interleaving of the operations that move a page
between key classes (install, read, write, take_diff, evict, invalidate).
Drive random op sequences through a cache and assert it never diverges
from that sort, computed here from the cache's inspection snapshots.
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


def _victim_key(policy, entry):
    """The paper's order (dirty first, then LRU) and its two ablations."""
    if policy is EvictionPolicy.LRU:
        return entry.last_access
    if policy is EvictionPolicy.DIRTY_BIASED:
        return (entry.dirty.empty, entry.last_access)
    return (not entry.dirty.empty, entry.last_access)


def _sorted_victims(cache, count, protect=()):
    """The reference order: a full sort of the unprotected residents."""
    candidates = [cache.entry(p) for p in cache.resident_page_set()
                  if p not in protect]
    candidates.sort(key=lambda e: _victim_key(cache.policy, e))
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
            if c.resident(arg) or c.free_pages == 0:
                continue
            c.install(arg, np.zeros(PAGE, np.uint8))
        elif op == "read":
            if not c.resident(arg):
                continue
            c.read(arg * PAGE, 8)
        elif op == "write":
            if not c.resident(arg):
                continue
            c.write(arg * PAGE, 8, np.full(8, arg + 1, np.uint8))
        elif op == "take_diff":
            if not c.resident(arg):
                continue
            c.take_diff(arg)
        elif op == "evict":
            if not c.resident(arg):
                continue
            if arg in c.dirty_page_ids():
                c.take_diff(arg)
            c.evict(arg)
        elif op == "invalidate":
            if arg in c.dirty_page_ids():
                continue
            c.invalidate([arg])
        else:  # victims
            count = min(arg, c.resident_pages)
            if not count:
                continue
            assert c.choose_victims(count) == _sorted_victims(c, count)
    # Final full drain must agree too.
    remaining = c.resident_pages
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
