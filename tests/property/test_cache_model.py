"""Property test: the software cache against a brute-force reference model.

The reference tracks, per byte, what a correct cache must return: reads see
the latest locally-written or installed value; diffs contain exactly the
bytes whose values changed since the twin snapshot; invalidation forgets
cleanly. Random operation sequences must keep the real cache and the
reference in lockstep.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.memory import MemoryLayout, SoftwareCache

LAYOUT = MemoryLayout(page_bytes=256, pages_per_line=2)  # small pages: more edges
N_PAGES = 6
SPAN = LAYOUT.page_bytes * N_PAGES


class ReferenceModel:
    """Byte-array mirror of what the cache should contain."""

    def __init__(self):
        self.resident: dict[int, np.ndarray] = {}
        self.twin: dict[int, np.ndarray] = {}

    def install(self, page, data):
        self.resident[page] = data.copy()

    def write(self, addr, data):
        for i, b in enumerate(data):
            page = (addr + i) // LAYOUT.page_bytes
            off = (addr + i) % LAYOUT.page_bytes
            if page not in self.twin:
                self.twin[page] = self.resident[page].copy()
            self.resident[page][off] = b

    def read(self, addr, nbytes):
        out = np.empty(nbytes, np.uint8)
        for i in range(nbytes):
            page = (addr + i) // LAYOUT.page_bytes
            off = (addr + i) % LAYOUT.page_bytes
            out[i] = self.resident[page][off]
        return out

    def diff_bytes(self, page):
        if page not in self.twin:
            return 0
        return int((self.twin[page] != self.resident[page]).sum())

    def take_diff(self, page):
        count = self.diff_bytes(page)
        self.twin.pop(page, None)
        return count

    def invalidate(self, page):
        self.resident.pop(page, None)


ops = st.lists(
    st.one_of(
        st.tuples(st.just("write"), st.integers(0, SPAN - 17),
                  st.integers(1, 16), st.integers(0, 255)),
        st.tuples(st.just("read"), st.integers(0, SPAN - 17),
                  st.integers(1, 16)),
        st.tuples(st.just("diff"), st.integers(0, N_PAGES - 1)),
        st.tuples(st.just("invalidate"), st.integers(0, N_PAGES - 1)),
    ),
    min_size=1, max_size=40,
)


@given(ops)
@settings(max_examples=120, deadline=None)
def test_cache_matches_reference_model(operations):
    cache = SoftwareCache(LAYOUT, capacity_pages=N_PAGES + 2, functional=True)
    ref = ReferenceModel()
    rng = np.random.default_rng(0)
    # Install all pages with a deterministic pattern.
    for page in range(N_PAGES):
        data = rng.integers(0, 256, LAYOUT.page_bytes).astype(np.uint8)
        cache.install(page, data.copy())
        ref.install(page, data)

    for op in operations:
        kind = op[0]
        if kind == "write":
            _, addr, nbytes, value = op
            pages = LAYOUT.pages_spanning(addr, nbytes)
            if any(not cache.resident(p) for p in pages):
                continue  # skip writes to invalidated pages
            data = np.full(nbytes, value, np.uint8)
            cache.write(addr, nbytes, data)
            ref.write(addr, data)
        elif kind == "read":
            _, addr, nbytes = op
            pages = LAYOUT.pages_spanning(addr, nbytes)
            if any(not cache.resident(p) for p in pages):
                continue
            got = cache.read(addr, nbytes)
            assert np.array_equal(np.asarray(got), ref.read(addr, nbytes))
        elif kind == "diff":
            _, page = op
            if not cache.resident(page):
                continue
            diff = cache.take_diff(page)
            expected = ref.take_diff(page)
            got = diff.payload_bytes if diff is not None else 0
            assert got == expected
        else:  # invalidate
            _, page = op
            if not cache.resident(page) or cache.is_dirty(page):
                continue  # protocol forbids invalidating dirty pages
            cache.invalidate([page])
            ref.invalidate(page)


@given(st.lists(st.tuples(st.integers(0, SPAN - 9), st.integers(1, 8),
                          st.integers(0, 255)), min_size=1, max_size=30))
@settings(max_examples=80, deadline=None)
def test_diff_roundtrip_reconstructs_home_page(writes):
    """Applying every taken diff to pristine home copies reproduces the
    cache contents exactly (the write-back correctness property)."""
    cache = SoftwareCache(LAYOUT, capacity_pages=N_PAGES + 2, functional=True)
    home = {p: np.zeros(LAYOUT.page_bytes, np.uint8) for p in range(N_PAGES)}
    for page in range(N_PAGES):
        cache.install(page, home[page].copy())

    for addr, nbytes, value in writes:
        cache.write(addr, nbytes, np.full(nbytes, value, np.uint8))

    for page in range(N_PAGES):
        diff = cache.take_diff(page)
        if diff is not None:
            diff.apply_to(home[page])

    for page in range(N_PAGES):
        assert np.array_equal(home[page], cache.page_data(page))


@given(st.lists(st.tuples(st.integers(0, 1), st.integers(0, SPAN - 9),
                          st.integers(1, 8)), min_size=2, max_size=30))
@settings(max_examples=80, deadline=None)
def test_concurrent_writers_merge_disjointly(writes):
    """Two caches writing through twins merge at a home without losing any
    byte either of them wrote last (writes here are made disjoint by
    masking each writer to its own half of every page)."""
    caches = [SoftwareCache(LAYOUT, capacity_pages=N_PAGES + 2, name=f"c{i}")
              for i in range(2)]
    home = {p: np.zeros(LAYOUT.page_bytes, np.uint8) for p in range(N_PAGES)}
    for cache in caches:
        for page in range(N_PAGES):
            cache.install(page, home[page].copy())

    half = LAYOUT.page_bytes // 2
    expected = {p: home[p].copy() for p in range(N_PAGES)}
    for writer, addr, nbytes in writes:
        # Clamp the write into the writer's half of its page.
        page = LAYOUT.page_of(addr)
        off = min(LAYOUT.page_offset(addr) % half, half - nbytes) if nbytes <= half else 0
        start = page * LAYOUT.page_bytes + writer * half + max(off, 0)
        nbytes = min(nbytes, half)
        data = np.full(nbytes, writer + 1, np.uint8)
        caches[writer].write(start, nbytes, data)
        expected[page][start - page * LAYOUT.page_bytes:
                       start - page * LAYOUT.page_bytes + nbytes] = data

    for cache in caches:
        for page in range(N_PAGES):
            diff = cache.take_diff(page)
            if diff is not None:
                diff.apply_to(home[page])

    for page in range(N_PAGES):
        assert np.array_equal(home[page], expected[page])
