"""Page ownership directory.

Samhita's synchronization "moves only the minimum amount of data required":
a page dirtied by exactly one thread is *not* flushed at a barrier -- the
directory records that thread as the page's owner, and the home recalls the
diff only if someone else faults on the page (or the owner evicts it).
Multi-writer pages are merged eagerly at the barrier and ownership clears.
"""

from __future__ import annotations

from itertools import repeat

from repro.sim.stats import StatSet


class PageDirectory:
    """Maps lazily written-back pages to their owning thread.

    Also tracks *sharers* (threads that fetched a copy). RegC only uses
    ownership; the eager write-invalidate (IVY-style) baseline needs the
    sharer lists to know whom to invalidate on a write. Sharer lists are
    conservative supersets -- a locally dropped copy may linger until the
    next protocol action touches it. Each page's sharers are one int
    bitmask (bit ``t`` = thread ``t``), as in the SMP model's coherent
    cache, so tracking them allocates no per-page set.
    """

    def __init__(self, name: str = "directory"):
        self._owner: dict[int, int] = {}
        self._sharers: dict[int, int] = {}
        #: Failover indirection over the allocator's static home function:
        #: logical home index -> live server index. Empty until a failover
        #: runs, so the healthy path is one falsy check.
        self._home_remap: dict[int, int] = {}
        self.stats = StatSet(name)

    # -- home map (failover indirection) ---------------------------------
    def resolve_home(self, index: int) -> int:
        """Live server index for a logical (allocator-assigned) home."""
        remap = self._home_remap
        if not remap:
            return index
        return remap.get(index, index)

    def remap_home(self, dead: int, promoted: int) -> None:
        """Point every page logically homed on ``dead`` at ``promoted``.

        Earlier remaps that resolved *to* the newly dead server are
        rewritten too, so chained failures stay transitive-free (a resolve
        is always a single hop).
        """
        for logical, target in list(self._home_remap.items()):
            if target == dead:
                self._home_remap[logical] = promoted
        self._home_remap[dead] = promoted
        self.stats.counters["home_remaps"] += 1

    @property
    def home_remap(self) -> dict[int, int]:
        return dict(self._home_remap)

    # -- sharers ---------------------------------------------------------
    def add_sharer(self, page: int, thread_id: int) -> None:
        sharers = self._sharers
        sharers[page] = sharers.get(page, 0) | (1 << thread_id)

    def add_sharers(self, pages, thread_id: int) -> None:
        """Bulk :meth:`add_sharer` for a batch-served fetch: one call for
        the whole page list instead of one per page."""
        sharers = self._sharers
        sharers.update(zip(pages, map((1 << thread_id).__or__,
                                      map(sharers.get, pages, repeat(0)))))

    def remove_sharer(self, page: int, thread_id: int) -> None:
        mask = self._sharers.get(page)
        if mask is not None:
            mask &= ~(1 << thread_id)
            if mask:
                self._sharers[page] = mask
            else:
                del self._sharers[page]

    def sharers_of(self, page: int) -> set[int]:
        mask = self._sharers.get(page, 0)
        sharers = set()
        while mask:
            low = mask & -mask
            sharers.add(low.bit_length() - 1)
            mask ^= low
        return sharers

    def record_owner(self, page: int, thread_id: int) -> None:
        self._owner[page] = thread_id
        self.stats.counters["owners_recorded"] += 1

    def record_owners(self, pages, thread_id: int) -> None:
        """Bulk :meth:`record_owner` -- barrier plans assign ownership for
        thousands of single-writer pages at once; one C-level dict update
        replaces the per-page call."""
        if not pages:
            return
        self._owner.update(dict.fromkeys(pages, thread_id))
        self.stats.counters["owners_recorded"] += len(pages)

    def owner_of(self, page: int) -> int | None:
        return self._owner.get(page)

    def foreign_owners(self, pages, thread_id: int) -> dict[int, list[int]]:
        """Owner -> its pages (in ``pages`` order), for the pages some
        thread other than ``thread_id`` owns: the recall groups of a
        batched fetch, found with one C-level membership sweep."""
        owner = self._owner
        by_owner: dict[int, list[int]] = {}
        for page in [p for p in pages if p in owner]:
            tid = owner[page]
            if tid != thread_id:
                by_owner.setdefault(tid, []).append(page)
        return by_owner

    def clear_owner(self, page: int) -> None:
        if self._owner.pop(page, None) is not None:
            self.stats.incr("owners_cleared")

    def clear_owners(self, pages) -> None:
        """Bulk :meth:`clear_owner`."""
        pop = self._owner.pop
        cleared = sum(pop(page, None) is not None for page in pages)
        if cleared:
            self.stats.counters["owners_cleared"] += cleared

    def owned_by(self, thread_id: int) -> list[int]:
        return sorted(p for p, t in self._owner.items() if t == thread_id)

    def __len__(self) -> int:
        return len(self._owner)

    def __contains__(self, page: int) -> bool:
        return page in self._owner
