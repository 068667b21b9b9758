"""Memory-server page frames.

A :class:`BackingStore` holds the authoritative copy of every page homed on
one memory server. In functional mode each frame is a real zero-initialized
NumPy buffer; in timing mode frames exist (as a version count) but carry no
data, keeping large sweeps cheap while versioning still works.
"""

from __future__ import annotations

import zlib
from itertools import repeat

import numpy as np

from repro.errors import MemoryError_
from repro.memory.diff import PageDiff
from repro.memory.layout import MemoryLayout
from repro.sim.stats import StatSet

#: Timing-mode corruption sentinel: with no bytes to checksum, a rotted
#: frame ships this instead of its version so the receiver's check fires.
CRC_CORRUPT = -1


def payload_crc_ok(data: np.ndarray | None, crc: int | None) -> bool:
    """End-to-end check of a received page against its shipped checksum.

    ``crc=None`` means integrity is off (nothing to verify). In timing mode
    there are no bytes, so the check degrades to the corruption sentinel.
    """
    if crc is None:
        return True
    if data is None:
        return crc != CRC_CORRUPT
    return (zlib.crc32(data) & 0xFFFFFFFF) == crc


class PageFrame:
    """Snapshot of one page's authoritative state, built on demand by
    :meth:`BackingStore.frame` for inspection (tests, debugging). The
    store itself keeps no per-page objects."""

    __slots__ = ("data", "version", "crc", "corrupt")

    def __init__(self, data: np.ndarray | None, version: int = 0,
                 crc: int | None = None, corrupt: bool = False):
        self.data = data
        self.version = version
        self.crc = crc
        self.corrupt = corrupt


class BackingStore:
    """Page frames homed on one memory server.

    A frame is a key of :attr:`version` (its mutation count); key presence
    means the frame exists. Functional bytes live in :attr:`data`. The CRC
    cache and the bitrot markers are sparse and only touched while
    :attr:`integrity` is armed.
    """

    def __init__(self, layout: MemoryLayout, functional: bool = True, name: str = "backing"):
        self.layout = layout
        self.functional = functional
        self.name = name
        self.version: dict[int, int] = {}
        self.data: dict[int, np.ndarray] = {}
        #: Lazily computed CRC32 per page (integrity armed, functional
        #: mode); absent = not computed since the last clean mutation.
        self._crc: dict[int, int] = {}
        #: Rotted pages: their cached CRC is deliberately stale (it
        #: predates the rot), so verification keeps failing until a replica
        #: repair rebuilds the frame. Never cleared by apply_diff --
        #: recomputing a checksum over rotted bytes would launder the
        #: corruption.
        self._corrupt: set[int] = set()
        #: End-to-end checksums; armed by the system when replication is on
        #: (a detected corruption is only survivable with a replica to
        #: repair from). Off, the mutation paths skip all CRC bookkeeping.
        self.integrity = False
        self.stats = StatSet(name)

    def ensure(self, page: int) -> np.ndarray | None:
        """Create the frame for ``page`` (zero-filled) on first touch;
        returns its bytes (None in timing mode)."""
        if page not in self.version:
            self.version[page] = 0
            self.stats.incr("frames_created")
            if self.functional:
                data = self.data[page] = np.zeros(self.layout.page_bytes,
                                                  dtype=np.uint8)
                return data
        return self.data.get(page)

    def frame(self, page: int) -> PageFrame | None:
        """An inspection snapshot of one frame (None if never created)."""
        version = self.version.get(page)
        if version is None:
            return None
        return PageFrame(self.data.get(page), version, self._crc.get(page),
                         page in self._corrupt)

    def read_page(self, page: int) -> np.ndarray | None:
        """A *copy* of the page's bytes (what goes over the wire)."""
        self.stats.counters["page_reads"] += 1
        data = self.ensure(page)
        return data.copy() if data is not None else None

    def write_page(self, page: int, data: np.ndarray | None) -> None:
        """Replace the page's contents wholesale."""
        self.stats.incr("page_writes")
        buf = self.ensure(page)
        if self.functional:
            if data is None:
                raise MemoryError_("functional store requires data on write_page")
            if data.shape[0] != self.layout.page_bytes:
                raise MemoryError_("write_page size mismatch")
            buf[:] = data
        self.version[page] += 1
        if self.integrity:
            # Wholesale replacement overwrites any rot.
            self._crc.pop(page, None)
            self._corrupt.discard(page)

    def apply_diff(self, diff: PageDiff) -> None:
        """Merge one writer's diff into the authoritative page."""
        counters = self.stats.counters
        counters["diffs_applied"] += 1
        counters["diff_bytes"] += diff.payload_bytes
        page = diff.page
        data = self.ensure(page)
        if data is not None:
            diff.apply_to(data)
        self.version[page] += 1
        if self.integrity and page not in self._corrupt:
            self._crc.pop(page, None)

    def apply_diff_sizes(self, pages: list[int], payload_bytes: int) -> None:
        """Timing-mode bulk twin of :meth:`apply_diff` for a recall batch:
        the frame/version/counter side effects of one diff per page,
        without PageDiff objects (no bytes to merge; the caller gates on
        integrity being off)."""
        counters = self.stats.counters
        counters["diffs_applied"] += len(pages)
        counters["diff_bytes"] += payload_bytes
        self._bump(pages)

    def _bump(self, pages) -> None:
        """Timing mode: create missing frames and advance every version
        (one C-level ``dict.update`` over a ``get + 1`` map)."""
        version = self.version
        before = len(version)
        version.update(zip(pages, map((1).__add__,
                                      map(version.get, pages, repeat(0)))))
        if len(version) > before:
            self.stats.counters["frames_created"] += len(version) - before

    def serve_pages_timing(self, pages: list[int]) -> None:
        """Timing-mode bulk read touch: the ``read_page`` side effects
        (frame existence + read counter) for a whole served batch, paid in
        two dict sweeps instead of one call per page."""
        counters = self.stats.counters
        counters["page_reads"] += len(pages)
        version = self.version
        missing = [p for p in pages if p not in version]
        if missing:
            version.update(dict.fromkeys(missing, 0))
            counters["frames_created"] += len(missing)

    def read_range(self, addr: int, nbytes: int) -> np.ndarray | None:
        """Gather an arbitrary byte range (used by the SMP baseline, which
        accesses memory directly rather than through a software cache)."""
        if not self.functional:
            return None
        if nbytes == 0:
            return np.empty(0, dtype=np.uint8)
        pieces = []
        page_bytes = self.layout.page_bytes
        end_addr = addr + nbytes
        for page in self.layout.pages_spanning(addr, nbytes):
            data = self.ensure(page)
            page_start = page * page_bytes
            start = addr if addr > page_start else page_start
            page_end = page_start + page_bytes
            end = end_addr if end_addr < page_end else page_end
            off = start - page_start
            pieces.append(data[off:off + (end - start)])
        if len(pieces) == 1:
            return pieces[0].copy()
        return np.concatenate(pieces)

    def write_range(self, addr: int, nbytes: int, data: np.ndarray | None) -> None:
        """Scatter an arbitrary byte range (SMP baseline direct store)."""
        if nbytes == 0:
            return
        if self.functional and data is not None and len(data) != nbytes:
            raise MemoryError_("write_range data length mismatch")
        if not self.functional:
            # Timing mode: only frame existence and versions matter, so the
            # per-page offset arithmetic is skipped (SMP-baseline stores
            # span thousands of pages).
            self._bump(self.layout.pages_spanning(addr, nbytes))
            return
        consumed = 0
        page_bytes = self.layout.page_bytes
        end_addr = addr + nbytes
        version = self.version
        for page in self.layout.pages_spanning(addr, nbytes):
            buf = self.ensure(page)
            page_start = page * page_bytes
            start = addr if addr > page_start else page_start
            page_end = page_start + page_bytes
            end = end_addr if end_addr < page_end else page_end
            off = start - page_start
            chunk = end - start
            if data is not None:
                buf[off:off + chunk] = data[consumed:consumed + chunk]
            consumed += chunk
            version[page] += 1

    # -- end-to-end integrity (replication armed) ------------------------
    def page_crc(self, page: int) -> int:
        """The checksum shipped with a served page.

        Functional mode: CRC32 of the stored bytes, computed lazily and
        cached until the next clean mutation. A rotted frame's cached CRC
        is deliberately stale, so the receiver's check fails. Timing mode:
        the frame version, with :data:`CRC_CORRUPT` standing in when the
        frame is rotted (no bytes exist to checksum).
        """
        data = self.ensure(page)
        if not self.functional:
            return CRC_CORRUPT if page in self._corrupt else self.version[page]
        crc = self._crc.get(page)
        if crc is None:
            crc = self._crc[page] = zlib.crc32(data) & 0xFFFFFFFF
        return crc

    def corrupt_page(self, page: int) -> None:
        """Inject bitrot: flip a stored byte WITHOUT refreshing the CRC."""
        data = self.ensure(page)
        if self.functional:
            if page not in self._crc:
                self._crc[page] = zlib.crc32(data) & 0xFFFFFFFF
            data[0] ^= 0xFF
        self._corrupt.add(page)
        self.stats.counters["pages_rotted"] += 1

    def restore_page(self, page: int, data: np.ndarray | None) -> None:
        """Replace a rotted frame with a replica's clean copy."""
        buf = self.ensure(page)
        if self.functional and data is not None:
            buf[:] = data
        self.version[page] += 1
        self._corrupt.discard(page)
        self._crc.pop(page, None)
        self.stats.counters["pages_restored"] += 1

    def version_of(self, page: int) -> int:
        return self.version.get(page, 0)

    @property
    def resident_pages(self) -> int:
        return len(self.version)

    @property
    def resident_bytes(self) -> int:
        return len(self.version) * self.layout.page_bytes
