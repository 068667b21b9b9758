"""Batched access plans: whole-row/block memory traffic as one descriptor.

A kernel's inner loop is dominated by accesses that *hit* the software
cache and change no protocol state; driving each of them through its own
``ctx.read``/``ctx.write`` generator round-trip makes the discrete-event
engine the bottleneck. An :class:`AccessPlan` instead describes a run of
operations up front; the backend executes hits synchronously, accumulates
their simulated cost, and advances the clock in bulk, falling back to the
ordinary per-page protocol path only for misses (see
``SamhitaBackend.run_plan``). Backends without a batched executor run the
plan through the per-op compat path in ``ThreadCtx.submit`` -- a plan is a
description of accesses, never a change in their meaning.

Write data may be a callable ``fn(results) -> ndarray`` over the plan's
earlier read results, so read-modify-write rows need only one plan.
"""

from __future__ import annotations

import numpy as np

#: Operation kinds (plain ints: compared in the executor's hot loop).
READ, WRITE, COMPUTE = 0, 1, 2


class PlanOp:
    """One operation of a plan. ``data`` is a uint8 array, ``None`` (timing
    mode) or a callable mapping the read-results list to a uint8 array."""

    __slots__ = ("kind", "addr", "nbytes", "data", "elements", "flops")

    def __init__(self, kind: int, addr: int = 0, nbytes: int = 0, data=None,
                 elements: int = 0, flops: float = 2.0):
        self.kind = kind
        self.addr = addr
        self.nbytes = nbytes
        self.data = data
        self.elements = elements
        self.flops = flops

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        name = ("READ", "WRITE", "COMPUTE")[self.kind]
        if self.kind == COMPUTE:
            return f"<PlanOp {name} {self.elements}x{self.flops}>"
        return f"<PlanOp {name} {self.addr:#x}+{self.nbytes}>"


class AccessPlan:
    """An ordered batch of reads, writes and compute intervals.

    Submitted through ``ThreadCtx.submit``; equivalent to issuing each
    operation individually, in order (the compat path does exactly that).
    """

    __slots__ = ("ops", "n_reads")

    def __init__(self):
        self.ops: list[PlanOp] = []
        self.n_reads = 0

    def read(self, addr: int, nbytes: int) -> int:
        """Append a read; returns its index into the results list."""
        self.ops.append(PlanOp(READ, addr, nbytes))
        index = self.n_reads
        self.n_reads += 1
        return index

    def write(self, addr: int, nbytes: int,
              data: np.ndarray | None = None) -> "AccessPlan":
        """Append a write (``data``: uint8 bytes, callable, or None)."""
        self.ops.append(PlanOp(WRITE, addr, nbytes, data=data))
        return self

    def compute(self, elements: int,
                flops_per_element: float = 2.0) -> "AccessPlan":
        """Append a compute interval (same costing as ``ctx.compute``)."""
        self.ops.append(PlanOp(COMPUTE, elements=elements,
                               flops=flops_per_element))
        return self

    def __len__(self) -> int:
        return len(self.ops)
