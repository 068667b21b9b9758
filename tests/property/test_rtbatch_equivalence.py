"""Batched round trips: data identity across the config matrix.

The batched protocol may change timing and event counts, but never the
bytes a thread computes. ``rtbatch_pr8_digests.json`` pins each cell's
final-data digest as the per-operation (batching off) protocol computed
it, captured at the tree that predates batching, and every workload x
config cell of the matrix below must reproduce it exactly -- across
coherence protocols, sharding, replication with fencing, and the stride
prefetcher.

Each cell runs once per session (results are memoized), so the hypothesis
sampling and the exhaustive sweep share the same 20 runs.
"""

from __future__ import annotations

import hashlib
import json
import pathlib

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.params import PrefetchPolicy, SamhitaConfig
from repro.experiments.harness import run_workload_direct
from repro.kernels.jacobi import JacobiParams, spawn_jacobi
from repro.kernels.md import MDParams, spawn_md

PINS = json.loads(
    (pathlib.Path(__file__).parent / "rtbatch_pr8_digests.json").read_text())

CONFIGS = {
    "default": lambda: SamhitaConfig(),
    "adaptive": lambda: SamhitaConfig(prefetch=PrefetchPolicy(mode="stride")),
    "sharded": lambda: SamhitaConfig(manager_shards=2, n_memory_servers=2),
    "replicated": lambda: SamhitaConfig(
        n_memory_servers=2, replication_factor=2, fencing=True),
    "ivy": lambda: SamhitaConfig(coherence="ivy"),
}

WORKLOADS = {
    ("jacobi", 0): (spawn_jacobi, JacobiParams(
        rows=32, cols=128, iterations=2, collect_result=True)),
    ("md", 11): (spawn_md, MDParams(
        n_particles=48, steps=3, seed=11, collect_state=True)),
    ("md", 23): (spawn_md, MDParams(
        n_particles=48, steps=3, seed=23, collect_state=True)),
    ("md", 47): (spawn_md, MDParams(
        n_particles=48, steps=3, seed=47, collect_state=True)),
}

CELLS = sorted(PINS)

_result_cache: dict[str, object] = {}


def _run(cell: str):
    """One matrix cell's run result (memoized)."""
    if cell not in _result_cache:
        wname, seed, cname = cell.split("-")
        spawn_fn, params = WORKLOADS[(wname, int(seed))]
        _result_cache[cell] = run_workload_direct(
            "samhita", 4, spawn_fn, params, functional=True,
            config=CONFIGS[cname]())
    return _result_cache[cell]


def _data_digest(cell: str) -> str:
    """SHA-256 of one matrix cell's final data."""
    result = _run(cell)
    h = hashlib.sha256()
    if cell.startswith("jacobi"):
        gdiff, grid = result.threads[0].value
        h.update(grid.tobytes())
        h.update(repr(gdiff).encode())
    else:
        energies, pos, vel = result.threads[0].value
        h.update(pos.tobytes())
        h.update(vel.tobytes())
        h.update(repr(energies).encode())
    return h.hexdigest()


def test_pin_matrix_shape() -> None:
    """The pin file covers exactly the declared matrix."""
    expected = {f"{w}-{s}-{c}"
                for (w, s) in WORKLOADS for c in CONFIGS}
    assert set(PINS) == expected
    for cell, pin in PINS.items():
        assert set(pin) == {"data_sha256"}, cell


@given(cell=st.sampled_from(CELLS))
@settings(max_examples=20, deadline=None)
def test_batched_on_data_identical_to_off(cell: str) -> None:
    """Identical final bytes to the pinned batching-off data digest.
    Timing and event counts may (and do) differ -- that is the point of
    batching -- so only data is compared."""
    assert _data_digest(cell) == PINS[cell]["data_sha256"], cell


def test_batched_on_full_matrix() -> None:
    """Exhaustive sweep of the same 20 cells: hypothesis sampling above
    may skip corners; coverage here is total (runs are memoized)."""
    diverged = [cell for cell in CELLS
                if _data_digest(cell) != PINS[cell]["data_sha256"]]
    assert not diverged, f"final data diverged from the pins: {diverged}"


def test_batched_on_actually_batches() -> None:
    """Sanity: on the default config trips carry more than one line on
    average (otherwise the data-identity tests above could pass
    trivially with aggregation wired to nothing)."""
    rt = _run("jacobi-0-default").stats["round_trips"]
    assert rt["lines"] > rt["trips"] > 0
