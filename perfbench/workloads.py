"""The benchmark's workloads: fixed cell lists, built from a seed.

Each workload is a list of cells. A cell is one ``(backend, threads,
kernel, params, config)`` run through ``repro.experiments.harness``. The
seed feeds only what the program treats as input: ``MDParams.seed`` and the
fault-plan seeds. The ``jacobi_pages`` and ``sync_microbench`` cells are the
paper's fixed parameters, so the seed does not change them.

Every cell carries its own correctness check (see :func:`build`):

* default-config cells must reproduce the simulated digest recorded in
  ``reference.json`` (a simulator-only speed-up moves no simulated number);
* ``grayfail`` cells must end with a grid bit-identical to the sequential
  NumPy reference (gray failures change timing, never bytes).
"""

from __future__ import annotations

import hashlib
import json
import pathlib
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.core.params import SamhitaConfig
from repro.experiments import figures
from repro.faults import jitter_storm, slow_server
from repro.kernels import (
    Allocation,
    JacobiParams,
    MDParams,
    MicrobenchParams,
    jacobi_reference,
    spawn_jacobi,
    spawn_md,
    spawn_microbench,
)
from repro.runtime.results import RunResult

REFERENCE_PATH = pathlib.Path(__file__).with_name("reference.json")

#: Workloads whose cells run the default config and are digest-pinned.
PINNED = ("jacobi_pages", "sync_microbench", "md_readshare")
WORKLOADS = PINNED + ("grayfail",)

#: Functional Jacobi grid for the gray-failure cells: large enough that
#: neighbour reads produce owner-free bulk trips that hedge, small enough
#: that one functional cell stays under half a second.
GRAYFAIL_JACOBI = JacobiParams(rows=512, cols=1024, iterations=6,
                               collect_result=True)
GRAYFAIL_THREADS = 16
JITTER_SEEDS = 4


@dataclass(frozen=True)
class Cell:
    name: str
    backend: str
    threads: int
    spawn: Callable
    params: object
    functional: bool = False
    config: SamhitaConfig | None = None


@dataclass(frozen=True)
class Workload:
    name: str
    cells: tuple[Cell, ...]
    #: ``check(cell, result, digest) -> bool``: is the cell's output
    #: correct? ``digest`` is ``sim_digest(result)``.
    check: Callable[[Cell, RunResult, str], bool]


def sim_digest(result: RunResult) -> str:
    """SHA-256 over everything a run simulated: the makespan, every
    thread's compute/sync split and the full stats tree. Floats go through
    ``repr`` (via JSON), so the digest pins them exactly."""
    payload = {
        "elapsed": result.elapsed,
        "threads": {str(tid): [t.clock.compute, t.clock.sync]
                    for tid, t in sorted(result.threads.items())},
        "stats": result.stats,
    }
    blob = json.dumps(payload, sort_keys=True, default=repr)
    return hashlib.sha256(blob.encode()).hexdigest()


def default_cells(name: str, seed: int) -> tuple[Cell, ...]:
    """The default-config cells of a digest-pinned workload."""
    if name == "jacobi_pages":
        params = figures.JACOBI_SCALING
        return tuple(
            [Cell(f"pthreads-{n}", "pthreads", n, spawn_jacobi, params)
             for n in (1, 4)]
            + [Cell(f"samhita-{n}", "samhita", n, spawn_jacobi, params)
               for n in (1, 4, 16, 32)])
    if name == "sync_microbench":
        return tuple(
            Cell(f"samhita-{n}-{alloc.value}", "samhita", n, spawn_microbench,
                 MicrobenchParams(N=figures.N_OUTER, M=1,
                                  S=figures.S_DEFAULT, B=figures.B_ROW,
                                  allocation=alloc))
            for alloc in Allocation for n in (16, 32, 64))
    if name == "md_readshare":
        params = MDParams(n_particles=8192, steps=5, collect_energy=False,
                          seed=seed)
        return tuple(Cell(f"samhita-{n}", "samhita", n, spawn_md, params)
                     for n in (8, 16, 32, 64))
    raise ValueError(f"no default-config cells for workload {name!r}")


def grayfail_cells(seed: int) -> tuple[Cell, ...]:
    """Clean, one 10x-slow memory server, and jitter storms at
    :data:`JITTER_SEEDS` seeds derived from ``seed``. Jitter is Pareto
    tailed, so one draw moves the pass makespan by ~9% from seed to seed;
    four draws bring that to ~5%."""
    plans = {
        "clean": None,
        "slow_server": slow_server(seed, "node1", factor=10.0, start=2e-4,
                                   duration=1.0),
    }
    for k in range(JITTER_SEEDS):
        plans[f"jitter_storm-{k}"] = jitter_storm(JITTER_SEEDS * seed + k)
    return tuple(
        Cell(name, "samhita", GRAYFAIL_THREADS, spawn_jacobi,
             GRAYFAIL_JACOBI, functional=True,
             config=SamhitaConfig.grayfail(faults=plan))
        for name, plan in plans.items())


def load_reference() -> dict:
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)


def build(name: str, seed: int) -> Workload:
    """Generate one workload's inputs and correctness checks from ``seed``."""
    if name == "grayfail":
        _, expected_grid = jacobi_reference(GRAYFAIL_JACOBI)

        def grid_matches(cell: Cell, result: RunResult, digest: str) -> bool:
            _gdiff, grid = result.threads[0].value
            return np.array_equal(grid, expected_grid)

        return Workload(name, grayfail_cells(seed), grid_matches)

    pinned = load_reference()[name]

    def digest_matches(cell: Cell, result: RunResult, digest: str) -> bool:
        return digest == pinned[cell.name]["digest"]

    return Workload(name, default_cells(name, seed), digest_matches)
