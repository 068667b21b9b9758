"""Deterministic work counts and off-config identities.

Every bound here is a count of simulated work -- scheduled events, engine
epochs, page installs, modeled round trips, per-page object constructions
-- or an exact trajectory fingerprint, so each test gives the same verdict
on any host. Each ceiling is the value the current code records: a change
that does more work trips it, and one that does less should lower it.

Host speed is not gated here. A speedup is claimed with interleaved
parent/change pairs of ``perfbench/run.py`` (see the README). The
failure cells -- the fenced partition cut, checkpoint restore and the
gray-failure storm -- are asserted by the chaos suite in ``tests/chaos/``.
"""

import hashlib

import pytest

from repro.core.params import PrefetchPolicy, SamhitaConfig
from repro.core.system import SamhitaSystem
from repro.experiments import figures
from repro.experiments.__main__ import _QUICK_KWARGS
from repro.experiments.harness import run_workload_direct
from repro.experiments.parallel import Executor, ResultCache, activate, cell_key
from repro.faults import FaultPlan
from repro.kernels.jacobi import JacobiParams, spawn_jacobi
from repro.memory.backing import PageFrame
from repro.memory.cache import CacheEntry
from repro.memory.diff import ByteRanges
from repro.sim.engine import Timeout

#: The smoke campaign: one microbenchmark figure and one application
#: figure, both at ``--quick`` scale.
SMOKE_FIGURES = ("fig03", "fig12")

#: Per-page classes whose constructions are counted. The cache, backing
#: store and directory keep per-page state in columns; these classes
#: survive only as inspection snapshots and as the dirty-set spill.
PAGE_OBJECT_CLASSES = (CacheEntry, ByteRanges, PageFrame)

#: Modeled round-trip *request* messages: one fabric message per trip
#: (the replies, ``page`` and ``recall_diff``, are the same trips).
RT_REQUEST_CATEGORIES = ("fetch_req", "recall", "diff", "barrier_diff",
                         "fine_grain", "cr_page")

#: Trajectory fingerprint of the canonical functional Jacobi cell at commit
#: de37097, the first with batched round trips. The default build must
#: still reproduce it field for field.
BATCHED_RT_PIN = {
    "grid_sha256": ("2b3e7a116b07bdfd16475c9584b7b7e1"
                    "8394155fdfc4cc67038985f54f9e34b2"),
    "gdiff": 7.8125,
    "elapsed": 0.0008569759499999993,
    "events_scheduled": 446,
    "cache_counters": {
        "diff_bytes": 0,
        "diffs_taken": 136,
        "fine_grain_bytes": 480,
        "installs": 228,
        "invalidations": 122,
        "page_touches": 489,
        "read_bytes": 848096,
        "reads": 49,
        "twins_created": 160,
        "write_bytes": 897144,
        "writes": 37,
    },
}

CANONICAL_JACOBI = JacobiParams(rows=64, cols=256, iterations=3,
                                collect_result=True)

#: Control-plane sweep points: (compute servers, manager shards), 16
#: compute servers per shard.
SHARD_SWEEP = ((16, 1), (64, 4), (256, 16))
SHARD_SWEEP_ROUNDS = 3


class CountingExecutor(Executor):
    """Serial executor that runs each unique cell once and keeps its result."""

    def __init__(self):
        super().__init__(workers=0, cache=ResultCache())
        self.specs: dict[str, object] = {}

    def map(self, specs):
        self.specs.update((cell_key(spec), spec) for spec in specs)
        return super().map(specs)

    def total(self, block: str, key: str, where=lambda spec: True) -> int:
        """Sum ``stats[block][key]`` over the unique cells ``where`` picks."""
        return sum(self.cache.get(k).stats.get(block, {}).get(key, 0)
                   for k, spec in self.specs.items() if where(spec))


def _samhita(spec) -> bool:
    return spec.backend == "samhita"


def _jacobi(config=None, n_threads=4, params=CANONICAL_JACOBI):
    """One functional Jacobi cell -> (trajectory fingerprint, result)."""
    result = run_workload_direct("samhita", n_threads, spawn_jacobi, params,
                                 functional=True, config=config)
    gdiff, grid = result.threads[0].value
    return {
        "grid_sha256": hashlib.sha256(grid.tobytes()).hexdigest(),
        "gdiff": gdiff,
        "elapsed": result.elapsed,
        "events_scheduled": result.stats["engine"]["scheduled_events"],
        "cache_counters": dict(sorted(result.stats["caches"].items())),
    }, result


# -- the smoke campaign -------------------------------------------------------

@pytest.fixture(scope="module")
def smoke():
    """One serial smoke campaign with per-page constructors counted."""
    counts = dict.fromkeys((cls.__name__ for cls in PAGE_OBJECT_CLASSES), 0)
    executor = CountingExecutor()
    with pytest.MonkeyPatch.context() as mp:
        for cls in PAGE_OBJECT_CLASSES:

            def counted(obj, *args, _init=cls.__init__, _name=cls.__name__,
                        **kwargs):
                counts[_name] += 1
                _init(obj, *args, **kwargs)

            mp.setattr(cls, "__init__", counted)
        with activate(executor):
            for name in SMOKE_FIGURES:
                figures.FIGURES[name](**_QUICK_KWARGS[name])
    return executor, counts


def test_smoke_campaign_scheduled_events(smoke):
    executor, _ = smoke
    assert executor.total("engine", "scheduled_events") <= 9_594


def test_smoke_campaign_builds_no_per_page_objects(smoke):
    _, counts = smoke
    assert counts == {"CacheEntry": 0, "ByteRanges": 0, "PageFrame": 0}


def test_smoke_campaign_cache_work(smoke):
    executor, _ = smoke
    assert executor.total("caches", "installs") <= 156_059
    assert executor.total("caches", "page_touches") <= 798_606


def test_smoke_campaign_round_trip_requests(smoke):
    """Modeled round-trip requests over the fig12 (Jacobi) Samhita cells."""
    executor, _ = smoke
    fig12 = lambda spec: _samhita(spec) and spec.spawn_fn is spawn_jacobi
    requests = sum(executor.total("fabric", f"messages.{cat}", fig12)
                   for cat in RT_REQUEST_CATEGORIES)
    assert requests <= 499


# -- the stride-prefetch campaign ---------------------------------------------

def test_stride_prefetch_campaign():
    """The canonical functional cell plus the fig12 ``--quick`` Samhita
    cells under the stride prefetcher. The campaign speculates nothing
    (every line is fetched on demand), so any change in speculation shows
    up as a nonzero install count."""
    config = SamhitaConfig(prefetch=PrefetchPolicy(mode="stride"))
    _, canonical = _jacobi(config)
    executor = CountingExecutor()
    with activate(executor):
        figures.FIGURES["fig12"](**_QUICK_KWARGS["fig12"], config=config)

    def total(block, key):
        return (canonical.stats.get(block, {}).get(key, 0)
                + executor.total(block, key, _samhita))

    assert total("compute_servers", "fetch_requests") <= 191
    assert total("engine", "scheduled_events") <= 3_451
    assert total("prefetch", "prefetch_installs") == 0


# -- off-config identities ----------------------------------------------------

@pytest.fixture(scope="module")
def default_run():
    return _jacobi()


def test_default_build_matches_batched_rt_pin(default_run):
    assert default_run[0] == BATCHED_RT_PIN


@pytest.mark.parametrize("config,own_stats", [
    pytest.param(SamhitaConfig(faults=FaultPlan(seed=0)),
                 {"faults": {"rpcs_delivered": 117}}, id="faults_silent"),
    pytest.param(SamhitaConfig(replication_factor=1), {},
                 id="replication_one"),
    pytest.param(SamhitaConfig(fencing=True), {"membership": {"epoch": 0}},
                 id="fencing_idle"),
    pytest.param(SamhitaConfig(manager_shards=1), {}, id="shards_one"),
])
def test_off_config_matches_default(config, own_stats, default_run):
    """Machinery that is configured but idle must not move the trajectory:
    the fingerprint and every stats namespace equal the default build's,
    and the namespace the knob adds (if any) reads exactly ``own_stats``."""
    fingerprint, result = _jacobi(config)
    assert fingerprint == default_run[0]
    assert result.stats == {**default_run[1].stats, **own_stats}


# -- the control-plane sweep --------------------------------------------------

def _sync_sweep_cell(n_compute: int, shards: int, tree_barriers: bool):
    """Every thread loops lock/unlock + barrier: control-plane RPCs only."""
    config = SamhitaConfig(manager_shards=shards, lock_owner_cache=True,
                           tree_barriers=tree_barriers)
    system = SamhitaSystem.cluster(n_compute, config=config)
    tids = [system.add_thread() for _ in range(n_compute)]
    locks = [system.create_lock() for _ in range(n_compute)]
    bar = system.create_barrier(n_compute)

    def body(i, tid):
        for _ in range(SHARD_SWEEP_ROUNDS):
            yield from system.acquire_lock(tid, locks[i])
            yield Timeout(1e-6)
            yield from system.release_lock(tid, locks[i])
            yield from system.barrier_wait(tid, bar)

    for i, tid in enumerate(tids):
        system.process(body(i, tid), name=f"t{i}")
    system.run()
    return system


@pytest.fixture(scope="module")
def sweep():
    """(compute servers, shards, tree barriers?) -> the finished system."""
    return {(n, shards, tree): _sync_sweep_cell(n, shards, tree)
            for n, shards in SHARD_SWEEP for tree in (True, False)}


def _rpcs(system, kind: str) -> int:
    return sum(row[kind]
               for row in system.stats_report()["manager_rpcs_by_shard"])


def test_sweep_top_cell_engine_work(sweep):
    engine = sweep[(*SHARD_SWEEP[-1], True)].engine
    assert engine.scheduled_events <= 5_943
    assert engine.epochs_run <= 866


def test_per_shard_load_stays_flat(sweep):
    means = [_rpcs(sweep[(n, shards, True)], "requests") / shards
             for n, shards in SHARD_SWEEP]
    center = sum(means) / len(means)
    assert max(abs(m - center) for m in means) / center <= 0.25


@pytest.mark.parametrize("n_compute,shards", SHARD_SWEEP)
def test_tree_barriers_halve_barrier_rpcs(sweep, n_compute, shards):
    flat = _rpcs(sweep[(n_compute, shards, False)], "barrier")
    tree = _rpcs(sweep[(n_compute, shards, True)], "barrier")
    assert flat >= 2.0 * tree > 0
