"""End-to-end checks of the software-cache data plane's prefetch policies.

Stride prefetching must be a pure *timing* optimization: the computed data
is identical to the default adjacent-line policy, only the speculative
cargo of the round trips changes. The smoke Jacobi cell (the one
``golden_run.json`` pins) checks data identity and event cost; a
sequential line scan, where the fetch path does speculate, checks the
prefetch accounting.
"""

import hashlib

import pytest

from repro.core import SamhitaSystem
from repro.core.params import PrefetchPolicy, SamhitaConfig
from repro.experiments.harness import run_workload_direct
from repro.kernels.jacobi import JacobiParams, spawn_jacobi

PARAMS = JacobiParams(rows=64, cols=256, iterations=3, collect_result=True)
N_THREADS = 4
STRIDE = PrefetchPolicy(mode="stride")


def _run(config):
    return run_workload_direct("samhita", N_THREADS, spawn_jacobi, PARAMS,
                               functional=True, config=config)


def _grid_digest(result):
    gdiff, grid = result.threads[0].value
    return gdiff, hashlib.sha256(grid.tobytes()).hexdigest()


def _scan(config) -> dict:
    """One thread reading 16 whole cache lines in order; stats report."""
    system = SamhitaSystem.cluster(n_threads=1, config=config)
    tid = system.add_thread()
    line = config.layout.line_bytes

    def body():
        addr = yield from system.malloc(tid, 256 << 10)
        for off in range(0, 16 * line, line):
            yield from system.mem_read(tid, addr + off, line)

    system.engine.process(body())
    system.engine.run()
    return system.stats_report()


@pytest.fixture(scope="module")
def default():
    return _run(SamhitaConfig(functional=True))


@pytest.fixture(scope="module")
def adaptive():
    return _run(SamhitaConfig(functional=True, prefetch=STRIDE))


class TestFunctionalIdentity:
    def test_adaptive_computes_identical_data(self, default, adaptive):
        assert _grid_digest(adaptive) == _grid_digest(default)


class TestFetchReduction:
    def test_adaptive_uses_batched_path(self, adaptive):
        cs = adaptive.stats["compute_servers"]
        assert cs.get("batched_line_fetches", 0) > 0

    def test_adaptive_schedules_no_more_events(self, default, adaptive):
        assert (adaptive.stats["engine"]["scheduled_events"]
                <= default.stats["engine"]["scheduled_events"])


class TestPrefetchReporting:
    def test_prefetch_namespace_is_merged(self):
        # Cache-side installs/hits and compute-server-side predictor
        # counters land in one namespace.
        ns = _scan(SamhitaConfig(prefetch=STRIDE))["prefetch"]
        assert ns.get("prefetch_installs", 0) > 0
        assert ns.get("prefetch_stride_predictions", 0) > 0

    def test_accuracy_meets_gate_when_speculating(self):
        ns = _scan(SamhitaConfig(prefetch=STRIDE))["prefetch"]
        installs = ns["prefetch_installs"]
        assert installs > 0
        assert ns["prefetch_accuracy"] >= 0.6
        assert ns["prefetch_accuracy"] == ns["prefetch_hits"] / installs

    def test_default_accuracy_reported_from_adjacent_prefetch(self):
        ns = _scan(SamhitaConfig())["prefetch"]
        assert ns.get("prefetch_installs", 0) > 0
        assert 0.0 <= ns["prefetch_accuracy"] <= 1.0


class TestConfigSurface:
    def test_prefetch_none_disables_speculation(self):
        cfg = SamhitaConfig(functional=True,
                            prefetch=PrefetchPolicy(mode="none"))
        result = run_workload_direct("samhita", N_THREADS, spawn_jacobi,
                                     PARAMS, functional=True, config=cfg)
        assert result.stats["caches"].get("prefetch_installs", 0) == 0
        assert _grid_digest(result)[0] == pytest.approx(7.8125)
        # The scan speculates under the other policies (see above).
        scan = _scan(SamhitaConfig(prefetch=PrefetchPolicy(mode="none")))
        assert scan["prefetch"].get("prefetch_installs", 0) == 0
