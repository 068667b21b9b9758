"""Chaos: gray failures (slow servers, jitter storms) under the grayfail
deployment keep data bit-identical while the resilience machinery works.

A gray failure changes *timing only*: a 10x-slow memory server or a
Pareto-tailed jitter storm must never change final bytes. On top of data
identity these cases assert the machinery actually ran -- admission
control sheds requests at the single-slot queue, and under the slow
server the sheds drain the retry budget until breakers open and trips
degrade to the per-page path (see DESIGN.md section 15). The breaker
evidence comes from an 8-thread cell: the 4-thread cell's 15 sheds never
run the token bucket dry."""

import hashlib

import pytest

from repro.core.params import SamhitaConfig
from repro.experiments.harness import run_workload_direct
from repro.faults import jitter_storm, slow_server
from repro.kernels.jacobi import JacobiParams, spawn_jacobi
from repro.kernels.md import MDParams, spawn_md

from tests.chaos.conftest import chaos_seeds

pytestmark = pytest.mark.chaos

N_THREADS = 4
JACOBI = JacobiParams(rows=64, cols=256, iterations=6, collect_result=True)
#: The slow-server cell: enough concurrent fetches (85 sheds) to drain
#: the retry budget and open breakers.
SLOW_THREADS = 8
SLOW_JACOBI = JacobiParams(rows=128, cols=512, iterations=6,
                           collect_result=True)
MD = MDParams(n_particles=48, steps=3, collect_energy=False,
              collect_state=True)


def grayfail_profiles(seed: int) -> dict:
    """The two gray-failure schedules of the acceptance matrix: one
    memory server serving 10x slow for the whole run, and heavy-tailed
    latency jitter on every component."""
    return {
        "slow_server": slow_server(seed, "node1", factor=10.0,
                                   start=2e-4, duration=1.0),
        "jitter_storm": jitter_storm(seed),
    }


def _run_jacobi(config=None, n_threads=N_THREADS, params=JACOBI):
    result = run_workload_direct("samhita", n_threads, spawn_jacobi,
                                 params, functional=True, config=config)
    gdiff, grid = result.threads[0].value
    return gdiff, hashlib.sha256(grid.tobytes()).hexdigest(), result


def _run_md(config=None):
    result = run_workload_direct("samhita", N_THREADS, spawn_md, MD,
                                 functional=True, config=config)
    _energies, pos, vel = result.threads[0].value
    return hashlib.sha256(pos.tobytes() + vel.tobytes()).hexdigest(), result


@pytest.fixture(scope="module")
def jacobi_baseline():
    gdiff, digest, result = _run_jacobi(SamhitaConfig.grayfail())
    return gdiff, digest, result.elapsed


@pytest.fixture(scope="module")
def slow_baseline():
    gdiff, digest, result = _run_jacobi(SamhitaConfig.grayfail(),
                                        SLOW_THREADS, SLOW_JACOBI)
    return gdiff, digest, result.elapsed


@pytest.fixture(scope="module")
def md_baseline():
    digest, result = _run_md(SamhitaConfig.grayfail())
    return digest, result.elapsed


@pytest.mark.parametrize("seed", chaos_seeds())
@pytest.mark.parametrize("profile", ["slow_server", "jitter_storm"])
def test_jacobi_survives_gray_failures(jacobi_baseline, slow_baseline,
                                       profile, seed):
    plan = grayfail_profiles(seed)[profile]
    if profile == "slow_server":
        baseline = slow_baseline
        gdiff, digest, result = _run_jacobi(
            SamhitaConfig.grayfail(faults=plan), SLOW_THREADS, SLOW_JACOBI)
    else:
        baseline = jacobi_baseline
        gdiff, digest, result = _run_jacobi(
            SamhitaConfig.grayfail(faults=plan))
    assert gdiff == baseline[0]
    assert digest == baseline[1]
    hedges = result.stats["hedges"]
    assert hedges.get("sheds", 0) > 0
    if profile == "slow_server":
        # The acceptance counters: breakers opened once the shed budget
        # ran dry, and the storm cost at most 2x the fault-free elapsed
        # time.
        assert hedges.get("breaker_opens", 0) > 0
        assert result.elapsed <= 2.0 * baseline[2]
    else:
        assert result.stats["faults"].get("jitter_stalls", 0) > 0


@pytest.mark.parametrize("seed", chaos_seeds())
@pytest.mark.parametrize("profile", ["slow_server", "jitter_storm"])
def test_md_survives_gray_failures(md_baseline, profile, seed):
    plan = grayfail_profiles(seed)[profile]
    digest, result = _run_md(SamhitaConfig.grayfail(faults=plan))
    assert digest == md_baseline[0]
    hedges = result.stats["hedges"]
    assert hedges.get("sheds", 0) > 0
    if profile == "jitter_storm":
        assert result.stats["faults"].get("jitter_stalls", 0) > 0


@pytest.mark.parametrize("seed", chaos_seeds())
def test_gray_failures_replay_bit_identically(seed):
    """Same plan, same seed: the whole gray trajectory replays exactly,
    sheds and breaker transitions included."""
    plan = grayfail_profiles(seed)["slow_server"]
    first = _run_jacobi(SamhitaConfig.grayfail(faults=plan))
    second = _run_jacobi(SamhitaConfig.grayfail(faults=plan))
    assert first[:2] == second[:2]
    assert first[2].elapsed == second[2].elapsed
    assert first[2].stats["hedges"] == second[2].stats["hedges"]

