"""Unit tests for the gray-failure primitives: the per-destination RTT
estimator, the retry-budget token bucket, the circuit-breaker state
machine, and the bulk-trip retransmit-timer floor (a clean max-size bulk
fetch must never look like a lost message)."""

import hashlib

import pytest

from repro.core.params import SamhitaConfig
from repro.core.rtbatch import trip_timeout_floor
from repro.core.system import SamhitaSystem
from repro.experiments.harness import run_workload_direct
from repro.faults import FaultPlan
from repro.faults.recovery import CircuitBreaker, RetryBudget, RttEstimator
from repro.kernels.jacobi import JacobiParams, spawn_jacobi


class TestRttEstimator:
    def test_first_sample_seeds_srtt_and_rttvar(self):
        est = RttEstimator()
        est.observe("node1", 100e-6)
        assert est.rto("node1", floor=0.0) == pytest.approx(
            100e-6 + 4 * 50e-6)

    def test_jacobson_gains(self):
        est = RttEstimator()
        est.observe("node1", 100e-6)
        est.observe("node1", 180e-6)
        # srtt' = srtt + err/8; rttvar' = rttvar + (|err| - rttvar)/4
        srtt = 100e-6 + 80e-6 / 8
        rttvar = 50e-6 + (80e-6 - 50e-6) / 4
        assert est.rto("node1", 0.0) == pytest.approx(srtt + 4 * rttvar)

    def test_rto_never_undercuts_the_floor(self):
        est = RttEstimator()
        est.observe("node1", 1e-6)
        assert est.rto("node1", floor=5e-4) == 5e-4
        assert est.rto("unknown", floor=5e-4) == 5e-4

    def test_destinations_are_independent(self):
        est = RttEstimator()
        est.observe("node1", 100e-6)
        est.observe("node2", 900e-6)
        assert est.rto("node1", 0.0) == pytest.approx(100e-6 + 4 * 50e-6)
        assert est.rto("node2", 0.0) == pytest.approx(900e-6 + 4 * 450e-6)


class TestRetryBudget:
    def test_spend_to_dry(self):
        budget = RetryBudget(capacity=2, refill=0.5)
        assert budget.spend() and budget.spend()
        assert not budget.spend()

    def test_credit_is_fractional_and_capped(self):
        budget = RetryBudget(capacity=2, refill=0.5)
        budget.spend()
        budget.credit()
        assert budget.tokens == pytest.approx(1.5)
        for _ in range(10):
            budget.credit()
        assert budget.tokens == 2.0


class TestCircuitBreaker:
    def make(self):
        return CircuitBreaker("node1", capacity=2, refill=0.5,
                              cooldown=100e-6)

    def test_opens_when_the_budget_runs_dry(self):
        breaker = self.make()
        assert breaker.failure(now=0.0)      # token 1
        assert breaker.failure(now=1e-6)     # token 2
        assert not breaker.failure(now=2e-6)  # dry: opens
        assert breaker.state == "open"
        assert breaker.opens == 1
        assert not breaker.allow(now=3e-6)

    def test_half_open_probe_after_cooldown(self):
        breaker = self.make()
        for t in (0.0, 1e-6, 2e-6):
            breaker.failure(t)
        assert breaker.allow(now=2e-6 + 100e-6)
        assert breaker.state == "half_open"
        breaker.success()
        assert breaker.state == "closed"

    def test_half_open_failure_reopens(self):
        breaker = self.make()
        for t in (0.0, 1e-6, 2e-6):
            breaker.failure(t)
        breaker.allow(now=2e-6 + 100e-6)
        assert not breaker.failure(now=2e-6 + 101e-6)
        assert breaker.state == "open"
        assert breaker.opens == 2

    def test_reopening_while_open_counts_once(self):
        breaker = self.make()
        for t in (0.0, 1e-6, 2e-6, 3e-6):
            breaker.failure(t)
        assert breaker.opens == 1


class TestTripTimeoutFloor:
    def test_floor_grows_linearly_in_pages(self):
        system = SamhitaSystem.cluster(
            n_threads=1, config=SamhitaConfig(faults=FaultPlan(seed=0)))
        f1 = trip_timeout_floor(system, "node2", "node1", 1)
        f4 = trip_timeout_floor(system, "node2", "node1", 4)
        f16 = trip_timeout_floor(system, "node2", "node1", 16)
        assert f1 > 0
        # alpha + beta*k: equal per-page increments.
        assert f16 - f4 == pytest.approx((f4 - f1) * 4)

    def test_floor_covers_the_modeled_service_time(self):
        system = SamhitaSystem.cluster(
            n_threads=1, config=SamhitaConfig(faults=FaultPlan(seed=0)))
        assert (trip_timeout_floor(system, "node2", "node1", 1)
                > system.config.memserver_service_time)


class TestNoSpuriousRetransmits:
    """The regression the floor exists for: a clean (silent-plan) run
    whose bulk fetches carry the largest groups the workload produces
    must never time out -- with the injector armed, every retransmit
    would be spurious by construction."""

    @pytest.mark.parametrize("config", [
        SamhitaConfig(faults=FaultPlan(seed=0)),
        SamhitaConfig.grayfail(faults=FaultPlan(seed=0)),
        SamhitaConfig.grayfail(faults=FaultPlan(seed=0),
                               adaptive_timeouts=False),
    ], ids=["default", "grayfail", "grayfail-static-timeouts"])
    def test_clean_bulk_fetches_never_retransmit(self, config):
        params = JacobiParams(rows=64, cols=256, iterations=3,
                              collect_result=True)
        result = run_workload_direct("samhita", 4, spawn_jacobi, params,
                                     functional=True, config=config)
        faults = result.stats.get("faults", {})
        assert faults.get("timeouts", 0) == 0
        assert faults.get("retransmits", 0) == 0
        assert faults.get("retries", 0) == 0

    def test_silent_plan_matches_injector_absent(self):
        params = JacobiParams(rows=64, cols=256, iterations=3,
                              collect_result=True)

        def digest(config):
            result = run_workload_direct("samhita", 4, spawn_jacobi,
                                         params, functional=True,
                                         config=config)
            _gdiff, grid = result.threads[0].value
            return hashlib.sha256(grid.tobytes()).hexdigest(), result.elapsed

        assert digest(None) == digest(SamhitaConfig(faults=FaultPlan(seed=0)))
