"""Recovery-side state machines: idempotent RPC delivery and the watchdog.

The reliable-transfer layer (see :mod:`repro.faults.injector` and
``Fabric``) guarantees at-least-once delivery; these classes supply the
exactly-once semantics on top of it:

* :class:`RpcDedup` -- per-endpoint sequence numbering. Every RPC-bearing
  message carries a per-peer sequence number; a retransmit of an
  already-delivered number (the reply was lost, not the request) is dropped
  instead of re-executing the handler, which is what makes alloc/lock/
  barrier/cond and fetch/recall/diff-apply handlers idempotent under
  retransmission.
* :class:`DeadlockWatchdog` -- an :attr:`Engine.deadlock_hooks` entry that
  runs when the event heap drains with processes still blocked. It asks its
  registered recoverers (lost-message re-arm, lock-lease expiry) whether
  any blocked process is waiting on something that can still happen; only
  when every recoverer declines does the enriched :class:`DeadlockError`
  propagate.
"""

from __future__ import annotations

from repro.sim.stats import StatSet


class RpcDedup:
    """Sequence-numbered idempotent delivery state for one RPC endpoint."""

    def __init__(self, component: str, categories):
        self.component = component
        self.categories = frozenset(categories)
        self.stats = StatSet(f"rpc_dedup[{component}]")
        #: Next sequence number to assign, per requesting peer.
        self._next_seq: dict[str, int] = {}
        #: Highest sequence number already delivered, per peer. Transfers
        #: complete in simulated-time order per (peer, endpoint) pair, so a
        #: single high-water mark is exact -- no window bitmap needed.
        self._high_water: dict[str, int] = {}

    def next_seq(self, peer: str) -> int:
        seq = self._next_seq.get(peer, 0)
        self._next_seq[peer] = seq + 1
        return seq

    def admit(self, peer: str, seq: int) -> bool:
        """First delivery of ``seq`` from ``peer``? Duplicates are dropped
        (counted) so the handler body never re-executes."""
        if seq <= self._high_water.get(peer, -1):
            self.stats.incr("dup_rpcs_dropped")
            return False
        self._high_water[peer] = seq
        self.stats.incr("rpcs_delivered")
        return True

    @property
    def dup_rpcs_dropped(self) -> int:
        return self.stats.counters["dup_rpcs_dropped"]


class DeadlockWatchdog:
    """Distinguishes recoverable stalls from true deadlock at heap drain.

    ``recoverers`` are callables ``fn(blocked) -> bool``; returning True
    means "I scheduled work that will unblock someone -- keep running".
    Typical recoverers: the manager's dead-holder lease expiry, and the
    injector's re-arm of any fault-held operation whose retransmit timer
    was lost. The watchdog itself is the composition point registered on
    :attr:`Engine.deadlock_hooks`.
    """

    def __init__(self):
        self.recoverers: list = []
        self.stats = StatSet("watchdog")

    def add(self, recoverer) -> None:
        self.recoverers.append(recoverer)

    def __call__(self, blocked) -> bool:
        self.stats.incr("invocations")
        for recoverer in self.recoverers:
            if recoverer(blocked):
                self.stats.incr("recoveries")
                return True
        return False


class RttEstimator:
    """Per-destination round-trip-time statistics for the gray-failure layer.

    Jacobson/Karels EWMAs per destination component (``srtt`` with gain
    1/8, ``rttvar`` with gain 1/4) feeding :meth:`rto` -- the adaptive
    retransmission timeout ``srtt + 4*rttvar`` that replaces the one-size
    ``RetryPolicy.timeout`` when ``adaptive_timeouts`` is on.

    Pure arithmetic over observed simulated durations: deterministic, no
    RNG, no wall clock.
    """

    def __init__(self):
        self._srtt: dict[str, float] = {}
        self._rttvar: dict[str, float] = {}

    def observe(self, dst: str, sample: float) -> None:
        srtt = self._srtt.get(dst)
        if srtt is None:
            self._srtt[dst] = sample
            self._rttvar[dst] = sample / 2.0
        else:
            err = sample - srtt
            self._srtt[dst] = srtt + err / 8.0
            aerr = err if err >= 0.0 else -err
            self._rttvar[dst] += (aerr - self._rttvar[dst]) / 4.0

    def rto(self, dst: str, floor: float) -> float:
        """Adaptive retransmission timeout for ``dst``, never below
        ``floor`` (the policy's static timeout or the bulk-trip law)."""
        srtt = self._srtt.get(dst)
        if srtt is None:
            return floor
        rto = srtt + 4.0 * self._rttvar[dst]
        return rto if rto > floor else floor


class RetryBudget:
    """Token bucket of retry/backoff credit for one destination.

    Every shed NACK or exhausted transfer spends one token; every
    successful round trip refills ``refill`` tokens (capped at
    ``capacity``). An empty bucket is the signal that a destination is not
    transiently unlucky but persistently struggling -- the breaker opens
    instead of letting retries storm it.
    """

    def __init__(self, capacity: int, refill: float):
        self.capacity = float(capacity)
        self.refill = refill
        self.tokens = float(capacity)

    def spend(self) -> bool:
        """Take one token; False when the bucket is dry."""
        if self.tokens >= 1.0:
            self.tokens -= 1.0
            return True
        return False

    def credit(self) -> None:
        tokens = self.tokens + self.refill
        self.tokens = tokens if tokens < self.capacity else self.capacity


class CircuitBreaker:
    """closed -> open -> half-open state machine guarding one destination.

    Failures (sheds, retry exhaustion) spend the retry budget; when it runs
    dry the breaker opens for ``cooldown`` simulated seconds, during which
    :meth:`allow` is False and callers route around the destination
    (replica fetch or the synchronous unbatched path). After the cooldown
    one probe is allowed through (half-open): success closes the breaker
    and refills nothing extra -- normal success credit applies -- while
    another failure re-opens it for a fresh cooldown.
    """

    def __init__(self, component: str, capacity: int, refill: float,
                 cooldown: float):
        self.component = component
        self.budget = RetryBudget(capacity, refill)
        self.cooldown = cooldown
        self.state = "closed"
        self.opened_at = 0.0
        self.opens = 0

    def allow(self, now: float) -> bool:
        """May a request be sent to this destination right now?"""
        if self.state == "open":
            if now - self.opened_at >= self.cooldown:
                self.state = "half_open"
                return True
            return False
        return True

    def success(self) -> None:
        self.budget.credit()
        if self.state == "half_open":
            self.state = "closed"

    def failure(self, now: float) -> bool:
        """Record one failure; returns True while budget remains (caller
        may back off and retry), False once the breaker opened."""
        if self.state == "half_open" or not self.budget.spend():
            self._open(now)
            return False
        return True

    def _open(self, now: float) -> None:
        if self.state != "open":
            self.opens += 1
        self.state = "open"
        self.opened_at = now


def wait_reasons(blocked) -> dict:
    """``{process name: wait reason}`` for DeadlockError diagnosability."""
    reasons = {}
    for proc in blocked:
        event = getattr(proc, "blocked_on", None)
        if event is None:
            reason = "<not waiting on any event>"
        else:
            reason = getattr(event, "name", "") or repr(event)
        reasons[proc.name] = reason
    return reasons
