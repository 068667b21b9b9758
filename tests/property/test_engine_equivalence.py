"""Property tests: the epoch-sliced, coalescing engine runs exactly what a
plain ``(time, seq)`` heap would run, when it would run it.

Random programs of Timeout / AdvanceTo / SimEvent / Process operations run
through :class:`~repro.sim.engine.Engine` and through a test-local
:class:`ReferenceEngine` that queues every resumption on one heap -- no
epoch buckets, no inline clock advance. The observable trajectory -- every
``(pid, op, now)`` observation, every delivered value, the deadlock
diagnosis, the final clock and the live set -- must match exactly. Epoch
bucketing and coalescing may only change the queue traffic.
"""

import heapq
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import DeadlockError, SimulationError
from repro.sim.engine import AdvanceTo, Engine, Process, Timeout
from repro.sim.events import SimEvent


class ReferenceEngine(Engine):
    """The specification scheduler: one ``(time, seq, fn, args)`` heap.

    Every resumption -- timeouts, absolute advances, already-triggered
    events -- goes through the heap, and the clock only moves when ``run()``
    pops an entry.
    """

    def __init__(self):
        super().__init__()
        self._heap = []
        # The inherited try_advance / try_advance_to then always decline.
        self._next_time = -math.inf

    def schedule(self, delay, fn, *args):
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        self._seq += 1
        heapq.heappush(self._heap, (self.now + delay, self._seq, fn, args))

    def _step(self, proc, send_value, throw_exc):
        proc.blocked_on = None
        try:
            if throw_exc is not None:
                command = proc.gen.throw(throw_exc)
            else:
                command = proc.gen.send(send_value)
        except StopIteration as stop:
            self._finish(proc, stop.value, None)
            return
        except BaseException as exc:  # noqa: BLE001 - deliberately catch all
            self._finish(proc, None, exc)
            return
        if isinstance(command, (Timeout, AdvanceTo)):
            target = (self.now + command.delay if isinstance(command, Timeout)
                      else command.target)
            self._seq += 1
            heapq.heappush(self._heap, (target, self._seq, self._step,
                                        (proc, command.value, None)))
            return
        event = command.done_event if isinstance(command, Process) else command
        if not isinstance(event, SimEvent):
            exc = SimulationError(f"process {proc.name} yielded {command!r}")
            self.schedule(0.0, self._step, proc, None, exc)
            return
        proc.blocked_on = event
        event._add_waiter(proc)  # a triggered event schedules a 0-delay resume

    def run(self, until=math.inf):
        heap = self._heap
        while True:
            while heap:
                if heap[0][0] > until:
                    self.now = until
                    self._raise_failures()
                    return self.now
                self.now, _, fn, args = heapq.heappop(heap)
                fn(*args)
                self._raise_failures()
            blocked = [p for p in self._procs if p._alive and not p.daemon]
            if not blocked:
                return self.now
            if not any(hook(blocked) for hook in self.deadlock_hooks):
                raise DeadlockError(blocked, now=self.now,
                                    reasons=self._wait_reasons(blocked))


#: Delays drawn from a small grid so distinct processes collide on the same
#: instant often -- equal-time collisions are exactly what exercises epoch
#: bucketing and the seq tie-break of the coalescing peeks.
DELAY_GRID = (0.0, 1e-6, 2e-6, 1e-5, 0.25, 0.5, 1.0)

N_EVENTS = 4

ops = st.one_of(
    st.tuples(st.just("timeout"), st.sampled_from(DELAY_GRID)),
    st.tuples(st.just("advance_to"), st.sampled_from(DELAY_GRID)),
    st.tuples(st.just("wait"), st.integers(0, N_EVENTS - 1)),
    st.tuples(st.just("trigger"), st.integers(0, N_EVENTS - 1),
              st.integers(0, 99)),
    st.tuples(st.just("timer"), st.sampled_from(DELAY_GRID),
              st.integers(0, N_EVENTS - 1)),
    st.tuples(st.just("join"), st.integers(0, 7)),
)

programs = st.lists(st.lists(ops, max_size=6), min_size=1, max_size=5)


def run_program(engine_cls, program, until=math.inf):
    """Drive one random program; return its full observable trajectory."""
    eng = engine_cls()
    events = [eng.event(name=f"ev{i}") for i in range(N_EVENTS)]
    trace = []
    procs = []

    def body(pid, prog):
        for k, op in enumerate(prog):
            kind = op[0]
            if kind == "timeout":
                yield Timeout(op[1])
            elif kind == "advance_to":
                yield AdvanceTo(eng.now + op[1])
            elif kind == "wait":
                got = yield events[op[1]]
                trace.append(("got", pid, k, got))
            elif kind == "trigger":
                ev = events[op[1]]
                if not ev.triggered:
                    ev.succeed(op[2])
            elif kind == "timer":
                delay, i = op[1], op[2]
                ev = events[i]

                def fire(ev=ev, val=i):
                    if not ev.triggered:
                        ev.succeed(val)

                eng.schedule(delay, fire)
            elif kind == "join":
                if pid:  # only earlier processes: no forward cycles
                    yield procs[op[1] % pid]
            trace.append((pid, k, eng.now))

    for pid, prog in enumerate(program):
        procs.append(eng.process(body(pid, prog), name=f"p{pid}"))
    outcome = "drained"
    try:
        eng.run(until=until)
    except DeadlockError as exc:
        outcome = ("deadlock", eng.now, sorted(p.name for p in exc.blocked))
    return {
        "trace": trace,
        "outcome": outcome,
        "now": eng.now,
        "live": sorted(p.name for p in eng.live_processes),
    }


@given(programs)
@settings(max_examples=150, deadline=None)
def test_engine_matches_reference_scheduler(program):
    assert run_program(Engine, program) == run_program(ReferenceEngine,
                                                       program)


@given(programs, st.sampled_from([0.0, 1e-6, 0.3, 0.75, 2.0]))
@settings(max_examples=100, deadline=None)
def test_equivalence_holds_under_a_run_horizon(program, until):
    assert (run_program(Engine, program, until=until)
            == run_program(ReferenceEngine, program, until=until))


# ----------------------------------------------------------------------
# deterministic epoch-queue corner cases
# ----------------------------------------------------------------------

def test_mid_slice_same_time_appends_dispatch_in_order():
    eng = Engine()
    order = []
    eng.schedule(1.0, lambda: (order.append("a"),
                               eng.schedule(0.0, lambda: order.append("c"))))
    eng.schedule(1.0, lambda: order.append("b"))
    eng.run()
    assert order == ["a", "b", "c"]
    assert eng.now == 1.0
    assert eng.epochs_run == 1  # one epoch absorbed the live append
    assert not eng._buckets and not eng._times


def test_epoch_engine_retains_undispatched_tail_on_error():
    eng = Engine()
    ran = []

    def boom():
        raise SimulationError("mid-slice failure")

    eng.schedule(1.0, ran.append, 1)
    eng.schedule(1.0, boom)
    eng.schedule(1.0, ran.append, 3)
    with pytest.raises(SimulationError):
        eng.run()
    assert ran == [1]
    assert eng._times == [1.0] and len(eng._buckets[1.0]) == 1  # tail queued
    eng.run()
    assert ran == [1, 3]


def test_clear_pending_empties_both_columns():
    eng = Engine()
    eng.schedule(1.0, lambda: None)
    eng.schedule(2.0, lambda: None)
    eng.clear_pending()
    assert not eng._times and not eng._buckets
    assert eng.run() == 0.0
