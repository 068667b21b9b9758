"""The ``tools/bench_report.py --check`` gate table, exercised on the
committed ``BENCH_perf.json``: it passes as recorded, and pushing any one
recorded value just past its bound fails exactly that gate."""

import importlib.util
import json
import pathlib

import pytest

REPO = pathlib.Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location(
    "bench_report", REPO / "tools" / "bench_report.py")
br = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(br)


@pytest.fixture
def report():
    rep = json.loads((REPO / "BENCH_perf.json").read_text())
    # The two host-dependent rows: pin their recorded values inside the
    # bounds so the test checks the gate logic, not the box that wrote the
    # file.
    rep["phases"]["after_serial"]["wall_s"] = br.MAX_SMOKE_WALL_S / 2
    rep["events_rate"]["events_per_sec"] = br.MIN_EVENTS_RATE * 2
    return rep


def failing(report):
    return [row for row, ok, _ in br.run_gates(report) if not ok]


#: (gate row expected to fail, path to one recorded value, a value just
#: past its bound -- or a function of the report computing one).
PUSHES = [
    ("smoke_wall", ("phases", "after_serial", "wall_s"),
     br.MAX_SMOKE_WALL_S + 0.001),
    ("events", ("events", "scheduled"),
     lambda r: int(r["events"]["scheduled_at_seed"]
                   / br.MIN_EVENT_REDUCTION) + 1),
    ("events_rate", ("events_rate", "events_per_sec"),
     br.MIN_EVENTS_RATE - 1),
    ("page_objects", ("page_objects", "counts", "ByteRanges"),
     lambda r: br.MAX_PAGE_OBJECTS + 1
     - sum(r["page_objects"]["counts"].values())
     + r["page_objects"]["counts"]["ByteRanges"]),
    ("batched_rt", ("batched_rt", "requests", "total"),
     br.MAX_RT_REQUESTS + 1),
    ("prefetch", ("prefetch", "stride", "fetch_requests"),
     br.MAX_PREFETCH_FETCH_REQUESTS + 1),
    ("prefetch", ("prefetch", "stride", "events_scheduled"),
     br.MAX_PREFETCH_EVENTS + 1),
    ("prefetch", ("prefetch", "prefetch_accuracy"),
     br.MIN_PREFETCH_ACCURACY - 0.01),
    ("faults_off", ("faults_off", "injector_silent", "elapsed"), -1.0),
    ("replication_off", ("replication_off", "rf_one", "elapsed"), -1.0),
    ("partition_safety", ("partition_safety", "fencing_idle", "elapsed"),
     -1.0),
    ("partition_safety", ("partition_safety", "partition", "data_identical"),
     False),
    ("partition_safety",
     ("partition_safety", "partition", "membership", "promotions"), 0),
    ("partition_safety",
     ("partition_safety", "partition", "membership", "stale_writes_fenced"),
     0),
    ("partition_safety",
     ("partition_safety", "checkpoint", "roundtrip_identical"), False),
    ("partition_safety",
     ("partition_safety", "checkpoint", "checkpoints_taken"), 0),
    ("shard_scaling", ("shard_scaling", "shards_one", "elapsed"), -1.0),
    ("shard_scaling", ("shard_scaling", "per_shard_mean_deviation"),
     br.MAX_SHARD_LOAD_DEVIATION + 0.01),
    ("shard_scaling", ("shard_scaling", "sweep", -1, "barrier_rpc_reduction"),
     br.MIN_BARRIER_REDUCTION - 0.01),
    ("grayfail_off", ("grayfail", "off_identical_to_pr9"), False),
    ("grayfail", ("grayfail", "data_identical"), False),
    ("grayfail", ("grayfail", "storm_slowdown"), br.MAX_STORM_SLOWDOWN + 0.01),
    ("grayfail", ("grayfail", "counters", "breaker_opens"), 0),
    ("grayfail", ("grayfail", "counters", "sheds"), 0),
]


def test_check_passes_on_the_committed_report(report, tmp_path, capsys):
    assert failing(report) == []
    path = tmp_path / "BENCH_perf.json"
    path.write_text(json.dumps(report))
    assert br.main([str(path), "--check"]) == 0
    out = capsys.readouterr().out
    assert out.count("[PASS]") == len(br.GATES)


def test_every_gate_row_is_pushed_past_its_bound():
    assert {row for row, _, _ in PUSHES} == {row for row, _, _ in br.GATES}


@pytest.mark.parametrize(
    "row,path,value", PUSHES,
    ids=[".".join(map(str, path)) for _, path, _ in PUSHES])
def test_pushing_one_value_past_its_bound_fails_only_that_gate(report, row,
                                                               path, value):
    *parents, leaf = path
    block = report
    for key in parents:
        block = block[key]
    assert leaf in block  # push a recorded value, never invent one
    block[leaf] = value(report) if callable(value) else value
    assert failing(report) == [row]


def test_a_missing_block_fails_its_gate(report, tmp_path):
    del report["prefetch"]
    assert failing(report) == ["prefetch"]
    path = tmp_path / "BENCH_perf.json"
    path.write_text(json.dumps(report))
    assert br.main([str(path), "--check"]) == 1
