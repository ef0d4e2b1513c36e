"""Tests of the benchmark itself: spans, percentiles, seeds, wrappers."""

import json
import os
import shutil
import subprocess
import sys
import threading

import pytest

import layers
import run
import tracer as tracer_mod
import workloads
from tracer import Patcher, Tracer, surviving_wrappers, traced


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


@pytest.fixture
def clock(monkeypatch):
    fake = FakeClock()
    monkeypatch.setattr(tracer_mod, "perf_counter", fake)
    return fake


def test_self_time_on_nested_spans(clock):
    tracer = Tracer()

    def leaf():
        clock.now += 2.0

    wrapped_leaf = traced(tracer, "leaf", leaf)

    def middle():
        clock.now += 1.0
        wrapped_leaf()
        wrapped_leaf()
        clock.now += 3.0

    wrapped_middle = traced(tracer, "middle", middle)

    tracer.begin_root("call")
    clock.now += 0.5
    wrapped_middle()
    assert tracer.end_root() == pytest.approx(8.5)

    totals = tracer.totals
    assert totals["leaf"].count == 2
    assert totals["leaf"].total_s == pytest.approx(4.0)
    assert totals["leaf"].self_s == pytest.approx(4.0)
    assert totals["middle"].total_s == pytest.approx(8.0)
    assert totals["middle"].self_s == pytest.approx(4.0)
    assert totals["call"].self_s == pytest.approx(0.5)
    assert totals["call"].total_s == pytest.approx(8.5)


def test_wrappers_pass_through_outside_a_root():
    tracer = Tracer()
    calls = []
    wrapped = traced(tracer, "x", lambda value: calls.append(value) or value)
    assert wrapped(3) == 3
    assert calls == [3]
    assert tracer.totals == {}


def test_span_closes_when_the_wrapped_call_raises(clock):
    tracer = Tracer()

    def boom():
        clock.now += 1.0
        raise KeyError("x")

    wrapped = traced(tracer, "boom", boom)
    tracer.begin_root("call")
    with pytest.raises(KeyError):
        wrapped()
    tracer.end_root()
    assert tracer.totals["boom"].count == 1
    assert not tracer.active


def test_p90_is_refused_below_100_calls():
    with pytest.raises(ValueError):
        run.percentile(list(range(99)), 0.9)
    samples = list(range(100, 0, -1))
    # Nearest rank: the 90th of 100 sorted samples, 10 lie beyond it.
    assert run.percentile(samples, 0.9) == 90
    assert run.percentile(samples, 0.5) == 50


def test_cpu_rotation_visits_every_cpu_then_restores(monkeypatch):
    masks = []
    moved = threading.Event()

    def set_affinity(thread_id, cpus):
        masks.append(set(cpus))
        if len(masks) >= 4:
            moved.set()

    monkeypatch.setattr(run.os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(run.os, "sched_setaffinity", set_affinity)
    monkeypatch.setattr(run, "ROTATE_S", 0.001)
    with run.CpuRotation(True):
        assert moved.wait(10)
    assert masks[:4] == [{0}, {1}, {0}, {1}]
    assert masks[-1] == {0, 1}  # the main thread may run anywhere again
    masks.clear()
    with run.CpuRotation(False):
        pass
    assert masks == []


def test_derived_seeds_are_stable_and_distinct():
    assert workloads.derive_seed(1, "calls") == workloads.derive_seed(
        1, "calls"
    )
    assert workloads.derive_seed(1, "calls") != workloads.derive_seed(
        2, "calls"
    )
    assert workloads.derive_seed(1, "calls") != workloads.derive_seed(
        1, "warmup"
    )


def _first_calls(setup, seed, n):
    instance = setup(seed)
    try:
        values = []
        for _ in range(n):
            _sent, stats = instance.call()
            values.append(instance.check_value(stats))
        return values
    finally:
        instance.close()


def test_same_seed_same_inputs_and_fingerprints():
    from repro.traffic.generator import TrafficGenerator

    instance = workloads.setup_longtail_cached(5)
    try:
        flows = instance.flows
    finally:
        instance.close()

    def stream(seed):
        generator = TrafficGenerator(
            seed=workloads.derive_seed(seed, "calls")
        )
        return [
            packet.fields
            for packet in generator.stream(flows, 64, locality="zipf")
        ]

    assert stream(5) == stream(5)
    assert stream(5) != stream(6)
    first = _first_calls(workloads.setup_longtail_cached, 5, 2)
    assert first == _first_calls(workloads.setup_longtail_cached, 5, 2)
    assert first != _first_calls(workloads.setup_longtail_cached, 6, 2)


def test_controller_ticks_repeat_under_one_seed():
    # Sixteen ticks reach the storm (tick 10 on) and its first replan.
    first = _first_calls(workloads.setup_adapt_storm, 3, 16)
    assert first == _first_calls(workloads.setup_adapt_storm, 3, 16)
    # Each value carries the tick's stats fingerprint and plan signature.
    assert all(len(value) == 2 and value[1] for value in first)
    assert len({value[1] for value in first}) > 1


def test_adapt_storm_rounds_and_verification_cover_a_whole_cycle():
    instance = workloads.setup_adapt_storm(1)
    try:
        phases = [
            next(instance._ticks)[1].name for _ in range(instance.period)
        ]
    finally:
        instance.close()
    # One round is the whole calm -> storm -> settle cycle, and the
    # verification pass checks one round, storm writes included.
    assert instance.period == 35
    assert run.verify_calls(instance) == instance.period
    assert phases.count("storm") == 15
    assert phases.count("calm") == phases.count("settle") == 10


class _CountingInstance(workloads.Instance):
    """Instant calls in rounds of seven; records nothing."""

    packets = 1
    period = 7

    def call(self):
        from repro.nic.stats import RunStats

        stats = RunStats()
        stats.record_fast(100.0, 512, False, 0)
        return self.packets, stats

    def close(self):
        pass


def test_timed_phase_ends_on_whole_rounds():
    phase = run.timed_phase(_CountingInstance(), seconds=0.0)
    assert phase["calls"] >= run.MIN_CALLS
    assert phase["calls"] % _CountingInstance.period == 0
    assert len(phase["checks"]) == run.VERIFY_CALLS


def test_traced_run_removes_every_wrapper(monkeypatch):
    from repro.core import controller, deployment, search
    from repro.nic.columnar import ColumnBatch

    originals = {
        "optimize": search.optimize,
        "from_packets": ColumnBatch.__dict__["from_packets"],
        "init": deployment.Deployment.__dict__["__init__"],
    }
    monkeypatch.setattr(run, "MIN_CALLS", 3)
    monkeypatch.setattr(run, "VERIFY_CALLS", 2)
    result = run.run_traced("sharded_hot", 1, 0.001)

    assert surviving_wrappers() == []
    assert search.optimize is originals["optimize"]
    assert controller.optimize is originals["optimize"]
    assert ColumnBatch.__dict__["from_packets"] is originals["from_packets"]
    assert deployment.Deployment.__dict__["__init__"] is originals["init"]
    assert result["correct"]
    assert set(result["metrics"]) == {
        name for name, _, _ in layers.PER_LAYER
    }
    metrics = result["metrics"]
    assert metrics["traffic.packets"]["value"] == 2048
    assert metrics["sharding.flow_key_calls"]["value"] == 2048
    assert metrics["shm.push_attempts"]["value"] > 0
    assert 0 <= metrics["trace.residual_frac"]["value"] < 1


def test_patcher_installs_and_restores():
    from repro.nic.packet import Packet

    original = Packet.__dict__["flow_key"]
    tracer = Tracer()
    patcher = Patcher()
    try:
        layers.install(tracer, patcher, layers.PARENT)
        layers.install(tracer, patcher, layers.KERNEL)
        found = surviving_wrappers()
        assert "repro.nic.packet.Packet.flow_key" in found
        assert "repro.core.controller.optimize" in found
    finally:
        patcher.restore()
    assert surviving_wrappers() == []
    assert Packet.__dict__["flow_key"] is original


class _LossyInstance(workloads.Instance):
    """Retires one packet fewer than it is sent on every call."""

    packets = 4

    def call(self):
        from repro.nic.stats import RunStats

        stats = RunStats()
        for _ in range(self.packets - 1):
            stats.record_fast(100.0, 512, False, 0)
        return self.packets, stats

    def close(self):
        pass


def test_lost_packets_fail_the_run(monkeypatch, capsys):
    monkeypatch.setitem(
        workloads.SETUPS,
        "longtail_cached",
        lambda seed, engine="auto": _LossyInstance(),
    )
    status = run.main(
        ["--workload", "longtail_cached", "--seconds", "0.001"]
    )
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert status != 0
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] >= run.MIN_CALLS


class _RaisingInstance(_CountingInstance):
    """Its sixth call raises."""

    period = 1

    def __init__(self):
        self.done = 0

    def call(self):
        self.done += 1
        if self.done == 6:
            raise RuntimeError("injected failure")
        return super().call()


def test_a_raising_call_still_prints_a_failed_result(monkeypatch, capsys):
    monkeypatch.setitem(
        workloads.SETUPS,
        "longtail_cached",
        lambda seed, engine="auto": _RaisingInstance(),
    )
    status = run.main(
        ["--workload", "longtail_cached", "--seconds", "0.001"]
    )
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert status != 0
    assert result["correct"] is False
    assert result["attempted"] == 6 and result["failed"] == 1
    # Too few calls for a percentile: it is left out, not invented.
    assert "call_ms_p90" not in result["metrics"]
    assert result["metrics"]["throughput_pps"]["value"] > 0


HELPER_SCRIPT = """
import multiprocessing, sys, time
from multiprocessing import resource_tracker, shared_memory
sys.path.insert(0, sys.argv[1])
import run
segment = shared_memory.SharedMemory(create=True, size=64)
segment.close()
segment.unlink()
worker = multiprocessing.get_context("fork").Process(
    target=time.sleep, args=(60,), daemon=True
)
worker.start()
print(resource_tracker._resource_tracker._pid, worker.pid)
run.stop_helper_processes(timeout=1.0)
print(multiprocessing.active_children(), resource_tracker._resource_tracker._pid)
"""


def test_no_helper_process_outlives_a_run():
    proc = subprocess.run(
        [sys.executable, "-c", HELPER_SCRIPT, run.HERE],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    started, after = proc.stdout.splitlines()
    tracker_pid, worker_pid = (int(pid) for pid in started.split())
    assert after == "[] None"
    for pid in (tracker_pid, worker_pid):
        assert not os.path.exists(f"/proc/{pid}")


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(
        run.HERE,
        tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sharded_hot",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
    assert sorted(os.listdir(tmp_path)) == ["BENCHMARK.json", "perfbench"]


def test_benchmark_json_matches_the_code():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(
        run.END_TO_END
    )
    assert [
        (m["name"], m["unit"], m["better"]) for m in spec["per_layer"]
    ] == list(layers.PER_LAYER)
