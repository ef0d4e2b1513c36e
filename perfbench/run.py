"""The repository benchmark: three workloads, end to end and per layer.

Run one workload (the last stdout line is the JSON result)::

    python3 perfbench/run.py --workload sharded_hot --seed 1 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing.
``--trace 1`` is the separate traced run: the per-layer metrics, timed
from outside by wrappers on the program's public functions, plus the
same calls replayed untraced to measure the tracing overhead.

Print the whole ledger (every workload, both runs, with units)::

    python3 perfbench/run.py --ledger --seed 1 --seconds 30

The exit status is non-zero when any call fails its output check.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import traceback
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: Seed used when ``--seed`` is not given.
DEFAULT_SEED = 1
#: Held out while a change is written: a gain claim must also hold on it.
HELDOUT_SEED = 104729
#: A timed phase runs at least this many calls, so ``call_ms_p90`` has
#: ten samples beyond it; the modeled metrics cover exactly this prefix.
MIN_CALLS = 100
#: Calls whose outputs the verification pass replays and compares, at
#: least: it always covers one whole round of calls, which on
#: ``adapt_storm`` is a full scenario cycle (calm, storm writes, both
#: plan changes and settle).
VERIFY_CALLS = 15
#: Set-ups per run, in two groups: one before the timed phase and one
#: after it, so they sample the host at both ends of the run. Each
#: group sets up at least SETUP_REPS times and until its set-ups add
#: up to SETUP_MIN_S (at most SETUP_MAX_REPS); ``setup_s`` is the
#: median of both groups.
SETUP_REPS = 3
SETUP_MIN_S = 2.0
SETUP_MAX_REPS = 20
#: A single-process workload moves to the next allowed CPU this often.
ROTATE_S = 0.25
#: A timed phase stops here even short of MIN_CALLS (the run then
#: fails), keeping every run well inside its time limit.
PHASE_CAP_S = 120.0
WORKLOADS = ("sharded_hot", "longtail_cached", "adapt_storm")
DETAIL_TAG = "perfbench-detail "

#: (name, unit) of the end-to-end metrics the result line reports (and
#: BENCHMARK.json gates on), in report order.
END_TO_END = (
    ("throughput_pps", "pkt/s"),
    ("call_ms_p90", "ms"),
    ("setup_s", "s"),
    ("modeled_gbps", "Gbps"),
    ("modeled_latency_ns", "modeled-ns"),
    ("peak_rss_mb", "MiB"),
)
#: Measured and printed, but not in the result line. ``call_ms_p50`` of
#: a single-threaded workload follows the host's two speed modes, so
#: run to run it spreads wider than any allowed bound (README, Bounds);
#: ``ops_failed_frac`` is 0 on a healthy commit and travels as the
#: result's ``failed``/``attempted``.
LEDGER_ONLY = (
    ("call_ms_p50", "ms"),
    ("ops_failed_frac", "ratio"),
)


def percentile(samples, q: float) -> float:
    """Nearest-rank percentile, refused without ten samples beyond it."""
    n = len(samples)
    rank = max(1, math.ceil(q * n))
    if n - rank < 10:
        raise ValueError(
            f"p{q * 100:g} needs 10 samples beyond it; "
            f"{n} samples leave {n - rank}"
        )
    return sorted(samples)[rank - 1]


# ---------------------------------------------------------------------------
# Timed phases
# ---------------------------------------------------------------------------


class CpuRotation:
    """Moves the main thread round the CPUs it may run on, every ROTATE_S.

    Left alone, a single-process workload stays on whichever CPU the
    scheduler put it on, and on a shared host one CPU can run at half
    the speed of another for minutes at a time. A helper thread moves
    the main thread on every ROTATE_S, in the middle of a call or a
    set-up alike, so each one samples every CPU: on such a host (2
    shared vCPUs) this halved the run-to-run spread of
    ``longtail_cached`` and cost 1-3% of its speed. Workloads with
    shard workers are left to the scheduler (a worker forked while the
    parent is pinned would inherit the pin).
    """

    def __init__(self, enabled: bool) -> None:
        self.cpus = sorted(os.sched_getaffinity(0)) if enabled else []
        self._stop = threading.Event()
        self._thread = None

    def __enter__(self):
        if len(self.cpus) > 1:
            self._thread = threading.Thread(
                target=self._rotate,
                args=(threading.get_native_id(),),
                daemon=True,
            )
            self._thread.start()
        return self

    def _rotate(self, thread_id: int) -> None:
        turn = 0
        while not self._stop.is_set():
            os.sched_setaffinity(thread_id, {self.cpus[turn]})
            turn = (turn + 1) % len(self.cpus)
            self._stop.wait(ROTATE_S)

    def __exit__(self, *exc) -> None:
        if self._thread is not None:
            self._stop.set()
            self._thread.join()
            os.sched_setaffinity(0, self.cpus)


def timed_setups(setup, seed: int, keep: bool = True):
    """One group of set-ups, each timed; returns ``(instance,
    durations)``, the last instance kept open if ``keep``."""
    durations = []
    while True:
        start = perf_counter()
        instance = setup(seed)
        durations.append(perf_counter() - start)
        reps = len(durations)
        if reps >= SETUP_REPS and (
            sum(durations) >= SETUP_MIN_S or reps >= SETUP_MAX_REPS
        ):
            if not keep:
                instance.close()
                instance = None
            return instance, durations
        instance.close()


def verify_calls(instance) -> int:
    """How many of a phase's first calls the verification pass checks."""
    return max(VERIFY_CALLS, instance.period)


def timed_phase(instance, seconds=None, calls=None, tracer=None) -> dict:
    """Closed loop of calls: for ``seconds`` (and MIN_CALLS calls) or
    exactly ``calls`` calls. A timed phase ends only after whole
    ``instance.period`` rounds of calls. Each call's packet accounting
    is checked; a call that raises counts as failed and ends the phase."""
    from repro.nic.stats import RunStats

    durations = []
    retired = failed = 0
    checks = []
    n_checks = verify_calls(instance)
    model = RunStats()
    busy = None
    phase_start = perf_counter()
    while True:
        done = len(durations)
        if calls is not None:
            if done >= calls:
                break
        elif done % instance.period == 0:
            elapsed = perf_counter() - phase_start
            if (elapsed >= seconds and done >= MIN_CALLS) or (
                elapsed >= PHASE_CAP_S
            ):
                break
        if tracer is not None:
            tracer.begin_root("call")
        start = perf_counter()
        try:
            sent, stats = instance.call()
        except Exception:
            durations.append(perf_counter() - start)
            if tracer is not None:
                tracer.end_root()
            traceback.print_exc()
            failed += 1
            break
        durations.append(perf_counter() - start)
        if tracer is not None:
            tracer.end_root()
        retired += stats.packets
        if stats.lost_packets or stats.packets + stats.lost_packets != sent:
            failed += 1
        if done < n_checks:
            checks.append(instance.check_value(stats))
        if done < MIN_CALLS:
            model.merge(stats)
        worker_busy = instance.worker_busy_s()
        if worker_busy is not None:
            busy = [
                total + shard
                for total, shard in zip(
                    busy or [0.0] * len(worker_busy), worker_busy
                )
            ]
    wall = sum(durations)
    return {
        "calls": len(durations),
        "durations": durations,
        "wall_s": wall,
        "retired": retired,
        "pps": retired / wall if wall else 0.0,
        "failed": failed,
        "checks": checks,
        "model": model,
        "busy_s": busy,
    }


def verify(workload: str, seed: int, expected: list) -> int:
    """Replay the first calls on the oracle deployment; count mismatches
    (a call that raises, and every call after it, mismatches)."""
    from workloads import SETUPS, VERIFY_ENGINE

    instance = SETUPS[workload](seed, engine=VERIFY_ENGINE[workload])
    try:
        mismatches = 0
        for done, want in enumerate(expected):
            try:
                _sent, stats = instance.call()
            except Exception:
                traceback.print_exc()
                return mismatches + len(expected) - done
            if instance.check_value(stats) != want:
                mismatches += 1
        return mismatches
    finally:
        instance.close()


def stop_helper_processes(timeout: float = 5.0) -> None:
    """Stop every process the run started and wait for each to end.

    Shard workers are joined by ``close()``; any still alive here are
    terminated. Creating a shared-memory segment also starts
    multiprocessing's resource tracker, a helper process that would
    otherwise outlive this one by a moment at exit. Stopping it closes
    its pipe and reaps it, so nothing started by a run survives it.
    """
    import multiprocessing
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.terminate()
        child.join(timeout)
        if child.is_alive():
            child.kill()
            child.join()
    resource_tracker._resource_tracker._stop()


def peak_rss_mb() -> float:
    """Peak RSS of this process plus its largest reaped child (workers)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


# ---------------------------------------------------------------------------
# The two kinds of run
# ---------------------------------------------------------------------------


def run_end_to_end(workload: str, seed: int, seconds: float) -> dict:
    from repro.nic.targets import get_target
    from workloads import SETUPS, TARGET

    setup = SETUPS[workload]
    instance, early = timed_setups(setup, seed)
    try:
        phase = timed_phase(instance, seconds=seconds)
    finally:
        instance.close()
    # The late set-ups start from a heap as clean as the early ones.
    del instance
    gc.collect()
    _none, late = timed_setups(setup, seed, keep=False)
    setups = early + late
    rss = peak_rss_mb()
    mismatches = verify(workload, seed, phase["checks"])
    durations = phase["durations"]
    model = phase["model"]
    failed = phase["failed"] + mismatches
    # A phase cut short (a call raised, or PHASE_CAP_S) fails the run.
    short = phase["calls"] < MIN_CALLS
    metrics = {
        "throughput_pps": phase["pps"],
        "call_ms_p50": None,
        "call_ms_p90": None,
        "setup_s": statistics.median(setups),
        "modeled_gbps": model.throughput_gbps(get_target(TARGET)),
        "modeled_latency_ns": model.mean_latency_ns,
        "peak_rss_mb": rss,
        "ops_failed_frac": failed / max(1, phase["calls"]),
    }
    if not short:
        metrics["call_ms_p50"] = percentile(durations, 0.5) * 1e3
        metrics["call_ms_p90"] = percentile(durations, 0.9) * 1e3
    units = dict(END_TO_END + LEDGER_ONLY)
    return {
        "correct": failed == 0 and not short,
        "attempted": phase["calls"],
        "failed": failed,
        # Percentiles refused on a short phase are left out.
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
            if value is not None
        },
        "samples": {
            "calls": phase["calls"],
            "setups": len(setups),
            "setup_s_early": statistics.median(early),
            "setup_s_late": statistics.median(late),
            "verified_calls": len(phase["checks"]),
            "verify_mismatches": mismatches,
            "modeled_calls": min(phase["calls"], MIN_CALLS),
        },
    }


def run_traced(workload: str, seed: int, seconds: float):
    import layers
    from tracer import Patcher, Tracer, surviving_wrappers
    from workloads import SETUPS

    setup = SETUPS[workload]
    tracer = Tracer()
    patcher = Patcher()
    try:
        layers.install(tracer, patcher, layers.PARENT)
        tracer.begin_root("setup")
        instance = setup(seed)
        tracer.end_root()
        setup_totals, tracer.totals = tracer.totals, {}
        try:
            layers.install(tracer, patcher, layers.KERNEL)
            before = instance.counters()
            traced_phase = timed_phase(
                instance, seconds=seconds / 2, tracer=tracer
            )
            traced_phase["counters_before"] = before
            traced_phase["counters_after"] = instance.counters()
        finally:
            instance.close()
    finally:
        patcher.restore()
    leftover = surviving_wrappers()
    if leftover:
        raise RuntimeError(f"wrappers survived the traced run: {leftover}")
    # The same calls again, untraced, for the tracing overhead.
    instance = setup(seed)
    try:
        plain_phase = timed_phase(instance, calls=traced_phase["calls"])
    finally:
        instance.close()
    checks = traced_phase["checks"]
    mismatches = verify(workload, seed, checks)
    mismatches += sum(
        a != b for a, b in zip(checks, plain_phase["checks"])
    )
    values = layers.per_layer_metrics(
        tracer.totals, setup_totals, traced_phase, plain_phase
    )
    units = {name: unit for name, unit, _ in layers.PER_LAYER}
    attempted = traced_phase["calls"] + plain_phase["calls"]
    failed = traced_phase["failed"] + plain_phase["failed"] + mismatches
    wall = traced_phase["wall_s"]
    calls = traced_phase["calls"]
    rows = [
        {
            "span": name,
            "layer": layers.LAYER_OF.get(name, "(root)"),
            "count_per_call": totals.count / calls,
            "self_ms_per_call": totals.self_s / calls * 1e3,
            "share": totals.self_s / wall if wall else 0.0,
        }
        for name, totals in tracer.totals.items()
        if name == "call" or name in layers.LAYER_OF
    ]
    rows.sort(key=lambda row: -row["self_ms_per_call"])
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": values[name], "unit": units[name]}
            for name, _unit, _better in layers.PER_LAYER
        },
        "samples": {
            "traced_calls": calls,
            "untraced_calls": plain_phase["calls"],
            "verified_calls": len(checks),
            "verify_mismatches": mismatches,
        },
        "layers": rows,
        "setup_layers": {
            name: totals.self_s
            for name, totals in setup_totals.items()
            if name == "setup" or name in layers.LAYER_OF
        },
        "traced_pps": traced_phase["pps"],
        "untraced_pps": plain_phase["pps"],
    }


# ---------------------------------------------------------------------------
# Provenance
# ---------------------------------------------------------------------------


def git_state() -> tuple:
    """``(sha, dirty)`` of the checkout, ``(None, None)`` outside git."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))

    def git(*args):
        return subprocess.run(
            ["git", "-C", ROOT, *args],
            capture_output=True,
            text=True,
            env=env,
            timeout=30,
        )

    try:
        head = git("rev-parse", "HEAD")
        if head.returncode != 0:
            return None, None
        status = git("status", "--porcelain", "--untracked-files=no")
    except (OSError, subprocess.SubprocessError):
        return None, None
    return head.stdout.strip(), bool(status.stdout.strip())


def provenance(workload: str, seed: int, seconds: float, trace: int):
    import numpy

    from workloads import SHARDED_WORKERS, SINGLE_PROCESS

    affinity = sorted(os.sched_getaffinity(0))
    sha, dirty = git_state()
    record = {
        "git_sha": sha,
        "git_dirty": dirty,
        "nproc": os.cpu_count(),
        "affinity": affinity,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "workload": workload,
        "seed": seed,
        "default_seed": DEFAULT_SEED,
        "heldout_seed": HELDOUT_SEED,
        "seconds": seconds,
        "trace": trace,
        "min_calls": MIN_CALLS,
        "setup_min_reps": SETUP_REPS,
        "setup_min_s": SETUP_MIN_S,
        "cpu_rotation_s": ROTATE_S if workload in SINGLE_PROCESS else None,
    }
    if workload == "sharded_hot" and len(affinity) < SHARDED_WORKERS:
        # Fewer CPUs than workers: wall time measures the scheduler.
        record["scheduler_bound"] = True
    return record


# ---------------------------------------------------------------------------
# Ledger
# ---------------------------------------------------------------------------


def _child(workload: str, seed: int, seconds: float, trace: int):
    command = [
        sys.executable,
        os.path.abspath(__file__),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
        "--detail",
    ]
    proc = subprocess.run(
        command, capture_output=True, text=True, timeout=900
    )
    sys.stderr.write(proc.stderr)
    detail = None
    for line in proc.stdout.splitlines():
        if line.startswith(DETAIL_TAG):
            detail = json.loads(line[len(DETAIL_TAG):])
    return proc.returncode, detail


def ledger(seed: int, seconds: float) -> int:
    """Run every workload, untraced then traced, and print the ledger."""
    status = 0
    results = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            code, detail = _child(workload, seed, seconds, trace)
            if code != 0 or detail is None or not detail["correct"]:
                status = 1
            results[(workload, trace)] = detail
    print(f"end-to-end metrics (seed {seed}, {seconds:g} s per run)")
    first = next((d for d in results.values() if d is not None), None)
    if first is not None:
        prov = first["provenance"]
        print(
            f"  git {prov['git_sha']} dirty={prov['git_dirty']}, "
            f"nproc {prov['nproc']}, affinity {prov['affinity']}, "
            f"python {prov['python']}, numpy {prov['numpy']}, "
            f"held-out seed {prov['heldout_seed']}"
        )
    hot = results[("sharded_hot", 0)]
    if hot is not None and hot["provenance"].get("scheduler_bound"):
        print(
            "  WARNING: sharded_hot ran on fewer CPUs than shard "
            "workers; its wall-clock numbers measure the scheduler"
        )
    header = f"{'metric':<28}" + "".join(f"{w:>18}" for w in WORKLOADS)
    print(header)
    for name, unit in END_TO_END + LEDGER_ONLY:
        cells = []
        for workload in WORKLOADS:
            detail = results[(workload, 0)]
            if detail is None:
                cells.append(f"{'FAILED':>18}")
            elif name not in detail["metrics"]:
                cells.append(f"{'refused':>18}")
            else:
                value = detail["metrics"][name]["value"]
                cells.append(f"{value:>18.6g}")
        print(f"{name + ' (' + unit + ')':<28}" + "".join(cells))
    for workload in WORKLOADS:
        e2e = results[(workload, 0)]
        if e2e is not None:
            print(f"  {workload} samples: {e2e['samples']}")
    for workload in WORKLOADS:
        detail = results[(workload, 1)]
        print()
        print(f"per-layer ledger: {workload} (traced run)")
        if detail is None:
            print("  FAILED")
            continue
        print(
            f"  {'layer':<20}{'span':<22}{'count/call':>12}"
            f"{'self ms/call':>14}{'share':>8}"
        )
        for row in detail["layers"]:
            print(
                f"  {row['layer']:<20}{row['span']:<22}"
                f"{row['count_per_call']:>12.4g}"
                f"{row['self_ms_per_call']:>14.4f}"
                f"{row['share'] * 100:>7.1f}%"
            )
        metrics = detail["metrics"]
        print(
            f"  residual (call time no layer covers): "
            f"{metrics['trace.residual_frac']['value'] * 100:.1f}%"
        )
        print(
            f"  tracing overhead: "
            f"{metrics['trace.overhead_frac']['value'] * 100:.1f}% "
            f"({detail['traced_pps']:.0f} traced vs "
            f"{detail['untraced_pps']:.0f} untraced pkt/s)"
        )
        setup = ", ".join(
            f"{name} {seconds_:.3f} s"
            for name, seconds_ in sorted(
                detail["setup_layers"].items(), key=lambda kv: -kv[1]
            )
        )
        print(f"  one traced set-up, self time: {setup}")
        ratio = metrics["sharding.modeled_vs_wall"]["value"]
        if ratio:
            print(
                f"  modeled pps (busiest worker) / wall pps: {ratio:.2f}"
            )
        idle = [name for name, m in metrics.items() if not m["value"]]
        for name, metric in metrics.items():
            if metric["value"]:
                print(
                    f"    {name:<34}{metric['value']:>14.6g} "
                    f"{metric['unit']}"
                )
        print(f"  zero (layer idle here): {', '.join(idle)}")
        print(f"  samples: {detail['samples']}")
    return status


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--ledger",
        action="store_true",
        help="run every workload untraced and traced; print the ledger",
    )
    parser.add_argument(
        "--detail", action="store_true", help=argparse.SUPPRESS
    )
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not args.ledger and args.workload is None:
        parser.error("--workload is required (or --ledger)")

    sys.path.insert(0, os.path.join(ROOT, "src"))
    try:
        import repro  # noqa: F401
    except ImportError as exc:
        print(
            f"error: cannot import the program from {ROOT}/src: {exc}",
            file=sys.stderr,
        )
        return 2
    if args.ledger:
        return ledger(args.seed, args.seconds)

    from workloads import SINGLE_PROCESS

    with CpuRotation(args.workload in SINGLE_PROCESS):
        if args.trace:
            result = run_traced(args.workload, args.seed, args.seconds)
        else:
            result = run_end_to_end(args.workload, args.seed, args.seconds)
    result["provenance"] = provenance(
        args.workload, args.seed, args.seconds, args.trace
    ) | {"samples": result["samples"]}
    print("provenance " + json.dumps(result["provenance"]))
    for name, metric in result["metrics"].items():
        print(f"  {name:<34}{metric['value']:>16.6g} {metric['unit']}")
    if args.detail:
        print(DETAIL_TAG + json.dumps(result))
    metrics = result["metrics"]
    if not args.trace:
        metrics = {
            name: metrics[name]
            for name, _unit in END_TO_END
            if name in metrics
        }
    print(
        json.dumps(
            {
                "correct": result["correct"],
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    try:
        status = main()
    finally:
        stop_helper_processes()
    sys.exit(status)
