"""Which public functions are traced, and the per-layer metrics.

Two wrapper groups, because shard workers fork during set-up and would
inherit anything patched before the fork:

* ``PARENT`` functions run only in the parent process (generation,
  dispatch, transport, control plane, profiling, search, plan,
  deployment, controller). They are installed before the traced set-up.
* ``KERNEL`` functions also run inside shard workers (execution tiers,
  stats merge, packet keys). They are installed after set-up, so
  workers never carry a wrapper and their CPU time is read from the
  program's own ``worker_busy_s`` counter instead.

Each per-layer metric is normalised per timed call (``/call`` units),
so runs of different lengths, and commits of different speeds, compare
directly.
"""

from __future__ import annotations

from functools import partial

from tracer import Patcher, Tracer, traced

#: span name -> the layer (module) it belongs to.
LAYER_OF = {
    "traffic.gen": "traffic",
    "sharding.dispatch": "nic.sharding",
    "sharding.flow_key": "nic.sharding",
    "sharding.flow_shard": "nic.sharding",
    "shm.encode": "nic.shm_transport",
    "shm.push": "nic.shm_transport",
    "shm.drain": "nic.shm_transport",
    "stats.merge": "nic.stats",
    "columnar.ingest": "nic.columnar",
    "columnar.batch": "nic.columnar",
    "columnar.compile": "nic.columnar",
    "fastpath.demoted": "nic.fastpath",
    "fastpath.compile": "nic.fastpath",
    "cache.invalidate": "nic.flow_cache",
    "emulator.replay": "nic.emulator",
    "emulator.run": "nic.emulator",
    "control_plane.update": "nic.control_plane",
    "profiling.collect": "core.profiling",
    "search.optimize": "core.search",
    "plan.apply": "core.plan",
    "deployment.build": "core.deployment",
    "controller.replan": "core.controller",
}

PARENT, KERNEL = "parent", "kernel"


def _cache_counts(emulator) -> tuple[int, int]:
    """Summed (hits, misses) over an emulator's caches."""
    if hasattr(emulator, "flow_caches"):
        stats = [cache.stats for cache in emulator.flow_caches.values()]
        native = emulator.native_cache
        if native is not None:
            stats.append(native.stats)
    else:  # ShardedEmulator: stats merged from the workers
        stats = list(emulator.cache_stats.values())
        if emulator.native_cache_stats is not None:
            stats.append(emulator.native_cache_stats)
    return (
        sum(s.hits for s in stats),
        sum(s.misses for s in stats),
    )


def _observe_caches(tracer: Tracer, fn):
    """Count the cache hits/misses one replay entry point caused."""

    def observed(emulator, *args, **kwargs):
        hits, misses = _cache_counts(emulator)
        result = fn(emulator, *args, **kwargs)
        hits_after, misses_after = _cache_counts(emulator)
        new_hits = hits_after - hits
        tracer.count("cache.hits", new_hits)
        tracer.count("cache.lookups", new_hits + misses_after - misses)
        return result

    return observed


def _span(tracer: Tracer, name: str, after=None):
    """A wrap function for :class:`Patcher`: ``fn`` -> traced ``fn``."""
    return lambda fn: traced(tracer, name, fn, after)


def install(tracer: Tracer, patcher: Patcher, group: str) -> None:
    """Wrap one group's public functions (see module docstring)."""
    if group == PARENT:
        _install_parent(tracer, patcher)
    elif group == KERNEL:
        _install_kernel(tracer, patcher)
    else:
        raise ValueError(f"unknown wrapper group {group!r}")


def _install_parent(tracer: Tracer, patcher: Patcher) -> None:
    from repro.core import plan, profiling, search
    from repro.core.controller import PipeleonController
    from repro.core.deployment import Deployment
    from repro.core.sharded import ShardedDeployment
    from repro.nic import sharding
    from repro.nic.control_plane import ControlPlane
    from repro.nic.shm_transport import ShardChannel
    from repro.traffic.generator import TrafficGenerator

    span = partial(_span, tracer)

    def materialized(fn):
        # The stream is a generator: drain it inside the span so the
        # span covers generation, not just the generator's creation.
        def stream(*args, **kwargs):
            packets = list(fn(*args, **kwargs))
            tracer.count("traffic.packets", len(packets))
            return iter(packets)

        return traced(tracer, "traffic.gen", stream)

    patcher.method(TrafficGenerator, "stream", materialized)
    patcher.method(
        sharding.ShardedEmulator,
        "replay",
        lambda fn: traced(
            tracer, "sharding.dispatch", _observe_caches(tracer, fn)
        ),
    )
    patcher.function(
        sharding, "flow_shard", span("sharding.flow_shard")
    )
    patcher.function(sharding, "soa_encode", span("shm.encode"))
    patcher.method(
        ShardChannel,
        "try_push_batch",
        span(
            "shm.push",
            after=lambda args, ok: tracer.count("shm.push_ok", int(ok)),
        ),
    )
    patcher.method(ShardChannel, "drain_results", span("shm.drain"))
    for name in ("insert_entry", "delete_entry", "modify_entry"):
        patcher.method(ControlPlane, name, span("control_plane.update"))
    patcher.function(
        profiling, "collect_profile", span("profiling.collect")
    )
    patcher.function(search, "optimize", span("search.optimize"))
    patcher.function(plan, "apply_plan", span("plan.apply"))
    patcher.method(Deployment, "__init__", span("deployment.build"))
    patcher.method(
        ShardedDeployment, "__init__", span("deployment.build")
    )
    patcher.method(
        PipeleonController,
        "maybe_reoptimize",
        span(
            "controller.replan",
            after=lambda args, changed: tracer.count(
                "controller.redeploys", int(changed)
            ),
        ),
    )


def _install_kernel(tracer: Tracer, patcher: Patcher) -> None:
    from repro.nic.columnar import ColumnarEngine, ColumnBatch
    from repro.nic.emulator import NicEmulator
    from repro.nic.fastpath import FastPathEngine
    from repro.nic.packet import Packet
    from repro.nic.stats import RunStats

    span = partial(_span, tracer)

    patcher.method(Packet, "flow_key", span("sharding.flow_key"))
    patcher.method(RunStats, "merge", span("stats.merge"))
    patcher.method(ColumnBatch, "from_packets", span("columnar.ingest"))
    patcher.method(ColumnarEngine, "replay_batch", span("columnar.batch"))
    patcher.method(ColumnarEngine, "__init__", span("columnar.compile"))
    patcher.method(
        FastPathEngine, "replay_one", span("fastpath.demoted")
    )
    patcher.method(FastPathEngine, "__init__", span("fastpath.compile"))
    patcher.method(
        NicEmulator,
        "replay",
        lambda fn: traced(
            tracer, "emulator.replay", _observe_caches(tracer, fn)
        ),
    )
    patcher.method(
        NicEmulator,
        "run",
        lambda fn: traced(
            tracer,
            "emulator.run",
            _observe_caches(tracer, fn),
            after=lambda args, stats: tracer.count(
                "emulator.run_packets", stats.packets
            ),
        ),
    )
    patcher.method(
        NicEmulator, "invalidate_caches_covering", span("cache.invalidate")
    )


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------

#: (metric, unit, better) for every per-layer metric, in report order.
PER_LAYER = (
    ("traffic.gen_s", "s/call", "lower"),
    ("traffic.packets", "count/call", "higher"),
    ("sharding.dispatch_s", "s/call", "lower"),
    ("sharding.flow_key_s", "s/call", "lower"),
    ("sharding.flow_key_calls", "count/call", "lower"),
    ("sharding.flow_shard_s", "s/call", "lower"),
    ("sharding.worker_busy_max_s", "s/call", "lower"),
    ("sharding.worker_busy_sum_s", "s/call", "lower"),
    ("sharding.modeled_vs_wall", "ratio", "lower"),
    ("shm.encode_s", "s/call", "lower"),
    ("shm.push_s", "s/call", "lower"),
    ("shm.push_attempts", "count/call", "lower"),
    ("shm.push_ok_ratio", "ratio", "higher"),
    ("shm.drain_s", "s/call", "lower"),
    ("shm.ring_stalls", "count/call", "lower"),
    ("shm.pipe_fallbacks", "count/call", "lower"),
    ("stats.merge_s", "s/call", "lower"),
    ("stats.merges", "count/call", "lower"),
    ("columnar.ingest_s", "s/call", "lower"),
    ("columnar.batch_s", "s/call", "lower"),
    ("columnar.batches", "count/call", "lower"),
    ("columnar.packets", "count/call", "higher"),
    ("columnar.demoted_frac", "ratio", "lower"),
    ("columnar.demoted.cache-record", "count/call", "lower"),
    ("columnar.demoted.cascade", "count/call", "lower"),
    ("columnar.compiles", "count/call", "lower"),
    ("columnar.compile_s", "s/call", "lower"),
    ("fastpath.demoted_s", "s/call", "lower"),
    ("fastpath.demoted_calls", "count/call", "lower"),
    ("fastpath.compiles", "count/call", "lower"),
    ("fastpath.compile_s", "s/call", "lower"),
    ("cache.hit_rate", "ratio", "higher"),
    ("cache.lookups", "count/call", "higher"),
    ("cache.invalidations", "count/call", "lower"),
    ("emulator.run_s", "s/call", "lower"),
    ("emulator.run_packets", "count/call", "higher"),
    ("control_plane.update_s", "s/call", "lower"),
    ("control_plane.updates", "count/call", "lower"),
    ("profiling.collect_s", "s/call", "lower"),
    ("profiling.collects", "count/call", "lower"),
    ("search.optimize_s", "s/call", "lower"),
    ("search.calls", "count/call", "lower"),
    ("search.setup_s", "s", "lower"),
    ("plan.apply_s", "s/call", "lower"),
    ("plan.applies", "count/call", "lower"),
    ("plan.setup_s", "s", "lower"),
    ("deployment.build_s", "s/call", "lower"),
    ("deployment.builds", "count/call", "lower"),
    ("deployment.setup_s", "s", "lower"),
    ("controller.replan_s", "s/call", "lower"),
    ("controller.replans", "count/call", "lower"),
    ("controller.redeploys", "count/call", "lower"),
    ("controller.redeploy_ratio", "ratio", "higher"),
    ("trace.residual_frac", "ratio", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
)

#: metric -> (span name, "self_s" | "count") read straight off a span.
_FROM_SPAN = {
    "traffic.gen_s": ("traffic.gen", "self_s"),
    "sharding.dispatch_s": ("sharding.dispatch", "self_s"),
    "sharding.flow_key_s": ("sharding.flow_key", "self_s"),
    "sharding.flow_key_calls": ("sharding.flow_key", "count"),
    "sharding.flow_shard_s": ("sharding.flow_shard", "self_s"),
    "shm.encode_s": ("shm.encode", "self_s"),
    "shm.push_s": ("shm.push", "self_s"),
    "shm.push_attempts": ("shm.push", "count"),
    "shm.drain_s": ("shm.drain", "self_s"),
    "stats.merge_s": ("stats.merge", "self_s"),
    "stats.merges": ("stats.merge", "count"),
    "columnar.ingest_s": ("columnar.ingest", "self_s"),
    "columnar.batch_s": ("columnar.batch", "self_s"),
    "columnar.batches": ("columnar.batch", "count"),
    "columnar.compiles": ("columnar.compile", "count"),
    "columnar.compile_s": ("columnar.compile", "self_s"),
    "fastpath.demoted_s": ("fastpath.demoted", "self_s"),
    "fastpath.demoted_calls": ("fastpath.demoted", "count"),
    "fastpath.compiles": ("fastpath.compile", "count"),
    "fastpath.compile_s": ("fastpath.compile", "self_s"),
    "cache.lookups": ("cache.lookups", "count"),
    "cache.invalidations": ("cache.invalidate", "count"),
    "emulator.run_s": ("emulator.run", "self_s"),
    "emulator.run_packets": ("emulator.run_packets", "count"),
    "control_plane.update_s": ("control_plane.update", "self_s"),
    "control_plane.updates": ("control_plane.update", "count"),
    "profiling.collect_s": ("profiling.collect", "self_s"),
    "profiling.collects": ("profiling.collect", "count"),
    "search.optimize_s": ("search.optimize", "self_s"),
    "search.calls": ("search.optimize", "count"),
    "plan.apply_s": ("plan.apply", "self_s"),
    "plan.applies": ("plan.apply", "count"),
    "deployment.build_s": ("deployment.build", "self_s"),
    "deployment.builds": ("deployment.build", "count"),
    "controller.replan_s": ("controller.replan", "self_s"),
    "controller.replans": ("controller.replan", "count"),
    "controller.redeploys": ("controller.redeploys", "count"),
}

#: Set-up metrics: span self time during the one traced set-up.
_FROM_SETUP = {
    "search.setup_s": "search.optimize",
    "plan.setup_s": "plan.apply",
    "deployment.setup_s": "deployment.build",
}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _delta(after: dict, before: dict, key: str) -> float:
    return after.get(key, 0) - before.get(key, 0)


def per_layer_metrics(
    call_totals: dict,
    setup_totals: dict,
    traced: dict,
    untraced: dict,
) -> dict[str, float]:
    """Every :data:`PER_LAYER` metric from one traced phase.

    ``call_totals``/``setup_totals`` map span name to
    :class:`tracer.LayerTotals` (timed calls / the traced set-up).
    ``traced`` and ``untraced`` summarise the same calls run with and
    without tracing: ``calls``, ``wall_s`` (summed call time), ``pps``,
    ``busy_s`` (per-shard worker CPU seconds summed over calls, or
    None) and, for the traced phase, the program's cumulative
    ``counters_before``/``counters_after``.
    """
    calls = traced["calls"]
    counters_before = traced["counters_before"]
    counters_after = traced["counters_after"]

    def read(name: str, field: str) -> float:
        totals = call_totals.get(name)
        return getattr(totals, field) if totals is not None else 0

    values: dict[str, float] = {}
    for metric, (name, field) in _FROM_SPAN.items():
        values[metric] = read(name, field) / calls
    for metric, name in _FROM_SETUP.items():
        totals = setup_totals.get(name)
        values[metric] = totals.self_s if totals is not None else 0.0
    values["traffic.packets"] = read("traffic.packets", "count") / calls
    values["shm.push_ok_ratio"] = _ratio(
        read("shm.push_ok", "count"), read("shm.push", "count")
    )
    values["cache.hit_rate"] = _ratio(
        read("cache.hits", "count"), read("cache.lookups", "count")
    )
    values["controller.redeploy_ratio"] = _ratio(
        read("controller.redeploys", "count"),
        read("controller.replan", "count"),
    )
    packets = _delta(counters_after, counters_before, "columnar_packets")
    demotions_after = counters_after.get("demotions", {})
    demotions_before = counters_before.get("demotions", {})
    demoted = {
        reason: count - demotions_before.get(reason, 0)
        for reason, count in demotions_after.items()
    }
    values["columnar.packets"] = packets / calls
    values["columnar.demoted_frac"] = _ratio(
        sum(demoted.values()), packets + sum(demoted.values())
    )
    for reason in ("cache-record", "cascade"):
        values[f"columnar.demoted.{reason}"] = (
            demoted.get(reason, 0) / calls
        )
    transport_after = counters_after.get("transport", {})
    transport_before = counters_before.get("transport", {})
    values["shm.ring_stalls"] = (
        _delta(transport_after, transport_before, "stalls") / calls
    )
    values["shm.pipe_fallbacks"] = (
        _delta(transport_after, transport_before, "fallback_encoding")
        + _delta(transport_after, transport_before, "fallback_capacity")
    ) / calls
    busy = untraced.get("busy_s")
    if busy:
        values["sharding.worker_busy_max_s"] = max(busy) / calls
        values["sharding.worker_busy_sum_s"] = sum(busy) / calls
        # Modeled pps (packets over the busiest worker's CPU time, as
        # ``repro replay`` reports it) over wall pps, both untraced.
        values["sharding.modeled_vs_wall"] = _ratio(
            untraced["wall_s"], max(busy)
        )
    else:
        values["sharding.worker_busy_max_s"] = 0.0
        values["sharding.worker_busy_sum_s"] = 0.0
        values["sharding.modeled_vs_wall"] = 0.0
    values["trace.residual_frac"] = _ratio(
        read("call", "self_s"), traced["wall_s"]
    )
    values["trace.overhead_frac"] = 1.0 - _ratio(
        traced["pps"], untraced["pps"]
    )
    return values
