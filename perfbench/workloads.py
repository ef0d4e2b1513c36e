"""The benchmark's three workloads, driven through the public API only.

Each workload's ``setup`` builds the program, computes the static plan
(``Pipeleon(target).optimize(program)``, as ``repro serve`` deploys),
constructs the deployment, fleet or controller, installs the base
entries and makes one untimed warm-up call that compiles the tiers.
The returned :class:`Instance` then answers one closed-loop *call* at a
time: a ``replay()`` of freshly generated packets, or one controller
``scenario_tick()``. Packet generation happens inside the call.

All randomness derives from the benchmark seed: the warm-up stream, the
call stream and the scenario are re-created from it on every set-up,
so two set-ups with one seed see identical inputs.
"""

from __future__ import annotations

import random
from typing import Iterator, Optional

TARGET = "bluefield2"
ZIPF_SKEW = 1.2
SHARDED_WORKERS = 2


def derive_seed(seed: int, part: str) -> int:
    """A stable sub-seed for one input stream of one benchmark seed."""
    return random.Random(f"perfbench:{seed}:{part}").randrange(2**31)


def _static(app: str):
    from repro.apps import EXAMPLE_APPS
    from repro.core import Pipeleon
    from repro.nic.targets import get_target

    build, install = EXAMPLE_APPS[app]
    target = get_target(TARGET)
    program = build()
    plan = Pipeleon(target).optimize(program)
    return target, program, plan, install


class Instance:
    """One set-up workload; ``call()`` runs one timed call."""

    #: Packets offered per call.
    packets: int = 0
    #: A timed phase stops only after a whole number of these rounds.
    period: int = 1

    def call(self):
        """Run one call; returns ``(packets_sent, RunStats)``."""
        raise NotImplementedError

    def check_value(self, stats) -> tuple:
        """What the verification pass compares for one call."""
        from repro.service.session import stats_payload

        return (stats_payload(stats)["fingerprint"],)

    def counters(self) -> dict:
        """Cumulative counters the program exports (columnar, transport)."""
        return {}

    def worker_busy_s(self) -> Optional[list]:
        """Per-shard worker CPU seconds of the last replay, if sharded."""
        return None

    def close(self) -> None:
        raise NotImplementedError


class _ReplayInstance(Instance):
    def __init__(self, deployment, flows, seed: int, packets: int):
        from repro.traffic.generator import TrafficGenerator

        self.deployment = deployment
        self.flows = flows
        self.packets = packets
        warmup = TrafficGenerator(seed=derive_seed(seed, "warmup"))
        self._replay(warmup)
        self.generator = TrafficGenerator(seed=derive_seed(seed, "calls"))

    def _replay(self, generator):
        packets = list(
            generator.stream(
                self.flows,
                self.packets,
                locality="zipf",
                zipf_skew=ZIPF_SKEW,
            )
        )
        return len(packets), self.deployment.replay(packets)

    def call(self):
        return self._replay(self.generator)

    def close(self) -> None:
        self.deployment.close()


class _ShardedInstance(_ReplayInstance):
    def counters(self) -> dict:
        emulator = self.deployment.emulator
        return {
            "columnar_packets": emulator.columnar_packets,
            "demotions": dict(emulator.columnar_demotions),
            "transport": dict(self.deployment.transport_stats()["totals"]),
        }

    def worker_busy_s(self) -> list:
        return list(self.deployment.emulator.worker_busy_s)


class _SingleInstance(_ReplayInstance):
    def counters(self) -> dict:
        emulator = self.deployment.emulator
        return {
            "columnar_packets": emulator.columnar_packets,
            "demotions": dict(emulator.columnar_demotions),
        }


def setup_sharded_hot(seed: int, engine: str = "auto") -> Instance:
    from repro.core.sharded import ShardedDeployment
    from repro.traffic.flows import synth_flows

    target, program, plan, install = _static("l2l3_acl")
    deployment = ShardedDeployment(
        program,
        target,
        n_workers=SHARDED_WORKERS,
        plan=plan,
        batch=256,
        transport="shm",
        engine=engine,
    )
    try:
        install(deployment.control_plane)
        return _ShardedInstance(deployment, synth_flows(80), seed, 2048)
    except BaseException:
        deployment.close()
        raise


def setup_longtail_cached(seed: int, engine: str = "auto") -> Instance:
    from repro.core import Deployment
    from repro.traffic.flows import synth_flows

    target, program, plan, install = _static("acl_chain")
    deployment = Deployment(program, target, plan=plan, engine=engine)
    try:
        install(deployment.control_plane)
        return _SingleInstance(deployment, synth_flows(20_000), seed, 512)
    except BaseException:
        deployment.close()
        raise


def _cycle(scenario) -> Iterator:
    """The scenario's ticks, restarted end to end if a run outlasts it."""
    offset = 0.0
    while True:
        for time_s, phase in scenario.ticks():
            yield offset + time_s, phase
        offset += scenario.total_duration_s


class _ControllerInstance(Instance):
    packets = 300

    def __init__(self, controller, scenario):
        self.controller = controller
        # One round is one whole scenario cycle (one tick is one
        # emulated second), so every run, on any host and at any
        # commit, holds the same mix of calm, storm and replan ticks.
        self.period = round(scenario.total_duration_s)
        if self.period % round(controller.options.profile_period_s):
            raise ValueError(
                "a scenario cycle must hold whole profile periods"
            )
        self._ticks = _cycle(scenario)
        controller.start_scenario()
        self.call()  # warm-up: the scenario's first tick

    def call(self):
        time_s, phase = next(self._ticks)
        _point, stats = self.controller.scenario_tick(
            time_s, phase, self.packets
        )
        return self.packets, stats

    def check_value(self, stats) -> tuple:
        from repro.core.controller import plan_signature

        plan = self.controller.current_plan
        signature = repr(plan_signature(plan)) if plan is not None else ""
        return super().check_value(stats) + (signature,)

    def close(self) -> None:
        self.controller.close()


def setup_adapt_storm(seed: int, engine: str = "auto") -> Instance:
    from repro.core.controller import PipeleonController
    from repro.traffic.scenarios import build_scenario

    target, program, plan, install = _static("acl_chain")
    controller = PipeleonController(
        program, target, baseline_plan=plan, jobs=1, engine=engine
    )
    try:
        install(controller.control_plane)
        # The library shape (calm 4 s, storm 6 s, settle 4 s) stretched
        # 2.5-fold: a 35-tick cycle of seven profile periods, restarted
        # end to end for as long as a run lasts (_cycle).
        scenario = build_scenario(
            "update_storm",
            seed=str(seed),
            calm_s=10.0,
            storm_s=15.0,
            settle_s=10.0,
        )
        return _ControllerInstance(controller, scenario)
    except BaseException:
        controller.close()
        raise


SETUPS = {
    "sharded_hot": setup_sharded_hot,
    "longtail_cached": setup_longtail_cached,
    "adapt_storm": setup_adapt_storm,
}

#: Workloads that run in this one process (no shard workers), whose
#: calls the benchmark moves from CPU to CPU (run.CpuRotation).
SINGLE_PROCESS = frozenset({"longtail_cached", "adapt_storm"})

#: Engine of the verification pass: the interpreter is the oracle for
#: the replay workloads. The controller always replays through the
#: interpreter, so ``adapt_storm`` checks that a second same-seed run
#: repeats every tick's plan signature and fingerprint.
VERIFY_ENGINE = {
    "sharded_hot": "interp",
    "longtail_cached": "interp",
    "adapt_storm": "auto",
}
