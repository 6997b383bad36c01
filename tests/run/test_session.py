"""Session layer: dispatch, uniform assembly, durable identity.

* ``Session(spec).run()`` dispatches to each engine's one public entry
  point and reproduces, from a declarative spec, the result and trace of
  calling that entry point directly;
* a durable run launched from a spec stores
  ``config_hash(spec.durable_identity())`` as its run-dir identity, and
  ``repro resume`` accepts that run dir.
"""

from __future__ import annotations

import dataclasses
import io
import json

import numpy as np
import pytest

from repro.core.two_stage import run_two_stage
from repro.distributed.faults import CrashFault, FaultSchedule
from repro.distributed.network import LossyNetwork
from repro.distributed.protocol import run_distributed_matching
from repro.dynamic.generator import DynamicMarketGenerator
from repro.dynamic.online import OnlineMatcher, RematchStrategy
from repro.engine.registry import solve as registry_solve
from repro.errors import SpecError
from repro.ioutil import config_hash
from repro.obs import JsonlEventSink, Recorder, use_recorder
from repro.run.session import Session, build_market, build_recorder
from repro.run.spec import (
    DurabilitySpec,
    EngineSpec,
    FaultSpec,
    MarketSpec,
    RunSpec,
    TelemetrySpec,
    WorkloadSpec,
)
from repro.runtime.durable import run_durable
from repro.trace.diff import diff_traces
from repro.trace.reader import load_events
from repro.workloads.scenarios import (
    paper_simulation_market,
    toy_example_market,
)


def _market(buyers=12, sellers=3, seed=5):
    return paper_simulation_market(
        buyers, sellers, np.random.default_rng(seed)
    )


def _record(fn) -> str:
    """Run ``fn`` under an event-recording recorder; return the JSONL."""
    buffer = io.StringIO()
    recorder = Recorder(events=JsonlEventSink(buffer))
    with recorder, use_recorder(recorder):
        fn()
    return buffer.getvalue()


def _session_trace(spec: RunSpec) -> str:
    """Run ``spec`` through a Session with an injected recorder."""
    buffer = io.StringIO()
    recorder = Recorder(events=JsonlEventSink(buffer))
    with recorder:
        Session(spec, recorder=recorder).run()
    return buffer.getvalue()


def _untimed(trace: str):
    """The events of ``trace`` without their wall/cpu timings."""
    return [
        {key: value for key, value in json.loads(line).items()
         if not key.endswith("_s")}
        for line in trace.splitlines()
    ]


class TestEntryPointEquivalence:
    """A spec run by Session and the engine's own entry point called by
    hand: identical event streams and results."""

    def test_run_two_stage(self):
        spec = RunSpec(command="toy", market=MarketSpec(scenario="toy"))
        direct = _record(lambda: run_two_stage(toy_example_market()))
        assert _session_trace(spec) == direct and direct

    def test_run_distributed_matching_with_faults(self):
        # Loss and a crash: Session assembles the lossy network, the
        # reliable transport and the fault schedule from the spec.
        spec = RunSpec(
            command="chaos",
            market=MarketSpec(buyers=10, sellers=3, seed=3),
            engine=EngineSpec(name="distributed", options={"policy": "default"}),
            faults=FaultSpec(loss=0.1, crashes=("buyer:2@6-12",)),
        )
        direct = _record(
            lambda: run_distributed_matching(
                _market(10, 3, 3),
                network=LossyNetwork(0.1),
                reliable_transport=True,
                seed=3,
                fault_schedule=FaultSchedule(
                    crashes=[CrashFault.parse("buyer:2@6-12")]
                ),
            )
        )
        assert _session_trace(spec) == direct and direct

    def test_online_matcher_run(self):
        workload = WorkloadSpec(
            epochs=4,
            arrival_rate=3.0,
            departure_prob=0.1,
            drift=0.05,
            strategy="warm",
        )
        spec = RunSpec(
            command="dynamic",
            market=MarketSpec(buyers=10, sellers=3, seed=3, workload=workload),
            engine=EngineSpec(name="dynamic"),
        )
        epochs = DynamicMarketGenerator(
            num_channels=3,
            initial_buyers=10,
            arrival_rate=3.0,
            departure_prob=0.1,
            drift_sigma=0.05,
            rng=np.random.default_rng(3),
        ).epochs(4)
        direct = _record(
            lambda: OnlineMatcher(RematchStrategy.WARM).run(epochs)
        )
        assert _session_trace(spec) == direct and direct

    def test_registry_solve(self):
        spec = RunSpec(
            command="solve",
            market=MarketSpec(buyers=12, sellers=3, seed=5),
            engine=EngineSpec(name="two_stage"),
        )
        direct = _record(lambda: registry_solve("two_stage", _market()))
        # Solve events carry wall/cpu timings; the rest must match.
        assert _untimed(_session_trace(spec)) == _untimed(direct) and direct

    def _durable_pair(self, tmp_path, spec: RunSpec):
        def at(name):
            return dataclasses.replace(
                spec,
                durability=dataclasses.replace(
                    spec.durability, checkpoint_dir=str(tmp_path / name)
                ),
            )

        direct = run_durable(at("direct"))
        via_session = Session(at("session")).run()
        assert via_session == direct
        diff = diff_traces(
            load_events(str(tmp_path / "direct" / "trace.jsonl")),
            load_events(str(tmp_path / "session" / "trace.jsonl")),
        )
        assert not diff.diverged

    def test_run_durable_dynamic(self, tmp_path):
        workload = WorkloadSpec(
            epochs=4,
            arrival_rate=3.0,
            departure_prob=0.1,
            drift=0.05,
            strategy="warm",
        )
        self._durable_pair(
            tmp_path,
            RunSpec(
                command="dynamic",
                market=MarketSpec(
                    buyers=10, sellers=3, seed=11, workload=workload
                ),
                engine=EngineSpec(name="dynamic"),
                durability=DurabilitySpec(checkpoint_every=2),
            ),
        )

    def test_run_durable_chaos(self, tmp_path):
        self._durable_pair(
            tmp_path,
            RunSpec(
                command="chaos",
                market=MarketSpec(buyers=8, sellers=3, seed=2),
                engine=EngineSpec(
                    name="distributed", options={"policy": "default"}
                ),
                faults=FaultSpec(crashes=("buyer:1@4-9",)),
                durability=DurabilitySpec(checkpoint_every=3),
            ),
        )

    def test_benchmark_alias_is_the_entry_point(self):
        # benchmarks/e2e/worker.py imports this name from the Session module.
        from repro.run.session import execute_two_stage

        assert execute_two_stage is run_two_stage


class TestSessionDispatch:
    def test_toy_returns_two_stage_result(self):
        result = Session(
            RunSpec(command="toy", market=MarketSpec(scenario="toy"))
        ).run()
        assert result.social_welfare == pytest.approx(30.0)

    def test_distributed_matches_direct_executor(self):
        spec = RunSpec(
            command="distributed",
            market=MarketSpec(buyers=12, sellers=3, seed=5),
            engine=EngineSpec(name="distributed", options={"policy": "default"}),
        )
        session_run = Session(spec).run()
        direct = run_distributed_matching(_market(), seed=5)
        assert session_run.matching == direct.matching
        assert session_run.slots == direct.slots

    def test_session_trace_matches_executor_trace(self):
        spec = RunSpec(
            command="distributed",
            market=MarketSpec(buyers=12, sellers=3, seed=5),
            engine=EngineSpec(name="distributed", options={"policy": "default"}),
        )
        # Session dispatch with an injected recorder emits the identical
        # stream a direct call of the engine does.
        buffer = io.StringIO()
        recorder = Recorder(events=JsonlEventSink(buffer))
        with recorder:
            Session(spec, recorder=recorder).run()
        direct = _record(lambda: run_distributed_matching(_market(), seed=5))
        assert buffer.getvalue() == direct and direct

    def test_dynamic_runs_both_strategies(self):
        spec = RunSpec(
            command="dynamic",
            market=MarketSpec(
                buyers=10,
                sellers=3,
                seed=3,
                workload=WorkloadSpec(epochs=4, strategy="both"),
            ),
        )
        results = Session(spec).run()
        assert set(results) == {RematchStrategy.WARM, RematchStrategy.COLD}
        assert all(len(outcomes) == 4 for outcomes in results.values())

    def test_solve_returns_report(self):
        spec = RunSpec(
            command="solve",
            market=MarketSpec(buyers=8, sellers=3, seed=1),
            engine=EngineSpec(name="greedy"),
        )
        report = Session(spec).run()
        assert report.solver == "greedy"

    def test_policy_both_rejected_for_single_session(self):
        spec = RunSpec(
            command="distributed",
            market=MarketSpec(buyers=8, sellers=3),
            engine=EngineSpec(name="distributed", options={"policy": "both"}),
        )
        with pytest.raises(SpecError, match="single policy"):
            Session(spec).run()

    def test_report_command_is_cli_only(self):
        with pytest.raises(SpecError, match="CLI-only"):
            Session(RunSpec(command="report")).run()

    def test_invalid_spec_rejected_at_construction(self):
        with pytest.raises(SpecError):
            Session(RunSpec(command="dynamic"))  # no workload


class TestUniformAssembly:
    def test_build_market_scenarios(self):
        toy = build_market(MarketSpec(scenario="toy"))
        assert toy.num_buyers == 5 and toy.num_channels == 3
        paper = build_market(MarketSpec(buyers=9, sellers=4, seed=2))
        assert paper.num_buyers == 9 and paper.num_channels == 4

    def test_default_telemetry_yields_null_recorder(self):
        recorder = build_recorder(TelemetrySpec())
        assert not recorder.enabled

    def test_trace_telemetry_writes_manifest(self, tmp_path):
        import json

        trace = tmp_path / "t.jsonl"
        spec = RunSpec(command="toy", market=MarketSpec(scenario="toy"))
        recorder = build_recorder(
            TelemetrySpec(trace_out=str(trace)),
            seed=spec.market.seed,
            config=spec.to_dict(),
        )
        with recorder, use_recorder(recorder):
            run_two_stage(build_market(spec.market))
        lines = trace.read_text().splitlines()
        manifest = json.loads(lines[0])
        assert manifest["event"] == "manifest"
        assert manifest["config"]["command"] == "toy"


class TestDurableSpecIdentity:
    def _durable_spec(self, tmp_path):
        return RunSpec(
            command="dynamic",
            market=MarketSpec(
                buyers=10,
                sellers=3,
                seed=4,
                workload=WorkloadSpec(epochs=4, strategy="warm"),
            ),
            durability=DurabilitySpec(
                checkpoint_dir=str(tmp_path / "run"), checkpoint_every=2
            ),
        )

    def test_run_dir_hash_is_spec_identity_hash(self, tmp_path):
        from repro.runtime import CheckpointStore

        spec = self._durable_spec(tmp_path)
        Session(spec).run()
        store = CheckpointStore.open(spec.durability.checkpoint_dir)
        assert store.config_hash == config_hash(spec.durable_identity())

    def test_resume_accepts_spec_shaped_run_dir(self, tmp_path):
        from repro.runtime import resume_run

        spec = self._durable_spec(tmp_path)
        fresh = Session(spec).run()
        resumed = resume_run(spec.durability.checkpoint_dir)
        assert resumed == fresh

    def test_equivalent_spec_different_telemetry_same_identity(self, tmp_path):
        from repro.runtime import CheckpointStore

        spec = self._durable_spec(tmp_path)
        Session(spec).run()
        store = CheckpointStore.open(spec.durability.checkpoint_dir)
        loud = RunSpec.from_dict(
            {
                **spec.to_dict(),
                "telemetry": TelemetrySpec(metrics=True).to_dict(),
                "durability": DurabilitySpec(
                    checkpoint_dir="somewhere-else",
                    checkpoint_every=spec.durability.checkpoint_every,
                ).to_dict(),
            }
        )
        assert store.config_hash == config_hash(loud.durable_identity())
