"""The Profiler end to end: Session runs, artifacts, off-by-default.

The contract under test is the tentpole's null-default guarantee --
attaching a profiler changes artifacts only inside ``--profile-out``,
never the run's trace or metrics when disabled -- plus the two
acceptance properties: ``stage1.mwis`` dominates a two-stage profile's
self time, and same-seed runs show zero deterministic-counter drift.
"""

from __future__ import annotations

import os

from repro.obs import MetricsRegistry, Recorder, use_recorder
from repro.prof import (
    PROFILE_COLLAPSED,
    PROFILE_JSON,
    PROFILE_SPEEDSCOPE,
    Profiler,
    diff_profiles,
    format_top,
    load_profile,
)
from repro.run.session import Session
from repro.run.spec import ProfileSpec, RunSpec


def _profiled_toy(tmp_path, name):
    out = str(tmp_path / name)
    spec = RunSpec(
        command="toy", profile=ProfileSpec(profile_out=out, memory=False)
    )
    Session(spec).run()
    return out


class TestSessionIntegration:
    def test_artifacts_written_and_parse(self, tmp_path, capsys):
        out = _profiled_toy(tmp_path, "prof")
        capsys.readouterr()
        for artifact in (PROFILE_JSON, PROFILE_COLLAPSED, PROFILE_SPEEDSCOPE):
            assert os.path.exists(os.path.join(out, artifact))
        payload = load_profile(out)
        assert payload["meta"]["command"] == "toy"
        assert "spec_hash" in payload["meta"]
        assert payload["functions"]  # cProfile ran
        assert payload["allocs"] == []  # memory=False
        assert sum(payload["counters"].values()) > 0

    def test_mwis_is_the_dominant_phase(self, tmp_path, capsys):
        payload = load_profile(_profiled_toy(tmp_path, "prof"))
        capsys.readouterr()
        top = format_top(payload, limit=3, section="spans")
        assert "stage1.mwis" in top[1]  # first data row = most self time
        assert payload["spans"][0]["name"] == "stage1.mwis"

    def test_same_seed_runs_have_zero_counter_drift(self, tmp_path, capsys):
        first = load_profile(_profiled_toy(tmp_path, "a"))
        second = load_profile(_profiled_toy(tmp_path, "b"))
        capsys.readouterr()
        assert diff_profiles(first, second)["counter_drift"] == []


class TestNullDefault:
    def test_unprofiled_metrics_never_see_cost_counters(self, capsys):
        # Kernels accumulate into their module dicts unconditionally,
        # but nothing reaches the metrics registry unless the profiler
        # flushes -- the profiling-off byte-identity guarantee.
        spec = RunSpec(command="toy")
        registry = MetricsRegistry()
        Session(spec, recorder=Recorder(metrics=registry)).run()
        capsys.readouterr()
        counters = registry.snapshot()["counters"]
        assert counters  # the run itself recorded ordinary metrics
        assert not [name for name in counters if name.endswith("_ops")]

    def test_disabled_spec_builds_no_profiler(self):
        from repro.run.session import build_profiler

        assert build_profiler(None, Recorder()) is None
        assert build_profiler(ProfileSpec(), Recorder()) is None


class TestProfilerUnit:
    def test_context_manager_writes_on_clean_exit(self, tmp_path):
        out = str(tmp_path / "ctx")
        from repro.obs.spans import SpanTracer

        spec = ProfileSpec(profile_out=out, cprofile=False, memory=False)
        registry = MetricsRegistry()
        recorder = Recorder(metrics=registry, spans=SpanTracer())
        with Profiler(spec, recorder):
            with use_recorder(recorder):
                with recorder.span("work"):
                    pass
        payload = load_profile(out)
        assert payload["functions"] == [] and payload["allocs"] == []
        assert [row["name"] for row in payload["spans"]] == ["work"]

    def test_stop_flushes_counters_into_metrics(self):
        registry = MetricsRegistry()
        recorder = Recorder(metrics=registry)
        profiler = Profiler(
            ProfileSpec(profile_out="unused", cprofile=False, memory=False),
            recorder,
        )
        profiler.start()
        from repro.core.soa import COST_COUNTERS

        COST_COUNTERS["soa.pick_ops"] += 3
        profiler.stop()
        assert profiler.payload["counters"]["soa.pick_ops"] == 3
        assert registry.snapshot()["counters"]["soa.pick_ops"] == 3
