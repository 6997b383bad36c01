"""Every spec run builds its market inside a ``market.build`` span.

A geometric market's interference map is built in an
``interference.build`` span nested under it.
"""

from __future__ import annotations

from repro.cli import main
from repro.obs import MetricsRegistry, Recorder, SpanTracer, use_recorder
from repro.obs.spans import span_parents
from repro.prof import load_profile
from repro.run.session import Session, build_market
from repro.run.spec import MarketSpec, ProfileSpec, RunSpec


def test_toy_metrics_list_market_build(capsys):
    assert main(["toy", "--metrics"]) == 0
    summary = capsys.readouterr().out.split("-- observability summary --")[1]
    assert "market.build" in summary


def test_toy_profile_lists_market_build(tmp_path):
    out = str(tmp_path / "prof")
    spec = RunSpec(
        command="toy",
        market=MarketSpec(scenario="toy"),
        profile=ProfileSpec(profile_out=out, memory=False),
    )
    Session(spec).run()
    names = [row["name"] for row in load_profile(out)["spans"]]
    assert "market.build" in names
    assert names[0] == "stage1.mwis"


def test_span_is_a_root_on_the_ambient_recorder():
    recorder = Recorder(metrics=MetricsRegistry(), spans=SpanTracer())
    with use_recorder(recorder):
        build_market(MarketSpec(buyers=6, sellers=2, seed=1))
    records = recorder.spans.records
    assert [(r.name, r.depth) for r in records] == [
        ("interference.build", 1), ("market.build", 0),
    ]
    assert span_parents([r.depth for r in records]) == [1, -1]


def test_session_lists_interference_build_under_market_build():
    recorder = Recorder(metrics=MetricsRegistry(), spans=SpanTracer())
    spec = RunSpec(command="solve", market=MarketSpec(buyers=12, sellers=3, seed=2))
    Session(spec, recorder=recorder).run()
    records = recorder.spans.records
    parents = span_parents([record.depth for record in records])
    (build,) = [
        index for index, record in enumerate(records)
        if record.name == "interference.build"
    ]
    assert records[parents[build]].name == "market.build"
