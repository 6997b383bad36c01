"""The Session layer: the one way a :class:`RunSpec` becomes a running engine.

Every entry point -- ``Session(spec).run()``, every CLI command (``repro
run`` and ``repro profile run`` included) and the durable runtime, fresh
and resumed -- executes through this module:

* the ``build_*`` functions (plus
  :meth:`~repro.run.spec.FaultSpec.build_schedule`) are the only
  spec-to-engine assembly: market, recorder, transition policy, the
  arguments of a §IV run and dynamic generator;
* :class:`RunLifecycle` is the one run lifecycle -- SLO engine,
  telemetry server, profiler, final SLO verdict, ``serve_hold``,
  ``metrics_out`` -- shared by :meth:`Session.run` and the CLI;
* :class:`Session` validates a spec (an option or a section its command
  does not read is a :class:`~repro.errors.SpecError`) and
  :meth:`Session.execute` dispatches it to the engine's one public
  entry point, in the engine's own module
  (:func:`~repro.core.two_stage.run_two_stage`,
  :func:`~repro.distributed.protocol.run_distributed_matching`,
  :meth:`~repro.dynamic.online.OnlineMatcher.run`,
  :func:`~repro.engine.registry.solve`,
  :func:`~repro.runtime.durable.run_durable`), returning the canonical
  result object (``TwoStageResult``, ``DistributedResult``,
  ``SolveReport``, epoch outcomes, or the durable result dict).

Durable runs store :meth:`RunSpec.durable_identity` as their manifest
config, so the run directory's ``config_hash`` is the hash of the spec's
canonical serialization -- resume compatibility is a spec-equality check.
"""

from __future__ import annotations

import contextlib
import time
from typing import Any, Callable, Dict, Optional

import numpy as np

from repro.core.two_stage import run_two_stage
from repro.distributed.protocol import (
    DEFAULT_MAX_SLOTS,
    run_distributed_matching,
)
from repro.distributed.transition import NAMED_POLICIES
from repro.engine import registry
from repro.errors import ObservabilityError, SpecError
from repro.ioutil import atomic_write_text
from repro.obs import (
    JsonlEventSink,
    MetricsRegistry,
    Recorder,
    RunRegistry,
    SpanTracer,
    build_manifest,
    use_recorder,
)
from repro.obs.recorder import get_recorder
from repro.run.spec import (
    POLICIES,
    MarketSpec,
    ProfileSpec,
    RunSpec,
    TelemetrySpec,
)

__all__ = [
    "Session",
    "RunLifecycle",
    "build_market",
    "build_recorder",
    "build_profiler",
    "build_slo_engine",
    "start_telemetry_server",
    "build_policy",
    "build_distributed_args",
    "build_generator",
]

#: The benchmark worker (``benchmarks/e2e/worker.py``) imports this name;
#: it goes when the benchmark calls ``run_two_stage`` itself.
execute_two_stage = run_two_stage


# ----------------------------------------------------------------------
# Uniform assembly: the only spec-to-engine builders
# ----------------------------------------------------------------------
def build_market(spec: MarketSpec):
    """Materialise a :class:`MarketSpec` into a live market instance.

    The build runs in a ``market.build`` span on the ambient recorder (a
    no-op on the null recorder).
    """
    from repro.workloads.scenarios import (
        counterexample_market,
        paper_simulation_market,
        toy_example_market,
    )

    with get_recorder().span("market.build"):
        if spec.scenario == "toy":
            return toy_example_market()
        if spec.scenario == "counterexample":
            return counterexample_market()
        if spec.scenario == "paper":
            return paper_simulation_market(
                spec.buyers, spec.sellers, np.random.default_rng(spec.seed)
            )
    raise SpecError(f"market.scenario: unknown scenario {spec.scenario!r}")


def build_policy(name: str):
    """The transition policy named by ``engine.options.policy``.

    ``"both"`` names a comparison, not a policy: the CLI's
    ``distributed`` command expands it into one run per policy.
    """
    if name == "both":
        raise SpecError(
            "engine.options.policy: a Session runs a single policy; "
            "build one spec per policy for comparisons"
        )
    if name not in POLICIES:
        raise SpecError(
            "engine.options.policy: must be one of "
            + ", ".join(repr(policy) for policy in POLICIES)
            + f", got {name!r}"
        )
    return NAMED_POLICIES[name]()


def build_distributed_args(spec: RunSpec, policy=None) -> Dict[str, Any]:
    """The keywords a ``distributed`` or ``chaos`` spec passes to
    ``run_distributed_matching`` or ``build_distributed_simulation``.

    ``policy`` overrides ``engine.options.policy``.  Message loss means a
    lossy network behind the reliable (ARQ) transport.  The slot bound is
    ``faults.deadline_slots``, else ``DEFAULT_MAX_SLOTS``.
    """
    faults = spec.faults
    network, reliable = None, False
    if faults.loss > 0.0:
        from repro.distributed.network import LossyNetwork

        network, reliable = LossyNetwork(float(faults.loss)), True
    if policy is None:
        policy = build_policy(spec.engine.options.get("policy", "default"))
    bound = faults.deadline_slots
    return dict(
        policy=policy,
        network=network,
        seed=spec.market.seed,
        reliable_transport=reliable,
        fault_schedule=faults.build_schedule(),
        max_slots=DEFAULT_MAX_SLOTS if bound is None else bound,
        on_timeout=faults.on_timeout,
    )


def build_generator(market: MarketSpec):
    """The epoch-stream generator of a dynamic run's market and workload."""
    from repro.dynamic.generator import DynamicMarketGenerator

    workload = market.workload
    return DynamicMarketGenerator(
        num_channels=market.sellers,
        initial_buyers=market.buyers,
        arrival_rate=workload.arrival_rate,
        departure_prob=workload.departure_prob,
        drift_sigma=workload.drift,
        rng=np.random.default_rng(market.seed),
    )


def build_recorder(
    telemetry: TelemetrySpec,
    *,
    profile: Optional[ProfileSpec] = None,
    seed: Optional[int] = None,
    config: Optional[Dict[str, Any]] = None,
) -> Recorder:
    """Assemble a run's recorder from its telemetry (and profile) specs.

    ``trace_out`` turns on the event sink (with a manifest header carrying
    ``seed`` and ``config``) and span tracing; ``metrics``,
    ``metrics_out``, ``serve_metrics`` and ``slo`` all turn on the metrics
    registry; ``serve_metrics`` and ``slo`` additionally turn on the live
    run registry.  An enabled ``profile`` spec needs span records and a
    metrics registry to attribute against, so it turns both on -- but
    never an event sink, which is why profiling alone changes no trace
    byte.  An all-default spec returns the null recorder and the run
    executes exactly as without observability.
    """
    trace_out = telemetry.trace_out
    profiling = profile is not None and profile.enabled
    want_metrics = bool(
        telemetry.metrics
        or telemetry.metrics_out
        or telemetry.serve_metrics
        or telemetry.slo
        or profiling
    )
    want_runs = bool(telemetry.serve_metrics or telemetry.slo)
    if trace_out is None and not want_metrics and not want_runs:
        return Recorder()
    events = None
    if trace_out is not None:
        events = JsonlEventSink(
            trace_out,
            manifest=build_manifest(seed=seed, config=config),
            flush_every=int(telemetry.trace_flush_every),
        )
    return Recorder(
        events=events,
        metrics=MetricsRegistry() if want_metrics else None,
        spans=(
            SpanTracer()
            if trace_out is not None or telemetry.metrics or profiling
            else None
        ),
        runs=RunRegistry() if want_runs else None,
    )


def build_profiler(
    profile: Optional[ProfileSpec],
    recorder: Recorder,
    meta: Optional[Dict[str, Any]] = None,
):
    """Instantiate the profiler (or ``None`` when the spec is disabled)."""
    if profile is None or not profile.enabled:
        return None
    from repro.prof import Profiler

    return Profiler(profile, recorder, meta=meta)


def build_slo_engine(telemetry: TelemetrySpec, recorder: Recorder):
    """Instantiate the SLO engine over ``recorder`` (or None).

    Raises :class:`~repro.errors.ObservabilityError` for malformed rules.
    """
    if not telemetry.slo:
        return None
    from repro.obs import SloEngine

    return SloEngine(
        list(telemetry.slo), recorder, policy=telemetry.slo_policy
    )


def start_telemetry_server(
    telemetry: TelemetrySpec, recorder: Recorder, engine=None
):
    """Start the live telemetry server (or return None when not asked for)."""
    if telemetry.serve_metrics is None:
        return None
    from repro.obs import TelemetryServer, parse_serve_address

    host, port = parse_serve_address(telemetry.serve_metrics)
    return TelemetryServer(
        recorder, host=host, port=port, slo_engine=engine
    ).start()


def _write_artifact(write: Callable[[], Any], what: str) -> None:
    try:
        write()
    except OSError as exc:
        raise ObservabilityError(f"{what}: {exc}") from exc


# ----------------------------------------------------------------------
# The run lifecycle
# ----------------------------------------------------------------------
class RunLifecycle:
    """One run's observability lifecycle, shared by Session and the CLI.

    Construction builds the SLO engine and starts the telemetry server;
    :meth:`run` starts the profiler, runs the body, stops the profiler,
    makes the final SLO evaluation (recorder still open, so
    ``slo.violated`` reaches the trace), writes the profile, waits out
    ``serve_hold``, stops the server and writes ``metrics_out``.  Each
    failure of those steps raises :class:`~repro.errors.ObservabilityError`
    with the CLI's error text.  Afterwards :attr:`slo_engine` and
    :attr:`slo_exit_code` carry the SLO verdict.
    """

    def __init__(
        self,
        telemetry: TelemetrySpec,
        recorder: Recorder,
        *,
        profile: Optional[ProfileSpec] = None,
        meta: Optional[Dict[str, Any]] = None,
        owns_recorder: bool = True,
    ) -> None:
        self.telemetry = telemetry
        self.recorder = recorder
        self.profile = profile
        self.meta = meta
        self.owns_recorder = owns_recorder
        self.server = None
        try:
            self.slo_engine = build_slo_engine(telemetry, recorder)
            try:
                self.server = start_telemetry_server(
                    telemetry, recorder, self.slo_engine
                )
            except (ObservabilityError, OSError) as exc:
                raise ObservabilityError(
                    f"cannot serve telemetry: {exc}"
                ) from exc
        except ObservabilityError:
            if owns_recorder:
                recorder.close()
            raise

    @property
    def slo_exit_code(self) -> int:
        """1 when a rule under ``slo_policy: fail`` was violated, else 0."""
        return 0 if self.slo_engine is None else self.slo_engine.exit_code()

    def run(self, body: Callable[[], Any]) -> Any:
        """Run ``body()`` inside the lifecycle and return its result."""
        telemetry = self.telemetry
        recorder = self.recorder
        profiler = build_profiler(self.profile, recorder, meta=self.meta)
        scope = recorder if self.owns_recorder else contextlib.nullcontext()
        try:
            if profiler is not None:
                profiler.start()
            with scope, use_recorder(recorder):
                result = body()
                if profiler is not None:
                    profiler.stop()
                if self.slo_engine is not None:
                    # Inside the recorder context, so slo.violated events
                    # reach the trace before it closes.
                    self.slo_engine.evaluate(final=True)
            if profiler is not None:
                _write_artifact(
                    profiler.write,
                    f"cannot write profile to {self.profile.profile_out!r}",
                )
        finally:
            if profiler is not None and profiler.payload is None:
                profiler.stop()  # the body raised: stop, write nothing
            if self.server is not None:
                if telemetry.serve_hold > 0:
                    time.sleep(float(telemetry.serve_hold))
                self.server.stop()
        if telemetry.metrics_out is not None:
            from repro.trace.export import to_openmetrics

            _write_artifact(
                lambda: atomic_write_text(
                    telemetry.metrics_out,
                    to_openmetrics(recorder.metrics.snapshot()),
                ),
                f"cannot write metrics file {telemetry.metrics_out!r}",
            )
        return result


# ----------------------------------------------------------------------
# The Session runner
# ----------------------------------------------------------------------
class Session:
    """Validate a :class:`RunSpec` and execute it through one pipeline.

    ``Session(spec).run()`` is the programmatic equivalent of the CLI:
    it validates the spec, assembles the recorder stack from
    ``spec.telemetry`` (unless a live ``recorder`` is injected), and runs
    :meth:`execute` inside the :class:`RunLifecycle` -- the same
    lifecycle, and the same dispatch, every CLI run command uses.
    :meth:`execute` builds the market and returns the canonical result
    object:

    ========================  ===========================================
    spec.command              return value of :meth:`run`
    ========================  ===========================================
    ``toy`` / ``counterexample``  :class:`~repro.core.two_stage.TwoStageResult`
    ``solve``                 :class:`~repro.engine.report.SolveReport`
    ``distributed`` / ``chaos``  :class:`~repro.distributed.protocol.DistributedResult`
                              (or the durable result dict when
                              ``durability.checkpoint_dir`` is set)
    ``swaps``                 :class:`~repro.core.swap_extension.StageThreeResult`
    ``dynamic``               ``{strategy: [EpochOutcome, ...]}`` (or the
                              durable result dict)
    ``fig6``/``fig7``/``fig8``  the figure's experiment rows
    ========================  ===========================================

    ``report`` is a CLI-only composite and is rejected with a
    :class:`~repro.errors.SpecError`.  After :meth:`run`,
    :attr:`lifecycle` carries the SLO verdict.

    Keyword overrides (``recorder``, ``market``) swap in pre-built
    components, as the CLI's ``distributed`` comparison does to run one
    spec per policy on one market and one trace; everything omitted is
    derived from the spec.
    """

    def __init__(
        self,
        spec: RunSpec,
        *,
        recorder: Optional[Recorder] = None,
        market=None,
    ) -> None:
        spec.validate()
        self.spec = spec
        self._market = market
        self._policy = None
        self._owns_recorder = recorder is None
        if recorder is None:
            recorder = build_recorder(
                spec.telemetry,
                profile=spec.profile,
                seed=spec.market.seed,
                config=spec.to_dict(),
            )
        self.recorder = recorder
        #: The lifecycle of the last :meth:`open` / :meth:`run`.
        self.lifecycle: Optional[RunLifecycle] = None

    # ------------------------------------------------------------------
    @property
    def market(self):
        """The spec's market, built lazily and cached."""
        if self._market is None:
            self._market = build_market(self.spec.market)
        return self._market

    @property
    def policy(self):
        """The distributed runs' transition policy, built lazily and cached."""
        if self._policy is None:
            self._policy = build_policy(
                self.spec.engine.options.get("policy", "default")
            )
        return self._policy

    @property
    def durable(self) -> bool:
        """Whether :meth:`execute` runs durably (WAL + checkpoints).

        ``durability.checkpoint_dir`` makes a ``distributed``, ``chaos``
        or ``dynamic`` run durable; :meth:`RunSpec.validate` refuses it
        in any other command's spec.
        """
        return self.spec.durability.durable

    # ------------------------------------------------------------------
    def open(self) -> RunLifecycle:
        """Start the spec's lifecycle (SLO engine, telemetry server)."""
        spec = self.spec
        self.lifecycle = RunLifecycle(
            spec.telemetry,
            self.recorder,
            profile=spec.profile,
            meta={"command": spec.command, "spec_hash": spec.spec_hash()},
            owns_recorder=self._owns_recorder,
        )
        return self.lifecycle

    def run(self):
        """Execute the spec inside its lifecycle; return the result."""
        return self.open().run(self.execute)

    def execute(self):
        """Dispatch the spec to its engine (no lifecycle of its own)."""
        command = self.spec.command
        if self.durable:
            return self._run_durable()
        if command in ("toy", "counterexample"):
            return run_two_stage(self.market)
        if command == "solve":
            return self._run_solve()
        if command in ("distributed", "chaos"):
            return self._run_distributed()
        if command == "swaps":
            return self._run_swaps()
        if command == "dynamic":
            return self._run_dynamic()
        if command in ("fig6", "fig7", "fig8"):
            return self._run_figure()
        raise SpecError(
            f"spec.command {command!r} has no Session dispatch "
            f"(the 'report' composite is CLI-only)"
        )

    def _run_solve(self):
        spec = self.spec
        options = dict(spec.engine.options)
        return registry.solve(
            spec.engine.name,
            self.market,
            recorder=self.recorder,
            config=options or None,
        )

    def _run_durable(self):
        from repro.runtime.durable import run_durable

        if self.spec.command != "dynamic":
            self.policy  # resolve now: a bad name fails before the run dir
        return run_durable(self.spec, recorder=self.recorder)

    def _run_distributed(self):
        return run_distributed_matching(
            self.market,
            recorder=self.recorder,
            **build_distributed_args(self.spec, self.policy),
        )

    def _run_swaps(self):
        from repro.core.swap_extension import coordinated_swaps

        result = run_two_stage(self.market, record_trace=False)
        return coordinated_swaps(self.market, result.matching)

    def _run_dynamic(self):
        from repro.dynamic.online import OnlineMatcher, RematchStrategy

        spec = self.spec
        workload = spec.market.workload
        strategies = (
            list(RematchStrategy)
            if workload.strategy == "both"
            else [RematchStrategy(workload.strategy)]
        )
        results = {}
        for strategy in strategies:
            generator = build_generator(spec.market)
            matcher = OnlineMatcher(strategy, recorder=self.recorder)
            results[strategy] = matcher.run(
                generator.epochs(workload.epochs)
            )
        return results

    def _run_figure(self):
        from repro.analysis.paper_figures import figure_spec, run_figure

        spec = self.spec
        options = spec.engine.options
        figure = int(spec.command[3])
        fig_spec = figure_spec(figure, options.get("panel", "a"))
        return run_figure(
            fig_spec,
            repetitions=options.get("repetitions"),
            seed=spec.market.seed,
            recorder=self.recorder,
            jobs=spec.parallel.jobs,
        )
