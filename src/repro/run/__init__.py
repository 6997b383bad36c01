"""One run model: declarative specs plus the Session execution layer.

``repro.run`` is the single front door for executing anything in this
repo.  A :class:`RunSpec` is a frozen, JSON-round-trippable description
of a run -- market, engine, faults, telemetry, durability, parallelism --
and :class:`Session` validates it, assembles the observability and
durability stacks uniformly, and dispatches to the right execution
engine.  Each engine has one name, in its own module
(``run_two_stage``, ``run_distributed_matching``, ``OnlineMatcher.run``,
``registry.solve``, ``runtime.durable.run_durable``), and :class:`Session`
calls it.
"""

from repro.run.spec import (
    RUN_COMMANDS,
    SPEC_SCHEMA_VERSION,
    DurabilitySpec,
    EngineSpec,
    FaultSpec,
    MarketSpec,
    ParallelSpec,
    RunSpec,
    TelemetrySpec,
    WorkloadSpec,
)
from repro.run.session import (
    Session,
    build_market,
    build_recorder,
    build_slo_engine,
    start_telemetry_server,
)

__all__ = [
    "SPEC_SCHEMA_VERSION",
    "RUN_COMMANDS",
    "WorkloadSpec",
    "MarketSpec",
    "EngineSpec",
    "FaultSpec",
    "TelemetrySpec",
    "DurabilitySpec",
    "ParallelSpec",
    "RunSpec",
    "Session",
    "build_market",
    "build_recorder",
    "build_slo_engine",
    "start_telemetry_server",
]
