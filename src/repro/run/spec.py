"""The declarative run model: one frozen, JSON-round-trippable ``RunSpec``.

Every way of executing a market run in this repo -- the two-stage
pipeline, the registry solvers, the Section IV message protocol with or
without chaos, online dynamic re-matching, durable checkpointed runs --
is described by the *same* value object: a :class:`RunSpec` composed of
orthogonal sub-specs.

* :class:`MarketSpec` -- which market (scenario, size, seed) and, for
  dynamic runs, the epoch-stream :class:`WorkloadSpec`;
* :class:`EngineSpec` -- which execution engine (a solver-registry name
  or a run family like ``distributed``) plus engine-specific options;
* :class:`FaultSpec` -- the declarative fault schedule (loss rate,
  crash/partition spec strings, deadline and timeout policy);
* :class:`TelemetrySpec` -- trace/metrics/serving/SLO wiring;
* :class:`ProfileSpec` -- the stdlib profiler harness (cProfile +
  tracemalloc) and deterministic kernel cost counters;
* :class:`DurabilitySpec` -- checkpoint directory and cadence;
* :class:`ParallelSpec` -- worker-pool sizing for sweeps.

The spec is *data*, not behaviour: every section shares one codec driven
by its dataclass fields, ``to_json``/``from_json`` round-trip
byte-stably, :meth:`RunSpec.spec_hash` is key-order independent (it goes
through :func:`repro.ioutil.canonical_json`, the same function behind the
durable-run config hash), and unknown or future fields are rejected with
a :class:`~repro.errors.SpecError` naming the offending key -- mirroring
the trace manifest's future-schema rejection.  That makes a serialized
spec safe to store in run-dir manifests (resume compatibility becomes a
spec-equality check) and to accept over the wire.  The CLI's flags
become a spec through the same strict :meth:`RunSpec.from_dict`.

Execution lives in :mod:`repro.run.session`.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import typing
from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional, Tuple, Union

from repro.distributed.transition import NAMED_POLICIES
from repro.errors import SimulationError, SolverError, SpecError
from repro.ioutil import canonical_json, config_hash

__all__ = [
    "SPEC_SCHEMA_VERSION",
    "POLICIES",
    "WorkloadSpec",
    "MarketSpec",
    "EngineSpec",
    "FaultSpec",
    "TelemetrySpec",
    "ProfileSpec",
    "DurabilitySpec",
    "ParallelSpec",
    "RunSpec",
]

#: Bump when the spec layout changes incompatibly.  A spec stamped with a
#: *newer* version than this build understands is rejected loudly (the
#: writer knows fields this reader would silently drop).
SPEC_SCHEMA_VERSION = 1

#: Commands a RunSpec can describe (the CLI's run subcommands).
RUN_COMMANDS = (
    "fig6",
    "fig7",
    "fig8",
    "toy",
    "counterexample",
    "distributed",
    "chaos",
    "swaps",
    "dynamic",
    "report",
    "solve",
)

#: The transition policies ``engine.options.policy`` names in ``chaos`` and
#: ``distributed`` runs; ``distributed`` also takes ``"both"``, which that
#: command expands into one run per policy.
POLICIES = tuple(NAMED_POLICIES)

#: The ``engine.options`` keys each command reads; a command not listed
#: reads none.  A ``solve`` spec's options are its solver's config,
#: checked by the solver (``check_config``).
_FIGURE_OPTIONS = ("panel", "repetitions", "csv", "json_out")
COMMAND_OPTIONS = {
    "fig6": _FIGURE_OPTIONS,
    "fig7": _FIGURE_OPTIONS,
    "fig8": _FIGURE_OPTIONS,
    "distributed": ("policy",),
    "chaos": ("policy",),
}

_SCENARIOS = ("paper", "toy", "counterexample")
_STRATEGIES = ("warm", "cold", "both")
_SLO_POLICIES = ("warn", "fail")
_TIMEOUT_MODES = ("raise", "degrade")


# ----------------------------------------------------------------------
# Strict-parsing helpers
# ----------------------------------------------------------------------
def _require_mapping(section: str, payload: Any) -> None:
    if not isinstance(payload, dict):
        raise SpecError(
            f"{section}: expected a JSON object, got {type(payload).__name__}"
        )


def _reject_unknown(section: str, payload: Mapping[str, Any], known) -> None:
    unknown = sorted(set(payload) - set(known))
    if unknown:
        raise SpecError(
            f"{section}: unknown field(s) "
            + ", ".join(repr(key) for key in unknown)
            + f"; known fields: {', '.join(known)}"
        )


def _str_tuple(section: str, name: str, value: Any) -> Tuple[str, ...]:
    if not isinstance(value, (list, tuple)):
        raise SpecError(
            f"{section}.{name}: expected a list of strings, "
            f"got {type(value).__name__}"
        )
    for item in value:
        if not isinstance(item, str):
            raise SpecError(
                f"{section}.{name}: expected a list of strings, "
                f"found {item!r}"
            )
    return tuple(value)


def _check_int(section: str, name: str, value: Any, minimum=None) -> None:
    if not isinstance(value, int) or isinstance(value, bool):
        raise SpecError(
            f"{section}.{name}: expected an integer, got {value!r}"
        )
    if minimum is not None and value < minimum:
        raise SpecError(
            f"{section}.{name}: must be >= {minimum}, got {value}"
        )


def _check_number(section: str, name: str, value: Any, lo=None, hi=None):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SpecError(f"{section}.{name}: expected a number, got {value!r}")
    if lo is not None and value < lo:
        raise SpecError(f"{section}.{name}: must be >= {lo}, got {value}")
    if hi is not None and value > hi:
        raise SpecError(f"{section}.{name}: must be <= {hi}, got {value}")


def _check_choice(section: str, name: str, value: Any, choices) -> None:
    if value not in choices:
        raise SpecError(
            f"{section}.{name}: must be one of "
            + ", ".join(repr(c) for c in choices)
            + f", got {value!r}"
        )


# ----------------------------------------------------------------------
# The codec every section shares
# ----------------------------------------------------------------------
@functools.lru_cache(maxsize=None)
def _fields(cls) -> Dict[str, Tuple[Any, bool]]:
    """``{name: (kind, optional)}`` for each dataclass field, in order.

    ``Optional[X]`` gives ``(X, True)``.  ``kind`` is ``tuple`` or
    ``dict`` for container fields, else the field's class.
    """
    hints = typing.get_type_hints(cls)
    kinds = {}
    for f in dataclasses.fields(cls):
        hint = hints[f.name]
        optional = typing.get_origin(hint) is Union
        if optional:
            hint = typing.get_args(hint)[0]
        kinds[f.name] = (typing.get_origin(hint) or hint, optional)
    return kinds


def _encode(value: Any) -> Any:
    if isinstance(value, _Section):
        return value.to_dict()
    if isinstance(value, tuple):
        return list(value)
    if isinstance(value, dict):
        return dict(value)
    return value


def _decode(section: str, name: str, kind: Any, optional: bool, value: Any):
    if value is None and optional:
        return None
    if kind is tuple:
        return _str_tuple(section, name, value)
    if kind is dict:
        _require_mapping(f"{section}.{name}", value)
    elif isinstance(kind, type) and issubclass(kind, _Section):
        return kind.from_dict(value, section=f"{section}.{name}")
    return value


class _Section:
    """The JSON codec every sub-spec shares, driven by its dataclass fields.

    ``to_dict`` emits the fields in declaration order, tuples as lists
    and sections as objects.  ``from_dict`` rejects unknown keys and
    checks list and object fields (``validate`` checks values).  A
    subclass names its section: ``MarketSpec(_Section, section="market")``.
    """

    def __init_subclass__(cls, section: str, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        cls._section = section

    def to_dict(self) -> Dict[str, Any]:
        return {
            name: _encode(getattr(self, name)) for name in _fields(type(self))
        }

    @classmethod
    def from_dict(cls, payload: Any, section: Optional[str] = None):
        section = section or cls._section
        _require_mapping(section, payload)
        kinds = _fields(cls)
        _reject_unknown(section, payload, kinds)
        return cls(**{
            name: _decode(section, name, *kinds[name], value)
            for name, value in payload.items()
        })


# ----------------------------------------------------------------------
# Sub-specs
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class WorkloadSpec(_Section, section="workload"):
    """Epoch-stream parameters of a dynamic (evolving-market) run."""

    epochs: int = 12
    arrival_rate: float = 5.0
    departure_prob: float = 0.12
    drift: float = 0.05
    strategy: str = "both"

    def validate(self, section: str = "workload") -> None:
        _check_int(section, "epochs", self.epochs, minimum=1)
        _check_number(section, "arrival_rate", self.arrival_rate, lo=0.0)
        _check_number(
            section, "departure_prob", self.departure_prob, lo=0.0, hi=1.0
        )
        _check_number(section, "drift", self.drift, lo=0.0)
        _check_choice(section, "strategy", self.strategy, _STRATEGIES)


@dataclass(frozen=True)
class MarketSpec(_Section, section="market"):
    """Which market the run executes on.

    ``scenario`` is ``"paper"`` (a random paper-workload market of
    ``buyers`` x ``sellers`` drawn from ``seed``), ``"toy"`` (the frozen
    Figs. 1-2 instance) or ``"counterexample"`` (the frozen Section III-D
    instance); the frozen scenarios ignore ``buyers``/``sellers``.
    ``workload`` is present only for dynamic runs.
    """

    scenario: str = "paper"
    buyers: int = 20
    sellers: int = 4
    seed: int = 0
    workload: Optional[WorkloadSpec] = None

    def validate(self, section: str = "market") -> None:
        _check_choice(section, "scenario", self.scenario, _SCENARIOS)
        _check_int(section, "buyers", self.buyers, minimum=1)
        _check_int(section, "sellers", self.sellers, minimum=1)
        _check_int(section, "seed", self.seed)
        if self.workload is not None:
            self.workload.validate(section=f"{section}.workload")


@dataclass(frozen=True)
class EngineSpec(_Section, section="engine"):
    """Which execution engine runs the market, plus its options.

    ``name`` is a solver-registry name (``two_stage``, ``greedy``,
    ``branch_and_bound``, ...) or a run-family name the Session layer
    understands directly (``distributed``, ``dynamic``, ``swaps``,
    ``figure``, ``report``).  ``options`` holds the keys the command
    reads (:data:`COMMAND_OPTIONS`) or, for ``solve``, the config the
    solver's ``solve(config=...)`` receives; :meth:`RunSpec.validate`
    refuses any other key.
    """

    name: str = "two_stage"
    options: Dict[str, Any] = field(default_factory=dict)

    def validate(self, section: str = "engine") -> None:
        if not isinstance(self.name, str) or not self.name:
            raise SpecError(
                f"{section}.name: expected a non-empty string, "
                f"got {self.name!r}"
            )


@dataclass(frozen=True)
class FaultSpec(_Section, section="faults"):
    """Declarative fault schedule for distributed runs.

    ``crashes`` and ``partitions`` hold the CLI fault-spec strings
    (``AGENT@CRASH[-RESTART][/MODE]``, ``G1|G2|...@START[-END]``) --
    the serialized form of
    :meth:`repro.distributed.faults.CrashFault.parse` /
    :meth:`~repro.distributed.faults.PartitionFault.parse`.
    """

    loss: float = 0.0
    crashes: Tuple[str, ...] = ()
    partitions: Tuple[str, ...] = ()
    deadline_slots: Optional[int] = None
    on_timeout: str = "degrade"

    def validate(self, section: str = "faults") -> None:
        _check_number(section, "loss", self.loss, lo=0.0, hi=1.0)
        _check_choice(section, "on_timeout", self.on_timeout, _TIMEOUT_MODES)
        if self.deadline_slots is not None:
            _check_int(
                section, "deadline_slots", self.deadline_slots, minimum=1
            )
        if self.crashes or self.partitions:
            from repro.distributed.faults import CrashFault, PartitionFault

            for name, parse in (
                ("crashes", CrashFault.parse),
                ("partitions", PartitionFault.parse),
            ):
                for index, text in enumerate(getattr(self, name)):
                    try:
                        parse(text)
                    except SimulationError as exc:
                        raise SpecError(
                            f"{section}.{name}[{index}]: {exc}"
                        ) from None
            try:  # each entry parses, but they may still clash
                self.build_schedule()
            except SimulationError as exc:
                raise SpecError(f"{section}: {exc}") from None

    def build_schedule(self):
        """Parse the spec strings into a live ``FaultSchedule`` (or None)."""
        from repro.distributed.faults import (
            CrashFault,
            FaultSchedule,
            PartitionFault,
        )

        schedule = FaultSchedule(
            crashes=[CrashFault.parse(s) for s in self.crashes],
            partitions=[PartitionFault.parse(s) for s in self.partitions],
        )
        return None if schedule.empty else schedule


@dataclass(frozen=True)
class TelemetrySpec(_Section, section="telemetry"):
    """Observability wiring: trace sink, metrics, live serving, SLOs."""

    trace_out: Optional[str] = None
    trace_flush_every: int = 1
    metrics: bool = False
    metrics_out: Optional[str] = None
    serve_metrics: Optional[str] = None
    serve_hold: float = 0.0
    slo: Tuple[str, ...] = ()
    slo_policy: str = "warn"

    def validate(self, section: str = "telemetry") -> None:
        _check_int(
            section, "trace_flush_every", self.trace_flush_every, minimum=1
        )
        _check_number(section, "serve_hold", self.serve_hold, lo=0.0)
        _check_choice(section, "slo_policy", self.slo_policy, _SLO_POLICIES)


@dataclass(frozen=True)
class ProfileSpec(_Section, section="profile"):
    """Profiling wiring: stdlib profiler drivers + cost counters.

    Null by default: with ``profile_out`` unset no profiler is
    installed, no deterministic cost counter is flushed, and a run is
    byte-identical (trace and metrics) to one executed before this spec
    existed.  With ``profile_out`` set, the run writes its attribution
    artifacts (``profile.json``, ``profile.collapsed``,
    ``profile.speedscope.json``) into that directory; ``cprofile`` and
    ``memory`` gate the two stdlib drivers individually.
    """

    profile_out: Optional[str] = None
    cprofile: bool = True
    memory: bool = True
    top: int = 20

    def validate(self, section: str = "profile") -> None:
        if self.profile_out is not None and not isinstance(
            self.profile_out, str
        ):
            raise SpecError(
                f"{section}.profile_out: expected a string path, "
                f"got {self.profile_out!r}"
            )
        _check_int(section, "top", self.top, minimum=1)

    @property
    def enabled(self) -> bool:
        """Whether the run profiles at all (the null-default gate)."""
        return self.profile_out is not None


@dataclass(frozen=True)
class DurabilitySpec(_Section, section="durability"):
    """Checkpoint directory and cadence (``repro supervise`` owns retries)."""

    checkpoint_dir: Optional[str] = None
    checkpoint_every: int = 10
    inject_stall_after: Optional[int] = None

    @property
    def durable(self) -> bool:
        return self.checkpoint_dir is not None

    def validate(self, section: str = "durability") -> None:
        if self.checkpoint_dir is None:
            if self.inject_stall_after is not None:
                raise SpecError(
                    "--inject-stall-after requires --checkpoint-dir"
                )
        else:
            if self.checkpoint_every < 1:
                raise SpecError("--checkpoint-every must be >= 1")


@dataclass(frozen=True)
class ParallelSpec(_Section, section="parallel"):
    """Worker-pool sizing for figure sweeps (``jobs=0`` = all cores)."""

    jobs: Optional[int] = None

    def validate(self, section: str = "parallel") -> None:
        if self.jobs is not None:
            _check_int(section, "jobs", self.jobs, minimum=0)


# ----------------------------------------------------------------------
# The composed run spec
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RunSpec(_Section, section="spec"):
    """One complete, self-contained description of a run.

    A frozen value object: hash it (:meth:`spec_hash`), serialize it
    (:meth:`to_json`), ship it, and the Session layer will execute the
    identical run anywhere.  See the module docstring for the sub-spec
    composition.
    """

    command: str
    market: MarketSpec = field(default_factory=MarketSpec)
    engine: EngineSpec = field(default_factory=EngineSpec)
    faults: FaultSpec = field(default_factory=FaultSpec)
    telemetry: TelemetrySpec = field(default_factory=TelemetrySpec)
    profile: ProfileSpec = field(default_factory=ProfileSpec)
    durability: DurabilitySpec = field(default_factory=DurabilitySpec)
    parallel: ParallelSpec = field(default_factory=ParallelSpec)

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        payload = {"schema": SPEC_SCHEMA_VERSION, **super().to_dict()}
        profile = payload.pop("profile")
        # Emitted last and only when non-default: specs (and the trace
        # manifests that embed them) written before profiling existed
        # stay byte-identical to ones written by this build.
        if self.profile != ProfileSpec():
            payload["profile"] = profile
        return payload

    @classmethod
    def from_dict(cls, payload: Any) -> "RunSpec":
        _require_mapping("spec", payload)
        version = payload.get("schema")
        if version is None:
            raise SpecError(
                "spec: missing required field 'schema' "
                f"(this build writes schema {SPEC_SCHEMA_VERSION})"
            )
        if not isinstance(version, int) or isinstance(version, bool):
            raise SpecError(
                f"spec: schema must be an integer, got {version!r}"
            )
        if version > SPEC_SCHEMA_VERSION:
            raise SpecError(
                f"spec schema {version} is newer than this library "
                f"understands (max {SPEC_SCHEMA_VERSION}); upgrade to run "
                f"this spec"
            )
        if version < 1:
            raise SpecError(f"spec: schema must be >= 1, got {version}")
        kinds = _fields(cls)
        _reject_unknown("spec", payload, ("schema", *kinds))
        if "command" not in payload:
            raise SpecError("spec: missing required field 'command'")
        command = payload["command"]
        if not isinstance(command, str):
            raise SpecError(
                f"spec.command: expected a string, got {command!r}"
            )
        return cls(command=command, **{
            name: kinds[name][0].from_dict(value, section=name)
            for name, value in payload.items()
            if name not in ("schema", "command")
        })

    def to_json(self, indent: Optional[int] = None) -> str:
        """Serialize deterministically (sorted keys; byte-stable round trip)."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "RunSpec":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise SpecError(f"spec is not valid JSON: {exc}") from exc
        return cls.from_dict(payload)

    def canonical(self) -> str:
        """The canonical (hash-input) serialization of this spec."""
        return canonical_json(self.to_dict())

    def spec_hash(self) -> str:
        """Stable short identity hash (canonical-JSON SHA-256[:16])."""
        return config_hash(self.to_dict())

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Raise :class:`~repro.errors.SpecError` on any invalid field."""
        _check_choice("spec", "command", self.command, RUN_COMMANDS)
        self.market.validate()
        self.engine.validate()
        self.faults.validate()
        self.telemetry.validate()
        self.profile.validate()
        self.durability.validate()
        self.parallel.validate()
        if self.command in ("chaos", "distributed"):
            policies = POLICIES
            if self.command == "distributed":
                policies += ("both",)
            _check_choice(
                "engine.options",
                "policy",
                self.engine.options.get("policy", "default"),
                policies,
            )
        if self.command == "solve":
            self._validate_solver()
        else:
            accepted = COMMAND_OPTIONS.get(self.command, ())
            unknown = sorted(set(self.engine.options) - set(accepted))
            if unknown:
                raise SpecError(
                    "engine.options: unknown option(s) "
                    + ", ".join(repr(key) for key in unknown)
                    + f" for command {self.command!r}; accepted: "
                    + (", ".join(accepted) or "none")
                )
        if self.command == "dynamic":
            if self.market.workload is None:
                raise SpecError(
                    "spec: a dynamic run needs market.workload "
                    "(epochs/arrival_rate/departure_prob/drift/strategy)"
                )
            if (
                self.durability.durable
                and self.market.workload.strategy == "both"
            ):
                raise SpecError(
                    "a durable dynamic run needs a single strategy "
                    "(--strategy warm|cold)"
                )

    def _validate_solver(self) -> None:
        """A ``solve`` spec names a registered solver that takes its options."""
        from repro.engine.registry import get_solver

        try:
            solver = get_solver(self.engine.name)
        except SolverError as exc:
            raise SpecError(f"engine.name: {exc}") from None
        # Solvers registered from outside need not declare a check.
        check = getattr(solver, "check_config", None)
        if check is not None:
            try:
                check(self.engine.options)
            except SolverError as exc:
                raise SpecError(f"engine.options: {exc}") from None

    # ------------------------------------------------------------------
    # Durable-run identity
    # ------------------------------------------------------------------
    def durable_identity(self) -> Dict[str, Any]:
        """The spec subset that *is* a durable run's identity.

        Stored as the run-dir manifest config, so the manifest's
        ``config_hash`` is keyed off the spec's canonical serialization
        and resume compatibility becomes a spec-equality check.
        Telemetry, profiling, parallelism, the checkpoint directory path
        and the stall-injection test hook are deliberately excluded: none of them
        changes what the run computes, so none of them may change its
        identity (a victim run with ``--inject-stall-after`` must resume
        into the same identity as its uninterrupted golden twin).
        """
        return {
            "spec_schema": SPEC_SCHEMA_VERSION,
            "command": self.command,
            "market": self.market.to_dict(),
            "engine": self.engine.to_dict(),
            "faults": self.faults.to_dict(),
            "checkpoint_every": self.durability.checkpoint_every,
        }
