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
* :class:`DurabilitySpec` -- checkpoint directory, cadence and the
  supervised-retry policy;
* :class:`ParallelSpec` -- worker-pool sizing for sweeps.

The spec is *data*, not behaviour: ``to_json``/``from_json`` round-trip
byte-stably, :meth:`RunSpec.spec_hash` is key-order independent (it goes
through :func:`repro.ioutil.canonical_json`, the same function behind the
durable-run config hash), and unknown or future fields are rejected with
a :class:`~repro.errors.SpecError` naming the offending key -- mirroring
the trace manifest's future-schema rejection.  That makes a serialized
spec safe to store in run-dir manifests (resume compatibility becomes a
spec-equality check) and to accept over the wire.

Execution lives in :mod:`repro.run.session`.
"""

from __future__ import annotations

import dataclasses
import json
import warnings
from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional, Tuple

from repro.errors import SpecError
from repro.ioutil import canonical_json, config_hash

__all__ = [
    "SPEC_SCHEMA_VERSION",
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


def _field_names(cls) -> Tuple[str, ...]:
    return tuple(f.name for f in dataclasses.fields(cls))


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
# Sub-specs
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class WorkloadSpec:
    """Epoch-stream parameters of a dynamic (evolving-market) run."""

    epochs: int = 12
    arrival_rate: float = 5.0
    departure_prob: float = 0.12
    drift: float = 0.05
    strategy: str = "both"

    def to_dict(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, payload: Any, section: str = "workload"):
        _require_mapping(section, payload)
        _reject_unknown(section, payload, _field_names(cls))
        return cls(**payload)

    def validate(self, section: str = "workload") -> None:
        _check_int(section, "epochs", self.epochs, minimum=1)
        _check_number(section, "arrival_rate", self.arrival_rate, lo=0.0)
        _check_number(
            section, "departure_prob", self.departure_prob, lo=0.0, hi=1.0
        )
        _check_number(section, "drift", self.drift, lo=0.0)
        _check_choice(section, "strategy", self.strategy, _STRATEGIES)


@dataclass(frozen=True)
class MarketSpec:
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

    def to_dict(self) -> Dict[str, Any]:
        return {
            "scenario": self.scenario,
            "buyers": self.buyers,
            "sellers": self.sellers,
            "seed": self.seed,
            "workload": (
                None if self.workload is None else self.workload.to_dict()
            ),
        }

    @classmethod
    def from_dict(cls, payload: Any, section: str = "market"):
        _require_mapping(section, payload)
        _reject_unknown(section, payload, _field_names(cls))
        kwargs = dict(payload)
        workload = kwargs.get("workload")
        if workload is not None:
            kwargs["workload"] = WorkloadSpec.from_dict(
                workload, section=f"{section}.workload"
            )
        return cls(**kwargs)

    def validate(self, section: str = "market") -> None:
        _check_choice(section, "scenario", self.scenario, _SCENARIOS)
        _check_int(section, "buyers", self.buyers, minimum=1)
        _check_int(section, "sellers", self.sellers, minimum=1)
        _check_int(section, "seed", self.seed)
        if self.workload is not None:
            self.workload.validate(section=f"{section}.workload")


@dataclass(frozen=True)
class EngineSpec:
    """Which execution engine runs the market, plus its options.

    ``name`` is a solver-registry name (``two_stage``, ``greedy``,
    ``branch_and_bound``, ...) or a run-family name the Session layer
    understands directly (``distributed``, ``dynamic``, ``swaps``,
    ``figure``, ``report``).  ``options`` is the engine-specific config
    mapping, passed through verbatim (the same dict a registry solver's
    ``solve(config=...)`` receives).
    """

    name: str = "two_stage"
    options: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        return {"name": self.name, "options": dict(self.options)}

    @classmethod
    def from_dict(cls, payload: Any, section: str = "engine"):
        _require_mapping(section, payload)
        _reject_unknown(section, payload, _field_names(cls))
        kwargs = dict(payload)
        options = kwargs.get("options")
        if options is not None:
            _require_mapping(f"{section}.options", options)
        return cls(**kwargs)

    def validate(self, section: str = "engine") -> None:
        if not isinstance(self.name, str) or not self.name:
            raise SpecError(
                f"{section}.name: expected a non-empty string, "
                f"got {self.name!r}"
            )

    @classmethod
    def from_use_bruteforce(
        cls,
        use_bruteforce: Optional[bool],
        solver: Optional[str] = None,
        default: str = "branch_and_bound",
        stacklevel: int = 3,
    ) -> "EngineSpec":
        """Fold the deprecated ``use_bruteforce=`` flag into an engine.

        The one blessed translation of the legacy boolean: ``True`` means
        the ``bruteforce`` backend, ``False`` means ``default``, and a
        conflicting explicit ``solver=`` raises.  Passing the flag at all
        (either value) emits a single :class:`DeprecationWarning`.
        """
        if use_bruteforce is not None:
            warnings.warn(
                "use_bruteforce= is deprecated; pass solver='bruteforce' or "
                "solver='branch_and_bound' instead",
                DeprecationWarning,
                stacklevel=stacklevel,
            )
            mapped = "bruteforce" if use_bruteforce else default
            if solver is not None and solver != mapped:
                raise SpecError(
                    f"conflicting benchmark selection: solver={solver!r} vs "
                    f"use_bruteforce={use_bruteforce!r} "
                    f"(which means {mapped!r})"
                )
            return cls(name=mapped)
        return cls(name=solver if solver is not None else default)


@dataclass(frozen=True)
class FaultSpec:
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

    def to_dict(self) -> Dict[str, Any]:
        return {
            "loss": self.loss,
            "crashes": list(self.crashes),
            "partitions": list(self.partitions),
            "deadline_slots": self.deadline_slots,
            "on_timeout": self.on_timeout,
        }

    @classmethod
    def from_dict(cls, payload: Any, section: str = "faults"):
        _require_mapping(section, payload)
        _reject_unknown(section, payload, _field_names(cls))
        kwargs = dict(payload)
        for name in ("crashes", "partitions"):
            if name in kwargs:
                kwargs[name] = _str_tuple(section, name, kwargs[name])
        return cls(**kwargs)

    def validate(self, section: str = "faults") -> None:
        _check_number(section, "loss", self.loss, lo=0.0, hi=1.0)
        _check_choice(section, "on_timeout", self.on_timeout, _TIMEOUT_MODES)
        if self.deadline_slots is not None:
            _check_int(
                section, "deadline_slots", self.deadline_slots, minimum=1
            )

    @property
    def empty(self) -> bool:
        """Whether the spec describes a fault-free run."""
        return (
            not self.crashes
            and not self.partitions
            and self.loss == 0.0
            and self.deadline_slots is None
        )

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
class TelemetrySpec:
    """Observability wiring: trace sink, metrics, live serving, SLOs."""

    trace_out: Optional[str] = None
    trace_flush_every: int = 1
    metrics: bool = False
    metrics_out: Optional[str] = None
    serve_metrics: Optional[str] = None
    serve_hold: float = 0.0
    slo: Tuple[str, ...] = ()
    slo_policy: str = "warn"

    def to_dict(self) -> Dict[str, Any]:
        payload = dataclasses.asdict(self)
        payload["slo"] = list(self.slo)
        return payload

    @classmethod
    def from_dict(cls, payload: Any, section: str = "telemetry"):
        _require_mapping(section, payload)
        _reject_unknown(section, payload, _field_names(cls))
        kwargs = dict(payload)
        if "slo" in kwargs:
            kwargs["slo"] = _str_tuple(section, "slo", kwargs["slo"])
        return cls(**kwargs)

    def validate(self, section: str = "telemetry") -> None:
        _check_int(
            section, "trace_flush_every", self.trace_flush_every, minimum=1
        )
        _check_number(section, "serve_hold", self.serve_hold, lo=0.0)
        _check_choice(section, "slo_policy", self.slo_policy, _SLO_POLICIES)

    @classmethod
    def from_args(cls, args) -> "TelemetrySpec":
        """Build from a parsed argparse namespace (missing flags = defaults)."""
        return cls(
            trace_out=getattr(args, "trace_out", None),
            trace_flush_every=int(getattr(args, "trace_flush_every", 1)),
            metrics=bool(getattr(args, "metrics", False)),
            metrics_out=getattr(args, "metrics_out", None),
            serve_metrics=getattr(args, "serve_metrics", None),
            serve_hold=float(getattr(args, "serve_hold", 0.0)),
            slo=tuple(getattr(args, "slo", []) or []),
            slo_policy=str(getattr(args, "slo_policy", "warn")),
        )


@dataclass(frozen=True)
class ProfileSpec:
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

    def to_dict(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, payload: Any, section: str = "profile"):
        _require_mapping(section, payload)
        _reject_unknown(section, payload, _field_names(cls))
        return cls(**payload)

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

    @classmethod
    def from_args(cls, args) -> "ProfileSpec":
        """Build from a parsed argparse namespace (missing flags = defaults)."""
        return cls(profile_out=getattr(args, "profile_out", None))


@dataclass(frozen=True)
class DurabilitySpec:
    """Checkpointing cadence and the supervised-retry policy."""

    checkpoint_dir: Optional[str] = None
    checkpoint_every: int = 10
    inject_stall_after: Optional[int] = None
    max_retries: int = 3
    backoff_s: float = 0.5
    retry_seed: int = 0

    def to_dict(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, payload: Any, section: str = "durability"):
        _require_mapping(section, payload)
        _reject_unknown(section, payload, _field_names(cls))
        return cls(**payload)

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
        _check_int(section, "max_retries", self.max_retries, minimum=0)
        _check_number(section, "backoff_s", self.backoff_s, lo=0.0)
        _check_int(section, "retry_seed", self.retry_seed)


@dataclass(frozen=True)
class ParallelSpec:
    """Worker-pool sizing for figure sweeps (``jobs=0`` = all cores)."""

    jobs: Optional[int] = None

    def to_dict(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, payload: Any, section: str = "parallel"):
        _require_mapping(section, payload)
        _reject_unknown(section, payload, _field_names(cls))
        return cls(**payload)

    def validate(self, section: str = "parallel") -> None:
        if self.jobs is not None:
            _check_int(section, "jobs", self.jobs, minimum=0)


# ----------------------------------------------------------------------
# The composed run spec
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RunSpec:
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
        payload = {
            "schema": SPEC_SCHEMA_VERSION,
            "command": self.command,
            "market": self.market.to_dict(),
            "engine": self.engine.to_dict(),
            "faults": self.faults.to_dict(),
            "telemetry": self.telemetry.to_dict(),
            "durability": self.durability.to_dict(),
            "parallel": self.parallel.to_dict(),
        }
        # Emitted only when non-default: specs (and the trace manifests
        # that embed them) written before profiling existed stay
        # byte-identical to ones written by this build.
        if self.profile != ProfileSpec():
            payload["profile"] = self.profile.to_dict()
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
        known = ("schema",) + _field_names(cls)
        _reject_unknown("spec", payload, known)
        if "command" not in payload:
            raise SpecError("spec: missing required field 'command'")
        command = payload["command"]
        if not isinstance(command, str):
            raise SpecError(
                f"spec.command: expected a string, got {command!r}"
            )
        sections = {
            "market": MarketSpec,
            "engine": EngineSpec,
            "faults": FaultSpec,
            "telemetry": TelemetrySpec,
            "profile": ProfileSpec,
            "durability": DurabilitySpec,
            "parallel": ParallelSpec,
        }
        kwargs: Dict[str, Any] = {"command": command}
        for name, sub_cls in sections.items():
            if name in payload:
                kwargs[name] = sub_cls.from_dict(payload[name], section=name)
        return cls(**kwargs)

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
