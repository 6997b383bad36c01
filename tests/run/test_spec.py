"""RunSpec serialization contract: round trips, hashing, rejection.

The spec is the wire format of the run model (and, verbatim, the request
schema of the planned async gateway), so the tests pin the properties a
wire format needs: ``to_json`` -> ``from_json`` -> ``to_json`` is
byte-stable, the canonical hash ignores JSON key order, unknown and
future fields are rejected with actionable errors, and the durable
identity excludes everything that does not change the computation.
"""

from __future__ import annotations

import json

import pytest

from repro.errors import SpecError
from repro.ioutil import config_hash
from repro.run.spec import (
    RUN_COMMANDS,
    SPEC_SCHEMA_VERSION,
    DurabilitySpec,
    EngineSpec,
    FaultSpec,
    MarketSpec,
    ProfileSpec,
    RunSpec,
    TelemetrySpec,
    WorkloadSpec,
)


def _full_spec() -> RunSpec:
    """A spec exercising every sub-spec with non-default values."""
    return RunSpec(
        command="chaos",
        market=MarketSpec(buyers=10, sellers=3, seed=7),
        engine=EngineSpec(name="distributed", options={"policy": "adaptive"}),
        faults=FaultSpec(
            loss=0.1,
            crashes=("buyer:1@4-9",),
            partitions=("buyer:0|rest@5-20",),
            deadline_slots=200,
            on_timeout="degrade",
        ),
        telemetry=TelemetrySpec(
            trace_out="run.jsonl", metrics=True, slo=("drop_rate<0.5",)
        ),
        durability=DurabilitySpec(checkpoint_dir="rundir", checkpoint_every=3),
    )


class TestRoundTrip:
    def test_json_round_trip_is_byte_stable(self):
        for spec in (RunSpec(command="toy"), _full_spec()):
            once = spec.to_json()
            again = RunSpec.from_json(once).to_json()
            assert once == again
            # and the indented form round-trips through the same objects
            assert RunSpec.from_json(spec.to_json(indent=2)) == spec

    def test_round_trip_preserves_every_field(self):
        spec = _full_spec()
        assert RunSpec.from_json(spec.to_json()) == spec

    def test_to_dict_carries_schema_version(self):
        assert RunSpec(command="toy").to_dict()["schema"] == SPEC_SCHEMA_VERSION

    def test_workload_round_trips(self):
        spec = RunSpec(
            command="dynamic",
            market=MarketSpec(
                buyers=12,
                sellers=3,
                workload=WorkloadSpec(epochs=5, strategy="warm"),
            ),
        )
        back = RunSpec.from_json(spec.to_json())
        assert back.market.workload == spec.market.workload


class TestProfileSpec:
    def test_round_trips_through_run_spec(self):
        spec = RunSpec(
            command="toy",
            profile=ProfileSpec(profile_out="prof", memory=False, top=5),
        )
        back = RunSpec.from_json(spec.to_json())
        assert back.profile == spec.profile
        assert back == spec

    def test_default_profile_is_omitted_from_payload(self):
        # Specs (and the trace manifests embedding them) written before
        # profiling existed must stay byte-identical: the section only
        # appears when it is non-default.
        assert "profile" not in RunSpec(command="toy").to_dict()
        assert "profile" in RunSpec(
            command="toy", profile=ProfileSpec(profile_out="prof")
        ).to_dict()

    def test_unknown_profile_field_rejected(self):
        spec = RunSpec(command="toy", profile=ProfileSpec(profile_out="p"))
        payload = spec.to_dict()
        payload["profile"]["flamegraph"] = True
        with pytest.raises(SpecError, match="profile.*'flamegraph'"):
            RunSpec.from_dict(payload)

    def test_validate_rejects_bad_fields(self):
        with pytest.raises(SpecError, match="profile.profile_out"):
            ProfileSpec(profile_out=7).validate()
        with pytest.raises(SpecError, match="profile.top"):
            ProfileSpec(top=0).validate()

    def test_enabled_follows_profile_out(self):
        assert not ProfileSpec().enabled
        assert ProfileSpec(profile_out="prof").enabled

    def test_profiling_is_excluded_from_durable_identity(self):
        base = RunSpec(command="toy")
        profiled = RunSpec(
            command="toy", profile=ProfileSpec(profile_out="prof")
        )
        assert base.durable_identity() == profiled.durable_identity()


class TestSpecHash:
    def test_hash_is_key_order_independent(self):
        spec = _full_spec()
        payload = json.loads(spec.to_json())
        scrambled = json.dumps(payload, sort_keys=False, indent=3)
        # Re-parse from a differently-formatted document: identical hash.
        assert RunSpec.from_json(scrambled).spec_hash() == spec.spec_hash()
        assert config_hash(payload) == config_hash(
            json.loads(scrambled)
        )

    def test_hash_changes_with_content(self):
        base = _full_spec()
        changed = RunSpec.from_dict(
            {**base.to_dict(), "market": MarketSpec(seed=8).to_dict()}
        )
        assert changed.spec_hash() != base.spec_hash()

    def test_canonical_serialization_is_sorted_and_compact(self):
        canonical = _full_spec().canonical()
        assert ": " not in canonical and ", " not in canonical
        assert json.loads(canonical) == _full_spec().to_dict()


class TestRejection:
    def test_unknown_top_level_field(self):
        payload = RunSpec(command="toy").to_dict()
        payload["gateway"] = True
        with pytest.raises(SpecError, match="unknown field.*'gateway'"):
            RunSpec.from_dict(payload)

    def test_unknown_nested_field_names_section(self):
        payload = RunSpec(command="toy").to_dict()
        payload["market"]["latitude"] = 48.1
        with pytest.raises(SpecError, match="market.*'latitude'"):
            RunSpec.from_dict(payload)
        payload = RunSpec(command="toy").to_dict()
        payload["telemetry"]["verbose"] = True
        with pytest.raises(SpecError, match="telemetry.*'verbose'"):
            RunSpec.from_dict(payload)
        payload = RunSpec(command="toy").to_dict()
        payload["parallel"]["shm"] = True
        with pytest.raises(SpecError, match="parallel.*'shm'"):
            RunSpec.from_dict(payload)

    def test_error_lists_known_fields(self):
        payload = RunSpec(command="toy").to_dict()
        payload["market"]["sellerz"] = 2
        with pytest.raises(SpecError, match="known fields.*sellers"):
            RunSpec.from_dict(payload)

    def test_future_schema_rejected_with_upgrade_hint(self):
        payload = RunSpec(command="toy").to_dict()
        payload["schema"] = SPEC_SCHEMA_VERSION + 1
        with pytest.raises(SpecError, match="newer than this library"):
            RunSpec.from_dict(payload)

    def test_missing_schema_rejected(self):
        payload = RunSpec(command="toy").to_dict()
        del payload["schema"]
        with pytest.raises(SpecError, match="missing required field 'schema'"):
            RunSpec.from_dict(payload)

    def test_invalid_json_document(self):
        with pytest.raises(SpecError, match="not valid JSON"):
            RunSpec.from_json("{nope")


class TestValidate:
    def test_every_run_command_validates_with_defaults(self):
        for command in RUN_COMMANDS:
            spec = RunSpec(command=command)
            if command == "dynamic":
                spec = RunSpec(
                    command="dynamic",
                    market=MarketSpec(workload=WorkloadSpec()),
                )
            spec.validate()

    def test_unknown_command_rejected(self):
        with pytest.raises(SpecError, match="command"):
            RunSpec(command="teleport").validate()

    def test_dynamic_without_workload_rejected(self):
        with pytest.raises(SpecError, match="market.workload"):
            RunSpec(command="dynamic").validate()

    def test_durable_dynamic_needs_single_strategy(self):
        spec = RunSpec(
            command="dynamic",
            market=MarketSpec(workload=WorkloadSpec(strategy="both")),
            durability=DurabilitySpec(checkpoint_dir="d"),
        )
        with pytest.raises(SpecError, match="single strategy"):
            spec.validate()

    def test_stall_injection_requires_checkpoint_dir(self):
        with pytest.raises(SpecError, match="requires --checkpoint-dir"):
            DurabilitySpec(inject_stall_after=5).validate()

    def test_checkpoint_cadence_floor(self):
        with pytest.raises(SpecError, match="--checkpoint-every"):
            DurabilitySpec(checkpoint_dir="d", checkpoint_every=0).validate()


class TestDurableIdentity:
    def test_identity_excludes_operational_knobs(self):
        spec = _full_spec()
        twin = RunSpec.from_dict(spec.to_dict())
        # Everything that does not change the computation: where the
        # checkpoints live, the stall-injection test hook, telemetry and
        # parallelism.
        twin = RunSpec(
            command=twin.command,
            market=twin.market,
            engine=twin.engine,
            faults=twin.faults,
            telemetry=TelemetrySpec(metrics=True, trace_out="other.jsonl"),
            durability=DurabilitySpec(
                checkpoint_dir="elsewhere",
                checkpoint_every=spec.durability.checkpoint_every,
                inject_stall_after=3,
            ),
        )
        assert twin.durable_identity() == spec.durable_identity()
        assert config_hash(twin.durable_identity()) == config_hash(
            spec.durable_identity()
        )

    def test_identity_tracks_computation_changes(self):
        spec = _full_spec()
        changed = RunSpec(
            command=spec.command,
            market=MarketSpec(buyers=11, sellers=3, seed=7),
            engine=spec.engine,
            faults=spec.faults,
            durability=spec.durability,
        )
        assert config_hash(changed.durable_identity()) != config_hash(
            spec.durable_identity()
        )

    def test_checkpoint_cadence_is_part_of_identity(self):
        spec = _full_spec()
        changed = RunSpec(
            command=spec.command,
            market=spec.market,
            engine=spec.engine,
            faults=spec.faults,
            durability=DurabilitySpec(
                checkpoint_dir=spec.durability.checkpoint_dir,
                checkpoint_every=spec.durability.checkpoint_every + 1,
            ),
        )
        assert config_hash(changed.durable_identity()) != config_hash(
            spec.durable_identity()
        )
