"""Tests for the kind/workload registries, synthetic traffic, and traces.

Covers the registry redesign (register/unregister round-trips, unknown
names, legacy kinds dispatching through the table unchanged), the result
store's identity (model fingerprint, plugin source digests, the replay
trace digest), the seeded traffic generators (determinism serially,
under ``--jobs`` workers, and through the service dedup path), and the
trace record/replay fidelity contract.
"""

import hashlib
import importlib.util
import json
import sys

import pytest

from repro.api import (
    ExperimentSpec,
    SpecError,
    SweepRunner,
    register_kind,
    run_point,
    traffic_sweep,
    unregister_kind,
)
from repro.api.kinds import available_kinds, kind_cacheable, kind_spec
from repro.apps import (
    WorkloadError,
    available_workloads,
    create_workload,
    register_workload,
    unregister_workload,
    workload_names,
)
from repro.apps.workload import Workload
from repro.coherence.protocols import unregister_protocol
from repro.network.registry import unregister_fabric
from repro.ni import unregister_device
from repro.service import store as store_module
from repro.service.store import ResultStore, plugin_digests
from repro.trace import TraceError, read_trace, record_trace, trace_digest
from repro.trace.replay import TraceReplayWorkload

import repro.traffic  # noqa: F401 — register the shipped patterns

#: A small, fast traffic point used throughout.
TRAFFIC = dict(
    kind="traffic", device="CNI16Qm", bus="memory", workload="uniform",
    num_nodes=4, scale=0.25,
)

LEGACY_KINDS = ("latency", "bandwidth", "macro", "engine")


# ----------------------------------------------------------------------
# Kind registry
# ----------------------------------------------------------------------
class TestKindRegistry:
    def test_builtin_kinds_registered(self):
        for kind in LEGACY_KINDS + ("traffic", "replay"):
            assert kind in available_kinds()

    def test_unknown_kind_is_spec_error(self):
        with pytest.raises(SpecError, match="unknown experiment kind"):
            ExperimentSpec(kind="nope").validate()

    def test_register_unregister_round_trip(self):
        calls = []

        def measure(spec):
            calls.append(spec.kind)
            return {"cycles": 1.0}

        register_kind("custom-kind", measure, validate=lambda spec: None)
        try:
            assert "custom-kind" in available_kinds()
            spec = ExperimentSpec(kind="custom-kind", num_nodes=4).validate()
            result = run_point(spec)
            assert result.metrics["cycles"] == 1.0
            assert calls == ["custom-kind"]
        finally:
            unregister_kind("custom-kind")
        assert "custom-kind" not in available_kinds()
        with pytest.raises(SpecError):
            ExperimentSpec(kind="custom-kind").validate()

    def test_register_duplicate_requires_replace(self):
        register_kind("dup-kind", lambda spec: {})
        try:
            with pytest.raises(SpecError, match="already registered"):
                register_kind("dup-kind", lambda spec: {})
            register_kind("dup-kind", lambda spec: {"x": 1.0}, replace=True)
        finally:
            unregister_kind("dup-kind")

    def test_builtins_are_protected(self):
        with pytest.raises(SpecError, match="built-in"):
            unregister_kind("latency")
        with pytest.raises(SpecError):
            register_kind("macro", lambda spec: {}, replace=True)

    def test_unregister_unknown_kind(self):
        with pytest.raises(SpecError, match="unknown experiment kind"):
            unregister_kind("never-registered")

    def test_legacy_kinds_dispatch_through_table(self):
        # The if/elif chain is gone: each legacy kind resolves to a
        # KindSpec whose hooks drive validation and measurement.
        for kind in LEGACY_KINDS:
            info = kind_spec(kind)
            assert info.name == kind
            assert callable(info.measure)
        assert not kind_cacheable("engine")
        assert kind_cacheable("latency")

    def test_only_replay_folds_a_cache_token(self):
        # A trace is input data the model fingerprint cannot see; every
        # other built-in kind is keyed by spec hash and fingerprint alone.
        for kind in LEGACY_KINDS + ("traffic",):
            assert kind_spec(kind).cache_token is None
        assert kind_spec("replay").cache_token is not None


# ----------------------------------------------------------------------
# Workload registry
# ----------------------------------------------------------------------
class TestWorkloadRegistry:
    def test_paper_workloads_registered_with_tags(self):
        assert workload_names("macro") == ["spsolve", "gauss", "em3d", "moldyn", "appbt"]
        assert "hang" in workload_names("diagnostic")
        assert set(workload_names("traffic")) == {"uniform", "hotspot", "transpose", "bursty"}
        assert set(workload_names("fine-grain")) == {"allreduce", "halo", "psrpc", "kv"}
        assert "replay" in workload_names("trace")

    def test_tag_queries_track_registrations(self):
        snapshot = available_workloads("macro")
        snapshot["new"] = object  # a copy: the registry is untouched
        assert "new" not in workload_names("macro")

        @register_workload(tags=("macro",))
        class ExtraMacro(Workload):
            name = "extra-macro"

            def programs(self, machine):
                return [iter(()) for _ in machine.nodes]

        try:
            assert workload_names("macro")[-1] == "extra-macro"
        finally:
            unregister_workload("extra-macro")
        assert "extra-macro" not in workload_names("macro")

    def test_unknown_workload_names_nearest_match(self):
        with pytest.raises(WorkloadError, match="unifrom"):
            create_workload("unifrom")
        try:
            create_workload("unifrom")
        except WorkloadError as exc:
            assert "uniform" in str(exc)  # difflib hint points at the fix

    def test_traffic_spec_rejects_non_traffic_workload(self):
        with pytest.raises(SpecError, match="unknown traffic pattern"):
            ExperimentSpec(**{**TRAFFIC, "workload": "gauss"}).validate()

    def test_available_workloads_filters_by_tag(self):
        every = available_workloads()
        assert set(workload_names("traffic")) <= set(every)
        assert set(available_workloads(tag="traffic")) == set(workload_names("traffic"))


# ----------------------------------------------------------------------
# Result-store identity: model fingerprint, plugin digests, replay token
# ----------------------------------------------------------------------
#: One plugin of every registry, registered from a module outside repro.
PLUGIN_MODULE = """
from dataclasses import replace

from repro.api.kinds import register_kind
from repro.apps.registry import register_workload
from repro.apps.workload import Workload
from repro.coherence.protocols import protocol_spec, register_protocol
from repro.network.fabric import IdealFabric
from repro.network.registry import register_fabric
from repro.ni import NI2w, register_device

register_kind("plugkind", lambda spec: {"x": 1.0})


@register_workload("plugpattern", tags=("traffic",))
class PlugPattern(Workload):
    def programs(self, machine):
        return [iter(()) for _ in machine.nodes]


@register_device("PlugNI")
class PlugNI(NI2w):
    pass


@register_fabric("plugfab")
class PlugFabric(IdealFabric):
    pass


register_protocol(replace(protocol_spec("msi"), name="plugproto"))
"""

#: A spec naming each plugin (and nothing else outside repro).
PLUGIN_SPECS = {
    "kind": dict(kind="plugkind"),
    "workload": dict(TRAFFIC, workload="plugpattern"),
    "device": dict(kind="latency", device="PlugNI"),
    "fabric": dict(kind="latency", params={"fabric": "plugfab"}),
    "protocol": dict(kind="latency", params={"protocol": "plugproto"}),
}

LATENCY = dict(kind="latency", message_bytes=8, iterations=3, warmup=1)


@pytest.fixture()
def plugin_module(tmp_path):
    """Path of a loaded plugin module file; unregistered again afterwards."""
    path = tmp_path / "identity_plugins.py"
    path.write_text(PLUGIN_MODULE)
    loader_spec = importlib.util.spec_from_file_location("identity_plugins", str(path))
    module = importlib.util.module_from_spec(loader_spec)
    sys.modules["identity_plugins"] = module
    try:
        loader_spec.loader.exec_module(module)
        yield path
    finally:
        for undo, name in (
            (unregister_kind, "plugkind"),
            (unregister_workload, "plugpattern"),
            (unregister_device, "PlugNI"),
            (unregister_fabric, "plugfab"),
            (unregister_protocol, "plugproto"),
        ):
            try:
                undo(name)
            except ValueError:
                pass  # the module failed before registering this plugin
        sys.modules.pop("identity_plugins", None)


class TestSchemaVersionCache:
    def test_schema_bump_invalidates_traffic_keys_only(self, tmp_path, plugin_module):
        """Editing a traffic pattern's module changes the keys of specs that
        name it; a latency spec's key does not move."""
        store = ResultStore(str(tmp_path / "store"))
        traffic = ExperimentSpec(**PLUGIN_SPECS["workload"])
        legacy = ExperimentSpec(**LATENCY)
        traffic_key = store.cache_key(traffic)
        legacy_key = store.cache_key(legacy)
        with open(plugin_module, "a") as handle:
            handle.write("# retuned pattern\n")
        assert store.cache_key(traffic) != traffic_key
        assert store.cache_key(legacy) == legacy_key

    @pytest.mark.parametrize("registry", sorted(PLUGIN_SPECS))
    def test_editing_a_plugin_module_changes_its_keys(self, tmp_path, plugin_module, registry):
        store = ResultStore(str(tmp_path / "store"))
        spec = ExperimentSpec(**PLUGIN_SPECS[registry])
        digest = hashlib.sha256(plugin_module.read_bytes()).hexdigest()
        assert plugin_digests(spec) == [digest]
        key = store.cache_key(spec)
        assert store.cache_key(spec) == key  # stable while the file is
        with open(plugin_module, "a") as handle:
            handle.write("# edited\n")
        assert store.cache_key(spec) != key

    def test_builtin_keys_are_spec_hash_and_fingerprint(self, tmp_path):
        store = ResultStore(str(tmp_path))
        for spec in (ExperimentSpec(**LATENCY), ExperimentSpec(**TRAFFIC)):
            assert plugin_digests(spec) == []
            expected = f"{spec.spec_hash()}:{store_module.model_fingerprint()}"
            assert store.cache_key(spec) == hashlib.sha256(expected.encode()).hexdigest()

    def test_stale_schema_stamp_entry_is_a_miss(self, tmp_path, monkeypatch):
        cache_dir = str(tmp_path / "cache")
        spec = ExperimentSpec(**TRAFFIC).validate()
        runner = SweepRunner(cache_dir=cache_dir)
        first = runner.run_one(spec)
        assert SweepRunner(cache_dir=cache_dir).run_one(spec).cached
        monkeypatch.setattr(store_module, "model_fingerprint", lambda: "e" * 64)
        rerun = SweepRunner(cache_dir=cache_dir).run_one(spec)
        assert not rerun.cached  # new fingerprint: old entry unreachable
        assert rerun.metrics == first.metrics

    def test_replay_key_folds_trace_digest(self, tmp_path):
        trace_a = str(tmp_path / "a.json")
        trace_b = str(tmp_path / "b.json")
        base = ExperimentSpec(kind="macro", device="CNI16Qm", bus="memory",
                              workload="gauss", num_nodes=4, scale=0.25)
        record_trace(base, trace_a)
        record_trace(
            ExperimentSpec(kind="macro", device="CNI16Qm", bus="memory",
                           workload="em3d", num_nodes=4, scale=0.25),
            trace_b,
        )
        store = ResultStore(str(tmp_path / "cache"))
        key_a = store.cache_key(_replay_spec(trace_a))
        key_b = store.cache_key(_replay_spec(trace_b))
        assert key_a != key_b
        token = kind_spec("replay").cache_token(_replay_spec(trace_a))
        assert trace_digest(trace_a) in token


def _replay_spec(trace, **overrides):
    base = dict(kind="replay", device="CNI16Qm", bus="memory", workload="replay",
                num_nodes=4, workload_kwargs={"trace": trace})
    base.update(overrides)
    return ExperimentSpec(**base)


# ----------------------------------------------------------------------
# Seeded traffic determinism
# ----------------------------------------------------------------------
class TestTrafficDeterminism:
    def test_every_pattern_runs_and_reports_network_metrics(self):
        for pattern in workload_names("traffic") + workload_names("fine-grain"):
            spec = ExperimentSpec(**{**TRAFFIC, "workload": pattern}).validate()
            metrics = run_point(spec).metrics
            assert metrics["network_messages"] > 0, pattern
            assert metrics["messages_delivered"] == metrics["network_messages"]
            assert metrics["delivered_mbps"] > 0, pattern

    def test_serial_repeat_is_bit_identical(self):
        spec = ExperimentSpec(**TRAFFIC)
        assert run_point(spec).metrics == run_point(spec).metrics

    def test_seed_changes_uniform_traffic(self):
        base = run_point(ExperimentSpec(**TRAFFIC)).metrics
        other = run_point(
            ExperimentSpec(**{**TRAFFIC, "workload_kwargs": {"seed": 99}})
        ).metrics
        assert base["cycles"] != other["cycles"]

    def test_parallel_jobs_equal_serial(self):
        sweep = traffic_sweep(
            patterns=("uniform", "hotspot"),
            configs=(("CNI16Qm", "memory"), ("NI2w", "memory")),
            num_nodes=4,
            scale=0.25,
        )
        serial = SweepRunner(jobs=1).run(sweep)
        parallel = SweepRunner(jobs=2).run(sweep)
        assert parallel == serial

    def test_service_dedup_path_serves_identical_metrics(self, tmp_path):
        from repro.service.http import ExperimentService
        from repro.service.store import ResultStore

        service = ExperimentService(ResultStore(str(tmp_path / "store")))
        spec = ExperimentSpec(**TRAFFIC).validate()
        key_first, role_first = service.run_spec(spec)
        key_again, role_again = service.run_spec(spec)
        assert key_first == key_again
        assert role_first == "leader"
        assert role_again == "store"  # second call served from the store
        stored = service.store.get(spec)
        assert stored.metrics == run_point(spec).metrics


# ----------------------------------------------------------------------
# Trace record/replay
# ----------------------------------------------------------------------
class TestTraceRoundTrip:
    def _record(self, tmp_path, workload="gauss", **spec_kwargs):
        spec = ExperimentSpec(kind="macro", device="CNI16Qm", bus="memory",
                              workload=workload, num_nodes=4, scale=0.25,
                              **spec_kwargs)
        trace = str(tmp_path / f"{workload}.json.gz")
        return spec, trace, record_trace(spec, trace)

    def test_same_config_replay_is_exact(self, tmp_path):
        spec, trace, summary = self._record(tmp_path)
        metrics = run_point(_replay_spec(trace)).metrics
        assert metrics["network_messages"] == summary.messages
        assert metrics["payload_bytes"] == summary.payload_bytes
        assert metrics["trace_messages"] == summary.messages
        assert metrics["trace_payload_bytes"] == summary.payload_bytes

    def test_cross_device_replay_keeps_counts(self, tmp_path):
        _, trace, summary = self._record(tmp_path)
        for device, bus in (("NI2w", "memory"), ("CNI4Q", "memory")):
            metrics = run_point(_replay_spec(trace, device=device, bus=bus)).metrics
            assert metrics["network_messages"] == summary.messages
            assert metrics["payload_bytes"] == summary.payload_bytes

    def test_traffic_runs_are_recordable_too(self, tmp_path):
        spec = ExperimentSpec(**TRAFFIC).validate()
        trace = str(tmp_path / "uniform.json")
        summary = record_trace(spec, trace)
        assert summary.messages == run_point(spec).metrics["network_messages"]
        metrics = run_point(_replay_spec(trace)).metrics
        assert metrics["network_messages"] == summary.messages

    def test_recording_is_pure_observation(self, tmp_path):
        # A recorded run finishes in exactly the cycles an unrecorded one does.
        spec, trace, summary = self._record(tmp_path)
        assert summary.cycles == run_point(spec).metrics["cycles"]

    def test_trace_file_round_trips(self, tmp_path):
        _, trace, summary = self._record(tmp_path)
        header, events = read_trace(trace)
        assert header["messages"] == summary.messages == sum(len(s) for s in events)
        assert header["digest"] == summary.digest == trace_digest(trace)
        assert header["config"]["workload"] == "gauss"

    def test_tampered_trace_is_rejected(self, tmp_path):
        _, trace, _ = self._record(tmp_path, workload="em3d")
        import gzip

        document = json.loads(gzip.decompress(open(trace, "rb").read()))
        document["events"][0][0][2] += 1  # silently grow one payload
        with open(trace, "wb") as fh:
            fh.write(gzip.compress(json.dumps(document).encode()))
        with pytest.raises(TraceError, match="digest"):
            read_trace(trace)

    def test_replay_validates_node_count_and_pacing(self, tmp_path):
        _, trace, _ = self._record(tmp_path)
        with pytest.raises(SpecError, match="4 nodes"):
            _replay_spec(trace, num_nodes=8).validate()
        with pytest.raises(ValueError, match="pacing"):
            TraceReplayWorkload(trace=trace, pacing="warp")
        with pytest.raises(ValueError, match="trace"):
            TraceReplayWorkload()

    def test_replay_spec_requires_readable_trace(self, tmp_path):
        with pytest.raises(SpecError, match="trace"):
            _replay_spec(str(tmp_path / "missing.json")).validate()
        with pytest.raises(SpecError, match="trace"):
            ExperimentSpec(kind="replay", workload="replay", num_nodes=4).validate()

    def test_non_recordable_kind_is_rejected(self):
        with pytest.raises(SpecError, match="record"):
            record_trace(ExperimentSpec(kind="latency"), "/tmp/never-written.json")

    def test_asap_pacing_preserves_counts(self, tmp_path):
        _, trace, summary = self._record(tmp_path)
        spec = _replay_spec(trace, workload_kwargs={"trace": trace, "pacing": "asap"})
        metrics = run_point(spec).metrics
        assert metrics["network_messages"] == summary.messages
        assert metrics["payload_bytes"] == summary.payload_bytes
