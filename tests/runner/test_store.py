"""Result-store and serialisation round-trip tests."""

import json
import os

import pytest

from repro.runner import (
    AloneJob,
    ParallelRunner,
    PolicySpec,
    ResultStore,
    WorkloadJob,
    job_from_dict,
    policy_key,
)
from repro.sim.config import SystemConfig
from repro.sim.multi import run_workload
from repro.sim.results import SingleRunResult, WorkloadResult
from repro.sim.single import run_alone
from repro.trace.workloads import Workload

MIX = Workload("mini", ("lbm", "bzip", "deal", "omn"))


@pytest.fixture
def store(tmp_path) -> ResultStore:
    return ResultStore(tmp_path / "results")


class TestResultStore:
    def test_miss_returns_none(self, store):
        assert store.get("deadbeef") is None
        assert "deadbeef" not in store

    def test_put_get_round_trip(self, store):
        payload = {"schema": 1, "result": {"x": [1.5, 2.0]}}
        path = store.put("deadbeef", payload)
        assert path.is_file()
        assert store.get("deadbeef") == payload
        assert "deadbeef" in store
        assert list(store.keys()) == ["deadbeef"]
        assert len(store) == 1

    def test_corrupt_entry_is_a_miss(self, store):
        store.put("deadbeef", {"ok": True})
        store.path_for("deadbeef").write_text("{truncated")
        assert store.get("deadbeef") is None

    def test_keys_fan_out_by_prefix(self, store):
        store.put("aa111", {})
        store.put("bb222", {})
        assert store.path_for("aa111").parent.name == "aa"
        assert sorted(store.keys()) == ["aa111", "bb222"]

    def test_trace_sidecars_are_not_results(self, store):
        # Trace artifacts keep ``traces/<name>.meta.json`` sidecars under
        # the store root; the ``*/*.json`` layout must not count them.
        store.put("deadbeef", {"ok": True})
        sidecar = store.root / "traces" / "x.meta.json"
        sidecar.parent.mkdir(parents=True)
        sidecar.write_text("{}")
        assert list(store.keys()) == ["deadbeef"]
        assert len(store) == 1


class TestStoreEdgeCases:
    """Corruption, schema drift and crash-safety behave as cache misses."""

    def _workload_job(self, tiny_config) -> WorkloadJob:
        return WorkloadJob(
            workload_name=MIX.name,
            benchmarks=MIX.benchmarks,
            config=tiny_config,
            policy="lru",
            quota=200,
            warmup=0,
            master_seed=0,
        )

    @pytest.mark.parametrize(
        "blob",
        ["", "{truncated", "\x00\x01binary", "[1, 2", "null"],
        ids=["empty", "truncated", "binary", "half-array", "json-null"],
    )
    def test_damaged_entries_are_misses(self, store, blob):
        store.put("deadbeef", {"schema": 1})
        store.path_for("deadbeef").write_text(blob, errors="ignore")
        assert store.get("deadbeef") is None

    def test_unreadable_entry_is_a_miss(self, store, monkeypatch):
        store.put("deadbeef", {"schema": 1})

        def boom(*args, **kwargs):
            raise OSError("I/O error")

        monkeypatch.setattr("pathlib.Path.open", boom)
        assert store.get("deadbeef") is None

    def test_runner_treats_schema_mismatch_as_miss(self, store, tiny_config):
        """A payload from an older (or newer) encoding is re-simulated."""
        job = self._workload_job(tiny_config)
        key = job.cache_key()
        runner = ParallelRunner(jobs=1, store=store)
        result = runner.run_one(job)
        assert (runner.stats["store_hits"], runner.stats["executed"]) == (0, 1)
        # Warm hit with the current schema.
        assert ParallelRunner(jobs=1, store=store).run_one(job) == result
        # Now age the stored schema: the entry must be ignored, the job
        # re-simulated and the entry rewritten at the current version.
        payload = store.get(key)
        payload["schema"] = payload["schema"] + 1
        store.put(key, payload)
        rerun_runner = ParallelRunner(jobs=1, store=store)
        rerun = rerun_runner.run_one(job)
        assert (
            rerun_runner.stats["store_hits"],
            rerun_runner.stats["executed"],
        ) == (0, 1)
        assert rerun == result
        assert store.get(key)["schema"] == payload["schema"] - 1

    def test_runner_treats_result_shape_drift_as_miss(self, store, tiny_config):
        job = self._workload_job(tiny_config)
        key = job.cache_key()
        ParallelRunner(jobs=1, store=store).run_one(job)
        payload = store.get(key)
        del payload["result"]
        store.put(key, payload)
        runner = ParallelRunner(jobs=1, store=store)
        runner.run_one(job)
        assert runner.stats["executed"] == 1

    def test_crashed_write_leaves_no_partial_entry(self, store, monkeypatch):
        """A crash mid-serialisation must leave neither the entry nor tmp
        litter behind — the atomic-write contract."""
        store.put("deadbeef", {"schema": 1, "result": "old"})
        original = json.dump

        def crashing_dump(obj, fh, **kwargs):
            fh.write('{"schema": 1, "result": "par')  # partial bytes land
            raise RuntimeError("simulated crash mid-write")

        monkeypatch.setattr("repro.runner.store.json.dump", crashing_dump)
        with pytest.raises(RuntimeError, match="simulated crash"):
            store.put("deadbeef", {"schema": 1, "result": "new"})
        monkeypatch.setattr("repro.runner.store.json.dump", original)
        # The previous entry survives intact and no temp files linger.
        assert store.get("deadbeef") == {"schema": 1, "result": "old"}
        leftovers = [
            name
            for name in os.listdir(store.path_for("deadbeef").parent)
            if name != "deadbeef.json"
        ]
        assert leftovers == []

    def test_crashed_first_write_is_still_a_miss(self, store, monkeypatch):
        def crashing_dump(obj, fh, **kwargs):
            raise RuntimeError("simulated crash mid-write")

        monkeypatch.setattr("repro.runner.store.json.dump", crashing_dump)
        with pytest.raises(RuntimeError):
            store.put("cafebabe", {"schema": 1})
        monkeypatch.undo()
        assert store.get("cafebabe") is None
        assert "cafebabe" not in store
        assert list(store.keys()) == []


class TestConfigSerialisation:
    def test_round_trip(self, tiny_config):
        clone = SystemConfig.from_dict(tiny_config.to_dict())
        assert clone == tiny_config

    def test_json_safe(self, tiny_config):
        json.dumps(tiny_config.to_dict())


class TestResultSerialisation:
    def test_workload_result_round_trip(self, tiny_config):
        result = run_workload(MIX, tiny_config, "lru", quota=800, warmup=200)
        clone = WorkloadResult.from_dict(json.loads(json.dumps(result.to_dict())))
        assert clone == result
        assert clone.ipcs == result.ipcs

    def test_single_result_round_trip(self, tiny_config):
        result = run_alone("lbm", tiny_config, quota=800, warmup=200, monitor=True)
        clone = SingleRunResult.from_dict(json.loads(json.dumps(result.to_dict())))
        assert clone == result


class TestPolicySpec:
    def test_canonical_kwargs(self):
        a = PolicySpec.of("tadrrip", forced_brrip_cores=[2, 0], leader_sets=64)
        b = PolicySpec.of("tadrrip", leader_sets=64, forced_brrip_cores=(0, 2))
        assert a == b
        assert a.key() == b.key()

    def test_round_trip(self):
        spec = PolicySpec.of("tadrrip", leader_sets=128, forced_brrip_cores=[1])
        clone = PolicySpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert clone == spec

    def test_build(self, tiny_config):
        policy = PolicySpec.of("tadrrip", leader_sets=64).build(tiny_config)
        assert policy.name == "tadrrip"

    def test_policy_key_plain_string(self):
        assert policy_key("lru") == "lru"
        assert "leader_sets" in policy_key(PolicySpec.of("tadrrip", leader_sets=64))


class TestJobs:
    def _job(self, tiny_config, **overrides) -> WorkloadJob:
        kwargs = dict(
            workload_name=MIX.name,
            benchmarks=MIX.benchmarks,
            config=tiny_config,
            policy="lru",
            quota=800,
            warmup=200,
            master_seed=0,
        )
        kwargs.update(overrides)
        return WorkloadJob(**kwargs)

    def test_workload_job_round_trip(self, tiny_config):
        job = self._job(tiny_config, policy=PolicySpec.of("tadrrip", leader_sets=64))
        clone = job_from_dict(json.loads(json.dumps(job.to_dict())))
        assert clone == job
        assert clone.cache_key() == job.cache_key()

    def test_alone_job_round_trip(self, tiny_config):
        job = AloneJob(
            benchmark="lbm",
            config=tiny_config,
            policy="tadrrip",
            quota=800,
            warmup=200,
            master_seed=3,
            monitor=True,
            monitor_all_sets=True,
        )
        clone = job_from_dict(json.loads(json.dumps(job.to_dict())))
        assert clone == job
        assert clone.cache_key() == job.cache_key()

    def test_cache_key_sensitivity(self, tiny_config):
        base = self._job(tiny_config)
        assert base.cache_key() == self._job(tiny_config).cache_key()
        assert base.cache_key() != self._job(tiny_config, master_seed=1).cache_key()
        assert base.cache_key() != self._job(tiny_config, policy="srrip").cache_key()
        assert base.cache_key() != self._job(tiny_config, quota=801).cache_key()
        other_config = tiny_config.with_llc(num_sets=32)
        assert base.cache_key() != self._job(other_config).cache_key()

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown job kind"):
            job_from_dict({"kind": "quantum"})

    def test_execute_matches_direct_run(self, tiny_config):
        job = self._job(tiny_config)
        direct = run_workload(MIX, tiny_config, "lru", quota=800, warmup=200)
        assert job.execute() == direct


class TestQueryApi:
    """The typed records()/query() layer the report + tracegc consume."""

    def _persist(self, store, job):
        result = job.execute()
        store.put(
            job.cache_key(),
            {
                "schema": 1,
                "kind": job.kind,
                "job": job.to_dict(),
                "result": result.to_dict(),
            },
        )
        return result

    def _workload_job(self, tiny_config, **overrides) -> WorkloadJob:
        kwargs = dict(
            workload_name=MIX.name,
            benchmarks=MIX.benchmarks,
            config=tiny_config,
            policy="lru",
            quota=200,
            warmup=0,
            master_seed=0,
        )
        kwargs.update(overrides)
        return WorkloadJob(**kwargs)

    def test_records_decode_jobs_and_results(self, store, tiny_config):
        job = self._workload_job(tiny_config)
        stored = self._persist(store, job)
        records = list(store.records())
        assert len(records) == 1
        record = records[0]
        assert record.key == job.cache_key()
        assert record.kind == "workload"
        assert record.policy == "lru"
        assert record.workload == MIX.name
        assert record.benchmarks == MIX.benchmarks
        assert record.seed == 0
        assert record.cores == tiny_config.num_cores
        assert record.result() == stored

    def test_records_skip_schema_drift_and_junk(self, store, tiny_config):
        self._persist(store, self._workload_job(tiny_config))
        store.put("aa001", {"schema": 999, "kind": "workload", "job": {}})
        store.put("bb002", {"schema": 1, "kind": "quantum", "job": {"kind": "quantum"}})
        store.put("cc003", {"no": "schema"})
        assert len(store) == 4
        assert len(list(store.records())) == 1

    def test_entries_hold_results_and_failures_in_key_order(self, store, tiny_config):
        self._persist(store, self._workload_job(tiny_config))
        failed = self._workload_job(tiny_config, policy="srrip")
        store.put(
            failed.cache_key(),
            {
                "schema": 1,
                "kind": "failure",
                "job": failed.to_dict(),
                "failure": {"kind": "crash", "attempts": 2},
            },
        )
        store.put("aa001", {"schema": 999, "kind": "failure", "failure": {}})
        done = self._workload_job(tiny_config).cache_key()
        keys = [e["key"] if isinstance(e, dict) else e.key for e in store.entries()]
        assert keys == sorted([failed.cache_key(), done])
        # records() and failures() are the two halves of that one pass.
        assert [r.key for r in store.records()] == [done]
        (failure,) = store.failures()
        assert failure["key"] == failed.cache_key()
        assert failure["kind"] == "crash"
        assert failure["job"] == failed.to_dict()

    def test_query_filters(self, store, tiny_config):
        self._persist(store, self._workload_job(tiny_config))
        self._persist(store, self._workload_job(tiny_config, policy="srrip"))
        self._persist(store, self._workload_job(tiny_config, master_seed=1))
        alone = AloneJob(
            benchmark="lbm",
            config=tiny_config.with_cores(1),
            policy="lru",
            quota=200,
            warmup=0,
            master_seed=0,
        )
        self._persist(store, alone)

        assert len(list(store.query())) == 4
        assert len(list(store.query(kind="workload"))) == 3
        assert len(list(store.query(kind="alone"))) == 1
        assert len(list(store.query(policy="srrip"))) == 1
        assert len(list(store.query(policy="lru", seed=0))) == 2
        assert len(list(store.query(cores=1))) == 1
        by_name = list(store.query(config_name=tiny_config.name))
        assert len(by_name) == 3
        # Alone records expose their benchmark as the workload name.
        assert next(store.query(kind="alone")).workload == "lbm"
        assert list(store.query(workload="nope")) == []

    def test_query_labels_parameterised_policies(self, store, tiny_config):
        spec = PolicySpec.of("tadrrip", leader_sets=64)
        self._persist(store, self._workload_job(tiny_config, policy=spec))
        record = next(store.query(kind="workload"))
        assert record.policy == policy_key(spec)
        assert record.job.policy == spec
