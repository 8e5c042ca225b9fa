"""Which kernel runs a workload: the bundle it is handed, then the switch.

A run replays exactly when it is handed a capture bundle; without one it
runs the fused kernel, and ``REPRO_NO_FASTPATH`` — the one kernel switch
— pins the generic reference loop whatever the run was handed.  This
suite enumerates every (bundle, switch) combination through
:func:`repro.sim.multi.run_workload`, observes which kernel actually ran,
pins the switch's value semantics (any non-empty value sets it), and
checks that every resolution produces the identical result — including
the degraded routes (a foreign bundle, a damaged artifact).
"""

from __future__ import annotations

from itertools import product

import pytest

from repro.cpu import fastpath, replay
from repro.cpu.fastpath import fastpath_enabled
from repro.golden import golden_config
from repro.runner import WorkloadJob, replaystore
from repro.runner.replaystore import ReplayStore, cached_bundle
from repro.sim.multi import run_workload
from repro.trace.workloads import Workload

BENCHMARKS = ("mcf", "libq")
QUOTA, WARMUP = 300, 100

#: The bundle a run is handed: none, its own capture, or another seed's.
BUNDLES = ("none", "matching", "foreign")
COMBOS = list(product(BUNDLES, (False, True)))
COMBO_IDS = [f"{bundle}{'+NO_FASTPATH' if off else ''}" for bundle, off in COMBOS]


def _expected(bundle: str, no_fastpath: bool) -> str:
    if no_fastpath:
        return "generic"
    return "replay" if bundle == "matching" else "fast"


@pytest.fixture(autouse=True)
def _clean_env(monkeypatch):
    monkeypatch.delenv("REPRO_NO_FASTPATH", raising=False)
    replaystore._BUNDLES.clear()
    yield
    replaystore._BUNDLES.clear()


@pytest.fixture(scope="module")
def artifact(tmp_path_factory):
    """The seed-0 capture of the suite's workload, on disk."""
    store = ReplayStore(tmp_path_factory.mktemp("selection"))
    return str(store.materialise(BENCHMARKS, golden_config(), QUOTA, WARMUP, 0))


def _run(bundle=None, seed=0) -> dict:
    return run_workload(
        Workload("sel", BENCHMARKS),
        golden_config(),
        "tadrrip",
        quota=QUOTA,
        warmup=WARMUP,
        master_seed=seed,
        bundle=bundle,
    ).to_dict()


def _kernel_spy(monkeypatch) -> list:
    """Record every kernel entry: ``(kernel, finalize, ran)`` per call."""
    calls = []
    run_replay, run_fast = replay.run_replay, fastpath.run_fast

    def replay_spy(*args, **kwargs):
        snapshots = run_replay(*args, **kwargs)
        calls.append(("replay", kwargs.get("finalize", True), snapshots is not None))
        return snapshots

    def fast_spy(*args, **kwargs):
        snapshots = run_fast(*args, **kwargs)
        calls.append(("fast", None, snapshots is not None))
        return snapshots

    monkeypatch.setattr(replay, "run_replay", replay_spy)
    monkeypatch.setattr(fastpath, "run_fast", fast_spy)
    return calls


def _ran(calls: list) -> str:
    """The kernel that produced the snapshots (``generic`` if none did)."""
    for kernel, _, ran in calls:
        if ran:
            return kernel
    return "generic"


@pytest.mark.parametrize("combo", COMBOS, ids=COMBO_IDS)
def test_each_combination_runs_one_kernel_and_agrees(combo, artifact, monkeypatch):
    bundle_kind, no_fastpath = combo
    # The artifact is the seed-0 capture: a seed-1 run finds it foreign.
    seed = 1 if bundle_kind == "foreign" else 0
    fused = _run(seed=seed)
    bundle = None if bundle_kind == "none" else cached_bundle(artifact)
    if no_fastpath:
        monkeypatch.setenv("REPRO_NO_FASTPATH", "1")
    calls = _kernel_spy(monkeypatch)
    assert _run(bundle, seed=seed) == fused
    assert _ran(calls) == _expected(*combo)
    if no_fastpath:
        # The switch pins the reference loop before any kernel is tried.
        assert calls == []


#: Values that set the switch: the predicate tests for a non-empty value.
ON_VALUES = ("1", "true", "yes", "0")


class TestSwitchValueSemantics:
    def test_empty_value_is_unset(self, artifact, monkeypatch):
        monkeypatch.setenv("REPRO_NO_FASTPATH", "")
        assert fastpath_enabled()
        calls = _kernel_spy(monkeypatch)
        _run(cached_bundle(artifact))
        assert _ran(calls) == "replay"

    @pytest.mark.parametrize("value", ON_VALUES)
    def test_non_empty_value_sets_the_switch(self, value, artifact, monkeypatch):
        monkeypatch.setenv("REPRO_NO_FASTPATH", value)
        assert not fastpath_enabled()
        calls = _kernel_spy(monkeypatch)
        _run(cached_bundle(artifact))
        assert calls == []


class TestRunWorkloadRouting:
    """A handed bundle actually drives the run — and every route produces
    the identical result."""

    def test_all_kernels_agree_end_to_end(self, artifact, monkeypatch):
        calls = _kernel_spy(monkeypatch)
        replayed = _run(cached_bundle(artifact))
        assert _ran(calls) == "replay"
        fused = _run()
        monkeypatch.setenv("REPRO_NO_FASTPATH", "1")
        generic = _run(cached_bundle(artifact))
        assert fused == replayed
        assert generic == replayed

    def test_sweeps_skip_private_reconstruction(self, artifact, monkeypatch):
        calls = _kernel_spy(monkeypatch)
        _run(cached_bundle(artifact))
        assert calls == [("replay", False, True)]

    def test_job_execute_routes_its_capture(self, artifact, monkeypatch):
        job = WorkloadJob.for_workload(
            Workload("sel", BENCHMARKS),
            golden_config(),
            "tadrrip",
            quota=QUOTA,
            warmup=WARMUP,
            master_seed=0,
        )
        fused = job.execute().to_dict()
        calls = _kernel_spy(monkeypatch)
        assert job.execute(capture=artifact).to_dict() == fused
        assert _ran(calls) == "replay"

    def test_damaged_artifact_runs_fused(self, tmp_path, monkeypatch):
        path = ReplayStore(tmp_path).materialise(
            BENCHMARKS, golden_config(), QUOTA, WARMUP, 0
        )
        with open(path, "r+b") as fh:
            fh.seek(64)
            fh.write(b"\xff" * 64)
        fused = _run()
        bundle = cached_bundle(path)
        assert bundle is None
        calls = _kernel_spy(monkeypatch)
        assert _run(bundle) == fused
        assert _ran(calls) == "fast"
        # The damaged file left the live namespace for quarantine/.
        assert not path.exists()
