"""Which kernel runs a workload: the bundle it is handed, then the switch.

:meth:`repro.cpu.engine.MulticoreEngine.run` is the one place a kernel is
chosen.  A run replays the bundle it is handed when that matches; without
a matching one it captures its own workload in memory and replays that.
``REPRO_NO_FASTPATH`` — the one kernel switch — pins the generic reference
loop whatever the run was handed.  This suite enumerates every (bundle,
switch) combination through :func:`repro.sim.multi.run_workload`, observes
which kernels actually ran, pins the switch's value semantics (any
non-empty value sets it), checks that every resolution produces the
generic loop's result — including the degraded routes (a foreign bundle,
a damaged artifact) — and scans ``src/`` to keep the choice in one place.
"""

from __future__ import annotations

import ast
from itertools import product
from pathlib import Path

import pytest

import repro
from repro.cpu import capture, fastpath, replay
from repro.cpu.fastpath import fastpath_enabled
from repro.golden import golden_config
from repro.runner import WorkloadJob, replaystore
from repro.runner.replaystore import ReplayStore, cached_bundle
from repro.sim.multi import run_workload
from repro.sim.single import run_alone
from repro.trace.workloads import Workload

BENCHMARKS = ("mcf", "libq")
QUOTA, WARMUP = 300, 100

#: The bundle a run is handed: none, its own capture, or another seed's.
BUNDLES = ("none", "matching", "foreign")
COMBOS = list(product(BUNDLES, (False, True)))
COMBO_IDS = [f"{bundle}{'+NO_FASTPATH' if off else ''}" for bundle, off in COMBOS]

#: The kernel calls of a run that captures its own workload, innermost first.
IN_MEMORY = [("capture",), ("replay", False, True), ("fast", False, True)]


def _expected(bundle: str, no_fastpath: bool) -> list:
    """The kernel calls one ``run_workload`` makes, innermost first."""
    if no_fastpath:
        # The switch pins the reference loop before any kernel is tried.
        return []
    if bundle == "matching":
        return [("replay", False, True), ("fast", False, True)]
    if bundle == "foreign":
        # The handed bundle is declined before anything runs on it.
        return [("replay", False, False), *IN_MEMORY]
    return IN_MEMORY


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


def _generic(monkeypatch, seed=0) -> dict:
    """The same run on the generic reference loop."""
    with monkeypatch.context() as m:
        m.setenv("REPRO_NO_FASTPATH", "1")
        return _run(seed=seed)


def _kernel_spy(monkeypatch) -> list:
    """Record every kernel call as it returns, innermost first.

    ``("fast" | "replay", finalize, ran)`` per entry-point or replay call,
    ``("capture",)`` per capture.
    """
    calls = []
    run_replay, run_fast = replay.run_replay, fastpath.run_fast
    capture_workload = capture.capture_workload

    def replay_spy(*args, **kwargs):
        snapshots = run_replay(*args, **kwargs)
        calls.append(("replay", kwargs.get("finalize", True), snapshots is not None))
        return snapshots

    def fast_spy(engine, bundle=None, finalize=True):
        snapshots = run_fast(engine, bundle, finalize)
        calls.append(("fast", finalize, snapshots is not None))
        return snapshots

    def capture_spy(*args, **kwargs):
        calls.append(("capture",))
        return capture_workload(*args, **kwargs)

    monkeypatch.setattr(replay, "run_replay", replay_spy)
    monkeypatch.setattr(fastpath, "run_fast", fast_spy)
    monkeypatch.setattr(capture, "capture_workload", capture_spy)
    return calls


@pytest.mark.parametrize("combo", COMBOS, ids=COMBO_IDS)
def test_each_combination_runs_one_kernel_and_agrees(combo, artifact, monkeypatch):
    bundle_kind, no_fastpath = combo
    # The artifact is the seed-0 capture: a seed-1 run finds it foreign.
    seed = 1 if bundle_kind == "foreign" else 0
    reference = _generic(monkeypatch, seed=seed)
    bundle = None if bundle_kind == "none" else cached_bundle(artifact)
    if no_fastpath:
        monkeypatch.setenv("REPRO_NO_FASTPATH", "1")
    calls = _kernel_spy(monkeypatch)
    assert _run(bundle, seed=seed) == reference
    assert calls == _expected(*combo)


#: Values that set the switch: the predicate tests for a non-empty value.
ON_VALUES = ("1", "true", "yes", "0")


class TestSwitchValueSemantics:
    def test_empty_value_is_unset(self, artifact, monkeypatch):
        monkeypatch.setenv("REPRO_NO_FASTPATH", "")
        assert fastpath_enabled()
        calls = _kernel_spy(monkeypatch)
        _run(cached_bundle(artifact))
        assert calls == _expected("matching", False)

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
        assert calls == _expected("matching", False)
        calls.clear()
        captured = _run()
        assert calls == IN_MEMORY
        monkeypatch.setenv("REPRO_NO_FASTPATH", "1")
        generic = _run(cached_bundle(artifact))
        assert captured == replayed
        assert generic == replayed

    def test_sweeps_skip_private_reconstruction(self, artifact, monkeypatch):
        calls = _kernel_spy(monkeypatch)
        _run(cached_bundle(artifact))
        _run()
        # Every replay of either route skips the finaliser.
        assert {call[1] for call in calls if len(call) > 1} == {False}

    def test_job_execute_routes_its_capture(self, artifact, monkeypatch):
        job = WorkloadJob.for_workload(
            Workload("sel", BENCHMARKS),
            golden_config(),
            "tadrrip",
            quota=QUOTA,
            warmup=WARMUP,
            master_seed=0,
        )
        own = job.execute().to_dict()
        calls = _kernel_spy(monkeypatch)
        assert job.execute(capture=artifact).to_dict() == own
        assert calls == _expected("matching", False)

    def test_damaged_artifact_captures_in_memory(self, tmp_path, monkeypatch):
        path = ReplayStore(tmp_path).materialise(
            BENCHMARKS, golden_config(), QUOTA, WARMUP, 0
        )
        with open(path, "r+b") as fh:
            fh.seek(64)
            fh.write(b"\xff" * 64)
        reference = _generic(monkeypatch)
        bundle = cached_bundle(path)
        assert bundle is None
        calls = _kernel_spy(monkeypatch)
        assert _run(bundle) == reference
        assert calls == IN_MEMORY
        # The damaged file left the live namespace for quarantine/.
        assert not path.exists()

    def test_run_alone_enters_without_finalizing(self, monkeypatch):
        def alone() -> dict:
            return run_alone(
                "mcf", golden_config(), quota=QUOTA, warmup=WARMUP
            ).to_dict()

        with monkeypatch.context() as m:
            m.setenv("REPRO_NO_FASTPATH", "1")
            reference = alone()
        calls = _kernel_spy(monkeypatch)
        assert alone() == reference
        assert calls == IN_MEMORY


SRC = Path(repro.__file__).parent


def _functions_where(predicate) -> set[str]:
    """``module:qualname`` of every function under ``src/repro`` whose own
    body holds a node *predicate* accepts."""
    found = set()
    for path in sorted(SRC.rglob("*.py")):
        module = path.relative_to(SRC.parent).with_suffix("").as_posix()

        def visit(node, scope):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    visit(child, [*scope, child.name])
                    continue
                if predicate(child) and scope:
                    found.add(f"{module}:{'.'.join(scope)}")
                visit(child, scope)

        visit(ast.parse(path.read_text()), [])
    return found


def test_kernel_choice_lives_in_one_place():
    def reads_switch(node) -> bool:
        return isinstance(node, ast.Constant) and node.value == "REPRO_NO_FASTPATH"

    def calls_enabled(node) -> bool:
        if not isinstance(node, ast.Call):
            return False
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        return name == "fastpath_enabled"

    assert _functions_where(reads_switch) == {"repro/cpu/fastpath:fastpath_enabled"}
    assert _functions_where(calls_enabled) == {
        "repro/cpu/engine:MulticoreEngine.run",
        "repro/runner/parallel:ParallelRunner._plan_captures",
    }
