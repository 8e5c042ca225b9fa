"""Kill-switch precedence: every env combination picks one documented kernel.

The two kernel-family switches — ``REPRO_NO_FASTPATH`` and
``REPRO_NO_REPLAY`` — must resolve deterministically in the documented
precedence order (generic beats fused beats replay).  This suite
enumerates all four combinations against
:func:`repro.sim.multi.kernel_selection`, pins the switches' value
semantics (any non-empty value sets a switch), and checks end to end
that a replay-registered ``run_workload`` produces identical results
whichever kernel the switches resolve to — and degrades to the fused
kernel whenever the registry cannot serve the run.
"""

from __future__ import annotations

from itertools import product

import pytest

from repro.cpu import replay
from repro.cpu.fastpath import fastpath_enabled
from repro.golden import golden_config
from repro.runner.replaystore import (
    ReplayStore,
    clear_replay_manifest,
    install_replay_manifest,
)
from repro.sim.multi import kernel_selection, run_workload
from repro.trace.workloads import Workload

FLAGS = ("REPRO_NO_FASTPATH", "REPRO_NO_REPLAY")

COMBOS = list(product((False, True), repeat=len(FLAGS)))
COMBO_IDS = [
    "+".join(flag.replace("REPRO_", "") for flag, on in zip(FLAGS, combo) if on)
    or "none"
    for combo in COMBOS
]


def _expected(no_fastpath, no_replay):
    if no_fastpath:
        return "generic"
    if no_replay:
        return "fast"
    return "replay"


@pytest.fixture(autouse=True)
def _clean_env(monkeypatch):
    for flag in FLAGS:
        monkeypatch.delenv(flag, raising=False)


@pytest.mark.parametrize("combo", COMBOS, ids=COMBO_IDS)
def test_every_combination_resolves_deterministically(combo, monkeypatch):
    for flag, on in zip(FLAGS, combo):
        if on:
            monkeypatch.setenv(flag, "1")
    assert kernel_selection() == _expected(*combo)
    # The predicates agree with the resolution.
    selected = kernel_selection()
    assert fastpath_enabled() == (selected != "generic")
    assert replay.replay_enabled() == (selected == "replay")


#: Values that set a switch: the predicates test for a non-empty value.
ON_VALUES = ("1", "true", "yes", "on")


class TestSwitchValueSemantics:
    @pytest.mark.parametrize("flag", FLAGS)
    def test_empty_value_is_unset(self, flag, monkeypatch):
        monkeypatch.setenv(flag, "")
        assert kernel_selection() == "replay"
        assert fastpath_enabled() and replay.replay_enabled()

    @pytest.mark.parametrize("value", ON_VALUES)
    @pytest.mark.parametrize("flag", FLAGS)
    def test_non_empty_value_sets_the_switch(self, flag, value, monkeypatch):
        monkeypatch.setenv(flag, value)
        combo = tuple(f == flag for f in FLAGS)
        assert kernel_selection() == _expected(*combo)


def _replay_spy(monkeypatch):
    """Record every ``run_replay`` call: its finalize flag and success."""
    calls = []
    run_replay = replay.run_replay

    def spy(*args, **kwargs):
        snapshots = run_replay(*args, **kwargs)
        calls.append((kwargs.get("finalize", True), snapshots is not None))
        return snapshots

    monkeypatch.setattr(replay, "run_replay", spy)
    return calls


class TestRunWorkloadRouting:
    """The resolved kernel actually drives a replay-registered run — and
    every resolution produces the identical result."""

    BENCHMARKS = ("mcf", "libq")
    QUOTA, WARMUP = 300, 100

    def _run(self, config, seed=0):
        return run_workload(
            Workload("sel", self.BENCHMARKS),
            config,
            "tadrrip",
            quota=self.QUOTA,
            warmup=self.WARMUP,
            master_seed=seed,
        ).to_dict()

    def test_all_kernels_agree_end_to_end(self, tmp_path, monkeypatch):
        config = golden_config()
        store = ReplayStore(tmp_path)
        entry = store.materialise(
            self.BENCHMARKS, config, self.QUOTA, self.WARMUP, 0
        )
        replayed = []
        run_replay = replay.run_replay

        def spy(*args, **kwargs):
            snapshots = run_replay(*args, **kwargs)
            replayed.append(snapshots is not None)
            return snapshots

        monkeypatch.setattr(replay, "run_replay", spy)
        install_replay_manifest([entry])
        try:
            baseline = self._run(config)
            # Observable proof the replay kernel drove the baseline run.
            assert replayed == [True]
            monkeypatch.setenv("REPRO_NO_REPLAY", "1")
            fused = self._run(config)
            monkeypatch.setenv("REPRO_NO_FASTPATH", "1")
            generic = self._run(config)
        finally:
            clear_replay_manifest()
        assert replayed == [True]
        assert fused == baseline
        assert generic == baseline

    @pytest.fixture(scope="class")
    def artifact(self, tmp_path_factory):
        store = ReplayStore(tmp_path_factory.mktemp("selection"))
        return store.materialise(
            self.BENCHMARKS, golden_config(), self.QUOTA, self.WARMUP, 0
        )

    def _fused(self, config, monkeypatch, seed=0):
        with monkeypatch.context() as m:
            for flag in FLAGS:
                m.delenv(flag, raising=False)
            m.setenv("REPRO_NO_REPLAY", "1")
            return self._run(config, seed)

    @pytest.mark.parametrize("combo", COMBOS, ids=COMBO_IDS)
    def test_each_resolution_routes_and_agrees(self, combo, artifact, monkeypatch):
        config = golden_config()
        fused = self._fused(config, monkeypatch)
        for flag, on in zip(FLAGS, combo):
            if on:
                monkeypatch.setenv(flag, "1")
        calls = _replay_spy(monkeypatch)
        install_replay_manifest([artifact])
        try:
            result = self._run(config)
        finally:
            clear_replay_manifest()
        assert result == fused
        expect_replay = _expected(*combo) == "replay"
        assert [ok for _, ok in calls] == ([True] if expect_replay else [])

    def test_sweeps_skip_private_reconstruction(self, artifact, monkeypatch):
        calls = _replay_spy(monkeypatch)
        install_replay_manifest([artifact])
        try:
            self._run(golden_config())
        finally:
            clear_replay_manifest()
        assert calls == [(False, True)]

    def test_unregistered_identity_runs_fused(self, artifact, monkeypatch):
        # The registered artifact is for seed 0; a seed-1 run must not
        # touch the replay kernel.
        config = golden_config()
        fused = self._fused(config, monkeypatch, seed=1)
        calls = _replay_spy(monkeypatch)
        install_replay_manifest([artifact])
        try:
            result = self._run(config, seed=1)
        finally:
            clear_replay_manifest()
        assert calls == []
        assert result == fused

    def test_cleared_registry_runs_fused(self, artifact, monkeypatch):
        config = golden_config()
        fused = self._fused(config, monkeypatch)
        calls = _replay_spy(monkeypatch)
        install_replay_manifest([artifact])
        clear_replay_manifest()
        assert self._run(config) == fused
        assert calls == []

    def test_damaged_artifact_runs_fused(self, tmp_path, monkeypatch):
        config = golden_config()
        entry = ReplayStore(tmp_path).materialise(
            self.BENCHMARKS, config, self.QUOTA, self.WARMUP, 0
        )
        with open(entry["path"], "r+b") as fh:
            fh.seek(64)
            fh.write(b"\xff" * 64)
        fused = self._fused(config, monkeypatch)
        calls = _replay_spy(monkeypatch)
        install_replay_manifest([entry])
        try:
            result = self._run(config)
        finally:
            clear_replay_manifest()
        assert calls == []
        assert result == fused
