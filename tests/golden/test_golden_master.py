"""Golden-master and differential tests for the simulation kernels.

Two independent guarantees, per registered policy (and, for one policy per
inline family, per prefetch-enabled platform):

* **Fixture equivalence** — the default (fast-path) kernel reproduces the
  committed JSON fixtures bit-for-bit: IPC inputs, per-core and per-cache
  stats, cache-content digests, timing-model counters, prefetch counters,
  interval counts and RNG draw accounting.  Dict-ordering or hash-salt
  differences between Python versions cannot hide behind this comparison —
  every value is explicit data.
* **Kernel differential** — the fast path and the generic reference loop
  produce identical records when run back to back in this process, so a
  divergence is caught even before fixtures are regenerated.

If a *deliberate* behaviour change breaks these tests, regenerate with
``repro-experiments golden --regen`` and review the fixture diff.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.cpu import fastpath
from repro.cpu.engine import MulticoreEngine
from repro.golden import (
    GOLDEN_WORKLOADS,
    case_name,
    compare_records,
    fixture_path,
    golden_config,
    iter_cases,
    run_case,
)
from repro.sim.build import build_hierarchy, build_sources
from repro.trace.workloads import Workload

FIXTURES = Path(__file__).parent / "fixtures"

CASES = list(iter_cases())
CASE_IDS = [case_name(policy, workload, platform) for policy, workload, _, platform in CASES]


def _load(policy: str, workload: str, platform: str) -> dict:
    path = fixture_path(FIXTURES, policy, workload, platform)
    assert path.is_file(), (
        f"missing golden fixture {path}; regenerate with "
        f"'repro-experiments golden --regen'"
    )
    with path.open(encoding="utf-8") as fh:
        return json.load(fh)


class TestFixtureCoverage:
    def test_every_case_has_a_fixture(self):
        missing = [
            fixture_path(FIXTURES, policy, workload, platform).name
            for policy, workload, _, platform in CASES
            if not fixture_path(FIXTURES, policy, workload, platform).is_file()
        ]
        assert not missing, f"missing fixtures: {missing}"

    def test_no_stale_fixtures(self):
        expected = {
            fixture_path(FIXTURES, policy, workload, platform).name
            for policy, workload, _, platform in CASES
        }
        actual = {p.name for p in FIXTURES.glob("*.json")}
        assert actual == expected


@pytest.mark.parametrize(
    ("policy", "workload", "benchmarks", "platform"), CASES, ids=CASE_IDS
)
class TestGoldenMaster:
    def test_fast_kernel_matches_fixture(self, policy, workload, benchmarks, platform):
        expected = _load(policy, workload, platform)
        actual = run_case(policy, benchmarks, platform=platform)
        problems = compare_records(expected, actual)
        assert not problems, "\n".join(problems)


# The differential suite is the fixture check's independent twin: it needs
# no committed state, so it also protects fixture regeneration itself.
@pytest.mark.parametrize(
    ("policy", "workload", "benchmarks", "platform"), CASES, ids=CASE_IDS
)
class TestKernelDifferential:
    def test_fast_equals_generic(self, policy, workload, benchmarks, platform):
        fast = run_case(policy, benchmarks, platform=platform)
        generic = run_case(policy, benchmarks, platform=platform, force_generic=True)
        problems = compare_records(fast, generic)
        assert not problems, "\n".join(problems)

    def test_replay_equals_fast(self, policy, workload, benchmarks, platform):
        """Replay of an independently captured bundle reproduces the
        engine's own in-memory capture + replay record for record —
        snapshots, every cache's stats and content digest, timing-model
        counters, trace positions and RNG state."""
        fast = run_case(policy, benchmarks, platform=platform)
        replayed = run_case(policy, benchmarks, platform=platform, kernel="replay")
        problems = compare_records(fast, replayed)
        assert not problems, "\n".join(problems)


@pytest.fixture(scope="module")
def stored_artifact(tmp_path_factory):
    """``(benchmarks, platform) -> path`` of one on-disk capture artifact.

    Capture is policy-blind, so the golden cases share one file per
    workload and platform; each is written on first use.
    """
    from dataclasses import replace

    from repro.cpu.capture import capture_workload, job_identity
    from repro.golden import GOLDEN_PLATFORMS, MASTER_SEED, QUOTA, WARMUP
    from repro.runner.replaystore import save_bundle

    root = tmp_path_factory.mktemp("golden-artifacts")
    paths: dict[tuple, Path] = {}

    def path_for(benchmarks, platform):
        key = (tuple(benchmarks), platform)
        if key not in paths:
            config = replace(golden_config(), **GOLDEN_PLATFORMS[platform])
            bundle = capture_workload(
                job_identity(benchmarks, config, QUOTA, WARMUP, MASTER_SEED)
            )
            path = root / f"replay-{len(paths)}.npz"
            save_bundle(bundle, path)
            paths[key] = path
        return paths[key]

    return path_for


@pytest.mark.parametrize(
    ("policy", "workload", "benchmarks", "platform"), CASES, ids=CASE_IDS
)
class TestStoredArtifactReplay:
    def test_loaded_artifact_matches_fixture(
        self, policy, workload, benchmarks, platform, stored_artifact, monkeypatch
    ):
        """The on-disk artifact (npz streams plus encoded checkpoints, the
        restored one decoded only by the finaliser) drives the replay
        kernel — private-level reconstruction included — to the committed
        fixture: serialisation loses nothing replay reads."""
        from repro.cpu import capture
        from repro.runner.replaystore import load_bundle

        loaded = load_bundle(stored_artifact(benchmarks, platform))
        assert loaded is not None
        monkeypatch.setattr(capture, "capture_workload", lambda *a, **k: loaded)
        expected = _load(policy, workload, platform)
        actual = run_case(policy, benchmarks, platform=platform, kernel="replay")
        problems = compare_records(expected, actual)
        assert not problems, "\n".join(problems)


#: One policy per inline family, matching the prefetch-platform pinning
#: rationale: the replay event path is policy-independent beyond the hook
#: dispatch, so this subset covers every dispatch mode per core count.
SCALE_POLICIES = ("lru", "tadrrip", "ship", "eaf", "adapt_bp32")

#: Core-count scaling differentials: the golden fixtures pin two cores, so
#: the single-core shape (no co-runner interleaving) and the 16-core shape
#: (heap pressure, per-thread duelling/monitors) are pinned here, on both
#: the plain and the prefetch-everything platforms.
SCALE_PLATFORMS = [
    pytest.param(1, ("mcf",), "base", id="1core"),
    pytest.param(1, ("mcf",), "prefetch", id="1core_pf"),
    pytest.param(16, ("mcf", "libq", "gcc", "calc") * 4, "base", id="16core"),
    pytest.param(16, ("mcf", "libq", "gcc", "calc") * 4, "prefetch", id="16core_pf"),
]


@pytest.mark.parametrize("policy", SCALE_POLICIES)
@pytest.mark.parametrize(("cores", "benchmarks", "platform"), SCALE_PLATFORMS)
class TestKernelDifferentialScaling:
    @staticmethod
    def _config(cores):
        from dataclasses import replace

        config = golden_config().with_cores(cores)
        return replace(config, name=f"golden-{cores}core")

    def test_generic_fast_replay_agree(self, policy, cores, benchmarks, platform):
        config = self._config(cores)
        kwargs = {"platform": platform, "config": config}
        generic = run_case(policy, benchmarks, kernel="generic", **kwargs)
        fast = run_case(policy, benchmarks, kernel="fast", **kwargs)
        replayed = run_case(policy, benchmarks, kernel="replay", **kwargs)
        problems = compare_records(generic, fast) + compare_records(fast, replayed)
        assert not problems, "\n".join(problems)


class _NextAccessOnly:
    """Duck-typed source exposing only the per-access API (no next_chunk)."""

    def __init__(self, inner):
        self._inner = inner

    def next_access(self):
        return self._inner.next_access()

    def __getattr__(self, name):
        if name == "next_chunk":
            raise AttributeError(name)
        return getattr(self._inner, name)


class TestFastPathDispatch:
    """The engine must actually *use* capture + replay where eligible."""

    def _engine(self, policy="tadrrip", **config_kwargs):
        config = golden_config()
        if config_kwargs:
            from dataclasses import replace

            config = replace(config, **config_kwargs)
        hierarchy = build_hierarchy(config, policy)
        sources = build_sources(
            Workload("g", GOLDEN_WORKLOADS["thrash-mix"]), config, 0
        )
        return hierarchy, MulticoreEngine(
            hierarchy, sources, quota_per_core=50, warmup_accesses=0
        )

    def test_standard_build_is_fast_eligible(self):
        _, engine = self._engine()
        assert fastpath.run_fast(engine) is not None

    def test_prefetch_configs_are_fast_eligible(self):
        hierarchy, engine = self._engine(l1_next_line_prefetch=True)
        assert fastpath.run_fast(engine) is not None
        assert hierarchy.prefetches_issued > 0
        hierarchy, engine = self._engine(l2_stride_prefetch=True)
        assert fastpath.run_fast(engine) is not None

    def test_duck_typed_sources_fall_back(self):
        _, engine = self._engine()
        engine.sources = [_NextAccessOnly(s) for s in engine.sources]
        assert fastpath.run_fast(engine) is None
        # ... and engine.run still completes on the generic loop.
        snaps = engine.run()
        assert all(s.accesses == 50 for s in snaps)

    def test_env_kill_switch(self, monkeypatch):
        from repro import settings

        monkeypatch.setenv("REPRO_NO_FASTPATH", "1")
        assert settings.read().no_fastpath
        monkeypatch.delenv("REPRO_NO_FASTPATH")
        assert not settings.read().no_fastpath

    def test_fast_ops_protocol_shapes(self):
        from repro.policies.registry import make_policy

        rrip = make_policy("srrip")
        rrip.bind(16, 4, 1)
        ops = rrip.fast_ops()
        assert (ops.kind, ops.hit_inline, ops.victim_inline, ops.fill_inline) == (
            "rrip",
            True,
            True,
            True,
        )
        stack = make_policy("lru")
        stack.bind(16, 4, 1)
        assert stack.fast_ops().kind == "stack"
        # Wrappers opt out entirely: every hook stays a delegated call.
        assert make_policy("tadrrip+bp").fast_ops() is None


class TestNativeFastOps:
    """SHiP/EAF/ADAPT family hooks and duelling on_miss run inline, not
    through ``_CALL``-mode method dispatch (the PR 3 coverage criterion)."""

    @staticmethod
    def _bound(name, **kwargs):
        from repro.policies.registry import make_policy

        policy = make_policy(name, **kwargs)
        policy.bind(64, 4, 2)
        return policy

    def test_ship_kind_inlines_training(self):
        ops = self._bound("ship").fast_ops()
        assert ops.kind == "ship"
        assert (ops.hit_inline, ops.victim_inline, ops.fill_inline) == (
            True,
            True,
            True,
        )
        assert ops.evict_inline
        assert ops.ship_sigs is not None and ops.ship_outcomes is not None
        assert ops.shct is not None and ops.shct_entries > 0
        # Plain SHiP salts nothing; the thread-aware ablation variant does.
        assert ops.sig_salt_shift is None
        salted = self._bound("ship", thread_aware_signatures=True).fast_ops()
        assert salted.sig_salt_shift == salted.sig_bits - 3

    def test_eaf_kind_inlines_filter_updates(self):
        ops = self._bound("eaf").fast_ops()
        assert ops.kind == "eaf"
        assert (ops.hit_inline, ops.victim_inline, ops.fill_inline) == (
            True,
            True,
            True,
        )
        assert ops.evict_inline
        assert ops.eaf_filter is not None

    def test_adapt_kind_inlines_monitor_tap(self):
        for name in ("adapt_bp32", "adapt_ins"):
            ops = self._bound(name).fast_ops()
            assert ops.kind == "adapt"
            assert (ops.hit_inline, ops.victim_inline, ops.fill_inline) == (
                True,
                True,
                True,
            )
            assert ops.samplers is not None and len(ops.samplers) == 2

    def test_duelling_policies_inline_on_miss(self):
        for name in ("tadrrip", "drrip", "dip"):
            ops = self._bound(name).fast_ops()
            assert ops.miss_inline, name
            assert len(ops.duel_roles) == 2 and len(ops.duel_psels) == 2
        # Thread-aware duelling keeps per-thread PSELs; global duelling
        # shares one counter across cores.
        ta = self._bound("tadrrip").fast_ops()
        assert ta.duel_psels[0] is not ta.duel_psels[1]
        glob = self._bound("drrip").fast_ops()
        assert glob.duel_psels[0] is glob.duel_psels[1]

    def test_forced_brrip_variant_stays_inline(self):
        ops = self._bound("tadrrip", forced_brrip_cores=(0,)).fast_ops()
        assert ops.miss_inline

    def test_subclassed_hooks_fall_back_to_calls(self):
        from repro.policies.ship import ShipPolicy

        class CustomShip(ShipPolicy):
            def on_hit(self, set_idx, way, core_id, is_demand, block_addr=-1):
                super().on_hit(set_idx, way, core_id, is_demand, block_addr)

        custom = CustomShip()
        custom.bind(64, 4, 2)
        ops = custom.fast_ops()
        assert not ops.hit_inline  # overridden hook goes back to a call
        assert ops.fill_inline and ops.evict_inline  # the rest stay inline
