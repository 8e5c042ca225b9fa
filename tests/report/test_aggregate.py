"""Report aggregation against synthetic stores with hand-known metrics.

Solo IPCs are pinned to 1.0 by the conftest helpers, so every workload
cell's weighted speed-up is just the sum of the shared IPCs the test
chose, and the relative numbers below are exact.
"""

from collections import Counter

import pytest

from repro.policies.spec import PolicySpec
from repro.report.aggregate import gather, report_from_store
from repro.runner import SCHEMA_VERSION, ResultStore
from repro.targets.registry import TargetSpec
from repro.report.bench import build_snapshot
from repro.report.tables import render_ranked, render_report, render_win_matrix
from repro.util.stats import geometric_mean


class TestGather:
    def test_cell_metrics_are_exact(self, synth):
        synth.put_suite(
            policy_ipcs={"tadrrip": (1.0, 1.0, 1.0, 1.0), "lru": (0.9, 0.9, 0.9, 0.9)}
        )
        data = gather(synth.store)
        assert data.policies == ["lru", "tadrrip"]
        lru = next(c for c in data.cells if c.policy == "lru")
        base = next(c for c in data.cells if c.policy == "tadrrip")
        assert base.ws == pytest.approx(4.0)
        assert base.rel_ws == pytest.approx(1.0)
        assert lru.ws == pytest.approx(3.6)
        assert lru.rel_ws == pytest.approx(0.9)

    def test_llc_mpki_mean(self, synth):
        synth.put_suite(
            policy_ipcs={"tadrrip": (1.0,) * 4}, llc_misses={"tadrrip": 25}
        )
        data = gather(synth.store)
        # instructions=1000 per core, so mpki == the injected miss count.
        assert data.cells[0].llc_mpki == pytest.approx(25.0)

    def test_missing_alone_baseline_skips_and_counts(self, synth):
        synth.put_workload(policy="tadrrip")  # no put_alone at all
        data = gather(synth.store)
        assert data.cells == []
        assert data.skipped_no_alone == 1

    def test_missing_baseline_policy_skips_the_group(self, synth):
        for benchmark in synth.pool:
            synth.put_alone(benchmark)
        synth.put_workload(policy="lru")
        synth.put_workload(policy="ship")
        data = gather(synth.store)
        assert data.cells == []
        assert data.skipped_no_baseline == 2

    def test_parameterised_policies_skipped(self, synth):
        synth.put_suite(policy_ipcs={"tadrrip": (1.0,) * 4})
        synth.put_workload(policy=PolicySpec.of("adapt_bp32", bypass_prob=0.125))
        data = gather(synth.store)
        assert data.skipped_parameterised == 1
        assert data.policies == ["tadrrip"]

    def test_identities_are_sorted_and_cover_budgets(self, synth):
        synth.put_suite(policy_ipcs={"tadrrip": (1.0,) * 4, "lru": (0.9,) * 4})
        data = gather(synth.store)
        assert data.identities == sorted(data.identities)
        assert len(data.identities) == 2
        assert all("q800" in i and "w200" in i for i in data.identities)
        # Synthetic cells carry no binding: their identities (and so the
        # snapshot config hash) stay as they were before bindings existed.
        assert not any("tgt:" in i for i in data.identities)

    def test_seeds_and_workloads_enumerated(self, synth):
        synth.put_suite(
            policy_ipcs={"tadrrip": (1.0,) * 4},
            workloads=("mix-0", "mix-1"),
            seeds=(0, 3),
        )
        data = gather(synth.store)
        assert data.seeds == [0, 3]
        assert data.workloads == ["mix-0", "mix-1"]
        assert len(data.cells) == 4


class TestAggregate:
    def test_ranking_is_best_first(self, synth):
        synth.put_suite(
            policy_ipcs={
                "tadrrip": (1.0,) * 4,
                "lru": (0.9,) * 4,
                "ship": (1.1,) * 4,
            }
        )
        report = report_from_store(synth.store, n_resamples=50)
        assert [s.policy for s in report.summaries] == ["ship", "tadrrip", "lru"]

    def test_geomean_over_workloads(self, synth):
        # Two workloads with different rel-WS: geomean of 1.2 and 0.9.
        for benchmark in synth.pool:
            synth.put_alone(benchmark)
        synth.put_workload(workload="mix-0", policy="tadrrip", ipcs=(1.0,) * 4)
        synth.put_workload(workload="mix-1", policy="tadrrip", ipcs=(1.0,) * 4)
        synth.put_workload(workload="mix-0", policy="ship", ipcs=(1.2,) * 4)
        synth.put_workload(workload="mix-1", policy="ship", ipcs=(0.9,) * 4)
        report = report_from_store(synth.store, n_resamples=50)
        ship = report.summary_for("ship")
        assert ship.cells == 2
        assert ship.rel_ws_geomean == pytest.approx(geometric_mean([1.2, 0.9]))

    def test_ci_brackets_the_geomean(self, synth):
        synth.put_suite(
            policy_ipcs={"tadrrip": (1.0,) * 4, "ship": (1.05,) * 4},
            workloads=("mix-0", "mix-1", "mix-2"),
            seeds=(0, 1),
        )
        report = report_from_store(synth.store, n_resamples=200)
        ship = report.summary_for("ship")
        lo, hi = ship.rel_ws_ci
        assert lo <= ship.rel_ws_geomean <= hi

    def test_win_matrix_total_order(self, synth):
        synth.put_suite(
            policy_ipcs={
                "tadrrip": (1.0,) * 4,
                "lru": (0.9,) * 4,
                "ship": (1.1,) * 4,
            },
            workloads=("mix-0", "mix-1"),
        )
        report = report_from_store(synth.store, n_resamples=50)
        assert report.win_matrix["ship"]["lru"] == pytest.approx(1.0)
        assert report.win_matrix["ship"]["tadrrip"] == pytest.approx(1.0)
        assert report.win_matrix["lru"]["ship"] == pytest.approx(0.0)
        assert report.summary_for("ship").win_rate == pytest.approx(1.0)
        assert report.summary_for("tadrrip").win_rate == pytest.approx(0.5)
        assert report.summary_for("lru").win_rate == pytest.approx(0.0)

    def test_ties_count_half(self, synth):
        synth.put_suite(
            policy_ipcs={"tadrrip": (1.0,) * 4, "drrip": (1.0,) * 4}
        )
        report = report_from_store(synth.store, n_resamples=50)
        assert report.win_matrix["drrip"]["tadrrip"] == pytest.approx(0.5)

    def test_disjoint_pair_scores_none_and_skips_win_rate(self, synth):
        # lru and ship never appear in the same group: no head-to-head
        # score exists, which must not read as a 50% tie.
        for benchmark in synth.pool:
            synth.put_alone(benchmark)
        synth.put_workload(workload="mix-0", policy="tadrrip", ipcs=(1.0,) * 4)
        synth.put_workload(workload="mix-0", policy="lru", ipcs=(0.9,) * 4)
        synth.put_workload(workload="mix-1", policy="tadrrip", ipcs=(1.0,) * 4)
        synth.put_workload(workload="mix-1", policy="ship", ipcs=(1.1,) * 4)
        report = report_from_store(synth.store, n_resamples=50)
        assert report.win_matrix["lru"]["ship"] is None
        assert report.win_matrix["ship"]["lru"] is None
        assert report.win_matrix["lru"]["tadrrip"] == pytest.approx(0.0)
        # The mean excludes the never-met pair instead of averaging in 0.5.
        assert report.summary_for("lru").win_rate == pytest.approx(0.0)
        assert report.summary_for("ship").win_rate == pytest.approx(1.0)
        rendered = render_win_matrix(report)
        lru_row = next(
            line for line in rendered.splitlines() if line.startswith("lru")
        )
        assert lru_row.split().count("-") == 2  # the diagonal + ship

    def test_single_policy_has_no_win_rate(self, synth):
        synth.put_suite(policy_ipcs={"tadrrip": (1.0,) * 4})
        report = report_from_store(synth.store, n_resamples=50)
        assert report.summary_for("tadrrip").win_rate is None
        assert "-" in render_report(report)

    def test_summary_for_unknown_policy(self, synth):
        synth.put_suite(policy_ipcs={"tadrrip": (1.0,) * 4})
        report = report_from_store(synth.store, n_resamples=50)
        assert report.summary_for("nope") is None

    def test_empty_store_yields_empty_report(self, store):
        report = report_from_store(store, n_resamples=50)
        assert report.summaries == []
        assert report.data.cells == []


def _binding(key: str, budget: int) -> TargetSpec:
    return TargetSpec(
        name="tgt:toy",
        key=key,
        fmt="champsim",
        origin="toy.trace.gz",
        source_sha256="0" * 64,
        budget=budget,
        n_accesses=budget,
        n_chunks=1,
        instructions_per_access=1.0,
    )


class TestTargetBindings:
    """One ``tgt:`` name ingested twice: two contents, two sets of cells."""

    SMALL = _binding("a" * 40, 8192)
    LARGE = _binding("b" * 40, 65536)
    MIX = ("tgt:toy", "lbm", "bzip", "deal")

    def _fill(self, synth):
        for benchmark in self.MIX[1:]:
            synth.put_alone(benchmark)
        # Each binding has its own IPC_alone for the target core.
        synth.put_alone("tgt:toy", ipc=0.5, targets=(self.SMALL,))
        synth.put_alone("tgt:toy", ipc=2.0, targets=(self.LARGE,))
        for spec, lru_ipc in ((self.SMALL, 0.5), (self.LARGE, 2.0)):
            for policy, ipcs in (("tadrrip", (1.0,) * 4), ("lru", (lru_ipc, 1.0, 1.0, 1.0))):
                synth.put_workload(
                    benchmarks=self.MIX, policy=policy, ipcs=ipcs, targets=(spec,)
                )

    def test_each_binding_is_normalised_by_its_own_runs(self, synth):
        self._fill(synth)
        data = gather(synth.store)
        assert len(data.cells) == 4
        assert data.real_cells == 4
        by_binding = {
            (c.targets[0].key, c.policy): c for c in data.cells
        }
        small, large = self.SMALL.key, self.LARGE.key
        # WS = 1.0/0.5 + 3 with the small binding's baseline, 1.0/2.0 + 3
        # with the large one's.
        assert by_binding[small, "tadrrip"].ws == pytest.approx(5.0)
        assert by_binding[large, "tadrrip"].ws == pytest.approx(3.5)
        assert by_binding[small, "lru"].ws == pytest.approx(4.0)
        assert by_binding[large, "lru"].ws == pytest.approx(4.0)
        assert by_binding[small, "lru"].rel_ws == pytest.approx(4.0 / 5.0)
        assert by_binding[large, "lru"].rel_ws == pytest.approx(4.0 / 3.5)

    def test_both_bindings_count_in_the_report(self, synth):
        self._fill(synth)
        report = report_from_store(synth.store, n_resamples=50)
        lru = report.summary_for("lru")
        assert lru.cells == 2
        assert lru.rel_ws_geomean == pytest.approx(geometric_mean([0.8, 4.0 / 3.5]))
        # One head-to-head per binding: tadrrip wins one, lru the other.
        assert report.win_matrix["lru"]["tadrrip"] == pytest.approx(0.5)
        identities = report.data.identities
        assert sum(f"tgt:toy={self.SMALL.key}" in i for i in identities) == 2
        assert sum(f"tgt:toy={self.LARGE.key}" in i for i in identities) == 2

    def test_header_factors_multiply_to_the_cell_count(self, synth):
        """Each binding is its own workload slot in the ranking header,
        while the snapshot still names the one workload slot."""
        self._fill(synth)
        report = report_from_store(synth.store, n_resamples=50)
        header = render_ranked(report).splitlines()[0]
        assert "4 cells (2 policies x 2 workload slots x 1 seeds)" in header
        assert build_snapshot(report)["workload_slots"] == ["mix-0"]


class TestStorePass:
    def test_report_decodes_each_stored_file_once(self, synth, monkeypatch):
        synth.put_suite(
            policy_ipcs={"tadrrip": (1.0,) * 4, "lru": (0.9,) * 4}, seeds=(0, 1)
        )
        synth.put_workload(policy=PolicySpec.of("adapt_bp32", bypass_prob=0.125))
        store = synth.store
        store.put(
            "f" * 40,
            {
                "schema": SCHEMA_VERSION,
                "kind": "failure",
                "job": None,
                "failure": {"kind": "crash", "attempts": 2, "error": "boom"},
            },
        )
        store.put("e" * 40, {"schema": SCHEMA_VERSION - 1, "kind": "workload"})
        reads = Counter()
        real_get = ResultStore.get

        def counting_get(self, key):
            reads[key] += 1
            return real_get(self, key)

        monkeypatch.setattr(ResultStore, "get", counting_get)
        report = report_from_store(store, n_resamples=50)
        assert reads == Counter(store.keys())
        assert report.data.failed_cells == 1
        assert report.data.skipped_parameterised == 1
        assert len(report.data.cells) == 4
