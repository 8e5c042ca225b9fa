"""Bootstrap-interval maths on hand-known inputs."""

import math

import numpy as np
import pytest

from repro.report.stats import bootstrap_ci, cluster_bootstrap_ci, outside_interval
from repro.util.stats import arithmetic_mean, geometric_mean


class TestBootstrapCi:
    def test_constant_values_collapse_to_a_point(self):
        lo, hi = bootstrap_ci([2.0, 2.0, 2.0, 2.0])
        assert lo == pytest.approx(2.0)
        assert hi == pytest.approx(2.0)

    def test_single_observation_degenerates(self):
        lo, hi = bootstrap_ci([3.0])
        assert lo == hi == pytest.approx(3.0)

    def test_interval_brackets_the_point_estimate(self):
        values = [0.9, 1.0, 1.05, 1.1, 1.2, 0.95]
        lo, hi = bootstrap_ci(values)
        point = geometric_mean(values)
        assert lo <= point <= hi
        assert lo < hi

    def test_deterministic_across_calls(self):
        values = [1.0, 1.1, 0.9, 1.3]
        assert bootstrap_ci(values) == bootstrap_ci(values)

    def test_seed_changes_the_resampling(self):
        values = [1.0, 1.1, 0.9, 1.3, 1.05, 0.87]
        assert bootstrap_ci(values, seed=0) != bootstrap_ci(values, seed=1)

    def test_wider_confidence_widens_the_interval(self):
        values = [1.0, 1.1, 0.9, 1.3, 1.05, 0.87]
        lo99, hi99 = bootstrap_ci(values, confidence=0.99)
        lo80, hi80 = bootstrap_ci(values, confidence=0.80)
        assert lo99 <= lo80 and hi80 <= hi99

    def test_custom_statistic(self):
        values = [1.0, 2.0, 3.0]
        lo, hi = bootstrap_ci(values, stat=arithmetic_mean)
        assert lo <= arithmetic_mean(values) <= hi

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            bootstrap_ci([])

    def test_bad_confidence_rejected(self):
        with pytest.raises(ValueError):
            bootstrap_ci([1.0, 2.0], confidence=1.0)


class TestClusterBootstrap:
    def test_two_identical_clusters_collapse(self):
        lo, hi = cluster_bootstrap_ci([[1.5, 1.5], [1.5, 1.5]])
        assert lo == pytest.approx(1.5)
        assert hi == pytest.approx(1.5)

    def test_cluster_spread_dominates_interval(self):
        """Between-cluster variance must show up even when each cluster is
        internally constant (the whole point of clustering by seed)."""
        tight = cluster_bootstrap_ci([[1.0, 1.0], [1.0, 1.0]])
        spread = cluster_bootstrap_ci([[0.8, 0.8], [1.25, 1.25]])
        assert (spread[1] - spread[0]) > (tight[1] - tight[0])

    def test_single_cluster_falls_back_to_per_value_resampling(self):
        values = [0.9, 1.0, 1.1, 1.2]
        assert cluster_bootstrap_ci([values]) == bootstrap_ci(values)

    def test_point_estimate_is_pooled_geomean(self):
        groups = [[1.0, 4.0], [2.0]]
        lo, hi = cluster_bootstrap_ci(groups)
        assert lo <= geometric_mean([1.0, 4.0, 2.0]) <= hi

    def test_empty_groups_dropped(self):
        assert cluster_bootstrap_ci([[], [2.0], []]) == (2.0, 2.0)

    def test_all_empty_rejected(self):
        with pytest.raises(ValueError):
            cluster_bootstrap_ci([[], []])


def reference_cluster_bootstrap_ci(groups, stat, *, confidence, n_resamples, seed):
    """The per-resample loop: ``stat`` evaluated on every resample."""
    groups = [list(g) for g in groups if len(g)]
    if len(groups) == 1:
        groups = [[v] for v in groups[0]]
    point = stat([v for g in groups for v in g])
    if len(groups) == 1:
        return (point, point)
    rng = np.random.default_rng(seed)
    draws = rng.integers(0, len(groups), size=(n_resamples, len(groups)))
    stats = np.empty(n_resamples)
    for i in range(n_resamples):
        sample = []
        for j in draws[i]:
            sample.extend(groups[j])
        stats[i] = stat(sample)
    alpha = (1.0 - confidence) / 2.0
    lo, hi = np.quantile(stats, [alpha, 1.0 - alpha])
    return (float(lo), float(hi))


#: 1-5 seed groups of unequal sizes and spread-out values.
GROUPS = [
    [[0.93, 1.07, 1.21]],
    [[0.87, 1.02], [1.11, 0.96, 1.33, 0.91]],
    [[1.04], [0.88, 0.97], [1.19, 1.02, 0.95]],
    [[0.92, 1.08, 1.01, 0.99], [1.25], [0.81, 1.14], [1.03, 0.97, 1.06]],
    [[1.1], [0.9, 0.95], [1.3, 1.05, 0.85], [0.99], [1.02, 1.17, 0.93, 0.89]],
]


class TestDistinctDrawMemo:
    """Each distinct draw is evaluated once; the interval is bit-identical
    to evaluating every resample."""

    @pytest.mark.parametrize("groups", GROUPS, ids=lambda g: f"{len(g)}groups")
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("confidence", [0.95, 0.8])
    @pytest.mark.parametrize("stat", [geometric_mean, arithmetic_mean])
    def test_matches_the_per_resample_loop_bit_for_bit(
        self, groups, seed, confidence, stat
    ):
        kwargs = dict(confidence=confidence, n_resamples=500, seed=seed)
        memoised = cluster_bootstrap_ci(groups, stat, **kwargs)
        reference = reference_cluster_bootstrap_ci(groups, stat, **kwargs)
        assert memoised == reference
        assert all(type(bound) is float for bound in memoised)

    @pytest.mark.parametrize("groups", GROUPS[1:], ids=lambda g: f"{len(g)}groups")
    def test_stat_runs_once_per_distinct_draw(self, groups):
        samples = []

        def counting_mean(sample):
            samples.append(tuple(sample))
            return geometric_mean(sample)

        n_resamples = 2000
        cluster_bootstrap_ci(groups, counting_mean, n_resamples=n_resamples)
        g = len(groups)
        rng = np.random.default_rng(0)
        draws = {tuple(d) for d in rng.integers(0, g, size=(n_resamples, g)).tolist()}
        # One point estimate, then one call per distinct draw.
        assert len(samples) == 1 + len(draws) <= 1 + min(g**g, n_resamples)
        assert len(set(samples[1:])) == len(draws)

    def test_two_groups_need_four_evaluations(self):
        calls = []

        def counting_mean(sample):
            calls.append(sample)
            return geometric_mean(sample)

        cluster_bootstrap_ci([[0.9, 1.1], [1.2]], counting_mean)
        assert len(calls) == 1 + 2**2


class TestOutsideInterval:
    def test_boundaries_are_inside(self):
        assert not outside_interval(1.0, (1.0, 2.0))
        assert not outside_interval(2.0, (1.0, 2.0))
        assert not outside_interval(1.5, (1.0, 2.0))

    def test_outside_both_sides(self):
        assert outside_interval(0.99, (1.0, 2.0))
        assert outside_interval(2.01, (1.0, 2.0))

    def test_nan_is_not_outside(self):
        # NaN comparisons are all False: treated as "cannot conclude".
        assert not outside_interval(math.nan, (1.0, 2.0))
