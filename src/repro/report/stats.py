"""Resampling statistics for the tournament report.

The tournament produces a small number of deterministic measurement cells
— one per (policy, workload, seed) — so the report quotes uncertainty with
percentile bootstrap confidence intervals rather than parametric formulas:
no normality assumption, works for the geometric means the paper's
metrics aggregate with, and stays honest for the handful-of-seeds regime.

Seeds are the natural resampling unit: workloads *within* one master seed
share their sampled composition, so treating every cell as independent
would understate the interval.  :func:`cluster_bootstrap_ci` therefore
resamples whole seed groups with replacement (the cluster bootstrap) and
only degenerates to per-cell resampling when a single group is supplied.

Everything is deterministic: the resampling RNG is seeded, so the same
store contents always produce the same intervals — which is what lets the
regression detector diff two report snapshots meaningfully.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence

import numpy as np

from repro.util.stats import geometric_mean

#: Default resample count: ample for 95% percentile intervals at report
#: granularity, negligible against the simulations that fed the store.
DEFAULT_RESAMPLES = 2000


def bootstrap_ci(
    values: Sequence[float],
    stat: Callable[[Sequence[float]], float] = geometric_mean,
    *,
    confidence: float = 0.95,
    n_resamples: int = DEFAULT_RESAMPLES,
    seed: int = 0,
) -> tuple[float, float]:
    """Percentile bootstrap interval of ``stat`` over independent *values*."""
    return cluster_bootstrap_ci(
        [[v] for v in values],
        stat,
        confidence=confidence,
        n_resamples=n_resamples,
        seed=seed,
    )


def cluster_bootstrap_ci(
    groups: Sequence[Sequence[float]],
    stat: Callable[[Sequence[float]], float] = geometric_mean,
    *,
    confidence: float = 0.95,
    n_resamples: int = DEFAULT_RESAMPLES,
    seed: int = 0,
) -> tuple[float, float]:
    """Percentile bootstrap interval of ``stat``, resampling whole *groups*.

    Each group is one cluster of correlated observations (in the report:
    every cell measured under one master seed).  A resample draws
    ``len(groups)`` clusters with replacement, concatenates them in draw
    order and applies ``stat``; the interval is the ``confidence``
    percentile span of the resampled statistics.

    ``stat`` must be a pure function of the sample: it is evaluated once
    per *distinct* draw (the tuple of group indices, in draw order) and
    its value reused for every resample repeating that draw.  With G
    groups there are at most G**G distinct draws — 4 for the usual two
    seeds — against ``n_resamples`` resamples.  Each distinct sample is
    built and summed exactly as a per-resample loop would, so the interval
    is bit-identical to evaluating every resample.

    With one group the cluster bootstrap would be degenerate (every
    resample identical), so the single group's values are resampled
    individually instead.
    """
    groups = [list(g) for g in groups if len(g)]
    if not groups:
        raise ValueError("bootstrap over no observations")
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must be in (0, 1), got {confidence}")
    if len(groups) == 1:
        groups = [[v] for v in groups[0]]
    point = stat([v for g in groups for v in g])
    if len(groups) == 1:  # a single observation: no resampling spread
        return (point, point)
    rng = np.random.default_rng(seed)
    draws = rng.integers(0, len(groups), size=(n_resamples, len(groups)))
    draws = list(map(tuple, draws.tolist()))
    values = dict.fromkeys(draws)
    for draw in values:
        values[draw] = stat([v for j in draw for v in groups[j]])
    stats = np.array([values[draw] for draw in draws], dtype=float)
    alpha = (1.0 - confidence) / 2.0
    lo, hi = np.quantile(stats, [alpha, 1.0 - alpha])
    return (float(lo), float(hi))


def outside_interval(value: float, interval: tuple[float, float]) -> bool:
    """Whether *value* falls strictly outside a ``(lo, hi)`` interval."""
    lo, hi = interval
    return value < lo or value > hi
