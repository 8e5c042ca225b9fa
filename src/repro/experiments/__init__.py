"""One module per paper table/figure, plus shared run infrastructure.

========================  ============================================
Module                    Regenerates
========================  ============================================
:mod:`~repro.experiments.fig1`      Figure 1 (motivation: forced BRRIP)
:mod:`~repro.experiments.scurves`   Figures 3 and 8 (WS s-curves)
:mod:`~repro.experiments.perapp`    Figures 4 and 5 (per-app MPKI/IPC)
:mod:`~repro.experiments.fig6`      Figure 6 (bypassing each policy)
:mod:`~repro.experiments.fig7`      Figure 7 (larger caches)
:mod:`~repro.experiments.tables`    Tables 2, 3, 6 (analytic)
:mod:`~repro.experiments.table4`    Table 4 (+ Table 5 classification)
:mod:`~repro.experiments.table7`    Table 7 (other multi-core metrics)
:mod:`~repro.experiments.ablation`  design-choice ablations
========================  ============================================
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.experiments.ablation": (
            "AblationResult",
            "run_interval_ablation",
            "run_monitor_sets_ablation",
            "run_priority_range_ablation",
        ),
        "repro.experiments.common": (
            "BASELINE_POLICY",
            "FIGURE_POLICIES",
            "ExperimentSettings",
            "Runner",
            "scale_factor",
        ),
        "repro.experiments.fig1": (
            "Fig1Result",
            "forced_tadrrip",
            "forced_tadrrip_spec",
            "run_fig1",
        ),
        "repro.experiments.fig6": ("Fig6Result", "run_fig6"),
        "repro.experiments.fig7": ("Fig7Result", "run_fig7"),
        "repro.experiments.perapp": ("PerAppResult", "run_perapp"),
        "repro.experiments.scurves": ("ScurveResult", "run_scurve"),
        "repro.experiments.table4": ("Table4Result", "characterise", "run_table4"),
        "repro.experiments.table7": ("Table7Result", "run_table7"),
        "repro.experiments.tables": ("render_table2", "render_table3", "render_table6"),
    },
)

__all__ = [
    "AblationResult",
    "run_interval_ablation",
    "run_monitor_sets_ablation",
    "run_priority_range_ablation",
    "BASELINE_POLICY",
    "FIGURE_POLICIES",
    "ExperimentSettings",
    "Runner",
    "scale_factor",
    "Fig1Result",
    "forced_tadrrip",
    "forced_tadrrip_spec",
    "run_fig1",
    "Fig6Result",
    "run_fig6",
    "Fig7Result",
    "run_fig7",
    "PerAppResult",
    "run_perapp",
    "ScurveResult",
    "run_scurve",
    "Table4Result",
    "characterise",
    "run_table4",
    "Table7Result",
    "run_table7",
    "render_table2",
    "render_table3",
    "render_table6",
]
