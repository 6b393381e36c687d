"""Per-layer metrics of the traced run, and the end-to-end metric each should move.

``PER_LAYER`` is the metric list that ``BENCHMARK.json`` declares; the
benchmark refuses to run when the two disagree.  ``LAYER_MAP`` records,
before any optimisation is measured, which end-to-end metric a change to each
layer should move and on which workloads it should stay put.
"""

from __future__ import annotations

from spans import SPAN_NAMES, SPLIT_TAGS

PROBE_SPLIT = (("single-reserve", 16), ("anonymous-second-price", 16),
               ("player-reserves", 16), ("t-level", 16), ("best-of", 12))

PER_LAYER: tuple[tuple[str, str, str], ...] = (
    *((f"{name}.calls", "count", "lower") for name in SPAN_NAMES),
    *((f"{name}.self_s", "s", "lower") for name in SPAN_NAMES),
    ("splitsample.subsets", "count", "lower"),
    ("splitsample.distinct_ratio", "ratio", "higher"),
    *((f"splitsample.us_per_subset.{tag}", "us", "lower") for tag in SPLIT_TAGS),
    ("erm.candidate_cells", "count", "lower"),
    ("erm.refused", "count", "lower"),
    ("model.values_drawn", "count", "lower"),
    ("mechanisms.profile_evals", "count", "lower"),
    ("mechanisms.mc_draws", "count", "lower"),
    ("bounds.sign_cells", "count", "lower"),
    ("experiments.optimum_cells", "count", "lower"),
    ("setup.import_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("experiments.threads1_wall_s", "s", "lower"),
    ("experiments.threads2_wall_s", "s", "lower"),
    ("experiments.threads2_speedup", "ratio", "higher"),
    *((f"probe.split_us_per_subset.m{m}.{tag}", "us", "lower") for tag, m in PROBE_SPLIT),
    ("probe.erm_ms.single-reserve.m2000", "ms", "lower"),
    ("probe.erm_ms.t-level-s2.m30", "ms", "lower"),
)

# (layer metrics, end-to-end metric they should move, where they move and,
# in parentheses, where they should not)
LAYER_MAP = (
    ("splitsample.split_sample_space.*, splitsample.subsets, "
     "splitsample.us_per_subset.{anonymous-second-price,player-reserves,t-level,best-of}",
     "wall_s", "split-growth (not cli-experiment, experiment-mc)"),
    ("splitsample.us_per_subset.single-reserve", "wall_s", "chain-check"),
    ("splitsample.distinct_ratio", "wall_s", "split-growth, chain-check"),
    ("erm.erm.*, erm.candidate_cells", "wall_s", "cli-experiment (small on chain-check)"),
    ("erm.refused", "error_rate", "all"),
    ("model.sample_values.*, model.values_drawn", "wall_s",
     "experiment-mc (near zero elsewhere)"),
    ("mechanisms.profile_revenues.*, mechanisms.profile_evals, "
     "mechanisms.monte_carlo_true_revenue.*, mechanisms.mc_draws", "wall_s", "experiment-mc"),
    ("mechanisms.analytic_true_revenue.*", "wall_s", "cli-experiment, chain-check"),
    ("bounds.rademacher_estimate.*, bounds.sign_cells, bounds.generalization_chain_check.self_s",
     "wall_s", "chain-check, split-growth"),
    ("experiments.in_class_optimum.*, experiments.optimum_cells", "wall_s, peak_rss_mb",
     "experiment-mc"),
    ("experiments.generalization_experiment.self_s, experiments.writers.self_s, "
     "cli.main.self_s", "wall_s", "cli-experiment"),
    ("setup.import_s", "setup_s", "all"),
    ("trace.overhead_s", "none", "all"),
    ("experiments.threads{1,2}_wall_s, experiments.threads2_speedup", "none",
     "informs whether the --threads pool is worth keeping"),
    ("probe.*", "none", "workload-independent baselines next to ROADMAP's figures"),
)
