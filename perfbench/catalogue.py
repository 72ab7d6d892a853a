"""Names, units and directions of every metric the benchmark reports.

Standard library only: ``run.py`` imports this before any child interpreter
has loaded rbtrees, numpy or scipy.
"""

from __future__ import annotations

WORKLOADS = ("height-uniform", "height-biased", "bounds-audit", "oracle-small")

# (name, unit, better) of the end-to-end metrics, printed with --trace 0.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("trials_per_s", "1/s", "higher"),
    ("cpu_ms_per_trial", "ms", "lower"),
    ("peak_rss_mb", "MiB", "lower"),
    ("success_rate", "ratio", "higher"),
)

# sample_height_only cells: label -> (theta spec, n). Spans and counts are
# keyed by these labels, so a metric always names the size it was taken at.
HEIGHT_CELLS = {
    "uniform_n1000": ("constant:1", 1000),
    "uniform_n10000": ("constant:1", 10000),
    "uniform_n100000": ("constant:1", 100000),
    "uniform_n1000000": ("constant:1", 1000000),
    "linear_n2000": ("linear:1", 2000),
    "linear_n10000": ("linear:1", 10000),
    "power_n100000": ("power:0.5", 100000),
}

# Timed calls reported as p50, p99 and call count:
# (metric base, span label, unit, nanoseconds per unit).
TIMINGS = (
    ("samplers.RandomSource.init_us", "samplers.RandomSource", "us", 1e3),
    *(
        (f"samplers.sample_height_only.{cell}.ms", f"samplers.sample_height_only[{cell}]", "ms", 1e6)
        for cell in HEIGHT_CELLS
    ),
    ("samplers.sample_record_count.us", "samplers.sample_record_count", "us", 1e3),
    ("samplers.sample_left_profile_matrix.s", "samplers.sample_left_profile_matrix[j20]", "s", 1e9),
    *(
        (f"samplers.sample_sequential.n{n}.us", f"samplers.sample_sequential[n{n}]", "us", 1e3)
        for n in (6, 100, 1000)
    ),
    ("samplers.sample_tree_recursive.us", "samplers.sample_tree_recursive", "us", 1e3),
    *(
        (f"model.{fn}.us", f"model.{fn}[n6]", "us", 1e3)
        for fn in ("build_bst", "height", "left_profile", "is_valid_bst", "height_via_profile")
    ),
    ("analytics.enumerate_exact.warm_us", "analytics.enumerate_exact[warm]", "us", 1e3),
    ("analytics.beta_product_survival.us", "analytics.beta_product_survival", "us", 1e3),
    ("analytics.chernoff_record_tail.us", "analytics.chernoff_record_tail", "us", 1e3),
    ("analytics.mu.ms", "analytics.mu[n1000000]", "ms", 1e6),
    ("experiments.chi_square_gof.us", "experiments.chi_square_gof", "us", 1e3),
    ("cli.main.overhead_ms", "cli.main", "ms", 1e6),
    ("cli.emit.ms", "cli.emit", "ms", 1e6),
)

# Summed self time of the experiment drivers, with call counts:
# (metric, span label).
SELF_TOTALS = (
    ("experiments.run_height_ratio.self_s", "experiments.run_height_ratio[serial]"),
    ("experiments.run_record_concentration.self_s", "experiments.run_record_concentration"),
    ("experiments.run_dominance_check.self_s", "experiments.run_dominance_check"),
)

# Single values: (name, unit, better).
VALUES = (
    ("analytics.enumerate_exact.cold_ms", "ms", "lower"),
    ("analytics.enumerate_exact.cold_ms.calls", "count", "higher"),
    ("experiments.parallel_efficiency", "ratio", "higher"),
    ("experiments.pool_cpu_ratio", "ratio", "lower"),
    ("cli.emit.bytes", "bytes", "lower"),
    *(
        (f"samplers.{what}.{cell}", "count", "lower")
        for cell in HEIGHT_CELLS
        for what in ("uniforms_per_trial", "spine_nodes_per_trial", "subtree_nodes_per_trial")
    ),
    ("trace.overhead.trials_per_s", "1/s", "higher"),
    ("trace.overhead.cpu_ms_per_trial", "ms", "lower"),
)


def per_layer() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every metric printed with --trace 1."""
    out = []
    for base, _label, unit, _scale in TIMINGS:
        out += [(f"{base}.p50", unit, "lower"), (f"{base}.p99", unit, "lower"), (f"{base}.calls", "count", "higher")]
    for name, _label in SELF_TOTALS:
        out += [(name, "s", "lower"), (f"{name}.calls", "count", "higher")]
    out += list(VALUES)
    return out
