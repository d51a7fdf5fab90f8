"""Names and units of the benchmark's metrics, and where the traced ones come from.

This module imports nothing from decgraph, so the metric tables can be read
without the program.
"""

WORKLOAD_NAMES = ("paper", "ruled-deep", "replay")
# The four builtins that ``decgraph verify-paper`` runs, fixed here so that a
# builtin added later does not change the work a ``paper`` pass measures.
PAPER_SCENARIOS = ("cp2-six", "cp2-six-alt", "ruled-three", "ruled-general-4")
LEVELS = range(7)

END_TO_END = {"verdict_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

# Per-layer times: metric -> stats keys summed within one pass; the metric is
# the median over the traced passes.
PASS_TIMES = {
    "enumeration.total_s": [("enumeration.total", "total")],
    "enumeration.dedup_s": [("enumeration.dedup", "total")],
    "enumeration.cross_check_s": [("enumeration.cross_check", "total")],
    **{f"enumeration.L{d}_s": [("level", d)] for d in LEVELS},
    "blowup.sites_s": [("blowup.sites", "total")],
    "blowup.apply_s": [("blowup.apply", "total")],
    "blowup.validate_s": [("blowup.validate", "total")],
    "graphs.generic_form_s": [("graphs.generic_form", "total")],
    "graphs.normal_form_s": [("graphs.normal_form", "total")],
    "graphs.canonical_text_s": [("graphs.canonical_text", "total")],
    "graphs.parse_s": [("graphs.parse", "total")],
    "lattice.pair_s": [("lattice.pair", "total")],
    "lattice.intersect_s": [("lattice.intersect", "total")],
    "obstruct.total_s": [("obstruct.total", "total")],
    "obstruct.certify_s": [("obstruct.certify", "total")],
    "obstruct.search_s": [("obstruct.search", "total")],
    "cone.total_s": [
        (f"cone.{part}", "total") for part in ("nakai", "audit", "picard", "membership")
    ],
    **{f"scenarios.{b}_s": [("scenario", b)] for b in PAPER_SCENARIOS},
    "scenarios.self_s": [("scenarios.run", "self")],
    "cli.replay_self_s": [("cli.main", "self")],
}

# Per-layer counts: metric -> stats key.  They must repeat exactly from one
# traced pass to the next.
PASS_COUNTS = {
    "enumeration.dedup_calls": ("enumeration.dedup_key", "calls"),
    "enumeration.children": ("count", "enumeration.children"),
    "enumeration.kept": ("count", "enumeration.kept"),
    "enumeration.merged": ("count", "enumeration.merged"),
    "blowup.sites_calls": ("blowup.sites", "calls"),
    "blowup.apply_calls": ("blowup.apply", "calls"),
    "blowup.validate_calls": ("blowup.validate", "calls"),
    "graphs.generic_form_calls": ("graphs.generic_form", "calls"),
    "graphs.normal_form_calls": ("graphs.normal_form", "calls"),
    "graphs.canonical_text_calls": ("graphs.canonical_text", "calls"),
    "graphs.permute_calls": ("graphs.permute", "calls"),
    "graphs.parse_calls": ("graphs.parse", "calls"),
    "lattice.pair_calls": ("lattice.pair", "calls"),
    "lattice.intersect_calls": ("lattice.intersect", "calls"),
    "obstruct.graphs": ("count", "obstruct.graphs"),
    "obstruct.obstructed": ("count", "obstruct.obstructed"),
    "obstruct.certified": ("count", "obstruct.certified"),
    "cone.membership_calls": ("cone.membership", "calls"),
}

# Per-layer times of the traced set-up.
SETUP_TIMES = {
    "scenarios.load_s": ("scenarios.load", "total"),
    "graphs.export_s": ("graphs.export", "total"),
}

PER_LAYER_UNITS = {
    **{name: "s" for name in PASS_TIMES},
    **{name: "count" for name in PASS_COUNTS},
    **{name: "s" for name in SETUP_TIMES},
    "enumeration.kept_ratio": "ratio",
    "enumeration.peak_alloc_mb": "MB",
    "trace.overhead_ratio": "ratio",
    "setup.import_s": "s",
}
