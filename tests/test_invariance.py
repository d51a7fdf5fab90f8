"""Runs checked against themselves: scale and base-genus invariance.

Admissibility, classes and certificates read only ratios of areas, so
multiplying lambda, the base sizes and the blowup sizes by one positive t
must keep every count and every certificate; only size and moment texts
change.  A ruled run reads only areas, and the base genus changes no area,
so changing the genus must keep them too.  The generalized ruled family
keeps a law of its own at its first r levels.  These checks need no pinned
digest, so they also hold a run that has none (Chen, Cheung and Yiu,
*Metamorphic testing*, HKUST-CS98-01, 1998).  t = 3 triples every area and
height the kernel holds as an integer over the class vector's denominator
D; t = 7/5 also multiplies D by 5.
"""

import json
import math
from collections import Counter
from dataclasses import replace
from fractions import Fraction as F
from pathlib import Path

import pytest

from decgraph.blowup import INTERIOR, SURFACE, blowup_sites
from decgraph.enumeration import enumerate_levels
from decgraph.scenarios import load_scenario, run_scenario

ROOT = Path(__file__).resolve().parents[1]
DEEP = str(ROOT / "perfbench" / "ruled-deep.scenario")


def invariants(scenario) -> tuple:
    """The level log without sizes, the multiset of (ledger, verdict,
    certificate) and the gates of one run."""
    outcome = run_scenario(scenario)
    levels = [
        (lv.depth, lv.sites, lv.kept, lv.merged) for lv in outcome.result.branch_log
    ]
    graphs = Counter(json.dumps(g, sort_keys=True) for g in outcome.report["graphs"])
    return levels, graphs, outcome.report["gates"]


def scaled(scenario, t):
    """``scenario`` with lambda, the base sizes and the sizes times ``t``."""
    times = lambda xs: tuple(t * x for x in xs)
    lam_b = None if scenario.lam_b is None else t * scenario.lam_b
    return replace(
        scenario,
        lam=t * scenario.lam,
        lam_b=lam_b,
        base_deltas=times(scenario.base_deltas),
        sizes=times(scenario.sizes),
    )


@pytest.mark.parametrize(
    "name", ["cp2-six", "cp2-six-alt", "ruled-three", "ruled-general-4", DEEP],
    ids=lambda n: Path(n).stem,
)
def test_scaling_every_size_keeps_levels_certificates_and_gates(name):
    scenario = load_scenario(name)
    levels, graphs, gates = invariants(scenario)
    assert levels and graphs
    for t in (F(3), F(7, 5)):
        assert invariants(scaled(scenario, t)) == (levels, graphs, gates), t


@pytest.mark.parametrize("name", ["ruled-three", "ruled-general-4"])
@pytest.mark.parametrize("genus", [1, 3])
def test_the_base_genus_keeps_levels_certificates_and_gates(name, genus):
    scenario = load_scenario(name)
    assert scenario.genus == 2
    assert invariants(replace(scenario, genus=genus)) == invariants(scenario)


@pytest.mark.parametrize(
    "name, r", [("ruled-general-4", 4), (DEEP, 6)], ids=["ruled-general-4", "ruled-deep"]
)
def test_the_regular_levels_of_the_generalized_ruled_family(name, r):
    """At levels 1 to r, each size just over half the one before, level d
    keeps (d+1)!/2 graphs, nothing merges after level 1, and each parent
    below level r has 2 surface sites and d interior sites at the next size."""
    spec = load_scenario(name).enumeration_spec()
    levels = list(enumerate_levels(spec))
    assert len(levels) >= r + 1
    for d in range(1, r + 1):
        lv = levels[d].branch_log[-1]
        assert lv.depth == d and lv.kept == math.factorial(d + 1) // 2, d
        assert d == 1 or lv.merged == 0, d
    for d in range(1, r):
        delta = spec.sizes[d]
        for g in levels[d].graphs:
            kinds = Counter(site.kind for site in blowup_sites(g, delta))
            assert kinds == {SURFACE: 2, INTERIOR: d}, (d, kinds)
