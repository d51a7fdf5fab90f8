"""Runs checked against themselves: scale and base-genus invariance.

Admissibility, classes and certificates read only ratios of areas, so
multiplying lambda, the base sizes and the blowup sizes by one positive t
must keep every count and every certificate; only size and moment texts
change.  A ruled run reads only areas, and the base genus changes no area,
so changing the genus must keep them too.  These checks need no pinned
digest, so they also hold a run that has none (Chen, Cheung and Yiu,
*Metamorphic testing*, HKUST-CS98-01, 1998).  t = 3 triples every area and
height the kernel holds as an integer over the class vector's denominator
D; t = 7/5 also multiplies D by 5.
"""

import json
from collections import Counter
from dataclasses import replace
from fractions import Fraction as F
from pathlib import Path

import pytest

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
