"""A guard on what a finished run keeps in memory per graph.

A run holds its final graphs (``RunOutcome.result``) and its report.  A graph
keeps no index once it is keyed or expanded, and the report shares its
repeated texts and certificates, so ruled-general-4 retains about 1,615 bytes
per final graph (1,760 when a fixed surface also held its size and genus and
a graph its model, 4,038 when every graph kept its index and the report built
each ledger text and certificate anew).  A change that caches per graph again
shows here.

A split level rebuilds the worker's children here, sharing their vertex and
edge objects as siblings made here do; each mode is held to the same bound
(rebuilt graphs that shared nothing read 2,175 bytes per graph).
"""

import gc
import tracemalloc
from pathlib import Path

import pytest

from decgraph.scenarios import load_scenario, run_scenario

BYTES_PER_GRAPH = 1615
BOUND = 1.25 * BYTES_PER_GRAPH
DEEP_BYTES_PER_GRAPH = 1638  # perfbench/ruled-deep.scenario on one CPU
DEEP_SCENARIO = str(Path(__file__).resolve().parents[1] / "perfbench" / "ruled-deep.scenario")


def retained_per_graph(name: str, count: int) -> float:
    """Bytes that a finished run of ``name`` retains, per final graph."""
    run_scenario(load_scenario("ruled-three"))  # one-time caches, outside the count
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        outcome = run_scenario(load_scenario(name))
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(outcome.result.graphs) == len(outcome.report["graphs"]) == count
    return retained / count


def test_a_held_run_retains_little_per_final_graph(one_cpu):
    per_graph = retained_per_graph("ruled-general-4", 317)
    assert per_graph <= BOUND, f"{per_graph:.0f} bytes per graph"


def test_a_held_split_run_retains_little_per_final_graph(two_cpus):
    per_graph = retained_per_graph("ruled-general-4", 317)
    assert len(two_cpus) == 1
    assert per_graph <= BOUND, f"{per_graph:.0f} bytes per graph"


@pytest.mark.parametrize("mode", ["one_cpu", "two_cpus"])
def test_a_held_deep_run_retains_little_per_final_graph(mode, request):
    request.getfixturevalue(mode)
    per_graph = retained_per_graph(DEEP_SCENARIO, 2520)
    assert per_graph <= 1.25 * DEEP_BYTES_PER_GRAPH, f"{per_graph:.0f} bytes per graph"
