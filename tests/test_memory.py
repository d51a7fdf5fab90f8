"""A guard on what a finished run keeps in memory per graph.

A run holds its final graphs (``RunOutcome.result``) and its report.  A graph
keeps no index once it is keyed or expanded, and its caches are slots, so it
has no instance dict; the report shares its repeated texts and certificates,
and the graphs of a run share one object per ledger step and per vertex id.
So ruled-general-4 retains about 1,455 bytes per final graph and ruled-deep
about 1,352 (1,415 and 1,343 when a class kept its text and genus in slots,
not in an instance dict; 1,418 and 1,350 when a graph kept two index slots;
for ruled-general-4, 1,527 when its caches lived in an instance dict, 1,704
when each child made its own ledger step and ids, 1,760 when a fixed surface
also held its size and genus and a graph its model, 4,038 when every graph
kept its index and the report built each ledger text and certificate anew).
The bounds stay 1.25 times the figures they were set on, 1,410 and 1,342.
A change that caches per graph again shows here.

The obstruction report of ruled-deep's final graphs holds about 101 bytes
per graph, a verdict each and one certificate per distinct certificate (211
when the search built a certificate per graph).
"""

import gc
import tracemalloc
from pathlib import Path

from decgraph.enumeration import enumerate_graphs
from decgraph.obstruct import check_nonextension
from decgraph.scenarios import load_scenario, run_scenario

BYTES_PER_GRAPH = 1410
BOUND = 1.25 * BYTES_PER_GRAPH
DEEP_BYTES_PER_GRAPH = 1342  # perfbench/ruled-deep.scenario
DEEP_REPORT_BYTES_PER_GRAPH = 101  # check_nonextension's report on ruled-deep
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


def test_a_held_run_retains_little_per_final_graph():
    per_graph = retained_per_graph("ruled-general-4", 317)
    assert per_graph <= BOUND, f"{per_graph:.0f} bytes per graph"


def test_a_held_deep_run_retains_little_per_final_graph():
    per_graph = retained_per_graph(DEEP_SCENARIO, 2520)
    assert per_graph <= 1.25 * DEEP_BYTES_PER_GRAPH, f"{per_graph:.0f} bytes per graph"


def test_a_deep_obstruction_report_holds_little_per_graph():
    scenario = load_scenario(DEEP_SCENARIO)
    spec = scenario.enumeration_spec()
    graphs = enumerate_graphs(spec).graphs
    required = scenario.required_classes(spec.final_omega.model)
    check_nonextension(graphs, required, scenario.mode)  # one-time caches, outside the count
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        report = check_nonextension(graphs, required, scenario.mode)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(report.verdicts) == len(graphs) == 2520
    per_graph = retained / len(graphs)
    assert per_graph <= 1.25 * DEEP_REPORT_BYTES_PER_GRAPH, f"{per_graph:.0f} bytes per graph"


def test_a_deep_run_shares_its_ledger_steps_and_vertex_ids():
    """Counted by identity: ruled-deep's final graphs hold 7 ledger steps and
    18 vertex ids, one object per value (2,956 and 5,041 when each child
    made its own)."""
    graphs = run_scenario(load_scenario(DEEP_SCENARIO)).result.graphs
    assert len(graphs) == 2520
    steps = {id(step) for g in graphs for step in g.ledger}
    ids = {id(v.vid) for g in graphs for v in g.vertices}
    ids |= {id(end) for g in graphs for e in g.edges for end in (e.bottom, e.top)}
    assert (len(steps), len(ids)) == (7, 18)
    assert len({step for g in graphs for step in g.ledger}) == 7
    assert len({v.vid for g in graphs for v in g.vertices}) == 18


def test_no_final_graph_has_an_instance_dict():
    """Every cache of a graph is one of its slots after its values, so a
    cache kept anywhere else fails here rather than growing each graph."""
    graphs = run_scenario(load_scenario("ruled-general-4")).result.graphs
    assert len(graphs) == 317
    assert sum(hasattr(g, "__dict__") for g in graphs) == 0
