"""A guard on what a finished run keeps in memory per graph.

A run holds its final graphs (``RunOutcome.result``) and its report.  A graph
keeps no index once it is keyed or expanded, and the report shares its
repeated texts and certificates, so ruled-general-4 retains about 1,615 bytes
per final graph (1,760 when a fixed surface also held its size and genus and
a graph its model, 4,038 when every graph kept its index and the report built
each ledger text and certificate anew).  A change that caches per graph again
shows here.
"""

import gc
import tracemalloc

from decgraph.scenarios import load_scenario, run_scenario

BYTES_PER_GRAPH = 1615
BOUND = 1.25 * BYTES_PER_GRAPH


def test_a_held_run_retains_little_per_final_graph():
    run_scenario(load_scenario("ruled-three"))  # one-time caches, outside the count
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        outcome = run_scenario(load_scenario("ruled-general-4"))
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    count = len(outcome.result.graphs)
    assert count == len(outcome.report["graphs"]) == 317
    assert retained / count <= BOUND, f"{retained / count:.0f} bytes per graph"
