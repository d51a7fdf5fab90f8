"""Acceptance suite: one test per shipped criterion, exact tolerances.

Each test prints a PASS line once its criterion holds, so a verbose run
doubles as the acceptance report.
"""

import itertools
import random
from fractions import Fraction as F

import pytest

from decgraph.blowup import BlowupError, apply_blowup, blowup_sites
from decgraph.cone import (
    ConeWitness,
    cone_membership,
    curve_list_audit,
    nakai_check,
    verify_picard_basis,
)
from decgraph.enumeration import (
    EnumerationSpec,
    _base_family_params,
    classify_sequence_types,
    cross_check_instantiation,
    dedup_key,
    enumerate_graphs,
    hirzebruch_base_graphs,
    ruled_base_graphs,
)
from decgraph.graphs import (
    BaseFamilyParams,
    DecoratedGraph,
    Edge,
    LedgerEntry,
    Vertex,
    base_hirzebruch,
    base_ruled,
    canonical_text,
    generic_form,
    normal_form,
    normal_key,
    validate,
)
from decgraph.lattice import (
    CohomologyVector,
    canonical_chern,
    intersect,
    pair,
    twice_adjunction_genus,
)
from decgraph.obstruct import RULE_NEGATIVE_PAIR, RULE_NEGATIVE_SQUARE
from decgraph.scenarios import (
    WITNESS_FAMILIES,
    builtin_scenarios,
    run_scenario,
)
from test_cone import lists_on
from test_graphs import plane, ruled

OMEGA6 = CohomologyVector.rational(1, ["1/2", "1/4", "1/4", "1/4", "3/16", "1/8"])
OMEGA_W3 = CohomologyVector.ruled(1, 1, ["3/5", "7/20", "3/10"], genus=2)
M6 = OMEGA6.model
LISTS = lists_on(M6, OMEGA_W3.model)


def report(line):
    print(f"PASS  {line}")


def test_criterion_01_intersection_spot_table():
    P = M6.parse
    table = [
        ("E5", "E5-E6", -1),
        ("E1-E2-E5", "E1-E2", -2),
        ("E1-E2-E6", "E1-E2", -2),
        ("L-E2-E3-E4", "E1-E2", -1),
        ("L-E2-E3-E5", "E1-E2", -1),
        ("L-E2-E4-E5", "E1-E2", -1),
        ("L-E3-E4-E5", "L-E3-E4", -1),
    ]
    for a, b, want in table:
        assert intersect(P(a), P(b)) == want, (a, b)
    report("criterion 1: intersection spot table exact")


def test_criterion_02_positivity_reports():
    plane = nakai_check(OMEGA6, LISTS["plane-six"])
    assert plane.passed
    assert plane.square == F(131, 256)
    assert min(p for _, p in plane.pairings) == F(1, 16)
    ruled = nakai_check(OMEGA_W3, LISTS["ruled-three"])
    assert ruled.passed
    assert [p for _, p in ruled.pairings] == [F(1, 20), F(1, 20), F(3, 10), F(1, 4), F(2, 5)]
    report("criterion 2: positivity passes with square 131/256, minimum 1/16;"
           " ruled pairings (1/20,1/20,3/10,1/4,2/5)")


def test_criterion_03_curve_audit_and_basis():
    audit = curve_list_audit(LISTS["plane-six"])
    assert audit.count("minus_two") == 4
    assert audit.count("minus_one") == 6
    assert audit.flagged == ()
    assert verify_picard_basis(list(LISTS["plane-six"].generators[:7]))
    c1 = canonical_chern(M6)
    assert intersect(c1, c1) == 3
    report("criterion 3: 4+6 negative-class split, rank-7 basis, degree 3")


def test_criterion_04_enumeration_counts():
    base = base_hirzebruch(plane(), BaseFamilyParams("two_surfaces", 1))
    res = enumerate_graphs(EnumerationSpec((base,), (F(1, 4),) * 3))
    assert len(res.graphs) == 2
    reps = ((1, 1), (1, 2), (2, 1))
    bases = hirzebruch_base_graphs(1, F(1, 2), reps)
    for params, other in zip(_base_family_params(1, F(1, 2), reps), bases, strict=True):
        if params.family == "two_surfaces":
            continue
        dead = enumerate_graphs(EnumerationSpec((other,), (F(1, 4),) * 3))
        assert dead.graphs == (), params
    report("criterion 4: exactly 2 classes from the two-surface base;"
           " the other three families die at the third equal blowup")


def test_criterion_05_six_blowup_theorem():
    outcome = run_scenario(builtin_scenarios()["cp2-six"])
    assert outcome.exit_code == 0
    assert outcome.report["obstruction"]["all_obstructed"]
    family = WITNESS_FAMILIES["six-blowup"]
    model = outcome.result.graphs[0].model
    witnesses = [model.parse(t) for t in outcome.report["witness_classes"]]
    assert witnesses and all(family(c) for c in witnesses)
    report(f"criterion 5: cp2-six exit 0, all {len(outcome.result.graphs)}"
           " graphs obstructed, tracked classes inside the case family")


def test_criterion_06_six_blowup_alternate():
    outcome = run_scenario(builtin_scenarios()["cp2-six-alt"])
    assert outcome.exit_code == 0
    assert outcome.report["obstruction"]["all_obstructed"]
    report("criterion 6: cp2-six-alt exit 0 with required classes"
           " E1, E5-E6, L-E2-E3-E4")


def test_criterion_07_ruled_theorem():
    assert len(ruled_base_graphs(1, 1, 2)) == 1
    outcome = run_scenario(builtin_scenarios()["ruled-three"])
    assert outcome.exit_code == 0
    buckets = classify_sequence_types(outcome.result.graphs)
    assert not buckets["unclassified"]
    assert {k: len(v) for k, v in buckets.items() if k != "unclassified"} == {
        "I": 3, "II": 2, "III": 2, "IV": 2,
    }

    # intermediate stabilizer-2 sphere: its poles cannot take the last size
    g = base_ruled(ruled(), 0)
    g = generic_form(apply_blowup(g, g.vertices[0].vid, F(3, 5)))
    site = [s for s in blowup_sites(g, F(7, 20)) if s.kind == "interior"][0]
    g = generic_form(apply_blowup(g, site.vertex, F(7, 20)))
    pole_bounds = sorted(
        F(s.bound, g.omega.denominator)
        for s in blowup_sites(g, F(1, 100))
        if s.kind == "interior"
    )
    assert pole_bounds == [F(1, 20), F(1, 4)]
    assert not any(s.kind == "interior" for s in blowup_sites(g, F(3, 10)))

    for verdict in outcome.report["graphs"]:
        cert = verdict["certificate"]
        if verdict["ledger"][2].endswith("interior:2"):
            assert cert["rule"] == RULE_NEGATIVE_SQUARE
            assert cert["certified"] == "E2-E3" and cert["intersection"] == -2
        else:
            assert cert["rule"] == RULE_NEGATIVE_PAIR
            assert cert["certified"] == "E2" and cert["intersection"] == -1
    report("criterion 7: one ruled base, patterns I-IV complete, poles"
           " bounded by 1/20 and 1/4, exit 0 with the expected rules")


def test_criterion_08_effective_cone_stand_in():
    gens = LISTS["ruled-three"]
    model = gens.model
    for coeffs in itertools.product(range(4), repeat=len(gens.generators)):
        target = model.zero()
        for a, gcls in zip(coeffs, gens.generators):
            target = target + a * gcls
        outcome = cone_membership(target, gens)
        assert isinstance(outcome, ConeWitness), coeffs
    fiber = cone_membership(model.parse("F"), gens)
    assert fiber.coefficients == (F(1), F(2), F(2), F(1), F(0))
    section = cone_membership(model.parse("B"), gens)
    assert section.coefficients == (F(0), F(1), F(1), F(1), F(1))
    report("criterion 8: 4^5 witness sums re-certified; F and B decompose"
           " with the exact expected witnesses")


def _unbroken_min_surface_variant():
    """The third size on the all-bottom depth-3 graph, drawn with the new
    chain threaded through an existing one (the non-generic metric)."""
    om = CohomologyVector.rational(
        1, [F(1, 2), F(1, 4), F(1, 4), F(1, 4), F(3, 16)]
    )
    m = om.model
    P = m.parse
    vs = [
        Vertex("0.min", 0, P("L-E2-E3-E4-E5")),
        Vertex("0.max", 8, P("E1")),  # heights over 16
        Vertex("1.c", 4),
        Vertex("2.c", 4),
        Vertex("3.c", 4),
        Vertex("4.c", 3),
    ]
    es = [
        Edge("0.min", "4.c", 1, P("E5")),
        Edge("4.c", "1.c", 1, P("E2-E5")),
        Edge("1.c", "0.max", 1, P("L-E1-E2")),
        Edge("0.min", "2.c", 1, P("E3")),
        Edge("2.c", "0.max", 1, P("L-E1-E3")),
        Edge("0.min", "3.c", 1, P("E4")),
        Edge("3.c", "0.max", 1, P("L-E1-E4")),
    ]
    ledger = (LedgerEntry("surface", "min"),) * 4
    return DecoratedGraph.build(om, vs, es, ledger, P("L-E1"))


def test_criterion_09_property_suites():
    # strict admissibility at the bound
    g = base_hirzebruch(plane(), BaseFamilyParams("two_surfaces", 1))
    site = blowup_sites(g, F(1, 4))[0]
    bound = F(site.bound, g.omega.denominator)
    with pytest.raises(BlowupError):
        apply_blowup(g, site.vertex, bound)
    assert validate(apply_blowup(g, site.vertex, bound - F(1, 1000))) == []

    # a thousand randomized admissible blowups keep graphs valid
    rng = random.Random(424242)
    bases = [
        base_hirzebruch(plane(), BaseFamilyParams("two_surfaces", 1)),
        base_hirzebruch(plane(), BaseFamilyParams("one_surface", 1)),
        base_hirzebruch(plane(), BaseFamilyParams("isolated_left", 1, 1, 2)),
        base_hirzebruch(plane(), BaseFamilyParams("isolated_right", 1, 2, 1)),
        base_ruled(ruled(), 0),
        base_ruled(ruled(1, 2, 1), 1),
    ]
    done = 0
    while done < 1000:
        h = generic_form(rng.choice(bases))
        for _ in range(4):
            sites = blowup_sites(h, F(1, 10**9))
            if not sites:
                break
            s = rng.choice(sites)
            delta = F(s.bound, h.omega.denominator) * F(rng.randint(1, 99), 100)
            h = generic_form(apply_blowup(h, s.vertex, delta))
            assert validate(h) == []
            done += 1

    # enumerated graphs: genus-zero edge classes and exact area-height match
    sizes = (F(1, 4), F(1, 4), F(1, 4), F(3, 16), F(1, 8))
    bases6 = tuple(hirzebruch_base_graphs(1, F(1, 2), ((1, 1), (1, 2), (2, 1))))
    res = enumerate_graphs(EnumerationSpec(bases6, sizes))
    for graph in res.graphs:
        for e in graph.edges:
            assert twice_adjunction_genus(e.cls) == 0
            gap = F(
                graph.vertex(e.top).height - graph.vertex(e.bottom).height,
                graph.omega.denominator,
            )
            assert gap == e.label * pair(graph.omega, e.cls)
        for v in graph.vertices:
            if v.fat is not None:  # a rational surface fixes spheres only
                assert twice_adjunction_genus(v.fat) == 0
        nf = normal_form(graph)
        assert canonical_text(normal_form(nf)) == canonical_text(nf)

    # graphs the generic-metric move identifies are merged by equivalence
    one = base_hirzebruch(plane(), BaseFamilyParams("one_surface", 1))
    spawn = apply_blowup(one, "0.min", F(1, 4))  # the one fixed surface
    m2 = spawn.model
    threaded = DecoratedGraph.build(
        spawn.omega,
        [
            Vertex("0.min", 0, m2.parse("L-E1-E2")),
            Vertex("0.a", 2),  # heights over 4
            Vertex("0.max", 4),
            Vertex("1.c", 1),
        ],
        [
            Edge("0.min", "1.c", 1, m2.parse("E2")),
            Edge("1.c", "0.a", 1, m2.parse("E1-E2")),
            Edge("0.a", "0.max", 1, m2.parse("L-E1")),
            Edge("0.min", "0.max", 1, m2.parse("L")),
        ],
        (LedgerEntry("surface", "min"),),
        m2.parse("L"),
    )
    assert normal_key(spawn) == normal_key(threaded)

    deep = base_hirzebruch(plane(), BaseFamilyParams("two_surfaces", 1))
    for _ in range(3):
        deep = generic_form(apply_blowup(deep, deep.vertices[0].vid, F(1, 4)))
    deep = generic_form(apply_blowup(deep, deep.vertices[0].vid, F(3, 16)))
    assert normal_key(deep) == normal_key(_unbroken_min_surface_variant())

    # symbolic labels instantiated at three representatives branch alike
    reps = ((1, 1), (1, 2), (2, 1))
    params = list(_base_family_params(1, F(1, 2), reps))
    cross_check_instantiation(hirzebruch_base_graphs(1, F(1, 2), reps), params, sizes)
    report("criterion 9: strictness, 1000 random valid blowups, sphere"
           " classes, exact areas, idempotent normal form, metric pairs"
           " merged, label instantiation cross-checked")


def test_criterion_10_generalized_ruled_scenario():
    scenario = builtin_scenarios()["ruled-general-4"]
    outcome = run_scenario(scenario)
    assert outcome.exit_code == 0  # advisory: pipeline gates only
    assert len(outcome.result.graphs) > 0
    assert "advisory_verdict" in outcome.report["obstruction"]

    # the staircase with stabilizer labels 1,2,3,4 appears four levels deep
    spec = scenario.enumeration_spec()
    partial = enumerate_graphs(
        EnumerationSpec(spec.bases, spec.sizes[:4], spec.permute_equal_sizes)
    )
    g = generic_form(spec.bases[0])
    d1, d2, d3, d4 = spec.sizes[:4]
    g = generic_form(apply_blowup(g, g.vertices[0].vid, d1))
    for delta, vid in ((d2, "1.c"), (d3, "2.hi"), (d4, "3.hi")):
        g = generic_form(apply_blowup(g, vid, delta))
    assert sorted(e.label for e in g.edges) == [1, 1, 2, 3, 4]
    keys = {dedup_key(x) for x in partial.graphs}
    assert dedup_key(g) in keys
    report(f"criterion 10: generalized scenario enumerates"
           f" {len(outcome.result.graphs)} graphs, staircase graph present,"
           f" verdict reported ({outcome.report['obstruction']['advisory_verdict']})")
