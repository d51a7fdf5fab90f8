import json
from fractions import Fraction as F
from pathlib import Path

import pytest

from decgraph.blowup import apply_blowup, blowup_sites
from decgraph.enumeration import EnumerationSpec, enumerate_graphs
from decgraph.graphs import BaseFamilyParams, base_hirzebruch, base_ruled, generic_form
from decgraph.lattice import LatticeError, SurfaceModel, intersect
from decgraph.obstruct import (
    INTEGRABLE_BLOWUP,
    CertifiedClass,
    OBSTRUCTED,
    RULE_NEGATIVE_PAIR,
    RULE_NEGATIVE_SQUARE,
    STABILIZER_ONLY,
    UNOBSTRUCTED,
    RequiredClass,
    certified_classes,
    check_nonextension,
    find_certificate,
    is_proper_transform_shape,
    last_blowup_classes,
)
from test_graphs import plane, ruled

RULED_SIZES = (F(3, 5), F(7, 20), F(3, 10))
DEEP_SCENARIO = str(Path(__file__).resolve().parents[1] / "perfbench" / "ruled-deep.scenario")


def ruled_result():
    return enumerate_graphs(
        EnumerationSpec((base_ruled(ruled(), 0),), RULED_SIZES)
    )


def take(g, delta, **match):
    for s in blowup_sites(g, delta):
        if all(getattr(s, k) == v for k, v in match.items()):
            return generic_form(apply_blowup(g, s.vertex, delta))
    raise AssertionError("site not found")


def test_proper_transform_shape():
    m = SurfaceModel("ruled", 3, 2)
    assert is_proper_transform_shape(m.parse("E2-E3"))
    assert is_proper_transform_shape(m.parse("E1"))
    assert is_proper_transform_shape(m.parse("E1-E2-E3"))
    assert not is_proper_transform_shape(m.parse("E3-E2"))
    assert not is_proper_transform_shape(m.parse("F-E1"))
    assert not is_proper_transform_shape(m.parse("E1+E2"))
    assert not is_proper_transform_shape(m.parse("2E1-E2"))
    assert not is_proper_transform_shape(m.parse("E1-2E3"))


def test_certified_stabilizer_classes():
    g = base_ruled(ruled(), 0)
    g = take(g, F(3, 5), kind="surface")
    g = take(g, F(7, 20), kind="interior")
    cert = certified_classes(g, STABILIZER_ONLY)
    by_cls = {str(c.cls): c for c in cert}
    assert set(by_cls) == {"B", "B-E1", "E2"}
    assert by_cls["E2"].label == 2 and by_cls["E2"].pointwise_fixed(2)
    assert not by_cls["E2"].pointwise_fixed(3)
    assert by_cls["B"].label is None and by_cls["B"].pointwise_fixed(5)


def test_certified_integrable_adds_proper_transforms():
    g = base_ruled(ruled(), 0)
    g = take(g, F(3, 5), kind="surface")
    g = take(g, F(7, 20), kind="surface", end=g.ledger[0].detail)
    g = take(g, F(3, 10), kind="interior", vertex="2.c")  # type IV pattern
    stab = {str(c.cls) for c in certified_classes(g, STABILIZER_ONLY)}
    full = certified_classes(g, INTEGRABLE_BLOWUP)
    names = {str(c.cls) for c in full}
    assert "E2-E3" in names and "E2-E3" not in stab
    pt = [c for c in full if str(c.cls) == "E2-E3"][0]
    assert pt.justification == "proper_transform"
    assert not pt.pointwise_fixed(2)


def test_required_class_embedded_check():
    m = SurfaceModel("rational", 6)
    RequiredClass(m.parse("E1-E2"), 2)  # square -2, degree 0: a sphere class
    with pytest.raises(LatticeError):
        RequiredClass(m.parse("3L"), 2)  # genus one


def test_ruled_types_get_the_expected_rules():
    res = ruled_result()
    required = [RequiredClass(res.graphs[0].model.parse("E2-E3"), 2)]
    report = check_nonextension(res.graphs, required, INTEGRABLE_BLOWUP)
    assert report.all_obstructed and not report.vacuous
    for v in report.verdicts:
        cert = v.certificate
        interior_step = [e for e in v.graph.ledger if e.kind == "interior"]
        if interior_step and interior_step[0].detail == "2":
            assert cert.rule == RULE_NEGATIVE_SQUARE
            assert str(cert.certified.cls) == "E2-E3" and cert.intersection == -2
        else:
            assert cert.rule == RULE_NEGATIVE_PAIR
            assert str(cert.certified.cls) == "E2" and cert.intersection == -1


def test_stabilizer_mode_misses_the_negative_square_case():
    res = ruled_result()
    required = [RequiredClass(res.graphs[0].model.parse("E2-E3"), 2)]
    stab = check_nonextension(res.graphs, required, STABILIZER_ONLY)
    integ = check_nonextension(res.graphs, required, INTEGRABLE_BLOWUP)
    assert not stab.all_obstructed and integ.all_obstructed
    # enlarging the mode never loses an obstruction
    for a, b in zip(stab.verdicts, integ.verdicts):
        if a.verdict == OBSTRUCTED:
            assert b.verdict == OBSTRUCTED


@pytest.mark.parametrize(
    "model, name", [(plane().model, "L-E1"), (ruled().model, "F")], ids=["plane", "ruled"]
)
def test_a_square_zero_sphere_gets_no_negative_square_certificate(model, name):
    """The negative-square rule needs C.C < 0: a square-zero sphere with a
    stabilizer of order 2, required fixed by a group of order 3, which does
    not fix it pointwise, is no contradiction."""
    c = model.parse(name)
    assert intersect(c, c) == 0 and c.twice_genus == 0
    cert, req = CertifiedClass(c, "stabilizer", 2), RequiredClass(c, 3)
    assert not cert.pointwise_fixed(req.fixed_by)
    assert find_certificate([cert], [req]) is None


def test_a_graph_whose_only_match_is_a_square_zero_sphere_is_unobstructed():
    """An isolated plane base with (c, d) = (1, 2): its L-E1 spheres carry
    labels 2 and 3, so only the label-2 one escapes a group of order 3."""
    g = base_hirzebruch(plane(), BaseFamilyParams("isolated_left", 1, 1, 2))
    fib = g.model.parse("L-E1")
    assert [(c.cls, c.label) for c in certified_classes(g)] == [(fib, 2), (fib, 3)]
    (verdict,) = check_nonextension([g], [RequiredClass(fib, 3)]).verdicts
    assert verdict.verdict == UNOBSTRUCTED and verdict.certificate is None


def test_unobstructed_when_nothing_intersects_negatively():
    base = base_hirzebruch(plane(), BaseFamilyParams("two_surfaces", 1))
    res = enumerate_graphs(EnumerationSpec((base,), (F(1, 4),)))
    model = res.graphs[0].model
    required = [RequiredClass(model.parse("E1"), 2)]
    report = check_nonextension(res.graphs, required, STABILIZER_ONLY)
    assert any(v.verdict == UNOBSTRUCTED for v in report.verdicts)


def test_certificates_reverify_independently():
    res = ruled_result()
    required = [RequiredClass(res.graphs[0].model.parse("E2-E3"), 2)]
    report = check_nonextension(res.graphs, required, INTEGRABLE_BLOWUP)
    for v in report.verdicts:
        c = v.certificate
        assert intersect(c.certified.cls, c.required.cls) == c.intersection
        if c.rule == RULE_NEGATIVE_PAIR:
            assert c.certified.cls != c.required.cls and c.intersection < 0
        else:
            assert c.certified.cls == c.required.cls
            assert intersect(c.certified.cls, c.certified.cls) < 0
            assert not c.certified.pointwise_fixed(c.required.fixed_by)


def test_vacuous_report():
    report = check_nonextension([], [], STABILIZER_ONLY)
    assert report.vacuous and report.all_obstructed


def test_last_blowup_classes_toy_run():
    base = base_hirzebruch(plane(), BaseFamilyParams("two_surfaces", 1))
    res = enumerate_graphs(EnumerationSpec((base,), (F(1, 4),)))
    model = res.graphs[0].model
    tracked = last_blowup_classes(res.graphs, INTEGRABLE_BLOWUP)
    assert model.parse("E2") in tracked
    assert last_blowup_classes([]) == set()


def test_certified_requires_sane_arguments():
    g = base_ruled(ruled(), 0)
    with pytest.raises(LatticeError):
        certified_classes(g, "magic")


@pytest.mark.parametrize("name", ["cp2-six", "cp2-six-alt"])
def test_equal_size_identification_hides_no_unobstructed_graph(name):
    """Dedup identifies relabelings of the equal sizes E2, E3, E4, but the
    required classes are not symmetric under them; without the
    identification every graph is kept, and every one is still obstructed."""
    from dataclasses import replace

    from decgraph.scenarios import load_scenario, run_scenario

    outcome = run_scenario(replace(load_scenario(name), permute_equal_sizes=False))
    report = outcome.report
    assert report["enumeration"]["final_count"] == 92
    assert {g["verdict"] for g in report["graphs"]} == {OBSTRUCTED}
    assert all(report["gates"].values()) and outcome.passed


def test_a_search_makes_one_certificate_per_distinct_certificate():
    """ruled-deep's 2,508 obstructed final graphs carry 38 distinct
    certificates: the search makes one object for each (2,508 when it built
    one per graph), and the report one JSON dict for each."""
    from decgraph.scenarios import load_scenario, run_scenario

    scenario = load_scenario(DEEP_SCENARIO)
    outcome = run_scenario(scenario)
    graphs = outcome.result.graphs
    required = scenario.required_classes(graphs[0].model)
    report = check_nonextension(graphs, required, scenario.mode)
    certificates = [v.certificate for v in report.verdicts if v.certificate is not None]
    assert len(certificates) == 2508
    assert len({id(c) for c in certificates}) == len(set(certificates)) == 38
    dicts = [g["certificate"] for g in outcome.report["graphs"] if g["certificate"] is not None]
    assert len(dicts) == 2508
    assert len({id(d) for d in dicts}) == len({json.dumps(d, sort_keys=True) for d in dicts}) == 38
