import random
from fractions import Fraction as F

import pytest

from decgraph.blowup import apply_blowup, blowup_sites
from decgraph.enumeration import (
    EnumerationError,
    EnumerationSpec,
    _base_family_params,
    classify_sequence_types,
    cross_check_instantiation,
    dedup_key,
    enumerate_graphs,
    enumerate_levels,
    hirzebruch_base_graphs,
    ruled_base_graphs,
    site_kind_tree,
)
from decgraph.graphs import BaseFamilyParams, base_hirzebruch, base_ruled, generic_form
from decgraph.lattice import pair
from decgraph.scenarios import load_scenario
from test_graphs import plane, ruled

QUARTERS = (F(1, 4), F(1, 4), F(1, 4))
RULED_SIZES = (F(3, 5), F(7, 20), F(3, 10))


def test_two_surface_depth_three_has_two_classes():
    base = base_hirzebruch(plane(), BaseFamilyParams("two_surfaces", 1))
    res = enumerate_graphs(EnumerationSpec((base,), QUARTERS))
    assert len(res.graphs) == 2
    patterns = sorted(
        tuple(e.detail for e in g.ledger) for g in res.graphs
    )
    # one blowup on the small surface and two on the big one, or all three
    # on the big one (up to flip the engine may track the mirrored run)
    assert len({p.count(p[0]) for p in patterns}) == 2


def test_the_two_depth_three_graphs_are_inequivalent():
    from decgraph.graphs import normal_key

    base = base_hirzebruch(plane(), BaseFamilyParams("two_surfaces", 1))
    res = enumerate_graphs(EnumerationSpec((base,), QUARTERS))
    g1, g2 = res.graphs
    assert normal_key(g1) != normal_key(g2)


def test_other_bases_die_before_the_third_equal_blowup():
    reps = ((1, 1), (1, 2), (2, 1))
    bases = hirzebruch_base_graphs(1, F(1, 2), reps)
    for params, base in zip(_base_family_params(1, F(1, 2), reps), bases, strict=True):
        if params.family == "two_surfaces":
            continue
        assert base == base_hirzebruch(bases[0].omega, params)
        res = enumerate_graphs(EnumerationSpec((base,), QUARTERS))
        assert res.graphs == (), params
        assert res.branch_log[-1].kept == 0


def test_ruled_enumeration_levels_and_types():
    (base,) = ruled_base_graphs(1, 1, 2)
    res = enumerate_graphs(EnumerationSpec((base,), RULED_SIZES))
    assert [lv.kept for lv in res.branch_log] == [1, 3, 9]
    buckets = classify_sequence_types(res.graphs)
    assert {k: len(v) for k, v in buckets.items()} == {
        "I": 3, "II": 2, "III": 2, "IV": 2, "unclassified": 0,
    }


def test_ruled_base_is_unique_for_square_vector():
    assert len(ruled_base_graphs(1, 1, 2)) == 1
    # three rotation numbers fit, in increasing order
    bases = ruled_base_graphs(1, 3, 2)
    assert bases == [base_ruled(bases[0].omega, ell) for ell in range(3)]


def test_every_graph_extends_omega_by_the_size_list():
    base = base_ruled(ruled(), 0)
    res = enumerate_graphs(EnumerationSpec((base,), RULED_SIZES))
    for g in res.graphs:
        assert len(g.ledger) == 3
        for i, s in enumerate(RULED_SIZES, start=1):
            assert pair(g.omega, g.model.exceptional(i)) == s


def tampered_levels():
    """The levels of a ruled run, and its last level with the last graph
    moved onto a class vector of its own whose last size is wrong."""
    from dataclasses import replace

    from decgraph import enumeration
    from decgraph.lattice import CohomologyVector

    spec = EnumerationSpec((base_ruled(ruled(), 0),), RULED_SIZES)
    levels = list(enumeration._levels(spec))
    last = levels[-1]
    assert len({id(g.omega) for g in last.graphs}) < len(last.graphs)  # shared
    g = last.graphs[-1]
    wrong = CohomologyVector(g.model, g.omega.entries[:-1] + (RULED_SIZES[-1] / 2,))
    tampered = replace(last, graphs=last.graphs[:-1] + (replace(g, omega=wrong),))
    return spec, levels, tampered


def test_a_class_vector_with_a_wrong_size_trips_the_final_check(monkeypatch):
    """The final check reads each distinct class vector object once; a graph
    carrying its own vector with a wrong last size must still be caught."""
    from decgraph import enumeration

    spec, levels, tampered = tampered_levels()
    monkeypatch.setattr(enumeration, "_levels", lambda spec: iter(levels))
    assert enumerate_graphs(spec) is levels[-1]
    monkeypatch.setattr(enumeration, "_levels", lambda spec: iter(levels[:-1] + [tampered]))
    with pytest.raises(EnumerationError, match="is not on the final class vector"):
        enumerate_graphs(spec)


def test_the_final_check_survives_python_dash_o():
    """``python -O`` strips asserts; the final check is no assert."""
    import os
    import subprocess
    import sys
    import textwrap
    from pathlib import Path

    import decgraph

    script = textwrap.dedent("""
        import sys
        assert False, "never reached under -O"
        from decgraph import enumeration
        from test_enumeration import tampered_levels
        spec, levels, tampered = tampered_levels()
        enumeration._levels = lambda spec: iter(levels[:-1] + [tampered])
        try:
            enumeration.enumerate_graphs(spec)
        except enumeration.EnumerationError as exc:
            print(exc)
            sys.exit(0)
        sys.exit(1)
    """)
    src = Path(decgraph.__file__).parents[1]
    path = os.pathsep.join([str(src), str(Path(__file__).parent)])
    env = dict(os.environ, PYTHONPATH=path, PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run(
        [sys.executable, "-O", "-c", script],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    assert "is not on the final class vector" in done.stdout


def test_dedup_soundness_under_exploration_order():
    base = base_ruled(ruled(), 0)
    spec = EnumerationSpec((base,), RULED_SIZES)
    reference = {dedup_key(g) for g in enumerate_graphs(spec).graphs}
    rng = random.Random(99)
    for _ in range(3):
        frontier = [generic_form(base)]
        for delta in RULED_SIZES:
            children = []
            for g in frontier:
                sites = blowup_sites(g, delta)
                rng.shuffle(sites)
                children += [
                    generic_form(apply_blowup(g, s.vertex, delta))
                    for s in sites
                ]
            rng.shuffle(children)
            seen = {}
            for c in children:
                seen.setdefault(dedup_key(c), c)
            frontier = list(seen.values())
        assert {dedup_key(g) for g in frontier} == reference


def test_permutation_dedup_flag():
    base = base_hirzebruch(plane(), BaseFamilyParams("two_surfaces", 1))
    strict = enumerate_graphs(EnumerationSpec((base,), QUARTERS, permute_equal_sizes=False))
    merged = enumerate_graphs(EnumerationSpec((base,), QUARTERS, permute_equal_sizes=True))
    assert len(merged.graphs) == 2
    assert len(strict.graphs) > len(merged.graphs)


def test_site_kind_trees_agree_across_label_representatives():
    trees = []
    for c, d in ((1, 1), (1, 2), (2, 1)):
        g = base_hirzebruch(plane(), BaseFamilyParams("isolated_left", 1, c, d))
        trees.append(site_kind_tree(g, QUARTERS))
    assert trees[0] == trees[1] == trees[2]
    cross_check_instantiation(1, F(1, 2), ((1, 1), (1, 2), (2, 1)), QUARTERS)


def test_cross_check_names_the_first_family_and_ell_whose_trees_differ(monkeypatch):
    """Groups are walked family by family, ell by ell; each base stands in
    for its own tree, so every group but isolated_left ell=1 disagrees."""
    from decgraph import enumeration

    monkeypatch.setattr(enumeration, "base_hirzebruch", lambda omega, params: params)
    monkeypatch.setattr(
        enumeration,
        "site_kind_tree",
        lambda p, sizes: () if (p.family, p.ell) == ("isolated_left", 1) else (p.c, p.d),
    )
    with pytest.raises(EnumerationError, match=r"^isolated_left ell=2: site-kind trees differ"):
        cross_check_instantiation(2, F(5, 4), ((1, 1), (1, 2), (2, 1)), QUARTERS)


def test_classification_flags_unexpected_ledgers():
    base = base_ruled(ruled(), 0)
    res = enumerate_graphs(EnumerationSpec((base,), (F(3, 5), F(7, 20))))
    buckets = classify_sequence_types(res.graphs)
    assert len(buckets["unclassified"]) == len(res.graphs) == 3


def test_spec_validation():
    base = base_ruled(ruled(), 0)
    with pytest.raises(EnumerationError):
        EnumerationSpec((), (F(1, 2),))
    with pytest.raises(EnumerationError):
        EnumerationSpec((base,), (F(-1, 2),))
    hirz = base_hirzebruch(plane(), BaseFamilyParams("two_surfaces", 1))
    with pytest.raises(EnumerationError):
        EnumerationSpec((base, hirz), (F(1, 4),))
    # Bases of one shape on two vectors are two lattices.
    with pytest.raises(EnumerationError, match="share one class vector"):
        EnumerationSpec((base, base_ruled(ruled(), 0)), (F(1, 4),))
    omega = ruled(1, 3)
    spec = EnumerationSpec((base_ruled(omega, 0), base_ruled(omega, 2)), (F(1, 4),))
    assert spec.final_omega is omega.extend(F(1, 4)) is spec.final_omega


def test_branch_log_counts_are_consistent():
    base = base_ruled(ruled(), 0)
    res = enumerate_graphs(EnumerationSpec((base,), RULED_SIZES))
    for lv in res.branch_log:
        assert lv.kept + lv.merged == lv.sites


@pytest.mark.parametrize("name", ["cp2-six", "ruled-three"])
def test_levels_from_one_pass_match_each_prefix_enumerated_anew(name):
    spec = load_scenario(name).enumeration_spec()
    levels = enumerate_levels(spec)
    assert len(levels) == len(spec.sizes) + 1
    for depth, level in enumerate(levels):
        prefix = EnumerationSpec(spec.bases, spec.sizes[:depth], spec.permute_equal_sizes)
        alone = enumerate_graphs(prefix)
        assert level.graphs == alone.graphs
        assert level.branch_log == alone.branch_log
    assert levels[-1].graphs == enumerate_graphs(spec).graphs
