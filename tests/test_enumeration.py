import itertools
import random
from fractions import Fraction as F
from pathlib import Path

import pytest

from decgraph.blowup import apply_blowup, blowup_sites
from decgraph.enumeration import (
    EnumerationError,
    EnumerationSpec,
    _base_family_params,
    _dedup,
    classify_sequence_types,
    cross_check_instantiation,
    dedup_key,
    enumerate_graphs,
    enumerate_levels,
    hirzebruch_base_graphs,
    ruled_base_graphs,
    site_kind_tree,
)
from decgraph.graphs import (
    BaseFamilyParams,
    DecoratedGraph,
    LedgerEntry,
    base_hirzebruch,
    base_ruled,
    canonical_text,
    flip,
    generic_form,
    normal_key,
    permute_exceptionals,
)
from decgraph.lattice import pair
from decgraph.scenarios import load_scenario, run_scenario
from test_graphs import plane, ruled

QUARTERS = (F(1, 4), F(1, 4), F(1, 4))
REPS = ((1, 1), (1, 2), (2, 1))
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
    levels = list(enumeration.enumerate_levels(spec))
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
    monkeypatch.setattr(enumeration, "enumerate_levels", lambda spec: iter(levels))
    assert enumerate_graphs(spec) is levels[-1]
    monkeypatch.setattr(enumeration, "enumerate_levels", lambda spec: iter(levels[:-1] + [tampered]))
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
        enumeration.enumerate_levels = lambda spec: iter(levels[:-1] + [tampered])
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


def equal_size_relabelings(g):
    """Each permutation of the exceptional classes ``g``'s ledger created
    that keeps every size, as the map of the indices it moves."""
    groups = {}
    for i in range(g.model.k - len(g.ledger) + 1, g.model.k + 1):
        groups.setdefault(g.omega.deltas[i - 1], []).append(i)
    cycles = list(groups.values())
    for images in itertools.product(*map(itertools.permutations, cycles)):
        yield {i: j for c, image in zip(cycles, images) for i, j in zip(c, image) if i != j}


@pytest.mark.parametrize(
    "scenario, levels, kept, labeled",
    [
        ("cp2-six", range(2, 6), [15, 2, 7, 26], [28, 4, 20, 92]),
        ("cp2-six-alt", range(2, 6), [15, 2, 7, 26], [28, 4, 20, 92]),
        (str(Path(__file__).parent / "golden" / "ruled-equal.scenario"), range(3, 5),
         [4, 19], [7, 35]),
    ],
    ids=["cp2-six", "cp2-six-alt", "ruled-equal"],
)
def test_the_labeled_count_is_the_sum_of_the_relabeled_orbits(scenario, levels, kept, labeled):
    """Burnside's count (orbit-stabilizer) on every level where created
    exceptionals share a size: the run that dedups without relabeling keeps
    as many graphs as the relabeled run's kept graphs have distinct labeled
    keys over their equal-size relabelings.  The orbit side builds each
    relabeled graph and keys it with no class table; the dedup side writes
    classes through the tables and builds none.  (A. Kerber, *Applied Finite
    Group Actions*, Springer 1999.)"""
    spec = load_scenario(scenario).enumeration_spec()
    assert spec.permute_equal_sizes
    relabeled = list(enumerate_levels(spec))
    plain = list(enumerate_levels(EnumerationSpec(spec.bases, spec.sizes, permute_equal_sizes=False)))
    orbits = [
        sum(
            len({normal_key(permute_exceptionals(g, perm)) for perm in equal_size_relabelings(g)})
            for g in relabeled[depth].graphs
        )
        for depth in levels
    ]
    assert [len(relabeled[depth].graphs) for depth in levels] == kept
    assert [len(plain[depth].graphs) for depth in levels] == labeled == orbits


def reference_site_kind_tree(g, sizes):
    """The tree as it was: each admissible site blown up, brought to generic
    form and read by the site's kind, recursively."""
    if not sizes:
        return ()
    branches = []
    for site in blowup_sites(g, sizes[0]):
        child = generic_form(apply_blowup(g, site.vertex, sizes[0]))
        branches.append((site.kind, reference_site_kind_tree(child, sizes[1:])))
    return tuple(sorted(branches))


GOLDEN_PLANE = Path(__file__).parent / "golden" / "cp2-six-strict.scenario"
PLANE_RUNS = ("cp2-six", "cp2-six-alt", str(GOLDEN_PLANE))


@pytest.mark.parametrize("name", PLANE_RUNS, ids=lambda n: Path(n).stem)
def test_site_kind_tree_matches_the_recursive_reference_on_every_base(name):
    spec = load_scenario(name).enumeration_spec()
    assert len(spec.bases) == 6
    for g in spec.bases:
        tree = site_kind_tree(g, spec.sizes)
        assert tree and tree == reference_site_kind_tree(g, spec.sizes)


def test_site_kind_trees_agree_across_label_representatives():
    params = list(_base_family_params(1, F(1, 2), REPS))
    bases = tuple(hirzebruch_base_graphs(1, F(1, 2), REPS))
    trees = [
        site_kind_tree(g, QUARTERS)
        for g, p in zip(bases, params)
        if (p.family, p.ell) == ("isolated_left", 1)
    ]
    assert len(trees) == 3 and trees[0] == trees[1] == trees[2]
    cross_check_instantiation(bases, params, QUARTERS)


def test_cross_check_names_the_first_family_and_ell_whose_trees_differ(monkeypatch):
    """Groups are walked family by family, ell by ell, on the bases given;
    each base's tree is stood in for by its labels, so every group but
    isolated_left ell=1 disagrees."""
    from decgraph import enumeration

    params = list(_base_family_params(2, F(5, 4), REPS))
    bases = tuple(hirzebruch_base_graphs(2, F(5, 4), REPS))
    named = {id(g): p for g, p in zip(bases, params, strict=True)}

    def labels(g, sizes):
        p = named[id(g)]
        return () if (p.family, p.ell) == ("isolated_left", 1) else (p.c, p.d)

    monkeypatch.setattr(enumeration, "site_kind_tree", labels)
    with pytest.raises(EnumerationError, match=r"^isolated_left ell=2: site-kind trees differ"):
        cross_check_instantiation(bases, params, QUARTERS)


def test_the_cross_check_builds_no_tree_for_a_lone_representative(monkeypatch):
    """cp2-six's isolated families at the default reps: isolated_left ell=1
    has three valid representatives, isolated_right ell=1 only (2, 1), which
    has no other tree to be compared with."""
    from decgraph import enumeration

    scenario = load_scenario("cp2-six")
    depth = len(scenario.enumeration_spec().sizes)
    tree, built = enumeration.site_kind_tree, []

    def counted(g, sizes):
        if len(sizes) == depth:  # a whole tree, not one of its branches
            built.append(g)
        return tree(g, sizes)

    monkeypatch.setattr(enumeration, "site_kind_tree", counted)
    assert run_scenario(scenario).report["cross_check"] is True
    assert len(built) == 3


def test_cross_check_refuses_bases_and_params_of_unequal_counts():
    """A pairing by position that runs short is a caller's error, not a
    failed cross-check."""
    params = list(_base_family_params(1, F(1, 2), REPS))
    bases = tuple(hirzebruch_base_graphs(1, F(1, 2), REPS))
    for short_bases, short_params in ((bases[:-1], params), (bases, params[:-1])):
        with pytest.raises(ValueError, match="zip") as refused:
            cross_check_instantiation(short_bases, short_params, QUARTERS)
        assert not isinstance(refused.value, EnumerationError)


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


def test_each_level_is_made_when_it_is_asked_for(monkeypatch):
    """The bases' level takes no blowup, and the next level expands each of
    its graphs once, in order, only when it is asked for."""
    from decgraph import enumeration

    expanded = []

    def counted(g, delta):
        expanded.append(g)
        return blowup_sites(g, delta)

    monkeypatch.setattr(enumeration, "blowup_sites", counted)
    levels = enumerate_levels(load_scenario("ruled-three").enumeration_spec())
    first = next(levels)
    assert expanded == [] and first.graphs and first.branch_log == ()
    second = next(levels)
    assert expanded == list(first.graphs) and second.branch_log[-1].depth == 1


@pytest.mark.parametrize("name", ["cp2-six", "ruled-three"])
def test_levels_from_one_pass_match_each_prefix_enumerated_anew(name):
    spec = load_scenario(name).enumeration_spec()
    levels = list(enumerate_levels(spec))
    assert len(levels) == len(spec.sizes) + 1
    for depth, level in enumerate(levels):
        prefix = EnumerationSpec(spec.bases, spec.sizes[:depth], spec.permute_equal_sizes)
        alone = enumerate_graphs(prefix)
        assert level.graphs == alone.graphs
        assert level.branch_log == alone.branch_log
    assert levels[-1].graphs == enumerate_graphs(spec).graphs


def test_merges_write_canonical_texts_only_for_equal_ledgers(monkeypatch):
    """cp2-six merges 27 times, and 4 of its merges have equal ledgers: only
    they write the two texts, 8 in all, where every merge wrote two before."""
    from decgraph import enumeration

    written = []

    def counted(g):
        written.append(g)
        return canonical_text(g)

    monkeypatch.setattr(enumeration, "canonical_text", counted)
    enumerate_graphs(load_scenario("cp2-six").enumeration_spec())
    assert len(written) == 8


def test_a_merge_keeps_the_smaller_ledger_then_the_smaller_text(monkeypatch):
    """A graph and its flip have one dedup key and one ledger, so the smaller
    text wins, in either order; a smaller ledger wins before any text is
    written."""
    from decgraph import enumeration

    final = enumerate_graphs(load_scenario("cp2-six").enumeration_spec()).graphs
    g = next(g for g in final if canonical_text(g) != canonical_text(flip(g)))
    small, large = sorted((g, flip(g)), key=canonical_text)
    for pair_ in ((small, large), (large, small)):
        kept, merged = _dedup((dedup_key(g), g) for g in pair_)
        assert merged == 1 and kept[0] is small
    earlier = DecoratedGraph(
        large.omega, large.vertices, large.edges,
        (LedgerEntry("a", ""),) + large.ledger[1:], large.fiber,
    )
    assert earlier.ledger < small.ledger
    monkeypatch.setattr(enumeration, "canonical_text", None)  # not to be called
    for pair_ in ((small, earlier), (earlier, small)):
        kept, merged = _dedup((dedup_key(g), g) for g in pair_)
        assert merged == 1 and kept[0] is earlier
