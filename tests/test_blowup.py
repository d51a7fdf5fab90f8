import itertools
import random
from fractions import Fraction as F

import pytest

from decgraph.blowup import (
    BlowupError,
    apply_blowup,
    blowup_sites,
)
from decgraph.enumeration import enumerate_levels
from decgraph.graphs import (
    INTERIOR,
    BaseFamilyParams,
    base_hirzebruch,
    base_ruled,
    canonical_text,
    generic_form,
    parse_graph,
    validate,
)
from decgraph.lattice import intersect, pair
from decgraph.scenarios import load_scenario
from test_graphs import plane, ruled


def two_surface_base():
    return base_hirzebruch(plane(), BaseFamilyParams("two_surfaces", 1))


def moment(g, vid):
    return F(g.vertex(vid).height, g.omega.denominator)


def take(g, delta, **match):
    sites = blowup_sites(g, delta)
    for s in sites:
        if all(getattr(s, k) == v for k, v in match.items()):
            return apply_blowup(g, s.vertex, delta)
    raise AssertionError(f"no site {match} among {sites}")


def test_sites_on_two_surface_base():
    g = two_surface_base()
    sites = blowup_sites(g, F(1, 4))
    assert [(s.kind, s.end) for s in sites] == [("surface", "min"), ("surface", "max")]
    assert all(F(s.bound, g.omega.denominator) == F(1, 2) for s in sites)


def test_at_most_one_blowup_on_the_small_surface():
    g = take(two_surface_base(), F(1, 4), kind="surface", end="max")
    # the top surface now has size 1/4: another size-1/4 blowup must not fit
    tops = [s for s in blowup_sites(g, F(1, 4)) if s.kind == "surface" and s.end == "max"]
    assert tops == []
    assert [s.kind for s in blowup_sites(g, F(1, 4))].count("surface") == 1


def test_interior_rewrite_exact():
    # top blowup then two bottom blowups, then size 3/16 at the interior
    # point created by the last bottom blowup
    g = two_surface_base()
    g = take(g, F(1, 4), kind="surface", end="max")
    g = take(g, F(1, 4), kind="surface", end="min")
    g = take(g, F(1, 4), kind="surface", end="min")
    h = take(g, F(3, 16), kind="interior", vertex="3.c")
    moments = {str(e.cls): (moment(h, e.bottom), moment(h, e.top), e.label)
               for e in h.edges}
    assert moments["E4-E5"] == (F(0), F(1, 16), 1)
    assert moments["E5"] == (F(1, 16), F(7, 16), 2)
    assert moments["L-E1-E4-E5"] == (F(7, 16), F(1, 2), 1)
    assert validate(h) == []


def test_surface_rewrite_on_ruled_base():
    g = base_ruled(ruled(), 0)
    h = take(g, F(3, 5), kind="surface", end="min")
    fat = {str(v.fat): pair(h.omega, v.fat) for v in h.vertices if v.fat is not None}
    assert fat == {"B-E1": F(2, 5), "B": F(1)}
    spans = {str(e.cls): (moment(h, e.bottom), moment(h, e.top)) for e in h.edges}
    assert spans == {"E1": (F(0), F(3, 5)), "F-E1": (F(3, 5), F(1))}


def test_extremum_rewrite_creates_fixed_surface_on_equal_weights():
    g = base_hirzebruch(plane(), BaseFamilyParams("isolated_left", 1, 1, 1))
    h = take(g, F(1, 4), kind="extremum", end="min")
    fat = [v for v in h.vertices if v.fat is not None]
    assert len(fat) == 1
    assert str(fat[0].fat) == "E2" and pair(h.omega, fat[0].fat) == F(1, 4)
    assert fat[0].fat.twice_genus == 0 and moment(h, fat[0].vid) == F(1, 4)
    above = (h._index or h._build_index())[1]
    assert sorted(str(e.cls) for e in above[fat[0].vid]) == ["E1-E2", "L-E1-E2"]
    assert validate(h) == []


def test_extremum_rewrite_with_distinct_weights():
    g = base_hirzebruch(plane(), BaseFamilyParams("isolated_left", 1, 1, 2))
    # minimum has weights d=2 (on L-E1) and c=1 (on E1)
    h = take(g, F(1, 4), kind="extremum", end="min")
    lows = sorted(moment(h, v.vid) for v in h.vertices)[:2]
    assert lows == [F(1, 4), F(1, 2)]  # alpha + n*delta, alpha + m*delta
    labels = {str(e.cls): e.label for e in h.edges}
    assert labels["E2"] == 1  # m - n
    assert labels["L-E1-E2"] == 2
    assert labels["E1-E2"] == 1
    assert validate(h) == []


def test_pole_sizes_block_the_third_ruled_blowup():
    g = base_ruled(ruled(), 0)
    g = take(g, F(3, 5), kind="surface", end="min")
    g = take(g, F(7, 20), kind="interior")
    # the two poles of the stabilizer-2 sphere bound a size-3/10 blowup out
    interior_bounds = sorted(
        F(s.bound, g.omega.denominator) for s in (
            site for v in g.vertices[1:-1] if v.fat is None
            for site in [next(iter(
                s2 for s2 in blowup_sites(g, F(1, 100)) if s2.vertex == v.vid
            ))]
        )
    )
    assert interior_bounds == [F(1, 20), F(1, 4)]
    assert all(b < F(3, 10) for b in interior_bounds)
    assert not any(s.kind == "interior" for s in blowup_sites(g, F(3, 10)))


def test_strictness_at_the_bound():
    g = two_surface_base()
    site = blowup_sites(g, F(1, 4))[0]
    bound = F(site.bound, g.omega.denominator)
    with pytest.raises(BlowupError) as err:
        apply_blowup(g, site.vertex, bound)
    assert f"the bound {bound} at {site.kind}@{site.vertex}" in str(err.value)
    for eps in (F(1, 3), F(1, 64), F(1, 999983)):
        out = apply_blowup(g, site.vertex, bound - eps)
        assert validate(out) == []


def test_exceptional_area_and_square():
    g = take(two_surface_base(), F(1, 4), kind="surface", end="min")
    e2 = g.model.exceptional(2)
    assert pair(g.omega, e2) == F(1, 4)
    assert intersect(e2, e2) == -1


def test_surface_blowup_shrinks_size_and_keeps_genus():
    g = base_ruled(ruled(1, 1, 3), 0)
    h = take(g, F(1, 3), kind="surface", end="min")
    bottom = h.vertices[0]
    assert pair(h.omega, bottom.fat) == F(2, 3)
    assert bottom.fat.twice_genus == 2 * 3


def test_fiber_class():
    g = two_surface_base()
    assert str(g.fiber) == "L-E1"
    h = take(g, F(1, 4), kind="surface", end="min")
    assert str(h.fiber) == "L-E1"
    r = base_ruled(ruled(), 0)
    assert str(r.fiber) == "F"


def test_chain_sums_agree_with_fiber_after_blowups():
    g = two_surface_base()
    for end in ("max", "min", "min"):
        g = take(g, F(1, 4), kind="surface", end=end)
    above = (g._index or g._build_index())[1]
    for start in above[g.vertices[0].vid]:
        total = g.model.zero()
        e = start
        while True:
            total = total + e.label * e.cls
            if e.top == g.vertices[-1].vid:
                break
            (e,) = above[e.top]
        assert total == g.fiber


def _random_admissible_run(rng, base, max_steps=4):
    g = generic_form(base)
    steps = 0
    for _ in range(max_steps):
        probe = F(1, 10**6)
        sites = blowup_sites(g, probe)
        if not sites:
            break
        site = rng.choice(sites)
        num = rng.randint(1, 19)
        delta = F(site.bound, g.omega.denominator) * F(num, 20)
        g = generic_form(apply_blowup(g, site.vertex, delta))
        assert validate(g) == [], validate(g)
        steps += 1
    return steps


def test_randomized_blowups_preserve_validity():
    rng = random.Random(20240811)
    bases = [
        two_surface_base(),
        base_hirzebruch(plane(), BaseFamilyParams("one_surface", 1)),
        base_hirzebruch(plane(), BaseFamilyParams("isolated_left", 1, 1, 2)),
        base_hirzebruch(plane(), BaseFamilyParams("isolated_right", 1, 2, 1)),
        base_ruled(ruled(), 0),
        base_ruled(ruled(1, 3, 1), 2),
        base_hirzebruch(plane(2, F(5, 4)), BaseFamilyParams("two_surfaces", 2)),
    ]
    total = 0
    while total < 1000:
        total += _random_admissible_run(rng, rng.choice(bases))
    assert total >= 1000


def test_model_as_json():
    from decgraph.lattice import SurfaceModel

    assert SurfaceModel("ruled", 3, 2).as_json() == {"kind": "ruled", "k": 3, "genus": 2}
    assert SurfaceModel("rational", 6).as_json() == {"kind": "rational", "k": 6, "genus": 0}


def test_inadmissible_request_is_rejected_with_bound():
    g = base_ruled(ruled(), 0)
    site = blowup_sites(g, F(1, 2))[0]
    with pytest.raises(BlowupError) as err:
        apply_blowup(g, site.vertex, F(2))
    bound = F(site.bound, g.omega.denominator)
    assert f"size 2 not strictly below the bound {bound} " in str(err.value)


def test_a_vertex_that_is_no_site_is_rejected():
    g = base_hirzebruch(plane(), BaseFamilyParams("one_surface", 1))
    g = take(g, F(1, 4), kind="surface")
    g = take(g, F(1, 8), kind="surface")
    # Each spawned chain ends at the isolated maximum, which has three edges
    # below it now: no rewrite applies there.
    assert len((g._index or g._build_index())[2]["0.max"]) == 3
    with pytest.raises(BlowupError, match=r"^no blowup site at vertex 0\.max$"):
        apply_blowup(g, "0.max", F(1, 16))


@pytest.mark.xfail(strict=True, raises=BlowupError, reason=(
    "a surface created by an extremum blowup on an all-isolated base with"
    " labels (c, d) = (2, 1) offers a surface site whose rewrite fails the"
    " sphere check: the spawned edge's class (fiber - E) is not a sphere class"
))
def test_surface_site_grown_from_an_isolated_base():
    g = generic_form(base_hirzebruch(plane(), BaseFamilyParams("isolated_left", 1, 2, 1)))
    g = generic_form(take(g, F(1, 4), kind="extremum", end="min"))
    g = generic_form(take(g, F(1, 8), kind="extremum", end="min"))
    assert validate(generic_form(take(g, F(1, 16), kind="surface", end="min"))) == []


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "apply_blowup logs an interior step as the head of the vertex's id, and"
    " parse_graph names every vertex 0.v<i>, so each interior blowup of a"
    " parsed graph is logged interior:0; a blow-down along the ledger (ROADMAP"
    " item 1) would re-derive the step that made the vertex"
))
def test_a_parsed_graph_has_its_graphs_interior_blowups():
    """Blown up at size 1/100 at their interior points, ruled-three's level-2
    graphs log the steps that made those points; their parsed copies log
    interior:0, a step that no run makes, since a ruled base has no interior
    vertex."""
    spec = load_scenario("ruled-three").enumeration_spec()
    *_, level = itertools.islice(enumerate_levels(spec), 3)
    delta = F(1, 100)

    def children(g):
        sites = blowup_sites(g, delta)
        return sorted(canonical_text(apply_blowup(g, s.vertex, delta)) for s in sites
                      if s.kind == INTERIOR)

    for g in level.graphs:
        assert children(g)
        assert children(parse_graph(canonical_text(g))) == children(g)
