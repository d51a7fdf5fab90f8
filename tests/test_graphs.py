import json
import re
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from decgraph import scenarios
from decgraph.blowup import apply_blowup, blowup_sites
from decgraph.graphs import (
    BaseFamilyParams,
    DecoratedGraph,
    Edge,
    GraphError,
    LedgerEntry,
    Vertex,
    _base,
    _height,
    base_hirzebruch,
    base_ruled,
    break_free_edges,
    canonical_text,
    flip,
    generic_form,
    normal_form,
    normal_key,
    parse_graph,
    permute_exceptionals,
    render_dot,
    translate,
    validate,
)
from decgraph.lattice import CohomologyVector, LatticeError, intersect, pair


def plane(lam=1, delta1=F(1, 2)):
    """A new class vector (lam; delta1) for the plane bases to share."""
    return CohomologyVector.rational(lam, [delta1])


def ruled(lam_f=1, lam_b=1, genus=2):
    """A new class vector (lam_f, lam_b;) for the ruled bases to share."""
    return CohomologyVector.ruled(lam_f, lam_b, [], genus)


def same_action(a, b):
    """Same action up to translation, flips and generic-metric moves."""
    return normal_key(a) == normal_key(b)


def moment(g, v):
    return F(v.height, g.omega.denominator)


def raised(g, by):
    """``g`` with every vertex ``by`` heights higher."""
    vertices = [Vertex(v.vid, v.height + by, v.fat) for v in g.vertices]
    return DecoratedGraph.build(g.omega, vertices, g.edges, g.ledger, g.fiber)


def two_surface_base():
    return base_hirzebruch(plane(), BaseFamilyParams("two_surfaces", 1))


def test_two_surfaces_base_matches_construction():
    g = two_surface_base()
    assert validate(g) == []
    fats = {str(v.fat): (moment(g, v), pair(g.omega, v.fat)) for v in g.vertices}
    assert fats == {"L": (F(0), F(1)), "E1": (F(1, 2), F(1, 2))}
    assert len(g.edges) == 2
    assert all(str(e.cls) == "L-E1" and e.label == 1 for e in g.edges)
    # the two surface classes add up to L+E1 and meet trivially
    classes = [v.fat for v in g.vertices]
    assert str(classes[0] + classes[1]) == "L+E1"
    assert intersect(classes[0], classes[1]) == 0


def test_one_surface_base():
    g = base_hirzebruch(plane(), BaseFamilyParams("one_surface", 1))
    assert validate(g) == []
    fat = [v for v in g.vertices if v.fat is not None]
    assert len(fat) == 1 and str(fat[0].fat) == "L-E1"
    assert moment(g, g.vertices[-1]) == 1 and g.vertices[-1].fat is None
    assert sorted(str(e.cls) for e in g.edges) == ["E1", "L", "L-E1"]


def test_isolated_left_base():
    g = base_hirzebruch(plane(), BaseFamilyParams("isolated_left", 1, 1, 1))
    assert validate(g) == []
    assert all(v.fat is None for v in g.vertices) and len(g.vertices) == 4
    assert sorted(e.label for e in g.edges) == [1, 1, 1, 2]
    assert sorted(str(e.cls) for e in g.edges) == ["E1", "L", "L-E1", "L-E1"]


def test_isolated_right_base():
    g = base_hirzebruch(plane(), BaseFamilyParams("isolated_right", 1, 2, 1))
    assert validate(g) == []
    assert sorted(e.label for e in g.edges) == [1, 1, 2, 2]
    # palindromic label chain: the graph equals its own flip
    assert same_action(g, flip(g))


def test_base_parameter_errors():
    with pytest.raises(GraphError):
        base_hirzebruch(plane(), BaseFamilyParams("two_surfaces", 2))
    with pytest.raises(GraphError):
        base_hirzebruch(plane(1, F(3, 2)), BaseFamilyParams("two_surfaces", 1))
    with pytest.raises(GraphError, match="need a class vector"):
        base_hirzebruch(plane().extend(F(1, 4)), BaseFamilyParams("two_surfaces", 1))
    with pytest.raises(GraphError, match="need a class vector"):
        base_hirzebruch(ruled().extend(F(1, 2)), BaseFamilyParams("two_surfaces", 1))
    with pytest.raises(GraphError):
        BaseFamilyParams("isolated_right", 1, 1, 1)  # c - d >= 1 fails
    with pytest.raises(GraphError):
        BaseFamilyParams("isolated_left", 1, 2, 4)  # not coprime
    with pytest.raises(GraphError):
        BaseFamilyParams("nope", 1)


def test_ruled_base():
    g = base_ruled(ruled(), 0)
    assert validate(g) == []
    sizes = sorted(pair(g.omega, v.fat) for v in g.vertices)
    assert sizes == [1, 1]
    a, b = (v.fat for v in g.vertices)
    assert a == b and intersect(a, a) == 0
    assert moment(g, g.vertices[-1]) - moment(g, g.vertices[0]) == 1
    assert [v.fat.twice_genus for v in g.vertices] == [4, 4]
    with pytest.raises(GraphError):
        base_ruled(ruled(), 1)
    with pytest.raises(LatticeError, match="genus >= 1"):
        CohomologyVector.ruled(1, 1, [], 0)
    with pytest.raises(GraphError, match="need a class vector"):
        base_ruled(ruled().extend(F(1, 2)), 0)
    with pytest.raises(GraphError, match="need a class vector"):
        base_ruled(plane(), 0)


def test_ruled_base_with_offset():
    g = base_ruled(ruled(1, 2, 1), 1)
    assert validate(g) == []
    assert sorted(pair(g.omega, v.fat) for v in g.vertices) == [1, 3]
    assert moment(g, g.vertices[-1]) - moment(g, g.vertices[0]) == 1
    assert {str(v.fat) for v in g.vertices} == {"B-F", "B+F"}


def hand_summed_hirzebruch(omega, params):
    """The plane base as ``base_hirzebruch`` wrote it before its chain
    tables: every height summed and every fiber written by hand."""
    model, den = omega.model, omega.denominator
    ell, c, d, n = params.ell, params.c, params.d, 2 * params.ell - 1
    L, E1 = model.unit("L"), model.unit("E1")
    fib = L - E1
    riser = ell * L - (ell - 1) * E1
    coriser = (1 - ell) * L + ell * E1
    a_fib, a_riser, a_coriser = (pair(omega, x) for x in (fib, riser, coriser))
    if params.family == "two_surfaces":
        vmin = Vertex("0.min", 0, riser)
        vmax = Vertex("0.max", _height(a_fib, den), coriser)
        edges = [Edge("0.min", "0.max", 1, fib), Edge("0.min", "0.max", 1, fib)]
        return DecoratedGraph.build(omega, [vmin, vmax], edges, [], fib)
    if params.family == "one_surface":
        vmin = Vertex("0.min", 0, fib)
        va = Vertex("0.a", _height(a_coriser, den))
        vmax = Vertex("0.max", _height(a_coriser + n * a_fib, den))
        edges = [
            Edge("0.min", "0.a", 1, coriser),
            Edge("0.a", "0.max", n, fib),
            Edge("0.min", "0.max", 1, riser),
        ]
        return DecoratedGraph.build(omega, [vmin, va, vmax], edges, [], riser)
    if params.family == "isolated_left":
        vmin = Vertex("0.min", 0)
        va = Vertex("0.a", _height(d * a_fib, den))
        vb = Vertex("0.b", _height(c * a_coriser, den))
        vmax = Vertex("0.max", _height(d * a_fib + c * a_riser, den))
        edges = [
            Edge("0.min", "0.a", d, fib),
            Edge("0.a", "0.max", c, riser),
            Edge("0.min", "0.b", c, coriser),
            Edge("0.b", "0.max", n * c + d, fib),
        ]
        fiber = d * fib + c * riser
        return DecoratedGraph.build(omega, [vmin, va, vb, vmax], edges, [], fiber)
    vmin = Vertex("0.min", 0)
    va = Vertex("0.a", _height(d * a_fib, den))
    vb = Vertex("0.b", _height(d * a_fib + c * a_coriser, den))
    vmax = Vertex("0.max", _height(c * a_riser, den))
    edges = [
        Edge("0.min", "0.a", d, fib),
        Edge("0.a", "0.b", c, coriser),
        Edge("0.b", "0.max", n * c - d, fib),
        Edge("0.min", "0.max", c, riser),
    ]
    return DecoratedGraph.build(omega, [vmin, va, vb, vmax], edges, [], c * riser)


def hand_summed_ruled(omega, ell):
    """The ruled base as ``base_ruled`` wrote it before its chain table."""
    lam_f, _ = omega.entries
    B, F_ = omega.model.unit("B"), omega.model.unit("F")
    vmin = Vertex("0.min", 0, B - ell * F_)
    vmax = Vertex("0.max", _height(lam_f, omega.denominator), B + ell * F_)
    return DecoratedGraph.build(omega, [vmin, vmax], [Edge("0.min", "0.max", 1, F_)], [], F_)


def assert_same_base(g, expected):
    assert g == expected
    assert (g.vertices, g.edges, g.fiber) == (expected.vertices, expected.edges, expected.fiber)
    assert canonical_text(g) == canonical_text(expected)
    assert validate(g) == []


def test_plane_bases_are_the_hand_summed_ones():
    """Every family over a grid of (lam, delta1, ell, c, d)."""
    built = 0
    for lam in (1, 2, F(3, 2), 5):
        for ratio in (F(1, 5), F(1, 2), F(3, 5), F(4, 5), F(9, 10)):
            omega = plane(lam, ratio * lam)
            for ell in range(1, 11):
                if ell * (lam - ratio * lam) >= lam:
                    break
                for family in ("two_surfaces", "one_surface"):
                    params = BaseFamilyParams(family, ell)
                    assert_same_base(
                        base_hirzebruch(omega, params), hand_summed_hirzebruch(omega, params)
                    )
                    built += 1
                for family in ("isolated_left", "isolated_right"):
                    for c in range(1, 5):
                        for d in range(1, 5):
                            try:
                                params = BaseFamilyParams(family, ell, c, d)
                            except GraphError:
                                continue
                            assert_same_base(
                                base_hirzebruch(omega, params),
                                hand_summed_hirzebruch(omega, params),
                            )
                            built += 1
    assert built > 1000


def test_ruled_bases_are_the_hand_summed_one():
    """Over a grid of (lam_f, lam_b, genus, ell)."""
    built = 0
    for lam_f, lam_b in ((1, 1), (1, 3), (F(1, 2), 2), (2, 5), (F(3, 4), F(7, 2))):
        for genus in (1, 2, 3):
            omega = ruled(lam_f, lam_b, genus)
            ell = 0
            while ell * lam_f < lam_b:
                assert_same_base(base_ruled(omega, ell), hand_summed_ruled(omega, ell))
                built += 1
                ell += 1
    assert built == 3 * (1 + 3 + 4 + 3 + 5)


def test_a_chain_table_whose_chains_disagree_is_refused():
    """Chains ending at different heights, or at one height with different
    sums (L-E1 and E1 have one area on (1; 1/2)), make no base graph."""
    omega = plane()
    fib, E1 = omega.model.parse("L-E1"), omega.model.parse("E1")
    assert _base(omega, (None, None), [[(1, fib)], [(1, fib)]]).fiber is fib
    with pytest.raises(GraphError, match="different heights or sum to different classes"):
        _base(omega, (None, None), [[(1, fib)], [(2, fib)]])
    with pytest.raises(GraphError, match="different heights or sum to different classes"):
        _base(omega, (None, None), [[(1, fib)], [(1, E1)]])


@pytest.mark.parametrize(
    "d, above_a, below_b",
    [(1, "L", "E1"), (2, "E1", "L")],
)
def test_generic_form_rewires_the_free_sphere_of_an_ell_2_plane_base(d, above_a, below_b):
    """On (1; 3/5) the isolated_right bases with ell = 2 and c = 1 draw the
    label-1 sphere 0.a -> 0.b between two interior points; the generic
    metric splits it into 0.a -> max and min -> 0.b, whose classes carry the
    chain sums beyond it, and keeps the vertices and the fiber."""
    g = base_hirzebruch(plane(1, F(3, 5)), BaseFamilyParams("isolated_right", 2, 1, d))
    P = g.model.parse
    assert Edge("0.a", "0.b", 1, P("-L+2E1")) in g.edges
    edges = [
        Edge("0.min", "0.a", d, P("L-E1")),
        Edge("0.a", "0.max", 1, P(above_a)),
        Edge("0.min", "0.b", 1, P(below_b)),
        Edge("0.b", "0.max", 3 - d, P("L-E1")),
        Edge("0.min", "0.max", 1, P("2L-E1")),
    ]
    h = generic_form(g)
    assert h == DecoratedGraph.build(g.omega, g.vertices, edges, (), P("2L-E1"))
    assert h.fiber is g.fiber and validate(h) == []


def test_a_graph_with_no_free_interior_sphere_is_not_indexed_to_be_kept():
    """``break_free_edges`` returns such a graph itself and builds no index."""
    bases = [base_hirzebruch(plane(), BaseFamilyParams("isolated_right", 1, 2, 1)),
             base_hirzebruch(plane(), BaseFamilyParams("one_surface", 1)),
             two_surface_base(), base_ruled(ruled(), 0)]
    for g in bases:
        assert g._index is None
        assert break_free_edges(g) is g and generic_form(g) is g
        assert g._index is None


def test_validate_catches_area_rule_violation():
    g = two_surface_base()
    bad_edges = [Edge(e.bottom, e.top, 3, e.cls) for e in g.edges[:1]] + list(g.edges[1:])
    bad = DecoratedGraph.build(g.omega, g.vertices, bad_edges, (), g.fiber)
    assert any("area rule" in v for v in validate(bad))


def test_validate_catches_interior_fat_vertex():
    g = two_surface_base().extend(F(1, 4))  # heights over 4: 0 and 2
    extra = Vertex("0.mid", 1, g.model.parse("E1"))
    bad = DecoratedGraph.build(g.omega, list(g.vertices) + [extra], g.edges, (), g.fiber)
    assert any("interior moment" in v for v in validate(bad))


def test_validate_catches_doubled_extremum_and_bad_labels():
    g = two_surface_base()
    extra = Vertex("0.top2", 1)
    bad = DecoratedGraph.build(g.omega, list(g.vertices) + [extra], g.edges, (), g.fiber)
    assert any("more than one component" in v for v in validate(bad))

    om = CohomologyVector.rational(1, [F(1, 2)])
    m = om.model
    vs = [Vertex("0.min", 0), Vertex("0.a", 2), Vertex("0.max", 4)]  # over 2
    es = [
        Edge("0.min", "0.a", 2, m.parse("L")),
        Edge("0.a", "0.max", 2, m.parse("L")),
    ]
    bad2 = DecoratedGraph.build(om, vs, es, (), m.parse("2L"))
    assert any("non-coprime" in v for v in validate(bad2))


def test_normal_form_idempotent():
    g = two_surface_base()
    seen = [g]
    for delta, end in ((F(1, 4), "max"), (F(1, 4), "min")):
        site = [s for s in blowup_sites(seen[-1], delta) if s.end == end][0]
        seen.append(generic_form(apply_blowup(seen[-1], site.vertex, delta)))
    for graph in seen + [base_ruled(ruled(), 0)]:
        once = normal_form(graph)
        twice = normal_form(once)
        assert canonical_text(once) == canonical_text(twice)


def test_translation_and_flip_equivalence():
    g = two_surface_base()
    assert same_action(g, raised(g, 7))
    assert translate(raised(g, 7)) == g
    assert same_action(g, flip(g))


def test_normal_form_strips_redundant_edges():
    g = base_ruled(ruled(), 0)
    nf = normal_form(g)
    assert nf.edges == ()
    nf2 = normal_form(two_surface_base())
    assert nf2.edges == ()


def test_break_free_edges_conserves_chain_sums():
    # a proper-transform chain drawn with two adjacent breakable free edges
    om = CohomologyVector.rational(2, [F(1, 2), F(1, 4), F(1, 8), F(1, 16)])
    m = om.model
    P = m.parse
    vs = [
        Vertex("0.min", 0, P("L-E1")),
        Vertex("0.v1", 4),  # heights over 16
        Vertex("0.v2", 6),
        Vertex("0.v3", 7),
        Vertex("0.max", 8, P("L-E2")),
    ]
    es = [
        Edge("0.min", "0.v1", 1, P("E1-E2")),
        Edge("0.v1", "0.v2", 1, P("E2-E3")),
        Edge("0.v2", "0.v3", 1, P("E3-E4")),
        Edge("0.v3", "0.max", 1, P("E4")),
    ]
    g = DecoratedGraph.build(om, vs, es, (), P("E1"))
    assert validate(g) == []
    broken = break_free_edges(g)
    assert validate(broken) == []
    vmin, vmax = broken.vertices[0].vid, broken.vertices[-1].vid
    interior = {v.vid for v in broken.vertices if v.fat is None} - {vmin, vmax}
    assert interior == {"0.v1", "0.v2", "0.v3"}
    assert not any(
        e.label == 1 and e.bottom in interior and e.top in interior for e in broken.edges
    )
    # every interior vertex now connects straight to both extrema
    _, above, below = broken._index or broken._build_index()
    for vid in interior:
        (up,), (down,) = above[vid], below[vid]
        assert up.top == vmax
        assert down.bottom == vmin
        assert down.cls + up.cls == P("E1")  # chain sum conserved


def test_metric_move_pair_on_one_surface_first_blowup():
    # surface blowup of the one-surface base: the variant whose new chain
    # merges into the old one differs only by a change of generic metric
    g = base_hirzebruch(plane(), BaseFamilyParams("one_surface", 1))
    site = [s for s in blowup_sites(g, F(1, 4)) if s.kind == "surface"][0]
    h = apply_blowup(g, site.vertex, F(1, 4))
    om = CohomologyVector.rational(1, [F(1, 2), F(1, 4)])
    m = om.model
    P = m.parse
    vs = [
        Vertex("0.min", 0, P("L-E1-E2")),
        Vertex("0.a", 2),  # heights over 4
        Vertex("0.max", 4),
        Vertex("1.c", 1),
    ]
    es = [
        Edge("0.min", "1.c", 1, P("E2")),
        Edge("1.c", "0.a", 1, P("E1-E2")),
        Edge("0.a", "0.max", 1, P("L-E1")),
        Edge("0.min", "0.max", 1, P("L")),
    ]
    unbroken = DecoratedGraph.build(om, vs, es, (LedgerEntry("surface", "min"),), P("L"))
    assert validate(unbroken) == []
    assert same_action(h, unbroken)


def test_metric_move_pair_on_second_level():
    # same move one blowup deeper, where the top has become a fixed surface
    g = base_hirzebruch(plane(), BaseFamilyParams("one_surface", 1))
    top = [s for s in blowup_sites(g, F(1, 4)) if s.kind == "extremum"][0]
    g2 = apply_blowup(g, top.vertex, F(1, 4))  # fixed surface E2 on top
    bot = [s for s in blowup_sites(g2, F(1, 4)) if s.end == "min"][0]
    g3 = generic_form(apply_blowup(g2, bot.vertex, F(1, 4)))

    om = CohomologyVector.rational(1, [F(1, 2), F(1, 4), F(1, 4)])
    m = om.model
    P = m.parse
    vs = [
        Vertex("0.min", 0, P("L-E1-E3")),
        Vertex("0.a", 2),  # heights over 4
        Vertex("2.c", 1),
        Vertex("0.max", 3, P("E2")),
    ]
    es = [
        Edge("0.min", "2.c", 1, P("E3")),
        Edge("2.c", "0.a", 1, P("E1-E3")),
        Edge("0.a", "0.max", 1, P("L-E1-E2")),
        Edge("0.min", "0.max", 1, P("L-E2")),
    ]
    ledger = (LedgerEntry("extremum", "max"), LedgerEntry("surface", "min"))
    unbroken = DecoratedGraph.build(om, vs, es, ledger, P("L-E2"))
    assert validate(unbroken) == []
    assert same_action(g3, unbroken)


def test_serialization_round_trip():
    g = two_surface_base()
    site = blowup_sites(g, F(1, 4))[0]
    h = generic_form(apply_blowup(g, site.vertex, F(1, 4)))
    text = canonical_text(h)
    back = parse_graph(text)
    assert canonical_text(back) == text
    assert validate(back) == []
    assert back.ledger == h.ledger


def test_render_dot_deterministic_and_annotated():
    g = two_surface_base()
    dot = render_dot(g)
    assert dot == render_dot(parse_graph(canonical_text(g)))
    assert "size=1 " in dot and "size=1/2" in dot
    nf = normal_form(base_ruled(ruled(), 0))
    ruled_dot = render_dot(nf)
    assert ruled_dot.count("ellipse") == 2
    assert "->" not in ruled_dot  # no non-redundant edges at all


def test_permute_exceptionals():
    g = two_surface_base()
    site = [s for s in blowup_sites(g, F(1, 4)) if s.end == "min"][0]
    h = generic_form(apply_blowup(g, site.vertex, F(1, 4)))
    site = [s for s in blowup_sites(h, F(1, 4)) if s.end == "min"][0]
    h = generic_form(apply_blowup(h, site.vertex, F(1, 4)))
    swapped = permute_exceptionals(h, {2: 3, 3: 2})
    assert validate(swapped) == []
    assert swapped.omega is h.omega  # a relabeling of equal sizes keeps the vector
    assert same_action(h, swapped)  # the two blowups carry equal sizes


def test_permute_exceptionals_rejects_unequal_sizes():
    g = two_surface_base()
    site = [s for s in blowup_sites(g, F(1, 4)) if s.end == "min"][0]
    h = generic_form(apply_blowup(g, site.vertex, F(1, 4)))
    site = [s for s in blowup_sites(h, F(1, 8)) if s.end == "min"][0]
    h = generic_form(apply_blowup(h, site.vertex, F(1, 8)))
    assert h.omega.deltas[1:] == (F(1, 4), F(1, 8))
    with pytest.raises(GraphError, match="unequal size"):
        permute_exceptionals(h, {2: 3, 3: 2})
    assert permute_exceptionals(h, {}) is h

def test_equivalence_is_an_equivalence_relation():
    g = two_surface_base()
    variants = [g, raised(g, 5), flip(g)]
    for a in variants:
        assert same_action(a, a)
        for b in variants:
            assert same_action(a, b) == same_action(b, a)
            for c in variants:
                if same_action(a, b) and same_action(b, c):
                    assert same_action(a, c)


# ---------------------------------------------------------------------------
# the class vector's table of parsed V and E records


@pytest.fixture(scope="module")
def general_4_texts(tmp_path_factory):
    """The texts of the 317 saved ruled-general-4 graphs, in manifest order."""
    out = tmp_path_factory.mktemp("ruled-general-4")
    outcome = scenarios.run_scenario(scenarios.load_scenario("ruled-general-4"))
    scenarios.export_graphs(outcome.result, out)
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    return [(out / name).read_text(encoding="utf-8") for name in manifest["files"]]


def general_4_omega():
    """A new class vector of ruled-general-4's final graphs, its table empty."""
    return scenarios.load_scenario("ruled-general-4").enumeration_spec().final_omega


def records(texts, tag):
    return [line for text in texts for line in text.splitlines() if line.startswith(tag + " ")]


@pytest.mark.parametrize("step", [1, -1], ids=["manifest-order", "reversed"])
def test_one_vector_parses_each_record_line_once(general_4_texts, step):
    texts = general_4_texts[::step]
    omega = general_4_omega()
    assert omega._parsed_records == {}
    vertex_of = {}  # V line -> the Vertex object the first graph holding it got
    for text in texts:
        g = parse_graph(text, omega)
        assert g.omega is omega
        assert canonical_text(g) == text == canonical_text(parse_graph(text))
        for line in records([text], "V"):
            v = g.vertex("0.v" + line.split()[1])
            assert vertex_of.setdefault(line, v) is v
    v_lines, e_lines = records(texts, "V"), records(texts, "E")
    assert (len(v_lines), len(set(v_lines))) == (2219, 230)
    assert (len(e_lines), len(set(e_lines))) == (2554, 315)
    heads = {*records(texts, "MODEL"), *records(texts, "OMEGA"), *records(texts, "FIBER")}
    steps = set()  # (step, steps, word) of each ledger step word
    for line in records(texts, "LEDGER"):
        words = line.split()[1:]
        steps.update((i, len(words), word) for i, word in enumerate(words, start=1))
    assert (len(heads), len(steps)) == (3, 19)
    assert omega._parsed_records.keys() == set(v_lines) | set(e_lines) | heads | steps


@pytest.mark.parametrize(
    "edit, message, kept",
    [
        (lambda text: text.replace(" isolated\n", " banana\n", 1),
         "line 5: malformed V record: '2 15/16 banana' is written '2 15/16 isolated'", False),
        # The moment 15/16 spelt 30/32, as 1/20 is spelt 2/40 in ruled-three's files.
        (lambda text: text.replace("V 2 15/16 ", "V 2 30/32 ", 1),
         "line 5: malformed V record: '2 30/32 isolated' is written '2 15/16 isolated'", False),
        (lambda text: text.replace("V 1 ", "V 0 ", 1), "line 4: V 0 record where V 1 comes", True),
    ],
    ids=["vertex-kind", "unreduced-moment", "second-vertex"],
)
def test_a_bad_record_raises_on_every_parse(general_4_texts, edit, message, kept):
    """A line that fails its own checks, the round trip among them, is never
    kept; a per-graph check runs on every parse, kept line or not."""
    text = general_4_texts[0]
    bad = edit(text)
    assert bad != text
    omega = general_4_omega()
    errors = []
    for _ in range(2):
        with pytest.raises(GraphError) as caught:
            parse_graph(bad, omega)
        errors.append(str(caught.value))
    assert errors == [message, message]
    edited = set(bad.splitlines()) - set(text.splitlines())
    assert len(edited) == 1 and (edited <= omega._parsed_records.keys()) is kept
    assert canonical_text(parse_graph(text, omega)) == text


def test_a_text_parsed_onto_two_vectors_holds_each_vectors_classes(general_4_texts):
    text = general_4_texts[-1]
    graphs = []
    for omega in (general_4_omega(), general_4_omega()):
        g = parse_graph(text, omega)
        assert g.omega is omega
        classes = [v.fat for v in g.vertices if v.fat is not None]
        classes += [e.cls for e in g.edges] + [g.fiber]
        assert all(c is omega.model.intern(c.coeffs) for c in classes)
        graphs.append(g)
    first, second = graphs
    assert first.model is not second.model
    assert canonical_text(first) == canonical_text(second) == text
    assert not {id(e) for e in first.edges} & {id(e) for e in second.edges}


# ---------------------------------------------------------------------------
# the records a warm vector keeps, and the layout of a file


def warm_general_4_omega(texts):
    """A new class vector of ruled-general-4's final graphs whose table holds
    every record of ``texts``."""
    omega = general_4_omega()
    for text in texts:
        parse_graph(text, omega)
    return omega


def refusals(text, warm):
    """The GraphError messages of ``text`` read on a new vector and on ``warm``."""
    messages = []
    for omega in (general_4_omega(), warm):
        with pytest.raises(GraphError) as caught:
            parse_graph(text, omega)
        messages.append(str(caught.value))
    return messages


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda text: re.sub(r"(FIBER .*\n)", r"\1\1", text), "line {n}: a second FIBER record"),
        (lambda text: text + text.splitlines()[-1] + "\n", "line {m}: a second LEDGER record"),
        (lambda text: text + "FIBER F\n", "line {m}: a second FIBER record"),
        (lambda text: re.sub(r"(FIBER .*\n)(LEDGER .*\n)", r"\2\1", text),
         "line {n}: FIBER record after the LEDGER record"),
    ],
    ids=["fiber-twice", "ledger-twice", "fiber-after-ledger", "ledger-before-fiber"],
)
def test_a_warm_vector_refuses_a_second_record(general_4_texts, edit, message):
    """A kept FIBER line or kept ledger words are read once per file: a
    second record is refused on a warm vector as on a new one."""
    warm = warm_general_4_omega(general_4_texts)
    for text in general_4_texts[::10]:
        n = text.count("\n")  # the LEDGER record's line
        expected = message.format(n=n, m=n + 1)
        assert refusals(edit(text), warm) == [expected, expected]


def test_a_kept_step_word_is_refused_at_another_step(general_4_texts):
    """The table keeps a ledger word for its step i of s steps: at step i + 1
    of s, or at step i of s + 1, the word names another class than the one
    its position made, and it is refused as on a vector that keeps nothing."""
    warm = warm_general_4_omega(general_4_texts)
    kept = [key for key in warm._parsed_records if isinstance(key, tuple)]
    assert len(kept) == 19
    head, k = general_4_texts[0].rsplit("LEDGER ", 1)[0], warm.model.k
    number = head.count("\n") + 1  # the LEDGER record's line
    refused = 0
    for i, s, word in kept:
        name, rest = word.split(":", 1)
        assert name == f"E{k - s + i}"
        for j, n in ((i, s), (i + 1, s), (i, s + 1)):
            if j > n:
                continue
            good = [f"E{k - n + p}:surface:max" for p in range(1, n + 1)]
            good[j - 1] = f"E{k - n + j}:{rest}"
            bad = good[: j - 1] + [word] + good[j:]
            text = f"{head}LEDGER {' '.join(bad)}\n"
            if (j, n) == (i, s):
                assert canonical_text(parse_graph(text, warm)) == text
                continue
            expected = (
                f"line {number}: malformed LEDGER record:"
                f" {' '.join(bad)!r} is written {' '.join(good)!r}"
            )
            assert refusals(text, warm) == [expected, expected]
            refused += 1
    assert refused == sum(1 + (i < s) for i, s, _ in kept)


def reordered(text, order):
    """``text`` with its C blocks in ``order`` and its vertices renumbered as
    the blocks then reach them: of the layout, only the blocks' order can
    be out of place."""
    lines = text.splitlines()
    vs = [line.split(" ", 2)[2] for line in lines if line.startswith("V ")]
    start, stop = lines.index("C"), len(lines) - 2  # the C blocks, then FIBER and LEDGER
    blocks = []
    for line in lines[start:stop]:
        if line == "C":
            blocks.append([])
        else:
            blocks[-1].append(line.split()[1:])
    number = {"0": "0", "1": "1"}
    body = []
    for i in order:
        body.append("C")
        for b, t, label, cls in blocks[i]:
            for end in (b, t):
                number.setdefault(end, str(len(number)))
            body.append(f"E {number[b]} {number[t]} {label} {cls}")
    old = {new: old for old, new in number.items()}
    vertices = [f"V {i} {vs[int(old[str(i)])]}" for i in range(len(vs))]
    return "\n".join(lines[:2] + vertices + body + lines[stop:]) + "\n"


def test_c_blocks_out_of_their_sorted_order_are_refused(general_4_texts):
    """Each block's (moment text, label, coefficients) per step is not
    smaller than the block's above it: with the blocks reversed and the
    vertices renumbered to match, a file is refused, cold or warm."""
    warm = warm_general_4_omega(general_4_texts)
    refused = 0
    for text in general_4_texts:
        count = text.count("\nC\n")
        assert reordered(text, range(count)) == text
        if count == 1:  # six files
            continue
        cold, hot = refusals(reordered(text, reversed(range(count))), warm)
        assert cold == hot and cold.endswith(": C block that sorts before the one above")
        refused += 1
    assert refused == 311


# cp2-six's first saved graph: four C blocks, each summing to L-E1.
CP2_SIX_FIRST = """\
MODEL rational k=6
OMEGA (1;1/2,1/4,1/4,1/4,3/16,1/8)
V 0 0 fat size=1/2 genus=0 class=L-E3-E4
V 1 1/2 fat size=1/16 genus=0 class=E1-E2-E5
V 2 1/4 isolated
V 3 1/4 isolated
V 4 1/4 isolated
V 5 3/16 isolated
V 6 7/16 isolated
C
E 0 2 1 E4
E 2 1 1 L-E1-E4
C
E 0 3 1 E3
E 3 1 1 L-E1-E3
C
E 0 4 1 L-E1-E2
E 4 1 1 E2
C
E 0 5 1 L-E1-E5-E6
E 5 6 2 E6
E 6 1 1 E5-E6
FIBER L-E1
LEDGER E2:surface:max E3:surface:min E4:surface:min E5:surface:max E6:interior:4
"""


@pytest.mark.parametrize(
    "fiber, other",
    [("L-E1", "L-E1+E2-E3"), ("L-E1+E2-E3", "L-E1")],
    ids=["fiber-of-the-others", "fiber-of-the-edited"],
)
def test_fiber_is_every_c_block_sum(fiber, other):
    """FIBER must be each block's sum of label times class.  With E2 swapped
    for E3 (both of size 1/4) in the third block, the blocks sum to two
    classes, and a FIBER equal to either is refused, naming the first block
    sum that differs, with no class vector given and on a warm one."""
    omega = parse_graph(CP2_SIX_FIRST).omega
    assert canonical_text(parse_graph(CP2_SIX_FIRST, omega)) == CP2_SIX_FIRST
    text = CP2_SIX_FIRST.replace("E 0 4 1 L-E1-E2\n", "E 0 4 1 L-E1-E3\n")
    text = text.replace("FIBER L-E1\n", f"FIBER {fiber}\n")
    message = f"FIBER {fiber} is not the chain sum {other}"
    for given in (None, omega):
        with pytest.raises(GraphError) as caught:
            parse_graph(text, given)
        assert str(caught.value) == message


def test_a_record_is_one_word_only_where_the_writer_writes_one():
    """An empty ledger is written ``LEDGER `` and a block opens with ``C``."""
    text = canonical_text(two_surface_base())
    assert text.endswith("\nLEDGER \n") and "\nC\n" in text
    assert canonical_text(parse_graph(text)) == text
    for old, new, message in [
        ("\nLEDGER \n", "\nLEDGER\n", "malformed LEDGER record: 'LEDGER' is written 'LEDGER '"),
        ("\nC\n", "\nC \n", "malformed C record: 'C ' is written 'C'"),
    ]:
        with pytest.raises(GraphError, match=re.escape(message)):
            parse_graph(text.replace(old, new, 1))


@pytest.fixture(scope="module")
def warm_general_4(general_4_texts):
    return warm_general_4_omega(general_4_texts)


LINE_EDITS = st.lists(
    st.tuples(
        st.sampled_from(["swap", "drop", "duplicate", "blank"]),
        st.integers(0, 99),
        st.integers(0, 99),
    ),
    min_size=1,
    max_size=3,
)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_an_edited_file_parses_only_as_its_own_canonical_text(
    general_4_texts, warm_general_4, data
):
    """Swap, drop or duplicate lines of a saved file, or insert blank ones:
    what still parses is its own canonical text, and what is refused is
    refused with one message on a new vector and on a warm one."""
    lines = data.draw(st.sampled_from(general_4_texts)).splitlines()
    for edit, i, j in data.draw(LINE_EDITS):
        if not lines:
            break
        i, j = i % len(lines), j % len(lines)
        if edit == "swap":
            lines[i], lines[j] = lines[j], lines[i]
        elif edit == "drop":
            del lines[i]
        elif edit == "duplicate":
            lines.insert(i, lines[i])
        else:
            lines.insert(i, "")
    text = "\n".join(lines) + "\n"
    outcomes = []
    for omega in (general_4_omega(), warm_general_4):
        try:
            outcomes.append(canonical_text(parse_graph(text, omega)))
        except GraphError as exc:
            outcomes.append(exc)
    cold, hot = outcomes
    if isinstance(cold, str):
        assert cold == hot == text
    else:
        assert isinstance(hot, GraphError) and str(hot) == str(cold)
