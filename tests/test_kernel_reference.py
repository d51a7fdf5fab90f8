"""The indexed integer kernel against the scan and Fraction versions it replaced.

The reference functions below are the earlier implementations, kept here
only as oracles: the Fraction sum ``pair``, the scan-based extrema and
adjacency queries, the adjunction genus through two intersections, the
serializer, and the normal form and dedup key that built the flipped graph
and compared three texts.  The kernel must agree with them exactly, on random
models, class vectors, classes and graphs, on random admissible blowup
chains, and on every graph of every level of the golden scenarios.  The last
section checks properties of the dedup key on the same chains.
"""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from decgraph.blowup import BlowupError, BlowupRequest, apply_blowup, blowup_sites
from decgraph.enumeration import (
    _permutation_group,
    dedup_key,
    enumerate_levels,
    hirzebruch_base_graphs,
    ruled_base_graphs,
)
from decgraph.graphs import (
    DecoratedGraph,
    Edge,
    FatData,
    GraphError,
    Vertex,
    _oriented_texts,
    base_hirzebruch,
    BaseFamilyParams,
    break_free_edges,
    canonical_text,
    flip,
    generic_form,
    normal_form,
    parse_graph,
    permute_exceptionals,
    strip_redundant,
    translate,
    validate,
)
from decgraph.lattice import (
    RATIONAL,
    RULED,
    CohomologyVector,
    HomologyClass,
    LatticeError,
    SurfaceModel,
    adjunction_genus,
    chern_pairing,
    intersect,
    pair,
    rat_str,
)
from decgraph.scenarios import DEFAULT_REPS, load_scenario


# ---------------------------------------------------------------------------
# reference implementations


def reference_pair(omega, c):
    if omega.model != c.model:
        raise LatticeError(f"model mismatch: {omega.model} vs {c.model}")
    if omega.model.kind == RATIONAL:
        weights = omega.entries
    else:
        lam_f, lam_b = omega.entries[0], omega.entries[1]
        weights = (lam_b, lam_f) + omega.entries[2:]
    return sum((w * x for w, x in zip(weights, c.coeffs)), F(0))


def reference_adjunction_genus(c):
    return 1 + F(intersect(c, c) - chern_pairing(c), 2)


def reference_vertex(g, vid):
    for v in g.vertices:
        if v.vid == vid:
            return v
    raise GraphError(f"no vertex {vid!r}")


def reference_min_vertex(g):
    return min(g.vertices, key=lambda v: (v.moment, v.vid))


def reference_max_vertex(g):
    return max(g.vertices, key=lambda v: (v.moment, v.vid))


def reference_edges_above(g, vid):
    return [e for e in g.edges if e.bottom == vid]


def reference_edges_below(g, vid):
    return [e for e in g.edges if e.top == vid]


def reference_validate(g):
    """The validation as it scanned before the graph index existed."""
    import math

    bad = []
    if g.omega.model != g.model:
        return [f"class vector is for {g.omega.model}, graph is for {g.model}"]
    if not g.vertices:
        return ["graph has no vertices"]
    mmin = min(v.moment for v in g.vertices)
    mmax = max(v.moment for v in g.vertices)
    if mmin == mmax:
        bad.append("minimum and maximum must be attained at distinct levels")
    if sum(1 for v in g.vertices if v.moment == mmin) != 1:
        bad.append("minimum attained on more than one component")
    if sum(1 for v in g.vertices if v.moment == mmax) != 1:
        bad.append("maximum attained on more than one component")
    ids = [v.vid for v in g.vertices]
    if len(set(ids)) != len(ids):
        bad.append("duplicate vertex ids")
    for v in g.vertices:
        if v.fat is None:
            continue
        if v.fat.size <= 0:
            bad.append(f"fat vertex {v.vid} has nonpositive size")
        if v.moment not in (mmin, mmax):
            bad.append(f"fat vertex {v.vid} sits at an interior moment value")
        if v.fat.genus < 0:
            bad.append(f"fat vertex {v.vid} has negative genus")
        if v.fat.cls.model != g.model:
            bad.append(f"fat vertex {v.vid} class is in the wrong lattice")
        elif reference_pair(g.omega, v.fat.cls) != v.fat.size:
            bad.append(f"fat vertex {v.vid} size disagrees with its class area")
    known = set(ids)
    for e in g.edges:
        tag = f"edge {e.cls}({e.label})"
        if e.bottom not in known or e.top not in known:
            bad.append(f"{tag} references a missing vertex")
            continue
        if e.bottom == e.top:
            bad.append(f"{tag} is a loop")
            continue
        vb, vt = reference_vertex(g, e.bottom), reference_vertex(g, e.top)
        if not isinstance(e.label, int) or e.label < 1:
            bad.append(f"{tag} has a non-positive label")
            continue
        if vt.moment <= vb.moment:
            bad.append(f"{tag} does not increase the moment value")
        if e.cls.model != g.model:
            bad.append(f"{tag} class is in the wrong lattice")
            continue
        if vt.moment - vb.moment != e.label * reference_pair(g.omega, e.cls):
            bad.append(f"{tag} breaks the area rule (gap != label * area)")
        if reference_adjunction_genus(e.cls) != 0:
            bad.append(f"{tag} class is not an embedded-sphere class")
        if (vb.is_fat or vt.is_fat) and e.label != 1:
            bad.append(f"{tag} touches a fixed surface with label > 1")
    for v in g.vertices:
        if v.is_fat:
            continue
        above = reference_edges_above(g, v.vid)
        below = reference_edges_below(g, v.vid)
        if v.moment not in (mmin, mmax):
            if len(above) != 1 or len(below) != 1:
                bad.append(
                    f"interior vertex {v.vid} needs exactly one edge above and below"
                )
        labels = [e.label for e in above + below]
        for i in range(len(labels)):
            for j in range(i + 1, len(labels)):
                if math.gcd(labels[i], labels[j]) != 1:
                    bad.append(f"vertex {v.vid} carries non-coprime edge labels")
    return bad


def reference_interior_vertices(g):
    ends = (reference_min_vertex(g).vid, reference_max_vertex(g).vid)
    return [v for v in g.vertices if not v.is_fat and v.vid not in ends]


def reference_canonical_text(g, with_ledger=True):
    """The serializer as it was, one orientation, every class formatted anew."""
    vmin, vmax = reference_min_vertex(g), reference_max_vertex(g)
    moment_text = {v.vid: str(v.moment) for v in g.vertices}
    chains = []
    for start in sorted(
        reference_edges_above(g, vmin.vid), key=lambda e: (e.cls.coeffs, e.label, e.top)
    ):
        chain = [start]
        while chain[-1].top != vmax.vid:
            nxt = reference_edges_above(g, chain[-1].top)
            if len(nxt) != 1:
                raise GraphError("cannot serialize: broken chain structure")
            chain.append(nxt[0])
        chains.append(chain)
    if sum(len(c) for c in chains) != len(g.edges):
        raise GraphError("cannot serialize: edges outside min-to-max chains")
    chains.sort(
        key=lambda ch: [
            (moment_text[e.bottom], moment_text[e.top], e.label, e.cls.coeffs) for e in ch
        ]
    )
    index = {vmin.vid: 0, vmax.vid: 1}
    order = [vmin, vmax]
    for chain in chains:
        for e in chain[:-1]:
            if e.top not in index:
                index[e.top] = len(order)
                order.append(reference_vertex(g, e.top))
    lines = [f"MODEL {g.model}", f"OMEGA {g.omega}"]
    for v in order:
        if v.fat is None:
            lines.append(f"V {index[v.vid]} {rat_str(v.moment)} isolated")
        else:
            f = v.fat
            lines.append(
                f"V {index[v.vid]} {rat_str(v.moment)} fat"
                f" size={rat_str(f.size)} genus={f.genus} class={f.cls}"
            )
    for chain in chains:
        lines.append("C")
        for e in chain:
            lines.append(f"E {index[e.bottom]} {index[e.top]} {e.label} {e.cls}")
    lines.append(f"FIBER {g.fiber}")
    if with_ledger:
        lines.append("LEDGER " + " ".join(str(x) for x in g.ledger))
    return "\n".join(lines) + "\n"


def reference_normal_form(g):
    """The normal form as it was: build the flip, text both, keep the smaller."""
    h = translate(strip_redundant(break_free_edges(g)))
    f = flip(h)
    if reference_canonical_text(f, False) < reference_canonical_text(h, False):
        return f
    return h


def reference_dedup_key(g, permute_equal_sizes=True):
    """The dedup key as it was: three texts and one flipped graph per relabeling."""
    if not permute_equal_sizes:
        return reference_canonical_text(reference_normal_form(g), False)
    return min(
        reference_canonical_text(reference_normal_form(permute_exceptionals(g, perm)), False)
        for perm in _permutation_group(g)
    )


# ---------------------------------------------------------------------------
# strategies


@st.composite
def models(draw, max_k=8):
    kind = draw(st.sampled_from([RATIONAL, RULED]))
    k = draw(st.integers(0, max_k))
    genus = draw(st.integers(1, 4)) if kind == RULED else 0
    return SurfaceModel(kind, k, genus)


fractions = st.builds(F, st.integers(-10**6, 10**6), st.integers(1, 10**4))


def vectors(model):
    return st.lists(fractions, min_size=model.rank, max_size=model.rank).map(
        lambda entries: CohomologyVector(model, tuple(entries))
    )


def classes(model, bound=10**4):
    return st.lists(
        st.integers(-bound, bound), min_size=model.rank, max_size=model.rank
    ).map(lambda coeffs: HomologyClass(model, tuple(coeffs)))


@st.composite
def model_vector_class(draw):
    model = draw(models())
    return model, draw(vectors(model)), draw(classes(model))


@st.composite
def graphs(draw):
    """Random graphs, mostly invalid; edges may name missing ids.

    Moments come from a small set, so equal extrema are common.  Ids are
    unique here; ``test_validate_matches_the_scans_with_duplicate_ids`` adds
    a twin.
    """
    model = draw(models(max_k=3))
    omega = draw(vectors(model))
    cls = classes(model, bound=3)
    vids = draw(
        st.lists(st.sampled_from("abcdefgh"), min_size=1, max_size=8, unique=True)
    )
    moments = st.builds(F, st.integers(-3, 3), st.integers(1, 2))
    vertices = []
    for vid in vids:
        fat = None
        if draw(st.booleans()):
            fat = FatData(draw(moments), draw(st.integers(0, 2)), draw(cls))
        vertices.append(Vertex(vid, draw(moments), fat))
    ends = st.sampled_from(vids + ["x", "y"])
    edges = [
        Edge(draw(ends), draw(ends), draw(st.integers(1, 4)), draw(cls))
        for _ in range(draw(st.integers(0, 10)))
    ]
    return DecoratedGraph.build(model, omega, vertices, edges, (), draw(cls))


BASES = tuple(
    g
    for _, g in hirzebruch_base_graphs(1, F(1, 2), DEFAULT_REPS)
    + hirzebruch_base_graphs(1, F(2, 3), DEFAULT_REPS)
    + ruled_base_graphs(1, 3, 1)
    + ruled_base_graphs(1, 2, 2)
)


@st.composite
def admissible_chains(draw, max_steps=4):
    """A base graph blown up at random admissible sites, in generic form.

    A size is a random fraction of the site's bound, or an earlier size that
    still fits, so that equal sizes (and so relabelings) come up often.  A
    chain ends early where ``apply_blowup`` rejects its own rewrite, the
    defect that ``test_blowup.py::test_surface_site_grown_from_an_isolated_base``
    pins.
    """
    g = generic_form(draw(st.sampled_from(BASES)))
    sizes = []
    for _ in range(draw(st.integers(0, max_steps))):
        sites = blowup_sites(g, F(1, 10**9))
        if not sites:
            break
        site = draw(st.sampled_from(sites))
        fitting = [d for d in sizes if d < site.max_admissible]
        if fitting and draw(st.booleans()):
            delta = draw(st.sampled_from(fitting))
        else:
            den = draw(st.integers(2, 7))
            delta = site.max_admissible * F(draw(st.integers(1, den - 1)), den)
        try:
            g = generic_form(apply_blowup(g, BlowupRequest(site, delta)))
        except BlowupError:
            break
        sizes.append(delta)
    return g


# ---------------------------------------------------------------------------
# lattice


@settings(max_examples=300, deadline=None)
@given(model_vector_class())
def test_pair_matches_the_fraction_sum(mvc):
    model, omega, c = mvc
    got = pair(omega, c)
    assert type(got) is F
    assert got == reference_pair(omega, c)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_adjunction_genus_matches_two_intersections(data):
    model = data.draw(models())
    c = data.draw(classes(model, bound=50))
    got = adjunction_genus(c)
    assert type(got) is F
    assert got == reference_adjunction_genus(c)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_extended_vector_is_shared_and_pairs_exactly(data):
    model = data.draw(models(max_k=6))
    omega = data.draw(vectors(model))
    delta = data.draw(fractions)
    ext = omega.extend(delta)
    assert omega.extend(delta) is ext
    assert ext.model is model.extend() and ext.model == SurfaceModel(
        model.kind, model.k + 1, model.genus
    )
    assert ext == CohomologyVector(ext.model, omega.entries + (delta,))
    c = data.draw(classes(ext.model))
    assert pair(ext, c) == reference_pair(ext, c)


def test_pair_rejects_a_foreign_model():
    omega = CohomologyVector.rational(1, [F(1, 2)])
    other = SurfaceModel(RATIONAL, 1).parse("L")  # equal model, other object
    assert pair(omega, other) == 1
    with pytest.raises(LatticeError):
        pair(omega, SurfaceModel(RATIONAL, 2).parse("L"))


def test_basis_names_are_stable():
    m = SurfaceModel(RULED, 3, 2)
    assert m.basis_names == ("B", "F", "E1", "E2", "E3")
    assert str(m.parse("2B-F+E3")) == "2B-F+E3"
    assert m.basis_names is m.basis_names


# ---------------------------------------------------------------------------
# graphs


def assert_index_matches_scans(g):
    assert g.min_vertex is reference_min_vertex(g)
    assert g.max_vertex is reference_max_vertex(g)
    assert g.span == reference_max_vertex(g).moment - reference_min_vertex(g).moment
    assert g.interior_vertices() == reference_interior_vertices(g)
    vids = {v.vid for v in g.vertices} | {e.bottom for e in g.edges} | {e.top for e in g.edges}
    for vid in sorted(vids | {"missing"}):
        assert list(g.edges_above(vid)) == reference_edges_above(g, vid)
        assert list(g.edges_below(vid)) == reference_edges_below(g, vid)
        try:
            expected = reference_vertex(g, vid)
        except GraphError:
            with pytest.raises(GraphError):
                g.vertex(vid)
        else:
            assert g.vertex(vid) is expected


@settings(max_examples=300, deadline=None)
@given(graphs())
def test_index_matches_scans_on_random_graphs(g):
    assert_index_matches_scans(g)
    for e in g.edges:
        assert g.area(e) == reference_pair(g.omega, e.cls)
    assert validate(g) == reference_validate(g)


@settings(max_examples=200, deadline=None)
@given(graphs(), st.data())
def test_validate_matches_the_scans_with_duplicate_ids(g, data):
    twin = data.draw(st.sampled_from(g.vertices))
    moment = data.draw(st.sampled_from([twin.moment, twin.moment + 1]))
    h = DecoratedGraph.build(
        g.model, g.omega, g.vertices + (Vertex(twin.vid, moment),), g.edges, (), g.fiber
    )
    assert validate(h) == reference_validate(h)
    assert h.vertex(twin.vid) is reference_vertex(h, twin.vid)


def test_vertex_lookup_returns_the_first_of_a_duplicated_id():
    omega = CohomologyVector.rational(1, [F(1, 2)])
    vs = [Vertex("a", F(0)), Vertex("b", F(1, 2)), Vertex("b", F(1))]
    g = DecoratedGraph.build(omega.model, omega, vs, [], (), omega.model.parse("L"))
    assert g.vertex("b") is reference_vertex(g, "b") and g.vertex("b").moment == F(1, 2)


@pytest.fixture(scope="module")
def enumerated_graphs():
    out = []
    for name in ("cp2-six", "ruled-general-4"):
        for level in enumerate_levels(load_scenario(name).enumeration_spec()):
            out.extend(level.graphs)
    return out


def test_index_matches_scans_on_enumerated_graphs(enumerated_graphs):
    assert len(enumerated_graphs) > 26 + 317
    for g in enumerated_graphs:
        for h in (g, normal_form(g)):
            assert_index_matches_scans(h)
            assert validate(h) == reference_validate(h) == []
            for e in h.edges:
                assert h.area(e) == reference_pair(h.omega, e.cls)
                assert adjunction_genus(e.cls) == reference_adjunction_genus(e.cls) == 0
            for v in h.vertices:
                if v.is_fat:
                    assert pair(h.omega, v.fat.cls) == reference_pair(h.omega, v.fat.cls)
                    assert adjunction_genus(v.fat.cls) == reference_adjunction_genus(v.fat.cls)


def test_validate_on_an_indexed_graph_reports_broken_rules():
    g = base_hirzebruch(1, F(1, 2), BaseFamilyParams("two_surfaces", 1))
    P = g.model.parse
    first, second = g.edges
    # same area as L-E1 (1/2), so only the genus rule breaks on this edge
    non_sphere = P("3L-5E1")
    assert pair(g.omega, non_sphere) == pair(g.omega, first.cls)
    assert adjunction_genus(non_sphere) != 0
    edges = [
        Edge(first.bottom, first.top, 3, first.cls),
        Edge(second.bottom, second.top, 1, non_sphere),
    ]
    bad = DecoratedGraph.build(g.model, g.omega, g.vertices, edges, (), g.fiber)
    assert bad.edges_above(bad.min_vertex.vid) and bad.vertex(first.top)  # indexed
    assert validate(bad) == [
        "edge L-E1(3) breaks the area rule (gap != label * area)",
        "edge L-E1(3) touches a fixed surface with label > 1",
        "edge 3L-5E1(1) class is not an embedded-sphere class",
    ]


# ---------------------------------------------------------------------------
# canonical records and dedup keys


def assert_keys_match_references(g):
    h, up, down = _oriented_texts(g, {})
    assert h == translate(strip_redundant(break_free_edges(g)))
    assert up == canonical_text(h, with_ledger=False) == reference_canonical_text(h, False)
    assert down == canonical_text(flip(h), with_ledger=False)
    assert down == reference_canonical_text(flip(h), False)
    assert canonical_text(g) == reference_canonical_text(g)
    nf = normal_form(g)
    assert nf == reference_normal_form(g)
    assert canonical_text(nf) == reference_canonical_text(nf)
    for permute in (True, False):
        assert dedup_key(g, permute) == reference_dedup_key(g, permute)


@pytest.fixture(scope="module")
def golden_level_graphs():
    out = []
    for name in ("cp2-six", "cp2-six-alt", "ruled-three", "ruled-general-4"):
        for level in enumerate_levels(load_scenario(name).enumeration_spec()):
            out.extend(level.graphs)
    return out


def test_keys_match_the_references_on_golden_levels(golden_level_graphs):
    assert len(golden_level_graphs) == 558
    for g in golden_level_graphs:
        assert_keys_match_references(g)


@settings(max_examples=150, deadline=None)
@given(admissible_chains())
def test_keys_match_the_references_on_random_chains(g):
    assert validate(g) == []
    assert_keys_match_references(g)


@settings(max_examples=100, deadline=None)
@given(admissible_chains(), st.data())
def test_dedup_key_is_invariant_under_flip_and_translation(g, data):
    key = dedup_key(g)
    assert dedup_key(flip(g)) == key
    shift = data.draw(st.builds(F, st.integers(-20, 20), st.integers(1, 9)))
    assert dedup_key(translate(g, shift)) == key


@settings(max_examples=100, deadline=None)
@given(admissible_chains())
def test_parse_inverts_canonical_text(g):
    text = canonical_text(g)
    assert canonical_text(parse_graph(text)) == text
