"""The indexed integer kernel against the scan and Fraction versions it replaced.

The reference functions below are the earlier implementations, kept here
only as oracles: the Fraction sum ``pair``, the scan-based extrema and
adjacency queries, the adjunction genus through two intersections, the class
formatter and genus formula that ran on every call, the serializer, the
normal form and dedup key that built the flipped graph and compared three
texts over relabelings listed anew per graph, the blowup that embedded every
class of the parent and re-sorted the child, the obstruction search that
recomputed every shape test and pairing, the chain walker and fiber-check
loop that ``_chain_sum`` replaced, the three-pass key writer (a walk with a
moment-text dict, per-chain records, then the lines) that the one-walk
writer replaced, and the cone elimination in ``Fraction``s that the integer
one replaced.  The kernel must agree with them exactly,
on random models, class vectors, classes and graphs, on random admissible
blowup chains, and on every graph of every level of the golden scenarios:
the integer site bounds of all three kinds against Fraction pairings, the
chain sums from every edge, and ``validate``'s coprime-label test against
the pairwise scan.  The last sections check properties of the dedup key on the same
chains, the lifetime of the per-model class tables and of the per-vector
area and text tables, the certified classes shared across a search, the
integer moments (every vertex a height over its class vector's
denominator), and the released caches: a graph answers alike with its index
and extensions or without them, each index is built once per graph, and a
run holds none.  A final section checks the integer cone elimination
against its reference on every shipped curve list and on small random ones.
The references read a moment as that height over the denominator.
"""

import gc
import itertools
import json
import math
import pickle
import signal
import weakref

from collections import Counter
from dataclasses import fields
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from decgraph.blowup import (
    EXTREMUM,
    INTERIOR,
    SURFACE,
    BlowupError,
    _site_for_vertex,
    apply_blowup,
    blowup_sites,
)
from decgraph.cone import (
    GENERATOR_LISTS,
    ConeSeparation,
    ConeWitness,
    GeneratorList,
    cone_membership,
)
from decgraph.enumeration import (
    _permutation_group,
    dedup_key,
    enumerate_graphs,
    enumerate_levels,
    hirzebruch_base_graphs,
    ruled_base_graphs,
)
from decgraph import graphs as graphs_module
from decgraph.graphs import (
    DecoratedGraph,
    Edge,
    GraphError,
    LedgerEntry,
    Vertex,
    _chain_sum,
    _drop_caches,
    _fixed_record,
    _lines,
    _normal_lines,
    _walk,
    base_hirzebruch,
    base_ruled,
    BaseFamilyParams,
    break_free_edges,
    canonical_text,
    flip,
    generic_form,
    normal_form,
    normal_key,
    parse_graph,
    permute_exceptionals,
    strip_redundant,
    translate,
    validate,
    vertex_order,
)
from decgraph.lattice import (
    RATIONAL,
    RULED,
    CohomologyVector,
    HomologyClass,
    LatticeError,
    SurfaceModel,
    _Table,
    chern_pairing,
    intersect,
    pair,
    rat_str,
    twice_adjunction_genus,
)
from decgraph.obstruct import (
    INTEGRABLE_BLOWUP,
    RULE_NEGATIVE_PAIR,
    RULE_NEGATIVE_SQUARE,
    STABILIZER_ONLY,
    Certificate,
    CertifiedClass,
    RequiredClass,
    _certify,
    certified_classes,
    check_nonextension,
    is_proper_transform_shape,
    last_blowup_classes,
)
from decgraph.scenarios import DEFAULT_REPS, export_graphs, load_scenario, run_scenario
from test_graphs import plane


# ---------------------------------------------------------------------------
# reference implementations


def moment(g, v):
    """The moment value of ``g``'s vertex ``v``."""
    return F(v.height, g.omega.denominator)


def vertex_at(omega, vid, value, fat=None):
    """The vertex at moment ``value`` of a graph on the class vector ``omega``."""
    height = value * omega.denominator
    assert height.denominator == 1
    return Vertex(vid, height.numerator, fat)


def raised(g, by):
    """``g`` with every vertex ``by`` heights higher."""
    vertices = [Vertex(v.vid, v.height + by, v.fat) for v in g.vertices]
    return DecoratedGraph.build(g.omega, vertices, g.edges, g.ledger, g.fiber)


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


def reference_class_text(c):
    """The class formatter as it was, run on every call."""
    parts = []
    for name, x in zip(c.model.basis_names, c.coeffs):
        if x == 0:
            continue
        sign = "-" if x < 0 else ("+" if parts else "")
        mag = abs(x)
        parts.append(f"{sign}{'' if mag == 1 else mag}{name}")
    return "".join(parts) if parts else "0"


def reference_twice_genus(c):
    """The genus formula as it was, run on every call."""
    x = c.coeffs
    if c.model.kind == RATIONAL:
        head = x[0] * (x[0] - 3)
        start = 1
    else:
        head = 2 * x[0] * x[1] - 2 * x[1] - (2 - 2 * c.model.genus) * x[0]
        start = 2
    return 2 + head - sum(e * (e + 1) for e in x[start:])


def reference_certified_classes(g, mode):
    """The certified classes as they were: every shape test run anew."""
    out = []
    for v in g.vertices:
        if v.fat is not None:
            out.append(CertifiedClass(v.fat, "stabilizer", None))
    for e in g.edges:
        if e.label >= 2:
            out.append(CertifiedClass(e.cls, "stabilizer", e.label))
        elif mode == INTEGRABLE_BLOWUP and is_proper_transform_shape(e.cls):
            out.append(CertifiedClass(e.cls, "proper_transform", e.label))
    out.sort(key=lambda c: (c.cls.coeffs, c.label is not None, c.label or 0))
    return out


def reference_find_certificate(certified, required):
    """The certificate search as it was: every pairing computed anew."""
    for cert in certified:
        for req in required:
            if cert.cls != req.cls:
                prod = intersect(cert.cls, req.cls)
                if prod < 0:
                    return Certificate(cert, req, prod, RULE_NEGATIVE_PAIR)
    for cert in certified:
        for req in required:
            if cert.cls == req.cls:
                sq = intersect(cert.cls, cert.cls)
                if sq < 0 and not cert.pointwise_fixed(req.fixed_by):
                    return Certificate(cert, req, sq, RULE_NEGATIVE_SQUARE)
    return None


def graph_index(g):
    """``g``'s index, (vid -> vertex, vid -> edges above, vid -> edges below),
    as the kernel reads it: built on first use."""
    return g._index or g._build_index()


def reference_vertex(g, vid):
    for v in g.vertices:
        if v.vid == vid:
            return v
    raise GraphError(f"no vertex {vid!r}")


def reference_min_vertex(g):
    return min(g.vertices, key=lambda v: (moment(g, v), v.vid))


def reference_max_vertex(g):
    return max(g.vertices, key=lambda v: (moment(g, v), v.vid))


def reference_edges_above(g, vid):
    return [e for e in g.edges if e.bottom == vid]


def reference_edges_below(g, vid):
    return [e for e in g.edges if e.top == vid]


def reference_validate(g):
    """The validation as it scanned before the graph index existed."""
    import math

    bad = []
    if not g.vertices:
        return ["graph has no vertices"]
    mmin = min(moment(g, v) for v in g.vertices)
    mmax = max(moment(g, v) for v in g.vertices)
    if mmin == mmax:
        bad.append("minimum and maximum must be attained at distinct levels")
    if sum(1 for v in g.vertices if moment(g, v) == mmin) != 1:
        bad.append("minimum attained on more than one component")
    if sum(1 for v in g.vertices if moment(g, v) == mmax) != 1:
        bad.append("maximum attained on more than one component")
    ids = [v.vid for v in g.vertices]
    if len(set(ids)) != len(ids):
        bad.append("duplicate vertex ids")
    for v in g.vertices:
        if v.fat is None:
            continue
        if moment(g, v) not in (mmin, mmax):
            bad.append(f"fat vertex {v.vid} sits at an interior moment value")
        if v.fat.model != g.model:
            bad.append(f"fat vertex {v.vid} class is in the wrong lattice")
            continue
        if reference_pair(g.omega, v.fat) <= 0:
            bad.append(f"fat vertex {v.vid} has nonpositive size")
        if reference_adjunction_genus(v.fat) < 0:
            bad.append(f"fat vertex {v.vid} has negative genus")
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
        if moment(g, vt) <= moment(g, vb):
            bad.append(f"{tag} does not increase the moment value")
        if e.cls.model != g.model:
            bad.append(f"{tag} class is in the wrong lattice")
            continue
        if moment(g, vt) - moment(g, vb) != e.label * reference_pair(g.omega, e.cls):
            bad.append(f"{tag} breaks the area rule (gap != label * area)")
        if reference_adjunction_genus(e.cls) != 0:
            bad.append(f"{tag} class is not an embedded-sphere class")
        if (vb.fat is not None or vt.fat is not None) and e.label != 1:
            bad.append(f"{tag} touches a fixed surface with label > 1")
    for v in g.vertices:
        if v.fat is not None:
            continue
        above = reference_edges_above(g, v.vid)
        below = reference_edges_below(g, v.vid)
        if moment(g, v) not in (mmin, mmax):
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


def reference_ledger_record(g):
    """The LEDGER record: step i of s on k classes names E(k-s+i)."""
    s = len(g.ledger)
    words = [
        f"E{g.model.k - s + i}:{entry.kind}:{entry.detail}"
        for i, entry in enumerate(g.ledger, start=1)
    ]
    return "LEDGER " + " ".join(words)


def reference_chain_sums(g):
    """Sum of label * class over each chain from the minimum, in integers."""
    vmin, vmax = reference_min_vertex(g).vid, reference_max_vertex(g).vid
    sums = []
    for e in reference_edges_above(g, vmin):
        total = [0] * g.model.rank
        while True:
            total = [t + e.label * c for t, c in zip(total, e.cls.coeffs)]
            if e.top == vmax:
                break
            (e,) = reference_edges_above(g, e.top)
        sums.append(tuple(total))
    return sums


def reference_walk_sum(g, vid, up):
    """Weighted class sum along the chain from a vertex to an extremum;
    GraphError where the chain forks, stops short or takes an edge twice."""
    total, start, taken = g.model.zero(), vid, set()
    while True:
        v = g.vertex(vid)
        if v.fat is not None or vid in (g.vertices[0].vid, g.vertices[-1].vid):
            return total
        step = reference_edges_above(g, vid) if up else reference_edges_below(g, vid)
        if len(step) != 1:
            raise GraphError(f"vertex {vid} has no unique chain continuation")
        e = step[0]
        if e in taken:
            raise GraphError(f"the chain through vertex {start} runs round a cycle")
        taken.add(e)
        total = total + e.label * e.cls
        vid = e.top if up else e.bottom


def reference_fiber_sums(g):
    """The integer sum of each chain from the minimum, as the replay's fiber
    check summed it before it shared ``_chain_sum``."""
    vmax, above = g.vertices[-1].vid, graph_index(g)[1]
    sums = []
    for e in above.get(g.vertices[0].vid, ()):
        total = [e.label * c for c in e.cls.coeffs]
        while e.top != vmax:
            (e,) = above[e.top]
            total = [t + e.label * c for t, c in zip(total, e.cls.coeffs)]
        sums.append(tuple(total))
    return sums


def reference_interior_vertices(g):
    ends = (reference_min_vertex(g).vid, reference_max_vertex(g).vid)
    return [v for v in g.vertices if v.fat is None and v.vid not in ends]


def reference_canonical_text(g, with_ledger=True):
    """The serializer as it was, one orientation, every class formatted anew."""
    vmin, vmax = reference_min_vertex(g), reference_max_vertex(g)
    moment_text = {v.vid: str(moment(g, v)) for v in g.vertices}
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
            lines.append(f"V {index[v.vid]} {rat_str(moment(g, v))} isolated")
        else:
            f = v.fat
            lines.append(
                f"V {index[v.vid]} {rat_str(moment(g, v))} fat"
                f" size={rat_str(reference_pair(g.omega, f))}"
                f" genus={reference_adjunction_genus(f)}"
                f" class={reference_class_text(f)}"
            )
    for chain in chains:
        lines.append("C")
        for e in chain:
            lines.append(
                f"E {index[e.bottom]} {index[e.top]} {e.label} {reference_class_text(e.cls)}"
            )
    lines.append(f"FIBER {reference_class_text(g.fiber)}")
    if with_ledger:
        lines.append(reference_ledger_record(g))
    return "\n".join(lines) + "\n"


def reference_normal_form(g):
    """The normal form as it was: build the flip, text both, keep the smaller."""
    h = translate(strip_redundant(break_free_edges(g)))
    f = flip(h)
    if reference_canonical_text(f, False) < reference_canonical_text(h, False):
        return f
    return h


def reference_permutation_group(g):
    """The relabelings as they were listed anew for every graph."""
    deltas = g.omega.deltas
    created = range(g.model.k - len(g.ledger) + 1, g.model.k + 1)
    groups = {}
    for i in created:
        groups.setdefault(deltas[i - 1], []).append(i)
    groups = {k: v for k, v in groups.items() if len(v) > 1}
    if not groups:
        yield {}
        return
    keys = sorted(groups)
    for combo in itertools.product(*(itertools.permutations(groups[k]) for k in keys)):
        perm = {}
        for k, images in zip(keys, combo):
            for src, dst in zip(groups[k], images):
                if src != dst:
                    perm[src] = dst
        yield perm


def reference_dedup_key(g, permute_equal_sizes=True):
    """The dedup key as it was: three texts and one flipped graph per relabeling."""
    if not permute_equal_sizes:
        return reference_canonical_text(reference_normal_form(g), False)
    return min(
        reference_canonical_text(reference_normal_form(permute_exceptionals(g, perm)), False)
        for perm in reference_permutation_group(g)
    )


def reference_walk(g, down):
    """The key writer's first pass as it was: the chains of ``g`` (up) or of
    ``flip(g)`` (down) as (near, far, label, class) steps, and a moment-text
    dict of every vertex."""
    vs, texts = g.vertices, g.omega._moment_texts
    by_vid, above, below = graph_index(g)
    if down:
        start, end, onward = vs[-1].vid, vs[0].vid, below
        top = vs[-1].height
        moment_text = {vid: texts[top - v.height] for vid, v in by_vid.items()}
    else:
        start, end, onward = vs[0].vid, vs[-1].vid, above
        moment_text = {vid: texts[v.height] for vid, v in by_vid.items()}
    chains = []
    for e in onward.get(start, ()):
        chain = []
        while True:
            near, far = (e.top, e.bottom) if down else (e.bottom, e.top)
            chain.append((near, far, e.label, e.cls))
            if far == end:
                break
            nxt = onward.get(far, ())
            if len(nxt) != 1:
                raise GraphError("cannot serialize: broken chain structure")
            e = nxt[0]
        chains.append(chain)
    if sum(len(c) for c in chains) != len(g.edges):
        raise GraphError("cannot serialize: edges outside min-to-max chains")
    return start, end, chains, moment_text


def reference_lines(g, walk, relabel=None):
    """The key writer's second and third passes as they were: per-chain
    (near text, far text, label, coefficients) records to sort on, then the
    vertices numbered, then the lines, each a list entry."""
    start, end, chains, moment_text = walk
    fiber, by_vid = g.fiber, graph_index(g)[0]
    if relabel is not None:
        chains = [[(a, b, n, relabel[c]) for a, b, n, c in chain] for chain in chains]
        fiber = relabel[fiber]

    def record(chain):
        try:
            return [
                (moment_text[near], moment_text[far], label, c.coeffs)
                for near, far, label, c in chain
            ]
        except KeyError as exc:
            raise GraphError(f"no vertex {exc.args[0]!r}") from None

    chains = sorted(chains, key=record)
    index = {start: 0, end: 1}
    order = [start, end]
    for chain in chains:
        for _, far, _, _ in chain[:-1]:
            if far not in index:
                index[far] = len(order)
                order.append(far)
    omega = g.omega
    lines = [f"MODEL {g.model}", f"OMEGA {omega}"]
    for i, vid in enumerate(order):
        fat = by_vid[vid].fat
        if relabel is not None and fat is not None:
            fat = relabel[fat]
        lines.append(f"V {i} {moment_text[vid]} {_fixed_record(fat, omega)}")
    for chain in chains:
        lines.append("C")
        for near, far, label, c in chain:
            lines.append(f"E {index[near]} {index[far]} {label} {c}")
    lines.append(f"FIBER {fiber}")
    return lines


def reference_normal_lines(g, relabelings):
    """The reduced form, orientation and lines of the smallest key, written
    by the three-pass writer for every (relabeling, orientation) pair whose
    extremum records are the smallest."""
    h = translate(strip_redundant(break_free_edges(g)))
    omega, ends = h.omega, (h.vertices[0].fat, h.vertices[-1].fat)
    heads, pairs = [], []
    for relabel in relabelings:
        low, high = ends if relabel is None else (None if c is None else relabel[c] for c in ends)
        a, b = _fixed_record(low, omega), _fixed_record(high, omega)
        heads += [(a, b), (b, a)]
        pairs += [(False, relabel), (True, relabel)]
    first = min(heads)
    walks = {}
    best = None
    for head, (down, relabel) in zip(heads, pairs):
        if head == first:
            if down not in walks:
                walks[down] = reference_walk(h, down)
            lines = reference_lines(h, walks[down], relabel)
            if best is None or lines < best[1]:
                best = down, lines
    return h, *best


def reference_written_text(g, down=False, relabel=None):
    """The ledger-free text of ``g`` (up) or of its flip (down), written by
    the three-pass writer."""
    return "\n".join(reference_lines(g, reference_walk(g, down), relabel)) + "\n"


def reference_normal_key(g, relabelings=(None,)):
    return "\n".join(reference_normal_lines(g, relabelings)[2]) + "\n"


def reference_writer_dedup_key(g, permute_equal_sizes=True):
    """``dedup_key`` on the three-pass writer, with the kernel's relabelings."""
    if not permute_equal_sizes:
        return reference_normal_key(g)
    return reference_normal_key(g, _permutation_group(g))


def reference_apply_blowup(g, vertex, delta):
    """The blowup as it was: embed every class of the parent, then build."""
    delta = F(delta)
    v = g.vertex(vertex)
    site = _site_for_vertex(g, v)
    if site is None:
        raise BlowupError(f"no blowup site at vertex {vertex}")
    bound = F(site.bound, g.omega.denominator)
    if not 0 < delta < bound:
        raise BlowupError(
            f"size {delta} not strictly below the bound {bound}"
            f" at {site.kind}@{site.vertex}"
        )

    e_idx = g.model.k + 1
    model = g.model.extend()
    omega = g.omega.extend(delta)
    emb = lambda c: model.intern(c.coeffs + (0,))
    Ee = model.exceptional(e_idx)
    step = len(g.ledger) + 1
    at = lambda vid, value, fat=None: vertex_at(omega, vid, value, fat)
    vertices = [
        at(w.vid, moment(g, w), w.fat and emb(w.fat))
        for w in g.vertices
    ]
    mv = moment(g, v)
    edges = [Edge(e.bottom, e.top, e.label, emb(e.cls)) for e in g.edges]
    fiber = emb(g.fiber)
    vmin, vmax = g.vertices[0].vid, g.vertices[-1].vid

    def drop_vertex(vid):
        nonlocal vertices, edges
        vertices = [w for w in vertices if w.vid != vid]
        edges = [e for e in edges if vid not in (e.bottom, e.top)]

    if site.kind == INTERIOR:
        up = reference_edges_above(g, v.vid)[0]
        down = reference_edges_below(g, v.vid)[0]
        m, n = up.label, down.label
        hi = at(f"{step}.hi", mv + m * delta)
        lo = at(f"{step}.lo", mv - n * delta)
        drop_vertex(v.vid)
        vertices += [hi, lo]
        edges += [
            Edge(hi.vid, up.top, m, emb(up.cls) - Ee),
            Edge(lo.vid, hi.vid, m + n, Ee),
            Edge(down.bottom, lo.vid, n, emb(down.cls) - Ee),
        ]
        entry = LedgerEntry(INTERIOR, str(int(v.vid.split(".")[0])))
    elif site.kind == SURFACE:
        at_min = site.end == "min"
        fat = v.fat
        vertices = [w for w in vertices if w.vid != v.vid]
        vertices.append(
            at(v.vid, mv, emb(fat) - Ee)
        )
        mid = at(f"{step}.c", mv + delta if at_min else mv - delta)
        vertices.append(mid)
        opposite = vmax if at_min else vmin
        if at_min:
            edges += [Edge(v.vid, mid.vid, 1, Ee), Edge(mid.vid, opposite, 1, fiber - Ee)]
        else:
            edges += [Edge(mid.vid, v.vid, 1, Ee), Edge(opposite, mid.vid, 1, fiber - Ee)]
        for e in sorted(edges, key=lambda e: e.cls.coeffs):
            if e.label == 1 and e.bottom == vmin and e.top == vmax:
                edges.remove(e)
                break
        entry = LedgerEntry(SURFACE, site.end)
    else:
        assert site.kind == EXTREMUM
        at_min = site.end == "min"
        incident = reference_edges_above(g, v.vid) if at_min else reference_edges_below(g, v.vid)
        ea, eb = sorted(incident, key=lambda e: -e.label)
        m, n = ea.label, eb.label
        away = (lambda e: e.top) if at_min else (lambda e: e.bottom)
        sgn = 1 if at_min else -1
        drop_vertex(v.vid)
        if m == n:
            fatv = at(f"{step}.s", mv + sgn * delta, Ee)
            vertices.append(fatv)
            for e in (ea, eb):
                new_cls = emb(e.cls) - Ee
                if at_min:
                    edges.append(Edge(fatv.vid, away(e), 1, new_cls))
                else:
                    edges.append(Edge(away(e), fatv.vid, 1, new_cls))
        else:
            hi = at(f"{step}.hi", mv + sgn * m * delta)
            lo = at(f"{step}.lo", mv + sgn * n * delta)
            vertices += [hi, lo]
            if at_min:
                edges += [
                    Edge(hi.vid, away(ea), m, emb(ea.cls) - Ee),
                    Edge(lo.vid, hi.vid, m - n, Ee),
                    Edge(lo.vid, away(eb), n, emb(eb.cls) - Ee),
                ]
            else:
                edges += [
                    Edge(away(ea), hi.vid, m, emb(ea.cls) - Ee),
                    Edge(hi.vid, lo.vid, m - n, Ee),
                    Edge(away(eb), lo.vid, n, emb(eb.cls) - Ee),
                ]
        fiber = fiber - n * Ee
        entry = LedgerEntry(EXTREMUM, site.end)

    out = DecoratedGraph.build(omega, vertices, edges, g.ledger + (entry,), fiber)
    problems = validate(out)
    if problems:
        raise BlowupError(f"blowup produced an invalid graph: {problems}")
    return out


class _Row:
    """An inequality coeffs . a >= const with equality-multiplier provenance."""

    __slots__ = ("coeffs", "const", "prov")

    def __init__(self, coeffs, const, prov):
        self.coeffs = coeffs
        self.const = const
        self.prov = prov

    def combine(self, other, s_self, s_other):
        return _Row(
            tuple(s_self * a + s_other * b for a, b in zip(self.coeffs, other.coeffs)),
            s_self * self.const + s_other * other.const,
            tuple(s_self * a + s_other * b for a, b in zip(self.prov, other.prov)),
        )


def reference_cone_membership(d, gens):
    """``cone_membership`` with every row held in ``Fraction``s."""
    if d.model is not gens.model:
        raise LatticeError("target and generators live on different models")
    n = len(gens.generators)
    m = d.model.rank
    zero_prov = (F(0),) * m

    rows = []
    for i in range(n):
        coeffs = tuple(F(1 if j == i else 0) for j in range(n))
        rows.append(_Row(coeffs, F(0), zero_prov))
    for j in range(m):
        coeffs = tuple(F(gcls.coeffs[j]) for gcls in gens.generators)
        const = F(d.coeffs[j])
        prov = tuple(F(1 if t == j else 0) for t in range(m))
        rows.append(_Row(coeffs, const, prov))
        rows.append(_Row(tuple(-c for c in coeffs), -const, tuple(-p for p in prov)))

    def prune(candidates):
        # scale-normalize and keep only the tightest constant per direction
        best = {}
        for r in candidates:
            lead = next((c for c in r.coeffs if c != 0), None)
            if lead is None:
                if r.const > 0:
                    return [r]  # contradiction: report it alone
                continue  # tautology
            scale = 1 / abs(lead)
            key = tuple(c * scale for c in r.coeffs)
            kept = best.get(key)
            if kept is None or r.const * scale > kept.const / abs(
                next(c for c in kept.coeffs if c != 0)
            ):
                best[key] = r
        return list(best.values())

    stages = []
    remaining = set(range(n))
    while remaining:
        t = min(
            remaining,
            key=lambda v: sum(r.coeffs[v] > 0 for r in rows) * sum(r.coeffs[v] < 0 for r in rows),
        )
        remaining.discard(t)
        pos = [r for r in rows if r.coeffs[t] > 0]
        neg = [r for r in rows if r.coeffs[t] < 0]
        zero = [r for r in rows if r.coeffs[t] == 0]
        stages.append((t, pos, neg))
        combined = [p.combine(q, 1 / p.coeffs[t], -1 / q.coeffs[t]) for p in pos for q in neg]
        rows = prune(zero + combined)

    for r in rows:
        if r.const > 0:
            sep = ConeSeparation(tuple(-p for p in r.prov))
            if not sep.apply(d) < 0:
                raise LatticeError("separating functional is not negative on the target")
            if any(sep.apply(gcls) < 0 for gcls in gens.generators):
                raise LatticeError("separating functional is negative on a generator")
            return sep

    values = [F(0)] * n
    for t, pos, neg in reversed(stages):

        def residual(r):
            rest = sum((r.coeffs[s] * values[s] for s in range(n) if s != t), F(0))
            return (r.const - rest) / r.coeffs[t]

        lowers = [residual(r) for r in pos]
        uppers = [residual(r) for r in neg]
        lo = max(lowers) if lowers else F(0)
        if uppers and min(uppers) < lo:
            raise LatticeError("elimination bookkeeping broke; no value fits")
        values[t] = lo
    if any(a < 0 for a in values):
        raise LatticeError("negative witness coefficient")
    for j in range(m):
        total = sum((a * gcls.coeffs[j] for a, gcls in zip(values, gens.generators)), F(0))
        if total != d.coeffs[j]:
            raise LatticeError("witness does not reproduce the target class")
    return ConeWitness(tuple(values))


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

    Heights come from a small set, so equal extrema are common.  Ids are
    unique here; ``test_validate_matches_the_scans_with_duplicate_ids`` adds
    a twin.
    """
    model = draw(models(max_k=3))
    omega = draw(vectors(model))
    cls = classes(model, bound=3)
    vids = draw(
        st.lists(st.sampled_from("abcdefgh"), min_size=1, max_size=8, unique=True)
    )
    heights = st.integers(-6, 6)
    vertices = []
    for vid in vids:
        fat = None
        if draw(st.booleans()):
            fat = draw(cls)
        vertices.append(Vertex(vid, draw(heights), fat))
    ends = st.sampled_from(vids + ["x", "y"])
    edges = [
        Edge(draw(ends), draw(ends), draw(st.integers(1, 4)), draw(cls))
        for _ in range(draw(st.integers(0, 10)))
    ]
    return DecoratedGraph.build(omega, vertices, edges, (), draw(cls))


BASES = tuple(
    hirzebruch_base_graphs(1, F(1, 2), DEFAULT_REPS)
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
        bound = F(site.bound, g.omega.denominator)
        fitting = [d for d in sizes if d < bound]
        if fitting and draw(st.booleans()):
            delta = draw(st.sampled_from(fitting))
        else:
            den = draw(st.integers(2, 7))
            delta = bound * F(draw(st.integers(1, den - 1)), den)
        try:
            g = generic_form(apply_blowup(g, site.vertex, delta))
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
    got = twice_adjunction_genus(c)
    assert type(got) is int
    assert F(got, 2) == reference_adjunction_genus(c)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_extended_vector_is_shared_and_pairs_exactly(data):
    model = data.draw(models(max_k=6))
    omega = data.draw(vectors(model))
    delta = data.draw(fractions)
    ext = omega.extend(delta)
    assert omega.extend(delta) is ext
    assert ext.model is model.extend()
    assert (ext.model.kind, ext.model.k, ext.model.genus) == (model.kind, model.k + 1, model.genus)
    assert ext == CohomologyVector(ext.model, omega.entries + (delta,))
    c = data.draw(classes(ext.model))
    assert pair(ext, c) == reference_pair(ext, c)


def test_pair_rejects_a_foreign_model():
    omega = CohomologyVector.rational(1, [F(1, 2)])
    assert pair(omega, omega.model.parse("L")) == 1
    other = SurfaceModel(RATIONAL, 1).parse("L")  # equal shape, another lattice
    with pytest.raises(LatticeError, match="model mismatch"):
        pair(omega, other)
    with pytest.raises(LatticeError):
        pair(omega, SurfaceModel(RATIONAL, 2).parse("L"))


def test_basis_names_are_stable():
    m = SurfaceModel(RULED, 3, 2)
    assert m.basis_names == ("B", "F", "E1", "E2", "E3")
    assert str(m.parse("2B-F+E3")) == "2B-F+E3"
    assert m.basis_names is m.basis_names


# ---------------------------------------------------------------------------
# graphs


def reference_site(g, v):
    """(kind, bound) of the site at ``v`` from scans and Fraction pairings, or
    None.  The bound is the least area of the site's classes: a surface's own,
    capped by the moment span; an extremum's two edges; an interior vertex's
    edges above and below."""
    lo, hi = reference_min_vertex(g), reference_max_vertex(g)
    above, below = reference_edges_above(g, v.vid), reference_edges_below(g, v.vid)
    if v.fat is not None:
        return SURFACE, min(reference_pair(g.omega, v.fat), moment(g, hi) - moment(g, lo))
    if v.vid in (lo.vid, hi.vid):
        edges = above if v.vid == lo.vid else below
        if len(edges) != 2:
            return None
        return EXTREMUM, min(reference_pair(g.omega, e.cls) for e in edges)
    if len(above) != 1 or len(below) != 1:
        return None
    return INTERIOR, min(reference_pair(g.omega, e.cls) for e in above + below)


def assert_index_matches_scans(g):
    assert g.vertices[0] is reference_min_vertex(g)
    assert g.vertices[-1] is reference_max_vertex(g)
    # Every site's integer bound against the Fraction reference.
    for v in g.vertices:
        site = _site_for_vertex(g, v)
        expected = reference_site(g, v)
        if expected is None:
            assert site is None
        else:
            assert (site.kind, F(site.bound, g.omega.denominator)) == expected
            assert type(site.bound) is int
    # ``break_free_edges`` rewires a label-1 edge between interior vertices.
    interior = {v.vid for v in reference_interior_vertices(g)}
    free = any(e.label == 1 and {e.bottom, e.top} <= interior for e in g.edges)
    if not free:
        assert break_free_edges(g) is g
    elif validate(g) == []:  # chains climb to an end, so the walks stop
        assert break_free_edges(g) is not g
    vids = {v.vid for v in g.vertices} | {e.bottom for e in g.edges} | {e.top for e in g.edges}
    _, above, below = graph_index(g)
    for vid in sorted(vids | {"missing"}):
        assert list(above.get(vid, ())) == reference_edges_above(g, vid)
        assert list(below.get(vid, ())) == reference_edges_below(g, vid)
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
        assert pair(g.omega, e.cls) == reference_pair(g.omega, e.cls)
    assert validate(g) == reference_validate(g)


@settings(max_examples=200, deadline=None)
@given(graphs(), st.data())
def test_validate_matches_the_scans_with_duplicate_ids(g, data):
    twin = data.draw(st.sampled_from(g.vertices))
    height = data.draw(st.sampled_from([twin.height, twin.height + 1]))
    h = DecoratedGraph.build(g.omega, g.vertices + (Vertex(twin.vid, height),), g.edges, (), g.fiber
    )
    assert validate(h) == reference_validate(h)
    assert h.vertex(twin.vid) is reference_vertex(h, twin.vid)


def labelled_star(labels):
    """An isolated minimum "a" with one edge of each label up to its own
    vertex; only the labels at "a" matter here."""
    omega = CohomologyVector.rational(1, [F(1, 2)])
    L = omega.model.parse("L")
    tops = [Vertex(f"t{i}", 2 + i) for i in range(len(labels))]
    edges = [Edge("a", v.vid, label, L) for v, label in zip(tops, labels)]
    return DecoratedGraph.build(omega, [Vertex("a", 0)] + tops, edges, (), L)


@pytest.mark.parametrize(
    "labels, pairs",
    [
        # gcd(6, 10, 15) is 1, yet no two are coprime: three messages.
        ((6, 10, 15), 3),
        ((6, 35), 0),
        ((2, 3, 5, 7), 0),
        ((4, 6, 9), 2),
        ((0, 5), 1),
        ((0, 1), 0),
        ((0, 0), 1),
        ((-2, 3), 0),
        ((-2, -4), 1),
        ((1, 1, 2), 0),
        ((0, 3, 5), 2),
        ((0, 1, 1), 0),
        ((-2, 3, 5), 0),
        ((-2, -3, 5), 0),
        ((-2, -4, 3), 1),
        ((3,), 0),
    ],
)
def test_validate_tries_the_label_pairs_where_they_are_not_coprime(labels, pairs):
    """Two labels take one gcd and more take the pairwise loop; the problem
    list is the scan's, message for message and in order."""
    g = labelled_star(labels)
    problems = validate(g)
    assert problems == reference_validate(g)
    assert problems.count("vertex a carries non-coprime edge labels") == pairs


def test_vertex_lookup_returns_the_first_of_a_duplicated_id():
    omega = CohomologyVector.rational(1, [F(1, 2)])
    vs = [Vertex("a", 0), Vertex("b", 1), Vertex("b", 2)]  # heights over 2
    g = DecoratedGraph.build(omega, vs, [], (), omega.model.parse("L"))
    assert g.vertex("b") is reference_vertex(g, "b") and moment(g, g.vertex("b")) == F(1, 2)


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
                assert pair(h.omega, e.cls) == reference_pair(h.omega, e.cls)
                assert twice_adjunction_genus(e.cls) == 2 * reference_adjunction_genus(e.cls) == 0
            for v in h.vertices:
                if v.fat is not None:
                    assert pair(h.omega, v.fat) == reference_pair(h.omega, v.fat)
                    genus = reference_adjunction_genus(v.fat)
                    assert twice_adjunction_genus(v.fat) == 2 * genus


def test_validate_on_an_indexed_graph_reports_broken_rules():
    g = base_hirzebruch(plane(), BaseFamilyParams("two_surfaces", 1))
    P = g.model.parse
    first, second = g.edges
    # same area as L-E1 (1/2), so only the genus rule breaks on this edge
    non_sphere = P("3L-5E1")
    assert pair(g.omega, non_sphere) == pair(g.omega, first.cls)
    assert twice_adjunction_genus(non_sphere) != 0
    edges = [
        Edge(first.bottom, first.top, 3, first.cls),
        Edge(second.bottom, second.top, 1, non_sphere),
    ]
    bad = DecoratedGraph.build(g.omega, g.vertices, edges, (), g.fiber)
    assert graph_index(bad)[1][bad.vertices[0].vid] and bad.vertex(first.top)  # indexed
    assert validate(bad) == [
        "edge L-E1(3) breaks the area rule (gap != label * area)",
        "edge L-E1(3) touches a fixed surface with label > 1",
        "edge 3L-5E1(1) class is not an embedded-sphere class",
    ]


# ---------------------------------------------------------------------------
# canonical records and dedup keys


def walked_text(g, down):
    """The ledger-free text of ``g`` (up) or of its flip (down), walked and
    written by the kernel's two parts."""
    return "\n".join(_lines(g, _walk(g, down))) + "\n"


def full_texts(g):
    """The reduced form h of ``g`` and both its ledger-free texts, in full."""
    h = translate(strip_redundant(break_free_edges(g)))
    return h, walked_text(h, False), walked_text(h, True)


def assert_keys_match_references(g):
    h, up, down = full_texts(g)
    assert normal_key(g) == min(up, down)
    assert up == reference_canonical_text(h, False)
    assert canonical_text(h) == up + reference_ledger_record(h) + "\n"
    f = flip(h)
    assert down == walked_text(f, False)
    assert down == reference_canonical_text(flip(h), False)
    assert canonical_text(g) == reference_canonical_text(g)
    nf = normal_form(g)
    assert nf == reference_normal_form(g)
    assert canonical_text(nf) == reference_canonical_text(nf)
    for permute in (True, False):
        assert dedup_key(g, permute) == reference_dedup_key(g, permute)


def assert_writer_matches_the_reference(g):
    """The one-walk key writer against the three-pass one on ``g``: both
    orientations' texts under every relabeling of ``g``, the canonical
    text, the reduced form, orientation and lines of the normal key on the
    identity alone and on the general path (two identity relabelings), and
    both dedup keys."""
    for down in (False, True):
        for table in _permutation_group(g):
            kernel = "\n".join(_lines(g, _walk(g, down), table)) + "\n"
            assert kernel == reference_written_text(g, down, table)
    assert canonical_text(g) == reference_written_text(g) + reference_ledger_record(g) + "\n"
    for relabelings in ((None,), (None, None)):
        h, down, lines = _normal_lines(g, relabelings)
        expected_h, expected_down, expected = reference_normal_lines(g, relabelings)
        assert (h, down, "\n".join(lines)) == (expected_h, expected_down, "\n".join(expected))
        assert normal_key(g, relabelings) == reference_normal_key(g, relabelings)
    for permute in (True, False):
        assert dedup_key(g, permute) == reference_writer_dedup_key(g, permute)


@pytest.fixture(scope="module")
def golden_levels():
    """(sizes, levels) of each golden scenario, levels from one pass."""
    out = []
    for name in ("cp2-six", "cp2-six-alt", "ruled-three", "ruled-general-4"):
        spec = load_scenario(name).enumeration_spec()
        out.append((spec.sizes, list(enumerate_levels(spec))))
    return out


@pytest.fixture(scope="module")
def deep_levels():
    """(sizes, levels) of the deep scenario, levels from one pass."""
    spec = load_scenario(str(DEEP_SCENARIO)).enumeration_spec()
    return spec.sizes, list(enumerate_levels(spec))


@pytest.fixture(scope="module")
def golden_level_graphs(golden_levels):
    return [g for _, levels in golden_levels for level in levels for g in level.graphs]


def test_keys_match_the_references_on_golden_levels(golden_level_graphs):
    assert len(golden_level_graphs) == 558
    for g in golden_level_graphs:
        assert_keys_match_references(g)


def test_the_writer_matches_the_three_pass_writer_on_golden_levels(golden_level_graphs):
    """Every golden level graph, with every relabeling of its level: those
    of cp2-six's equal sizes among them."""
    relabeled = 0
    for g in golden_level_graphs:
        assert_writer_matches_the_reference(g)
        relabeled += len(_permutation_group(g)) > 1
    assert relabeled > 0


def test_the_writer_reads_an_untranslated_graphs_moments_from_its_heights(golden_level_graphs):
    """A graph whose minimum is not at 0: its V 0 and V 1 records carry the
    extrema's own moments, not 0 and the span."""
    for g in golden_level_graphs[::7]:
        for by in (-3, 5):
            r = raised(g, by)
            assert_writer_matches_the_reference(r)
            v0, v1 = canonical_text(r).split("\n")[2:4]
            assert v0.split()[:3] == ["V", "0", rat_str(moment(r, r.vertices[0]))]
            assert v1.split()[:3] == ["V", "1", rat_str(moment(r, r.vertices[-1]))]


def tied_graphs():
    """Graphs whose two extremum records tie: the ruled base with equal end
    surfaces, and the isolated plane bases with their interior blowups."""
    out = [base_ruled(CohomologyVector.ruled(1, 3, [], 1), 0)]
    for base in hirzebruch_base_graphs(1, F(1, 2), DEFAULT_REPS):
        if base.vertices[0].fat is None and base.vertices[-1].fat is None:
            out.append(base)
            for site in blowup_sites(base, F(1, 20)):
                if site.kind == INTERIOR:
                    out.append(generic_form(apply_blowup(base, site.vertex, F(1, 20))))
    return out


def test_the_writer_writes_both_orientations_only_where_the_extremum_records_tie(monkeypatch):
    walked = []

    def counted(g, down):
        walked.append(down)
        return _walk(g, down)

    monkeypatch.setattr(graphs_module, "_walk", counted)
    tied = tied_graphs()
    assert len(tied) > 4
    for g in tied:
        h = translate(strip_redundant(break_free_edges(g)))
        assert _fixed_record(h.vertices[0].fat, h.omega) == _fixed_record(h.vertices[-1].fat, h.omega)
        walked.clear()
        normal_key(g)
        assert sorted(walked) == [False, True]
        assert_writer_matches_the_reference(g)
    untied = base_ruled(CohomologyVector.ruled(1, 3, [], 1), 1)  # ends B-F and B+F
    walked.clear()
    normal_key(untied)
    assert len(walked) == 1
    assert_writer_matches_the_reference(untied)


def test_site_bounds_match_the_reference_on_golden_and_deep_levels(golden_levels, deep_levels):
    """Every vertex of every level of the golden scenarios and the deep one:
    the integer bounds of all three site kinds against the Fraction ones."""
    kinds = Counter()
    for _, levels in golden_levels + [deep_levels]:
        for level in levels:
            for g in level.graphs:
                for v in g.vertices:
                    site, expected = _site_for_vertex(g, v), reference_site(g, v)
                    bound = None if site is None else F(site.bound, g.omega.denominator)
                    assert (None if site is None else (site.kind, bound)) == expected
                    kinds[None if site is None else site.kind] += 1
    assert {SURFACE, EXTREMUM, INTERIOR} <= set(kinds)


def test_the_integer_bound_comparisons_hold_at_the_bound(golden_level_graphs):
    """Every site of every golden level, its bound b from the Fraction
    reference: b less half a step of 1/D is offered and applies, and b
    itself is neither offered nor applied, with the same error text."""
    kinds = Counter()
    for g in golden_level_graphs:
        for v in g.vertices:
            expected = reference_site(g, v)
            if expected is None:
                continue
            kind, bound = expected
            below = bound - F(1, 2 * g.omega.denominator)
            assert v.vid in [site.vertex for site in blowup_sites(g, below)]
            child = apply_blowup(g, v.vid, below)
            assert reference_pair(child.omega, child.model.exceptional(child.model.k)) == below
            assert v.vid not in [site.vertex for site in blowup_sites(g, bound)]
            with pytest.raises(BlowupError) as refused:
                apply_blowup(g, v.vid, bound)
            assert str(refused.value) == (
                f"size {bound} not strictly below the bound {bound} at {kind}@{v.vid}"
            )
            kinds[kind] += 1
        _drop_caches(g)
    assert set(kinds) == {SURFACE, EXTREMUM, INTERIOR} and sum(kinds.values()) == 3564


def test_normal_key_is_the_smaller_full_text_under_every_relabeling(golden_level_graphs):
    """Both branches of the key: start records that differ, and ties."""
    decided = tied = 0
    for g in golden_level_graphs:
        for perm in reference_permutation_group(g):
            p = permute_exceptionals(g, perm)
            _, up, down = full_texts(p)
            assert normal_key(p) == min(up, down)
            if up.split("\n")[2] == down.split("\n")[2]:
                tied += 1
            else:
                decided += 1
    assert decided > 0 and tied > 0


@pytest.fixture(scope="module")
def relabeled_level_graphs(golden_level_graphs):
    """The golden level graphs and ruled-equal's, whose relabelings act on a
    ruled model."""
    spec = load_scenario(str(GOLDEN / "ruled-equal.scenario")).enumeration_spec()
    return golden_level_graphs + [g for level in enumerate_levels(spec) for g in level.graphs]


def test_a_relabeled_graph_has_the_dedup_key_of_its_graph(relabeled_level_graphs):
    """``permute_exceptionals`` builds the relabeled graph that the key never
    builds; the relabelings form a group, so both keys are one minimum."""
    relabeled = 0
    for g in relabeled_level_graphs:
        key = dedup_key(g)
        for perm in reference_permutation_group(g):
            assert dedup_key(permute_exceptionals(g, perm)) == key
            relabeled += bool(perm)
        assert dedup_key(g, False) == normal_key(g)
    assert relabeled > 100
    assert any(g.model.kind == RULED and len(_permutation_group(g)) > 1
               for g in relabeled_level_graphs)


def index_state(h):
    """Everything of a graph a rewrite could alter, its index included."""
    by_vid, above, below = graph_index(h)
    return (
        h.model, h.omega, h.vertices, h.edges, h.ledger, h.fiber,
        dict(by_vid), dict(above), dict(below), canonical_text(h),
    )


def assert_valid_extension(x):
    """An extension is its parent with one more class, which no step made:
    a valid graph with no ledger."""
    assert x.ledger == ()
    assert validate(x) == []


def assert_blowups_match_the_reference(g, delta):
    """Every child of ``g`` at ``delta`` against the reference; the parent and
    its shared extension are unchanged afterwards."""
    x = g.extend(delta)
    assert g.extend(delta) is x
    assert_valid_extension(x)
    assert x.model is g.model.extend() and x.omega is g.omega.extend(delta)
    before = index_state(g), index_state(x)
    sites = blowup_sites(g, delta)
    for site in sites:
        child = apply_blowup(g, site.vertex, delta)
        expected = reference_apply_blowup(g, site.vertex, delta)
        assert child == expected
        assert child.vertices == expected.vertices and child.edges == expected.edges
        shared = {id(e) for e in x.edges}
        for e in child.edges:  # kept edges are the extension's own objects
            assert id(e) in shared or e not in x.edges
    assert (index_state(g), index_state(x)) == before
    return len(sites)


def test_blowups_match_the_reference_on_golden_levels(golden_levels):
    """Every site of every graph of every level, at the next size; the final
    level at half the last size."""
    children = 0
    for sizes, levels in golden_levels:
        for depth, level in enumerate(levels):
            delta = sizes[depth] if depth < len(sizes) else sizes[-1] / 2
            for g in level.graphs:
                children += assert_blowups_match_the_reference(g, delta)
    assert children > 600


def test_blowing_up_commutes_with_flipping_on_golden_levels(golden_levels):
    """A blowup at a vertex of ``g`` and at the same vertex of ``flip(g)``
    are one action up to flip: every rewrite, mirrored, agrees with itself.
    The sites of the golden levels take every rewrite at both ends."""
    rewrites = Counter()
    for sizes, levels in golden_levels:
        for depth, level in enumerate(levels):
            delta = sizes[depth] if depth < len(sizes) else sizes[-1] / 2
            for g in level.graphs:
                flipped = flip(g)
                for site in blowup_sites(g, delta):
                    child = apply_blowup(g, site.vertex, delta)
                    mirror = apply_blowup(flipped, site.vertex, delta)
                    assert dedup_key(generic_form(child)) == dedup_key(generic_form(mirror))
                    spawned = f"{len(child.ledger)}.s"
                    makes_surface = any(v.vid == spawned for v in child.vertices)
                    rewrites[site.kind, site.end, makes_surface] += 1
    assert rewrites == {
        (INTERIOR, "", False): 2044,
        (SURFACE, "min", False): 486,
        (SURFACE, "max", False): 467,
        (EXTREMUM, "min", True): 4,
        (EXTREMUM, "max", True): 4,
        (EXTREMUM, "min", False): 14,
        (EXTREMUM, "max", False): 20,
    }


def test_surface_blowup_supplants_the_free_sphere_of_least_class():
    """Two free max-to-min spheres of distinct classes, L-E1 and L-E2: the
    spawned chain replaces L-E1, the first in build order."""
    omega = CohomologyVector.rational(1, [F(1, 2), F(1, 2)])
    P = omega.model.parse
    vertices = [
        Vertex("0.min", 0, P("L")),
        Vertex("0.max", 1, P("E1")),  # heights over 2
    ]
    edges = [Edge("0.min", "0.max", 1, P("L-E2")), Edge("0.min", "0.max", 1, P("L-E1"))]
    g = DecoratedGraph.build(omega, vertices, edges, (), P("L-E1"))
    assert validate(g) == []
    assert assert_blowups_match_the_reference(g, F(1, 4)) == 2
    site = next(s for s in blowup_sites(g, F(1, 4)) if s.end == "min")
    child = apply_blowup(g, site.vertex, F(1, 4))
    free = [e for e in child.edges if (e.bottom, e.top) == ("0.min", "0.max")]
    assert [str(e.cls) for e in free] == ["L-E2"]


@settings(max_examples=150, deadline=None)
@given(admissible_chains(), st.data())
def test_blowups_match_the_reference_on_random_chains(g, data):
    sites = blowup_sites(g, F(1, 10**9))
    if not sites:
        return
    site = data.draw(st.sampled_from(sites))
    den = data.draw(st.integers(2, 7))
    delta = F(site.bound, g.omega.denominator) * F(data.draw(st.integers(1, den - 1)), den)
    x = g.extend(delta)
    before = index_state(g), index_state(x)

    def outcome(blowup):
        try:
            return blowup(g, site.vertex, delta)
        except BlowupError as exc:
            return str(exc)

    child, expected = outcome(apply_blowup), outcome(reference_apply_blowup)
    assert child == expected
    if isinstance(child, DecoratedGraph):
        assert child.vertices == expected.vertices and child.edges == expected.edges
    assert g.extend(delta) is x
    assert_valid_extension(x)
    assert (index_state(g), index_state(x)) == before


@settings(max_examples=150, deadline=None)
@given(admissible_chains())
def test_keys_match_the_references_on_random_chains(g):
    assert validate(g) == []
    assert_keys_match_references(g)
    assert_writer_matches_the_reference(g)


def walks_end(g) -> bool:
    """Whether each walk up from the minimum stops, at the maximum or at a
    vertex without exactly one edge above, before it comes round again."""
    above, end = graph_index(g)[1], g.vertices[-1].vid
    for e in above.get(g.vertices[0].vid, ()):
        seen = set()
        while e.top != end:
            if e.top in seen:
                return False
            seen.add(e.top)
            nxt = above.get(e.top, ())
            if len(nxt) != 1:
                break
            (e,) = nxt
    return True


@settings(max_examples=300, deadline=None)
@given(graphs())
def test_the_writer_matches_the_three_pass_writer_on_random_graphs(g):
    """Mostly invalid graphs: both writers refuse the graph, or both write
    the same text.  The three-pass walk never ends on a cycle that the
    minimum reaches, so such a graph is only refused."""

    def written(write):
        try:
            return write(g)
        except GraphError:
            return GraphError

    kernel = written(canonical_text)
    if not walks_end(g):
        assert kernel is GraphError
        return
    expected = written(lambda g: reference_written_text(g) + reference_ledger_record(g) + "\n")
    assert kernel == expected


def chain_round_a_cycle() -> DecoratedGraph:
    """min -> a, then a -> b -> a: a chain from the minimum that never ends."""
    omega = CohomologyVector.rational(1, [])
    L = omega.model.unit("L")
    vertices = [Vertex("min", 0), Vertex("a", 1), Vertex("b", 1), Vertex("max", 2)]
    edges = [Edge("min", "a", 1, L), Edge("a", "b", 1, L), Edge("b", "a", 1, L)]
    return DecoratedGraph.build(omega, vertices, edges, (), L)


def test_the_writer_refuses_a_chain_round_a_cycle():
    with pytest.raises(GraphError, match="broken chain structure"):
        canonical_text(chain_round_a_cycle())


@pytest.mark.parametrize(
    "reduce", [break_free_edges, generic_form, normal_form, normal_key, dedup_key]
)
def test_the_reductions_refuse_a_chain_round_a_cycle(reduce):
    """Breaking the free sphere a -> b sums the chain beyond it, which runs
    round the cycle: each reduction raises, and an alarm fails a loop that
    never returns instead of hanging the run."""

    def hung(signum, frame):
        raise AssertionError(f"{reduce.__name__} has not returned after 5 s")

    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(5)
    try:
        with pytest.raises(GraphError, match="runs round a cycle"):
            reduce(chain_round_a_cycle())
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@settings(max_examples=100, deadline=None)
@given(admissible_chains(), st.data())
def test_dedup_key_is_invariant_under_flip_and_translation(g, data):
    key = dedup_key(g)
    assert dedup_key(flip(g)) == key
    assert dedup_key(raised(g, data.draw(st.integers(-20, 20)))) == key


@settings(max_examples=100, deadline=None)
@given(admissible_chains())
def test_parse_inverts_canonical_text(g):
    text = canonical_text(g)
    assert canonical_text(parse_graph(text)) == text


def test_parse_rejects_a_ledger_step_that_names_another_class(golden_level_graphs):
    """Where a graph file is read, step i of s on k classes names E(k-s+i):
    each step of each golden graph, written with another name, is refused,
    with one message on a new vector and on the graph's own, whose table
    keeps the graph's records and step words.  The steps take the wrong
    names in turn."""
    refused = 0
    for g in golden_level_graphs:
        text = canonical_text(g)
        assert canonical_text(parse_graph(text, g.omega)) == text
        head, record = text.rstrip("\n").rsplit("\n", 1)
        assert record == reference_ledger_record(g)
        words = record.split()[1:]
        number = head.count("\n") + 2  # the LEDGER record's line
        for i, word in enumerate(words, start=1):
            name, rest = word.split(":", 1)
            j = g.model.k - len(words) + i
            assert name == f"E{j}"
            wrong = (f"E{j + 1}", f"E{j - 1}", f"E0{j}", f"EE{j}", str(j))[refused % 5]
            bad = words[: i - 1] + [f"{wrong}:{rest}"] + words[i:]
            for omega in (None, g.omega):
                with pytest.raises(GraphError) as caught:
                    parse_graph(f"{head}\nLEDGER {' '.join(bad)}\n", omega)
                assert str(caught.value) == (
                    f"line {number}: malformed LEDGER record:"
                    f" {' '.join(bad)!r} is written {' '.join(words)!r}"
                )
            refused += 1
    assert refused == 2328


# ---------------------------------------------------------------------------
# one object per class


def graph_classes(g):
    """Every class object a graph holds: fat vertices, edges, fiber."""
    out = [v.fat for v in g.vertices if v.fat is not None]
    return out + [e.cls for e in g.edges] + [g.fiber]


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_class_arithmetic_returns_the_models_one_object(data):
    model = data.draw(models())
    a, b = data.draw(classes(model, bound=50)), data.draw(classes(model, bound=50))
    n = data.draw(st.integers(-5, 5))
    wider = model.extend()
    made = [
        (a + b, model, tuple(x + y for x, y in zip(a.coeffs, b.coeffs))),
        (a - b, model, tuple(x - y for x, y in zip(a.coeffs, b.coeffs))),
        (-a, model, tuple(-x for x in a.coeffs)),
        (n * a, model, tuple(n * x for x in a.coeffs)),
        (a * n, model, tuple(n * x for x in a.coeffs)),
        (model._embedded[a], wider, a.coeffs + (0,)),
        (model.parse(str(a)), model, a.coeffs),
        (model.zero(), model, (0,) * model.rank),
    ]
    if model.k:
        name = f"E{data.draw(st.integers(1, model.k))}"
        unit = tuple(int(x == name) for x in model.basis_names)
        made.append((model.unit(name), model, unit))
    for got, home, coeffs in made:
        assert got.model is home
        assert got is home.intern(coeffs)
        # A class made outside the table is another object, so another class.
        assert got != HomologyClass(home, coeffs)
    assert b + a is a + b
    assert a - a is model.zero()


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_cached_text_and_genus_match_the_formulas(data):
    model = data.draw(models())
    c = model.intern(data.draw(classes(model, bound=50)).coeffs)
    for _ in range(2):  # computed, then read back
        assert str(c) == reference_class_text(c)
        assert c.twice_genus == twice_adjunction_genus(c) == reference_twice_genus(c)


def test_non_integer_coefficients_and_multipliers_are_rejected():
    m = SurfaceModel(RATIONAL, 2)
    c = m.parse("L-E1")
    with pytest.raises(LatticeError):
        HomologyClass(m, (2.0, 0, 0))
    with pytest.raises(LatticeError):
        m.intern((F(1, 2), 0, 0))
    for n in (2.0, F(2), F(1, 2)):
        with pytest.raises(LatticeError):
            c * n
        with pytest.raises(LatticeError):
            n * c
    assert 2 * c is c * 2 is m.parse("2L-2E1")


def required_for(model, scenario):
    """The scenario's required classes that exist in ``model``, plus every
    Ei and Ei-E(i+1), all sphere classes fixed by the cyclic order."""
    out = []
    for text, order in scenario.required:
        try:
            out.append(RequiredClass(model.parse(text), order))
        except LatticeError:
            pass
    for i in range(1, model.k + 1):
        out.append(RequiredClass(model.exceptional(i), scenario.n))
        if i < model.k:
            out.append(RequiredClass(model.parse(f"E{i}-E{i + 1}"), scenario.n))
    return out


def test_memoized_search_matches_the_reference_on_golden_levels():
    """Verdicts and certificates of ``check_nonextension``, whose shape tests
    and pairings are shared across graphs, against the per-graph reference
    on every graph of every golden level, in both modes."""
    graphs = obstructed = squares = 0
    for name in ("cp2-six", "cp2-six-alt", "ruled-three", "ruled-general-4"):
        scenario = load_scenario(name)
        for level in enumerate_levels(scenario.enumeration_spec()):
            required = required_for(level.graphs[0].model, scenario)
            for mode in (STABILIZER_ONLY, INTEGRABLE_BLOWUP):
                report = check_nonextension(level.graphs, required, mode)
                for g, verdict in zip(level.graphs, report.verdicts):
                    assert verdict.graph is g
                    cert = reference_find_certificate(
                        reference_certified_classes(g, mode), required
                    )
                    assert verdict.certificate == cert
                    assert verdict.verdict == ("obstructed" if cert else "unobstructed")
                    obstructed += cert is not None
                    squares += cert is not None and cert.rule == RULE_NEGATIVE_SQUARE
            graphs += len(level.graphs)
    assert graphs == 558
    assert 0 < squares < obstructed < 2 * graphs


def test_mixed_model_search_still_raises():
    """A ruled k=3 class and a plane k=4 class can share a coefficient tuple;
    the shared pairings must not mix them up."""
    result = enumerate_graphs(load_scenario("ruled-three").enumeration_spec())
    ruled = result.graphs[0].model
    plane = SurfaceModel(RATIONAL, 4)
    # F-E1 is certified in no graph and pairs nonnegatively with the first
    # certified class, so the search goes on to its plane twin E1-E2.
    same = ruled.parse("F-E1")
    other = plane.intern(same.coeffs)
    assert str(other) == "E1-E2" and other != same
    required = [RequiredClass(same, 2), RequiredClass(other, 2)]
    with pytest.raises(LatticeError, match="model mismatch"):
        check_nonextension(result.graphs, required, INTEGRABLE_BLOWUP)


def test_golden_graphs_hold_only_table_objects(golden_level_graphs):
    for g in golden_level_graphs:
        for c in graph_classes(g):
            assert c.model is g.model and c is g.model.intern(c.coeffs)


def test_a_dropped_run_frees_its_models_and_runs_share_no_class():
    scenario = load_scenario("ruled-three")
    first, second = run_scenario(scenario), run_scenario(scenario)
    held = [
        {id(c) for g in run.result.graphs for c in graph_classes(g)}
        for run in (first, second)
    ]
    assert held[0] and held[1] and not held[0] & held[1]
    # Every class holds its model, so a dead model means dead classes too.
    model = weakref.ref(first.result.graphs[0].model)
    del first
    gc.collect()
    assert model() is None
    assert second.passed


def test_the_blowup_class_tables_hold_no_earlier_model():
    """Each model of a run maps its classes to ``extend()``'s padded ones and
    each to itself less its last exceptional class, both tables filled by
    the blowups.  The padding lives on the source model, so the final graphs
    keep no earlier model alive."""
    spec = load_scenario("ruled-three").enumeration_spec()
    result = enumerate_graphs(spec)
    models = [spec.bases[0].model]
    while models[-1] is not result.graphs[0].model:
        models.append(models[-1].extend())
    assert len(models) == 4
    for model in models[:-1]:
        wider = model.extend()
        assert model._embedded and all(
            c.model is model and padded is wider.intern(c.coeffs + (0,))
            for c, padded in model._embedded.items()
        )
    for model in models[1:]:
        last = model.exceptional(model.k)
        assert model._less_last and all(
            less is c - last for c, less in model._less_last.items()
        )
    assert not models[-1]._embedded
    base = weakref.ref(models[0])
    del spec, models, model
    gc.collect()
    assert base() is None and result.graphs


@pytest.mark.parametrize(
    "name", ["ruled-three", str(Path(__file__).parents[1] / "perfbench" / "ruled-deep.scenario")]
)
def test_runs_share_no_class_vector_or_model(name):
    """A class vector's area and text tables fill as a run asks; no vector or
    model outlives a run into the next, so every run starts them empty."""
    scenario = load_scenario(name)
    first, second = run_scenario(scenario), run_scenario(scenario)
    held = []
    for run in (first, second):
        vectors = {id(g.omega): g.omega for g in run.result.graphs}
        models = {id(g.model) for g in run.result.graphs}
        tables = {
            id(table)
            for omega in vectors.values()
            for table in (omega._areas, omega._moment_texts, omega._fixed_records)
        }
        assert vectors and all(omega._moment_texts for omega in vectors.values())
        held.append(set(vectors) | models | tables)
    assert not held[0] & held[1]


def reference_last_blowup_classes(graphs, mode):
    """``last_blowup_classes`` read from the per-graph reference certificates."""
    out = set()
    for g in graphs:
        k, certified = g.model.k, reference_certified_classes(g, mode)
        if mode == INTEGRABLE_BLOWUP and any(c.cls == g.model.exceptional(k) for c in certified):
            out.add(g.model.exceptional(k))
        if k >= 2:
            prev = g.model.exceptional(k - 1)
            if any(c.cls == prev and c.label is not None and c.label >= 2 for c in certified):
                out.add(prev)
                continue
        fats = sorted(
            (c.cls for c in certified if c.label is None),
            key=lambda c: (-len(c.exceptional_support()), c.coeffs),
        )
        if fats:
            out.add(fats[0])
    return out


def test_shared_certified_classes_match_the_reference(golden_levels):
    """One certified-class table per scenario and mode, as a search shares
    it: the certified classes of every golden-level graph are the
    reference's, and each (class, label) is one object across the graphs."""
    count = 0
    for mode in (STABILIZER_ONLY, INTEGRABLE_BLOWUP):
        for _, levels in golden_levels:
            table, objects = _Table(_certify), {}
            for level in levels:
                for g in level.graphs:
                    certified = certified_classes(g, mode, table)
                    assert certified == reference_certified_classes(g, mode)
                    for c in certified:
                        assert objects.setdefault((c.cls, c.label), c) is c
                    count += 1
            assert all(c is False or c is objects[key] for key, c in table.items())
    assert count == 2 * 558


def test_searches_match_the_reference_on_the_builtins():
    """``check_nonextension`` and ``last_blowup_classes`` on the final graphs
    of the four builtins, in both modes, against the per-graph references."""
    witnesses = 0
    for name in ("cp2-six", "cp2-six-alt", "ruled-three", "ruled-general-4"):
        scenario = load_scenario(name)
        spec = scenario.enumeration_spec()
        graphs = enumerate_graphs(spec).graphs
        required = scenario.required_classes(spec.final_omega.model)
        for mode in (STABILIZER_ONLY, INTEGRABLE_BLOWUP):
            report = check_nonextension(graphs, required, mode)
            expected = [
                reference_find_certificate(reference_certified_classes(g, mode), required)
                for g in graphs
            ]
            assert [v.certificate for v in report.verdicts] == expected
            found = last_blowup_classes(iter(graphs), mode)
            assert found == reference_last_blowup_classes(graphs, mode)
            witnesses += len(found)
    assert witnesses > 0


# ---------------------------------------------------------------------------
# integer moments


def assert_on_one_scale(g):
    """Every vertex an integer height over the class vector's denominator,
    in moment order."""
    assert all(type(v.height) is int for v in g.vertices)
    assert g.vertices == tuple(sorted(g.vertices, key=lambda v: (moment(g, v), v.vid)))
    assert [vertex_order(v) for v in g.vertices] == sorted(map(vertex_order, g.vertices))


def free_max_to_min_spheres(g):
    ends = (g.vertices[0].vid, g.vertices[-1].vid)
    return [e for e in g.edges if e.label == 1 and (e.bottom, e.top) == ends]


def assert_strip_redundant_copies_only_to_drop(g):
    h = strip_redundant(g)
    free = free_max_to_min_spheres(g)
    assert (h is g) == (not free)
    assert list(h.edges) == [e for e in g.edges if e not in free]
    return bool(free)


def test_golden_graphs_hold_integer_heights_over_one_scale(golden_level_graphs):
    for g in golden_level_graphs:
        assert_on_one_scale(g)
        assert g.vertices[0].height == 0 and translate(g) is g
        for h in (normal_form(g), flip(g), translate(raised(g, 3))):
            assert_on_one_scale(h)
            assert h.vertices[0].height == 0 and h.omega is g.omega
        assert translate(raised(g, 3)) == g


@settings(max_examples=150, deadline=None)
@given(admissible_chains(), st.data())
def test_random_chains_hold_integer_heights_over_one_scale(g, data):
    """Sizes of denominators 2-7 times a bound: D changes past level 1."""
    assert_on_one_scale(g)
    assert_strip_redundant_copies_only_to_drop(g)
    sites = blowup_sites(g, F(1, 10**9))
    if not sites:
        return
    site = data.draw(st.sampled_from(sites))
    den = data.draw(st.integers(2, 7))
    delta = F(site.bound, g.omega.denominator) * F(data.draw(st.integers(1, den - 1)), den)
    x = g.extend(delta)
    assert_on_one_scale(x)
    grown = x.omega.denominator != g.omega.denominator
    assert x.omega.denominator == math.lcm(g.omega.denominator, delta.denominator)
    for v, w in zip(g.vertices, x.vertices):
        assert moment(g, v) == moment(x, w)
        # Only a grown denominator makes the extension copy an isolated vertex.
        assert (w is v) == (v.fat is None and not grown)
    try:
        child = apply_blowup(g, site.vertex, delta)
    except BlowupError:
        return
    assert_on_one_scale(child)
    assert child.omega is x.omega


def test_vertex_is_an_immutable_value():
    v = Vertex("a", 1)
    assert (v.vid, v.height, v.fat) == ("a", 1, None)
    assert v == Vertex("a", 1) and hash(v) == hash(Vertex("a", 1))
    assert v != Vertex("a", 2) and v != Vertex("b", 1)
    fat = SurfaceModel(RATIONAL, 1).parse("L-E1")
    assert Vertex("a", 1, fat) != v and len({v, Vertex("a", 1, fat), Vertex("a", 1)}) == 2
    with pytest.raises(AttributeError):
        v.height = 2
    w = Vertex("a", 3, fat)
    # A pickled class belongs to a new lattice: the same shape, another object.
    copy = pickle.loads(pickle.dumps(w))
    assert copy[:2] == w[:2] and copy.fat.coeffs == fat.coeffs and copy != w
    assert copy.fat.model is not fat.model and copy.fat is copy.fat.model.intern(fat.coeffs)
    assert repr(v) == "Vertex(vid='a', height=1, fat=None)"


def test_validate_reports_a_non_integer_height():
    omega = CohomologyVector.rational(1, [F(1, 2)])
    P = omega.model.parse
    vertices = [
        Vertex("0.min", 0, P("L-E1")),
        Vertex("0.a", F(1, 3)),
        Vertex("0.max", 1),
    ]
    g = DecoratedGraph.build(omega, vertices, [], (), P("L"))
    assert validate(g) == ["vertex 0.a has a non-integer height"]
    assert validate(
        DecoratedGraph.build(omega, vertices[::2], [], (), P("L"))
    ) == []


def relabels_as(model, table, perm):
    """Whether the class table ``table`` (None for the identity) moves each
    Ei coefficient to E perm(i): read on the class sum of i Ei, whose
    coefficients are distinct."""
    if table is None:
        return not perm
    head = model.head
    c = model.intern((0,) * head + tuple(range(1, model.k + 1)))
    moved = list(c.coeffs)
    for i, j in perm.items():
        moved[head + j - 1] = i
    return bool(perm) and table[c] is model.intern(tuple(moved))


def test_relabelings_are_listed_once_per_vector_and_created_indices(golden_level_graphs):
    lists = {}
    shared = relabeled = 0
    for g in golden_level_graphs:
        tables = _permutation_group(g)
        assert tables is _permutation_group(g)
        perms = list(reference_permutation_group(g))
        assert len(tables) == len(perms)
        assert all(relabels_as(g.model, t, p) for t, p in zip(tables, perms))
        key = (id(g.omega), len(g.ledger))  # the last s indices were created
        if key in lists:
            shared += 1
        assert lists.setdefault(key, tables) is tables
        relabeled += len(tables) > 1
    assert shared > 400 and relabeled > 50


def test_a_dropped_run_frees_its_vectors_and_their_relabelings():
    result = enumerate_graphs(load_scenario("cp2-six").enumeration_spec())
    omega = result.graphs[0].omega
    assert any(len(perms) > 1 for perms in omega._relabelings.values())
    vector = weakref.ref(omega)
    del result, omega
    gc.collect()
    assert vector() is None


def test_strip_redundant_copies_a_graph_only_to_drop_a_sphere(golden_level_graphs):
    dropped = [assert_strip_redundant_copies_only_to_drop(g) for g in golden_level_graphs]
    assert any(dropped) and not all(dropped)


def test_every_chain_from_the_minimum_sums_to_the_fiber(golden_levels, deep_levels):
    """What a replay checks of the FIBER record holds on every graph of every
    level of the golden scenarios and the deep one."""
    count = 0
    for _, levels in golden_levels + [deep_levels]:
        for level in levels:
            for g in level.graphs:
                sums = reference_chain_sums(g)
                assert sums and set(sums) == {g.fiber.coeffs}
                count += 1
    assert count == 558 + 2957


def test_chain_sums_match_the_references_on_golden_and_deep_levels(golden_levels, deep_levels):
    """``_chain_sum`` up and down from every edge is the edge's term plus the
    old walker's sum beyond it, and from the minimum it is the old fiber
    check's sum, on every graph of every golden and deep level."""
    count = 0
    for _, levels in golden_levels + [deep_levels]:
        for level in levels:
            for g in level.graphs:
                for e in g.edges:
                    term = e.label * e.cls
                    up = term + reference_walk_sum(g, e.top, True)
                    down = term + reference_walk_sum(g, e.bottom, False)
                    assert _chain_sum(g, e, True) == up.coeffs
                    assert _chain_sum(g, e, False) == down.coeffs
                starts = graph_index(g)[1].get(g.vertices[0].vid, ())
                assert [_chain_sum(g, e, True) for e in starts] == reference_fiber_sums(g)
                count += 1
    assert count == 558 + 2957


@st.composite
def chain_graphs(draw):
    """Graphs with no fixed surface whose label 1-5 edges each leave the
    minimum or an interior vertex for an interior vertex or the maximum:
    chains that fork, stop short or run round a cycle, and chains that end.
    So a walk up never meets the minimum, nor one down the maximum, and the
    walker and ``_chain_sum`` stop at the same end."""
    omega = CohomologyVector.rational(1, [F(1, 2), F(1, 4)])
    model = omega.model
    interior = [f"v{i}" for i in range(draw(st.integers(1, 4)))]
    vertices = [Vertex("min", 0), Vertex("max", len(interior) + 1)]
    vertices += [Vertex(vid, height) for height, vid in enumerate(interior, start=1)]
    coeffs = st.tuples(*[st.integers(-3, 3)] * len(model.zero().coeffs))
    edge = st.builds(
        Edge,
        st.sampled_from(["min"] + interior),
        st.sampled_from(interior + ["max"]),
        st.integers(1, 5),
        coeffs.map(model.intern),
    )
    edges = draw(st.lists(edge, min_size=1, max_size=8))
    return DecoratedGraph.build(omega, vertices, edges, (), model.zero())


@settings(max_examples=300, deadline=None)
@given(chain_graphs())
def test_chain_sums_match_the_walker_on_drawn_graphs(g):
    """``_chain_sum`` up and down from every edge is the edge's term plus the
    walker's sum beyond it, or raises the walker's GraphError text."""
    for e in g.edges:
        for up, far in ((True, e.top), (False, e.bottom)):
            try:
                want = (e.label * e.cls + reference_walk_sum(g, far, up)).coeffs
            except GraphError as exc:
                with pytest.raises(GraphError) as caught:
                    _chain_sum(g, e, up)
                assert str(caught.value) == str(exc)
            else:
                assert _chain_sum(g, e, up) == want


def test_a_chain_with_labels_above_one_sums_label_times_class():
    """Up from the minimum and down from the maximum, ``_chain_sum`` over a
    chain of labels 2, 3 and 1 is the reference's 2(L-E1) + 3(E1-E2) + E2."""
    omega = CohomologyVector.rational(1, [F(1, 2), F(1, 4)])
    model = omega.model
    L, E1, E2 = map(model.unit, ("L", "E1", "E2"))
    vertices = [Vertex("min", 0), Vertex("a", 1), Vertex("b", 2), Vertex("max", 3)]
    chain = [Edge("min", "a", 2, L - E1), Edge("a", "b", 3, E1 - E2), Edge("b", "max", 1, E2)]
    g = DecoratedGraph.build(omega, vertices, chain, (), model.zero())
    assert reference_chain_sums(g) == [(2, 1, -2)]
    assert _chain_sum(g, chain[0], True) == _chain_sum(g, chain[-1], False) == (2, 1, -2)


def test_fat_record_is_kept_and_equals_the_formula(golden_level_graphs):
    """A V record's size and genus are its class's area and adjunction genus."""
    fats = 0
    for g in golden_level_graphs:
        for v in g.vertices:
            f = v.fat
            if f is None:
                assert _fixed_record(f, g.omega) == "isolated"
                continue
            fats += 1
            assert _fixed_record(f, g.omega) == (
                f"fat size={rat_str(reference_pair(g.omega, f))}"
                f" genus={reference_adjunction_genus(f)}"
                f" class={reference_class_text(f)}"
            )
    assert fats > 500


# ---------------------------------------------------------------------------
# released caches


CACHES = ("_index", "_extension", "_sites")
DEEP_SCENARIO = Path(__file__).parents[1] / "perfbench" / "ruled-deep.scenario"
GOLDEN = Path(__file__).parent / "golden"


def held_caches(g):
    return [name for name in CACHES if getattr(g, name) is not None]


def test_the_caches_are_the_graphs_slots_beside_its_values():
    """Each cache is a slot that takes no argument and no part in equality."""
    assert CACHES == DecoratedGraph.__slots__[5:]
    assert [f.name for f in fields(DecoratedGraph) if f.init and f.compare] == [
        "omega", "vertices", "edges", "ledger", "fiber"
    ]
    assert [f.name for f in fields(DecoratedGraph) if not (f.init or f.compare)] == list(CACHES)


def cached_answers(g, delta):
    """Everything a graph answers from its index or its extensions."""
    _, above, below = graph_index(g)
    return (
        canonical_text(g),
        normal_key(g),
        dedup_key(g, True),
        dedup_key(g, False),
        validate(g),
        blowup_sites(g, delta),
        [(above.get(v.vid, ()), below.get(v.vid, ())) for v in g.vertices],
        canonical_text(g.extend(delta)),
    )


def test_answers_are_the_same_after_the_caches_are_dropped(golden_levels, deep_levels):
    """Every graph of every level of the golden scenarios and the deep one;
    each final level at half its last size."""
    count = 0
    for sizes, levels in golden_levels + [deep_levels]:
        for depth, level in enumerate(levels):
            delta = sizes[depth] if depth < len(sizes) else sizes[-1] / 2
            for g in level.graphs:
                cached = cached_answers(g, delta)
                assert held_caches(g) == list(CACHES)
                _drop_caches(g)
                assert held_caches(g) == []
                assert cached_answers(g, delta) == cached
                _drop_caches(g)
                count += 1
    assert count == 558 + 2957


def test_the_index_is_built_once_per_child_parent_and_extension(monkeypatch):
    """On distinct sizes a graph's whole index (its vertices by id and the
    edges above and below each, one pass) is built once in each role: a
    child's by ``validate`` and reused by its key, a parent's by its sites,
    and its extension's by the rewrites.  One build more is the ruled base's
    key, which walks the base with its free max-to-min sphere stripped, a
    new graph.  (On ``ruled-deep`` the count is 2,957 + 2 * 437 + 1 = 3,832.)
    The one merge of ruled-general-4 has unequal ledgers, so it writes no
    canonical text and indexes no graph."""
    build = DecoratedGraph._build_index
    builds = Counter()

    def counted(g):
        if g._index is None:
            builds[id(g)] += 1
        return build(g)

    monkeypatch.setattr(DecoratedGraph, "_build_index", counted)
    levels = list(enumerate_levels(load_scenario("ruled-general-4").enumeration_spec()))
    log = levels[-1].branch_log
    children = sum(lv.sites for lv in log)
    parents = len(levels[0].graphs) + sum(lv.kept for lv in log[:-1])
    assert (children, parents) == (394, 77)
    assert sum(builds.values()) == 549 == children + 2 * parents + 1


def test_each_parent_derives_each_site_once(monkeypatch):
    """A parent's site table serves its sites and every child's blowup: each
    vertex of each expanded parent is looked at once, and ``apply_blowup``
    derives no site of its own."""
    from decgraph import blowup

    derived = Counter()

    def counted(g, v):
        derived[id(g), v.vid] += 1
        return _site_for_vertex(g, v)

    monkeypatch.setattr(blowup, "_site_for_vertex", counted)
    levels = list(enumerate_levels(load_scenario("ruled-general-4").enumeration_spec()))
    parents = [g for level in levels[:-1] for g in level.graphs]
    assert (len(parents), sum(lv.sites for lv in levels[-1].branch_log)) == (77, 394)
    assert derived == Counter((id(g), v.vid) for g in parents for v in g.vertices)


def test_a_level_holds_one_parents_site_table_at_a_time(monkeypatch):
    """A level counts each parent's sites as it expands that parent, so while
    it runs at most one frontier graph holds a site table: the one whose
    children are being made."""
    from decgraph import enumeration

    parents = {}
    most = 0

    def counted(g, delta):
        nonlocal most
        parents[id(g)] = g
        found = blowup_sites(g, delta)
        most = max(most, sum(p._sites is not None for p in parents.values()))
        return found

    monkeypatch.setattr(enumeration, "blowup_sites", counted)
    list(enumerate_levels(load_scenario("ruled-general-4").enumeration_spec()))
    assert (len(parents), most) == (77, 1)


@pytest.mark.parametrize("name", ["cp2-six", "ruled-three"])
def test_no_graph_holds_a_cache_after_a_run(name, tmp_path):
    """Both merge; cp2-six at its last level too (8 of 34 children).  The
    exported graphs are indexed to be written and released again."""
    scenario = load_scenario(name)
    levels = list(enumerate_levels(scenario.enumeration_spec()))
    assert sum(lv.merged for lv in levels[-1].branch_log) > 0
    assert all(held_caches(g) == [] for level in levels for g in level.graphs)
    result = enumerate_graphs(scenario.enumeration_spec())
    assert result.graphs and all(held_caches(g) == [] for g in result.graphs)
    outcome = run_scenario(scenario)
    assert all(held_caches(g) == [] for g in outcome.result.graphs)
    export_graphs(outcome.result, tmp_path / "graphs")
    assert all(held_caches(g) == [] for g in outcome.result.graphs)


@pytest.mark.parametrize("name", ["ruled-three", "ruled-general-4"])
def test_a_report_shares_its_equal_ledger_texts_and_certificates(name):
    report = run_scenario(load_scenario(name)).report
    texts, certificates = {}, {}
    references = 0
    for entry in report["graphs"]:
        for text in entry["ledger"]:
            assert texts.setdefault(text, text) is text
        cert = entry["certificate"]
        if cert is not None:
            references += 1
            assert certificates.setdefault(json.dumps(cert, sort_keys=True), cert) is cert
    assert len(texts) < sum(len(entry["ledger"]) for entry in report["graphs"])
    assert 0 < len(certificates) < references


# ---------------------------------------------------------------------------
# integer cone elimination


def shipped_list(name):
    """The shipped curve list ``name``, parsed on a model of its shape."""
    kind, k, names = GENERATOR_LISTS[name]
    return GeneratorList.parse(SurfaceModel(kind, k, 1 if kind == RULED else 0), names)


def membership_outcome(d, gens, decide):
    """What ``decide(d, gens)`` returns, or the text of the LatticeError it raises."""
    try:
        return decide(d, gens)
    except LatticeError as exc:
        return str(exc)


def assert_membership_matches_the_reference(d, gens):
    """The same outcome type and the same witness or functional, value for value."""
    got = membership_outcome(d, gens, cone_membership)
    expected = membership_outcome(d, gens, reference_cone_membership)
    assert type(got) is type(expected)
    assert got == expected
    values = getattr(got, "coefficients", getattr(got, "functional", ()))
    assert all(type(x) is F for x in values)
    return type(got)


@st.composite
def membership_cases(draw):
    """A target and a curve list on one model: a shipped list or a small
    random one; the target a random class or a nonnegative combination of
    the generators, which is a member."""
    if draw(st.booleans()):
        gens = shipped_list(draw(st.sampled_from(sorted(GENERATOR_LISTS))))
    else:
        model = draw(models(max_k=3))
        count = draw(st.integers(1, 5))
        gens = GeneratorList(model, tuple(draw(classes(model, bound=3)) for _ in range(count)))
    model = gens.model
    if draw(st.booleans()):
        return draw(classes(model, bound=4)), gens
    weights = draw(st.lists(st.integers(0, 3), min_size=len(gens.generators),
                            max_size=len(gens.generators)))
    coeffs = [sum(w * c.coeffs[j] for w, c in zip(weights, gens.generators))
              for j in range(model.rank)]
    return model.intern(tuple(coeffs)), gens


@settings(max_examples=600, deadline=None)
@given(membership_cases())
def test_integer_elimination_matches_the_fraction_reference(case):
    assert_membership_matches_the_reference(*case)


def test_integer_elimination_matches_the_reference_on_every_shipped_list():
    """Each basis class, its negative, each generator, and each sum of a
    basis class and a generator on each shipped list: both outcomes occur."""
    outcomes = Counter()
    for name in GENERATOR_LISTS:
        gens = shipped_list(name)
        basis = [gens.model.unit(b) for b in gens.model.basis_names]
        targets = basis + [-b for b in basis] + list(gens.generators)
        targets += [b + c for b in basis for c in gens.generators]
        for d in targets:
            outcomes[assert_membership_matches_the_reference(d, gens)] += 1
    assert outcomes[ConeWitness] > 0 and outcomes[ConeSeparation] > 0
