"""Decorated graphs of Hamiltonian circle actions on symplectic 4-manifolds.

A decorated graph records the fixed-point data of a circle action: isolated
fixed points are plain vertices placed at their moment value, fixed surfaces
are fat vertices carrying their class (whose area is the surface's size and
whose adjunction genus is its genus), and invariant spheres are edges
carrying an isotropy label n >= 1 and a homology class.  The moment-value gap
across an edge equals label * (class area), areas being exact rationals.

Every area is an integer over the class vector's denominator D, so with the
minimum at 0 every moment is one too.  A graph therefore holds each moment as
an integer height over D, and orders, shifts, flips and checks moments in
integers.

Graphs are immutable values.  Heights are derived from classes, labels and
the class vector; validation re-checks them.  Canonical serialization gives
a deterministic text form that doubles as the on-disk format and as the
equality key for the equivalence relation (vertical translation, change of
generic metric, flip).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import itemgetter
from typing import NamedTuple

from .lattice import (
    RATIONAL,
    RULED,
    CohomologyVector,
    HomologyClass,
    SurfaceModel,
    _cached,
    pair,
    rat,
    rat_str,
)


class GraphError(ValueError):
    """Raised on malformed graph constructions and invalid parameters."""


class Vertex(NamedTuple):
    """A fixed point at the moment value ``height / D``, where D is the
    denominator of its graph's class vector; ``fat`` is a fixed surface's
    class, whose area and adjunction genus are the surface's size and genus."""

    vid: str
    height: int
    fat: HomologyClass | None = None


class Edge(NamedTuple):
    """An invariant sphere from ``bottom`` up to ``top``, with its isotropy
    label and class."""

    bottom: str
    top: str
    label: int
    cls: HomologyClass


vertex_order = itemgetter(1, 0)  # sort key of ``DecoratedGraph.vertices``: (height, vid)


def _height(moment, den: int) -> int:
    """The height of ``moment`` over ``den``; GraphError if it is no integer."""
    moment = rat(moment)
    height, rest = divmod(moment.numerator * den, moment.denominator)
    if rest:
        raise GraphError(f"moment {rat_str(moment)} is not a multiple of 1/{den}")
    return height


def edge_order(e: Edge) -> tuple:
    """Sort key of ``DecoratedGraph.edges``."""
    bottom, top, label, cls = e
    return (cls.coeffs, label, bottom, top)


INTERIOR = "interior"  # the blowup site kinds a ledger records (see ``blowup``)
SURFACE = "surface"
EXTREMUM = "extremum"


class LedgerEntry(NamedTuple):  # what one step did; its class is its position
    kind: str  # INTERIOR | SURFACE | EXTREMUM
    detail: str  # 'min'/'max' for surface/extremum, birth step for interior

    @staticmethod
    def parse(text: str, step: int, index: int) -> "LedgerEntry":
        """The entry of step ``step``, which made E``index``: an end or an earlier birth."""
        idx, kind, detail = text.split(":")
        if idx != f"E{index}":
            raise ValueError(f"step {step} names {idx}, not E{index}")
        if kind == INTERIOR:
            details = [str(birth) for birth in range(step)]
        elif kind in (SURFACE, EXTREMUM):
            details = ["min", "max"]
        else:
            raise ValueError(f"step {step}: unknown blowup kind {kind!r}")
        if detail not in details:
            raise ValueError(f"step {step}: {kind} detail {detail!r} is not one of {details}")
        return LedgerEntry(kind, detail)


def _ledger_texts(g: "DecoratedGraph", texts: dict) -> list[str]:
    """The words of ``g``'s LEDGER record: step i of s on k classes made E(k-s+i).
    ``texts`` maps each (index, entry) to its word, shared by the ledgers it writes."""
    words = []
    for key in enumerate(g.ledger, start=g.model.k - len(g.ledger) + 1):
        if key not in texts:
            index, (kind, detail) = key
            texts[key] = f"E{index}:{kind}:{detail}"
        words.append(texts[key])
    return words


@dataclass(frozen=True)
class DecoratedGraph:
    """An immutable decorated graph.

    ``vertices`` hold their moments as heights over ``omega.denominator``
    and are sorted by (height, vid), as ``build`` makes them, so the extrema
    are the first and the last vertex.  The vid -> vertex map and the edges
    above and below each vertex are indexed on first use and kept until
    ``_drop_caches`` releases them.
    """

    omega: CohomologyVector
    vertices: tuple[Vertex, ...]
    edges: tuple[Edge, ...]
    ledger: tuple[LedgerEntry, ...]
    fiber: HomologyClass  # class of a generic free sphere joining the extrema

    @staticmethod
    def build(omega, vertices, edges, ledger, fiber) -> "DecoratedGraph":
        """The graph with both tuples sorted."""
        vertices = tuple(sorted(vertices, key=vertex_order))
        edges = tuple(sorted(edges, key=edge_order))
        return DecoratedGraph(omega, vertices, edges, tuple(ledger), fiber)

    @property
    def model(self) -> SurfaceModel:  # the one the class vector is on
        return self.omega.model

    def extend(self, delta) -> "DecoratedGraph":
        """This graph in the lattice with one more exceptional class.

        The vertices and edges are the same, their classes zero-padded, and
        the class vector pairs the new class to ``delta``.  No step made it,
        so the ledger is empty.  Padding keeps the build order, so nothing is
        re-sorted.  When the class vector's denominator grows, the heights
        grow with it.  This graph holds its latest extension, with its size,
        until ``_drop_caches``, so the blowups of one graph at one size share
        it, its index and its vertices, edges and classes.  A repeated call
        finds it by the size's identity, hashing no ``Fraction``.
        """
        delta = rat(delta)
        held = vars(self).get("_extension")
        if held is not None and (held[0] is delta or held[0] == delta):
            return held[1]
        omega = self.omega.extend(delta)
        embed = self.model._embedded
        grow = omega.denominator // self.omega.denominator

        def extended(v: Vertex) -> Vertex:
            f = v.fat
            if f is not None:
                f = embed[f]
            elif grow == 1:
                return v  # no class and the same height: shared
            return Vertex(v.vid, v.height * grow, f)

        vertices = tuple(map(extended, self.vertices))
        edges = tuple(Edge(b, t, label, embed[c]) for b, t, label, c in self.edges)
        out = DecoratedGraph(omega, vertices, edges, (), embed[self.fiber])
        vars(self)["_extension"] = (delta, out)
        return out

    @_cached
    def _by_vid(self) -> dict[str, Vertex]:
        return {v.vid: v for v in reversed(self.vertices)}  # the first of an id wins

    @_cached
    def _adjacency(self) -> tuple[dict, dict]:
        above: dict[str, tuple[Edge, ...]] = {}
        below: dict[str, tuple[Edge, ...]] = {}
        for e in self.edges:
            bottom, top, _, _ = e
            above[bottom] = above.get(bottom, ()) + (e,)
            below[top] = below.get(top, ()) + (e,)
        return above, below

    def vertex(self, vid: str) -> Vertex:
        try:
            return self._by_vid[vid]
        except KeyError:
            raise GraphError(f"no vertex {vid!r}") from None

    def edges_above(self, vid: str) -> tuple[Edge, ...]:
        return self._adjacency[0].get(vid, ())

    def edges_below(self, vid: str) -> tuple[Edge, ...]:
        return self._adjacency[1].get(vid, ())


# What a graph keeps beside its fields; a module keeping a table on graphs adds its name.
CACHES = ["_by_vid", "_adjacency", "_extension"]


def _drop_caches(g: DecoratedGraph) -> None:
    """Release each cache in ``CACHES`` that ``g`` holds; the next query rebuilds it.

    They are caches of values the graph holds, so no value changes.  The
    enumeration calls this once a graph is keyed or expanded, and the export
    once its file is written, so that a held graph is only its values.
    """
    cache = vars(g)
    for name in CACHES:
        cache.pop(name, None)


# ---------------------------------------------------------------------------
# validation


def validate(g: DecoratedGraph) -> list[str]:
    """All rule violations, as human-readable strings; empty means valid."""
    bad: list[str] = []
    vs = g.vertices
    if not vs:
        return ["graph has no vertices"]
    odd = [v.vid for v in vs if not isinstance(v.height, int)]
    if odd:
        return [f"vertex {vid} has a non-integer height" for vid in odd]
    # Vertices are sorted by height: the minima are vs[:lo], the maxima vs[hi:].
    n = len(vs)
    mmin, mmax = vs[0].height, vs[-1].height
    lo = 1
    while lo < n and vs[lo].height == mmin:
        lo += 1
    hi = n - 1
    while hi > 0 and vs[hi - 1].height == mmax:
        hi -= 1
    if mmin == mmax:
        bad.append("minimum and maximum must be attained at distinct levels")
    if lo != 1:
        bad.append("minimum attained on more than one component")
    if hi != n - 1:
        bad.append("maximum attained on more than one component")

    known = g._by_vid
    if len(known) != n:
        bad.append("duplicate vertex ids")
    # A class pairs with omega to (weights . coeffs) / den and a moment is a
    # height over den, so areas and gaps are compared in integers.
    model, areas = g.model, g.omega._areas
    for i, v in enumerate(vs):
        c = v.fat
        if c is None:
            continue
        if lo <= i < hi:
            bad.append(f"fat vertex {v.vid} sits at an interior moment value")
        if c.model is not model:
            bad.append(f"fat vertex {v.vid} class is in the wrong lattice")
            continue
        if areas[c.coeffs] <= 0:
            bad.append(f"fat vertex {v.vid} has nonpositive size")
        if c.twice_genus < 0:
            bad.append(f"fat vertex {v.vid} has negative genus")

    for bottom, top, label, cls in g.edges:
        vb, vt = known.get(bottom), known.get(top)
        if vb is None or vt is None:
            bad.append(f"edge {cls}({label}) references a missing vertex")
            continue
        if bottom == top:
            bad.append(f"edge {cls}({label}) is a loop")
            continue
        if not isinstance(label, int) or label < 1:
            bad.append(f"edge {cls}({label}) has a non-positive label")
            continue
        gap = vt.height - vb.height  # the moment gap, times den
        if gap <= 0:
            bad.append(f"edge {cls}({label}) does not increase the moment value")
        if cls.model is not model:
            bad.append(f"edge {cls}({label}) class is in the wrong lattice")
            continue
        if gap != label * areas[cls.coeffs]:
            bad.append(f"edge {cls}({label}) breaks the area rule (gap != label * area)")
        if cls.twice_genus != 0:
            bad.append(f"edge {cls}({label}) class is not an embedded-sphere class")
        if label != 1 and (vb.fat is not None or vt.fat is not None):
            bad.append(f"edge {cls}({label}) touches a fixed surface with label > 1")

    above, below = g._adjacency
    for i, v in enumerate(vs):
        if v.fat is not None:
            continue
        up, down = above.get(v.vid, ()), below.get(v.vid, ())
        if lo <= i < hi and (len(up) != 1 or len(down) != 1):
            bad.append(f"interior vertex {v.vid} needs exactly one edge above and below")
        edges = up + down
        if len(edges) == 2:  # one pair, as at every interior vertex
            if math.gcd(edges[0].label, edges[1].label) != 1:
                bad.append(f"vertex {v.vid} carries non-coprime edge labels")
        elif len(edges) > 2:  # a message a pair
            labels = [e.label for e in edges]
            for j, a in enumerate(labels):
                for b in labels[j + 1:]:
                    if math.gcd(a, b) != 1:
                        bad.append(f"vertex {v.vid} carries non-coprime edge labels")
    return bad


# ---------------------------------------------------------------------------
# base families


HIRZEBRUCH_FAMILIES = (
    "isolated_left",
    "isolated_right",
    "one_surface",
    "two_surfaces",
)


@dataclass(frozen=True)
class BaseFamilyParams:
    """Parameters naming one base graph of a minimal model.

    ``ell`` indexes the action; the isolated families additionally take a
    coprime positive pair (c, d) of edge labels, with (2*ell-1)*c - d >= 1
    required on the right-hand isolated family.
    """

    family: str
    ell: int
    c: int = 1
    d: int = 1

    def __post_init__(self):
        if self.family not in HIRZEBRUCH_FAMILIES:
            raise GraphError(f"unknown base family {self.family!r}")
        if self.family.startswith("isolated"):
            if self.c < 1 or self.d < 1 or math.gcd(self.c, self.d) != 1:
                raise GraphError("(c, d) must be coprime positive integers")
            if self.family == "isolated_right" and (2 * self.ell - 1) * self.c - self.d < 1:
                raise GraphError("isolated_right needs (2*ell-1)*c - d >= 1")


def base_hirzebruch(omega: CohomologyVector, params: BaseFamilyParams) -> DecoratedGraph:
    """One of the four base graphs on the one-point blowup of the plane, on
    the class vector ``omega`` = (lam; delta1), which the bases share."""
    model = omega.model
    if model.kind != RATIONAL or model.k != 1:
        raise GraphError(f"need a class vector (lam; delta1), not one on the {model} model")
    lam, delta1 = omega.entries
    if not 0 < delta1 < lam:
        raise GraphError("need 0 < delta1 < lam")
    if not 1 <= params.ell or params.ell * (lam - delta1) >= lam:
        raise GraphError("ell out of range: need 1 <= ell < lam/(lam-delta1)")
    ell, c, d, n = params.ell, params.c, params.d, 2 * params.ell - 1
    L, E1 = model.unit("L"), model.unit("E1")
    fib = L - E1
    riser = ell * L - (ell - 1) * E1
    coriser = (1 - ell) * L + ell * E1
    a_fib, a_riser, a_coriser = (pair(omega, x) for x in (fib, riser, coriser))
    den = omega.denominator
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

    # isolated_right
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
    fiber = c * riser
    return DecoratedGraph.build(omega, [vmin, va, vb, vmax], edges, [], fiber)


def base_ruled(omega: CohomologyVector, ell: int) -> DecoratedGraph:
    """The base graph on a trivial ruled surface over a genus >= 1 curve, on
    the class vector ``omega`` = (lam_f, lam_b;), which the bases share."""
    model = omega.model
    if model.kind != RULED or model.k != 0:
        raise GraphError(f"need a class vector (lam_f, lam_b;), not one on the {model} model")
    lam_f, lam_b = omega.entries
    if lam_f <= 0 or lam_b <= 0:
        raise GraphError("need positive lam_f and lam_b")
    if not 0 <= ell or ell * lam_f >= lam_b:
        raise GraphError("ell out of range: need 0 <= ell < lam_b/lam_f")
    B, F = model.unit("B"), model.unit("F")
    bot, top = B - ell * F, B + ell * F
    vmin = Vertex("0.min", 0, bot)
    vmax = Vertex("0.max", _height(lam_f, omega.denominator), top)
    edges = [Edge("0.min", "0.max", 1, F)]
    return DecoratedGraph.build(omega, [vmin, vmax], edges, [], F)


# ---------------------------------------------------------------------------
# canonical form


def _chain_sum(g: DecoratedGraph, e: Edge, up: bool) -> tuple[int, ...]:
    """Label times class, summed in integer coefficients over ``e`` and the
    chain beyond it up to the maximum (if ``up``) or down to the minimum;
    every fixed surface is an extremum.  GraphError where the chain forks or
    stops short."""
    if up:
        end, onward, far = g.vertices[-1].vid, g._adjacency[0], 1
    else:
        end, onward, far = g.vertices[0].vid, g._adjacency[1], 0
    total = [e.label * c for c in e.cls.coeffs]
    vid = e[far]
    while vid != end:
        try:
            (e,) = onward[vid]
        except (KeyError, ValueError):
            raise GraphError(f"vertex {vid} has no unique chain continuation") from None
        total = [t + e.label * c for t, c in zip(total, e.cls.coeffs)]
        vid = e[far]
    return tuple(total)


def _check_fiber(g: DecoratedGraph) -> None:
    """Raise GraphError unless every chain from the minimum sums, label times
    class, to the fiber.  ``g`` must pass ``validate``."""
    for e in g.edges_above(g.vertices[0].vid):
        total = _chain_sum(g, e, True)
        if total != g.fiber.coeffs:
            raise GraphError(f"FIBER {g.fiber} is not the chain sum {g.model.intern(total)}")


def break_free_edges(g: DecoratedGraph) -> DecoratedGraph:
    """Rewire every label-1 edge joining two interior fixed points.

    A generic invariant metric admits no free sphere with both poles at
    interior fixed points; such an edge splits into a free sphere from the
    lower pole to the maximum and one from the minimum to the upper pole.
    Classes follow conservation of the weighted chain sum.
    """
    while True:
        vmin, vmax = g.vertices[0], g.vertices[-1]
        ends, by_vid = (vmin.vid, vmax.vid), g._by_vid
        for target in g.edges:
            bottom, top, label, _ = target
            if label == 1 and bottom not in ends and top not in ends:
                b, t = by_vid.get(bottom), by_vid.get(top)
                if b is not None and t is not None and b.fat is None and t.fat is None:
                    break
        else:
            return g
        intern = g.model.intern
        edges = [e for e in g.edges if e is not target]
        edges.append(Edge(target.bottom, vmax.vid, 1, intern(_chain_sum(g, target, True))))
        edges.append(Edge(vmin.vid, target.top, 1, intern(_chain_sum(g, target, False))))
        g = DecoratedGraph.build(g.omega, g.vertices, edges, g.ledger, g.fiber)


def strip_redundant(g: DecoratedGraph) -> DecoratedGraph:
    """Drop label-1 edges joining the minimum directly to the maximum.

    Returns ``g`` itself, with its index, when there is none to drop.
    """
    vmin, vmax = g.vertices[0].vid, g.vertices[-1].vid
    edges = tuple(
        e
        for e in g.edges
        if not (e.label == 1 and e.bottom == vmin and e.top == vmax)
    )
    if len(edges) == len(g.edges):
        return g
    # A subset of sorted edges on the same vertices is already in build order.
    return DecoratedGraph(g.omega, g.vertices, edges, g.ledger, g.fiber)


def translate(g: DecoratedGraph) -> DecoratedGraph:
    """Shift moment values so the minimum sits at 0."""
    shift = g.vertices[0].height
    if shift == 0:
        return g
    # A common shift keeps the (height, vid) order, so no re-sort is needed.
    vertices = tuple(Vertex(v.vid, v.height - shift, v.fat) for v in g.vertices)
    return DecoratedGraph(g.omega, vertices, g.edges, g.ledger, g.fiber)


def flip(g: DecoratedGraph) -> DecoratedGraph:
    """Turn the graph upside down; the old maximum becomes the minimum, at 0."""
    top = g.vertices[-1].height
    vertices = [Vertex(v.vid, top - v.height, v.fat) for v in g.vertices]
    edges = [Edge(t, b, label, c) for b, t, label, c in g.edges]
    return DecoratedGraph.build(g.omega, vertices, edges, g.ledger, g.fiber)


def _fixed_record(c: HomologyClass | None, omega: CohomologyVector) -> str:
    """The end of a V record: ``isolated``, or the fat size, genus and class.

    ``c`` is the vertex's fixed-surface class, None at an isolated point.
    The size and genus are the class's area and adjunction genus, written
    for readers; ``parse_graph`` checks them against the class.  Each class's
    record is written once per class vector and kept on it.
    """
    if c is None:
        return "isolated"
    records = omega._fixed_records
    text = records.get(c)
    if text is None:
        size = omega._moment_texts[omega._areas[c.coeffs]]
        text = records[c] = f"fat size={size} genus={c.twice_genus // 2} class={c}"
    return text


def _walk(g: DecoratedGraph, down: bool):
    """The chains of ``g`` (up) or of ``flip(g)`` (down) and their moment
    texts, read from ``g``'s own index without building the flip.

    Up starts at the minimum and walks the edges above each vertex.  Down
    starts at the maximum, walks the edges below each vertex with the near
    and far ends of each edge swapped, and writes each moment as ``top - m``,
    where ``top`` is the maximum moment.  Returns the start and end vertex
    ids, the chains, each a list of (near end, far end, label, class) walked
    away from the start, and the text of each vertex's moment.  The walk
    only carries each edge's class, so a relabeling of exceptional classes
    leaves it as it is.
    """
    vs, texts = g.vertices, g.omega._moment_texts
    if down:
        start, end, onward = vs[-1].vid, vs[0].vid, g._adjacency[1]
        top = vs[-1].height
        moment_text = {vid: texts[top - v.height] for vid, v in g._by_vid.items()}
    else:
        start, end, onward = vs[0].vid, vs[-1].vid, g._adjacency[0]
        moment_text = {vid: texts[v.height] for vid, v in g._by_vid.items()}
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


def _lines(g: DecoratedGraph, walk, relabel=None) -> list[str]:
    """The ledger-free records of a ``_walk`` of ``g``, each class ``c``
    written as ``relabel[c]`` (as itself when ``relabel`` is None).

    The chains are sorted on their records under the relabeling, and the
    vertices are numbered in the sorted chains' order: 0 the start, 1 the
    end, then each interior vertex as its chain reaches it.  Sorting leaves
    ties only between chains whose records, and so whose lines, are equal,
    so the walk's order does not matter.
    """
    start, end, chains, moment_text = walk
    fiber, by_vid = g.fiber, g._by_vid
    if relabel is not None:
        chains = [[(a, b, n, relabel[c]) for a, b, n, c in chain] for chain in chains]
        fiber = relabel[fiber]

    def record(chain) -> list[tuple]:
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


def canonical_text(g: DecoratedGraph) -> str:
    """Deterministic line records: MODEL, OMEGA, V, C/E blocks, FIBER, LEDGER.

    Vertex identity is canonical (0 = minimum, 1 = maximum, then interior
    vertices in chain order), so equal graphs serialize to identical bytes
    regardless of construction history.
    """
    lines = _lines(g, _walk(g, False))
    lines.append("LEDGER " + " ".join(_ledger_texts(g, {})))
    return "\n".join(lines) + "\n"


def parse_graph(text: str, omega: CohomologyVector | None = None) -> DecoratedGraph:
    """Rebuild a graph from its serialized form.

    A graph whose MODEL shape and OMEGA text are ``omega``'s is parsed onto
    ``omega``'s model object and class vector, so graphs parsed with one
    ``omega`` share their classes; any other graph gets a new model and
    vector.

    Raises GraphError, naming the line, on any malformed, unknown or
    repeated record: MODEL, which comes first, OMEGA, FIBER, LEDGER and
    each V index come at most once.  Records are strict: a MODEL record has
    ``k=`` once, and ``genus=`` once on a ruled model; a fat V record has
    ``size=``, ``genus=`` and ``class=`` once each, and an isolated one no
    further word; V indices, E ends, E labels, ``k`` and genera are plain
    ASCII digits.
    Also an error: a moment that is no height over the class vector's
    denominator, a fixed surface whose stated size or genus is not its
    class's area or adjunction genus, and a ledger whose step i of s names
    another class than E(k-s+i).

    A V or E record is a function of its line and the class vector, so the
    vector keeps what each line built once it passed every check
    (``_parsed_records``): the next graph on that vector that holds the line
    reuses the vertex or edge without parsing or checking it again.
    """
    given = omega
    model = omega = None
    verts: dict[int, Vertex] = {}
    edges: list[Edge] = []
    ledger: list[LedgerEntry] = []
    fiber = None
    seen = set()  # of the records a graph holds once
    records: dict = {}  # the class vector's ``_parsed_records`` once OMEGA is read
    for number, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line == "C":
            continue
        parsed = records.get(line)  # (index, Vertex) of a V line, the Edge of an E line
        if parsed is None:
            tag, _, rest = line.partition(" ")
            if tag not in ("MODEL", "OMEGA", "V", "E", "FIBER", "LEDGER"):
                raise GraphError(f"line {number}: unknown record tag {tag!r}")
            if tag in ("MODEL", "OMEGA", "FIBER", "LEDGER"):
                if tag in seen:
                    raise GraphError(f"line {number}: a second {tag} record")
                seen.add(tag)
            if model is None and tag != "MODEL":
                raise GraphError(f"line {number}: {tag} record before the MODEL record")
            if omega is None and tag == "V":
                raise GraphError(f"line {number}: V record before the OMEGA record")
            try:
                if tag == "MODEL":
                    kind, *words = rest.split()
                    keys = ("genus", "k") if kind == RULED else ("k",)
                    opts = dict(w.split("=", 1) for w in words)
                    if len(opts) != len(words) or opts.keys() != set(keys):
                        raise ValueError(f"need {', '.join(k + '=' for k in keys)} once each")
                    if not all(v.isascii() and v.isdigit() for v in opts.values()):
                        raise ValueError(f"{' and '.join(keys)} must be plain numbers")
                    shape = (kind, int(opts["k"]), int(opts.get("genus", 0)))
                    model = None if given is None else given.model
                    if model is None or shape != (model.kind, model.k, model.genus):
                        model = SurfaceModel(*shape)
                elif tag == "OMEGA":
                    if given is not None and model is given.model and rest == str(given):
                        omega = given
                    else:
                        head, _, tail = rest.strip("()").partition(";")
                        entries = [rat(x) for x in head.split(",")]
                        entries += [rat(x) for x in tail.split(",") if x]
                        omega = CohomologyVector(model, tuple(entries))
                    records = omega._parsed_records
                elif tag == "V":
                    idx, moment, kind, *words = rest.split()
                    if not (idx.isascii() and idx.isdigit()):
                        raise ValueError(f"index {idx!r} is not a plain number")
                    idx = int(idx)
                    height = _height(moment, omega.denominator)
                    fat = None
                    if kind == "fat":
                        keys = ("size", "genus", "class")
                        opts = dict(w.split("=", 1) for w in words)
                        if len(opts) != len(words) or opts.keys() != set(keys):
                            raise ValueError(f"need {', '.join(k + '=' for k in keys)} once each")
                        fat, size = model.parse(opts["class"]), rat(opts["size"])
                        area = omega._areas[fat.coeffs]
                        if size.numerator * omega.denominator != area * size.denominator:
                            raise GraphError(f"size {rat_str(size)} is not the area of {fat}")
                        # twice_genus is even: c.c + K.c is, K being characteristic
                        if opts["genus"] != str(fat.twice_genus // 2):
                            raise GraphError(f"genus {opts['genus']} is not the genus of {fat}")
                    elif kind != "isolated":
                        raise ValueError(f"unknown vertex kind {kind!r}")
                    elif words:
                        raise ValueError(f"an isolated vertex has no {words[0]!r}")
                    parsed = (idx, Vertex(f"0.v{idx}", height, fat))
                elif tag == "E":
                    b, t, label, cls = rest.split()
                    if not all(w.isascii() and w.isdigit() for w in (b, t, label)):
                        raise ValueError("ends and label must be plain numbers")
                    parsed = Edge(f"0.v{int(b)}", f"0.v{int(t)}", int(label), model.parse(cls))
                elif tag == "FIBER":
                    fiber = model.parse(rest)
                elif tag == "LEDGER":
                    words = rest.split()
                    first = model.k - len(words)
                    ledger = [LedgerEntry.parse(w, i, first + i) for i, w in enumerate(words, 1)]
            except (ValueError, KeyError, IndexError, ZeroDivisionError) as exc:
                raise GraphError(f"line {number}: malformed {tag} record: {exc}") from None
            if parsed is None:  # MODEL, OMEGA, FIBER or LEDGER
                continue
            records[line] = parsed
        if line[0] == "V":
            idx, vertex = parsed
            if idx in verts:
                raise GraphError(f"line {number}: a second V {idx} record")
            verts[idx] = vertex
        else:
            edges.append(parsed)
    if model is None or omega is None or fiber is None:
        raise GraphError("incomplete graph record")
    return DecoratedGraph.build(omega, verts.values(), edges, ledger, fiber)


def _normal_lines(g: DecoratedGraph, relabelings) -> tuple[DecoratedGraph, bool, list[str]]:
    """The reduced form h of ``g``, and the orientation and ledger-free lines
    of the smallest records of h over every (relabeling, orientation) pair.

    ``relabelings`` are class maps for ``_lines`` (None for the identity).
    h is reduced once and each orientation of h walked at most once, since a
    relabeling moves no vertex, moment or chain.  Every pair's lines open
    with the same MODEL and OMEGA lines, then ``V 0 0`` (h is translated to
    0) and the start vertex's record, then ``V 1 top`` and the end vertex's:
    the minimum and the maximum up, the other way down.  So the pairs whose
    two extremum records are not the smallest cannot win, and only the
    others are written.  Lines hold no newline, which sorts below every
    character they do hold, so the order of line lists is the order of
    their texts.  Of equal lists the first pair wins, the identity's up
    orientation first.
    """
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
                walks[down] = _walk(h, down)
            lines = _lines(h, walks[down], relabel)
            if best is None or lines < best[1]:
                best = down, lines
    return h, *best


def normal_form(g: DecoratedGraph) -> DecoratedGraph:
    """Canonical representative under translation, generic metric, and flip."""
    h, down, _ = _normal_lines(g, (None,))
    return flip(h) if down else h


def normal_key(g: DecoratedGraph, relabelings=(None,)) -> str:
    """The ledger-free records of ``normal_form(g)``, flip never built; given
    class maps for ``_lines``, the smallest such records over them."""
    return "\n".join(_normal_lines(g, relabelings)[2]) + "\n"


def generic_form(g: DecoratedGraph) -> DecoratedGraph:
    """Translate to base level and break non-generic free spheres.

    Unlike ``normal_form`` this keeps redundant edges and the original
    orientation, so it is safe to keep blowing up the result.
    """
    return translate(break_free_edges(g))


def permute_exceptionals(g: DecoratedGraph, perm: dict[int, int]) -> DecoratedGraph:
    """Apply a permutation of exceptional indices of equal size to every class
    in sight; the class vector stays as it is.  GraphError on unequal sizes.

    Dedup keys never build the relabeled graph: they write each class through
    a relabeling's class table.  This is the graph they stand for, which the
    tests compare them against."""
    if not perm:
        return g
    head = g.model.head
    entries = g.omega.entries
    if any(entries[head + i - 1] != entries[head + j - 1] for i, j in perm.items()):
        raise GraphError(f"relabeling {perm} exchanges classes of unequal size")

    def permute_cls(c: HomologyClass) -> HomologyClass:
        coeffs = list(c.coeffs)
        for i, j in perm.items():
            coeffs[head + j - 1] = c.coeffs[head + i - 1]
        return g.model.intern(tuple(coeffs))

    def permute_vertex(v: Vertex) -> Vertex:
        f = v.fat
        if f is None or (cls := permute_cls(f)) is f:
            return v
        return Vertex(v.vid, v.height, cls)

    # Moments and ids stay, so the vertices stay in build order.
    vertices = tuple(map(permute_vertex, g.vertices))
    edges = [Edge(b, t, label, permute_cls(c)) for b, t, label, c in g.edges]
    edges.sort(key=edge_order)
    return DecoratedGraph(g.omega, vertices, tuple(edges), g.ledger, permute_cls(g.fiber))


def render_dot(g: DecoratedGraph) -> str:
    """Deterministic DOT text; byte-identical for equal graphs."""
    lines = canonical_text(g).splitlines()
    out = ["digraph action {", "  rankdir=BT;"]
    for line in lines:
        if line.startswith("MODEL") or line.startswith("OMEGA"):
            out.append(f'  // {line}')
    for line in lines:
        if line.startswith("V "):
            parts = line.split()
            idx, moment, kind = parts[1], parts[2], parts[3]
            if kind == "fat":
                opts = dict(p.split("=", 1) for p in parts[4:])
                label = (
                    f"moment={moment}\\nsize={opts['size']} genus={opts['genus']}"
                    f"\\n{opts['class']}"
                )
                out.append(f'  n{idx} [shape=ellipse, label="{label}"];')
            else:
                out.append(f'  n{idx} [shape=point, xlabel="{moment}"];')
    for line in lines:
        if line.startswith("E "):
            _, b, t, label, cls = line.split()
            out.append(f'  n{b} -> n{t} [label="{label}: {cls}"];')
    out.append("}")
    return "\n".join(out) + "\n"
