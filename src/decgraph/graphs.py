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
from dataclasses import dataclass, field
from operator import add, attrgetter, itemgetter
from typing import NamedTuple

from .lattice import (
    RATIONAL,
    RULED,
    CohomologyVector,
    HomologyClass,
    SurfaceModel,
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


edge_order = attrgetter("cls.coeffs", "label", "bottom", "top")  # of ``DecoratedGraph.edges``


INTERIOR = "interior"  # the blowup site kinds a ledger records (see ``blowup``)
SURFACE = "surface"
EXTREMUM = "extremum"


class LedgerEntry(NamedTuple):  # what one step did; its class is its position
    kind: str  # INTERIOR | SURFACE | EXTREMUM
    detail: str  # 'min'/'max' for surface/extremum, birth step for interior

    @staticmethod
    def parse(text: str, step: int) -> "LedgerEntry":
        """The entry of step ``step``: an end or an earlier birth.  The word's
        class name is not read; ``parse_graph`` writes it back from the position."""
        _, kind, detail = text.split(":")
        if kind == INTERIOR:
            details = [str(birth) for birth in range(step)]
        elif kind in (SURFACE, EXTREMUM):
            details = ["min", "max"]
        else:
            raise ValueError(f"step {step}: unknown blowup kind {kind!r}")
        if detail not in details:
            raise ValueError(f"step {step}: {kind} detail {detail!r} is not one of {details}")
        return LedgerEntry(kind, detail)


def _ledger_texts(ledger, k: int, texts: dict) -> list[str]:
    """The words of a LEDGER record: step i of s on k classes made E(k-s+i).
    ``texts`` maps each (index, entry) to its word, shared by the ledgers it writes."""
    words = []
    for key in enumerate(ledger, start=k - len(ledger) + 1):
        if key not in texts:
            index, (kind, detail) = key
            texts[key] = f"E{index}:{kind}:{detail}"
        words.append(texts[key])
    return words


@dataclass(slots=True, unsafe_hash=True)
class DecoratedGraph:
    """An immutable decorated graph: its five values, to which no code stores
    (``tests/test_source_rules.py``), make its equality, hash and repr.

    ``vertices`` hold their moments as heights over ``omega.denominator``
    and are sorted by (height, vid), as ``build`` makes them, so the extrema
    are the first and the last vertex.  Its index (``_build_index``), its
    latest extension and its blowup sites are made on first use and kept in
    the slots after its values until ``_drop_caches``.
    """

    omega: CohomologyVector
    vertices: tuple[Vertex, ...]
    edges: tuple[Edge, ...]
    ledger: tuple[LedgerEntry, ...]
    fiber: HomologyClass  # class of a generic free sphere joining the extrema
    _index: tuple | None = field(default=None, init=False, repr=False, compare=False)
    _extension: tuple | None = field(default=None, init=False, repr=False, compare=False)
    _sites: dict | None = field(default=None, init=False, repr=False, compare=False)

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
        grow with it.  This graph holds its latest extension in ``_extension``
        until ``_drop_caches``, as the tuple (size, extension, ...): a repeated
        call finds it by the size's identity, hashing no ``Fraction``, and a
        call at another size replaces it.  ``blowup.apply_blowup`` extends the
        tuple, on the first blowup at a size, with what every blowup of this
        graph at that size shares: the extension's index, the size in
        integers, E_k and the step's vertex ids, among others.
        """
        delta = rat(delta)
        held = self._extension
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
        self._extension = (delta, out)
        return out

    def _build_index(self) -> tuple[dict, dict, dict]:
        """vid -> vertex (the first of an id wins), vid -> the edges above it
        and vid -> the edges below it, built in one pass and kept in ``_index``.
        Readers take ``g._index or g._build_index()``."""
        by_vid, above, below = {}, {}, {}
        for v in reversed(self.vertices):
            by_vid[v.vid] = v
        for e in self.edges:
            bottom, top, _, _ = e
            above[bottom] = above.get(bottom, ()) + (e,)
            below[top] = below.get(top, ()) + (e,)
        index = self._index = by_vid, above, below
        return index

    def vertex(self, vid: str) -> Vertex:
        try:
            return (self._index or self._build_index())[0][vid]
        except KeyError:
            raise GraphError(f"no vertex {vid!r}") from None


def _drop_caches(g: DecoratedGraph) -> None:
    """Release every cache slot: no value changes, a query rebuilds it.

    The enumeration calls this once a graph is keyed or expanded, and the
    export once its file is written, so that a held graph is only its values.
    """
    g._index = g._extension = g._sites = None


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

    known, above, below = g._index or g._build_index()
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
        if areas[c] <= 0:
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
        if gap != label * areas[cls]:
            bad.append(f"edge {cls}({label}) breaks the area rule (gap != label * area)")
        if cls.twice_genus != 0:
            bad.append(f"edge {cls}({label}) class is not an embedded-sphere class")
        if label != 1 and (vb.fat is not None or vt.fat is not None):
            bad.append(f"edge {cls}({label}) touches a fixed surface with label > 1")

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


def _base(omega: CohomologyVector, ends, chains) -> DecoratedGraph:
    """The base graph on ``omega`` whose chains run from the minimum to the
    maximum, each a list of (label, class) steps, and whose extrema carry the
    fixed-surface classes ``ends`` (None at an isolated point).

    The minimum sits at 0 and each later vertex by the area rule; the
    interior vertices are named 0.a, 0.b, ... as the chains reach them, and
    the fiber is the chains' common sum, label times class.  GraphError if
    the chains end at different heights or sum to different classes.
    """
    areas, names = omega._areas, iter("abcdefghijklmnopqrstuvwxyz")
    vertices, edges, tops = [], [], set()
    for chain in chains:
        near, height, total = "0.min", 0, omega.model.zero()
        for i, (label, cls) in enumerate(chain, start=1):
            height += label * areas[cls]
            total += label * cls
            far = "0.max" if i == len(chain) else f"0.{next(names)}"
            if far != "0.max":
                vertices.append(Vertex(far, height))
            edges.append(Edge(near, far, label, cls))
            near = far
        tops.add((height, total))
    if len(tops) != 1:
        raise GraphError("the chains end at different heights or sum to different classes")
    ((top, fiber),) = tops
    low, high = ends
    vertices += [Vertex("0.min", 0, low), Vertex("0.max", top, high)]
    return DecoratedGraph.build(omega, vertices, edges, [], fiber)


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
    iso = None, None  # the extrema of an all-isolated base
    ends, chains = {
        "two_surfaces": ((riser, coriser), [[(1, fib)], [(1, fib)]]),
        "one_surface": ((fib, None), [[(1, coriser), (n, fib)], [(1, riser)]]),
        "isolated_left": (iso, [[(d, fib), (c, riser)], [(c, coriser), (n * c + d, fib)]]),
        "isolated_right": (iso, [[(d, fib), (c, coriser), (n * c - d, fib)], [(c, riser)]]),
    }[params.family]
    return _base(omega, ends, chains)


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
    return _base(omega, (B - ell * F, B + ell * F), [[(1, F)]])


# ---------------------------------------------------------------------------
# canonical form


def _chain_sum(g: DecoratedGraph, e: Edge, up: bool) -> tuple[int, ...]:
    """Label times class, summed in integer coefficients over ``e`` and the
    chain beyond it up to the maximum (if ``up``) or down to the minimum;
    every fixed surface is an extremum.  GraphError where the chain forks,
    stops short or runs round a cycle."""
    _, above, below = g._index or g._build_index()
    if up:
        end, onward, far = g.vertices[-1].vid, above, 1
    else:
        end, onward, far = g.vertices[0].vid, below, 0
    start, label = e[far], e.label
    total = [label * c for c in e.cls.coeffs]
    for _ in range(len(g.edges)):  # a chain holds each edge at most once
        vid = e[far]
        if vid == end:
            return tuple(total)
        try:
            (e,) = onward[vid]
        except (KeyError, ValueError):
            raise GraphError(f"vertex {vid} has no unique chain continuation") from None
        label = e.label
        total = [t + label * c for t, c in zip(total, e.cls.coeffs)]
    raise GraphError(f"the chain through vertex {start} runs round a cycle")


def break_free_edges(g: DecoratedGraph) -> DecoratedGraph:
    """Rewire every label-1 edge joining two interior fixed points.

    A generic invariant metric admits no free sphere with both poles at
    interior fixed points; such an edge splits into a free sphere from the
    lower pole to the maximum and one from the minimum to the upper pole.
    Classes follow conservation of the weighted chain sum.
    """
    while True:
        vmin, vmax = g.vertices[0], g.vertices[-1]
        ends = vmin.vid, vmax.vid
        for target in g.edges:
            bottom, top, label, _ = target
            if label == 1 and bottom not in ends and top not in ends:
                by_vid = (g._index or g._build_index())[0]
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

    The edges are scanned for one before any is copied: returns ``g``
    itself, with its index, when there is none to drop.
    """
    vmin, vmax = g.vertices[0].vid, g.vertices[-1].vid
    for bottom, top, label, _ in g.edges:
        if top == vmax and bottom == vmin and label == 1:
            break
    else:
        return g
    edges = tuple(
        e
        for e in g.edges
        if not (e.label == 1 and e.bottom == vmin and e.top == vmax)
    )
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
    for readers; ``parse_graph`` reads only the class and accepts the record
    only if this text, written back, is the one it read.  Each class's
    record is written once per class vector and kept on it.
    """
    if c is None:
        return "isolated"
    records = omega._fixed_records
    text = records.get(c)
    if text is None:
        size = omega._moment_texts[omega._areas[c]]
        text = records[c] = f"fat size={size} genus={c.twice_genus // 2} class={c.text}"
    return text


def _walk(g: DecoratedGraph, down: bool):
    """The chains of ``g`` (up) or of ``flip(g)`` (down), read from ``g``'s
    own index without building the flip.

    Up starts at the minimum and walks the edges above each vertex.  Down
    starts at the maximum, walks the edges below each vertex with the near
    and far ends of each edge swapped, and writes each moment as ``top - m``,
    where ``top`` is the maximum moment.  Returns the start and the end as
    (id, moment text, fixed-surface class), and the chains walked away from
    the start, each step as (far end's id, its moment text, label, class,
    its fixed-surface class): classes as they are, for any relabeling.
    """
    vs, texts = g.vertices, g.omega._moment_texts
    by_vid, above, below = g._index or g._build_index()
    if down:
        first, last, onward, side, top, sign = vs[-1], vs[0], below, 0, vs[-1].height, -1
    else:
        first, last, onward, side, top, sign = vs[0], vs[-1], above, 1, 0, 1
    end, most = last.vid, range(len(g.edges))  # a chain holds each edge at most once
    chains = []
    for e in onward.get(first.vid, ()):
        chain = []
        for _ in most:
            far = e[side]
            try:
                v = by_vid[far]
            except KeyError:
                raise GraphError(f"no vertex {far!r}") from None
            chain.append((far, texts[top + sign * v.height], e.label, e.cls, v.fat))
            if far == end:
                break
            try:
                (e,) = onward[far]
            except (KeyError, ValueError):
                raise GraphError("cannot serialize: broken chain structure") from None
        else:  # round a cycle
            raise GraphError("cannot serialize: broken chain structure")
        chains.append(chain)
    if sum(map(len, chains)) != len(g.edges):
        raise GraphError("cannot serialize: edges outside min-to-max chains")
    ends = [(v.vid, texts[top + sign * v.height], v.fat) for v in (by_vid[first.vid], by_vid[end])]
    return ends, chains


def _lines(g: DecoratedGraph, walk, relabel=None) -> list[str]:
    """The ledger-free records of a ``_walk`` of ``g``, each class ``c``
    written as ``relabel[c]`` (as itself when ``relabel`` is None).

    The chains are sorted on (moment text, label, coefficients) per step
    under the relabeling: every chain leaves one start, so this is the order
    of their (near, far, label, class) records, and it leaves ties only
    between chains whose lines are equal.  One pass then numbers each vertex
    (0 the start, 1 the end, then as its chain reaches it), writing its V
    line, and writes the E lines.  MODEL and OMEGA are the vector's one text.
    """
    ends, chains = walk
    fiber, omega = g.fiber, g.omega
    if relabel is not None:
        fixed = lambda f: f if f is None else relabel[f]
        chains = [[(far, t, n, relabel[c], fixed(f)) for far, t, n, c, f in ch] for ch in chains]
        ends = [(vid, text, fixed(f)) for vid, text, f in ends]
        fiber = relabel[fiber]
    index = {}
    lines = [omega._head_lines]  # then each V record, its index len(lines) - 1
    add = lines.append
    for vid, text, fat in ends:
        index[vid] = i = str(len(lines) - 1)
        add(f"V {i} {text} {_fixed_record(fat, omega)}")
    edges = []
    put = edges.append
    record = lambda chain: [(text, label, c.coeffs) for _, text, label, c, _ in chain]
    for chain in sorted(chains, key=record):
        put("C")
        near = index[ends[0][0]]
        for far, text, label, c, fat in chain:
            i = index.get(far)
            if i is None:
                i = index[far] = str(len(lines) - 1)
                add(f"V {i} {text} {_fixed_record(fat, omega)}")
            put(f"E {near} {i} {label} {c.text}")
            near = i
    lines += edges
    lines.append(f"FIBER {fiber.text}")
    return lines


def canonical_text(g: DecoratedGraph) -> str:
    """Deterministic line records: MODEL, OMEGA, V, C/E blocks, FIBER, LEDGER.

    Vertex identity is canonical (0 = minimum, 1 = maximum, then interior
    vertices in chain order), so equal graphs serialize to identical bytes
    regardless of construction history.
    """
    lines = _lines(g, _walk(g, False))
    lines.append("LEDGER " + " ".join(_ledger_texts(g.ledger, g.model.k, {})))
    return "\n".join(lines) + "\n"


_ORDER = ("MODEL", "OMEGA", "V", "C", "FIBER", "LEDGER")  # the writer's order; E goes with C
_RANKS = {tag: rank for rank, tag in enumerate(_ORDER)} | {"E": 3}
_ONCE = frozenset({0, 1, 4, 5})  # the ranks of the records a graph holds once
_BLOCK = (3,)  # what a C line parses to


def _misplaced(number: int, line: str, rank: int, stage: int, seen: bool) -> GraphError:
    """The error of a record of ``rank`` in ``_ORDER`` after one of rank
    ``stage`` (-1 at the first line); ``seen`` if it is a second one."""
    tag = line.partition(" ")[0]
    if seen:
        return GraphError(f"line {number}: a second {tag} record")
    if rank < stage:
        return GraphError(f"line {number}: {tag} record after the {_ORDER[stage]} record")
    return GraphError(f"line {number}: {tag} record before the {_ORDER[stage + 1]} record")


def parse_graph(text: str, omega: CohomologyVector | None = None) -> DecoratedGraph:
    """Rebuild a graph from its serialized form.

    A graph whose MODEL shape and OMEGA text are ``omega``'s is parsed onto
    ``omega``'s model object and class vector, so graphs parsed with one
    ``omega`` share their classes; any other graph gets a new model and
    vector.

    A graph file is its own canonical text.  A record is accepted only if
    writing back what was parsed from it gives the line as written, from the
    tables ``canonical_text`` writes from.  So a number with a ``+``, a
    ``_``, a leading zero or a non-ASCII digit, a repeated, missing or
    unknown key, a fixed surface's size or genus other than its class's, a
    ledger step that names another class than the one its position made and
    a space more or less are all refused, as is any other spelling.

    The lines are laid out as the writer lays them out, which a line alone
    cannot show: each ends in a newline and none is blank.  The records come
    in the order MODEL, OMEGA, the V records, the C blocks, FIBER, LEDGER,
    and each of MODEL, OMEGA, FIBER and LEDGER once.  V i is the i-th V
    record.  Each C block's E records link end to end from V 0 to V 1, and
    each reaches V 1 or the next vertex that no E record has reached, until
    every V record is reached.  Each block's (moment text, label, coefficients)
    per step, the order ``_lines`` sorts on, is not smaller than the previous
    block's, and its sum of label times class is FIBER's class.

    Raises GraphError, naming the line, on any record or layout that breaks
    these rules, on a moment that is no height over the class vector's
    denominator and on a ledger step whose kind or detail no blowup makes.

    A record is a function of its line and the class vector, so the vector
    keeps what a line built once it passed its own checks
    (``_parsed_records``): the MODEL line that names the vector's model, its
    OMEGA line, each V, E and FIBER line read on it, and each ledger step
    word, keyed by (step, steps, word).  The next graph on that vector that
    holds the line or word reuses what it built, parsing and checking it no
    more; the layout rules run on every line, kept or not.
    """
    given = omega
    model = omega = fiber = ledger = None
    verts: list[Vertex] = []  # V i is the i-th V record, its moment text moments[i]
    moments: list[str] = []
    edges, sums = [], []  # the E records' edges and each closed C block's weighted sum
    stage = -1  # the rank in _ORDER of the last record
    at = None  # the vertex that the open C block's chain has reached; None before one
    reached = 2  # the next vertex an E record reaches; V 0 and V 1 are the ends
    block = above = []  # the open and the previous block's per-step records
    records = {} if given is None else given._parsed_records  # then the vector's
    *lines, end = text.split("\n")  # end is empty where the last line ends in a newline
    for number, line in enumerate(lines, start=1):
        parsed = records.get(line)
        if parsed is None:
            if line == "C":
                parsed = _BLOCK
            else:
                tag, _, rest = line.partition(" ")
                rank = _RANKS.get(tag)
                if rank is None:
                    what = f"unknown record tag {tag!r}" if line else "a blank line"
                    raise GraphError(f"line {number}: {what}")
        if parsed is not None:
            rank = parsed[0]
        if rank != stage or rank in _ONCE:
            seen = (model, omega, None, None, fiber, ledger)[rank] is not None
            if seen or rank < stage or (stage < 1 and rank > stage + 1):
                raise _misplaced(number, line, rank, stage, seen)
            stage = rank
        if parsed is None:  # a line that the table does not hold
            keep = True
            try:
                if tag == "MODEL":
                    kind, *words = rest.split()
                    opts = dict(w.split("=", 1) for w in words)
                    shape = (kind, int(opts["k"]), int(opts.get("genus", 0)))
                    model = None if given is None else given.model
                    if model is None or shape != (model.kind, model.k, model.genus):
                        model = SurfaceModel(*shape)
                        keep = False
                    parsed, written = (0, model), str(model)
                elif tag == "OMEGA":
                    if given is not None and model is given.model and rest == str(given):
                        omega = given
                    else:
                        head, _, tail = rest.strip("()").partition(";")
                        entries = [rat(x) for x in head.split(",")]
                        entries += [rat(x) for x in tail.split(",") if x]
                        omega = CohomologyVector(model, tuple(entries))
                        keep = False
                    parsed, written = (1, omega), str(omega)
                elif tag == "V":
                    idx, moment, kind, *words = rest.split()
                    fat = None
                    if kind == "fat":
                        fat = model.parse(dict(w.split("=", 1) for w in words)["class"])
                    idx, height = int(idx), _height(moment, omega.denominator)
                    moment = omega._moment_texts[height]
                    parsed = (2, idx, Vertex(f"0.v{idx}", height, fat), moment)
                    written = f"{idx} {moment} {_fixed_record(fat, omega)}"
                elif tag == "E":
                    b, t, label, cls = rest.split()
                    b, t, label, cls = int(b), int(t), int(label), model.parse(cls)
                    edge = Edge(f"0.v{b}", f"0.v{t}", label, cls)
                    term = tuple(label * c for c in cls.coeffs)
                    parsed = (3, b, t, (label, cls.coeffs), edge, term)
                    written = f"{b} {t} {label} {cls.text}"
                elif tag == "C":  # "C " or "C x"
                    parsed, written, keep = _BLOCK, "", False
                elif tag == "FIBER":
                    fiber = model.parse(rest)
                    parsed, written = (4, fiber), fiber.text
                else:  # LEDGER: the table keeps its step words, not the line
                    keep, words = False, rest.split(" ")
                    try:
                        entries = [records[i, len(words), w] for i, w in enumerate(words, 1)]
                    except KeyError:  # a word the table lacks: the whole line is parsed
                        entries = [LedgerEntry.parse(w, i) for i, w in enumerate(rest.split(), 1)]
                        words = _ledger_texts(entries, model.k, {})
                        if " ".join(words) == rest:
                            for i, (word, entry) in enumerate(zip(words, entries), start=1):
                                records[i, len(words), word] = entry
                    parsed, written = (5, tuple(entries)), " ".join(words)
                if written != rest:
                    raise ValueError(f"{rest!r} is written {written!r}")
                whole = "C" if tag == "C" else f"{tag} {written}"  # not "C " or "LEDGER"
                if line != whole:
                    raise ValueError(f"{line!r} is written {whole!r}")
            except (ValueError, KeyError, IndexError, ZeroDivisionError) as exc:
                raise GraphError(f"line {number}: malformed {tag} record: {exc}") from None
            if keep:
                records[line] = parsed
        if rank == 2:  # V
            _, idx, vertex, moment = parsed
            if idx != len(verts):
                raise GraphError(f"line {number}: V {idx} record where V {len(verts)} comes")
            verts.append(vertex)
            moments.append(moment)
        elif rank == 3:  # C or E
            if parsed is _BLOCK:
                if at is not None and at != 1:
                    raise GraphError(f"line {number}: the C block above ends at V {at}, not V 1")
                at, block = 0, []
                continue
            _, b, t, step, edge, term = parsed
            if at is None:
                raise GraphError(f"line {number}: E record outside a C block")
            if b != at or at == 1:
                raise GraphError(f"line {number}: E record from V {b}, its chain at V {at}")
            try:
                block.append((moments[t], step))
            except IndexError:
                raise GraphError(f"line {number}: E record to V {t}, no V record") from None
            total = term if at == 0 else tuple(map(add, total, term))
            if t == 1:
                if block < above:
                    raise GraphError(f"line {number}: C block that sorts before the one above")
                above = block
                sums.append(total)
            elif t == reached:
                reached += 1
            else:
                raise GraphError(f"line {number}: E record to V {t}, not V {reached} or V 1")
            at = t
            edges.append(edge)
        elif rank == 0:  # MODEL
            model = parsed[1]
            if given is None or model is not given.model:
                records = {}
        elif rank == 1:  # OMEGA
            omega = parsed[1]
            records = omega._parsed_records
        elif rank == 4:  # FIBER
            if at is not None and at != 1:
                raise GraphError(f"line {number}: the C block above ends at V {at}, not V 1")
            fiber = parsed[1]
            for total in sums:
                if total != fiber.coeffs:
                    raise GraphError(f"FIBER {fiber} is not the chain sum {model.intern(total)}")
        else:  # LEDGER
            ledger = parsed[1]
    if end:
        raise GraphError(f"line {len(lines) + 1}: no newline at the end")
    if fiber is None or ledger is None:  # each comes after MODEL and OMEGA
        raise GraphError("incomplete graph record")
    if reached != len(verts):
        raise GraphError(f"{len(verts)} V records, where the C blocks reach {reached} vertices")
    return DecoratedGraph.build(omega, verts, edges, ledger, fiber)


def _normal_lines(g: DecoratedGraph, relabelings) -> tuple[DecoratedGraph, bool, list[str]]:
    """The reduced form h of ``g``, and the orientation and ledger-free lines
    of the smallest records of h over every (relabeling, orientation) pair.

    ``relabelings`` are class maps for ``_lines`` (None for the identity).
    h is reduced once and each orientation walked at most once.  Every
    pair's lines open with one MODEL and OMEGA text, then ``V 0 0`` with the
    start's record and ``V 1 top`` with the end's, so only the pairs whose
    two extremum records are the smallest are written: with the identity
    alone and unequal records, one orientation.  The other lines hold no
    newline, which sorts below every character they hold, so lists order as
    their texts.  Of equal lists the first pair wins, identity up first.
    """
    h = translate(strip_redundant(break_free_edges(g)))
    omega, ends = h.omega, (h.vertices[0].fat, h.vertices[-1].fat)
    pairs = []  # (extremum records, down, relabeling) of each pair
    for relabel in relabelings:
        low, high = ends if relabel is None else (None if c is None else relabel[c] for c in ends)
        a, b = _fixed_record(low, omega), _fixed_record(high, omega)
        pairs += [((a, b), False, relabel), ((b, a), True, relabel)]
    first = min(head for head, _, _ in pairs)
    walks, best = {}, None
    for head, down, relabel in pairs:
        if head == first:
            walk = walks[down] = walks.get(down) or _walk(h, down)
            lines = _lines(h, walk, relabel)
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
