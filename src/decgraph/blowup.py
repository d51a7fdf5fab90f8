"""Equivariant symplectic blowup as a rewrite on decorated graphs.

A blowup of size delta is admissible at a fixed point when the rewritten
graph is again valid: newly created vertices must stay strictly between the
neighbours of the old vertex in its chain, and fixed surfaces must keep
strictly positive size.  All admissibility bounds are strict and exact.

Three site kinds exist, with four local rewrites:

* ``interior``   -- an isolated fixed point with one edge above and below;
* ``surface``    -- a point on a fixed surface (a fat vertex);
* ``extremum``   -- an isolated extremal fixed point, which makes a fixed
  surface when both its weights are 1 and a chain otherwise.

A surface or extremum site lies at the min or the max end; each of its
rewrites is written once, for the min end, and mirrored at the max end.
"""

from __future__ import annotations

from typing import NamedTuple

from .graphs import (
    EXTREMUM,
    INTERIOR,
    SURFACE,
    DecoratedGraph,
    Edge,
    LedgerEntry,
    Vertex,
    validate,
)
from .lattice import LatticeError, rat


class BlowupError(ValueError):
    """Raised for an inadmissible blowup; the message names the violated bound."""


class BlowupSite(NamedTuple):
    """A site's kind and vertex, and its strict bound ``bound / D``, D the
    denominator of its graph's class vector."""

    kind: str
    vertex: str
    bound: int
    end: str = ""  # 'min' or 'max' for surface/extremum sites


def _site_for_vertex(g: DecoratedGraph, v: Vertex) -> BlowupSite | None:
    """The site at ``v``, or None.  Its bound is the least area of the site's
    classes (a surface's own class, capped by the moment span; an
    extremum's two edges; an interior vertex's edges above and below),
    an integer over D."""
    vs, omega = g.vertices, g.omega
    _, above, below = g._index or g._build_index()
    end = "min" if v.vid == vs[0].vid else "max" if v.vid == vs[-1].vid else ""
    if v.fat is not None:
        kind, classes, bound = SURFACE, (v.fat,), vs[-1].height - vs[0].height
    elif end:
        edges = (above if end == "min" else below).get(v.vid, ())
        if len(edges) != 2:
            return None
        kind, classes, bound = EXTREMUM, [e.cls for e in edges], None
    else:
        up, down = above.get(v.vid, ()), below.get(v.vid, ())
        if len(up) != 1 or len(down) != 1:
            return None
        kind, classes, bound = INTERIOR, (up[0].cls, down[0].cls), None
    model, areas = omega.model, omega._areas
    for c in classes:
        if c.model is not model:
            raise LatticeError(f"model mismatch: {model} vs {c.model}")
        area = areas[c]
        if bound is None or area < bound:
            bound = area
    return BlowupSite(kind, v.vid, bound, end)


def _site_table(g: DecoratedGraph) -> dict[str, BlowupSite]:
    """vid -> site for every site of ``g``, in ``blowup_sites`` order: by
    kind, then height and vid.

    A site's kind and bound belong to the graph alone, so the table is made
    on first use and kept in its ``_sites`` slot until ``graphs._drop_caches``:
    a parent's sites are derived once for all its children.
    """
    table = g._sites
    if table is None:
        sites = [site for v in g.vertices if (site := _site_for_vertex(g, v)) is not None]
        sites.sort(key=lambda site: site.kind)  # stable: vertices are in (height, vid) order
        table = g._sites = {site.vertex: site for site in sites}
    return table


def blowup_sites(g: DecoratedGraph, delta) -> list[BlowupSite]:
    """Every site whose strict admissibility bound exceeds ``delta``.

    The graph is expected in generic form (no free sphere joining two
    interior fixed points); enumeration maintains this.
    """
    delta = rat(delta)
    if delta <= 0:
        raise BlowupError("blowup size must be positive")
    # delta = p/q lies below a bound b/D exactly when p * D < b * q.
    size, q = delta.numerator * g.omega.denominator, delta.denominator
    return [site for site in _site_table(g).values() if size < site.bound * q]


def apply_blowup(g: DecoratedGraph, vertex: str, delta) -> DecoratedGraph:
    """Blow ``g`` up by ``delta`` at the site ``vertex``; exact bookkeeping.

    The site's kind, end and bound are read from the graph's site table.
    The new exceptional class Ee is appended to the lattice and the class
    vector; the rewrite follows the local model at the site, written once
    for both ends.  The result always passes validation and pairs Ee to the
    blowup size; its ledger step and new vertex ids are the run's (``_steps``).
    """
    delta = rat(delta)
    v = g.vertex(vertex)
    site = _site_table(g).get(v.vid)
    if site is None:
        raise BlowupError(f"no blowup site at vertex {vertex}")
    if not 0 < delta.numerator * g.omega.denominator < site.bound * delta.denominator:
        raise BlowupError(
            f"size {delta} not strictly below the bound {g.omega._moment_texts[site.bound]}"
            f" at {site.kind}@{site.vertex}"
        )

    # The child rewrites the parent's extension, which its siblings share and
    # whose classes are already embedded; its class vector's denominator
    # makes the size an integer height w.
    x = g.extend(delta)
    w = delta.numerator * (x.omega.denominator // delta.denominator)
    by_vid, above, below = x._index or x._build_index()
    h = by_vid[v.vid].height
    Ee, less = x.model.exceptional(x.model.k), x.model._less_last  # c -> c - Ee
    step = len(g.ledger) + 1
    steps = x.model._steps  # the run's ledger steps, keyed by themselves, and ids
    named = lambda suffix: steps.setdefault((step, suffix), f"{step}.{suffix}")
    fiber = x.fiber
    vertices = [u for u in x.vertices if u.vid != v.vid]
    at_min = site.end == "min"
    sgn = 1 if at_min else -1

    def edge(near, far, label, cls):
        """An edge written from the min end's side: reversed at the max end."""
        return Edge(near, far, label, cls) if at_min else Edge(far, near, label, cls)

    if site.kind == INTERIOR:
        (up,), (down,) = above[v.vid], below[v.vid]
        m, n = up.label, down.label
        hi = Vertex(named("hi"), h + m * w)
        lo = Vertex(named("lo"), h - n * w)
        new_vertices = [hi, lo]
        edges = [e for e in x.edges if e is not up and e is not down]
        new_edges = [
            Edge(hi.vid, up.top, m, less[up.cls]),
            Edge(lo.vid, hi.vid, m + n, Ee),
            Edge(down.bottom, lo.vid, n, less[down.cls]),
        ]

    elif site.kind == SURFACE:
        mid = Vertex(named("c"), h + sgn * w)
        new_vertices = [Vertex(v.vid, h, less[by_vid[v.vid].fat]), mid]
        vmin, vmax = g.vertices[0].vid, g.vertices[-1].vid
        new_edges = [
            edge(v.vid, mid.vid, 1, Ee),
            edge(mid.vid, vmax if at_min else vmin, 1, less[fiber]),
        ]
        # The spawned chain supplants one free max-to-min sphere, if drawn: the
        # one of least class, the first in build order.
        edges = list(x.edges)
        for i, e in enumerate(edges):
            if e.label == 1 and e.bottom == vmin and e.top == vmax:
                del edges[i]
                break

    else:  # EXTREMUM
        incident = (above if at_min else below)[v.vid]
        ea, eb = sorted(incident, key=lambda e: -e.label)
        m, n = ea.label, eb.label
        away = (lambda e: e.top) if at_min else (lambda e: e.bottom)
        edges = [e for e in x.edges if e is not ea and e is not eb]
        if m == n:  # both weights 1: the blowup creates a fixed surface
            fatv = Vertex(named("s"), h + sgn * w, Ee)
            new_vertices = [fatv]
            new_edges = [edge(fatv.vid, away(e), 1, less[e.cls]) for e in (ea, eb)]
        else:
            hi = Vertex(named("hi"), h + sgn * m * w)
            lo = Vertex(named("lo"), h + sgn * n * w)
            new_vertices = [hi, lo]
            new_edges = [
                edge(hi.vid, away(ea), m, less[ea.cls]),
                edge(lo.vid, hi.vid, m - n, Ee),
                edge(lo.vid, away(eb), n, less[eb.cls]),
            ]
        fiber = fiber - n * Ee

    # An interior step records the step that made the vertex: its id's head.
    entry = LedgerEntry(site.kind, v.vid.split(".")[0] if site.kind == INTERIOR else site.end)
    entry = steps.setdefault(entry, entry)
    out = DecoratedGraph.build(
        x.omega, vertices + new_vertices, edges + new_edges, g.ledger + (entry,), fiber
    )
    problems = validate(out)
    if problems:
        raise BlowupError(f"blowup produced an invalid graph: {problems}")
    return out
