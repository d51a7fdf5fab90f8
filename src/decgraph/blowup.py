"""Equivariant symplectic blowup as a rewrite on decorated graphs.

A blowup of size delta is admissible at a fixed point when the rewritten
graph is again valid: newly created vertices must stay strictly between the
neighbours of the old vertex in its chain, and fixed surfaces must keep
strictly positive size.  All admissibility bounds are strict and exact.

Three site kinds exist, mirroring the three local rewrites:

* ``interior``   -- an isolated fixed point with one edge above and below;
* ``surface``    -- a point on a fixed surface (a fat vertex);
* ``extremum``   -- an isolated extremal fixed point.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass
from fractions import Fraction

from .graphs import (
    DecoratedGraph,
    Edge,
    LedgerEntry,
    Vertex,
    edge_order,
    validate,
    vertex_order,
)
from .lattice import pair, rat

INTERIOR = "interior"
SURFACE = "surface"
EXTREMUM = "extremum"


class BlowupError(ValueError):
    """Raised for inadmissible blowup requests; carries the violated bound."""

    def __init__(self, message, bound=None):
        super().__init__(message)
        self.bound = bound


@dataclass(frozen=True)
class BlowupSite:
    kind: str
    vertex: str
    max_admissible: Fraction
    end: str = ""  # 'min' or 'max' for surface/extremum sites


@dataclass(frozen=True)
class BlowupRequest:
    site: BlowupSite
    delta: Fraction

    def __post_init__(self):
        object.__setattr__(self, "delta", rat(self.delta))


def _inserted(kept: list, new: list, key) -> tuple:
    """``kept``, in build order, with ``new`` inserted where ``build``'s
    stable sort puts them: after every equal key, in the order given."""
    for item in new:
        insort(kept, item, key=key)
    return tuple(kept)


def _site_for_vertex(g: DecoratedGraph, v: Vertex) -> BlowupSite | None:
    vmin, vmax = g.min_vertex, g.max_vertex
    if v.is_fat:
        end = "min" if v.vid == vmin.vid else "max"
        bound = min(pair(g.omega, v.fat), g.span)
        return BlowupSite(SURFACE, v.vid, bound, end)
    if v.vid in (vmin.vid, vmax.vid):
        edges = g.edges_above(v.vid) if v.vid == vmin.vid else g.edges_below(v.vid)
        if len(edges) != 2:
            return None
        bound = min(g.area(e) for e in edges)
        return BlowupSite(EXTREMUM, v.vid, bound, "min" if v.vid == vmin.vid else "max")
    above, below = g.edges_above(v.vid), g.edges_below(v.vid)
    if len(above) != 1 or len(below) != 1:
        return None
    bound = min(g.area(above[0]), g.area(below[0]))
    return BlowupSite(INTERIOR, v.vid, bound)


def blowup_sites(g: DecoratedGraph, delta) -> list[BlowupSite]:
    """Every site whose strict admissibility bound exceeds ``delta``.

    The graph is expected in generic form (no free sphere joining two
    interior fixed points); enumeration maintains this.
    """
    delta = rat(delta)
    if delta <= 0:
        raise BlowupError("blowup size must be positive")
    sites = []
    for v in g.vertices:
        site = _site_for_vertex(g, v)
        if site is not None and delta < site.max_admissible:
            sites.append(site)
    sites.sort(key=lambda s: (s.kind, g.vertex(s.vertex).height, s.vertex))
    return sites


def apply_blowup(g: DecoratedGraph, request: BlowupRequest) -> DecoratedGraph:
    """Rewrite the graph for one equivariant blowup; exact bookkeeping.

    The new exceptional class Ee is appended to the lattice and the class
    vector; the rewrite follows the local models at the chosen site.  The
    result always passes validation and pairs Ee to the blowup size.
    """
    site, delta = request.site, request.delta
    v = g.vertex(site.vertex)
    live = _site_for_vertex(g, v)
    if live is None or live.kind != site.kind:
        raise BlowupError(f"no {site.kind} site at vertex {site.vertex}")
    if not 0 < delta < live.max_admissible:
        raise BlowupError(
            f"size {delta} not strictly below the bound {live.max_admissible}"
            f" at {site.kind}@{site.vertex}",
            bound=live.max_admissible,
        )

    # The child rewrites the parent's extension, which its siblings share:
    # its classes are already embedded and its tuples already in build order.
    # Its class vector's denominator makes the size an integer height w.
    x = g.extend(delta)
    w = delta.numerator * (x.omega.denominator // delta.denominator)
    h = x.vertex(v.vid).height
    e_idx = x.model.k
    Ee = x.model.exceptional(e_idx)
    step = len(g.ledger) + 1
    fiber = x.fiber
    vmin, vmax = g.min_vertex.vid, g.max_vertex.vid
    vertices = [u for u in x.vertices if u.vid != v.vid]

    if site.kind == INTERIOR:
        up = x.edges_above(v.vid)[0]
        down = x.edges_below(v.vid)[0]
        m, n = up.label, down.label
        hi = Vertex(f"{step}.hi", h + m * w)
        lo = Vertex(f"{step}.lo", h - n * w)
        new_vertices = [hi, lo]
        edges = [e for e in x.edges if v.vid not in (e.bottom, e.top)]
        new_edges = [
            Edge(hi.vid, up.top, m, up.cls - Ee),
            Edge(lo.vid, hi.vid, m + n, Ee),
            Edge(down.bottom, lo.vid, n, down.cls - Ee),
        ]
        entry = LedgerEntry(e_idx, INTERIOR, str(v.birth()))

    elif site.kind == SURFACE:
        at_min = site.end == "min"
        mid = Vertex(f"{step}.c", h + w if at_min else h - w)
        new_vertices = [Vertex(v.vid, h, x.vertex(v.vid).fat - Ee), mid]
        opposite = vmax if at_min else vmin
        if at_min:
            new_edges = [
                Edge(v.vid, mid.vid, 1, Ee),
                Edge(mid.vid, opposite, 1, fiber - Ee),
            ]
        else:
            new_edges = [
                Edge(mid.vid, v.vid, 1, Ee),
                Edge(opposite, mid.vid, 1, fiber - Ee),
            ]
        # The spawned chain supplants one free max-to-min sphere, if drawn: the
        # one of least class, the first in build order.
        edges = list(x.edges)
        for i, e in enumerate(edges):
            if e.label == 1 and e.bottom == vmin and e.top == vmax:
                del edges[i]
                break
        entry = LedgerEntry(e_idx, SURFACE, site.end)

    else:  # EXTREMUM
        at_min = site.end == "min"
        incident = x.edges_above(v.vid) if at_min else x.edges_below(v.vid)
        ea, eb = sorted(incident, key=lambda e: -e.label)
        m, n = ea.label, eb.label
        away = (lambda e: e.top) if at_min else (lambda e: e.bottom)
        sgn = 1 if at_min else -1
        edges = [e for e in x.edges if v.vid not in (e.bottom, e.top)]
        if m == n:  # both weights 1: the blowup creates a fixed surface
            fatv = Vertex(f"{step}.s", h + sgn * w, Ee)
            new_vertices = [fatv]
            new_edges = [
                Edge(fatv.vid, away(e), 1, e.cls - Ee) if at_min
                else Edge(away(e), fatv.vid, 1, e.cls - Ee)
                for e in (ea, eb)
            ]
        else:
            hi = Vertex(f"{step}.hi", h + sgn * m * w)
            lo = Vertex(f"{step}.lo", h + sgn * n * w)
            new_vertices = [hi, lo]
            if at_min:
                new_edges = [
                    Edge(hi.vid, away(ea), m, ea.cls - Ee),
                    Edge(lo.vid, hi.vid, m - n, Ee),
                    Edge(lo.vid, away(eb), n, eb.cls - Ee),
                ]
            else:
                new_edges = [
                    Edge(away(ea), hi.vid, m, ea.cls - Ee),
                    Edge(hi.vid, lo.vid, m - n, Ee),
                    Edge(away(eb), lo.vid, n, eb.cls - Ee),
                ]
        fiber = fiber - n * Ee
        entry = LedgerEntry(e_idx, EXTREMUM, site.end)

    out = DecoratedGraph(
        x.omega,
        _inserted(vertices, new_vertices, vertex_order),
        _inserted(edges, new_edges, edge_order),
        g.ledger + (entry,),
        fiber,
    )
    problems = validate(out)
    if problems:
        raise BlowupError(
            f"blowup produced an invalid graph: {problems}", bound=live.max_admissible
        )
    return out
