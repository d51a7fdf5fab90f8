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

from dataclasses import dataclass
from fractions import Fraction

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


@dataclass(frozen=True)
class BlowupSite:
    kind: str
    vertex: str
    max_admissible: Fraction
    end: str = ""  # 'min' or 'max' for surface/extremum sites


def _site_for_vertex(g: DecoratedGraph, v: Vertex) -> BlowupSite | None:
    """The site at ``v``, or None.  Its bound is the least area of the site's
    classes (a surface's own class, capped by the moment span; an
    extremum's two edges; an interior vertex's edges above and below),
    found in integers over D and made one ``Fraction``."""
    vs, omega = g.vertices, g.omega
    end = "min" if v.vid == vs[0].vid else "max" if v.vid == vs[-1].vid else ""
    if v.fat is not None:
        kind, classes, bound = SURFACE, (v.fat,), vs[-1].height - vs[0].height
    elif end:
        edges = g.edges_above(v.vid) if end == "min" else g.edges_below(v.vid)
        if len(edges) != 2:
            return None
        kind, classes, bound = EXTREMUM, [e.cls for e in edges], None
    else:
        above, below = g.edges_above(v.vid), g.edges_below(v.vid)
        if len(above) != 1 or len(below) != 1:
            return None
        kind, classes, bound = INTERIOR, (above[0].cls, below[0].cls), None
    model, areas = omega.model, omega._areas
    for c in classes:
        if c.model is not model:
            raise LatticeError(f"model mismatch: {model} vs {c.model}")
        area = areas[c.coeffs]
        if bound is None or area < bound:
            bound = area
    return BlowupSite(kind, v.vid, Fraction(bound, omega.denominator), end)


def _site_table(g: DecoratedGraph) -> dict[str, tuple[BlowupSite, int]]:
    """vid -> (site, its bound as an integer over D) for every site of ``g``,
    in ``blowup_sites`` order: by kind, then height and vid.

    A site's kind and bound belong to the graph alone, so the table is made
    on first use and kept, under ``_sites``, until ``graphs._drop_caches``:
    a parent's sites are derived once for all its children.
    """
    table = vars(g).get("_sites")
    if table is None:
        den = g.omega.denominator
        found = []
        for v in g.vertices:
            site = _site_for_vertex(g, v)
            if site is not None:
                bound = site.max_admissible
                found.append((site, bound.numerator * (den // bound.denominator)))
        found.sort(key=lambda entry: entry[0].kind)  # stable: vertices are in (height, vid) order
        table = vars(g)["_sites"] = {site.vertex: (site, bound) for site, bound in found}
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
    return [site for site, bound in _site_table(g).values() if size < bound * q]


def apply_blowup(g: DecoratedGraph, vertex: str, delta) -> DecoratedGraph:
    """Blow ``g`` up by ``delta`` at the site ``vertex``; exact bookkeeping.

    The site's kind, end and bound are read from the graph's site table.
    The new exceptional class Ee is appended to the lattice and the class
    vector; the rewrite follows the local model at the site, written once
    for both ends.  The result always passes validation and pairs Ee to the
    blowup size.
    """
    delta = rat(delta)
    v = g.vertex(vertex)
    entry = _site_table(g).get(v.vid)
    if entry is None:
        raise BlowupError(f"no blowup site at vertex {vertex}")
    site, bound = entry
    if not 0 < delta.numerator * g.omega.denominator < bound * delta.denominator:
        raise BlowupError(
            f"size {delta} not strictly below the bound {site.max_admissible}"
            f" at {site.kind}@{site.vertex}"
        )

    # The child rewrites the parent's extension, which its siblings share and
    # whose classes are already embedded; its class vector's denominator
    # makes the size an integer height w.
    x = g.extend(delta)
    w = delta.numerator * (x.omega.denominator // delta.denominator)
    h = x.vertex(v.vid).height
    Ee = x.model.exceptional(x.model.k)
    step = len(g.ledger) + 1
    fiber = x.fiber
    vertices = [u for u in x.vertices if u.vid != v.vid]
    at_min = site.end == "min"
    sgn = 1 if at_min else -1

    def edge(near, far, label, cls):
        """An edge written from the min end's side: reversed at the max end."""
        return Edge(near, far, label, cls) if at_min else Edge(far, near, label, cls)

    if site.kind == INTERIOR:
        (up,), (down,) = x.edges_above(v.vid), x.edges_below(v.vid)
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

    elif site.kind == SURFACE:
        mid = Vertex(f"{step}.c", h + sgn * w)
        new_vertices = [Vertex(v.vid, h, x.vertex(v.vid).fat - Ee), mid]
        vmin, vmax = g.vertices[0].vid, g.vertices[-1].vid
        new_edges = [
            edge(v.vid, mid.vid, 1, Ee),
            edge(mid.vid, vmax if at_min else vmin, 1, fiber - Ee),
        ]
        # The spawned chain supplants one free max-to-min sphere, if drawn: the
        # one of least class, the first in build order.
        edges = list(x.edges)
        for i, e in enumerate(edges):
            if e.label == 1 and e.bottom == vmin and e.top == vmax:
                del edges[i]
                break

    else:  # EXTREMUM
        incident = x.edges_above(v.vid) if at_min else x.edges_below(v.vid)
        ea, eb = sorted(incident, key=lambda e: -e.label)
        m, n = ea.label, eb.label
        away = (lambda e: e.top) if at_min else (lambda e: e.bottom)
        edges = [e for e in x.edges if v.vid not in (e.bottom, e.top)]
        if m == n:  # both weights 1: the blowup creates a fixed surface
            fatv = Vertex(f"{step}.s", h + sgn * w, Ee)
            new_vertices = [fatv]
            new_edges = [edge(fatv.vid, away(e), 1, e.cls - Ee) for e in (ea, eb)]
        else:
            hi = Vertex(f"{step}.hi", h + sgn * m * w)
            lo = Vertex(f"{step}.lo", h + sgn * n * w)
            new_vertices = [hi, lo]
            new_edges = [
                edge(hi.vid, away(ea), m, ea.cls - Ee),
                edge(lo.vid, hi.vid, m - n, Ee),
                edge(lo.vid, away(eb), n, eb.cls - Ee),
            ]
        fiber = fiber - n * Ee

    # An interior step records the step that made the vertex: its id's head.
    entry = LedgerEntry(site.kind, v.vid.split(".")[0] if site.kind == INTERIOR else site.end)
    out = DecoratedGraph.build(
        x.omega, vertices + new_vertices, edges + new_edges, g.ledger + (entry,), fiber
    )
    problems = validate(out)
    if problems:
        raise BlowupError(f"blowup produced an invalid graph: {problems}")
    return out
