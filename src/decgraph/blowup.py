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

from dataclasses import dataclass
from fractions import Fraction

from .graphs import (
    DecoratedGraph,
    Edge,
    FatData,
    GraphError,
    LedgerEntry,
    Vertex,
    validate,
)
from .lattice import HomologyClass, pair, rat, rat_str

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

    def describe(self) -> str:
        where = f"@{self.end}" if self.end else f"@{self.vertex}"
        return f"{self.kind}{where}(<{self.max_admissible})"


@dataclass(frozen=True)
class BlowupRequest:
    site: BlowupSite
    delta: Fraction

    def __post_init__(self):
        object.__setattr__(self, "delta", rat(self.delta))

    def as_json(self) -> dict:
        return {
            "site_kind": self.site.kind,
            "vertex": self.site.vertex,
            "delta": rat_str(self.delta),
        }


def fiber_class(g: DecoratedGraph) -> HomologyClass:
    """Class of the free sphere a surface blowup spawns a chain inside.

    Only meaningful for graphs descending from a base with a fixed surface;
    graphs of the all-isolated families never grow surface sites.
    """
    if not any(v.is_fat for v in g.vertices):
        raise GraphError("graph has no fixed surface, hence no fiber sphere")
    return g.fiber


def _site_for_vertex(g: DecoratedGraph, v: Vertex) -> BlowupSite | None:
    vmin, vmax = g.min_vertex, g.max_vertex
    if v.is_fat:
        end = "min" if v.vid == vmin.vid else "max"
        bound = min(v.fat.size, g.span)
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
    sites.sort(key=lambda s: (s.kind, g.vertex(s.vertex).moment, s.vertex))
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

    e_idx = g.model.k + 1
    model = g.model.extend()
    omega = g.omega.extend(delta)
    emb = lambda c: c.embed(model)
    Ee = model.exceptional(e_idx)
    step = len(g.ledger) + 1
    # Isolated vertices carry no class, so the child shares them unchanged.
    vertices = [
        w if w.fat is None
        else Vertex(w.vid, w.moment, FatData(w.fat.size, w.fat.genus, emb(w.fat.cls)))
        for w in g.vertices
    ]
    edges = [Edge(e.bottom, e.top, e.label, emb(e.cls)) for e in g.edges]
    fiber = emb(g.fiber)
    vmin, vmax = g.min_vertex.vid, g.max_vertex.vid

    def drop_vertex(vid):
        nonlocal vertices, edges
        vertices = [w for w in vertices if w.vid != vid]
        edges = [e for e in edges if vid not in (e.bottom, e.top)]

    if site.kind == INTERIOR:
        up = g.edges_above(v.vid)[0]
        down = g.edges_below(v.vid)[0]
        m, n = up.label, down.label
        hi = Vertex(f"{step}.hi", v.moment + m * delta)
        lo = Vertex(f"{step}.lo", v.moment - n * delta)
        drop_vertex(v.vid)
        vertices += [hi, lo]
        edges += [
            Edge(hi.vid, up.top, m, emb(up.cls) - Ee),
            Edge(lo.vid, hi.vid, m + n, Ee),
            Edge(down.bottom, lo.vid, n, emb(down.cls) - Ee),
        ]
        entry = LedgerEntry(e_idx, INTERIOR, str(v.birth()))

    elif site.kind == SURFACE:
        at_min = site.end == "min"
        fat = v.fat
        vertices = [w for w in vertices if w.vid != v.vid]
        vertices.append(
            Vertex(v.vid, v.moment, FatData(fat.size - delta, fat.genus, emb(fat.cls) - Ee))
        )
        mid = Vertex(f"{step}.c", v.moment + delta if at_min else v.moment - delta)
        vertices.append(mid)
        opposite = vmax if at_min else vmin
        if at_min:
            edges += [
                Edge(v.vid, mid.vid, 1, Ee),
                Edge(mid.vid, opposite, 1, fiber - Ee),
            ]
        else:
            edges += [
                Edge(mid.vid, v.vid, 1, Ee),
                Edge(opposite, mid.vid, 1, fiber - Ee),
            ]
        # The spawned chain supplants one free max-to-min sphere, if drawn.
        for e in sorted(edges, key=lambda e: e.cls.coeffs):
            if e.label == 1 and e.bottom == vmin and e.top == vmax:
                edges.remove(e)
                break
        entry = LedgerEntry(e_idx, SURFACE, site.end)

    else:  # EXTREMUM
        at_min = site.end == "min"
        incident = g.edges_above(v.vid) if at_min else g.edges_below(v.vid)
        ea, eb = sorted(incident, key=lambda e: -e.label)
        m, n = ea.label, eb.label
        away = (lambda e: e.top) if at_min else (lambda e: e.bottom)
        sgn = 1 if at_min else -1
        drop_vertex(v.vid)
        if m == n:  # both weights 1: the blowup creates a fixed surface
            fatv = Vertex(
                f"{step}.s",
                v.moment + sgn * delta,
                FatData(delta, 0, Ee),
            )
            vertices.append(fatv)
            for e in (ea, eb):
                new_cls = emb(e.cls) - Ee
                if at_min:
                    edges.append(Edge(fatv.vid, away(e), 1, new_cls))
                else:
                    edges.append(Edge(away(e), fatv.vid, 1, new_cls))
        else:
            hi = Vertex(f"{step}.hi", v.moment + sgn * m * delta)
            lo = Vertex(f"{step}.lo", v.moment + sgn * n * delta)
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
        entry = LedgerEntry(e_idx, EXTREMUM, site.end)

    out = DecoratedGraph.build(
        model, omega, vertices, edges, g.ledger + (entry,), fiber
    )
    problems = validate(out)
    if problems:
        raise BlowupError(
            f"blowup produced an invalid graph: {problems}", bound=live.max_admissible
        )
    return out
