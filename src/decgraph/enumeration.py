"""Exhaustive enumeration of decorated graphs reachable by ordered blowups.

Starting from the base graphs of a minimal model, all admissible equivariant
blowups of a fixed ordered size list are applied breadth-first.  At every
level the children are brought to generic form and deduplicated up to
translation, flip, generic-metric moves, and (optionally) permutations of
exceptional indices carrying equal sizes.
"""

from __future__ import annotations

import itertools
import os
import pickle
import signal
import tempfile
import threading
from collections.abc import Iterable
from dataclasses import dataclass
from fractions import Fraction

from .blowup import apply_blowup, blowup_sites
from .graphs import (
    BaseFamilyParams,
    DecoratedGraph,
    Edge,
    GraphError,
    LedgerEntry,
    Vertex,
    _drop_caches,
    base_hirzebruch,
    base_ruled,
    canonical_text,
    generic_form,
    normal_key,
)
from .lattice import CohomologyVector, HomologyClass, SurfaceModel, _Table, pair, rat


class EnumerationError(ValueError):
    pass


@dataclass(frozen=True)
class EnumerationSpec:
    """Base graphs on one class vector, the ordered size list, and the dedup
    policy."""

    bases: tuple[DecoratedGraph, ...]
    sizes: tuple[Fraction, ...]
    permute_equal_sizes: bool = True

    def __post_init__(self):
        object.__setattr__(self, "sizes", tuple(rat(s) for s in self.sizes))
        if any(s <= 0 for s in self.sizes):
            raise EnumerationError("blowup sizes must be positive")
        if not self.bases:
            raise EnumerationError("no base graphs")
        if any(b.omega is not self.bases[0].omega for b in self.bases):
            raise EnumerationError("base graphs must share one class vector")

    @property
    def final_omega(self) -> CohomologyVector:
        """The bases' class vector extended by each size: every final
        graph's.  ``extend`` keeps one object per (vector, size), so each
        access returns the same object, whose model is the run's."""
        omega = self.bases[0].omega
        for delta in self.sizes:
            omega = omega.extend(delta)
        return omega


@dataclass(frozen=True)
class LevelLog:
    depth: int
    size: Fraction
    sites: int
    kept: int
    merged: int


@dataclass(frozen=True)
class EnumerationResult:
    """Pairwise-inequivalent graphs (generic form) and per-level counts."""

    graphs: tuple[DecoratedGraph, ...]
    branch_log: tuple[LevelLog, ...]


def _relabelings(deltas: tuple[Fraction, ...], created: tuple[int, ...]):
    """Permutations of the ``created`` exceptional indices of equal size."""
    groups: dict[Fraction, list[int]] = {}
    for i in created:
        groups.setdefault(deltas[i - 1], []).append(i)
    groups = {k: v for k, v in groups.items() if len(v) > 1}
    if not groups:
        yield {}
        return
    keys = sorted(groups)
    for combo in itertools.product(
        *(itertools.permutations(groups[k]) for k in keys)
    ):
        perm = {}
        for k, images in zip(keys, combo):
            for src, dst in zip(groups[k], images):
                if src != dst:
                    perm[src] = dst
        yield perm


def _relabeling_table(model: SurfaceModel, perm: dict[int, int]) -> _Table | None:
    """The class table of ``perm``: each class of ``model`` to the model's
    class with the Ei coefficient moved to Ej for each i -> j of ``perm``,
    computed on first use and kept.  None for the identity."""
    if not perm:
        return None
    head = model.head
    moves = tuple((head + i - 1, head + j - 1) for i, j in perm.items())

    def relabeled(c: HomologyClass) -> HomologyClass:
        coeffs = list(c.coeffs)
        for i, j in moves:
            coeffs[j] = c.coeffs[i]
        return model.intern(tuple(coeffs))

    return _Table(relabeled)


def _permutation_group(g: DecoratedGraph) -> tuple[tuple[dict[int, int], _Table | None], ...]:
    """Permutations of blowup-created exceptional indices of equal size, each
    with its class table (``_relabeling_table``).

    A ledger of s steps created the last s indices.  They and the class
    vector decide the permutations, listed once per (vector, indices) and kept
    on the vector with their tables, which the graphs of a level share.  A
    new vector starts with none.  Do not change them.
    """
    created = tuple(range(g.model.k - len(g.ledger) + 1, g.model.k + 1))
    table = g.omega._relabelings
    perms = table.get(created)
    if perms is None:
        perms = table[created] = tuple(
            (perm, _relabeling_table(g.model, perm))
            for perm in _relabelings(g.omega.deltas, created)
        )
    return perms


def dedup_key(g: DecoratedGraph, permute_equal_sizes: bool = True) -> str:
    """The smallest ledger-free records of ``g``'s normal form over the
    allowed relabelings of its exceptional classes.

    ``g`` is reduced once and each orientation walked once; a relabeling
    only rewrites the classes of the lines, through its table.
    """
    if not permute_equal_sizes:
        return normal_key(g)
    return normal_key(g, [table for _, table in _permutation_group(g)])


def _keyed(graphs, permute: bool):
    """Each graph of ``graphs`` with its dedup key, as the graphs come."""
    for g in graphs:
        yield dedup_key(g, permute), g


def _dedup(keyed):
    """One graph per dedup key, in key order, and the number merged.

    ``keyed`` yields (key, graph) pairs and may be a generator: each graph's
    index is released once it is keyed (and compared, on a merge), so a level
    holds the indexes of one parent's children at most.  On a merge the
    smaller (ledger, canonical text) wins: the texts are written only when
    the ledgers are equal.
    """
    chosen: dict[str, DecoratedGraph] = {}
    merged = 0
    for key, g in keyed:
        old = chosen.get(key)
        if old is None:
            chosen[key] = g
        else:
            merged += 1
            if g.ledger < old.ledger or (
                g.ledger == old.ledger and canonical_text(g) < canonical_text(old)
            ):
                chosen[key] = g
            _drop_caches(old)
        _drop_caches(g)
    ordered = [chosen[k] for k in sorted(chosen)]
    return ordered, merged


def _children(frontier, delta: Fraction):
    """Each parent's children, a list per parent in frontier order: the
    generic forms of its blowups at ``delta``.

    A parent's index and its extension ``g.extend(delta)`` serve only its own
    children, so they are released once the last of them is made.  The
    children of one parent are all made before the first is keyed: a batch
    keeps their objects close in memory, which measured faster than keying
    each child as it is made.
    """
    for g in frontier:
        found = blowup_sites(g, delta)
        batch = [generic_form(apply_blowup(g, site.vertex, delta)) for site in found]
        _drop_caches(g)
        yield batch


def _keyed_children(frontier, delta: Fraction, permute: bool):
    """(key, child) of every child of ``frontier`` at ``delta``, made and
    keyed in this process, in frontier order."""
    return _keyed(itertools.chain.from_iterable(_children(frontier, delta)), permute)


# A level splits in two when its parents make at least this many children.
# Below it, the fork, the worker's copy-on-write faults and the rebuild of its
# children here cost more than the worker saves: on 2 CPUs the two break even
# at about 91 of ruled-deep's last-level children (45 us each, the cheapest
# any workload makes) and at 34 of cp2-six's (92 us each).
SPLIT_CHILDREN = 100


def _may_split(children: int) -> bool:
    """Whether a level of ``children`` children goes to two processes: only
    above the break-even, where this process may run on two CPUs and can
    fork, and has no other thread (a forked thread-holding process can
    deadlock)."""
    return (
        children >= SPLIT_CHILDREN
        and hasattr(os, "fork")
        and hasattr(os, "sched_getaffinity")
        and len(os.sched_getaffinity(0)) > 1
        and threading.active_count() == 1
    )


def _pack(parent: DecoratedGraph, batch, permute: bool, classes: dict) -> tuple:
    """``parent``'s children ``batch``, keyed, as plain data for ``_unpack``.

    Each distinct vertex and edge object is written once, and each child
    lists its objects by index, so the rebuilt siblings share them as these
    do; vertex index -1 - j is the parent's own j-th vertex.  A class is
    sent as its index in ``classes``, which numbers every class sent so far;
    the batch's new ones go first, as coefficient tuples.  Only the last
    ledger entry is sent: a child's ledger is its parent's plus one step.
    """
    fresh = []

    def number(c: HomologyClass) -> int:
        i = classes.get(c)
        if i is None:
            i = classes[c] = len(classes)
            fresh.append(c.coeffs)
        return i

    vertex_index = {id(v): -1 - j for j, v in enumerate(parent.vertices)}
    edge_index: dict[int, int] = {}
    vertices, edges, children = [], [], []
    for g in batch:
        vs = []
        for v in g.vertices:
            i = vertex_index.get(id(v))
            if i is None:
                i = vertex_index[id(v)] = len(vertices)
                vertices.append((v.vid, v.height, None if v.fat is None else number(v.fat)))
            vs.append(i)
        es = []
        for e in g.edges:
            i = edge_index.get(id(e))
            if i is None:
                i = edge_index[id(e)] = len(edges)
                edges.append((e.bottom, e.top, e.label, number(e.cls)))
            es.append(i)
        children.append((dedup_key(g, permute), vs, es, tuple(g.ledger[-1]), number(g.fiber)))
    return fresh, vertices, edges, children


def _unpack(parent: DecoratedGraph, packed: tuple, omega: CohomologyVector,
            classes: list, entries: _Table):
    """(key, child) of each child that ``_pack`` wrote, rebuilt on this
    process's ``omega``, model and classes.  ``classes`` and ``entries``
    (one ledger entry object per value) carry over from batch to batch;
    each vertex id is one string object within a batch."""
    fresh, vertex_records, edge_records, children = packed
    classes.extend(map(omega.model.intern, fresh))
    name = {v.vid: v.vid for v in parent.vertices}.setdefault
    vertices = [
        Vertex(name(vid, vid), height, None if fat is None else classes[fat])
        for vid, height, fat in vertex_records
    ]
    vertices += reversed(parent.vertices)  # so that index -1 - j is the parent's j-th
    edges = [
        Edge(name(bottom, bottom), name(top, top), label, classes[c])
        for bottom, top, label, c in edge_records
    ]
    for key, vs, es, entry, fiber in children:
        g = DecoratedGraph(
            omega,
            tuple([vertices[i] for i in vs]),
            tuple([edges[i] for i in es]),
            parent.ledger + (entries[entry],),
            classes[fiber],
        )
        yield key, g


class _Worker:
    """A forked process that makes and keys the children of ``share``.

    It writes them, one pickle per parent, to an unlinked temporary file made
    before the fork: a pipe could fill and block it while this process
    expands its own share.  It ends with ``os._exit``: 0 once every batch is
    written and flushed, 1 on any exception, which ``keyed`` then raises
    here by redoing the share.  ``close`` kills the worker if it still runs,
    and always reaps it.
    """

    def __init__(self, share, delta: Fraction, permute: bool):
        self.share, self.delta, self.permute = share, delta, permute
        self.status = None
        self.file = tempfile.TemporaryFile()
        try:
            self.pid = os.fork()
        except OSError:
            self.file.close()
            raise
        if self.pid == 0:
            status = 1
            try:  # never returns; on an exception the share is redone by ``keyed``
                classes: dict[HomologyClass, int] = {}
                for parent, batch in zip(share, _children(share, delta)):
                    packed = _pack(parent, batch, permute, classes)
                    pickle.dump(packed, self.file, pickle.HIGHEST_PROTOCOL)
                self.file.flush()
                status = 0
            finally:
                os._exit(status)
        for g in share:  # the worker has their sites, found before the fork
            _drop_caches(g)

    def keyed(self):
        """(key, child) of each child of the share, in frontier order, once
        the worker is reaped: the worker's, or, if it failed, made and keyed
        here."""
        _, self.status = os.waitpid(self.pid, 0)
        if os.waitstatus_to_exitcode(self.status) != 0:
            yield from _keyed_children(self.share, self.delta, self.permute)
            return
        self.file.seek(0)
        classes: list[HomologyClass] = []
        entries = _Table(LedgerEntry._make)
        for parent in self.share:
            omega = parent.omega.extend(self.delta)
            yield from _unpack(parent, pickle.load(self.file), omega, classes, entries)

    def close(self) -> None:
        if self.status is None:
            os.kill(self.pid, signal.SIGKILL)
            _, self.status = os.waitpid(self.pid, 0)
        self.file.close()


def _level(frontier, delta: Fraction, permute: bool) -> tuple[list, int, int]:
    """The next level's graphs, sites and merges, from ``frontier`` at ``delta``.

    Every parent's sites are counted first.  When ``_may_split`` a level of
    that many children, its second share goes to a ``_Worker``, and this
    process expands the first meanwhile.  The first share ends at the
    parent with which it makes 8/15 of the children: the worker's pickling
    makes each of its children about 1/7 dearer, and this process then
    rebuilds them.  Both shares reach the one ``_dedup`` in frontier order,
    so the level is the one a single process makes.  Without a temporary
    file or a fork, one process makes it all.
    """
    counts = [len(blowup_sites(g, delta)) for g in frontier]
    sites = sum(counts)
    cut = len(frontier)
    if _may_split(sites):
        made = itertools.accumulate(counts)
        cut = next(i for i, n in enumerate(made, 1) if 15 * n >= 8 * sites)
    worker = None
    if cut < len(frontier):
        try:
            worker = _Worker(frontier[cut:], delta, permute)
        except OSError:
            cut = len(frontier)
    keyed = _keyed_children(frontier[:cut], delta, permute)
    try:
        graphs, merged = _dedup(itertools.chain(keyed, worker.keyed()) if worker else keyed)
    finally:
        if worker:
            worker.close()
    return graphs, sites, merged


def _levels(spec: EnumerationSpec):
    """Yield the result of every level, the bases' (depth 0) first.

    Each yielded frontier is the parents of the next level, which the
    enumeration holds anyway; a caller that keeps only the latest result holds
    no earlier frontier.  Children are keyed as they are made, a parent's
    children at a time, so a level's children are never held as a list.
    """
    permute = spec.permute_equal_sizes
    frontier, _ = _dedup(_keyed(map(generic_form, spec.bases), permute))
    log = []
    yield EnumerationResult(tuple(frontier), ())
    for depth, delta in enumerate(spec.sizes, start=1):
        frontier, sites, merged = _level(frontier, delta, permute)
        log.append(LevelLog(depth, delta, sites, len(frontier), merged))
        yield EnumerationResult(tuple(frontier), tuple(log))


def enumerate_graphs(spec: EnumerationSpec) -> EnumerationResult:
    """Breadth-first closure of the base set under the ordered size list."""
    for result in _levels(spec):
        pass
    omega = spec.final_omega
    first = omega.model.k - len(spec.sizes)
    for i, s in enumerate(spec.sizes, start=1):
        if pair(omega, omega.model.exceptional(first + i)) != s:
            raise EnumerationError(f"the final class vector {omega} does not pair E{first + i} to {s}")
    for g in result.graphs:
        if len(g.ledger) != len(spec.sizes) or g.omega is not omega:
            raise EnumerationError(
                f"a final graph on {g.omega} with {len(g.ledger)} steps is not on the"
                f" final class vector {omega} with {len(spec.sizes)}"
            )
    return result


def enumerate_levels(spec: EnumerationSpec) -> list[EnumerationResult]:
    """Like ``enumerate_graphs`` but keeping every level, from one pass."""
    return list(_levels(spec))


# ---------------------------------------------------------------------------
# base families for the two scenario shapes


def _base_family_params(lam, delta1, reps):
    """Every valid ``BaseFamilyParams`` over the one-point plane blowup, ell by
    ell: the two surface families, then each isolated family at every
    representative (c, d) that meets its label constraint."""
    ell = 1
    while ell * (lam - delta1) < lam:
        yield BaseFamilyParams("two_surfaces", ell)
        yield BaseFamilyParams("one_surface", ell)
        for family in ("isolated_left", "isolated_right"):
            for c, d in reps:
                try:
                    params = BaseFamilyParams(family, ell, c, d)
                except GraphError:
                    continue
                yield params
        ell += 1


def hirzebruch_base_graphs(lam, delta1, reps) -> list[DecoratedGraph]:
    """All base graphs over the one-point plane blowup, in the order of
    ``_base_family_params``.

    The symbolic coprime edge labels of the all-isolated families are
    instantiated at the given representatives; representatives violating a
    family's label constraint are skipped for that family only.
    """
    omega = CohomologyVector.rational(lam, [delta1])
    lam, delta1 = omega.entries
    return [base_hirzebruch(omega, p) for p in _base_family_params(lam, delta1, reps)]


def ruled_base_graphs(lam_f, lam_b, genus: int) -> list[DecoratedGraph]:
    """The base graph of every rotation number ell with ell * lam_f < lam_b."""
    omega = CohomologyVector.ruled(lam_f, lam_b, [], genus)
    lam_f, lam_b = omega.entries
    out = []
    ell = 0
    while ell * lam_f < lam_b:
        out.append(base_ruled(omega, ell))
        ell += 1
    return out


# ---------------------------------------------------------------------------
# ledger pattern classification (three blowups on a ruled base)


TYPE_NAMES = ("I", "II", "III", "IV")


def classify_sequence_types(graphs: Iterable[DecoratedGraph]) -> dict[str, list[DecoratedGraph]]:
    """Partition three-step ruled enumerations by blowup-site pattern.

    I   three surface blowups;
    II  surface, then interior at the point the first blowup created, then surface;
    III surface, surface, then interior at the point the first blowup created;
    IV  surface, surface, then interior at the point the second blowup created.

    Anything else lands under 'unclassified', which falsifies the case split.
    """
    buckets: dict[str, list[DecoratedGraph]] = {t: [] for t in TYPE_NAMES}
    buckets["unclassified"] = []
    for g in graphs:
        kinds = tuple(entry.kind for entry in g.ledger)
        details = tuple(entry.detail for entry in g.ledger)
        if len(g.ledger) != 3:
            buckets["unclassified"].append(g)
        elif kinds == ("surface", "surface", "surface"):
            buckets["I"].append(g)
        elif kinds == ("surface", "interior", "surface") and details[1] == "1":
            buckets["II"].append(g)
        elif kinds == ("surface", "surface", "interior") and details[2] == "1":
            buckets["III"].append(g)
        elif kinds == ("surface", "surface", "interior") and details[2] == "2":
            buckets["IV"].append(g)
        else:
            buckets["unclassified"].append(g)
    return buckets


# ---------------------------------------------------------------------------
# label-instantiation cross-check


def site_kind_tree(g: DecoratedGraph, sizes: tuple[Fraction, ...]) -> tuple:
    """Nested multiset of the site kinds (last ledger steps) of ``_children``
    along the whole size list.  Admissibility bounds depend only on sphere
    areas, never on edge labels, so the tree must agree across the label
    representatives of one family; a disagreement would invalidate
    instantiating the symbolic labels at finitely many representatives."""
    if not sizes:
        return ()
    (children,) = _children((g,), sizes[0])
    branches = [(child.ledger[-1].kind, site_kind_tree(child, sizes[1:])) for child in children]
    return tuple(sorted(branches))


def cross_check_instantiation(bases, params, sizes) -> None:
    """Raise unless all valid (c, d) representatives of the run's ``bases``,
    named position by position by ``params``, branch identically.  Unequal
    counts are a ValueError.  A family with one representative has nothing
    to compare, so no tree is built for it."""
    family_ell = lambda base: (base[1].family, base[1].ell)
    isolated = sorted(
        (base for base in zip(bases, params, strict=True) if base[1].family.startswith("isolated")),
        key=family_ell,
    )
    for (family, ell), group in itertools.groupby(isolated, key=family_ell):
        group = [g for g, _ in group]
        if len(group) > 1 and len({site_kind_tree(g, sizes) for g in group}) > 1:
            raise EnumerationError(
                f"{family} ell={ell}: site-kind trees differ across the"
                " label representatives; instantiation is unsound here"
            )
