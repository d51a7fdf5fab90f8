"""Exhaustive enumeration of decorated graphs reachable by ordered blowups.

Starting from the base graphs of a minimal model, all admissible equivariant
blowups of a fixed ordered size list are applied breadth-first.  At every
level the children are brought to generic form and deduplicated up to
translation, flip, generic-metric moves, and (optionally) permutations of
exceptional indices carrying equal sizes.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from fractions import Fraction

from .blowup import apply_blowup, blowup_sites
from .graphs import (
    BaseFamilyParams,
    DecoratedGraph,
    GraphError,
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


def _permutation_group(g: DecoratedGraph) -> tuple[_Table | None, ...]:
    """The class tables (``_relabeling_table``) of the permutations of
    blowup-created exceptional indices of equal size, None for the identity.

    A ledger of s steps created the last s indices.  They and the class
    vector decide the permutations, whose tables are listed once per (vector,
    indices) and kept on the vector, so the graphs of a level share them.  A
    new vector starts with none.  Do not change them.
    """
    created = tuple(range(g.model.k - len(g.ledger) + 1, g.model.k + 1))
    table = g.omega._relabelings
    tables = table.get(created)
    if tables is None:
        tables = table[created] = tuple(
            _relabeling_table(g.model, perm) for perm in _relabelings(g.omega.deltas, created)
        )
    return tables


def dedup_key(g: DecoratedGraph, permute_equal_sizes: bool = True) -> str:
    """The smallest ledger-free records of ``g``'s normal form over the
    allowed relabelings of its exceptional classes.

    ``g`` is reduced once and each orientation walked once; a relabeling
    only rewrites the classes of the lines, through its table.  Without
    relabeling, the identity (no table) is the one relabeling.
    """
    tables = _permutation_group(g) if permute_equal_sizes else [None]
    return normal_key(g, tables)


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


def _children(frontier, delta: Fraction, sites: list[int]):
    """The generic forms of every blowup of ``frontier`` at ``delta``.

    They are made parent by parent in frontier order, and each parent's
    number of sites is appended to ``sites`` as it is expanded, so a level
    holds one parent's site table at a time.  A parent's index and its
    extension ``g.extend(delta)`` serve only its own children, so they are
    released once the last of them is made.  The children of one parent are
    all made before the first is yielded: a batch keeps their objects close
    in memory, which measured faster than keying each child as it is made.
    """
    for g in frontier:
        found = blowup_sites(g, delta)
        sites.append(len(found))
        batch = [generic_form(apply_blowup(g, site.vertex, delta)) for site in found]
        _drop_caches(g)
        yield from batch


def enumerate_levels(spec: EnumerationSpec) -> Iterator[EnumerationResult]:
    """Yield the result of every level, the bases' (depth 0) first, each as
    it is made: a level is enumerated only when the next result is asked for.

    Each yielded frontier is the parents of the next level, which the
    enumeration holds anyway; a caller that keeps only the latest result holds
    no earlier frontier.  Children are keyed as they are made, a parent's
    children at a time, so a level's children are never held as a list.
    """
    permute = spec.permute_equal_sizes
    frontier, _ = _dedup((dedup_key(g, permute), g) for g in map(generic_form, spec.bases))
    log = []
    yield EnumerationResult(tuple(frontier), ())
    for depth, delta in enumerate(spec.sizes, start=1):
        sites: list[int] = []
        children = _children(frontier, delta, sites)
        frontier, merged = _dedup((dedup_key(g, permute), g) for g in children)
        log.append(LevelLog(depth, delta, sum(sites), len(frontier), merged))
        yield EnumerationResult(tuple(frontier), tuple(log))


def enumerate_graphs(spec: EnumerationSpec) -> EnumerationResult:
    """Breadth-first closure of the base set under the ordered size list."""
    for result in enumerate_levels(spec):
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
    branches = [
        (child.ledger[-1].kind, site_kind_tree(child, sizes[1:]))
        for child in _children((g,), sizes[0], [])
    ]
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
