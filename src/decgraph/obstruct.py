"""Positivity-of-intersections obstructions against extending cyclic actions.

Every fixed surface and every invariant sphere with a nontrivial stabilizer
is holomorphic for any invariant compatible almost complex structure, so its
class is *certified*: some holomorphic curve realizes it.  In integrable
mode, exceptional divisors and their proper transforms are certified as
well.  A graph is obstructed when a certified class meets a class required
by the cyclic action negatively: distinct holomorphic curves intersect
nonnegatively, so such an action admits no extension along this graph.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from operator import attrgetter

from .graphs import DecoratedGraph
from .lattice import (
    RATIONAL,
    HomologyClass,
    LatticeError,
    _cached,
    intersect,
)

STABILIZER_ONLY = "stabilizer"
INTEGRABLE_BLOWUP = "integrable"

RULE_NEGATIVE_PAIR = "negative_pair"  # distinct classes with C.R < 0
RULE_NEGATIVE_SQUARE = "negative_square"  # two representatives of C, C.C < 0

OBSTRUCTED = "obstructed"
UNOBSTRUCTED = "unobstructed"


@dataclass(frozen=True)
class CertifiedClass:
    """A class with a guaranteed holomorphic representative.

    ``label`` is the stabilizer order of the representing sphere, or None
    for a fixed surface.  The representative is pointwise fixed by the
    cyclic subgroup of order n exactly when it is a surface or its
    stabilizer order is divisible by n.
    """

    cls: HomologyClass
    justification: str  # 'stabilizer' | 'proper_transform'
    label: int | None

    def pointwise_fixed(self, n: int) -> bool:
        return self.label is None or self.label % n == 0

    @_cached
    def _order(self) -> tuple:
        """The sort key of ``certified_classes``: class, then a surface before
        its spheres, then label; computed once per object."""
        return (self.cls.coeffs, self.label is not None, self.label or 0)


@dataclass(frozen=True)
class RequiredClass:
    """A class the cyclic action is known to fix a holomorphic curve in."""

    cls: HomologyClass
    fixed_by: int  # order of the cyclic group fixing the curve pointwise

    def __post_init__(self):
        if self.cls.twice_genus != 0:
            raise LatticeError(
                f"{self.cls} asserted embedded but fails the genus-zero check"
            )


@dataclass(frozen=True)
class Certificate:
    certified: CertifiedClass
    required: RequiredClass
    intersection: int
    rule: str


@dataclass(frozen=True)
class GraphVerdict:
    graph: DecoratedGraph
    verdict: str
    certificate: Certificate | None


@dataclass(frozen=True)
class ObstructionReport:
    verdicts: tuple[GraphVerdict, ...]

    @property
    def vacuous(self) -> bool:  # no graph: "all obstructed" holds vacuously
        return not self.verdicts

    @property
    def all_obstructed(self) -> bool:
        return all(v.verdict == OBSTRUCTED for v in self.verdicts)


def is_proper_transform_shape(c: HomologyClass) -> bool:
    """Ei minus a subset of later exceptional classes, nothing else."""
    head = 1 if c.model.kind == RATIONAL else 2
    if any(x != 0 for x in c.coeffs[:head]):
        return False
    exc = c.coeffs[head:]
    positives = [i for i, x in enumerate(exc, start=1) if x == 1]
    if len(positives) != 1 or any(x not in (0, 1, -1) for x in exc):
        return False
    i = positives[0]
    return all(j > i for j, x in enumerate(exc, start=1) if x == -1)


def certified_classes(
    g: DecoratedGraph, mode: str = STABILIZER_ONLY, shapes: dict | None = None
) -> list[CertifiedClass]:
    """All classes with guaranteed holomorphic representatives in the graph.

    ``shapes`` maps each (class, label) met to its one ``CertifiedClass``
    (label None for a fixed surface), or to False for a label-1 class that
    is no proper transform.  Callers share one across the graphs of one
    search, and so its objects.
    """
    if mode not in (STABILIZER_ONLY, INTEGRABLE_BLOWUP):
        raise LatticeError(f"unknown certification mode {mode!r}")
    if shapes is None:
        shapes = {}
    integrable = mode == INTEGRABLE_BLOWUP
    out = []
    for v in g.vertices:
        if v.fat is not None:
            cert = shapes.get((v.fat, None))
            if cert is None:
                cert = shapes[v.fat, None] = CertifiedClass(v.fat, "stabilizer", None)
            out.append(cert)
    for _, _, label, cls in g.edges:
        if label >= 2 or integrable:
            cert = shapes.get((cls, label))
            if cert is None:
                if label >= 2:
                    cert = CertifiedClass(cls, "stabilizer", label)
                elif is_proper_transform_shape(cls):
                    cert = CertifiedClass(cls, "proper_transform", label)
                else:
                    cert = False
                shapes[cls, label] = cert
            if cert:
                out.append(cert)
    out.sort(key=attrgetter("_order"))
    return out


def find_certificate(
    certified: list[CertifiedClass],
    required: list[RequiredClass],
    products: dict | None = None,
) -> Certificate | None:
    """First contradiction in canonical order, preferring distinct classes.

    ``products`` keeps ``intersect`` per pair of classes; callers share one
    across the graphs of one search.  Classes are one object per class of the
    run's model, so equal classes are the same object.
    """
    if products is None:
        products = {}
    for cert in certified:
        a = cert.cls
        for req in required:
            b = req.cls
            if a is not b:
                prod = products.get((a, b))
                if prod is None:
                    prod = products[a, b] = intersect(a, b)
                if prod < 0:
                    return Certificate(cert, req, prod, RULE_NEGATIVE_PAIR)
    for cert in certified:
        a = cert.cls
        for req in required:
            if a is req.cls:
                sq = products.get((a, a))
                if sq is None:
                    sq = products[a, a] = intersect(a, a)
                if sq < 0 and not cert.pointwise_fixed(req.fixed_by):
                    return Certificate(cert, req, sq, RULE_NEGATIVE_SQUARE)
    return None


def check_nonextension(
    graphs: Iterable[DecoratedGraph],
    required: list[RequiredClass],
    mode: str = STABILIZER_ONLY,
) -> ObstructionReport:
    """Search every graph for a positivity contradiction.

    The cyclic action extends along none of the circle actions exactly when
    every graph is obstructed.  No graph makes the claim vacuously true, and
    the report flags it as such.  The graphs share few distinct
    classes, so each class's shape test and each pairing is computed once
    per call.
    """
    verdicts = []
    required = list(required)
    shapes: dict = {}
    products: dict = {}
    for g in graphs:
        certified = certified_classes(g, mode, shapes)
        cert = find_certificate(certified, required, products)
        verdicts.append(
            GraphVerdict(g, OBSTRUCTED if cert else UNOBSTRUCTED, cert)
        )
    return ObstructionReport(tuple(verdicts))


def last_blowup_classes(
    graphs: Iterable[DecoratedGraph], mode: str = STABILIZER_ONLY
) -> set[HomologyClass]:
    """Certified classes that track the final two blowups of each graph.

    Per graph this selects the isotropy sphere left by the second-to-last
    blowup when it survives, and otherwise the fixed surface whose class
    shows the most exceptional terms (ties to the smaller coefficient
    vector).  In integrable mode the final exceptional divisor itself is
    reported too.  Used to cross-check a hand-derived case list: the engine
    set must stay inside it.
    """
    out: set[HomologyClass] = set()
    shapes: dict = {}
    for g in graphs:
        k = g.model.k
        certified = certified_classes(g, mode, shapes)
        if mode == INTEGRABLE_BLOWUP:
            ek = g.model.exceptional(k)
            if any(c.cls == ek for c in certified):
                out.add(ek)
        if k >= 2:
            prev = g.model.exceptional(k - 1)
            if any(
                c.cls == prev and c.label is not None and c.label >= 2
                for c in certified
            ):
                out.add(prev)
                continue
        fats = [c.cls for c in certified if c.label is None]
        if fats:
            fats.sort(key=lambda c: (-len(c.exceptional_support()), c.coeffs))
            out.add(fats[0])
    return out
