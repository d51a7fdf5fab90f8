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
from functools import partial
from operator import attrgetter

from .graphs import DecoratedGraph
from .lattice import (
    HomologyClass,
    LatticeError,
    _Table,
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
    """A graph is obstructed exactly when it has a certificate."""

    graph: DecoratedGraph
    certificate: Certificate | None

    @property
    def verdict(self) -> str:
        return UNOBSTRUCTED if self.certificate is None else OBSTRUCTED


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
    head = c.model.head
    if any(x != 0 for x in c.coeffs[:head]):
        return False
    exc = c.coeffs[head:]
    positives = [i for i, x in enumerate(exc, start=1) if x == 1]
    if len(positives) != 1 or any(x not in (0, 1, -1) for x in exc):
        return False
    i = positives[0]
    return all(j > i for j, x in enumerate(exc, start=1) if x == -1)


def _certify(key: tuple) -> CertifiedClass | bool:
    """The ``CertifiedClass`` of (class, label), label None for a fixed
    surface, or False for a label-1 class that is no proper transform."""
    cls, label = key
    if label is None or label >= 2:
        return CertifiedClass(cls, "stabilizer", label)
    return is_proper_transform_shape(cls) and CertifiedClass(cls, "proper_transform", label)


def certified_classes(
    g: DecoratedGraph, mode: str = STABILIZER_ONLY, table: _Table | None = None
) -> list[CertifiedClass]:
    """All classes with guaranteed holomorphic representatives in the graph.

    ``table`` is a ``_Table(_certify)``: callers share one across the graphs
    of one search, and so one object per (class, label).
    """
    if mode not in (STABILIZER_ONLY, INTEGRABLE_BLOWUP):
        raise LatticeError(f"unknown certification mode {mode!r}")
    if table is None:
        table = _Table(_certify)
    integrable = mode == INTEGRABLE_BLOWUP
    out = [table[v.fat, None] for v in g.vertices if v.fat is not None]
    for _, _, label, cls in g.edges:
        if label >= 2 or integrable:
            cert = table[cls, label]
            if cert:
                out.append(cert)
    out.sort(key=attrgetter("_order"))
    return out


def _certificate(required: list[RequiredClass], rule: str, cert: CertifiedClass) -> Certificate | None:
    """``cert`` against the first required class of another class (negative
    pair) or of its own (negative square, if the group does not fix ``cert``
    pointwise) that it meets negatively.  Equal classes are one object."""
    a, square = cert.cls, rule == RULE_NEGATIVE_SQUARE
    for req in required:
        if (req.cls is a) is square:
            prod = intersect(a, req.cls)
            if prod < 0 and not (square and cert.pointwise_fixed(req.fixed_by)):
                return Certificate(cert, req, prod, rule)
    return None


def _certificate_tables(required: list[RequiredClass]) -> tuple[_Table, ...]:
    """Each certified class's ``_certificate`` by the negative-pair rule, then
    by the negative-square rule, made on first use and kept."""
    return tuple(
        _Table(partial(_certificate, required, rule))
        for rule in (RULE_NEGATIVE_PAIR, RULE_NEGATIVE_SQUARE)
    )


def find_certificate(
    certified: list[CertifiedClass],
    required: list[RequiredClass],
    found: tuple[_Table, ...] | None = None,
) -> Certificate | None:
    """First contradiction in canonical order, preferring distinct classes.

    ``found`` is ``_certificate_tables(required)``: callers share one across
    the graphs of one search, and so one ``Certificate`` per distinct
    certificate.
    """
    if found is None:
        found = _certificate_tables(required)
    for certificates in found:
        for cert in certified:
            certificate = certificates[cert]
            if certificate is not None:
                return certificate
    return None


def check_nonextension(
    graphs: Iterable[DecoratedGraph],
    required: list[RequiredClass],
    mode: str = STABILIZER_ONLY,
) -> ObstructionReport:
    """Search every graph for a positivity contradiction.

    The cyclic action extends along none of the circle actions exactly when
    every graph is obstructed.  No graph makes the claim vacuously true, and
    the report flags it as such.  Each (class, label) is certified and
    searched once per call, so graphs with equal certificates share one.
    """
    required = list(required)
    classes = _Table(_certify)
    found = _certificate_tables(required)
    return ObstructionReport(tuple(
        GraphVerdict(g, find_certificate(certified_classes(g, mode, classes), required, found))
        for g in graphs
    ))


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
    classes = _Table(_certify)
    for g in graphs:
        k = g.model.k
        certified = certified_classes(g, mode, classes)
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
