"""Positivity checks and effective-cone membership, exact throughout.

The positivity criterion: a class on a complex surface carries a Kaehler
form iff its square is positive and it pairs positively with every complex
curve; against a finite generator list both conditions are finitely many
exact comparisons.  Cone membership is decided by Fourier-Motzkin
elimination over the rationals, returning either a nonnegative witness
combination or a separating linear functional - never both.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .lattice import (
    RATIONAL,
    RULED,
    CohomologyVector,
    HomologyClass,
    LatticeError,
    SurfaceModel,
    basis_check,
    classify_negative,
    pair,
    volume,
)


@dataclass(frozen=True)
class GeneratorList:
    """A finite, nonempty curve-class list on one model."""

    model: SurfaceModel
    generators: tuple[HomologyClass, ...]

    def __post_init__(self):
        if not self.generators:
            raise LatticeError("generator list is empty")
        for gcls in self.generators:
            if gcls.model is not self.model:
                raise LatticeError("generators must live in the list's model")

    @staticmethod
    def parse(model: SurfaceModel, names) -> "GeneratorList":
        return GeneratorList(model, tuple(model.parse(s) for s in names))


@dataclass(frozen=True)
class NakaiReport:
    square: Fraction
    pairings: tuple[tuple[HomologyClass, Fraction], ...]
    passed: bool


def nakai_check(omega: CohomologyVector, gens: GeneratorList) -> NakaiReport:
    """Positive square and positive pairing with every generator."""
    if omega.model is not gens.model:
        raise LatticeError("class vector and generators live on different models")
    sq = volume(omega)
    pairings = tuple((gcls, pair(omega, gcls)) for gcls in gens.generators)
    passed = sq > 0 and all(p > 0 for _, p in pairings)
    return NakaiReport(sq, pairings, passed)


@dataclass(frozen=True)
class ConeWitness:
    coefficients: tuple[Fraction, ...]


@dataclass(frozen=True)
class ConeSeparation:
    """phi with phi(generator) >= 0 for all generators and phi(target) < 0."""

    functional: tuple[Fraction, ...]

    def apply(self, c: HomologyClass) -> Fraction:
        return sum(
            (f * x for f, x in zip(self.functional, c.coeffs)), Fraction(0)
        )


class _Row:
    """An inequality coeffs . a >= const with equality-multiplier provenance."""

    __slots__ = ("coeffs", "const", "prov")

    def __init__(self, coeffs, const, prov):
        self.coeffs = coeffs
        self.const = const
        self.prov = prov

    def combine(self, other, s_self, s_other):
        return _Row(
            tuple(s_self * a + s_other * b for a, b in zip(self.coeffs, other.coeffs)),
            s_self * self.const + s_other * other.const,
            tuple(s_self * a + s_other * b for a, b in zip(self.prov, other.prov)),
        )


def cone_membership(d: HomologyClass, gens: GeneratorList):
    """Decide d = sum a_i g_i with a_i >= 0 by exact elimination.

    Returns a ConeWitness on success, else a ConeSeparation whose functional
    is nonnegative on every generator and strictly negative on d.
    """
    if d.model is not gens.model:
        raise LatticeError("target and generators live on different models")
    n = len(gens.generators)
    m = d.model.rank
    zero_prov = (Fraction(0),) * m

    rows: list[_Row] = []
    for i in range(n):
        coeffs = tuple(Fraction(1 if j == i else 0) for j in range(n))
        rows.append(_Row(coeffs, Fraction(0), zero_prov))
    for j in range(m):
        coeffs = tuple(Fraction(gcls.coeffs[j]) for gcls in gens.generators)
        const = Fraction(d.coeffs[j])
        prov = tuple(Fraction(1 if t == j else 0) for t in range(m))
        rows.append(_Row(coeffs, const, prov))
        rows.append(
            _Row(tuple(-c for c in coeffs), -const, tuple(-p for p in prov))
        )

    def prune(candidates):
        # scale-normalize and keep only the tightest constant per direction
        best: dict[tuple, _Row] = {}
        for r in candidates:
            lead = next((c for c in r.coeffs if c != 0), None)
            if lead is None:
                if r.const > 0:
                    return [r]  # contradiction: report it alone
                continue  # tautology
            scale = 1 / abs(lead)
            key = tuple(c * scale for c in r.coeffs)
            kept = best.get(key)
            if kept is None or r.const * scale > kept.const / abs(
                next(c for c in kept.coeffs if c != 0)
            ):
                best[key] = r
        return list(best.values())

    stages = []  # per stage: (variable, lower-bound rows, upper-bound rows)
    remaining = set(range(n))
    while remaining:
        t = min(
            remaining,
            key=lambda v: sum(r.coeffs[v] > 0 for r in rows)
            * sum(r.coeffs[v] < 0 for r in rows),
        )
        remaining.discard(t)
        pos = [r for r in rows if r.coeffs[t] > 0]
        neg = [r for r in rows if r.coeffs[t] < 0]
        zero = [r for r in rows if r.coeffs[t] == 0]
        stages.append((t, pos, neg))
        combined = [
            p.combine(q, 1 / p.coeffs[t], -1 / q.coeffs[t])
            for p in pos
            for q in neg
        ]
        rows = prune(zero + combined)

    for r in rows:
        if r.const > 0:  # 0 >= const > 0: infeasible, provenance is a Farkas row
            functional = tuple(-p for p in r.prov)
            sep = ConeSeparation(functional)
            if not sep.apply(d) < 0:
                raise LatticeError("separating functional is not negative on the target")
            if any(sep.apply(gcls) < 0 for gcls in gens.generators):
                raise LatticeError("separating functional is negative on a generator")
            return sep

    # Feasible: back-substitute through the elimination stages.
    values: list[Fraction] = [Fraction(0)] * n
    for t, pos, neg in reversed(stages):

        def residual(r):
            rest = sum(
                (r.coeffs[s] * values[s] for s in range(n) if s != t),
                Fraction(0),
            )
            return (r.const - rest) / r.coeffs[t]

        lowers = [residual(r) for r in pos]
        uppers = [residual(r) for r in neg]
        lo = max(lowers) if lowers else Fraction(0)
        if uppers and min(uppers) < lo:
            raise LatticeError("elimination bookkeeping broke; no value fits")
        values[t] = lo
    witness = ConeWitness(tuple(values))
    if any(a < 0 for a in values):
        raise LatticeError("negative witness coefficient")
    # exact re-substitution check
    for j in range(m):
        total = sum(
            (a * gcls.coeffs[j] for a, gcls in zip(values, gens.generators)),
            Fraction(0),
        )
        if total != d.coeffs[j]:
            raise LatticeError("witness does not reproduce the target class")
    return witness


def verify_picard_basis(classes) -> bool:
    """Determinant +-1 test on a full-rank class list."""
    return basis_check(list(classes))


@dataclass(frozen=True)
class AuditEntry:
    cls: HomologyClass
    kind: str


@dataclass(frozen=True)
class AuditReport:
    entries: tuple[AuditEntry, ...]

    def count(self, kind: str) -> int:
        return sum(1 for e in self.entries if e.kind == kind)

    @property
    def flagged(self) -> tuple[AuditEntry, ...]:
        return tuple(e for e in self.entries if e.kind == "neither")


def curve_list_audit(gens: GeneratorList) -> AuditReport:
    """Classify each generator by square and degree; flag non-negative ones."""
    entries = tuple(
        AuditEntry(gcls, classify_negative(gcls)) for gcls in gens.generators
    )
    return AuditReport(entries)


# ---------------------------------------------------------------------------
# built-in generator lists for the shipped scenarios


# The curve lists the shipped scenarios name: (kind, k, class texts), parsed
# on a run's model.  The two plane lists are the negative curves of the
# degree-3 surfaces the six-blowup scenarios land on, and minimal
# effective-cone generators; the ruled lists generate the effective cones
# after two and after three blowups of the ruled surface.
GENERATOR_LISTS = {
    "plane-six": (RATIONAL, 6, (
        "E4-E5", "E5-E6", "L-E1-E4-E5", "E1-E2",
        "E6", "L-E3-E4", "E2", "L-E1-E3", "L-E1-E2", "E3",
    )),
    "plane-six-alt": (RATIONAL, 6, (
        "L-E1-E4-E5", "E5-E6", "E4-E5", "L-E2-E3-E4",
        "E6", "E1", "E2", "E3", "L-E1-E2", "L-E1-E3",
    )),
    "ruled-two": (RULED, 2, ("F-E1-E2", "E2", "E1-E2", "B-E1")),
    "ruled-three": (RULED, 3, ("F-E1-E2", "E2-E3", "E3", "E1-E2", "B-E1")),
}
