"""Positivity checks and effective-cone membership, exact throughout.

The positivity criterion: a class on a complex surface carries a Kaehler
form iff its square is positive and it pairs positively with every complex
curve; against a finite generator list both conditions are finitely many
exact comparisons.  Cone membership is decided by Fourier-Motzkin
elimination, run in integers (each row over one positive denominator),
returning either a nonnegative witness combination or a separating linear
functional - never both.
"""

from __future__ import annotations

import math
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
        return sum((f * x for f, x in zip(self.functional, c.coeffs)), Fraction(0))


def _combined(p, q, t: int):
    """The row p/p_t - q/q_t of rows with p_t > 0 > q_t: (-q_t) p + p_t q over
    p_t (-q_t), reduced by its gcd.  A row is (coefficients, constant,
    provenance, denominator) in integers, for coeffs . a >= const over a
    positive denominator, which p/p_t and q/q_t drop."""
    (pc, pk, pp, _), (qc, qk, qp, _) = p, q
    a, b = -qc[t], pc[t]
    coeffs = [a * x + b * y for x, y in zip(pc, qc)]
    prov = [a * x + b * y for x, y in zip(pp, qp)]
    const, den = a * pk + b * qk, a * b
    g = math.gcd(den, const, *coeffs, *prov)
    return tuple(x // g for x in coeffs), const // g, tuple(x // g for x in prov), den // g


def _prune(rows):
    """One row per direction of the coefficients, in the order the
    directions first show, the tightest of each (the greatest constant over
    its coefficients' gcd), or a lone contradiction (0 >= const > 0)."""
    best: dict[tuple, tuple] = {}  # primitive coefficients -> (row, their gcd)
    for r in rows:
        coeffs, const = r[0], r[1]
        g = math.gcd(*coeffs)
        if g == 0:
            if const > 0:
                return [r]  # contradiction: report it alone
            continue  # tautology
        key = tuple(c // g for c in coeffs)
        kept = best.get(key)
        if kept is None or const * kept[1] > kept[0][1] * g:
            best[key] = r, g
    return [r for r, _ in best.values()]


def cone_membership(d: HomologyClass, gens: GeneratorList):
    """Decide d = sum a_i g_i with a_i >= 0 by exact elimination.

    Returns a ConeWitness on success, else a ConeSeparation whose functional
    is nonnegative on every generator and strictly negative on d.  The
    elimination runs in integers (``_combined``); only the witness and the
    functional are ``Fraction``s.
    """
    if d.model is not gens.model:
        raise LatticeError("target and generators live on different models")
    n = len(gens.generators)
    m = d.model.rank
    unit = lambda i, size: tuple(int(j == i) for j in range(size))

    rows = [(unit(i, n), 0, (0,) * m, 1) for i in range(n)]
    for j in range(m):
        coeffs = tuple(gcls.coeffs[j] for gcls in gens.generators)
        const, prov = d.coeffs[j], unit(j, m)
        rows.append((coeffs, const, prov, 1))
        rows.append((tuple(-c for c in coeffs), -const, tuple(-p for p in prov), 1))

    stages = []  # per stage: (variable, lower-bound rows, upper-bound rows)
    remaining = set(range(n))
    while remaining:
        t = min(
            remaining,
            key=lambda v: sum(r[0][v] > 0 for r in rows) * sum(r[0][v] < 0 for r in rows),
        )
        remaining.discard(t)
        pos = [r for r in rows if r[0][t] > 0]
        neg = [r for r in rows if r[0][t] < 0]
        zero = [r for r in rows if r[0][t] == 0]
        stages.append((t, pos, neg))
        rows = _prune(zero + [_combined(p, q, t) for p in pos for q in neg])

    for _, const, prov, den in rows:
        if const > 0:  # 0 >= const > 0: infeasible, provenance is a Farkas row
            sep = ConeSeparation(tuple(Fraction(-p, den) for p in prov))
            if not sep.apply(d) < 0:
                raise LatticeError("separating functional is not negative on the target")
            if any(sep.apply(gcls) < 0 for gcls in gens.generators):
                raise LatticeError("separating functional is negative on a generator")
            return sep

    # Feasible: back-substitute through the elimination stages.  A row's
    # bound on a_t is (const - rest) / coeffs[t], its denominator cancelled.
    values: list[Fraction] = [Fraction(0)] * n
    for t, pos, neg in reversed(stages):

        def residual(r):
            coeffs, const = r[0], r[1]
            rest = sum(coeffs[s] * values[s] for s in range(n) if s != t)
            return (const - rest) / Fraction(coeffs[t])

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
        total = sum(a * gcls.coeffs[j] for a, gcls in zip(values, gens.generators))
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
