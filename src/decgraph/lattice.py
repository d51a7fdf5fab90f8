"""Exact intersection theory on second homology of blowups.

Two surface models are supported: blowups of the projective plane, with
basis (L, E1, ..., Ek), and blowups of a ruled surface over a positive-genus
curve, with basis (B, F, E1, ..., Ek).  All pairings are integer or exact
rational (``fractions.Fraction``); no floats appear anywhere.

Sizes and cohomology classes are normalized so that every size label in a
decorated graph is the pairing of the class vector with the sphere's homology
class.  Class vectors are written (lam; d1..dk) for the plane model and
(lamF, lamB; d1..dk) for the ruled model.

Inside the kernel a class vector is held as integer weights over one common
denominator D, so a pairing is one integer dot product and one ``Fraction``;
``Fraction`` values appear only where pairings leave the kernel.

A run holds one ``SurfaceModel`` object per lattice, and each model keeps
one ``HomologyClass`` object per coefficient tuple (``SurfaceModel.intern``);
class arithmetic, embedding and parsing go through it.  So models and
classes compare and hash by identity: two classes are equal exactly when
they are one object, and a class's text and adjunction genus are computed
once.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from operator import add, mul, neg, sub


RATIONAL = "rational"
RULED = "ruled"

MINUS_ONE = "minus_one"
MINUS_TWO = "minus_two"
NEITHER = "neither"


class LatticeError(ValueError):
    """Raised on model mismatches and malformed inputs."""


_RATIONAL_TEXT = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")


def rat(x) -> Fraction:
    """Coerce ints, strings like '3/16' or '-2', and Fractions to Fraction.

    A string must be p or p/q: ``Fraction`` would also read an exponent, and
    '1E999999999' would build a billion-digit integer.
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        m = _RATIONAL_TEXT.fullmatch(x)
        if m is None:
            raise LatticeError(f"not a rational p or p/q: {x!r}")
        p, q = m.groups()
        return Fraction(int(p), int(q) if q else 1)
    raise LatticeError(f"not an exact rational: {x!r}")


def rat_str(x: Fraction) -> str:
    """Serialize a rational as 'p/q', or 'p' when the denominator is 1."""
    x = rat(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


class _cached:
    """``functools.cached_property`` without the lock that Python 3.10 and
    3.11 take on each first access: the value goes into the instance's
    ``__dict__`` under the function's name, where every later access finds
    it before this descriptor."""

    def __init__(self, fn):
        self.fn, self.name = fn, fn.__name__

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.fn(obj)
        return value


@dataclass(frozen=True, eq=False)
class SurfaceModel:
    """A blowup of the plane (kind='rational') or of a ruled surface.

    ``k`` counts exceptional classes.  ``genus`` is the base-curve genus and
    is only meaningful for the ruled kind, where it must be >= 1.  A model
    equals only itself: models of equal shape are distinct lattices.
    """

    kind: str
    k: int
    genus: int = 0

    def __post_init__(self):
        if self.kind not in (RATIONAL, RULED):
            raise LatticeError(f"unknown model kind {self.kind!r}")
        if self.k < 0:
            raise LatticeError("k must be >= 0")
        if self.kind == RULED and self.genus < 1:
            raise LatticeError("ruled model requires genus >= 1")
        if self.kind == RATIONAL and self.genus != 0:
            raise LatticeError("plane model carries no genus")
        object.__setattr__(self, "_classes", _Table(partial(HomologyClass, self)))
        object.__setattr__(self, "_parsed", _Table(self._parse))
        object.__setattr__(self, "_exceptionals", _Table(self._exceptional))
        object.__setattr__(self, "_steps", {})  # see ``blowup._shared``; ``extend()`` shares it

    @_cached
    def head(self) -> int:
        """Ei's coefficient sits at index head + i - 1, after L or B, F."""
        return 1 if self.kind == RATIONAL else 2

    @_cached
    def rank(self) -> int:
        return self.head + self.k

    @_cached
    def basis_names(self) -> tuple[str, ...]:
        head = ("L",) if self.kind == RATIONAL else ("B", "F")
        return head + tuple(f"E{i}" for i in range(1, self.k + 1))

    @_cached
    def _extended(self) -> "SurfaceModel":
        out = SurfaceModel(self.kind, self.k + 1, self.genus)
        object.__setattr__(out, "_steps", self._steps)
        return out

    def extend(self) -> "SurfaceModel":
        """The model with one more exceptional class, one object per model."""
        return self._extended

    @_cached
    def _embedded(self) -> "_Table":  # the blowup's, made on first use
        return _Table(self._pad)

    @_cached
    def _less_last(self) -> "_Table":  # the blowup's, made on first use
        return _Table(self._less)

    def _pad(self, c: "HomologyClass") -> "HomologyClass":
        """c in ``extend()``, zero-padded.  The table of these lives on this,
        the source model, so that no model refers to an earlier one."""
        return self._extended.intern(c.coeffs + (0,))

    def _less(self, c: "HomologyClass") -> "HomologyClass":
        """c - Ek, Ek the model's last exceptional class."""
        return self.intern(c.coeffs[:-1] + (c.coeffs[-1] - 1,))

    def intern(self, coeffs: tuple[int, ...]) -> "HomologyClass":
        """The one class of this model with the coefficient tuple ``coeffs``.

        The table lives on the model object, so it is freed with the graphs
        that hold the model.  A new entry runs the length and integer checks.
        """
        return self._classes[coeffs]

    def as_json(self) -> dict:
        return {"kind": self.kind, "k": self.k, "genus": self.genus}

    def zero(self) -> "HomologyClass":
        return self.intern((0,) * self.rank)

    def unit(self, name: str) -> "HomologyClass":
        """The basis class with the given name ('L', 'B', 'F', or 'Ei')."""
        try:
            pos = self.basis_names.index(name)
        except ValueError:
            raise LatticeError(f"{name!r} is not a basis class of {self}")
        coeffs = [0] * self.rank
        coeffs[pos] = 1
        return self.intern(tuple(coeffs))

    def exceptional(self, i: int) -> "HomologyClass":
        """The class Ei, looked up once per (model, i)."""
        return self._exceptionals[i]

    def _exceptional(self, i: int) -> "HomologyClass":
        return self.unit(f"E{i}")

    def parse(self, text: str) -> "HomologyClass":
        """Parse 'L-E1-E4-E5', '2B+3F-E2', '-E3' or '0'; each text once.  A
        refused text is kept nowhere: each parse of it raises anew."""
        return self._parsed[text]

    def _parse(self, text: str) -> "HomologyClass":
        compact = text.replace(" ", "")
        if compact in ("0", ""):
            return self.zero()
        coeffs = [0] * self.rank
        pos = 0
        for m in _TERM.finditer(compact):
            # Every term after the first opens with its sign: E1E2 is no class.
            if m.start() != pos or (pos and not m.group(1)):
                raise LatticeError(f"cannot parse class {compact!r}")
            pos = m.end()
            sign = -1 if m.group(1) == "-" else 1
            mult = int(m.group(2)) if m.group(2) else 1
            name = m.group(3)
            try:
                idx = self.basis_names.index(name)
            except ValueError:
                raise LatticeError(f"{name!r} not in basis of {self}")
            coeffs[idx] += sign * mult
        if pos != len(compact):
            raise LatticeError(f"cannot parse class {compact!r}")
        return self.intern(tuple(coeffs))

    @_cached
    def _text(self) -> str:
        if self.kind == RATIONAL:
            return f"rational k={self.k}"
        return f"ruled genus={self.genus} k={self.k}"

    def __str__(self):
        return self._text


_TERM = re.compile(r"([+-]?)(\d*)(L|B|F|E(\d+))")


@dataclass(frozen=True, eq=False)
class HomologyClass:
    """An integer class in the fixed basis of a surface model.

    Build classes through the model (``intern``, ``unit``, ``parse``) or by
    arithmetic, which return the model's one object per coefficient tuple,
    so a class equals only itself.  Its ``text`` and ``twice_genus`` are
    computed on first read and are then plain instance attributes; nothing
    is computed when a class is made.
    """

    model: SurfaceModel
    coeffs: tuple[int, ...]

    def __post_init__(self):
        if len(self.coeffs) != self.model.rank:
            raise LatticeError(
                f"coefficient vector of length {len(self.coeffs)} for {self.model}"
            )
        if not all(map(isinstance, self.coeffs, itertools.repeat(int))):
            raise LatticeError("homology coefficients must be integers")

    def _check(self, other: "HomologyClass"):
        if self.model is not other.model:
            raise LatticeError(f"model mismatch: {self.model} vs {other.model}")

    def __add__(self, other):
        self._check(other)
        return self.model.intern(tuple(map(add, self.coeffs, other.coeffs)))

    def __sub__(self, other):
        self._check(other)
        return self.model.intern(tuple(map(sub, self.coeffs, other.coeffs)))

    def __neg__(self):
        return self.model.intern(tuple(map(neg, self.coeffs)))

    def __mul__(self, n: int):
        # 2.0 or Fraction(2) would find the integer class in the table.
        if not isinstance(n, int):
            raise LatticeError(f"class multiplier must be an integer, not {n!r}")
        return self.model.intern(tuple(n * a for a in self.coeffs))

    __rmul__ = __mul__

    def exceptional_support(self) -> tuple[int, ...]:
        """Indices i with a nonzero Ei coefficient."""
        head = self.model.head
        return tuple(
            i for i in range(1, self.model.k + 1) if self.coeffs[head + i - 1] != 0
        )

    @_cached
    def twice_genus(self) -> int:
        """``twice_adjunction_genus(self)``."""
        return twice_adjunction_genus(self)

    @_cached
    def text(self) -> str:
        """'L-E1-E4-E5', '2B+3F-E2', '-E3' or '0': what ``parse`` reads."""
        parts = []
        for name, c in zip(self.model.basis_names, self.coeffs):
            if c == 0:
                continue
            sign = "-" if c < 0 else ("+" if parts else "")
            mag = abs(c)
            parts.append(f"{sign}{'' if mag == 1 else mag}{name}")
        return "".join(parts) if parts else "0"

    def __str__(self):
        return self.text


def intersect(a: HomologyClass, b: HomologyClass) -> int:
    """Intersection number: L.L=1, Ei.Ei=-1, B.F=1, all else orthogonal."""
    a._check(b)
    if a.model.kind == RATIONAL:
        lead = a.coeffs[0] * b.coeffs[0]
    else:
        lead = a.coeffs[0] * b.coeffs[1] + a.coeffs[1] * b.coeffs[0]
    start = a.model.head
    return lead - sum(x * y for x, y in zip(a.coeffs[start:], b.coeffs[start:]))


def canonical_chern(model: SurfaceModel) -> HomologyClass:
    """Dual of the first Chern class: 3L - sum Ei, or 2B + (2-2g)F - sum Ei."""
    if model.kind == RATIONAL:
        coeffs = (3,) + (-1,) * model.k
    else:
        coeffs = (2, 2 - 2 * model.genus) + (-1,) * model.k
    return model.intern(coeffs)


def chern_pairing(c: HomologyClass) -> int:
    return intersect(canonical_chern(c.model), c)


def twice_adjunction_genus(c: HomologyClass) -> int:
    """2 + c.c - <c1,c>, an integer; zero exactly for embedded sphere classes.

    With c = (a; e1..ek) in the plane model, c.c - <c1,c> is
    a^2 - 3a - sum ei(ei + 1); with c = (b, f; e1..ek) in the ruled model it
    is 2bf - 2b - (2-2g)f - sum ei(ei + 1).
    """
    x = c.coeffs
    if c.model.kind == RATIONAL:
        lead = x[0] * (x[0] - 3)
    else:
        lead = 2 * x[0] * x[1] - 2 * x[1] - (2 - 2 * c.model.genus) * x[0]
    return 2 + lead - sum(e * (e + 1) for e in x[c.model.head:])


def classify_negative(c: HomologyClass) -> str:
    """MINUS_ONE (square -1, c1-degree 1), MINUS_TWO (-2, 0), or NEITHER."""
    sq = intersect(c, c)
    deg = chern_pairing(c)
    if sq == -1 and deg == 1:
        return MINUS_ONE
    if sq == -2 and deg == 0:
        return MINUS_TWO
    return NEITHER


class _Table(dict):
    """``fn(key)`` of each key, computed on its first lookup and kept."""

    def __init__(self, fn):
        super().__init__()
        self.fn = fn

    def __missing__(self, key):
        value = self[key] = self.fn(key)
        return value


def _area(weights: tuple[int, ...], c: HomologyClass) -> int:
    """``weights . c.coeffs``: D times the area of the class ``c``."""
    return sum(map(mul, weights, c.coeffs))


def _ratio_text(den: int, n: int) -> str:
    """``rat_str(Fraction(n, den))`` for den > 0, without building the Fraction."""
    c = math.gcd(n, den)
    return str(n // c) if c == den else f"{n // c}/{den // c}"


@dataclass(frozen=True)
class CohomologyVector:
    """A class vector (lam; d1..dk) or (lamF, lamB; d1..dk), exact entries.

    ``denominator`` is the least common denominator D of the entries and
    ``weights`` are the integers D * <omega, basis class>, in the basis order
    of ``HomologyClass.coeffs`` (so (lamB, lamF; d1..dk) for the ruled
    model).
    """

    model: SurfaceModel
    entries: tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.entries) != self.model.rank:
            raise LatticeError(
                f"entry vector of length {len(self.entries)} for {self.model}"
            )
        entries = tuple(rat(x) for x in self.entries)
        object.__setattr__(self, "entries", entries)
        den = math.lcm(*(x.denominator for x in entries))
        scaled = [x.numerator * (den // x.denominator) for x in entries]
        if self.model.kind == RULED:
            scaled[0], scaled[1] = scaled[1], scaled[0]
        weights = tuple(scaled)
        object.__setattr__(self, "denominator", den)
        object.__setattr__(self, "weights", weights)
        # Its compute holds the model and entries, not the vector: a vector
        # in no reference cycle is freed, tables and all, with its last graph.
        object.__setattr__(self, "_extensions", _Table(partial(_extended, self.model, entries)))
        # enumeration._permutation_group's relabeling class tables, per
        # ledger length
        object.__setattr__(self, "_relabelings", {})
        # Tables the kernel reads per graph, filled as it asks and freed with
        # the vector: the area ``weights . coeffs`` of each class, keyed by the
        # class object, which hashes by identity; the text of each height over
        # den; each fixed-surface class's V record end
        # (``graphs._fixed_record``); and what ``graphs.parse_graph`` built from
        # each line it has read and checked on this vector (MODEL, OMEGA, V, E
        # and FIBER) and from each ledger step word, keyed by (step, steps,
        # word).  A new vector starts empty.
        object.__setattr__(self, "_areas", _Table(partial(_area, weights)))
        object.__setattr__(self, "_moment_texts", _Table(partial(_ratio_text, den)))
        object.__setattr__(self, "_fixed_records", {})
        object.__setattr__(self, "_parsed_records", {})

    @staticmethod
    def rational(lam, deltas) -> "CohomologyVector":
        deltas = tuple(rat(d) for d in deltas)
        model = SurfaceModel(RATIONAL, len(deltas))
        return CohomologyVector(model, (rat(lam),) + deltas)

    @staticmethod
    def ruled(lam_f, lam_b, deltas, genus=1) -> "CohomologyVector":
        deltas = tuple(rat(d) for d in deltas)
        model = SurfaceModel(RULED, len(deltas), genus)
        return CohomologyVector(model, (rat(lam_f), rat(lam_b)) + deltas)

    @property
    def deltas(self) -> tuple[Fraction, ...]:
        return self.entries[self.model.head:]

    def extend(self, delta) -> "CohomologyVector":
        """Append one size; one shared object per (vector, size)."""
        return self._extensions[rat(delta)]

    @_cached
    def _text(self) -> str:
        head = ",".join(rat_str(x) for x in self.entries[: self.model.head])
        tail = ",".join(rat_str(x) for x in self.deltas)
        return f"({head};{tail})"

    def __str__(self):
        return self._text

    @_cached
    def _head_lines(self) -> str:  # a graph's MODEL and OMEGA records, one text
        return f"MODEL {self.model}\nOMEGA {self}"


def _extended(model: SurfaceModel, entries: tuple[Fraction, ...], delta: Fraction) -> CohomologyVector:
    """The vector with the entries ``entries`` and ``delta`` on ``model.extend()``."""
    return CohomologyVector(model.extend(), entries + (delta,))


def pair(omega: CohomologyVector, c: HomologyClass) -> Fraction:
    """Pairing of a class vector with a homology class.

    <omega, L> = lam, <omega, Ei> = di, <omega, B> = lamB, <omega, F> = lamF.
    """
    if omega.model is not c.model:
        raise LatticeError(f"model mismatch: {omega.model} vs {c.model}")
    return Fraction(omega._areas[c], omega.denominator)


def volume(omega: CohomologyVector) -> Fraction:
    """Self-pairing: lam^2 - sum di^2, or 2*lamF*lamB - sum di^2."""
    if omega.model.kind == RATIONAL:
        head = omega.entries[0] ** 2
    else:
        head = 2 * omega.entries[0] * omega.entries[1]
    return head - sum((d * d for d in omega.deltas), Fraction(0))


def is_reduced(omega: CohomologyVector) -> bool:
    """Weakly decreasing sizes plus the model's sum inequality.

    Plane model (needs k >= 3): d1 + d2 + d3 <= lam.
    Ruled model (needs k >= 2): d1 + d2 <= lamF.
    """
    d = omega.deltas
    if omega.model.kind == RATIONAL:
        if omega.model.k < 3:
            raise LatticeError("reduced form needs k >= 3 for the plane model")
        bound, take = omega.entries[0], 3
    else:
        if omega.model.k < 2:
            raise LatticeError("reduced form needs k >= 2 for the ruled model")
        bound, take = omega.entries[0], 2
    if any(d[i] < d[i + 1] for i in range(len(d) - 1)):
        return False
    return sum(d[:take], Fraction(0)) <= bound


def det_int(rows: list[list[int]]) -> int:
    """Determinant of an integer matrix by fraction-free elimination."""
    n = len(rows)
    m = [list(r) for r in rows]
    sign = 1
    prev = 1
    for j in range(n - 1):
        if m[j][j] == 0:
            for i in range(j + 1, n):
                if m[i][j] != 0:
                    m[j], m[i] = m[i], m[j]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(j + 1, n):
            for c in range(j + 1, n):
                m[i][c] = (m[i][c] * m[j][j] - m[i][j] * m[j][c]) // prev
            m[i][j] = 0
        prev = m[j][j]
    return sign * m[n - 1][n - 1]


def basis_check(classes: list[HomologyClass]) -> bool:
    """Whether the classes form an integral basis (determinant +-1)."""
    if not classes:
        raise LatticeError("empty class list")
    model = classes[0].model
    for c in classes:
        if c.model is not model:
            raise LatticeError("basis candidates must share one model")
    if len(classes) != model.rank:
        raise LatticeError(
            f"need exactly {model.rank} classes for {model}, got {len(classes)}"
        )
    return abs(det_int([list(c.coeffs) for c in classes])) == 1


# The most candidates a box search visits: a few microseconds each, about a
# minute in all.  A larger box would not finish, or its coefficient range
# not fit in memory.
MAX_BOX = 10**7


def enumerate_negative_classes(
    model: SurfaceModel, coefficient_bound: int
) -> list[HomologyClass]:
    """All classes with coefficients in [-bound, bound] of square -1 or -2.

    Box search; returns a deterministic, coefficient-sorted list of the
    model's classes classified MINUS_ONE or MINUS_TWO.  A box of more than
    ``MAX_BOX`` candidates is a LatticeError.
    """
    if coefficient_bound < 1:
        raise LatticeError("coefficient bound must be >= 1")
    side = 2 * coefficient_bound + 1
    # side >= 3, so a power to MAX_BOX's bit length already exceeds it.
    if side ** min(model.rank, MAX_BOX.bit_length()) > MAX_BOX:
        raise LatticeError(f"a box of {side}^{model.rank} candidates is more than {MAX_BOX:,}")
    span = range(-coefficient_bound, coefficient_bound + 1)
    found = []
    for coeffs in itertools.product(span, repeat=model.rank):
        c = HomologyClass(model, coeffs)
        if classify_negative(c) != NEITHER:
            found.append(model.intern(coeffs))
    found.sort(key=lambda c: c.coeffs)
    return found
