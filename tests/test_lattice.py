import gc
import pickle
import random
import weakref
from fractions import Fraction as F

import pytest

from decgraph import lattice
from decgraph.lattice import (
    CohomologyVector,
    HomologyClass,
    LatticeError,
    SurfaceModel,
    basis_check,
    canonical_chern,
    chern_pairing,
    classify_negative,
    det_int,
    enumerate_negative_classes,
    intersect,
    is_reduced,
    pair,
    rat,
    rat_str,
    twice_adjunction_genus,
    volume,
)


def solve_rational(matrix, rhs):
    """Solve a square exact-rational linear system by Gaussian elimination.

    The dual-basis oracle below; returns a list of Fractions or raises
    LatticeError if the matrix is singular.
    """
    n = len(matrix)
    m = [[rat(x) for x in row] + [rat(b)] for row, b in zip(matrix, rhs)]
    for j in range(n):
        piv = next((i for i in range(j, n) if m[i][j] != 0), None)
        if piv is None:
            raise LatticeError("singular system")
        m[j], m[piv] = m[piv], m[j]
        inv = 1 / m[j][j]
        m[j] = [x * inv for x in m[j]]
        for i in range(n):
            if i != j and m[i][j] != 0:
                f = m[i][j]
                m[i] = [x - f * y for x, y in zip(m[i], m[j])]
    return [m[i][n] for i in range(n)]

OMEGA6 = CohomologyVector.rational(1, ["1/2", "1/4", "1/4", "1/4", "3/16", "1/8"])
OMEGA_W3 = CohomologyVector.ruled(1, 1, ["3/5", "7/20", "3/10"], genus=2)
M6, W3 = OMEGA6.model, OMEGA_W3.model
M1 = SurfaceModel("rational", 1)


def test_intersection_form_basics():
    assert intersect(M6.parse("L"), M6.parse("L")) == 1
    assert intersect(M6.parse("E1"), M6.parse("E1")) == -1
    assert intersect(M6.parse("L"), M6.parse("E3")) == 0
    assert intersect(M6.parse("E1"), M6.parse("E2")) == 0
    assert intersect(W3.parse("B"), W3.parse("F")) == 1
    assert intersect(W3.parse("B"), W3.parse("B")) == 0
    assert intersect(W3.parse("F"), W3.parse("F")) == 0
    assert intersect(W3.parse("B"), W3.parse("E1")) == 0


def test_intersection_spot_values():
    assert intersect(M6.parse("E5"), M6.parse("E5-E6")) == -1
    assert intersect(M6.parse("E1-E2-E5"), M6.parse("E1-E2")) == -2


@pytest.mark.parametrize("text", ["E1E2", "B F", "2BF", "E1-E2E3", "F 2E1", "B+F E1"])
def test_a_term_after_the_first_needs_its_sign(text):
    with pytest.raises(LatticeError, match="cannot parse class"):
        W3.parse(text)


def test_signed_terms_parse_and_every_class_text_round_trips():
    assert W3.parse("B + F") == W3.parse("B+F") == W3.intern((1, 1, 0, 0, 0))
    assert W3.parse("-E1+2E3") == W3.intern((0, 0, -1, 0, 2))
    for coeffs in [(1, 0, 0, 0, 0), (2, 3, 0, -1, 0), (0, 0, -1, -1, 1), (-1, 1, 1, 1, 1)]:
        cls = W3.intern(coeffs)
        assert W3.parse(str(cls)) is cls


def test_model_mismatch_is_an_error():
    with pytest.raises(LatticeError):
        intersect(M6.parse("L"), M1.parse("L"))
    with pytest.raises(LatticeError):
        pair(OMEGA6, M1.parse("E1"))


def test_bilinearity_and_symmetry_random():
    rng = random.Random(7)
    for model in (M6, W3):
        for _ in range(60):
            a, b, c = (
                HomologyClass(
                    model, tuple(rng.randint(-4, 4) for _ in range(model.rank))
                )
                for _ in range(3)
            )
            s, t = rng.randint(-3, 3), rng.randint(-3, 3)
            assert intersect(a, b) == intersect(b, a)
            assert intersect(s * a + t * b, c) == s * intersect(a, c) + t * intersect(b, c)


def test_canonical_chern():
    c1 = canonical_chern(M6)
    assert intersect(c1, M6.parse("L")) == 3
    assert intersect(c1, M6.parse("E4")) == 1
    assert intersect(c1, c1) == 9 - 6  # anticanonical square of the six-blowup
    for g in (1, 2, 3):
        W = SurfaceModel("ruled", 4, g)
        cw = canonical_chern(W)
        assert intersect(cw, W.parse("F")) == 2
        assert intersect(cw, W.parse("E2")) == 1
        # sphere in the fiber class: square 0, genus 0 forces degree 2
        assert twice_adjunction_genus(W.parse("F")) == 0


def test_pair_examples():
    assert pair(OMEGA6, M6.parse("E5-E6")) == F(1, 16)
    assert pair(OMEGA_W3, W3.parse("F-E1-E2")) == F(1, 20)
    assert pair(OMEGA_W3, W3.zero()) == 0
    assert pair(OMEGA_W3, W3.parse("B")) == 1
    assert pair(OMEGA_W3, W3.parse("F")) == 1


def test_pair_linearity_random():
    rng = random.Random(11)
    for _ in range(40):
        a = HomologyClass(M6, tuple(rng.randint(-3, 3) for _ in range(7)))
        b = HomologyClass(M6, tuple(rng.randint(-3, 3) for _ in range(7)))
        assert pair(OMEGA6, a + b) == pair(OMEGA6, a) + pair(OMEGA6, b)


def test_volume():
    assert volume(OMEGA6) == F(131, 256)
    assert volume(OMEGA_W3) == F(571, 400)
    assert volume(CohomologyVector.rational(F(5, 3), [])) == F(25, 9)


def test_volume_matches_dual_basis_oracle():
    # Poincare dual oracle: solve the Gram system for the dual of omega,
    # then the self-pairing is the pairing against that dual.
    rng = random.Random(3)
    for model, omega in ((M6, OMEGA6), (W3, OMEGA_W3)):
        basis = [model.unit(name) for name in model.basis_names]
        gram = [[intersect(x, y) for y in basis] for x in basis]
        for _ in range(5):
            entries = tuple(F(rng.randint(-8, 8), rng.randint(1, 9)) for _ in basis)
            om = CohomologyVector(model, entries)
            rhs = [pair(om, b) for b in basis]
            dual = solve_rational(gram, rhs)
            assert volume(om) == sum(x * p for x, p in zip(dual, rhs))


def test_adjunction_genus():
    assert twice_adjunction_genus(M6.parse("E1-E2")) == 0
    assert twice_adjunction_genus(M6.parse("3L")) == 2  # smooth plane cubic
    for g in (1, 2, 5):
        W = SurfaceModel("ruled", 0, g)
        assert twice_adjunction_genus(W.parse("B")) == 2 * g


def test_adjunction_restatement_identity_random():
    rng = random.Random(23)
    for model in (M6, W3):
        for _ in range(80):
            c = HomologyClass(model, tuple(rng.randint(-5, 5) for _ in range(model.rank)))
            assert twice_adjunction_genus(c) - 2 == intersect(c, c) - chern_pairing(c)


def test_is_reduced():
    assert is_reduced(OMEGA6)
    assert is_reduced(OMEGA_W3)
    assert not is_reduced(CohomologyVector.rational(1, ["1/2", "1/2", "1/4"]))
    assert not is_reduced(CohomologyVector.rational(1, ["1/4", "1/2", "1/8"]))
    with pytest.raises(LatticeError):
        is_reduced(CohomologyVector.rational(1, ["1/2", "1/4"]))
    with pytest.raises(LatticeError):
        is_reduced(CohomologyVector.ruled(1, 1, ["1/2"]))


def test_classify_negative():
    assert classify_negative(M6.parse("L-E1-E4-E5")) == "minus_two"
    assert classify_negative(M6.parse("L-E3-E4")) == "minus_one"
    assert classify_negative(M6.parse("L")) == "neither"
    assert classify_negative(M6.parse("E6")) == "minus_one"


def test_basis_check():
    std = [M6.unit(name) for name in M6.basis_names]
    assert basis_check(std)
    repeated = [std[0], std[0]] + std[2:]
    assert not basis_check(repeated)
    with pytest.raises(LatticeError):
        basis_check(std[:-1])


def test_basis_check_invariance_random():
    rng = random.Random(5)
    first7 = [
        M6.parse(t)
        for t in ("E4-E5", "E5-E6", "L-E1-E4-E5", "E1-E2", "E6", "L-E3-E4", "E2")
    ]
    assert basis_check(first7)
    for _ in range(20):
        shuffled = first7[:]
        rng.shuffle(shuffled)
        flipped = [c if rng.random() < 0.5 else -c for c in shuffled]
        assert basis_check(flipped)


def test_det_int():
    assert det_int([[2, 0], [0, 3]]) == 6
    assert det_int([[0, 1], [1, 0]]) == -1
    assert det_int([[1, 2], [2, 4]]) == 0


def test_enumerate_negative_classes_six():
    found = set(enumerate_negative_classes(M6, 1))
    listed = [
        "E4-E5", "E5-E6", "L-E1-E4-E5", "E1-E2",
        "E6", "L-E3-E4", "E2", "L-E1-E3", "L-E1-E2", "E3",
    ]
    for text in listed:
        assert M6.parse(text) in found


def test_enumerate_negative_classes_one_blowup_brute_force():
    # independent brute force over the 9 bound-1 vectors
    expected = set()
    for a in (-1, 0, 1):
        for b in (-1, 0, 1):
            sq = a * a - b * b
            deg = 3 * a + b
            if (sq, deg) in ((-1, 1), (-2, 0)):
                expected.add((a, b))
    got = {c.coeffs for c in enumerate_negative_classes(M1, 1)}
    assert got == expected == {(0, 1)}  # the exceptional class alone


def test_enumerate_negative_classes_no_blowups():
    assert enumerate_negative_classes(SurfaceModel("rational", 0), 3) == []
    with pytest.raises(LatticeError):
        enumerate_negative_classes(M6, 0)


def test_negative_enumeration_consistency_with_classifier():
    for c in enumerate_negative_classes(SurfaceModel("rational", 3), 2):
        assert classify_negative(c) in ("minus_one", "minus_two")


def test_rational_serialization():
    assert rat_str(F(3, 16)) == "3/16"
    assert rat_str(F(4, 2)) == "2"
    assert rat("-7/20") == F(-7, 20)


def test_class_parse_and_str_round_trip():
    for text in ("L-E1-E4-E5", "2L-E1", "B+2F-E2", "-E3", "0", "E5-E6"):
        model = W3 if ("B" in text or "F" in text) else M6
        cls = model.parse(text)
        assert model.parse(str(cls)) == cls
    with pytest.raises(LatticeError):
        M6.parse("L-Q1")
    with pytest.raises(LatticeError):
        M6.parse("B")


def counting(monkeypatch, owner, name):
    """The keys that ``owner.name(self, key)`` is called with, once patched."""
    keys, compute = [], getattr(owner, name)

    def counted(self, key):
        keys.append(key)
        return compute(self, key)

    monkeypatch.setattr(owner, name, counted)
    return keys


def test_each_table_computes_once_per_key(monkeypatch):
    """``intern``, ``parse``, ``exceptional`` and ``CohomologyVector.extend``
    compute on a key's first lookup only, and return that one object after."""
    made, post_init = [], HomologyClass.__post_init__
    monkeypatch.setattr(HomologyClass, "__post_init__", lambda c: made.append(c.coeffs) or post_init(c))
    parsed = counting(monkeypatch, SurfaceModel, "_parse")
    exceptionals = counting(monkeypatch, SurfaceModel, "_exceptional")
    extended, extend = [], lattice._extended
    monkeypatch.setattr(lattice, "_extended", lambda *args: extended.append(args[-1]) or extend(*args))
    omega = CohomologyVector.rational(1, ["1/2", "1/4"])
    model = omega.model
    first = [model.intern((1, 0, 0)), model.parse("L-E1"), model.exceptional(2), omega.extend("1/8")]
    for _ in range(2):
        again = [model.intern((1, 0, 0)), model.parse("L-E1"), model.exceptional(2), omega.extend(F(1, 8))]
        assert all(a is b for a, b in zip(again, first))
    assert made == [(1, 0, 0), (1, -1, 0), (0, 0, 1)]
    assert (parsed, exceptionals, extended) == (["L-E1"], [2], [F(1, 8)])


def test_a_refused_parse_keeps_nothing_and_raises_again(monkeypatch):
    parsed = counting(monkeypatch, SurfaceModel, "_parse")
    model = SurfaceModel("rational", 2)
    for _ in range(2):
        with pytest.raises(LatticeError, match="cannot parse class 'E1E2'"):
            model.parse("E1E2")
    assert parsed == ["E1E2", "E1E2"] and not model._parsed


def test_a_model_with_filled_tables_pickles():
    """Each table computes through a bound method or a ``partial``, no
    lambda, so a vector and its model pickle with their filled tables, and
    the copies' tables still fill and still return one object per key."""
    omega = CohomologyVector.rational(1, ["1/2", "1/4"])
    model = omega.model
    c = model.parse("L-E1")
    model.exceptional(2), omega.extend("1/8"), model._embedded[c], model._less_last[c]
    copy = pickle.loads(pickle.dumps(omega))
    m = copy.model
    assert m is not model and len(m._classes) == len(model._classes)
    assert m.parse("L-E1") is m.intern((1, -1, 0)) and str(m.parse("L-E1")) == "L-E1"
    assert m.exceptional(2) is m.intern((0, 0, 1))
    assert m.parse("E2-E1") is m.intern((0, -1, 1))  # a key first asked of the copy
    wider = copy.extend(F(1, 8))
    assert wider is copy.extend("1/8") and wider.model is m.extend()
    assert m._embedded[m.parse("L-E1")] is wider.model.intern((1, -1, 0, 0))


def test_a_vector_is_freed_with_its_last_reference():
    """No table of a vector refers back to it, so with the collector off a
    dropped vector goes at once, with its extensions and their tables."""
    omega = CohomologyVector.rational(1, ["1/2", "1/4"])
    wider = omega.extend("1/8")
    wider.extend("1/16"), omega._areas[omega.model.parse("L-E1")]
    refs = [weakref.ref(omega), weakref.ref(wider)]
    enabled = gc.isenabled()
    gc.disable()
    try:
        del omega, wider
        assert [ref() for ref in refs] == [None, None]
    finally:
        if enabled:
            gc.enable()
