import operator
import random
from fractions import Fraction as F

import pytest

from decgraph.cone import (
    GENERATOR_LISTS,
    ConeSeparation,
    ConeWitness,
    GeneratorList,
    cone_membership,
    curve_list_audit,
    nakai_check,
    verify_picard_basis,
)
from decgraph.lattice import (
    CohomologyVector,
    HomologyClass,
    LatticeError,
    SurfaceModel,
    enumerate_negative_classes,
    pair,
    twice_adjunction_genus,
)

OMEGA6 = CohomologyVector.rational(1, ["1/2", "1/4", "1/4", "1/4", "3/16", "1/8"])
OMEGA_W3 = CohomologyVector.ruled(1, 1, ["3/5", "7/20", "3/10"], genus=2)
M6, W3 = OMEGA6.model, OMEGA_W3.model


def lists_on(*models):
    """Each shipped curve list of the shape of one of ``models``, parsed on it."""
    shapes = {(m.kind, m.k): m for m in models}
    return {
        key: GeneratorList.parse(shapes[kind, k], names)
        for key, (kind, k, names) in GENERATOR_LISTS.items()
        if (kind, k) in shapes
    }


LISTS = lists_on(M6, W3)


def test_nakai_passes_on_the_six_blowup_list():
    report = nakai_check(OMEGA6, LISTS["plane-six"])
    assert report.passed
    assert report.square == F(131, 256)
    assert min(p for _, p in report.pairings) == F(1, 16)


def test_nakai_passes_on_the_ruled_list():
    report = nakai_check(OMEGA_W3, LISTS["ruled-three"])
    assert report.passed
    assert [p for _, p in report.pairings] == [
        F(1, 20), F(1, 20), F(3, 10), F(1, 4), F(2, 5),
    ]


def test_nakai_fails_on_a_zero_pairing():
    omega = CohomologyVector.rational(1, ["1/2", "1/2", "1/4"])
    gens = GeneratorList.parse(omega.model, ["L-E1-E2"])
    report = nakai_check(omega, gens)
    assert not report.passed
    assert report.pairings[0][1] == 0


def test_nakai_model_mismatch():
    with pytest.raises(LatticeError):
        nakai_check(OMEGA6, LISTS["ruled-three"])


def test_membership_fiber_witness_is_exact():
    out = cone_membership(W3.parse("F"), LISTS["ruled-three"])
    assert isinstance(out, ConeWitness)
    # generators: F-E1-E2, E2-E3, E3, E1-E2, B-E1
    assert out.coefficients == (F(1), F(2), F(2), F(1), F(0))


def test_membership_section_witness_is_exact():
    out = cone_membership(W3.parse("B"), LISTS["ruled-three"])
    assert isinstance(out, ConeWitness)
    assert out.coefficients == (F(0), F(1), F(1), F(1), F(1))


def test_non_membership_gives_separating_functional():
    out = cone_membership(-W3.parse("E3"), LISTS["ruled-three"])
    assert isinstance(out, ConeSeparation)
    assert out.apply(-W3.parse("E3")) < 0
    for g in LISTS["ruled-three"].generators:
        assert out.apply(g) >= 0


def test_membership_random_nonnegative_combinations():
    rng = random.Random(12)
    gens = LISTS["ruled-three"]
    for _ in range(40):
        coeffs = [rng.randint(0, 4) for _ in gens.generators]
        target = W3.zero()
        for a, g in zip(coeffs, gens.generators):
            target = target + a * g
        out = cone_membership(target, gens)
        assert isinstance(out, ConeWitness)
        rebuilt = W3.zero()
        total = [F(0)] * W3.rank
        for a, g in zip(out.coefficients, gens.generators):
            total = [t + a * x for t, x in zip(total, g.coeffs)]
        assert total == [F(x) for x in target.coeffs]


def test_membership_random_outside_points_verified_by_functional():
    rng = random.Random(13)
    gens = LISTS["ruled-three"]
    hits = 0
    for _ in range(60):
        target = HomologyClass(W3, tuple(rng.randint(-3, 3) for _ in range(5)))
        out = cone_membership(target, gens)
        if isinstance(out, ConeSeparation):
            hits += 1
            assert out.apply(target) < 0
            assert all(out.apply(g) >= 0 for g in gens.generators)
    assert hits > 0


def test_membership_on_a_redundant_generator_list():
    # more generators than the rank: the plane list has 10 in rank 7
    gens = LISTS["plane-six"]
    target = M6.zero()
    for g in gens.generators[:4]:
        target = target + 2 * g
    out = cone_membership(target, gens)
    assert isinstance(out, ConeWitness)
    out2 = cone_membership(-M6.parse("E6"), gens)
    assert isinstance(out2, ConeSeparation)


def test_picard_basis_checks():
    first7 = [g for g in LISTS["plane-six"].generators[:7]]
    assert verify_picard_basis(first7)
    assert verify_picard_basis([M6.unit(n) for n in M6.basis_names])
    with pytest.raises(LatticeError):
        verify_picard_basis(list(LISTS["plane-six"].generators))  # all ten


def test_curve_audits():
    for key in ("plane-six", "plane-six-alt"):
        audit = curve_list_audit(LISTS[key])
        assert audit.count("minus_two") == 4
        assert audit.count("minus_one") == 6
        assert audit.flagged == ()
        assert all(twice_adjunction_genus(e.cls) == 0 for e in audit.entries)
    fake = GeneratorList.parse(M6, ["L"])
    assert len(curve_list_audit(fake).flagged) == 1


def test_audited_classes_appear_in_bounded_enumeration():
    box = set(enumerate_negative_classes(M6, 1)) | set(
        enumerate_negative_classes(M6, 2)
    )
    for key in ("plane-six", "plane-six-alt"):
        for g in LISTS[key].generators:
            assert g in box


def test_both_ruled_generator_lists_are_shipped():
    model = SurfaceModel("ruled", 2, 3)
    lists = lists_on(model)
    assert sorted(lists) == ["ruled-two"]
    two = lists["ruled-two"]
    assert [str(g) for g in two.generators] == ["F-E1-E2", "E2", "E1-E2", "B-E1"]
    assert two.model is model
    # parsed again on the same model: the model's same class objects
    again = lists_on(model)["ruled-two"]
    assert again == two and all(map(operator.is_, again.generators, two.generators))
    assert sorted(LISTS) == ["plane-six", "plane-six-alt", "ruled-three"]


def test_generator_list_guards():
    with pytest.raises(LatticeError):
        GeneratorList(M6, ())
    with pytest.raises(LatticeError):
        GeneratorList(M6, (W3.parse("F"),))
    with pytest.raises(LatticeError):
        cone_membership(W3.parse("F"), LISTS["plane-six"])
