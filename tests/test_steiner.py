from itertools import combinations, permutations
from math import comb

import pytest

from fixlat.errors import (InternalConsistencyError, PreconditionError,
                           ValidationError)
from fixlat.geometry import pgl_generators
from fixlat.group import PermutationGroup, group_from_generators
from fixlat.steiner import (SteinerSystem, blocks_pointwise_stabilized,
                            counting_identity_holds, derivation, jordan_report,
                            make_system, steiner_automorphism_check,
                            steiner_from_affine, steiner_from_affine_planes,
                            steiner_from_projective, steiner_isomorphism,
                            verify_steiner)


@pytest.fixture(scope="module")
def fano_system():
    return steiner_from_projective(2, 2)


@pytest.fixture(scope="module")
def s348():
    return steiner_from_affine_planes(3)


def test_fano_system_shape(fano_system):
    assert fano_system.num_points == 7
    assert len(fano_system.blocks) == 7
    assert fano_system.block_size == 3
    assert verify_steiner(fano_system).valid


def test_deleting_a_block_breaks_coverage(fano_system):
    broken = SteinerSystem(2, 7, fano_system.blocks[1:])
    rep = verify_steiner(broken)
    assert not rep.valid
    uncovered = [v for v in rep.violations if v["kind"] == "uncovered"]
    assert len(uncovered) == 3
    assert {v["subset"] for v in uncovered} == set(
        combinations(fano_system.blocks[0], 2))


def test_affine_plane_of_order_three():
    sys = steiner_from_affine(3, 2)
    assert sys.num_points == 9
    assert len(sys.blocks) == 12
    assert verify_steiner(sys).valid
    assert comb(9, 2) == 12 * comb(3, 2)


def test_projective_constructions():
    pg32 = steiner_from_projective(2, 3)
    assert pg32.num_points == 15
    assert len(pg32.blocks) == 35
    assert pg32.block_size == 3
    pg23 = steiner_from_projective(3, 2)
    assert pg23.num_points == 13
    assert len(pg23.blocks) == 13
    assert pg23.block_size == 4


def test_non_prime_field_rejected():
    with pytest.raises(ValidationError):
        steiner_from_projective(6, 2)
    with pytest.raises(ValidationError):
        steiner_from_affine(4, 2)


def test_counting_identity_for_shipped_two_systems():
    for sys in (steiner_from_projective(2, 2), steiner_from_projective(2, 3),
                steiner_from_projective(3, 2), steiner_from_projective(5, 2),
                steiner_from_affine(3, 2), steiner_from_affine(5, 2)):
        assert verify_steiner(sys).valid
        assert counting_identity_holds(sys)


def test_binary_affine_lines_rejected():
    with pytest.raises(ValidationError):
        steiner_from_affine(2, 3)


def test_s348_shape(s348):
    assert s348.k == 3
    assert s348.num_points == 8
    assert len(s348.blocks) == 14
    assert s348.block_size == 4
    assert verify_steiner(s348).valid


def test_derivation_at_every_point_gives_fano(s348, fano_system):
    for p in range(8):
        derived = derivation(s348, p)
        assert derived.k == 2
        assert derived.num_points == 7
        assert len(derived.blocks) == 7
        assert verify_steiner(derived).valid
        assert steiner_isomorphism(derived, fano_system) is not None


def test_derivation_needs_k_at_least_three(fano_system):
    with pytest.raises(PreconditionError):
        derivation(fano_system, 0)


def test_derivation_point_range(s348):
    with pytest.raises(ValidationError):
        derivation(s348, 8)


def test_derivation_verifies_result(s348, monkeypatch):
    import fixlat.steiner as st
    monkeypatch.setattr(st, "verify_steiner",
                        lambda sys, **kw: st.SteinerVerification(
                            False, ({"kind": "forced"},)))
    with pytest.raises(InternalConsistencyError):
        derivation(s348, 0)


def test_isomorphism_rejects_different_systems(fano_system):
    ag = steiner_from_affine(3, 2)
    assert steiner_isomorphism(fano_system, ag) is None
    # a relabelled copy is found isomorphic via an explicit bijection
    relabel = [3, 5, 6, 0, 1, 2, 4]
    moved = make_system(2, 7, [[relabel[x] for x in b]
                               for b in fano_system.blocks])
    mapping = steiner_isomorphism(fano_system, moved)
    assert mapping is not None
    block_set = set(moved.blocks)
    for b in fano_system.blocks:
        assert tuple(sorted(mapping[x] for x in b)) in block_set


def test_isomorphism_is_lexicographically_first(fano_system):
    relabel = [4, 0, 6, 2, 5, 3, 1]
    moved = make_system(2, 7, [[relabel[x] for x in b] for b in fano_system.blocks])
    block_set = set(moved.blocks)
    first = next(p for p in permutations(range(7))
                 if all(tuple(sorted(p[x] for x in b)) in block_set
                        for b in fano_system.blocks))
    assert steiner_isomorphism(fano_system, moved) == first


def test_automorphism_check(fano_system, fano_group):
    assert steiner_automorphism_check(fano_system, fano_group)
    swap = group_from_generators(7, ["(0 1)"])
    res = steiner_automorphism_check(fano_system, swap)
    assert not res
    assert res.violation is not None and "block" in res.violation
    trivial = PermutationGroup.trivial(7)
    assert steiner_automorphism_check(fano_system, trivial)
    with pytest.raises(ValidationError):
        steiner_automorphism_check(fano_system, PermutationGroup.trivial(6))


def test_block_stabilization_per_system(fano_group, pgl42):
    # two fixed points pin their whole block over GF(2); over GF(3) the
    # leftover scalar moves the other line points, and the report says so
    assert blocks_pointwise_stabilized(steiner_from_projective(2, 2), fano_group)
    assert blocks_pointwise_stabilized(steiner_from_projective(2, 3), pgl42)
    assert not blocks_pointwise_stabilized(steiner_from_projective(3, 2),
                                           pgl_generators(3, 2))


def test_jordan_reports(fano_group, pgl25):
    rep = jordan_report(fano_group)
    assert rep.all_jordan
    assert rep.transitivity_degree == 2
    by_fixset = {e.fixset: e for e in rep.entries}
    assert by_fixset[(0, 1, 2)].complement_orbit_count == 1  # a full line
    assert jordan_report(PermutationGroup.symmetric(6)).all_jordan
    assert jordan_report(pgl25).all_jordan


def test_jordan_report_hexagon(d6):
    rep = jordan_report(d6)
    assert not rep.all_jordan
    assert rep.transitivity_degree == 1
    witness = rep.first_witness()
    assert witness.fixset == (0, 3)
    assert witness.complement_orbits == ((1, 5), (2, 4))
    assert witness.complement_orbit_count == 2


def test_projective_line_transitivity_degrees():
    # sharply 3-transitive actions, except that over GF(3) the action on
    # 4 points is the full symmetric group
    assert pgl_generators(2, 1).transitivity_degree(5) == 3
    assert pgl_generators(3, 1).transitivity_degree(5) == 4
    assert pgl_generators(5, 1).transitivity_degree(5) == 3


def test_plane_jordan_condition_by_field():
    assert jordan_report(pgl_generators(2, 2)).all_jordan
    # GF(3): the pair {0,1} is a fixset whose stabilizer splits the
    # complement (rest of line vs off-line points)
    rep = jordan_report(pgl_generators(3, 2))
    assert not rep.all_jordan
    witness = rep.first_witness()
    assert len(witness.fixset) == 2
