import tracemalloc
from itertools import combinations, permutations, product
from math import comb

import pytest

from fixlat import _kernels, group, steiner
from fixlat._chain import StabilizerChain
from fixlat.closure import closure_mask, enumerate_fixset_lattice
from fixlat.errors import (CapacityError, InternalConsistencyError,
                           PreconditionError, ValidationError)
from fixlat.geometry import pgl_generators, projective_points
from fixlat.group import PermutationGroup
from fixlat.perm import mask_from_points, points_from_mask
from fixlat.steiner import (JordanEntry, SteinerSystem,
                            counting_identity_holds, derivation, jordan_report,
                            make_system, steiner_automorphism_check,
                            steiner_from_affine, steiner_from_affine_planes,
                            steiner_from_projective, steiner_isomorphism,
                            verify_steiner)

from _oracles import element_table, tuple_orbit_count


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


@pytest.mark.parametrize("q, d", [(3, 2), (3, 3), (5, 2), (7, 2), (3, 4), (11, 2)])
def test_affine_lines_match_brute_force(q, d):
    # every line of AG(d, q) is {a + t(b - a)} for two of its points a, b
    pts = list(product(range(q), repeat=d))
    idx = {v: i for i, v in enumerate(pts)}
    lines = {tuple(sorted(idx[tuple((x + t * (y - x)) % q for x, y in zip(a, b))]
                          for t in range(q)))
             for a, b in combinations(pts, 2)}
    assert steiner_from_affine(q, d).blocks == tuple(sorted(lines))


def test_projective_constructions():
    pg32 = steiner_from_projective(2, 3)
    assert pg32.num_points == 15
    assert len(pg32.blocks) == 35
    assert pg32.block_size == 3
    pg23 = steiner_from_projective(3, 2)
    assert pg23.num_points == 13
    assert len(pg23.blocks) == 13
    assert pg23.block_size == 4


@pytest.mark.parametrize("q, d", [(2, 2), (2, 3), (2, 4), (2, 5), (3, 2), (3, 3)])
def test_projective_lines_found_once_each(monkeypatch, q, d):
    # the walk finds the lines of the pairwise build, asking the line table
    # once per line: the Gaussian binomial [d+1 choose 2]_q of them
    spaces = []

    def recorded(p, dim):
        spaces.append(projective_points(p, dim))
        return spaces[-1]

    monkeypatch.setattr(steiner, "projective_points", recorded)
    sys = steiner_from_projective(q, d)
    space = projective_points(q, d)
    pairwise = {space.line_mask(a, b)
                for a, b in combinations(range(space.num_points), 2)}
    assert sys == make_system(2, space.num_points, map(points_from_mask, pairwise))
    lines = ((q ** (d + 1) - 1) * (q ** (d + 1) - q)
             // ((q ** 2 - 1) * (q ** 2 - q)))
    assert len(sys.blocks) == len(spaces[0]._lines) == lines


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


@pytest.mark.parametrize("d", [3, 4, 5, 6])
def test_affine_planes_match_tuple_arithmetic(d):
    # the fourth point of the plane through a, b, c is a + b + c over GF(2)
    pts = list(product(range(2), repeat=d))
    idx = {v: i for i, v in enumerate(pts)}
    planes = {tuple(sorted((idx[a], idx[b], idx[c],
                            idx[tuple((x + y + z) % 2 for x, y, z in zip(a, b, c))])))
              for a, b, c in combinations(pts, 3)}
    # and the plane of every triple, as a set of sorted quadruples
    xor_planes = {tuple(sorted((a, b, c, a ^ b ^ c)))
                  for a, b, c in combinations(range(2 ** d), 3)}
    assert planes == xor_planes
    assert steiner_from_affine_planes(d) == make_system(3, 2 ** d, planes)


def test_affine_planes_cap_before_any_plane():
    # 2^10 points: C(1024, 3) = 178,433,024 triples if the cap came later
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError, match="cap 64") as info:
            steiner_from_affine_planes(10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert info.value.cap_name == "steiner_points"
    assert peak < 1 << 20


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
    # the input still verifies; only the derived 2-system is made to fail
    import fixlat.steiner as st
    real = st.verify_steiner
    monkeypatch.setattr(st, "verify_steiner",
                        lambda sys, **kw: real(sys) if sys.k == 3 else
                        st.SteinerVerification(False, ({"kind": "forced"},)))
    with pytest.raises(InternalConsistencyError):
        derivation(s348, 0)


def test_derivation_rejects_a_non_steiner_input():
    bad = make_system(3, 8, [(0, 1, 2, 3), (0, 4, 5, 6)])
    with pytest.raises(PreconditionError,
                       match=r"needs a Steiner system: .*'uncovered'"):
        derivation(bad, 0)


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
    swap = PermutationGroup(7, ["(0 1)"])
    res = steiner_automorphism_check(fano_system, swap)
    assert not res
    assert res.violation is not None and "block" in res.violation
    trivial = PermutationGroup.trivial(7)
    assert steiner_automorphism_check(fano_system, trivial)
    with pytest.raises(ValidationError):
        steiner_automorphism_check(fano_system, PermutationGroup.trivial(6))


def test_block_stabilization_per_system(fano_group, pgl42):
    # two fixed points pin their whole block over GF(2); over GF(3) the
    # leftover scalar moves the other line points
    def pinned(sys, G):
        return all(mask_from_points(b, G.degree)
                   & ~closure_mask(G, mask_from_points(b[:sys.k], G.degree)) == 0
                   for b in sys.blocks)

    assert pinned(steiner_from_projective(2, 2), fano_group)
    assert pinned(steiner_from_projective(2, 3), pgl42)
    assert not pinned(steiner_from_projective(3, 2), pgl_generators(3, 2))


def test_jordan_reports(fano_group, pgl25):
    rep = jordan_report(fano_group)
    assert rep.all_jordan
    assert rep.transitivity_degree == 2
    by_fixset = {e.fixset: e for e in rep.entries}
    assert by_fixset[(0, 1, 2)].complement_orbit_count == 1  # a full line
    assert jordan_report(PermutationGroup.symmetric(6)).all_jordan
    assert jordan_report(pgl25).all_jordan


def test_jordan_report_reuses_stabilizer_chains(monkeypatch):
    # PGL(3,5) on PG(2,5): one pointwise stabilizer per fixset, 5,179 of
    # them; a fresh Schreier-Sims per point prefix made 5,185 builds
    builds = []
    real = StabilizerChain.__init__

    def counted(self, *args, **kwargs):
        builds.append(args)
        real(self, *args, **kwargs)

    monkeypatch.setattr(StabilizerChain, "__init__", counted)
    rep = jordan_report(pgl_generators(5, 2))
    assert len(rep.entries) == 5177 and not rep.all_jordan
    assert len(builds) <= 600


def reference_jordan_entries(G):
    """Jordan entries from a PermutationGroup per fixset and its orbits."""
    entries = []
    for pts in enumerate_fixset_lattice(G).elements:
        if not pts or len(pts) == G.degree:
            continue
        orbits = tuple(o for o in G.pointwise_stabilizer(pts).orbits()
                       if o[0] not in pts)
        entries.append(JordanEntry(pts, len(orbits), len(orbits) == 1, orbits))
    return tuple(entries)


def sym5_times_sym3():
    return PermutationGroup(8, ["(0 1)", "(0 1 2 3 4)", "(5 6)", "(5 6 7)"])


@pytest.mark.parametrize("make", [
    lambda: PermutationGroup.dihedral(6), lambda: pgl_generators(2, 2),
    lambda: pgl_generators(5, 1), lambda: pgl_generators(3, 2),
    sym5_times_sym3], ids=["D6", "PGL(3,2)", "PGL(2,5)", "PGL(3,3)", "S5xS3"])
def test_jordan_report_matches_stabilizer_groups(make):
    G = make()
    rep = jordan_report(G)
    reference = reference_jordan_entries(make())
    assert len(rep.entries) == len(reference)
    for got, want in zip(rep.entries, reference):
        assert got.fixset == want.fixset
        assert got.complement_orbit_count == want.complement_orbit_count
        assert got.jordan == want.jordan
        assert got.complement_orbits == want.complement_orbits
    assert rep.all_jordan == all(e.jordan for e in reference)
    table = element_table(G)
    assert rep.transitivity_degree == max(
        [0] + [k for k in range(1, min(5, G.degree) + 1)
               if tuple_orbit_count(table, k) == 1])


def test_transitivity_and_jordan_never_label_tuples(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("tuple-orbit labelling called")

    assert not hasattr(group, "_kernels")
    monkeypatch.setattr(_kernels, "tuple_orbit_labels", refuse)
    assert PermutationGroup.symmetric(8).transitivity_degree(5) == 5
    assert pgl_generators(3, 2).transitivity_degree(5) == 2
    assert not jordan_report(pgl_generators(3, 2)).all_jordan
    assert jordan_report(sym5_times_sym3()).transitivity_degree == 0


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
