import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fixlat import exhaustive
from fixlat.closure import (FixsetLattice, enumerate_fixset_lattice, fix_join,
                            fix_meet, fixed_points, fixset_closure,
                            galois_report, is_fixset)
from fixlat.errors import CapacityError, PreconditionError
from fixlat.geometry import subspace_lattice
from fixlat.group import PermutationGroup, group_from_generators


def all_subsets(n):
    for mask in range(1 << n):
        yield tuple(x for x in range(n) if mask >> x & 1)


def test_fixed_points_basics(sym4):
    assert fixed_points(PermutationGroup.trivial(5)) == (0, 1, 2, 3, 4)
    assert fixed_points(sym4) == ()


def test_fixed_points_of_fano_pair_stabilizer(fano_group):
    H = fano_group.pointwise_stabilizer([0, 1])
    # the line through points 0 and 1 (third point frozen from brute force)
    assert fixed_points(H) == (0, 1, 2)
    table = fano_group.elements_array()
    assert exhaustive.fixset_closure(table, [0, 1]) == (0, 1, 2)


def test_closure_of_full_domain(d6):
    full = tuple(range(6))
    assert fixset_closure(d6, full).points == full


def test_symmetric_group_closure_fixes_pairs():
    s6 = PermutationGroup.symmetric(6)
    assert fixset_closure(s6, [1, 4]).points == (1, 4)


def test_closure_of_antipodal_vertex(d6):
    assert fixset_closure(d6, [0]).points == (0, 3)


def test_fano_pair_closes_to_line(fano_group):
    table = fano_group.elements_array()
    for pair in combinations(range(7), 2):
        got = fixset_closure(fano_group, pair).points
        assert got == exhaustive.fixset_closure(table, pair)
        assert len(got) == 3


def test_closure_axioms_exhaustively(fano_group, d6, sym4):
    for G in (fano_group, d6, sym4):
        for pts in all_subsets(G.degree):
            c = fixset_closure(G, pts).points
            assert set(pts) <= set(c)                       # extensive
            assert fixset_closure(G, c).points == c         # idempotent
        # increasing, on sampled nested pairs
        rng = random.Random(0)
        for _ in range(30):
            big = rng.sample(range(G.degree), rng.randrange(G.degree + 1))
            small = rng.sample(big, rng.randrange(len(big) + 1)) if big else []
            assert (set(fixset_closure(G, small).points)
                    <= set(fixset_closure(G, big).points))


def test_closure_axioms_sampled_above_ten_points(pgl42):
    rng = random.Random(4)
    for _ in range(40):
        pts = rng.sample(range(15), rng.randrange(16))
        c = fixset_closure(pgl42, pts).points
        assert set(pts) <= set(c)
        assert fixset_closure(pgl42, c).points == c


def test_is_fixset(fano_group):
    assert is_fixset(fano_group, [0, 1, 2])        # a full line
    assert not is_fixset(fano_group, [0, 1])       # closure adds the third point
    sym5 = PermutationGroup.symmetric(5)
    for pts in all_subsets(5):
        # closed unless exactly one point is missing (its stabilizer is trivial)
        assert is_fixset(sym5, pts) == (len(pts) != 4)


def test_meet_join_examples(fano_group):
    lines = [(0, 1, 2), (0, 3, 4)]
    m = fix_meet(fano_group, *lines)
    assert m.points == (0,)
    j = fix_join(fano_group, (0,), (1,))
    assert j.points == (0, 1, 2)
    bottom = fixset_closure(fano_group, [])
    assert fix_meet(fano_group, bottom, lines[0]).points == ()
    assert fix_join(fano_group, bottom, lines[0]).points == lines[0]


def test_meet_join_reject_non_fixsets(fano_group):
    with pytest.raises(PreconditionError):
        fix_meet(fano_group, (0, 1), (0, 3))
    with pytest.raises(PreconditionError):
        fix_join(fano_group, (0, 1), (0, 3))


def test_join_contains_union_and_detects_closed_unions(fano_group):
    fl = enumerate_fixset_lattice(fano_group)
    for a, b in combinations(fl.elements, 2):
        j = set(fix_join(fano_group, a, b).points)
        union = set(a) | set(b)
        assert union <= j
        if is_fixset(fano_group, sorted(union)):
            assert j == union


def test_closure_equals_iterated_singleton_joins(fano_group, d6):
    for G in (fano_group, d6):
        for pts in all_subsets(G.degree):
            acc = fixset_closure(G, []).points
            for x in pts:
                acc = fix_join(G, acc, fixset_closure(G, [x]).points).points
            assert acc == fixset_closure(G, pts).points


def test_symmetric_group_lattice_counts():
    # all subsets are closed except those missing exactly one point, whose
    # stabilizer is trivial and fixes everything: 2^n - n fixsets for n >= 2
    for n in (2, 3, 4, 5):
        fl = enumerate_fixset_lattice(PermutationGroup.symmetric(n))
        assert len(fl) == 2**n - n


def test_bottom_is_fix_of_the_whole_group():
    # with a globally fixed point the lattice floor is fix(G), not the
    # empty set
    G = group_from_generators(4, ["(1 2 3)"])
    fl = enumerate_fixset_lattice(G)
    assert fl.bottom == (0,)
    assert () not in fl.elements


def test_fano_lattice_shape(fano_group):
    fl = enumerate_fixset_lattice(fano_group)
    assert len(fl) == 16
    sizes = sorted(len(e) for e in fl.elements)
    assert sizes == [0] + [1] * 7 + [3] * 7 + [7]
    assert fl.bottom == ()
    assert fl.top == tuple(range(7))


def test_fano_lattice_matches_brute_force(fano_group):
    table = fano_group.elements_array()
    brute = {exhaustive.fixset_closure(table, pts) for pts in all_subsets(7)}
    assert set(enumerate_fixset_lattice(fano_group).elements) == brute


@st.composite
def small_generators(draw):
    """1-3 random permutations of degree at most 7: cyclic, intransitive or not."""
    n = draw(st.integers(1, 7))
    return n, draw(st.lists(st.permutations(range(n)), min_size=1, max_size=3))


@settings(derandomize=True, deadline=None, max_examples=40)
@given(small_generators())
def test_enumerator_matches_brute_force_on_random_groups(group):
    n, gens = group
    table = exhaustive.enumerate_elements(n, gens)
    brute = {exhaustive.fixset_closure(table, pts) for pts in all_subsets(n)}
    expected = tuple(sorted(brute, key=lambda e: (len(e), e)))
    assert enumerate_fixset_lattice(group_from_generators(n, gens)).elements == expected


def test_pg32_lattice_count(pgl42):
    assert len(enumerate_fixset_lattice(pgl42)) == 67


def test_lattice_closed_under_meet_and_join(fano_group, d6):
    for G in (fano_group, d6):
        fl = enumerate_fixset_lattice(G)
        members = set(fl.elements)
        for a, b in combinations(fl.elements, 2):
            assert tuple(sorted(set(a) & set(b))) in members
            assert fix_join(G, a, b).points in members


def reference_covers(elements):
    """(i, j) with element i strictly inside element j and no element strictly
    between them, compared as point sets."""
    sets = [frozenset(e) for e in elements]
    return tuple((i, j) for i, a in enumerate(sets) for j, b in enumerate(sets)
                 if a < b and not any(a < c < b for c in sets))


def test_covers_match_definition(fano_group, pgl25, d6):
    pgl25_sym3 = group_from_generators(
        9, [list(g.images) + [6, 7, 8] for g in pgl25.generators]
        + [list(range(6)) + [7, 6, 8], list(range(6)) + [7, 8, 6]])
    lattices = [enumerate_fixset_lattice(G) for G in
                (PermutationGroup.symmetric(5), d6, fano_group, pgl25, pgl25_sym3)]
    pg23 = subspace_lattice(3, 2)
    lattices.append(FixsetLattice(13, pg23.labels))
    assert len(lattices[4]) == 23 * 5  # the product of the factor lattices
    for fl in lattices:
        expected = reference_covers(fl.elements)
        assert fl.covers() == expected
        assert fl.to_finite_lattice().covers() == expected
    assert pg23.covers() == reference_covers(pg23.labels)


def test_lattice_cap():
    with pytest.raises(CapacityError):
        enumerate_fixset_lattice(PermutationGroup.symmetric(6), cap=10)


@pytest.mark.parametrize("size_under_cap, size", [
    (lambda cap: len(enumerate_fixset_lattice(PermutationGroup.symmetric(6), cap=cap)),
     58),
    (lambda cap: subspace_lattice(3, 2, cap=cap).size, 28),
], ids=["fixsets-sym6", "subspaces-pg23"])
def test_lattice_cap_boundary(size_under_cap, size):
    assert size_under_cap(size) == size
    with pytest.raises(CapacityError) as exc:
        size_under_cap(size - 1)
    assert exc.value.cap_name == "lattice"
    assert exc.value.partial == size


def test_galois_report_passes(fano_group, pgl25, sym4):
    for G, elements in ((sym4, 12), (fano_group, 16), (pgl25, 23)):
        rep = galois_report(G)
        assert rep.passed, rep.first_failure
        assert rep.elements_checked == elements
        assert rep.pairs_checked == elements * elements


def test_galois_report_detects_corruption(fano_group):
    fl = enumerate_fixset_lattice(fano_group)
    # drop one line from the element list
    broken = FixsetLattice(7, tuple(e for e in fl.elements if e != (0, 1, 2)))
    rep = galois_report(fano_group, lattice=broken)
    assert not rep.passed
    assert rep.first_failure is not None
    assert rep.first_failure["kind"] in ("meet-not-in-lattice",
                                         "join-not-in-lattice")


def test_fixset_invariants_through_group_action(d6, fano_group):
    # g(closure(X)) == closure(g(X)) for sampled g and X
    rng = random.Random(9)
    for G in (d6, fano_group):
        elements = G.elements()
        for _ in range(25):
            g = rng.choice(elements)
            pts = rng.sample(range(G.degree), rng.randrange(G.degree + 1))
            lhs = tuple(sorted(g(x) for x in fixset_closure(G, pts).points))
            rhs = fixset_closure(G, [g(x) for x in pts]).points
            assert lhs == rhs
