import hashlib
import json
import random
import sys
import tracemalloc
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fixlat import closure, exhaustive, perm
from fixlat.closure import (LATTICE_CAP, FixsetLattice, closed_set_lattice,
                            closure_table, closures, enumerate_fixset_lattice,
                            fix_join, fix_meet, fixed_points, fixset_closure,
                            galois_report, is_fixset)
from fixlat.errors import CapacityError, PreconditionError, ValidationError
from fixlat.geometry import (gaussian_binomial, pgl_generators,
                             projective_points, span_closure, subspace_lattice)
from fixlat.group import PermutationGroup, group_from_generators
from fixlat.perm import mask_from_points, points_from_mask
from test_relational import small_groups


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


@pytest.mark.parametrize("call", [
    lambda G, a: fixset_closure(G, a),
    lambda G, a: is_fixset(G, a),
    lambda G, a: fix_meet(G, a, (0, 1, 2)),
    lambda G, a: fix_join(G, (0, 1, 2), a),
], ids=["fixset_closure", "is_fixset", "fix_meet", "fix_join"])
def test_fixset_of_a_larger_group_is_checked_against_the_degree(call):
    # a FixSet carries its own group; its points must still fit this one
    outside = fixset_closure(PermutationGroup.symmetric(6), [4, 5])
    with pytest.raises(ValidationError):
        call(PermutationGroup.symmetric(3), outside)


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
    assert fl.elements[0] == (0,)
    assert 0 not in fl.masks


def test_fano_lattice_shape(fano_group):
    fl = enumerate_fixset_lattice(fano_group)
    assert len(fl) == 16
    sizes = sorted(len(e) for e in fl.elements)
    assert sizes == [0] + [1] * 7 + [3] * 7 + [7]
    assert fl.masks[0] == 0 and fl.masks[-1] == 0b1111111
    assert fl.elements[0] == () and fl.elements[-1] == tuple(range(7))


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


def fixset_close(G, symmetric=True):
    """The fixset closure callback, with G_S as symmetry or with none."""
    def close(mask):
        gens = G._stabilizer(mask).gens if symmetric else ()
        return closure.closure_mask(G, mask), gens
    return close


@st.composite
def groups_up_to_degree_8(draw):
    n = draw(st.integers(1, 8))
    gens = draw(st.lists(st.permutations(range(n)), min_size=1, max_size=3))
    return group_from_generators(n, gens)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(groups_up_to_degree_8())
def test_orbit_transport_matches_plain_cover_generation(G):
    cap = 1 << G.degree
    plain = closed_set_lattice(G.degree, fixset_close(G, symmetric=False), cap)
    transported = closed_set_lattice(G.degree, fixset_close(G), cap)
    assert transported.elements == plain.elements


@settings(derandomize=True, deadline=None, max_examples=60)
@given(groups_up_to_degree_8(), st.randoms(use_true_random=False))
def test_closure_is_independent_of_query_order(G, rng):
    table = exhaustive.enumerate_elements(G.degree, G._gen_tuples)
    masks = list(range(1 << G.degree))
    rng.shuffle(masks)
    for mask in masks:
        expected = exhaustive.fixset_closure(table, points_from_mask(mask))
        assert points_from_mask(closure.closure_mask(G, mask)) == expected


def test_closure_calls_one_per_stabilizer_orbit(monkeypatch):
    # PGL(5,2) on PG(4,2): extending by every point makes 9,518 calls
    G = pgl_generators(2, 4)
    calls = []
    real = closure.closure_mask

    def counted(H, mask):
        calls.append(mask)
        return real(H, mask)

    monkeypatch.setattr(closure, "closure_mask", counted)
    assert len(enumerate_fixset_lattice(G)) == 374
    assert 1 <= len(calls) <= 32


BAD_MASKS = [True, 1.0, "1", -1, 1 << 4, [0, 1], False]


@pytest.mark.parametrize("bad", BAD_MASKS,
                         ids=[f"bad{i}" for i in range(len(BAD_MASKS))])
def test_closures_reject_non_points(bad, sym4):
    with pytest.raises(ValidationError, match="out of range"):
        closure.closure_mask(sym4, bad)
    # checked before any is used: -1 would index the table from its end
    for masks in ([bad], [0, 3, bad], [bad] * 20):
        with pytest.raises(ValidationError, match="out of range"):
            closures(sym4, masks)


def fresh(G):
    return PermutationGroup(G.degree, G.generators)


def counted_closures(monkeypatch, G, masks):
    """closures(G, masks) with the closure_mask calls it made."""
    calls = []
    real = closure.closure_mask

    def counted(H, mask):
        calls.append(mask)
        return real(H, mask)

    monkeypatch.setattr(closure, "closure_mask", counted)
    out = closures(G, masks)
    monkeypatch.setattr(closure, "closure_mask", real)
    return out, calls


def tower_walks(G, masks):
    """closure_mask of each mask on a fresh copy of G."""
    other = fresh(G)
    return [closure.closure_mask(other, m) for m in masks]


def assert_closures_match_tower_walks(G, masks):
    assert closures(fresh(G), masks) == tower_walks(G, masks)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(small_groups(), st.data())
def test_closures_match_closure_mask_on_small_groups(G, data):
    family = len(enumerate_fixset_lattice(fresh(G)))
    length = data.draw(st.sampled_from([0, 1, family - 1, family, family + 1,
                                        2 * family + 3]))
    masks = data.draw(st.lists(st.integers(0, (1 << G.degree) - 1),
                               min_size=length, max_size=length))
    assert_closures_match_tower_walks(G, masks)


def test_closures_sweep_exactly_at_the_family_size(monkeypatch, fano_group):
    # 16 fixsets: 16 masks are read off the family, 15 take the tower
    rng = random.Random(3)
    masks = [rng.getrandbits(7) for _ in range(16)]
    for request, route in ((masks, "sweep"), (masks[:-1], "tower")):
        G = fresh(fano_group)
        out, calls = counted_closures(monkeypatch, G, request)
        assert out == tower_walks(G, request)
        if route == "sweep":
            assert len(calls) < len(request)
        else:
            assert len(calls) >= len(request)


def test_closures_take_the_tower_above_the_table_cap(monkeypatch):
    G = pgl_generators(17, 1)  # 18 points: 2^18 masks exceed LATTICE_CAP
    assert 1 << G.degree > LATTICE_CAP
    rng = random.Random(5)
    masks = [rng.getrandbits(18) for _ in range(64)] + [0, (1 << 18) - 1]
    G.order()
    tracemalloc.start()
    try:
        out, calls = counted_closures(monkeypatch, G, masks)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(calls) == len(masks)
    assert peak < 1 << 18  # no 2^18-entry table, not even of bytes
    assert out == tower_walks(G, masks)


def test_closures_of_no_masks_and_of_repeated_masks(fano_group, pgl42):
    assert closures(fresh(fano_group), []) == []
    assert closures(fresh(pgl42), []) == []
    for G in (fano_group, pgl42, PermutationGroup.symmetric(5)):
        masks = [0, 5, 5, 3, 0, (1 << G.degree) - 1, 5] * 3
        assert_closures_match_tower_walks(G, masks)


def test_closures_of_a_sample_of_sym13_take_the_tower(monkeypatch):
    # 2^13 - 13 = 8,179 fixsets are more than 512 requested masks
    G = PermutationGroup.symmetric(13)
    rng = random.Random(0)
    masks = [rng.getrandbits(13) for _ in range(512)]
    out, calls = counted_closures(monkeypatch, fresh(G), masks)
    assert len(calls) >= len(masks)
    assert out == tower_walks(G, masks)


def test_pg32_lattice_count(pgl42):
    assert len(enumerate_fixset_lattice(pgl42)) == 67


def test_pg42_fixsets_are_the_subspaces():
    fixsets = enumerate_fixset_lattice(pgl_generators(2, 4)).elements
    assert fixsets == subspace_lattice(2, 4).labels
    assert len(fixsets) == 374


def test_pg52_fixset_count_is_gaussian():
    expected = sum(gaussian_binomial(6, k, 2) for k in range(7))
    assert expected == 2825
    assert len(enumerate_fixset_lattice(pgl_generators(2, 5))) == expected


def test_pg25_elements_pinned():
    # SHA-256 of the compact JSON element list, as the per-point enumerator
    # produced it
    elements = enumerate_fixset_lattice(pgl_generators(5, 2)).elements
    digest = hashlib.sha256(json.dumps([list(e) for e in elements],
                                       separators=(",", ":")).encode()).hexdigest()
    assert len(elements) == 5179
    assert digest == ("ad340a2953df11e1e4c9d3499e8a655d"
                      "cb3ef569c6b1fae4b667b20c825d3d79")


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
    lattices.append(FixsetLattice(
        13, tuple(mask_from_points(lab, 13) for lab in pg23.labels)))
    assert len(lattices[4]) == 23 * 5  # the product of the factor lattices
    for fl in lattices:
        expected = reference_covers(fl.elements)
        assert fl.covers() == expected
        assert fl.to_finite_lattice().covers() == expected
    assert pg23.covers() == reference_covers(pg23.labels)


def assert_size_points_order(fl):
    tuples = [points_from_mask(m) for m in fl.masks]
    assert tuples == sorted(set(tuples), key=lambda t: (len(t), t))
    assert fl.elements == tuple(tuples)


@settings(derandomize=True, deadline=None, max_examples=40)
@given(small_groups())
def test_fixset_masks_sort_by_size_then_points(G):
    assert_size_points_order(enumerate_fixset_lattice(G))


@pytest.mark.parametrize("p,d", [(2, 2), (2, 3), (3, 2)])
def test_subspace_masks_sort_by_size_then_points(p, d):
    space = projective_points(p, d)
    fl = closed_set_lattice(space.num_points,
                            lambda mask: (span_closure(space, mask), ()),
                            LATTICE_CAP)
    assert_size_points_order(fl)
    assert fl.elements == subspace_lattice(p, d).labels


def test_closure_table_and_subspaces_make_no_point_tuples_into_masks(monkeypatch):
    G = PermutationGroup.symmetric(6)
    calls = []
    real = perm.mask_from_points

    def counted(points, degree):
        calls.append(degree)
        return real(points, degree)

    for name, module in list(sys.modules.items()):
        if name.startswith("fixlat") and getattr(module, "mask_from_points",
                                                 None) is real:
            monkeypatch.setattr(module, "mask_from_points", counted)
    closure_table(G)
    subspace_lattice(2, 3)
    assert calls == []
    fixset_closure(G, [0])  # the counter sees a call through the point API
    assert calls == [6]


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


def test_mask_orbit_stops_past_room():
    sym20 = PermutationGroup.symmetric(20)._gen_tuples
    nine = (1 << 9) - 1  # its orbit has C(20, 9) = 167,960 masks
    assert len(closure._mask_orbit(nine, sym20, 5)) == 6
    assert len(closure._mask_orbit(nine, sym20, 0)) == 1
    assert len(closure._mask_orbit(0b11, PermutationGroup.symmetric(4)._gen_tuples,
                                   6)) == 6


def test_cap_inside_an_orbit(fano_group, monkeypatch):
    # PGL(3,2): bottom (1) and the points (7) fit under 10, the lines (7) do not
    orbits = []
    real = closure._mask_orbit

    def recorded(mask, gens, room):
        got = real(mask, gens, room)
        orbits.append((room, len(got)))
        return got

    monkeypatch.setattr(closure, "_mask_orbit", recorded)
    with pytest.raises(CapacityError) as exc:
        enumerate_fixset_lattice(fano_group, cap=10)
    assert exc.value.cap_name == "lattice" and exc.value.partial == 11
    assert orbits == [(10, 1), (9, 7), (2, 3)]
    assert len(enumerate_fixset_lattice(fano_group, cap=16)) == 16


def test_galois_report_passes(fano_group, pgl25, sym4):
    for G, elements in ((sym4, 12), (fano_group, 16), (pgl25, 23)):
        rep = galois_report(G)
        assert rep.passed, rep.first_failure
        assert rep.elements_checked == elements
        assert rep.pairs_checked == elements * elements


def test_galois_report_detects_corruption(fano_group):
    fl = enumerate_fixset_lattice(fano_group)
    # drop the line {0, 1, 2} from the closed sets
    assert 0b111 in fl.masks
    broken = FixsetLattice(7, tuple(m for m in fl.masks if m != 0b111))
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
