import random
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fixlat import exhaustive
from fixlat._chain import StabilizerChain, compose, orbit_transversal
from fixlat.errors import (InternalConsistencyError, PreconditionError,
                           ValidationError)
from fixlat.closure import closure_mask, enumerate_fixset_lattice
from fixlat.geometry import pgl_generators
from fixlat.group import PermutationGroup
from fixlat.perm import Permutation

from _oracles import RescanChain, contains, element_table, tuple_orbit_count


def test_cyclic_group_order():
    assert PermutationGroup(3, ["(0 1 2)"]).order() == 3


def test_constructor_takes_cycle_strings_and_image_lists():
    assert PermutationGroup(3, ["(0 1)", [1, 2, 0]]).order() == 6


def test_trivial_group():
    G = PermutationGroup.trivial(4)
    assert G.order() == 1
    assert G.orbits() == ((0,), (1,), (2,), (3,))
    assert G.contains(Permutation.identity(4))


def test_fano_generator_pair_order(fano_group):
    # two generators, order counted independently by product closure
    assert len(fano_group.generators) == 2
    assert fano_group.order() == 168
    assert element_table(fano_group).shape[0] == 168


def test_symmetric_group_orders():
    assert PermutationGroup.symmetric(5).order() == 120
    for n in range(1, 8):
        assert PermutationGroup.symmetric(n).order() == factorial(n)


@pytest.mark.parametrize("n", [0, -2])
@pytest.mark.parametrize("make", [PermutationGroup.cyclic, PermutationGroup.symmetric,
                                  PermutationGroup.alternating, PermutationGroup.dihedral],
                         ids=["cyclic", "symmetric", "alternating", "dihedral"])
def test_named_groups_reject_nonpositive_degree(make, n):
    with pytest.raises(ValidationError):
        make(n)


def test_pgl25_order(pgl25):
    assert pgl25.order() == 120
    assert element_table(pgl25).shape[0] == 120


def test_malformed_generator_rejected():
    with pytest.raises(ValidationError):
        PermutationGroup(3, [[0, 0, 1]])
    with pytest.raises(ValidationError):
        PermutationGroup(3, [[0, 1, 2, 3]])


def test_contains_transposition(sym4):
    assert sym4.contains(Permutation.from_cycles("(0 1)", 4))


def test_alternating_group_excludes_transposition():
    a4 = PermutationGroup.alternating(4)
    assert a4.order() == 12
    assert not a4.contains(Permutation.from_cycles("(0 1)", 4))


def test_fano_membership_scan_agrees(fano_group):
    # the natural 7-cycle is not in this copy of the group; frozen from the
    # exhaustive membership scan and re-checked against it here
    seven_cycle = Permutation([(i + 1) % 7 for i in range(7)])
    assert fano_group.contains(seven_cycle) is False
    table = element_table(fano_group)
    assert contains(table, seven_cycle.images) is False
    for g in fano_group.generators:
        assert contains(table, g.images)


def test_contains_degree_mismatch(sym4):
    with pytest.raises(ValidationError):
        sym4.contains(Permutation.identity(5))


def test_orbit_examples(d6):
    assert PermutationGroup.trivial(4).orbit(2) == (2,)
    assert PermutationGroup.cyclic(6).orbit(0) == (0, 1, 2, 3, 4, 5)
    # vertex stabilizer inside the hexagon symmetries moves 1 to {1, 5}
    stab = d6.pointwise_stabilizer([0])
    assert stab.orbit(1) == (1, 5)


def test_orbit_range_check(sym4):
    with pytest.raises(ValidationError):
        sym4.orbit(4)
    # a float is not a point, and True is not point 1
    for x in (1.0, True):
        with pytest.raises(ValidationError, match="out of range"):
            sym4.orbit(x)


def test_orbits_partition(sym4):
    assert sym4.orbits() == ((0, 1, 2, 3),)


def test_fano_line_stabilizer_orbits(fano_group):
    # pointwise stabilizer of a line: the three line points stay fixed,
    # the four off-line points form a single orbit
    H = fano_group.pointwise_stabilizer([0, 1, 2])
    assert H.order() == 4
    assert H.orbits() == ((0,), (1,), (2,), (3, 4, 5, 6))


def test_pointwise_stabilizer_examples(fano_group, sym4):
    assert sym4.pointwise_stabilizer([]).equals(sym4)
    assert sym4.pointwise_stabilizer([0]).order() == 6
    two_point = fano_group.pointwise_stabilizer([0, 1])
    assert two_point.order() == 4
    with pytest.raises(ValidationError):
        sym4.pointwise_stabilizer([9])


def test_stabilizer_orders_match_exhaustive_filter(fano_group, pgl25, d6):
    rng = random.Random(1)
    for G in (fano_group, pgl25, d6, PermutationGroup.symmetric(5)):
        table = element_table(G)
        for _ in range(10):
            pts = sorted(rng.sample(range(G.degree), rng.randrange(G.degree)))
            chain_order = G.pointwise_stabilizer(pts).order()
            brute_order = exhaustive.stabilizer_rows(table, pts).shape[0]
            assert chain_order == brute_order


def test_orbit_stabilizer_identity(fano_group, pgl25, d6, sym4):
    for G in (fano_group, pgl25, d6, sym4, PermutationGroup.cyclic(6)):
        order = G.order()
        for x in range(G.degree):
            assert len(G.orbit(x)) * G.pointwise_stabilizer([x]).order() == order


def test_stabilizer_antitone_in_the_point_set(fano_group, d6):
    rng = random.Random(5)
    for G in (fano_group, d6):
        for _ in range(20):
            big = rng.sample(range(G.degree), rng.randrange(1, G.degree))
            small = rng.sample(big, rng.randrange(len(big)))
            assert G.pointwise_stabilizer(big).is_subgroup_of(
                G.pointwise_stabilizer(small))


def test_order_and_membership_match_exhaustive(fano_group, pgl25):
    rng = random.Random(2)
    for G in (fano_group, pgl25, PermutationGroup.symmetric(6),
              PermutationGroup.dihedral(6)):
        table = element_table(G)
        assert G.order() == table.shape[0]
        for _ in range(20):
            images = list(range(G.degree))
            rng.shuffle(images)
            p = Permutation(images)
            assert G.contains(p) == contains(table, p.images)


def test_group_equality_ignores_generator_lists():
    a = PermutationGroup.symmetric(4)
    b = PermutationGroup(4, ["(0 1)", "(1 2)", "(2 3)"])
    assert a.equals(b)
    assert not a.equals(PermutationGroup.alternating(4))


def test_transitivity_degrees(fano_group, pgl25):
    assert PermutationGroup.symmetric(6).transitivity_degree(5) == 5
    assert pgl25.transitivity_degree(4) == 3
    assert fano_group.transitivity_degree(3) == 2


def test_transitivity_degree_full_symmetric():
    for n in range(1, 8):
        assert PermutationGroup.symmetric(n).transitivity_degree(n) == n


def test_transitivity_degree_intransitive():
    G = PermutationGroup(4, ["(0 1)"])
    assert G.transitivity_degree(2) == 0


def test_tuple_orbit_counts_match_burnside(fano_group, pgl25, d6):
    # k-transitive exactly when the orbit-counting lemma finds one orbit
    # on distinct k-tuples
    intransitive = PermutationGroup(5, ["(0 1 2)", "(3 4)"])
    for G in (fano_group, pgl25, d6, PermutationGroup.symmetric(5),
              PermutationGroup.alternating(6), intransitive):
        table = element_table(G)
        for k in range(1, G.degree + 1):
            assert ((G.transitivity_degree(k) == k)
                    == (tuple_orbit_count(table, k) == 1))


def test_transitivity_degree_beyond_the_tuple_tables():
    # 30^5 five-tuple codes per generator: the stabilizer tower answers
    # from five orbit computations
    assert PermutationGroup.symmetric(30).transitivity_degree(5) == 5
    assert PermutationGroup.alternating(30).transitivity_degree(30) == 28


def test_primitivity():
    res = PermutationGroup.cyclic(6).primitivity()
    assert not res.primitive
    assert res.block_system == ((0, 2, 4), (1, 3, 5))
    # witness is an invariant partition
    G = PermutationGroup.cyclic(6)
    block_of = {x: i for i, blk in enumerate(res.block_system) for x in blk}
    for g in G.generators:
        for blk in res.block_system:
            assert len({block_of[g(x)] for x in blk}) == 1
    assert PermutationGroup.symmetric(5).primitivity().primitive


def test_primitivity_of_fano(fano_group):
    assert fano_group.primitivity().primitive


def test_primitivity_needs_transitive():
    with pytest.raises(PreconditionError):
        PermutationGroup(4, ["(0 1)"]).primitivity()


def test_known_order_stops_the_chain_and_is_checked():
    s5 = PermutationGroup.symmetric(5)._gen_tuples
    full = StabilizerChain(5, s5, base_prefix=(3,))
    stopped = StabilizerChain(5, s5, base_prefix=(3,), order=120)
    assert stopped.order() == full.order() == 120
    assert stopped.base == full.base
    assert all(stopped.contains(g) for g in s5)
    # a product of basic orbit lengths (each at most 5) never equals 119
    with pytest.raises(InternalConsistencyError, match="exceeds"):
        StabilizerChain(5, s5, base_prefix=(3,), order=119)
    with pytest.raises(InternalConsistencyError, match="below"):
        StabilizerChain(5, s5, base_prefix=(3,), order=240)


@st.composite
def generator_lists(draw):
    n = draw(st.integers(1, 9))
    return n, draw(st.lists(st.permutations(range(n)), max_size=4))


def chain_state(chain):
    return chain.base, chain.level_gens, chain.transversals


@settings(derandomize=True, deadline=None, max_examples=200)
@given(generator_lists())
def test_resumed_schreier_sims_builds_the_rescanning_chains(case):
    # resuming each level at its failed pair and skipping tree edges sifts
    # less, and must add the same residues in the same order
    n, gens = case
    order = RescanChain(n, gens).order()
    for prefix in ((), (0,), (n - 1,)):
        for known in (None, order):
            assert (chain_state(StabilizerChain(n, gens, prefix, known))
                    == chain_state(RescanChain(n, gens, prefix, known)))


@pytest.mark.parametrize("make", [
    lambda: pgl_generators(2, 2), lambda: pgl_generators(3, 2),
    lambda: pgl_generators(2, 3), lambda: pgl_generators(7, 1),
    lambda: PermutationGroup.alternating(8), lambda: PermutationGroup.dihedral(10),
    lambda: PermutationGroup(9, ["(0 1 2)(3 4)", "(2 3)(5 6 7 8)"])])
def test_resumed_schreier_sims_on_stock_groups(make):
    G = make()
    n, gens = G.degree, G._gen_tuples
    for prefix in ((), (0,), (n - 1,)):
        assert (chain_state(StabilizerChain(n, gens, prefix))
                == chain_state(RescanChain(n, gens, prefix)))


def test_orbit_transversal_tree_edges():
    gens = [g.images for g in pgl_generators(3, 2).generators]
    ident = tuple(range(13))
    tr, edges = orbit_transversal(4, gens, ident)
    assert len(edges) == len(tr) - 1
    for y, k in edges:
        assert compose(tr[y], gens[k]) == tr[gens[k][y]]


def test_stabilizer_tower_reuses_chains(monkeypatch):
    # Sym(7) is 7-transitive: every prefix extends along one chain
    builds = []
    real = StabilizerChain.__init__

    def counted(self, *args, **kwargs):
        builds.append(args)
        real(self, *args, **kwargs)

    monkeypatch.setattr(StabilizerChain, "__init__", counted)
    G = PermutationGroup.symmetric(7)
    for pts in ((0, 1, 2), (2, 4, 6), (1, 5), (3, 4, 5, 6)):
        H = G.pointwise_stabilizer(pts)
        assert H.order() == factorial(7 - len(pts))
        assert all(g[x] == x for g in H._gen_tuples for x in pts)
    assert len(builds) == 1


# Generators of fresh groups' pointwise stabilizers, as the point-prefix
# tower printed them; the mask-keyed tower builds the same records.
PINNED_STABILIZERS = [
    (lambda: pgl_generators(2, 2), (0, 1), 4, [
        [0, 1, 2, 4, 3, 6, 5],
        [0, 1, 2, 6, 5, 4, 3],
    ]),
    (lambda: pgl_generators(3, 2), (0, 5), 36, [
        [0, 8, 7, 9, 4, 5, 6, 2, 1, 3, 12, 11, 10],
        [0, 8, 9, 7, 6, 5, 4, 3, 1, 2, 10, 11, 12],
        [0, 9, 8, 7, 4, 5, 6, 3, 2, 1, 11, 10, 12],
        [0, 7, 8, 9, 4, 5, 6, 10, 12, 11, 1, 3, 2],
    ]),
    (lambda: pgl_generators(2, 3), (1, 2, 9), 8, [
        [0, 1, 2, 5, 6, 3, 4, 7, 8, 9, 10, 13, 14, 11, 12],
        [0, 1, 2, 11, 12, 13, 14, 7, 8, 9, 10, 3, 4, 5, 6],
        [0, 1, 2, 14, 13, 12, 11, 7, 8, 9, 10, 6, 5, 4, 3],
    ]),
    (lambda: pgl_generators(5, 1), (0,), 20, [
        [0, 1, 4, 2, 5, 3],
        [0, 4, 2, 5, 3, 1],
    ]),
    (lambda: pgl_generators(7, 1), (2, 5), 6, [
        [1, 6, 2, 7, 3, 5, 0, 4],
        [3, 7, 2, 1, 0, 5, 4, 6],
    ]),
    (lambda: PermutationGroup.symmetric(7), (2, 4, 6), 24, [
        [0, 1, 2, 5, 4, 3, 6],
        [0, 3, 2, 1, 4, 5, 6],
        [1, 0, 2, 3, 4, 5, 6],
    ]),
]


@pytest.mark.parametrize("case", range(len(PINNED_STABILIZERS)))
def test_pointwise_stabilizer_generators_are_pinned(case):
    make, pts, order, gens = PINNED_STABILIZERS[case]
    H = make().pointwise_stabilizer(pts)
    assert H.order() == order
    assert [list(g.images) for g in H.generators] == gens


@pytest.mark.parametrize("q, d, bound", [(2, 2, 78), (2, 3, 766)])
def test_stabilizer_tower_grows_with_the_lattice(q, d, bound):
    # one record for G, and one per closed set F and point outside F
    G = pgl_generators(q, d)
    n = G.degree
    for mask in range(1 << n):
        assert closure_mask(G, mask) == G._stabilizer(mask).fixed
    closed = enumerate_fixset_lattice(G).elements
    assert 1 + sum(n - len(F) for F in closed) == bound
    assert len(G._stab_gens_cache) <= bound
    assert all(type(key) is int for key in G._stab_gens_cache)
