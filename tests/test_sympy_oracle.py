"""sympy.combinatorics as a differential oracle for pointwise stabilizers,
transitivity degrees and block systems."""

import time

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from sympy.combinatorics import Permutation as SymPerm
from sympy.combinatorics import PermutationGroup as SymGroup

from fixlat.group import PermutationGroup


@st.composite
def groups_and_point_sets(draw):
    n = draw(st.integers(1, 12))
    gens = draw(st.lists(st.permutations(range(n)), min_size=1, max_size=3))
    point_sets = draw(st.lists(st.sets(st.integers(0, n - 1)),
                               min_size=1, max_size=6))
    return n, gens, point_sets


@settings(derandomize=True, deadline=None, max_examples=80)
@given(groups_and_point_sets())
def test_pointwise_stabilizers_match_sympy(case):
    n, gens, point_sets = case
    G = PermutationGroup(n, gens)
    oracle = SymGroup([SymPerm(g, size=n) for g in gens])
    for pts in point_sets:
        H = G.pointwise_stabilizer(pts)
        K = oracle.pointwise_stabilizer(sorted(pts))
        assert H.order() == K.order()
        assert all(K.contains(SymPerm(list(g), size=n)) for g in H._gen_tuples)
        assert all(H.contains([k(i) for i in range(n)]) for k in K.generators)


def sympy_group(G):
    n = G.degree
    gens = G._gen_tuples or [tuple(range(n))]
    return SymGroup([SymPerm(list(g), size=n) for g in gens])


def sympy_stabilizer_transitivity(K):
    """sympy's ``transitivity_degree`` loop, with its incremental
    ``pointwise_stabilizer`` in place of ``stabilizer``: the Schreier
    generators of ``stabilizer`` multiply level by level, and a random pair
    generating Sym(12) then takes seconds to minutes."""
    n = K.degree
    for i in range(n):
        if len(K.pointwise_stabilizer(list(range(i))).orbit(i)) != n - i:
            return i
    return n


@settings(derandomize=True, deadline=None, max_examples=80)
@given(groups_and_point_sets())
def test_transitivity_degrees_match_sympy(case):
    n, gens, _ = case
    G = PermutationGroup(n, gens)
    assert G.transitivity_degree(n) == sympy_stabilizer_transitivity(sympy_group(G))


@pytest.mark.parametrize("n", range(1, 13))
def test_symmetric_and_alternating_transitivity_match_sympy(n):
    for G in (PermutationGroup.symmetric(n), PermutationGroup.alternating(n)):
        K = sympy_group(G)
        assert G.transitivity_degree(n) == K.transitivity_degree
        assert sympy_stabilizer_transitivity(K) == K.transitivity_degree


@st.composite
def transitive_groups(draw):
    """Transitive groups of degree 2..12, each generator preserving the
    partition into consecutive runs of a drawn block size; block sizes 1
    and n leave the generators free."""
    n = draw(st.integers(2, 12))
    size = draw(st.sampled_from([d for d in range(1, n + 1) if n % d == 0]))

    def block_preserving():
        outer = draw(st.permutations(range(n // size)))
        inner = [draw(st.permutations(range(size))) for _ in range(n // size)]
        return [outer[x // size] * size + inner[x // size][x % size]
                for x in range(n)]

    gens = [block_preserving() for _ in range(draw(st.integers(1, 3)))]
    G = PermutationGroup(n, gens)
    assume(G.is_transitive())
    return G


def sympy_block_systems(K):
    """sympy's minimal block systems as sorted tuples of sorted blocks."""
    systems = []
    for reps in K.minimal_blocks(randomized=False):
        blocks = {}
        for x, r in enumerate(reps):
            blocks.setdefault(r, []).append(x)
        systems.append(tuple(sorted(tuple(b) for b in blocks.values())))
    return systems


@settings(derandomize=True, deadline=None, max_examples=150)
@given(transitive_groups())
def test_primitivity_matches_sympy(G):
    K = sympy_group(G)
    res = G.primitivity()
    assert res.primitive == K.is_primitive(randomized=False)
    if not res.primitive:
        assert res.block_system == min(sympy_block_systems(K))


def test_primitivity_of_the_regular_elementary_abelian_512():
    # x -> x XOR 2^i for i < 9: every pair {x, x XOR v} spans a minimal
    # system, so 511 systems, the least pairing 2k with 2k + 1
    G = PermutationGroup(512, [[x ^ 1 << i for x in range(512)]
                               for i in range(9)])
    start = time.perf_counter()
    res = G.primitivity()
    assert time.perf_counter() - start < 4.0
    assert not res.primitive
    assert res.block_system == tuple((2 * k, 2 * k + 1) for k in range(256))
