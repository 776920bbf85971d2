"""sympy.combinatorics as a differential oracle for pointwise stabilizers
and transitivity degrees."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.combinatorics import Permutation as SymPerm
from sympy.combinatorics import PermutationGroup as SymGroup

from fixlat.group import PermutationGroup, group_from_generators


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
    G = group_from_generators(n, gens)
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
    G = group_from_generators(n, gens)
    assert G.transitivity_degree(n) == sympy_stabilizer_transitivity(sympy_group(G))


@pytest.mark.parametrize("n", range(1, 13))
def test_symmetric_and_alternating_transitivity_match_sympy(n):
    for G in (PermutationGroup.symmetric(n), PermutationGroup.alternating(n)):
        K = sympy_group(G)
        assert G.transitivity_degree(n) == K.transitivity_degree
        assert sympy_stabilizer_transitivity(K) == K.transitivity_degree
