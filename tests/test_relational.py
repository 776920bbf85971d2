import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fixlat import _kernels, relational
from fixlat.closure import fixset_closure
from fixlat.errors import ValidationError
from fixlat.exhaustive import relational_closure
from fixlat.geometry import pgl_generators
from fixlat.group import PermutationGroup, group_from_generators
from fixlat.relational import (canonical_structure, dcl_vs_fixset_report,
                               relational_dcl)


def all_subsets(n):
    for mask in range(1 << n):
        yield tuple(x for x in range(n) if mask >> x & 1)


def test_trivial_group_has_one_relation_per_tuple():
    S = canonical_structure(PermutationGroup.trivial(4), 3)
    assert [len(S.relations[k]) for k in (2, 3)] == [4 * 3, 4 * 3 * 2]
    for k in (2, 3):
        tuples = [tuple(rel[0]) for rel in S.relations[k]]
        assert all(rel.shape == (1, k) for rel in S.relations[k])
        assert tuples == sorted(tuples)
        assert all(len(set(t)) == k for t in tuples)


def test_two_transitive_gives_one_binary_relation(sym4):
    S = canonical_structure(sym4, 2)
    assert len(S.relations[2]) == 1
    assert S.relations[2][0].shape == (12, 2)


def test_fano_triples_split_in_two(fano_group):
    S = canonical_structure(fano_group, 3)
    assert len(S.relations[2]) == 1
    sizes = sorted(rel.shape[0] for rel in S.relations[3])
    assert sizes == [42, 168]  # collinear orbit is 7 lines x 3! orderings


def test_hexagon_distance_relations(d6):
    S = canonical_structure(d6, 2)
    sizes = sorted(rel.shape[0] for rel in S.relations[2])
    assert sizes == [6, 12, 12]  # distances 3, 1, 2


def test_relations_partition_and_are_invariant(d6, fano_group):
    rng = random.Random(0)
    for G in (d6, fano_group):
        S = canonical_structure(G, 3)
        elements = G.elements()
        for arity, rels in S.relations.items():
            seen = set()
            for rel in rels:
                for row in map(tuple, rel.tolist()):
                    assert len(set(row)) == arity
                    assert row not in seen
                    seen.add(row)
            n = G.degree
            from math import perm
            assert len(seen) == perm(n, arity)
            for rel in rels:
                tuples = set(map(tuple, rel.tolist()))
                for _ in range(5):
                    g = rng.choice(elements)
                    assert {tuple(g(x) for x in t) for t in tuples} == tuples


def test_arity_bounds(sym4):
    with pytest.raises(ValidationError):
        canonical_structure(sym4, 1)
    with pytest.raises(ValidationError):
        canonical_structure(sym4, 9)


def test_dcl_of_full_domain(fano_group):
    S = canonical_structure(fano_group, 3)
    assert relational_dcl(S, range(7)) == tuple(range(7))


def test_dcl_completes_fano_lines(fano_group):
    S = canonical_structure(fano_group, 3)
    assert relational_dcl(S, [0, 1]) == (0, 1, 2)


def test_dcl_trivial_on_symmetric_group():
    s5 = PermutationGroup.symmetric(5)
    S = canonical_structure(s5, 2)
    for pts in all_subsets(5):
        if len(pts) <= 3:  # uniqueness first appears at arity 5 here
            assert relational_dcl(S, pts) == pts


def test_dcl_reaches_antipode(d6):
    S = canonical_structure(d6, 2)
    assert relational_dcl(S, [0]) == (0, 3)
    assert relational_dcl(S, [3, 0, 3]) == (0, 3)


@pytest.mark.parametrize("bad", [7, -1, 1.0])
def test_dcl_rejects_points_outside_the_domain(fano_group, sym4, bad):
    # the Sym(4) table is empty, the Fano one is not
    for S in (canonical_structure(fano_group, 3), canonical_structure(sym4, 2)):
        with pytest.raises(ValidationError, match="out of range"):
            relational_dcl(S, [0, bad])


def test_dcl_closure_axioms(fano_group):
    S = canonical_structure(fano_group, 3)
    for pts in all_subsets(7):
        c = relational_dcl(S, pts)
        assert set(pts) <= set(c)
        assert relational_dcl(S, c) == c


def test_dcl_sound_and_monotone_in_arity(fano_group, d6):
    for G in (fano_group, d6):
        S = canonical_structure(G, 3)
        for pts in all_subsets(G.degree):
            low = relational_dcl(S, pts, arity_limit=2)
            high = relational_dcl(S, pts, arity_limit=3)
            fix = fixset_closure(G, pts).points
            assert set(low) <= set(high) <= set(fix)


def test_dcl_commutes_with_group_elements(fano_group):
    S = canonical_structure(fano_group, 3)
    rng = random.Random(1)
    elements = fano_group.elements()
    for _ in range(25):
        g = rng.choice(elements)
        pts = rng.sample(range(7), rng.randrange(8))
        lhs = tuple(sorted(g(x) for x in relational_dcl(S, pts)))
        assert lhs == relational_dcl(S, [g(x) for x in pts])


def test_fano_report_full_agreement(fano_group):
    rep = dcl_vs_fixset_report(fano_group, 3)
    assert rep.subsets_tested == 128
    assert rep.agreements == 128
    assert rep.sufficient_arity == 3
    assert rep.sound


def test_hexagon_report(d6):
    # at arity 2 the antipode cases agree but aligned pairs fall short
    # (positive completions only, no definition by exclusion); arity 3 closes
    # the gap on every subset
    low = dcl_vs_fixset_report(d6, 2)
    assert low.sound
    assert 0 < len(low.disagreements)
    assert all(len(d["points"]) >= 2 for d in low.disagreements)
    high = dcl_vs_fixset_report(d6, 3)
    assert high.agreements == high.subsets_tested
    assert high.sufficient_arity == 3


def test_sym6_arity_capped_undercoverage():
    # co-singleton subsets need arity 6; at arity 2 they disagree, which the
    # report records as data rather than an error
    rep = dcl_vs_fixset_report(PermutationGroup.symmetric(6), 2)
    assert rep.sound
    assert rep.sufficient_arity is None
    assert len(rep.disagreements) == 6
    for d in rep.disagreements:
        assert len(d["points"]) == 5
    # singletons agree (both identity maps)
    assert all(len(d["points"]) != 1 for d in rep.disagreements)


def test_report_sampling_above_limit(monkeypatch, pgl42):
    monkeypatch.setattr(relational, "SAMPLE_SIZE", 64)
    rep = dcl_vs_fixset_report(pgl42, 2, seed=3)
    assert rep.subsets_tested == 64
    assert rep.sound


def test_report_tests_every_subset_when_the_sample_would_cover_them(monkeypatch,
                                                                   sym4):
    # 2^4 = 16 subsets cannot fill a sample of 64 distinct ones
    full = dcl_vs_fixset_report(sym4, 3)
    monkeypatch.setattr(relational, "EXHAUSTIVE_SUBSET_LIMIT", 2)
    monkeypatch.setattr(relational, "SAMPLE_SIZE", 64)
    rep = dcl_vs_fixset_report(sym4, 3)
    assert rep.subsets_tested == 16
    assert rep == full


@pytest.mark.parametrize("limit", [0, 1, 4, 7, 2.5])
def test_arity_limit_outside_the_structure_is_rejected(fano_group, limit):
    S = canonical_structure(fano_group, 3)
    with pytest.raises(ValidationError):
        relational_dcl(S, [0, 1], arity_limit=limit)
    with pytest.raises(ValidationError):
        S.completion_table(limit)


def test_fano_table_has_one_row_per_point_pair(fano_group):
    S = canonical_structure(fano_group, 3)
    params, values = S.completion_table(3)
    assert params.shape == (21, 2)
    pairs = [tuple(row) for row in params.tolist()]
    assert sorted(pairs) == list(combinations(range(7), 2))
    for (p, q), v in zip(pairs, values.tolist()):
        assert fixset_closure(fano_group, [p, q]).points == tuple(sorted((p, q, v)))
    assert S.completion_table(2)[0].shape[0] == 0


def test_merged_tables_deduplicate_orbits_and_slots():
    assert canonical_structure(pgl_generators(7, 1), 4).completion_table()[0].shape[0] <= 280
    S = canonical_structure(PermutationGroup.symmetric(7), 4)
    assert all(S.completion_table(a)[0].shape[0] == 0 for a in (2, 3, 4))


def test_fano_dcl_gathers_at_most_twice(fano_group, monkeypatch):
    S = canonical_structure(fano_group, 3)
    calls = []
    real = _kernels.gather_candidates

    def counted(params, values, member):
        calls.append(params.shape[0])
        return real(params, values, member)

    monkeypatch.setattr(_kernels, "gather_candidates", counted)
    for pts in all_subsets(7):
        calls.clear()
        relational_dcl(S, pts)
        assert len(calls) <= 2


@st.composite
def small_groups(draw):
    n = draw(st.integers(1, 7))
    gens = draw(st.lists(st.permutations(range(n)), min_size=1, max_size=3))
    return group_from_generators(n, gens)


@settings(derandomize=True, deadline=None, max_examples=40)
@given(small_groups())
def test_dcl_matches_brute_force_relational_closure(G):
    S = canonical_structure(G, 4)
    elements = G.elements_array()
    for pts in all_subsets(G.degree):
        for limit in (2, 3, 4):
            assert (relational_dcl(S, pts, arity_limit=limit)
                    == relational_closure(elements, pts, limit))
