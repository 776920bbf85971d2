import random
from collections import defaultdict
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fixlat import _kernels, closure, relational
from fixlat._chain import StabilizerChain
from fixlat.closure import closure_mask, closure_table, fixset_closure
from fixlat.errors import ValidationError
from fixlat.exhaustive import relational_closure
from fixlat.geometry import pgl_generators
from fixlat.group import PermutationGroup, group_from_generators
from fixlat.perm import mask_from_points, points_from_mask
from fixlat.relational import (canonical_structure, dcl_vs_fixset_report,
                               relational_dcl)


def all_subsets(n):
    for mask in range(1 << n):
        yield tuple(x for x in range(n) if mask >> x & 1)


def dcl(S, points, arity_limit=None):
    """relational_dcl of one point set, as a sorted point tuple."""
    (closed,) = relational_dcl(S, [mask_from_points(points, S.degree)], arity_limit)
    return points_from_mask(closed)


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
    assert dcl(S, range(7)) == tuple(range(7))


def test_dcl_completes_fano_lines(fano_group):
    S = canonical_structure(fano_group, 3)
    assert dcl(S, [0, 1]) == (0, 1, 2)


def test_dcl_trivial_on_symmetric_group():
    s5 = PermutationGroup.symmetric(5)
    S = canonical_structure(s5, 2)
    for pts in all_subsets(5):
        if len(pts) <= 3:  # uniqueness first appears at arity 5 here
            assert dcl(S, pts) == pts


def test_dcl_reaches_antipode(d6):
    S = canonical_structure(d6, 2)
    assert dcl(S, [0]) == (0, 3)
    assert dcl(S, [3, 0, 3]) == (0, 3)


@pytest.mark.parametrize("bad", [lambda n: 1 << n, lambda n: -1, lambda n: 1.0,
                                 lambda n: True],
                         ids=["1<<n", "-1", "1.0", "True"])
def test_dcl_rejects_points_outside_the_domain(fano_group, sym4, bad):
    # the Sym(4) table is empty, the Fano one is not; a bool or a float is
    # not a mask even where it equals one
    for S in (canonical_structure(fano_group, 3), canonical_structure(sym4, 2)):
        with pytest.raises(ValidationError, match="out of range"):
            relational_dcl(S, [1, bad(S.degree)])


def test_dcl_closure_axioms(fano_group):
    S = canonical_structure(fano_group, 3)
    for pts in all_subsets(7):
        c = dcl(S, pts)
        assert set(pts) <= set(c)
        assert dcl(S, c) == c


def test_dcl_sound_and_monotone_in_arity(fano_group, d6):
    for G in (fano_group, d6):
        S = canonical_structure(G, 3)
        for pts in all_subsets(G.degree):
            low = dcl(S, pts, arity_limit=2)
            high = dcl(S, pts, arity_limit=3)
            fix = fixset_closure(G, pts).points
            assert set(low) <= set(high) <= set(fix)


def test_dcl_commutes_with_group_elements(fano_group):
    S = canonical_structure(fano_group, 3)
    rng = random.Random(1)
    elements = fano_group.elements()
    for _ in range(25):
        g = rng.choice(elements)
        pts = rng.sample(range(7), rng.randrange(8))
        lhs = tuple(sorted(g(x) for x in dcl(S, pts)))
        assert lhs == dcl(S, [g(x) for x in pts])


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
        dcl(S, [0, 1], arity_limit=limit)
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
    # one call closes all 128 subsets: the first gather takes every row but
    # the full one, the second only the rows that grew and are not full
    S = canonical_structure(fano_group, 3)
    calls = []
    real = _kernels.gather_candidates

    def counted(params, values, member):
        calls.append(member.shape[0])
        return real(params, values, member)

    monkeypatch.setattr(_kernels, "gather_candidates", counted)
    masks = list(range(1 << 7))
    closed = relational_dcl(S, masks)
    assert len(calls) <= 2
    assert calls[0] == 127
    assert closed == [mask_from_points(dcl(S, points_from_mask(m)), 7)
                      for m in masks]


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
            assert (dcl(S, pts, arity_limit=limit)
                    == relational_closure(elements, pts, limit))


def reference_orbits(G, k):
    """Orbits of distinct k-tuples, each sorted, in order of least tuple."""
    elements = G.elements_array()
    seen, orbits = set(), []
    for t in permutations(range(G.degree), k):  # lexicographic order
        if t not in seen:
            orbit = sorted(set(map(tuple, elements[:, list(t)].tolist())))
            seen.update(orbit)
            orbits.append(orbit)
    return orbits


def reference_table(G, limit):
    """Completion rows for arities 2..limit, built orbit by orbit and slot by
    slot: lower rows first, padded by the sentinel, then the new rows in
    order of (sorted parameters, value)."""
    n = G.degree
    rows = []
    for k in range(2, limit + 1):
        new = set()
        for orbit in reference_orbits(G, k):
            for slot in range(k):
                completions = defaultdict(set)
                for u in orbit:
                    completions[u[:slot] + u[slot + 1:]].add(u[slot])
                new |= {tuple(sorted(rest)) + (v,)
                        for rest, (v, *more) in completions.items() if not more}
        rows = [row[:-1] + (n, row[-1]) for row in rows] + sorted(new)
    return rows


@settings(derandomize=True, deadline=None, max_examples=40)
@given(small_groups())
def test_structure_matches_per_orbit_reference(G):
    S = canonical_structure(G, 4)
    for k in (2, 3, 4):
        assert [rel.tolist() for rel in S.relations[k]] == [
            [list(t) for t in orbit] for orbit in reference_orbits(G, k)]
        params, values = S.completion_table(k)
        got = [tuple(p) + (v,) for p, v in zip(params.tolist(), values.tolist())]
        assert got == reference_table(G, k)


@settings(derandomize=True, deadline=None, max_examples=30)
@given(small_groups(), st.integers(2, 4))
def test_report_matches_per_subset_reference(G, max_arity):
    rep = dcl_vs_fixset_report(G, max_arity)
    elements = G.elements_array()
    agrees = dict.fromkeys(range(2, max_arity + 1), True)
    disagreements = []
    for pts in all_subsets(G.degree):
        fix = fixset_closure(G, pts).points
        for a in agrees:
            top = relational_closure(elements, pts, a)
            agrees[a] = agrees[a] and top == fix
        if top != fix:
            disagreements.append({"points": pts, "dcl": top, "fixset": fix})
    assert rep.subsets_tested == 1 << G.degree
    assert rep.agreements == rep.subsets_tested - len(disagreements)
    assert rep.disagreements == tuple(disagreements)
    assert rep.sufficient_arity == next((a for a in agrees if agrees[a]), None)
    assert rep.sound == all(set(d["dcl"]) <= set(d["fixset"])
                            for d in disagreements)


def assert_table_matches_tower_walks(G):
    fresh = PermutationGroup(G.degree, G.generators)
    assert closure_table(G) == [closure_mask(fresh, m) for m in range(1 << G.degree)]


@settings(derandomize=True, deadline=None, max_examples=40)
@given(small_groups())
def test_closure_table_matches_closure_mask_on_small_groups(G):
    assert_table_matches_tower_walks(G)


def blocks_of(size, count):
    """Sym(size) on each of count consecutive blocks of points."""
    cycles = []
    for b in range(0, size * count, size):
        cycles += [f"({b} {b + 1})", "(" + " ".join(map(str, range(b, b + size))) + ")"]
    return PermutationGroup.from_cycles(size * count, cycles)


@pytest.mark.parametrize("G", [
    PermutationGroup.trivial(12), PermutationGroup.cyclic(12),
    PermutationGroup.dihedral(12), blocks_of(3, 4), blocks_of(2, 6),
    PermutationGroup.from_cycles(12, ["(0 1)", "(0 1 2)"]),
], ids=["trivial12", "C12", "D12", "Sym3^4", "Sym2^6", "Sym3+9fixed"])
def test_closure_table_matches_closure_mask_on_twelve_points(G):
    assert_table_matches_tower_walks(G)


def test_exhaustive_report_walks_the_tower_once_per_closed_extension(monkeypatch):
    calls = []
    real = closure.closure_mask

    def counted(G, mask):
        calls.append(mask)
        return real(G, mask)

    monkeypatch.setattr(closure, "closure_mask", counted)
    rep = dcl_vs_fixset_report(PermutationGroup.symmetric(8), 3)
    assert rep.subsets_tested == 1 << 8
    assert len(calls) < 1 << 8


def test_sampled_report_reads_closures_off_the_family(monkeypatch):
    # PG(2,3) has 457 fixsets for 512 sampled subsets; one tower walk per
    # subset made about 240 chain builds
    builds = []
    real = StabilizerChain.__init__

    def counted(self, *args, **kwargs):
        builds.append(args)
        real(self, *args, **kwargs)

    monkeypatch.setattr(StabilizerChain, "__init__", counted)
    rep = dcl_vs_fixset_report(pgl_generators(3, 2), 3)
    assert rep.subsets_tested == relational.SAMPLE_SIZE
    assert len(builds) <= 16


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("arity", [3, 4])
@pytest.mark.parametrize("p, d", [(3, 2), (2, 3), (13, 1)],
                         ids=["PG(2,3)", "PG(3,2)", "PG(1,13)"])
def test_sampled_report_matches_one_tower_walk_per_subset(monkeypatch, p, d,
                                                          arity, seed):
    G = pgl_generators(p, d)
    assert G.degree > relational.EXHAUSTIVE_SUBSET_LIMIT
    rep = dcl_vs_fixset_report(PermutationGroup(G.degree, G.generators),
                               arity, seed=seed)
    # with no room for a table, closures walks the tower once per mask
    monkeypatch.setattr(closure, "LATTICE_CAP", 0)
    assert dcl_vs_fixset_report(PermutationGroup(G.degree, G.generators),
                                arity, seed=seed) == rep


@pytest.mark.parametrize("chunk_bytes", [1, 1000])
def test_chunked_gathers_match_one_batch(monkeypatch, pgl42, d6, chunk_bytes):
    def closures():
        rng = random.Random(4)
        out = []
        for G, arity in [(pgl42, 3), (d6, 3), (PermutationGroup.cyclic(9), 4)]:
            S = canonical_structure(G, arity)
            masks = [rng.getrandbits(G.degree) for _ in range(300)]
            out.append([relational_dcl(S, masks, a) for a in range(2, arity + 1)])
            out.append(dcl_vs_fixset_report(G, arity, seed=2))
        return out

    whole = closures()
    rows = []
    real = _kernels.gather_candidates

    def counted(params, values, member):
        rows.append((member.shape[0] * params.size, params.size))
        return real(params, values, member)

    monkeypatch.setattr(relational, "GATHER_CHUNK_BYTES", chunk_bytes)
    monkeypatch.setattr(_kernels, "gather_candidates", counted)
    assert closures() == whole
    # one gather's intermediate stays under the bound, or is a single row
    assert rows and all(r <= max(chunk_bytes, size) for r, size in rows)
