import hashlib
import json
import math
import tracemalloc

import networkx as nx
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fixlat import closure, exhaustive, lattice
from fixlat._chain import StabilizerChain, sims_filter, sims_filter_rows
from fixlat.errors import (CapacityError, InternalConsistencyError,
                           PreconditionError, ValidationError)
from fixlat.geometry import subspace_lattice
from fixlat.group import PermutationGroup
from fixlat.lattice import (AUTOMORPHISM_CAP, FiniteLattice, atoms,
                            boolean_lattice, chain_lattice, diamond_lattice,
                            family_bijections, is_atomistic, is_complemented,
                            is_distributive, join, join_irreducibles,
                            lattice_automorphisms, lower_cone, meet,
                            order_from_covers, order_violations, reconstruct,
                            stabilizer_separation, stone_ultrafilters)
from fixlat.perm import Permutation, mask_from_points

from _oracles import listed_automorphisms, pairwise_separation


def pg_lattice(p, d):
    """The subspaces of PG(d, p) as a lattice."""
    return subspace_lattice(p, d).to_finite_lattice()


def bowtie_leq():
    # two minimal and two maximal elements, comparable crosswise: a poset
    # with no join for the minimal pair
    leq = np.eye(4, dtype=bool)
    leq[0, 2] = leq[0, 3] = leq[1, 2] = leq[1, 3] = True
    return leq


def n5_lattice():
    # the pentagon: 0 < 1 < 2 < 4 and 0 < 3 < 4
    return FiniteLattice.from_covers(5, [(0, 1), (1, 2), (2, 4), (0, 3), (3, 4)])


def grid_lattice(a, b):
    # product of an a-chain and a b-chain, element x * b + y
    pts = [(x, y) for x in range(a) for y in range(b)]
    return FiniteLattice(np.array([[p[0] <= q[0] and p[1] <= q[1] for q in pts]
                                   for p in pts]))


def relabelled(L, seed):
    perm = np.random.default_rng(seed).permutation(L.size)
    return FiniteLattice(L.leq[np.ix_(perm, perm)])


def test_validate_chain():
    leq = chain_lattice(3).leq
    assert order_violations(leq) == []
    assert FiniteLattice(leq).size == 3


def test_validate_bowtie_reports_missing_bound():
    # the minimal pair has no meet and no least upper bound; either way the
    # offending pair is named
    violations = order_violations(bowtie_leq())
    assert violations
    assert violations[0]["kind"] in ("missing-meet", "missing-join")
    assert violations[0]["pair"] == (0, 1)


def test_validate_pins_first_missing_bound():
    # pairs are scanned row-major over i <= j, the meet before the join
    assert order_violations(bowtie_leq()) == [
        {"kind": "missing-meet", "pair": (0, 1)}]
    # a bottom under two incomparable elements, each below two maximal ones
    vee = order_from_covers(5, [(0, 1), (0, 2), (1, 3), (1, 4), (2, 3), (2, 4)])
    assert order_violations(vee) == [{"kind": "missing-join", "pair": (1, 2)}]


def test_meet_join_tables_match_definition():
    for L in (n5_lattice(), grid_lattice(3, 4), relabelled(pg_lattice(2, 2), 7)):
        leq = L.leq
        for i in range(L.size):
            for j in range(L.size):
                lower = [k for k in range(L.size) if leq[k, i] and leq[k, j]]
                upper = [k for k in range(L.size) if leq[i, k] and leq[j, k]]
                m, = [c for c in lower if all(leq[k, c] for k in lower)]
                jn, = [c for c in upper if all(leq[c, k] for k in upper)]
                assert L.meet_table[i, j] == m and L.join_table[i, j] == jn


def brute_lattice_core(leq):
    """(violations, meet table, join table) from the definitions alone."""
    n = len(leq)
    out = []
    loose = [i for i in range(n) if not leq[i][i]]
    if loose:
        out.append({"kind": "not-reflexive", "element": loose[0]})
    cycles = [(i, j) for i in range(n) for j in range(n)
              if i != j and leq[i][j] and leq[j][i]]
    if cycles:
        out.append({"kind": "not-antisymmetric", "pair": cycles[0]})
    gaps = [(i, k) for i in range(n) for k in range(n) if not leq[i][k]
            and any(leq[i][j] and leq[j][k] for j in range(n))]
    if gaps:
        out.append({"kind": "not-transitive", "pair": gaps[0]})
    if out:
        return out, None, None

    def greatest(cands):
        return next((c for c in cands if all(leq[k][c] for k in cands)), -1)

    def least(cands):
        return next((c for c in cands if all(leq[c][k] for k in cands)), -1)

    meet_t = [[greatest([k for k in range(n) if leq[k][i] and leq[k][j]])
               for j in range(n)] for i in range(n)]
    join_t = [[least([k for k in range(n) if leq[i][k] and leq[j][k]])
               for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(i, n):
            if meet_t[i][j] < 0:
                return [{"kind": "missing-meet", "pair": (i, j)}], None, None
            if join_t[i][j] < 0:
                return [{"kind": "missing-join", "pair": (i, j)}], None, None
    return [], meet_t, join_t


@st.composite
def random_relations(draw):
    n = draw(st.integers(1, 7))
    cells = draw(st.lists(st.booleans(), min_size=n * n, max_size=n * n))
    leq = np.array(cells, dtype=bool).reshape(n, n)
    if draw(st.booleans()):
        np.fill_diagonal(leq, True)
    return leq


@st.composite
def random_posets(draw):
    # the transitive closure of a random DAG on 0..n-1, relabelled
    n = draw(st.integers(1, 7))
    leq = np.eye(n, dtype=bool)
    for j in range(n):
        for i in range(j):
            if draw(st.booleans()):
                leq[i, j] = True
    for k in range(n):
        leq |= leq[:, k, None] & leq[k, None, :]
    perm = draw(st.permutations(range(n)))
    return leq[np.ix_(perm, perm)]


@st.composite
def random_lattices(draw):
    # a Moore family on three points: random sets closed under intersection,
    # with the whole set as top, ordered by inclusion and relabelled
    family = {0b111}
    for m in draw(st.lists(st.integers(0, 0b111), max_size=4)):
        family |= {m & f for f in family} | {m}
    family = sorted(family)
    assume(len(family) <= 7)
    perm = draw(st.permutations(family))
    return np.array([[a & ~b == 0 for b in perm] for a in perm])


@settings(derandomize=True, deadline=None, max_examples=300)
@given(st.one_of(random_relations(), random_posets(), random_lattices()))
def test_lattice_core_matches_brute_force(leq):
    violations, meet_t, join_t = brute_lattice_core(leq.tolist())
    assert order_violations(leq) == violations
    if violations:
        with pytest.raises(ValidationError, match="not a lattice"):
            FiniteLattice(leq)
        return
    L = FiniteLattice(leq)
    assert L.meet_table.tolist() == meet_t and L.join_table.tolist() == join_t
    n = L.size
    ats = [a for a in range(n) if a != L.bottom
           and all(k in (a, L.bottom) for k in range(n) if leq[k, a])]
    joins_of_atoms = []
    for x in range(n):
        acc = L.bottom
        for a in ats:
            if leq[a, x]:
                acc = join_t[acc][a]
        joins_of_atoms.append(acc)
    assert is_atomistic(L) == (joins_of_atoms == list(range(n)))
    assert is_complemented(L) == all(
        any(meet_t[x][y] == L.bottom and join_t[x][y] == L.top for y in range(n))
        for x in range(n))
    assert is_distributive(L) == all(
        meet_t[a][join_t[b][c]] == join_t[meet_t[a][b]][meet_t[a][c]]
        for a in range(n) for b in range(n) for c in range(n))


def test_boolean_tables_at_scale():
    # in a relabelled 2^9, meets are intersections and joins unions
    masks = np.random.default_rng(3).permutation(1 << 9)
    L = FiniteLattice(lattice.containment_order(masks.tolist(), 9))
    index = np.argsort(masks)
    assert (L.meet_table == index[masks[:, None] & masks[None, :]]).all()
    assert (L.join_table == index[masks[:, None] | masks[None, :]]).all()


def test_validate_diamond():
    assert order_violations(diamond_lattice(4).leq) == []


def test_validate_rejects_broken_orders():
    not_refl = np.zeros((2, 2), dtype=bool)
    assert order_violations(not_refl)[0]["kind"] == "not-reflexive"
    cyclic = np.eye(2, dtype=bool)
    cyclic[0, 1] = cyclic[1, 0] = True
    assert order_violations(cyclic)[0]["kind"] == "not-antisymmetric"
    gap = np.eye(3, dtype=bool)
    gap[0, 1] = gap[1, 2] = True
    assert order_violations(gap) == [{"kind": "not-transitive", "pair": (0, 2)}]


@pytest.mark.parametrize("build", [FiniteLattice, order_violations])
@pytest.mark.parametrize("leq", [np.zeros((0, 0), bool), np.ones((2, 3), bool),
                                 np.ones(3, bool)], ids=["0x0", "2x3", "1d"])
def test_order_matrix_must_be_square_and_nonempty(build, leq):
    with pytest.raises(ValidationError, match="not n-by-n"):
        build(leq)


@pytest.mark.parametrize("pair", [(0, 3), (-1, 1), (3, 0)])
def test_order_from_covers_rejects_out_of_range_pairs(pair):
    with pytest.raises(ValidationError, match="out of range"):
        order_from_covers(3, [(0, 1), pair])


def test_constructor_raises_on_non_lattice():
    with pytest.raises(ValidationError):
        FiniteLattice(bowtie_leq())


def test_meet_join_basics():
    m4 = diamond_lattice(4)
    assert join(m4, [m4.top]) == m4.top
    assert join(m4, [1, 2]) == m4.top
    assert meet(m4, [1, 2]) == m4.bottom
    with pytest.raises(PreconditionError):
        meet(m4, [])


def test_fano_lattice_meet_join():
    family = subspace_lattice(2, 2)
    sl = family.to_finite_lattice()
    by_label = {lab: i for i, lab in enumerate(family.elements)}
    a, b = by_label[(0,)], by_label[(1,)]
    assert family.elements[join(sl, [a, b])] == (0, 1, 2)


def test_atoms_and_atomisticity():
    b3 = boolean_lattice(3)
    assert len(atoms(b3)) == 3 and is_atomistic(b3)
    c3 = chain_lattice(3)
    assert atoms(c3) == (1,) and not is_atomistic(c3)
    family = subspace_lattice(2, 2)
    fano = family.to_finite_lattice()
    assert len(atoms(fano)) == 7 and is_atomistic(fano)
    # every line is the join of its points
    by_label = {lab: i for i, lab in enumerate(family.elements)}
    for lab in family.elements:
        if len(lab) == 3:
            assert join(fano, [by_label[(x,)] for x in lab]) == by_label[lab]


def test_lower_cone():
    c3 = chain_lattice(3)
    assert lower_cone(c3, 1) == (0, 1)
    assert lower_cone(c3, 2) == (0, 1, 2)


@pytest.mark.parametrize("element", [-1, 5, np.int64(-5), 1.5, True, np.int64(1)])
def test_element_indices_are_checked(element):
    # negative indices do not wrap around to the top, floats are not
    # truncated, and only plain ints are indices (True is not 1)
    m3 = diamond_lattice(3)
    for call in (lambda: meet(m3, [element, 1]), lambda: join(m3, [1, element]),
                 lambda: meet(m3, [element]), lambda: lower_cone(m3, element)):
        with pytest.raises(ValidationError, match="out of range"):
            call()


def test_automorphism_orders():
    assert lattice_automorphisms(chain_lattice(3)).order() == 1
    assert lattice_automorphisms(diamond_lattice(4)).order() == 24
    assert lattice_automorphisms(pg_lattice(2, 2)).order() == 168


def test_automorphisms_match_brute_force_small():
    for L in (chain_lattice(3), chain_lattice(5), diamond_lattice(3),
              diamond_lattice(4), boolean_lattice(3)):
        assert (lattice_automorphisms(L).order()
                == exhaustive.lattice_automorphism_count(L.leq))
    # both listings, atomistic or not, are every automorphism; the general
    # one comes in element-lex order, like the brute-force rows
    stock = (chain_lattice(5), n5_lattice(), grid_lattice(2, 3),
             diamond_lattice(3), boolean_lattice(3))
    for L in stock + tuple(relabelled(L, 1) for L in stock):
        rows = exhaustive.lattice_automorphism_rows(L.leq).tolist()
        assert [list(r) for r in lattice._general_automorphisms(L)] == rows
        assert sorted(lattice._atomistic_automorphisms(L).tolist()) == rows


def test_family_bijections_check_every_set():
    # the hexagon and two triangles: six edges, every point on two of them
    hexagon = {1 << i | 1 << (i + 1) % 6 for i in range(6)}
    triangles = {1 << a | 1 << b for t in (0, 3)
                 for a, b in ((t, t + 1), (t + 1, t + 2), (t, t + 2))}
    assert family_bijections(6, hexagon, triangles) == []
    autos = family_bijections(6, hexagon, hexagon)
    assert len(autos) == 12 and autos == sorted(autos)
    assert family_bijections(6, hexagon, hexagon, first=True) == autos[:1]


def test_join_irreducibles():
    n5 = n5_lattice()
    assert join_irreducibles(n5) == (1, 2, 3) and atoms(n5) == (1, 3)
    assert join_irreducibles(chain_lattice(5)) == (1, 2, 3, 4)
    for L in (diamond_lattice(4), boolean_lattice(3), pg_lattice(2, 2)):
        assert join_irreducibles(L) == atoms(L)


def test_automorphism_count_is_checked(monkeypatch):
    # a listing that misses an automorphism cannot match the order of the
    # group its members generate; the check survives python -O
    listed = lattice._atomistic_automorphisms
    monkeypatch.setattr(lattice, "_atomistic_automorphisms",
                        lambda L: listed(L)[1:])
    with pytest.raises(InternalConsistencyError):
        lattice_automorphisms(pg_lattice(2, 2))


def test_automorphism_cap(monkeypatch):
    monkeypatch.setattr(lattice, "AUTOMORPHISM_CAP", 4)
    with pytest.raises(CapacityError):
        lattice_automorphisms(boolean_lattice(3))


def irreducible_family(L):
    irr = list(join_irreducibles(L))
    return len(irr), {mask_from_points([p for p, j in enumerate(irr) if L.leq[j, x]],
                                       len(irr)) for x in range(L.size)}


def transversal_listing(m, family):
    return sorted(lattice._listing(m, lattice._transversals(m, family)[1]).tolist())


AUT_STOCK = (chain_lattice(1), chain_lattice(4), n5_lattice(), grid_lattice(2, 3),
             diamond_lattice(1), diamond_lattice(4), diamond_lattice(5),
             boolean_lattice(3), boolean_lattice(4), pg_lattice(2, 2))

HEXAGON = {1 << i | 1 << (i + 1) % 6 for i in range(6)}
FANO_LINES = {mask_from_points(line, 7) for line in
              [(0, 1, 2), (0, 3, 4), (0, 5, 6), (1, 3, 5), (1, 4, 6),
               (2, 3, 6), (2, 4, 5)]}


@pytest.mark.parametrize("m, family", [(6, HEXAGON), (7, FANO_LINES)],
                         ids=["hexagon", "fano-lines"])
def test_listing_equals_backtrack_on_point_families(m, family):
    rows = transversal_listing(m, family)
    assert rows == [list(p) for p in family_bijections(m, family, family)]
    assert len(rows) == {6: 12, 7: 168}[m]


def test_listing_equals_backtrack_on_irreducible_families():
    for L in AUT_STOCK + tuple(relabelled(L, s) for L in AUT_STOCK for s in (1, 2)):
        m, family = irreducible_family(L)
        assert transversal_listing(m, family) == [
            list(p) for p in family_bijections(m, family, family)]


@settings(derandomize=True, deadline=None, max_examples=80)
@given(st.integers(1, 6).flatmap(lambda n: st.tuples(
    st.just(n), st.sets(st.integers(0, (1 << n) - 1), max_size=12))))
def test_listing_equals_backtrack_on_random_families(case):
    m, family = case
    assert transversal_listing(m, family) == [
        list(p) for p in family_bijections(m, family, family)]


@st.composite
def row_lists(draw, max_degree=9, max_rows=40):
    """Rows built as products of a few permutations, so that many sift to
    earlier entries, with identity rows and duplicates mixed in."""
    n = draw(st.integers(1, max_degree))
    base = draw(st.lists(st.permutations(range(n)), min_size=1, max_size=4))
    rows = []
    for word in draw(st.lists(st.lists(st.integers(0, len(base) - 1), max_size=4),
                              max_size=max_rows)):
        p = list(range(n))
        for k in word:
            p = [base[k][x] for x in p]
        rows.append(tuple(p))
    for i in draw(st.lists(st.integers(0, max(len(rows) - 1, 0)), max_size=6)):
        if rows:
            rows.insert(i, rows[i])
    return n, rows


@settings(derandomize=True, deadline=None, max_examples=150)
@given(row_lists())
def test_batched_replay_equals_sims_filter(case):
    n, rows = case
    assert sims_filter_rows(n, rows) == sims_filter(n, rows)


@settings(derandomize=True, deadline=None, max_examples=40)
@given(row_lists(max_degree=14, max_rows=400))
def test_level_filter_equals_sims_filter_on_long_streams(case):
    n, rows = case
    assert sims_filter_rows(n, rows) == sims_filter(n, rows)


def test_batched_replay_on_a_full_listing():
    L = relabelled(diamond_lattice(5), 3)
    rows = lattice._atomistic_automorphisms(L)
    assert sims_filter_rows(L.size, rows) == sims_filter(L.size, rows.tolist())


def first_occurrence_table(rows):
    """Each slot (least moved point, its image) of an undivided row, filled
    by the first row there: sims_filter without its divisions."""
    table = {}
    for r in rows:
        u = next((i for i, x in enumerate(r) if i != x), None)
        if u is not None:
            table.setdefault((u, r[u]), tuple(r))
    return list(table.values())


@pytest.mark.parametrize("n, seed", [(4, 2), (5, 1), (5, 2)])
def test_level_filter_where_first_occurrence_is_wrong(n, seed):
    # a row reaches later levels only divided by earlier entries, so which
    # row fills a slot, and with what, is not read off the undivided rows
    L = relabelled(boolean_lattice(n), seed)
    rows = lattice._atomistic_automorphisms(L).tolist()
    kept = sims_filter_rows(L.size, rows)
    assert kept == sims_filter(L.size, rows)
    assert kept != first_occurrence_table(rows)


def test_automorphism_generators_are_checked_against_the_order(monkeypatch):
    # the filter keeps redundant generators (any single one of M7's 21 can
    # go), but the first half generate Sym(5) only, and the chain built
    # against the listing's 5040 says so
    kept = lattice.sims_filter_rows

    def first_half(n, rows):
        gens = kept(n, rows)
        return gens[:len(gens) // 2]

    monkeypatch.setattr(lattice, "sims_filter_rows", first_half)
    with pytest.raises(InternalConsistencyError, match="below the known order 5040"):
        lattice_automorphisms(diamond_lattice(7))


# SHA-256 of json.dumps of the printed generator image lists, computed once
# with the element-by-element listing that preceded the transversal search
PINNED = {
    "M7": (lambda: diamond_lattice(7), 5040, 21,
           "ee0ad007edf2db898505d994bd045c14f06b11af24337de4baf4112e6c2054a3"),
    "2^5": (lambda: boolean_lattice(5), 120, 10,
            "646832b201e3d3c207ffa283b715460aab31d01a1b2430cc2257f6b811d51f30"),
    "PG(2,2)": (lambda: pg_lattice(2, 2), 168, 12,
                "21cf8e2e7c849d925c20283c28edac06934b11e9b792d878a34e09f6dccb6e1b"),
    "PG(2,3)": (lambda: pg_lattice(3, 2), 5616, 31,
                "b3c048eb2c178563e87f12623bef3fb408f94a8dd79fde63236eb33d0de13cc2"),
    "PG(3,2)": (lambda: pg_lattice(2, 3), 20160, 58,
                "04e3652ef6c24d23f1cd3c0d8f400c7d132fff5a8403ee68996178642126a45e"),
}


@pytest.mark.parametrize("name", list(PINNED))
def test_generators_pinned_on_relabelled_lattices(name):
    make, order, count, digest = PINNED[name]
    G = lattice_automorphisms(relabelled(make(), 1))
    gens = [list(g.images) for g in G.generators]
    assert G.order() == order and len(gens) == count
    assert hashlib.sha256(json.dumps(gens).encode()).hexdigest() == digest


@pytest.mark.parametrize("L, searches", [(diamond_lattice(7), 6),
                                         (pg_lattice(2, 2), 12)],
                         ids=["M7", "PG(2,2)"])
def test_search_count(monkeypatch, L, searches):
    calls = []
    search = lattice.family_bijections

    def counted(*args, **kwargs):
        calls.append(args)
        return search(*args, **kwargs)

    monkeypatch.setattr(lattice, "family_bijections", counted)
    lattice_automorphisms(L)
    assert 0 < len(calls) <= searches


def hasse_automorphism_count(L):
    hasse = nx.DiGraph()
    hasse.add_nodes_from(range(L.size))
    hasse.add_edges_from(L.covers())
    return sum(1 for _ in nx.algorithms.isomorphism.DiGraphMatcher(
        hasse, hasse).isomorphisms_iter())


def test_order_matches_networkx_on_hasse_diagrams():
    for L in AUT_STOCK + (relabelled(pg_lattice(2, 2), 1),
                      relabelled(grid_lattice(3, 3), 2)):
        assert lattice_automorphisms(L).order() == hasse_automorphism_count(L)


def test_listing_cap_before_allocation():
    # M9 lists 362,880 automorphisms of 11 elements, under the cap; M10
    # would list 3,628,800 of 12
    assert lattice_automorphisms(diamond_lattice(9)).order() == 362_880
    with pytest.raises(CapacityError) as err:
        lattice_automorphisms(diamond_lattice(10))
    assert err.value.cap_name == "automorphisms"


def test_separation_results():
    chain = stabilizer_separation(chain_lattice(3))
    assert not chain.holds and chain.witness is not None
    assert stabilizer_separation(diamond_lattice(4)).holds
    assert stabilizer_separation(pg_lattice(2, 2)).holds
    # the cube fails: coatom cones and the top cone all have the trivial
    # stabilizer, because fixing two atoms of three fixes the third
    cube = stabilizer_separation(boolean_lattice(3))
    assert not cube.holds
    assert cube.witness == (4, 5)


@st.composite
def moore_lattices(draw):
    # a Moore family on two to six points: one to eight seeded random sets
    # closed under intersection, with the whole set as top, ordered by
    # inclusion and relabelled
    n, k = draw(st.integers(2, 6)), draw(st.integers(1, 8))
    seed = draw(st.integers(0, 1 << 32))
    rng = np.random.default_rng(seed)
    full = (1 << n) - 1
    family = {full}
    for m in rng.integers(0, full + 1, size=k).tolist():
        family |= {m & f for f in family} | {m}
    perm = rng.permutation(sorted(family)).tolist()
    return FiniteLattice(np.array([[a & ~b == 0 for b in perm] for a in perm]))


# the non-atomistic ones, and separated ones, which random families seldom are
SEPARATION_STOCK = (chain_lattice(2), chain_lattice(3), chain_lattice(6), n5_lattice(),
                    grid_lattice(2, 2), grid_lattice(2, 3), grid_lattice(3, 3),
                    grid_lattice(2, 4), diamond_lattice(3), diamond_lattice(5),
                    pg_lattice(2, 2))


@settings(derandomize=True, deadline=None, max_examples=200)
@given(st.one_of(moore_lattices(), st.builds(
    relabelled, st.sampled_from(SEPARATION_STOCK), st.integers(0, 9))))
def test_separation_matches_pairwise_subgroup_tests(L):
    assert stabilizer_separation(L) == pairwise_separation(L)


def assert_listings_match_the_reference(L):
    by_irreducibles, by_elements = listed_automorphisms(L)
    assert lattice._atomistic_automorphisms(L).tolist() == by_irreducibles
    assert lattice._general_automorphisms(L).tolist() == by_elements


def test_automorphism_listings_match_the_reference_on_stock_lattices():
    # chain_lattice(1) has no join-irreducible, so no sort key: its one row
    for L in AUT_STOCK + SEPARATION_STOCK:
        assert_listings_match_the_reference(L)
    assert lattice._atomistic_automorphisms(chain_lattice(1)).tolist() == [[0]]


@settings(derandomize=True, deadline=None, max_examples=200)
@given(st.one_of(moore_lattices(), st.builds(
    relabelled, st.sampled_from(AUT_STOCK + SEPARATION_STOCK), st.integers(0, 9))))
def test_automorphism_listings_match_the_reference(L):
    # rows and their order: the Sims filter keeps generators by position
    assert_listings_match_the_reference(L)


def counted(monkeypatch, owner, name):
    """The calls made to owner.name from now on, one entry each."""
    calls = []
    real = getattr(owner, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)
    return calls


def test_separation_tests_subgroups_on_the_witness_only(monkeypatch):
    calls = counted(monkeypatch, PermutationGroup, "is_subgroup_of")
    assert stabilizer_separation(pg_lattice(2, 2)).holds and not calls
    assert stabilizer_separation(boolean_lattice(4)).witness is not None
    assert len(calls) == 1


def test_separation_witness_is_confirmed_as_groups(monkeypatch):
    monkeypatch.setattr(PermutationGroup, "is_subgroup_of", lambda self, other: False)
    with pytest.raises(InternalConsistencyError, match="distinct stabilizers"):
        stabilizer_separation(chain_lattice(3))


def test_separation_cap_without_the_listing():
    with pytest.raises(CapacityError) as err:
        stabilizer_separation(chain_lattice(AUTOMORPHISM_CAP + 1))
    assert err.value.cap_name == "automorphisms"
    # M10 has 3,628,800 automorphisms, past the listing's cap, and
    # separation lists none of them
    assert stabilizer_separation(diamond_lattice(10)).holds


def test_reconstruct_checks_the_listing_cap_before_separation():
    # M9 x 2 fails separation (fixing M9's atoms fixes both tops), and
    # listing its 9! automorphisms of 22 elements is past the cap, which
    # is reported first
    L = FiniteLattice(np.kron(diamond_lattice(9).leq, chain_lattice(2).leq))
    assert not stabilizer_separation(L).holds
    with pytest.raises(CapacityError, match="listing 362880 automorphisms"):
        reconstruct(L)


def test_reconstruct_walks_the_search_generators(monkeypatch):
    # the 121 closed sets of Sym(7) on M7's atoms, each mapped by the
    # search's 6 generators, not by the 21 that the listing's filter keeps
    images = counted(monkeypatch, closure, "_mask_image")
    builds = counted(monkeypatch, StabilizerChain, "__init__")
    r = reconstruct(diamond_lattice(7))
    assert len(r.fixset_lattice) == 121 and len(r.atom_group.generators) == 21
    assert len(images) <= 726
    # the J-action chain and the element action's, checking the listing
    assert len(builds) <= 2


def test_separation_failure_builds_two_chains(monkeypatch):
    builds = counted(monkeypatch, StabilizerChain, "__init__")
    with pytest.raises(PreconditionError, match="separated"):
        reconstruct(boolean_lattice(5))
    assert len(builds) <= 2


def test_reconstruct_checks_the_listed_generators(monkeypatch):
    # a transposition of two points of the Fano plane is no collineation
    L = pg_lattice(2, 2)
    a, b = atoms(L)[:2]
    swap = list(range(L.size))
    swap[a], swap[b] = b, a
    listed = lattice.lattice_automorphisms

    def with_a_stranger(L):
        return PermutationGroup(L.size, [*listed(L).generators, Permutation(swap)])

    monkeypatch.setattr(lattice, "lattice_automorphisms", with_a_stranger)
    with pytest.raises(InternalConsistencyError, match="outside"):
        reconstruct(L)


def test_reconstruct_fano_lattice():
    r = reconstruct(pg_lattice(2, 2))
    assert r.closure_trivial
    assert r.image_size == len(r.fixset_lattice) == 16
    assert r.iso is not None
    assert r.atom_group.order() == 168
    assert r.atoms == atoms(pg_lattice(2, 2))
    # order isomorphism: containment of images matches the lattice order
    L = pg_lattice(2, 2)
    for i in range(L.size):
        for j in range(L.size):
            assert bool(L.leq[i, j]) == (set(r.embedding[i])
                                         <= set(r.embedding[j]))


@pytest.mark.parametrize("n", [3, 4, 5])
def test_reconstruct_diamonds(n):
    r = reconstruct(diamond_lattice(n))
    assert r.atom_group.order() == math.factorial(n)
    assert r.image_size == n + 2
    # the symmetric group's fixsets exclude co-singletons, so the ambient
    # lattice has 2^n - n elements; the closure is non-trivial, with closed
    # sets outside the n + 2 image sets, exactly when 2^n - n > n + 2 (n >= 4)
    assert len(r.fixset_lattice) == 2**n - n
    assert r.closure_trivial == (n == 3)


def test_reconstruct_embedding_injective_and_monotone():
    for L in (diamond_lattice(4), diamond_lattice(3), pg_lattice(2, 2)):
        r = reconstruct(L)
        assert len(set(r.embedding)) == L.size
        for i in range(L.size):
            for j in range(L.size):
                if L.leq[i, j]:
                    assert set(r.embedding[i]) <= set(r.embedding[j])


def test_reconstruct_preconditions():
    with pytest.raises(PreconditionError, match="atomistic"):
        reconstruct(chain_lattice(3))
    # the cube is atomistic but fails separation, so its embedding would
    # collapse coatoms with the top; the contract is to refuse
    with pytest.raises(PreconditionError, match="separated"):
        reconstruct(boolean_lattice(3))
    # the one-element lattice is atomistic but has no atoms to act on
    with pytest.raises(PreconditionError, match="atom layer"):
        reconstruct(chain_lattice(1))


def test_reconstruct_collision_is_an_internal_error(monkeypatch):
    # separation guarantees an injective embedding on atomistic lattices,
    # so two elements with one image can only come from a broken closure
    from fixlat import closure
    orig = closure.closure_mask
    monkeypatch.setattr(closure, "closure_mask",
                        lambda G, mask: orig(G, mask & -mask))
    with pytest.raises(InternalConsistencyError, match="not injective"):
        reconstruct(diamond_lattice(3))


def test_distributivity():
    assert is_distributive(boolean_lattice(3))
    assert is_distributive(chain_lattice(4))
    assert not is_distributive(diamond_lattice(4))
    assert not is_distributive(pg_lattice(2, 2))


def test_stone_on_boolean_cube():
    rep = stone_ultrafilters(boolean_lattice(3))
    assert len(rep.ultrafilters) == 3
    assert rep.injective
    b3 = boolean_lattice(3)
    for i, a in enumerate(atoms(b3)):
        assert rep.element_map[a] == (i,)


def test_stone_preconditions():
    with pytest.raises(PreconditionError, match="complemented"):
        stone_ultrafilters(chain_lattice(3))
    with pytest.raises(PreconditionError, match="distributive"):
        stone_ultrafilters(pg_lattice(2, 2))
    assert is_complemented(diamond_lattice(4))


@pytest.mark.parametrize("build, arg", [
    (chain_lattice, 8193), (diamond_lattice, 8191), (diamond_lattice, 8192),
    (boolean_lattice, 14), (boolean_lattice, 18), (boolean_lattice, 10**9)])
def test_stock_lattices_check_the_cap_before_allocating(build, arg):
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError) as exc:
            build(arg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert exc.value.cap_name == "order_matrix"
    assert peak < 1 << 20


def test_stock_lattices_at_a_lowered_cap(monkeypatch):
    monkeypatch.setattr(lattice, "ORDER_MATRIX_CAP", 16)
    for build, largest, size in [(chain_lattice, 16, 16), (diamond_lattice, 14, 16),
                                 (boolean_lattice, 4, 16)]:
        assert build(largest).size == size
        with pytest.raises(CapacityError):
            build(largest + 1)


@pytest.mark.parametrize("build, arg", [
    (chain_lattice, 0), (chain_lattice, -1), (chain_lattice, 2.0),
    (chain_lattice, True), (diamond_lattice, -1), (diamond_lattice, -5),
    (diamond_lattice, "3"), (boolean_lattice, -1), (boolean_lattice, 3.0)])
def test_stock_lattices_reject_bad_sizes(build, arg):
    with pytest.raises(ValidationError):
        build(arg)


@pytest.mark.slow
def test_reconstruct_pg32_subspace_lattice(pgl42):
    # the 67-element lattice of PG(3,2) rebuilds exactly from its atom action
    r = reconstruct(pg_lattice(2, 3))
    assert r.closure_trivial
    assert r.image_size == 67
    assert r.atom_group.equals(pgl42)


@pytest.mark.slow
def test_reconstruct_pg23_subspace_lattice():
    # over GF(3) scalars are free on two fixed rays, so pairs of points are
    # already closed in the atom action; the 28 subspaces embed into a much
    # larger fixset lattice and the residual closure is non-trivial
    r = reconstruct(pg_lattice(3, 2))
    assert not r.closure_trivial
    assert r.image_size == 28
    assert len(r.fixset_lattice) == 457
