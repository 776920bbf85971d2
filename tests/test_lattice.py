import numpy as np
import pytest

from fixlat import exhaustive, lattice
from fixlat.errors import (CapacityError, InternalConsistencyError,
                           PreconditionError, ValidationError)
from fixlat.geometry import subspace_lattice
from fixlat.lattice import (FiniteLattice, atoms, boolean_lattice,
                            chain_lattice, diamond_lattice, family_bijections,
                            is_atomistic, is_complemented, is_distributive,
                            join, join_irreducibles, lattice_automorphisms,
                            lattice_validate, lower_cone, meet,
                            order_from_covers, reconstruct,
                            stabilizer_separation, stone_ultrafilters)


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
    res = lattice_validate(3, chain_lattice(3).leq)
    assert res.ok and res.lattice is not None


def test_validate_bowtie_reports_missing_bound():
    # the minimal pair has no meet and no least upper bound; either way the
    # offending pair is named
    res = lattice_validate(4, bowtie_leq())
    assert not res.ok
    assert res.violations[0]["kind"] in ("missing-meet", "missing-join")
    assert res.violations[0]["pair"] == (0, 1)


def test_validate_pins_first_missing_bound():
    # pairs are scanned row-major over i <= j, the meet before the join
    assert lattice_validate(4, bowtie_leq()).violations == (
        {"kind": "missing-meet", "pair": (0, 1)},)
    # a bottom under two incomparable elements, each below two maximal ones
    vee = order_from_covers(5, [(0, 1), (0, 2), (1, 3), (1, 4), (2, 3), (2, 4)])
    assert lattice_validate(5, vee).violations == (
        {"kind": "missing-join", "pair": (1, 2)},)


def test_meet_join_tables_match_definition():
    for L in (n5_lattice(), grid_lattice(3, 4), relabelled(subspace_lattice(2, 2), 7)):
        leq = L.leq
        for i in range(L.size):
            for j in range(L.size):
                lower = [k for k in range(L.size) if leq[k, i] and leq[k, j]]
                upper = [k for k in range(L.size) if leq[i, k] and leq[j, k]]
                m, = [c for c in lower if all(leq[k, c] for k in lower)]
                jn, = [c for c in upper if all(leq[c, k] for k in upper)]
                assert L.meet_table[i, j] == m and L.join_table[i, j] == jn


def test_validate_diamond():
    assert lattice_validate(6, diamond_lattice(4).leq).ok


def test_validate_rejects_broken_orders():
    not_refl = np.zeros((2, 2), dtype=bool)
    assert lattice_validate(2, not_refl).violations[0]["kind"] == "not-reflexive"
    cyclic = np.eye(2, dtype=bool)
    cyclic[0, 1] = cyclic[1, 0] = True
    assert (lattice_validate(2, cyclic).violations[0]["kind"]
            == "not-antisymmetric")


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
    sl = subspace_lattice(2, 2)
    by_label = {lab: i for i, lab in enumerate(sl.labels)}
    a, b = by_label[(0,)], by_label[(1,)]
    assert sl.labels[join(sl, [a, b])] == (0, 1, 2)


def test_atoms_and_atomisticity():
    b3 = boolean_lattice(3)
    assert len(atoms(b3)) == 3 and is_atomistic(b3)
    c3 = chain_lattice(3)
    assert atoms(c3) == (1,) and not is_atomistic(c3)
    fano = subspace_lattice(2, 2)
    assert len(atoms(fano)) == 7 and is_atomistic(fano)
    # every line is the join of its points
    by_label = {lab: i for i, lab in enumerate(fano.labels)}
    for lab in fano.labels:
        if len(lab) == 3:
            assert join(fano, [by_label[(x,)] for x in lab]) == by_label[lab]


def test_lower_cone():
    c3 = chain_lattice(3)
    assert lower_cone(c3, 1) == (0, 1)
    assert lower_cone(c3, 2) == (0, 1, 2)


def test_automorphism_orders():
    assert lattice_automorphisms(chain_lattice(3)).order() == 1
    assert lattice_automorphisms(diamond_lattice(4)).order() == 24
    assert lattice_automorphisms(subspace_lattice(2, 2)).order() == 168


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
        assert [list(r) for r in sorted(lattice._atomistic_automorphisms(L))] == rows


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
    for L in (diamond_lattice(4), boolean_lattice(3), subspace_lattice(2, 2)):
        assert join_irreducibles(L) == atoms(L)


def test_automorphism_count_is_checked(monkeypatch):
    # a listing that misses an automorphism cannot match the order of the
    # group its members generate; the check survives python -O
    listed = lattice._atomistic_automorphisms
    monkeypatch.setattr(lattice, "_atomistic_automorphisms",
                        lambda L: listed(L)[1:])
    with pytest.raises(InternalConsistencyError):
        lattice_automorphisms(subspace_lattice(2, 2))


def test_automorphism_cap():
    with pytest.raises(CapacityError):
        lattice_automorphisms(boolean_lattice(3), cap=4)


def test_separation_results():
    chain = stabilizer_separation(chain_lattice(3))
    assert not chain.holds and chain.witness is not None
    assert stabilizer_separation(diamond_lattice(4)).holds
    assert stabilizer_separation(subspace_lattice(2, 2)).holds
    # the cube fails: coatom cones and the top cone all have the trivial
    # stabilizer, because fixing two atoms of three fixes the third
    cube = stabilizer_separation(boolean_lattice(3))
    assert not cube.holds
    assert cube.witness == (4, 5)


def test_reconstruct_fano_lattice():
    r = reconstruct(subspace_lattice(2, 2))
    assert r.closure_trivial
    assert r.image_size == len(r.fixset_lattice) == 16
    assert r.iso is not None
    assert r.atom_action.group.order() == 168
    # order isomorphism: containment of images matches the lattice order
    L = subspace_lattice(2, 2)
    for i in range(L.size):
        for j in range(L.size):
            assert bool(L.leq[i, j]) == (set(r.embedding[i])
                                         <= set(r.embedding[j]))


@pytest.mark.parametrize("n", [3, 4, 5])
def test_reconstruct_diamonds(n):
    r = reconstruct(diamond_lattice(n))
    assert r.atom_action.group.order() == exhaustive.symmetric_order(n)
    assert r.image_size == n + 2
    # the symmetric group's fixsets exclude co-singletons, so the ambient
    # lattice has 2^n - n elements; the closure is non-trivial, with closed
    # sets outside the n + 2 image sets, exactly when 2^n - n > n + 2 (n >= 4)
    assert len(r.fixset_lattice) == 2**n - n
    assert r.closure_trivial == (n == 3)


def test_reconstruct_embedding_injective_and_monotone():
    for L in (diamond_lattice(4), diamond_lattice(3), subspace_lattice(2, 2)):
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


def test_distributivity():
    assert is_distributive(boolean_lattice(3))
    assert is_distributive(chain_lattice(4))
    assert not is_distributive(diamond_lattice(4))
    assert not is_distributive(subspace_lattice(2, 2))


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
        stone_ultrafilters(subspace_lattice(2, 2))
    assert is_complemented(diamond_lattice(4))


@pytest.mark.slow
def test_reconstruct_pg32_subspace_lattice(pgl42):
    # the 67-element lattice of PG(3,2) rebuilds exactly from its atom action
    r = reconstruct(subspace_lattice(2, 3))
    assert r.closure_trivial
    assert r.image_size == 67
    assert r.atom_action.group.equals(pgl42)


@pytest.mark.slow
def test_reconstruct_pg23_subspace_lattice():
    # over GF(3) scalars are free on two fixed rays, so pairs of points are
    # already closed in the atom action; the 28 subspaces embed into a much
    # larger fixset lattice and the residual closure is non-trivial
    r = reconstruct(subspace_lattice(3, 2))
    assert not r.closure_trivial
    assert r.image_size == 28
    assert len(r.fixset_lattice) == 457
