"""Acceptance suite: one test per numbered criterion, at stated tolerances.

Each test prints a single PASS/FAIL line (run with ``-s`` to see them all;
failures always show theirs, with the failing sub-checks enumerated in the
assertion message). Criteria 4 and 5 pin exact finite-scale values: the
Boolean cube 2^3 fails cone separation exactly at its coatoms and top, and
the fixset lattice of Sym(n) on the n diamond atoms has 2^n - n elements.
Both are compared with a closed form and a brute-force oracle. The same
checks back ``fixlat verify``.
"""

import time
from itertools import combinations

from fixlat import closure, exhaustive, lattice
from fixlat import verify as verify_mod
from fixlat.group import PermutationGroup

from _oracles import element_table


def report(number, label, ok):
    print(f"criterion {number:>2} [{label}]: {'PASS' if ok else 'FAIL'}")


def assert_subchecks(number, label, result):
    ok = result["passed"]
    report(number, label, ok)
    lines = "\n".join(f"  {'ok  ' if passed else 'FAIL'} {name}"
                      for name, passed in result["subchecks"])
    assert ok, f"criterion {number} sub-checks:\n{lines}"


def timed(budget_seconds, fn):
    start = time.perf_counter()
    out = fn()
    elapsed = time.perf_counter() - start
    assert elapsed < budget_seconds, f"took {elapsed:.1f}s, budget {budget_seconds}s"
    return out


def test_criterion_1_fano_fixset_lattice():
    result = timed(5.0, lambda: verify_mod.check_fano_fixset_lattice())
    assert_subchecks(1, "fano fixset lattice", result)


def test_criterion_2_meet_join_formulas():
    result = timed(5.0, lambda: verify_mod.check_fano_meet_join())
    assert_subchecks(2, "meet/join vs subspace lattice", result)


def test_criterion_3_galois_duality():
    result = verify_mod.check_galois_duality()
    assert_subchecks(3, "stabilizer/fixset duality", result)


def test_criterion_4_cone_separation():
    result = timed(5.0, lambda: verify_mod.check_cone_separation())
    assert_subchecks(4, "cone-stabilizer separation", result)


def test_criterion_5_diamond_reconstruction():
    result = verify_mod.check_diamond_reconstruction()
    assert_subchecks(5, "diamond/plane reconstruction", result)


def test_criterion_6_lattice_automorphisms():
    result = timed(30.0, lambda: verify_mod.check_lattice_automorphisms())
    assert_subchecks(6, "automorphism orders", result)


def test_criterion_7_jordan_and_transitivity():
    result = timed(60.0, lambda: verify_mod.check_jordan_transitivity())
    assert_subchecks(7, "complement transitivity", result)


def test_criterion_8_dcl_equals_span():
    result = timed(10.0, lambda: verify_mod.check_dcl_vs_span())
    assert_subchecks(8, "definable closure = span", result)


def test_criterion_9_steiner_derivation():
    result = timed(10.0, lambda: verify_mod.check_steiner_derivation())
    assert_subchecks(9, "triple-system derivation", result)


def test_criterion_10_scale_pg32():
    result = timed(120.0, lambda: verify_mod.check_scale_pg32())
    assert_subchecks(10, "15-point scale check", result)


def test_criterion_11_stone_representation():
    result = verify_mod.check_stone_representation()
    assert_subchecks(11, "finite set-algebra representation", result)


# -- spot checks tying the criteria to frozen oracle values ------------------


def test_criterion_1_oracle_values_frozen(fano_group):
    # independent recomputation of the headline numbers
    table = element_table(fano_group)
    assert table.shape[0] == 168
    brute = {exhaustive.fixset_closure(table, pts)
             for r in range(8) for pts in combinations(range(7), r)}
    assert len(brute) == 16


def test_criterion_2_wrong_join_fails_without_raising(monkeypatch):
    # with the identity in place of the closure, the join of two points is
    # the bare pair, which is not a subspace of the plane
    fl = closure.enumerate_fixset_lattice(verify_mod._fano_group())
    monkeypatch.setattr(closure, "enumerate_fixset_lattice", lambda G: fl)
    monkeypatch.setattr(closure, "closure_mask", lambda G, mask: mask)
    result = verify_mod.check_fano_meet_join()
    assert result["passed"] is False
    assert [ok for _, ok in result["subchecks"]] == [False, False]


def test_criterion_4_witness_details():
    sep = lattice.stabilizer_separation(lattice.chain_lattice(3))
    assert sep.witness == (0, 1)
    cube = lattice.stabilizer_separation(lattice.boolean_lattice(3))
    # the coatoms and the top of the cube share the trivial stabilizer;
    # criterion 4 checks that set exactly
    assert cube.witness == (4, 5)


def test_criterion_5_true_finite_values():
    # what the reconstruction actually yields at this scale
    for n, trivial in ((3, True), (4, False), (5, False)):
        r = lattice.reconstruct(lattice.diamond_lattice(n))
        assert r.image_size == n + 2
        assert len(r.fixset_lattice) == 2**n - n
        assert r.closure_trivial is trivial


def test_criterion_7_degrees_frozen(pgl25, pgl42, fano_group):
    assert PermutationGroup.symmetric(6).transitivity_degree(5) == 5
    assert fano_group.transitivity_degree(5) == 2
    assert pgl25.transitivity_degree(5) == 3
    assert pgl42.transitivity_degree(5) == 2
