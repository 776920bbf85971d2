"""The one-shot verification pipeline.

Every check re-derives its target quantities from scratch and, where an
independent oracle exists, cross-validates against it (full element
enumeration, closed-form counts, span closure). Checks return data; the
CLI turns them into reports and exit codes.

Two checks pin finite-scale values that differ from the idealized
infinite picture (see the README's "Acceptance suite" section): the Boolean
cube fails cone separation at its coatoms and top, and the symmetric
group's fixset lattice on n diamond atoms has 2^n - n elements, not 2^n.
Each is checked against its closed form and a brute-force oracle.
"""

from __future__ import annotations

import functools
import operator
import time
from itertools import combinations
from typing import Callable, Optional

import numpy as np

from . import closure, exhaustive, geometry, lattice, relational, steiner
from .errors import ValidationError
from .group import PermutationGroup


def _result(pairs, **extra) -> dict:
    """A check's result: passed iff every (label, ok) pair holds, with the
    pairs as subchecks and the extra keys, such as ``budget_seconds``."""
    return {"passed": all(ok for _, ok in pairs),
            "subchecks": [[label, bool(ok)] for label, ok in pairs], **extra}


def _fano_group() -> PermutationGroup:
    return geometry.pgl_generators(2, 2)


def _fano_lattice() -> lattice.FiniteLattice:
    return geometry.subspace_lattice(2, 2).to_finite_lattice()


def check_fano_fixset_lattice(_inject=None) -> dict:
    """Fixset lattice of the 7-point plane vs brute force and span geometry."""
    G = _fano_group()
    fl = closure.enumerate_fixset_lattice(G)
    sizes = sorted(len(e) for e in fl.elements)
    elements = exhaustive.enumerate_elements(7, [g.images for g in G.generators])
    brute = {exhaustive.fixset_closure(elements, combo)
             for r in range(8) for combo in combinations(range(7), r)}
    checks = [
        ("group order 168 by exhaustive closure", elements.shape[0] == 168),
        ("lattice has 16 elements", len(fl) == 16),
        ("profile empty+7+7+top", sizes == [0] + [1] * 7 + [3] * 7 + [7]),
        ("matches brute-force closures of all 128 subsets",
         set(fl.elements) == brute),
        ("fixsets coincide with projective subspaces",
         geometry.oracle_iso_check(2, 2)),
    ]
    return _result(checks, budget_seconds=5.0)


def check_fano_meet_join(_inject=None) -> dict:
    """Meets and joins of all fixset pairs and triples vs the subspace lattice."""
    G = _fano_group()
    fl = closure.enumerate_fixset_lattice(G)
    family = geometry.subspace_lattice(2, 2)
    sl = family.to_finite_lattice()
    index = {m: i for i, m in enumerate(family.masks)}
    ok = {2: True, 3: True}
    for r in ok:
        for combo in combinations(fl.masks, r):
            idxs = [index.get(m) for m in combo]
            expected = (None if None in idxs else
                        (lattice.meet(sl, idxs), lattice.join(sl, idxs)))
            meet = functools.reduce(operator.and_, combo)
            join = closure.closure_mask(G, functools.reduce(operator.or_, combo))
            if (index.get(meet), index.get(join)) != expected:
                ok[r] = False
    return _result([
        ("all 120 unordered pairs agree", ok[2]),
        ("all 560 unordered triples agree", ok[3]),
    ], budget_seconds=5.0)


def check_galois_duality(_inject=None) -> dict:
    """Order-reversing stabilizer/fixset bijection on three actions."""
    actions = [
        ("Sym(4)", PermutationGroup.symmetric(4)),
        ("PGL(3,2) on 7 points", _fano_group()),
        ("PGL(2,5) on 6 points", geometry.pgl_generators(5, 1)),
    ]
    checks = []
    for name, G in actions:
        rep = closure.galois_report(G)
        checks.append((f"{name}: {rep.elements_checked} fixsets, "
                       f"{rep.pairs_checked} pairs", rep.passed))
    return _result(checks)


def _shared(items, same) -> set:
    """Indices i with ``same(items[i], items[j])`` for some other index j."""
    return {k for i, j in combinations(range(len(items)), 2)
            if same(items[i], items[j]) for k in (i, j)}


def _cube_shared_stabilizers(n: int) -> tuple[set, set, set]:
    """Elements of 2^n whose lower-cone stabilizer is not unique, three ways.

    Returns (program, closed form, brute force). Aut(2^n) is Sym(n) on the
    atoms, and fixing the cone of the element with atom set A leaves
    Sym(atoms \\ A) of order (n - |A|)!. That group is trivial, and so
    shared, exactly when at most one atom lies outside A; the other groups
    are told apart by the atoms they move.
    """
    cube = lattice.boolean_lattice(n)
    G = lattice.lattice_automorphisms(cube)
    stabs = [G.pointwise_stabilizer(lattice.lower_cone(cube, l))
             for l in range(cube.size)]
    program = _shared(stabs, PermutationGroup.equals)
    atoms_below = cube.leq[list(lattice.atoms(cube))].sum(axis=0)
    closed = {l for l in range(cube.size) if n - atoms_below[l] <= 1}
    rows = exhaustive.lattice_automorphism_rows(cube.leq)
    brute = _shared([
        {r.tobytes() for r in exhaustive.stabilizer_rows(
            rows, np.flatnonzero(cube.leq[:, l]))}
        for l in range(cube.size)], operator.eq)
    return program, closed, brute


def check_cone_separation(_inject=None) -> dict:
    """Distinctness of lower-cone stabilizers on the four test lattices."""
    chain3 = lattice.chain_lattice(3)
    sep_chain = lattice.stabilizer_separation(chain3)
    m4 = lattice.stabilizer_separation(lattice.diamond_lattice(4))
    cube = lattice.stabilizer_separation(lattice.boolean_lattice(3))
    fano = lattice.stabilizer_separation(_fano_lattice())
    shared, closed, brute = _cube_shared_stabilizers(3)
    checks = [
        ("3-chain fails with a witness",
         not sep_chain.holds and sep_chain.witness is not None),
        ("4-atom diamond holds", m4.holds),
        (f"Boolean cube 2^3 fails, and the elements with equal stabilizers "
         f"are exactly {sorted(closed)} (the coatoms and the top)",
         not cube.holds and cube.witness is not None
         and set(cube.witness) <= closed and shared == closed == brute),
        ("7-point plane subspace lattice holds", fano.holds),
    ]
    return _result(
        checks, budget_seconds=5.0,
        chain_witness=sep_chain.witness, cube_witness=cube.witness,
        cube_shared=sorted(shared))


def check_diamond_reconstruction(_inject=None) -> dict:
    """Rebuilding diamonds and the 7-point plane from their atom actions."""
    checks = []
    details = {}
    for n in (3, 4, 5):
        r = lattice.reconstruct(lattice.diamond_lattice(n))
        # The atom action is Sym(n), in which fixing n - 1 points fixes the
        # last: the closed sets are those of size at most n - 2, plus all n
        # atoms. So 2^n - n of them, and the n + 2 image sets are all of
        # them only for n = 3.
        size = 2**n - n
        trivial = n + 2 == size
        elements = exhaustive.enumerate_elements(
            n, [g.images for g in r.atom_group.generators])
        brute = {exhaustive.fixset_closure(elements, combo)
                 for k in range(n + 1) for combo in combinations(range(n), k)}
        checks.append((f"M_{n}: closure {'trivial' if trivial else 'non-trivial'}",
                       r.closure_trivial == trivial))
        checks.append((f"M_{n}: image size {n + 2}", r.image_size == n + 2))
        checks.append((f"M_{n}: fixset lattice has 2^{n} - {n} = {size} elements, "
                       f"the brute-force closures of all {2 ** n} subsets",
                       len(r.fixset_lattice) == size == len(brute)
                       and set(r.fixset_lattice.elements) == brute))
        details[f"m{n}"] = {"image": r.image_size,
                            "fixset_lattice": len(r.fixset_lattice),
                            "closure_trivial": r.closure_trivial}
    rf = lattice.reconstruct(_fano_lattice())
    checks.append(("7-point plane: closure trivial", rf.closure_trivial))
    checks.append(("7-point plane: isomorphism emitted", rf.iso is not None))
    return _result(checks, **details)


def check_lattice_automorphisms(_inject=None) -> dict:
    """Automorphism orders, cross-checked by brute force on small lattices."""
    fano = _fano_lattice()
    m4 = lattice.diamond_lattice(4)
    chain3 = lattice.chain_lattice(3)
    aut_fano = lattice.lattice_automorphisms(fano).order()
    aut_m4 = lattice.lattice_automorphisms(m4).order()
    aut_chain = lattice.lattice_automorphisms(chain3).order()
    checks = [
        ("7-point plane lattice: 168", aut_fano == 168),
        ("matches closed form (8-2)(8-4)... / 1", aut_fano == geometry.pgl_order(2, 2)),
        ("4-atom diamond: 24", aut_m4 == 24),
        ("diamond brute force agrees",
         exhaustive.lattice_automorphism_count(m4.leq) == aut_m4),
        ("3-chain: 1", aut_chain == 1),
        ("chain brute force agrees",
         exhaustive.lattice_automorphism_count(chain3.leq) == aut_chain),
    ]
    return _result(checks, budget_seconds=30.0)


def check_jordan_transitivity(_inject=None) -> dict:
    """Stabilizer transitivity on fixset complements, plus transitivity degrees."""
    cases = [
        ("Sym(6)", PermutationGroup.symmetric(6), True, 5),
        ("PGL(3,2)", _fano_group(), True, 2),
        ("PGL(2,5)", geometry.pgl_generators(5, 1), True, 3),
        ("PGL(4,2)", geometry.pgl_generators(2, 3), True, 2),
    ]
    checks = []
    for name, G, expect_all, expect_deg in cases:
        rep = steiner.jordan_report(G, k_max=5)
        checks.append((f"{name}: every stabilizer transitive on complement",
                       rep.all_jordan == expect_all))
        checks.append((f"{name}: transitivity degree {expect_deg}",
                       rep.transitivity_degree == expect_deg))
    d6 = steiner.jordan_report(PermutationGroup.dihedral(6))
    witness = d6.first_witness()
    checks.append(("hexagon symmetries: not all transitive", not d6.all_jordan))
    checks.append(("hexagon witness fixset {0,3}",
                   witness is not None and witness.fixset == (0, 3)))
    checks.append(("hexagon witness splits into {1,5},{2,4}",
                   witness is not None
                   and witness.complement_orbits == ((1, 5), (2, 4))))
    return _result(checks, budget_seconds=60.0)


def check_dcl_vs_span(_inject=None) -> dict:
    """Relational closure at arity 3 vs fixset closure vs linear span, all subsets."""
    G = _fano_group()
    space = geometry.projective_points(2, 2)
    S = relational.canonical_structure(G, 3)
    masks = list(range(1 << 7))
    dcl = relational.relational_dcl(S, masks)
    all_agree = all(d == f == geometry.span_closure(space, m)
                    for m, d, f in zip(masks, dcl, closure.closure_table(G)))
    return _result([("relational = fixset = span on all 128 subsets", all_agree)],
                   budget_seconds=10.0)


def check_steiner_derivation(inject=None) -> dict:
    """Triple-system slicing down to the 7-point plane, plus 2-design counting."""
    s348 = steiner.steiner_from_affine_planes(3)
    fano = steiner.steiner_from_projective(2, 2)
    if inject == "fano-block":
        blocks = list(fano.blocks)
        blocks[0] = (0, 1, 3)
        fano = steiner.SteinerSystem(fano.k, fano.num_points, tuple(blocks))
    checks = [("S(3,4,8) from binary affine planes verifies",
               steiner.verify_steiner(s348).valid)]
    derived_ok = iso_ok = True
    for p in range(8):
        d = steiner.derivation(s348, p)
        if not steiner.verify_steiner(d).valid:
            derived_ok = False
        if steiner.steiner_isomorphism(d, fano) is None:
            iso_ok = False
    checks.append(("derivation at each of 8 points is Steiner", derived_ok))
    checks.append(("each derived system isomorphic to the 7-point plane", iso_ok))
    two_systems = [
        ("PG(2,2) lines", fano),
        ("AG(2,3) lines", steiner.steiner_from_affine(3, 2)),
        ("PG(3,2) lines", steiner.steiner_from_projective(2, 3)),
    ]
    for name, sys in two_systems:
        checks.append((f"{name}: verifies", steiner.verify_steiner(sys).valid))
        checks.append((f"{name}: block/pair counting identity",
                       steiner.counting_identity_holds(sys)))
    return _result(checks, budget_seconds=10.0)


def check_scale_pg32(_inject=None) -> dict:
    """The 15-point binary space: lattice size, geometry match, Jordan property."""
    G = geometry.pgl_generators(2, 3)
    fl = closure.enumerate_fixset_lattice(G)
    sl = geometry.subspace_lattice(2, 3)
    rep = steiner.jordan_report(G, k_max=3)
    checks = [
        ("fixset lattice has 67 elements", len(fl) == 67),
        ("families equal to subspace lattice", fl.masks == sl.masks),
        ("subspace count matches Gaussian binomials",
         len(sl) == geometry.subspace_count(2, 3)),
        ("every stabilizer transitive on complement", rep.all_jordan),
    ]
    return _result(checks, budget_seconds=120.0)


def check_stone_representation(_inject=None) -> dict:
    """Finite set-algebra representation and a non-distributive negative."""
    cube = lattice.boolean_lattice(3)
    rep = lattice.stone_ultrafilters(cube)
    fano = _fano_lattice()
    atoms = lattice.atoms(cube)
    atom_maps = [rep.element_map[a] for a in atoms]
    checks = [
        ("Boolean cube has exactly 3 ultrafilters", len(rep.ultrafilters) == 3),
        ("element map is injective", rep.injective),
        ("atom i maps to ultrafilter {i}",
         sorted(atom_maps) == [(0,), (1,), (2,)]),
        ("7-point plane lattice reported non-distributive",
         not lattice.is_distributive(fano)),
    ]
    return _result(checks)


CHECKS: list[tuple[str, Callable]] = [
    ("fano-fixset-lattice", check_fano_fixset_lattice),
    ("fano-meet-join", check_fano_meet_join),
    ("galois-duality", check_galois_duality),
    ("cone-separation", check_cone_separation),
    ("diamond-reconstruction", check_diamond_reconstruction),
    ("lattice-automorphisms", check_lattice_automorphisms),
    ("jordan-transitivity", check_jordan_transitivity),
    ("dcl-vs-span", check_dcl_vs_span),
    ("steiner-derivation", check_steiner_derivation),
    ("scale-pg32", check_scale_pg32),
    ("stone-representation", check_stone_representation),
]


def run_checks(only: Optional[str] = None, fail_fast: bool = False,
               inject: Optional[str] = None) -> tuple[dict, list[float]]:
    """Run the pipeline; ``only`` substring-filters check names and must
    match one, or ``ValidationError`` is raised.

    Returns the summary, which holds no timings and so is the same on
    every run, and each check's wall time in seconds, rounded to ms, in
    the summary's check order.
    """
    if only is not None and not any(only in name for name, _ in CHECKS):
        raise ValidationError(f"--only {only!r} matches no check")
    runs = []
    for name, fn in CHECKS:
        if only is not None and only not in name:
            continue
        start = time.perf_counter()
        result = fn(inject)
        elapsed = time.perf_counter() - start
        result["name"] = name
        budget = result.get("budget_seconds")
        if budget is not None and elapsed > budget:
            result["passed"] = False
            result["subchecks"].append([f"finished within {budget}s", False])
        runs.append((result, round(elapsed, 3)))
        if fail_fast and not result["passed"]:
            break
    results = [r for r, _ in runs]
    return {
        "checks": results,
        "passed": all(r["passed"] for r in results),
        "run": len(results),
        "failed": [r["name"] for r in results if not r["passed"]],
    }, [secs for _, secs in runs]
