"""Resource caps are module constants, read when a function is called.

Each case lowers one constant to one below the size its input needs and
expects the same error class and cap name as the default cap would give
on a larger input; at exactly that size the call goes through.
"""

import pytest

from fixlat import closure, exhaustive, geometry, group, relational
from fixlat import serialize, steiner
from fixlat.cli import main
from fixlat.errors import CapacityError
from fixlat.group import PermutationGroup
from fixlat.lattice import chain_lattice


def fano():
    return geometry.pgl_generators(2, 2)


def fano_system():
    return steiner.steiner_from_projective(2, 2)


# (module, constant, default, size needed, inputs, call, error, cap name)
CASES = {
    "enumerate_elements": (
        exhaustive, "ORDER_CAP", 1_000_000, 168, fano,
        lambda G: exhaustive.enumerate_elements(7, G._gen_tuples),
        CapacityError, "order"),
    "lattice_automorphism_rows": (
        exhaustive, "BRUTE_LATTICE_CAP", 10, 4, lambda: chain_lattice(4).leq,
        exhaustive.lattice_automorphism_rows, CapacityError, "brute_lattice"),
    "lattice_automorphism_count": (
        exhaustive, "BRUTE_LATTICE_CAP", 10, 4, lambda: chain_lattice(4).leq,
        exhaustive.lattice_automorphism_count, CapacityError, "brute_lattice"),
    "canonical_structure": (
        relational, "TUPLE_SPACE_CAP", 5_000_000, 2 * 4**3,
        lambda: PermutationGroup.symmetric(4),
        lambda G: relational.canonical_structure(G, 3),
        CapacityError, "tuple_space"),
    "projective_points": (
        geometry, "POINT_CAP", 100_000, 7, lambda: (2, 2),
        lambda pd: geometry.projective_points(*pd), CapacityError, "points"),
    "pgl_generators": (
        geometry, "POINT_CAP", 100_000, 7, lambda: (2, 2),
        lambda pd: geometry.pgl_generators(*pd), CapacityError, "points"),
    "pgl_generators_degree": (
        group, "DEGREE_CAP", 4096, 7, lambda: (2, 2),
        lambda pd: geometry.pgl_generators(*pd), CapacityError, "degree"),
    "steiner_from_affine_planes": (
        steiner, "VERIFY_POINT_CAP", 64, 8, lambda: 3,
        steiner.steiner_from_affine_planes, CapacityError, "steiner_points"),
    "verify_steiner": (
        steiner, "VERIFY_POINT_CAP", 64, 7, fano_system,
        steiner.verify_steiner, CapacityError, "steiner_points"),
    "verify_steiner_subsets": (
        steiner, "TUPLE_SPACE_CAP", 5_000_000, 21, fano_system,
        steiner.verify_steiner, CapacityError, "tuple_space"),
    "steiner_isomorphism": (
        steiner, "VERIFY_POINT_CAP", 64, 7, fano_system,
        lambda s: steiner.steiner_isomorphism(s, s), CapacityError,
        "steiner_points"),
    "steiner_from_projective": (
        steiner, "TUPLE_SPACE_CAP", 5_000_000, 21, lambda: (2, 2),
        lambda qd: steiner.steiner_from_projective(*qd), CapacityError,
        "tuple_space"),
    "steiner_from_affine": (
        steiner, "TUPLE_SPACE_CAP", 5_000_000, 9 * 4, lambda: (3, 2),
        lambda qd: steiner.steiner_from_affine(*qd), CapacityError,
        "tuple_space"),
    "galois_report": (
        closure, "LATTICE_CAP", 200_000, 16, fano,
        closure.galois_report, CapacityError, "lattice"),
    "closure_table": (
        closure, "LATTICE_CAP", 200_000, 1 << 7, fano,
        closure.closure_table, CapacityError, "lattice"),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_cap_constant_fires_at_its_bound(monkeypatch, name):
    module, constant, default, size, inputs, call, error, cap_name = CASES[name]
    assert getattr(module, constant) == default
    arg = inputs()
    monkeypatch.setattr(module, constant, size - 1)
    with pytest.raises(error, match="cap") as info:
        call(arg)
    assert info.value.cap_name == cap_name
    monkeypatch.setattr(module, constant, size)
    call(arg)


def test_duplicate_generators_count_once_against_the_tuple_cap(monkeypatch):
    cycle = PermutationGroup.cyclic(5).generators[0]
    G = PermutationGroup(5, [cycle] * 60)
    monkeypatch.setattr(relational, "TUPLE_SPACE_CAP", 5**3)
    assert len(relational.canonical_structure(G, 3).relations[3]) == 12


def test_brute_lattice_cap_default_bound():
    # 10 elements pass the check (10! maps are then filtered); 11 do not
    with pytest.raises(CapacityError) as info:
        exhaustive.lattice_automorphism_count(chain_lattice(11).leq)
    assert info.value.cap_name == "brute_lattice"


@pytest.mark.parametrize("argv, count", [
    (["build-pg", "-q", "2", "-d", "11"], "8382465 point pairs"),
    (["build-ag", "-q", "3", "-d", "8"], "21520080 base-direction pairs"),
])
def test_steiner_builds_exit_3_past_the_tuple_cap(capsys, argv, count):
    assert main(["steiner", *argv]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"capacity error (tuple_space): {count} exceed cap 5000000" in captured.err


def test_cap_order_flag_is_gone(tmp_path, capsys):
    path = tmp_path / "G.json"
    path.write_text(serialize.canonical_json(serialize.group_to_obj(
        PermutationGroup.dihedral(6))))
    assert main(["group", "order", "--in", str(path), "--cap-order", "5"]) == 2
    assert "--cap-order" in capsys.readouterr().err
