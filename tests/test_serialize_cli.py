import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fixlat
from fixlat import exhaustive, serialize
from fixlat.cli import build_parser, main
from fixlat.closure import enumerate_fixset_lattice
from fixlat.errors import ValidationError
from fixlat.geometry import pgl_generators, projective_points, subspace_lattice
from fixlat.group import GroupAction, PermutationGroup
from fixlat.lattice import boolean_lattice, diamond_lattice
from fixlat.relational import canonical_structure, dcl_vs_fixset_report
from fixlat.steiner import (derivation, steiner_from_affine,
                            steiner_from_affine_planes, steiner_from_projective)


def test_group_roundtrip(d6):
    action = GroupAction(d6, tuple("abcdef"))
    obj = serialize.group_to_obj(action)
    back = serialize.group_from_obj(json.loads(json.dumps(obj)))
    assert back.group.equals(d6)
    assert back.labels == tuple("abcdef")


def test_group_accepts_cycle_strings():
    obj = {"degree": 5, "generators": ["(0 1 2 3 4)", [1, 0, 2, 3, 4]]}
    action = serialize.group_from_obj(obj)
    assert action.group.order() == 120


def test_group_rejects_bad_objects():
    with pytest.raises(ValidationError):
        serialize.group_from_obj({"generators": []})
    with pytest.raises(ValidationError):
        serialize.group_from_obj({"degree": 3, "generators": [[0, 0, 1]]})


def test_lattice_roundtrip():
    L = subspace_lattice(2, 2)
    obj = serialize.lattice_to_obj(L)
    back = serialize.lattice_from_obj(json.loads(json.dumps(obj)))
    assert back.size == L.size
    assert (back.leq == L.leq).all()


def test_fixset_lattice_roundtrip(d6):
    fl = enumerate_fixset_lattice(d6)
    obj = serialize.fixset_lattice_to_obj(fl)
    back = serialize.fixset_lattice_from_obj(json.loads(json.dumps(obj)))
    assert back.elements == fl.elements
    # the same object is accepted by the lattice reader (shared shape)
    as_lattice = serialize.lattice_from_obj(obj)
    assert as_lattice.size == len(fl.elements)
    assert set(as_lattice.covers()) == set(fl.covers())


def test_steiner_roundtrip():
    sys = steiner_from_projective(2, 2)
    obj = serialize.steiner_to_obj(sys)
    back = serialize.steiner_from_obj(json.loads(json.dumps(obj)))
    assert back == sys


def test_structure_dump_shape(d6):
    S = canonical_structure(d6, 2)
    obj = serialize.structure_to_obj(S)
    assert obj["degree"] == 6
    assert sorted(len(r) for r in obj["relations"]["2"]) == [6, 12, 12]


def test_dot_output():
    L = subspace_lattice(2, 2)
    dot = serialize.covers_to_dot(L.size, L.covers())
    assert dot.startswith("digraph")
    assert dot.count("->") == len(L.covers())


# -- CLI ---------------------------------------------------------------------


@pytest.fixture()
def group_file(tmp_path, d6):
    path = tmp_path / "d6.json"
    path.write_text(serialize.canonical_json(
        serialize.group_to_obj(GroupAction.unlabeled(d6))))
    return str(path)


def run_cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cli_group_order(capsys, group_file):
    code, out, _ = run_cli(capsys, "group", "order", "--in", group_file)
    report = json.loads(out)
    assert code == 0
    assert report["result"]["order"] == 12
    assert report["tool"] == "fixlat"
    assert "seed" in report and "config" in report


def test_cli_group_jordan_witness(capsys, group_file):
    code, out, _ = run_cli(capsys, "group", "jordan", "--in", group_file)
    result = json.loads(out)["result"]
    assert code == 0
    assert result["all_jordan"] is False
    assert result["witness"]["fixset"] == [0, 3]
    assert result["witness"]["complement_orbits"] == [[1, 5], [2, 4]]


def test_cli_group_stab_and_orbits(capsys, group_file, d6):
    code, out, _ = run_cli(capsys, "group", "stab", "--in", group_file,
                           "--points", "0")
    result = json.loads(out)["result"]
    assert code == 0
    assert result["order"] == 2
    assert result["fixed_points"] == [0, 3]
    # the generators are some generating set of the stabilizer: check the group
    from sympy.combinatorics import Permutation as SymPerm
    from sympy.combinatorics import PermutationGroup as SymGroup
    gens = result["generators"]
    assert all(g[0] == 0 for g in gens)
    assert len(exhaustive.enumerate_elements(6, gens)) == result["order"]
    oracle = SymGroup([SymPerm(g, size=6) for g in d6._gen_tuples])
    K = oracle.pointwise_stabilizer([0])
    H = PermutationGroup(6, gens)
    assert all(K.contains(SymPerm(g, size=6)) for g in gens)
    assert all(H.contains([k(i) for i in range(6)]) for k in K.generators)
    code, out, _ = run_cli(capsys, "group", "orbits", "--in", group_file)
    assert json.loads(out)["result"]["orbits"] == [[0, 1, 2, 3, 4, 5]]


def cli_result(capsys, *args):
    code, out, _ = run_cli(capsys, *args)
    assert code == 0
    return json.loads(out)["result"]


def test_cli_group_transitivity(capsys, group_file, d6):
    result = cli_result(capsys, "group", "transitivity", "--in", group_file,
                        "--k-max", "3")
    assert result == {"k_max": 3, "transitivity_degree": d6.transitivity_degree(3)}


def test_cli_group_primitivity(capsys, group_file, d6):
    result = cli_result(capsys, "group", "primitivity", "--in", group_file)
    res = d6.primitivity()
    assert result == {"primitive": res.primitive,
                      "block_system": [list(b) for b in res.block_system]}


def test_cli_group_dclcheck(capsys, group_file, d6):
    result = cli_result(capsys, "group", "dclcheck", "--in", group_file,
                        "--arity", "2")
    rep = dcl_vs_fixset_report(d6, 2)
    assert result == {
        "max_arity": 2,
        "subsets_tested": rep.subsets_tested,
        "agreements": rep.agreements,
        "agreement_rate": rep.agreement_rate,
        "sufficient_arity": rep.sufficient_arity,
        "sound": rep.sound,
        "disagreements": [{k: list(v) for k, v in d.items()}
                          for d in rep.disagreements[:32]],
    }


def test_cli_fixlattice_and_formats(capsys, group_file):
    code, out, _ = run_cli(capsys, "group", "fixlattice", "--in", group_file)
    assert code == 0 and json.loads(out)["result"]["size"] == 5
    code, dot, _ = run_cli(capsys, "group", "fixlattice", "--in", group_file,
                           "--format", "dot")
    assert code == 0 and dot.startswith("digraph")
    code, text, _ = run_cli(capsys, "group", "order", "--in", group_file,
                            "--format", "text")
    assert code == 0 and "order" in text


def test_cli_reports_are_byte_identical(capsys, group_file):
    _, first, _ = run_cli(capsys, "group", "fixlattice", "--in", group_file)
    _, second, _ = run_cli(capsys, "group", "fixlattice", "--in", group_file)
    assert first == second


def test_cli_emitted_artifacts_reparse(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "steiner", "build-pg", "-q", "2", "-d", "2")
    sys_obj = json.loads(out)["result"]
    assert serialize.steiner_from_obj(sys_obj).num_points == 7
    path = tmp_path / "fano.json"
    path.write_text(serialize.canonical_json(sys_obj))
    code, out, _ = run_cli(capsys, "steiner", "verify", "--in", str(path))
    assert code == 0
    assert json.loads(out)["result"]["valid"]


def test_cli_steiner_derive_and_autcheck(capsys, tmp_path, fano_group):
    code, out, _ = run_cli(capsys, "steiner", "build-pg", "-q", "2", "-d", "3")
    pg32 = tmp_path / "pg32.json"
    pg32.write_text(serialize.canonical_json(json.loads(out)["result"]))
    # derivation refuses on 2-systems, exit code 2
    code, out, err = run_cli(capsys, "steiner", "derive", "--in", str(pg32),
                             "--point", "0")
    assert code == 2
    gpath = tmp_path / "g.json"
    gpath.write_text(serialize.canonical_json(
        serialize.group_to_obj(fano_group)))
    fano_sys = tmp_path / "fano.json"
    code, out, _ = run_cli(capsys, "steiner", "build-pg", "-q", "2", "-d", "2")
    fano_sys.write_text(serialize.canonical_json(json.loads(out)["result"]))
    code, out, _ = run_cli(capsys, "steiner", "autcheck", "--in", str(fano_sys),
                           "--group", str(gpath))
    assert code == 0
    assert json.loads(out)["result"]["preserves_blocks"] is True


def test_cli_steiner_build_ag(capsys):
    result = cli_result(capsys, "steiner", "build-ag", "-q", "3", "-d", "2")
    assert result == serialize.steiner_to_obj(steiner_from_affine(3, 2))


def test_cli_steiner_derive(capsys, tmp_path):
    planes = steiner_from_affine_planes(3)
    path = tmp_path / "ag32.json"
    path.write_text(serialize.canonical_json(serialize.steiner_to_obj(planes)))
    result = cli_result(capsys, "steiner", "derive", "--in", str(path),
                        "--point", "5")
    assert result == serialize.steiner_to_obj(derivation(planes, 5))


@pytest.mark.parametrize("system, cap", [
    ({"k": 2, "points": 65, "blocks": [[0, 1, 2]]}, "steiner_points"),
    ({"k": 12, "points": 40, "blocks": [list(range(40))]}, "tuple_space"),
])
def test_cli_steiner_verify_capacity_exit_code(capsys, tmp_path, system, cap):
    path = tmp_path / "hostile.json"
    path.write_text(json.dumps(system))
    code, out, err = run_cli(capsys, "steiner", "verify", "--in", str(path))
    assert code == 3 and out == ""
    assert f"capacity error ({cap})" in err


def test_cli_lattice_subcommands(capsys, tmp_path):
    chain = tmp_path / "chain3.json"
    chain.write_text(json.dumps({"size": 3, "covers": [[0, 1], [1, 2]]}))
    code, out, _ = run_cli(capsys, "lattice", "check-s", "--in", str(chain))
    result = json.loads(out)["result"]
    assert code == 0 and result["holds"] is False and result["witness"]
    code, out, _ = run_cli(capsys, "lattice", "validate", "--in", str(chain))
    assert code == 0 and json.loads(out)["result"]["valid"]
    bowtie = tmp_path / "bowtie.json"
    bowtie.write_text(json.dumps(
        {"size": 4, "covers": [[0, 2], [0, 3], [1, 2], [1, 3]]}))
    code, out, _ = run_cli(capsys, "lattice", "validate", "--in", str(bowtie))
    assert code == 1
    assert json.loads(out)["result"]["valid"] is False
    m4 = tmp_path / "m4.json"
    m4.write_text(json.dumps({
        "size": 6,
        "covers": [[0, 1], [0, 2], [0, 3], [0, 4],
                   [1, 5], [2, 5], [3, 5], [4, 5]]}))
    code, out, _ = run_cli(capsys, "lattice", "reconstruct", "--in", str(m4))
    result = json.loads(out)["result"]
    assert result["closure_trivial"] is False
    assert result["image_size"] == 6
    code, out, _ = run_cli(capsys, "lattice", "automorphisms", "--in", str(m4))
    assert json.loads(out)["result"]["order"] == 24
    cube = tmp_path / "cube.json"
    cube.write_text(json.dumps({
        "size": 8,
        "covers": [[0, 1], [0, 2], [0, 3], [1, 4], [1, 5], [2, 4], [2, 6],
                   [3, 5], [3, 6], [4, 7], [5, 7], [6, 7]]}))
    code, out, _ = run_cli(capsys, "lattice", "stone", "--in", str(cube))
    result = json.loads(out)["result"]
    assert len(result["ultrafilters"]) == 3 and result["injective"]


def pinned_lattice_inputs():
    # the product of a 3-chain and a 4-chain, element 4x + y, relabelled
    perm = [7, 2, 10, 0, 5, 11, 3, 8, 1, 9, 6, 4]
    grid = ([[perm[e], perm[e + 4]] for e in range(8)]
            + [[perm[e], perm[e + 1]] for e in range(12) if e % 4 != 3])
    return {
        "grid": {"size": 12, "covers": grid},
        "pg22": serialize.lattice_to_obj(subspace_lattice(2, 2)),
        "b4": serialize.lattice_to_obj(boolean_lattice(4)),
        "bowtie": {"size": 4, "covers": [[0, 2], [0, 3], [1, 2], [1, 3]]},
        "vee": {"size": 5,
                "covers": [[0, 1], [0, 2], [1, 3], [1, 4], [2, 3], [2, 4]]},
    }


# sha256 over "<format> <exit code>\n<stdout>" for --format json, then dot
LATTICE_CLI_DIGESTS = {
    "validate grid":
        "1f8b5c3f9b424054028eb07c3bf389178727051da8714b4f76c2a9266639211a",
    "automorphisms grid":
        "eb7d5e57f699bed777ece3f291b6b27ca0b71d6c8ed9ab2273bfd4d9a62a7d46",
    "check-s grid":
        "65cda9b8b34849f4178948fac6291b0de41a10d60fae0b2f20be5efb386dddff",
    "reconstruct grid":
        "493130c0da354455191bcd86756c3d29e7d5a6c21b8ef62632086bf0aa333cdf",
    "stone grid":
        "493130c0da354455191bcd86756c3d29e7d5a6c21b8ef62632086bf0aa333cdf",
    "validate pg22":
        "1f8b5c3f9b424054028eb07c3bf389178727051da8714b4f76c2a9266639211a",
    "automorphisms pg22":
        "c37656bb2e55507eb7d886a845e7b46e76869da9216e819d9ac626fbc40e8117",
    "check-s pg22":
        "1999f5b22a48a7389bf35a45363251a18fea48de7e120398112c1325cf077974",
    "reconstruct pg22":
        "9bf34aaad2ac894b415c3bffb57a34793d9b2b1ecd66de88f70e5e91a671dafe",
    "stone pg22":
        "493130c0da354455191bcd86756c3d29e7d5a6c21b8ef62632086bf0aa333cdf",
    "validate b4":
        "1f8b5c3f9b424054028eb07c3bf389178727051da8714b4f76c2a9266639211a",
    "automorphisms b4":
        "2ca8f49afc0319aa0bfff549a3003c549439669f927a12911650e9c03d241ed7",
    "check-s b4":
        "fbe7824332ef88f00e6231f6e3f0766fa48932d3fee1aeb109632bc956705ce6",
    "reconstruct b4":
        "493130c0da354455191bcd86756c3d29e7d5a6c21b8ef62632086bf0aa333cdf",
    "stone b4":
        "1653dae05563ae3bcd9d28d43137bfccd2151c17900a9ba5141a6ccdaae09608",
    "validate bowtie":
        "8262ba58888bdbadf7c721f6548229c760bccdd06b0d243f56a682a2cff5d06f",
    "automorphisms bowtie":
        "493130c0da354455191bcd86756c3d29e7d5a6c21b8ef62632086bf0aa333cdf",
    "check-s bowtie":
        "493130c0da354455191bcd86756c3d29e7d5a6c21b8ef62632086bf0aa333cdf",
    "reconstruct bowtie":
        "493130c0da354455191bcd86756c3d29e7d5a6c21b8ef62632086bf0aa333cdf",
    "stone bowtie":
        "493130c0da354455191bcd86756c3d29e7d5a6c21b8ef62632086bf0aa333cdf",
    "validate vee":
        "56e3fc95c5f47ef70ef6f28929704fb04d51156b67e30605cd33eec552face78",
    "automorphisms vee":
        "493130c0da354455191bcd86756c3d29e7d5a6c21b8ef62632086bf0aa333cdf",
    "check-s vee":
        "493130c0da354455191bcd86756c3d29e7d5a6c21b8ef62632086bf0aa333cdf",
    "reconstruct vee":
        "493130c0da354455191bcd86756c3d29e7d5a6c21b8ef62632086bf0aa333cdf",
    "stone vee":
        "493130c0da354455191bcd86756c3d29e7d5a6c21b8ef62632086bf0aa333cdf",
}


def test_lattice_cli_bytes_are_pinned(capsys, tmp_path):
    got = {}
    for name, obj in pinned_lattice_inputs().items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(obj))
        for sub in ("validate", "automorphisms", "check-s", "reconstruct", "stone"):
            digest = hashlib.sha256()
            for fmt in ("json", "dot"):
                code, out, _ = run_cli(capsys, "lattice", sub, "--in", str(path),
                                       "--format", fmt)
                digest.update(f"{fmt} {code}\n{out}".encode())
            got[f"{sub} {name}"] = digest.hexdigest()
    assert got == LATTICE_CLI_DIGESTS


def test_cli_geometry(capsys):
    code, out, _ = run_cli(capsys, "geometry", "oracle-iso", "-p", "2", "-d", "2")
    assert code == 0 and json.loads(out)["result"]["isomorphic"] is True
    code, out, _ = run_cli(capsys, "geometry", "span", "-p", "2", "-d", "2",
                           "--points", "0,1")
    assert json.loads(out)["result"]["span"] == [0, 1, 2]
    code, out, _ = run_cli(capsys, "geometry", "pgl", "-p", "5", "-d", "1")
    assert json.loads(out)["result"]["order"] == 120


def test_cli_geometry_points(capsys):
    result = cli_result(capsys, "geometry", "points", "-p", "3", "-d", "2")
    space = projective_points(3, 2)
    assert result == {"count": space.num_points,
                      "points": [list(v) for v in space.points]}


def test_cli_geometry_subspaces(capsys):
    result = cli_result(capsys, "geometry", "subspaces", "-p", "2", "-d", "2")
    L = subspace_lattice(2, 2)
    assert result == {"size": L.size,
                      "subspaces": [list(e) for e in L.labels],
                      "covers": [list(c) for c in L.covers()]}


def test_cli_group_stab_reports_repeated_points_once(capsys, group_file):
    result = cli_result(capsys, "group", "stab", "--in", group_file,
                        "--points", "1,1")
    assert result["points"] == [1]
    assert result == cli_result(capsys, "group", "stab", "--in", group_file,
                                "--points", "1")


def test_cli_geometry_span_reports_repeated_points_once(capsys):
    result = cli_result(capsys, "geometry", "span", "-p", "2", "-d", "2",
                        "--points", "0,0,1")
    assert result == {"points": [0, 1], "span": [0, 1, 2]}


def child_env() -> dict:
    """The environment of a child interpreter that imports this fixlat."""
    env = dict(os.environ)
    src = str(Path(fixlat.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def run_cli_fresh(*args):
    """The CLI in a new interpreter: (exit code, stdout, stderr)."""
    proc = subprocess.run([sys.executable, "-m", "fixlat.cli", *args],
                          env=child_env(), capture_output=True, text=True,
                          timeout=300)
    return proc.returncode, proc.stdout, proc.stderr


def test_cli_calls_in_one_process_match_fresh_processes(capsys, group_file):
    sequence = [
        ["group", "dclcheck", "--in", group_file, "--arity", "4", "--seed", "3"],
        ["group", "fixlattice", "--in", group_file, "--format", "dot"],
        ["group", "nosuch", "--in", group_file],
        ["group", "dclcheck", "--in", group_file],
        ["group", "fixlattice", "--in", group_file],
        ["geometry", "span", "-p", "2", "-d", "2", "--points", "0,1", "--seed", "9"],
        ["group", "order", "--in", group_file, "--arity"],
        ["steiner", "build-pg"],
    ]
    in_process = [run_cli(capsys, *argv) for argv in sequence]
    assert build_parser.cache_info().currsize == 1
    assert [code for code, _, _ in in_process] == [0, 0, 2, 0, 0, 0, 2, 0]
    assert in_process[0][1] != in_process[3][1]  # --arity and --seed did not stick
    for argv, got in zip(sequence, in_process):
        assert got == run_cli_fresh(*argv), argv


def test_importing_the_cli_builds_no_parser():
    code = ("import fixlat.cli as c; "
            "assert c.build_parser.cache_info().currsize == 0")
    subprocess.run([sys.executable, "-c", code], env=child_env(), check=True,
                   timeout=300)


def test_cli_error_exit_codes(capsys, tmp_path):
    code, _, err = run_cli(capsys, "group", "order", "--in", "missing.json")
    assert code == 2 and "no such file" in err
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    code, _, err = run_cli(capsys, "group", "order", "--in", str(bad))
    assert code == 2 and "line 1" in err
    code, _, _ = run_cli(capsys, "group", "bogus", "--in", str(bad))
    assert code == 2


def test_cli_capacity_exit_code(capsys, tmp_path):
    gpath = tmp_path / "s6.json"
    gpath.write_text(serialize.canonical_json(serialize.group_to_obj(
        PermutationGroup.symmetric(6))))
    code, _, err = run_cli(capsys, "group", "fixlattice", "--in", str(gpath),
                           "--cap-lattice", "5")
    assert code == 3
    assert "capacity" in err


def test_cli_subspaces_capacity_exit_code(capsys):
    code, out, err = run_cli(capsys, "geometry", "subspaces", "-p", "2", "-d", "3",
                             "--cap-lattice", "10")
    assert code == 3 and out == ""
    assert "capacity error (lattice)" in err


def test_cli_oracle_iso_capacity_exit_code(capsys):
    code, out, err = run_cli(capsys, "geometry", "oracle-iso", "-p", "2", "-d", "3",
                             "--cap-lattice", "10")
    assert code == 3 and out == ""
    assert "capacity error (lattice)" in err


def test_cli_reconstruct_capacity_exit_code(capsys, tmp_path):
    path = tmp_path / "pg22.json"
    path.write_text(serialize.canonical_json(
        serialize.lattice_to_obj(subspace_lattice(2, 2))))
    code, out, err = run_cli(capsys, "lattice", "reconstruct", "--in", str(path),
                             "--cap-lattice", "3")
    assert code == 3 and out == ""
    assert "capacity error (lattice)" in err


@pytest.mark.parametrize("size, code, message", [
    (10**9, 3, "capacity error (lattice)"),
    (0, 2, "error: bad lattice object"),
    (-1, 2, "error: bad lattice object"),
])
def test_cli_lattice_size_checked_before_allocation(capsys, tmp_path, size, code,
                                                    message):
    path = tmp_path / "hostile.json"
    path.write_text(json.dumps({"size": size, "covers": []}))
    got, out, err = run_cli(capsys, "lattice", "validate", "--in", str(path))
    assert got == code and out == ""
    assert message in err


LIMITED_CLI = """
import resource, runpy, sys
limit = int(sys.argv.pop(1))
_, hard = resource.getrlimit(resource.RLIMIT_AS)
if hard != resource.RLIM_INFINITY:
    limit = min(limit, hard)
resource.setrlimit(resource.RLIMIT_AS, (limit, hard))
runpy.run_module("fixlat.cli", run_name="__main__")
"""


def run_cli_limited(*args, address_space=1 << 30):
    """Run the CLI in a child process that limits its own address space, so
    an order matrix allocated past its cap fails there instead of filling
    memory."""
    return subprocess.run(
        [sys.executable, "-c", LIMITED_CLI, str(address_space), *args],
        env=child_env(), capture_output=True, text=True, timeout=300)


def test_cli_order_matrix_cap_on_lattice_input(tmp_path):
    # under the lattice cap, but its order matrix would take 21 GiB
    path = tmp_path / "wide.json"
    path.write_text(json.dumps({"size": 150_000, "covers": []}))
    proc = run_cli_limited("lattice", "validate", "--in", str(path))
    assert proc.returncode == 3 and proc.stdout == ""
    assert "capacity error (order_matrix)" in proc.stderr
    assert "150000 elements exceeds cap 8192" in proc.stderr


def test_cli_order_matrix_cap_on_fixlattice(tmp_path):
    # PGL(4,3) on PG(3,3) has 147,737 fixsets: enumerated, but no covers
    path = tmp_path / "pg33.json"
    path.write_text(serialize.canonical_json(serialize.group_to_obj(
        GroupAction.unlabeled(pgl_generators(3, 3)))))
    proc = run_cli_limited("group", "fixlattice", "--in", str(path))
    assert proc.returncode == 3 and proc.stdout == ""
    assert "capacity error (order_matrix)" in proc.stderr
    assert "147737 elements" in proc.stderr


@pytest.mark.parametrize("atoms", [10, 12])
def test_cli_automorphism_listing_cap(tmp_path, atoms):
    # M10 has 10! automorphisms of 12 elements and M12 12! of 14: the
    # group order is known from the transversals before the listing exists
    path = tmp_path / "diamond.json"
    path.write_text(serialize.canonical_json(
        serialize.lattice_to_obj(diamond_lattice(atoms))))
    proc = run_cli_limited("lattice", "automorphisms", "--in", str(path))
    assert proc.returncode == 3 and proc.stdout == ""
    assert "capacity error (automorphisms)" in proc.stderr


def test_cli_reconstruct_one_element_lattice(capsys, tmp_path):
    path = tmp_path / "point.json"
    path.write_text(json.dumps({"size": 1, "covers": []}))
    code, out, err = run_cli(capsys, "lattice", "reconstruct", "--in", str(path))
    assert code == 2 and out == ""
    assert "atom layer" in err and "degree" not in err


def test_cli_fixlattice_cap_inside_an_orbit(capsys, tmp_path, fano_group):
    path = tmp_path / "fano.json"
    path.write_text(serialize.canonical_json(serialize.group_to_obj(
        GroupAction.unlabeled(fano_group))))
    code, out, err = run_cli(capsys, "group", "fixlattice", "--in", str(path),
                             "--cap-lattice", "10")
    assert code == 3 and out == ""
    assert "capacity error (lattice)" in err
    code, out, _ = run_cli(capsys, "group", "fixlattice", "--in", str(path),
                           "--cap-lattice", "16")
    assert code == 0 and json.loads(out)["result"]["size"] == 16


@pytest.mark.parametrize("sub", ["validate", "automorphisms"])
def test_cli_lattice_input_capacity_exit_code(capsys, tmp_path, sub):
    path = tmp_path / "pg22.json"
    path.write_text(serialize.canonical_json(
        serialize.lattice_to_obj(subspace_lattice(2, 2))))
    code, out, err = run_cli(capsys, "lattice", sub, "--in", str(path),
                             "--cap-lattice", "10")
    assert code == 3 and out == ""
    assert "capacity error (lattice)" in err


def test_cli_verify_subset(capsys):
    code, out, err = run_cli(capsys, "verify", "--only", "stone")
    report = json.loads(out)
    assert code == 0
    assert report["result"]["run"] == 1
    assert report["result"]["checks"][0]["name"] == "stone-representation"
    assert "PASS stone-representation" in err


def test_cli_verify_report_is_canonical(capsys):
    # per-check seconds go to stderr only, so the JSON is the same bytes
    # on every run
    code, first, err = run_cli(capsys, "verify", "--only", "stone")
    assert code == 0 and "seconds\"" not in first
    assert "PASS stone-representation (" in err
    code, second, _ = run_cli(capsys, "verify", "--only", "stone")
    assert code == 0 and first == second


@pytest.mark.parametrize("only, name", [("cone", "cone-separation"),
                                        ("diamond", "diamond-reconstruction")])
def test_cli_verify_finite_scale_checks_pass(capsys, only, name):
    code, out, err = run_cli(capsys, "verify", "--only", only)
    result = json.loads(out)["result"]
    assert code == 0
    assert result["passed"] is True
    assert [c["name"] for c in result["checks"]] == [name]
    assert f"PASS {name}" in err


def test_cli_verify_negative_control(capsys):
    code, out, _ = run_cli(capsys, "verify", "--only", "steiner",
                           "--inject", "fano-block")
    assert code == 1
    assert json.loads(out)["result"]["failed"] == ["steiner-derivation"]


def test_cli_verify_worker_pool_matches_serial(capsys):
    code, out, _ = run_cli(capsys, "verify", "--only", "fano", "--workers", "2")
    parallel = json.loads(out)["result"]
    code, out, _ = run_cli(capsys, "verify", "--only", "fano")
    serial = json.loads(out)["result"]
    assert [c["name"] for c in parallel["checks"]] == \
        [c["name"] for c in serial["checks"]]
    assert [c["passed"] for c in parallel["checks"]] == \
        [c["passed"] for c in serial["checks"]]
    assert [c["subchecks"] for c in parallel["checks"]] == \
        [c["subchecks"] for c in serial["checks"]]
