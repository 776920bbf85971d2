import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fixlat
from fixlat import exhaustive, lattice, relational, serialize
from fixlat.cli import build_parser, main
from fixlat.closure import enumerate_fixset_lattice
from fixlat.errors import ValidationError
from fixlat.geometry import pgl_generators, projective_points, subspace_lattice
from fixlat.group import PermutationGroup
from fixlat.lattice import (FiniteLattice, boolean_lattice, chain_lattice,
                            diamond_lattice, order_covers)
from fixlat.relational import dcl_vs_fixset_report
from fixlat.steiner import (derivation, make_system, steiner_from_affine,
                            steiner_from_affine_planes, steiner_from_projective)

from _oracles import lattice_obj


def test_group_roundtrip(d6):
    # a labelled file parses to the same group; the labels are not kept
    obj = dict(serialize.group_to_obj(d6), labels=list("abcdef"))
    back = serialize.group_from_obj(json.loads(json.dumps(obj)))
    assert back.equals(d6)
    assert serialize.group_to_obj(back) == serialize.group_to_obj(d6)


def test_group_accepts_cycle_strings():
    obj = {"degree": 5, "generators": ["(0 1 2 3 4)", [1, 0, 2, 3, 4]]}
    assert serialize.group_from_obj(obj).order() == 120


def test_group_rejects_bad_objects():
    with pytest.raises(ValidationError):
        serialize.group_from_obj({"generators": []})
    with pytest.raises(ValidationError):
        serialize.group_from_obj({"degree": 3, "generators": [[0, 0, 1]]})
    with pytest.raises(ValidationError, match="2 labels for degree 3"):
        serialize.group_from_obj({"degree": 3, "generators": [],
                                  "labels": ["a", "b"]})


def test_cli_rejects_wrong_length_labels(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"degree": 3, "generators": ["(0 1)"],
                                "labels": ["a", "b"]}))
    code, out, err = run_cli(capsys, "group", "order", "--in", str(path))
    assert code == 2 and out == ""
    assert err == "error: 2 labels for degree 3\n"


MALFORMED_INPUTS = [
    ("group order", {"degree": 3, "generators": 5}),
    ("group order", {"degree": 3, "generators": [None]}),
    ("group order", {"degree": 3, "generators": [], "labels": 7}),
    ("group order", {"degree": 2.5, "generators": []}),
    ("group order", {"degree": "3", "generators": []}),
    ("group order", {"degree": True, "generators": []}),
    ("group order", {"degree": 3, "generators": [[1, 2, 0.0]]}),
    ("group order", {"degree": 2, "generators": [[True, False]]}),
    ("group dclcheck", {"degree": 3, "generators": 5}),
    ("group dclcheck", {"degree": 3, "generators": [None]}),
    ("group dclcheck", {"degree": 3, "generators": [], "labels": 7}),
    ("lattice validate", {"size": 2.9, "covers": [[0, 1.7]]}),
    ("lattice validate", {"size": 2, "covers": [[0, 1.7]]}),
    ("lattice validate", {"size": "3", "covers": []}),
    ("lattice validate", {"size": 2, "covers": [[False, True]]}),
    ("lattice validate", {"size": 2, "covers": 1}),
    ("steiner verify", {"k": 2.0, "points": 7, "blocks": [[0, 1, 2]]}),
    ("steiner verify", {"k": "2", "points": 7, "blocks": [[0, 1, 2]]}),
    ("steiner verify", {"k": 2, "points": 7.5, "blocks": [[0, 1, 2]]}),
    ("steiner verify", {"k": 2, "points": "7", "blocks": [[0, 1, 2]]}),
    ("steiner verify", {"k": 2, "points": 7, "blocks": [[0, 1, 2.0]]}),
    ("steiner verify", {"k": 2, "points": 7, "blocks": 3}),
]


@pytest.mark.parametrize("command, obj", MALFORMED_INPUTS)
def test_cli_rejects_malformed_input(capsys, tmp_path, command, obj):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj))
    code, out, err = run_cli(capsys, *command.split(), "--in", str(path))
    assert code == 2 and out == ""
    assert err.startswith("error: bad ") and err.count("\n") == 1
    reader = {"group": serialize.group_from_obj,
              "lattice": serialize.raw_lattice_from_obj,
              "steiner": serialize.steiner_from_obj}[command.split()[0]]
    with pytest.raises(ValidationError):
        reader(obj)


def pg22_obj() -> dict:
    """The lattice input object of the 7-point plane's subspaces."""
    return lattice_obj(subspace_lattice(2, 2).to_finite_lattice())


def test_lattice_roundtrip():
    L = subspace_lattice(2, 2).to_finite_lattice()
    obj = json.loads(json.dumps(lattice_obj(L)))
    back = FiniteLattice(serialize.raw_lattice_from_obj(obj))
    assert back.size == L.size
    assert (back.leq == L.leq).all()


def test_fixset_lattice_roundtrip(d6):
    fl = enumerate_fixset_lattice(d6)
    obj = json.loads(json.dumps(serialize.fixset_lattice_to_obj(fl)))
    # the object is also valid lattice input (shared shape)
    as_lattice = FiniteLattice(serialize.raw_lattice_from_obj(obj))
    assert as_lattice.size == len(fl.elements)
    assert set(as_lattice.covers()) == set(fl.covers())


def test_steiner_roundtrip():
    sys = steiner_from_projective(2, 2)
    obj = serialize.steiner_to_obj(sys)
    back = serialize.steiner_from_obj(json.loads(json.dumps(obj)))
    assert back == sys


def test_dot_output():
    fl = subspace_lattice(2, 2)
    dot = serialize.covers_to_dot(len(fl), fl.covers())
    assert dot.startswith("digraph")
    assert dot.count("->") == len(fl.covers())


# -- CLI ---------------------------------------------------------------------


@pytest.fixture()
def group_file(tmp_path, d6):
    path = tmp_path / "d6.json"
    path.write_text(serialize.canonical_json(
        serialize.group_to_obj(d6)))
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


def test_cli_group_jordan_reads_k_max(capsys, tmp_path):
    path = tmp_path / "sym6.json"
    path.write_text(serialize.canonical_json(serialize.group_to_obj(
        PermutationGroup.symmetric(6))))
    degrees = {k: cli_result(capsys, "group", "jordan", "--in", str(path),
                             *(["--k-max", k] if k else []))["transitivity_degree"]
               for k in ("2", "4", None)}
    assert degrees == {"2": 2, "4": 4, None: 5}


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


def test_cli_group_transitivity_of_sym30(capsys, tmp_path):
    # the tuple-table route exited 3 here: 2 x 30^5 codes pass its cap
    path = tmp_path / "sym30.json"
    path.write_text(serialize.canonical_json(serialize.group_to_obj(
        PermutationGroup.symmetric(30))))
    result = cli_result(capsys, "group", "transitivity", "--in", str(path))
    assert result == {"k_max": 5, "transitivity_degree": 5}


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


# sha256 over "<exit code>\n<stdout>" of `group dclcheck --arity 3` on PGL(2,7),
# recorded when the report still built a dict for every disagreement
PGL27_DCLCHECK_DIGEST = \
    "2679189ba3a6c2a81f95fbea5f690beaea736471a2a42fbda02909a28a05497a"


def test_cli_dclcheck_builds_only_the_printed_disagreements(capsys, tmp_path,
                                                            monkeypatch):
    G = pgl_generators(7, 1)
    assert len(dcl_vs_fixset_report(G, 3).disagreements) == 218
    path = tmp_path / "pgl27.json"
    path.write_text(serialize.canonical_json(serialize.group_to_obj(G)))
    calls = []
    real = relational.points_from_mask

    def counted(mask):
        calls.append(mask)
        return real(mask)

    # each point-tuple dict is three points_from_mask calls
    monkeypatch.setattr(relational, "points_from_mask", counted)
    code, out, _ = run_cli(capsys, "group", "dclcheck", "--in", str(path),
                           "--arity", "3")
    assert len(calls) <= 3 * 32
    assert len(json.loads(out)["result"]["disagreements"]) == 32
    digest = hashlib.sha256(f"{code}\n{out}".encode()).hexdigest()
    assert digest == PGL27_DCLCHECK_DIGEST


def test_cli_fixlattice_and_formats(capsys, group_file):
    code, out, _ = run_cli(capsys, "group", "fixlattice", "--in", group_file)
    assert code == 0 and json.loads(out)["result"]["size"] == 5
    code, dot, _ = run_cli(capsys, "group", "fixlattice", "--in", group_file,
                           "--format", "dot")
    assert code == 0 and dot.startswith("digraph")
    code, out, err = run_cli(capsys, "group", "order", "--in", group_file,
                             "--format", "text")
    assert code == 2 and out == "" and "invalid choice: 'text'" in err


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


@pytest.mark.parametrize("argv, flag", [
    (["verify"], "--in"),
    (["derive", "--point", "1"], "--in"),
    (["autcheck"], "--in"),
    (["autcheck", "--in", "FANO"], "--group"),
])
def test_cli_steiner_missing_input_flag(capsys, tmp_path, argv, flag):
    fano = tmp_path / "fano.json"
    fano.write_text(json.dumps(serialize.steiner_to_obj(
        steiner_from_projective(2, 2))))
    argv = [str(fano) if a == "FANO" else a for a in argv]
    code, out, err = run_cli(capsys, "steiner", *argv)
    assert code == 2 and out == ""
    assert err == f"error: steiner {argv[0]} needs {flag}\n"


def test_cli_steiner_build_ag(capsys):
    result = cli_result(capsys, "steiner", "build-ag", "-q", "3", "-d", "2")
    assert result == json.loads(json.dumps(
        serialize.steiner_to_obj(steiner_from_affine(3, 2))))


def test_cli_steiner_derive(capsys, tmp_path):
    planes = steiner_from_affine_planes(3)
    path = tmp_path / "ag32.json"
    path.write_text(serialize.canonical_json(serialize.steiner_to_obj(planes)))
    result = cli_result(capsys, "steiner", "derive", "--in", str(path),
                        "--point", "5")
    assert result == json.loads(json.dumps(
        serialize.steiner_to_obj(derivation(planes, 5))))


def test_cli_steiner_derive_rejects_a_non_steiner_input(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(serialize.canonical_json(serialize.steiner_to_obj(
        make_system(3, 8, [(0, 1, 2, 3), (0, 4, 5, 6)]))))
    code, out, err = run_cli(capsys, "steiner", "derive", "--in", str(path),
                             "--point", "0")
    assert (code, out) == (2, "")
    assert err.startswith("error: derivation needs a Steiner system: ")


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


@pytest.mark.parametrize("sub", ["automorphisms", "reconstruct", "check-s"])
def test_cli_lattice_computes_covers_once(capsys, tmp_path, monkeypatch, sub):
    path = tmp_path / "pg22.json"
    path.write_text(json.dumps(pg22_obj()))
    calls = []

    def counted(leq):
        calls.append(leq.shape[0])
        return order_covers(leq)

    monkeypatch.setattr(lattice, "order_covers", counted)
    code, _, _ = run_cli(capsys, "lattice", sub, "--in", str(path))
    assert code == 0 and calls == [16]


def pinned_lattice_inputs():
    # the product of a 3-chain and a 4-chain, element 4x + y, relabelled
    perm = [7, 2, 10, 0, 5, 11, 3, 8, 1, 9, 6, 4]
    grid = ([[perm[e], perm[e + 4]] for e in range(8)]
            + [[perm[e], perm[e + 1]] for e in range(12) if e % 4 != 3])
    return {
        "grid": {"size": 12, "covers": grid},
        "pg22": pg22_obj(),
        "b4": lattice_obj(boolean_lattice(4)),
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


def pinned_command_inputs(tmp_path) -> dict:
    """Input files of the pinned group and Steiner commands, by name."""
    fano_blocks = serialize.steiner_to_obj(steiner_from_projective(2, 2))
    broken = dict(fano_blocks, blocks=[[0, 1, 3]] + list(fano_blocks["blocks"][1:]))
    objs = {
        "d6": serialize.group_to_obj(PermutationGroup.dihedral(6)),
        "fano": serialize.group_to_obj(pgl_generators(2, 2)),
        "pgl25": dict(serialize.group_to_obj(pgl_generators(5, 1)),
                      labels=list("abcdef")),
        "split": {"degree": 7, "generators": ["(0 1 2)", "(3 4)(5 6)"]},
        "s7": serialize.group_to_obj(PermutationGroup.symmetric(7)),
        "fano-system": fano_blocks,
        "broken-system": broken,
        "pg32-system": serialize.steiner_to_obj(steiner_from_projective(2, 3)),
        "ag32-planes": serialize.steiner_to_obj(steiner_from_affine_planes(3)),
    }
    paths = {}
    for name, obj in objs.items():
        paths[name] = str(tmp_path / f"{name}.json")
        Path(paths[name]).write_text(json.dumps(obj))
    return paths


def pinned_commands(paths: dict) -> dict:
    """Each pinned command line by name; none is covered by another pin."""
    commands = {}
    for g in ("d6", "fano", "pgl25", "split"):
        for sub, extra in [("orbits", []), ("order", []),
                           ("stab", ["--points", "0"]),
                           ("stab", ["--points", "0,1"]), ("stab", []),
                           ("transitivity", []),
                           ("transitivity", ["--k-max", "2"]),
                           ("primitivity", []), ("jordan", [])]:
            commands[" ".join(["group", sub, g, *extra])] = [
                "group", sub, "--in", paths[g], *extra]
    for sub, q, d in [("build-pg", 2, 2), ("build-pg", 3, 2), ("build-pg", 2, 3),
                      ("build-ag", 3, 2), ("build-ag", 2, 3), ("build-ag", 4, 2)]:
        commands[f"steiner {sub} {q} {d}"] = ["steiner", sub, "-q", str(q),
                                              "-d", str(d)]
    for system in ("fano-system", "broken-system", "pg32-system"):
        commands[f"steiner verify {system}"] = ["steiner", "verify", "--in",
                                                paths[system]]
    for system, point in [("ag32-planes", "5"), ("ag32-planes", "0"),
                          ("pg32-system", "0")]:
        commands[f"steiner derive {system} {point}"] = [
            "steiner", "derive", "--in", paths[system], "--point", point]
    for system, g in [("fano-system", "fano"), ("fano-system", "s7"),
                      ("broken-system", "fano")]:
        commands[f"steiner autcheck {system} {g}"] = [
            "steiner", "autcheck", "--in", paths[system], "--group", paths[g]]
    for sub, p, d, extra in [("points", 2, 2, []), ("points", 3, 2, []),
                             ("span", 2, 3, ["--points", "0,1,2"]),
                             ("span", 3, 2, ["--points", "4 9"]),
                             ("span", 3, 3, ["--points", "1,7,22"]),
                             ("span", 5, 2, ["--points", "2,13"]),
                             ("subspaces", 2, 2, []), ("subspaces", 3, 2, []),
                             ("subspaces", 2, 3, []),
                             ("subspaces", 2, 2, ["--format", "dot"]),
                             ("pgl", 2, 2, []), ("pgl", 3, 1, []),
                             ("oracle-iso", 2, 2, []), ("oracle-iso", 3, 2, [])]:
        commands[" ".join(["geometry", sub, str(p), str(d), *extra])] = [
            "geometry", sub, "-p", str(p), "-d", str(d), *extra]
    commands["verify fano"] = ["verify", "--only", "fano"]
    return commands


# sha256 over "<exit code>\n<stdout>" of each of pinned_commands, recorded
# before --workers and --format text were removed (the PG(3,3), PG(2,5) span
# and subspaces pins before spans became line closures)
COMMAND_DIGESTS = {
    "geometry oracle-iso 2 2":
        "5721fd37acf333cc3e6dc1342da265a94578cb3067976dd941ecea7c4fc3d00b",
    "geometry oracle-iso 3 2":
        "a7f018c1822389f101a7d76c55abc700b8a8c776b94ac9ec8960035af2bf1576",
    "geometry pgl 2 2":
        "09149dadc410e3b3ede3a160af3f2c57b78ecb8d05826b584c7d5aa7a6ff3097",
    "geometry pgl 3 1":
        "654bd0f96726cce64c04a4bd9c55b5f3d3f259e3dd7918ba83b8367eadc14ba4",
    "geometry points 2 2":
        "28bc323df93b9f03a7484a0ee54743af7b4cc4f4299f17833c45bac42a8b3ef9",
    "geometry points 3 2":
        "f30e2b0aa0f75d069cc38d35111d478be123413182cfe9d1c0094a6db277ce39",
    "geometry span 2 3 --points 0,1,2":
        "4c400b40f652a93c7f49cf9228480684a8ef7352dc2a4bc2528bbece366db24f",
    "geometry span 3 2 --points 4 9":
        "3833f40a78f74db6e8947f3fd2315b40840b306ac4c71b32e39e0b85df4ef2e9",
    "geometry span 3 3 --points 1,7,22":
        "648a78f674afed83db9948ae80823bfa3110f59d06a9d382c2a7b31673a762e4",
    "geometry span 5 2 --points 2,13":
        "9ac01c883f74b8b3d2e7110664b57d24b8a1e0a0e190d82186f016b8cd2d656e",
    "geometry subspaces 2 2":
        "dd15d2cdb3f107c691683c15f558be6e077ee1447d9190a70f75983a07713299",
    "geometry subspaces 2 2 --format dot":
        "3702ae9405e337c812d33161ff644dc2f82827177653f1be06b41efbc13febb8",
    "geometry subspaces 2 3":
        "78030511dd80261acd8f0bb307906d97db658cf1b0318359a4fdf01c910ede08",
    "geometry subspaces 3 2":
        "b431a3d117d14ad1293690f3eccc20791b9fbfc6edebf3eb8bab4801ce35a965",
    "group jordan d6":
        "5123e32a950626d7d40e60105b7045e3e65676c0bf74eadee56574067535128a",
    "group jordan fano":
        "d7b6ce0c56d35783ab1869630284a9150520af114abe23a216207c77795bfe1b",
    "group jordan pgl25":
        "6e052adc9c557334c53eba82d932529cec0e0f5f6d29855a83f297404f3cc19a",
    "group jordan split":
        "21f0f3422a76a2deff1dea89aba6abae13e4bdf2d5d4bb27118f6cd8cc2c5ace",
    "group orbits d6":
        "716f4b06aa1e706ec4a594d667682efd7e2a0a35940177af384943a991fde2a2",
    "group orbits fano":
        "67e3e7e9669d1c6d0fc508de406f9d07a787d6cb8b8cee5df0cdb47c37f5f3b6",
    "group orbits pgl25":
        "716f4b06aa1e706ec4a594d667682efd7e2a0a35940177af384943a991fde2a2",
    "group orbits split":
        "53b1f538ad7846c431a66a7b2ac00d7eae52b6c8150ed8f149056e15eaa5115d",
    "group order d6":
        "2a38fd520da49754893b312fb7d66af5e6dc0b158d822802488c2450e7fc88a6",
    "group order fano":
        "c221a9630725d2b3cfe42602aa3c9cad9af5835e45b98df280987e8ce0d53ae4",
    "group order pgl25":
        "f4d6f451eea067182322b5a1a46c5cd514bd046c7c2d141bfd5a1c3bba5fc078",
    "group order split":
        "4ebb985b89a81175c65b88ba8b023fb5b3429b1919c2b20ef9e814aa45c7b7ea",
    "group primitivity d6":
        "ac19c6617dcc5c63c2724a42aa55bf2a0d94e8d693e2edf1de8a732c1b689fb9",
    "group primitivity fano":
        "5cbdab43e4c6a672a62bf11ff99a466a1a957d8e00ac5f66a45a92a6e9114c5c",
    "group primitivity pgl25":
        "5cbdab43e4c6a672a62bf11ff99a466a1a957d8e00ac5f66a45a92a6e9114c5c",
    "group primitivity split":
        "53c234e5e8472b6ac51c1ae1cab3fe06fad053beb8ebfd8977b010655bfdd3c3",
    "group stab d6":
        "202302cfd1bc2bb132d45001f15af7c60bae03a8c30faf0a23fd95948c753b2e",
    "group stab d6 --points 0":
        "fb5e0ee501a78bd36a8b37a88a382d55a857a46fe77530d44a83dc32a34042e6",
    "group stab d6 --points 0,1":
        "8a17457bef99193b66e92a1b3563b245b897700feae88f4739ffc74f409cd2f4",
    "group stab fano":
        "12b83d3b2713876e85df3807d229d2497af04204a3cf5ea84b24c10555beb92d",
    "group stab fano --points 0":
        "0697a1b69d9bdc5af7447df57a0f3034b3d05c6075ca6053799f8c3df0888092",
    "group stab fano --points 0,1":
        "892e08351dd03a344ca7b960f854d39decf372201bfbdbcf5510c5ff421c490b",
    "group stab pgl25":
        "960922602b8b553cb5fae4909323dcda3c05785487478dd9fde21713071146bc",
    "group stab pgl25 --points 0":
        "1b71333ad9b065d1d3766ea72a15d5366c88d4b1f15181e37e1660a252d55de1",
    "group stab pgl25 --points 0,1":
        "efd38d0d170387ebc3be5425ce77fde6d4d651e8b92fb4956977ce5ef26f5232",
    "group stab split":
        "bf0f77ce0cb48ee5bdaac6e5910b6473ff77ed9f551b85f8752f4e0d949be994",
    "group stab split --points 0":
        "05719abb431bbfbf5a9014d4e3c58d4cbaa5677622ee6e55b062b2ac14b40b41",
    "group stab split --points 0,1":
        "a20a1746f95fff1d6d5df13a551a381587f56ac0dcec3fc974fc4d8dfbea2fd5",
    "group transitivity d6":
        "2359de28c25eef807f7239a4927182fd75181791ee8b56dabbbdf8eb4f130a65",
    "group transitivity d6 --k-max 2":
        "93fb25de4ede46d124e67f931559ec760e997669fb9323b3f15fd290cf3644cb",
    "group transitivity fano":
        "8fb6b41096dbdc682c6cd80670c5b88d9d5a7ad92af8123f152d4c98644078eb",
    "group transitivity fano --k-max 2":
        "614badebc605d91ed275facdf3a166b62c685a058810ccc5a31ac07f329d4d17",
    "group transitivity pgl25":
        "f47f02d29c19d207f44bbc41410db6a584d26a4f3f251ba7f8eb5dbed6e5dc05",
    "group transitivity pgl25 --k-max 2":
        "614badebc605d91ed275facdf3a166b62c685a058810ccc5a31ac07f329d4d17",
    "group transitivity split":
        "7dc84108c14c3089af3ab8a6d29ed027ddf6de632273c38eadef4b66211556a4",
    "group transitivity split --k-max 2":
        "9d48082f8dbe272389af53b7bbff9ad076c764c93e2e57776c57bb0a34667647",
    "steiner autcheck broken-system fano":
        "9f469e0e117d034e55ff8288a1bb0494196c1e41aa3a34623edddc2101136a3b",
    "steiner autcheck fano-system fano":
        "4fa81bbc1305719dbee4efdfd22278a6eaedd3a9430282686e2795177d7dbfa0",
    "steiner autcheck fano-system s7":
        "eff220d60f8792527bab5a63f907180c4348270ded472931fafebb8f95c7020e",
    "steiner build-ag 2 3":
        "53c234e5e8472b6ac51c1ae1cab3fe06fad053beb8ebfd8977b010655bfdd3c3",
    "steiner build-ag 3 2":
        "f7033deed451dfff45b3ec6dbcbc9a50ddebdde6af8d8c5bd5d4b50c84d668ac",
    "steiner build-ag 4 2":
        "53c234e5e8472b6ac51c1ae1cab3fe06fad053beb8ebfd8977b010655bfdd3c3",
    "steiner build-pg 2 2":
        "ea86ba39a3111e364646c21b5aba8e3ed9cbe5f63dae1849acfa3ec90959a9f0",
    "steiner build-pg 2 3":
        "63195e63745aab29005c7b8cbbc291507bf1f54e64fa374ff0244ed6cf203fa8",
    "steiner build-pg 3 2":
        "816b3c4faa61cf19ff134712a5083061977f4251448bf3163c8768c83c6ba85e",
    "steiner derive ag32-planes 0":
        "74ba73bd94214c1f6e685ef101df72913cb0515cb90b512ed63780a19a5f013a",
    "steiner derive ag32-planes 5":
        "6325d032d28882ac84ead26a4be7172cd7ef7bad556ad43894f7bc6fdb53e0c4",
    "steiner derive pg32-system 0":
        "53c234e5e8472b6ac51c1ae1cab3fe06fad053beb8ebfd8977b010655bfdd3c3",
    "steiner verify broken-system":
        "dfa26a2801480676c3899c2b9aad70a11f384a19b0c30723017c4f3a12f33980",
    "steiner verify fano-system":
        "6d8885a3b95fbfa023989b04699377a421b19b0a8422cf752e0173596e2a2176",
    "steiner verify pg32-system":
        "6d8885a3b95fbfa023989b04699377a421b19b0a8422cf752e0173596e2a2176",
    "verify fano":
        "e2b7574f23a04d23b5f23f98ea3d156570e46d2051bec2552fd9da59df999406",
}


def test_command_bytes_are_pinned(capsys, tmp_path):
    got = {}
    for name, argv in pinned_commands(pinned_command_inputs(tmp_path)).items():
        code, out, _ = run_cli(capsys, *argv)
        got[name] = hashlib.sha256(f"{code}\n{out}".encode()).hexdigest()
    assert got == COMMAND_DIGESTS


# every command without a DOT rendering, with its arguments; an argument
# naming one of pinned_command_inputs (or "pg22-lattice") is that file
NO_DOT_COMMANDS = {
    **{f"group {sub}": ["--in", "fano"]
       for sub in ("orbits", "order", "stab", "transitivity", "primitivity",
                   "jordan", "dclcheck")},
    "lattice validate": ["--in", "pg22-lattice"],
    "steiner build-pg": [],
    "steiner build-ag": ["-q", "3"],
    "steiner verify": ["--in", "fano-system"],
    "steiner derive": ["--in", "ag32-planes"],
    "steiner autcheck": ["--in", "fano-system", "--group", "fano"],
    "geometry points": [],
    "geometry span": ["--points", "0,1"],
    "geometry pgl": [],
    "geometry oracle-iso": [],
    "verify": ["--only", "fano-fixset"],
}


@pytest.mark.parametrize("command", sorted(NO_DOT_COMMANDS))
def test_cli_commands_without_dot_say_so(capsys, tmp_path, command):
    paths = pinned_command_inputs(tmp_path)
    paths["pg22-lattice"] = str(tmp_path / "pg22-lattice.json")
    Path(paths["pg22-lattice"]).write_text(json.dumps(pg22_obj()))
    argv = [*command.split(), *(paths.get(a, a) for a in NO_DOT_COMMANDS[command])]
    report = tmp_path / "report.dot"
    for out_args in ([], ["--out", str(report)]):
        code, out, err = run_cli(capsys, *argv, "--format", "dot", *out_args)
        assert code == 2 and out == ""
        # verify lists its checks on stderr before the report is written
        assert [line for line in err.splitlines() if line.startswith("error")] \
            == [f"error: {command} has no dot rendering"]
        assert not report.exists()


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
    fl = subspace_lattice(2, 2)
    assert result == {"size": len(fl),
                      "subspaces": [list(e) for e in fl.elements],
                      "covers": [list(c) for c in fl.covers()]}


@pytest.mark.parametrize("sub", ["subspaces", "oracle-iso"])
def test_cli_closed_set_families_build_no_finite_lattice(capsys, monkeypatch,
                                                          sub):
    calls = []
    real = FiniteLattice.__init__

    def counted(self, leq):
        calls.append(len(leq))
        real(self, leq)

    monkeypatch.setattr(FiniteLattice, "__init__", counted)
    code, _, _ = run_cli(capsys, "geometry", sub, "-p", "2", "-d", "3")
    assert code == 0 and calls == []
    chain_lattice(2)  # the counter sees a lattice being built
    assert calls == [2]


def test_cli_group_stab_reports_repeated_points_once(capsys, group_file):
    result = cli_result(capsys, "group", "stab", "--in", group_file,
                        "--points", "1,1")
    assert result["points"] == [1]
    assert result == cli_result(capsys, "group", "stab", "--in", group_file,
                                "--points", "1")


@pytest.mark.parametrize("points", ["7", "-1", "0,9"])
def test_cli_geometry_span_rejects_outside_points(capsys, points):
    code, out, err = run_cli(capsys, "geometry", "span", "-p", "2", "-d", "2",
                             "--points", points)
    assert code == 2 and out == ""
    assert "out of range 0..6" in err


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


@pytest.mark.parametrize("argv, says", [
    (["--version"], fixlat.__version__),
    (["verify", "--only", "stone-representation"], "PASS stone-representation"),
], ids=["version", "verify-only"])
def test_python_m_fixlat_runs_the_cli(argv, says):
    proc = subprocess.run([sys.executable, "-m", "fixlat", *argv],
                          env=child_env(), capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert says in proc.stdout + proc.stderr


def test_python_m_fixlat_verify_passes_every_check():
    proc = subprocess.run([sys.executable, "-m", "fixlat", "verify"],
                          env=child_env(), capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    summary = json.loads(proc.stdout)["result"]
    assert summary["run"] == 11
    assert summary["failed"] == []


@pytest.mark.parametrize("argv", [
    ["geometry", "points", "-p", "2", "-d", "100000000"],
    ["geometry", "subspaces", "-p", "2", "-d", "100000000"],
    ["steiner", "build-pg", "-q", "2", "-d", "100000000"],
    ["geometry", "points", "-p", "3", "-d", "2000000000"],
    ["steiner", "build-ag", "-q", "3", "-d", "100000000"],
    ["geometry", "points", "-p", "1000000000000000003", "-d", "1"],
    ["steiner", "build-pg", "-q", "1000000000000000003"],
    ["steiner", "build-ag", "-q", "1000000000000000003"],
], ids="-".join)
def test_hostile_geometry_sizes_exit_3_before_counting(argv):
    # neither the point count nor the primality of p is computed
    proc = subprocess.run([sys.executable, "-m", "fixlat", *argv],
                          env=child_env(), capture_output=True, text=True,
                          timeout=10)
    assert proc.returncode == 3, proc.stderr
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("capacity error (points): ")


def test_cli_points_of_the_largest_projective_line(tmp_path):
    # PG(1,99991) passes every cap with 99,992 points; the points are made
    # directly, not filtered out of all p^2 vectors
    out = tmp_path / "points.json"
    proc = subprocess.run([sys.executable, "-m", "fixlat", "geometry", "points",
                           "-p", "99991", "-d", "1", "--out", str(out)],
                          env=child_env(), capture_output=True, text=True,
                          timeout=30)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(out.read_text())["result"]
    assert result["count"] == len(result["points"]) == 99_992
    assert result["points"][:2] == [[0, 1], [1, 0]]


@pytest.mark.parametrize("argv, message", [
    (["subspaces", "-p", "2", "-d", "6"],
     "capacity error (order_matrix): order matrix of 29212 elements exceeds "
     "cap 8192"),
    (["subspaces", "-p", "2", "-d", "7"],
     "capacity error (lattice): closed-set lattice exceeds cap 200000"),
    (["subspaces", "-p", "2", "-d", "8"],
     "capacity error (lattice): closed-set lattice exceeds cap 200000"),
    (["oracle-iso", "-p", "2", "-d", "6"],
     "capacity error (order_matrix): order matrix of 29212 elements exceeds "
     "cap 8192"),
], ids=["subspaces-2-6", "subspaces-2-7", "subspaces-2-8", "oracle-iso-2-6"])
def test_cli_subspace_count_checked_before_the_walk(argv, message):
    # 29,212, 417,199 and 8,283,458 subspaces: walking them until a cap
    # fired took from 38 s to well over 5 minutes
    proc = subprocess.run([sys.executable, "-m", "fixlat.cli", "geometry", *argv],
                          env=child_env(), capture_output=True, text=True,
                          timeout=10)
    assert proc.returncode == 3 and proc.stdout == ""
    assert proc.stderr.splitlines() == [message]


def test_cli_error_exit_codes(capsys, tmp_path):
    code, _, err = run_cli(capsys, "group", "order", "--in", "missing.json")
    assert code == 2 and "no such file" in err
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    code, _, err = run_cli(capsys, "group", "order", "--in", str(bad))
    assert code == 2 and "line 1" in err
    code, _, _ = run_cli(capsys, "group", "bogus", "--in", str(bad))
    assert code == 2


@pytest.mark.parametrize("argv, says", [
    (["geometry", "points", "--out", "DIR/no/such/dir/x.json"], "cannot write"),
    (["group", "order", "--in", "DIR"], "cannot read"),
    (["group", "order", "--in", "DIR/bom.json"], "text"),
], ids=["out-in-missing-dir", "in-is-a-directory", "in-not-text"])
def test_cli_file_errors_exit_2_without_a_traceback(tmp_path, argv, says):
    (tmp_path / "bom.json").write_bytes(b"\xff\xfe")
    argv = [a.replace("DIR", str(tmp_path)) for a in argv]
    code, out, err = run_cli_fresh(*argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert says in err


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
    path.write_text(serialize.canonical_json(pg22_obj()))
    code, out, err = run_cli(capsys, "lattice", "reconstruct", "--in", str(path),
                             "--cap-lattice", "3")
    assert code == 3 and out == ""
    assert "capacity error (lattice)" in err


def test_cli_check_s_caps_the_lattice_but_lists_no_automorphisms(capsys, tmp_path):
    chain = tmp_path / "chain129.json"
    chain.write_text(serialize.canonical_json(lattice_obj(chain_lattice(129))))
    code, out, err = run_cli(capsys, "lattice", "check-s", "--in", str(chain))
    assert code == 3 and out == ""
    assert "capacity error (automorphisms)" in err
    # 3,628,800 automorphisms: listing them is past the cap, which
    # reconstruct still reports, but separation needs no listing
    m10 = tmp_path / "m10.json"
    m10.write_text(serialize.canonical_json(lattice_obj(diamond_lattice(10))))
    code, out, _ = run_cli(capsys, "lattice", "check-s", "--in", str(m10))
    assert code == 0
    assert json.loads(out)["result"] == {"holds": True, "witness": None}
    code, out, err = run_cli(capsys, "lattice", "reconstruct", "--in", str(m10))
    assert code == 3 and out == ""
    assert "capacity error (automorphisms)" in err


@pytest.mark.parametrize("command", [
    ["group", "fixlattice", "--in"], ["group", "jordan", "--in"],
    ["lattice", "reconstruct", "--in"], ["steiner", "build-pg"],
    ["geometry", "subspaces"], ["verify"]])
@pytest.mark.parametrize("cap", ["0", "-5"])
def test_cli_cap_lattice_below_one_is_a_usage_error(capsys, group_file, command,
                                                    cap):
    args = command + [group_file] * (command[-1] == "--in")
    code, out, err = run_cli(capsys, *args, "--cap-lattice", cap)
    assert code == 2 and out == ""
    assert "--cap-lattice: must be at least 1" in err


def test_cli_cap_lattice_of_one_still_parses(capsys, group_file):
    code, _, err = run_cli(capsys, "group", "fixlattice", "--in", group_file,
                           "--cap-lattice", "1")
    assert code == 3 and "capacity error (lattice)" in err


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
        pgl_generators(3, 3))))
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
        lattice_obj(diamond_lattice(atoms))))
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
        fano_group)))
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
    path.write_text(serialize.canonical_json(pg22_obj()))
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


@pytest.mark.parametrize("only", ["nosuchcheck", "stone-representation-x"])
def test_cli_verify_filter_matching_no_check_is_a_usage_error(capsys, only):
    code, out, err = run_cli(capsys, "verify", "--only", only)
    assert code == 2 and out == ""
    assert f"--only {only!r} matches no check" in err


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


def test_cli_verify_workers_flag_is_gone(capsys):
    code, out, err = run_cli(capsys, "verify", "--only", "fano", "--workers", "2")
    assert code == 2 and out == ""
    assert "unrecognized arguments: --workers 2" in err
