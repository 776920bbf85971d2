import json

import pytest

from fixlat import serialize
from fixlat.cli import main
from fixlat.closure import enumerate_fixset_lattice
from fixlat.errors import ValidationError
from fixlat.geometry import subspace_lattice
from fixlat.group import GroupAction, PermutationGroup
from fixlat.relational import canonical_structure
from fixlat.steiner import steiner_from_projective


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


def test_cli_group_stab_and_orbits(capsys, group_file):
    code, out, _ = run_cli(capsys, "group", "stab", "--in", group_file,
                           "--points", "0")
    result = json.loads(out)["result"]
    assert code == 0
    assert result["order"] == 2
    assert result["fixed_points"] == [0, 3]
    code, out, _ = run_cli(capsys, "group", "orbits", "--in", group_file)
    assert json.loads(out)["result"]["orbits"] == [[0, 1, 2, 3, 4, 5]]


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


def test_cli_geometry(capsys):
    code, out, _ = run_cli(capsys, "geometry", "oracle-iso", "-p", "2", "-d", "2")
    assert code == 0 and json.loads(out)["result"]["isomorphic"] is True
    code, out, _ = run_cli(capsys, "geometry", "span", "-p", "2", "-d", "2",
                           "--points", "0,1")
    assert json.loads(out)["result"]["span"] == [0, 1, 2]
    code, out, _ = run_cli(capsys, "geometry", "pgl", "-p", "5", "-d", "1")
    assert json.loads(out)["result"]["order"] == 120


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
