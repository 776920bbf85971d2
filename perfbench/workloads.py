"""Seeded job batches for the three workloads, with an oracle per job.

Each workload is a fixed list of job shapes (which group, lattice or
system, at which size). The seed draws everything else: random point or
element relabellings, random generating sets, random subgroup elements
and the dclcheck sampling seed. Keeping the shapes fixed keeps the work
per batch close to constant across seeds, so runs with different seeds
measure the same thing.

Every job carries a check that compares the program's output with an
answer computed here without fixlat (see oracles.py), and the input
properties a later claim may want to cite.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from itertools import combinations
from math import factorial
from pathlib import Path
from typing import Callable, Optional

import oracles as o

WORKLOADS = ("fixlattice", "reconstruct", "dclcheck")

# (p, d) of PG(d, p) acted on by PGL(d+1, p). Each is generated by two
# seeded random matrices, so these jobs are also the subgroups generated by
# two random elements (a random pair generates the whole group). PG(1,23)
# is left out: at about 1 s it would be the largest job of the batch.
# PG(1,11) comes in seven relabelled copies and PG(1,13) in six, so that
# the median and the tail rank each fall inside a group of like jobs (see
# NOTES.md).
FIXLATTICE_PGL = ([(2, 1), (3, 1), (5, 1), (7, 1)] + [(11, 1)] * 7 + [(13, 1)] * 6
                  + [(17, 1), (19, 1), (2, 2), (3, 2), (2, 3)])
FIXLATTICE_SYM = [5, 6, 7, 8]
FIXLATTICE_ALT = [5, 6, 7, 8]
# (p, d, subgroups): cyclic subgroups of PGL(d+1, p), each generated by one
# seeded random element
FIXLATTICE_CYCLIC = [(2, 3, 3), (3, 2, 3)]
FIXLATTICE_PRODUCTS = [("product", ("pgl", 2, 2), ("pgl", 2, 2)),
                       ("product", ("pgl", 2, 2), ("sym", 4)),
                       ("product", ("pgl", 5, 1), ("sym", 3))]

# M7 `lattice automorphisms` comes in seven relabelled copies (six with
# `lattice reconstruct`), so that the tail rank falls in the middle of
# them, and M6 `lattice automorphisms` in six, so that the median does.
RECONSTRUCT_LATTICES = ([("pg", 2, 2)] * 2
                        + [("diamond", n) for n in range(3, 7)] + [("diamond", 7)] * 6
                        + [("boolean", k) for k in range(2, 6)])
RECONSTRUCT_AUT_ONLY = [("diamond", 6)] * 5 + [("diamond", 7)]
# (affine dimension of the S(3,4,2^d) system, derived slices per batch)
RECONSTRUCT_STEINER = [(3, 4), (4, 2)]
# `lattice validate` on grids and `geometry subspaces` of PG(d, p), as (p, d):
# the meet/join tables built and thrown away, and the span enumerator. The
# four smallest grids sit below the median and balance the costlier jobs
# above it.
RECONSTRUCT_GRIDS = [(3, 3), (3, 4), (4, 4), (3, 5), (5, 5), (6, 6), (4, 7)]
RECONSTRUCT_SUBSPACES = [(2, 2), (3, 2), (2, 3)]

# (group shape, arity); Sym(8) comes twice and Alt(8) three times, so that
# the tail rank and the median each fall among several jobs of like cost
DCL_JOBS = ([(("pgl", 2, 2), a) for a in (3, 4)]
            + [(("pgl", 5, 1), a) for a in (3, 4)]
            + [(("pgl", 7, 1), a) for a in (3, 4)]
            + [(("sym", n), a) for n in (6, 7, 8, 8) for a in (3, 4)]
            + [(("alt", n), a) for n in (6, 7, 8, 8, 8, 9) for a in (3, 4)]
            + [(("product", ("sym", 3), ("sym", 4)), a) for a in (3, 4)]
            + [(("product", ("pgl", 5, 1), ("sym", 3)), a) for a in (3, 4)]
            + [(("pgl", 3, 2), a) for a in (3, 4)]
            + [(("pgl", 2, 3), 3), (("pgl", 13, 1), 3)])


@dataclass
class Job:
    id: str
    kind: str                  # "cli" or "steiner_iso"
    argv: list[str]
    inputs: list[str]
    out: str
    props: dict
    check: Callable[[int, Optional[bytes], str], Optional[str]]
    expect_rc: int = 0

    def manifest(self) -> dict:
        return {"id": self.id, "kind": self.kind, "argv": self.argv,
                "inputs": self.inputs, "out": self.out}


@dataclass
class Group:
    degree: int
    gens: list
    oracle: o.ClosureOracle
    name: str
    relabelling: Optional[list[int]] = None


# -- groups ----------------------------------------------------------------------


def _pgl(rng: random.Random, p: int, d: int) -> Group:
    """PGL(d+1, p) on PG(d, p) from two random matrices that generate it."""
    pts = o.projective_points(p, d)
    n = d + 1
    want = o.pgl_order(p, d)
    while True:
        mats = []
        while len(mats) < 2:
            m = [[rng.randrange(p) for _ in range(n)] for _ in range(n)]
            if o.rank_mod_p(m, p) == n:
                mats.append(m)
        pi = o.random_perm(rng, len(pts))
        gens = o.relabel([o.matrix_action(pts, m, p) for m in mats], pi)
        oracle = o.ClosureOracle("elements", len(pts), gens=gens)
        if oracle.order == want:
            return Group(len(pts), gens, oracle, f"PGL({n},{p})", pi)


def _sym_alt(rng: random.Random, kind: str, n: int) -> Group:
    if kind == "sym":
        gens = [tuple([1, 0] + list(range(2, n))), tuple(list(range(1, n)) + [0])]
        name = f"Sym({n})"
    else:
        three = tuple([1, 2, 0] + list(range(3, n)))
        other = (tuple(list(range(1, n)) + [0]) if n % 2
                 else tuple([0] + list(range(2, n)) + [1]))
        gens = [three, other]
        name = f"Alt({n})"
    gens = o.relabel(gens, o.random_perm(rng, n))
    rng.shuffle(gens)
    return Group(n, gens, o.ClosureOracle(kind, n), name)


def _shape(rng: random.Random, shape) -> Group:
    if shape[0] == "pgl":
        return _pgl(rng, shape[1], shape[2])
    if shape[0] in ("sym", "alt"):
        return _sym_alt(rng, shape[0], shape[1])
    return _product(rng, _shape(rng, shape[1]), _shape(rng, shape[2]))


def _product(rng: random.Random, a: Group, b: Group) -> Group:
    """Direct product on the disjoint union, then relabelled as a whole."""
    n = a.degree + b.degree
    gens = [tuple(g) + tuple(range(a.degree, n)) for g in a.gens]
    gens += [tuple(range(a.degree)) + tuple(a.degree + x for x in g) for g in b.gens]
    pi = o.random_perm(rng, n)
    oracle = o.ClosureOracle("product", n, factors=(a.oracle, b.oracle),
                             offsets=(0, a.degree), relabelling=pi)
    return Group(n, o.relabel(gens, pi), oracle, f"{a.name}x{b.name}")


def _cyclic_subgroup(rng: random.Random, base: Group, elems) -> Group:
    """Subgroup generated by one random element of the base group."""
    gens = [tuple(int(x) for x in elems[rng.randrange(len(elems))])]
    oracle = o.ClosureOracle("elements", base.degree, gens=gens)
    return Group(base.degree, gens, oracle, f"<random element of {base.name}>")


def _group_props(G: Group) -> dict:
    orbs = o.orbits(G.degree, G.gens)
    return {"group": G.name, "degree": G.degree, "order": G.oracle.order,
            "orbits": len(orbs), "transitive": len(orbs) == 1}


# -- lattices ----------------------------------------------------------------------


def _lattice(shape) -> tuple[int, list[list[int]], dict]:
    """Size, cover pairs and properties of a stock lattice, unrelabelled."""
    kind = shape[0]
    if kind == "pg":
        p, d = shape[1], shape[2]
        sets = o.sorted_family(o.subspaces(p, d))
        size, covers = len(sets), o.cover_pairs(sets)
        aut, atoms = o.pgl_order(p, d), len(o.projective_points(p, d))
        name = f"subspaces PG({d},{p})"
    elif kind == "diamond":
        n = shape[1]
        size = n + 2
        covers = [[0, a] for a in range(1, n + 1)] + [[a, n + 1] for a in range(1, n + 1)]
        aut, atoms, name = factorial(n), n, f"M{n}"
    elif kind == "boolean":
        k = shape[1]
        size = 1 << k
        covers = [[m, m | 1 << b] for m in range(size) for b in range(k)
                  if not m >> b & 1]
        aut, atoms, name = factorial(k), k, f"2^{k}"
    else:
        a, b = shape[1], shape[2]
        size = a * b
        covers = ([[i * b + j, (i + 1) * b + j] for i in range(a - 1) for j in range(b)]
                  + [[i * b + j, i * b + j + 1] for i in range(a) for j in range(b - 1)])
        aut = 2 if a == b else 1
        atoms, name = 2, f"grid{a}x{b}"
    return size, covers, {"lattice": name, "lattice_size": size, "atoms": atoms,
                          "aut": aut}


def _relabel_covers(rng: random.Random, size: int, covers):
    pi = o.random_perm(rng, size)
    out = [[pi[i], pi[j]] for i, j in covers]
    rng.shuffle(out)
    return out


# -- checks ----------------------------------------------------------------------------


def _result(rc: int, data: Optional[bytes]):
    if rc != 0:
        raise CheckFailed(f"exit code {rc}")
    if data is None:
        raise CheckFailed("no output written")
    return json.loads(data)["result"]


class CheckFailed(Exception):
    pass


def _checked(fn):
    """Turn a check that raises CheckFailed into one that returns the reason."""
    def check(rc, data, err):
        try:
            fn(rc, data, err)
        except CheckFailed as exc:
            return str(exc)
        except (ValueError, KeyError, TypeError) as exc:
            return f"malformed output: {exc!r}"
        return None
    return check


def _require(cond: bool, what: str):
    if not cond:
        raise CheckFailed(what)


def check_fixlattice(G: Group, elements: list[list[int]], covers):
    def fn(rc, data, err):
        res = _result(rc, data)
        _require(res["degree"] == G.degree, "degree differs")
        _require(res["size"] == len(elements),
                 f"{res['size']} fixsets, expected {len(elements)}")
        _require(res["elements"] == elements, "fixset family differs")
        _require(sorted(res["covers"]) == covers, "cover relation differs")
    return _checked(fn)


def check_automorphisms(size: int, covers, order: int):
    def fn(rc, data, err):
        res = _result(rc, data)
        _require(res["order"] == order, f"|Aut| {res['order']}, expected {order}")
        gens = [tuple(g) for g in res["generators"]]
        for g in gens:
            _require(sorted(g) == list(range(size)), "generator is not a bijection")
            _require(o.preserves_covers(g, covers), "generator breaks the order")
        got = len(o.enumerate_elements(size, gens)) if gens else 1
        _require(got == order, f"generators give a group of order {got}")
    return _checked(fn)


def check_reconstruct(size: int, expected: Optional[dict]):
    def fn(rc, data, err):
        if expected is None:
            # finite-scale boundary: separation fails, reported with a witness
            _require(rc == 2, f"exit code {rc}, expected 2")
            _require("separated cone stabilizers" in err and "witness" in err,
                     "missing separation witness")
            return
        res = _result(rc, data)
        for key, val in expected.items():
            _require(res[key] == val, f"{key} {res[key]}, expected {val}")
        _require(len(res["embedding"]) == size
                 and len({tuple(e) for e in res["embedding"]}) == size,
                 "embedding is not injective")
    return _checked(fn)


def check_steiner_iso(blocks_a, blocks_b, n: int):
    def fn(rc, data, err):
        _require(rc == 0, f"exit code {rc}")
        iso = json.loads(data)["isomorphism"]
        _require(o.steiner_iso_ok(iso, blocks_a, blocks_b, n),
                 "not an isomorphism of the block systems")
    return _checked(fn)


def check_valid_lattice():
    def fn(rc, data, err):
        res = _result(rc, data)
        _require(res == {"valid": True, "violations": []}, "lattice reported invalid")
    return _checked(fn)


def check_subspaces(p: int, d: int):
    sets = o.sorted_family(o.subspaces(p, d))
    covers = o.cover_pairs(sets)
    count = o.subspace_count(p, d)

    def fn(rc, data, err):
        res = _result(rc, data)
        _require(res["size"] == count == len(sets),
                 f"{res['size']} subspaces, Gaussian binomials give {count}")
        _require(res["subspaces"] == sets, "subspace family differs")
        _require(sorted(res["covers"]) == covers, "cover relation differs")
    return _checked(fn)


def check_dcl(expected: dict):
    def fn(rc, data, err):
        res = _result(rc, data)
        for key, val in expected.items():
            _require(res[key] == val, f"{key} differs from the oracle")
    return _checked(fn)


# -- batches -----------------------------------------------------------------------------


class Batch:
    def __init__(self, workload: str, seed: int, workdir: Path):
        self.rng = random.Random(f"{workload}:{seed}")
        self.indir = workdir / "in"
        self.outdir = workdir / "out"
        self.indir.mkdir(parents=True, exist_ok=True)
        self.outdir.mkdir(parents=True, exist_ok=True)
        self.jobs: list[Job] = []

    def _write(self, name: str, obj) -> str:
        path = self.indir / f"{len(self.jobs):03d}-{name}.json"
        path.write_text(json.dumps(obj))
        return str(path)

    def add(self, name, kind, argv, inputs, props, check, expect_rc=0):
        jid = f"{len(self.jobs):03d}-{name}"
        self.jobs.append(Job(jid, kind, argv, inputs, str(self.outdir / f"{jid}.json"),
                             props, check, expect_rc))

    def group_file(self, name: str, G: Group) -> str:
        return self._write(name, {"degree": G.degree,
                                  "generators": [list(g) for g in G.gens]})


def _fixlattice_job(b: Batch, G: Group, family: Optional[set] = None):
    fam = G.oracle.family() if family is None else family
    elements = o.sorted_family(fam)
    covers = o.cover_pairs(elements)
    atoms = sum(1 for i, _ in covers if i == 0)
    path = b.group_file("group", G)
    b.add("fixlattice", "cli", ["group", "fixlattice", "--in", path], [path],
          {**_group_props(G), "lattice_size": len(elements), "atoms": atoms},
          check_fixlattice(G, elements, covers))


def build_fixlattice(b: Batch):
    rng = b.rng
    for p, d in FIXLATTICE_PGL:
        G = _pgl(rng, p, d)
        family = None
        if p == 2:
            # over GF(2) the fixsets of PGL are exactly the projective subspaces
            family = {o.points_mask(G.relabelling[x] for x in o.mask_points(m))
                      for m in o.subspaces(p, d)}
        _fixlattice_job(b, G, family)
    for n in FIXLATTICE_SYM:
        _fixlattice_job(b, _sym_alt(rng, "sym", n))
    for n in FIXLATTICE_ALT:
        _fixlattice_job(b, _sym_alt(rng, "alt", n))
    for p, d, count in FIXLATTICE_CYCLIC:
        base = _pgl(rng, p, d)
        elems = o.enumerate_elements(base.degree, base.gens)
        for _ in range(count):
            _fixlattice_job(b, _cyclic_subgroup(rng, base, elems))
    for shape in FIXLATTICE_PRODUCTS:
        _fixlattice_job(b, _shape(rng, shape))


def _lattice_jobs(b: Batch, shape, reconstruct: bool = True):
    size, covers, props = _lattice(shape)
    covers = _relabel_covers(b.rng, size, covers)
    path = b._write(props["lattice"].replace(" ", "-"), {"size": size, "covers": covers})
    b.add("automorphisms", "cli", ["lattice", "automorphisms", "--in", path], [path],
          props, check_automorphisms(size, covers, props["aut"]))
    if not reconstruct:
        return
    kind = shape[0]
    if kind == "boolean":
        expected, rc = None, 2
    elif kind == "diamond":
        n = shape[1]
        expected = {"closure_trivial": n + 2 == 2**n - n, "image_size": n + 2,
                    "fixset_lattice_size": 2**n - n}
        rc = 0
    else:
        expected = {"closure_trivial": True, "image_size": size,
                    "fixset_lattice_size": size}
        rc = 0
    b.add("reconstruct", "cli", ["lattice", "reconstruct", "--in", path], [path],
          props, check_reconstruct(size, expected), expect_rc=rc)


def _steiner_planes(d: int) -> list[tuple[int, ...]]:
    """Planes of AG(d, 2): the Steiner system S(3, 4, 2^d)."""
    planes = set()
    for a, b_, c in combinations(range(1 << d), 3):
        planes.add(tuple(sorted((a, b_, c, a ^ b_ ^ c))))
    return sorted(planes)


def _derive(blocks, n: int, x: int):
    ren = {old: old - (old > x) for old in range(n) if old != x}
    return [tuple(sorted(ren[y] for y in blk if y != x)) for blk in blocks if x in blk]


def _pg_lines(d: int) -> list[tuple[int, ...]]:
    lines = {m for m in o.subspaces(2, d) if m.bit_count() == 3}
    return [tuple(o.mask_points(m)) for m in sorted(lines)]


def _relabel_blocks(rng, blocks, n):
    pi = o.random_perm(rng, n)
    out = [sorted(pi[x] for x in blk) for blk in blocks]
    rng.shuffle(out)
    return out


def build_reconstruct(b: Batch):
    for shape in RECONSTRUCT_LATTICES:
        _lattice_jobs(b, shape)
    for shape in RECONSTRUCT_AUT_ONLY:
        _lattice_jobs(b, shape, reconstruct=False)
    rng = b.rng
    for d, slices in RECONSTRUCT_STEINER:
        n = 1 << d
        planes = _steiner_planes(d)
        target = _pg_lines(d - 1)
        for x in rng.sample(range(n), slices):
            sa = _relabel_blocks(rng, _derive(planes, n, x), n - 1)
            sb = _relabel_blocks(rng, target, n - 1)
            pa = b._write("slice", {"k": 2, "points": n - 1, "blocks": sa})
            pb = b._write("pg-lines", {"k": 2, "points": n - 1, "blocks": sb})
            b.add("steiner-iso", "steiner_iso", [], [pa, pb],
                  {"steiner_points": n - 1, "blocks": len(sa)},
                  check_steiner_iso(sa, sb, n - 1))
    _table_and_span_jobs(b)


def _table_and_span_jobs(b: Batch):
    for a, c in RECONSTRUCT_GRIDS:
        size, covers, props = _lattice(("grid", a, c))
        covers = _relabel_covers(b.rng, size, covers)
        path = b._write(props["lattice"], {"size": size, "covers": covers})
        b.add("validate", "cli", ["lattice", "validate", "--in", path], [path],
              props, check_valid_lattice())
    for p, d in RECONSTRUCT_SUBSPACES:
        b.add("subspaces", "cli", ["geometry", "subspaces", "-p", str(p), "-d", str(d)],
              [], {"lattice": f"subspaces PG({d},{p})",
                   "lattice_size": o.subspace_count(p, d),
                   "atoms": len(o.projective_points(p, d))},
              check_subspaces(p, d))


def build_dclcheck(b: Batch):
    rng = b.rng
    for shape, arity in DCL_JOBS:
        G = _shape(rng, shape)
        cli_seed = rng.randrange(1 << 31)
        expected = o.dcl_report(G.oracle, G.degree, arity, cli_seed)
        path = b.group_file("group", G)
        props = {**_group_props(G), "arity": arity,
                 "subsets": expected["subsets_tested"]}
        b.add(f"dclcheck-a{arity}", "cli",
              ["group", "dclcheck", "--in", path, "--arity", str(arity),
               "--seed", str(cli_seed)], [path], props, check_dcl(expected))


BUILDERS = {"fixlattice": build_fixlattice, "reconstruct": build_reconstruct,
            "dclcheck": build_dclcheck}


def build(workload: str, seed: int, workdir: Path) -> list[Job]:
    b = Batch(workload, seed, workdir)
    BUILDERS[workload](b)
    return b.jobs
