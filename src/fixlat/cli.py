"""Command-line front end.

One process, one command. JSON is the stable output surface (canonical
bytes for a given config and seed); text is a human-oriented rendering
and may change; dot emits Hasse diagrams for lattice-shaped results.
Timings go to stderr so reports stay reproducible byte for byte.

Exit codes: 0 success, 1 check failure, 2 usage or parse error,
3 capacity exceeded.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass

from . import __version__, closure, exhaustive, geometry, lattice, relational
from . import serialize, steiner, verify as verify_mod
from .errors import CapacityError, FixlatError, ValidationError

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_CAPACITY = 3


@dataclass
class RunConfig:
    cap_lattice: int = closure.LATTICE_CAP
    cap_order: int = exhaustive.ORDER_CAP
    arity: int = 3
    workers: int = 1
    seed: int = 0
    out_format: str = "json"

    def as_dict(self) -> dict:
        return {
            "cap_lattice": self.cap_lattice,
            "cap_order": self.cap_order,
            "arity": self.arity,
            "workers": self.workers,
            "format": self.out_format,
        }


def _parse_points(text: str) -> list[int]:
    try:
        return [int(p) for p in text.replace(",", " ").split()]
    except ValueError as exc:
        raise ValidationError(f"bad point list {text!r}") from exc


def _load_json(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError as exc:
        raise ValidationError(f"no such file: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ValidationError(
            f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}") from exc


def _emit(args, cfg: RunConfig, command: str, result: dict,
          dot: str | None = None, text: str | None = None) -> None:
    if cfg.out_format == "dot":
        if dot is None:
            raise ValidationError(f"{command} has no dot rendering")
        payload = dot
    elif cfg.out_format == "text":
        payload = text if text is not None else json.dumps(result, indent=2) + "\n"
    else:
        payload = serialize.canonical_json({
            "tool": "fixlat",
            "version": __version__,
            "command": command,
            "config": cfg.as_dict(),
            "seed": cfg.seed,
            "result": result,
        })
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)


# -- group subcommands ---------------------------------------------------------


def cmd_group(args, cfg: RunConfig) -> int:
    action = serialize.group_from_obj(_load_json(args.infile))
    G = action.group
    sub = args.subcommand
    if sub == "orbits":
        result = {"orbits": [list(o) for o in G.orbits()]}
    elif sub == "order":
        result = {"order": G.order()}
    elif sub == "stab":
        pts = _parse_points(args.points)
        H = G.pointwise_stabilizer(pts)
        result = {
            "points": sorted(pts),
            "order": H.order(),
            "generators": [list(g.images) for g in H.generators],
            "fixed_points": list(closure.fixed_points(H)),
        }
    elif sub == "transitivity":
        result = {"k_max": args.k_max,
                  "transitivity_degree": G.transitivity_degree(args.k_max)}
    elif sub == "primitivity":
        res = G.primitivity()
        result = {"primitive": res.primitive,
                  "block_system": ([list(b) for b in res.block_system]
                                   if res.block_system else None)}
    elif sub == "fixlattice":
        fl = closure.enumerate_fixset_lattice(G, cap=cfg.cap_lattice)
        result = {"size": len(fl), **serialize.fixset_lattice_to_obj(fl)}
        dot = serialize.covers_to_dot(len(fl), result["covers"],
                                      labels=[",".join(map(str, e)) or "{}"
                                              for e in fl.elements])
        _emit(args, cfg, f"group {sub}", result, dot=dot)
        return EXIT_OK
    elif sub == "jordan":
        rep = steiner.jordan_report(G, lattice_cap=cfg.cap_lattice)
        witness = rep.first_witness()
        result = {
            "all_jordan": rep.all_jordan,
            "transitivity_degree": rep.transitivity_degree,
            "witness": ({"fixset": list(witness.fixset),
                         "complement_orbits": [list(o) for o in
                                               witness.complement_orbits]}
                        if witness else None),
            "entries": [{"fixset": list(e.fixset),
                         "complement_orbit_count": e.complement_orbit_count,
                         "jordan": e.jordan} for e in rep.entries],
        }
    elif sub == "dclcheck":
        rep = relational.dcl_vs_fixset_report(G, max_arity=cfg.arity,
                                              seed=cfg.seed)
        result = {
            "max_arity": rep.max_arity,
            "subsets_tested": rep.subsets_tested,
            "agreements": rep.agreements,
            "agreement_rate": rep.agreement_rate,
            "sufficient_arity": rep.sufficient_arity,
            "sound": rep.sound,
            "disagreements": [{k: list(v) for k, v in d.items()}
                              for d in rep.disagreements[:32]],
        }
    else:  # pragma: no cover - argparse restricts choices
        raise ValidationError(f"unknown group subcommand {sub}")
    _emit(args, cfg, f"group {sub}", result)
    return EXIT_OK


# -- lattice subcommands ---------------------------------------------------------


def cmd_lattice(args, cfg: RunConfig) -> int:
    size, leq = serialize.raw_lattice_from_obj(_load_json(args.infile),
                                               cap=cfg.cap_lattice)
    sub = args.subcommand
    if sub == "validate":
        res = lattice.lattice_validate(size, leq)
        result = {"valid": res.ok,
                  "violations": [dict(v, pair=list(v["pair"]))
                                 if "pair" in v else dict(v)
                                 for v in res.violations]}
        _emit(args, cfg, "lattice validate", result)
        return EXIT_OK if res.ok else EXIT_CHECK_FAILED
    L = lattice.FiniteLattice(leq)
    if sub == "automorphisms":
        A = lattice.lattice_automorphisms(L)
        result = {"order": A.order(),
                  "generators": [list(g.images) for g in A.generators]}
    elif sub == "check-s":
        sep = lattice.stabilizer_separation(L)
        result = {"holds": sep.holds,
                  "witness": list(sep.witness) if sep.witness else None}
    elif sub == "reconstruct":
        r = lattice.reconstruct(L, cap=cfg.cap_lattice)
        result = {
            "closure_trivial": r.closure_trivial,
            "image_size": r.image_size,
            "fixset_lattice_size": len(r.fixset_lattice),
            "embedding": [list(e) for e in r.embedding],
            "iso": [list(e) for e in r.iso] if r.iso else None,
            "fixset_lattice": serialize.fixset_lattice_to_obj(r.fixset_lattice),
            "atom_action": serialize.group_to_obj(r.atom_action),
        }
    elif sub == "stone":
        rep = lattice.stone_ultrafilters(L)
        result = {
            "ultrafilters": [list(u) for u in rep.ultrafilters],
            "element_map": [list(m) for m in rep.element_map],
            "injective": rep.injective,
        }
    else:  # pragma: no cover
        raise ValidationError(f"unknown lattice subcommand {sub}")
    dot = serialize.covers_to_dot(L.size, L.covers())
    _emit(args, cfg, f"lattice {sub}", result, dot=dot)
    return EXIT_OK


# -- steiner subcommands -----------------------------------------------------------


def cmd_steiner(args, cfg: RunConfig) -> int:
    sub = args.subcommand
    if sub == "build-pg":
        sys_ = steiner.steiner_from_projective(args.q, args.d)
        _emit(args, cfg, "steiner build-pg", serialize.steiner_to_obj(sys_))
        return EXIT_OK
    if sub == "build-ag":
        sys_ = steiner.steiner_from_affine(args.q, args.d)
        _emit(args, cfg, "steiner build-ag", serialize.steiner_to_obj(sys_))
        return EXIT_OK
    sys_ = serialize.steiner_from_obj(_load_json(args.infile))
    if sub == "verify":
        rep = steiner.verify_steiner(sys_)
        result = {"valid": rep.valid,
                  "violations": [dict(v, subset=list(v["subset"]))
                                 if "subset" in v else dict(v)
                                 for v in rep.violations[:32]]}
        _emit(args, cfg, "steiner verify", result)
        return EXIT_OK if rep.valid else EXIT_CHECK_FAILED
    if sub == "derive":
        derived = steiner.derivation(sys_, args.point)
        _emit(args, cfg, "steiner derive", serialize.steiner_to_obj(derived))
        return EXIT_OK
    if sub == "autcheck":
        action = serialize.group_from_obj(_load_json(args.group))
        res = steiner.steiner_automorphism_check(sys_, action.group)
        result = {"preserves_blocks": res.preserves,
                  "violation": ({"generator": res.violation["generator"],
                                 "block": list(res.violation["block"]),
                                 "image": list(res.violation["image"])}
                                if res.violation else None)}
        _emit(args, cfg, "steiner autcheck", result)
        return EXIT_OK
    raise ValidationError(f"unknown steiner subcommand {sub}")  # pragma: no cover


# -- geometry subcommands -------------------------------------------------------------


def cmd_geometry(args, cfg: RunConfig) -> int:
    sub = args.subcommand
    p, d = args.p, args.d
    if sub == "points":
        space = geometry.projective_points(p, d)
        result = {"count": space.num_points,
                  "points": [list(v) for v in space.points]}
    elif sub == "span":
        space = geometry.projective_points(p, d)
        pts = _parse_points(args.points)
        result = {"points": sorted(pts),
                  "span": list(geometry.span_closure(space, pts))}
    elif sub == "pgl":
        G = geometry.pgl_generators(p, d)
        result = {"degree": G.degree, "order": G.order(),
                  "generators": [list(g.images) for g in G.generators]}
    elif sub == "subspaces":
        L = geometry.subspace_lattice(p, d, cap=cfg.cap_lattice)
        result = {"size": L.size,
                  "subspaces": [list(s) for s in L.labels],
                  "covers": [list(c) for c in L.covers()]}
        dot = serialize.covers_to_dot(
            L.size, result["covers"],
            labels=[",".join(map(str, s)) or "{}" for s in L.labels])
        _emit(args, cfg, "geometry subspaces", result, dot=dot)
        return EXIT_OK
    elif sub == "oracle-iso":
        result = {"p": p, "d": d, "isomorphic": geometry.oracle_iso_check(
            p, d, cap=cfg.cap_lattice)}
    else:  # pragma: no cover
        raise ValidationError(f"unknown geometry subcommand {sub}")
    _emit(args, cfg, f"geometry {sub}", result)
    return EXIT_OK


# -- verify ---------------------------------------------------------------------------


def cmd_verify(args, cfg: RunConfig) -> int:
    start = time.perf_counter()
    summary = verify_mod.run_checks(only=args.only, fail_fast=args.fail_fast,
                                    workers=cfg.workers, inject=args.inject)
    wall = time.perf_counter() - start
    lines = []
    for chk in summary["checks"]:
        status = "PASS" if chk["passed"] else "FAIL"
        lines.append(f"{status} {chk['name']} ({chk['seconds']}s)")
        sys.stderr.write(lines[-1] + "\n")
    sys.stderr.write(f"total {wall:.1f}s, {summary['run']} checks, "
                     f"failed: {summary['failed'] or 'none'}\n")
    _emit(args, cfg, "verify", summary,
          text="\n".join(lines) + "\n")
    return EXIT_OK if summary["passed"] else EXIT_CHECK_FAILED


# -- parser ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fixlat",
        description="Fixed-point set lattices of finite permutation actions")
    parser.add_argument("--version", action="version", version=__version__)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", help="write the report here instead of stdout")
    common.add_argument("--format", default="json",
                        choices=["json", "dot", "text"])
    common.add_argument("--workers", type=int, default=1)
    common.add_argument("--cap-lattice", type=int, default=closure.LATTICE_CAP)
    common.add_argument("--cap-order", type=int, default=exhaustive.ORDER_CAP)
    common.add_argument("--arity", type=int, default=3)
    common.add_argument("--seed", type=int, default=0)

    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("group", parents=[common], help="permutation group reports")
    g.add_argument("subcommand", choices=[
        "orbits", "stab", "order", "transitivity", "primitivity",
        "fixlattice", "jordan", "dclcheck"])
    g.add_argument("--in", dest="infile", required=True)
    g.add_argument("--points", default="", help="for stab: e.g. '0,1'")
    g.add_argument("--k-max", type=int, default=5)
    g.set_defaults(fn=cmd_group)

    l = sub.add_parser("lattice", parents=[common], help="finite lattice reports")
    l.add_argument("subcommand", choices=[
        "validate", "automorphisms", "check-s", "reconstruct", "stone"])
    l.add_argument("--in", dest="infile", required=True)
    l.set_defaults(fn=cmd_lattice)

    s = sub.add_parser("steiner", parents=[common], help="Steiner system tools")
    s.add_argument("subcommand", choices=[
        "build-pg", "build-ag", "verify", "derive", "autcheck"])
    s.add_argument("--in", dest="infile")
    s.add_argument("--group", help="group JSON for autcheck")
    s.add_argument("--point", type=int, default=0)
    s.add_argument("-q", type=int, default=2)
    s.add_argument("-d", type=int, default=2)
    s.set_defaults(fn=cmd_steiner)

    geo = sub.add_parser("geometry", parents=[common],
                         help="projective geometry tools")
    geo.add_argument("subcommand", choices=[
        "points", "span", "pgl", "subspaces", "oracle-iso"])
    geo.add_argument("-p", type=int, default=2)
    geo.add_argument("-d", type=int, default=2)
    geo.add_argument("--points", default="")
    geo.set_defaults(fn=cmd_geometry)

    v = sub.add_parser("verify", parents=[common],
                       help="run the full verification pipeline")
    v.add_argument("--only", help="substring filter on check names")
    v.add_argument("--fail-fast", action="store_true")
    v.add_argument("--inject", choices=["fano-block"],
                   help="negative control: corrupt a known-good input")
    v.set_defaults(fn=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    cfg = RunConfig(cap_lattice=args.cap_lattice, cap_order=args.cap_order,
                    arity=args.arity, workers=args.workers, seed=args.seed,
                    out_format=args.format)
    try:
        return args.fn(args, cfg)
    except CapacityError as exc:
        sys.stderr.write(f"capacity error ({exc.cap_name}): {exc}\n")
        return EXIT_CAPACITY
    except FixlatError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
