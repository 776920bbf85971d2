"""Command-line front end.

One process may serve many ``main()`` calls; they share one parser, built
on the first call (not at import), so the ``--cap-lattice`` default is
``closure.LATTICE_CAP`` as read at that first call. JSON is the stable
output surface (canonical bytes for a given config and seed); dot emits
Hasse diagrams for lattice-shaped results. Each ``cmd_*`` returns
``(result, dot, exit code)``, its result built from the library's values
as they are, and ``main`` writes the report once. Timings go to stderr so
reports stay reproducible byte for byte.

Exit codes: 0 success, 1 check failure, 2 usage or parse error,
3 capacity exceeded.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time

from . import __version__, closure, exhaustive, geometry, lattice, relational
from . import serialize, steiner, verify as verify_mod
from .errors import CapacityError, FixlatError, ValidationError
from .perm import mask_from_points, points_from_mask

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_CAPACITY = 3


def _parse_points(text: str) -> list[int]:
    try:
        return [int(p) for p in text.replace(",", " ").split()]
    except ValueError as exc:
        raise ValidationError(f"bad point list {text!r}") from exc


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _load_json(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError as exc:
        raise ValidationError(f"no such file: {path}") from exc
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path}: not {exc.encoding} text") from exc
    except json.JSONDecodeError as exc:
        raise ValidationError(
            f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}") from exc


def _config(args) -> dict:
    """The report's config block. Its order-cap and workers entries are
    constants (``exhaustive.ORDER_CAP`` and 1), kept so that reports keep
    their bytes."""
    return {
        "cap_lattice": args.cap_lattice,
        "cap_order": exhaustive.ORDER_CAP,
        "arity": args.arity,
        "workers": 1,
        "format": args.format,
    }


def _emit(args, command: str, result: dict, dot: str | None) -> None:
    if args.format == "dot":
        if dot is None:
            raise ValidationError(f"{command} has no dot rendering")
        payload = dot
    else:
        payload = serialize.canonical_json({
            "tool": "fixlat",
            "version": __version__,
            "command": command,
            "config": _config(args),
            "seed": args.seed,
            "result": result,
        })
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(payload)
        except OSError as exc:
            raise ValidationError(f"cannot write {args.out}: {exc.strerror}") from exc
    else:
        sys.stdout.write(payload)


def _closed_sets_dot(elements, covers) -> str:
    """Hasse diagram of a family of point sets, each labelled by its points."""
    return serialize.covers_to_dot(
        len(elements), covers, labels=[",".join(map(str, e)) or "{}"
                                       for e in elements])


# -- group subcommands ---------------------------------------------------------


def cmd_group(args) -> tuple:
    G = serialize.group_from_obj(_load_json(args.infile))
    sub = args.subcommand
    dot = None
    if sub == "orbits":
        result = {"orbits": G.orbits()}
    elif sub == "order":
        result = {"order": G.order()}
    elif sub == "stab":
        pts = _parse_points(args.points)
        H = G.pointwise_stabilizer(pts)
        fixed = closure.closure_mask(G, mask_from_points(pts, G.degree))
        result = {
            "points": sorted(set(pts)),
            "order": H.order(),
            "generators": [g.images for g in H.generators],
            "fixed_points": points_from_mask(fixed),
        }
    elif sub == "transitivity":
        result = {"k_max": args.k_max,
                  "transitivity_degree": G.transitivity_degree(args.k_max)}
    elif sub == "primitivity":
        res = G.primitivity()
        result = {"primitive": res.primitive, "block_system": res.block_system}
    elif sub == "fixlattice":
        fl = closure.enumerate_fixset_lattice(G, cap=args.cap_lattice)
        result = serialize.fixset_lattice_to_obj(fl)
        dot = _closed_sets_dot(fl.elements, result["covers"])
    elif sub == "jordan":
        rep = steiner.jordan_report(G, args.k_max, lattice_cap=args.cap_lattice)
        witness = rep.first_witness()
        result = {
            "all_jordan": rep.all_jordan,
            "transitivity_degree": rep.transitivity_degree,
            "witness": ({"fixset": witness.fixset,
                         "complement_orbits": witness.complement_orbits}
                        if witness else None),
            "entries": [{"fixset": e.fixset,
                         "complement_orbit_count": e.complement_orbit_count,
                         "jordan": e.jordan} for e in rep.entries],
        }
    else:  # dclcheck
        rep = relational.dcl_vs_fixset_report(G, max_arity=args.arity,
                                              seed=args.seed)
        result = {
            "max_arity": rep.max_arity,
            "subsets_tested": rep.subsets_tested,
            "agreements": rep.agreements,
            "agreement_rate": rep.agreement_rate,
            "sufficient_arity": rep.sufficient_arity,
            "sound": rep.sound,
            "disagreements": rep.first_disagreements(32),
        }
    return result, dot, EXIT_OK


# -- lattice subcommands ---------------------------------------------------------


def cmd_lattice(args) -> tuple:
    leq = serialize.raw_lattice_from_obj(_load_json(args.infile),
                                         cap=args.cap_lattice)
    sub = args.subcommand
    if sub == "validate":
        violations = lattice.order_violations(leq)
        return ({"valid": not violations, "violations": violations}, None,
                EXIT_CHECK_FAILED if violations else EXIT_OK)
    L = lattice.FiniteLattice(leq)
    if sub == "automorphisms":
        A = lattice.lattice_automorphisms(L)
        result = {"order": A.order(),
                  "generators": [g.images for g in A.generators]}
    elif sub == "check-s":
        sep = lattice.stabilizer_separation(L)
        result = {"holds": sep.holds, "witness": sep.witness}
    elif sub == "reconstruct":
        r = lattice.reconstruct(L, cap=args.cap_lattice)
        result = {
            "closure_trivial": r.closure_trivial,
            "image_size": r.image_size,
            "fixset_lattice_size": len(r.fixset_lattice),
            "embedding": r.embedding,
            "iso": r.iso,
            "fixset_lattice": serialize.fixset_lattice_to_obj(r.fixset_lattice),
            "atom_action": dict(serialize.group_to_obj(r.atom_group),
                                labels=[str(a) for a in r.atoms]),
        }
    else:  # stone
        rep = lattice.stone_ultrafilters(L)
        result = {"ultrafilters": rep.ultrafilters,
                  "element_map": rep.element_map,
                  "injective": rep.injective}
    return result, serialize.covers_to_dot(L.size, L.covers()), EXIT_OK


# -- steiner subcommands -----------------------------------------------------------


def cmd_steiner(args) -> tuple:
    sub = args.subcommand
    if sub == "build-pg":
        return serialize.steiner_to_obj(
            steiner.steiner_from_projective(args.q, args.d)), None, EXIT_OK
    if sub == "build-ag":
        return serialize.steiner_to_obj(
            steiner.steiner_from_affine(args.q, args.d)), None, EXIT_OK
    if args.infile is None:
        raise ValidationError(f"steiner {sub} needs --in")
    sys_ = serialize.steiner_from_obj(_load_json(args.infile))
    if sub == "verify":
        rep = steiner.verify_steiner(sys_)
        return ({"valid": rep.valid, "violations": rep.violations[:32]}, None,
                EXIT_OK if rep.valid else EXIT_CHECK_FAILED)
    if sub == "derive":
        return serialize.steiner_to_obj(
            steiner.derivation(sys_, args.point)), None, EXIT_OK
    # autcheck
    if args.group is None:
        raise ValidationError("steiner autcheck needs --group")
    res = steiner.steiner_automorphism_check(
        sys_, serialize.group_from_obj(_load_json(args.group)))
    return {"preserves_blocks": res.preserves,
            "violation": res.violation}, None, EXIT_OK


# -- geometry subcommands -------------------------------------------------------------


def cmd_geometry(args) -> tuple:
    sub = args.subcommand
    p, d = args.p, args.d
    dot = None
    if sub == "points":
        space = geometry.projective_points(p, d)
        result = {"count": space.num_points, "points": space.points}
    elif sub == "span":
        space = geometry.projective_points(p, d)
        pts = _parse_points(args.points)
        span = geometry.span_closure(space, mask_from_points(pts, space.num_points))
        result = {"points": sorted(set(pts)), "span": points_from_mask(span)}
    elif sub == "pgl":
        G = geometry.pgl_generators(p, d)
        result = {"degree": G.degree, "order": G.order(),
                  "generators": [g.images for g in G.generators]}
    elif sub == "subspaces":
        fl = geometry.subspace_lattice(p, d, cap=args.cap_lattice)
        result = {"size": len(fl), "subspaces": fl.elements, "covers": fl.covers()}
        dot = _closed_sets_dot(fl.elements, result["covers"])
    else:  # oracle-iso
        result = {"p": p, "d": d, "isomorphic": geometry.oracle_iso_check(
            p, d, cap=args.cap_lattice)}
    return result, dot, EXIT_OK


# -- verify ---------------------------------------------------------------------------


def cmd_verify(args) -> tuple:
    start = time.perf_counter()
    summary, seconds = verify_mod.run_checks(
        only=args.only, fail_fast=args.fail_fast, inject=args.inject)
    wall = time.perf_counter() - start
    for chk, secs in zip(summary["checks"], seconds):
        status = "PASS" if chk["passed"] else "FAIL"
        sys.stderr.write(f"{status} {chk['name']} ({secs}s)\n")
    sys.stderr.write(f"total {wall:.1f}s, {summary['run']} checks, "
                     f"failed: {summary['failed'] or 'none'}\n")
    return summary, None, EXIT_OK if summary["passed"] else EXIT_CHECK_FAILED


# -- parser ---------------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fixlat",
        description="Fixed-point set lattices of finite permutation actions")
    parser.add_argument("--version", action="version", version=__version__)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", help="write the report here instead of stdout")
    common.add_argument("--format", default="json", choices=["json", "dot"])
    common.add_argument("--cap-lattice", type=_positive_int,
                        default=closure.LATTICE_CAP)
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
    command = (args.command if args.command == "verify"
               else f"{args.command} {args.subcommand}")
    try:
        result, dot, code = args.fn(args)
        _emit(args, command, result, dot)
        return code
    except CapacityError as exc:
        sys.stderr.write(f"capacity error ({exc.cap_name}): {exc}\n")
        return EXIT_CAPACITY
    except FixlatError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
