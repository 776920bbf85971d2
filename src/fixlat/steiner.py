"""Steiner systems, their constructions, derivation and Jordan analysis.

A Steiner k-system is a point set with equal-size blocks such that every
k-subset of points lies in exactly one block. Projective and affine
spaces over prime fields supply the worked examples; derivation turns a
k-system into a (k-1)-system by slicing through one point.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product
from math import comb
from typing import Iterable, Optional

from .closure import LATTICE_CAP, enumerate_fixset_lattice
from .errors import (InternalConsistencyError, PreconditionError,
                     ValidationError)
from .geometry import is_prime, projective_points, span_closure
from .group import PermutationGroup
from .lattice import family_bijections
from .perm import mask_from_points

VERIFY_POINT_CAP = 64


@dataclass(frozen=True)
class SteinerSystem:
    k: int
    num_points: int
    blocks: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.k < 2:
            raise ValidationError("a Steiner system needs k >= 2")
        for b in self.blocks:
            for x in b:
                if not (0 <= x < self.num_points):
                    raise ValidationError(f"block point {x} out of range")

    @property
    def block_size(self) -> int:
        return len(self.blocks[0]) if self.blocks else 0


def make_system(k: int, num_points: int, blocks: Iterable[Iterable[int]]) -> SteinerSystem:
    return SteinerSystem(k, num_points,
                         tuple(sorted(tuple(sorted(b)) for b in blocks)))


@dataclass(frozen=True)
class SteinerVerification:
    valid: bool
    violations: tuple[dict, ...]


def verify_steiner(sys: SteinerSystem,
                   point_cap: int = VERIFY_POINT_CAP) -> SteinerVerification:
    """Exhaustively check the defining properties; violations are data."""
    if sys.num_points > point_cap:
        raise ValidationError(
            f"exhaustive verification capped at {point_cap} points")
    violations = []
    sizes = {len(b) for b in sys.blocks}
    if len(sizes) > 1:
        violations.append({"kind": "unequal-block-sizes", "sizes": sorted(sizes)})
        return SteinerVerification(False, tuple(violations))
    bsize = sys.block_size
    if bsize <= sys.k:
        violations.append({"kind": "block-size-too-small", "block_size": bsize})
    if sys.num_points <= bsize:
        violations.append({"kind": "too-few-points", "points": sys.num_points})
    coverage: dict[tuple[int, ...], int] = {}
    for b in sys.blocks:
        for sub in combinations(b, sys.k):
            coverage[sub] = coverage.get(sub, 0) + 1
    for sub in combinations(range(sys.num_points), sys.k):
        cnt = coverage.get(sub, 0)
        if cnt != 1:
            violations.append({"kind": "uncovered" if cnt == 0 else "multiply-covered",
                               "subset": sub, "count": cnt})
    return SteinerVerification(not violations, tuple(violations))


def counting_identity_holds(sys: SteinerSystem) -> bool:
    """b * C(block_size, 2) == C(n, 2), true for every Steiner 2-system."""
    return len(sys.blocks) * comb(sys.block_size, 2) == comb(sys.num_points, 2)


# ---------------------------------------------------------------------------
# constructions


def steiner_from_projective(q: int, d: int) -> SteinerSystem:
    """Points and lines of PG(d, q): a Steiner 2-system with blocks of q+1."""
    if not is_prime(q):
        raise ValidationError(f"field size {q} is not prime")
    if d < 2:
        raise ValidationError("need projective dimension at least 2")
    space = projective_points(q, d)
    lines = {span_closure(space, pair)
             for pair in combinations(range(space.num_points), 2)}
    return make_system(2, space.num_points, lines)


def _affine_points(q: int, d: int) -> list[tuple[int, ...]]:
    return list(product(range(q), repeat=d))


def _affine_directions(q: int, d: int) -> list[tuple[int, ...]]:
    dirs = []
    for v in product(range(q), repeat=d):
        for x in v:
            if x:
                if x == 1:
                    dirs.append(v)
                break
    return dirs


def steiner_from_affine(q: int, d: int) -> SteinerSystem:
    """Points and lines of AG(d, q): a Steiner 2-system with blocks of q."""
    if not is_prime(q):
        raise ValidationError(f"field size {q} is not prime")
    if q < 3:
        raise ValidationError("binary affine lines have only 2 points; "
                              "blocks must be larger than 2")
    if d < 2:
        raise ValidationError("need affine dimension at least 2")
    pts = _affine_points(q, d)
    idx = {v: i for i, v in enumerate(pts)}
    blocks = set()
    for base in pts:
        for v in _affine_directions(q, d):
            line = tuple(sorted(idx[tuple((b + t * c) % q for b, c in zip(base, v))]
                                for t in range(q)))
            blocks.add(line)
    return make_system(2, len(pts), blocks)


def steiner_from_affine_planes(d: int) -> SteinerSystem:
    """Planes of AG(d, 2): every 3 distinct binary points span a 4-point
    plane, so the planes form a Steiner 3-system on 2^d points (d >= 3)."""
    if d < 3:
        raise ValidationError("need affine dimension at least 3 for planes")
    pts = _affine_points(2, d)
    idx = {v: i for i, v in enumerate(pts)}
    planes = set()
    for a, b, c in combinations(pts, 3):
        fourth = tuple((x + y + z) % 2 for x, y, z in zip(a, b, c))
        planes.add(tuple(sorted((idx[a], idx[b], idx[c], idx[fourth]))))
    sys = make_system(3, len(pts), planes)
    check = verify_steiner(sys)
    if not check.valid:
        raise InternalConsistencyError(
            f"affine plane construction failed verification: {check.violations[0]}")
    return sys


# ---------------------------------------------------------------------------
# derivation


def derivation(sys: SteinerSystem, point: int) -> SteinerSystem:
    """Slice through a point: blocks through it, minus it, on the rest.

    Remaining points are renumbered order-preservingly to 0..n-2. The
    result is verified to be a Steiner (k-1)-system before it is returned.
    """
    if sys.k < 3:
        raise PreconditionError("derivation needs k >= 3")
    if not (0 <= point < sys.num_points):
        raise ValidationError(f"point {point} out of range")
    renumber = {old: old - (old > point) for old in range(sys.num_points)
                if old != point}
    blocks = [tuple(sorted(renumber[x] for x in b if x != point))
              for b in sys.blocks if point in b]
    derived = make_system(sys.k - 1, sys.num_points - 1, blocks)
    check = verify_steiner(derived)
    if not check.valid:
        raise InternalConsistencyError(
            f"derived system is not Steiner: {check.violations[0]}")
    return derived


# ---------------------------------------------------------------------------
# automorphisms and isomorphism


@dataclass(frozen=True)
class BlockPreservationResult:
    preserves: bool
    violation: Optional[dict]

    def __bool__(self) -> bool:
        return self.preserves


def steiner_automorphism_check(sys: SteinerSystem,
                               G: PermutationGroup) -> BlockPreservationResult:
    """Does every generator map blocks to blocks?"""
    if G.degree != sys.num_points:
        raise ValidationError(
            f"group degree {G.degree} != system points {sys.num_points}")
    block_set = set(sys.blocks)
    for gi, g in enumerate(G.generators):
        for b in sys.blocks:
            image = tuple(sorted(g(x) for x in b))
            if image not in block_set:
                return BlockPreservationResult(
                    False, {"generator": gi, "block": b, "image": image})
    return BlockPreservationResult(True, None)


def steiner_isomorphism(a: SteinerSystem, b: SteinerSystem,
                        point_cap: int = VERIFY_POINT_CAP
                        ) -> Optional[tuple[int, ...]]:
    """A point bijection mapping the blocks of a onto those of b, or None.

    It is the lexicographically first one, found by the set-family search
    that also lists lattice automorphisms.
    """
    if a.num_points > point_cap or b.num_points > point_cap:
        raise ValidationError(f"isomorphism search capped at {point_cap} points")
    if (a.k != b.k or a.num_points != b.num_points
            or len(a.blocks) != len(b.blocks) or a.block_size != b.block_size):
        return None
    n = a.num_points
    found = family_bijections(n, {mask_from_points(blk, n) for blk in a.blocks},
                              {mask_from_points(blk, n) for blk in b.blocks},
                              first=True)
    return found[0] if found else None


def blocks_pointwise_stabilized(sys: SteinerSystem, G: PermutationGroup) -> bool:
    """Does pointwise stabilization of k block points fix the block pointwise?

    Checked for every block on its first k points. True for all the
    binary projective systems and every affine line system; reported per
    system rather than assumed.
    """
    if G.degree != sys.num_points:
        raise ValidationError("group degree does not match system")
    from .closure import fixset_closure
    for b in sys.blocks:
        closed = set(fixset_closure(G, b[:sys.k]).points)
        if not set(b) <= closed:
            return False
    return True


# ---------------------------------------------------------------------------
# Jordan analysis of an action


@dataclass(frozen=True)
class JordanEntry:
    fixset: tuple[int, ...]
    complement_orbit_count: int
    jordan: bool
    complement_orbits: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class JordanReport:
    """Per-fixset transitivity of stabilizers on complements.

    ``all_jordan`` is true when the pointwise stabilizer of every proper
    non-empty fixset is transitive on the fixset's complement; the
    transitivity degree of the whole action rides along for the standard
    cross-check against block structure.
    """

    entries: tuple[JordanEntry, ...]
    all_jordan: bool
    transitivity_degree: int

    def first_witness(self) -> Optional[JordanEntry]:
        return next((e for e in self.entries if not e.jordan), None)


def jordan_report(G: PermutationGroup, k_max: int = 5,
                  lattice_cap: int = LATTICE_CAP) -> JordanReport:
    lattice = enumerate_fixset_lattice(G, cap=lattice_cap)
    entries = []
    domain = set(range(G.degree))
    for pts in lattice.elements:
        if not pts or len(pts) == G.degree:
            continue
        H = G.pointwise_stabilizer(pts)
        complement = domain - set(pts)
        orbits = tuple(o for o in H.orbits() if o[0] in complement)
        entries.append(JordanEntry(
            fixset=pts,
            complement_orbit_count=len(orbits),
            jordan=len(orbits) == 1,
            complement_orbits=orbits,
        ))
    return JordanReport(
        entries=tuple(entries),
        all_jordan=all(e.jordan for e in entries),
        transitivity_degree=G.transitivity_degree(min(k_max, G.degree)),
    )
