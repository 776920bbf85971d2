"""Steiner systems, their constructions, derivation and Jordan analysis.

A Steiner k-system is a point set with equal-size blocks such that every
k-subset of points lies in exactly one block. Projective and affine
spaces over prime fields supply the worked examples; derivation turns a
k-system into a (k-1)-system by slicing through one point.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb
from typing import Iterable, Optional

from .closure import LATTICE_CAP, enumerate_fixset_lattice
from .errors import (CapacityError, InternalConsistencyError,
                     PreconditionError, ValidationError)
from .geometry import ProjectiveSpace, projective_point_count, projective_points
from .group import TUPLE_SPACE_CAP, PermutationGroup, _point_orbits
from .lattice import family_bijections
from .perm import mask_from_points, points_from_mask

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


def verify_steiner(sys: SteinerSystem) -> SteinerVerification:
    """Exhaustively check the defining properties; violations are data."""
    if sys.num_points > VERIFY_POINT_CAP:
        raise CapacityError(
            f"exhaustive verification capped at {VERIFY_POINT_CAP} points",
            cap_name="steiner_points")
    subsets = max(comb(sys.num_points, sys.k),
                  sum(comb(len(b), sys.k) for b in sys.blocks))
    if subsets > TUPLE_SPACE_CAP:
        raise CapacityError(
            f"{subsets} {sys.k}-subsets to check exceed cap {TUPLE_SPACE_CAP}",
            cap_name="tuple_space")
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


def _projective_lines(space: ProjectiveSpace) -> list[int]:
    """The line masks of a projective space, each found once.

    A line comes from its least point a and the least b on no line through
    a found so far; covered[x] is the union of the lines found through x,
    and it holds every point below a once a is reached.
    """
    n = space.num_points
    covered = [1 << x for x in range(n)]
    lines = []
    for a in range(n):
        rest = ((1 << n) - 1) & ~covered[a]
        while rest:
            b = (rest & -rest).bit_length() - 1
            line = space.line_mask(a, b)
            lines.append(line)
            for x in points_from_mask(line):
                covered[x] |= line
            rest &= ~line
    return lines


def steiner_from_projective(q: int, d: int) -> SteinerSystem:
    """Points and lines of PG(d, q): a Steiner 2-system with blocks of q+1."""
    if d < 2:
        raise ValidationError("need projective dimension at least 2")
    space = projective_points(q, d)
    n = space.num_points
    if comb(n, 2) > TUPLE_SPACE_CAP:
        raise CapacityError(f"{comb(n, 2)} point pairs exceed cap "
                            f"{TUPLE_SPACE_CAP}", cap_name="tuple_space")
    return make_system(2, n, map(points_from_mask, _projective_lines(space)))


def steiner_from_affine(q: int, d: int) -> SteinerSystem:
    """Points and lines of AG(d, q): a Steiner 2-system with blocks of q.

    AG(d, q) is PG(d, q) without the hyperplane x_0 = 0, whose points, those
    of PG(d-1, q), come first in the projective numbering; the affine points
    (1, a) follow in lexicographic order of a. So shifting a projective line
    right past the hyperplane gives an affine line, or 0 for a line inside
    the hyperplane.
    """
    if q == 2:
        raise ValidationError("binary affine lines have only 2 points; "
                              "blocks must be larger than 2")
    if d < 2:
        raise ValidationError("need affine dimension at least 2")
    space = projective_points(q, d)
    at_infinity = projective_point_count(q, d - 1)
    pairs = q**d * at_infinity
    if pairs > TUPLE_SPACE_CAP:
        raise CapacityError(f"{pairs} base-direction pairs exceed cap "
                            f"{TUPLE_SPACE_CAP}", cap_name="tuple_space")
    lines = (line >> at_infinity for line in _projective_lines(space))
    return make_system(2, q**d, map(points_from_mask, filter(None, lines)))


def steiner_from_affine_planes(d: int) -> SteinerSystem:
    """Planes of AG(d, 2): every 3 distinct binary points span a 4-point
    plane, so the planes form a Steiner 3-system on 2^d points (d >= 3).

    Points are numbered by their coordinates read as binary numbers, so the
    fourth point a + b + c of a plane is a ^ b ^ c. Each plane is built once,
    from its three least points a < b < c, the one triple with a ^ b ^ c > c.
    """
    if d < 3:
        raise ValidationError("need affine dimension at least 3 for planes")
    if d >= VERIFY_POINT_CAP.bit_length():  # 2^d > cap, 2^d not formed
        raise CapacityError(f"AG({d},2) has more points than verification cap "
                            f"{VERIFY_POINT_CAP}", cap_name="steiner_points")
    planes = [(a, b, c, a ^ b ^ c) for a, b, c in combinations(range(1 << d), 3)
              if a ^ b ^ c > c]
    sys = make_system(3, 1 << d, planes)
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
    input must verify as a Steiner system, and the result is verified to be
    a Steiner (k-1)-system before it is returned.
    """
    if sys.k < 3:
        raise PreconditionError("derivation needs k >= 3")
    if not (0 <= point < sys.num_points):
        raise ValidationError(f"point {point} out of range")
    check = verify_steiner(sys)
    if not check.valid:
        raise PreconditionError(
            f"derivation needs a Steiner system: {check.violations[0]}")
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


def steiner_isomorphism(a: SteinerSystem,
                        b: SteinerSystem) -> Optional[tuple[int, ...]]:
    """A point bijection mapping the blocks of a onto those of b, or None.

    It is the lexicographically first one, found by the set-family search
    that also lists lattice automorphisms.
    """
    if max(a.num_points, b.num_points) > VERIFY_POINT_CAP:
        raise CapacityError(
            f"isomorphism search capped at {VERIFY_POINT_CAP} points",
            cap_name="steiner_points")
    if (a.k != b.k or a.num_points != b.num_points
            or len(a.blocks) != len(b.blocks) or a.block_size != b.block_size):
        return None
    n = a.num_points
    found = family_bijections(n, {mask_from_points(blk, n) for blk in a.blocks},
                              {mask_from_points(blk, n) for blk in b.blocks},
                              first=True)
    return found[0] if found else None


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
    full = (1 << G.degree) - 1
    for mask in lattice.masks:
        if not mask or mask == full:
            continue
        orbits = tuple(map(points_from_mask, _point_orbits(
            full & ~mask, G._stabilizer(mask).gens)))
        entries.append(JordanEntry(
            fixset=points_from_mask(mask),
            complement_orbit_count=len(orbits),
            jordan=len(orbits) == 1,
            complement_orbits=orbits,
        ))
    return JordanReport(
        entries=tuple(entries),
        all_jordan=all(e.jordan for e in entries),
        transitivity_degree=G.transitivity_degree(min(k_max, G.degree)),
    )
