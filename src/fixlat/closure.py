"""The fixed-point closure operator of a permutation action and its lattice.

Pointwise stabilization sends a point set S to the set of points fixed by
every element of its stabilizer. That map is a closure operator; its
closed sets ("fixsets") form a complete lattice in which meet is
intersection and join is the closure of the union. Point sets travel as
bit masks internally and as sorted tuples at the API.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional, Union

from .errors import CapacityError, InternalConsistencyError, PreconditionError
from .group import PermutationGroup
from .lattice import LATTICE_CAP, FiniteLattice, containment_order, order_covers
from .perm import mask_from_points, points_from_mask

PointsLike = Union["FixSet", Iterable[int]]


@dataclass(frozen=True)
class FixSet:
    """A closed point set of a specific group action."""

    group: PermutationGroup
    points: tuple[int, ...]

    @property
    def mask(self) -> int:
        return mask_from_points(self.points, self.group.degree)

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self):
        return iter(self.points)


def _as_mask(G: PermutationGroup, pts: PointsLike) -> int:
    if isinstance(pts, FixSet):
        return pts.mask
    return mask_from_points(pts, G.degree)


def _fixed_mask(degree: int, gens: Iterable[tuple[int, ...]]) -> int:
    """Mask of the points fixed by every image tuple in gens."""
    fixed = (1 << degree) - 1
    for g in gens:
        m = 0
        for i, j in enumerate(g):
            if i == j:
                m |= 1 << i
        fixed &= m
        if not fixed:
            break
    return fixed


def fixed_points(H: PermutationGroup) -> tuple[int, ...]:
    """Points fixed by every element of H (the generators suffice)."""
    return points_from_mask(_fixed_mask(H.degree, (g.images for g in H.generators)))


def closure_mask(G: PermutationGroup, mask: int) -> int:
    """Closure of a point mask, memoized per group."""
    cached = G._closure_cache.get(mask)
    if cached is None:
        gens = G._stabilizer_gen_tuples(points_from_mask(mask))
        cached = G._closure_cache[mask] = _fixed_mask(G.degree, gens)
    return cached


def fixset_closure(G: PermutationGroup, points: PointsLike) -> FixSet:
    """Smallest fixset containing the given points."""
    mask = _as_mask(G, points)
    return FixSet(G, points_from_mask(closure_mask(G, mask)))


def is_fixset(G: PermutationGroup, points: PointsLike) -> bool:
    mask = _as_mask(G, points)
    return closure_mask(G, mask) == mask


def _require_fixset(G: PermutationGroup, points: PointsLike, which: str) -> int:
    mask = _as_mask(G, points)
    if closure_mask(G, mask) != mask:
        raise PreconditionError(
            f"{which} argument {points_from_mask(mask)} is not a fixset")
    return mask


def fix_meet(G: PermutationGroup, a: PointsLike, b: PointsLike) -> FixSet:
    """Meet of two fixsets: plain intersection (verified closed)."""
    ma = _require_fixset(G, a, "first")
    mb = _require_fixset(G, b, "second")
    meet = ma & mb
    if closure_mask(G, meet) != meet:
        raise InternalConsistencyError(
            f"intersection {points_from_mask(meet)} of fixsets is not closed")
    return FixSet(G, points_from_mask(meet))


def fix_join(G: PermutationGroup, a: PointsLike, b: PointsLike) -> FixSet:
    """Join of two fixsets: closure of the union."""
    ma = _require_fixset(G, a, "first")
    mb = _require_fixset(G, b, "second")
    return FixSet(G, points_from_mask(closure_mask(G, ma | mb)))


@dataclass(frozen=True)
class FixsetLattice:
    """The closed sets of a closure operator on points, ordered by containment:
    the fixsets of an action, or the subspaces of a projective space.

    Elements are sorted by (size, points); the first element is the
    closure of the empty set and the last is the full domain.
    """

    degree: int
    elements: tuple[tuple[int, ...], ...]
    _index: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        self._index.update({pts: i for i, pts in enumerate(self.elements)})

    def __len__(self) -> int:
        return len(self.elements)

    def index_of(self, points: Iterable[int]) -> int:
        return self._index[tuple(sorted(points))]

    @property
    def bottom(self) -> tuple[int, ...]:
        return self.elements[0]

    @property
    def top(self) -> tuple[int, ...]:
        return self.elements[-1]

    def masks(self) -> list[int]:
        return [mask_from_points(p, self.degree) for p in self.elements]

    def covers(self) -> tuple[tuple[int, int], ...]:
        """Pairs (i, j) where element j covers element i."""
        return order_covers(containment_order(self.masks(), self.degree))

    def to_finite_lattice(self) -> FiniteLattice:
        return FiniteLattice(containment_order(self.masks(), self.degree),
                             labels=self.elements)


def closed_set_lattice(degree: int, close: Callable[[int], int],
                       cap: int) -> FixsetLattice:
    """Every closed set of a closure operator on point masks, by cover generation.

    Starting from the closure of the empty set, each closed set A found is
    extended by every point x outside it, and close(A | {x}) is kept when
    new. This reaches every closed set C. The bottom lies inside C, and for
    a found set A strictly inside C and any x in C but not in A, the set
    close(A | {x}) lies strictly above A and inside C and is found too; so
    a largest found set inside C is C itself. Elements are sorted by
    (size, points), so the numbering does not depend on discovery order.
    """
    full = (1 << degree) - 1
    found: set[int] = set()
    todo = [close(0)]
    while todo:
        a = todo.pop()
        if a in found:
            continue
        if len(found) >= cap:
            raise CapacityError(f"closed-set lattice exceeds cap {cap}",
                                cap_name="lattice", partial=cap + 1)
        found.add(a)
        rest = full & ~a
        while rest:
            x = rest & -rest
            rest ^= x
            c = close(a | x)
            if c not in found:
                todo.append(c)
    ordered = sorted(found, key=lambda m: (m.bit_count(), points_from_mask(m)))
    return FixsetLattice(degree, tuple(points_from_mask(m) for m in ordered))


def enumerate_fixset_lattice(G: PermutationGroup,
                             cap: int = LATTICE_CAP) -> FixsetLattice:
    """Every fixset of the action (see ``closed_set_lattice``)."""
    return closed_set_lattice(G.degree, lambda mask: closure_mask(G, mask), cap)


@dataclass(frozen=True)
class GaloisReport:
    """Exhaustive pairwise audit of the stabilizer/fixset duality."""

    passed: bool
    pairs_checked: int
    elements_checked: int
    first_failure: Optional[dict]


def galois_report(G: PermutationGroup,
                  lattice: Optional[FixsetLattice] = None,
                  cap: int = LATTICE_CAP) -> GaloisReport:
    """Check, over all pairs of fixsets, that

    * the intersection is again a lattice element,
    * the join (closure of union) is a lattice element containing the union,
    * containment of fixsets equals reversed containment of stabilizers.

    Passing a hand-built (possibly corrupted) lattice makes this a
    negative-control harness: a missing element surfaces as the first
    failing pair.
    """
    if lattice is None:
        lattice = enumerate_fixset_lattice(G, cap=cap)
    masks = lattice.masks()
    mask_set = set(masks)
    stabs = [G.pointwise_stabilizer(pts) for pts in lattice.elements]

    def fail(kind, i, j, **extra):
        return GaloisReport(False, checked, len(masks), {
            "kind": kind,
            "pair": (lattice.elements[i], lattice.elements[j]),
            **extra,
        })

    checked = 0
    for i, mi in enumerate(masks):
        for j, mj in enumerate(masks):
            checked += 1
            meet = mi & mj
            if closure_mask(G, meet) != meet or meet not in mask_set:
                return fail("meet-not-in-lattice", i, j,
                            meet=points_from_mask(meet))
            join = closure_mask(G, mi | mj)
            if join & (mi | mj) != (mi | mj):
                return fail("join-misses-union", i, j,
                            join=points_from_mask(join))
            if join not in mask_set:
                return fail("join-not-in-lattice", i, j,
                            join=points_from_mask(join))
            subset = mi & mj == mi
            reversed_containment = stabs[j].is_subgroup_of(stabs[i])
            if subset != reversed_containment:
                return fail("duality-broken", i, j, subset=subset,
                            stabilizer_reversed=reversed_containment)
    return GaloisReport(True, checked, len(masks), None)
