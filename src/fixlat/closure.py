"""The fixed-point closure operator of a permutation action and its lattice.

Pointwise stabilization sends a point set S to the set of points fixed by
every element of its stabilizer. That map is a closure operator; its
closed sets ("fixsets") form a complete lattice in which meet is
intersection and join is the closure of the union. The closure operators
take and return point masks, and closed-set families store masks; sorted
point tuples are made only for result fields and JSON.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Optional

import numpy as np

from .errors import CapacityError
from .group import PermutationGroup, _point_orbits
from .lattice import LATTICE_CAP, FiniteLattice, containment_order, order_covers
from .perm import check_mask, check_masks, points_from_mask


def closure_mask(G: PermutationGroup, mask: int) -> int:
    """Closure of a point mask (an int in 0..2^n - 1), memoized per group."""
    cached = G._closure_cache.get(check_mask(mask, G.degree))
    if cached is None:
        cached = G._closure_cache[mask] = G._stabilizer(mask).fixed
    return cached


@dataclass(frozen=True)
class FixsetLattice:
    """The closed sets of a closure operator on points, ordered by containment:
    the fixsets of an action, or the subspaces of a projective space.

    The closed sets are point masks, sorted by (size, points); the first
    is the closure of the empty set and the last is the full domain.
    ``elements`` lists them as sorted point tuples.
    """

    degree: int
    masks: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.masks)

    @cached_property
    def elements(self) -> tuple[tuple[int, ...], ...]:
        return tuple(map(points_from_mask, self.masks))

    def covers(self) -> tuple[tuple[int, int], ...]:
        """Pairs (i, j) where element j covers element i."""
        return order_covers(containment_order(self.masks, self.degree))

    def to_finite_lattice(self) -> FiniteLattice:
        """The family as a validated lattice, element i being masks[i]."""
        return FiniteLattice(containment_order(self.masks, self.degree))


def _mask_image(g: tuple[int, ...], mask: int) -> int:
    """Image of a point mask under an image tuple."""
    out = 0
    while mask:
        low = mask & -mask
        out |= 1 << g[low.bit_length() - 1]
        mask ^= low
    return out


def _mask_orbit(mask: int, gens: tuple[tuple[int, ...], ...],
                room: int) -> list[int]:
    """The orbit of a point mask under gens, breadth-first from the mask.

    The search stops as soon as room + 1 masks are found, so a returned
    list longer than ``room`` is a truncated orbit.
    """
    orbit = [mask]
    seen = {mask}
    if room < 1:
        return orbit
    for m in orbit:
        for g in gens:
            image = _mask_image(g, m)
            if image not in seen:
                seen.add(image)
                orbit.append(image)
                if len(orbit) > room:
                    return orbit
    return orbit


def closed_masks(degree: int, close: Callable[[int], tuple[int, tuple]],
                 cap: int) -> set[int]:
    """Every closed set of a closure operator on point masks, by cover
    generation up to symmetry, in no particular order.

    ``close(S)`` returns the closed mask of S and generators (image tuples)
    of a group H_S of symmetries of the closure, each fixing S pointwise;
    a symmetry g satisfies close(g.T) = g.close(T) for every T. G = H_0
    must contain every H_S. Trivial symmetry (empty tuples) is plain cover
    generation.

    The worklist holds one representative c per G-orbit of closed sets,
    with H = H_{A | {x}} for the set A and point x it came from; H fixes
    c = close(A | {x}) setwise. For each representative, close(c | {x})
    is computed for the least point x of each H-orbit outside c; when the
    result is new, its whole G-orbit is added to the found sets and the
    result is pushed as a representative.

    The found family F contains close(0) and is closed under extension:
    for B = g.c in F and y outside B, pick h in H with h.x = g^-1.y for
    the computed x; then close(B | {y}) = g.h.close(c | {x}) lies in F,
    as F is a union of G-orbits. F holds closed sets only, since
    symmetries map closed sets to closed sets. Extension closure gives
    every closed set C: the bottom lies inside C, and for a set A in F
    strictly inside C and any y in C but not in A, close(A | {y}) lies
    strictly above A and inside C and is in F; so a largest set of F
    inside C is C itself.

    Raises ``CapacityError`` before an orbit that would take the family
    past ``cap`` sets is added.
    """
    full = (1 << degree) - 1
    bottom, symmetry = close(0)
    found: set[int] = set()
    todo: list[tuple[int, tuple]] = []

    def keep(c: int, gens: tuple) -> None:
        orbit = _mask_orbit(c, symmetry, cap - len(found))
        if len(found) + len(orbit) > cap:
            raise CapacityError(f"closed-set lattice exceeds cap {cap}",
                                cap_name="lattice", partial=cap + 1)
        found.update(orbit)
        todo.append((c, gens))

    keep(bottom, symmetry)
    while todo:
        a, gens = todo.pop()
        for orbit in _point_orbits(full & ~a, gens):
            c, c_gens = close(a | (orbit & -orbit))
            if c not in found:
                keep(c, c_gens)
    return found


def closed_set_lattice(degree: int, close: Callable[[int], tuple[int, tuple]],
                       cap: int) -> FixsetLattice:
    """The closed sets of ``closed_masks`` sorted by (size, points), so the
    numbering does not depend on discovery order; among sets of one size,
    that is descending order of the binary digits read from point 0 up.
    """
    bits = f"0{degree}b"
    masks = sorted(closed_masks(degree, close, cap),
                   key=lambda m: format(m, bits)[::-1], reverse=True)
    masks.sort(key=int.bit_count)
    return FixsetLattice(degree, tuple(masks))


def _fixset_close(G: PermutationGroup) -> Callable[[int], tuple[int, tuple]]:
    """The closure of S is fix(G_S), and G_S is its symmetry."""

    def close(mask: int) -> tuple[int, tuple]:
        return closure_mask(G, mask), G._stabilizer(mask).gens

    return close


def enumerate_fixset_lattice(G: PermutationGroup,
                             cap: int = LATTICE_CAP) -> FixsetLattice:
    """Every fixset of the action (see ``closed_set_lattice``)."""
    return closed_set_lattice(G.degree, _fixset_close(G), cap)


def closures(G: PermutationGroup, masks: Iterable[int]) -> list[int]:
    """The closure of each point mask, in order.

    Closed sets are closed under intersection, so the closure of S is the
    intersection of the closed sets containing it. When 2^n is within
    ``LATTICE_CAP``, the closed sets are walked once with a cap of one set
    per requested mask. If the walk finishes, every closure is read off
    them: with a[m] = m on the closed masks and the full mask elsewhere,
    one pass per bit b sets a[m] &= a[m | 1 << b] for every m without b;
    after the passes for bits 0..b, a[m] is the intersection of the closed
    supersets of m that differ from it only in those bits (a superset-zeta
    sweep with AND as the sum). A larger family, or 2^n above the cap,
    takes one ``closure_mask`` tower walk per mask; those walks reuse the
    tower records that an abandoned family walk left. Every mask is
    checked before any is used.
    """
    n = G.degree
    masks = check_masks(masks, n)
    size = 1 << n
    if size <= LATTICE_CAP:
        try:
            closed = closed_masks(n, _fixset_close(G), len(masks))
        except CapacityError:
            pass
        else:
            closed = np.fromiter(closed, dtype=np.int64, count=len(closed))
            a = np.full(size, size - 1, dtype=np.int64)
            a[closed] = closed
            for b in range(n):
                pairs = a.reshape(-1, 2, 1 << b)
                pairs[:, 0] &= pairs[:, 1]
            return a[masks].tolist()
    return [closure_mask(G, mask) for mask in masks]


def closure_table(G: PermutationGroup) -> list[int]:
    """The closure of every point mask 0..2^n - 1, in order, from one walk
    of the closed sets (see ``closures``). The 2^n table is checked against
    ``LATTICE_CAP`` before it is allocated.
    """
    size = 1 << G.degree
    if size > LATTICE_CAP:
        raise CapacityError(
            f"closure table of 2^{G.degree} masks exceeds cap {LATTICE_CAP}",
            cap_name="lattice")
    return closures(G, range(size))


@dataclass(frozen=True)
class GaloisReport:
    """Exhaustive pairwise audit of the stabilizer/fixset duality."""

    passed: bool
    pairs_checked: int
    elements_checked: int
    first_failure: Optional[dict]


def galois_report(G: PermutationGroup,
                  lattice: Optional[FixsetLattice] = None) -> GaloisReport:
    """Check, over all pairs of fixsets, that

    * the intersection is again a lattice element,
    * the join (closure of union) is a lattice element containing the union,
    * containment of fixsets equals reversed containment of stabilizers.

    Passing a hand-built (possibly corrupted) lattice makes this a
    negative-control harness: a missing element surfaces as the first
    failing pair.
    """
    if lattice is None:
        lattice = enumerate_fixset_lattice(G, cap=LATTICE_CAP)
    masks = lattice.masks
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
