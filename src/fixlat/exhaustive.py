"""Brute-force oracles by full element enumeration.

Everything here is deliberately independent of the stabilizer-chain
machinery: elements come from product closure of the generators, and all
derived quantities are computed by direct filtering over that table.
These functions back the cross-checks for orders, membership,
stabilizers, fixed-point closures, definable closures and tuple-orbit
counts.
"""

from __future__ import annotations

from collections import defaultdict
from functools import lru_cache
from itertools import permutations

import numpy as np

from .errors import CapacityError, InternalConsistencyError, ValidationError

ORDER_CAP = 1_000_000
BRUTE_LATTICE_CAP = 10  # |L|! permutations are filtered: 3.6M at the cap


def enumerate_elements(degree: int, gens) -> np.ndarray:
    """All elements of <gens> as lex-sorted rows of an (order, degree) array."""
    ident = np.arange(degree, dtype=np.int32)
    if not gens:
        return ident.reshape(1, degree)
    gen_arrays = [np.asarray(g, dtype=np.int32) for g in gens]
    seen = {ident.tobytes()}
    rows = [ident]
    frontier = ident.reshape(1, degree)
    while frontier.shape[0]:
        images = [g[frontier] for g in gen_arrays]
        new = []
        for block in images:
            for row in block:
                key = row.tobytes()
                if key not in seen:
                    seen.add(key)
                    new.append(row)
        if len(seen) > ORDER_CAP:
            raise CapacityError(
                f"group order exceeds exhaustive cap {ORDER_CAP}",
                cap_name="order", partial=len(seen))
        if not new:
            break
        frontier = np.stack(new)
        rows.extend(new)
    table = np.stack(rows)
    order = np.lexsort(table.T[::-1])
    return table[order]


def contains(elements: np.ndarray, images) -> bool:
    row = np.asarray(images, dtype=np.int32)
    return bool((elements == row).all(axis=1).any())


def stabilizer_rows(elements: np.ndarray, points) -> np.ndarray:
    """Rows fixing every listed point."""
    pts = list(points)
    if not pts:
        return elements
    sel = np.ones(elements.shape[0], dtype=bool)
    for x in pts:
        sel &= elements[:, x] == x
    return elements[sel]


def fixed_points(rows: np.ndarray) -> tuple[int, ...]:
    """Points fixed by every row."""
    degree = rows.shape[1]
    ident = np.arange(degree, dtype=rows.dtype)
    if rows.shape[0] == 0:
        return tuple(range(degree))
    return tuple(int(x) for x in np.flatnonzero((rows == ident).all(axis=0)))


def fixset_closure(elements: np.ndarray, points) -> tuple[int, ...]:
    """Fixed points of the pointwise stabilizer, by direct filtering."""
    return fixed_points(stabilizer_rows(elements, points))


def relational_closure(elements: np.ndarray, points, arity: int) -> tuple[int, ...]:
    """Definable closure over the orbit relations of arity 2..arity.

    Adds every point forced by a parameter set inside the closure (see
    ``_completion_rules``) until nothing changes.
    """
    table = np.ascontiguousarray(elements, dtype=np.int32)
    rules = _completion_rules(table.tobytes(), table.shape[1], arity)
    closed = set(points)
    grown = True
    while grown:
        before = len(closed)
        closed.update(v for rest, v in rules if rest <= closed)
        grown = len(closed) > before
    return tuple(sorted(closed))


@lru_cache(maxsize=8)
def _completion_rules(table: bytes, degree: int, arity: int) -> frozenset:
    """(parameter set, forced point) pairs of every arity in 2..arity.

    Orbits of distinct k-tuples come from applying every element; a
    coordinate is forced when, within its orbit, no other tuple agrees with
    it in all the other coordinates. Keyed by the element table's bytes, so
    repeated queries on one group enumerate the orbits once.
    """
    elements = np.frombuffer(table, dtype=np.int32).reshape(-1, degree)
    rules = set()
    for k in range(2, arity + 1):
        seen = set()
        for t in permutations(range(degree), k):
            if t in seen:
                continue
            orbit = set(map(tuple, elements[:, list(t)].tolist()))
            seen |= orbit
            for slot in range(k):
                completions = defaultdict(set)
                for u in orbit:
                    completions[u[:slot] + u[slot + 1:]].add(u[slot])
                rules.update((frozenset(rest), v) for rest, (v, *more)
                             in completions.items() if not more)
    return frozenset(rules)


def tuple_orbit_count(elements: np.ndarray, k: int) -> int:
    """Orbit count on distinct k-tuples via the orbit-counting lemma.

    Averages the number of fixed distinct k-tuples over the group: an
    element with f fixed points fixes f(f-1)...(f-k+1) such tuples.
    """
    order, degree = elements.shape
    if k > degree:
        raise ValidationError("tuple length exceeds degree")
    ident = np.arange(degree, dtype=elements.dtype)
    fix_counts = (elements == ident).sum(axis=1).astype(object)
    total = 0
    for f in fix_counts:
        term = 1
        for i in range(k):
            term *= f - i
        total += term
    if total % order:
        raise InternalConsistencyError(
            f"fixed-tuple total {total} is not a multiple of the order {order}")
    return int(total // order)


def lattice_automorphism_rows(leq: np.ndarray) -> np.ndarray:
    """Order-automorphisms of a poset, as lex-sorted image rows, by filtering
    all |L|! permutations."""
    n = leq.shape[0]
    if n > BRUTE_LATTICE_CAP:
        raise CapacityError(
            f"brute-force automorphism scan capped at {BRUTE_LATTICE_CAP} elements",
            cap_name="brute_lattice")
    rows = [p for p in permutations(range(n))
            if np.array_equal(leq[np.ix_(p, p)], leq)]
    return np.array(rows, dtype=np.int32).reshape(len(rows), n)


def lattice_automorphism_count(leq: np.ndarray) -> int:
    """Number of order-automorphisms of a poset, by brute force."""
    return lattice_automorphism_rows(leq).shape[0]
