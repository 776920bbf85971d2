"""The brute-force oracles that ``fixlat verify`` ships.

Everything here is deliberately independent of the stabilizer-chain
machinery: elements come from product closure of the generators, and
derived quantities are computed by direct filtering over that table.
verify checks group orders, fixed-point closures and lattice
automorphisms against them; the tests reuse them too. References that
only the tests need live with the tests.
"""

from __future__ import annotations

from itertools import permutations

import numpy as np

from .errors import CapacityError

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


def stabilizer_rows(elements: np.ndarray, points) -> np.ndarray:
    """Rows fixing every listed point."""
    pts = list(points)
    if not pts:
        return elements
    sel = np.ones(elements.shape[0], dtype=bool)
    for x in pts:
        sel &= elements[:, x] == x
    return elements[sel]


def fixset_closure(elements: np.ndarray, points) -> tuple[int, ...]:
    """Fixed points of the pointwise stabilizer, by direct filtering."""
    rows = stabilizer_rows(elements, points)
    ident = np.arange(rows.shape[1], dtype=rows.dtype)
    return tuple(int(x) for x in np.flatnonzero((rows == ident).all(axis=0)))


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
