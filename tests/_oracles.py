"""Brute-force references and writers that only the tests use.

Like ``fixlat.exhaustive``, which holds the oracles ``fixlat verify``
ships, the references work on the full element table from product
closure of the generators, independent of the stabilizer chain.
"""

import numpy as np

from fixlat.errors import InternalConsistencyError, ValidationError
from fixlat.exhaustive import enumerate_elements
from fixlat.perm import Permutation


def element_table(G) -> np.ndarray:
    """All elements of G as a lex-sorted (order, degree) array."""
    return enumerate_elements(G.degree, [g.images for g in G.generators])


def elements(G) -> list[Permutation]:
    return [Permutation(row) for row in element_table(G).tolist()]


def contains(elements: np.ndarray, images) -> bool:
    row = np.asarray(images, dtype=np.int32)
    return bool((elements == row).all(axis=1).any())


def lattice_obj(L) -> dict:
    """The lattice input object ``{"size", "covers"}`` of a FiniteLattice."""
    return {"size": L.size, "covers": [list(c) for c in L.covers()]}


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
