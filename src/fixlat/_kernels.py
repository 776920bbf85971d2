"""Hot inner loops: tuple-space orbit labelling and closure-scan gathers.

Tuple spaces are encoded as mixed-radix integers: the k-tuple
(t_0, ..., t_{k-1}) over n points becomes sum(t_j * n**(k-1-j)). All
labelling functions return, per code, the smallest code in its orbit.
"""

from __future__ import annotations

import numpy as np


def tuple_images(perms: np.ndarray, k: int) -> np.ndarray:
    """Images of every k-tuple code under every permutation.

    perms: (g, n) int64 image tables. Returns (g, n**k) int64.
    """
    perms = np.ascontiguousarray(perms, dtype=np.int64)
    g, n = perms.shape
    size = n**k
    codes = np.arange(size, dtype=np.int64)
    out = np.zeros((g, size), dtype=np.int64)
    for j in range(k):
        radix = n ** (k - 1 - j)
        digit = (codes // radix) % n
        out += perms[:, digit] * radix
    return out


def distinct_codes_mask(n: int, k: int) -> np.ndarray:
    size = n**k
    codes = np.arange(size, dtype=np.int64)
    ok = np.ones(size, dtype=bool)
    digits = []
    for j in range(k):
        digits.append((codes // n ** (k - 1 - j)) % n)
    for a in range(k):
        for b in range(a + 1, k):
            ok &= digits[a] != digits[b]
    return ok


def min_labels(images: np.ndarray) -> np.ndarray:
    """Smallest code reachable from each code under the given bijections."""
    images = np.ascontiguousarray(images, dtype=np.int64)
    g, size = images.shape
    labels = np.arange(size, dtype=np.int64)
    inverses = np.empty_like(images)
    for gi in range(g):
        inverses[gi, images[gi]] = np.arange(size, dtype=np.int64)
    while True:
        before = labels
        labels = np.minimum(labels, labels[labels])
        for gi in range(g):
            labels = np.minimum(labels, labels[images[gi]])
            labels = np.minimum(labels, labels[inverses[gi]])
        if np.array_equal(labels, before):
            break
    # settle chains: label of label is the representative
    while True:
        nxt = labels[labels]
        if np.array_equal(nxt, labels):
            return labels
        labels = nxt


def gather_candidates(params: np.ndarray, values: np.ndarray,
                      member: np.ndarray) -> np.ndarray:
    """values[i] for every row i of params lying entirely inside member."""
    if params.size == 0:
        return values[:0]
    return values[member[params].all(axis=1)]


def tuple_orbit_labels(perms: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Orbit labels on the space of distinct k-tuples.

    Returns (labels, active): labels over the full code space (label =
    smallest code in the orbit), active = mask of codes whose digits are
    pairwise distinct. Permutations map distinct tuples to distinct
    tuples, so orbits never cross the mask boundary.
    """
    perms = np.ascontiguousarray(perms, dtype=np.int64)
    n = perms.shape[1]
    active = distinct_codes_mask(n, k)
    if perms.shape[0] == 0:
        return np.arange(n**k, dtype=np.int64), active
    images = tuple_images(perms, k)
    return min_labels(images), active
