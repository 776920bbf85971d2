"""Hot inner loops: tuple-space orbit labelling and closure-scan gathers.

Tuple spaces are encoded as mixed-radix integers: the k-tuple
(t_0, ..., t_{k-1}) over n points becomes sum(t_j * n**(k-1-j)). All
labelling functions return, per code, the smallest code in its orbit.
"""

from __future__ import annotations

import numpy as np


def digit_columns(codes: np.ndarray, n: int, k: int):
    """The digits t_0, ..., t_{k-1} of k-tuple codes over n points, one
    column at a time, each with its radix n**(k-1-j)."""
    for j in range(k):
        radix = n ** (k - 1 - j)
        yield radix, codes // radix % n


def tuple_images(perms: np.ndarray, k: int) -> np.ndarray:
    """Images of every k-tuple code under every permutation.

    perms: (g, n) int64 image tables. Returns (g, n**k) int64.
    """
    perms = np.ascontiguousarray(perms, dtype=np.int64)
    g, n = perms.shape
    out = np.zeros((g, n**k), dtype=np.int64)
    for radix, digit in digit_columns(np.arange(n**k, dtype=np.int64), n, k):
        out += perms[:, digit] * radix
    return out


def distinct_codes_mask(n: int, k: int) -> np.ndarray:
    """Mask of the k-tuple codes whose digits are pairwise distinct."""
    ok = np.ones(n**k, dtype=bool)
    seen = []
    for _, digit in digit_columns(np.arange(n**k, dtype=np.int64), n, k):
        for earlier in seen:
            ok &= digit != earlier
        seen.append(digit)
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
    """Points forced in each membership row: out[s, values[i]] is set for
    every table row i of params lying entirely inside member[s].

    params: (r, w) points, values: (r,) points, member: (m, n+1) bool
    rows. Returns (m, n+1) bool; the (m, r, w) intermediate is the
    caller's to bound.
    """
    out = np.zeros_like(member)
    s, r = np.nonzero(member[:, params].all(axis=2))
    out[s, values[r]] = True
    return out


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
