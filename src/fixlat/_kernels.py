"""Hot inner loops: tuple-space orbit labelling and closure-scan gathers.

Tuple spaces are encoded as mixed-radix integers: the k-tuple
(t_0, ..., t_{k-1}) over n points becomes sum(t_j * n**(k-1-j)). All
labelling functions return, per code, the smallest code in its orbit.
"""

from __future__ import annotations

import numpy as np


def sorted_unique(values: np.ndarray) -> np.ndarray:
    """The distinct entries of a 1-D array in increasing order, as np.unique
    gives them, from one sort and a mask of neighbours that differ."""
    out = np.sort(values)
    keep = np.ones(out.size, dtype=bool)
    keep[1:] = out[1:] != out[:-1]
    return out[keep]


def tuple_images(perms: np.ndarray, k: int) -> np.ndarray:
    """Images of every k-tuple code under every permutation.

    The code of a tuple t extended by a point x is code(t) * n + x, so the
    image codes of the (j+1)-tuples are one broadcast of the j-tuple image
    codes against the point images. perms: (g, n) int64 image tables.
    Returns (g, n**k) int64.
    """
    perms = np.ascontiguousarray(perms, dtype=np.int64)
    g, n = perms.shape
    out = np.zeros((g, 1), dtype=np.int64)
    for _ in range(k):
        out = (out[:, :, None] * n + perms[:, None, :]).reshape(g, out.shape[1] * n)
    return out


def distinct_codes_mask(n: int, k: int) -> np.ndarray:
    """Mask of the k-tuple codes whose digits are pairwise distinct."""
    digits = np.indices((n,) * k).reshape(k, -1)
    ok = np.ones(n**k, dtype=bool)
    for j in range(1, k):
        ok &= (digits[:j] != digits[j]).all(axis=0)
    return ok


def min_labels(images: np.ndarray) -> np.ndarray:
    """Smallest code reachable from each code under the given bijections.

    At the fixpoint each label is constant on its orbit, lies in it and is
    at most its own code, so it is the orbit's least code.
    """
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
            return labels


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
