import random
from itertools import product
from math import perm

import numpy as np

from fixlat import _kernels
from fixlat.group import PermutationGroup
from fixlat.relational import _decode


def random_perm_matrix(rng, n, g):
    rows = []
    for _ in range(g):
        images = list(range(n))
        rng.shuffle(images)
        rows.append(images)
    return np.array(rows, dtype=np.int64)


def digits(code, n, k):
    return tuple((code // n ** (k - 1 - j)) % n for j in range(k))


def reference_orbit_minima(images):
    """Smallest code in each orbit, by search over images and inverses."""
    g, size = images.shape
    labels = [-1] * size
    for seed in range(size):
        if labels[seed] >= 0:
            continue
        labels[seed] = seed
        stack = [seed]
        while stack:
            c = stack.pop()
            for gi in range(g):
                for z in (int(images[gi, c]),
                          int(np.flatnonzero(images[gi] == c)[0])):
                    if labels[z] < 0:
                        labels[z] = seed
                        stack.append(z)
    return np.array(labels, dtype=np.int64)


# (n, k) shapes every kernel test covers: arity 1, the arity 4 that
# dclcheck runs, and up to 9 points
SHAPES = [(1, 1), (5, 1), (9, 1), (2, 2), (9, 2), (3, 3), (7, 3), (9, 3),
          (4, 4), (6, 4), (9, 4)]


def test_tuple_images_backends_agree():
    # the broadcast kernel against the tuple-by-tuple definition, tuples in
    # code order
    rng = random.Random(0)
    shapes = SHAPES + [(rng.randrange(2, 7), rng.randrange(2, 4)) for _ in range(10)]
    for n, k in shapes:
        perms = random_perm_matrix(rng, n, rng.randrange(1, 4))
        images = _kernels.tuple_images(perms, k)
        assert images.shape == (perms.shape[0], n**k) and images.dtype == np.int64
        for gi, row in enumerate(perms):
            for code, t in enumerate(product(range(n), repeat=k)):
                img = tuple(int(row[x]) for x in t)
                assert digits(int(images[gi, code]), n, k) == img


def test_distinct_mask_backends_agree():
    for n, k in SHAPES + [(3, 2), (5, 3), (2, 3)]:
        mask = _kernels.distinct_codes_mask(n, k)
        assert int(mask.sum()) == perm(n, k)
        expected = [len(set(digits(c, n, k))) == k for c in range(n**k)]
        assert mask.tolist() == expected


def test_decode_round_trips():
    rng = np.random.default_rng(4)
    for n, k in SHAPES:
        codes = np.concatenate([np.arange(min(n**k, 50)),
                                rng.integers(0, n**k, size=50)]).astype(np.int64)
        rows = _decode(codes, n, k)
        assert rows.shape == (codes.size, k) and rows.dtype == np.int64
        assert [tuple(r) for r in rows.tolist()] == [digits(c, n, k) for c in codes.tolist()]
        assert (rows @ (n ** np.arange(k - 1, -1, -1))).tolist() == codes.tolist()
    assert _decode(np.empty(0, dtype=np.int64), 5, 3).shape == (0, 3)


def test_min_labels_backends_agree():
    rng = random.Random(1)
    for _ in range(10):
        n = rng.randrange(2, 6)
        k = rng.randrange(2, 4)
        perms = random_perm_matrix(rng, n, rng.randrange(1, 4))
        images = _kernels.tuple_images(perms, k)
        labels = _kernels.min_labels(images)
        assert np.array_equal(labels, reference_orbit_minima(images))
        # labels are orbit minima: stable under every generator image
        for gi in range(images.shape[0]):
            assert np.array_equal(labels, labels[images[gi]])
        assert (labels <= np.arange(labels.size)).all()


def test_gather_backends_agree():
    rng = np.random.default_rng(2)
    for _ in range(10):
        r = int(rng.integers(0, 200))
        m = int(rng.integers(0, 20))
        params = rng.integers(0, 17, size=(r, 3), dtype=np.int64)
        values = rng.integers(0, 16, size=r, dtype=np.int64)
        member = rng.random((m, 17)) < 0.4
        member[:, 16] = True  # the sentinel column
        got = _kernels.gather_candidates(params, values, member)
        expected = np.zeros((m, 17), dtype=bool)
        for s in range(m):
            for row, v in zip(params.tolist(), values.tolist()):
                if all(member[s, x] for x in row):
                    expected[s, v] = True
        assert got.shape == (m, 17) and got.dtype == bool
        assert got.tolist() == expected.tolist()


def test_sorted_unique_matches_np_unique():
    rng = np.random.default_rng(3)
    for size in (0, 1, 2, 50, 6000):
        codes = rng.integers(0, max(1, size // 3), size=size, dtype=np.int64)
        got = _kernels.sorted_unique(codes)
        expected = np.unique(codes)
        assert got.dtype == expected.dtype
        assert got.tolist() == expected.tolist()


def test_orbit_counts_match_known_groups():
    s5 = PermutationGroup.symmetric(5)
    perms = np.array([g.images for g in s5.generators], dtype=np.int64)
    labels, active = _kernels.tuple_orbit_labels(perms, 3)
    assert np.unique(labels[active]).size == 1
    c6 = PermutationGroup.cyclic(6)
    perms = np.array([g.images for g in c6.generators], dtype=np.int64)
    labels, active = _kernels.tuple_orbit_labels(perms, 2)
    assert np.unique(labels[active]).size == 5  # nonzero rotation offsets
    c3 = np.array([[1, 2, 0]], dtype=np.int64)
    labels, active = _kernels.tuple_orbit_labels(c3, 2)
    assert np.unique(labels[active]).size == 2  # offsets +1 and -1
