"""Independent answers for the benchmark's jobs.

Nothing here imports fixlat. Groups are enumerated element by element,
closed point sets come from intersecting element fixed-point sets,
projective subspaces come from linear algebra over GF(p), and definable
closure comes from the stabilizer characterisation of unique completion.
Point sets are int bit masks throughout.
"""

from __future__ import annotations

import random
from itertools import combinations, product
from math import factorial

import numpy as np

ELEMENT_CAP = 100_000


# -- permutations and groups ---------------------------------------------------


def relabel(gens, pi):
    """Conjugate image tuples by the point relabelling pi (old -> new)."""
    out = []
    for g in gens:
        img = [0] * len(g)
        for i, j in enumerate(g):
            img[pi[i]] = pi[j]
        out.append(tuple(img))
    return out


def random_perm(rng: random.Random, n: int) -> list[int]:
    pi = list(range(n))
    rng.shuffle(pi)
    return pi


def enumerate_elements(degree: int, gens, cap: int = ELEMENT_CAP) -> np.ndarray:
    """Every element of <gens> as rows of an (order, degree) array, sorted."""
    gens = [np.asarray(g, dtype=np.int16) for g in gens]
    frontier = np.arange(degree, dtype=np.int16)[None, :]
    seen = {frontier[0].tobytes()}
    rows = [frontier]
    while len(frontier):
        nxt = []
        for g in gens:
            # row x composed with g (apply x, then g) is g[x]
            for y in g[frontier]:
                key = y.tobytes()
                if key not in seen:
                    seen.add(key)
                    nxt.append(y)
        if len(seen) > cap:
            raise ValueError(f"group order exceeds oracle cap {cap}")
        frontier = np.array(nxt, dtype=np.int16).reshape(-1, degree)
        rows.append(frontier)
    out = np.concatenate(rows)
    return out[np.lexsort(out.T[::-1])]


def fix_masks(elements: np.ndarray) -> np.ndarray:
    """Fixed-point set of each element as an int64 bit mask."""
    n = elements.shape[1]
    fixed = elements == np.arange(n, dtype=elements.dtype)
    return fixed.astype(np.int64) @ (np.int64(1) << np.arange(n, dtype=np.int64))


def orbits(degree: int, gens) -> list[list[int]]:
    parent = list(range(degree))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for g in gens:
        for i, j in enumerate(g):
            a, b = find(i), find(j)
            if a != b:
                parent[max(a, b)] = min(a, b)
    groups: dict[int, list[int]] = {}
    for x in range(degree):
        groups.setdefault(find(x), []).append(x)
    return sorted(groups.values())


def mask_points(mask: int) -> list[int]:
    out = []
    i = 0
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return out


def points_mask(points) -> int:
    m = 0
    for x in points:
        m |= 1 << x
    return m


class ClosureOracle:
    """The fixed-point closure of a group, from its element list or a formula.

    ``kind`` is "elements" (any group up to ELEMENT_CAP), "sym" or "alt"
    (the full symmetric or alternating group on ``degree`` points, whose
    pointwise stabilizers are known in closed form), or "product" (a
    direct product acting on the disjoint union of its factors' points).
    """

    def __init__(self, kind: str, degree: int, *, gens=None, factors=(),
                 offsets=(), relabelling=None):
        self.kind = kind
        self.degree = degree
        self.full = (1 << degree) - 1
        self.factors = factors
        self.offsets = offsets
        # new label of old point i is relabelling[i]
        self.relabelling = relabelling
        if relabelling is not None:
            self._old_of = {new: old for old, new in enumerate(relabelling)}
        if kind == "elements":
            self.masks = fix_masks(enumerate_elements(degree, gens))
            self.order = len(self.masks)
        elif kind == "sym":
            self.order = factorial(degree)
        elif kind == "alt":
            self.order = factorial(degree) // 2 if degree > 1 else 1
        elif kind == "product":
            self.order = 1
            for f in factors:
                self.order *= f.order
        else:
            raise ValueError(kind)
        self._cache: dict[int, int] = {}

    def _to_old(self, mask: int) -> int:
        if self.relabelling is None:
            return mask
        return points_mask(self._old_of[x] for x in mask_points(mask))

    def _to_new(self, mask: int) -> int:
        if self.relabelling is None:
            return mask
        return points_mask(self.relabelling[x] for x in mask_points(mask))

    def closure(self, mask: int) -> int:
        got = self._cache.get(mask)
        if got is None:
            got = self._to_new(self._closure_old(self._to_old(mask)))
            self._cache[mask] = got
        return got

    def _closure_old(self, mask: int) -> int:
        if self.kind == "elements":
            sel = self.masks[(self.masks & mask) == mask]
            return int(np.bitwise_and.reduce(sel))
        if self.kind in ("sym", "alt"):
            free = self.degree - mask.bit_count()
            # Sym(n) moves any 2 free points, Alt(n) any 3
            return mask if free >= (2 if self.kind == "sym" else 3) else self.full
        out = 0
        for f, off in zip(self.factors, self.offsets):
            part = (mask >> off) & f.full
            out |= f.closure(part) << off
        return out

    def family(self) -> set[int]:
        """Every closed set."""
        if self.kind == "elements":
            gens = {int(m) for m in np.unique(self.masks)}
            fam = {self.full} | gens
            frontier = set(gens)
            while frontier:
                new = set()
                for a in frontier:
                    for b in gens:
                        c = a & b
                        if c not in fam:
                            new.add(c)
                fam |= new
                frontier = new
            return {self._to_new(m) for m in fam}
        if self.kind in ("sym", "alt"):
            keep = self.degree - (2 if self.kind == "sym" else 3)
            fam = {points_mask(c) for k in range(max(keep, -1) + 1)
                   for c in combinations(range(self.degree), k)}
            fam.add(self.full)
            return {self._to_new(m) for m in fam}
        fam = {0}
        for f, off in zip(self.factors, self.offsets):
            fam = {a | (b << off) for a in fam for b in f.family()}
        return {self._to_new(m) for m in fam}


# -- closed-set lattices --------------------------------------------------------


def sorted_family(masks) -> list[list[int]]:
    pts = [mask_points(m) for m in masks]
    return sorted(pts, key=lambda p: (len(p), p))


def cover_pairs(sets: list[list[int]]) -> list[list[int]]:
    """(i, j) with set j covering set i under containment."""
    masks = np.array([points_mask(s) for s in sets], dtype=np.int64)
    leq = (masks[:, None] & masks[None, :]) == masks[:, None]
    lt = leq & ~np.eye(len(sets), dtype=bool)
    f = lt.astype(np.float32)
    strict = lt & ~((f @ f) > 0)
    return [[int(i), int(j)] for i, j in np.argwhere(strict)]


# -- projective geometry -------------------------------------------------------


def projective_points(p: int, d: int) -> list[tuple[int, ...]]:
    """Rays of GF(p)^(d+1), first nonzero coordinate 1, in lexicographic order."""
    pts = []
    for vec in product(range(p), repeat=d + 1):
        lead = next((x for x in vec if x), 0)
        if lead == 1:
            pts.append(vec)
    return pts


def _normalize(vec, p):
    lead = next(x for x in vec if x)
    inv = pow(lead, p - 2, p)
    return tuple((x * inv) % p for x in vec)


def matrix_action(points, mat, p) -> tuple[int, ...]:
    index = {v: i for i, v in enumerate(points)}
    w = len(points[0])
    return tuple(index[_normalize(tuple(sum(mat[r][c] * v[c] for c in range(w)) % p
                                        for r in range(w)), p)]
                 for v in points)


def rank_mod_p(mat, p) -> int:
    rows = [list(r) for r in mat]
    rank = 0
    width = len(rows[0]) if rows else 0
    for col in range(width):
        piv = next((r for r in range(rank, len(rows)) if rows[r][col] % p), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][col], p - 2, p)
        rows[rank] = [(x * inv) % p for x in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col] % p:
                c = rows[r][col]
                rows[r] = [(x - c * y) % p for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def pgl_order(p: int, d: int) -> int:
    n = d + 1
    total = 1
    for i in range(n):
        total *= p**n - p**i
    return total // (p - 1)


def gaussian_binomial(n: int, k: int, q: int) -> int:
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (k - i) - 1
    return num // den


def subspace_count(p: int, d: int) -> int:
    return sum(gaussian_binomial(d + 1, k, p) for k in range(d + 2))


def subspaces(p: int, d: int) -> set[int]:
    """Every projective subspace of PG(d, p) as a point mask.

    Grown rank by rank: the span of a subspace S and a point x outside it
    is the union of the lines joining x to the points of S.
    """
    pts = projective_points(p, d)
    index = {v: i for i, v in enumerate(pts)}
    n = len(pts)
    line = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            m = (1 << a) | (1 << b)
            for s in range(p):
                vec = tuple((s * x + y) % p for x, y in zip(pts[a], pts[b]))
                if any(vec):
                    m |= 1 << index[_normalize(vec, p)]
            line[a][b] = m
    found = {0}
    level = {0}
    while level:
        nxt = set()
        for s in level:
            members = mask_points(s)
            for x in range(n):
                if not s >> x & 1:
                    m = 1 << x
                    for y in members:
                        m |= line[x][y]
                    if m not in found:
                        nxt.add(m)
        found |= nxt
        level = nxt
    return found


# -- definable closure ---------------------------------------------------------


def dcl_report(closure: ClosureOracle, degree: int, max_arity: int,
               seed: int, exhaustive_limit: int = 12,
               sample_size: int = 512) -> dict:
    """The `group dclcheck` result, derived without orbit relations.

    A point v is the unique completion of a relation tuple with parameter
    set T (|T| = arity - 1) exactly when the pointwise stabilizer of T
    fixes v, so definable closure up to arity a is the least superset
    closed under adding closure(T) for every T of size 1..a-1 inside it.
    The tested subsets follow the documented rule: all of them up to
    ``exhaustive_limit`` points, otherwise a seeded sample that always
    holds the empty and the full set.
    """
    n = degree
    if n <= exhaustive_limit:
        subsets = list(range(1 << n))
    else:
        rng = random.Random(seed)
        chosen = {0, (1 << n) - 1}
        while len(chosen) < sample_size:
            chosen.add(rng.getrandbits(n))
        subsets = sorted(chosen)
    params = {a: [] for a in range(2, max_arity + 1)}
    for a in range(2, max_arity + 1):
        for k in range(1, min(a - 1, n) + 1):
            for t in combinations(range(n), k):
                m = points_mask(t)
                params[a].append((m, closure.closure(m)))
    tables = {a: (np.array([m for m, _ in params[a]] or [0], dtype=np.int64),
                  np.array([c for _, c in params[a]] or [0], dtype=np.int64))
              for a in params}

    def dcl(mask, a):
        tm, tc = tables[a]
        while True:
            inside = (tm & ~mask) == 0
            new = mask | int(np.bitwise_or.reduce(tc[inside])) if inside.any() else mask
            if new == mask:
                return mask
            mask = new

    agreements = 0
    disagreements = []
    ok = {a: True for a in range(2, max_arity + 1)}
    sound = True
    for s in subsets:
        fix = closure.closure(s)
        top = dcl(s, max_arity)
        if top == fix:
            agreements += 1
        else:
            disagreements.append({"points": mask_points(s), "dcl": mask_points(top),
                                  "fixset": mask_points(fix)})
            sound = sound and (top & ~fix) == 0
            ok[max_arity] = False
        for a in range(2, max_arity):
            if ok[a] and dcl(s, a) != fix:
                ok[a] = False
    return {
        "max_arity": max_arity,
        "subsets_tested": len(subsets),
        "agreements": agreements,
        "agreement_rate": agreements / len(subsets),
        "sufficient_arity": next((a for a in sorted(ok) if ok[a]), None),
        "sound": sound,
        "disagreements": disagreements[:32],
    }


# -- structure checks ------------------------------------------------------------


def preserves_covers(perm, covers) -> bool:
    cov = {tuple(c) for c in covers}
    return all((perm[i], perm[j]) in cov for i, j in cov)


def steiner_iso_ok(iso, blocks_a, blocks_b, n: int) -> bool:
    if iso is None or sorted(iso) != list(range(n)):
        return False
    target = {tuple(sorted(b)) for b in blocks_b}
    return {tuple(sorted(iso[x] for x in b)) for b in blocks_a} == target
