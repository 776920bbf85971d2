"""Finite permutation groups given by generators.

Orders, membership and pointwise stabilizers come from deterministic
stabilizer chains. As G_S = G_F for the closed set F = fix(G_S), pointwise
stabilizers live in a tower keyed by point mask: G under 0, and G_{F+x}
under F | {x} for each closed F reached and point x outside it. Each is a
level of an existing chain conjugated by a known permutation, so a fresh
chain is built only when x lies outside that level's basic orbit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, NamedTuple, Optional, Sequence

from ._chain import StabilizerChain, compose
from .errors import CapacityError, PreconditionError, ValidationError
from .perm import Permutation, mask_from_points, points_from_mask

DEGREE_CAP = 4096
TUPLE_SPACE_CAP = 5_000_000


class _Stab(NamedTuple):
    """The pointwise stabilizer G_F of a closed set F, as a tower record.

    G_F is level ``level`` of ``chain`` conjugated by ``w``: the elements
    w^-1 h w (apply w^-1, then h, then w) for h fixing the chain's first
    ``level`` base points. ``gens`` generate G_F, ``order`` is |G_F| and
    ``fixed`` is the mask of F = fix(G_F).
    """

    gens: tuple
    order: int
    chain: StabilizerChain
    level: int
    w: tuple
    w_inv: tuple
    fixed: int


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


def _point_orbits(mask: int, gens: Sequence[tuple[int, ...]]) -> list[int]:
    """The orbit masks of gens through the points of a mask, in order of
    least point, by one breadth-first search per orbit. Each orbit is
    whole: with mask 1 << x, the one orbit returned is that of x."""
    out = []
    while mask:
        x = (mask & -mask).bit_length() - 1
        orbit = 1 << x
        queue = [x]
        for y in queue:
            for g in gens:
                z = g[y]
                if not orbit >> z & 1:
                    orbit |= 1 << z
                    queue.append(z)
        out.append(orbit)
        mask &= ~orbit
    return out


def _stab_record(chain: StabilizerChain, level: int, w: tuple,
                 w_inv: tuple) -> _Stab:
    gens = chain.stabilizer_generators(level)
    if w != chain._ident:
        gens = tuple(tuple(w[h[i]] for i in w_inv) for h in gens)
    return _Stab(gens, chain.order(level), chain, level, w, w_inv,
                 _fixed_mask(chain.degree, gens))


class PermutationGroup:
    """Subgroup of Sym(n) generated by explicit permutations.

    Instances are immutable in every observable way; internal caches only
    memoize derived data. Equality of groups is mathematical (mutual
    membership of generators), never equality of generator lists.
    """

    def __init__(self, degree: int, generators: Iterable = ()):
        """Generators may be Permutations, image lists or cycle strings."""
        if degree < 1:
            raise ValidationError("degree must be at least 1")
        if degree > DEGREE_CAP:
            raise CapacityError(
                f"degree {degree} exceeds cap {DEGREE_CAP}", cap_name="degree")
        gens = []
        for g in generators:
            if isinstance(g, str):
                g = Permutation.from_cycles(g, degree)
            elif not isinstance(g, Permutation):
                g = Permutation(g)
            if g.degree != degree:
                raise ValidationError(
                    f"generator degree {g.degree} != group degree {degree}")
            if not g.is_identity():
                gens.append(g)
        self.degree = degree
        self.generators = tuple(gens)
        self._gen_tuples = tuple(g.images for g in gens)
        self._chain: Optional[StabilizerChain] = None
        self._order: Optional[int] = None
        self._stab_gens_cache: dict[int, _Stab] = {}
        self._closure_cache: dict[int, int] = {}

    # -- construction helpers ------------------------------------------------

    @classmethod
    def trivial(cls, degree: int) -> "PermutationGroup":
        return cls(degree, [])

    @classmethod
    def symmetric(cls, n: int) -> "PermutationGroup":
        if n == 1:
            return cls.trivial(1)
        swap = [1, 0] + list(range(2, n))
        cycle = list(range(1, n)) + [0]
        return cls(n, [Permutation(swap), Permutation(cycle)])

    @classmethod
    def alternating(cls, n: int) -> "PermutationGroup":
        if n < 3:
            return cls.trivial(n)
        gens = ["(0 1 2)"]
        if n > 3:
            if n % 2:
                gens.append(Permutation(list(range(1, n)) + [0]))
            else:
                gens.append(Permutation([0] + list(range(2, n)) + [1]))
        return cls(n, gens)

    @classmethod
    def cyclic(cls, n: int) -> "PermutationGroup":
        return cls(n, [Permutation(list(range(1, n)) + [0])]) if n > 1 else cls.trivial(n)

    @classmethod
    def dihedral(cls, n: int) -> "PermutationGroup":
        """Symmetries of a regular n-gon on vertices 0..n-1."""
        rot = Permutation([(i + 1) % n for i in range(n)])
        flip = Permutation([(-i) % n for i in range(n)])
        return cls(n, [rot, flip])

    # -- chain plumbing -------------------------------------------------------

    def _base_chain(self) -> StabilizerChain:
        if self._chain is None:
            self._chain = StabilizerChain(self.degree, self._gen_tuples,
                                          order=self._order)
        return self._chain

    def _stabilizer(self, mask: int) -> _Stab:
        """Tower record of the pointwise stabilizer of a point mask S.

        From the record of S itself if cached, else from G, each step takes
        the least point x of S outside the record's closed set F and moves
        to the record under F | {x}, built if absent: with y = w^-1(x), if
        the transversal element u at the record's level maps the base point
        to y, G_{F+x} is the next level conjugated by u w; otherwise a chain
        is built for G_F with base (x,), stopped at |G_F|. The last record's
        F contains S and is the closure of a subset of S, so it is G_S.
        """
        cache = self._stab_gens_cache
        if not cache:
            chain = self._base_chain()
            cache[0] = _Stab(self._gen_tuples, self.order(), chain, 0,
                             chain._ident, chain._ident,
                             _fixed_mask(self.degree, self._gen_tuples))
        rec = cache.get(mask, cache[0])
        rest = mask & ~rec.fixed
        while rest:
            x = (rest & -rest).bit_length() - 1
            key = rec.fixed | 1 << x
            nxt = cache.get(key)
            if nxt is None:
                chain, level = rec.chain, rec.level
                y = rec.w_inv[x]
                u = chain.transversals[level].get(y)
                if u is None:
                    chain = StabilizerChain(self.degree, rec.gens,
                                            base_prefix=(x,), order=rec.order)
                    nxt = _stab_record(chain, 1, chain._ident, chain._ident)
                else:
                    nxt = _stab_record(
                        chain, level + 1, compose(u, rec.w),
                        compose(rec.w_inv, chain.inv_transversals[level][y]))
                cache[key] = nxt
            rec = nxt
            rest = mask & ~rec.fixed
        return rec

    # -- fundamental operations ----------------------------------------------

    def order(self) -> int:
        if self._order is None:
            self._order = self._base_chain().order()
        return self._order

    def contains(self, p: Permutation) -> bool:
        if not isinstance(p, Permutation):
            p = Permutation(p)
        if p.degree != self.degree:
            raise ValidationError(
                f"permutation degree {p.degree} != group degree {self.degree}")
        return self._base_chain().contains(p.images)

    def equals(self, other: "PermutationGroup") -> bool:
        """Same subgroup of Sym(degree), tested by mutual membership."""
        if self.degree != other.degree:
            return False
        return (all(other.contains(g) for g in self.generators)
                and all(self.contains(g) for g in other.generators))

    def is_subgroup_of(self, other: "PermutationGroup") -> bool:
        return (self.degree == other.degree
                and all(other.contains(g) for g in self.generators))

    def orbit(self, x: int) -> tuple[int, ...]:
        mask = mask_from_points([x], self.degree)
        return points_from_mask(_point_orbits(mask, self._gen_tuples)[0])

    def orbits(self) -> tuple[tuple[int, ...], ...]:
        full = (1 << self.degree) - 1
        return tuple(map(points_from_mask, _point_orbits(full, self._gen_tuples)))

    def is_transitive(self) -> bool:
        return len(self.orbits()) == 1

    def pointwise_stabilizer(self, points: Iterable[int]) -> "PermutationGroup":
        """Largest subgroup fixing every listed point individually."""
        rec = self._stabilizer(mask_from_points(points, self.degree))
        group = PermutationGroup(self.degree, [Permutation(g) for g in rec.gens])
        group._order = rec.order
        return group

    def transitivity_degree(self, k_max: int) -> int:
        """Largest k <= k_max with a single orbit on distinct k-tuples.

        G is k-transitive iff, for every i < k, the pointwise stabilizer of
        the points 0..i-1 has one orbit on the other points.
        """
        if k_max < 1:
            raise ValidationError("k_max must be at least 1")
        full = (1 << self.degree) - 1
        k = min(k_max, self.degree)
        for i in range(k):
            fixed = (1 << i) - 1
            if _point_orbits(1 << i, self._stabilizer(fixed).gens)[0] != full & ~fixed:
                return i
        return k

    # -- primitivity -----------------------------------------------------------

    def _finest_blocks_merging(self, a: int, b: int) -> tuple[tuple[int, ...], ...]:
        """Finest invariant partition with a and b in one block (union-find)."""
        parent = list(range(self.degree))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        queue = [(a, b)]
        ra, rb = find(a), find(b)
        parent[max(ra, rb)] = min(ra, rb)
        while queue:
            x, y = queue.pop()
            for g in self._gen_tuples:
                rx, ry = find(g[x]), find(g[y])
                if rx != ry:
                    parent[max(rx, ry)] = min(rx, ry)
                    queue.append((g[x], g[y]))
        groups: dict[int, list[int]] = {}
        for x in range(self.degree):
            groups.setdefault(find(x), []).append(x)
        return tuple(sorted(tuple(sorted(v)) for v in groups.values()))

    def primitivity(self) -> "PrimitivityResult":
        """Primitivity test; an imprimitive action yields a block-system witness.

        The witness is the lexicographically least partition among the
        refinement-minimal non-trivial invariant ones. Each such partition
        p is finest(0, b) for some b, and a non-trivial finest(0, b) is
        minimal iff finest(0, c) equals it for every c != 0 in its block
        of 0: a strictly finer system would hold some finest(0, c).
        """
        if not self.is_transitive():
            raise PreconditionError("primitivity is defined for transitive actions")
        if self.degree <= 2:
            return PrimitivityResult(True, None)
        finest = [None] + [self._finest_blocks_merging(0, b)
                           for b in range(1, self.degree)]
        minimal = [p for p in set(finest[1:]) if len(p) > 1
                   and all(finest[c] == p for c in p[0][1:])]
        if not minimal:
            return PrimitivityResult(True, None)
        return PrimitivityResult(False, min(minimal))

    def __repr__(self) -> str:
        return (f"PermutationGroup(degree={self.degree}, "
                f"generators={len(self.generators)})")


@dataclass(frozen=True)
class PrimitivityResult:
    primitive: bool
    block_system: Optional[tuple[tuple[int, ...], ...]]
