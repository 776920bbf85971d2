"""Projective geometry over prime fields.

Points of PG(d, p) are rays of GF(p)^(d+1), represented by the unique
vector whose first nonzero coordinate is 1, generated by the position of
that 1 from last to first and so numbered in lexicographic order. Every
module that acts on projective points uses this numbering, so group-side
and geometry-side computations can be compared element by element.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
from typing import Iterator

from .closure import (LATTICE_CAP, FixsetLattice, closed_set_lattice,
                      enumerate_fixset_lattice)
from .errors import CapacityError, InternalConsistencyError, ValidationError
from .group import PermutationGroup
from .lattice import _check_order_size
from .perm import Permutation, check_mask, points_from_mask

POINT_CAP = 100_000


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def _require_prime(p: int):
    if not is_prime(p):
        raise ValidationError(f"field size {p} is not prime")


def inverse_table(p: int) -> tuple[int, ...]:
    """Multiplicative inverses mod p (index 0 unused)."""
    return tuple(pow(x, p - 2, p) if x else 0 for x in range(p))


def normalize(vec: tuple[int, ...], p: int, inv: tuple[int, ...]) -> tuple[int, ...]:
    for x in vec:
        if x:
            scale = inv[x]
            return tuple((c * scale) % p for c in vec)
    raise ValidationError("zero vector has no projective point")


@dataclass(frozen=True)
class ProjectiveSpace:
    p: int
    d: int
    points: tuple[tuple[int, ...], ...]
    _index: dict = field(default_factory=dict, repr=False, compare=False)
    _lines: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        self._index.update({v: i for i, v in enumerate(self.points)})

    @property
    def num_points(self) -> int:
        return len(self.points)

    def index_of(self, vec: tuple[int, ...]) -> int:
        return self._index[vec]

    def line_mask(self, a: int, x: int) -> int:
        """Mask of the line through distinct points a and x, kept once asked
        for: {a} and every [c·a + x], c in GF(p), with a < x."""
        if a > x:
            a, x = x, a
        mask = self._lines.get((a, x))
        if mask is None:
            p, inv = self.p, inverse_table(self.p)
            va, vx = self.points[a], self.points[x]
            mask = 1 << a
            for c in range(p):
                vec = tuple((c * u + w) % p for u, w in zip(va, vx))
                mask |= 1 << self._index[normalize(vec, p, inv)]
            self._lines[(a, x)] = mask
        return mask


def projective_point_count(p: int, d: int) -> int:
    return (p ** (d + 1) - 1) // (p - 1)


def projective_points(p: int, d: int) -> ProjectiveSpace:
    """Canonical point list of PG(d, p).

    PG(d, p) has more than p and more than 2^d points, so a p or d past the
    cap is rejected before the count or the primality test is computed.
    """
    if d < 1:
        raise ValidationError("projective dimension must be at least 1")
    if p >= 2 and (p > POINT_CAP or d >= POINT_CAP.bit_length()):
        raise CapacityError(f"PG({d},{p}) has more points than cap {POINT_CAP}",
                            cap_name="points")
    _require_prime(p)
    count = projective_point_count(p, d)
    if count > POINT_CAP:
        raise CapacityError(f"{count} points exceed cap {POINT_CAP}", cap_name="points")
    pts = [(0,) * lead + (1,) + tail for lead in range(d, -1, -1)
           for tail in product(range(p), repeat=d - lead)]
    if len(pts) != count:
        raise InternalConsistencyError(
            f"PG({d},{p}) listed {len(pts)} points, expected {count}")
    return ProjectiveSpace(p, d, tuple(pts))


def span_closure(space: ProjectiveSpace, mask: int) -> int:
    """Mask of the projective subspace spanned by the points of a mask.

    Points join one at a time: a subspace A grows by x to A, x and the
    lines from x to A, since every [αa + βx] lies on the line through a, x.
    """
    todo = check_mask(mask, space.num_points)
    span = 0
    while todo:
        x = (todo & -todo).bit_length() - 1
        for a in points_from_mask(span):
            span |= space.line_mask(a, x)
        span |= 1 << x
        todo &= ~span
    return span


def pgl_order(p: int, d: int) -> int:
    n = d + 1
    total = 1
    for i in range(n):
        total *= p**n - p**i
    return total // (p - 1)


def _matrices(p: int, n: int) -> Iterator[list[list[int]]]:
    """Generating matrices for GL(n, p): an n-cycle, a transvection and,
    for p > 2, a primitive-root dilation to reach every determinant."""
    yield [[1 if r == (c + 1) % n else 0 for c in range(n)] for r in range(n)]
    yield [[1 if r == c else (1 if (r, c) == (0, 1) else 0) for c in range(n)]
           for r in range(n)]
    if p > 2:
        root = next(g for g in range(2, p)
                    if len({pow(g, k, p) for k in range(p - 1)}) == p - 1)
        yield [[root if r == c == 0 else (1 if r == c else 0) for c in range(n)]
               for r in range(n)]


def matrix_to_point_permutation(space: ProjectiveSpace,
                                mat: list[list[int]]) -> Permutation:
    p = space.p
    inv = inverse_table(p)
    width = space.d + 1
    images = []
    for vec in space.points:
        img = tuple(sum(mat[r][c] * vec[c] for c in range(width)) % p
                    for r in range(width))
        images.append(space.index_of(normalize(img, p, inv)))
    return Permutation(images)


def pgl_generators(p: int, d: int) -> PermutationGroup:
    """The projective linear group as a permutation group on PG(d, p).

    The induced action is verified against the closed-form order; any
    mismatch means the generating matrices were wrong for this (p, d).
    """
    space = projective_points(p, d)
    # lazy, so the group checks its degree cap before any matrix is built
    G = PermutationGroup(space.num_points, (matrix_to_point_permutation(space, m)
                                            for m in _matrices(p, d + 1)))
    expected = pgl_order(p, d)
    got = G.order()
    if got != expected:
        raise InternalConsistencyError(
            f"PGL({d + 1},{p}) action has order {got}, expected {expected}")
    return G


def gaussian_binomial(n: int, k: int, q: int) -> int:
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (k - i) - 1
    if num % den:
        raise InternalConsistencyError(
            f"Gaussian binomial [{n} {k}]_{q}: {den} does not divide {num}")
    return num // den


def subspace_count(p: int, d: int) -> int:
    """Total number of projective subspaces of PG(d, p), empty and full included."""
    return sum(gaussian_binomial(d + 1, k, p) for k in range(d + 2))


def subspace_lattice(p: int, d: int, cap: int = LATTICE_CAP) -> FixsetLattice:
    """All projective subspaces of PG(d, p): the closed sets of the span
    closure, enumerated by the same cover generation as fixsets, with no
    symmetry passed. The closed-form count is checked against ``cap`` and
    the order-matrix cap (which ``covers`` needs) before the walk, with the
    errors the walk and the order matrix would raise.
    """
    space = projective_points(p, d)
    count = subspace_count(p, d)
    if count > cap:
        raise CapacityError(f"closed-set lattice exceeds cap {cap}",
                            cap_name="lattice", partial=cap + 1)
    _check_order_size(count)
    return closed_set_lattice(space.num_points,
                              lambda mask: (span_closure(space, mask), ()),
                              cap)


def oracle_iso_check(p: int, d: int, cap: int = LATTICE_CAP) -> bool:
    """Do the fixsets of the PGL action coincide with the projective subspaces?

    Both lattices are ordered by containment of point sets, so coincidence
    of the families is exactly an order isomorphism through the identity on
    points. Both list their masks in (size, points) order.
    """
    G = pgl_generators(p, d)
    return (enumerate_fixset_lattice(G, cap=cap).masks
            == subspace_lattice(p, d, cap=cap).masks)
