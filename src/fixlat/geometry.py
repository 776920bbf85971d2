"""Projective geometry over prime fields.

Points of PG(d, p) are rays of GF(p)^(d+1), represented by the unique
vector whose first nonzero coordinate is 1 and numbered in lexicographic
order of those vectors. Every module that acts on projective points uses
this numbering, so group-side and geometry-side computations can be
compared element by element.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
from typing import Iterable

from .closure import LATTICE_CAP, closed_set_lattice, enumerate_fixset_lattice
from .errors import CapacityError, InternalConsistencyError, ValidationError
from .group import PermutationGroup
from .lattice import FiniteLattice
from .perm import Permutation, mask_from_points, points_from_mask

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

    def __post_init__(self):
        self._index.update({v: i for i, v in enumerate(self.points)})

    @property
    def num_points(self) -> int:
        return len(self.points)

    def index_of(self, vec: tuple[int, ...]) -> int:
        return self._index[vec]


def projective_point_count(p: int, d: int) -> int:
    return (p ** (d + 1) - 1) // (p - 1)


def projective_points(p: int, d: int, cap: int = POINT_CAP) -> ProjectiveSpace:
    """Canonical point list of PG(d, p)."""
    _require_prime(p)
    if d < 1:
        raise ValidationError("projective dimension must be at least 1")
    count = projective_point_count(p, d)
    if count > cap:
        raise CapacityError(f"{count} points exceed cap {cap}", cap_name="points")
    pts = []
    for vec in product(range(p), repeat=d + 1):
        for x in vec:
            if x:
                if x == 1:
                    pts.append(vec)
                break
    if len(pts) != count:
        raise InternalConsistencyError(
            f"PG({d},{p}) listed {len(pts)} points, expected {count}")
    return ProjectiveSpace(p, d, tuple(pts))


def _row_reduce(vectors: list[tuple[int, ...]], p: int,
                inv: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Row-echelon basis of the span, pivots scaled to 1."""
    basis: list[list[int]] = []
    pivots: list[int] = []
    width = len(vectors[0]) if vectors else 0
    for vec in vectors:
        row = list(vec)
        for b, piv in zip(basis, pivots):
            if row[piv]:
                c = row[piv]
                row = [(x - c * y) % p for x, y in zip(row, b)]
        piv = next((i for i in range(width) if row[i]), None)
        if piv is None:
            continue
        scale = inv[row[piv]]
        row = [(x * scale) % p for x in row]
        at = next((k for k, q in enumerate(pivots) if q > piv), len(pivots))
        basis.insert(at, row)
        pivots.insert(at, piv)
    return [tuple(b) for b in basis]


def span_closure(space: ProjectiveSpace, points: Iterable[int]) -> tuple[int, ...]:
    """All points in the projective subspace spanned by the given ones."""
    pts = sorted(set(points))
    for x in pts:
        if not (0 <= x < space.num_points):
            raise ValidationError(f"point {x} out of range")
    if not pts:
        return ()
    p = space.p
    inv = inverse_table(p)
    basis = _row_reduce([space.points[i] for i in pts], p, inv)
    width = space.d + 1
    out = set()
    for coeffs in product(range(p), repeat=len(basis)):
        if not any(coeffs):
            continue
        vec = tuple(sum(c * b[i] for c, b in zip(coeffs, basis)) % p
                    for i in range(width))
        out.add(space.index_of(normalize(vec, p, inv)))
    return tuple(sorted(out))


def pgl_order(p: int, d: int) -> int:
    n = d + 1
    total = 1
    for i in range(n):
        total *= p**n - p**i
    return total // (p - 1)


def _matrices(p: int, n: int) -> list[list[list[int]]]:
    """Generating matrices for GL(n, p): an n-cycle, a transvection and,
    for p > 2, a primitive-root dilation to reach every determinant."""
    cycle = [[1 if r == (c + 1) % n else 0 for c in range(n)] for r in range(n)]
    trans = [[1 if r == c else (1 if (r, c) == (0, 1) else 0) for c in range(n)]
             for r in range(n)]
    mats = [cycle, trans]
    if p > 2:
        root = next(g for g in range(2, p)
                    if len({pow(g, k, p) for k in range(p - 1)}) == p - 1)
        dil = [[root if r == c == 0 else (1 if r == c else 0) for c in range(n)]
               for r in range(n)]
        mats.append(dil)
    return mats


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


def pgl_generators(p: int, d: int, cap: int = POINT_CAP) -> PermutationGroup:
    """The projective linear group as a permutation group on PG(d, p).

    The induced action is verified against the closed-form order; any
    mismatch means the generating matrices were wrong for this (p, d).
    """
    space = projective_points(p, d, cap=cap)
    gens = [matrix_to_point_permutation(space, m) for m in _matrices(p, d + 1)]
    G = PermutationGroup(space.num_points, gens)
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


def subspace_lattice(p: int, d: int, cap: int = LATTICE_CAP) -> FiniteLattice:
    """All projective subspaces of PG(d, p) as a containment lattice.

    The subspaces are the closed sets of the span closure, enumerated by
    the same cover generation as fixsets. Lattice labels are the subspaces
    as sorted point tuples.
    """
    space = projective_points(p, d)
    n = space.num_points

    def span_mask(mask: int) -> int:
        return mask_from_points(span_closure(space, points_from_mask(mask)), n)

    return closed_set_lattice(n, span_mask, cap).to_finite_lattice()


def oracle_iso_check(p: int, d: int, cap: int = LATTICE_CAP) -> bool:
    """Do the fixsets of the PGL action coincide with the projective subspaces?

    Both lattices are ordered by containment of point sets, so coincidence
    of the element families is exactly an order isomorphism through the
    identity on points.
    """
    G = pgl_generators(p, d)
    fix_elements = set(enumerate_fixset_lattice(G, cap=cap).elements)
    sub_elements = set(subspace_lattice(p, d, cap=cap).labels)
    return fix_elements == sub_elements
