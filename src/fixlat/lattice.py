"""Explicit finite lattices: validation, automorphisms, reconstruction.

A lattice is stored as its full order relation (a boolean matrix).
Automorphisms act on the join-irreducibles (the atoms, when the lattice
is atomistic), and that action determines them. The group comes first,
as transversals along the join-irreducibles 0..m-1, from a few pinned
runs of the set-family bijection search that also compares Steiner
systems. The printed generators are those the Sims filter keeps from
the lexicographic listing of all automorphisms, so that listing is
rebuilt from the transversals in numpy, as int16, and filtered with all
rows moving through the filter's levels together
(``_chain.sims_filter_rows``). The listing's length is the group order,
so the stabilizer chain of the filtered generators is built against it,
which also checks it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache, reduce
from math import prod
from typing import Optional, Sequence

import numpy as np

from ._chain import orbit_transversal, sims_filter_rows
from .errors import (CapacityError, InternalConsistencyError,
                     PreconditionError, ValidationError)
from .group import TUPLE_SPACE_CAP, PermutationGroup
from .perm import Permutation, mask_rows, points_from_mask, row_masks

AUTOMORPHISM_CAP = 128
LATTICE_CAP = 200_000
# Elements of a dense n-by-n order matrix. At peak, as measured with
# tracemalloc, covers and transitive closure take about 10 n^2 bytes
# (640 MiB at the cap), and the int64 meet/join tables with the order
# matrix and the checks on them about 22 n^2 (1.4 GiB).
ORDER_MATRIX_CAP = 8_192


def _check_order_size(n: int) -> None:
    """Raise before an n-by-n order matrix is allocated over the cap."""
    if n > ORDER_MATRIX_CAP:
        raise CapacityError(
            f"order matrix of {n} elements exceeds cap {ORDER_MATRIX_CAP}",
            cap_name="order_matrix")


def order_violations(leq: np.ndarray) -> list[dict]:
    """Axiom violations of a would-be lattice order, as data."""
    return _lattice_tables(leq)[0]


def _lattice_tables(leq: np.ndarray) -> tuple[list[dict], Optional[np.ndarray],
                                            Optional[np.ndarray]]:
    """(violations, meet table, join table) of an order matrix, in one pass.

    The order axioms are checked first. If they hold, the meet of i and j
    is the element whose down-set is the intersection of theirs, and the
    join dually on up-sets; a pair without one reads -1 in that table. The
    first such pair, row-major over i <= j with meet before join, is the
    single violation. The tables are None whenever a violation is listed.
    """
    leq = np.asarray(leq, dtype=bool)
    if leq.ndim != 2 or leq.shape[0] != leq.shape[1] or leq.shape[0] < 1:
        raise ValidationError(
            f"order matrix shape {leq.shape} is not n-by-n with n >= 1")
    n = leq.shape[0]
    _check_order_size(n)
    out = []
    if not leq.diagonal().all():
        i = int(np.flatnonzero(~leq.diagonal())[0])
        out.append({"kind": "not-reflexive", "element": i})
    sym = leq & leq.T & ~np.eye(n, dtype=bool)
    if sym.any():
        i, j = map(int, np.argwhere(sym)[0])
        out.append({"kind": "not-antisymmetric", "pair": (i, j)})
    f = leq.astype(np.float32)
    gaps = ((f @ f) > 0) & ~leq  # exact while n < 2^24
    del f  # 4 n^2 bytes, not held while the tables are built
    if gaps.any():
        i, j = map(int, np.argwhere(gaps)[0])
        out.append({"kind": "not-transitive", "pair": (i, j)})
    if out:
        return out, None, None
    meet_table = _bound_table(leq.T)
    join_table = _bound_table(leq)
    missing = np.triu((meet_table < 0) | (join_table < 0))
    if missing.any():
        i, j = map(int, np.argwhere(missing)[0])
        kind = "missing-meet" if meet_table[i, j] < 0 else "missing-join"
        return [{"kind": kind, "pair": (i, j)}], None, None
    return [], meet_table, join_table


def _bound_table(sets: np.ndarray) -> np.ndarray:
    """table[i, j] = the k with sets[k] == sets[i] & sets[j], or -1 if none.

    Each row is packed to an int mask (Ait-Kaci, Boyer, Lincoln & Nasr
    1989), and mi & m is looked up, exactly, in a dict keyed by the masks.
    The rows must be distinct.
    """
    masks = row_masks(sets)
    index = {m: k for k, m in enumerate(masks)}
    table = np.empty((len(masks), len(masks)), dtype=np.int64)
    for i, mi in enumerate(masks):
        table[i] = [index.get(mi & m, -1) for m in masks]
    return table


def containment_order(masks: Sequence[int], width: int) -> np.ndarray:
    """leq[i, j] = (masks[i] is a subset of masks[j]), masks over width points.

    Counts, for each pair, the points of masks[i] missing from masks[j]
    as one float32 product of the incidence matrix with its complement;
    the counts are at most width, so they are exact.
    """
    _check_order_size(len(masks))
    inc = mask_rows(masks, width).astype(np.float32)
    return (inc @ (1 - inc).T) == 0


def order_covers(leq: np.ndarray) -> tuple[tuple[int, int], ...]:
    """Cover pairs (i, j), j covering i, of an order matrix, in row-major order.

    j covers i when i < j and no k lies strictly between; the number of
    such k is one float32 product of the strict order with itself.
    """
    _check_order_size(leq.shape[0])
    lt = leq & ~np.eye(leq.shape[0], dtype=bool)
    f = lt.astype(np.float32)
    strict = lt & ((f @ f) == 0)
    i, j = np.nonzero(strict)
    return tuple(zip(i.tolist(), j.tolist()))


def order_from_covers(size: int, covers: Sequence[tuple[int, int]]) -> np.ndarray:
    """Reflexive-transitive closure of cover pairs (i, j), j covering i.

    The relation is squared until it stops growing; it is reflexive, so
    each square contains it. Squares are float32 products, exact while
    size < 2^24.
    """
    _check_order_size(size)
    leq = np.eye(size, dtype=bool)
    for i, j in covers:
        if not (0 <= i < size and 0 <= j < size):
            raise ValidationError(f"cover pair {(i, j)} out of range")
        leq[i, j] = True
    while True:
        f = leq.astype(np.float32)
        new = (f @ f) > 0
        if np.array_equal(new, leq):
            return leq
        leq = new


class FiniteLattice:
    """A validated finite lattice: its order matrix and meet/join lookup tables."""

    def __init__(self, leq: np.ndarray):
        leq = np.asarray(leq, dtype=bool)
        problems, self.meet_table, self.join_table = _lattice_tables(leq)
        if problems:
            raise ValidationError(f"not a lattice: {problems[0]}")
        self.leq = leq
        self.leq.setflags(write=False)
        self.size = leq.shape[0]
        self.bottom = int(np.flatnonzero(leq.all(axis=1))[0])
        self.top = int(np.flatnonzero(leq.all(axis=0))[0])

    @classmethod
    def from_covers(cls, size: int, covers: Sequence[tuple[int, int]]) -> FiniteLattice:
        """Build from cover pairs (i, j) meaning j covers i."""
        return cls(order_from_covers(size, covers))

    def covers(self) -> tuple[tuple[int, int], ...]:
        """Cover pairs (i, j), j covering i, computed once per lattice."""
        return self._covers

    @cached_property
    def _covers(self) -> tuple[tuple[int, int], ...]:
        return order_covers(self.leq)

    def __repr__(self):
        return f"FiniteLattice(size={self.size})"


def _element(L: FiniteLattice, e: int) -> int:
    """e as an element index of L: a plain int (not a bool or a float),
    and negative indices do not wrap."""
    if type(e) is not int or not 0 <= e < L.size:
        raise ValidationError(f"element {e!r} out of range for a lattice of "
                              f"size {L.size}")
    return e


def _fold(L: FiniteLattice, table: np.ndarray, elements: Sequence[int],
          name: str) -> int:
    elems = [_element(L, e) for e in elements]
    if not elems:
        raise PreconditionError(f"{name} of an empty set is not defined here")
    return reduce(lambda a, b: int(table[a, b]), elems)


def meet(L: FiniteLattice, elements: Sequence[int]) -> int:
    return _fold(L, L.meet_table, elements, "meet")


def join(L: FiniteLattice, elements: Sequence[int]) -> int:
    return _fold(L, L.join_table, elements, "join")


def atoms(L: FiniteLattice) -> tuple[int, ...]:
    """Covers of the bottom element: the elements whose down-set is {bottom, itself}."""
    return tuple(int(a) for a in np.flatnonzero(L.leq.sum(axis=0) == 2))


def lower_cone(L: FiniteLattice, l: int) -> tuple[int, ...]:
    return tuple(int(x) for x in np.flatnonzero(L.leq[:, _element(L, l)]))


def is_atomistic(L: FiniteLattice) -> bool:
    """Every element is the join of the atoms below it; in a finite
    lattice, that holds iff every join-irreducible is an atom."""
    return join_irreducibles(L) == atoms(L)


# ---------------------------------------------------------------------------
# automorphisms


def _profiles(n: int, family) -> list[tuple[int, ...]]:
    """For each point, the sorted sizes of the sets containing it."""
    sizes = [[] for _ in range(n)]
    for m in family:
        for x in points_from_mask(m):
            sizes[x].append(m.bit_count())
    return [tuple(sorted(s)) for s in sizes]


@lru_cache(maxsize=1)
def _search_tables(n: int, family_a: frozenset, family_b: frozenset):
    """(candidates, closing, completing) for family_bijections, or None
    when the families cannot match; kept for the pinned searches that
    repeat one pair of families."""
    if len(family_a) != len(family_b) or (0 in family_a) != (0 in family_b):
        return None
    prof_a = _profiles(n, family_a)
    prof_b = prof_a if family_b == family_a else _profiles(n, family_b)
    if sorted(prof_a) != sorted(prof_b):
        return None
    candidates = [{c for c in range(n) if prof_b[c] == prof_a[x]} for x in range(n)]
    closing = [[] for _ in range(n)]  # per set whose highest point is x, its other points
    for m in family_a:
        if m:
            x = m.bit_length() - 1
            closing[x].append(points_from_mask(m ^ 1 << x))
    completing = {}  # a set of family_b minus one point -> the points it can miss
    for m in family_b:
        for y in points_from_mask(m):
            completing.setdefault(m ^ 1 << y, set()).add(y)
    return candidates, closing, completing


def family_bijections(n: int, family_a, family_b, first: bool = False,
                      prefix: Sequence[int] = ()) -> list[tuple[int, ...]]:
    """Bijections p of range(n) with {p(S) : S in family_a} == family_b.

    Families are sets of point masks over n points. Points are assigned in
    index order and images tried in increasing order, so the bijections
    come out in lexicographic order of their image tuples; with first=True
    the search stops at the first, and prefix pins the images of the first
    points. A point's image must have its profile (the sorted sizes of the
    sets containing it), and each set of family_a is checked once, when
    its highest point is assigned. The families have equal sizes, so a map
    sending every set into family_b is onto.
    """
    tables = _search_tables(n, frozenset(family_a), frozenset(family_b))
    if tables is None:
        return []
    candidates, closing, completing = tables
    candidates = ([{c} & cands for c, cands in zip(prefix, candidates)]
                  + candidates[len(prefix):])
    found = []
    bit = [0] * n  # bit[x] = 1 << image of x
    free = set(range(n))

    def backtrack(x):
        if x == n:
            found.append(tuple(b.bit_length() - 1 for b in bit))
            return first
        fits = (completing.get(sum(map(bit.__getitem__, pts)), ()) for pts in closing[x])
        for c in sorted(free.intersection(candidates[x], *fits)):
            bit[x] = 1 << c
            free.remove(c)
            if backtrack(x + 1):
                return True
            free.add(c)
        return False

    backtrack(0)
    return found


def _lower_covers(L: FiniteLattice) -> list[list[int]]:
    lower = [[] for _ in range(L.size)]
    for y, x in L.covers():
        lower[x].append(y)
    return lower


def join_irreducibles(L: FiniteLattice) -> tuple[int, ...]:
    """The elements with exactly one lower cover."""
    return tuple(x for x, below in enumerate(_lower_covers(L)) if len(below) == 1)


def _transversals(m: int, family) -> list[dict[int, tuple[int, ...]]]:
    """The automorphisms of a family of point masks, as transversals along 0..m-1.

    Level i maps each point u of the orbit of i under the automorphisms
    fixing 0..i-1 to one of them that sends i to u; the group order is the
    product of the orbit lengths. Levels are found from the last: the
    generators found so far fix 0..i-1, and each point c > i with the
    profile of i but outside its orbit under them costs one search pinned
    at (0, ..., i-1, c), whose hit becomes a generator (Leon 1991, coset
    pruning).
    """
    profile = _profiles(m, family)
    gens = []
    levels = [None] * m
    for i in reversed(range(m)):
        orbit = orbit_transversal(i, gens, tuple(range(m)))
        for c in range(i + 1, m):
            if profile[c] == profile[i] and c not in orbit:
                hit = family_bijections(m, family, family, first=True,
                                        prefix=(*range(i), c))
                if hit:
                    gens.append(hit[0])
                    orbit = orbit_transversal(i, gens, tuple(range(m)))
        levels[i] = orbit
    return levels


def _listing(m: int, levels) -> np.ndarray:
    """Every product t_0 t_1 ... t_{m-1} (t_{m-1} applied first) of one
    element t_i of each level's transversal, in lexicographic order.

    Each automorphism is one such product. The rows grow one level at a
    time: a row s whose images of 0..i-1 are final gets the children s t_u,
    which keep those images and send i to s(u), sorted by that image.
    Distinct rows differ on 0..i-1, so the order stays lexicographic.
    """
    rows = np.arange(m, dtype=np.int16)[None, :]
    for level in levels:
        images = np.array(list(level), dtype=np.intp)
        reps = np.array(list(level.values()), dtype=np.intp).reshape(len(level), m)
        order = np.argsort(rows[:, images], axis=1)
        rows = np.take_along_axis(rows[:, reps], order[:, :, None], axis=1)
        rows = rows.reshape(-1, m)
    return rows


def _irreducible_automorphisms(L: FiniteLattice) -> np.ndarray:
    """Automorphisms in lexicographic order of their join-irreducible images.

    An element x is the join of the set J(x) of join-irreducibles below
    it, and x <= y iff J(x) is inside J(y); so the automorphisms are the
    permutations of the join-irreducibles that map the family {J(x)} onto
    itself, and each sends x to the join of the images of J(x). The group
    order is known from the transversals before the listing is allocated.
    """
    lower = _lower_covers(L)
    irr = np.array([x for x, below in enumerate(lower) if len(below) == 1],
                   dtype=np.intp)
    m = len(irr)
    family = set(row_masks(L.leq[irr].T))
    levels = _transversals(m, family)
    count = prod(map(len, levels))
    if count * L.size > TUPLE_SPACE_CAP:
        raise CapacityError(
            f"listing {count} automorphisms of {L.size} elements exceeds cap "
            f"{TUPLE_SPACE_CAP} entries", cap_name="automorphisms")
    lifted = np.full((count, L.size), L.bottom, dtype=np.int16)
    lifted[:, irr] = irr[_listing(m, levels)]
    # any other x above the bottom is the join of two of its lower covers
    for x in np.argsort(L.leq.sum(axis=0), kind="stable"):
        if len(lower[x]) > 1:
            y, z = lower[x][:2]
            lifted[:, x] = L.join_table[lifted[:, y], lifted[:, z]]
    return lifted


def _atomistic_automorphisms(L: FiniteLattice) -> np.ndarray:
    return _irreducible_automorphisms(L)


def _general_automorphisms(L: FiniteLattice) -> np.ndarray:
    rows = _irreducible_automorphisms(L)
    return rows[np.lexsort(rows.T[::-1])]


def lattice_automorphisms(L: FiniteLattice) -> PermutationGroup:
    """The group of order-preserving bijections, acting on element indices.

    Its generators are those sims_filter keeps from the full listing, and
    its order is the listing's length.
    """
    if L.size > AUTOMORPHISM_CAP:
        raise CapacityError(
            f"lattice size {L.size} exceeds automorphism cap {AUTOMORPHISM_CAP}",
            cap_name="automorphisms")
    autos = (_atomistic_automorphisms(L) if is_atomistic(L)
             else _general_automorphisms(L))
    gens = sims_filter_rows(L.size, autos)
    return _known_order(PermutationGroup(L.size, [Permutation(g) for g in gens]),
                        len(autos))


def _known_order(G: PermutationGroup, order: int) -> PermutationGroup:
    """G, told its order; its chain is built against that order and raises
    InternalConsistencyError if the generators give another."""
    G._order = order
    G._base_chain()
    return G


# ---------------------------------------------------------------------------
# separation of lower-cone stabilizers


@dataclass(frozen=True)
class SeparationResult:
    holds: bool
    witness: Optional[tuple[int, int]]


def stabilizer_separation(L: FiniteLattice,
                          automorphisms: Optional[PermutationGroup] = None
                          ) -> SeparationResult:
    """Do distinct elements have distinct lower-cone pointwise stabilizers?

    Stabilizers are taken inside the automorphism action on element
    indices; equality is mutual membership of generators. The witness is
    the first violating pair in index order.
    """
    G = lattice_automorphisms(L) if automorphisms is None else automorphisms
    stabs = [G.pointwise_stabilizer(lower_cone(L, l)) for l in range(L.size)]
    orders = [s.order() for s in stabs]
    for i in range(L.size):
        for j in range(i + 1, L.size):
            if orders[i] == orders[j] and stabs[i].is_subgroup_of(stabs[j]):
                return SeparationResult(False, (i, j))
    return SeparationResult(True, None)


# ---------------------------------------------------------------------------
# reconstruction from the atom action


@dataclass(frozen=True)
class ReconstructionResult:
    """Outcome of rebuilding a lattice from its automorphism action on atoms.

    ``atom_group`` acts on positions 0..k-1 of ``atoms``, the atoms'
    element indices. ``embedding`` maps each element index to a fixset of
    the atom action (as a tuple of atom positions). ``closure_trivial``
    says whether the embedded image is all of the fixset lattice; when it
    is, ``iso`` holds the order isomorphism as that same tuple list.
    """

    atom_group: PermutationGroup
    atoms: tuple[int, ...]
    fixset_lattice: "object"
    embedding: tuple[tuple[int, ...], ...]
    image_size: int
    closure_trivial: bool
    iso: Optional[tuple[tuple[int, ...], ...]]


def reconstruct(L: FiniteLattice, cap: int = LATTICE_CAP) -> ReconstructionResult:
    from .closure import closure_mask, enumerate_fixset_lattice

    if not is_atomistic(L):
        raise PreconditionError("reconstruction requires an atomistic lattice")
    ats = atoms(L)
    if not ats:
        raise PreconditionError(
            "reconstruction requires at least one atom; the atom layer of "
            "the one-element lattice is empty")
    G = lattice_automorphisms(L)
    sep = stabilizer_separation(L, automorphisms=G)
    if not sep.holds:
        raise PreconditionError(
            f"reconstruction requires separated cone stabilizers; "
            f"witness pair {sep.witness}")
    pos = {a: i for i, a in enumerate(ats)}
    atom_gens = [Permutation([pos[g(a)] for a in ats]) for g in G.generators]
    # faithful: an automorphism of an atomistic lattice fixing every atom
    # fixes every join of atoms
    atom_group = _known_order(PermutationGroup(len(ats), atom_gens), G.order())
    fl = enumerate_fixset_lattice(atom_group, cap=cap)
    closed = [closure_mask(atom_group, m) for m in row_masks(L.leq[list(ats)].T)]
    image = set(closed)
    if len(image) != L.size:
        # for an atomistic lattice, separated cone stabilizers in the element
        # action are the same thing as an injective atom-action embedding
        raise InternalConsistencyError(
            "embedding is not injective despite separation")
    closure_trivial = len(image) == len(fl)
    elements = dict(zip(fl.masks, fl.elements))
    embedding = tuple(elements[m] for m in closed)
    return ReconstructionResult(
        atom_group=atom_group,
        atoms=ats,
        fixset_lattice=fl,
        embedding=embedding,
        image_size=len(image),
        closure_trivial=closure_trivial,
        iso=embedding if closure_trivial else None,
    )


# ---------------------------------------------------------------------------
# distributivity and the finite set-algebra representation


def is_distributive(L: FiniteLattice) -> bool:
    """Birkhoff: a finite lattice is distributive iff every join-irreducible
    j is join-prime (j <= x v y implies j <= x or j <= y), that is, iff the
    elements not above j have an upper bound not above j. One boolean
    check of at most n-by-n per join-irreducible."""
    for j in join_irreducibles(L):
        above = L.leq[j]
        if not (L.leq[~above].all(axis=0) & ~above).any():
            return False
    return True


def is_complemented(L: FiniteLattice) -> bool:
    """Every x has some y with x meet y the bottom and x join y the top."""
    return bool(((L.meet_table == L.bottom) & (L.join_table == L.top))
                .any(axis=1).all())


@dataclass(frozen=True)
class StoneRepresentation:
    """Ultrafilters of a finite distributive complemented lattice.

    In a finite lattice every maximal proper filter is the upward cone of
    an atom, so ultrafilters are listed as those cones and the element map
    sends l to the set of ultrafilters containing it.
    """

    ultrafilters: tuple[tuple[int, ...], ...]
    element_map: tuple[tuple[int, ...], ...]

    @property
    def injective(self) -> bool:
        return len(set(self.element_map)) == len(self.element_map)


def stone_ultrafilters(L: FiniteLattice) -> StoneRepresentation:
    if not is_distributive(L):
        raise PreconditionError("set representation needs a distributive lattice")
    if not is_complemented(L):
        raise PreconditionError("set representation needs a complemented lattice")
    cones = L.leq[list(atoms(L))]
    return StoneRepresentation(tuple(map(points_from_mask, row_masks(cones))),
                               tuple(map(points_from_mask, row_masks(cones.T))))


# ---------------------------------------------------------------------------
# stock lattices used throughout the tests and the verification pipeline;
# each checks its argument, then its element count against the order-matrix
# cap, before anything is allocated (boolean_lattice checks 2^n by n)


def _stock_argument(n, least: int, what: str) -> int:
    if type(n) is not int or n < least:
        raise ValidationError(f"{what} must be an integer >= {least}, got {n!r}")
    return n


def chain_lattice(n: int) -> FiniteLattice:
    _check_order_size(_stock_argument(n, 1, "chain length"))
    return FiniteLattice(np.triu(np.ones((n, n), dtype=bool)))


def boolean_lattice(n_atoms: int) -> FiniteLattice:
    """Powerset of n_atoms elements ordered by inclusion (subset-mask order)."""
    if _stock_argument(n_atoms, 0, "atom count") >= ORDER_MATRIX_CAP.bit_length():
        # 2^n_atoms > cap exactly here; the count itself is not formed
        raise CapacityError(f"order matrix of 2^{n_atoms} elements exceeds cap "
                            f"{ORDER_MATRIX_CAP}", cap_name="order_matrix")
    masks = sorted(range(1 << n_atoms), key=lambda m: (m.bit_count(), m))
    return FiniteLattice(containment_order(masks, n_atoms))


def diamond_lattice(n_atoms: int) -> FiniteLattice:
    """Bottom, n incomparable atoms, top (often written M_n)."""
    size = _stock_argument(n_atoms, 0, "atom count") + 2
    _check_order_size(size)
    leq = np.eye(size, dtype=bool)
    leq[0, :] = True
    leq[:, size - 1] = True
    return FiniteLattice(leq)
