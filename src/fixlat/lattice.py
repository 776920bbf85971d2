"""Explicit finite lattices: validation, automorphisms, reconstruction.

A lattice is stored as its full order relation (a boolean matrix).
Automorphism search runs on the join-irreducibles (the atoms, when the
lattice is atomistic), whose action determines an automorphism, through
the same set-family bijection search that compares Steiner systems.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ._chain import sims_filter
from .errors import (CapacityError, InternalConsistencyError,
                     PreconditionError, ValidationError)
from .group import GroupAction, PermutationGroup
from .perm import Permutation, mask_from_points, points_from_mask

AUTOMORPHISM_CAP = 128
LATTICE_CAP = 200_000


def order_violations(leq: np.ndarray) -> list[dict]:
    """Axiom violations of a would-be lattice order, as data."""
    return _lattice_tables(leq)[0]


def _lattice_tables(leq: np.ndarray) -> tuple[list[dict], Optional[np.ndarray],
                                            Optional[np.ndarray]]:
    """(violations, meet table, join table) of an order matrix, in one pass.

    The order axioms are checked first. If they hold, the meet of i and j
    is the common lower bound whose down-set is the whole common lower
    cone, and the join dually; the first pair without one, row-major over
    i <= j with meet before join, is the single violation. The tables are
    None whenever a violation is listed.
    """
    n = leq.shape[0]
    out = []
    if not leq.diagonal().all():
        i = int(np.flatnonzero(~leq.diagonal())[0])
        out.append({"kind": "not-reflexive", "element": i})
    sym = leq & leq.T & ~np.eye(n, dtype=bool)
    if sym.any():
        i, j = map(int, np.argwhere(sym)[0])
        out.append({"kind": "not-antisymmetric", "pair": (i, j)})
    closure = leq @ leq
    gaps = closure & ~leq
    if gaps.any():
        i, j = map(int, np.argwhere(gaps)[0])
        out.append({"kind": "not-transitive", "pair": (i, j)})
    if out:
        return out, None, None
    down = leq.sum(axis=0, dtype=np.int32)  # |{k : k <= c}|
    up = leq.sum(axis=1, dtype=np.int32)    # |{k : c <= k}|
    meet_table = np.empty((n, n), dtype=np.int64)
    join_table = np.empty((n, n), dtype=np.int64)
    for i in range(n):
        lower = leq & leq[:, i, None]  # lower[k, j]: k <= i and k <= j
        upper = leq & leq[i, None, :]  # upper[j, k]: i <= k and j <= k
        meet_table[i] = (lower * down[:, None]).argmax(axis=0)
        join_table[i] = (upper * up[None, :]).argmax(axis=1)
        has_meet = down[meet_table[i]] == lower.sum(axis=0)
        has_join = up[join_table[i]] == upper.sum(axis=1)
        bad = ~(has_meet & has_join)
        bad[:i] = False
        if bad.any():
            j = int(np.argmax(bad))
            kind = "missing-join" if has_meet[j] else "missing-meet"
            return [{"kind": kind, "pair": (i, j)}], None, None
    return [], meet_table, join_table


def containment_order(masks: Sequence[int], width: int) -> np.ndarray:
    """leq[i, j] = (masks[i] is a subset of masks[j]), masks over width points.

    Counts, for each pair, the points of masks[i] missing from masks[j]
    as one float32 product of the incidence matrix with its complement;
    the counts are at most width, so they are exact.
    """
    nbytes = (width + 7) // 8
    raw = b"".join(m.to_bytes(nbytes, "little") for m in masks)
    bits = np.frombuffer(raw, dtype=np.uint8).reshape(len(masks), nbytes)
    inc = np.unpackbits(bits, axis=1, bitorder="little")[:, :width]
    inc = inc.astype(np.float32)
    return (inc @ (1 - inc).T) == 0


def order_covers(leq: np.ndarray) -> tuple[tuple[int, int], ...]:
    """Cover pairs (i, j), j covering i, of an order matrix, in row-major order.

    j covers i when i < j and no k lies strictly between; the number of
    such k is one float32 product of the strict order with itself.
    """
    lt = leq & ~np.eye(leq.shape[0], dtype=bool)
    f = lt.astype(np.float32)
    strict = lt & ((f @ f) == 0)
    return tuple((int(i), int(j)) for i, j in np.argwhere(strict))


def order_from_covers(size: int, covers: Sequence[tuple[int, int]]) -> np.ndarray:
    """Reflexive-transitive closure of cover pairs (i, j), j covering i."""
    leq = np.eye(size, dtype=bool)
    for i, j in covers:
        if not (0 <= i < size and 0 <= j < size):
            raise ValidationError(f"cover pair {(i, j)} out of range")
        leq[i, j] = True
    for _ in range(size):
        new = leq | (leq @ leq)
        if np.array_equal(new, leq):
            break
        leq = new
    return leq


class FiniteLattice:
    """A validated finite lattice with meet/join lookup tables."""

    def __init__(self, leq: np.ndarray, labels: Optional[Sequence] = None):
        leq = np.asarray(leq, dtype=bool)
        problems, self.meet_table, self.join_table = _lattice_tables(leq)
        if problems:
            raise ValidationError(f"not a lattice: {problems[0]}")
        self.leq = leq
        self.leq.setflags(write=False)
        self.size = leq.shape[0]
        self.labels = tuple(labels) if labels is not None else None
        if self.labels is not None and len(self.labels) != self.size:
            raise ValidationError("label count does not match lattice size")
        self.bottom = int(np.flatnonzero(leq.all(axis=1))[0])
        self.top = int(np.flatnonzero(leq.all(axis=0))[0])

    @classmethod
    def from_covers(cls, size: int, covers: Sequence[tuple[int, int]],
                    labels=None) -> "FiniteLattice":
        """Build from cover pairs (i, j) meaning j covers i."""
        return cls(order_from_covers(size, covers), labels=labels)

    def covers(self) -> tuple[tuple[int, int], ...]:
        return order_covers(self.leq)

    def __repr__(self):
        return f"FiniteLattice(size={self.size})"


@dataclass(frozen=True)
class LatticeValidation:
    ok: bool
    lattice: Optional[FiniteLattice]
    violations: tuple[dict, ...]


def lattice_validate(size: int, leq: np.ndarray) -> LatticeValidation:
    """Validate an order matrix; violations are data, not exceptions."""
    leq = np.asarray(leq, dtype=bool)
    if leq.shape != (size, size):
        raise ValidationError(f"order matrix shape {leq.shape} != ({size}, {size})")
    problems = order_violations(leq)
    if problems:
        return LatticeValidation(False, None, tuple(problems))
    return LatticeValidation(True, FiniteLattice(leq), ())


def meet(L: FiniteLattice, elements: Sequence[int]) -> int:
    elems = list(elements)
    if not elems:
        raise PreconditionError("meet of an empty set is not defined here")
    acc = elems[0]
    for e in elems[1:]:
        acc = int(L.meet_table[acc, e])
    return acc


def join(L: FiniteLattice, elements: Sequence[int]) -> int:
    elems = list(elements)
    if not elems:
        raise PreconditionError("join of an empty set is not defined here")
    acc = elems[0]
    for e in elems[1:]:
        acc = int(L.join_table[acc, e])
    return acc


def atoms(L: FiniteLattice) -> tuple[int, ...]:
    """Covers of the bottom element: the elements whose down-set is {bottom, itself}."""
    return tuple(int(a) for a in np.flatnonzero(L.leq.sum(axis=0) == 2))


def lower_cone(L: FiniteLattice, l: int) -> tuple[int, ...]:
    return tuple(int(x) for x in np.flatnonzero(L.leq[:, l]))


def is_atomistic(L: FiniteLattice) -> bool:
    """Every element is the join of the atoms below it."""
    ats = atoms(L)
    for l in range(L.size):
        below = [a for a in ats if L.leq[a, l]]
        j = L.bottom if not below else join(L, below)
        if j != l:
            return False
    return True


# ---------------------------------------------------------------------------
# automorphisms


def family_bijections(n: int, family_a, family_b,
                      first: bool = False) -> list[tuple[int, ...]]:
    """Bijections p of range(n) with {p(S) : S in family_a} == family_b.

    Families are sets of point masks over n points. Points are assigned in
    index order and images tried in increasing order, so the bijections
    come out in lexicographic order of their image tuples; with first=True
    the search stops at the first. A point's image must have its profile
    (the sorted sizes of the sets containing it), and each set of family_a
    is checked once, when its highest point is assigned. The families have
    equal sizes, so a map sending every set into family_b is onto.
    """
    family_a, family_b = set(family_a), set(family_b)
    if len(family_a) != len(family_b) or (0 in family_a) != (0 in family_b):
        return []

    def profiles(family):
        sizes = [[] for _ in range(n)]
        for m in family:
            for x in points_from_mask(m):
                sizes[x].append(m.bit_count())
        return [tuple(sorted(s)) for s in sizes]

    prof_a, prof_b = profiles(family_a), profiles(family_b)
    if sorted(prof_a) != sorted(prof_b):
        return []
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


def join_irreducibles(L: FiniteLattice) -> tuple[int, ...]:
    """The elements with exactly one lower cover."""
    lower_covers = np.bincount([j for _, j in order_covers(L.leq)], minlength=L.size)
    return tuple(int(x) for x in np.flatnonzero(lower_covers == 1))


def _irreducible_automorphisms(L: FiniteLattice) -> list[tuple[int, ...]]:
    """Automorphisms in lexicographic order of their join-irreducible images.

    An element x is the join of the set J(x) of join-irreducibles below
    it, and x <= y iff J(x) is inside J(y); so the automorphisms are the
    permutations of the join-irreducibles that map the family {J(x)} onto
    itself, and each sends x to the join of the images of J(x).
    """
    irr = np.array(join_irreducibles(L), dtype=np.int64)
    members = [np.flatnonzero(L.leq[irr, x]).tolist() for x in range(L.size)]
    family = {mask_from_points(pts, len(irr)) for pts in members}
    found = family_bijections(len(irr), family, family)
    images = irr[np.array(found, dtype=np.int64).reshape(len(found), len(irr))]
    lifted = np.full((len(found), L.size), L.bottom, dtype=np.int64)
    for x, pts in enumerate(members):
        for p in pts:
            lifted[:, x] = L.join_table[lifted[:, x], images[:, p]]
    return [tuple(row) for row in lifted.tolist()]


def _atomistic_automorphisms(L: FiniteLattice) -> list[tuple[int, ...]]:
    return _irreducible_automorphisms(L)


def _general_automorphisms(L: FiniteLattice) -> list[tuple[int, ...]]:
    return sorted(_irreducible_automorphisms(L))


def lattice_automorphisms(L: FiniteLattice,
                          cap: int = AUTOMORPHISM_CAP) -> PermutationGroup:
    """The group of order-preserving bijections, acting on element indices."""
    if L.size > cap:
        raise CapacityError(f"lattice size {L.size} exceeds automorphism cap {cap}",
                            cap_name="automorphisms")
    autos = (_atomistic_automorphisms(L) if is_atomistic(L)
             else _general_automorphisms(L))
    gens = sims_filter(L.size, autos)
    G = PermutationGroup(L.size, [Permutation(g) for g in gens])
    if G.order() != len(autos):
        raise InternalConsistencyError(
            f"{len(autos)} automorphisms listed, but they generate a group "
            f"of order {G.order()}")
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

    ``embedding`` maps each element index to a fixset of the atom action
    (as a tuple of atom positions). ``closure_trivial`` says whether the
    embedded image is all of the fixset lattice; when it is, ``iso`` holds
    the order isomorphism as that same tuple list.
    """

    atom_action: GroupAction
    fixset_lattice: "object"
    embedding: tuple[tuple[int, ...], ...]
    image_size: int
    closure_trivial: bool
    iso: Optional[tuple[tuple[int, ...], ...]]


def reconstruct(L: FiniteLattice, cap: int = LATTICE_CAP) -> ReconstructionResult:
    from .closure import enumerate_fixset_lattice, fixset_closure

    if not is_atomistic(L):
        raise PreconditionError("reconstruction requires an atomistic lattice")
    G = lattice_automorphisms(L)
    sep = stabilizer_separation(L, automorphisms=G)
    if not sep.holds:
        raise PreconditionError(
            f"reconstruction requires separated cone stabilizers; "
            f"witness pair {sep.witness}")
    ats = atoms(L)
    pos = {a: i for i, a in enumerate(ats)}
    atom_gens = [Permutation([pos[g(a)] for a in ats]) for g in G.generators]
    atom_group = PermutationGroup(len(ats), atom_gens)
    action = GroupAction(atom_group, tuple(str(a) for a in ats))
    fl = enumerate_fixset_lattice(atom_group, cap=cap)
    embedding = []
    for l in range(L.size):
        below = tuple(pos[a] for a in ats if L.leq[a, l])
        embedding.append(fixset_closure(atom_group, below).points)
    embedding = tuple(embedding)
    image = set(embedding)
    if len(image) != L.size:
        raise PreconditionError("embedding is not injective despite separation")
    closure_trivial = len(image) == len(fl)
    return ReconstructionResult(
        atom_action=action,
        fixset_lattice=fl,
        embedding=embedding,
        image_size=len(image),
        closure_trivial=closure_trivial,
        iso=embedding if closure_trivial else None,
    )


# ---------------------------------------------------------------------------
# distributivity and the finite set-algebra representation


def is_distributive(L: FiniteLattice) -> bool:
    n = L.size
    M, J = L.meet_table, L.join_table
    for a in range(n):
        if not np.array_equal(M[a][J], J[np.ix_(M[a], M[a])]):
            return False
    return True


def is_complemented(L: FiniteLattice) -> bool:
    n = L.size
    for x in range(n):
        if not any(L.meet_table[x, y] == L.bottom and L.join_table[x, y] == L.top
                   for y in range(n)):
            return False
    return True


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
    ats = atoms(L)
    ultra = tuple(tuple(int(x) for x in np.flatnonzero(L.leq[a, :])) for a in ats)
    elem_map = tuple(
        tuple(i for i, a in enumerate(ats) if L.leq[a, l]) for l in range(L.size))
    return StoneRepresentation(ultra, elem_map)


# ---------------------------------------------------------------------------
# stock lattices used throughout the tests and the verification pipeline


def chain_lattice(n: int) -> FiniteLattice:
    leq = np.triu(np.ones((n, n), dtype=bool))
    return FiniteLattice(leq)


def boolean_lattice(n_atoms: int) -> FiniteLattice:
    """Powerset of n_atoms elements ordered by inclusion (subset-mask order)."""
    size = 1 << n_atoms
    masks = sorted(range(size), key=lambda m: (bin(m).count("1"), m))
    leq = containment_order(masks, n_atoms)
    labels = tuple(tuple(b for b in range(n_atoms) if m >> b & 1) for m in masks)
    return FiniteLattice(leq, labels=labels)


def diamond_lattice(n_atoms: int) -> FiniteLattice:
    """Bottom, n incomparable atoms, top (often written M_n)."""
    size = n_atoms + 2
    leq = np.eye(size, dtype=bool)
    leq[0, :] = True
    leq[:, size - 1] = True
    return FiniteLattice(leq)
