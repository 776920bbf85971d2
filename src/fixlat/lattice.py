"""Explicit finite lattices: validation, automorphisms, reconstruction.

A lattice is stored as its full order relation (a boolean matrix).
Automorphism search runs on the atom layer when the lattice is atomistic
(an automorphism is then determined by its atom action) and falls back to
rank-stratified backtracking over elements otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ._chain import sims_filter
from .errors import (CapacityError, InternalConsistencyError,
                     PreconditionError, ValidationError)
from .group import GroupAction, PermutationGroup
from .perm import Permutation

AUTOMORPHISM_CAP = 128


def order_violations(leq: np.ndarray) -> list[dict]:
    """Axiom violations of a would-be lattice order, as data."""
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
        return out
    for i in range(n):
        for j in range(i, n):
            if _bound_index(leq, i, j, lower=True) is None:
                out.append({"kind": "missing-meet", "pair": (i, j)})
                return out
            if _bound_index(leq, i, j, lower=False) is None:
                out.append({"kind": "missing-join", "pair": (i, j)})
                return out
    return out


def _bound_index(leq: np.ndarray, i: int, j: int, lower: bool) -> Optional[int]:
    cone = (leq[:, i] & leq[:, j]) if lower else (leq[i, :] & leq[j, :])
    members = np.flatnonzero(cone)
    if members.size == 0:
        return None
    for c in members:
        dominated = leq[members, c] if lower else leq[c, members]
        if dominated.all():
            return int(c)
    return None


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
        problems = order_violations(leq)
        if problems:
            raise ValidationError(f"not a lattice: {problems[0]}")
        self.leq = leq
        self.leq.setflags(write=False)
        self.size = leq.shape[0]
        self.labels = tuple(labels) if labels is not None else None
        if self.labels is not None and len(self.labels) != self.size:
            raise ValidationError("label count does not match lattice size")
        n = self.size
        self.meet_table = np.zeros((n, n), dtype=np.int64)
        self.join_table = np.zeros((n, n), dtype=np.int64)
        for i in range(n):
            for j in range(i, n):
                m = _bound_index(leq, i, j, lower=True)
                jn = _bound_index(leq, i, j, lower=False)
                self.meet_table[i, j] = self.meet_table[j, i] = m
                self.join_table[i, j] = self.join_table[j, i] = jn
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
    """Covers of the bottom element."""
    out = []
    for a in range(L.size):
        if a == L.bottom or not L.leq[L.bottom, a]:
            continue
        between = L.leq[L.bottom, :] & L.leq[:, a]
        if between.sum() == 2:  # only bottom and a
            out.append(a)
    return tuple(out)


def lower_cone(L: FiniteLattice, l: int) -> tuple[int, ...]:
    return tuple(int(x) for x in np.flatnonzero(L.leq[:, l]))


def atom_set(L: FiniteLattice, l: int, atom_list=None) -> tuple[int, ...]:
    atom_list = atoms(L) if atom_list is None else atom_list
    return tuple(a for a in atom_list if L.leq[a, l])


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


def _element_perm_from_atom_map(L, ats, mask_to_elem, element_masks, atom_image):
    """Lift an atom bijection to an element permutation, or None."""
    images = []
    for l in range(L.size):
        m = element_masks[l]
        img_mask = 0
        k = 0
        while m:
            if m & 1:
                img_mask |= 1 << atom_image[k]
            m >>= 1
            k += 1
        target = mask_to_elem.get(img_mask)
        if target is None:
            return None
        images.append(target)
    return tuple(images)


def _atomistic_automorphisms(L: FiniteLattice) -> list[tuple[int, ...]]:
    ats = atoms(L)
    k = len(ats)
    pos = {a: i for i, a in enumerate(ats)}
    element_masks = []
    for l in range(L.size):
        m = 0
        for a in ats:
            if L.leq[a, l]:
                m |= 1 << pos[a]
        element_masks.append(m)
    mask_to_elem = {m: l for l, m in enumerate(element_masks)}
    family = set(element_masks)
    # invariant per atom: multiset of sizes of elements containing it
    def signature(ai):
        sizes = sorted(bin(m).count("1") for m in family if m >> ai & 1)
        return tuple(sizes)

    sigs = [signature(i) for i in range(k)]
    found = []
    image = [-1] * k
    used = [False] * k

    def masks_subset_assigned(depth):
        # every family mask fully inside the assigned atoms must map into the family
        assigned = (1 << depth) - 1
        for m in family:
            if m and m & assigned == m:
                img = 0
                mm = m
                i = 0
                while mm:
                    if mm & 1:
                        img |= 1 << image[i]
                    mm >>= 1
                    i += 1
                if img not in family:
                    return False
        return True

    def backtrack(depth):
        if depth == k:
            perm = _element_perm_from_atom_map(L, ats, mask_to_elem,
                                               element_masks, image)
            if perm is not None:
                found.append(perm)
            return
        for cand in range(k):
            if used[cand] or sigs[cand] != sigs[depth]:
                continue
            image[depth] = cand
            used[cand] = True
            if masks_subset_assigned(depth + 1):
                backtrack(depth + 1)
            used[cand] = False
            image[depth] = -1

    backtrack(0)
    return found


def _general_automorphisms(L: FiniteLattice) -> list[tuple[int, ...]]:
    n = L.size
    down = L.leq.sum(axis=0)
    up = L.leq.sum(axis=1)
    sig = [(int(down[i]), int(up[i])) for i in range(n)]
    # refine signatures by neighbour multisets until stable
    for _ in range(n):
        new = []
        for i in range(n):
            below = sorted(sig[j] for j in range(n) if L.leq[j, i])
            above = sorted(sig[j] for j in range(n) if L.leq[i, j])
            new.append((sig[i], tuple(below), tuple(above)))
        compressed = {s: k for k, s in enumerate(sorted(set(new)))}
        new_sig = [(compressed[s],) for s in new]
        if new_sig == sig:
            break
        sig = new_sig
    found = []
    image = [-1] * n
    used = [False] * n

    def consistent(i, c):
        for j in range(n):
            if image[j] < 0:
                continue
            if L.leq[i, j] != L.leq[c, image[j]] or L.leq[j, i] != L.leq[image[j], c]:
                return False
        return True

    def backtrack(depth):
        if depth == n:
            found.append(tuple(image))
            return
        for c in range(n):
            if used[c] or sig[c] != sig[depth] or not consistent(depth, c):
                continue
            image[depth] = c
            used[c] = True
            backtrack(depth + 1)
            used[c] = False
            image[depth] = -1

    backtrack(0)
    return found


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


def reconstruct(L: FiniteLattice) -> ReconstructionResult:
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
    fl = enumerate_fixset_lattice(atom_group)
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
