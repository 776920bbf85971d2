"""Brute-force references and writers that only the tests use.

Like ``fixlat.exhaustive``, which holds the oracles ``fixlat verify``
ships, the references work on the full element table from product
closure of the generators, independent of the stabilizer chain.
"""

import numpy as np

from fixlat._chain import StabilizerChain, compose, min_moved
from fixlat.errors import InternalConsistencyError, ValidationError
from fixlat.exhaustive import enumerate_elements
from fixlat.lattice import (SeparationResult, lattice_automorphisms,
                            lower_cone)
from fixlat.perm import Permutation, points_from_mask


def element_table(G) -> np.ndarray:
    """All elements of G as a lex-sorted (order, degree) array."""
    return enumerate_elements(G.degree, [g.images for g in G.generators])


def elements(G) -> list[Permutation]:
    return [Permutation(row) for row in element_table(G).tolist()]


def contains(elements: np.ndarray, images) -> bool:
    row = np.asarray(images, dtype=np.int32)
    return bool((elements == row).all(axis=1).any())


def lattice_obj(L) -> dict:
    """The lattice input object ``{"size", "covers"}`` of a FiniteLattice."""
    return {"size": L.size, "covers": [list(c) for c in L.covers()]}


def tuple_orbit_count(elements: np.ndarray, k: int) -> int:
    """Orbit count on distinct k-tuples via the orbit-counting lemma.

    Averages the number of fixed distinct k-tuples over the group: an
    element with f fixed points fixes f(f-1)...(f-k+1) such tuples.
    """
    order, degree = elements.shape
    if k > degree:
        raise ValidationError("tuple length exceeds degree")
    ident = np.arange(degree, dtype=elements.dtype)
    fix_counts = (elements == ident).sum(axis=1).astype(object)
    total = 0
    for f in fix_counts:
        term = 1
        for i in range(k):
            term *= f - i
        total += term
    if total % order:
        raise InternalConsistencyError(
            f"fixed-tuple total {total} is not a multiple of the order {order}")
    return int(total // order)


def pairwise_separation(L) -> SeparationResult:
    """Lower-cone stabilizer separation by pairwise subgroup tests in the
    automorphism action on element indices: the first pair in row-major
    order with equal orders and one stabilizer inside the other."""
    G = lattice_automorphisms(L)
    stabs = [G.pointwise_stabilizer(lower_cone(L, l)) for l in range(L.size)]
    orders = [s.order() for s in stabs]
    for i in range(L.size):
        for j in range(i + 1, L.size):
            if orders[i] == orders[j] and stabs[i].is_subgroup_of(stabs[j]):
                return SeparationResult(False, (i, j))
    return SeparationResult(True, None)


def lex_listing(m: int, levels) -> np.ndarray:
    """Every product t_0 t_1 ... t_{m-1} (t_{m-1} applied first) of one
    element t_i of each level's transversal, in lexicographic order.

    The rows grow one level at a time: a row s whose images of 0..i-1 are
    final gets the children s t_u, which keep those images and send i to
    s(u), sorted by that image. Distinct rows differ on 0..i-1, so the
    order stays lexicographic.
    """
    rows = np.arange(m, dtype=np.int16)[None, :]
    for level in levels:
        images = np.array(list(level), dtype=np.intp)
        reps = np.array(list(level.values()), dtype=np.intp).reshape(len(level), m)
        order = np.argsort(rows[:, images], axis=1)
        rows = np.take_along_axis(rows[:, reps], order[:, :, None], axis=1)
        rows = rows.reshape(-1, m)
    return rows


def listed_automorphisms(L) -> tuple[list[list[int]], list[list[int]]]:
    """Every automorphism of L as element images, in lexicographic order of
    the join-irreducible images and then of all images.

    The rows come from ``lex_listing`` of the coset search's transversals,
    each lifted by sending x to the element whose set of join-irreducibles
    below is the image of that of x.
    """
    act = L._irreducible_action
    element = {mask: x for x, mask in enumerate(act.masks)}
    rows = [[element[sum(1 << perm[i] for i in points_from_mask(mask))]
             for mask in act.masks]
            for perm in lex_listing(len(act.irr), act.levels).tolist()]
    return rows, sorted(rows)


class RescanChain(StabilizerChain):
    """Schreier-Sims that rescans a level from its first pair on every
    visit and sifts every Schreier generator, tree edges included."""

    def _schreier_sims(self):
        base = self.base
        lgens = self.level_gens
        i = len(base) - 1
        while i >= 0:
            restart = False
            tr = self.transversals[i]
            inv_tr = self.inv_transversals[i]
            for beta in sorted(tr):
                u_beta = tr[beta]
                for g in lgens[i]:
                    sg = compose(compose(u_beta, g), inv_tr[g[beta]])
                    if sg == self._ident:
                        continue
                    h, j = self._strip(sg, i + 1)
                    if h is None:
                        continue
                    if j == len(base) + 1:
                        base.append(min_moved(h))
                        lgens.append([])
                        self.transversals.append(None)
                        self.inv_transversals.append(None)
                        self.tree_edges.append(None)
                        j = len(base)
                    for l in range(i + 1, j):
                        lgens[l].append(h)
                        self._rebuild_transversal(l)
                    if self._reached_order():
                        return
                    i = j - 1
                    restart = True
                    break
                if restart:
                    break
            if not restart:
                i -= 1
