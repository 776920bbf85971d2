"""Deterministic stabilizer chains (Schreier-Sims).

The chain is built with a fixed strategy so that repeated runs produce
identical bases, transversals and strong generators:

* the caller may prescribe a base prefix (used to read off pointwise
  stabilizers directly);
* whenever the base must grow, the smallest point moved by the offending
  residue is appended;
* orbits are explored breadth-first with generators in list order.

A caller that already knows the group order passes it in. The build then
stops as soon as the product of the transversal lengths reaches it: each
transversal is an orbit of a subgroup of the true basic stabilizer, so
the product never exceeds the order, and equality means every element
sifts to the identity, so the chain is already a complete BSGS and the
rest of the Schreier-Sims pass could add nothing. The known order is a
checked invariant: a product above it, or a finished pass below it,
raises ``InternalConsistencyError`` instead of returning a wrong chain.

Permutations are raw image tuples here; composition is apply-left-then-right.
"""

from __future__ import annotations

from math import prod

import numpy as np

from .errors import InternalConsistencyError


def compose(p, q):
    """Apply p, then q."""
    return tuple(map(q.__getitem__, p))


def inverse(p):
    inv = [0] * len(p)
    for i, j in enumerate(p):
        inv[j] = i
    return tuple(inv)


def min_moved(p):
    for i, j in enumerate(p):
        if i != j:
            return i
    return None


def orbit_transversal(b, gens, ident):
    """For each point z of the orbit of b under gens, a product of gens
    sending b to z, found breadth-first with generators in list order;
    and the tree edges, the pairs (y, k) where gens[k] first reached z
    from y, so that u_z is u_y gens[k] exactly."""
    tr = {b: ident}
    edges = set()
    queue = [b]
    for y in queue:
        uy = tr[y]
        for k, g in enumerate(gens):
            z = g[y]
            if z not in tr:
                tr[z] = compose(uy, g)
                edges.add((y, k))
                queue.append(z)
    return tr, edges


def sims_filter(degree, gens):
    """Reduce a generating list without changing the generated group.

    Keeps a table indexed by (smallest moved point, its image); each new
    generator is divided by table entries until it either finds an empty
    slot or vanishes. The table holds at most n(n-1)/2 entries and in
    practice stays small. Deterministic for a fixed input order.
    """
    ident = tuple(range(degree))
    table = {}
    inv_table = {}
    for g in gens:
        g = tuple(g)
        while g != ident:
            u = min_moved(g)
            v = g[u]
            slot = table.get((u, v))
            if slot is None:
                table[(u, v)] = g
                inv_table[(u, v)] = inverse(g)
                break
            g = compose(g, inv_table[(u, v)])
    return list(table.values())


def sims_filter_rows(degree, rows):
    """sims_filter over the rows of an (N, degree) array, one level at a time.

    A residue meets slot (u, v) only once it fixes 0..u-1, and dividing by
    that slot's entry makes it fix u as well. So the rows can move through
    the levels u together. A slot is filled when a row arrives exactly if
    an earlier row arrived there, and then it holds the residue of the
    earliest such row. Hence at level u the first row moving u to v fills
    (u, v), and every row moving u, that one included, is divided by the
    entry of its slot, which turns the filler into the identity. The
    entries, in the order of the rows that filled them, are exactly those
    of sims_filter. Rows are held as int16 columns, so degree is at most
    2^15, and each division is one flat np.take into the level's table of
    inverses, whose entry 0 is the identity.
    """
    cols = np.asarray(rows, dtype=np.int16).reshape(-1, degree).T.copy()
    ident = np.arange(degree, dtype=np.int16)
    found = {}  # filler row -> its entry
    for u in range(degree - 1):  # a row fixing 0..degree-2 fixes all
        col = cols[u]
        movers = np.flatnonzero(col != u)
        if not movers.size:
            continue
        images, first = np.unique(col[movers], return_index=True)
        fill = movers[first]
        entries = cols[:, fill].T
        found.update(zip(fill.tolist(), map(tuple, entries.tolist())))
        inverses = np.vstack([ident, np.argsort(entries, axis=1)]).astype(np.int16)
        offset = np.zeros(degree, dtype=np.intp)  # v -> where (u, v)'s inverse starts
        offset[images] = np.arange(1, len(fill) + 1) * degree
        cols[u:] = np.take(inverses, cols[u:] + offset[col])
    return [found[r] for r in sorted(found)]


class StabilizerChain:
    """Base / strong-generating-set index for a finite permutation group."""

    def __init__(self, degree, generators, base_prefix=(), order=None):
        self.degree = degree
        ident = tuple(range(degree))
        self._ident = ident
        gens = []
        seen = set()
        for g in generators:
            g = tuple(g)
            if g != ident and g not in seen:
                seen.add(g)
                gens.append(g)
        base = list(dict.fromkeys(base_prefix))
        for g in gens:
            if all(g[b] == b for b in base):
                base.append(min_moved(g))
        self.base = base
        # level_gens[i]: strong generators fixing base[:i] pointwise
        self.level_gens = [
            [g for g in gens if all(g[b] == b for b in base[:i])]
            for i in range(len(base))
        ]
        self.transversals = [None] * len(base)
        self.inv_transversals = [None] * len(base)
        self.tree_edges = [None] * len(base)
        for i in range(len(base)):
            self._rebuild_transversal(i)
        self._filtered = {}
        self._known_order = order
        if not self._reached_order():
            self._schreier_sims()
        if order is not None and self.order() != order:
            raise InternalConsistencyError(
                f"Schreier-Sims ended at order {self.order()}, "
                f"below the known order {order}")

    def _rebuild_transversal(self, i):
        tr, self.tree_edges[i] = orbit_transversal(self.base[i], self.level_gens[i],
                                                   self._ident)
        self.transversals[i] = tr
        self.inv_transversals[i] = {y: inverse(u) for y, u in tr.items()}

    def _reached_order(self):
        """True once the transversal product equals the known order."""
        if self._known_order is None:
            return False
        n = self.order()
        if n > self._known_order:
            raise InternalConsistencyError(
                f"transversal product {n} exceeds the known order "
                f"{self._known_order}")
        return n == self._known_order

    def _strip(self, h, start=0):
        """Sift h through levels >= start; (None, _) means h is in that subgroup."""
        for l in range(start, len(self.base)):
            y = h[self.base[l]]
            if y == self.base[l]:
                continue
            inv_tr = self.inv_transversals[l]
            if y not in inv_tr:
                return h, l + 1
            h = compose(h, inv_tr[y])
        if h == self._ident:
            return None, len(self.base) + 1
        return h, len(self.base) + 1

    def _schreier_sims(self):
        """Sift the Schreier generators u_beta g u_g(beta)^-1 of each level,
        from the last level down, in order of beta and then of g.

        A residue h that does not sift joins levels i+1..j-1, and the pass
        goes on at level j-1. A tree edge's generator is the identity and
        is skipped. Levels at or below i are untouched by h, so when the
        pass comes back down to level i it resumes at the pair that failed:
        every earlier pair sifted into <S_{i+1}>, which only grows, and the
        levels above i are complete again by then, so a rescan from the
        start would pass them all and fail first where this resumes.
        """
        base = self.base
        lgens = self.level_gens
        resume = {}  # level -> (its pairs, the index of the one that failed)
        i = len(base) - 1
        while i >= 0:
            tr = self.transversals[i]
            inv_tr = self.inv_transversals[i]
            gens = lgens[i]
            pairs, start = resume.pop(i, (None, 0))
            if pairs is None:
                edges = self.tree_edges[i]
                pairs = [(beta, k) for beta in sorted(tr) for k in range(len(gens))
                         if (beta, k) not in edges]
            for p in range(start, len(pairs)):
                beta, k = pairs[p]
                g = gens[k]
                inv_u = inv_tr[g[beta]]
                sg = tuple(inv_u[g[y]] for y in tr[beta])
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
                resume[i] = (pairs, p)
                i = j - 1
                break
            else:
                i -= 1

    def order(self, depth: int = 0) -> int:
        """Order of the subgroup fixing base[:depth] pointwise."""
        return prod(len(tr) for tr in self.transversals[depth:])

    def contains(self, p) -> bool:
        h, _ = self._strip(tuple(p))
        return h is None

    def stabilizer_generators(self, depth: int):
        """Generators of the subgroup fixing base[:depth] pointwise."""
        gens = self._filtered.get(depth)
        if gens is None:
            gens = self._filtered[depth] = tuple(
                sims_filter(self.degree, self.level_gens[depth])
                if depth < len(self.base) else ())
        return gens
