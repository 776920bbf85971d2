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
    sending b to z, found breadth-first with generators in list order."""
    tr = {b: ident}
    queue = [b]
    for y in queue:
        uy = tr[y]
        for g in gens:
            z = g[y]
            if z not in tr:
                tr[z] = compose(uy, g)
                queue.append(z)
    return tr


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
    """sims_filter over the rows of an (N, degree) array, batched.

    The table changes only when an entry is inserted, so every row is
    divided as far as the filled slots take it; then the residue of the
    first row blocked at an empty slot fills that slot, and only the rows
    blocked at that slot resume. Entries are inserted in increasing row
    order and a row divides only by entries of earlier rows, so the table
    and its insertion order are exactly those of sims_filter.
    """
    rows = np.array(rows, dtype=np.intp).reshape(-1, degree)
    ident = np.arange(degree)
    entry = np.full(degree * degree, -1)  # slot u * degree + v -> entry index
    inverses = np.empty((0, degree), dtype=np.intp)
    slot = np.full(len(rows), -1)  # empty slot each row waits at, else -1
    gens = []

    def sift(idx):
        r = rows[idx]
        while idx.size:
            u = (r != ident).argmax(axis=1)
            v = r[np.arange(len(r)), u]
            live = u != v  # u = v = 0 only on the identity
            idx, r = idx[live], r[live]
            s = u[live] * degree + v[live]
            e = entry[s]
            held = e < 0
            slot[idx[held]] = s[held]
            rows[idx[held]] = r[held]
            go = ~held
            idx, r = idx[go], inverses[e[go, None], r[go]]

    sift(np.arange(len(rows)))
    while True:
        waiting = np.flatnonzero(slot >= 0)
        if not waiting.size:
            return gens
        s = slot[waiting[0]]
        waiting = waiting[slot[waiting] == s]
        g = rows[waiting[0]]
        entry[s] = len(gens)
        gens.append(tuple(g.tolist()))
        inverses = np.vstack([inverses, np.argsort(g)[None, :]])
        slot[waiting] = -1
        sift(waiting[1:])


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
        tr = orbit_transversal(self.base[i], self.level_gens[i], self._ident)
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
