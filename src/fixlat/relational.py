"""Orbit relations of an action and definable closure over them.

The canonical structure of a permutation action has, for each arity, one
relation per orbit on tuples of pairwise distinct points. Definable
closure then grows a point set by repeatedly adding every point that is
the unique completion of some relation tuple whose other coordinates are
already in the set. This is an independent route to the fixed-point
closure: it never overshoots it, and with enough arity it often meets it.

Whether a parameter set forces a point does not depend on the orbit, slot
or order it came from, so each arity limit gets one deduplicated table of
(parameter set, forced point) rows, and each round of the fixpoint is one
membership-gated gather over that table.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Iterable, Optional

import numpy as np

from . import _kernels
from .errors import ValidationError
from .group import TUPLE_SPACE_CAP, PermutationGroup, _tuple_orbit_labels
from .perm import points_from_mask

ARITY_CAP = 4
EXHAUSTIVE_SUBSET_LIMIT = 12
SAMPLE_SIZE = 512


def _decode(codes: np.ndarray, n: int, k: int) -> np.ndarray:
    """The digits of m k-tuple codes over n points, as (m, k) rows."""
    return np.stack([d for _, d in _kernels.digit_columns(codes, n, k)], axis=1)


@dataclass
class RelationalStructure:
    """Orbit relations per arity, with one unique-completion table per arity limit.

    relations[arity] is a tuple of (m, arity) arrays of distinct tuples,
    numbered by their least tuple. A completion row says "the parameter set
    P forces v": some relation tuple has v in one slot and the points of P in
    the others, and no other tuple of that relation agrees with it off that
    slot. The row depends only on the set P and on v, so the table for a
    limit holds each (sorted P, v) once across all orbits, slots and arities
    up to the limit. Rows with |P| < limit - 1 are padded with the sentinel
    point ``degree``, which the closure always counts as a member.
    """

    degree: int
    max_arity: int
    relations: dict[int, tuple[np.ndarray, ...]]
    _tables: dict[int, list[tuple[np.ndarray, np.ndarray]]] = field(
        default_factory=dict, repr=False)

    def completion_table(self, arity_limit: Optional[int] = None
                         ) -> tuple[np.ndarray, np.ndarray]:
        """(m, limit-1) parameter rows and the m points they force."""
        limit = self.max_arity if arity_limit is None else arity_limit
        if not (isinstance(limit, int) and 2 <= limit <= self.max_arity):
            raise ValidationError(
                f"arity_limit must lie in 2..{self.max_arity}, got {limit!r}")
        if limit not in self._tables:
            self._tables[limit] = self._build_tables(limit)
        return self._tables[limit][0]

    def _build_tables(self, limit: int):
        """The table for ``limit``: the one below it, padded, plus new rows.

        Parameter sets of arity-``limit`` rows have limit - 1 points, more
        than any lower row, so only those rows need deduplicating here. The
        table comes back as a one-item list of (params, values) pairs, the
        shape the benchmark's row counter reads.
        """
        n = self.degree
        if limit > 2:
            params, values = self.completion_table(limit - 1)
            params = np.hstack([params, np.full((params.shape[0], 1), n)])
        else:
            params, values = np.empty((0, 1), dtype=np.int64), np.empty(0, dtype=np.int64)
        radix = n ** np.arange(limit - 1, -1, -1, dtype=np.int64)
        codes = [np.empty(0, dtype=np.int64)]
        for rel in self.relations.get(limit, ()):
            for slot in range(limit):
                rest = np.delete(rel, slot, axis=1)
                _, inverse, counts = np.unique(rest @ radix[1:], return_inverse=True,
                                               return_counts=True)
                single = counts[inverse] == 1
                codes.append(np.hstack([np.sort(rest[single], axis=1),
                                        rel[single, slot:slot + 1]]) @ radix)
        rows = _decode(np.unique(np.concatenate(codes)), n, limit)
        return [(np.vstack([params, rows[:, :-1]]),
                 np.concatenate([values, rows[:, -1]]))]


def canonical_structure(G: PermutationGroup, max_arity: int = 3) -> RelationalStructure:
    """Orbit partition of distinct tuples for every arity in 2..max_arity."""
    if not (2 <= max_arity <= ARITY_CAP):
        raise ValidationError(f"max_arity must lie in 2..{ARITY_CAP}")
    n = G.degree
    relations: dict[int, tuple[np.ndarray, ...]] = {}
    for arity in range(2, max_arity + 1):
        if arity > n:
            relations[arity] = ()
            continue
        labels, active = _tuple_orbit_labels(G._gen_tuples, n, arity,
                                             TUPLE_SPACE_CAP)
        labels = np.where(active, labels, -1)
        reps = np.unique(labels[active])
        rels = []
        for rep in reps:
            codes = np.flatnonzero(labels == rep)
            rels.append(_decode(codes, n, arity))
        relations[arity] = tuple(rels)
    return RelationalStructure(n, max_arity, relations)


def relational_dcl(S: RelationalStructure, points: Iterable[int],
                   arity_limit: Optional[int] = None) -> tuple[int, ...]:
    """Least fixpoint of unique-completion over the structure's relations."""
    params, values = S.completion_table(arity_limit)
    n = S.degree
    pts = list(points)
    for x in pts:
        if not isinstance(x, int) or not (0 <= x < n):
            raise ValidationError(f"point {x!r} out of range 0..{n - 1}")
    member = np.zeros(n + 1, dtype=bool)
    member[np.array(pts, dtype=np.int64)] = True
    member[n] = True  # the padding sentinel
    while params.shape[0] and not member.all():
        forced = _kernels.gather_candidates(params, values, member)
        new = forced[~member[forced]]
        if new.size == 0:
            break
        member[new] = True
    return tuple(int(x) for x in np.flatnonzero(member[:n]))


@dataclass(frozen=True)
class DclComparisonReport:
    """Agreement between relational closure and fixed-point closure.

    Disagreement is expected behaviour when the arity cap is too low to
    express what the full action pins down; it is reported, not raised.
    ``sufficient_arity`` is the least arity at which every tested subset
    agreed, or None if even max_arity fell short.
    """

    max_arity: int
    subsets_tested: int
    agreements: int
    disagreements: tuple[dict, ...]
    sufficient_arity: Optional[int]
    sound: bool

    @property
    def agreement_rate(self) -> float:
        return self.agreements / self.subsets_tested if self.subsets_tested else 1.0


def dcl_vs_fixset_report(G: PermutationGroup, max_arity: int = 3,
                         seed: int = 0) -> DclComparisonReport:
    """Compare the two closures on every subset, or on a seeded sample of
    ``SAMPLE_SIZE`` subsets above ``EXHAUSTIVE_SUBSET_LIMIT`` points."""
    from .closure import closure_mask

    n = G.degree
    if n <= EXHAUSTIVE_SUBSET_LIMIT or (1 << n) <= SAMPLE_SIZE:
        subsets = range(1 << n)
    else:
        rng = random.Random(seed)
        chosen = {0, (1 << n) - 1}
        while len(chosen) < SAMPLE_SIZE:
            chosen.add(rng.getrandbits(n))
        subsets = sorted(chosen)
    S = canonical_structure(G, max_arity)
    per_arity_ok = {a: True for a in range(2, max_arity + 1)}
    disagreements = []
    agreements = 0
    sound = True
    for mask in subsets:
        pts = points_from_mask(mask)
        fix = points_from_mask(closure_mask(G, mask))
        top = relational_dcl(S, pts)
        if top == fix:
            agreements += 1
        else:
            disagreements.append({"points": pts, "dcl": top, "fixset": fix})
            if not set(top) <= set(fix):
                sound = False
        for a in range(2, max_arity):
            if per_arity_ok[a] and relational_dcl(S, pts, arity_limit=a) != fix:
                per_arity_ok[a] = False
        if top != fix:
            per_arity_ok[max_arity] = False
    sufficient = next((a for a in range(2, max_arity + 1) if per_arity_ok[a]), None)
    return DclComparisonReport(
        max_arity=max_arity,
        subsets_tested=len(subsets),
        agreements=agreements,
        disagreements=tuple(disagreements),
        sufficient_arity=sufficient,
        sound=sound,
    )
