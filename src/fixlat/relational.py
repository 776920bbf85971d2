"""Orbit relations of an action and definable closure over them.

The canonical structure of a permutation action has, for each arity, one
relation per orbit on tuples of pairwise distinct points. Definable
closure then grows a point set by repeatedly adding every point that is
the unique completion of some relation tuple whose other coordinates are
already in the set. This is an independent route to the fixed-point
closure: it never overshoots it, and with enough arity it often meets it.

Whether a parameter set forces a point does not depend on the orbit, slot
or order it came from, so each arity limit gets one deduplicated table of
(parameter set, forced point) rows. Point sets travel as bit masks and are
closed in batches: each round of the fixpoint is one membership-gated
gather of that table over every set still growing, so a whole report costs
a few gathers per arity limit rather than a few per subset.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Optional

import numpy as np

from . import _kernels
from .errors import CapacityError, ValidationError
from .group import TUPLE_SPACE_CAP, PermutationGroup
from .perm import check_masks, mask_rows, points_from_mask, row_masks

ARITY_CAP = 4
EXHAUSTIVE_SUBSET_LIMIT = 12
SAMPLE_SIZE = 512
# bound on the (sets x table rows x width) bool intermediate of one gather
GATHER_CHUNK_BYTES = 16 << 20


def _decode(codes: np.ndarray, n: int, k: int) -> np.ndarray:
    """The digits of m k-tuple codes over n points, as (m, k) rows."""
    digits = np.unravel_index(codes, (n,) * k)
    return np.stack(digits, axis=1).astype(np.int64, copy=False)


@dataclass
class RelationalStructure:
    """Orbit relations per arity, with one unique-completion table per arity limit.

    relations[arity] is a tuple of (m, arity) arrays of distinct tuples,
    numbered by their least tuple. Each relation must be one orbit of the
    group on tuples, as ``canonical_structure`` makes them. A completion row
    says "the parameter set P forces v": some relation tuple has v in one
    slot and the points of P in the others, and no other tuple of that
    relation agrees with it off that slot. The row depends only on the set P
    and on v, so the table for a limit holds each (sorted P, v) once across
    all orbits, slots and arities up to the limit. Rows with |P| < limit - 1
    are padded with the sentinel point ``degree``, which the closure always
    counts as a member.
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
        than any lower row, so only those rows need deduplicating here. A
        group element maps two tuples that agree off a slot to two that
        agree off it, so a slot forces for every tuple of an orbit or for
        none: it is decided once per relation, on its first tuple. The table
        comes back as a one-item list of (params, values) pairs, the shape
        the benchmark's row counter reads.
        """
        n = self.degree
        if limit > 2:
            params, values = self.completion_table(limit - 1)
            params = np.hstack([params, np.full((params.shape[0], 1), n)])
        else:
            params, values = np.empty((0, 1), dtype=np.int64), np.empty(0, dtype=np.int64)
        radix = n ** np.arange(limit - 1, -1, -1, dtype=np.int64)
        rels = self.relations.get(limit, ())
        tuples = np.concatenate(rels) if rels else np.empty((0, limit), dtype=np.int64)
        # same[t, j]: tuple t agrees in slot j with the first tuple of its
        # relation; a slot is forced where that first tuple is the only one
        # agreeing with it off the slot. Deduplicating each slot's rows keeps
        # the list small.
        sizes = np.array([rel.shape[0] for rel in rels], dtype=np.int64)
        rel_id = np.repeat(np.arange(len(rels)), sizes)
        same = tuples == tuples[np.repeat(np.cumsum(sizes) - sizes, sizes)]
        codes = [np.empty(0, dtype=np.int64)]
        for slot in range(limit):
            others = [j for j in range(limit) if j != slot]
            agreeing = np.bincount(rel_id[same[:, others].all(1)], minlength=len(rels))
            single = np.flatnonzero(agreeing[rel_id] == 1)
            rest = tuples[np.ix_(single, others)]
            rest.sort(axis=1)
            codes.append(_kernels.sorted_unique(
                rest @ radix[:-1] + tuples[single, slot]))
        rows = _decode(_kernels.sorted_unique(np.concatenate(codes)), n, limit)
        return [(np.vstack([params, rows[:, :-1]]),
                 np.concatenate([values, rows[:, -1]]))]


def canonical_structure(G: PermutationGroup, max_arity: int = 3) -> RelationalStructure:
    """Orbit partition of distinct tuples for every arity in 2..max_arity."""
    if not (2 <= max_arity <= ARITY_CAP):
        raise ValidationError(f"max_arity must lie in 2..{ARITY_CAP}")
    n = G.degree
    perms = np.array(list(dict.fromkeys(G._gen_tuples)), dtype=np.int64).reshape(-1, n)
    relations: dict[int, tuple[np.ndarray, ...]] = {}
    for arity in range(2, max_arity + 1):
        if arity > n:
            relations[arity] = ()
            continue
        # the g x n^arity image tables of the distinct generators are
        # checked against the cap before they are allocated
        if max(len(perms), 1) * n**arity > TUPLE_SPACE_CAP:
            raise CapacityError(
                f"tuple tables {len(perms)} x {n}^{arity} exceed cap "
                f"{TUPLE_SPACE_CAP}", cap_name="tuple_space")
        labels, active = _kernels.tuple_orbit_labels(perms, arity)
        codes = np.flatnonzero(active)
        labels = labels[codes]
        # a stable sort by orbit keeps each orbit's codes ascending, and the
        # label (the orbit's least code) orders the orbits by least tuple
        order = np.argsort(labels, kind="stable")
        codes, labels = codes[order], labels[order]
        cuts = np.flatnonzero(np.diff(labels)) + 1
        relations[arity] = tuple(np.split(_decode(codes, n, arity), cuts))
    return RelationalStructure(n, max_arity, relations)


def relational_dcl(S: RelationalStructure, masks: Iterable[int],
                   arity_limit: Optional[int] = None) -> list[int]:
    """Least fixpoints of unique-completion, one per point mask, in order.

    Each mask is a set of points 0..degree-1 packed as bits, as
    ``closure.closure_mask`` takes them, and comes back as the mask of its
    definable closure over the relations of arity up to ``arity_limit``
    (default: the structure's ``max_arity``). All masks are closed together:
    each round is one gather over the (subset x point) membership rows still
    live, and a row leaves once it is full or did not grow. Rows go to the
    gather in chunks whose intermediate stays under ``GATHER_CHUNK_BYTES``.
    """
    params, values = S.completion_table(arity_limit)
    n = S.degree
    masks = check_masks(masks, n)
    if not params.shape[0]:
        return masks
    member = mask_rows([mask | 1 << n for mask in masks], n + 1)
    step = max(1, GATHER_CHUNK_BYTES // params.size)
    for start in range(0, len(masks), step):
        chunk = member[start:start + step]
        live = np.flatnonzero(~chunk.all(axis=1))
        while live.size:
            rows = chunk[live]
            grown = _kernels.gather_candidates(params, values, rows) & ~rows
            rows |= grown
            chunk[live] = rows
            live = live[grown.any(axis=1) & ~rows.all(axis=1)]
    return row_masks(member[:, :n])


@dataclass(frozen=True)
class DclComparisonReport:
    """Agreement between relational closure and fixed-point closure.

    Disagreement is expected behaviour when the arity cap is too low to
    express what the full action pins down; it is reported, not raised.
    ``sufficient_arity`` is the least arity at which every tested subset
    agreed, or None if even max_arity fell short. Each disagreement is
    kept as its (subset, dcl, fixset) masks; the point-tuple dicts are
    built only when asked for.
    """

    max_arity: int
    subsets_tested: int
    agreements: int
    disagreeing: tuple[tuple[int, int, int], ...]
    sufficient_arity: Optional[int]
    sound: bool

    @property
    def agreement_rate(self) -> float:
        return self.agreements / self.subsets_tested if self.subsets_tested else 1.0

    @cached_property
    def disagreements(self) -> tuple[dict, ...]:
        """Every disagreement as {"points", "dcl", "fixset"} point tuples."""
        return self.first_disagreements(len(self.disagreeing))

    def first_disagreements(self, count: int) -> tuple[dict, ...]:
        """The first ``count`` entries of ``disagreements``, built alone."""
        return tuple({"points": points_from_mask(mask),
                      "dcl": points_from_mask(top),
                      "fixset": points_from_mask(closed)}
                     for mask, top, closed in self.disagreeing[:count])


def dcl_vs_fixset_report(G: PermutationGroup, max_arity: int = 3,
                         seed: int = 0) -> DclComparisonReport:
    """Compare the two closures on every subset, or on a seeded sample of
    ``SAMPLE_SIZE`` subsets above ``EXHAUSTIVE_SUBSET_LIMIT`` points.

    The fixed-point side is one ``closure.closures`` call: it reads every
    tested subset's closure off the closed-set family when the family has
    no more sets than subsets are tested, and walks the tower once per
    subset otherwise. The dcl side closes all tested subsets in one batch
    per arity limit.
    """
    from .closure import closures

    n = G.degree
    S = canonical_structure(G, max_arity)
    if n <= EXHAUSTIVE_SUBSET_LIMIT or (1 << n) <= SAMPLE_SIZE:
        subsets = range(1 << n)
    else:
        rng = random.Random(seed)
        chosen = {0, (1 << n) - 1}
        while len(chosen) < SAMPLE_SIZE:
            chosen.add(rng.getrandbits(n))
        subsets = sorted(chosen)
    fix = closures(G, subsets)
    # dcl only grows with the arity limit, so each limit starts from the last
    dcl = subsets
    sufficient = None
    for a in range(2, max_arity + 1):
        dcl = relational_dcl(S, dcl, arity_limit=a)
        if sufficient is None and dcl == fix:
            sufficient = a
    disagreeing = tuple((mask, top, closed)
                        for mask, top, closed in zip(subsets, dcl, fix)
                        if top != closed)
    return DclComparisonReport(
        max_arity=max_arity,
        subsets_tested=len(subsets),
        agreements=len(subsets) - len(disagreeing),
        disagreeing=disagreeing,
        sufficient_arity=sufficient,
        sound=not any(top & ~closed for _, top, closed in disagreeing),
    )
