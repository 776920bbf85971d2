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
from typing import Iterable, Optional

import numpy as np

from . import _kernels
from .errors import CapacityError, ValidationError
from .group import TUPLE_SPACE_CAP, PermutationGroup
from .perm import check_mask, points_from_mask

ARITY_CAP = 4
EXHAUSTIVE_SUBSET_LIMIT = 12
SAMPLE_SIZE = 512
# bound on the (sets x table rows x width) bool intermediate of one gather
GATHER_CHUNK_BYTES = 16 << 20


def _decode(codes: np.ndarray, n: int, k: int) -> np.ndarray:
    """The digits of m k-tuple codes over n points, as (m, k) rows."""
    out = np.empty((codes.size, k), dtype=np.int64)
    for j, (_, digit) in enumerate(_kernels.digit_columns(codes, n, k)):
        out[:, j] = digit
    return out


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
        than any lower row, so only those rows need deduplicating here. All
        relations of the arity are scanned together, one slot at a time. The
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
        rels = self.relations.get(limit, ())
        tuples = np.concatenate(rels) if rels else np.empty((0, limit), dtype=np.int64)
        # keyed by (relation, rest code), one sort per slot serves every
        # relation: a slot is forced where no other tuple of its relation
        # shares the rest. Deduplicating each slot's rows keeps the list small.
        rel_key = np.repeat(np.arange(len(rels), dtype=np.int64) * n ** (limit - 1),
                            [rel.shape[0] for rel in rels])
        codes = [np.empty(0, dtype=np.int64)]
        for slot in range(limit):
            others = [j for j in range(limit) if j != slot]
            key = rel_key.copy()
            for j, r in zip(others, radix[1:]):
                key += tuples[:, j] * r
            single = np.flatnonzero(_once(key))
            rest = tuples[np.ix_(single, others)]
            rest.sort(axis=1)
            codes.append(_kernels.sorted_unique(
                rest @ radix[:-1] + tuples[single, slot]))
        rows = _decode(_kernels.sorted_unique(np.concatenate(codes)), n, limit)
        return [(np.vstack([params, rows[:, :-1]]),
                 np.concatenate([values, rows[:, -1]]))]


def _once(keys: np.ndarray) -> np.ndarray:
    """Mask of the entries of keys that occur exactly once."""
    order = np.argsort(keys)
    ranked = keys[order]
    edge = np.ones(keys.size + 1, dtype=bool)
    edge[1:-1] = ranked[1:] != ranked[:-1]
    once = np.empty(keys.size, dtype=bool)
    once[order] = edge[:-1] & edge[1:]
    return once


def canonical_structure(G: PermutationGroup, max_arity: int = 3) -> RelationalStructure:
    """Orbit partition of distinct tuples for every arity in 2..max_arity."""
    if not (2 <= max_arity <= ARITY_CAP):
        raise ValidationError(f"max_arity must lie in 2..{ARITY_CAP}")
    n = G.degree
    perms = np.unique(np.array(G._gen_tuples, dtype=np.int64).reshape(-1, n),
                      axis=0)
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
    masks = [check_mask(mask, n) for mask in masks]
    if not params.shape[0]:
        return masks
    member = _mask_rows(masks, n)
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
    return _row_masks(member, n)


def _mask_rows(masks: list[int], n: int) -> np.ndarray:
    """(m, n+1) membership rows of the masks, with the sentinel column set."""
    width = n // 8 + 1
    sentinel = 1 << n
    raw = b"".join((mask | sentinel).to_bytes(width, "little") for mask in masks)
    bits = np.unpackbits(np.frombuffer(raw, dtype=np.uint8).reshape(-1, width),
                         axis=1, bitorder="little")
    return bits[:, :n + 1].astype(bool)


def _row_masks(member: np.ndarray, n: int) -> list[int]:
    """The masks of (m, n+1) membership rows, without the sentinel."""
    raw = np.packbits(member, axis=1, bitorder="little").tobytes()
    width = n // 8 + 1
    points = (1 << n) - 1
    return [int.from_bytes(raw[i:i + width], "little") & points
            for i in range(0, len(raw), width)]


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
    disagreements = []
    sound = True
    for mask, top, closed in zip(subsets, dcl, fix):
        if top != closed:
            disagreements.append({"points": points_from_mask(mask),
                                  "dcl": points_from_mask(top),
                                  "fixset": points_from_mask(closed)})
            if top & ~closed:
                sound = False
    return DclComparisonReport(
        max_arity=max_arity,
        subsets_tested=len(subsets),
        agreements=len(subsets) - len(disagreements),
        disagreements=tuple(disagreements),
        sufficient_arity=sufficient,
        sound=sound,
    )
