"""JSON wire formats and DOT emission.

Formats:

* group:   {"degree": n, "generators": [[...images], "(0 1 2)", ...],
            "labels": [...optional strings]}
* lattice: {"size": n, "covers": [[i, j], ...]}  (j covers i; order is the
            reflexive-transitive closure of the cover edges)
* fixset lattice: {"degree": n, "elements": [[points], ...],
            "covers": [[i, j], ...]}
* steiner: {"k": k, "points": n, "blocks": [[...], ...]}
* structure: {"degree": n, "max_arity": a,
            "relations": {"2": [[[t0, t1], ...], ...], ...}}

JSON output is canonical (sorted keys, fixed separators, trailing
newline), so identical inputs produce identical bytes.
"""

from __future__ import annotations

import json
from typing import Any

import numpy as np

from .closure import FixsetLattice
from .errors import CapacityError, ValidationError
from .group import GroupAction, PermutationGroup, group_from_generators
from .lattice import LATTICE_CAP, FiniteLattice, order_from_covers
from .relational import RelationalStructure
from .steiner import SteinerSystem, make_system

STRUCTURE_DUMP_CAP = 1_000_000


def canonical_json(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


# -- groups -----------------------------------------------------------------


def group_to_obj(action: GroupAction | PermutationGroup) -> dict:
    if isinstance(action, GroupAction):
        group, labels = action.group, list(action.labels)
    else:
        group, labels = action, None
    obj = {
        "degree": group.degree,
        "generators": [list(g.images) for g in group.generators],
    }
    if labels is not None:
        obj["labels"] = labels
    return obj


def group_from_obj(obj: dict) -> GroupAction:
    try:
        degree = int(obj["degree"])
        raw_gens = obj["generators"]
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"bad group object: {exc}") from exc
    group = group_from_generators(degree, raw_gens)
    labels = obj.get("labels")
    if labels is None:
        return GroupAction.unlabeled(group)
    return GroupAction(group, tuple(str(x) for x in labels))


# -- plain lattices -----------------------------------------------------------


def lattice_to_obj(L: FiniteLattice) -> dict:
    return {"size": L.size, "covers": [list(c) for c in L.covers()]}


def lattice_from_obj(obj: dict) -> FiniteLattice:
    return FiniteLattice(raw_lattice_from_obj(obj)[1])


def raw_lattice_from_obj(obj: dict,
                         cap: int = LATTICE_CAP) -> tuple[int, np.ndarray]:
    """Order matrix from a covers object without lattice validation.

    The size is checked against ``cap`` before the size-by-size matrix is
    allocated.
    """
    try:
        size = int(obj["size"])
        covers = [(int(i), int(j)) for i, j in obj["covers"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"bad lattice object: {exc}") from exc
    if size < 1:
        raise ValidationError(f"bad lattice object: size {size} is not positive")
    if size > cap:
        raise CapacityError(f"lattice size {size} exceeds cap {cap}",
                            cap_name="lattice")
    return size, order_from_covers(size, covers)


# -- fixset lattices ----------------------------------------------------------


def fixset_lattice_to_obj(fl: FixsetLattice) -> dict:
    # carries "size"/"covers" so the object is also valid lattice input
    return {
        "degree": fl.degree,
        "size": len(fl.elements),
        "elements": [list(e) for e in fl.elements],
        "covers": [list(c) for c in fl.covers()],
    }


def fixset_lattice_from_obj(obj: dict) -> FixsetLattice:
    try:
        degree = int(obj["degree"])
        elements = tuple(tuple(int(x) for x in e) for e in obj["elements"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"bad fixset lattice object: {exc}") from exc
    return FixsetLattice(degree, elements)


# -- Steiner systems ----------------------------------------------------------


def steiner_to_obj(sys: SteinerSystem) -> dict:
    return {"k": sys.k, "points": sys.num_points,
            "blocks": [list(b) for b in sys.blocks]}


def steiner_from_obj(obj: dict) -> SteinerSystem:
    try:
        return make_system(int(obj["k"]), int(obj["points"]),
                           [[int(x) for x in b] for b in obj["blocks"]])
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"bad steiner object: {exc}") from exc


# -- relational structures -----------------------------------------------------


def structure_to_obj(S: RelationalStructure,
                     cap: int = STRUCTURE_DUMP_CAP) -> dict:
    total = sum(rel.shape[0] for rels in S.relations.values() for rel in rels)
    if total > cap:
        raise CapacityError(f"structure dump of {total} tuples exceeds cap {cap}",
                            cap_name="structure_dump")
    return {
        "degree": S.degree,
        "max_arity": S.max_arity,
        "relations": {
            str(arity): [rel.tolist() for rel in rels]
            for arity, rels in S.relations.items()
        },
    }


# -- DOT ------------------------------------------------------------------------


def covers_to_dot(size: int, covers, labels=None) -> str:
    """Hasse diagram as a DOT digraph, bottom-up."""
    lines = ["digraph hasse {", "  rankdir=BT;"]
    for i in range(size):
        text = str(labels[i]) if labels is not None else str(i)
        lines.append(f'  n{i} [label="{text}"];')
    for i, j in covers:
        lines.append(f"  n{i} -> n{j};")
    lines.append("}")
    return "\n".join(lines) + "\n"
