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

JSON output is canonical (sorted keys, two-space indent, ASCII escapes,
trailing newline), so identical inputs produce identical bytes.
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
    """``json.dumps(obj, sort_keys=True, indent=2) + "\\n"``, byte for byte.

    With an indent the standard library runs its pure-Python encoder, item
    by item. This writer builds the same text from C-level joins: lists of
    plain ints (``type(x) is int``, so no bools) and lists of such lists
    take fast paths, and every other scalar and non-str key goes through
    ``json.dumps``, so escapes, float spellings and the ``TypeError`` for
    unsupported types stay those of the standard library.
    """
    return _write(obj, "\n") + "\n"


_INT = {int}
_SEQUENCES = {list, tuple}


def _write(obj: Any, nl: str) -> str:
    """``obj`` as indented JSON; ``nl`` is the line break and indent of its
    enclosing level."""
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        inner = nl + "  "
        kinds = set(map(type, obj))
        flat = [x for row in obj for x in row] if kinds <= _SEQUENCES else None
        if kinds == _INT:
            body = ("," + inner).join(map(str, obj))
        elif flat is not None and set(map(type, flat)) <= _INT:
            body = _int_rows(obj, flat, inner)
        else:
            body = ("," + inner).join([_write(x, inner) for x in obj])
        return "[" + inner + body + nl + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = nl + "  "
        return "{" + inner + ("," + inner).join(
            [_key(k) + ": " + _write(v, inner) for k, v in sorted(obj.items())]
        ) + nl + "}"
    return json.dumps(obj)


def _int_rows(rows, flat: list[int], nl: str) -> str:
    """The items of a list of int lists, one %-template per row length
    filled from the flattened ints in a single formatting call."""
    inner = nl + "  "
    template = {k: "[" + inner + ("," + inner).join(["%d"] * k) + nl + "]"
                if k else "[]" for k in set(map(len, rows))}
    return ("," + nl).join(map(template.__getitem__, map(len, rows))) % tuple(flat)


def _key(key) -> str:
    # the encoder's spelling of non-str keys: "1", "true", "null", "NaN"
    if isinstance(key, str):
        return json.dumps(key)
    if key is None or isinstance(key, (int, float)):
        return '"' + json.dumps(key) + '"'
    raise TypeError("keys must be str, int, float, bool or None, "
                    f"not {key.__class__.__name__}")


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
    return FiniteLattice(raw_lattice_from_obj(obj))


def raw_lattice_from_obj(obj: dict, cap: int = LATTICE_CAP) -> np.ndarray:
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
    return order_from_covers(size, covers)


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


def structure_to_obj(S: RelationalStructure) -> dict:
    total = sum(rel.shape[0] for rels in S.relations.values() for rel in rels)
    if total > STRUCTURE_DUMP_CAP:
        raise CapacityError(
            f"structure dump of {total} tuples exceeds cap {STRUCTURE_DUMP_CAP}",
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
