"""JSON wire formats and DOT emission.

Formats:

* group:   {"degree": n, "generators": [[...images], "(0 1 2)", ...],
            "labels": [...optional, one per point; checked, not kept]}
* lattice: {"size": n, "covers": [[i, j], ...]}  (j covers i; order is the
            reflexive-transitive closure of the cover edges)
* fixset lattice: {"degree": n, "elements": [[points], ...],
            "covers": [[i, j], ...]}
* steiner: {"k": k, "points": n, "blocks": [[...], ...]}

Writers pass the library's tuples through as they are; ``canonical_json``
writes a tuple as the same array as a list. Readers take numbers as JSON
integers only: a float, a numeric string or a bool where an integer
belongs is a ``ValidationError``, never rounded.

JSON output is canonical (sorted keys, two-space indent, ASCII escapes,
trailing newline), so identical inputs produce identical bytes.
"""

from __future__ import annotations

import json
from typing import Any

import numpy as np

from .closure import FixsetLattice
from .errors import CapacityError, ValidationError
from .group import PermutationGroup
from .lattice import LATTICE_CAP, order_from_covers
from .steiner import SteinerSystem, make_system


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


def _int(value) -> int:
    """value, if it is a JSON integer (an int, not a bool)."""
    if type(value) is not int:
        raise TypeError(f"expected an integer, got {value!r}")
    return value


def _list(value) -> list:
    """value, if it is a JSON array."""
    if type(value) is not list:
        raise TypeError(f"expected a list, got {value!r}")
    return value


# -- groups -----------------------------------------------------------------


def group_to_obj(group: PermutationGroup) -> dict:
    return {"degree": group.degree,
            "generators": [g.images for g in group.generators]}


def group_from_obj(obj: dict) -> PermutationGroup:
    """The group of a group object; ``labels``, if given, must be a list of
    one entry per point, but is not kept."""
    try:
        degree = _int(obj["degree"])
        raw_gens = [g if isinstance(g, str) else list(map(_int, _list(g)))
                    for g in _list(obj["generators"])]
        labels = obj.get("labels")
        n_labels = None if labels is None else len(_list(labels))
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"bad group object: {exc}") from exc
    group = PermutationGroup(degree, raw_gens)
    if n_labels not in (None, degree):
        raise ValidationError(f"{n_labels} labels for degree {degree}")
    return group


# -- plain lattices -----------------------------------------------------------


def raw_lattice_from_obj(obj: dict, cap: int = LATTICE_CAP) -> np.ndarray:
    """Order matrix from a covers object without lattice validation.

    The size is checked against ``cap`` before the size-by-size matrix is
    allocated.
    """
    try:
        size = _int(obj["size"])
        covers = [(_int(i), _int(j)) for i, j in _list(obj["covers"])]
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
    return {"degree": fl.degree, "size": len(fl), "elements": fl.elements,
            "covers": fl.covers()}


# -- Steiner systems ----------------------------------------------------------


def steiner_to_obj(sys: SteinerSystem) -> dict:
    return {"k": sys.k, "points": sys.num_points, "blocks": sys.blocks}


def steiner_from_obj(obj: dict) -> SteinerSystem:
    try:
        blocks = [list(map(_int, _list(b))) for b in _list(obj["blocks"])]
        return make_system(_int(obj["k"]), _int(obj["points"]), blocks)
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"bad steiner object: {exc}") from exc


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
