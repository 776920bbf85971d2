"""Permutations of {0, ..., n-1} and cycle-notation parsing.

Composition is left to right: ``(p * q)(x) == q(p(x))``, i.e. apply ``p``
first. Internally permutations are tuples of images, which keeps them
hashable and cheap to compose.
"""

from __future__ import annotations

import re
from typing import Iterable, Sequence

import numpy as np

from .errors import ValidationError

_CYCLE_RE = re.compile(r"\(([^()]*)\)")


def _validate_images(images: Sequence[int]) -> tuple[int, ...]:
    n = len(images)
    seen = [False] * n
    for x in images:
        if type(x) is not int or not (0 <= x < n) or seen[x]:
            raise ValidationError(f"not a bijection of 0..{n - 1}: {list(images)!r}")
        seen[x] = True
    return tuple(images)


class Permutation:
    """An immutable bijection of {0, ..., n-1}."""

    __slots__ = ("images",)

    def __init__(self, images: Sequence[int]):
        object.__setattr__(self, "images", _validate_images(images))

    def __setattr__(self, name, value):
        raise AttributeError("Permutation is immutable")

    @classmethod
    def identity(cls, degree: int) -> "Permutation":
        return cls(range(degree))

    @classmethod
    def from_cycles(cls, text: str, degree: int) -> "Permutation":
        """Parse cycle notation like ``"(0 1 2)(3 4)"`` (commas also allowed)."""
        return cls(parse_cycles(text, degree))

    @property
    def degree(self) -> int:
        return len(self.images)

    def __call__(self, x: int) -> int:
        return self.images[x]

    def __mul__(self, other: "Permutation") -> "Permutation":
        if len(self.images) != len(other.images):
            raise ValidationError("cannot compose permutations of different degree")
        q = other.images
        return Permutation([q[i] for i in self.images])

    def inverse(self) -> "Permutation":
        inv = [0] * len(self.images)
        for i, j in enumerate(self.images):
            inv[j] = i
        return Permutation(inv)

    def is_identity(self) -> bool:
        return all(i == j for i, j in enumerate(self.images))

    def cycle_string(self) -> str:
        return format_cycles(self.images)

    def __eq__(self, other) -> bool:
        return isinstance(other, Permutation) and self.images == other.images

    def __hash__(self) -> int:
        return hash(self.images)

    def __repr__(self) -> str:
        return f"Permutation({self.cycle_string()!r}, degree={self.degree})"


def parse_cycles(text: str, degree: int) -> tuple[int, ...]:
    """Turn cycle notation into an image tuple acting on 0..degree-1."""
    stripped = text.strip()
    if not stripped:
        raise ValidationError("empty cycle string")
    if _CYCLE_RE.sub("", stripped).strip():
        raise ValidationError(f"unparseable cycle notation: {text!r}")
    images = list(range(degree))
    for body in _CYCLE_RE.findall(stripped):
        parts = [p for p in re.split(r"[,\s]+", body.strip()) if p]
        if not parts:
            continue
        try:
            cycle = [int(p) for p in parts]
        except ValueError:
            raise ValidationError(f"bad cycle entry in {text!r}") from None
        if len(set(cycle)) != len(cycle):
            raise ValidationError(f"repeated point in cycle {body!r}")
        for x in cycle:
            if not (0 <= x < degree):
                raise ValidationError(f"point {x} out of range 0..{degree - 1}")
        # apply this cycle after the ones already read
        step = list(range(degree))
        for a, b in zip(cycle, cycle[1:]):
            step[a] = b
        step[cycle[-1]] = cycle[0]
        images = [step[i] for i in images]
    return _validate_images(images)


def format_cycles(images: Sequence[int]) -> str:
    seen = set()
    out = []
    for i in range(len(images)):
        if i in seen or images[i] == i:
            continue
        cycle = [i]
        j = images[i]
        while j != i:
            seen.add(j)
            cycle.append(j)
            j = images[j]
        out.append("(" + " ".join(map(str, cycle)) + ")")
    return "".join(out) if out else "()"


def mask_from_points(points: Iterable[int], degree: int) -> int:
    """Pack a point set into a bit mask, validating the range."""
    mask = 0
    for x in points:
        if type(x) is not int or not (0 <= x < degree):
            raise ValidationError(f"point {x!r} out of range 0..{degree - 1}")
        mask |= 1 << x
    return mask


def check_mask(mask: int, degree: int) -> int:
    """The mask, if it is a plain int (not a bool) in 0..2**degree - 1."""
    if type(mask) is not int or mask < 0 or mask >> degree:
        raise ValidationError(
            f"mask {mask!r} out of range: need an int in 0..2**{degree} - 1")
    return mask


def check_masks(masks: Iterable[int], degree: int) -> list[int]:
    """The masks as a list, each checked as ``check_mask`` checks it.

    A list of plain ints in range passes on one look at its types, least
    and greatest entry; any other list is checked mask by mask, so the
    first bad mask raises ``check_mask``'s error.
    """
    masks = list(masks)
    if masks and not (set(map(type, masks)) == {int} and min(masks) >= 0
                      and not max(masks) >> degree):
        for mask in masks:
            check_mask(mask, degree)
    return masks


def points_from_mask(mask: int) -> tuple[int, ...]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def mask_rows(masks: Sequence[int], width: int) -> np.ndarray:
    """(m, width) bool rows of m point masks: rows[i, x] is bit x of masks[i].

    Each mask must lie in 0..2**width - 1; width 0 gives m empty rows.
    """
    nbytes = (width + 7) // 8
    raw = b"".join(mask.to_bytes(nbytes, "little") for mask in masks)
    bits = np.frombuffer(raw, dtype=np.uint8).reshape(len(masks), nbytes)
    return np.unpackbits(bits, axis=1, count=width, bitorder="little").astype(bool)


def row_masks(rows: np.ndarray) -> list[int]:
    """The point masks of (m, width) bool rows, the inverse of mask_rows."""
    packed = np.packbits(rows, axis=1, bitorder="little")
    raw, step = packed.tobytes(), packed.shape[1]
    return [int.from_bytes(raw[i * step:(i + 1) * step], "little")
            for i in range(packed.shape[0])]
