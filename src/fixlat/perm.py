"""Permutations of {0, ..., n-1} and cycle-notation parsing.

Composition is left to right: ``(p * q)(x) == q(p(x))``, i.e. apply ``p``
first. Internally permutations are tuples of images, which keeps them
hashable and cheap to compose.
"""

from __future__ import annotations

import re
from typing import Iterable, Sequence

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

    def fixed_points(self) -> tuple[int, ...]:
        return tuple(i for i, j in enumerate(self.images) if i == j)

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


def points_from_mask(mask: int) -> tuple[int, ...]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)
