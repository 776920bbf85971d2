import random

import pytest

from fixlat.errors import ValidationError
from fixlat.group import PermutationGroup
from fixlat.perm import (Permutation, format_cycles, mask_from_points,
                         parse_cycles, points_from_mask)


def test_identity_and_call():
    p = Permutation.identity(5)
    assert p.is_identity()
    assert [p(i) for i in range(5)] == list(range(5))


@pytest.mark.parametrize("bad", [[0, 0, 1], [1, 2], [0, 1, 3], [-1, 0, 1],
                                 [True, False, 2], [0, 2, True]])
def test_rejects_non_bijections(bad):
    with pytest.raises(ValidationError):
        Permutation(bad)


def test_compose_is_left_to_right():
    p = Permutation([1, 2, 0])
    q = Permutation([0, 2, 1])
    assert (p * q)(0) == q(p(0))


def test_compose_with_inverse_is_identity():
    rng = random.Random(7)
    for _ in range(50):
        n = rng.randrange(1, 12)
        images = list(range(n))
        rng.shuffle(images)
        p = Permutation(images)
        assert (p * p.inverse()).is_identity()
        assert (p.inverse() * p).is_identity()


def test_cycle_roundtrip():
    rng = random.Random(3)
    for _ in range(50):
        n = rng.randrange(2, 10)
        images = list(range(n))
        rng.shuffle(images)
        p = Permutation(images)
        assert Permutation.from_cycles(p.cycle_string(), n) == p


def test_parse_cycles_examples():
    assert parse_cycles("(0 1 2)(3 4)", 5) == (1, 2, 0, 4, 3)
    assert parse_cycles("(0,1)", 3) == (1, 0, 2)
    assert parse_cycles("()", 4) == (0, 1, 2, 3)
    assert format_cycles((1, 2, 0, 4, 3)) == "(0 1 2)(3 4)"


def test_parse_cycles_rejects_garbage():
    with pytest.raises(ValidationError):
        parse_cycles("(0 1 7)", 3)
    with pytest.raises(ValidationError):
        parse_cycles("(0 0)", 3)
    with pytest.raises(ValidationError):
        parse_cycles("0 1 2", 3)


def test_mask_helpers():
    m = mask_from_points([0, 2, 5], 6)
    assert points_from_mask(m) == (0, 2, 5)
    with pytest.raises(ValidationError):
        mask_from_points([6], 6)


def test_bools_are_not_points():
    # bool is an int subclass, so an isinstance check alone lets it through
    with pytest.raises(ValidationError):
        mask_from_points([True], 3)
    with pytest.raises(ValidationError):
        mask_from_points([0, False], 3)
    with pytest.raises(ValidationError):
        PermutationGroup(3, [[True, False, 2]])
