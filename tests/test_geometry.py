import random
from itertools import combinations

import pytest

from fixlat.closure import fixset_closure
from fixlat.errors import InternalConsistencyError, ValidationError
from fixlat.geometry import (gaussian_binomial, oracle_iso_check,
                             pgl_generators, pgl_order, projective_points,
                             span_closure, subspace_count, subspace_lattice)


def test_point_counts():
    assert projective_points(2, 2).num_points == 7
    assert projective_points(5, 1).num_points == 6
    assert projective_points(3, 2).num_points == 13
    assert projective_points(2, 3).num_points == 15


def test_points_are_canonical_and_lex_sorted():
    space = projective_points(3, 2)
    assert list(space.points) == sorted(space.points)
    for v in space.points:
        first = next(x for x in v if x)
        assert first == 1


def test_non_prime_rejected():
    with pytest.raises(ValidationError):
        projective_points(4, 2)
    with pytest.raises(ValidationError):
        projective_points(1, 2)


def test_span_examples():
    fano = projective_points(2, 2)
    assert span_closure(fano, [0, 1]) == (0, 1, 2)
    assert span_closure(fano, [3]) == (3,)
    assert span_closure(fano, []) == ()
    # three non-collinear points span everything
    assert span_closure(fano, [0, 1, 3]) == tuple(range(7))


def test_span_is_a_closure_operator():
    space = projective_points(3, 2)
    rng = random.Random(0)
    for _ in range(40):
        pts = rng.sample(range(13), rng.randrange(5))
        c = span_closure(space, pts)
        assert set(pts) <= set(c)
        assert span_closure(space, c) == c


def test_pgl_orders_match_closed_form(fano_group, pgl25, pgl42):
    assert fano_group.order() == pgl_order(2, 2) == 168
    assert pgl25.order() == pgl_order(5, 1) == 120
    assert pgl42.order() == pgl_order(2, 3) == 20160
    assert pgl_generators(3, 2).order() == pgl_order(3, 2) == 5616


def test_subspace_lattice_counts():
    assert subspace_lattice(2, 2).size == 16
    assert subspace_lattice(2, 3).size == 67
    assert subspace_lattice(3, 2).size == 28
    assert gaussian_binomial(3, 1, 2) == gaussian_binomial(3, 2, 2) == 7
    assert gaussian_binomial(4, 2, 2) == 35
    assert subspace_count(2, 3) == 67


def test_subspace_lattice_is_every_span():
    space = projective_points(2, 2)
    spans = {span_closure(space, pts) for r in range(8)
             for pts in combinations(range(7), r)}
    assert subspace_lattice(2, 2).labels == tuple(
        sorted(spans, key=lambda t: (len(t), t)))


def test_subspace_lattice_is_graded_by_rank():
    L = subspace_lattice(2, 2)
    sizes = sorted(len(lab) for lab in L.labels)
    assert sizes == [0] + [1] * 7 + [3] * 7 + [7]


def test_oracle_iso_binary_spaces(fano_group):
    assert oracle_iso_check(2, 2)
    assert oracle_iso_check(2, 3)


def test_oracle_iso_fails_over_gf3():
    # with a third scalar available, two fixed rays leave the rest of their
    # line free to move, so pairs are closed and the fixset family is
    # strictly larger than the subspace family
    assert not oracle_iso_check(3, 2)
    G = pgl_generators(3, 2)
    assert fixset_closure(G, [0, 1]).points == (0, 1)
    space = projective_points(3, 2)
    assert len(span_closure(space, [0, 1])) == 4


def test_fixset_closure_within_span(fano_group):
    # closure never escapes the span; they coincide over GF(2)
    space = projective_points(2, 2)
    for mask in range(1 << 7):
        pts = [x for x in range(7) if mask >> x & 1]
        fix = set(fixset_closure(fano_group, pts).points)
        span = set(span_closure(space, pts))
        assert fix == span
    space3 = projective_points(3, 2)
    G3 = pgl_generators(3, 2)
    rng = random.Random(1)
    for _ in range(60):
        pts = rng.sample(range(13), rng.randrange(6))
        assert (set(fixset_closure(G3, pts).points)
                <= set(span_closure(space3, pts)))


def test_fixset_closure_equals_span_pg32(pgl42):
    space = projective_points(2, 3)
    rng = random.Random(2)
    for _ in range(60):
        pts = rng.sample(range(15), rng.randrange(6))
        assert fixset_closure(pgl42, pts).points == span_closure(space, pts)
    for pair in combinations(range(15), 2):
        assert fixset_closure(pgl42, pair).points == span_closure(space, pair)


def test_generator_verification_guard(monkeypatch):
    import fixlat.geometry as geo
    broken = [[[1 if r == c else 0 for c in range(3)] for r in range(3)]]
    monkeypatch.setattr(geo, "_matrices", lambda p, n: broken)
    with pytest.raises(InternalConsistencyError):
        pgl_generators(2, 2)
