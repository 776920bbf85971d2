import random
from itertools import combinations, product

import pytest

import fixlat.geometry as geo
import fixlat.group
import fixlat.lattice
from fixlat.closure import (FixsetLattice, closed_set_lattice, closure_mask,
                            enumerate_fixset_lattice)
from fixlat.errors import CapacityError, InternalConsistencyError, ValidationError
from fixlat.geometry import (gaussian_binomial, inverse_table, normalize,
                             oracle_iso_check, pgl_generators, pgl_order,
                             projective_points, span_closure, subspace_count,
                             subspace_lattice)
from fixlat.perm import mask_from_points, points_from_mask


def row_reduce(vectors, p, inv):
    """Row-echelon basis of the span of vectors over GF(p), pivots scaled to 1."""
    basis, pivots = [], []
    width = len(vectors[0]) if vectors else 0
    for vec in vectors:
        row = list(vec)
        for b, piv in zip(basis, pivots):
            if row[piv]:
                c = row[piv]
                row = [(x - c * y) % p for x, y in zip(row, b)]
        piv = next((i for i in range(width) if row[i]), None)
        if piv is None:
            continue
        scale = inv[row[piv]]
        row = [(x * scale) % p for x in row]
        at = next((k for k, q in enumerate(pivots) if q > piv), len(pivots))
        basis.insert(at, row)
        pivots.insert(at, piv)
    return basis


def row_reduction_span(space, points):
    """Oracle span: every nonzero combination of a row-reduced basis."""
    p, inv = space.p, inverse_table(space.p)
    basis = row_reduce([space.points[i] for i in sorted(set(points))], p, inv)
    out = set()
    for coeffs in product(range(p), repeat=len(basis)):
        if any(coeffs):
            vec = tuple(sum(c * b[i] for c, b in zip(coeffs, basis)) % p
                        for i in range(space.d + 1))
            out.add(space.index_of(normalize(vec, p, inv)))
    return tuple(sorted(out))


def span(space, points):
    """span_closure on a point list, as a sorted point tuple."""
    return points_from_mask(span_closure(
        space, mask_from_points(points, space.num_points)))


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


def filtered_points(p, d):
    """Every vector of GF(p)^(d+1) whose first nonzero coordinate is 1."""
    pts = []
    for vec in product(range(p), repeat=d + 1):
        for x in vec:
            if x:
                if x == 1:
                    pts.append(vec)
                break
    return pts


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
def test_points_equal_the_filtered_vectors(p, d):
    assert list(projective_points(p, d).points) == filtered_points(p, d)


def test_non_prime_rejected():
    with pytest.raises(ValidationError):
        projective_points(4, 2)
    with pytest.raises(ValidationError):
        projective_points(1, 2)


def test_span_examples():
    fano = projective_points(2, 2)
    assert span_closure(fano, 0b11) == 0b111
    assert span_closure(fano, 0b1000) == 0b1000
    assert span_closure(fano, 0) == 0
    # three non-collinear points span everything
    assert span_closure(fano, 0b1011) == 0b1111111


def test_span_is_a_closure_operator():
    space = projective_points(3, 2)
    rng = random.Random(0)
    for _ in range(40):
        mask = mask_from_points(rng.sample(range(13), rng.randrange(5)), 13)
        c = span_closure(space, mask)
        assert mask & c == mask
        assert span_closure(space, c) == c


@pytest.mark.parametrize("p,d", [(2, 2), (5, 1)])
def test_span_matches_row_reduction_on_every_subset(p, d):
    space = projective_points(p, d)
    for mask in range(1 << space.num_points):
        assert (points_from_mask(span_closure(space, mask))
                == row_reduction_span(space, points_from_mask(mask)))


@pytest.mark.parametrize("p,d", [(3, 2), (3, 3), (5, 2), (2, 4)])
def test_span_matches_row_reduction_on_random_subsets(p, d):
    space = projective_points(p, d)
    rng = random.Random(100 * p + d)
    for _ in range(200):
        pts = rng.sample(range(space.num_points), rng.randrange(d + 3))
        assert span(space, pts) == row_reduction_span(space, pts)


BAD_MASKS = [True, 1.0, "1", -1, 1 << 7, [0, 1], False]


@pytest.mark.parametrize("bad", BAD_MASKS,
                         ids=[f"bad{i}" for i in range(len(BAD_MASKS))])
def test_span_rejects_non_points(bad):
    with pytest.raises(ValidationError, match="out of range"):
        span_closure(projective_points(2, 2), bad)


def test_line_table_holds_requested_lines():
    space = projective_points(3, 2)
    assert span(space, [0, 5]) == row_reduction_span(space, [0, 5])
    assert list(space._lines) == [(0, 5)]
    lines = {space.line_mask(a, x) for a, x in combinations(range(13), 2)}
    assert len(lines) == 13
    assert all(bin(m).count("1") == 4 for m in lines)
    assert space.line_mask(5, 0) == space.line_mask(0, 5)


def test_pgl_orders_match_closed_form(fano_group, pgl25, pgl42):
    assert fano_group.order() == pgl_order(2, 2) == 168
    assert pgl25.order() == pgl_order(5, 1) == 120
    assert pgl42.order() == pgl_order(2, 3) == 20160
    assert pgl_generators(3, 2).order() == pgl_order(3, 2) == 5616


def test_subspace_lattice_counts():
    assert len(subspace_lattice(2, 2)) == 16
    assert len(subspace_lattice(2, 3)) == 67
    assert len(subspace_lattice(3, 2)) == 28
    assert gaussian_binomial(3, 1, 2) == gaussian_binomial(3, 2, 2) == 7
    assert gaussian_binomial(4, 2, 2) == 35
    assert subspace_count(2, 3) == 67


@pytest.mark.parametrize("p,d,count", [(2, 4, 374), (3, 3, 212), (5, 2, 64)])
def test_subspace_lattice_counts_and_labels_are_spans(p, d, count):
    fl = subspace_lattice(p, d)
    assert len(fl) == subspace_count(p, d) == count
    space = projective_points(p, d)
    assert all(row_reduction_span(space, e) == e for e in fl.elements)


def test_subspace_lattice_closes_through_span_closure(monkeypatch):
    calls = []
    inner = geo.span_closure

    def counted(space, mask):
        calls.append(1)
        return inner(space, mask)

    monkeypatch.setattr(geo, "span_closure", counted)
    assert len(subspace_lattice(2, 3)) == 67
    assert calls


@pytest.mark.parametrize("cap", [1, 27])
def test_subspace_count_checked_against_the_cap_before_the_walk(monkeypatch,
                                                                 cap):
    # PG(2,3) has 28 subspaces: the error is the walk's own, raised from
    # the closed-form count before any span is taken
    space = projective_points(3, 2)
    with pytest.raises(CapacityError) as walk:
        closed_set_lattice(space.num_points,
                           lambda mask: (span_closure(space, mask), ()), cap)
    monkeypatch.setattr(geo, "span_closure", None)
    with pytest.raises(CapacityError) as early:
        subspace_lattice(3, 2, cap=cap)
    assert ((str(early.value), early.value.cap_name, early.value.partial)
            == (str(walk.value), walk.value.cap_name, walk.value.partial))


def test_subspace_count_checked_against_the_order_matrix_cap(monkeypatch):
    monkeypatch.setattr(geo, "span_closure", None)
    monkeypatch.setattr(fixlat.lattice, "ORDER_MATRIX_CAP", 27)
    with pytest.raises(CapacityError, match="order matrix of 28 elements "
                                            "exceeds cap 27") as exc:
        subspace_lattice(3, 2)
    assert exc.value.cap_name == "order_matrix"


def test_subspace_lattice_is_every_span():
    space = projective_points(2, 2)
    spans = {points_from_mask(span_closure(space, mask)) for mask in range(1 << 7)}
    assert subspace_lattice(2, 2).elements == tuple(
        sorted(spans, key=lambda t: (len(t), t)))


def test_subspace_lattice_is_graded_by_rank():
    sizes = sorted(len(e) for e in subspace_lattice(2, 2).elements)
    assert sizes == [0] + [1] * 7 + [3] * 7 + [7]


def test_subspace_lattice_is_a_family():
    fl = subspace_lattice(2, 2)
    assert isinstance(fl, FixsetLattice)
    assert fl.degree == 7


@pytest.mark.parametrize("d", [2, 3, 4])
def test_binary_subspace_masks_are_the_pgl_fixset_masks(d):
    # over GF(2) the fixsets of PGL are exactly the projective subspaces,
    # and both families list their masks in (size, points) order
    assert (subspace_lattice(2, d).masks
            == enumerate_fixset_lattice(pgl_generators(2, d)).masks)


def test_oracle_iso_binary_spaces(fano_group):
    assert oracle_iso_check(2, 2)
    assert oracle_iso_check(2, 3)


def test_oracle_iso_fails_over_gf3():
    # with a third scalar available, two fixed rays leave the rest of their
    # line free to move, so pairs are closed and the fixset family is
    # strictly larger than the subspace family
    assert not oracle_iso_check(3, 2)
    G = pgl_generators(3, 2)
    assert closure_mask(G, 0b11) == 0b11
    space = projective_points(3, 2)
    assert span_closure(space, 0b11).bit_count() == 4


def test_fixset_closure_within_span(fano_group):
    # closure never escapes the span; they coincide over GF(2)
    space = projective_points(2, 2)
    for mask in range(1 << 7):
        assert closure_mask(fano_group, mask) == span_closure(space, mask)
    space3 = projective_points(3, 2)
    G3 = pgl_generators(3, 2)
    rng = random.Random(1)
    for _ in range(60):
        mask = mask_from_points(rng.sample(range(13), rng.randrange(6)), 13)
        assert closure_mask(G3, mask) & ~span_closure(space3, mask) == 0


def test_fixset_closure_equals_span_pg32(pgl42):
    space = projective_points(2, 3)
    rng = random.Random(2)
    for _ in range(60):
        mask = mask_from_points(rng.sample(range(15), rng.randrange(6)), 15)
        assert closure_mask(pgl42, mask) == span_closure(space, mask)
    for pair in combinations(range(15), 2):
        mask = mask_from_points(pair, 15)
        assert closure_mask(pgl42, mask) == span_closure(space, mask)


def test_generator_verification_guard(monkeypatch):
    broken = [[[1 if r == c else 0 for c in range(3)] for r in range(3)]]
    monkeypatch.setattr(geo, "_matrices", lambda p, n: broken)
    with pytest.raises(InternalConsistencyError):
        pgl_generators(2, 2)


def test_pgl_degree_cap_before_any_matrix(monkeypatch):
    # PG(1,99991) passes the point cap, and the dilation's primitive-root
    # search alone makes p - 1 pow calls per candidate root
    entered = []
    matrices = geo._matrices

    def recorded(p, n):
        entered.append((p, n))
        yield from matrices(p, n)

    monkeypatch.setattr(geo, "_matrices", recorded)
    monkeypatch.setattr(fixlat.group, "DEGREE_CAP", 6)
    with pytest.raises(CapacityError, match="degree 7 exceeds cap 6") as info:
        pgl_generators(2, 2)
    assert info.value.cap_name == "degree" and entered == []
