"""canonical_json against its oracle, the standard library's indented encoder."""

import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fixlat.serialize import canonical_json


def stdlib(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


ints = st.one_of(st.integers(-5, 40), st.integers(), st.integers(-2**200, 2**200))
floats = st.one_of(st.sampled_from([-0.0, 0.0, 1e300, -1e300, 5e-324, 0.1,
                                    math.nan, math.inf, -math.inf]),
                   st.floats(allow_nan=True, allow_infinity=True))
texts = st.text(st.one_of(st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f'),
                          st.characters()), max_size=12)
scalars = st.one_of(st.none(), st.booleans(), ints, floats, texts)
# one key family per dict: str keys do not sort against numbers
numeric_keys = st.one_of(st.booleans(), ints, st.floats(allow_nan=False))


def containers(children):
    return st.one_of(
        st.lists(children, max_size=6),
        st.lists(children, max_size=6).map(tuple),
        st.dictionaries(texts, children, max_size=6),
        st.dictionaries(numeric_keys, children, max_size=6))


int_rows = st.lists(st.one_of(st.lists(ints, max_size=5),
                              st.lists(ints, max_size=5).map(tuple)), max_size=6)
documents = st.recursive(st.one_of(scalars, st.lists(ints), int_rows,
                                   st.lists(st.one_of(ints, st.booleans()))),
                         containers, max_leaves=25)


@settings(max_examples=200, deadline=None)
@given(documents)
@example([])
@example({})
@example([[], [1, 2], [3]])
@example([[True, 1], [2]])
@example({None: [1], "k": {}})
@example({1: "a", 10: "b", 2.5: "c", True: "d"})
def test_canonical_json_matches_the_stdlib_encoder(doc):
    try:
        expected = stdlib(doc)
    except TypeError:  # e.g. None beside a str key: neither can sort
        with pytest.raises(TypeError):
            canonical_json(doc)
        return
    assert canonical_json(doc) == expected


@pytest.mark.parametrize("value", [np.int64(3), np.int32(3), np.bool_(True)])
@pytest.mark.parametrize("wrap", [
    lambda v: v, lambda v: [1, v], lambda v: [[1, v], [2]], lambda v: {"k": v}])
def test_numpy_scalars_still_raise(value, wrap):
    doc = wrap(value)
    with pytest.raises(TypeError) as ours:
        canonical_json(doc)
    with pytest.raises(TypeError) as theirs:
        stdlib(doc)
    assert str(ours.value) == str(theirs.value)


def test_unsupported_keys_raise_like_the_stdlib():
    with pytest.raises(TypeError) as ours:
        canonical_json({(1, 2): 0})
    with pytest.raises(TypeError) as theirs:
        stdlib({(1, 2): 0})
    assert str(ours.value) == str(theirs.value)
