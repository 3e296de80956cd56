"""Canonical encoding: determinism, typing, and rejection of the rest."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import SerializationError
from collections import OrderedDict
from types import MappingProxyType

from repro.serialization import canonical_encode, own


class TestBasicTypes:
    def test_none(self):
        assert canonical_encode(None) == b"N"

    def test_bools_distinct_from_ints(self):
        assert canonical_encode(True) != canonical_encode(1)
        assert canonical_encode(False) != canonical_encode(0)

    def test_int_vs_str_distinct(self):
        assert canonical_encode(1) != canonical_encode("1")

    def test_bytes_vs_str_distinct(self):
        assert canonical_encode(b"ab") != canonical_encode("ab")

    def test_negative_int(self):
        assert canonical_encode(-5) != canonical_encode(5)

    def test_float_roundtrip_stability(self):
        assert canonical_encode(0.1) == canonical_encode(0.1)
        assert canonical_encode(0.1) != canonical_encode(0.2)


class TestContainers:
    def test_dict_order_independence(self):
        a = canonical_encode({"x": 1, "y": [2, 3], "z": {"k": None}})
        b = canonical_encode({"z": {"k": None}, "y": [2, 3], "x": 1})
        assert a == b

    def test_list_order_matters(self):
        assert canonical_encode([1, 2]) != canonical_encode([2, 1])

    def test_tuple_encodes_like_list(self):
        assert canonical_encode((1, 2)) == canonical_encode([1, 2])

    def test_empty_containers_distinct(self):
        assert canonical_encode([]) != canonical_encode({})

    def test_nested_structure(self):
        value = {"a": [{"b": (1, 2)}, None], "c": b"\x00\xff"}
        assert canonical_encode(value) == canonical_encode(value)

    def test_non_string_keys_rejected(self):
        with pytest.raises(SerializationError):
            canonical_encode({1: "x"})


class TestRejection:
    def test_object_rejected(self):
        with pytest.raises(SerializationError):
            canonical_encode(object())

    def test_set_rejected(self):
        # Sets are unordered; silently encoding them would be a trap.
        with pytest.raises(SerializationError):
            canonical_encode({1, 2})

    def test_to_canonical_hook(self):
        class Wraps:
            def to_canonical(self):
                return {"v": 7}

        assert canonical_encode(Wraps()) == canonical_encode({"v": 7})


json_like = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text() | st.binary(),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=20,
)


class TestProperties:
    @given(json_like)
    def test_deterministic(self, value):
        assert canonical_encode(value) == canonical_encode(value)

    @given(st.dictionaries(st.text(max_size=6), st.integers(), max_size=6))
    def test_dict_insertion_order_irrelevant(self, d):
        items = list(d.items())
        reversed_dict = dict(reversed(items))
        assert canonical_encode(d) == canonical_encode(reversed_dict)

    @given(st.lists(st.integers(), max_size=8),
           st.lists(st.integers(), max_size=8))
    def test_injective_on_int_lists(self, a, b):
        if a != b:
            assert canonical_encode(a) != canonical_encode(b)


def _containers(value):
    """Every list and dict inside ``value``, ``value`` included."""
    found = []
    if isinstance(value, (list, dict)):
        found.append(value)
    children = value.values() if isinstance(value, dict) else (
        value if isinstance(value, (list, tuple)) else ())
    for child in children:
        found.extend(_containers(child))
    return found


class TestOwn:
    @given(json_like)
    def test_an_owned_copy_shares_no_container(self, value):
        copy = own(value)
        assert canonical_encode(copy) == canonical_encode(value)
        originals = {id(c) for c in _containers(value)}
        assert not originals & {id(c) for c in _containers(copy)}

    def test_frozen_and_subclassed_containers_are_copied(self):
        inner = OrderedDict(files=["x"])
        value = MappingProxyType({"inputs": inner, "tags": ("a", ["b"])})
        copy = own(value)
        assert type(copy) is dict and type(copy["inputs"]) is dict
        copy["inputs"]["files"].append("y")
        copy["tags"][1].append("c")
        assert inner == {"files": ["x"]}
        assert value["tags"] == ("a", ["b"])
