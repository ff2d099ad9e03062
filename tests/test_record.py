"""``Record`` behaves as ``@dataclass(frozen=True)`` does wherever kconn relies
on it: one sample class is defined both ways and the twins are compared."""

from __future__ import annotations

import copy
import dataclasses
import json
import pickle

import pytest

from kconn._record import Record, as_dict


class Leaf(Record):
    label: str
    orders: tuple[int, ...] = ()


@dataclasses.dataclass(frozen=True)
class LeafDC:
    label: str
    orders: tuple[int, ...] = ()


class Node(Record):
    name: str
    leaves: tuple[Leaf, ...]
    weight: int | None = None
    note: str = ""

    def __post_init__(self):
        object.__setattr__(self, "leaves", tuple(self.leaves))


@dataclasses.dataclass(frozen=True)
class NodeDC:
    name: str
    leaves: tuple[LeafDC, ...]
    weight: int | None = None
    note: str = ""

    def __post_init__(self):
        object.__setattr__(self, "leaves", tuple(self.leaves))


class Other(Record):
    label: str
    orders: tuple[int, ...] = ()


def _twins():
    node = Node("n", [Leaf("a", (2, 4)), Leaf("b")], weight=3)
    twin = NodeDC("n", [LeafDC("a", (2, 4)), LeafDC("b")], weight=3)
    return node, twin


def test_repr_is_the_dataclass_repr():
    node, twin = _twins()
    assert repr(node) == repr(twin).replace("DC(", "(")
    assert repr(Leaf("x'y")) == "Leaf(label=\"x'y\", orders=())"


def test_equality_and_hash_are_the_dataclass_ones():
    node, twin = _twins()
    assert node == Node("n", (Leaf("a", (2, 4)), Leaf("b", ())), 3, "")
    assert node != Node("n", (Leaf("a", (2, 4)),), 3)
    assert hash(node) == hash(Node(name="n", leaves=node.leaves, weight=3))
    assert hash(Leaf("a", (2, 4))) == hash(LeafDC("a", (2, 4))) == hash(("a", (2, 4)))
    assert (Leaf("a") == Leaf("a")) == (LeafDC("a") == LeafDC("a"))


def test_a_record_equals_no_tuple_and_no_other_record_class():
    assert Leaf("a", (2,)) != ("a", (2,))
    assert ("a", (2,)) != Leaf("a", (2,))
    assert Leaf("a", (2,)) != Other("a", (2,))
    assert Leaf("a", (2,)).__eq__(Other("a", (2,))) is NotImplemented
    assert len({Leaf("a"), Other("a")}) == 2


@pytest.mark.parametrize("name", ["label", "orders", "unknown"])
def test_fields_cannot_be_assigned_or_deleted(name):
    leaf, twin = Leaf("a", (2,)), LeafDC("a", (2,))
    for target in (leaf, twin):
        with pytest.raises(AttributeError):
            setattr(target, name, 1)
        with pytest.raises(AttributeError):
            delattr(target, name)
    assert leaf == Leaf("a", (2,))


def test_pickle_and_deepcopy_round_trip():
    node, _ = _twins()
    for clone in (pickle.loads(pickle.dumps(node)), copy.deepcopy(node), copy.copy(node)):
        assert clone == node and clone is not node
        assert type(clone) is Node and repr(clone) == repr(node)
        assert hash(clone) == hash(node)
        with pytest.raises(AttributeError):
            clone.name = "m"


def test_defaults_and_keywords():
    assert Leaf("a").orders == () and LeafDC("a").orders == ()
    assert Node(leaves=(), name="n") == Node("n", (), None, "")
    assert list(Node("n", (), note="x").__dict__) == ["name", "leaves", "weight", "note"]


@pytest.mark.parametrize(
    "args,kwargs,message",
    [
        ((), {}, "missing field"),
        ((), {"orders": ()}, "missing field"),
        (("a",), {"colour": 1}, "unexpected field 'colour'"),
        (("a", ()), {"label": "b"}, "multiple values for field 'label'"),
        (("a", (), 3), {}, "takes 2 fields but 3 were given"),
    ],
)
def test_a_missing_unknown_or_repeated_field_is_a_type_error(args, kwargs, message):
    with pytest.raises(TypeError, match=message):
        Leaf(*args, **kwargs)
    with pytest.raises(TypeError):
        LeafDC(*args, **kwargs)


def test_post_init_runs_and_may_set_a_field():
    node = Node("n", [Leaf("a")])
    assert node.leaves == (Leaf("a"),) and type(node.leaves) is tuple


def test_as_dict_is_the_json_form_of_dataclasses_asdict():
    node, twin = _twins()
    assert as_dict(node) == json.loads(json.dumps(dataclasses.asdict(twin)))
    assert json.dumps(as_dict(node)) == json.dumps(dataclasses.asdict(twin))
