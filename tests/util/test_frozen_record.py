"""frozen_record: wire records keep every dataclass behaviour but __init__."""

import dataclasses
import inspect
import pickle

import pytest

from repro.hw.nic import EthernetFrame
from repro.openmx.wire import OmxPacket, PullReply
from repro.util import frozen_record

RECORDS = [EthernetFrame, OmxPacket, *OmxPacket.__subclasses__()]

# One value per annotated field type, and a second one to tell them apart.
_VALUES = {
    "str": ("b0", "b1"),
    "int": (7, 8),
    "bytes": (b"xy", b"z" * 3),
    "bool": (True, False),
    "Any": (PullReply(src_board="a", src_endpoint=0, dst_endpoint=1),
            PullReply(src_board="b", src_endpoint=0, dst_endpoint=1)),
}


def _twin(cls):
    """The same fields through dataclasses' own generated __init__."""
    spec = []
    for f in dataclasses.fields(cls):
        kwargs = {"compare": f.compare, "repr": f.repr, "hash": f.hash}
        if f.default is not dataclasses.MISSING:
            kwargs["default"] = f.default
        spec.append((f.name, f.type, dataclasses.field(**kwargs)))
    return dataclasses.make_dataclass(cls.__name__, spec, frozen=True)


def _kwargs(cls, which=0):
    return {f.name: _VALUES[f.type][which] for f in dataclasses.fields(cls)}


def _required(cls):
    return {f.name: _VALUES[f.type][0] for f in dataclasses.fields(cls)
            if f.default is dataclasses.MISSING}


def test_every_wire_record_uses_the_generated_constructor():
    assert len(RECORDS) == 8
    for cls in RECORDS:
        assert cls.__init__.__code__.co_filename.startswith("<frozen_record")
        assert cls.__init__.__qualname__ == f"{cls.__qualname__}.__init__"


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_record_matches_dataclass_construction(cls):
    twin = _twin(cls)
    for kwargs in (_kwargs(cls), _kwargs(cls, 1), _required(cls)):
        obj, ref = cls(**kwargs), twin(**kwargs)
        # Same fields, in the same order, with the same defaults.
        assert list(vars(obj).items()) == list(vars(ref).items())
        assert repr(obj) == repr(ref)
        assert hash(obj) == hash(ref)
        assert obj == cls(**kwargs)
        assert cls(*vars(obj).values()) == obj  # positional form too
    params = [(p.name, p.default, p.kind)
              for p in inspect.signature(cls).parameters.values()]
    assert params == [(p.name, p.default, p.kind)
                      for p in inspect.signature(twin).parameters.values()]


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_record_equality_pickle_replace_and_frozenness(cls):
    obj = cls(**_kwargs(cls))
    other = _kwargs(cls, 1)
    for f in dataclasses.fields(cls):
        changed = dataclasses.replace(obj, **{f.name: other[f.name]})
        assert type(changed) is cls
        assert (changed == obj) is (not f.compare)
    clone = pickle.loads(pickle.dumps(obj))
    assert clone == obj and vars(clone) == vars(obj)
    assert hash(clone) == hash(obj)
    name = dataclasses.fields(cls)[0].name
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(obj, name, other[name])
    with pytest.raises(dataclasses.FrozenInstanceError):
        delattr(obj, name)
    with pytest.raises(TypeError):
        cls(**_kwargs(cls), bogus=1)
    if _required(cls):
        with pytest.raises(TypeError):
            cls()


def test_frozen_record_refuses_what_it_cannot_generate():
    with pytest.raises(TypeError, match="default"):
        @frozen_record
        @dataclasses.dataclass(frozen=True)
        class Factory:
            xs: list = dataclasses.field(default_factory=list)

    with pytest.raises(TypeError, match="init"):
        @frozen_record
        @dataclasses.dataclass(frozen=True)
        class NoInit:
            x: int = dataclasses.field(default=0, init=False)

    with pytest.raises(TypeError, match="__post_init__"):
        @frozen_record
        @dataclasses.dataclass(frozen=True)
        class PostInit:
            x: int

            def __post_init__(self):
                pass
