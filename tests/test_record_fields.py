"""Every record names its fields in ``_fields``, in constructor order:
equality, hashing and ``repr`` read that list, so a constructor argument
missing from it would drop out of all three."""

import inspect

import pytest

from rackhom.complexes import Chain, Cochain, LeftModule, TupleBasis
from rackhom.cup import CupContext, RingStructure
from rackhom.linalg import HomologyGroup, SmithForm
from rackhom.racks import OrbitPartition, Rack, XSet
from rackhom.records import Frozen, Record
from rackhom.verify import SuiteResult

FROZEN = (Rack, XSet, OrbitPartition, TupleBasis, LeftModule, SmithForm, HomologyGroup)
MUTABLE = (Chain, Cochain, CupContext, RingStructure, SuiteResult)


@pytest.mark.parametrize("cls", FROZEN + MUTABLE, ids=lambda cls: cls.__name__)
def test_fields_are_the_constructor_parameters(cls):
    params = list(inspect.signature(cls.__init__).parameters)
    assert params[0] == "self"
    assert cls._fields == tuple(params[1:])
    assert issubclass(cls, Frozen) == (cls in FROZEN)
    assert issubclass(cls, Record)
