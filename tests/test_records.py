"""The record classes as their callers see them: constructor order and
defaults, equality, hashing, immutability and ``repr``."""

import copy
import pickle

import pytest

from rackhom.complexes import Cochain, tuple_basis
from rackhom.cup import CupContext, ring_structure
from rackhom.errors import NotAQuandle
from rackhom.linalg import HomologyGroup
from rackhom.racks import Rack, XSet, builtin, xset_singleton
from rackhom.rings import GF, QQ
from rackhom.verify import SuiteResult

R3 = builtin("dihedral:3")
ONE = xset_singleton(R3)


# (make, field): make() builds a fresh, equal instance on each call
FROZEN = [
    (lambda: builtin("dihedral:3"), "size"),
    (lambda: xset_singleton(R3), "act"),
    (lambda: tuple_basis(R3, 2, True), "tuples"),
    (lambda: HomologyGroup(1, 1), "betti"),
]


@pytest.mark.parametrize("make, field", FROZEN,
                         ids=["Rack", "XSet", "TupleBasis", "HomologyGroup"])
def test_frozen_records_compare_hash_and_refuse_assignment(make, field):
    a, b = make(), make()
    assert a is not b and a == b and hash(a) == hash(b)
    assert len({a, b}) == 1
    assert a != object() and (a == object()) is False
    with pytest.raises(AttributeError):
        setattr(a, field, 0)
    with pytest.raises(AttributeError):
        delattr(a, field)
    assert a == b
    for c in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
        assert c == a and hash(c) == hash(a)


def test_frozen_records_differ_by_each_field():
    assert Rack(3, R3.table, "other") != R3
    assert HomologyGroup(1, 1, (2,)) != HomologyGroup(1, 1)
    assert HomologyGroup(2, 1) != HomologyGroup(1, 1)
    assert XSet(1, R3, ONE.act) != ONE
    assert tuple_basis(R3, 2) != tuple_basis(R3, 2, True)


def test_cached_fields_stay_outside_equality():
    a, b = builtin("dihedral:3"), builtin("dihedral:3")
    assert a.right == R3.right
    assert a == b and hash(a) == hash(b) and "right" in vars(a)
    x, y = xset_singleton(a), xset_singleton(b)
    assert (x.right, x.left) == (((0,),) * 3, ((0,),) * 3)
    assert x == y and hash(x) == hash(y) and {"right", "left"} <= set(vars(x))
    s, t = tuple_basis(R3, 2), tuple_basis(R3, 2)
    assert s.index[(1, 2)] == 5
    assert s == t and hash(s) == hash(t)


def test_constructor_defaults():
    assert Rack(1, ((0,),)).label == "rack"
    assert XSet(1, R3, ((0, 0, 0),)).label == "xset"
    assert HomologyGroup(3, 0).torsion == ()
    f = Cochain(1, QQ, [1, 0, 0])
    assert (f.quandle, f.module, f.den) == (False, None, 1)
    ctx = CupContext(R3)
    assert (ctx.quandle, ctx.max_basis) == (False, 200_000)
    assert ctx.algebra.rack is R3
    result = SuiteResult("s", True, 2)
    assert (result.witness, result.notes) == (None, [])
    assert SuiteResult("s", True, 2).notes is not result.notes


def test_constructors_take_fields_in_order():
    assert Cochain(2, GF(3), [0] * 9, True, ONE, 1).module is ONE
    assert CupContext(R3, quandle=True, max_basis=50).max_basis == 50
    assert SuiteResult("s", False, 4, "w", ["n"]).witness == "w"


def test_mutable_records_compare_by_value_and_are_unhashable():
    assert Cochain(1, QQ, [1, 0, 0], den=2) == Cochain(1, QQ, [1, 0, 0], den=2)
    assert Cochain(1, QQ, [1, 0, 0], den=2) != Cochain(1, QQ, [1, 0, 0])
    assert SuiteResult("s", True, 2) == SuiteResult("s", True, 2, None, [])
    rs = ring_structure(builtin("trivial:1"), GF(2), 1)
    assert rs == ring_structure(builtin("trivial:1"), GF(2), 1)
    f = Cochain(1, QQ, [1, 0, 0])
    f.den = 3
    assert f.den == 3
    assert copy.copy(f) == f and copy.copy(f).values is f.values
    for record in (f, SuiteResult("s", True, 2), rs, CupContext(R3)):
        with pytest.raises(TypeError):
            hash(record)


def test_context_refuses_a_rack_that_is_not_a_quandle():
    with pytest.raises(NotAQuandle, match="cyclic:3"):
        CupContext(builtin("cyclic:3"), quandle=True)
    assert CupContext(builtin("cyclic:3")).quandle is False


def test_context_equality_reads_the_constructor_arguments():
    # each context builds its own algebra, which equality does not read
    ctx = CupContext(R3)
    other = CupContext(R3)
    assert ctx.algebra is not other.algebra and ctx == other
    assert ctx._fields == ("rack", "quandle", "max_basis")
    assert ctx != CupContext(R3, quandle=True)
    assert ctx != CupContext(R3, max_basis=50)
    assert ctx != CupContext(builtin("dihedral:4"))


def test_suite_result_as_dict():
    notes = ["n"]
    result = SuiteResult("cup", False, 7, "witness", notes)
    d = result.as_dict()
    assert d == {"name": "cup", "passed": False, "checks": 7, "witness": "witness",
                 "notes": ["n"]}
    assert list(d) == ["name", "passed", "checks", "witness", "notes"]
    assert d["notes"] is not notes
    assert SuiteResult("x", True, 0).as_dict() == {"name": "x", "passed": True, "checks": 0,
                                                   "witness": None, "notes": []}


def test_record_reprs():
    assert repr(HomologyGroup(degree=1, betti=1, torsion=())) == (
        "HomologyGroup(degree=1, betti=1, torsion=())")
    assert repr(R3) == "Rack(dihedral:3, size=3)"
    assert repr(xset_singleton(R3)) == (
        "XSet(size=1, over=Rack(dihedral:3, size=3), act=((0, 0, 0),), label='singleton')")
    assert repr(tuple_basis(R3, 1)) == "TupleBasis(tuples=((0,), (1,), (2,)))"
    assert repr(Cochain(1, QQ, [1, 0, 2], den=3)) == (
        "Cochain(degree=1, ring=Q, values=[1, 0, 2], quandle=False, module=None, den=3)")
    assert repr(CupContext(R3, quandle=True)) == (
        "CupContext(rack=Rack(dihedral:3, size=3), quandle=True, max_basis=200000)")
    assert repr(ring_structure(builtin("trivial:1"), GF(2), 1)) == (
        "RingStructure(dims={0: 1, 1: 1}, reps={0: [[1]], 1: [[1]]}, dens={0: 1, 1: 1}, "
        "products={(0, 0, 0, 0): (1,), (0, 0, 1, 0): (1,), (1, 0, 0, 0): (1,)})")
    assert repr(SuiteResult("s", False, 2, "w", ["n"])) == (
        "SuiteResult(name='s', passed=False, checks=2, witness='w', notes=['n'])")
