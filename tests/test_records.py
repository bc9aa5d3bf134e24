"""The record classes as their callers see them: constructor order and
defaults, equality, hashing, immutability and ``repr``."""

import copy
import pickle

import pytest

from rackhom.complexes import Chain, Cochain, LeftModule, tuple_basis
from rackhom.cup import CupContext, ring_structure
from rackhom.errors import NotAQuandle
from rackhom.linalg import HomologyGroup, SmithForm
from rackhom.racks import OrbitPartition, Rack, XSet, builtin, orbits, xset_singleton
from rackhom.rings import GF, QQ, ZZ
from rackhom.verify import SuiteResult

R3 = builtin("dihedral:3")
TRIV = LeftModule(1, ((0,), (0,), (0,)), "trivial")


# (make, field): make() builds a fresh, equal instance on each call
FROZEN = [
    (lambda: builtin("dihedral:3"), "size"),
    (lambda: xset_singleton(R3), "act"),
    (lambda: orbits(R3), "rep"),
    (lambda: tuple_basis(R3, 2, True), "tuples"),
    (lambda: LeftModule(1, ((0,), (0,), (0,)), "trivial"), "dim"),
    (lambda: SmithForm((1, 2)), "factors"),
    (lambda: HomologyGroup(1, 1), "betti"),
]


@pytest.mark.parametrize("make, field", FROZEN,
                         ids=["Rack", "XSet", "OrbitPartition", "TupleBasis", "LeftModule",
                              "SmithForm", "HomologyGroup"])
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
    assert SmithForm((1,)) != SmithForm((1, 2))
    assert LeftModule(1, TRIV.perms) != TRIV
    assert tuple_basis(R3, 2) != tuple_basis(R3, 2, True)
    assert OrbitPartition((0, 0, 0), ((0, 1, 2),)) == orbits(R3)


def test_cached_fields_stay_outside_equality():
    a, b = builtin("dihedral:3"), builtin("dihedral:3")
    assert a.right == R3.right
    assert a == b and hash(a) == hash(b) and "right" in vars(a)
    s, t = tuple_basis(R3, 2), tuple_basis(R3, 2)
    assert s.index[(1, 2)] == 5
    assert s == t and hash(s) == hash(t)


def test_constructor_defaults():
    assert Rack(1, ((0,),)).label == "rack"
    assert XSet(1, R3, ((0, 0, 0),)).label == "xset"
    assert LeftModule(1, TRIV.perms).label == "module"
    assert HomologyGroup(3, 0).torsion == ()
    chain = Chain(tuple_basis(R3, 1), ZZ, [1, 0, 0])
    assert chain.module_dim == 1
    f = Cochain(1, QQ, [1, 0, 0])
    assert (f.quandle, f.module, f.den) == (False, None, 1)
    ctx = CupContext(R3, ZZ)
    assert (ctx.quandle, ctx.module_f, ctx.module_g, ctx.max_basis) == (False, None, None, 200_000)
    assert ctx.algebra.rack is R3
    result = SuiteResult("s", True, 2)
    assert (result.witness, result.notes) == (None, [])
    assert SuiteResult("s", True, 2).notes is not result.notes


def test_constructors_take_fields_in_order():
    assert Cochain(2, GF(3), [0] * 9, True, TRIV, 1).module is TRIV
    assert CupContext(R3, QQ, True, TRIV, None, 50).max_basis == 50
    assert SuiteResult("s", False, 4, "w", ["n"]).witness == "w"


def test_mutable_records_compare_by_value_and_are_unhashable():
    assert Cochain(1, QQ, [1, 0, 0], den=2) == Cochain(1, QQ, [1, 0, 0], den=2)
    assert Cochain(1, QQ, [1, 0, 0], den=2) != Cochain(1, QQ, [1, 0, 0])
    basis = tuple_basis(R3, 1)
    assert Chain(basis, ZZ, [1, 0, 0]) == Chain(basis, ZZ, [1, 0, 0])
    assert SuiteResult("s", True, 2) == SuiteResult("s", True, 2, None, [])
    rs = ring_structure(builtin("trivial:1"), GF(2), 1)
    assert rs == ring_structure(builtin("trivial:1"), GF(2), 1)
    f = Cochain(1, QQ, [1, 0, 0])
    f.den = 3
    assert f.den == 3
    assert copy.copy(f) == f and copy.copy(f).values is f.values
    for record in (f, Chain(basis, ZZ, [0, 0, 0]), SuiteResult("s", True, 2), rs,
                   CupContext(R3, ZZ)):
        with pytest.raises(TypeError):
            hash(record)


def test_context_refuses_a_rack_that_is_not_a_quandle():
    with pytest.raises(NotAQuandle, match="cyclic:3"):
        CupContext(builtin("cyclic:3"), ZZ, quandle=True)
    assert CupContext(builtin("cyclic:3"), ZZ).quandle is False


def test_context_equality_reads_the_algebra():
    ctx = CupContext(R3, ZZ)
    assert ctx == CupContext(R3, ZZ, algebra=ctx.algebra)
    assert ctx != CupContext(R3, ZZ)


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
    basis = tuple_basis(R3, 1)
    assert repr(HomologyGroup(degree=1, betti=1, torsion=())) == (
        "HomologyGroup(degree=1, betti=1, torsion=())")
    assert repr(SmithForm((1, 2))) == "SmithForm(factors=(1, 2))"
    assert repr(R3) == "Rack(dihedral:3, size=3)"
    assert repr(xset_singleton(R3)) == (
        "XSet(size=1, over=Rack(dihedral:3, size=3), act=((0, 0, 0),), label='singleton')")
    assert repr(orbits(R3)) == "OrbitPartition(rep=(0, 0, 0), blocks=((0, 1, 2),))"
    assert repr(basis) == (
        "TupleBasis(rack=Rack(dihedral:3, size=3), degree=1, quandle=False, "
        "tuples=((0,), (1,), (2,)))")
    assert repr(TRIV) == "LeftModule(dim=1, perms=((0,), (0,), (0,)), label='trivial')"
    assert repr(Chain(basis, ZZ, [1, 0, 0])) == (
        f"Chain(basis={basis!r}, ring=Z, values=[1, 0, 0], module_dim=1)")
    assert repr(Cochain(1, QQ, [1, 0, 2], den=3)) == (
        "Cochain(degree=1, ring=Q, values=[1, 0, 2], quandle=False, module=None, den=3)")
    assert repr(CupContext(R3, GF(3), module_f=TRIV)) == (
        f"CupContext(rack=Rack(dihedral:3, size=3), ring=F3, quandle=False, "
        f"module_f={TRIV!r}, module_g=None, max_basis=200000)")
    assert repr(ring_structure(builtin("trivial:1"), GF(2), 1)) == (
        "RingStructure(rack_label='trivial:1', ring_name='F2', max_degree=1, quandle=False, "
        "dims={0: 1, 1: 1}, reps={0: [[1]], 1: [[1]]}, dens={0: 1, 1: 1}, "
        "products={(0, 0, 0, 0): (1,), (0, 0, 1, 0): (1,), (1, 0, 0, 0): (1,)})")
    assert repr(SuiteResult("s", False, 2, "w", ["n"])) == (
        "SuiteResult(name='s', passed=False, checks=2, witness='w', notes=['n'])")
