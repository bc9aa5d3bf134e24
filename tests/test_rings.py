import pytest

from rackhom.errors import ResourceLimit
from rackhom.rings import GF, MAX_PRIME, QQ, ZZ, Ring, ring_by_name


def test_integer_ring_basics():
    assert (ZZ.name, ZZ.char) == ("Z", 0)
    assert not ZZ.is_field


def test_rationals():
    assert (QQ.name, QQ.char) == ("Q", 0)
    assert QQ.is_field


def test_prime_field():
    F5 = GF(5)
    assert (F5.name, F5.char) == ("F5", 5)
    assert F5.is_field
    with pytest.raises(ValueError):
        GF(6)


def test_a_ring_makes_no_scalars():
    # every stored scalar is a plain int; a ring only names its arithmetic
    assert Ring.__slots__ == ("name", "char", "is_field")
    for ring in (ZZ, QQ, GF(5)):
        assert not any(hasattr(ring, attr) for attr in ("of", "zero", "one"))


def test_gf_cached():
    assert GF(7) is GF(7)


def test_ring_by_name():
    assert ring_by_name("Z") is ZZ
    assert ring_by_name("Q") is QQ
    assert ring_by_name("Fp:3") is GF(3)
    with pytest.raises(ValueError):
        ring_by_name("R")


def test_ring_by_name_checks_p():
    with pytest.raises(ValueError, match="'Fp:x'"):
        ring_by_name("Fp:x")
    # refused before the trial division, which would run for hours
    with pytest.raises(ResourceLimit, match=str(MAX_PRIME)):
        ring_by_name("Fp:1000000000000000003")
    assert ring_by_name("Fp:2147483647").char == 2 ** 31 - 1
