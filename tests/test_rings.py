from fractions import Fraction

import pytest

from rackhom.errors import ResourceLimit
from rackhom.rings import GF, MAX_PRIME, QQ, ZZ, ring_by_name


def test_integer_ring_basics():
    assert ZZ.add(2, 3) == 5
    assert ZZ.mul(-4, 6) == -24


def test_rationals():
    assert QQ.of(3) == Fraction(3)
    assert QQ.is_field


def test_prime_field():
    F5 = GF(5)
    assert F5.add(3, 4) == 2
    assert F5.of(-1) == 4
    assert F5.char == 5
    with pytest.raises(ValueError):
        GF(6)


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
