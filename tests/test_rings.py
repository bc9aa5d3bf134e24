from fractions import Fraction

import pytest

from rackhom.errors import ResourceLimit
from rackhom.rings import GF, MAX_PRIME, QQ, ZZ, from_numerators, numerators, ring_by_name


def test_integer_ring_basics():
    assert ZZ.of(-4) == -4 and type(ZZ.of(-4)) is int
    assert (ZZ.zero, ZZ.one, ZZ.char) == (0, 1, 0)
    assert type(ZZ.zero) is int and not ZZ.is_field


def test_rationals():
    assert QQ.of(3) == Fraction(3)
    assert type(QQ.of(3)) is Fraction
    assert type(QQ.zero) is Fraction and type(QQ.one) is Fraction
    assert QQ.is_field and QQ.char == 0


def test_prime_field():
    F5 = GF(5)
    assert F5.of(3 + 4) == 2
    assert F5.of(-1) == 4
    assert all(type(F5.of(n)) is int and F5.of(n) in range(5) for n in range(-12, 12))
    assert (F5.zero, F5.one, F5.char) == (0, 1, 5)
    assert F5.is_field
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


def test_numerators_round_trip_over_q():
    values = [Fraction(1, 2), QQ.zero, Fraction(-2, 3), Fraction(5, 7), QQ.of(4)]
    ints, den = numerators(QQ, values)
    assert den == 42 and ints == [21, 0, -28, 30, 168]
    assert all(type(v) is int for v in ints)
    back = from_numerators(QQ, ints, den)
    assert back == values and all(type(v) is Fraction for v in back)
    # a zero entry is the ring's own zero, not a fresh Fraction
    assert back[1] is QQ.zero
    assert numerators(QQ, []) == ([], 1)
    assert numerators(QQ, [QQ.of(3), QQ.zero]) == ([3, 0], 1)


def test_numerators_are_the_identity_over_z_and_residues_over_fp():
    values = [3, 0, -4]
    assert numerators(ZZ, values) == (values, 1)
    assert from_numerators(ZZ, [3, 0, -4]) == [3, 0, -4]
    F5 = GF(5)
    assert numerators(F5, [1, 4]) == ([1, 4], 1)
    assert from_numerators(F5, [7, -1, 10]) == [2, 4, 0]
