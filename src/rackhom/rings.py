"""Exact scalar rings: arbitrary-precision integers, rationals, prime fields.

Every computation in this package is exact; there is no floating point
anywhere.  Scalars are plain Python numbers: ``int`` over Z, ``Fraction``
over Q, and over F_p an ``int`` in ``range(p)``; the boundary and coboundary
matrices hold ``int`` entries over Q as well.  Callers compute with
Python's own operators.  A ring is a record of what they need besides: its
name, its characteristic, whether it is a field, ``of`` (which makes a
scalar from an integer, reducing it mod p over F_p), ``zero`` and ``one``.

Over F_p, values are stored as residues in ``range(p)``, reduced by
whoever stores them (with ``of`` or ``% char``).  A sum or product of
residues may be reduced once, where it is stored, and a zero test on a
stored value is a truth test.  No ring divides, since kernels, ranks and
Smith forms reduce integer rows with the characteristic alone (see
:mod:`rackhom.linalg`).  Rings are compared with ``is``: Z and Q are
single instances, and ``GF`` keeps one per p.

Loops that multiply many scalars (the cup product, the homotopy pairing,
applying a coboundary) run on plain ints in every ring.  ``numerators``
turns a vector's Q values into integers over the lcm of their
denominators, once per input; ``from_numerators`` turns the integer result
back into Fractions over the product of the inputs' denominators, one per
nonzero entry.  Over Z both are the identity, and over F_p
``from_numerators`` reduces mod p.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .errors import InvalidSpec, ResourceLimit

# ``Fp:p`` refuses p above this before the primality test, whose trial
# division would otherwise run for hours on a large p
MAX_PRIME = 2 ** 31


class Ring:
    """A scalar ring: name, characteristic, ``is_field``, and ``of``, which
    makes the ring's scalars, among them ``zero`` and ``one``."""

    __slots__ = ("name", "char", "is_field", "of", "zero", "one")

    def __init__(self, name, char, is_field, of):
        self.name = name
        self.char = char
        self.is_field = is_field
        self.of = of
        self.zero = of(0)
        self.one = of(1)

    def __repr__(self):
        return self.name


ZZ = Ring("Z", 0, False, int)
QQ = Ring("Q", 0, True, Fraction)

_gf_cache: dict[int, Ring] = {}


def numerators(ring, values):
    """``(ints, den)`` with ``values[i] == ints[i] / den``: over Q ``den``
    is the lcm of the denominators, elsewhere 1 and ``values`` is returned."""
    if ring is not QQ:
        return values, 1
    den = lcm(*[v.denominator for v in values])
    if den == 1:
        return [v.numerator for v in values], 1
    return [v.numerator * (den // v.denominator) for v in values], den


def from_numerators(ring, ints, den=1):
    """The scalars ``ints[i] / den`` of ``ring``: residues mod p over F_p,
    over Q a Fraction per nonzero entry and ``ring.zero`` for the others."""
    if ring.char:
        p = ring.char
        return [v % p for v in ints]
    if ring is QQ:
        zero = ring.zero
        return [Fraction(v, den) if v else zero for v in ints]
    return ints


def GF(p: int) -> Ring:
    """F_p, one instance per prime p."""
    if p not in _gf_cache:
        if p < 2 or any(p % d == 0 for d in range(2, int(p ** 0.5) + 1)):
            raise InvalidSpec(f"{p} is not prime")
        _gf_cache[p] = Ring(f"F{p}", p, True, lambda n: n % p)
    return _gf_cache[p]


def ring_by_name(spec: str):
    """Parse a ring selector: ``Z``, ``Q``, or ``Fp:5``.

    >>> ring_by_name("Fp:3").name
    'F3'
    """
    if spec == "Z":
        return ZZ
    if spec == "Q":
        return QQ
    if spec.startswith("Fp:"):
        try:
            p = int(spec[3:])
        except ValueError:
            raise InvalidSpec(f"ring {spec!r}: p is not an integer") from None
        if p > MAX_PRIME:
            raise ResourceLimit(f"ring {spec!r}: p exceeds the limit {MAX_PRIME}")
        return GF(p)
    raise InvalidSpec(f"unknown ring {spec!r} (expected Z, Q, or Fp:p)")
