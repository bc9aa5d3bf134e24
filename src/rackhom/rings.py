"""Exact scalar rings: arbitrary-precision integers, rationals, prime fields.

Every computation in this package is exact; there is no floating point
anywhere.  Scalars are plain Python objects (``int``, ``Fraction``, or an
int reduced mod p) and a ring object supplies the arithmetic, so hot loops
can bind the methods locally.  The rings add, subtract, multiply and
negate; none divides, since kernels, ranks and Smith forms reduce integer
rows with the characteristic alone (see :mod:`rackhom.linalg`).  Z and Q
are one class built twice, differing only in name, scalar type and
``is_field``.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import InvalidSpec, ResourceLimit

# ``Fp:p`` refuses p above this before the primality test, whose trial
# division would otherwise run for hours on a large p
MAX_PRIME = 2 ** 31


class CharZero:
    """A ring of characteristic 0 whose ``of`` makes ``scalar`` values:
    ``int`` for Z, ``Fraction`` for Q."""

    char = 0

    def __init__(self, name, scalar, is_field):
        self.name = name
        self.of = scalar
        self.is_field = is_field
        self.zero = scalar(0)
        self.one = scalar(1)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def is_zero(self, a):
        return a == 0

    def __repr__(self):
        return self.name


class PrimeField:
    """F_p with elements stored as ints in ``range(p)``."""

    is_field = True

    def __init__(self, p):
        if p < 2 or any(p % d == 0 for d in range(2, int(p ** 0.5) + 1)):
            raise InvalidSpec(f"{p} is not prime")
        self.p = p
        self.name = f"F{p}"
        self.char = p
        self.zero = 0
        self.one = 1 % p

    def of(self, n):
        return n % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def is_zero(self, a):
        return a % self.p == 0

    def __repr__(self):
        return self.name


ZZ = CharZero("Z", int, is_field=False)
QQ = CharZero("Q", Fraction, is_field=True)

_gf_cache: dict[int, PrimeField] = {}


def GF(p: int) -> PrimeField:
    if p not in _gf_cache:
        _gf_cache[p] = PrimeField(p)
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
