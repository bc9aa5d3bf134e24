"""Exact scalar rings: arbitrary-precision integers, rationals, prime fields.

Every computation in this package is exact; there is no floating point
anywhere.  Every stored scalar is a plain Python ``int`` in every ring, and
callers compute with Python's own operators.  Over F_p it is a residue in
``range(p)``, reduced by whoever stores it (with ``% char``): a sum or
product of residues may be reduced once, where it is stored, and a zero
test on a stored value is a truth test.  Over Q it is a numerator, and the
vector that holds it carries one positive denominator (``Cochain.den``, or
the ``den`` that kernels and solves return); a ``Fraction`` is made, and
``fractions`` imported, only where a rational is reported.  No ring
divides, since kernels, ranks and Smith forms reduce integer rows with the
characteristic alone (see :mod:`rackhom.linalg`).

A ring is a record of its name, its characteristic and whether it is a
field.  Rings are compared with ``is``: Z and Q are single instances, and
``GF`` keeps one per p.
"""

from __future__ import annotations

from .errors import InvalidSpec, ResourceLimit

# ``Fp:p`` refuses p above this before the primality test, whose trial
# division would otherwise run for hours on a large p
MAX_PRIME = 2 ** 31


class Ring:
    """A scalar ring: its name, its characteristic, and ``is_field``."""

    __slots__ = ("name", "char", "is_field")

    def __init__(self, name, char, is_field):
        self.name = name
        self.char = char
        self.is_field = is_field

    def __repr__(self):
        return self.name


ZZ = Ring("Z", 0, False)
QQ = Ring("Q", 0, True)

_gf_cache: dict[int, Ring] = {}


def GF(p: int) -> Ring:
    """F_p, one instance per prime p."""
    if p not in _gf_cache:
        if p < 2 or any(p % d == 0 for d in range(2, int(p ** 0.5) + 1)):
            raise InvalidSpec(f"{p} is not prime")
        _gf_cache[p] = Ring(f"F{p}", p, True)
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
