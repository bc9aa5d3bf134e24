"""Finite racks, quandles, and rack-set actions as validated operation tables.

A rack is a set with a binary operation ``x <| y`` (written ``op(x, y)``
here) such that every right translation is a bijection and the operation is
self-distributive:  ``(x <| y) <| z == (x <| z) <| (y <| z)``.  Elements are
0-indexed integers; named labels belong to the input layer, not here.

Axiom validation is exhaustive, never sampled: it is the correctness gate
for everything downstream and the tables are small by design (|X| <= 8 for
the bundled suites).
"""

from __future__ import annotations

import functools
import itertools

from .errors import (
    BijectivityViolation,
    CoefficientMismatch,
    CompatibilityViolation,
    InvalidGroupTable,
    R1Violation,
    R2Violation,
    ResourceLimit,
    ShapeError,
)
from .records import Frozen

# racks are validated exhaustively, in O(n^3) (dihedral:500 takes about
# 20 s), so larger ones are refused before any check runs or table is built
MAX_RACK_SIZE = 500


class Rack(Frozen):
    """A validated rack: ``table[x][y] == x <| y``.

    Construct through :func:`validate_rack` or :func:`builtin` so the
    axioms are guaranteed to hold.
    """

    _fields = ("size", "table", "label")

    def __init__(self, size: int, table: tuple[tuple[int, ...], ...], label: str = "rack"):
        object.__setattr__(self, "size", size)
        object.__setattr__(self, "table", table)
        object.__setattr__(self, "label", label)

    def op(self, x, y):
        return self.table[x][y]

    @functools.cached_property
    def right(self):
        """Right-translation columns, ``right[y][x] == x <| y``; cached on
        the instance, outside equality and hashing."""
        return tuple(zip(*self.table))

    @functools.cached_property
    def left(self):
        """Each right translation inverted, ``left[y][x <| y] == x``; cached
        like ``right``."""
        return tuple(tuple(sorted(range(self.size), key=col.__getitem__)) for col in self.right)

    def is_quandle(self):
        return all(self.table[x][x] == x for x in range(self.size))

    def __repr__(self):
        return f"Rack({self.label}, size={self.size})"


class XSet(Frozen):
    """A validated right action of a rack, ``act[y][x] == y * x``: the one
    coefficient type.  A chain's point moves by ``right``; a cochain's value
    moves by its inverse ``left``, which makes the exchange relation hold on
    the left.  Construct through :func:`validate_xset`."""

    _fields = ("size", "over", "act", "label")

    def __init__(self, size: int, over: Rack, act: tuple[tuple[int, ...], ...],
                 label: str = "xset"):
        object.__setattr__(self, "size", size)
        object.__setattr__(self, "over", over)
        object.__setattr__(self, "act", act)
        object.__setattr__(self, "label", label)

    @functools.cached_property
    def right(self):
        """``right[x][y] == y * x``; cached like ``Rack.right``."""
        return tuple(zip(*self.act))

    # each right translation inverted, ``left[x][y * x] == y``; cached
    left = Rack.left

    def left_word(self, word, y):
        """``y`` moved by the left action of ``word``, its last letter first:
        f(a_1 .. a_k m) = a_1 . (... a_k . f(m))."""
        for x in reversed(word):
            y = self.left[x][y]
        return y

    def tensor(self, other: "XSet") -> "XSet":
        """The product set with the diagonal action, ``(i, j)`` flattened
        row-major to ``i * other.size + j``.  A product of actions is an
        action, so it is not validated again."""
        if other.over != self.over:
            raise CoefficientMismatch("rack-sets are over different racks")
        m = other.size
        act = tuple(tuple(a * m + b for a, b in zip(i, j)) for i in self.act for j in other.act)
        return XSet(self.size * m, self.over, act, f"{self.label}(x){other.label}")


def _is_index(v, n):
    # bool is a subclass of int, but a JSON true/false is not a table entry
    return isinstance(v, int) and not isinstance(v, bool) and 0 <= v < n


def _check_shape(rows, width, what, error=ShapeError):
    """Refuse anything but a nonempty list of ``width``-long rows whose
    entries are integers in ``0..len(rows) - 1``: a rack, action or group
    table (``what``).  Returns ``len(rows)``."""
    m = len(rows)
    if m == 0:
        raise error(f"empty {what} table")
    for row in rows:
        if not isinstance(row, (list, tuple)):
            raise error(f"{what} row {row!r} is not a list")
        if len(row) != width:
            raise error(f"{what} row of length {len(row)}, expected {width}")
        for v in row:
            if not _is_index(v, m):
                raise error(f"{what} entry {v!r} is not an integer in 0..{m - 1}")
    return m


def validate_rack(table, label="rack") -> Rack:
    """Check R1 and R2 exhaustively and wrap the table.

    Raises ``R1Violation(y)`` with the first bad column, or
    ``R2Violation(x, y, z)`` with the first bad triple; a table with more
    than ``MAX_RACK_SIZE`` rows raises ``ResourceLimit`` before any check.

    >>> validate_rack([[0, 2, 1], [2, 1, 0], [1, 0, 2]]).is_quandle()
    True
    """
    if len(table) > MAX_RACK_SIZE:
        raise ResourceLimit(f"rack of size {len(table)} exceeds the limit {MAX_RACK_SIZE}")
    n = _check_shape(table, len(table), "rack")
    for y in range(n):
        if len({table[x][y] for x in range(n)}) != n:
            raise R1Violation(y)
    t = table
    for x in range(n):
        for y in range(n):
            xy = t[x][y]
            for z in range(n):
                if t[xy][z] != t[t[x][z]][t[y][z]]:
                    raise R2Violation(x, y, z)
    return Rack(n, tuple(tuple(row) for row in table), label)


def orbits(rack: Rack | XSet) -> tuple[tuple[int, ...], ...]:
    """The orbits of ``x ~ x <| y`` on a rack, or of ``y ~ y * x`` on a
    rack-set, each a sorted tuple, ordered by least element.

    Forward moves suffice: right translations are bijections of a finite
    set, so inverse closure is automatic.
    """
    table = rack.table if isinstance(rack, Rack) else rack.act
    blocks, seen = [], set()
    for x in range(rack.size):
        if x in seen:
            continue
        block, frontier = {x}, {x}
        while frontier:
            frontier = {b for a in frontier for b in table[a]} - block
            block |= frontier
        seen |= block
        blocks.append(tuple(sorted(block)))
    return tuple(blocks)


def validate_xset(rack: Rack, act, label="xset") -> XSet:
    """Check the action axioms exhaustively and wrap the table.

    ``act[y][x]`` is ``y * x``; it must be a bijection in ``y`` for each
    ``x`` and satisfy ``(y*x)*x' == (y*x') * (x <| x')``.
    """
    m = _check_shape(act, rack.size, "action")
    for x in range(rack.size):
        if len({act[y][x] for y in range(m)}) != m:
            raise BijectivityViolation(x)
    for y in range(m):
        for x in range(rack.size):
            yx = act[y][x]
            for xp in range(rack.size):
                if act[yx][xp] != act[act[y][xp]][rack.table[x][xp]]:
                    raise CompatibilityViolation(y, x, xp)
    return XSet(m, rack, tuple(tuple(row) for row in act), label)


def xset_self(rack: Rack) -> XSet:
    """Y = X acting by the rack operation itself."""
    return validate_xset(rack, rack.table, label="self")


def xset_singleton(rack: Rack) -> XSet:
    """The one-point action; its permutation module is the trivial module."""
    return validate_xset(rack, [[0] * rack.size], label="singleton")


# ---------------------------------------------------------------------------
# Builtin constructors


def trivial_rack(n: int) -> Rack:
    if n < 1:
        raise ShapeError("size must be >= 1")
    return validate_rack([[x] * n for x in range(n)], label=f"trivial:{n}")


def dihedral_rack(n: int) -> Rack:
    """x <| y = 2y - x mod n (a quandle for every n)."""
    if n < 1:
        raise ShapeError("size must be >= 1")
    return validate_rack(
        [[(2 * y - x) % n for y in range(n)] for x in range(n)], label=f"dihedral:{n}"
    )


def cyclic_rack(n: int) -> Rack:
    """x <| y = x + 1 mod n; not a quandle unless n == 1."""
    if n < 1:
        raise ShapeError("size must be >= 1")
    return validate_rack(
        [[(x + 1) % n for _ in range(n)] for x in range(n)], label=f"cyclic:{n}"
    )


def conjugation_rack(group_table, label="conjugation") -> Rack:
    """x <| y = y^-1 x y for a finite group given by its multiplication table."""
    n = _check_shape(group_table, len(group_table), "group", InvalidGroupTable)
    mul = group_table
    identity = None
    for e in range(n):
        if all(mul[e][x] == x == mul[x][e] for x in range(n)):
            identity = e
            break
    if identity is None:
        raise InvalidGroupTable("no two-sided identity")
    inv = [None] * n
    for a in range(n):
        for b in range(n):
            if mul[a][b] == identity and mul[b][a] == identity:
                inv[a] = b
    if any(v is None for v in inv):
        raise InvalidGroupTable("some element has no inverse")
    for a in range(n):
        for b in range(n):
            ab = mul[a][b]
            for c in range(n):
                if mul[ab][c] != mul[a][mul[b][c]]:
                    raise InvalidGroupTable(f"not associative at ({a},{b},{c})")
    table = [[mul[inv[y]][mul[x][y]] for y in range(n)] for x in range(n)]
    return validate_rack(table, label=label)


def symmetric_group_table(n: int):
    """Multiplication table of S_n on permutations in lexicographic order.

    Product convention: (a * b)(i) = a(b(i)).
    """
    perms = list(itertools.permutations(range(n)))
    index = {p: i for i, p in enumerate(perms)}
    return [
        [index[tuple(pa[pb[i]] for i in range(n))] for pb in perms]
        for pa in perms
    ]


def builtin(spec: str) -> Rack:
    """Build a rack from a ``kind:arg`` selector.

    Kinds: ``trivial:n``, ``dihedral:n``, ``cyclic:n``, ``conjugation:s3``.

    >>> builtin("dihedral:4").is_quandle()
    True
    >>> len(orbits(builtin("conjugation:s3")))
    3
    """
    kind, _, arg = spec.partition(":")
    sized = {"trivial": trivial_rack, "dihedral": dihedral_rack, "cyclic": cyclic_rack}
    if kind in sized:
        try:
            n = int(arg)
        except ValueError:
            raise ShapeError(f"builtin {spec!r}: size {arg!r} is not an integer") from None
        if n > MAX_RACK_SIZE:
            raise ResourceLimit(f"builtin {spec!r}: size exceeds the limit {MAX_RACK_SIZE}")
        return sized[kind](n)
    if kind == "conjugation":
        if arg.lower() == "s3":
            return conjugation_rack(symmetric_group_table(3), label="conjugation:s3")
        raise ShapeError(f"unknown conjugation group {arg!r}: only s3 is built in "
                         "(give other racks as a --rack table)")
    raise ShapeError(f"unknown builtin kind {kind!r}")
