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
    CompatibilityViolation,
    InvalidGroupTable,
    R1Violation,
    R2Violation,
    ResourceLimit,
    ShapeError,
)
from .records import Frozen

# builtin tables are validated exhaustively, in O(n^3) (dihedral:500 takes
# about 20 s), so larger builtin sizes are refused before a table is built
MAX_BUILTIN_SIZE = 500


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

    def is_quandle(self):
        return all(self.table[x][x] == x for x in range(self.size))

    def __repr__(self):
        return f"Rack({self.label}, size={self.size})"


class XSet(Frozen):
    """A validated right action of a rack: ``act[y][x] == y * x``."""

    _fields = ("size", "over", "act", "label")

    def __init__(self, size: int, over: Rack, act: tuple[tuple[int, ...], ...],
                 label: str = "xset"):
        object.__setattr__(self, "size", size)
        object.__setattr__(self, "over", over)
        object.__setattr__(self, "act", act)
        object.__setattr__(self, "label", label)


class OrbitPartition(Frozen):
    """Partition of a rack into orbits of ``x -> x <| y``.

    ``rep[x]`` is the minimal element of the orbit of ``x``; ``blocks`` lists
    each orbit as a sorted tuple, ordered by representative.
    """

    _fields = ("rep", "blocks")

    def __init__(self, rep: tuple[int, ...], blocks: tuple[tuple[int, ...], ...]):
        object.__setattr__(self, "rep", rep)
        object.__setattr__(self, "blocks", blocks)

    def __len__(self):
        return len(self.blocks)


def _is_index(v, n):
    # bool is a subclass of int, but a JSON true/false is not a table entry
    return isinstance(v, int) and not isinstance(v, bool) and 0 <= v < n


def _check_shape(table):
    n = len(table)
    if n == 0:
        raise ShapeError("empty table")
    for row in table:
        if not isinstance(row, (list, tuple)):
            raise ShapeError(f"table row {row!r} is not a list")
        if len(row) != n:
            raise ShapeError(f"table is not square: row of length {len(row)} in size-{n} table")
        for v in row:
            if not _is_index(v, n):
                raise ShapeError(f"entry {v!r} is not an integer in 0..{n - 1}")
    return n


def validate_rack(table, label="rack") -> Rack:
    """Check R1 and R2 exhaustively and wrap the table.

    Raises ``R1Violation(y)`` with the first bad column, or
    ``R2Violation(x, y, z)`` with the first bad triple.

    >>> validate_rack([[0, 2, 1], [2, 1, 0], [1, 0, 2]]).is_quandle()
    True
    """
    n = _check_shape(table)
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


def inverse_op(rack: Rack) -> tuple[tuple[int, ...], ...]:
    """Table of the inverse translations: ``inv[x <| y][y] == x``."""
    n = rack.size
    inv = [[0] * n for _ in range(n)]
    for x in range(n):
        for y in range(n):
            inv[rack.table[x][y]][y] = x
    return tuple(tuple(row) for row in inv)


def orbits(rack: Rack) -> OrbitPartition:
    """Orbit partition generated by ``x ~ x <| y``.

    Forward moves suffice: right translations are bijections of a finite
    set, so inverse closure is automatic.
    """
    n = rack.size
    parent = list(range(n))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for x in range(n):
        for y in range(n):
            a, b = find(x), find(rack.table[x][y])
            if a != b:
                parent[max(a, b)] = min(a, b)
    members: dict[int, list[int]] = {}
    for x in range(n):
        members.setdefault(find(x), []).append(x)
    blocks = tuple(tuple(sorted(members[r])) for r in sorted(members))
    rep = [0] * n
    for block in blocks:
        for x in block:
            rep[x] = block[0]
    return OrbitPartition(tuple(rep), blocks)


def validate_xset(rack: Rack, act, label="xset") -> XSet:
    """Check the action axioms exhaustively and wrap the table.

    ``act[y][x]`` is ``y * x``; it must be a bijection in ``y`` for each
    ``x`` and satisfy ``(y*x)*x' == (y*x') * (x <| x')``.
    """
    m = len(act)
    if m == 0:
        raise ShapeError("empty action table")
    for row in act:
        if not isinstance(row, (list, tuple)):
            raise ShapeError(f"action row {row!r} is not a list")
        if len(row) != rack.size:
            raise ShapeError("action table width must equal rack size")
        for v in row:
            if not _is_index(v, m):
                raise ShapeError(f"action entry {v!r} is not an integer in 0..{m - 1}")
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
    n = len(group_table)
    for row in group_table:
        if len(row) != n:
            raise InvalidGroupTable("table is not square")
        for v in row:
            if not _is_index(v, n):
                raise InvalidGroupTable(f"entry {v!r} is not an integer in 0..{n - 1}")
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
        if n > MAX_BUILTIN_SIZE:
            raise ResourceLimit(f"builtin {spec!r}: size exceeds the limit {MAX_BUILTIN_SIZE}")
        return sized[kind](n)
    if kind == "conjugation":
        if arg.lower() == "s3":
            return conjugation_rack(symmetric_group_table(3), label="conjugation:s3")
        raise ShapeError(f"unknown conjugation group {arg!r} (use a group table file)")
    raise ShapeError(f"unknown builtin kind {kind!r}")
