import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rackhom.errors import (
    BijectivityViolation,
    CompatibilityViolation,
    InvalidGroupTable,
    R1Violation,
    R2Violation,
    ShapeError,
)
from rackhom.racks import (
    builtin,
    conjugation_rack,
    cyclic_rack,
    dihedral_rack,
    orbits,
    symmetric_group_table,
    trivial_rack,
    validate_rack,
    validate_xset,
    xset_self,
    xset_singleton,
)


def test_dihedral_table_is_valid_rack():
    # exhaustive R1/R2 over all 27 triples happens inside validate_rack
    table = [[(2 * y - x) % 3 for y in range(3)] for x in range(3)]
    rack = validate_rack(table)
    assert rack.size == 3
    assert rack.is_quandle()


def test_trivial_rack_valid_and_quandle():
    rack = trivial_rack(4)
    assert all(rack.op(x, y) == x for x in range(4) for y in range(4))
    assert rack.is_quandle()


def test_constant_column_rejected():
    table = [[0, 1, 2]] * 3
    with pytest.raises(R1Violation) as exc:
        validate_rack(table)
    assert exc.value.y == 0


def test_r2_witness_is_genuine():
    # swap two entries in one column of dihedral:4; R1 survives, R2 breaks
    table = [list(row) for row in dihedral_rack(4).table]
    table[0][0], table[1][0] = table[1][0], table[0][0]
    with pytest.raises(R2Violation) as exc:
        validate_rack(table)
    x, y, z = exc.value.x, exc.value.y, exc.value.z
    assert table[table[x][y]][z] != table[table[x][z]][table[y][z]]


def test_shape_errors():
    with pytest.raises(ShapeError):
        validate_rack([[0, 1], [1]])
    with pytest.raises(ShapeError):
        validate_rack([[0, 2], [1, 0]])
    with pytest.raises(ShapeError):
        validate_rack([])


def test_cyclic_rack_not_quandle():
    rack = cyclic_rack(4)
    assert rack.op(0, 0) == 1
    assert not rack.is_quandle()
    assert cyclic_rack(1).is_quandle()


def test_conjugation_s3():
    rack = builtin("conjugation:s3")
    assert rack.size == 6
    assert rack.is_quandle()
    # orbits are exactly the conjugacy classes: sizes 1, 2, 3
    blocks = orbits(rack)
    assert sorted(len(b) for b in blocks) == [1, 2, 3]


def test_invalid_group_table():
    with pytest.raises(InvalidGroupTable):
        conjugation_rack([[0, 1], [1, 1]])  # no inverse for 1
    with pytest.raises(InvalidGroupTable, match="no two-sided identity"):
        conjugation_rack([[0, 0], [0, 0]])
    # associativity failure: a Latin square that is not a group
    latin = [
        [0, 1, 2, 3, 4],
        [1, 0, 3, 4, 2],
        [2, 4, 0, 1, 3],
        [3, 2, 4, 0, 1],
        [4, 3, 1, 2, 0],
    ]
    with pytest.raises(InvalidGroupTable):
        conjugation_rack(latin)
    # the shape check of rack and action tables: a bad row is refused by name
    for bad in ([[0, 1], 5], [], [[0, 1], [1]], [[0, 2], [1, 0]], [[0, True], [1, 0]]):
        with pytest.raises(InvalidGroupTable):
            conjugation_rack(bad)


def test_symmetric_group_table_is_group():
    t = symmetric_group_table(3)
    n = len(t)
    for a in range(n):
        for b in range(n):
            for c in range(n):
                assert t[t[a][b]][c] == t[a][t[b][c]]


def test_inverse_op():
    for rack in (trivial_rack(3), dihedral_rack(3), cyclic_rack(4), dihedral_rack(5)):
        for x in range(rack.size):
            for y in range(rack.size):
                assert rack.left[y][rack.right[y][x]] == x
    # dihedral columns are self-inverse: left[y][x] = (2y - x) mod 3
    left = dihedral_rack(3).left
    assert all(left[y][x] == (2 * y - x) % 3 for x in range(3) for y in range(3))
    # cyclic shift inverts to the down-shift
    left = cyclic_rack(5).left
    assert all(left[y][x] == (x - 1) % 5 for x in range(5) for y in range(5))


def test_orbit_counts():
    assert len(orbits(dihedral_rack(3))) == 1
    assert len(orbits(dihedral_rack(4))) == 2
    assert len(orbits(trivial_rack(5))) == 5
    # sorted blocks ordered by least element, each closed under the operation
    rack = dihedral_rack(4)
    blocks = orbits(rack)
    assert blocks == ((0, 2), (1, 3))
    for block in blocks:
        for x in block:
            for y in range(rack.size):
                assert rack.op(x, y) in block


def test_builtin_specs():
    assert builtin("trivial:3").size == 3
    assert builtin("dihedral:4").is_quandle()
    assert builtin("cyclic:4").size == 4
    with pytest.raises(ShapeError):
        builtin("nonsense:3")
    with pytest.raises(ShapeError, match="only s3 is built in"):
        builtin("conjugation:s4")


def test_xset_self_and_singleton():
    rack = dihedral_rack(3)
    xs = xset_self(rack)
    assert xs.act == rack.table
    xs1 = xset_singleton(rack)
    assert xs1.size == 1
    # constant action is valid: compatibility reads y = y
    const = validate_xset(rack, [[y] * 3 for y in range(3)])
    assert const.size == 3


def test_xset_violations():
    rack = dihedral_rack(3)
    with pytest.raises(BijectivityViolation) as exc:
        validate_xset(rack, [[0, 0, 1], [0, 1, 0], [1, 2, 2]])
    assert exc.value.x == 0
    # bijective per generator but incompatible with the rack operation
    bad = [[1, 0, 0], [0, 1, 1], [2, 2, 2]]
    with pytest.raises((CompatibilityViolation, BijectivityViolation)):
        validate_xset(rack, bad)


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 4).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(0, n - 1), min_size=n, max_size=n),
        min_size=n, max_size=n,
    )
))
def test_random_tables_rejected_with_genuine_witness(table):
    """Arbitrary tables either validate or fail with a checkable witness."""
    n = len(table)
    try:
        rack = validate_rack(table)
    except R1Violation as err:
        col = [table[x][err.y] for x in range(n)]
        assert len(set(col)) != n
        return
    except R2Violation as err:
        x, y, z = err.x, err.y, err.z
        assert table[table[x][y]][z] != table[table[x][z]][table[y][z]]
        return
    for y in range(n):
        assert len({table[x][y] for x in range(n)}) == n
    for x, y, z in itertools.product(range(n), repeat=3):
        assert table[table[x][y]][z] == table[table[x][z]][table[y][z]]
    assert rack.size == n
