"""The rack and quandle complexes reduced one orbit block at a time
(``RackComplex``), against the whole complex and against Etingof--Grana's
Betti numbers, on the builtins and on every rack of order <= 4."""

import functools
import itertools

import pytest

from rackhom import complexes
from rackhom.complexes import RackComplex, _isomorphic, _orbit_sets, boundary_matrix
from rackhom.errors import DimensionOverflow, ShapeError
from rackhom.linalg import ChainComplex
from rackhom.racks import (
    builtin,
    orbits,
    trivial_rack,
    validate_rack,
    validate_xset,
    xset_self,
    xset_singleton,
)
from rackhom.rings import GF, QQ, ZZ
from rackhom.verify import BUILTIN_SPECS
from test_linalg import fresh_all

RINGS = (ZZ, QQ, GF(2), GF(3), GF(5))
QUANDLES = [spec for spec in BUILTIN_SPECS if builtin(spec).is_quandle()]


def fixed_points_and_a_pair():
    """A rack-set of dihedral:3 with orbits {0}, {1, 2} and {3}."""
    return validate_xset(builtin("dihedral:3"), [[0, 0, 0], [2, 2, 2], [1, 1, 1], [3, 3, 3]])


@pytest.mark.parametrize("spec", BUILTIN_SPECS)
def test_blocks_match_the_whole_complex(spec, quandle=False):
    """Every builtin, over Z, Q, F_2, F_3 and F_5, homology and cohomology,
    with trivial, self and singleton coefficients (and on dihedral:3 a
    rack-set with fixed points): the groups of the blockwise complex are
    those of the whole ``ChainComplex``."""
    rack = builtin(spec)
    small = rack.size < 5
    cases = [(None, 4 + small), (xset_singleton(rack), 4 + small), (xset_self(rack), 3 + small)]
    if spec == "dihedral:3":
        cases.append((fixed_points_and_a_pair(), 4))
    for xset, top in cases:
        matrices = {n: boundary_matrix(rack, n, quandle=quandle, xset=xset)
                    for n in range(1, top + 1)}
        for ring in RINGS:
            whole = ChainComplex(fresh_all(matrices), ring)
            blocks = RackComplex(rack, ring, top, xset, quandle=quandle)
            for n in range(1, top):
                for group in ("homology", "cohomology"):
                    assert getattr(blocks, group)(n) == getattr(whole, group)(n), \
                        (xset and xset.label, ring.name, group, n)


@pytest.mark.parametrize("spec", QUANDLES)
def test_quandle_blocks_match_the_whole_complex(spec):
    """The same on the quandle complex of every builtin quandle."""
    test_blocks_match_the_whole_complex(spec, quandle=True)


# --- every rack of order <= 4 ------------------------------------------------


def least_relabelling(table):
    """The least of the tables pi(x) <| pi(y) = pi(x <| y) over every
    relabelling pi, rows compared in order: one table per isomorphism class."""
    n = len(table)
    best = None
    for pi in itertools.permutations(range(n)):
        relabelled = [[0] * n for _ in range(n)]
        for x in range(n):
            for y in range(n):
                relabelled[pi[x]][pi[y]] = pi[table[x][y]]
        best = min(best or relabelled, relabelled)
    return tuple(map(tuple, best))


@functools.cache
def racks_of_order(n):
    """Every rack on 0..n-1 up to isomorphism, by its least relabelled table,
    in increasing order of that table.  Backtracks over the right
    translations s_y(x) = x <| y, a permutation each, keeping R2,
    s_z s_y = s_{s_z(y)} s_z, on every triple y, z, s_z(y) once all three are
    assigned."""
    perms = list(itertools.permutations(range(n)))
    s = [None] * n
    found = set()

    def extend(k):
        if k == n:
            found.add(least_relabelling([[s[y][x] for y in range(n)] for x in range(n)]))
            return
        for perm in perms:
            s[k] = perm
            if all(s[z][s[y][x]] == s[w][s[z][x]]
                   for y in range(k + 1) for z in range(k + 1)
                   if (w := s[z][y]) <= k and k in (y, z, w) for x in range(n)):
                extend(k + 1)
        s[k] = None

    extend(0)
    return [validate_rack(table, f"rack {n}.{i}") for i, table in enumerate(sorted(found))]


def test_the_racks_of_order_at_most_4():
    """1, 2, 6 and 19 racks up to isomorphism, 1, 1, 3 and 7 of them quandles;
    each builtin of order <= 4 is one of them."""
    corpus = [racks_of_order(n) for n in range(1, 5)]
    assert [len(racks) for racks in corpus] == [1, 2, 6, 19]
    assert [sum(r.is_quandle() for r in racks) for racks in corpus] == [1, 1, 3, 7]
    tables = {r.table for racks in corpus for r in racks}
    assert len(tables) == 28 and all(least_relabelling(t) == t for t in tables)
    for spec in BUILTIN_SPECS:
        rack = builtin(spec)
        if rack.size <= 4:
            assert least_relabelling(rack.table) in tables, spec


def test_the_racks_of_order_5():
    """74 racks up to isomorphism, 22 of them quandles, as the enumerator
    counts them; dihedral:5 is one of them."""
    racks = racks_of_order(5)
    assert (len(racks), sum(r.is_quandle() for r in racks)) == (74, 22)
    assert least_relabelling(builtin("dihedral:5").table) in {r.table for r in racks}


@pytest.mark.parametrize("order", range(1, 5))
def test_blocks_match_the_whole_complex_on_every_small_rack(order):
    """Over Z, in both variants, through degree 3, homology and cohomology."""
    for rack in racks_of_order(order):
        for quandle in (False, True) if rack.is_quandle() else (False,):
            whole = ChainComplex({n: boundary_matrix(rack, n, quandle=quandle)
                                  for n in range(1, 5)}, ZZ)
            blocks = RackComplex(rack, ZZ, 4, quandle=quandle)
            for n in range(1, 4):
                for group in ("homology", "cohomology"):
                    assert getattr(blocks, group)(n) == getattr(whole, group)(n), \
                        (rack.table, quandle, group, n)


@pytest.mark.parametrize("order", range(1, 5))
def test_rational_betti_numbers_of_every_small_rack(order):
    """Etingof--Grana's b_n = |Orb(X)|^n over Q, through degree 4."""
    for rack in racks_of_order(order):
        blocks = RackComplex(rack, QQ, 5)
        for n in range(1, 5):
            assert blocks.homology(n).betti == len(orbits(rack)) ** n, (rack.table, n)


@pytest.mark.parametrize("spec", BUILTIN_SPECS)
def test_universal_coefficients_relate_the_z_and_fp_homology(spec):
    """dim H_n(F_p) = b_n + the number of torsion factors of H_n and of
    H_{n-1} that p divides, H_0 being free: the Smith form over Z and the
    rank over F_p, for p = 2, 3, 5, with trivial and self coefficients, in
    both variants, through degree 4 (3 on the racks of size 5 and 6)."""
    rack = builtin(spec)
    top = 4 if rack.size < 5 else 3
    for quandle in (False, True) if rack.is_quandle() else (False,):
        for xset in (None, xset_self(rack)):
            integral = RackComplex(rack, ZZ, top + 1, xset, quandle=quandle)
            groups = [integral.homology(n) for n in range(1, top + 1)]
            torsion = [()] + [group.torsion for group in groups]
            for p in (2, 3, 5):
                field = RackComplex(rack, GF(p), top + 1, xset, quandle=quandle)
                for n, group in enumerate(groups, 1):
                    count = sum(t % p == 0 for t in torsion[n] + torsion[n - 1])
                    assert field.homology(n).betti == group.betti + count, \
                        (quandle, xset and xset.label, p, n)


@pytest.mark.parametrize("spec", BUILTIN_SPECS)
def test_a_rack_orbit_block_is_the_whole_boundary_negated(spec):
    """The columns of d_n with x_1 in an orbit O are those of -d_{n-1}(X;
    Z[O]), x_1 becoming the coefficient point: (x_1, t) is (t, x_1) there,
    with the point varying fastest."""
    rack = builtin(spec)
    for n in range(2, 5 if rack.size < 5 else 4):
        whole = boundary_matrix(rack, n)
        width, height = rack.size ** (n - 1), rack.size ** (n - 2)
        for orbit, o in zip(orbits(rack), _orbit_sets(rack, None)):
            block = boundary_matrix(rack, n - 1, xset=o)
            assert (block.nrows, block.ncols) == (o.size * height, o.size * width)
            for y, x in enumerate(orbit):
                for k in range(width):
                    expected = {r % height * o.size + orbit.index(r // height): -v
                                for r, v in whole.cols[x * width + k].items()}
                    assert block.cols[k * o.size + y] == expected, (n, x, k)


@pytest.mark.parametrize("spec", BUILTIN_SPECS)
def test_rational_betti_numbers_are_powers_of_the_orbit_count(spec):
    """Etingof--Grana (JPAA 177, 2003): over Q the rack homology has
    b_n = |Orb(X)|^n.  A check of the blocks that reads no whole matrix."""
    rack = builtin(spec)
    blocks = RackComplex(rack, QQ, 5)
    for n in range(1, 5):
        assert blocks.homology(n).betti == blocks.cohomology(n).betti == len(orbits(rack)) ** n


def test_a_fixed_point_reuses_the_degree_below(monkeypatch):
    # every orbit of a trivial rack is a fixed point, so no matrix is built
    def refuse(*args, **kwargs):
        raise AssertionError("a block matrix was built")

    monkeypatch.setattr(complexes, "boundary_matrix", refuse)
    blocks = RackComplex(trivial_rack(6), GF(2), 6)
    assert [blocks.homology(n).betti for n in range(1, 6)] == [6 ** n for n in range(1, 6)]
    singleton = RackComplex(trivial_rack(3), ZZ, 4, xset_singleton(trivial_rack(3)))
    assert [singleton.homology(n).betti for n in range(1, 4)] == [3, 9, 27]


def test_isomorphic_orbits_are_reduced_once(monkeypatch):
    # dihedral:6's two orbits, the even and the odd points, are swapped by
    # x -> x + 3; conjugation:s3's classes of sizes 1, 3 and 2 are not
    d6 = builtin("dihedral:6")
    even, odd = _orbit_sets(d6, None)
    assert _isomorphic(even, odd) and _isomorphic(odd, even)
    s3 = _orbit_sets(builtin("conjugation:s3"), None)
    assert [o.size for o in s3] == [1, 3, 2]
    assert not any(_isomorphic(a, b) for a in s3 for b in s3 if a is not b)
    built = []

    def counted(rack, n, **kwargs):
        built.append(n)
        return boundary_matrix(rack, n, **kwargs)

    monkeypatch.setattr(complexes, "boundary_matrix", counted)
    blocks = RackComplex(d6, ZZ, 4)
    assert blocks.homology(3).describe() == "Z^8 + (Z/3)^2"
    assert built == [1, 2, 3]


def test_isomorphic_orbits_of_the_quandle_complex_are_reduced_once(monkeypatch):
    # with self coefficients the quandle complex splits by the orbit of the
    # point, and dihedral:6's two orbits give one block per degree
    d6 = builtin("dihedral:6")
    built = []

    def counted(rack, n, **kwargs):
        built.append((n, kwargs["quandle"], kwargs["xset"].size))
        return boundary_matrix(rack, n, **kwargs)

    monkeypatch.setattr(complexes, "boundary_matrix", counted)
    blocks = RackComplex(d6, ZZ, 4, xset_self(d6), quandle=True)
    assert blocks.homology(3).describe() == "Z^4 + (Z/3)^8"
    assert built == [(n, True, 3) for n in (1, 2, 3, 4)]


def test_a_one_point_orbit_of_the_quandle_complex_is_the_whole_trivial_complex(monkeypatch):
    # trivial:3's three fixed points share one trivial quandle complex, built
    # once at the same degree, unlike the rack complex's degree below
    built = []

    def counted(rack, n, **kwargs):
        built.append((n, kwargs["quandle"], kwargs["xset"]))
        return boundary_matrix(rack, n, **kwargs)

    monkeypatch.setattr(complexes, "boundary_matrix", counted)
    t3 = trivial_rack(3)
    blocks = RackComplex(t3, ZZ, 5, xset_self(t3), quandle=True)
    assert [blocks.homology(n).betti for n in range(1, 5)] == [9, 18, 36, 72]
    assert built == [(n, True, None) for n in range(1, 6)]


@pytest.mark.parametrize("spec", ["dihedral:4", "conjugation:s3"])
def test_a_read_rack_complex_holds_no_matrix(monkeypatch, spec):
    # every degree read, in both variants, with trivial and self
    # coefficients: each block matrix was taken over by its reduction, and
    # no class complex still holds one
    built = []

    def kept(rack, n, **kwargs):
        built.append(m := boundary_matrix(rack, n, **kwargs))
        return m

    monkeypatch.setattr(complexes, "boundary_matrix", kept)
    rack = builtin(spec)
    top = 4 if rack.size < 5 else 3
    for quandle in (False, True):
        for xset in (None, xset_self(rack)):
            for ring in (ZZ, GF(3)):
                blocks = RackComplex(rack, ring, top, xset, quandle=quandle)
                for n in range(1, top):
                    blocks.homology(n), blocks.cohomology(n)
                classes = [c[2] for c in (*blocks._blocks, *blocks._classes) if c]
                assert classes and not any(cx.differentials for cx in classes)
    assert built and all(m.cols is None for m in built)


def test_orbits_of_a_rack_set():
    points = fixed_points_and_a_pair()
    assert orbits(points) == ((0,), (1, 2), (3,))
    assert [o.act for o in _orbit_sets(points.over, points)] == [
        ((0, 0, 0),), ((1, 1, 1), (0, 0, 0)), ((0, 0, 0),)]


POINTS_1000 = validate_xset(builtin("dihedral:3"), [[y] * 3 for y in range(1000)])
COLUMNS_1000 = r"degree-1 boundary has 3000 columns \(3 tuples x 1000 points\), over the cap 1000"


@pytest.mark.parametrize("xset, top, message", [
    (None, 10, "basis of degree 7 over size-3 rack exceeds cap 1000"),
    (POINTS_1000, 3, COLUMNS_1000),
])
def test_the_cap_counts_the_whole_complex_before_any_block(monkeypatch, xset, top, message,
                                                            quandle=False):
    # trivial:3 would need no matrix at all, and a rack-set of fixed points
    # only the trivial complex: the cap still refuses what boundary_matrix does
    rack = trivial_rack(3) if xset is None else xset.over
    monkeypatch.setattr(complexes, "_orbit_sets", None)
    with pytest.raises(DimensionOverflow, match=message):
        RackComplex(rack, ZZ, top, xset, max_basis=1000, quandle=quandle)
    with pytest.raises(DimensionOverflow, match=message):
        for n in range(1, top + 1):
            boundary_matrix(rack, n, quandle=quandle, xset=xset, max_basis=1000)


@pytest.mark.parametrize("xset, top, message", [
    (None, 10, "basis of degree 10 over size-3 rack exceeds cap 1000"),
    (POINTS_1000, 3, COLUMNS_1000),
])
def test_the_quandle_cap_counts_the_whole_complex_before_any_block(monkeypatch, xset, top,
                                                                    message):
    test_the_cap_counts_the_whole_complex_before_any_block(monkeypatch, xset, top, message,
                                                            quandle=True)

def test_degrees_outside_the_complex_are_refused():
    blocks = RackComplex(trivial_rack(2), ZZ, 3)
    for n in (0, 4):
        with pytest.raises(ShapeError):
            blocks.reduction(n)
