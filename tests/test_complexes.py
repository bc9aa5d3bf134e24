import hashlib
import itertools
import math
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rackhom import complexes
from rackhom.complexes import (
    Cochain,
    basis_cochain,
    boundary_matrix,
    cochain_differential,
    cochain_differential_matrix,
    project_to_chain,
    tuple_basis,
)
from rackhom.errors import (
    CoefficientMismatch,
    DimensionOverflow,
    IndexOutOfRange,
    MixedDegrees,
    NotAQuandle,
)
from rackhom.linalg import ChainComplex
from rackhom.racks import (
    builtin,
    cyclic_rack,
    dihedral_rack,
    trivial_rack,
    validate_rack,
    validate_xset,
    xset_self,
    xset_singleton,
)
from rackhom.rings import QQ, ZZ
from rackhom.verify import BUILTIN_SPECS
from rackhom.words import WordAlgebra

R3 = dihedral_rack(3)
R4 = dihedral_rack(4)
C3 = cyclic_rack(3)
S3 = builtin("conjugation:s3")
W3 = WordAlgebra(R3)


def test_basis_roundtrip_and_order():
    b = tuple_basis(R3, 2)
    assert len(b) == 9
    # mixed radix, last coordinate fastest
    assert b.tuples[:4] == ((0, 0), (0, 1), (0, 2), (1, 0))
    for i, t in enumerate(b.tuples):
        assert b.index[t] == i


def test_quandle_basis_excludes_adjacent_equal():
    b = tuple_basis(R3, 3, quandle=True)
    assert len(b) == 12
    assert all(x != y and y != z for (x, y, z) in b.tuples)
    with pytest.raises(NotAQuandle):
        tuple_basis(cyclic_rack(3), 2, quandle=True)
    # the direct enumeration is the filtered product, order included
    for s in range(1, 6):
        rack = trivial_rack(s)
        for n in range(7):
            filtered = tuple(t for t in itertools.product(range(s), repeat=n)
                             if all(a != b for a, b in zip(t, t[1:])))
            assert tuple_basis(rack, n, quandle=True).tuples == filtered


def test_basis_index_is_built_on_first_read():
    basis = tuple_basis(R3, 3)
    assert "index" not in vars(basis)
    assert basis.index[(2, 0, 1)] == 19
    assert "index" in vars(basis)
    assert basis == tuple_basis(R3, 3) and hash(basis) == hash(tuple_basis(R3, 3))


def test_basis_cap():
    with pytest.raises(DimensionOverflow):
        tuple_basis(R4, 12, max_basis=1000)


def test_basis_cap_counts_the_points_of_a_rack_set():
    # 27 tuples of degree 3 stay under the cap; 27 x 1000 columns do not
    big = validate_xset(R3, [[y] * 3 for y in range(1000)])
    with pytest.raises(DimensionOverflow, match="27000 columns"):
        boundary_matrix(R3, 3, xset=big, max_basis=30)
    with pytest.raises(DimensionOverflow, match="9000 columns"):
        cochain_differential_matrix(R3, 1, module=big, max_basis=30)
    assert boundary_matrix(R3, 2, xset=xset_self(R3), max_basis=27).ncols == 27
    with pytest.raises(DimensionOverflow):
        boundary_matrix(R3, 2, xset=xset_self(R3), max_basis=26)


def test_quandle_basis_cap_counts_the_real_basis():
    # 5 * 4^7 = 81,920 non-degenerate tuples, although 5^8 > 200,000
    r5 = dihedral_rack(5)
    assert len(tuple_basis(r5, 8, quandle=True)) == 81_920
    with pytest.raises(DimensionOverflow):
        tuple_basis(r5, 8, quandle=True, max_basis=81_919)


def test_face_examples():
    # conjugating face: delta_2^1(x,y,z) = (x <| y, z) with prefix y
    for x, y, z in itertools.product(range(3), repeat=3):
        assert W3.face_monomial(((), (x, y, z)), 2, 1) == ((y,), (R3.op(x, y), z))
    # leftmost conjugating face has an empty conjugated segment
    assert W3.face_monomial(((), (0, 1)), 1, 1) == ((0,), (1,))
    with pytest.raises(IndexOutOfRange):
        W3.face_monomial(((), (0, 1)), 3, 0)


def test_face_exchange_instance():
    # delta_1^0 delta_3^1 = delta_2^1 delta_1^0 on triples, both (y <| z)
    for t in itertools.product(range(3), repeat=3):
        _, a = W3.face_monomial(W3.face_monomial(((), t), 3, 1), 1, 0)
        _, b = W3.face_monomial(W3.face_monomial(((), t), 1, 0), 2, 1)
        assert a == b == (R3.op(t[1], t[2]),)


def test_face_set_collects_prefixes_largest_first():
    got = W3.face_set(((), (0, 1, 2)), {1, 2}, 1)
    # apply index 2 first (prefix 1), then index 1 on the shortened tuple
    (x1,), t1 = W3.face_monomial(((), (0, 1, 2)), 2, 1)
    (x2,), t2 = W3.face_monomial(((), t1), 1, 1)
    assert got == (W3.canonical_a_word((x1, x2)), t2)


@st.composite
def small_racks(draw):
    """A relabelled permutation rack (x <| y = s(x)) or Alexander rack
    (x <| y = a x + (1 - a) y mod n) of size at most 5."""
    n = draw(st.integers(1, 5))
    if draw(st.booleans()):
        s = draw(st.permutations(range(n)))
        table = [[s[x]] * n for x in range(n)]
    else:
        a = draw(st.sampled_from([a for a in range(n) if math.gcd(a, n) == 1]))
        table = [[(a * x + (1 - a) * y) % n for y in range(n)] for x in range(n)]
    pi = draw(st.permutations(range(n)))
    relabelled = [[0] * n for _ in range(n)]
    for x in range(n):
        for y in range(n):
            relabelled[pi[x]][pi[y]] = pi[table[x][y]]
    return validate_rack(relabelled)


def _coproduct_terms_oracle(t, q, rack):
    # the closed coproduct formula on t, right factors of degree q, from the
    # definition: (left, prefix, right, eps) per size-q subset A of 1..n in
    # lexicographic order; delete A on the left; on the right delete the
    # complement largest index first, conjugating every earlier entry; eps
    # the unshuffle signature of A times (-1)^{q(n-q)}.  The reference of the
    # cup stencil in test_cup
    n = len(t)
    out = []
    for A in itertools.combinations(range(1, n + 1), q):
        comp = [i for i in range(1, n + 1) if i not in A]
        inversions = sum(1 for a in A for c in comp if a > c)
        left = tuple(t[i - 1] for i in comp)
        cur, prefix = list(t), []
        for i in reversed(comp):
            x = cur[i - 1]
            prefix.append(x)
            cur = [rack.table[y][x] for y in cur[: i - 1]] + cur[i:]
        eps = (-1) ** (inversions + q * (n - q))
        out.append((left, tuple(prefix), tuple(cur), eps))
    return out


@settings(max_examples=40, deadline=None)
@given(small_racks())
def test_rack_right_columns(rack):
    n = rack.size
    assert all(rack.right[y][x] == rack.table[x][y] for x in range(n) for y in range(n))
    # a cached attribute, not part of equality or hashing
    fresh = validate_rack(rack.table)
    assert fresh == rack and hash(fresh) == hash(rack)


# digests of the boundary columns of degrees 1-4, pinned from the builder
# that assembled each face separately, so that a reordered or re-signed
# column shows even where the homology does not change
BOUNDARY_DIGESTS = {
    ("conjugation:s3", "trivial", False): "0c9c7c002b60658b",
    ("conjugation:s3", "self", False): "4a855216a8cd40fe",
    ("conjugation:s3", "trivial", True): "89c62869fadc2b62",
    ("conjugation:s3", "self", True): "29c3e51ba63fc778",
    ("cyclic:3", "trivial", False): "8ab2baf94daf8609",
    ("cyclic:3", "self", False): "020841ccf747d471",
}


@pytest.mark.parametrize("spec, coefficients, quandle", sorted(BOUNDARY_DIGESTS))
def test_boundary_columns_pinned(spec, coefficients, quandle):
    rack = builtin(spec)
    xs = xset_self(rack) if coefficients == "self" else None
    h = hashlib.sha256()
    for n in range(1, 5):
        mat = boundary_matrix(rack, n, quandle=quandle, xset=xs)
        h.update(repr((mat.nrows, mat.ncols, [sorted(c.items()) for c in mat.cols])).encode())
    assert h.hexdigest()[:16] == BOUNDARY_DIGESTS[spec, coefficients, quandle]


# (rack, top degree n): at most a few thousand columns per matrix
SHIFT_RACKS = [("dihedral:3", 3), ("dihedral:4", 3), ("cyclic:3", 3), ("conjugation:s3", 3),
               ("trivial:2", 3), ("dihedral:5", 2), ("dihedral:6", 2), ("cyclic:4", 2)]


@pytest.mark.parametrize("spec, top", SHIFT_RACKS)
def test_self_coefficients_shift_the_degree(spec, top):
    """H_n(X; Z[X]) = H_{n+1}(X; Z) on the rack complex, torsion included,
    and the same for cohomology: a point of the self-set acts as one more
    tuple entry, in front.  A second side for the coefficient action, read
    off trivial coefficients.  It does not hold on the quandle complex."""
    rack = builtin(spec)
    xs = xset_self(rack)
    with_set = ChainComplex({n: boundary_matrix(rack, n, xset=xs) for n in range(1, top + 2)}, ZZ)
    trivial = ChainComplex({n: boundary_matrix(rack, n) for n in range(1, top + 3)}, ZZ)
    for n in range(1, top + 1):
        for group in ("homology", "cohomology"):
            got = getattr(with_set, group)(n)
            shifted = getattr(trivial, group)(n + 1)
            assert (got.betti, got.torsion) == (shifted.betti, shifted.torsion), (group, n)


# (rack, quandle variant, self-set coefficients, top degree n)
DUAL_CASES = [("dihedral:3", False, False, 4), ("dihedral:4", False, False, 4),
              ("dihedral:4", True, False, 4), ("dihedral:5", True, False, 3),
              ("conjugation:s3", False, False, 3), ("conjugation:s3", True, False, 3),
              ("dihedral:6", False, False, 3), ("trivial:2", False, False, 4),
              ("cyclic:3", False, True, 3), ("dihedral:3", False, True, 3)]


@pytest.mark.parametrize("spec, quandle, self_set, top", DUAL_CASES)
def test_cohomology_matches_the_dual_complex(spec, quandle, self_set, top):
    """Z-cohomology read from the boundary reductions equals the homology of
    the cochain complex itself: the coboundary matrices at degrees -p, so
    that homology(-n) is H^n, found by reducing the transposed matrices top
    degree first, and with the torsion of the coboundary into degree n."""
    rack = builtin(spec)
    xs = xset_self(rack) if self_set else None
    chains = ChainComplex({n: boundary_matrix(rack, n, quandle=quandle, xset=xs)
                           for n in range(1, top + 2)}, ZZ)
    cochains = ChainComplex({-p: cochain_differential_matrix(rack, p, quandle=quandle, module=xs)
                             for p in range(top + 1)}, ZZ)
    for n in range(1, top + 1):
        got, dual = chains.cohomology(n), cochains.homology(-n)
        assert (got.betti, got.torsion) == (dual.betti, dual.torsion), n


def _boundary_oracle(rack, n, quandle, xs):
    # each face taken separately with the word engine's ``face_monomial`` and
    # looked up as a tuple, entries summed in face order: the columns with
    # their key order
    W = WordAlgebra(rack)
    src, tgt = tuple_basis(rack, n, quandle), tuple_basis(rack, n - 1, quandle)
    dim = xs.size if xs else 1
    cols = []
    for t in src.tuples:
        for y in range(dim):
            col = {}
            for i in range(1, n + 1):
                sign = -1 if i % 2 else 1
                _, plain = W.face_monomial(((), t), i, 0)
                (x,), conjugated = W.face_monomial(((), t), i, 1)
                moved = xs.act[y][x] if xs else y
                for r, point, entry in ((tgt.index.get(plain), y, sign),
                                        (tgt.index.get(conjugated), moved, -sign)):
                    if r is not None:
                        r = r * dim + point
                        col[r] = col.get(r, 0) + entry
            cols.append([(r, v) for r, v in col.items() if v])
    return len(tgt) * dim, len(src) * dim, cols


@settings(max_examples=60, deadline=None)
@given(small_racks(), st.integers(1, 4), st.booleans(), st.booleans())
def test_boundary_columns_match_faces_taken_one_by_one(rack, n, quandle, self_coefficients):
    quandle = quandle and rack.is_quandle()
    xs = xset_self(rack) if self_coefficients else None
    mat = boundary_matrix(rack, n, quandle=quandle, xset=xs)
    assert (mat.nrows, mat.ncols, [list(c.items()) for c in mat.cols]) == \
        _boundary_oracle(rack, n, quandle, xs)
    # plain ints (no Fractions, no residues): the one matrix for every ring
    assert all(type(v) is int for col in mat.cols for v in col.values())


def test_boundary_memory_follows_the_basis():
    # 3 * 2^9 = 1536 source tuples out of 3^10 = 59049: the bases alone peak
    # at about 1.4 MB, and a table over every head of a position would grow
    # with 3^10 instead of with the basis
    tracemalloc.start()
    try:
        boundary_matrix(builtin("dihedral:3"), 10, quandle=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_500_000


@pytest.mark.parametrize("spec", BUILTIN_SPECS)
def test_face_table_indexes_the_tuple_basis(spec):
    """The face table that the boundary and the cup stencil read, against
    :func:`tuple_basis` for the tuples of degree up to 4 in both variants:
    ``grow[k][i][x]`` is the index of tuple i + (x,), None exactly when that
    tuple is degenerate, and ``conj[k][i][x]`` that of tuple i with each
    entry y moved to y <| x."""
    rack = builtin(spec)
    for quandle in (False, True) if rack.is_quandle() else (False,):
        grow, conj = complexes._shifts(rack, 5, quandle)
        for k in range(5):
            basis, up = tuple_basis(rack, k, quandle), tuple_basis(rack, k + 1, quandle).index
            assert len(grow[k]) == len(conj[k]) == len(basis), (quandle, k)
            for i, t in enumerate(basis.tuples):
                grown = [up.get(t + (x,)) for x in range(rack.size)]
                assert grow[k][i] == tuple(grown), (quandle, t)
                degenerate = [quandle and k > 0 and x == t[-1] for x in range(rack.size)]
                assert [j is None for j in grown] == degenerate, (quandle, t)
                moved = [tuple(rack.op(y, x) for y in t) for x in range(rack.size)]
                assert conj[k][i] == tuple(basis.index[u] for u in moved), (quandle, t)


def test_boundary_builds_no_tuple_basis(monkeypatch):
    # the rows and columns are read from the face table, in both variants
    calls = []
    basis = complexes.tuple_basis
    monkeypatch.setattr(complexes, "tuple_basis", lambda *a: calls.append(a[1]) or basis(*a))
    mat = boundary_matrix(R3, 3)
    assert (mat.nrows, mat.ncols) == (9, 27)
    mat = boundary_matrix(R3, 3, quandle=True)
    assert (mat.nrows, mat.ncols) == (6, 12)
    assert calls == []


def test_quandle_boundaries_refuse_a_non_quandle():
    # no basis is built on the way, so the builders refuse a non-quandle themselves
    rack = builtin("cyclic:3")
    with pytest.raises(NotAQuandle):
        boundary_matrix(rack, 2, quandle=True)
    with pytest.raises(NotAQuandle):
        cochain_differential_matrix(rack, 1, quandle=True)


def test_boundary_matrix_example():
    # bd(x, y) = (x) - (x <| y); over the three-element dihedral, bd(0,1) = (0) - (2)
    m = boundary_matrix(R3, 2)
    b2 = tuple_basis(R3, 2)
    assert m.cols[b2.index[(0, 1)]] == {0: 1, 2: -1}
    assert m.cols[b2.index[(0, 0)]] == {}  # 0 <| 0 = 0 cancels


def test_builders_take_no_ring_and_keyword_flags():
    # a ring passed where the old signature had one would bind ``quandle``
    # (a Ring is truthy) and build the quandle complex; it is refused instead
    with pytest.raises(TypeError):
        boundary_matrix(R3, 2, ZZ)
    with pytest.raises(TypeError):
        cochain_differential_matrix(R3, 1, QQ)
    with pytest.raises(TypeError):
        boundary_matrix(R3, 2, True)


def test_boundary_trivial_rack_zero():
    for n in (1, 2, 3, 4):
        assert boundary_matrix(trivial_rack(3), n).is_zero()


def test_boundary_degree_one_zero():
    assert boundary_matrix(R3, 1).is_zero()
    assert boundary_matrix(cyclic_rack(4), 1).is_zero()


def test_boundary_squares_to_zero_all_variants():
    for rack in (R3, R4, cyclic_rack(3), builtin("conjugation:s3")):
        variants = [False, True] if rack.is_quandle() else [False]
        top = 4 if rack.size <= 4 else 3
        for quandle in variants:
            for xs in (None, xset_self(rack), xset_singleton(rack)):
                mats = {
                    n: boundary_matrix(rack, n, quandle=quandle, xset=xs)
                    for n in range(1, top + 1)
                }
                for n in range(2, top + 1):
                    assert mats[n - 1].mul(mats[n]).is_zero()


def test_singleton_coefficients_reproduce_trivial():
    for rack in (R3, R4):
        for n in (1, 2, 3):
            assert (
                boundary_matrix(rack, n, xset=xset_singleton(rack)).cols
                == boundary_matrix(rack, n).cols
            )


def test_projection_sign_against_engine():
    """project(d(e_T)) is exactly minus the boundary column of T."""
    W = WordAlgebra(R3)
    for n in (1, 2, 3):
        bd = boundary_matrix(R3, n)
        basis = tuple_basis(R3, n)
        for T in basis.tuples:
            ch = project_to_chain(W.d(W.eword(T)), degree=n - 1)
            dense = [0] * bd.nrows
            for i, v in bd.cols[basis.index[T]].items():
                dense[i] = -v
            assert ch == dense


def test_projection_with_module_coefficients():
    """With a rack-set the prefix moves the point by the right action, and
    the identity project(d) = -boundary holds in the (tuple, point) basis."""
    xs = xset_self(R3)
    W = WordAlgebra(R3)
    for n in (1, 2, 3):
        bd = boundary_matrix(R3, n, xset=xs)
        basis = tuple_basis(R3, n)
        for T in basis.tuples:
            for y in range(xs.size):
                ch = project_to_chain(W.d(W.eword(T)), xset=xs, y=y, degree=n - 1)
                dense = [0] * bd.nrows
                for i, v in bd.cols[basis.index[T] * xs.size + y].items():
                    dense[i] = -v
                assert ch == dense


def test_project_examples():
    W = WordAlgebra(R3)
    ch = project_to_chain(W.eword((0, 1)))
    b2 = tuple_basis(R3, 2)
    assert ch[b2.index[(0, 1)]] == 1 and sum(map(abs, ch)) == 1
    # a group-like prefix acts trivially on trivial coefficients
    u = W.element({((2,), (0, 1)): 1})
    assert project_to_chain(u) == ch
    with pytest.raises(MixedDegrees):
        project_to_chain(W.eword((0,)) + W.eword((0, 1)))
    # the options are keyword-only: a ring in second place is refused
    with pytest.raises(TypeError):
        project_to_chain(u, ZZ)


SELF3 = xset_self(R3)


@pytest.mark.parametrize("t, j, module", [
    ((0,), 3, SELF3),   # past the module: would land on ((1,), 0)
    ((0,), -1, SELF3),  # negative: would land on the last slot
    ((0,), 1, None),    # trivial coefficients: would land on (1,)
    ((3,), 0, None),    # a tuple outside the basis
], ids=["module-index-past-end", "module-index-negative", "trivial-index-1",
        "tuple-outside-basis"])
def test_basis_cochain_refuses_bad_indices(t, j, module):
    with pytest.raises(IndexOutOfRange):
        basis_cochain(R3, 1, QQ, t, j=j, module=module)


@pytest.mark.parametrize("y, xset", [(3, xset_self(R3)), (2, None)],
                         ids=["self-point-3", "trivial-point-2"])
def test_project_to_chain_refuses_bad_point(y, xset):
    W = WordAlgebra(R3)
    with pytest.raises(IndexOutOfRange):
        project_to_chain(W.eword((0,)), xset=xset, y=y)


def test_cochain_length_mismatch():
    f = Cochain(1, QQ, [1] * 5)  # wrong length for a size-3 rack
    with pytest.raises(CoefficientMismatch):
        cochain_differential(f, R3)


# the self-set of dihedral:4 is not a rack-set over dihedral:3 (it used to
# give a 36 x 12 coboundary there) nor over dihedral:5 (a bare IndexError)
FOREIGN = xset_self(R4)
FOREIGN_RACKS = (R3, dihedral_rack(5))


def test_boundary_builders_refuse_a_set_over_another_rack():
    for rack in FOREIGN_RACKS:
        with pytest.raises(CoefficientMismatch, match="different rack"):
            cochain_differential_matrix(rack, 1, module=FOREIGN)
        with pytest.raises(CoefficientMismatch, match="different rack"):
            boundary_matrix(rack, 2, xset=FOREIGN)


def test_basis_cochain_refuses_a_set_over_another_rack():
    for rack in FOREIGN_RACKS:
        with pytest.raises(CoefficientMismatch, match="different rack"):
            basis_cochain(rack, 1, ZZ, (0,), module=FOREIGN)


def test_project_to_chain_refuses_a_set_over_another_rack():
    for rack in FOREIGN_RACKS:
        W = WordAlgebra(rack)
        with pytest.raises(CoefficientMismatch, match="different rack"):
            project_to_chain(W.eword((0, 1)), xset=FOREIGN)


def test_cocycle_condition_in_degree_one():
    # a 1-cochain is a cocycle iff it is constant on orbits
    f = basis_cochain(R3, 1, QQ, (0,))
    df = cochain_differential(f, R3)
    assert any(df.values)
    const = Cochain(1, QQ, [1] * 3)
    assert not any(cochain_differential(const, R3).values)


def test_cochain_differential_squares_to_zero():
    for rack in (R3, cyclic_rack(3)):
        for p in (0, 1, 2):
            basis = tuple_basis(rack, p)
            for t in basis.tuples:
                f = basis_cochain(rack, p, QQ, t)
                ddf = cochain_differential(cochain_differential(f, rack), rack)
                assert not any(ddf.values)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(-4, 4), min_size=9, max_size=9))
def test_dstar_squared_zero_random(values):
    f = Cochain(2, QQ, values)
    ddf = cochain_differential(cochain_differential(f, R3), R3)
    assert not any(ddf.values)


def test_cochain_differential_matrix_agrees_with_function():
    for rack in (R3, R4):
        for p in (0, 1, 2):
            mat = cochain_differential_matrix(rack, p)
            assert all(type(v) is int for col in mat.cols for v in col.values())
            basis = tuple_basis(rack, p)
            for j, t in enumerate(basis.tuples):
                f = basis_cochain(rack, p, QQ, t)
                df = cochain_differential(f, rack)
                col = [0] * mat.nrows
                for i, v in mat.cols[j].items():
                    col[i] = v
                assert df.values == col


def test_cochain_differential_matrix_with_module():
    mod = xset_self(R3)
    mat = cochain_differential_matrix(R3, 1, module=mod)
    basis = tuple_basis(R3, 1)
    for j in range(mat.ncols):
        t, k = basis.tuples[j // mod.size], j % mod.size
        f = basis_cochain(R3, 1, QQ, t, j=k, module=mod)
        df = cochain_differential(f, R3)
        col = [0] * mat.nrows
        for i, v in mat.cols[j].items():
            col[i] = v
        assert df.values == col
    # module-valued d* still squares to zero
    m2 = cochain_differential_matrix(R3, 2, module=mod)
    assert m2.mul(mat).is_zero()


def test_cochain_differential_is_signed_precomposition_with_d():
    # independent second definition: d*f = (-1)^p f o d, through the word
    # engine; a group-like prefix acts on module values by the left action,
    # and f vanishes on degenerate e-words in the quandle variant.  Every
    # translation of a dihedral rack is an involution, so there left and
    # right actions agree; on cyclic:3 and conjugation:s3 they do not, so
    # those self-sets pin the orientation.
    cases = [(R3, p, quandle, None) for quandle in (False, True) for p in range(4)]
    cases += [(r, p, False, xset_self(r)) for r in (R3, R4, C3) for p in range(3)]
    cases += [(S3, p, False, xset_self(S3)) for p in range(2)]
    checks = 0
    for rack, p, quandle, module in cases:
        W = WordAlgebra(rack)
        mdim = module.size if module else 1
        src = tuple_basis(rack, p, quandle)
        tgt = tuple_basis(rack, p + 1, quandle)
        d_of = [W.d(W.eword(u)).terms for u in tgt.tuples]
        sign = -1 if p % 2 else 1
        for t in src.tuples:
            for j in range(mdim):
                f = basis_cochain(rack, p, ZZ, t, j=j, quandle=quandle, module=module)
                df = cochain_differential(f, rack).values
                for row, terms in enumerate(d_of):
                    expect = [0] * mdim
                    for (a, e), c in terms.items():
                        idx = src.index.get(e)
                        if idx is None:
                            continue
                        for i in range(mdim):
                            k = module.left_word(a, i) if module else i
                            expect[k] += sign * c * f.values[idx * mdim + i]
                    checks += 1
                    assert df[row * mdim : (row + 1) * mdim] == expect, (p, quandle, t, j, row)
    assert checks == 2841 + 819 + 4368 + 819 + 1332


def test_left_module_inverts_right_action():
    # a dihedral translation is an involution, so there left == right;
    # cyclic:3 and conjugation:s3 tell the two orientations apart
    for rack in (R4, C3, S3):
        xs = xset_self(rack)
        n = rack.size
        for x in range(n):
            for y in range(n):
                assert xs.right[x][y] == xs.act[y][x]
                assert xs.left[x][xs.act[y][x]] == y
                assert xs.left_word((x,), xs.act[y][x]) == y
        assert (xs.left != xs.right) == (rack is not R4)
    # a word acts by its last letter first
    xs = xset_self(C3)
    assert [xs.left_word((0, 1), y) for y in range(3)] == [1, 2, 0]
    assert xs.left_word((), 2) == 2


def test_module_tensor_dimensions():
    for rack in (R3, C3, S3):
        xs, one = xset_self(rack), xset_singleton(rack)
        n = rack.size
        t = xs.tensor(one)
        assert (t.size, t.act) == (n, xs.act)
        tt = xs.tensor(xs)
        assert tt.size == n * n and tt.over is rack
        for x in range(n):
            for i in range(n):
                for j in range(n):
                    assert tt.right[x][i * n + j] == xs.right[x][i] * n + xs.right[x][j]
                    assert tt.left[x][i * n + j] == xs.left[x][i] * n + xs.left[x][j]
        # the product of actions is an action, as validation would find
        assert validate_xset(rack, tt.act, tt.label) == tt
    with pytest.raises(CoefficientMismatch):
        xset_self(R3).tensor(xset_self(R4))


def test_quandle_boundary_well_defined():
    """The full boundary maps degenerate tuples to degenerate combinations,
    so the quotient map is well defined degree by degree."""
    for rack in (R3, builtin("conjugation:s3")):
        for n in (2, 3, 4):
            full = boundary_matrix(rack, n)
            src = tuple_basis(rack, n)
            tgt = tuple_basis(rack, n - 1)
            tgt_q = tuple_basis(rack, n - 1, quandle=True)
            for t in src.tuples:
                if any(a == b for a, b in zip(t, t[1:])):
                    col = full.cols[src.index[t]]
                    for row in col:
                        assert tgt.tuples[row] not in tgt_q.index
