"""Exact linear algebra, cross-checked against sympy as the independent
dense oracle (different codebase, different algorithms)."""

import hashlib
from fractions import Fraction
from math import gcd, lcm

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.matrices.normalforms import smith_normal_form as sympy_snf
from sympy.polys.matrices import DomainMatrix
import test_reports

from rackhom.complexes import boundary_matrix, cochain_differential_matrix
from rackhom.errors import NotAComplex, ShapeError
from rackhom.linalg import (
    ChainComplex,
    HomologyGroup,
    SparseMat,
    _check_divisibility_chain,
    _eliminate_pivots,
    _insert,
    _integer_row,
    _rref,
    direct_sum,
    exchange,
    homology,
    image_basis,
    in_span,
    independent,
    kernel_basis,
    rank,
    smith_normal_form,
    solve,
    solve_many,
)
from rackhom.racks import builtin, dihedral_rack, trivial_rack, validate_rack, xset_self
from rackhom.rings import GF, QQ, ZZ, ring_by_name

R3 = dihedral_rack(3)
R4 = dihedral_rack(4)


def fresh(mat):
    """A copy of ``mat`` for one more reduction: ``rank``, ``smith_normal_form``
    and ``ChainComplex`` take the matrices they reduce over."""
    return SparseMat(mat.nrows, mat.ncols, [dict(col) for col in mat.cols])


def fresh_all(mats):
    return {n: fresh(m) for n, m in mats.items()}


def rational(vecs, den):
    """Int vectors over ``den`` as Fractions (None kept), after checking that
    they hold ints and that ``den`` is positive."""
    assert type(den) is int and den > 0
    assert all(type(x) is int for v in vecs if v is not None for x in v)
    return [None if v is None else [Fraction(x, den) for x in v] for v in vecs]


def sympy_invariant_factors(dense):
    m = sympy.Matrix(dense)
    d = sympy_snf(m, domain=sympy.ZZ)
    out = [abs(d[i, i]) for i in range(min(d.rows, d.cols))]
    return tuple(v for v in out if v)


# --- field elimination -------------------------------------------------------


def test_rank_zero_and_identity():
    assert rank(SparseMat(3, 5), QQ) == 0
    assert len(kernel_basis(SparseMat(3, 5), QQ)[0]) == 5
    assert rank(SparseMat.identity(6), QQ) == 6
    assert kernel_basis(SparseMat.identity(6), QQ) == ([], 1)


def test_rank_of_boundary():
    # columns u_x - u_{x <| y} over one orbit span the zero-sum subspace,
    # over Q and over every F_p: the one integer matrix is read in each
    d2 = boundary_matrix(R3, 2)
    assert rank(fresh(d2), QQ) == rank(fresh(d2), GF(3)) == rank(d2, GF(5)) == 2


def test_field_ops_require_field():
    with pytest.raises(ShapeError):
        rank(SparseMat(2, 2), ZZ)


def test_kernel_annihilates():
    m = boundary_matrix(R4, 2)
    vecs, den = kernel_basis(m, QQ)
    for v in rational(vecs, den):
        out = [0] * m.nrows
        for j, c in enumerate(v):
            for i, w in m.cols[j].items():
                out[i] += w * c
        assert not any(out)
    assert len(vecs) == m.ncols - rank(m, QQ)


def test_image_basis_reduced():
    m = SparseMat.from_dense([[1, 2, 3], [2, 4, 6], [0, 1, 1]])
    img = rational(*image_basis(m, QQ))
    assert len(img) == rank(m, QQ) == 2
    # reduced echelon form: leading one with zeros above it in later rows
    assert img[0][:2] == [Fraction(1), Fraction(2)]


def test_solve_and_solve_many():
    m = SparseMat.from_dense([[1, 0], [1, 1]])
    x, den = solve(m, [2, 3], QQ)
    assert rational([x], den) == [[Fraction(2), Fraction(1)]]
    inconsistent = SparseMat.from_dense([[1, 0], [1, 0]])
    sols = rational(*solve_many(inconsistent, [[1, 1], [1, 2]], QQ))
    assert sols[0] == [Fraction(1), Fraction(0)]
    assert sols[1] is None


def test_solve_refuses_rhs_of_wrong_length():
    with pytest.raises(ShapeError, match="1 entries for 2 rows"):
        solve(SparseMat.identity(2), [1], QQ)
    with pytest.raises(ShapeError):
        solve_many(SparseMat.identity(2), [[1, 1], [1] * 3], QQ)


def test_matrices_store_integers_read_mod_p():
    """A matrix stores the ints it is given, whatever ring reads it, with
    the zeros they sum to deleted; a reduction over F_p reads them mod p
    and returns residues."""
    m = SparseMat.from_dense([[-1, 5, 7], [0, -10, -2]])
    assert m.cols == [{0: -1}, {0: 5, 1: -10}, {0: 7, 1: -2}]
    m.add_at(0, 0, 1)  # -1 + 1 = 0: the entry is deleted
    m.add_at(1, 1, 10)
    assert m.cols == [{}, {0: 5}, {0: 7, 1: -2}]
    assert m.scaled(-1).cols == [{}, {0: -5}, {0: -7, 1: 2}]
    square = SparseMat.from_dense([[1, 2], [3, 4]])
    assert square.mul(square).to_dense() == [[7, 10], [15, 22]]

    F5 = GF(5)
    rank_one = [[1, 2, 3], [2, 4, 1]]  # row 2 = 2 row 1 mod 5
    shifted = [[-4, 12, -2], [-3, 9, 6]]  # the same residues
    for dense in (rank_one, shifted):
        kernel, den = kernel_basis(SparseMat.from_dense(dense), F5)
        assert (kernel, den) == ([[3, 1, 0], [2, 0, 1]], 1)
        for v in kernel:
            assert all(type(c) is int and c in range(5) for c in v)
            assert all(sum(row[j] * v[j] for j in range(3)) % 5 == 0 for row in dense)


def test_in_span():
    vs = [[1, 0], [0, 1]]
    assert in_span(vs, [2, -7], QQ)
    assert not in_span([vs[0]], [0, 1], QQ)
    assert in_span([], [0, 0], QQ)
    assert not in_span([], [1, 0], QQ)


def test_in_span_of_sparse_dicts():
    assert in_span([{0: 1, 2: 3}], [2, 0, 6], QQ)
    assert not in_span([{0: 1}], {1: 1}, QQ)
    with pytest.raises(ShapeError):
        in_span([[1, 0]], [1, 0], ZZ)


def test_independent_keeps_order_and_respects_span():
    e = lambda *v: list(v)
    span = [e(1, 1, 0, 0)]
    candidates = [
        e(2, 2, 0, 0),   # in the span
        e(0, 0, 1, 0),   # kept
        e(1, 1, 3, 0),   # span + 3 * the kept one
        e(0, 0, 0, 0),   # zero
        e(0, 1, 0, 0),   # kept
        e(1, 0, 0, 0),   # e(1, 1, 0, 0) - e(0, 1, 0, 0)
        e(0, 0, 0, 5),   # kept
    ]
    kept = independent(span, candidates, QQ)
    assert kept == [candidates[1], candidates[4], candidates[6]]
    assert kept[0] is candidates[1]  # returned as given, not normalized
    # with nothing to span, the first of each dependent run is kept
    assert independent([], candidates, QQ) == [candidates[0], candidates[1], candidates[4],
                                               candidates[6]]


def test_independent_dense_and_dict_inputs_agree():
    F3 = GF(3)
    dense = [[1, 2, 0], [2, 1, 0], [0, 0, 1], [1, 2, 1]]
    sparse = [{i: v for i, v in enumerate(vec) if v} for vec in dense]
    span_dense, span_sparse = [[0, 0, 2]], [{2: 2}]
    for span in (span_dense, span_sparse):
        assert independent(span, dense, F3) == [dense[0]]
        assert independent(span, sparse, F3) == [sparse[0]]
    # the choice depends on the span alone, not on the vectors spanning it
    assert independent([[1, 2, 1], [0, 0, 1]], dense, F3) == []
    assert independent([[1, 2, 0], [1, 2, 2]], dense, F3) == []


def test_elimination_over_prime_field():
    F3 = GF(3)
    m = SparseMat.from_dense([[1, 2], [2, 1]])
    assert rank(fresh(m), F3) == 1  # second row = 2 * first mod 3
    assert len(kernel_basis(m, F3)[0]) == 1


def test_rref_with_non_integer_entries():
    # back-substitution leaves the integer rows [6 0 -1] and [0 3 1]; scaled
    # to lead with the lcm 6 of their leading entries, they are the reduced
    # rows over the denominator 6
    rows = [{0: 2, 1: 1}, {1: 3, 2: 1}]
    pivots, rred, den = _rref(rows, QQ)
    assert (pivots, rred, den) == ([0, 1], [{0: 6, 2: -1}, {1: 6, 2: 2}], 6)
    assert [{j: Fraction(v, den) for j, v in row.items()} for row in rred] == [
        {0: 1, 2: Fraction(-1, 6)}, {1: 1, 2: Fraction(1, 3)}]
    m = SparseMat.from_dense([[2, 1, 0], [0, 3, 1]])
    assert rational(*kernel_basis(m, QQ)) == [[Fraction(1, 6), Fraction(-1, 3), Fraction(1)]]
    x, den = solve(m, [1, 1], QQ)
    assert rational([x], den) == [[Fraction(1, 3), Fraction(1, 3), Fraction(0)]]
    # [1/2 1/3] as its integer multiple [3 2], which has the same kernel
    half = SparseMat.from_dense([[3, 2]])
    assert rational(*image_basis(half, QQ)) == [[Fraction(1)]]
    assert rational(*kernel_basis(half, QQ)) == [[Fraction(-2, 3), Fraction(1)]]


def test_matrices_refuse_non_int_entries():
    with pytest.raises(ShapeError, match="not an int"):
        SparseMat.from_dense([[Fraction(1, 2), Fraction(1, 3)]])
    m = SparseMat(1, 2)
    with pytest.raises(ShapeError, match="not an int"):
        m.add_at(0, 1, Fraction(1, 2))
    assert m.cols == [{}, {}]


def test_stored_rows_are_primitive_integer_rows():
    pivot_of = {}
    assert _integer_row([10, -12, 0], 0) == {0: 5, 1: -6}
    assert _insert(_integer_row([1, 1, 0], 0), pivot_of, 0)
    # [1 3 2] - [1 1 0] = [0 2 2] has content 2
    assert _insert(_integer_row([1, 3, 2], 0), pivot_of, 0)
    assert pivot_of == {0: {0: 1, 1: 1}, 1: {1: 1, 2: 1}}
    # 2 [3 0 1] - 3 [2 1 0] = [0 -3 2], stored with a positive leading entry
    pivot_of = {}
    for row in ([2, 1, 0], [3, 0, 1]):
        assert _insert(_integer_row(row, 0), pivot_of, 0)
    assert pivot_of[1] == {1: 3, 2: -2}
    assert not _insert(_integer_row([3, 3, -1], 0), pivot_of, 0)
    # over F_5 the rows are residues scaled to lead with 1
    pivot_of = {}
    assert _insert(_integer_row([2, 6], 5), pivot_of, 5)
    assert pivot_of == {0: {0: 1, 1: 3}}


FIELDS = [QQ, GF(2), GF(3), GF(5)]


def field_rows(data, ring, nr, nc):
    """Sparse random int rows over ``ring``: over F_p integers up to +-3p,
    negative ones and nonzero multiples of p among them, which the
    reductions read mod p; over Q rows of integers up to +-50 and fractions
    with denominators up to 9, each times the lcm of its denominators (the
    same span, in ints)."""
    if ring.char:
        drawn = st.integers(-3 * ring.char, 3 * ring.char)
    else:
        drawn = st.one_of(st.integers(-50, 50),
                          st.fractions(-50, 50, max_denominator=9))
    entry = st.sampled_from([0, 0, 1]).flatmap(lambda k: drawn if k else st.just(0))
    rows = []
    for _ in range(nr):
        row = [Fraction(data.draw(entry)) for _ in range(nc)]
        den = lcm(*(v.denominator for v in row))
        rows.append([int(v * den) for v in row])
    return rows


def sympy_rref(rows, ring, ncols):
    """``(pivots, nonzero RREF rows)`` by sympy's ``DomainMatrix.rref``,
    with the entries as Fractions over Q and residues over F_p."""
    if not rows:
        return (), []
    p = ring.char
    if p:
        rows = [[v % p for v in row] for row in rows]
    entries = [[sympy.Rational(v.numerator, v.denominator) for v in row] for row in rows]
    m = DomainMatrix.from_list_sympy(len(rows), ncols, entries)
    rref, pivots = m.convert_to(sympy.GF(p) if p else sympy.QQ).rref()
    back = (lambda x: int(x) % p) if p else (lambda x: Fraction(int(x.numerator),
                                                                   int(x.denominator)))
    return pivots, [[back(x) for x in row] for row in rref.to_list()[:len(pivots)]]


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(FIELDS), st.integers(1, 8), st.integers(1, 8), st.data())
def test_field_reductions_match_sympy_rref(ring, nr, nc, data):
    """Kernels, images, solves and span tests against sympy's RREF; over F_p
    the matrix, right-hand sides and vectors hold unreduced ints."""
    dense = field_rows(data, ring, nr, nc)
    m = SparseMat.from_dense(dense)
    pivots, rref = sympy_rref(dense, ring, nc)
    kernel = []
    for f in range(nc):
        if f not in pivots:
            v = [0] * nc
            v[f] = 1
            for k, row in zip(pivots, rref):
                v[k] = -row[f] % ring.char if ring.char else -row[f]
            kernel.append(v)
    vecs, den = kernel_basis(m, ring)
    assert rational(vecs, den) == kernel
    columns = [list(col) for col in zip(*dense)]
    image, image_den = image_basis(m, ring)
    assert rational(image, image_den) == sympy_rref(columns, ring, nr)[1]
    if ring.char:
        assert den == image_den == 1

    # right-hand sides: random ones (mostly inconsistent) and images m . x
    rhs = field_rows(data, ring, data.draw(st.integers(1, 3)), nr)
    for x in field_rows(data, ring, data.draw(st.integers(0, 2)), nc):
        rhs.append([sum(a * b for a, b in zip(row, x)) for row in dense])
    expected = []
    for b in rhs:
        pivots_b, rref_b = sympy_rref([row + [v] for row, v in zip(dense, b)], ring, nc + 1)
        if nc in pivots_b:
            expected.append(None)
            continue
        x = [0] * nc
        for k, row in zip(pivots_b, rref_b):
            x[k] = row[nc]
        expected.append(x)
    solutions, den = solve_many(m, rhs, ring)
    assert rational(solutions, den) == expected

    # candidates: random rows, one sum of two of them and one sum of span rows
    span = dense[:data.draw(st.integers(0, nr))]
    candidates = field_rows(data, ring, data.draw(st.integers(1, 6)), nc)
    candidates.append([a + b for a, b in zip(candidates[0], candidates[-1])])
    if span:
        candidates.append([a + b for a, b in zip(span[0], span[-1])])
    kept = [c for i, c in enumerate(candidates)
            if len(sympy_rref(span + candidates[:i + 1], ring, nc)[0])
            > len(sympy_rref(span + candidates[:i], ring, nc)[0])]
    assert independent(span, candidates, ring) == kept
    sparse_span = [{j: v for j, v in enumerate(row) if v} for row in span]
    assert independent(sparse_span, candidates, ring) == kept


# --- Smith normal form --------------------------------------------------------


def test_snf_diag_example():
    assert smith_normal_form(SparseMat.from_dense([[2, 0], [0, 3]])) == (1, 6)


def test_direct_sum_puts_block_torsion_into_chain_order():
    # Z/2 in one block and Z/3 in another are Z/6 of the whole matrix
    assert direct_sum([(1, (2,)), (1, (3,))]) == (2, (6,))
    assert direct_sum([(3, (2, 4)), (0, ()), (2, (6,))]) == (5, (2, 2, 12))
    assert direct_sum([]) == (0, ())


@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(st.lists(st.integers(-6, 6), min_size=2, max_size=2),
                         min_size=1, max_size=3), min_size=1, max_size=3))
def test_direct_sum_matches_the_block_diagonal_matrix(blocks):
    whole = SparseMat(sum(len(b) for b in blocks), 2 * len(blocks))
    row = 0
    for k, block in enumerate(blocks):
        for i, entries in enumerate(block):
            for j, v in enumerate(entries):
                whole.add_at(row + i, 2 * k + j, v)
        row += len(block)
    parts = [smith_normal_form(SparseMat.from_dense(b)) for b in blocks]
    factors = smith_normal_form(whole)
    assert direct_sum([(len(f), tuple(d for d in f if d > 1)) for f in parts]) == \
        (len(factors), tuple(d for d in factors if d > 1))


@pytest.mark.parametrize("reduce", [
    lambda m: rank(m, QQ), lambda m: rank(m, GF(3)), smith_normal_form,
    lambda m: smith_normal_form(m, drop=frozenset({0, 1})),
], ids=["rank-Q", "rank-F3", "smith", "smith-drop"])
def test_a_reduction_takes_its_matrix_over(reduce):
    # the elimination runs on the matrix's own columns: afterwards the
    # matrix keeps its shape, and reading its entries raises rather than
    # reading as a zero matrix (which would pass a d o d check vacuously)
    m = boundary_matrix(R4, 3)
    reduce(m)
    assert (m.nrows, m.ncols, m.cols) == (16, 64, None)
    with pytest.raises(TypeError):
        SparseMat(1, 16).mul_is_zero(m)
    with pytest.raises(TypeError):
        m.mul_is_zero(SparseMat.identity(64))
    with pytest.raises(TypeError):
        m.to_dense()


# the ids that smith_normal_form (over Z) and rank (over F_5) append to
# ``pivots`` for d_2..d_5, as (count, sha256 of their repr), in the order
# the +-1 pass takes them
PINNED_PIVOTS = {
    ("dihedral:4", False, "Z"): {
        2: (2, "2532a3f9cc1e9e7131fdc59e95650402be9b39c32c4aa96103727ab6d1c5db08"),
        3: (8, "7a2ffcd736681447e152a27c0719473b3c88fa29fc84faa455a7f41296073e31"),
        4: (40, "d4a7a350a64a323da52f1ce7da0bb170734a8b22a84134b956a19fcc9a8f71bd"),
        5: (172, "5f727533d5f2c36e98e28da808cb1a75cdf214236860cc654a0da303ca481579"),
    },
    ("dihedral:5", True, "Fp:5"): {
        2: (4, "02b6deebe10f247a39a1f40c6e045af149df9c96491adce129613e8b30480780"),
        3: (16, "c8da252f7973f8fd2f4b2d716665a14f942e3ae3bf2f8b2044c84e773562f0b2"),
        4: (63, "6fbbcf4480badec58df4971d38a2d6859da21393c9852f7a2800a3a17c051708"),
        5: (255, "0ca07ba4a019251eca11d8c1d7a38db3ffe6edd974e05d9b3f13f517d0e89179"),
    },
}


@pytest.mark.parametrize("spec, quandle, ring", sorted(PINNED_PIVOTS))
def test_the_elimination_choices_are_pinned(spec, quandle, ring):
    """The Markowitz tie-breaks read each column's key order, so filtering a
    column in place must keep every key where it is, or these pins move.  A
    change of tie-break rewrites them on purpose."""
    rack = builtin(spec)
    cx = ChainComplex({n: boundary_matrix(rack, n, quandle=quandle) for n in range(1, 6)},
                      ring_by_name(ring))
    for n, pin in PINNED_PIVOTS[spec, quandle, ring].items():
        pivots = cx._reduce(n)[2]
        assert (len(pivots), hashlib.sha256(repr(pivots).encode()).hexdigest()) == pin, n


def test_snf_zero_matrix():
    assert smith_normal_form(SparseMat(4, 2)) == ()


def test_snf_and_rational_rank_of_a_large_residual():
    # 2*I has no unit pivot, so Euclid's algorithm reduces the whole
    # 2001x2001 matrix, over Z and over Q alike
    twice = SparseMat.identity(2001).scaled(2)
    assert smith_normal_form(fresh(twice)) == (2,) * 2001
    assert rank(twice, QQ) == 2001


def test_divisibility_chain_check_raises():
    _check_divisibility_chain((1, 2, 6, 12))
    with pytest.raises(ArithmeticError):
        _check_divisibility_chain((1, 2, 3))


def test_snf_divisibility_chain_and_oracle_fixed_cases():
    cases = [
        [[2, 4, 4], [-6, 6, 12], [10, 4, 16]],
        [[1, 2], [3, 4]],
        [[6]],
        [[0, 0], [0, 0]],
        [[2, 0], [0, 2], [2, 2]],
    ]
    for dense in cases:
        ours = smith_normal_form(SparseMat.from_dense(dense))
        assert ours == sympy_invariant_factors(dense)
        for a, b in zip(ours, ours[1:]):
            assert b % a == 0


@settings(max_examples=120, deadline=None)
@given(
    st.integers(1, 4),
    st.integers(1, 4),
    st.data(),
)
def test_snf_matches_sympy_oracle(nr, nc, data):
    dense = [
        [data.draw(st.integers(-9, 9)) for _ in range(nc)] for _ in range(nr)
    ]
    ours = smith_normal_form(SparseMat.from_dense(dense))
    assert ours == sympy_invariant_factors(dense)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 5), st.integers(1, 5), st.data())
def test_euclid_gives_the_same_factors_on_rows_and_on_columns(nr, nc, data):
    # the residual after the +-1 pass goes to Euclid's algorithm as rows when
    # they are fewer: both orientations must give the same invariant factors
    dense = [[data.draw(st.sampled_from([0, 0, 2, -2, 3, -4, 6, 9])) for _ in range(nc)]
             for _ in range(nr)]
    cols = {j: c for j in range(nc) if (c := {i: r[j] for i, r in enumerate(dense) if r[j]})}
    rows = {i: c for i, r in enumerate(dense) if (c := {j: v for j, v in enumerate(r) if v})}
    by_cols, by_rows = (exchange([abs(v) for v in _eliminate_pivots(vecs, 0).values()])
                        for vecs in (cols, rows))
    assert by_cols == by_rows
    assert tuple(by_cols) == sympy_invariant_factors(dense)


def sparse_dense(data, nr, nc):
    """Mostly 0 and +-1, a few +-2/+-3: both the unit-pivot and the
    residual phases of the reductions run."""
    entry = st.sampled_from([0] * 8 + [1, -1] * 3 + [2, -2, 3, -3])
    return [[data.draw(entry) for _ in range(nc)] for _ in range(nr)]


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 8), st.integers(1, 8), st.data())
def test_sparse_snf_matches_sympy_oracle(nr, nc, data):
    dense = sparse_dense(data, nr, nc)
    ours = smith_normal_form(SparseMat.from_dense(dense))
    assert ours == sympy_invariant_factors(dense)


@pytest.mark.parametrize("dense,factors", [
    ([[4, 0], [0, 6]], (2, 12)),
    ([[2, 0, 0], [0, 3, 0], [0, 0, 5]], (1, 1, 30)),
    ([[2, 3]], (1,)),
    ([[6, 10, 15]], (1,)),
])
def test_snf_residual_fixed_cases(dense, factors):
    # no +-1 entry, so the residual pass reduces the whole matrix: the
    # diagonal cases reach chain order only through the gcd/lcm exchange,
    # the one-row cases their single factor only through the modulo step
    assert sympy_invariant_factors(dense) == factors
    assert smith_normal_form(SparseMat.from_dense(dense)) == factors


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 8), st.integers(1, 8), st.data())
def test_residual_snf_matches_sympy_oracle(nr, nc, data):
    entry = st.sampled_from([0, 2, -2, 3, -3, 4, -4, 6, -6, 9, -9])
    dense = [[data.draw(entry) for _ in range(nc)] for _ in range(nr)]
    ours = smith_normal_form(SparseMat.from_dense(dense))
    assert ours == sympy_invariant_factors(dense)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 8), st.integers(1, 8), st.sampled_from([0, 2, 3, 5]), st.data())
def test_sparse_rank_matches_sympy_oracle(nr, nc, p, data):
    dense = sparse_dense(data, nr, nc)
    if p:
        # the same residues shifted by multiples of p: negative entries, and
        # nonzero ones that are zero mod p; sympy reads the residues
        shifted = [[v + p * data.draw(st.sampled_from([0, 0, -1, 1, 2])) for v in row]
                   for row in dense]
        residues = [[v % p for v in row] for row in shifted]
        expected = DomainMatrix.from_list_sympy(nr, nc, residues).convert_to(sympy.GF(p)).rank()
        assert rank(SparseMat.from_dense(shifted), GF(p)) == expected
    expected = DomainMatrix.from_list_sympy(nr, nc, dense).convert_to(
        sympy.GF(p) if p else sympy.QQ).rank()
    assert rank(SparseMat.from_dense(dense), GF(p) if p else QQ) == expected


def test_rational_rank_without_unit_clears_nothing():
    # no +-1 entry: Euclid's algorithm finds the rank, and its pivot is no
    # clearing pivot
    pivots: list = []
    assert rank(SparseMat.from_dense([[4, 6]]), QQ, pivots=pivots) == 1
    assert pivots == []


def test_rational_rank_with_no_unit_entry():
    dense = [[Fraction(2, 3), 4, 0], [6, Fraction(-9, 2), 10], [0, 8, Fraction(4, 5)]]
    expected = DomainMatrix.from_list_sympy(3, 3, dense).convert_to(sympy.QQ).rank()
    # the rows times 3, 2 and 5: integer multiples, with the same rank
    scaled = [[2, 12, 0], [12, -9, 20], [0, 40, 4]]
    assert rank(SparseMat.from_dense(scaled), QQ) == expected == 3


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 4), st.data())
def test_rational_rank_counts_invariant_factors(n, data):
    dense = [[data.draw(st.integers(-6, 6)) for _ in range(n)] for _ in range(n)]
    m = SparseMat.from_dense(dense)
    assert len(smith_normal_form(fresh(m))) == rank(m, QQ)


# --- homology assembly -----------------------------------------------------------


def test_homology_checks_composition():
    a = SparseMat.identity(2)
    with pytest.raises(NotAComplex):
        homology(a, a, ZZ)


def test_chain_complex_matches_pairwise_homology():
    # cohomology is read from the boundary reductions; the pairwise oracle
    # reduces the explicit coboundary matrices instead
    for quandle in (False, True):
        mats = {n: boundary_matrix(R3, n, quandle=quandle) for n in range(1, 6)}
        dmats = {p: cochain_differential_matrix(R3, p, quandle=quandle) for p in range(5)}
        for ring in (ZZ, QQ, GF(3)):
            cx = ChainComplex(fresh_all(mats), ring)
            for n in (1, 2, 3, 4):
                assert cx.homology(n) == homology(fresh(mats[n + 1]), fresh(mats[n]), ring, n)
                assert cx.cohomology(n) == homology(fresh(dmats[n - 1]), fresh(dmats[n]), ring, n)


@pytest.mark.parametrize("ring", [ZZ, QQ, GF(2)], ids=lambda ring: ring.name)
def test_a_read_chain_complex_holds_no_matrix(ring):
    # every degree read: each differential was taken over by its reduction
    # and released by the complex, which keeps only the dimensions
    mats = {n: boundary_matrix(R4, n) for n in range(1, 5)}
    cx = ChainComplex(mats, ring)
    for n in (1, 2, 3):
        cx.homology(n), cx.cohomology(n)
    assert not cx.differentials
    assert [(m.nrows, m.ncols, m.cols) for m in mats.values()] == [
        (4 ** (n - 1), 4 ** n, None) for n in mats]
    assert [cx._chains(n) for n in mats] == [4, 16, 64, 256]


def test_chain_complex_rejects_non_complex():
    d2 = SparseMat.from_dense([[1], [1]])
    d1 = SparseMat.from_dense([[1, 0]])
    with pytest.raises(NotAComplex):
        ChainComplex({1: d1, 2: d2}, ZZ)
    with pytest.raises(ShapeError):
        ChainComplex({1: d1, 2: SparseMat.identity(3)}, ZZ)
    # the first column composes to 1 - 1 = 0; only the last is nonzero
    d1 = SparseMat.from_dense([[1, -1, 0]])
    d2 = SparseMat.from_dense([[1, 0, 1], [1, 0, 0], [0, 1, 0]])
    with pytest.raises(NotAComplex):
        ChainComplex({1: d1, 2: d2}, GF(3))
    d2.cols[-1] = {}
    ChainComplex({1: d1, 2: d2}, GF(3))
    # d o d is checked over Z, in every ring: a product that is zero only
    # mod 3 is no complex of integer matrices
    with pytest.raises(NotAComplex):
        ChainComplex({1: SparseMat.from_dense([[1, 2]]), 2: SparseMat.from_dense([[1], [1]])},
                     GF(3))


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 4), st.integers(1, 4), st.integers(1, 4), st.data())
def test_mul_is_zero_matches_the_product(rows, inner, cols, data):
    def dense(r, c):
        return [[data.draw(st.integers(-2, 2)) for _ in range(c)] for _ in range(r)]

    a = SparseMat.from_dense(dense(rows, inner))
    b = SparseMat.from_dense(dense(inner, cols))
    assert a.mul_is_zero(b) == a.mul(b).is_zero()


def test_rational_matrices_give_the_integral_groups():
    # one integer matrix per degree: read over Z it gives the integral
    # groups, and read over Q their betti numbers
    for rack in (R3, dihedral_rack(4)):
        mats = {n: boundary_matrix(rack, n) for n in (1, 2, 3, 4)}
        groups = {ring: ChainComplex(fresh_all(mats), ring) for ring in (ZZ, QQ)}
        for n in (1, 2, 3):
            for kind in ("homology", "cohomology"):
                integral = getattr(groups[ZZ], kind)(n)
                assert getattr(groups[QQ], kind)(n) == HomologyGroup(n, integral.betti)
    assert [groups[ZZ].homology(n).describe() for n in (1, 2, 3)] == [
        "Z^2", "Z^4 + (Z/2)^2", "Z^8 + (Z/2)^6"]


def test_clearing_over_z_takes_only_unit_pivots():
    # d_1 = [4 6] has no +-1 entry, so it clears no row of d_2; leaving
    # out the row of d_2 at the Euclid pivot of d_1 would give Z/3 or Z/2
    cx = ChainComplex({1: SparseMat.from_dense([[4, 6]]),
                       2: SparseMat.from_dense([[3], [-2]])}, ZZ)
    assert cx.homology(1).describe() == "0"
    assert cx.cohomology(1).describe() == "Z/2"


def test_rational_complex_with_fractional_entries():
    # d_1 = [1/2 1/3] as its integer multiple [3 2], whose entries have no
    # unit: Euclid's algorithm, not the +-1 pass, finds its rank
    dense = {1: [[3, 2]], 2: [[2], [-3]]}
    cx = ChainComplex({n: SparseMat.from_dense(rows) for n, rows in dense.items()}, QQ)
    for n, rows in dense.items():
        d = SparseMat.from_dense(rows)
        expected = DomainMatrix.from_list_sympy(d.nrows, d.ncols, rows).rank()
        assert cx._reduce(n)[0] == expected == 1
        assert d.ncols - len(kernel_basis(d, QQ)[0]) == expected
    assert cx.homology(1).betti == 0


def sympy_sparse_rank(mat):
    """Rank over Q by sympy's sparse ``DomainMatrix``."""
    rows: dict = {}
    for j, col in enumerate(mat.cols):
        for i, v in col.items():
            rows.setdefault(i, {})[j] = sympy.QQ(v)
    return DomainMatrix(rows, (mat.nrows, mat.ncols), sympy.QQ).rank()


def alexander_quandle(n, a):
    return validate_rack([[(a * x + (1 - a) * y) % n for y in range(n)] for x in range(n)],
                         label=f"alexander:{n}:{a}")


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 6), st.data(), st.booleans(), st.booleans(),
       st.sampled_from([ZZ, QQ, GF(2), GF(3), GF(5)]))
def test_cleared_reductions_match_standalone(n, data, quandle, self_coefficients, ring):
    """Each cleared reduction of a ChainComplex against rank / Smith form
    of the whole differential, on random Alexander quandles."""
    a = data.draw(st.sampled_from([a for a in range(1, n) if gcd(a, n) == 1]))
    rack = alexander_quandle(n, a)
    xs = xset_self(rack) if self_coefficients else None
    dim = n if self_coefficients else 1
    top = max(d for d in (2, 3, 4) if n ** d * dim <= 1500)
    mats = {k: boundary_matrix(rack, k, quandle=quandle, xset=xs) for k in range(1, top + 1)}
    cx = ChainComplex(fresh_all(mats), ring)
    for k, d in mats.items():
        if ring is QQ:
            # not rank(d, QQ), which runs the same integer elimination
            expected = (sympy_sparse_rank(d), ())
        elif ring.is_field:
            expected = (rank(d, ring), ())
        else:
            factors = smith_normal_form(d)
            expected = (len(factors), tuple(f for f in factors if f > 1))
        assert cx._reduce(k)[:2] == expected


def test_dihedral5_quandle_degree5_across_backends():
    """Z report pinned, less its version; Q betti numbers equal the Z ones,
    and F_5 dimensions follow by the universal coefficient theorem."""
    def results(ring):
        return test_reports.report_of(
            f"homology --builtin dihedral:5 --ring {ring} --max-degree 5 --quandle")

    report = results("Z")
    assert test_reports.digest(report) == (
        "c47a391051ad5e174d31d93f5e56eae685023b6c560264f00678b85d641c4e22")
    integral = report["results"]
    assert [h["betti"] for h in results("Q")["results"]] == [h["betti"] for h in integral]
    fives = [0] + [sum(1 for d in h["torsion"] if d % 5 == 0) for h in integral]  # H_0 is free
    assert [h["betti"] for h in results("Fp:5")["results"]] == [
        h["betti"] + fives[n] + fives[n - 1] for n, h in enumerate(integral, 1)]


def test_single_point_trivial_rack():
    rack = trivial_rack(1)
    for n in (1, 2, 3, 4):
        h = homology(
            boundary_matrix(rack, n + 1), boundary_matrix(rack, n), ZZ, n
        )
        assert (h.betti, h.torsion) == (1, ())


def test_r3_betti_and_quandle_torsion():
    for n in (1, 2, 3):
        h = homology(
            boundary_matrix(R3, n + 1), boundary_matrix(R3, n), QQ, n
        )
        assert h.betti == 1
    h3 = homology(
        boundary_matrix(R3, 4, quandle=True), boundary_matrix(R3, 3, quandle=True), ZZ, 3
    )
    assert (h3.betti, h3.torsion) == (0, (3,))
    assert h3.describe() == "Z/3"


def test_homology_against_sympy_oracle():
    """Full integral homology of the three-element dihedral quandle complex,
    recomputed with sympy rank and Smith form."""
    for quandle in (False, True):
        mats = {n: boundary_matrix(R3, n, quandle=quandle) for n in range(1, 5)}
        for n in (1, 2, 3):
            ours = homology(fresh(mats[n + 1]), fresh(mats[n]), ZZ, n)
            m_out = sympy.Matrix(mats[n].to_dense())
            m_in = sympy.Matrix(mats[n + 1].to_dense())
            betti = mats[n].ncols - m_out.rank() - m_in.rank()
            torsion = tuple(v for v in sympy_invariant_factors(mats[n + 1].to_dense()) if v > 1)
            assert (ours.betti, ours.torsion) == (betti, torsion)


def test_sign_shifted_complex_same_homology():
    """Scaling each chain group by (-1)^n intertwines the two exposed sign
    conventions; homology must not change."""
    for n in (1, 2, 3):
        plain_in = boundary_matrix(R3, n + 1)
        plain_out = boundary_matrix(R3, n)
        flipped_in = plain_in.scaled(-1)
        flipped_out = plain_out.scaled(-1)
        for ring in (ZZ, QQ, GF(3)):
            a = homology(fresh(plain_in), fresh(plain_out), ring, n)
            b = homology(fresh(flipped_in), fresh(flipped_out), ring, n)
            assert (a.betti, a.torsion) == (b.betti, b.torsion)


def test_universal_coefficients_consistency():
    """dim_{F_p} H^n = betti_n + #{torsion factors divisible by p in degrees
    n and n-1}, on the quandle cohomology of the three-element dihedral
    quandle at p = 3."""
    p = 3
    Fp = GF(p)
    integral = {}
    mats = {n: boundary_matrix(R3, n, quandle=True) for n in range(1, 6)}
    for n in (1, 2, 3, 4):
        integral[n] = homology(fresh(mats[n + 1]), fresh(mats[n]), ZZ, n)
    integral[0] = HomologyGroup(0, 1, ())  # C_0 = Z, zero boundaries
    dmats = {n: cochain_differential_matrix(R3, n, quandle=True) for n in range(5)}
    for n in (1, 2, 3, 4):
        hn = homology(fresh(dmats[n - 1]), fresh(dmats[n]), Fp, n)
        t_n = sum(1 for d in integral[n].torsion if d % p == 0)
        t_prev = sum(1 for d in integral[n - 1].torsion if d % p == 0)
        assert hn.betti == integral[n].betti + t_n + t_prev


def test_matrix_shape_guards():
    m = SparseMat(2, 2)
    with pytest.raises(ShapeError):
        m.add_at(5, 0, 1)
    with pytest.raises(ShapeError):
        m.mul(SparseMat(3, 3))
