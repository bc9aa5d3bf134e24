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
    coproduct_terms,
    face,
    face_set,
    module_from_xset,
    project_to_chain,
    trivial_module,
    tuple_basis,
)
from rackhom.errors import (
    DimensionOverflow,
    IndexOutOfRange,
    MixedDegrees,
    NotAQuandle,
)
from rackhom.racks import (
    builtin,
    cyclic_rack,
    dihedral_rack,
    trivial_rack,
    validate_rack,
    xset_self,
    xset_singleton,
)
from rackhom.rings import GF, QQ, ZZ
from rackhom.words import WordAlgebra

R3 = dihedral_rack(3)
R4 = dihedral_rack(4)


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


def test_quandle_basis_cap_counts_the_real_basis():
    # 5 * 4^7 = 81,920 non-degenerate tuples, although 5^8 > 200,000
    r5 = dihedral_rack(5)
    assert len(tuple_basis(r5, 8, quandle=True)) == 81_920
    with pytest.raises(DimensionOverflow):
        tuple_basis(r5, 8, quandle=True, max_basis=81_919)


def test_face_examples():
    # conjugating face: delta_2^1(x,y,z) = (x <| y, z) with prefix y
    for x, y, z in itertools.product(range(3), repeat=3):
        assert face((x, y, z), 2, 1, R3) == (y, (R3.op(x, y), z))
    # leftmost conjugating face has an empty conjugated segment
    assert face((0, 1), 1, 1, R3) == (0, (1,))
    with pytest.raises(IndexOutOfRange):
        face((0, 1), 3, 0, R3)


def test_face_exchange_instance():
    # delta_1^0 delta_3^1 = delta_2^1 delta_1^0 on triples, both (y <| z)
    for t in itertools.product(range(3), repeat=3):
        _, a = face(t, 3, 1, R3)
        _, a = face(a, 1, 0, R3)
        _, b = face(t, 1, 0, R3)
        _, b = face(b, 2, 1, R3)
        assert a == b == (R3.op(t[1], t[2]),)


def test_face_set_collects_prefixes_largest_first():
    prefix, rest = face_set((0, 1, 2), {1, 2}, 1, R3)
    # apply index 2 first (prefix 1), then index 1 on the shortened tuple
    x1, t1 = face((0, 1, 2), 2, 1, R3)
    x2, t2 = face(t1, 1, 1, R3)
    assert prefix == (x1, x2) and rest == t2


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
    # from the definition: delete A on the left; on the right delete the
    # complement largest index first, conjugating every earlier entry
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


@settings(max_examples=80, deadline=None)
@given(small_racks(), st.data())
def test_coproduct_terms_match_definition(rack, data):
    t = tuple(data.draw(st.lists(st.integers(0, rack.size - 1), max_size=5)))
    q = data.draw(st.integers(0, len(t)))
    assert list(coproduct_terms(t, q, rack)) == _coproduct_terms_oracle(t, q, rack)


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
        mat = boundary_matrix(rack, n, ZZ, quandle, xs)
        h.update(repr((mat.nrows, mat.ncols, [sorted(c.items()) for c in mat.cols])).encode())
    assert h.hexdigest()[:16] == BOUNDARY_DIGESTS[spec, coefficients, quandle]


def _boundary_oracle(rack, n, ring, quandle, xs):
    # each face taken separately with ``face`` and looked up as a tuple,
    # entries summed in face order: the columns with their key order
    src, tgt = tuple_basis(rack, n, quandle), tuple_basis(rack, n - 1, quandle)
    dim = xs.size if xs else 1
    cols = []
    for t in src.tuples:
        for y in range(dim):
            col = {}
            for i in range(1, n + 1):
                sign = -1 if i % 2 else 1
                _, plain = face(t, i, 0, rack)
                x, conjugated = face(t, i, 1, rack)
                moved = xs.act[y][x] if xs else y
                for r, point, entry in ((tgt.index.get(plain), y, sign),
                                        (tgt.index.get(conjugated), moved, -sign)):
                    if r is not None:
                        r = r * dim + point
                        col[r] = col.get(r, 0) + entry
            p = ring.char
            cols.append([(r, u) for r, v in col.items() if (u := v % p if p else v)])
    return len(tgt) * dim, len(src) * dim, cols


@settings(max_examples=60, deadline=None)
@given(small_racks(), st.integers(1, 4), st.sampled_from([ZZ, QQ, GF(2)]), st.booleans(),
       st.booleans())
def test_boundary_columns_match_faces_taken_one_by_one(rack, n, ring, quandle, self_coefficients):
    quandle = quandle and rack.is_quandle()
    xs = xset_self(rack) if self_coefficients else None
    mat = boundary_matrix(rack, n, ring, quandle, xs)
    assert (mat.nrows, mat.ncols, [list(c.items()) for c in mat.cols]) == \
        _boundary_oracle(rack, n, ring, quandle, xs)
    # plain ints in every ring, Q included (no Fractions)
    assert all(type(v) is int for col in mat.cols for v in col.values())


def test_boundary_memory_follows_the_basis():
    # 3 * 2^9 = 1536 source tuples out of 3^10 = 59049: the bases alone peak
    # at about 1.4 MB, and a table over every head of a position would grow
    # with 3^10 instead of with the basis
    tracemalloc.start()
    try:
        boundary_matrix(builtin("dihedral:3"), 10, GF(3), quandle=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_500_000


def test_rack_boundary_builds_only_its_source_basis(monkeypatch):
    # the rack variant's rows are the codes themselves; only the quandle
    # variant reads the target basis (the row of each non-degenerate code)
    calls = []
    basis = complexes.tuple_basis
    monkeypatch.setattr(complexes, "tuple_basis", lambda *a: calls.append(a[1]) or basis(*a))
    mat = boundary_matrix(R3, 3, ZZ)
    assert calls == [3]
    assert (mat.nrows, mat.ncols) == (9, 27)
    boundary_matrix(R3, 3, ZZ, quandle=True)
    assert calls == [3, 3, 2]


def test_boundary_matrix_example():
    # bd(x, y) = (x) - (x <| y); over the three-element dihedral, bd(0,1) = (0) - (2)
    m = boundary_matrix(R3, 2, ZZ)
    b2 = tuple_basis(R3, 2)
    assert m.cols[b2.index[(0, 1)]] == {0: 1, 2: -1}
    assert m.cols[b2.index[(0, 0)]] == {}  # 0 <| 0 = 0 cancels


def test_boundary_trivial_rack_zero():
    for n in (1, 2, 3, 4):
        assert boundary_matrix(trivial_rack(3), n, ZZ).is_zero()


def test_boundary_degree_one_zero():
    assert boundary_matrix(R3, 1, ZZ).is_zero()
    assert boundary_matrix(cyclic_rack(4), 1, ZZ).is_zero()


def test_boundary_squares_to_zero_all_variants():
    for rack in (R3, R4, cyclic_rack(3), builtin("conjugation:s3")):
        variants = [False, True] if rack.is_quandle() else [False]
        top = 4 if rack.size <= 4 else 3
        for quandle in variants:
            for xs in (None, xset_self(rack), xset_singleton(rack)):
                mats = {
                    n: boundary_matrix(rack, n, ZZ, quandle, xs)
                    for n in range(1, top + 1)
                }
                for n in range(2, top + 1):
                    assert mats[n - 1].mul(mats[n]).is_zero()


def test_singleton_coefficients_reproduce_trivial():
    for rack in (R3, R4):
        for n in (1, 2, 3):
            assert (
                boundary_matrix(rack, n, ZZ, xset=xset_singleton(rack)).cols
                == boundary_matrix(rack, n, ZZ).cols
            )


def test_projection_sign_against_engine():
    """project(d(e_T)) is exactly minus the boundary column of T."""
    W = WordAlgebra(R3)
    for n in (1, 2, 3):
        bd = boundary_matrix(R3, n, ZZ)
        basis = tuple_basis(R3, n)
        for T in basis.tuples:
            ch = project_to_chain(W.d(W.eword(T)), ZZ, degree=n - 1)
            dense = [0] * bd.nrows
            for i, v in bd.cols[basis.index[T]].items():
                dense[i] = -v
            assert ch.values == dense


def test_projection_with_module_coefficients():
    """With a rack-set the prefix moves the point by the right action, and
    the identity project(d) = -boundary holds in the (tuple, point) basis."""
    xs = xset_self(R3)
    W = WordAlgebra(R3)
    for n in (1, 2, 3):
        bd = boundary_matrix(R3, n, ZZ, xset=xs)
        basis = tuple_basis(R3, n)
        for T in basis.tuples:
            for y in range(xs.size):
                ch = project_to_chain(W.d(W.eword(T)), ZZ, xset=xs, y=y, degree=n - 1)
                dense = [0] * bd.nrows
                for i, v in bd.cols[basis.index[T] * xs.size + y].items():
                    dense[i] = -v
                assert ch.values == dense


def test_project_examples():
    W = WordAlgebra(R3)
    ch = project_to_chain(W.eword((0, 1)), ZZ)
    b2 = tuple_basis(R3, 2)
    assert ch.values[b2.index[(0, 1)]] == 1 and sum(map(abs, ch.values)) == 1
    # a group-like prefix acts trivially on trivial coefficients
    u = W.element({((2,), (0, 1)): 1})
    assert project_to_chain(u, ZZ).values == ch.values
    with pytest.raises(MixedDegrees):
        project_to_chain(W.eword((0,)) + W.eword((0, 1)), ZZ)


SELF3 = module_from_xset(xset_self(R3))


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
        project_to_chain(W.eword((0,)), ZZ, xset=xset, y=y)


def test_cochain_length_mismatch():
    from rackhom.errors import CoefficientMismatch

    f = Cochain(1, QQ, [1] * 5)  # wrong length for a size-3 rack
    with pytest.raises(CoefficientMismatch):
        cochain_differential(f, R3)


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
            mat = cochain_differential_matrix(rack, p, QQ)
            assert mat.cols == cochain_differential_matrix(rack, p, ZZ).cols
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
    xs = xset_self(R3)
    mod = module_from_xset(xs)
    mat = cochain_differential_matrix(R3, 1, QQ, module=mod)
    basis = tuple_basis(R3, 1)
    for j in range(mat.ncols):
        t, k = basis.tuples[j // mod.dim], j % mod.dim
        f = basis_cochain(R3, 1, QQ, t, j=k, module=mod)
        df = cochain_differential(f, R3)
        col = [0] * mat.nrows
        for i, v in mat.cols[j].items():
            col[i] = v
        assert df.values == col
    # module-valued d* still squares to zero
    m2 = cochain_differential_matrix(R3, 2, QQ, module=mod)
    assert m2.mul(mat).is_zero()


def test_cochain_differential_is_signed_precomposition_with_d():
    # independent second definition: d*f = (-1)^p f o d, through the word
    # engine; a group-like prefix acts on module values, and f vanishes on
    # degenerate e-words in the quandle variant.  On R4, unlike R3,
    # y <| x != x <| y, so the self-action case also pins its orientation.
    cases = [(R3, p, quandle, None) for quandle in (False, True) for p in range(4)]
    cases += [(r, p, False, module_from_xset(xset_self(r))) for r in (R3, R4) for p in range(3)]
    checks = 0
    for rack, p, quandle, module in cases:
        W = WordAlgebra(rack)
        mdim = module.dim if module else 1
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
                    for m, c in terms.items():
                        idx = src.index.get(m.e)
                        if idx is None:
                            continue
                        for i in range(mdim):
                            k = module.act_word_index(m.a, i) if module else i
                            expect[k] += sign * c * f.values[idx * mdim + i]
                    checks += 1
                    assert df[row * mdim : (row + 1) * mdim] == expect, (p, quandle, t, j, row)
    assert checks == 2841 + 819 + 4368


def test_left_module_inverts_right_action():
    xs = xset_self(R4)
    mod = module_from_xset(xs)
    for x in range(4):
        for y in range(4):
            assert mod.perms[x][xs.act[y][x]] == y


def test_module_tensor_dimensions():
    xs = xset_self(R3)
    mod = module_from_xset(xs)
    t = mod.tensor(trivial_module(R3))
    assert t.dim == 3
    tt = mod.tensor(mod)
    assert tt.dim == 9
    for x in range(3):
        for i in range(3):
            for j in range(3):
                assert tt.perms[x][i * 3 + j] == mod.perms[x][i] * 3 + mod.perms[x][j]


def test_quandle_boundary_well_defined():
    """The full boundary maps degenerate tuples to degenerate combinations,
    so the quotient map is well defined degree by degree."""
    for rack in (R3, builtin("conjugation:s3")):
        for n in (2, 3, 4):
            full = boundary_matrix(rack, n, ZZ)
            src = tuple_basis(rack, n)
            tgt = tuple_basis(rack, n - 1)
            tgt_q = tuple_basis(rack, n - 1, quandle=True)
            for t in src.tuples:
                if any(a == b for a, b in zip(t, t[1:])):
                    col = full.cols[src.index[t]]
                    for row in col:
                        assert tgt.tuples[row] not in tgt_q.index
