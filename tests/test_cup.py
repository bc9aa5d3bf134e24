import hashlib
import importlib
import itertools
import json
from collections import Counter
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_complexes import _coproduct_terms_oracle, small_racks

from rackhom.cli import main
from rackhom.complexes import (
    Cochain,
    basis_cochain,
    boundary_matrix,
    cochain_differential,
    cochain_differential_matrix,
    tuple_basis,
)
from rackhom.cup import (
    CupContext,
    cup,
    cup_via_coproduct,
    homotopy_cochain,
    is_coboundary,
    ring_structure,
)
from rackhom.errors import (
    CoefficientMismatch,
    ContextMismatch,
    DimensionOverflow,
    NotACocycle,
    ResourceLimit,
    ShapeError,
)
from rackhom.linalg import ChainComplex, SparseMat, kernel_basis
from rackhom.racks import builtin, dihedral_rack, trivial_rack, xset_self, xset_singleton
from rackhom.rings import GF, QQ, ZZ
from rackhom.verify import BUILTIN_SPECS
from rackhom.words import WordAlgebra

R3 = dihedral_rack(3)
R4 = dihedral_rack(4)
T1 = trivial_rack(1)
T2 = trivial_rack(2)


def all_basis_cochains(rack, p, ring=ZZ, quandle=False):
    basis = tuple_basis(rack, p, quandle)
    return [basis_cochain(rack, p, ring, t, quandle=quandle) for t in basis.tuples]


def _over_q(p, fractions, quandle=False, module=None):
    """The Q cochain of the rationals ``fractions``: their numerators over
    the lcm of their denominators."""
    den = lcm(*(Fraction(v).denominator for v in fractions))
    return Cochain(p, QQ, [int(v * den) for v in fractions], quandle, module, den)


def _rational(h):
    """The values of the cochain ``h`` as Fractions: ``values[i] / den``."""
    return [Fraction(v, h.den) for v in h.values]


# --- closed low-degree formulas ---------------------------------------------


def test_cup_1_1_closed_formula():
    """(f.g)(x,y) = -f(x) g(y) + f(y) g(x <| y)."""
    ctx = CupContext(R3)
    b2 = tuple_basis(R3, 2)
    fs = all_basis_cochains(R3, 1)
    for f, g in itertools.product(fs, repeat=2):
        fg = cup(f, g, ctx)
        for (x, y) in b2.tuples:
            expect = -f.values[x] * g.values[y] + f.values[y] * g.values[R3.op(x, y)]
            assert fg.values[b2.index[(x, y)]] == expect


def test_cup_trivial_rack_is_signed_shuffle():
    """On a trivial rack the conjugations disappear and the product is the
    signed shuffle; the oracle recomputes unshuffle signs from scratch by
    counting transpositions while sorting."""

    def perm_sign_by_sorting(seq):
        seq = list(seq)
        sign = 1
        for i in range(len(seq)):
            for j in range(len(seq) - 1 - i):
                if seq[j] > seq[j + 1]:
                    seq[j], seq[j + 1] = seq[j + 1], seq[j]
                    sign = -sign
        return sign

    def shuffle_oracle(f, g, p, q, rack):
        n = p + q
        basis = tuple_basis(rack, n)
        bp, bq = tuple_basis(rack, p), tuple_basis(rack, q)
        out = []
        for t in basis.tuples:
            acc = 0
            for A in itertools.combinations(range(1, n + 1), q):
                comp = [i for i in range(1, n + 1) if i not in A]
                eps = perm_sign_by_sorting(list(A) + comp)
                if (q * (n - q)) % 2:
                    eps = -eps
                left = tuple(t[i - 1] for i in comp)
                right = tuple(t[i - 1] for i in A)
                term = eps * f.values[bp.index[left]] * g.values[bq.index[right]]
                acc += term
            if (p * q) % 2:
                acc = -acc
            out.append(acc)
        return out

    ctx = CupContext(T2)
    for p, q in ((1, 1), (1, 2), (2, 1), (2, 2)):
        for f in all_basis_cochains(T2, p):
            for g in all_basis_cochains(T2, q):
                assert cup(f, g, ctx).values == shuffle_oracle(f, g, p, q, T2)


def test_cup_2_2_six_term_expansion():
    """The six surviving subset terms in degree 4, with the signs forced by
    the Koszul coproduct (+ + - + + -)."""
    ctx = CupContext(R3)
    op = R3.table
    b2 = tuple_basis(R3, 2)
    b4 = tuple_basis(R3, 4)

    def opw(a, *ws):
        for w in ws:
            a = op[a][w]
        return a

    for f in all_basis_cochains(R3, 2):
        for g in all_basis_cochains(R3, 2):
            fg = cup(f, g, ctx)
            fv = lambda a, b: f.values[b2.index[(a, b)]]
            gv = lambda a, b: g.values[b2.index[(a, b)]]
            for (x, y, z, t) in b4.tuples:
                expect = (
                    fv(x, y) * gv(z, t)
                    + fv(z, t) * gv(opw(x, z, t), opw(y, z, t))
                    - fv(x, z) * gv(op[y][z], t)
                    + fv(x, t) * gv(op[y][t], op[z][t])
                    + fv(y, z) * gv(opw(x, y, z), t)
                    - fv(y, t) * gv(opw(x, y, t), op[z][t])
                )
                assert fg.values[b4.index[(x, y, z, t)]] == expect


def test_cup_degree_zero_scales():
    ctx = CupContext(R3)
    one = Cochain(0, ZZ, [2])
    g = basis_cochain(R3, 2, ZZ, (0, 1))
    fg = cup(one, g, ctx)
    assert fg.values == [2 * v for v in g.values]
    gf = cup(g, one, ctx)
    assert gf.values == fg.values


# --- structural laws ----------------------------------------------------------


def test_cup_bilinear():
    ctx = CupContext(R3)
    f1 = basis_cochain(R3, 1, QQ, (0,))
    f2 = basis_cochain(R3, 1, QQ, (2,))
    g = basis_cochain(R3, 1, QQ, (1,))
    combo = Cochain(1, QQ, [a + 3 * b for a, b in zip(f1.values, f2.values)])
    lhs = cup(combo, g, ctx).values
    r1 = cup(f1, g, ctx).values
    r2 = cup(f2, g, ctx).values
    assert lhs == [a + 3 * b for a, b in zip(r1, r2)]


def test_cup_associative_sample():
    ctx = CupContext(R3)
    for p, q, r in ((1, 1, 1), (1, 2, 1), (2, 1, 1)):
        fs = all_basis_cochains(R3, p)[:2]
        gs = all_basis_cochains(R3, q)[:2]
        hs = all_basis_cochains(R3, r)[:2]
        for f, g, h in itertools.product(fs, gs, hs):
            assert cup(cup(f, g, ctx), h, ctx).values == cup(f, cup(g, h, ctx), ctx).values


def test_derivation_law_sample():
    ctx = CupContext(R3)
    for p, q in ((1, 1), (1, 2), (2, 1)):
        for f in all_basis_cochains(R3, p):
            df = cochain_differential(f, R3)
            for g in all_basis_cochains(R3, q):
                dg = cochain_differential(g, R3)
                lhs = cochain_differential(cup(f, g, ctx), R3).values
                sign = -1 if p % 2 else 1
                rhs = [a + sign * b for a, b in zip(cup(df, g, ctx).values,
                                                    cup(f, dg, ctx).values)]
                assert lhs == rhs


def test_cup_equals_coproduct_path():
    ctx = CupContext(R3)
    for p, q in ((1, 1), (1, 2), (2, 2), (1, 3)):
        for f in all_basis_cochains(R3, p):
            for g in all_basis_cochains(R3, q):
                assert cup(f, g, ctx).values == cup_via_coproduct(f, g, ctx).values


def test_wrong_degree_support_gives_zero():
    ctx = CupContext(R3)
    f = Cochain(1, ZZ, [0, 0, 0])
    g = basis_cochain(R3, 1, ZZ, (1,))
    assert all(v == 0 for v in cup(f, g, ctx).values)


def test_context_mismatch():
    # factors over different rings, and a cochain of the other variant
    ctx, ctxq = CupContext(R3), CupContext(R3, quandle=True)
    f, g = basis_cochain(R3, 1, ZZ, (0,)), basis_cochain(R3, 1, QQ, (0,))
    for product in (cup, cup_via_coproduct, homotopy_cochain):
        for args in ((f, g), (g, f), (f, _reduced(f, GF(2)))):
            with pytest.raises(ContextMismatch, match="different rings"):
                product(*args, ctx)
        with pytest.raises(ContextMismatch, match="variant"):
            product(g, g, ctxq)
    assert ctx._coboundaries == {} and ctxq._coboundaries == {}


def test_context_takes_its_options_by_keyword():
    # a ring is truthy: read as ``quandle`` it would switch the variant
    with pytest.raises(TypeError):
        CupContext(R3, QQ)
    with pytest.raises(TypeError):
        CupContext(R3, True, 50)


@pytest.mark.parametrize("values", [[1, 0, 0, 0], [1, 1]], ids=["long", "short"])
@pytest.mark.parametrize("product", [cup, cup_via_coproduct])
def test_products_refuse_a_cochain_of_the_wrong_length(product, values):
    # a 1-cochain on dihedral:3 has 3 values
    ctx = CupContext(R3)
    f, g = Cochain(1, ZZ, values), basis_cochain(R3, 1, ZZ, (1,))
    for args in ((f, g), (g, f)):
        with pytest.raises(CoefficientMismatch, match="cochain length does not match its basis"):
            product(*args, ctx)


@pytest.mark.parametrize("values", [[1, 1, 1, 0], [1, 1]], ids=["long", "short"])
def test_homotopy_refuses_a_cochain_of_the_wrong_length_before_any_coboundary(
        monkeypatch, values):
    def unbuilt(*args, **kwargs):
        raise AssertionError("a coboundary was built for a malformed cochain")

    monkeypatch.setattr(importlib.import_module("rackhom.cup"), "cochain_differential_matrix",
                        unbuilt)
    ctx = CupContext(R3)
    f, g = Cochain(1, ZZ, values), Cochain(1, ZZ, [1, 1, 1])
    for args in ((f, g), (g, f)):
        with pytest.raises(CoefficientMismatch, match="cochain length does not match its basis"):
            homotopy_cochain(*args, ctx)


def test_context_cap_reaches_every_basis():
    # the 1 x 1 products read the degree-2 basis, 9 tuples over dihedral:3
    ctx = CupContext(builtin("dihedral:3"), max_basis=8)
    f = basis_cochain(R3, 1, QQ, (0,))
    for product in (cup, cup_via_coproduct):
        with pytest.raises(ResourceLimit, match="basis of degree 2 .* exceeds cap 8"):
            product(f, f, ctx)


def test_a_stencil_over_the_cap_is_refused_before_it_grows():
    """The cap counts each stencil's terms, ntargets x C(p + q, q), not the
    tuples of its basis (trivial:1 has one per degree) and not the terms of
    every stencil the context holds."""
    ctx = CupContext(T1, max_basis=500)
    assert len(ctx.stencil(4, 8)[1][0]) == 495  # C(12, 8)
    held = sum(len(row) for _, rows in ctx._stencils.values() for row in rows)
    assert held > 500
    message = (r"cup stencil of degrees \(5, 7\) has 792 terms "
               r"\(1 tuples x 792 subsets\), over the cap 500")
    f, g = (Cochain(k, QQ, [1]) for k in (5, 7))
    for call in (lambda: ctx.stencil(5, 7), lambda: cup(f, g, ctx)):
        with pytest.raises(DimensionOverflow, match=message):
            call()
    # refused before the stencils below it were built
    assert (5, 6) not in ctx._stencils and (5, 7) not in ctx._stencils
    # the quandle complex's count is a bound: dihedral:3's stencil (1, 2) has
    # 12 x 3 = 36 by the count, and fewer terms
    quandle = CupContext(R3, quandle=True, max_basis=36)
    assert sum(map(len, quandle.stencil(1, 2)[1])) < 36
    with pytest.raises(DimensionOverflow, match="has 36 terms"):
        CupContext(R3, quandle=True, max_basis=35).stencil(1, 2)


def test_ring_structure_passes_its_cap_to_the_cup_context(monkeypatch):
    caps = []

    def spy(rack, n, quandle=False, max_basis=None):
        caps.append(max_basis)
        return tuple_basis(rack, n, quandle, max_basis)

    # the package exports the function ``cup``, which hides the module
    monkeypatch.setattr(importlib.import_module("rackhom.cup"), "tuple_basis", spy)
    assert ring_structure(R3, QQ, 2, max_basis=27).dims == {0: 1, 1: 1, 2: 1}
    assert set(caps) == {27}


@pytest.mark.parametrize("ring", [QQ, GF(3)], ids=str)
def test_ring_structure_reduces_integer_coboundaries(monkeypatch, ring):
    # the coboundaries hold the same integers in every ring (-1 among them,
    # no residue mod 3), and each kernel reads them over the ring it is given
    seen = []

    def spy(mat, over):
        assert over is ring
        seen.append(mat)
        return kernel_basis(mat, over)

    monkeypatch.setattr(importlib.import_module("rackhom.cup"), "kernel_basis", spy)
    assert ring_structure(R3, ring, 2).dims == {0: 1, 1: 1, 2: 1}
    assert seen == [cochain_differential_matrix(R3, p) for p in range(3)]
    entries = [v for mat in seen for col in mat.cols for v in col.values()]
    assert {type(v) for v in entries} == {int} and -1 in entries


def test_ring_structure_stops_at_the_first_degree_over_the_cap(monkeypatch):
    # trivial:1 has one tuple per degree, so no basis reaches the default cap;
    # the stencil (8, 13) of its degree-21 products, C(21, 13) = 203490
    # terms, is the first thing over it, and no coboundary above degree 21
    # may be built before it is refused
    real = CupContext.coboundary

    def bounded(self, p, module=None):
        assert p <= 21, f"d*^{p} built before the products of degree 21"
        return real(self, p, module)

    monkeypatch.setattr(CupContext, "coboundary", bounded)
    with pytest.raises(DimensionOverflow, match=r"cup stencil of degrees \(8, 13\) has 203490 terms"):
        ring_structure(T1, QQ, 10_000)


# --- graded commutativity ----------------------------------------------------


def test_anticommutator_witness():
    """Indicator 1-cochains of 0 and 1: (f.g + g.f)(0,1) = -1, so the
    cochain-level product is not graded commutative on this quandle."""
    ctx = CupContext(R3)
    f = basis_cochain(R3, 1, ZZ, (0,))
    g = basis_cochain(R3, 1, ZZ, (1,))
    b2 = tuple_basis(R3, 2)
    total = [a + b for a, b in zip(cup(f, g, ctx).values, cup(g, f, ctx).values)]
    assert total[b2.index[(0, 1)]] == -1


def test_trivial_rack_graded_commutative_identically():
    ctx = CupContext(T2)
    for p, q in ((1, 1), (1, 2), (2, 2)):
        sign = -1 if (p * q) % 2 else 1
        for f in all_basis_cochains(T2, p):
            for g in all_basis_cochains(T2, q):
                assert cup(f, g, ctx).values == [sign * v for v in cup(g, f, ctx).values]


def test_homotopy_cochain_identity_on_r3_constants():
    ctx = CupContext(R3)
    f = Cochain(1, QQ, [1] * 3)
    fg = cup(f, f, ctx)
    assert not any(fg.values)  # -1 + 1 pointwise
    H = homotopy_cochain(f, f, ctx)
    dH = cochain_differential(H, R3)
    assert not any(dH.values)


def test_homotopy_cochain_identity_exhaustive_degree_pairs():
    for rack in (R3, R4):
        ctx = CupContext(rack)
        cocycles = {
            p: kernel_basis(cochain_differential_matrix(rack, p), QQ) for p in (1, 2)
        }
        for p, q in ((1, 1), (1, 2), (2, 1), (2, 2)):
            sign = -1 if (p * q) % 2 else 1
            (fvs, fden), (gvs, gden) = cocycles[p], cocycles[q]
            for fv in fvs:
                f = Cochain(p, QQ, fv, den=fden)
                for gv in gvs:
                    g = Cochain(q, QQ, gv, den=gden)
                    H = homotopy_cochain(f, g, ctx)
                    dH = cochain_differential(H, rack)
                    comm = [a - sign * b for a, b in zip(_rational(cup(f, g, ctx)),
                                                         _rational(cup(g, f, ctx)))]
                    assert _rational(dH) == comm


def test_context_builds_each_coboundary_once(monkeypatch):
    cup_module = importlib.import_module("rackhom.cup")
    real = cup_module.cochain_differential_matrix
    built = []

    def counting(rack, p, **kwargs):
        built.append(p)
        return real(rack, p, **kwargs)

    monkeypatch.setattr(cup_module, "cochain_differential_matrix", counting)
    ctx = CupContext(R3)
    f = Cochain(1, QQ, [1] * 3)
    H = homotopy_cochain(f, f, ctx)  # d*f twice; H has degree 1 as well
    assert not any(ctx.differential(H).values)
    g = basis_cochain(R3, 2, QQ, (0, 1))
    for _ in range(2):
        assert ctx.differential(g).values == cochain_differential(g, R3).values
    assert built == [1, 2]


def test_context_differential_serves_every_ring_and_refuses_another_variant():
    # one integer coboundary, read in each cochain's ring
    ctx = CupContext(R3)
    quandle = basis_cochain(R3, 1, QQ, (0,), quandle=True)
    with pytest.raises(ContextMismatch, match="variant"):
        ctx.differential(quandle)
    with pytest.raises(ContextMismatch, match="variant"):
        is_coboundary(quandle, ctx)
    assert ctx._coboundaries == {}
    for ring in (ZZ, QQ, GF(2), GF(3)):
        f = basis_cochain(R3, 1, ring, (0,))
        assert ctx.differential(f) == cochain_differential(f, R3)
    assert list(ctx._coboundaries) == [(1, None)]


def test_is_coboundary_reads_the_context_cap():
    # a 3-cochain solves against d*^2, read from the 27 tuples of degree 3
    f = cochain_differential(_over_q(2, [Fraction(1, 2)] + [0] * 8), R3)
    assert is_coboundary(f, CupContext(R3, max_basis=27)) is not None
    with pytest.raises(DimensionOverflow, match="exceeds cap 26"):
        is_coboundary(f, CupContext(R3, max_basis=26))


def test_commutativity_suite_builds_each_coboundary_once_per_context(monkeypatch):
    from rackhom import complexes, verify

    real = cochain_differential_matrix
    calls = Counter()

    def counting(rack, p, **kwargs):
        calls[rack.label, p] += 1
        return real(rack, p, **kwargs)

    for module in (complexes, importlib.import_module("rackhom.cup"), verify):
        monkeypatch.setattr(module, "cochain_differential_matrix", counting)
    assert verify.suite_commutativity().passed
    expected = Counter()
    for label in ("dihedral:3", "dihedral:4"):
        for p in range(5):
            expected[label, p] += 1  # ring_structure's context
        for p in (1, 2, 3):
            expected[label, p] += 1  # the suite's: kernels, d*f, d*g and d*H
    assert calls == expected


def test_homotopy_cochain_rejects_non_cocycles():
    ctx = CupContext(R3)
    f = basis_cochain(R3, 1, QQ, (0,))
    assert any(cochain_differential(f, R3).values)
    with pytest.raises(NotACocycle):
        homotopy_cochain(f, f, ctx)


# --- F_p against Z reduced mod p ----------------------------------------------


def _integer_cochain(rack, p, salt, module=None):
    """Integer values in -4..4, so that products over F_p wrap around."""
    n = len(tuple_basis(rack, p)) * (module.size if module else 1)
    return Cochain(p, ZZ, [(5 * k + salt) % 9 - 4 for k in range(n)], module=module)


def _reduced(f, ring):
    return Cochain(f.degree, ring, [v % ring.char for v in f.values], f.quandle, f.module)


@pytest.mark.parametrize("prime", [2, 3, 5])
@pytest.mark.parametrize("rack,module", [
    (R3, None),
    (builtin("cyclic:3"), None),
    (R3, xset_self(R3)),
], ids=["dihedral:3", "cyclic:3", "dihedral:3-self"])
def test_cup_over_fp_is_integer_cup_mod_p(prime, rack, module):
    """Both product paths over F_p store residues, and they equal the same
    path's integer product reduced mod p."""
    Fp = GF(prime)
    ctx = CupContext(rack)  # one context for both rings
    for p, q in ((1, 1), (1, 2), (2, 1)):
        f, g = _integer_cochain(rack, p, 1, module), _integer_cochain(rack, q, 4, module)
        for product in (cup, cup_via_coproduct):
            expect = [v % prime for v in product(f, g, ctx).values]
            values = product(_reduced(f, Fp), _reduced(g, Fp), ctx).values
            assert values == expect
            assert all(type(v) is int and v in range(prime) for v in values)
            assert any(values)


@pytest.mark.parametrize("prime", [2, 3, 5])
def test_homotopy_over_fp_is_integer_homotopy_mod_p(prime):
    # H(f, g) of two 1-cocycles lands in degree 1 with the sign -1
    Fp = GF(prime)
    for rack in (R3, builtin("cyclic:3")):
        ctx = CupContext(rack)  # one context for both rings
        f, g = Cochain(1, ZZ, [7] * 3), Cochain(1, ZZ, [-1] * 3)
        expect = [v % prime for v in homotopy_cochain(f, g, ctx).values]
        values = homotopy_cochain(_reduced(f, Fp), _reduced(g, Fp), ctx).values
        assert values == expect
        assert all(type(v) is int and v in range(prime) for v in values)
        assert any(values)


# --- coboundary solving ---------------------------------------------------------


def test_is_coboundary_constructed_member():
    f = _over_q(1, [Fraction(2, 3), -1, 5])
    df = cochain_differential(f, R3)
    w = is_coboundary(df, CupContext(R3))
    assert w is not None
    assert _rational(cochain_differential(w, R3)) == _rational(df)


def test_is_coboundary_constant_is_not():
    c = Cochain(1, QQ, [1] * 3)
    assert is_coboundary(c, CupContext(R3)) is None


def test_is_coboundary_refuses_short_cochain():
    # a 1-cochain on dihedral:3 has 3 values, not 1
    with pytest.raises(ShapeError):
        is_coboundary(Cochain(1, QQ, [0]), CupContext(builtin("dihedral:3")))


def test_commutator_of_cocycles_is_coboundary():
    ctx = CupContext(R4)
    cocycles, den = kernel_basis(cochain_differential_matrix(R4, 1), QQ)
    f = Cochain(1, QQ, cocycles[0], den=den)
    g = Cochain(1, QQ, cocycles[1], den=den)
    comm = _over_q(2, [a + b for a, b in zip(_rational(cup(f, g, ctx)),
                                             _rational(cup(g, f, ctx)))])
    w = is_coboundary(comm, ctx)
    assert w is not None
    assert _rational(cochain_differential(w, R4)) == _rational(comm)


# --- ring structure ---------------------------------------------------------------


def test_ring_structure_r3():
    rs = ring_structure(R3, QQ, 2)
    assert rs.dims == {0: 1, 1: 1, 2: 1}
    assert all(c == 0 for c in rs.products[(1, 0, 1, 0)])
    # unit class acts as identity
    assert rs.products[(0, 0, 1, 0)] == (Fraction(1),)


def test_ring_structure_r4_dims():
    rs = ring_structure(R4, QQ, 3)
    assert [rs.dims[p] for p in range(4)] == [1, 2, 4, 8]


def test_ring_structure_trivial1_signed_shuffle_constants():
    """One class per degree; the products match independently computed
    signed-shuffle coefficients: u_p u_q = S(p,q) u_{p+q} with S the signed
    count of (q,p)-unshuffles."""

    def signed_unshuffle_count(p, q):
        n = p + q
        total = 0
        for A in itertools.combinations(range(1, n + 1), q):
            comp = [i for i in range(1, n + 1) if i not in A]
            seq = list(A) + comp
            inv = sum(
                1 for i in range(n) for j in range(i + 1, n) if seq[i] > seq[j]
            )
            total += -1 if inv % 2 else 1
        return total

    rs = ring_structure(T1, QQ, 4)
    assert all(rs.dims[p] == 1 for p in range(5))
    for p in range(5):
        for q in range(5 - p):
            got = rs.products[(p, 0, q, 0)][0]
            # representatives are multiples of indicator cochains; normalize
            # by the product of their values
            sf, sg, sh = (Fraction(rs.reps[d][0][0], rs.dens[d]) if rs.reps[d][0] else 1
                          for d in (p, q, p + q))
            predicted = Fraction(signed_unshuffle_count(p, q)) * sf * sg / sh
            assert got == predicted


def test_ring_structure_graded_commutative():
    for rack in (R3, R4):
        rs = ring_structure(rack, QQ, 4)
        for p in (1, 2):
            for q in (1, 2):
                sign = -1 if (p * q) % 2 else 1
                for i in range(rs.dims[p]):
                    for j in range(rs.dims[q]):
                        left = rs.products[(p, i, q, j)]
                        right = rs.products[(q, j, p, i)]
                        assert left == tuple(Fraction(sign) * c for c in right)


def test_product_well_defined_modulo_coboundaries():
    """Changing a representative by a coboundary changes the product by a
    coboundary only, so class products do not depend on the choice.

    With trivial coefficients every 1-coboundary is zero, so the shift is
    applied to a degree-2 representative.
    """
    rs = ring_structure(R4, QQ, 2)
    ctx = CupContext(R4)
    f = Cochain(1, QQ, rs.reps[1][0], den=rs.dens[1])
    bump = cochain_differential(basis_cochain(R4, 1, QQ, (2,)), R4)
    assert any(bump.values)
    g = Cochain(2, QQ, rs.reps[2][0], den=rs.dens[2])
    shifted = _over_q(2, [a + b for a, b in zip(_rational(g), _rational(bump))])
    p1 = cup(f, g, ctx)
    p2 = cup(f, shifted, ctx)
    diff = _over_q(3, [a - b for a, b in zip(_rational(p2), _rational(p1))])
    assert any(diff.values)
    assert is_coboundary(diff, ctx) is not None


# --- ring structure against independent computations -------------------------
#
# None of these read the ring structure's own eliminations: the dimensions
# come from the ranks of the boundary matrices, the products are checked by
# a separate coboundary solve per product, and the pinned digests were
# computed before the ring structure shared one reduction per degree.

ORACLE_RACKS = [R3, R4, builtin("cyclic:4"), builtin("conjugation:s3")]


def _betti_by_rank(rack, ring, quandle, max_degree):
    # d_0 is the zero map out of C_0, so that H^0 is read like every degree
    ds = {0: SparseMat(0, 1)}
    for n in range(1, max_degree + 2):
        ds[n] = boundary_matrix(rack, n, quandle=quandle)
    cx = ChainComplex(ds, ring)
    return {p: cx.cohomology(p).betti for p in range(max_degree + 1)}


@pytest.mark.parametrize("ring", [QQ, GF(2), GF(3)], ids=lambda r: r.name)
@pytest.mark.parametrize("rack,quandle", [
    pytest.param(rack, quandle, id=f"{rack.label}-{'quandle' if quandle else 'rack'}")
    for rack in ORACLE_RACKS for quandle in (False, True)
    if not quandle or rack.is_quandle()
])
def test_ring_structure_dims_match_boundary_ranks(rack, ring, quandle):
    max_degree = 2 if rack.size > 4 else 3
    rs = ring_structure(rack, ring, max_degree, quandle)
    assert rs.dims == _betti_by_rank(rack, ring, quandle, max_degree)


@pytest.mark.parametrize("rack,ring,quandle,max_degree", [
    (R4, QQ, False, 3),
    (R3, GF(3), True, 3),
    (builtin("cyclic:4"), GF(2), False, 3),
    (builtin("conjugation:s3"), QQ, False, 2),
], ids=["dihedral:4-Q", "dihedral:3-F3-quandle", "cyclic:4-F2", "conjugation:s3-Q"])
def test_ring_structure_products_reduce_to_coboundaries(rack, ring, quandle, max_degree):
    """rep_i . rep_j - sum_k c_k rep_k is a coboundary for every product."""
    rs = ring_structure(rack, ring, max_degree, quandle)
    ctx = CupContext(rack, quandle=quandle)
    assert rs.products
    for (p, i, q, j), coords in rs.products.items():
        f = Cochain(p, ring, rs.reps[p][i], quandle, den=rs.dens[p])
        g = Cochain(q, ring, rs.reps[q][j], quandle, den=rs.dens[q])
        rest = _rational(cup(f, g, ctx))
        for c, rep in zip(coords, rs.reps[p + q]):
            rest = [a - c * Fraction(b, rs.dens[p + q]) for a, b in zip(rest, rep)]
        if ring.char:
            assert set(rs.dens.values()) == {1}
            rest = Cochain(p + q, ring, [int(v) % ring.char for v in rest], quandle)
        else:
            rest = _over_q(p + q, rest, quandle)
        if p + q == 0:
            assert not any(rest.values)
        else:
            assert is_coboundary(rest, ctx) is not None


@pytest.mark.parametrize("argv,digest", [
    (("--builtin", "dihedral:4", "--ring", "Q", "--max-degree", "3"),
     "307ab91db095b6b374f2bde861152c4c69dbf0c87b2a63e42584f8baeec1100b"),
    (("--builtin", "trivial:2", "--ring", "Fp:3", "--max-degree", "5"),
     "104a6e1a62d5957599e8a015033328972592deba56c87a689b7668b1cf82a941"),
    (("--builtin", "dihedral:3", "--ring", "Q", "--max-degree", "5"),
     "1444b73c2b6b46ed196260abe28c0030170ea789e0a4232f8dc8c3008b645dd5"),
    (("--builtin", "conjugation:s3", "--ring", "Q", "--max-degree", "3"),
     "777bdb790786c22315fafbabe69e7fd0664bd68206c983fbaf1ee294b2e599bd"),
    # F_p reports whose coboundaries are nonzero: their -1 entries are no
    # residues until the reductions read them mod p
    (("--builtin", "dihedral:4", "--ring", "Fp:2", "--max-degree", "4"),
     "8563ec313bf009b1b5e612ba5c308dadd44970da53b57ea13cc99c4e645eab70"),
    (("--builtin", "conjugation:s3", "--ring", "Fp:3", "--max-degree", "3"),
     "02973a954658dabc32a024f9ddc9e5404961acd2df74584414922f6726971b15"),
    (("--builtin", "dihedral:5", "--ring", "Fp:5", "--max-degree", "3", "--quandle"),
     "4bf85ea02dab65bd462a146df42cabed71f8f99fab0b5a40f98ee7db06b8ad55"),
])
def test_ring_json_digest_pinned(capsys, argv, digest):
    assert main(["ring", *argv, "--json"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


def test_ring_report_with_denominators_pinned(capsys):
    """The one builtin report whose representatives have denominators
    (+-1/2 and +-3/2): its results, written canonically (sorted keys, no
    spaces, as the benchmark's answer checks write them), are pinned."""
    argv = ["ring", "--builtin", "conjugation:s3", "--ring", "Q", "--max-degree", "4", "--json"]
    assert main(argv) == 0
    results = json.loads(capsys.readouterr().out)["results"]
    reps = results[0]["representatives"]
    assert {v for vecs in reps.values() for vec in vecs for v in vec if "/" in v} == {
        "1/2", "-1/2", "3/2", "-3/2"}
    canonical = json.dumps(results, sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(canonical.encode("utf-8")).hexdigest() == (
        "856583cfa8491445d612e1064109bbca07ccc09c8a3fff486e18c2b391263385")


# --- quandle variant ----------------------------------------------------------------


def test_quandle_cup_laws():
    ctx = CupContext(R3, quandle=True)
    for p, q in ((1, 1), (1, 2), (2, 1)):
        fs = all_basis_cochains(R3, p, quandle=True)
        gs = all_basis_cochains(R3, q, quandle=True)
        for f in fs:
            for g in gs:
                assert cup(f, g, ctx).values == cup_via_coproduct(f, g, ctx).values
    for f in all_basis_cochains(R3, 1, quandle=True):
        for g in all_basis_cochains(R3, 1, quandle=True):
            for h in all_basis_cochains(R3, 1, quandle=True):
                assert (
                    cup(cup(f, g, ctx), h, ctx).values
                    == cup(f, cup(g, h, ctx), ctx).values
                )


def test_quandle_homotopy_cochain():
    ctx = CupContext(R3, quandle=True)
    cocycles, den = kernel_basis(cochain_differential_matrix(R3, 2, quandle=True), QQ)
    consts = Cochain(1, QQ, [1] * 3, quandle=True)
    assert not any(cochain_differential(consts, R3).values)
    for gv in cocycles:
        g = Cochain(2, QQ, gv, quandle=True, den=den)
        H = homotopy_cochain(consts, g, ctx)
        dH = cochain_differential(H, R3)
        comm = [a - b for a, b in zip(_rational(cup(consts, g, ctx)),
                                      _rational(cup(g, consts, ctx)))]
        assert _rational(dH) == comm


# --- module coefficients ----------------------------------------------------------


def test_context_refuses_a_set_over_another_rack():
    # the self-set of dihedral:4 is not a rack-set over dihedral:3 or :5,
    # though its 4 points make a cochain of the length a 1-cochain over
    # dihedral:3 with 4 points would have
    foreign = xset_self(R4)
    for rack in (R3, dihedral_rack(5)):
        ctx = CupContext(rack)
        f = Cochain(1, QQ, [1] + [0] * (rack.size * 4 - 1), module=foreign)
        g = basis_cochain(rack, 1, QQ, (0,))
        for product in (cup, cup_via_coproduct):
            for args in ((f, g), (g, f), (f, f)):
                with pytest.raises(CoefficientMismatch, match="different rack"):
                    product(*args, ctx)
        with pytest.raises(CoefficientMismatch, match="different rack"):
            ctx.differential(f)


def test_module_cup_singleton_degenerates_to_trivial():
    mod = xset_singleton(R3)
    ctx = CupContext(R3)
    for tf in tuple_basis(R3, 1).tuples:
        f_m = basis_cochain(R3, 1, QQ, tf, module=mod)
        f_t = basis_cochain(R3, 1, QQ, tf)
        for tg in tuple_basis(R3, 1).tuples:
            g_m = basis_cochain(R3, 1, QQ, tg, module=mod)
            g_t = basis_cochain(R3, 1, QQ, tg)
            assert cup(f_m, g_m, ctx).values == cup(f_t, g_t, ctx).values


def test_module_cup_associative_with_self_coefficients():
    """The composite with tensor-module targets is associative for Y = X:
    ((f.g).h and f.(g.h) land in the same flattened module and agree.  One
    context serves every pair of sets."""
    N = xset_self(R3)
    NN = N.tensor(N)
    ctx = CupContext(R3)
    b1 = tuple_basis(R3, 1)
    picks = [(t, j) for t in b1.tuples for j in range(N.size)][:5]
    for (tf, jf) in picks:
        f = basis_cochain(R3, 1, QQ, tf, j=jf, module=N)
        for (tg, jg) in picks:
            g = basis_cochain(R3, 1, QQ, tg, j=jg, module=N)
            fg = cup(f, g, ctx)
            assert fg.module == NN
            for (th, jh) in picks:
                h = basis_cochain(R3, 1, QQ, th, j=jh, module=N)
                gh = cup(g, h, ctx)
                left = cup(fg, h, ctx)
                right = cup(f, gh, ctx)
                assert left.values == right.values and left.module == right.module


def test_module_cup_matches_coproduct_path():
    N = xset_self(R3)
    ctx = CupContext(R3)
    b1 = tuple_basis(R3, 1)
    for (tf, jf) in [(t, j) for t in b1.tuples for j in range(N.size)]:
        f = basis_cochain(R3, 1, QQ, tf, j=jf, module=N)
        for (tg, jg) in [((0,), 1), ((2,), 0)]:
            g = basis_cochain(R3, 1, QQ, tg, j=jg, module=N)
            assert cup(f, g, ctx).values == cup_via_coproduct(f, g, ctx).values


def _dense_cochain(rack, p, ring, module, salt):
    """A cochain with a small nonzero-heavy pattern of values, so that one
    product exercises every term of the stencil."""
    n = len(tuple_basis(rack, p)) * module.size
    return Cochain(p, ring, [(7 * k + salt) % 5 - 2 for k in range(n)], module=module)


@pytest.mark.parametrize("rack", [R4, builtin("conjugation:s3")], ids=lambda r: r.label)
def test_module_cup_matches_coproduct_path_on_non_symmetric_tables(rack):
    """dihedral:3 has a symmetric table, so a transposed action cannot show
    there; on dihedral:4 and conjugation:s3 x <| y != y <| x for some pair."""
    assert any(rack.op(x, y) != rack.op(y, x)
               for x in range(rack.size) for y in range(rack.size))
    N = xset_self(rack)
    ctx = CupContext(rack)
    for p, q in ((1, 1), (1, 2)):
        f = _dense_cochain(rack, p, QQ, N, 3)
        g = _dense_cochain(rack, q, QQ, N, 1)
        fg = cup(f, g, ctx)
        assert any(fg.values)
        assert fg.values == cup_via_coproduct(f, g, ctx).values


@pytest.mark.parametrize("with_module", [False, True], ids=["trivial", "module"])
def test_pairing_tables_give_what_a_fresh_context_gives(with_module):
    """``cup_via_coproduct`` and ``homotopy_cochain`` read the context's
    pairing tables, each built on first use: on dihedral:3, every (p, q)
    with p + q <= 4 gives the same cochains from one context, before and
    after its table is built, as from a fresh context."""
    module = xset_self(R3) if with_module else None
    ctx = CupContext(R3)
    dim = module.size if module else 1
    dense, cocycles = {}, {}
    for p in range(5):
        n = len(ctx.basis(p)) * dim
        dense[p] = [Cochain(p, ZZ, [(7 * k + salt) % 5 - 2 for k in range(n)], module=module)
                    for salt in (1, 3)]
        kernel, _ = kernel_basis(ctx.coboundary(p, module), QQ)
        cocycles[p] = [Cochain(p, ZZ, vec, module=module) for vec in kernel[:2]]
        cocycles[p] += [Cochain(p, ZZ, [sum(col) for col in zip(*kernel)], module=module)]
    nonzero = 0
    for p in range(5):
        for q in range(5 - p):
            for product, factors in ((cup_via_coproduct, dense), (homotopy_cochain, cocycles)):
                if product is homotopy_cochain and p + q == 0:
                    continue
                for f in factors[p]:
                    for g in factors[q]:
                        first = product(f, g, ctx)
                        tables = dict(ctx._pairings)
                        again = product(f, g, ctx)
                        assert ctx._pairings == tables
                        fresh = product(f, g, CupContext(R3))
                        assert first == again == fresh
                        nonzero += any(first.values)
    assert nonzero > 90


def test_a_pairing_table_over_the_cap_is_refused_every_time():
    # the factors' bases (9 tuples each) fit the cap; the target's 81 do not
    ctx = CupContext(R3, max_basis=30)
    f = Cochain(2, ZZ, [1] * 9)
    for _ in range(2):
        with pytest.raises(DimensionOverflow):
            cup_via_coproduct(f, f, ctx)
    assert not ctx._pairings


# --- Q cochains as ints over one denominator, and the f-indexed stencil ----------


def _fraction_cup(f, g, rack):
    """The closed formula in Fraction arithmetic, straight from its
    definition (``_coproduct_terms_oracle``): a reference for :func:`cup` on
    any coefficients."""
    p, q = f.degree, g.degree
    fvals, gvals = _rational(f), _rational(g)
    fb, gb = tuple_basis(rack, p, f.quandle), tuple_basis(rack, q, f.quandle)
    mf = f.module.size if f.module else 1
    mg = g.module.size if g.module else 1
    out = []
    for t in tuple_basis(rack, p + q, f.quandle).tuples:
        vec = [Fraction(0)] * (mf * mg)
        for left, prefix, right, eps in _coproduct_terms_oracle(t, q, rack):
            if left in fb.index and right in gb.index:
                sign = eps * (-1) ** (p * q)
                for a in range(mf):
                    for b in range(mg):
                        k = g.module.left_word(prefix, b) if g.module else b
                        vec[a * mg + k] += (sign * fvals[fb.index[left] * mf + a]
                                            * gvals[gb.index[right] * mg + b])
        out += vec
    return out


def _fraction_differential(f, rack):
    """d*f in Fraction arithmetic from ``cochain_differential_matrix``."""
    mat = cochain_differential_matrix(rack, f.degree, quandle=f.quandle, module=f.module)
    out = [Fraction(0)] * mat.nrows
    for v, col in zip(_rational(f), mat.cols):
        for i, c in col.items():
            out[i] += c * v
    return out


def _fraction_homotopy(f, g, rack):
    """H(f, g) in Fraction arithmetic, paired straight against the
    word-engine homotopy ``W.h`` with the scale (-1)^{pq} (-1)^{p+q+1}."""
    p, q = f.degree, g.degree
    W = WordAlgebra(rack)
    fb, gb = tuple_basis(rack, p, f.quandle), tuple_basis(rack, q, f.quandle)
    mf = f.module.size if f.module else 1
    mg = g.module.size if g.module else 1
    scale = (-1) ** (p * q) * (-1) ** (p + q + 1)

    def value(h, basis, dim, monomial):
        # h on prefix . e_tuple: the prefix moves the module index
        a, e = monomial
        vec = [Fraction(0)] * dim
        for i in range(dim):
            k = h.module.left_word(a, i) if h.module else i
            vec[k] = Fraction(h.values[basis.index[e] * dim + i], h.den)
        return vec

    out = []
    for t in tuple_basis(rack, p + q - 1, f.quandle).tuples:
        vec = [Fraction(0)] * (mf * mg)
        for (l, r), c in W.h(W.eword(t)).terms.items():
            if l[1] in fb.index and r[1] in gb.index:
                fv, gv = value(f, fb, mf, l), value(g, gb, mg, r)
                for a in range(mf):
                    for b in range(mg):
                        vec[a * mg + b] += scale * c * fv[a] * gv[b]
        out += vec
    return out


def _cleared(h, den, ring):
    """The rational values of the Q cochain ``h`` times ``den``, which must
    clear their denominators, as scalars of ``ring``."""
    scaled = [v * den for v in _rational(h)]
    assert all(v.denominator == 1 for v in scaled)
    return [int(v) % ring.char if ring.char else int(v) for v in scaled]


def _swap_factors(values, dim):
    """Flattened tensor-module values with the two module factors swapped."""
    if dim == 1:
        return values
    return [values[i - i % (dim * dim) + (i % dim) * dim + (i // dim) % dim]
            for i in range(len(values))]


def _assert_scalars(h, ring):
    """Ints in every ring, residues over F_p; a positive denominator over Q
    and 1 elsewhere."""
    assert h.ring is ring
    assert all(type(v) is int for v in h.values)
    if ring.char:
        assert all(v in range(ring.char) for v in h.values)
    assert type(h.den) is int and (h.den > 0 if ring is QQ else h.den == 1)


DENOMINATORS = (1, 2, 3, 7)


@settings(max_examples=20, deadline=None)
@given(small_racks().filter(lambda rack: rack.size <= 4), st.data())
def test_q_products_match_fraction_reference_on_real_denominators(rack, data):
    """cup, homotopy_cochain and CupContext.differential over Q on values
    with denominators 2, 3 and 7, against Fraction references; then the
    same products of integer cochains over Z and F_5 keep their scalar types."""
    quandle = rack.is_quandle() and data.draw(st.booleans(), "quandle")
    module = xset_self(rack) if data.draw(st.booleans(), "module") else None
    dim = module.size if module else 1
    fractions = st.builds(Fraction, st.integers(-6, 6), st.sampled_from(DENOMINATORS))

    def length(p):
        return len(tuple_basis(rack, p, quandle)) * dim

    def dense(p):
        return _over_q(p, data.draw(st.lists(fractions, min_size=length(p),
                                             max_size=length(p))), quandle, module)

    def single(p):
        values = [0] * length(p)
        if values:
            k = data.draw(st.integers(0, len(values) - 1))
            values[k] = Fraction(data.draw(st.sampled_from((-1, 1, 5))),
                                 data.draw(st.sampled_from(DENOMINATORS[1:])))
        return _over_q(p, values, quandle, module)

    def zero(p):
        return Cochain(p, QQ, [0] * length(p), quandle, module)

    def cocycle(p):
        # a combination of kernel vectors with fractional coefficients
        kernel, den = kernel_basis(
            cochain_differential_matrix(rack, p, quandle=quandle, module=module), QQ)
        values = [Fraction(0)] * length(p)
        for vec in kernel:
            c = data.draw(fractions)
            values = [v + c * Fraction(w, den) for v, w in zip(values, vec)]
        return _over_q(p, values, quandle, module)

    ctx = CupContext(rack, quandle=quandle)
    for p, q in ((1, 1), (1, 2), (2, 1)):
        for f, g in ((dense(p), dense(q)), (single(p), dense(q)), (dense(p), single(q)),
                     (zero(p), dense(q)), (single(p), single(q))):
            fg = cup(f, g, ctx)
            assert _rational(fg) == _fraction_cup(f, g, rack)
            _assert_scalars(fg, QQ)
            df = ctx.differential(f)
            assert _rational(df) == _fraction_differential(f, rack)
            _assert_scalars(df, QQ)
        for f, g in ((cocycle(p), cocycle(q)), (zero(p), cocycle(q))):
            _check_homotopy_and_integer_rings(f, g, rack, ctx)


def _check_homotopy_and_integer_rings(f, g, rack, ctx):
    """H(f, g) over Q against its Fraction reference and the homotopy
    identity; then cup, H and d* of the same cocycles cleared of their
    denominators, over Z and F_5, against the Q values scaled alike."""
    p, q = f.degree, g.degree
    dim = f.module.size if f.module else 1
    H = homotopy_cochain(f, g, ctx)
    assert _rational(H) == _fraction_homotopy(f, g, rack)
    _assert_scalars(H, QQ)
    sign = (-1) ** (p * q)
    gf = _swap_factors(_fraction_cup(g, f, rack), dim)
    comm = [a - sign * b for a, b in zip(_fraction_cup(f, g, rack), gf)]
    assert _fraction_differential(H, rack) == comm
    den = lcm(*[v.denominator for v in _rational(f) + _rational(g)])
    for ring in (ZZ, GF(5)):
        fz, gz = (Cochain(h.degree, ring, _cleared(h, den, ring), h.quandle, h.module)
                  for h in (f, g))
        for got, expect in ((cup(fz, gz, ctx), _cleared(cup(f, g, ctx), den * den, ring)),
                            (homotopy_cochain(fz, gz, ctx), _cleared(H, den * den, ring)),
                            (ctx.differential(fz), _cleared(ctx.differential(f), den, ring))):
            assert got.values == expect
            _assert_scalars(got, ring)


COCYCLE_SCALES = (Fraction(1, 2), Fraction(-2, 3), Fraction(5, 7), Fraction(3))


@pytest.mark.parametrize("spec,quandle", [("trivial:2", False), ("trivial:2", True),
                                          ("cyclic:3", False), ("dihedral:3", False),
                                          ("dihedral:3", True), ("dihedral:4", True)])
@pytest.mark.parametrize("with_module", [False, True], ids=["trivial", "module"])
def test_homotopy_matches_fraction_reference(spec, quandle, with_module):
    """Kernel vectors of degrees (1, 1), (1, 2) and (2, 1) scaled by fractions,
    their sum and the zero cocycle: H against its Fraction reference, also
    on the permutation racks trivial:2 and cyclic:3, whose cochains commute
    exactly."""
    rack = builtin(spec)
    module = xset_self(rack) if with_module else None
    ctx = CupContext(rack, quandle=quandle)
    for p, q in ((1, 1), (1, 2), (2, 1)):
        cocycles = {}
        for d in {p, q}:
            kernel, den = kernel_basis(
                cochain_differential_matrix(rack, d, quandle=quandle, module=module), QQ)
            scaled = [[COCYCLE_SCALES[k % 4] * Fraction(v, den) for v in vec]
                      for k, vec in enumerate(kernel)]
            total = [sum(col, Fraction(0)) for col in zip(*scaled)] if scaled else []
            cocycles[d] = [_over_q(d, vec, quandle, module)
                           for vec in scaled[:3] + ([total] if total else [])]
        zero = Cochain(p, QQ, [0] * len(ctx.coboundary(p, module).cols), quandle, module)
        for f in [zero] + cocycles[p]:
            for g in cocycles[q]:
                _check_homotopy_and_integer_rings(f, g, rack, ctx)


@pytest.mark.parametrize("spec", BUILTIN_SPECS)
def test_stencil_rows_match_the_coproduct_terms(spec):
    """Each stencil row, grown from the face table, holds the terms of the
    closed formula taken tuple by tuple from its definition
    (``_coproduct_terms_oracle``), prefixes included, compared as multisets:
    the stencil's reference, as the word engine's faces are the boundary's."""
    rack = builtin(spec)
    for quandle in (False, True) if rack.is_quandle() else (False,):
        ctx = CupContext(rack, quandle=quandle)
        for p, q in [(p, n - p) for n in range(5) for p in range(n + 1)]:
            f_index, g_index = (tuple_basis(rack, k, quandle).index for k in (p, q))
            targets = tuple_basis(rack, p + q, quandle).tuples
            expected = [Counter() for _ in f_index]
            for t_idx, t in enumerate(targets):
                for left, prefix, right, eps in _coproduct_terms_oracle(t, q, rack):
                    li, ri = f_index.get(left), g_index.get(right)
                    if li is not None and ri is not None:
                        expected[li][t_idx, ri, prefix, (eps < 0) != bool(p * q & 1)] += 1
            ntargets, rows = ctx.stencil(p, q)
            assert ntargets == len(targets)
            assert [Counter(row) for row in rows] == expected, (quandle, p, q)


class CountingInt(int):
    """An int that counts its multiplications and truth tests."""

    muls = 0
    tests = 0

    def __mul__(self, other):
        CountingInt.muls += 1
        return int(self) * int(other)

    __rmul__ = __mul__

    def __bool__(self):
        CountingInt.tests += 1
        return int(self) != 0


@pytest.mark.parametrize("p,q", [(1, 2), (2, 2), (3, 1)])
def test_cup_reads_only_the_stencil_rows_of_nonzero_entries(p, q):
    """An indicator f costs one multiplication per term of its stencil row
    and one truth test per entry of f, not a walk of the whole stencil."""
    ctx = CupContext(R3)
    _, rows = ctx.stencil(p, q)
    g = Cochain(q, ZZ, [CountingInt(1 + k % 3) for k in range(len(tuple_basis(R3, q)))])
    for li, t in enumerate(tuple_basis(R3, p).tuples):
        f = basis_cochain(R3, p, ZZ, t)
        f.values = [CountingInt(v) for v in f.values]
        CountingInt.muls = CountingInt.tests = 0
        fg = cup(f, g, ctx)
        f_tests = CountingInt.tests - len(rows[li])  # g is tested once per term
        assert CountingInt.muls == len(rows[li])
        assert f_tests <= len(f.values)
        plain = Cochain(q, ZZ, [int(v) for v in g.values])
        assert fg.values == cup(basis_cochain(R3, p, ZZ, t), plain, ctx).values
