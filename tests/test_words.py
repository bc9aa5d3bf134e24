import itertools
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rackhom.errors import IndexOutOfRange, NotAQuandle, OrbitLimitExceeded, RackMismatch
from rackhom import words
from rackhom.racks import builtin, cyclic_rack, dihedral_rack, trivial_rack
from rackhom.words import EMPTY, TensorElement, WordAlgebra
from rackhom.verify import coassociativity_defect
from test_complexes import _coproduct_terms_oracle

R3 = dihedral_rack(3)
W3 = WordAlgebra(R3)


def tensor_sum(W, pairs):
    terms = {}
    for key, c in pairs:
        terms[key] = terms.get(key, 0) + c
    return W.tensor({k: v for k, v in terms.items() if v})


# --- canonical form -------------------------------------------------------


def test_group_letter_passes_e_letter():
    # x e_y z e_t  ==  x z e_{y <| z} e_t, for every choice of letters
    for x, y, z, t in itertools.product(range(3), repeat=4):
        m = W3.canonicalize([("g", x), ("e", y), ("g", z), ("e", t)])
        m2 = W3.canonicalize([("g", x), ("g", z), ("e", R3.op(y, z)), ("e", t)])
        assert m == m2 == (W3.canonical_a_word((x, z)), (R3.op(y, z), t))


def test_pure_e_word_unchanged():
    assert W3.canonicalize([("e", 0), ("e", 1)]) == ((), (0, 1))


def test_a_word_orbit_equivalence():
    # 0 . 1 = 1 . (0 <| 1) = 1 . 2 in the group-like subalgebra
    assert W3.canonical_a_word((0, 1)) == W3.canonical_a_word((1, 2))
    assert W3.canonical_a_word((0, 1)) == (0, 1)


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.integers(0, 2), min_size=2, max_size=5),
    st.lists(st.tuples(st.integers(0, 3), st.booleans()), max_size=8),
)
def test_canonical_form_invariant_under_exchange_moves(word, moves):
    """Applying any sequence of exchange moves never changes the canonical
    representative (they generate the defining equivalence)."""
    w = list(word)
    for pos, forward in moves:
        i = pos % (len(w) - 1)
        a, b = w[i], w[i + 1]
        if forward:
            w[i], w[i + 1] = b, R3.op(a, b)
        else:
            w[i], w[i + 1] = R3.left[a][b], a
    assert W3.canonical_a_word(tuple(word)) == W3.canonical_a_word(tuple(w))


def test_orbit_cap(monkeypatch):
    monkeypatch.setattr(words, "MAX_ORBIT", 1)
    W = WordAlgebra(dihedral_rack(3))
    with pytest.raises(OrbitLimitExceeded):
        W.canonical_a_word((0, 1, 2))


# --- multiplication -------------------------------------------------------


def test_mixed_relation():
    for x, y in itertools.product(range(3), repeat=2):
        assert W3.gen_e(x) * W3.gen(y) == W3.gen(y) * W3.gen_e(R3.op(x, y))


def test_unit_law():
    u = W3.element({((1,), (0, 2)): 3, ((), (1,)): -1})
    assert W3.one() * u == u
    assert u * W3.one() == u


def test_multiplication_associative_sample():
    gens = [W3.gen(0), W3.gen_e(1), W3.gen(2) + W3.gen_e(0), W3.one() - W3.gen_e(2)]
    for a, b, c in itertools.product(gens, repeat=3):
        assert (a * b) * c == a * (b * c)


def test_e_letters_concatenate():
    assert W3.gen_e(0) * W3.gen_e(1) == W3.eword((0, 1))


def test_rack_mismatch():
    other = WordAlgebra(trivial_rack(3))
    with pytest.raises(RackMismatch):
        W3.gen(0) * other.gen(0)


def test_tensor_rack_mismatch():
    other = WordAlgebra(trivial_rack(3))
    u, v = W3.coproduct(W3.gen_e(0)), other.coproduct(other.gen_e(0))
    with pytest.raises(RackMismatch):
        u + v
    with pytest.raises(RackMismatch):
        u * v


@pytest.mark.parametrize("make", [
    lambda W: W.eword((-1, 0)),
    lambda W: W.eword((5,)),
    lambda W: W.monomial((3,), ()),
    lambda W: W.monomial((), (0, -1)),
    lambda W: W.element({((0,), (3,)): 1}),
    lambda W: W.element({((-2,), ()): 1}),
    lambda W: W.gen(3),
    lambda W: W.gen(-1),
    lambda W: W.gen_e(3),
    lambda W: W.gen_e(-1),
], ids=["eword-negative", "eword-past-end", "monomial-prefix", "monomial-eword",
        "element-pair", "element-monomial", "gen-past-end", "gen-negative",
        "gen_e-past-end", "gen_e-negative"])
def test_letters_outside_the_rack_are_refused(make):
    with pytest.raises(IndexOutOfRange):
        make(W3)


# --- differential ----------------------------------------------------------


def test_d_on_generators():
    assert W3.d(W3.gen_e(0)) == W3.one() - W3.gen(0)
    assert not W3.d(W3.gen(1))


def test_d_of_e_pair():
    x, y = 0, 1
    expect = (
        W3.eword((y,))
        - W3.gen(x) * W3.eword((y,))
        - W3.eword((x,))
        + W3.gen(y) * W3.eword((R3.op(x, y),))
    )
    assert W3.d(W3.eword((x, y))) == expect


def test_d_squares_to_zero_with_prefixes():
    for e_len in range(5):
        for e in itertools.product(range(3), repeat=e_len):
            for k in range(3):
                for a in itertools.product(range(3), repeat=k):
                    u = W3.element({(a, e): 1})
                    assert not W3.d(W3.d(u))


def test_d_super_leibniz():
    words = [e for k in range(3) for e in itertools.product(range(3), repeat=k)]
    for e1 in words:
        for e2 in words:
            u, v = W3.eword(e1), W3.eword(e2)
            sign = -1 if len(e1) % 2 else 1
            assert W3.d(u * v) == W3.d(u) * v + sign * (u * W3.d(v))


WORD_RACKS = {spec: WordAlgebra(builtin(spec)) for spec in ("dihedral:3", "cyclic:3", "trivial:3")}


def letters(m):
    a, e = m
    return [("g", x) for x in a] + [("e", x) for x in e]


def d_reference(W, terms):
    """d letter by letter, with no table: (-1)^i times the word with e[x_i]
    replaced by 1 - x_i, each product canonicalized from its letters."""
    out = {}
    for m, c in terms.items():
        word = letters(m)
        for i, k in enumerate(range(len(m[0]), len(word))):
            s = -c if i % 2 else c
            for mid, sign in (([], s), ([("g", word[k][1])], -s)):
                key = W.canonicalize(word[:k] + mid + word[k + 1 :])
                out[key] = out.get(key, 0) + sign
    return {k: v for k, v in out.items() if v}


monomial_keys = st.tuples(
    st.lists(st.integers(0, 2), max_size=2).map(tuple),
    st.lists(st.integers(0, 2), max_size=4).map(tuple),
)
coefficients = st.integers(-3, 3).filter(bool)


@settings(max_examples=120, deadline=None)
@given(
    st.sampled_from(sorted(WORD_RACKS)),
    st.dictionaries(monomial_keys, coefficients, max_size=4),
    st.dictionaries(st.tuples(monomial_keys, monomial_keys), coefficients, max_size=4),
)
def test_d_and_tensor_d_match_per_letter_reference(spec, terms, pairs):
    W = WORD_RACKS[spec]
    u = W.element(terms)
    assert W.d(u).terms == d_reference(W, u.terms)
    t = W.tensor({(W.monomial(*l), W.monomial(*r)): c for (l, r), c in pairs.items()})
    expect = {}
    for (l, r), c in t.terms.items():
        for lm, lc in d_reference(W, {l: 1}).items():
            expect[(lm, r)] = expect.get((lm, r), 0) + c * lc
        s = -c if len(l[1]) % 2 else c
        for rm, rc in d_reference(W, {r: 1}).items():
            expect[(l, rm)] = expect.get((l, rm), 0) + s * rc
    assert W.tensor_d(t) == W.tensor({k: v for k, v in expect.items() if v})


def test_results_do_not_share_memo_values():
    W = WordAlgebra(R3)
    m = W.monomial((1,), (0, 2))
    u = W.element({m: 1})
    expect = dict(W.d(u).terms)
    W.d(u).terms.clear()
    W.d(u).terms[m] = 7
    W.tensor_d(W.tensor({(m, m): 1})).terms.clear()
    W.tensor_d(W.tensor({(m, EMPTY): 1})).terms[m, m] = 7
    assert W.d(u).terms == expect
    assert W.d(u).terms == d_reference(W, {m: 1})


def test_mon_mul_fast_paths_match_canonicalize():
    for W in WORD_RACKS.values():
        monos = [EMPTY] + [
            W.monomial(a, e)
            for a in ((), (0,), (2,), (1, 2), (2, 0))
            for e in ((), (1,), (0, 2), (2, 2, 1))
        ]
        for m1, m2 in itertools.product(monos, repeat=2):
            assert W.mon_mul(m1, m2) == W.canonicalize(letters(m1) + letters(m2))


def face_reference(W, m, i, eps):
    """The face from the letters of ``m``: e-position i deleted, or for
    eps = 1 replaced by its group letter, which ``canonicalize`` moves left
    past the e-letters before it."""
    word = letters(m)
    k = len(m[0]) + i - 1
    return W.canonicalize(word[:k] + [("g", word[k][1])] * eps + word[k + 1 :])


@pytest.mark.parametrize("spec", ["dihedral:3", "cyclic:3"])
def test_conjugation_table_matches_the_letter_by_letter_references(spec):
    """``mon_mul`` and ``face_monomial`` read the conjugation table; on a
    fresh algebra and again once the table is full, they agree with the
    references, which conjugate letter by letter and fill no table."""
    W = WordAlgebra(builtin(spec))
    n = W.rack.size
    words = [w for k in range(3) for w in itertools.product(range(n), repeat=k)]
    monos = [W.monomial(a, e) for a in words for e in words]
    faced = [W.monomial(a, e) for a in words[: n + 1] for k in range(1, 5)
             for e in itertools.product(range(n), repeat=k)]
    products = {(m1, m2): W.canonicalize(letters(m1) + letters(m2))
                for m1 in monos for m2 in monos}
    faces = {(m, i, eps): face_reference(W, m, i, eps)
             for m in faced for i in range(1, len(m[1]) + 1) for eps in (0, 1)}
    assert not any(W._conj)
    sizes = None
    for _ in range(2):
        assert {k: W.mon_mul(*k) for k in products} == products
        assert {k: W.face_monomial(*k) for k in faces} == faces
        assert sizes in (None, [len(t) for t in W._conj])
        sizes = [len(t) for t in W._conj]
    assert all(sizes)


# --- coproduct --------------------------------------------------------------


def test_group_likes():
    for x in range(3):
        g = W3.gen(x)
        assert W3.coproduct(g) == W3.tensor({(((x,), ()), ((x,), ())): 1})
    assert W3.coproduct(W3.one()) == W3.tensor({(EMPTY, EMPTY): 1})


def test_coproduct_of_e_pair_matches_worked_example():
    # Delta(e_x e_y) = e_xe_y (x) xy + 1 (x) e_xe_y + e_x (x) x e_y - e_y (x) y e_{x<|y}
    for x, y in itertools.product(range(3), repeat=2):
        exy = W3.monomial((), (x, y))
        expect = tensor_sum(W3, [
            ((exy, W3.monomial((x, y), ())), 1),
            ((EMPTY, exy), 1),
            ((W3.monomial((), (x,)), W3.monomial((x,), (y,))), 1),
            ((W3.monomial((), (y,)), W3.monomial((y,), (R3.op(x, y),))), -1),
        ])
        assert W3.coproduct(W3.eword((x, y))) == expect


def test_closed_formula_signs_in_degree_two():
    # the two middle subset terms of the coproduct carry eps({1}) = -1 and
    # eps({2}) = +1
    t = W3.coproduct(W3.eword((0, 1))).terms
    e0, e1 = W3.monomial((), (0,)), W3.monomial((), (1,))
    assert t[(e1, W3.monomial((1,), (R3.op(0, 1),)))] == -1
    assert t[(e0, W3.monomial((0,), (1,)))] == 1


def test_closed_formula_single_letter():
    for x in range(3):
        t = W3.coproduct(W3.eword((x,)))
        assert t == tensor_sum(W3, [
            ((W3.monomial((), (x,)), W3.monomial((x,), ())), 1),
            ((EMPTY, W3.monomial((), (x,))), 1),
        ])


def test_closed_formula_equals_multiplicative_len3():
    """The multiplicative coproduct of an e-word is the closed sum over
    subsets A, taken from its definition: (delete A) (x) (prefix .
    conjugating-delete A^c), with eps(A)."""
    W4 = WordAlgebra(dihedral_rack(4))
    for e in itertools.product(range(4), repeat=3):
        closed = tensor_sum(W4, [
            ((((), left), W4.monomial(prefix, right)), eps)
            for q in range(len(e) + 1)
            for left, prefix, right, eps in _coproduct_terms_oracle(e, q, W4.rack)
        ])
        assert W4.coproduct(W4.eword(e)) == closed


def test_coassociativity_includes_prefixes():
    for e in itertools.product(range(3), repeat=3):
        assert not coassociativity_defect(W3, W3.eword(e), {})
        assert not coassociativity_defect(W3, W3.element({((1,), e): 1}), {})


# --- tensor operations -------------------------------------------------------


def test_flip_signs():
    ex, x = W3.monomial((), (0,)), W3.monomial((0,), ())
    assert W3.tensor_flip(W3.tensor({(ex, x): 1})) == W3.tensor({(x, ex): 1})
    ey = W3.monomial((), (1,))
    assert W3.tensor_flip(W3.tensor({(ex, ey): 1})) == W3.tensor({(ey, ex): -1})


def test_flip_involution():
    t = W3.coproduct(W3.eword((0, 1, 2)))
    assert W3.tensor_flip(W3.tensor_flip(t)) == t


def test_tensor_d_on_diagonal_e():
    ex = W3.monomial((), (0,))
    t = W3.tensor_d(W3.tensor({(ex, ex): 1}))
    expect = tensor_sum(W3, [
        ((EMPTY, ex), 1),
        ((W3.monomial((0,), ()), ex), -1),
        ((ex, EMPTY), -1),
        ((ex, W3.monomial((0,), ())), 1),
    ])
    assert t == expect  # (1 - x) (x) e_x  -  e_x (x) (1 - x)


def test_tensor_d_squares_to_zero():
    for e in itertools.product(range(3), repeat=3):
        t = W3.coproduct(W3.eword(e))
        assert not W3.tensor_d(W3.tensor_d(t))


def test_tensor_multiply_koszul():
    ex, ey = W3.monomial((), (0,)), W3.monomial((), (1,))
    a = W3.tensor({(EMPTY, ex): 1})
    b = W3.tensor({(ey, EMPTY): 1})
    prod = W3.tensor_multiply(a, b)
    assert prod == W3.tensor({(ey, ex): -1})


# --- homotopy ----------------------------------------------------------------


def test_h_base_cases():
    assert not W3.h(W3.one())
    ex = W3.monomial((), (0,))
    assert W3.h(W3.gen_e(0)) == W3.tensor({(ex, ex): 1})
    assert not W3.h(W3.gen(2))  # h vanishes on group-likes


def test_h_closed_form_degree_two():
    # h(e_x e_y) = (x e_y + e_x) (x) e_x e_y - e_x e_y (x) (e_x y + e_y)
    for x, y in itertools.product(range(3), repeat=2):
        exy = W3.monomial((), (x, y))
        expect = tensor_sum(W3, [
            ((W3.monomial((x,), (y,)), exy), 1),
            ((W3.monomial((), (x,)), exy), 1),
            ((exy, W3.monomial((y,), (R3.op(x, y),))), -1),
            ((exy, W3.monomial((), (y,))), -1),
        ])
        assert W3.h(W3.eword((x, y))) == expect


def test_homotopy_identity_orientation():
    # d h + h d = Delta - tau Delta; the sign is forced by d(e_x) = 1 - x
    for e in itertools.product(range(3), repeat=2):
        u = W3.eword(e)
        lhs = W3.tensor_d(W3.h(u)) + W3.h(W3.d(u))
        delta = W3.coproduct(u)
        assert lhs == delta - W3.tensor_flip(delta)
        assert lhs != W3.tensor_flip(delta) - delta  # opposite orientation fails


def test_homotopy_defect_zero_small():
    for rack in (trivial_rack(2), dihedral_rack(3), cyclic_rack(3)):
        W = WordAlgebra(rack)
        for n in range(4):
            for e in itertools.product(range(rack.size), repeat=n):
                assert not W.homotopy_defect(W.eword(e))


def test_homotopy_a_linear():
    for a in ((0,), (1, 2)):
        for e in ((0,), (0, 1), (2, 1)):
            u = W3.element({(a, e): 1})
            prefixed = W3.h(u)
            bare = W3.h(W3.eword(e))
            pref = W3.element({(a, ()): 1})
            expect = {}
            for (l, r), c in bare.terms.items():
                lm = W3.mon_mul(W3.monomial(a, ()), l)
                rm = W3.mon_mul(W3.monomial(a, ()), r)
                expect[(lm, rm)] = expect.get((lm, rm), 0) + c
            assert prefixed == W3.tensor(expect)
            assert not W3.homotopy_defect(u)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(0, 2), max_size=4), st.integers(0, 4))
def test_splitting_rule_random(word, cut):
    e = tuple(word)
    k = min(cut, len(e))
    ua, ub = W3.eword(e[:k]), W3.eword(e[k:])
    sign = -1 if k % 2 else 1
    lhs = W3.h(ua * ub)
    rhs = W3.tensor_multiply(W3.h(ua), W3.coproduct(ub)) + sign * W3.tensor_multiply(
        W3.tensor_flip(W3.coproduct(ua)), W3.h(ub)
    )
    assert lhs == rhs


# --- quandle quotient ----------------------------------------------------------


def test_quandle_projection_basics():
    assert not W3.quandle_project(W3.eword((1, 1)))
    u = W3.eword((0, 1, 0))
    assert W3.quandle_project(u) == u


def test_quandle_projection_of_square_coproduct():
    for x in range(3):
        t = W3.quandle_project_tensor(W3.coproduct(W3.eword((x, x))))
        assert not t


def test_quandle_projection_requires_quandle():
    W = WordAlgebra(cyclic_rack(3))
    with pytest.raises(NotAQuandle):
        W.quandle_project(W.eword((0, 0)))


def test_projection_commutes_with_d_and_h():
    W6 = WordAlgebra(builtin("conjugation:s3"))
    for e in itertools.product(range(6), repeat=2):
        u = W6.eword(e)
        pu = W6.quandle_project(u)
        assert W6.quandle_project(W6.d(u)) == W6.quandle_project(W6.d(pu))
        assert W6.quandle_project_tensor(W6.h(u)) == W6.quandle_project_tensor(W6.h(pu))


# --- element arithmetic ------------------------------------------------------------


def test_elements_of_b_and_of_b_tensor_b_do_not_combine():
    u, t = W3.gen_e(0), W3.coproduct(W3.gen_e(0))
    for left, right in ((u, t), (t, u)):
        with pytest.raises(TypeError):
            left * right
        with pytest.raises(TypeError):
            left + right
        with pytest.raises(TypeError):
            left - right


@pytest.mark.parametrize("scalar", [1.5, "x", None, 1j], ids=["float", "str", "none", "complex"])
def test_scalars_are_ints_or_fractions(scalar):
    for x in (W3.gen_e(0) - W3.gen(1), W3.h(W3.eword((0, 1)))):
        with pytest.raises(TypeError):
            x * scalar
        with pytest.raises(TypeError):
            scalar * x
    u = W3.gen_e(0)
    assert (u * Fraction(1, 2)).terms == {((), (0,)): Fraction(1, 2)}
    assert Fraction(1, 2) * u == u * Fraction(1, 2)
    assert (u * 3).terms == (3 * u).terms == {((), (0,)): 3}


def assert_plain_terms(W, x):
    """No zero coefficient, and every key a canonical plain-tuple monomial
    (an element of B) or a plain pair of them (an element of B (x) B)."""
    assert all(x.terms.values()), x.terms
    for key in x.terms:
        assert type(key) is tuple and len(key) == 2
        for a, e in key if isinstance(x, TensorElement) else (key,):
            assert type(a) is tuple and type(e) is tuple
            assert all(type(letter) is int for letter in a + e)
            assert W.canonical_a_word(a) == a


def test_results_hold_no_zero_and_plain_keys():
    for W in WORD_RACKS.values():
        monos = [W.monomial(a, e) for a in ((), (0,), (1, 2)) for e in ((), (0,), (1, 2), (2, 0, 1))]
        elements = [W.element({m: 1}) for m in monos]
        elements += [W.element({m1: 1, m2: -2}) for m1, m2 in zip(monos, monos[1:] + monos[:1])]
        for u in elements:
            tensors = [W.coproduct(u), W.h(u), W.tensor_flip(W.h(u))]
            results = [W.d(u), u + u, u - u, -u, 0 * u, u * 0, 2 * u]
            results += [W.multiply(u, v) for v in elements[::5]]
            results += tensors + [W.tensor_d(t) for t in tensors]
            results += [W.tensor_multiply(t, W.coproduct(v)) for t in tensors for v in elements[::7]]
            results += [tensors[0] - tensors[0], 0 * tensors[1], tensors[1] * 0]
            for x in results:
                assert_plain_terms(W, x)


def test_cancelling_results_are_empty():
    ex, e0 = W3.gen_e(0), W3.monomial((), (0,))
    assert not (ex - ex).terms and not (0 * ex).terms and not (ex * 0).terms
    assert not W3.d(W3.d(W3.eword((0, 1, 2)))).terms
    assert not W3.tensor_d(W3.tensor_d(W3.coproduct(W3.eword((1, 2, 0))))).terms
    assert not W3.homotopy_defect(W3.element({((1,), (0, 2)): 1})).terms
    # -e[1] (x) 1 e[0 <| 1] of Delta(e[0] e[1]) cancels against Delta(e[1] e[2]),
    # with and without a prefix
    for a in ((), (1,)):
        parts = [W3.element({(a, e): 1}) for e in ((0, 1), (1, 2))]
        delta = W3.coproduct(parts[0] + parts[1])
        assert len(delta.terms) == sum(len(W3.coproduct(p).terms) for p in parts) - 2
        assert delta == W3.coproduct(parts[0]) + W3.coproduct(parts[1])
    # (0 - e[0]) (0 + e[0]): 0 e[0] and -e[0] 0 = -0 e[0 <| 0] cancel
    u, v = W3.gen(0) - W3.gen_e(0), W3.gen(0) + W3.gen_e(0)
    assert (u * v).terms == {((0, 0), ()): 1, ((), (0, 0)): -1}
    # (e[0] (x) 1 + 1 (x) e[0])^2: the two e[0] (x) e[0] terms cancel by the Koszul sign
    t = W3.tensor({(e0, EMPTY): 1, (EMPTY, e0): 1})
    e00 = W3.monomial((), (0, 0))
    assert W3.tensor_multiply(t, t).terms == {(e00, EMPTY): 1, (EMPTY, e00): 1}


def _letter_by_letter(W, a, m):
    for x in reversed(a):
        m = W.mon_mul(((x,), ()), m)
    return m


@pytest.mark.parametrize("spec", ["trivial:3", "dihedral:3", "cyclic:3", "dihedral:4"])
def test_prefix_action_matches_letter_by_letter_product(spec):
    W = WordAlgebra(builtin(spec))
    n = W.rack.size
    a_words = sorted({W.canonical_a_word(a) for k in range(4)
                      for a in itertools.product(range(n), repeat=k)})
    monos = [(a, e) for a in a_words for e in [()] + [(x,) for x in range(n)]]
    for a in a_words:
        for m in monos:
            terms = {(m, EMPTY): 1, (EMPTY, m): -1} if m != EMPTY else {(m, m): 1}
            out = {}
            W._apply_prefix(a, terms, 3, out)
            expect = {(_letter_by_letter(W, a, l), _letter_by_letter(W, a, r)): 3 * c
                      for (l, r), c in terms.items()}
            assert out == expect, (spec, a, m)


# --- rendering -------------------------------------------------------------------


def test_debug_rendering():
    # group letters render as plain indices, e-letters as e[i], left to right;
    # the a-word is shown in canonical (orbit-minimal) form: (1,2) ~ (0,1)
    u = W3.element({((1, 2), (0, 2)): 1})
    assert W3.canonical_a_word((1, 2)) == (0, 1)
    assert W3.format_element(u) == "0 1 e[0] e[2]"
    assert W3.format_element(W3.one() - W3.gen_e(1)) == "1 - e[1]"
    assert W3.format_element(W3.zero()) == "0"
    assert W3.format_element(2 * W3.gen(0)) == "2*0"


def test_tensor_rendering_shares_the_element_format():
    # Delta(e[0]) = e[0] (x) 0 + 1 (x) e[0]; factors are joined by (x)
    t = W3.coproduct(W3.gen_e(0))
    assert repr(t) == "1 (x) e[0] + e[0] (x) 0"
    assert repr(-2 * t) == "-2*1 (x) e[0] - 2*e[0] (x) 0"
    assert repr(W3.tensor({})) == "0"


def test_the_word_engine_reads_nothing_of_the_matrix_side():
    """``rackhom.words`` imports neither ``complexes`` nor ``linalg``: the
    package's ``__init__``, which imports every module, is left out by a bare
    package module standing in for it, in a fresh interpreter."""
    package = Path(__file__).resolve().parents[1] / "src" / "rackhom"
    code = ("import sys, types\n"
            "package = types.ModuleType('rackhom')\n"
            f"package.__path__ = [{str(package)!r}]\n"
            "sys.modules['rackhom'] = package\n"
            "import rackhom.words\n"
            "print(' '.join(sorted(m for m in sys.modules if m.startswith('rackhom.'))))\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60, check=True)
    loaded = set(proc.stdout.split())
    assert "rackhom.words" in loaded
    assert not loaded & {"rackhom.complexes", "rackhom.linalg"}, loaded
