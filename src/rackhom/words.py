"""Canonical-form rewriting engine for the bialgebra attached to a rack.

The algebra is generated by one group-like letter per rack element ("a
letters", degree 0) and one exterior-flavoured letter ``e[x]`` per element
(degree 1), subject to

    x . y        =  y . (x <| y)          (a-letter exchange)
    e[x] . y     =  y . e[x <| y]         (a-letter passes an e-letter)

Every word therefore has a canonical form  a_word . e_word  with all group
letters on the left.  Two a-words of the same length are equal exactly when
they lie in one orbit of the adjacent exchange moves; the canonical
representative is the lexicographically minimal orbit element, found by
breadth-first search with a shared memo.  Rewrites never introduce signs.

On top of the canonical form this module implements the structure maps:

* ``d``      -- the degree -1 super-derivation with d(e[x]) = 1 - x, d(x) = 0
* ``coproduct`` -- multiplicative, Delta(x) = x (x) x and
  Delta(e[x]) = e[x] (x) x + 1 (x) e[x], with Koszul signs in the tensor
  product:  (a (x) b)(a' (x) b') = (-1)^{|b||a'|} aa' (x) bb'
* ``coproduct_formula`` -- the closed sum over subsets with unshuffle signs
  from ``complexes.coproduct_terms``, which the cup stencil reads too;
  agrees with ``coproduct`` term by term (tested, not assumed)
* ``tensor_flip`` -- the signed flip  tau(a (x) b) = (-1)^{|a||b|} b (x) a
* ``h``      -- the degree +1 homotopy with h(e[x]) = e[x] (x) e[x] and
  h(ab) = h(a)Delta(b) + (-1)^{|a|} (tau Delta)(a) h(b)

Sign orientation: with these generators the homotopy identity reads
``d o h + h o d = Delta - tau o Delta``.  The orientation is forced: on a
single letter, (dh + hd)(e[x]) = d(e[x] (x) e[x]) = (1-x) (x) e[x] -
e[x] (x) (1-x), which expands to (Delta - tau Delta)(e[x]).

Group letters conjugate e-letters through ``Rack.right``; ``d`` keeps its
own faces, independent of ``complexes.face`` (see that module).  Elements
of B and of B (x) B share one arithmetic base class.

Coefficients are exact (int by default, Fraction accepted); there is no
floating point.
"""

from __future__ import annotations

import functools
from collections import namedtuple

from .complexes import coproduct_terms, face, face_set, no_adjacent_equal
from .errors import (
    IndexOutOfRange,
    NotAQuandle,
    OrbitLimitExceeded,
    RackMismatch,
)
from .racks import Rack, inverse_op


class BMonomial(namedtuple("BMonomial", "a e")):
    """A canonical-form monomial: group-like prefix ``a``, then e-letters
    ``e``, each a tuple of rack elements."""

    __slots__ = ()

    @property
    def degree(self):
        return len(self.e)


EMPTY = BMonomial((), ())

# BMonomial from one (a, e) pair, without the frame of the namedtuple __new__
_mono = functools.partial(tuple.__new__, BMonomial)


def _acc(acc, key, c):
    v = acc.get(key, 0) + c
    if v:
        acc[key] = v
    elif key in acc:
        del acc[key]


def _flip_raw(t):
    """The signed flip on a raw {(left, right): coeff} dict."""
    out = {}
    for (l, r), c in t.items():
        if len(l.e) & 1 and len(r.e) & 1:
            c = -c
        _acc(out, (r, l), c)
    return out


def _factors(key):
    # a term of B is keyed by one monomial, a term of B (x) B by a pair
    return (key,) if isinstance(key, BMonomial) else key


def _sort_key(key):
    return [(len(m.e), m.e, len(m.a), m.a) for m in _factors(key)]


class _Element:
    """The arithmetic of elements of B and of B (x) B; a subclass supplies
    ``_product``.  Elements over different racks do not combine."""

    __slots__ = ("algebra", "terms")

    def __init__(self, algebra, terms):
        self.algebra = algebra
        self.terms = {k: c for k, c in terms.items() if c}

    def _check(self, other):
        if self.algebra.rack != other.algebra.rack:
            raise RackMismatch("elements over different racks")

    def __add__(self, other):
        self._check(other)
        out = dict(self.terms)
        for k, c in other.terms.items():
            _acc(out, k, c)
        return type(self)(self.algebra, out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return type(self)(self.algebra, {k: -c for k, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, type(self)):
            self._check(other)
            return self._product(other)
        return type(self)(self.algebra, {k: c * other for k, c in self.terms.items()})

    __rmul__ = __mul__

    def __eq__(self, other):
        return isinstance(other, type(self)) and (
            (self.algebra.rack, self.terms) == (other.algebra.rack, other.terms))

    def __bool__(self):
        return bool(self.terms)

    def __repr__(self):
        return self.algebra.format_element(self)


class BElement(_Element):
    """Finitely supported integer (or rational) combination of monomials."""

    __slots__ = ()

    def _product(self, other):
        return self.algebra.multiply(self, other)

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def degrees(self):
        return sorted({len(m.e) for m in self.terms})


class TensorElement(_Element):
    """Finitely supported combination of monomial pairs in B (x) B."""

    __slots__ = ()

    def _product(self, other):
        return self.algebra.tensor_multiply(self, other)


class WordAlgebra:
    """All structure maps of the bialgebra of a fixed rack.

    A single instance owns every memo, none of them global: the
    canonicalization memo, the table of ``d`` on monomials, and the
    coproduct and homotopy tables of pure e-words.  A ``CupContext`` or a
    verify suite builds one instance per rack, so the memos live as long
    as it does.  Memo values are read, never handed out: every result is a
    fresh element.  They are pure values, so sharing an instance across
    threads only ever repeats idempotent inserts.
    """

    def __init__(self, rack: Rack, orbit_cap: int = 10**6):
        self.rack = rack
        self.orbit_cap = orbit_cap
        self._inv = inverse_op(rack)
        self._canon: dict[tuple, tuple] = {}
        self._d_memo: dict[BMonomial, dict] = {}
        self._delta_memo: dict[tuple, dict] = {}
        self._h_memo: dict[tuple, dict] = {}

    # -- canonical forms ----------------------------------------------------

    def canonical_a_word(self, word):
        """Lexicographically minimal element of the exchange orbit of ``word``.

        The adjacent move (a, b) -> (b, a <| b) and its inverse generate the
        orbit; BFS explores it completely (capped) and memoizes every member.
        """
        word = tuple(word)
        if len(word) < 2:
            return word
        memo = self._canon
        if word in memo:
            return memo[word]
        op = self.rack.table
        inv = self._inv
        seen = {word}
        frontier = [word]
        while frontier:
            if len(seen) > self.orbit_cap:
                raise OrbitLimitExceeded(
                    f"orbit of {word} exceeds cap {self.orbit_cap}"
                )
            nxt = []
            for w in frontier:
                for i in range(len(w) - 1):
                    a, b = w[i], w[i + 1]
                    for pair in ((b, op[a][b]), (inv[b][a], a)):
                        v = w[:i] + pair + w[i + 2 :]
                        if v not in seen:
                            seen.add(v)
                            nxt.append(v)
            frontier = nxt
        best = min(seen)
        for w in seen:
            memo[w] = best
        return best

    def _in_range(self, word):
        """``word``, refused unless every letter lies in 0..n-1."""
        if word and not (0 <= min(word) and max(word) < self.rack.size):
            raise IndexOutOfRange(f"letter outside 0..{self.rack.size - 1} in {word}")
        return word

    def monomial(self, a_word=(), e_word=()) -> BMonomial:
        a_word, e_word = tuple(a_word), tuple(e_word)
        self._in_range(a_word + e_word)
        return BMonomial(self.canonical_a_word(a_word), e_word)

    def canonicalize(self, letters):
        """Canonicalize a mixed word of ("g", x) / ("e", x) letters.

        Group letters move left past e-letters, conjugating them; the
        rewrites are sign-free, so the returned sign is always +1 (the slot
        exists for uniformity with the tensor routines).

        >>> from rackhom.racks import dihedral_rack
        >>> W = WordAlgebra(dihedral_rack(3))
        >>> W.canonicalize([("g", 0), ("e", 1), ("g", 2), ("e", 0)])
        (1, BMonomial(a=(0, 2), e=(0, 0)))
        """
        op = self.rack.table
        a_word = []
        e_word = []
        for kind, x in letters:
            if not 0 <= x < self.rack.size:
                raise IndexOutOfRange(f"letter {x} out of range")
            if kind == "g":
                e_word = [op[t][x] for t in e_word]
                a_word.append(x)
            elif kind == "e":
                e_word.append(x)
            else:
                raise ValueError(f"unknown letter kind {kind!r}")
        return 1, BMonomial(self.canonical_a_word(tuple(a_word)), tuple(e_word))

    def mon_mul(self, m1: BMonomial, m2: BMonomial) -> BMonomial:
        """Product of canonical monomials (again a single monomial)."""
        a1, e1 = m1
        a2, e2 = m2
        if not a2:  # a1 is canonical already
            return _mono((a1, e1 + e2))
        if e1:
            right = self.rack.right
            for y in a2:
                e1 = tuple(map(right[y].__getitem__, e1))
        elif not a1:
            return m2
        a = a1 + a2  # not empty, so a memo hit is truthy
        return _mono((self._canon.get(a) or self.canonical_a_word(a), e1 + e2))

    # -- element constructors ------------------------------------------------

    def zero(self):
        return BElement(self, {})

    def one(self):
        return BElement(self, {EMPTY: 1})

    def gen(self, x):
        """The group-like generator of a rack element."""
        return BElement(self, {BMonomial((x,), ()): 1})

    def gen_e(self, x):
        return BElement(self, {BMonomial((), (x,)): 1})

    def element(self, terms):
        out = {}
        for m, c in terms.items():
            _acc(out, self.monomial(m.a, m.e) if isinstance(m, BMonomial) else self.monomial(*m), c)
        return BElement(self, out)

    def eword(self, e_word):
        return BElement(self, {BMonomial((), self._in_range(tuple(e_word))): 1})

    def tensor(self, terms):
        return TensorElement(self, dict(terms))

    # -- algebra / coalgebra maps --------------------------------------------

    def multiply(self, u: BElement, v: BElement) -> BElement:
        u._check(v)
        out = {}
        for m1, c1 in u.terms.items():
            for m2, c2 in v.terms.items():
                _acc(out, self.mon_mul(m1, m2), c1 * c2)
        return BElement(self, out)

    def _d_mono(self, m):
        # d of one monomial as {monomial: coeff}, from the table; read only
        memo = self._d_memo
        t = memo.get(m)
        if t is not None:
            return t
        t = {}
        a, e = m
        right = self.rack.right
        for i, x in enumerate(e):
            s = 1 if i % 2 == 0 else -1
            _acc(t, _mono((a, e[:i] + e[i + 1 :])), s)
            conj = tuple(map(right[x].__getitem__, e[:i]))
            _acc(t, _mono((self.canonical_a_word(a + (x,)), conj + e[i + 1 :])), -s)
        memo[m] = t
        return t

    def d(self, u: BElement) -> BElement:
        """Degree -1 super-derivation: d(e[x]) = 1 - x on each e-letter."""
        out = {}
        for m, c in u.terms.items():
            for k, v in self._d_mono(m).items():
                _acc(out, k, c * v)
        return BElement(self, out)

    def _delta_eword(self, e):
        memo = self._delta_memo
        t = memo.get(e)
        if t is not None:
            return t
        if not e:
            t = {(EMPTY, EMPTY): 1}
        else:
            x = e[-1]
            gen = {
                (BMonomial((), (x,)), BMonomial((x,), ())): 1,
                (EMPTY, BMonomial((), (x,))): 1,
            }
            t = self._tensor_mul_raw(self._delta_eword(e[:-1]), gen)
        memo[e] = t
        return t

    def _apply_prefix(self, a_word, tensor_terms, coeff, out):
        # diagonal action of a group-like prefix: a.(u (x) v) = au (x) av
        if a_word:
            pref = BMonomial(a_word, ())
            for (l, r), tc in tensor_terms.items():
                _acc(out, (self.mon_mul(pref, l), self.mon_mul(pref, r)), coeff * tc)
        else:
            for k, tc in tensor_terms.items():
                _acc(out, k, coeff * tc)

    def coproduct(self, u: BElement) -> TensorElement:
        out = {}
        for m, c in u.terms.items():
            self._apply_prefix(m.a, self._delta_eword(m.e), c, out)
        return TensorElement(self, out)

    def _tensor_mul_raw(self, t1, t2):
        out = {}
        mon_mul = self.mon_mul
        for (l1, r1), c1 in t1.items():
            db = len(r1.e)
            for (l2, r2), c2 in t2.items():
                c = c1 * c2
                if db & 1 and len(l2.e) & 1:
                    c = -c
                _acc(out, (mon_mul(l1, l2), mon_mul(r1, r2)), c)
        return out

    def tensor_multiply(self, t1: TensorElement, t2: TensorElement) -> TensorElement:
        return TensorElement(self, self._tensor_mul_raw(t1.terms, t2.terms))

    def tensor_flip(self, t: TensorElement) -> TensorElement:
        return TensorElement(self, _flip_raw(t.terms))

    def tensor_d(self, t: TensorElement) -> TensorElement:
        """d (x) 1 + 1 (x) d with the Koszul sign on the second summand."""
        out = {}
        d_mono = self._d_mono
        for (l, r), c in t.terms.items():
            for lm, lc in d_mono(l).items():
                _acc(out, (lm, r), c * lc)
            s = -c if len(l.e) & 1 else c
            for rm, rc in d_mono(r).items():
                _acc(out, (l, rm), s * rc)
        return TensorElement(self, out)

    # -- closed coproduct formula ---------------------------------------------

    def face_monomial(self, m: BMonomial, i: int, eps: int) -> BMonomial:
        """Face map on e-positions, promoted to canonical monomials.

        ``eps=0`` deletes e-position ``i`` (1-based); ``eps=1`` deletes it,
        conjugates every e-letter to its left by the deleted letter, and
        appends the deleted letter to the group-like prefix.
        """
        a, e = m
        x, e = face(e, i, eps, self.rack)
        if x is None:
            return _mono((a, e))
        return _mono((self.canonical_a_word(a + (x,)), e))

    def face_set(self, m: BMonomial, indices, eps: int) -> BMonomial:
        """Composite face over an index set, largest index first.

        The value does not depend on the application order (the face maps
        satisfy the cube-set exchange identities); largest-first keeps the
        original indices valid.
        """
        prefix, e = face_set(m.e, indices, eps, self.rack)
        return _mono((self.canonical_a_word(m.a + prefix), e))

    def coproduct_formula(self, e: tuple[int, ...]) -> TensorElement:
        """Closed form of the coproduct of the pure e-word ``e``.

        Sums ``complexes.coproduct_terms`` over every size of ``A``: the term
        for ``A`` is (delete A) (x) (delete-and-conjugate the complement),
        weighted by the unshuffle signature of ``A`` times (-1)^{|A| |A^c|}.
        """
        out = {}
        canon = self.canonical_a_word
        for q in range(len(e) + 1):
            for left, prefix, right, eps in coproduct_terms(e, q, self.rack):
                _acc(out, (_mono(((), left)), _mono((canon(prefix), right))), eps)
        return TensorElement(self, out)

    # -- homotopy ---------------------------------------------------------------

    def _h_eword(self, e):
        memo = self._h_memo
        t = memo.get(e)
        if t is not None:
            return t
        if not e:
            t = {}
        elif len(e) == 1:
            m = BMonomial((), e)
            t = {(m, m): 1}
        else:
            head, rest = e[:1], e[1:]
            first = self._tensor_mul_raw(self._h_eword(head), self._delta_eword(rest))
            second = self._tensor_mul_raw(_flip_raw(self._delta_eword(head)), self._h_eword(rest))
            t = dict(first)
            for k, c in second.items():
                _acc(t, k, -c)
        memo[e] = t
        return t

    def h(self, u: BElement) -> TensorElement:
        """Degree +1 homotopy: h(e[x]) = e[x] (x) e[x], extended by
        h(ab) = h(a) Delta(b) + (-1)^{|a|} (tau Delta)(a) h(b) and by the
        diagonal action on group-like prefixes."""
        out = {}
        for m, c in u.terms.items():
            self._apply_prefix(m.a, self._h_eword(m.e), c, out)
        return TensorElement(self, out)

    def homotopy_defect(self, u: BElement) -> TensorElement:
        """(d o h + h o d - coproduct + flipped coproduct)(u); zero on all of B."""
        lhs = self.tensor_d(self.h(u)) + self.h(self.d(u))
        delta = self.coproduct(u)
        return lhs - delta + self.tensor_flip(delta)

    # -- quandle quotient ---------------------------------------------------------

    def quandle_project(self, u: BElement) -> BElement:
        """Quotient by the ideal of squares of e-letters.

        In canonical form the ideal is spanned by the monomials whose e-word
        has an adjacent equal pair (group letters pass an adjacent pair
        without separating it), so projection just deletes those monomials.
        """
        if not self.rack.is_quandle():
            raise NotAQuandle(f"{self.rack.label} is not a quandle")
        return BElement(self, {m: c for m, c in u.terms.items() if no_adjacent_equal(m.e)})

    def quandle_project_tensor(self, t: TensorElement) -> TensorElement:
        if not self.rack.is_quandle():
            raise NotAQuandle(f"{self.rack.label} is not a quandle")
        return TensorElement(self, {(l, r): c for (l, r), c in t.terms.items()
                                    if no_adjacent_equal(l.e) and no_adjacent_equal(r.e)})

    # -- rendering ----------------------------------------------------------------

    @staticmethod
    def format_monomial(m: BMonomial) -> str:
        if not m.a and not m.e:
            return "1"
        bits = [str(x) for x in m.a] + [f"e[{x}]" for x in m.e]
        return " ".join(bits)

    def format_element(self, u) -> str:
        """An element of B or of B (x) B as text, its terms in degree order;
        the factors of a term of B (x) B are joined by ``(x)``."""
        if not u.terms:
            return "0"
        bits = []
        for key in sorted(u.terms, key=_sort_key):
            c = u.terms[key]
            mono = " (x) ".join(map(self.format_monomial, _factors(key)))
            bits += ["-" if c < 0 else "+", mono if abs(c) == 1 else f"{abs(c)}*{mono}"]
        return ("-" if bits[0] == "-" else "") + " ".join(bits[1:])
