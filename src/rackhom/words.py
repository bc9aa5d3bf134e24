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
  product:  (a (x) b)(a' (x) b') = (-1)^{|b||a'|} aa' (x) bb'; the
  ``coproduct`` suite checks it against the closed formula that the cup
  product runs, its stencils
* ``face_monomial`` / ``face_set`` -- the face maps on e-positions, which
  ``d`` reads and the ``faces`` suite checks
* ``tensor_flip`` -- the signed flip  tau(a (x) b) = (-1)^{|a||b|} b (x) a
* ``h``      -- the degree +1 homotopy with h(e[x]) = e[x] (x) e[x] and
  h(ab) = h(a)Delta(b) + (-1)^{|a|} (tau Delta)(a) h(b)

Sign orientation: with these generators the homotopy identity reads
``d o h + h o d = Delta - tau o Delta``.  The orientation is forced: on a
single letter, (dh + hd)(e[x]) = d(e[x] (x) e[x]) = (1-x) (x) e[x] -
e[x] (x) (1-x), which expands to (Delta - tau Delta)(e[x]).

A monomial is a plain pair ``(a, e)`` of tuples of rack elements: the
canonical a-word, then the e-word.  The ``terms`` of an element of B map
such pairs to coefficients; those of B (x) B map pairs of them.  Group
letters conjugate e-letters through ``Rack.right``.  This module reads
nothing of the matrix side: ``d`` takes its faces from ``face_monomial``,
independent of the face table that the boundary grows from, so that
``project_to_chain(d(e_T)) == -bd(T)`` compares two codes.  Elements of B
and of B (x) B share one arithmetic base class.

Coefficients are exact (int by default, Fraction accepted); there is no
floating point, and an element combines only with its own kind.
"""

from __future__ import annotations

import operator
import sys

from .errors import (
    IndexOutOfRange,
    NotAQuandle,
    OrbitLimitExceeded,
    RackMismatch,
)
from .racks import Rack


EMPTY = ((), ())  # the unit monomial

# the most a-words that one exchange orbit may hold before the search for
# its canonical form is refused (``OrbitLimitExceeded``)
MAX_ORBIT = 10**6


def no_adjacent_equal(t):
    return all(map(operator.ne, t, t[1:]))


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
        if len(l[1]) & 1 and len(r[1]) & 1:
            c = -c
        _acc(out, (r, l), c)
    return out


def _sort_key(term):
    return [(len(e), e, len(a), a) for a, e in term[0]]


def _scalar(c):
    # int or Fraction; a Fraction exists only once fractions is imported
    return isinstance(c, int) or "fractions" in sys.modules and isinstance(
        c, sys.modules["fractions"].Fraction)


class _Element:
    """The arithmetic of elements of B and of B (x) B; a subclass supplies
    ``_product``.  Elements over different racks do not combine."""

    __slots__ = ("algebra", "terms")

    def __init__(self, algebra, terms):
        self.algebra = algebra
        self.terms = {k: c for k, c in terms.items() if c}

    @classmethod
    def _of(cls, algebra, terms):
        # ``terms`` as given, unfiltered: accumulation never leaves a zero
        u = object.__new__(cls)
        u.algebra, u.terms = algebra, terms
        return u

    def _check(self, other):
        if self.algebra.rack != other.algebra.rack:
            raise RackMismatch("elements over different racks")

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        self._check(other)
        out = dict(self.terms)
        for k, c in other.terms.items():
            _acc(out, k, c)
        return self._of(self.algebra, out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return self._of(self.algebra, {k: -c for k, c in self.terms.items()})

    def __mul__(self, other):
        if type(other) is type(self):
            self._check(other)
            return self._product(other)
        if not _scalar(other):
            return NotImplemented
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
        return sorted({len(e) for _, e in self.terms})


class TensorElement(_Element):
    """Finitely supported combination of monomial pairs in B (x) B."""

    __slots__ = ()

    def _product(self, other):
        return self.algebra.tensor_multiply(self, other)


class WordAlgebra:
    """All structure maps of the bialgebra of a fixed rack.

    A single instance owns every memo, none of them global: the
    canonicalization memo, the conjugation table ``_conj[y]`` (e-word to
    its conjugate by the letter y), the table of ``d`` on monomials, and
    the coproduct and homotopy tables of pure e-words.  A ``CupContext`` or a
    verify suite builds one instance per rack, so the memos live as long
    as it does.  Memo values are read, never handed out: every result is a
    fresh element.  They are pure values, so sharing an instance across
    threads only ever repeats idempotent inserts.
    """

    def __init__(self, rack: Rack):
        self.rack = rack
        self._canon: dict[tuple, tuple] = {}
        self._conj: list[dict] = [{} for _ in range(rack.size)]
        self._d_memo: dict[tuple, dict] = {}
        self._delta_memo: dict[tuple, dict] = {}
        self._h_memo: dict[tuple, dict] = {}

    # -- canonical forms ----------------------------------------------------

    def canonical_a_word(self, word):
        """Lexicographically minimal element of the exchange orbit of ``word``.

        The adjacent move (a, b) -> (b, a <| b) and its inverse, read from
        ``Rack.left``, generate the orbit; BFS explores it completely (up to
        ``MAX_ORBIT`` words) and memoizes every member.
        """
        word = tuple(word)
        if len(word) < 2:
            return word
        memo = self._canon
        if word in memo:
            return memo[word]
        op = self.rack.table
        left = self.rack.left
        seen = {word}
        frontier = [word]
        while frontier:
            if len(seen) > MAX_ORBIT:
                raise OrbitLimitExceeded(f"orbit of {word} exceeds cap {MAX_ORBIT}")
            nxt = []
            for w in frontier:
                for i in range(len(w) - 1):
                    a, b = w[i], w[i + 1]
                    for pair in ((b, op[a][b]), (left[a][b], a)):
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

    def monomial(self, a_word=(), e_word=()) -> tuple:
        a_word, e_word = tuple(a_word), tuple(e_word)
        self._in_range(a_word + e_word)
        return self.canonical_a_word(a_word), e_word

    def canonicalize(self, letters):
        """Canonicalize a mixed word of ("g", x) / ("e", x) letters.

        Group letters move left past e-letters, conjugating them; the
        rewrites are sign-free, so the result is one monomial.  Letter by
        letter, it is the reference that the fast product is tested against.

        >>> from rackhom.racks import dihedral_rack
        >>> W = WordAlgebra(dihedral_rack(3))
        >>> W.canonicalize([("g", 0), ("e", 1), ("g", 2), ("e", 0)])
        ((0, 2), (0, 0))
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
        return self.canonical_a_word(tuple(a_word)), tuple(e_word)

    def mon_mul(self, m1: tuple, m2: tuple) -> tuple:
        """Product of canonical monomials (again a single monomial)."""
        a1, e1 = m1
        a2, e2 = m2
        if not a2:  # a1 is canonical already
            return a1, e1 + e2
        if e1:
            conj = self._conj
            for y in a2:  # e1 is not empty, so a table hit is truthy
                e1 = conj[y].get(e1) or self._conjugate(e1, y)
        elif not a1:
            return m2
        a = a1 + a2  # not empty, so a memo hit is truthy
        return self._canon.get(a) or self.canonical_a_word(a), e1 + e2

    def _conjugate(self, e, y):
        # e <| y letter by letter (t -> t <| y), on a miss of the table _conj[y]
        c = self._conj[y][e] = tuple(map(self.rack.right[y].__getitem__, e))
        return c

    # -- element constructors ------------------------------------------------

    def zero(self):
        return BElement(self, {})

    def one(self):
        return BElement(self, {EMPTY: 1})

    def gen(self, x):
        """The group-like generator of a rack element."""
        return BElement(self, {(self._in_range((x,)), ()): 1})

    def gen_e(self, x):
        return BElement(self, {((), self._in_range((x,))): 1})

    def element(self, terms):
        out = {}
        for m, c in terms.items():
            _acc(out, self.monomial(*m), c)
        return BElement(self, out)

    def eword(self, e_word):
        return BElement._of(self, {((), self._in_range(tuple(e_word))): 1})

    def tensor(self, terms):
        return TensorElement(self, dict(terms))

    # -- algebra / coalgebra maps --------------------------------------------

    def multiply(self, u: BElement, v: BElement) -> BElement:
        u._check(v)
        out = {}
        get = out.get
        mon_mul = self.mon_mul
        for m1, c1 in u.terms.items():
            for m2, c2 in v.terms.items():
                k = mon_mul(m1, m2)
                out[k] = c = get(k, 0) + c1 * c2
                if not c:
                    del out[k]
        return BElement._of(self, out)

    def _d_mono(self, m):
        # d of one monomial as {monomial: coeff}, from the table; read only
        memo = self._d_memo
        t = memo.get(m)
        if t is not None:
            return t
        t = {}
        face = self.face_monomial
        for i in range(1, len(m[1]) + 1):
            s = -1 if i % 2 == 0 else 1
            _acc(t, face(m, i, 0), s)
            _acc(t, face(m, i, 1), -s)
        memo[m] = t
        return t

    def d(self, u: BElement) -> BElement:
        """Degree -1 super-derivation: d(e[x]) = 1 - x on each e-letter."""
        out = {}
        get = out.get
        d_mono = self._d_mono
        for m, c in u.terms.items():
            for k, dc in d_mono(m).items():
                out[k] = v = get(k, 0) + c * dc
                if not v:
                    del out[k]
        return BElement._of(self, out)

    def _delta_eword(self, e):
        memo = self._delta_memo
        t = memo.get(e)
        if t is not None:
            return t
        if not e:
            t = {(EMPTY, EMPTY): 1}
        else:
            x = e[-1]
            gen = {(((), (x,)), ((x,), ())): 1, (EMPTY, ((), (x,))): 1}
            t = self._tensor_mul_raw(self._delta_eword(e[:-1]), gen)
        memo[e] = t
        return t

    def _apply_prefix(self, a_word, tensor_terms, coeff, out):
        # diagonal action of a group-like prefix: a.(u (x) v) = au (x) av,
        # where a.(b, e) is (canonical ab, e), and (a, e) when b is empty
        get = out.get
        canon, canonical = self._canon, self.canonical_a_word
        for k, tc in tensor_terms.items():
            if a_word:
                (la, le), (ra, re) = k
                la = canon.get(a_word + la) or canonical(a_word + la) if la else a_word
                ra = canon.get(a_word + ra) or canonical(a_word + ra) if ra else a_word
                k = ((la, le), (ra, re))
            out[k] = c = get(k, 0) + coeff * tc
            if not c:
                del out[k]

    def coproduct(self, u: BElement) -> TensorElement:
        out = {}
        for (a, e), c in u.terms.items():
            self._apply_prefix(a, self._delta_eword(e), c, out)
        return TensorElement._of(self, out)

    def _tensor_mul_raw(self, t1, t2):
        out = {}
        get = out.get
        mon_mul = self.mon_mul
        for (l1, r1), c1 in t1.items():
            odd = len(r1[1]) & 1
            for (l2, r2), c2 in t2.items():
                k = (mon_mul(l1, l2), mon_mul(r1, r2))
                out[k] = c = get(k, 0) + (-c1 * c2 if odd and len(l2[1]) & 1 else c1 * c2)
                if not c:
                    del out[k]
        return out

    def tensor_multiply(self, t1: TensorElement, t2: TensorElement) -> TensorElement:
        return TensorElement._of(self, self._tensor_mul_raw(t1.terms, t2.terms))

    def tensor_flip(self, t: TensorElement) -> TensorElement:
        return TensorElement._of(self, _flip_raw(t.terms))

    def tensor_d(self, t: TensorElement) -> TensorElement:
        """d (x) 1 + 1 (x) d with the Koszul sign on the second summand."""
        out = {}
        get = out.get
        d_mono = self._d_mono
        for (l, r), c in t.terms.items():
            for lm, lc in d_mono(l).items():
                k = (lm, r)
                out[k] = v = get(k, 0) + c * lc
                if not v:
                    del out[k]
            s = -c if len(l[1]) & 1 else c
            for rm, rc in d_mono(r).items():
                k = (l, rm)
                out[k] = v = get(k, 0) + s * rc
                if not v:
                    del out[k]
        return TensorElement._of(self, out)

    # -- face maps ------------------------------------------------------------

    def face_monomial(self, m: tuple, i: int, eps: int) -> tuple:
        """Face map on e-positions, on canonical monomials.

        ``eps=0`` deletes e-position ``i`` (1-based); ``eps=1`` deletes it,
        conjugates every e-letter to its left by the deleted letter, and
        appends the deleted letter to the group-like prefix.
        """
        a, e = m
        if not 1 <= i <= len(e):
            raise IndexOutOfRange(f"face index {i} for degree {len(e)}")
        j = i - 1
        if eps == 0:
            return a, e[:j] + e[i:]
        x, head = e[j], e[:j]
        return (self.canonical_a_word(a + (x,)) if a else (x,),
                (self._conj[x].get(head) or self._conjugate(head, x)) + e[i:])

    def face_set(self, m: tuple, indices, eps: int) -> tuple:
        """Composite face over an index set, largest index first.

        The value does not depend on the application order (the face maps
        satisfy the cube-set exchange identities); largest-first keeps the
        original indices valid.
        """
        for i in sorted(indices, reverse=True):
            m = self.face_monomial(m, i, eps)
        return m

    # -- homotopy ---------------------------------------------------------------

    def _h_eword(self, e):
        memo = self._h_memo
        t = memo.get(e)
        if t is not None:
            return t
        if not e:
            t = {}
        elif len(e) == 1:
            t = {(((), e), ((), e)): 1}
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
        for (a, e), c in u.terms.items():
            self._apply_prefix(a, self._h_eword(e), c, out)
        return TensorElement._of(self, out)

    def homotopy_defect(self, u: BElement) -> TensorElement:
        """(d o h + h o d - coproduct + flipped coproduct)(u); zero on all of B."""
        out = self.tensor_d(self.h(u)).terms  # a fresh result's own dict
        for k, c in self.h(self.d(u)).terms.items():
            _acc(out, k, c)
        for (l, r), c in self.coproduct(u).terms.items():
            _acc(out, (l, r), -c)
            _acc(out, (r, l), -c if len(l[1]) & len(r[1]) & 1 else c)
        return TensorElement._of(self, out)

    # -- quandle quotient ---------------------------------------------------------

    def quandle_project(self, u: BElement) -> BElement:
        """Quotient by the ideal of squares of e-letters.

        In canonical form the ideal is spanned by the monomials whose e-word
        has an adjacent equal pair (group letters pass an adjacent pair
        without separating it), so projection just deletes those monomials.
        """
        if not self.rack.is_quandle():
            raise NotAQuandle(f"{self.rack.label} is not a quandle")
        return BElement._of(self, {m: c for m, c in u.terms.items() if no_adjacent_equal(m[1])})

    def quandle_project_tensor(self, t: TensorElement) -> TensorElement:
        if not self.rack.is_quandle():
            raise NotAQuandle(f"{self.rack.label} is not a quandle")
        return TensorElement._of(self, {(l, r): c for (l, r), c in t.terms.items()
                                        if no_adjacent_equal(l[1]) and no_adjacent_equal(r[1])})

    # -- rendering ----------------------------------------------------------------

    @staticmethod
    def format_monomial(m: tuple) -> str:
        a, e = m
        if not a and not e:
            return "1"
        return " ".join([str(x) for x in a] + [f"e[{x}]" for x in e])

    def format_element(self, u) -> str:
        """An element of B or of B (x) B as text, its terms in degree order;
        the factors of a term of B (x) B are joined by ``(x)``."""
        if not u.terms:
            return "0"
        terms = u.terms.items()
        if isinstance(u, BElement):  # a term of B is keyed by one monomial
            terms = [((m,), c) for m, c in terms]
        bits = []
        for key, c in sorted(terms, key=_sort_key):
            mono = " (x) ".join(map(self.format_monomial, key))
            bits += ["-" if c < 0 else "+", mono if abs(c) == 1 else f"{abs(c)}*{mono}"]
        return ("-" if bits[0] == "-" else "") + " ".join(bits[1:])
