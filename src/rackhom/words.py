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
canonical a-word, then the e-word.  An algebra gives each monomial it
meets an int id; its elements key their terms by ids (pairs in B (x) B),
and their ``terms`` by monomials, built when read.  Group letters
conjugate e-letters through ``Rack.right``.  This module reads nothing of
the matrix side: ``d`` takes its faces from ``face_monomial``, independent
of the face table that the boundary grows from, so that
``project_to_chain(d(e_T)) == -bd(T)`` compares two codes.  Elements of B
and of B (x) B share one arithmetic base class.

Coefficients are exact (int by default, Fraction accepted); there is no
floating point, and an element combines only with its own kind.
"""

from __future__ import annotations

import operator
import sys
from collections import defaultdict

from .errors import (
    IndexOutOfRange,
    NotAQuandle,
    OrbitLimitExceeded,
    RackMismatch,
)
from .racks import Rack


EMPTY = ((), ())  # the unit monomial, id 0 in every algebra

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


def _flip(t, odd):
    # the signed flip on {(left id, right id): coeff}; odd[id] is the e-word's parity
    return {(r, l): -c if odd[l] & odd[r] else c for (l, r), c in t.items()}


def _sort_key(term):
    return [(len(e), e, len(a), a) for a, e in term[0]]


def _scalar(c):
    # int or Fraction; a Fraction exists only once fractions is imported
    return isinstance(c, int) or "fractions" in sys.modules and isinstance(
        c, sys.modules["fractions"].Fraction)


class _Element:
    """The arithmetic of elements of B and of B (x) B; a subclass supplies
    ``_rekey``.  ``_t`` holds the nonzero terms by id.
    Elements over one rack combine, over different racks they do not."""

    __slots__ = ("algebra", "_t")

    def __init__(self, algebra, t):
        self.algebra, self._t = algebra, t

    @property
    def terms(self):  # keyed by monomials, a fresh dict
        return self._rekey(self.algebra._mons.__getitem__)

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        out = dict(self._t)
        for k, c in self.algebra._own(other).items():
            _acc(out, k, c)
        return type(self)(self.algebra, out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return type(self)(self.algebra, {k: -c for k, c in self._t.items()})

    def __mul__(self, other):
        if type(other) is type(self):  # the algebra's product of B or of B (x) B
            W = self.algebra
            return (W.multiply if type(self) is BElement else W.tensor_multiply)(self, other)
        if not _scalar(other):
            return NotImplemented
        return type(self)(self.algebra, {k: c * other for k, c in self._t.items()} if other else {})

    __rmul__ = __mul__

    def __eq__(self, other):  # by ids within one algebra, by monomials across two
        return isinstance(other, type(self)) and (
            self._t == other._t if self.algebra is other.algebra else
            self.algebra.rack == other.algebra.rack and self.terms == other.terms)

    def __bool__(self):
        return bool(self._t)

    def __repr__(self):
        return self.algebra.format_element(self)


class BElement(_Element):
    """Finitely supported integer (or rational) combination of monomials."""

    __slots__ = ()

    def _rekey(self, f):
        return {f(i): c for i, c in self._t.items()}

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def degrees(self):
        return sorted({len(self.algebra._mons[i][1]) for i in self._t})


class TensorElement(_Element):
    """Finitely supported combination of monomial pairs in B (x) B."""

    __slots__ = ()

    def _rekey(self, f):
        return {(f(l), f(r)): c for (l, r), c in self._t.items()}


class WordAlgebra:
    """All structure maps of the bialgebra of a fixed rack.

    A single instance owns every memo, none of them global: the
    canonicalization memo; the conjugation table ``_conj[y]`` (e-word to its
    conjugate by the letter y); the monomial ids (``_mons`` id to monomial,
    ``_ids`` back, ``_odd`` each id's e-word parity, ``_flat`` whether it has
    no adjacent equal e-letters); the product table ``_prod[i][j]``, the id
    of the product of ids i and j, filled through ``mon_mul``; ``_split``,
    each id's prefix and e-word ids; and by id the tables of ``d`` on
    monomials and of the coproduct and homotopy of pure e-words.  A
    ``CupContext`` or a verify suite builds one instance per rack, so the
    memos live as long as it does.  Memo values are read, never handed out:
    every result is a fresh element.  Ids are given without a lock, so an
    instance belongs to one thread.
    """

    def __init__(self, rack: Rack):
        self.rack = rack
        self._canon: dict[tuple, tuple] = {}
        self._conj: list[dict] = [{} for _ in range(rack.size)]
        self._mons: list[tuple] = [EMPTY]
        self._ids: dict[tuple, int] = {EMPTY: 0}
        self._odd: list[int] = [0]
        self._flat: list[bool] = []
        self._prod: defaultdict[int, dict] = defaultdict(dict)
        self._split: dict[int, tuple] = {}
        self._d_memo: dict[int, dict] = {}
        self._delta_memo: dict[int, dict] = {}
        self._h_memo: dict[int, dict] = {}

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

    # -- monomial ids and element constructors ------------------------------

    def _id(self, m):
        """The id of the canonical monomial ``m``, given on first sight."""
        i = self._ids.get(m)
        if i is None:
            i = self._ids[m] = len(self._mons)
            self._mons.append(m)
            self._odd.append(len(m[1]) & 1)
        return i

    def _checked_id(self, m):
        # the id of (a, e), canonicalized and range-checked unless it has one
        i = self._ids.get(m)
        return self._id(self.monomial(*m)) if i is None else i

    def _mul(self, i, j):
        # the product table's entry (i, j), filled through ``mon_mul`` on a miss
        row = self._prod[i]
        k = row.get(j)
        if k is None:
            k = row[j] = self._id(self.mon_mul(self._mons[i], self._mons[j]))
        return k

    def _own(self, x):
        """The terms of the element ``x`` keyed by this algebra's ids."""
        if x.algebra is self:
            return x._t
        if x.algebra.rack != self.rack:
            raise RackMismatch("elements over different racks")
        return x._rekey(lambda i: self._id(x.algebra._mons[i]))

    def zero(self):
        return BElement(self, {})

    def one(self):
        return BElement(self, {0: 1})

    def gen(self, x):
        """The group-like generator of a rack element."""
        return BElement(self, {self._id((self._in_range((x,)), ())): 1})

    def gen_e(self, x):
        return self.eword((x,))

    def element(self, terms):
        out = {}
        for m, c in terms.items():
            _acc(out, self._checked_id(m), c)
        return BElement(self, out)

    def eword(self, e_word):
        return BElement(self, {self._id(((), self._in_range(tuple(e_word)))): 1})

    def tensor(self, terms):
        out = {}
        for (l, r), c in terms.items():
            _acc(out, (self._checked_id(l), self._checked_id(r)), c)
        return TensorElement(self, out)

    # -- algebra / coalgebra maps --------------------------------------------

    def multiply(self, u: BElement, v: BElement) -> BElement:
        out = {}
        get = out.get
        prod, mul, t2 = self._prod, self._mul, self._own(v)
        for i, c1 in self._own(u).items():
            row = prod[i]
            for j, c2 in t2.items():
                k = row[j] if j in row else mul(i, j)
                out[k] = c = get(k, 0) + c1 * c2
                if not c:
                    del out[k]
        return BElement(self, out)

    def _d_mono(self, i):
        # d of monomial i as {id: coeff}, from the table; read only
        t = self._d_memo.get(i)
        if t is None:
            t, m, face, intern = {}, self._mons[i], self.face_monomial, self._id
            for k in range(1, len(m[1]) + 1):
                s = -1 if k % 2 == 0 else 1
                _acc(t, intern(face(m, k, 0)), s)
                _acc(t, intern(face(m, k, 1)), -s)
            self._d_memo[i] = t
        return t

    def d(self, u: BElement) -> BElement:
        """Degree -1 super-derivation: d(e[x]) = 1 - x on each e-letter."""
        out = {}
        get = out.get
        d_mono = self._d_mono
        for i, c in self._own(u).items():
            for k, dc in d_mono(i).items():
                out[k] = v = get(k, 0) + c * dc
                if not v:
                    del out[k]
        return BElement(self, out)

    def _delta_eword(self, i):
        # the coproduct of the pure e-word with id i, from the table; read only
        t = self._delta_memo.get(i)
        if t is None:
            e, intern = self._mons[i][1], self._id
            t = {(0, 0): 1}
            if e:  # Delta(e[:-1]) (e[x] (x) x + 1 (x) e[x]), x the last letter
                ex = intern(((), e[-1:]))
                gen = {(ex, intern((e[-1:], ()))): 1, (0, ex): 1}
                t = self._tensor_mul(self._delta_eword(intern(((), e[:-1]))), gen)
            self._delta_memo[i] = t
        return t

    def _apply_prefix(self, pa, tensor_terms, coeff, out):
        # diagonal action of the group-like prefix pa: a.(u (x) v) = au (x) av
        get = out.get
        row, mul = self._prod[pa], self._mul
        for k, tc in tensor_terms.items():
            if pa:
                l, r = k
                try:
                    k = row[l], row[r]
                except KeyError:
                    k = mul(pa, l), mul(pa, r)
            out[k] = c = get(k, 0) + coeff * tc
            if not c:
                del out[k]

    def _prefixed(self, eword_map, u):
        # eword_map of each term's e-word id, moved by the term's prefix
        out, split = {}, self._split
        for i, c in self._own(u).items():
            s = split.get(i)
            if s is None:  # the ids of the prefix (a, ()) and the e-word ((), e)
                a, e = self._mons[i]
                s = split[i] = self._id((a, ())), self._id(((), e))
            self._apply_prefix(s[0], eword_map(s[1]), c, out)
        return TensorElement(self, out)

    def coproduct(self, u: BElement) -> TensorElement:
        return self._prefixed(self._delta_eword, u)

    def _tensor_mul(self, t1, t2):
        out = {}
        get = out.get
        prod, mul, odd = self._prod, self._mul, self._odd
        for (l1, r1), c1 in t1.items():
            row_l, row_r, odd_r = prod[l1], prod[r1], odd[r1]
            for (l2, r2), c2 in t2.items():
                try:
                    k = row_l[l2], row_r[r2]
                except KeyError:
                    k = mul(l1, l2), mul(r1, r2)
                out[k] = c = get(k, 0) + (-c1 * c2 if odd_r & odd[l2] else c1 * c2)
                if not c:
                    del out[k]
        return out

    def tensor_multiply(self, t1: TensorElement, t2: TensorElement) -> TensorElement:
        return TensorElement(self, self._tensor_mul(self._own(t1), self._own(t2)))

    def tensor_flip(self, t: TensorElement) -> TensorElement:
        return TensorElement(self, _flip(self._own(t), self._odd))

    def tensor_d(self, t: TensorElement) -> TensorElement:
        """d (x) 1 + 1 (x) d with the Koszul sign on the second summand."""
        out = {}
        get = out.get
        d_mono, odd = self._d_mono, self._odd
        for (l, r), c in self._own(t).items():
            for lm, lc in d_mono(l).items():
                k = (lm, r)
                out[k] = v = get(k, 0) + c * lc
                if not v:
                    del out[k]
            s = -c if odd[l] else c
            for rm, rc in d_mono(r).items():
                k = (l, rm)
                out[k] = v = get(k, 0) + s * rc
                if not v:
                    del out[k]
        return TensorElement(self, out)

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
        if eps != 1:
            raise IndexOutOfRange(f"face sign {eps} is not 0 or 1")
        x, head = e[j], e[:j]  # a + (x,) is not empty, so a memo hit is truthy
        return (self._canon.get(a + (x,)) or self.canonical_a_word(a + (x,)) if a else (x,),
                (self._conj[x].get(head) or self._conjugate(head, x)) + e[i:])

    def face_set(self, m: tuple, indices, eps: int) -> tuple:
        """Composite face over an index set, largest index first.

        The value does not depend on the application order (the face maps
        satisfy the cube-set exchange identities); largest-first keeps the
        original indices valid.  A repeated index, and a sign other than 0
        or 1, are refused.
        """
        if eps != 0 and eps != 1:
            raise IndexOutOfRange(f"face sign {eps} is not 0 or 1")
        last = None
        for i in sorted(indices, reverse=True):
            if i == last:
                raise IndexOutOfRange(f"face index {i} repeated")
            m, last = self.face_monomial(m, i, eps), i
        return m

    # -- homotopy ---------------------------------------------------------------

    def _h_eword(self, i):
        # the homotopy of the pure e-word with id i, from the table; read only
        t = self._h_memo.get(i)
        if t is None:
            e = self._mons[i][1]
            t = {(i, i): 1} if e else {}
            if len(e) > 1:
                head, rest = self._id(((), e[:1])), self._id(((), e[1:]))
                t = self._tensor_mul(self._h_eword(head), self._delta_eword(rest))
                flipped = _flip(self._delta_eword(head), self._odd)
                for k, c in self._tensor_mul(flipped, self._h_eword(rest)).items():
                    _acc(t, k, -c)
            self._h_memo[i] = t
        return t

    def h(self, u: BElement) -> TensorElement:
        """Degree +1 homotopy: h(e[x]) = e[x] (x) e[x], extended by
        h(ab) = h(a) Delta(b) + (-1)^{|a|} (tau Delta)(a) h(b) and by the
        diagonal action on group-like prefixes."""
        return self._prefixed(self._h_eword, u)

    def homotopy_defect(self, u: BElement) -> TensorElement:
        """(d o h + h o d - coproduct + flipped coproduct)(u); zero on all of B."""
        out = self.tensor_d(self.h(u))._t  # a fresh result's own dict
        for k, c in self.h(self.d(u))._t.items():
            _acc(out, k, c)
        delta = self.coproduct(u)._t
        for k, c in delta.items():
            _acc(out, k, -c)
        for k, c in _flip(delta, self._odd).items():
            _acc(out, k, c)
        return TensorElement(self, out)

    # -- quandle quotient ---------------------------------------------------------

    def _square_free(self):
        # per id, whether its e-word has no adjacent equal pair, up to the last id
        if not self.rack.is_quandle():
            raise NotAQuandle(f"{self.rack.label} is not a quandle")
        flat = self._flat
        flat += [no_adjacent_equal(e) for _, e in self._mons[len(flat):]]
        return flat

    def quandle_project(self, u: BElement) -> BElement:
        """Quotient by the ideal of squares of e-letters.

        In canonical form the ideal is spanned by the monomials whose e-word
        has an adjacent equal pair (group letters pass an adjacent pair
        without separating it), so projection just deletes those monomials.
        """
        t, keep = self._own(u), self._square_free()  # in this order: _own may give ids
        return BElement(self, {i: c for i, c in t.items() if keep[i]})

    def quandle_project_tensor(self, t: TensorElement) -> TensorElement:
        t, keep = self._own(t), self._square_free()
        return TensorElement(self, {(l, r): c for (l, r), c in t.items() if keep[l] and keep[r]})

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
        if not u:
            return "0"
        terms = u.terms.items()
        if isinstance(u, BElement):  # a term of B is keyed by one monomial
            terms = [((m,), c) for m, c in terms]
        bits = []
        for key, c in sorted(terms, key=_sort_key):
            mono = " (x) ".join(map(self.format_monomial, key))
            bits += ["-" if c < 0 else "+", mono if abs(c) == 1 else f"{abs(c)}*{mono}"]
        return ("-" if bits[0] == "-" else "") + " ".join(bits[1:])
