"""Rack and quandle chain/cochain complexes as explicit exact matrices.

Bases are tuples over the rack, enumerated in mixed-radix order with the
last coordinate varying fastest; the quandle variant keeps exactly the
tuples with no adjacent equal entries.  Degree 0 is one empty tuple.

Faces are read from one face table, ``_shifts``: per degree, the index of
each tuple grown by one entry at its last position, and of each tuple moved
by ``<| x``.  ``_boundary`` grows d_n from d_{n-1} by it, and
``CupContext.stencil`` the closed formula's terms likewise:

    bd(x_1..x_n) = sum_i (-1)^i [ delete_i - delete_i-with-conjugation ].

This is the one face code of the matrix side.  The word engine keeps the
other, its face maps on monomials (``WordAlgebra.face_monomial``), on
purpose: the check ``project_to_chain(d(e_T)) == -bd(T)`` compares two
independent codes, and the ``coproduct`` suite compares the cup's stencil
with the word engine's coproduct.

Everything else derives from that matrix.  The cochain differential is

    d*^p = (-1)^{p+1} bd_{p+1}^T,

which is precomposition with the word-engine differential ``d`` times the
Koszul dualization sign (-1)^p: projecting ``d`` to chains gives exactly
``-bd``.  The sign makes d* a super-derivation for the cup product in the
standard form  d*(f.g) = d*f.g + (-1)^{|f|} f.d*g;  without it the law
holds only in a twisted form.  Transposition and per-degree signs change
no rank and no invariant factor, so cohomology is read from the same
reductions of the boundary matrices as homology
(``linalg.ChainComplex.cohomology``).

The matrix builders take no ring: a matrix holds the integers of the
complex, which the reductions of :mod:`rackhom.linalg` read in any ring.
A cochain holds plain ints in its ring, reduced mod p over F_p;
``cochain_differential_matrix`` is the one coboundary builder.  A chain
is the list of ints that ``project_to_chain`` returns, over Z.

Coefficients: trivial (``None``, the one-point action) or the permutation
module of a validated rack-set, a ``racks.XSet``.  ``right_action`` turns
either into the right-action table that ``_boundary`` reads, and refuses a
set over another rack; ``boundary_matrix`` and
``cochain_differential_matrix`` read that one table.  A chain's point moves
by the right action ``XSet.right``; a cochain's value moves by its inverse
``XSet.left``, which is what transposing the same boundary gives.

``RackComplex`` reduces the rack or quandle complex one orbit block at a
time: d_n keeps the orbit of a rack-set coefficient point.  With trivial
coefficients the rack complex's d_n keeps the orbit O of x_1, its block
being -d_{n-1}(X; Z[O]), so a one-point orbit is read from the degree
below; the trivial quandle complex is reduced whole, at the same degree.
Orbits isomorphic as rack-sets are reduced once.
"""

from __future__ import annotations

import functools
import itertools

from .errors import (
    CoefficientMismatch,
    DimensionOverflow,
    IndexOutOfRange,
    MixedDegrees,
    NotAQuandle,
    ShapeError,
)
from .linalg import ChainComplex, SparseMat, direct_sum
from .racks import Rack, XSet, orbits
from .records import Frozen, Record

DEFAULT_MAX_BASIS = 200_000


class TupleBasis(Frozen):
    """Ordered basis of degree-``n`` chains (rack or quandle variant)."""

    _fields = ("tuples",)

    def __init__(self, tuples: tuple[tuple[int, ...], ...]):
        object.__setattr__(self, "tuples", tuples)

    def __len__(self):
        return len(self.tuples)

    @functools.cached_property
    def index(self):
        """Position of each tuple; built on first read and cached on the
        instance, outside equality and hashing (the face table needs no index)."""
        return {t: i for i, t in enumerate(self.tuples)}


def tuple_basis(rack: Rack, n: int, quandle: bool = False,
                max_basis: int = DEFAULT_MAX_BASIS) -> TupleBasis:
    if n < 0:
        raise IndexOutOfRange("degree must be >= 0")
    if quandle and not rack.is_quandle():
        raise NotAQuandle(f"{rack.label} is not a quandle")
    _check_cap(rack, n, quandle, 1, max_basis)
    if quandle and n:
        # extend one position at a time past the entries equal to the last:
        # lexicographic order, with no degenerate tuple ever made
        others = [tuple(x for x in range(rack.size) if x != y) for y in range(rack.size)]
        tuples = [(x,) for x in range(rack.size)]
        for _ in range(n - 1):
            tuples = [t + (x,) for t in tuples for x in others[t[-1]]]
        tuples = tuple(tuples)
    else:
        tuples = tuple(itertools.product(range(rack.size), repeat=n))
    return TupleBasis(tuples)


def _tuples(rack: Rack, n: int, quandle: bool) -> int:
    # the quandle basis drops every tuple with an adjacent equal pair
    return rack.size * (rack.size - 1) ** (n - 1) if quandle and n else rack.size ** n


def _check_cap(rack: Rack, n: int, quandle: bool, dim: int, max_basis: int):
    """Refuse a degree-``n`` basis over ``max_basis`` tuples, then its
    columns with ``dim`` coefficient points over ``max_basis`` columns."""
    count = _tuples(rack, n, quandle)
    if count > max_basis:
        raise DimensionOverflow(
            f"basis of degree {n} over size-{rack.size} rack exceeds cap {max_basis}"
        )
    if count * dim > max_basis:
        raise DimensionOverflow(f"degree-{n} boundary has {count * dim} columns "
                                f"({count} tuples x {dim} points), over the cap {max_basis}")


# ---------------------------------------------------------------------------
# Coefficients


def right_action(rack: Rack, xset: XSet | None):
    """The right-action table that ``_boundary`` reads for coefficients in
    ``xset`` (``None`` means trivial coefficients, the one-point action):
    ``right[x][y]`` is the point ``y`` moved by ``x``, and ``len(right[0])``
    is the number of points.  Refuses a rack-set over another rack."""
    if xset is None:
        return ((0,),) * rack.size
    if xset.over != rack:
        raise CoefficientMismatch(f"rack-set {xset.label} is over a different rack")
    return xset.right


# ---------------------------------------------------------------------------
# Chains, cochains, boundary matrices


class Cochain(Record):
    """Cochain values, flattened as ``tuple_index * |Y| + point`` with
    rack-set coefficients: the value at ``i`` is ``values[i] / den``, an
    int over a positive ``den`` that is 1 unless the ring is Q, and a
    residue over F_p."""

    __slots__ = _fields = ("degree", "ring", "values", "quandle", "module", "den")

    def __init__(self, degree: int, ring, values: list, quandle: bool = False,
                 module: XSet | None = None, den: int = 1):
        self.degree = degree
        self.ring = ring
        self.values = values
        self.quandle = quandle
        self.module = module
        self.den = den


def basis_cochain(rack: Rack, p: int, ring, t, j=0, quandle=False, module=None) -> Cochain:
    """Indicator cochain of a basis tuple (and module basis index)."""
    mdim = len(right_action(rack, module)[0])
    basis = tuple_basis(rack, p, quandle)
    idx = basis.index.get(tuple(t))
    if idx is None or not 0 <= j < mdim:
        raise IndexOutOfRange(f"no basis cochain at tuple {tuple(t)}, module index {j}")
    values = [0] * (len(basis) * mdim)
    values[idx * mdim + j] = 1
    return Cochain(p, ring, values, quandle, module)


def _shifts(rack: Rack, n: int, quandle: bool):
    """The face table: index maps on the :func:`tuple_basis` order of each
    degree ``k < n``.  ``grow[k][i][x]`` is the index of tuple ``i`` +
    ``(x,)``, None when it is degenerate; ``conj[k][i][x]`` that of tuple
    ``i`` with each entry ``y`` moved to ``y <| x``, by the rule
    (t + (y,)) <| x = (t <| x) + (y <| x)."""
    s, right = rack.size, rack.right
    grow, conj = [], [[(0,) * s]]
    last = [None]  # the last entry of each tuple of the degree
    for k in range(n):
        count = itertools.count()
        g = [tuple([None if quandle and x == end else next(count) for x in range(s)])
             for end in last]
        grow.append(g)
        last = [x for end in last for x in range(s) if not (quandle and x == end)]
        if k + 1 < n:
            conj.append([tuple([g[c[x]][rx[y]] for x, rx in enumerate(right)])
                         for row, c in zip(g, conj[k]) for y, j in enumerate(row)
                         if j is not None])
    return grow, conj


def _boundary(rack: Rack, n: int, quandle: bool, right, max_basis: int) -> SparseMat:
    """The degree-``n`` boundary with coefficients in a permutation module;
    ``right[x][y]`` is the point ``y`` moved by the right action of ``x``
    (trivial coefficients are the one-point action ``((0,),) * size``).

    Grown from d_0 = 0 by the face table (:func:`_shifts`):

        d_{k+1}(t + (x,)) = d_k(t) + (x,) + (-1)^{k+1} (t - t <| x),

    the point moving by x on the last term, a row grown into a degenerate
    tuple dropped.  Faces that cancel keep their row's place as a zero entry
    up to degree ``n``, so every column keeps the key order of its faces
    taken one by one, by which ``_eliminate_pivots`` breaks ties."""
    if n < 1:
        raise IndexOutOfRange("boundary defined for degree >= 1")
    if quandle and not rack.is_quandle():
        raise NotAQuandle(f"{rack.label} is not a quandle")
    dim = len(right[0])
    _check_cap(rack, n, quandle, dim, max_basis)
    grow, conj = _shifts(rack, n, quandle)
    points = range(dim)
    cols = [{}] * dim  # d_0 on the one empty tuple
    for k in range(n):
        sign = 1 if k & 1 else -1  # (-1)^(k+1)
        # per x, the row of d_{k+1} that each row of d_k grows into
        ups = [[None if g[x] is None else g[x] * dim + y for g in grow[k - 1] for y in points]
               for x in range(rack.size)] if k else [()] * rack.size
        grown = []
        for i, (g, c) in enumerate(zip(grow[k], conj[k])):
            base = i * dim
            for x, up in enumerate(ups):
                if g[x] is not None:
                    for y in points:
                        col = {u: v for r, v in cols[base + y].items() if (u := up[r]) is not None}
                        a, b = base + y, c[x] * dim + right[x][y]
                        col[a] = col.get(a, 0) + sign
                        col[b] = col.get(b, 0) - sign
                        grown.append(col if k + 1 < n else {r: v for r, v in col.items() if v})
            cols[base : base + dim] = [None] * dim  # read for the last time
        cols = grown
    return SparseMat(len(grow[n - 1]) * dim, len(cols), cols)


def boundary_matrix(rack: Rack, n: int, *, quandle: bool = False,
                    xset: XSet | None = None,
                    max_basis: int = DEFAULT_MAX_BASIS) -> SparseMat:
    """Integer matrix of the degree-``n`` boundary on the chosen basis.

    Columns are indexed by the degree-``n`` basis, rows by degree ``n-1``.
    With rack-set coefficients the bases are (basis tuple, point) pairs
    flattened as ``tuple_index * |Y| + point`` and the conjugating faces
    move the point by the right action.  The quandle variant is the induced
    map on the non-degenerate basis (degenerate images are dropped).
    ``max_basis`` caps the columns: tuples times points.
    """
    return _boundary(rack, n, quandle, right_action(rack, xset), max_basis)


def cochain_differential_matrix(rack: Rack, p: int, *, quandle: bool = False,
                                module: XSet | None = None,
                                max_basis: int = DEFAULT_MAX_BASIS) -> SparseMat:
    """Integer matrix of the degree-``p`` cochain differential C^p -> C^{p+1}:
    (-1)^{p+1} times the transpose of the degree-``p+1`` boundary.

    On tuples this is
      (d*f)(t) = (-1)^p sum_i (-1)^{i+1} [ f(delete_i t)
                                           - x_i . f(conjugate-delete_i t) ]
    where ``x_i .`` is the left action of ``module`` (trivial when it is
    ``None``).  The leading (-1)^p is the dualization sign (see the module
    docstring).
    """
    mat = _boundary(rack, p + 1, quandle, right_action(rack, module), max_basis).transpose()
    return mat.scaled(-1) if p % 2 == 0 else mat


def apply_coboundary(mat: SparseMat, f: Cochain) -> Cochain:
    """``mat``, the :func:`cochain_differential_matrix` of ``f``'s degree,
    variant and module, applied to ``f`` and reduced in ``f``'s ring; the
    result keeps ``f.den``."""
    if len(f.values) != mat.ncols:
        raise CoefficientMismatch("cochain length does not match its basis")
    out = [0] * mat.nrows
    for v, col in zip(f.values, mat.cols):
        if not v:
            continue
        for i, c in col.items():
            out[i] += c * v
    if p := f.ring.char:
        out = [v % p for v in out]
    return Cochain(f.degree + 1, f.ring, out, f.quandle, f.module, f.den)


def cochain_differential(f: Cochain, rack: Rack) -> Cochain:
    """The cochain differential applied to ``f``, through a matrix built for
    this call (``CupContext.differential`` keeps its matrices)."""
    mat = cochain_differential_matrix(rack, f.degree, quandle=f.quandle, module=f.module)
    return apply_coboundary(mat, f)


def project_to_chain(u: BElement, *, xset: XSet | None = None, y: int = 0,
                     quandle: bool = False, degree: int | None = None) -> list[int]:
    """Collapse a homogeneous element to the integer vector of a chain.

    Each monomial ``a . e_word`` lands on the basis tuple of its e-word.
    With trivial coefficients the prefix acts trivially; with rack-set
    coefficients the starting point ``y`` is pushed through the prefix by
    the right action, so the result lives in the (tuple, point) basis,
    flattened as ``tuple_index * |Y| + point``.  ``degree`` pins the
    target degree when ``u`` may be zero.
    """
    rack = u.algebra.rack
    degs = u.degrees()
    if len(degs) > 1:
        raise MixedDegrees(f"element has degrees {degs}")
    if degs and degree is not None and degs[0] != degree:
        raise MixedDegrees(f"element has degree {degs[0]}, expected {degree}")
    n = degs[0] if degs else (degree if degree is not None else 0)
    right = right_action(rack, xset)
    ydim = len(right[0])
    basis = tuple_basis(rack, n, quandle)
    if not 0 <= y < ydim:
        raise IndexOutOfRange(f"starting point {y} outside 0..{ydim - 1}")
    values = [0] * (len(basis) * ydim)
    for (prefix, e), c in u.terms.items():
        idx = basis.index.get(e)
        if idx is None:
            continue  # degenerate tuple in the quandle variant
        yy = y
        for a in prefix:
            yy = right[a][yy]
        values[idx * ydim + yy] += c
    return values


# ---------------------------------------------------------------------------
# The rack complex, one orbit block at a time


def _orbit_sets(rack: Rack, xset: XSet | None) -> list[XSet]:
    """The orbits of ``xset``, or of the rack acting on itself by ``<|``
    when it is None, each as a transitive rack-set on its points in
    increasing order."""
    table = rack.table if xset is None else xset.act
    sets = []
    for orbit in orbits(rack if xset is None else xset):
        pos = {y: i for i, y in enumerate(orbit)}
        act = tuple(tuple(pos[z] for z in table[y]) for y in orbit)
        sets.append(XSet(len(orbit), rack, act, f"orbit of {orbit[0]}"))
    return sets


def _maps(a: XSet, b: XSet, image: int) -> bool:
    """Whether ``0 -> image`` extends to a map of rack-sets from ``a``, which
    is transitive, to ``b``: the images are forced along the action."""
    phi = {0: image}
    todo = [0]
    while todo:
        y = todo.pop()
        for z, w in zip(a.act[y], b.act[phi[y]]):
            if z not in phi:
                phi[z] = w
                todo.append(z)
            elif phi[z] != w:
                return False
    return True


def _isomorphic(a: XSet, b: XSet) -> bool:
    """Whether two transitive rack-sets are isomorphic.  A map between them
    is onto (its image is a union of orbits), so one of equal sizes is an
    isomorphism; it is fixed by the image of one point, so each candidate
    costs O(|a| |X|)."""
    return a.size == b.size and any(_maps(a, b, image) for image in range(b.size))


class RackComplex(ChainComplex):
    """The rack complex C_*(X; Z[Y]) through degree ``top``, or its quandle
    quotient when ``quandle``, with trivial coefficients when ``xset`` is
    None, reduced one orbit block at a time: a ``ChainComplex`` whose
    ``reduction(n)`` sums those of its blocks.

    Its boundaries are block-diagonal.  With rack-set coefficients every
    face keeps the orbit of the coefficient point, and the degeneracy test
    reads only the tuple, so d_n is the sum of d_n(X; Z[Q]) over the orbits
    Q of ``xset``.  With trivial coefficients the rack complex's first face
    cancels, and every conjugating face replaces x_1 by x_1 <| x_i, so d_n
    keeps the orbit O of x_1, and its block is -d_{n-1}(X; Z[O]) on Z[O], O
    acting on itself by ``<|`` (x_1 becomes the coefficient point); d_1 is
    0.  Three rules make the blocks cheap:

    - a one-point orbit is the trivial module, and its block the trivial
      complex: for the rack complex, d_{n-1}(X) read from the degree below,
      so that ``trivial:k`` builds no matrix; for the quandle complex, whose
      degeneracy test ties a block by x_1 to x_1, the whole complex at the
      same degree, built and reduced once;
    - orbits that are isomorphic as rack-sets (:func:`_isomorphic`) give
      the same complex, which is built and reduced once, as a
      ``ChainComplex`` of :func:`boundary_matrix`, to the highest degree
      that any of them needs;
    - the blocks' ranks add up and their torsion goes into chain order by
      ``linalg.direct_sum``.

    A block is reduced in the order that :func:`boundary_matrix` builds,
    the point varying fastest; in the whole complex x_1 varies slowest.
    That changes no answer, but the eliminations break ties differently.
    Before any block is built, a non-quandle is refused for the quandle
    complex, then the whole complex's columns over ``max_basis``, degrees
    1..``top`` in order, as :func:`boundary_matrix` refuses them.
    """

    def __init__(self, rack: Rack, ring, top: int, xset: XSet | None = None,
                 max_basis: int = DEFAULT_MAX_BASIS, quandle: bool = False):
        self.ring = ring
        self._dim = len(right_action(rack, xset)[0])
        if quandle and not rack.is_quandle():
            raise NotAQuandle(f"{rack.label} is not a quandle")
        for n in range(1, top + 1):
            _check_cap(rack, n, quandle, self._dim, max_basis)
        self.rack, self.top, self.max_basis, self.quandle = rack, top, max_basis, quandle
        self._classes: list[list] = []  # [transitive set, top degree, its ChainComplex]
        # one block per orbit of the coefficients; a one-point orbit is the trivial
        # complex, None for the rack complex and a class of its own for the quandle
        one = [None, top, None] if quandle else None
        self._blocks = [one] if xset is None else [self._class(q, top) or one
                                                   for q in _orbit_sets(rack, xset)]
        self._trivial = {1: (0, ())}
        if None in self._blocks:
            # the blocks of the trivial rack complex, one per rack orbit, a degree below
            self._orbits = [self._class(o, top - 1) for o in _orbit_sets(rack, None)]

    def _class(self, s: XSet, top: int):
        """The class of rack-sets isomorphic to ``s``, now needed through
        degree ``top``; None for a one-point set."""
        if s.size == 1:
            return None
        for c in self._classes:
            if _isomorphic(c[0], s):
                c[1] = max(c[1], top)
                return c
        self._classes.append(c := [s, top, None])
        return c

    def _block(self, c, n) -> tuple:
        """``(rank, torsion)`` of d_n on the class ``c``, or on the trivial
        rack complex for None; a class's complex is built on first use."""
        if c is None:
            if n not in self._trivial:
                self._trivial[n] = direct_sum([self._block(o, n - 1) for o in self._orbits])
            return self._trivial[n]
        s, top, complex_ = c
        if complex_ is None:
            complex_ = c[2] = ChainComplex({
                m: boundary_matrix(self.rack, m, quandle=self.quandle, xset=s,
                                   max_basis=self.max_basis)
                for m in range(1, top + 1)
            }, self.ring)
        return complex_.reduction(n)

    def reduction(self, n) -> tuple[int, tuple[int, ...]]:
        if not 1 <= n <= self.top:
            raise ShapeError(f"no differential at degree {n}")
        return direct_sum([self._block(c, n) for c in self._blocks])

    def _chains(self, n) -> int:
        return _tuples(self.rack, n, self.quandle) * self._dim
