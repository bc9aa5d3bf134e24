"""Cup product on rack/quandle cochains, its commutativity homotopy, and
cohomology ring structure constants.

Two independent computation paths are kept side by side:

* ``cup`` evaluates the closed formula
      (f.g)(x_1..x_n) = (-1)^{pq} sum_{|A|=q} eps(A)
                        f(delete_A) g(conjugating-delete_{A^c})
  with eps(A) the unshuffle signature times (-1)^{|A||A^c|}, on a stencil
  grown from the face table ``complexes._shifts`` that the boundary reads.
  The stencil is indexed by f's basis tuple, so a product reads only the
  rows of f's nonzero entries and skips a zero value of g before it
  multiplies: a sparse contraction;

* ``cup_via_coproduct`` pairs f (x) g against the word-engine coproduct
  with the homogeneous-evaluation sign (-1)^{|g| |left factor|}.

They must agree exactly (oracle pair; tested, never assumed).  The global
(-1)^{pq} in the closed formula is that evaluation sign: the surviving left
factors all have degree p.

``homotopy_cochain`` pairs f (x) g against the word-engine homotopy,
scaled by (-1)^{p+q+1}, and for cocycles f, g satisfies

    d*(H(f,g)) = f.g - (-1)^{pq} g.f        (exactly)

because the tensor-differential part of the homotopy identity dies on
cocycles.  The scale splits as (-1)^{pq} from pairing against the bare
homotopy (the engine's orientation is d h + h d = Delta - tau Delta) times
(-1)^{p+q-1} compensating the dualization sign in the cochain
differential; at p = q = 1 it reduces to the classical single minus sign.

Coefficients are trivial (``None``) or the permutation module of a
rack-set, a ``racks.XSet``, whose left action ``XSet.left_word`` moves a
value by a prefix word; a set over another rack is refused.  A product of
module-valued cochains lands in ``XSet.tensor``, the product set with the
diagonal action, flattened row-major, built with the product from the
factors' sets; its label names both, so nested products compare equal.

Both products, the homotopy pairing and ``CupContext.differential``
multiply the cochains' stored ints directly.  Over Q a result's ``den`` is
the product of its inputs' ``den``; over F_p it is reduced mod p once.
``ring_structure`` keeps each degree's denominator, and makes Fractions
only for the product coordinates it reports.
"""

from __future__ import annotations

from math import comb

from .complexes import (
    DEFAULT_MAX_BASIS,
    Cochain,
    _shifts,
    apply_coboundary,
    cochain_differential_matrix,
    right_action,
    tuple_basis,
)
from .errors import (
    CoefficientMismatch,
    ContextMismatch,
    DimensionOverflow,
    NotACocycle,
    NotAQuandle,
)
from .linalg import SparseMat, independent, kernel_basis, solve, solve_many
from .racks import Rack, xset_singleton
from .records import Record
from .words import WordAlgebra


class CupContext(Record):
    """Shared data for cup-product computations over one rack in one
    variant, each built on first use and owned by the instance: the word
    algebra, the tuple bases, the face stencils of the closed formula, the
    pairing tables of the coproduct path and the homotopy, and the integer
    coboundary matrices of :meth:`coboundary`.  None of them reads a ring or
    a coefficient set: a cochain carries its own, so one context serves
    cochains over every ring with every pair of rack-sets.
    ``max_basis`` caps every tuple basis, coboundary and stencil the context
    builds.
    Equality reads the three fields; the algebra and the cached data are
    not compared.
    """

    _fields = ("rack", "quandle", "max_basis")
    __slots__ = _fields + ("algebra", "_bases", "_stencils", "_pairings", "_coboundaries")

    def __init__(self, rack: Rack, *, quandle: bool = False, max_basis: int = DEFAULT_MAX_BASIS):
        if quandle and not rack.is_quandle():
            raise NotAQuandle(f"{rack.label} is not a quandle")
        self.rack = rack
        self.quandle = quandle
        self.max_basis = max_basis
        self.algebra = WordAlgebra(rack)
        self._bases = {}
        self._stencils = {}
        self._pairings = {}
        self._coboundaries = {}

    def basis(self, n):
        """The degree-``n`` tuple basis of the context's variant."""
        if n not in self._bases:
            self._bases[n] = tuple_basis(self.rack, n, self.quandle, self.max_basis)
        return self._bases[n]

    def check(self, f: Cochain, g: Cochain):
        if f.quandle != self.quandle or g.quandle != self.quandle:
            raise ContextMismatch("cochain variant does not match context")
        if f.ring is not g.ring:
            raise ContextMismatch("the factors are over different rings")
        for h in (f, g):
            if h.module is not None:
                right_action(self.rack, h.module)  # refuses a set over another rack
            if len(h.values) != len(self.basis(h.degree)) * (h.module.size if h.module else 1):
                raise CoefficientMismatch("cochain length does not match its basis")

    def stencil(self, p, q):
        """The faces of the closed formula, built once per ``(p, q)``, as
        ``(number of degree-(p+q) tuples, rows)``.

        Row ``li`` lists the terms ``(target index, g index, prefix,
        negative)`` of the degree-``p+q`` tuples t and size-``q`` sets A
        whose left factor (t without A) is the degree-``p`` basis tuple
        ``li`` and whose right factor, read by g, is in the basis; the prefix
        acts on g's value, and ``negative`` is eps(A) (-1)^{pq}, the parity
        of the inversions of A before its complement.

        Grown at the last position by the face table ``complexes._shifts``:
        in A, from ``stencil(p, q - 1)``, x appended to the right factor and
        p more inversions; outside A, from ``stencil(p - 1, q)``, x appended
        to the left factor, the right factor moved by ``<| x`` and the
        prefix (x,) + prefix <| x.

        A stencil of more than ``max_basis`` terms is refused before it
        grows: ntargets x C(p + q, q) terms, exact for the rack complex and
        a bound for the quandle one.
        """
        key = (p, q)
        if key not in self._stencils:
            n = p + q
            ntargets = len(self.basis(n))  # refuses a basis over the cap first
            subsets = comb(n, q)
            if ntargets * subsets > self.max_basis:
                raise DimensionOverflow(
                    f"cup stencil of degrees ({p}, {q}) has {ntargets * subsets} terms "
                    f"({ntargets} tuples x {subsets} subsets), over the cap {self.max_basis}")
            grow, conj = _shifts(self.rack, n, self.quandle)
            # stencil(0, 0) is the one term of the empty tuple
            rows = [[] for _ in range(len(self.basis(p)))] if n else [[(0, 0, (), False)]]
            if q:  # the last position in A
                flip = bool(p & 1)
                for li, row in enumerate(self.stencil(p, q - 1)[1]):
                    for t, ri, prefix, negative in row:
                        for tx, rx in zip(grow[n - 1][t], grow[q - 1][ri]):
                            if tx is not None and rx is not None:
                                rows[li].append((tx, rx, prefix, negative != flip))
            if p:  # the last position outside A
                right = self.rack.right
                for li, row in enumerate(self.stencil(p - 1, q)[1]):
                    for t, ri, prefix, negative in row:
                        for x, (tx, lx) in enumerate(zip(grow[n - 1][t], grow[p - 1][li])):
                            if tx is not None and lx is not None:
                                moved = (x,) + tuple([right[x][a] for a in prefix])
                                rows[lx].append((tx, conj[q][ri][x], moved, negative))
            self._stencils[key] = (ntargets, rows)
        return self._stencils[key]

    def pairing(self, structure_map, n, p, q):
        """The bidegree-``(p, q)`` terms of ``structure_map(e_t)``, a row per
        degree-``n`` basis tuple t, for a word-engine map into B (x) B such as
        ``algebra.coproduct``; built once per map and degrees.  A row lists
        ``(f index, f prefix, g index, g prefix, coeff)`` of the terms whose
        e-words are basis tuples: a filter of the map's memo, no larger."""
        key = (structure_map, n, p, q)
        if key not in self._pairings:
            f_index, g_index = self.basis(p).index, self.basis(q).index
            self._pairings[key] = [  # stored whole: a refused basis leaves no table
                [(f_index[fe], fa, g_index[ge], ga, c)
                 for ((fa, fe), (ga, ge)), c in structure_map(self.algebra.eword(t)).terms.items()
                 if fe in f_index and ge in g_index]
                for t in self.basis(n).tuples]
        return self._pairings[key]

    def coboundary(self, p, module=None) -> SparseMat:
        """The integer :func:`~rackhom.complexes.cochain_differential_matrix`
        of d*^p in the context's variant, with coefficients in ``module``, to
        be read in a cochain's ring; built once per degree and module."""
        key = (p, module)
        if key not in self._coboundaries:
            self._coboundaries[key] = cochain_differential_matrix(
                self.rack, p, quandle=self.quandle, module=module, max_basis=self.max_basis)
        return self._coboundaries[key]

    def differential(self, f: Cochain) -> Cochain:
        """The cochain differential of ``f`` in its ring, through :meth:`coboundary`."""
        if f.quandle != self.quandle:
            raise ContextMismatch("cochain variant does not match context")
        return apply_coboundary(self.coboundary(f.degree, f.module), f)


def _value(values, idx, prefix, module, mdim):
    """A cochain's value on ``prefix . e_t``, t its basis tuple ``idx``, as
    a dense module vector (length 1 for trivial coefficients)."""
    vec = values[idx * mdim : (idx + 1) * mdim]
    if module is None or not prefix:
        return vec
    out = [0] * mdim
    for i, v in enumerate(vec):
        if v:
            out[module.left_word(prefix, i)] = v
    return out


def cup(f: Cochain, g: Cochain, ctx: CupContext) -> Cochain:
    """Closed-formula cup product; bilinear and strictly associative.

    Reads the stencil rows of f's nonzero entries only; the result's ``den``
    is ``f.den * g.den``."""
    ctx.check(f, g)
    ntargets, rows = ctx.stencil(f.degree, g.degree)
    mf = f.module.size if f.module else 1
    mg = g.module.size if g.module else 1
    act = g.module.left_word if g.module else None
    gvals = g.values
    values = [0] * (ntargets * mf * mg)
    for k, va in enumerate(f.values):
        if not va:
            continue
        li, a = divmod(k, mf)
        for t_idx, ri, prefix, negative in rows[li]:
            base = (t_idx * mf + a) * mg
            for b in range(mg):
                vb = gvals[ri * mg + b]
                if not vb:
                    continue
                i = base + (act(prefix, b) if act else b)
                if negative:
                    values[i] -= va * vb
                else:
                    values[i] += va * vb
    return _product(f, g, ctx, f.degree + g.degree, values)


def _product(f, g, ctx, n, values) -> Cochain:
    # over the product of the factors' denominators, reduced once over F_p,
    # with values in the tensor of the factors' sets unless both are trivial
    if p := f.ring.char:
        values = [v % p for v in values]
    target = None
    if f.module or g.module:
        one = xset_singleton(ctx.rack)
        target = (f.module or one).tensor(g.module or one)
    return Cochain(n, f.ring, values, ctx.quandle, target, f.den * g.den)


def _pair_cochain(f, g, ctx, n, structure_map, sign):
    """The degree-n cochain t -> sign * (f (x) g)(structure_map(e_t)), for a
    word-engine map into B (x) B such as ``W.coproduct`` or ``W.h``, on the
    stored ints.  Only the terms of bidegree (p, q), the context's
    ``pairing`` table, survive, and on them the evaluation sign
    (-1)^{|g||left|} is the constant (-1)^{pq}, folded with ``sign`` into
    ``negative``."""
    p, q = f.degree, g.degree
    mf = f.module.size if f.module else 1
    mg = g.module.size if g.module else 1
    fvals, gvals = f.values, g.values
    negative = bool((p * q) & 1) != (sign < 0)
    values = []
    for row in ctx.pairing(structure_map, n, p, q):
        out = [0] * (mf * mg)
        for fi, fa, gi, ga, c in row:
            fv = _value(fvals, fi, fa, f.module, mf)
            gv = _value(gvals, gi, ga, g.module, mg)
            coeff = -c if negative else c
            for a in range(mf):
                va = fv[a]
                if not va:
                    continue
                for b in range(mg):
                    out[a * mg + b] += coeff * va * gv[b]
        values += out
    return _product(f, g, ctx, n, values)


def cup_via_coproduct(f: Cochain, g: Cochain, ctx: CupContext) -> Cochain:
    """Cup product through the multiplicative coproduct (oracle pair of
    :func:`cup`; the two must agree exactly)."""
    ctx.check(f, g)
    return _pair_cochain(f, g, ctx, f.degree + g.degree, ctx.algebra.coproduct, 1)


def homotopy_cochain(f: Cochain, g: Cochain, ctx: CupContext) -> Cochain:
    """The degree p+q-1 cochain H(f,g) with
    d*(H(f,g)) = f.g - (-1)^{pq} g.f   for cocycles f and g."""
    ctx.check(f, g)
    if any(ctx.differential(f).values):
        raise NotACocycle("first factor is not a cocycle")
    if any(ctx.differential(g).values):
        raise NotACocycle("second factor is not a cocycle")
    n = f.degree + g.degree - 1
    # (-1)^{p+q+1} = (-1)^n for n = p+q-1
    return _pair_cochain(f, g, ctx, n, ctx.algebra.h, -1 if n % 2 else 1)


def is_coboundary(f: Cochain, ctx: CupContext) -> Cochain | None:
    """Solve d*(h) = f over a field against ``ctx.coboundary`` of the degree
    below, so the matrix is kept and capped by the context; returns a
    witness cochain or None.

    In degree 0 nothing has a preimage (a degree-0 cochain is a coboundary
    only when it is zero, and then only vacuously), so the answer is None.
    """
    ring = f.ring
    if not ring.is_field:
        raise ContextMismatch("coboundary solving requires a field")
    if f.quandle != ctx.quandle:
        raise ContextMismatch("cochain variant does not match context")
    if f.degree == 0:
        return None
    x, den = solve(ctx.coboundary(f.degree - 1, f.module), f.values, ring)
    if x is None:
        return None
    return Cochain(f.degree - 1, ring, x, f.quandle, f.module, den * f.den)


# ---------------------------------------------------------------------------
# Cohomology ring structure


class RingStructure(Record):
    """Cocycle representatives per degree and cup-product coordinates.

    ``reps[p]`` are int vectors over the denominator ``dens[p]`` (1 over
    F_p).  ``products[(p, i, q, j)]`` holds the coordinates of
    [rep_i^p . rep_j^q] in the representative basis of H^{p+q}, Fractions
    over Q; they are the unique solution modulo coboundaries.
    """

    __slots__ = _fields = ("dims", "reps", "dens", "products")

    def __init__(self, dims: dict, reps: dict, dens: dict, products: dict):
        self.dims = dims
        self.reps = reps
        self.dens = dens
        self.products = products


def ring_structure(rack: Rack, ring, max_degree: int, quandle: bool = False,
                   max_basis: int = DEFAULT_MAX_BASIS) -> RingStructure:
    """Cohomology ring with trivial coefficients up to ``max_degree``.

    One pass over the degrees n = 0..max_degree, three eliminations each:
    the reduced echelon kernel basis of d*^n (the cocycles); one forward
    pass keeping the cocycles outside the span of the columns of d*^{n-1},
    the one earlier matrix the pass reads, and of those kept before them
    (the representatives of H^n); one solve of every product landing in
    degree n against [representatives | columns of d*^{n-1}].  The
    representatives are independent modulo coboundaries, so the
    representative part of a solution is unique: the coordinates of the
    class.  Deterministic given the basis order.  A coordinate ``x`` of a
    solution over ``den`` is the rational
    ``x * dens[n] / (den * dens[p] * dens[q])``.  A cap on a basis or a
    stencil stops the job at the first degree that reaches it.
    """
    if not ring.is_field:
        raise ContextMismatch("ring structure requires field scalars")
    ctx = CupContext(rack, quandle=quandle, max_basis=max_basis)
    if not ring.char:
        # imported here: the Q coordinates are the only rationals a ring makes
        from fractions import Fraction
    # d*^{-1} is the zero map into C^0, which has the one empty tuple
    below = SparseMat(1, 0)
    reps, dens, classes, products = {}, {}, {}, {}
    for n in range(max_degree + 1):
        d = ctx.coboundary(n)
        cocycles, dens[n] = kernel_basis(d, ring)
        reps[n] = independent(below.cols, cocycles, ring)
        classes[n] = [Cochain(n, ring, v, quandle, den=dens[n]) for v in reps[n]]
        keys, rhs = [], []
        for p in range(n + 1):
            for i, f in enumerate(classes[p]):
                for j, g in enumerate(classes[n - p]):
                    keys.append((p, i, n - p, j))
                    rhs.append(cup(f, g, ctx).values)
        if keys:
            cols = [{i: v for i, v in enumerate(vec) if v} for vec in reps[n]] + below.cols
            solutions, den = solve_many(SparseMat(d.ncols, len(cols), cols), rhs, ring)
            for (p, i, q, j), coords in zip(keys, solutions):
                if coords is None:
                    raise NotACocycle("product of cocycles failed to reduce; complex is inconsistent")
                coords = coords[: len(reps[n])]
                if not ring.char:
                    coords = [Fraction(x * dens[n], den * dens[p] * dens[q]) for x in coords]
                products[(p, i, q, j)] = tuple(coords)
        below = d
    return RingStructure({p: len(reps[p]) for p in reps}, reps, dens, products)
