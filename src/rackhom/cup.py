"""Cup product on rack/quandle cochains, its commutativity homotopy, and
cohomology ring structure constants.

Two independent computation paths are kept side by side:

* ``cup`` evaluates the closed formula
      (f.g)(x_1..x_n) = (-1)^{pq} sum_{|A|=q} eps(A)
                        f(delete_A) g(conjugating-delete_{A^c})
  with eps(A) the unshuffle signature times (-1)^{|A||A^c|}, on a stencil
  from ``complexes.coproduct_terms`` (which ``coproduct_formula`` reads too).
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

Coefficients may be trivial or permutation modules of rack-set actions; a
product of module-valued cochains lands in the tensor module with the
diagonal action, flattened row-major, so nested products compare strictly.

Both products, the homotopy pairing and ``CupContext.differential``
multiply the cochains' stored ints directly.  Over Q a result's ``den`` is
the product of its inputs' ``den``; over F_p it is reduced mod p once.
``ring_structure`` keeps each degree's denominator, and makes Fractions
only for the product coordinates it reports.
"""

from __future__ import annotations

from .complexes import (
    DEFAULT_MAX_BASIS,
    Cochain,
    LeftModule,
    apply_coboundary,
    cochain_differential_matrix,
    coproduct_terms,
    trivial_module,
    tuple_basis,
)
from .errors import CoefficientMismatch, ContextMismatch, NotACocycle, NotAQuandle
from .linalg import SparseMat, independent, kernel_basis, solve, solve_many
from .racks import Rack
from .records import Record
from .words import WordAlgebra


class CupContext(Record):
    """Shared data for cup-product computations over one rack, each built on
    first use and owned by the instance: the word algebra, the tuple bases,
    the face stencils of the closed formula, and the coboundary matrices of
    :meth:`coboundary`.

    ``module_f`` / ``module_g`` are the coefficient modules of the two
    factors (``None`` means trivial coefficients); the product lands in
    their tensor module unless both are trivial.  ``max_basis`` caps every
    tuple basis the products build.  Equality reads every constructor
    argument; the cached data is not compared, nor is the algebra shown.
    """

    _fields = ("rack", "ring", "quandle", "module_f", "module_g", "max_basis", "algebra")
    __slots__ = _fields + ("_bases", "_stencils", "_coboundaries")

    def __init__(self, rack: Rack, ring, quandle: bool = False,
                 module_f: LeftModule | None = None, module_g: LeftModule | None = None,
                 max_basis: int = DEFAULT_MAX_BASIS, algebra: WordAlgebra | None = None):
        if quandle and not rack.is_quandle():
            raise NotAQuandle(f"{rack.label} is not a quandle")
        self.rack = rack
        self.ring = ring
        self.quandle = quandle
        self.module_f = module_f
        self.module_g = module_g
        self.max_basis = max_basis
        self.algebra = WordAlgebra(rack) if algebra is None else algebra
        self._bases = {}
        self._stencils = {}
        self._coboundaries = {}

    def __repr__(self):
        return (f"CupContext(rack={self.rack!r}, ring={self.ring!r}, quandle={self.quandle!r}, "
                f"module_f={self.module_f!r}, module_g={self.module_g!r}, "
                f"max_basis={self.max_basis!r})")

    def target_module(self):
        if self.module_f is None and self.module_g is None:
            return None
        mf = self.module_f or trivial_module(self.rack)
        mg = self.module_g or trivial_module(self.rack)
        return mf.tensor(mg)

    def basis(self, n):
        """The degree-``n`` tuple basis of the context's variant."""
        if n not in self._bases:
            self._bases[n] = tuple_basis(self.rack, n, self.quandle, self.max_basis)
        return self._bases[n]

    def check(self, f: Cochain, g: Cochain):
        if f.quandle != self.quandle or g.quandle != self.quandle:
            raise ContextMismatch("cochain variant does not match context")
        if f.ring is not self.ring or g.ring is not self.ring:
            raise ContextMismatch("cochain ring does not match context")
        if f.module != self.module_f or g.module != self.module_g:
            raise ContextMismatch("cochain coefficients do not match context")
        for h in (f, g):
            if len(h.values) != len(self.basis(h.degree)) * (h.module.dim if h.module else 1):
                raise CoefficientMismatch("cochain length does not match its basis")

    def stencil(self, p, q):
        """The faces of the closed formula, built once per ``(p, q)``, as
        ``(number of degree-(p+q) tuples, rows)``.

        Row ``li`` lists, for the degree-``p`` basis tuple ``li``, the terms
        ``(target index, g index, prefix, negative)`` of
        ``coproduct_terms(t, q)`` over the degree-``p+q`` tuples ``t`` whose
        left factor is ``li`` and whose right factor is in the basis: g is
        read on the right factor, whose prefix acts on g's value, and
        ``negative`` carries eps(A) (-1)^{pq}.  Indexed by f, so that a
        product reads only the rows of f's nonzero entries.
        """
        key = (p, q)
        if key not in self._stencils:
            f_idx, g_idx = self.basis(p).index, self.basis(q).index
            targets = self.basis(p + q).tuples
            global_neg = bool((p * q) & 1)
            rows = [[] for _ in f_idx]
            for t_idx, t in enumerate(targets):
                for left, prefix, right, eps in coproduct_terms(t, q, self.rack):
                    li, ri = f_idx.get(left), g_idx.get(right)
                    if li is not None and ri is not None:
                        rows[li].append((t_idx, ri, prefix, (eps < 0) != global_neg))
            self._stencils[key] = (len(targets), rows)
        return self._stencils[key]

    def coboundary(self, p, module=None) -> SparseMat:
        """The :func:`~rackhom.complexes.cochain_differential_matrix` of d*^p
        (int entries) in the context's ring and variant, with coefficients in
        ``module``; built once per degree and module."""
        key = (p, module)
        if key not in self._coboundaries:
            self._coboundaries[key] = cochain_differential_matrix(
                self.rack, p, self.ring, self.quandle, module, self.max_basis)
        return self._coboundaries[key]

    def differential(self, f: Cochain) -> Cochain:
        """The cochain differential of ``f``, through :meth:`coboundary`."""
        if f.quandle != self.quandle:
            raise ContextMismatch("cochain variant does not match context")
        if f.ring is not self.ring:
            raise ContextMismatch("cochain ring does not match context")
        return apply_coboundary(self.coboundary(f.degree, f.module), f)


def _value(values, basis_index, tuple_, prefix, module, mdim):
    """Evaluate a cochain's values on ``prefix . e_tuple`` as a dense module
    vector (length 1 for trivial coefficients); None means the value is zero."""
    idx = basis_index.get(tuple_)
    if idx is None:
        return None
    vec = values[idx * mdim : (idx + 1) * mdim]
    if module is None or not prefix:
        return vec
    out = [0] * mdim
    for i, v in enumerate(vec):
        if v:
            out[module.act_word_index(prefix, i)] = v
    return out


def cup(f: Cochain, g: Cochain, ctx: CupContext) -> Cochain:
    """Closed-formula cup product; bilinear and strictly associative.

    Reads the stencil rows of f's nonzero entries only; the result's ``den``
    is ``f.den * g.den``."""
    ctx.check(f, g)
    ntargets, rows = ctx.stencil(f.degree, g.degree)
    mf = f.module.dim if f.module else 1
    mg = g.module.dim if g.module else 1
    act = g.module.act_word_index if g.module else None
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
    # over the product of the factors' denominators, reduced once over F_p
    if p := ctx.ring.char:
        values = [v % p for v in values]
    return Cochain(n, ctx.ring, values, ctx.quandle, ctx.target_module(), f.den * g.den)


def _pair_cochain(f, g, ctx, n, structure_map, sign):
    """The degree-n cochain t -> sign * (f (x) g)(structure_map(e_t)), for a
    word-engine map into B (x) B such as ``W.coproduct`` or ``W.h``, on the
    stored ints.  Only terms of bidegree (p, q) survive the pairing,
    and on them the evaluation sign (-1)^{|g||left|} is the constant
    (-1)^{pq}, folded with ``sign`` into ``negative``."""
    p, q = f.degree, g.degree
    f_index, g_index = ctx.basis(p).index, ctx.basis(q).index
    mf = f.module.dim if f.module else 1
    mg = g.module.dim if g.module else 1
    fvals, gvals = f.values, g.values
    negative = bool((p * q) & 1) != (sign < 0)
    values = []
    for t in ctx.basis(n).tuples:
        out = [0] * (mf * mg)
        for (l, r), c in structure_map(ctx.algebra.eword(t)).terms.items():
            if len(l.e) != p or len(r.e) != q:
                continue
            fv = _value(fvals, f_index, l.e, l.a, f.module, mf)
            if fv is None:
                continue
            gv = _value(gvals, g_index, r.e, r.a, g.module, mg)
            if gv is None:
                continue
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


def is_coboundary(f: Cochain, rack: Rack) -> Cochain | None:
    """Solve d*(h) = f over a field; returns a witness cochain or None.

    In degree 0 nothing has a preimage (a degree-0 cochain is a coboundary
    only when it is zero, and then only vacuously), so the answer is None.
    """
    ring = f.ring
    if not ring.is_field:
        raise ContextMismatch("coboundary solving requires a field")
    if f.degree == 0:
        return None
    mat = cochain_differential_matrix(rack, f.degree - 1, ring, f.quandle, f.module)
    x, den = solve(mat, f.values)
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

    __slots__ = _fields = ("rack_label", "ring_name", "max_degree", "quandle", "dims", "reps",
                           "dens", "products")

    def __init__(self, rack_label: str, ring_name: str, max_degree: int, quandle: bool,
                 dims: dict, reps: dict, dens: dict, products: dict):
        self.rack_label = rack_label
        self.ring_name = ring_name
        self.max_degree = max_degree
        self.quandle = quandle
        self.dims = dims
        self.reps = reps
        self.dens = dens
        self.products = products

    def product(self, p, i, q, j):
        return self.products[(p, i, q, j)]


def ring_structure(rack: Rack, ring, max_degree: int, quandle: bool = False,
                   max_basis: int = DEFAULT_MAX_BASIS) -> RingStructure:
    """Cohomology ring with trivial coefficients up to ``max_degree``.

    Three eliminations per degree p: the reduced echelon kernel basis of
    d*^p (the cocycles); one forward pass keeping the cocycles outside the
    span of the columns of d*^{p-1} and of those kept before them (the
    representatives of H^p); one solve of every product landing in degree
    p against [representatives | columns of d*^{p-1}].  The representatives
    are independent modulo coboundaries, so the representative part of a
    solution is unique: the coordinates of the class.  Deterministic given
    the basis order.  A coordinate ``x`` of a solution over ``den`` is the
    rational ``x * dens[n] / (den * dens[p] * dens[q])``.
    """
    if not ring.is_field:
        raise ContextMismatch("ring structure requires field scalars")
    ctx = CupContext(rack, ring, quandle, max_basis=max_basis)
    # d*^{-1} is the zero map into C^0, which has the one empty tuple
    dmat = {-1: SparseMat(1, 0, ring)}
    for p in range(max_degree + 1):
        dmat[p] = ctx.coboundary(p)
    reps, dens = {}, {}
    for p in range(max_degree + 1):
        cocycles, dens[p] = kernel_basis(dmat[p])
        reps[p] = independent(dmat[p - 1].cols, cocycles, ring)
    products: dict = {}
    if not ring.char:
        # imported here: the Q coordinates are the only rationals a ring makes
        from fractions import Fraction
    for n in range(max_degree + 1):
        keys, rhs = [], []
        for p in range(n + 1):
            q = n - p
            for i, fv in enumerate(reps[p]):
                fc = Cochain(p, ring, fv, quandle, den=dens[p])
                for j, gv in enumerate(reps[q]):
                    keys.append((p, i, q, j))
                    rhs.append(cup(fc, Cochain(q, ring, gv, quandle, den=dens[q]), ctx).values)
        if not keys:
            continue
        cols = [{i: v for i, v in enumerate(vec) if v} for vec in reps[n]]
        cols += dmat[n - 1].cols
        red = SparseMat(dmat[n].ncols, len(cols), ring, cols)
        solutions, den = solve_many(red, rhs)
        for (p, i, q, j), coords in zip(keys, solutions):
            if coords is None:
                raise NotACocycle("product of cocycles failed to reduce; complex is inconsistent")
            coords = coords[: len(reps[n])]
            if not ring.char:
                coords = [Fraction(x * dens[n], den * dens[p] * dens[q]) for x in coords]
            products[(p, i, q, j)] = tuple(coords)
    return RingStructure(
        rack_label=rack.label,
        ring_name=ring.name,
        max_degree=max_degree,
        quandle=quandle,
        dims={p: len(reps[p]) for p in reps},
        reps=reps,
        dens=dens,
        products=products,
    )
