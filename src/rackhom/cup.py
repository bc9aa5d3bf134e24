"""Cup product on rack/quandle cochains, its commutativity homotopy, and
cohomology ring structure constants.

Two independent computation paths are kept side by side:

* ``cup`` evaluates the closed formula
      (f.g)(x_1..x_n) = (-1)^{pq} sum_{|A|=q} eps(A)
                        f(delete_A) g(conjugating-delete_{A^c})
  with eps(A) the unshuffle signature times (-1)^{|A||A^c|}, on a stencil
  from ``complexes.coproduct_terms`` (which ``coproduct_formula`` reads too);

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
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .complexes import (
    DEFAULT_MAX_BASIS,
    Cochain,
    LeftModule,
    apply_coboundary,
    cochain_differential,
    cochain_differential_matrix,
    coproduct_terms,
    trivial_module,
    tuple_basis,
)
from .errors import ContextMismatch, NotACocycle, NotAQuandle
from .linalg import SparseMat, independent, kernel_basis, solve, solve_many
from .racks import Rack
from .rings import ZZ
from .words import WordAlgebra


@dataclass
class CupContext:
    """Shared data for cup-product computations over one rack, each built on
    first use and owned by the instance: the word algebra, the face stencils
    of the closed formula, and the coboundary matrices of :meth:`differential`.

    ``module_f`` / ``module_g`` are the coefficient modules of the two
    factors (``None`` means trivial coefficients); the product lands in
    their tensor module unless both are trivial.  ``max_basis`` caps every
    tuple basis the products build.
    """

    rack: Rack
    ring: object
    quandle: bool = False
    module_f: LeftModule | None = None
    module_g: LeftModule | None = None
    max_basis: int = DEFAULT_MAX_BASIS
    algebra: WordAlgebra = field(default=None, repr=False)
    _stencils: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _coboundaries: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.quandle and not self.rack.is_quandle():
            raise NotAQuandle(f"{self.rack.label} is not a quandle")
        if self.algebra is None:
            self.algebra = WordAlgebra(self.rack)

    def target_module(self):
        if self.module_f is None and self.module_g is None:
            return None
        mf = self.module_f or trivial_module(self.rack)
        mg = self.module_g or trivial_module(self.rack)
        return mf.tensor(mg)

    def check(self, f: Cochain, g: Cochain):
        if f.quandle != self.quandle or g.quandle != self.quandle:
            raise ContextMismatch("cochain variant does not match context")
        if f.ring is not self.ring or g.ring is not self.ring:
            raise ContextMismatch("cochain ring does not match context")
        if f.module != self.module_f or g.module != self.module_g:
            raise ContextMismatch("cochain coefficients do not match context")

    def stencil(self, p, q):
        """The faces of the closed formula, built once per ``(p, q)``.

        Entry ``t`` lists, for the degree-``p+q`` basis tuple ``t``, the
        terms ``(f index, g index, prefix, negative)`` of
        ``coproduct_terms(t, q)`` that survive in the bases: f is read on
        the left factor, g on the right one, whose prefix acts on g's
        value; ``negative`` carries eps(A) (-1)^{pq}.
        """
        key = (p, q)
        if key not in self._stencils:
            rack, quandle, cap = self.rack, self.quandle, self.max_basis
            f_idx = tuple_basis(rack, p, quandle, cap).index
            g_idx = tuple_basis(rack, q, quandle, cap).index
            global_neg = bool((p * q) & 1)
            stencil = []
            for t in tuple_basis(rack, p + q, quandle, cap).tuples:
                terms = []
                for left, prefix, right, eps in coproduct_terms(t, q, rack):
                    li, ri = f_idx.get(left), g_idx.get(right)
                    if li is not None and ri is not None:
                        terms.append((li, ri, prefix, (eps < 0) != global_neg))
                stencil.append(terms)
            self._stencils[key] = stencil
        return self._stencils[key]

    def differential(self, f: Cochain) -> Cochain:
        """The cochain differential of ``f``, through a matrix built once
        per degree, ring, variant and module in this context."""
        key = (f.degree, f.ring, f.quandle, f.module)
        if key not in self._coboundaries:
            self._coboundaries[key] = cochain_differential_matrix(
                self.rack, f.degree, f.ring, f.quandle, f.module, self.max_basis)
        return apply_coboundary(self._coboundaries[key], f)


def _value(f: Cochain, basis_index, tuple_, prefix, module, mdim):
    """Evaluate a cochain on ``prefix . e_tuple`` as a dense module vector
    (length 1 for trivial coefficients); None means the value is zero."""
    idx = basis_index.get(tuple_)
    if idx is None:
        return None
    vec = f.values[idx * mdim : (idx + 1) * mdim]
    if module is None or not prefix:
        return vec
    out = [f.ring.zero] * mdim
    for i, v in enumerate(vec):
        if v:
            out[module.act_word_index(prefix, i)] = v
    return out


def cup(f: Cochain, g: Cochain, ctx: CupContext) -> Cochain:
    """Closed-formula cup product; bilinear and strictly associative."""
    ctx.check(f, g)
    ring = ctx.ring
    stencil = ctx.stencil(f.degree, g.degree)
    mf = f.module.dim if f.module else 1
    mg = g.module.dim if g.module else 1
    act = g.module.act_word_index if g.module else None
    tdim = mf * mg
    values = [ring.zero] * (len(stencil) * tdim)
    fvals, gvals = f.values, g.values
    for t_idx, terms in enumerate(stencil):
        for li, ri, prefix, negative in terms:
            for a in range(mf):
                va = fvals[li * mf + a]
                if not va:
                    continue
                base = (t_idx * mf + a) * mg
                for b in range(mg):
                    # over F_p a product of nonzero residues is nonzero
                    w = va * gvals[ri * mg + b]
                    if not w:
                        continue
                    k = base + (act(prefix, b) if act else b)
                    if negative:
                        values[k] -= w
                    else:
                        values[k] += w
    if ring.char:
        values = [v % ring.char for v in values]
    return Cochain(f.degree + g.degree, ring, values, ctx.quandle, ctx.target_module())


def _pair_against_tensor(f, g, ring, f_index, g_index, tensor_terms):
    """Evaluate i(f (x) g) against word-engine tensor terms, reading f and g
    through the indexes of their tuple bases; the evaluation sign
    (-1)^{|g||left|} is constant (-1)^{pq} on surviving terms."""
    p, q = f.degree, g.degree
    mf = f.module.dim if f.module else 1
    mg = g.module.dim if g.module else 1
    out = [ring.zero] * (mf * mg)
    global_neg = (p * q) & 1
    for (l, r), c in tensor_terms.items():
        if len(l.e) != p or len(r.e) != q:
            continue
        fv = _value(f, f_index, l.e, l.a, f.module, mf)
        if fv is None:
            continue
        gv = _value(g, g_index, r.e, r.a, g.module, mg)
        if gv is None:
            continue
        coeff = ring.of(-c if global_neg else c)
        if not coeff:
            continue
        for a in range(mf):
            va = fv[a]
            if not va:
                continue
            for b in range(mg):
                out[a * mg + b] += coeff * va * gv[b]
    if ring.char:
        out = [v % ring.char for v in out]
    return out


def _pair_cochain(f, g, ctx, n, structure_map, sign):
    """The degree-n cochain t -> sign * (f (x) g)(structure_map(e_t)), for a
    word-engine map into B (x) B such as ``W.coproduct`` or ``W.h``."""
    ring, rack, quandle, cap = ctx.ring, ctx.rack, ctx.quandle, ctx.max_basis
    f_index = tuple_basis(rack, f.degree, quandle, cap).index
    g_index = tuple_basis(rack, g.degree, quandle, cap).index
    values = []
    for t in tuple_basis(rack, n, quandle, cap).tuples:
        terms = structure_map(ctx.algebra.eword(t)).terms
        vec = _pair_against_tensor(f, g, ring, f_index, g_index, terms)
        values += vec if sign == 1 else [ring.of(-v) for v in vec]
    return Cochain(n, ring, values, quandle, ctx.target_module())


def cup_via_coproduct(f: Cochain, g: Cochain, ctx: CupContext) -> Cochain:
    """Cup product through the multiplicative coproduct (oracle pair of
    :func:`cup`; the two must agree exactly)."""
    ctx.check(f, g)
    return _pair_cochain(f, g, ctx, f.degree + g.degree, ctx.algebra.coproduct, 1)


def is_cocycle(f: Cochain, rack: Rack) -> bool:
    return not any(cochain_differential(f, rack).values)


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
    x = solve(mat, f.values)
    if x is None:
        return None
    return Cochain(f.degree - 1, ring, x, f.quandle, f.module)


# ---------------------------------------------------------------------------
# Cohomology ring structure


@dataclass
class RingStructure:
    """Cocycle representatives per degree and cup-product coordinates.

    ``products[(p, i, q, j)]`` holds the coordinates of [rep_i^p . rep_j^q]
    in the representative basis of H^{p+q}; the coordinates are the unique
    solution modulo coboundaries.
    """

    rack_label: str
    ring_name: str
    max_degree: int
    quandle: bool
    dims: dict
    reps: dict
    products: dict

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
    the basis order.
    """
    if not ring.is_field:
        raise ContextMismatch("ring structure requires field scalars")
    ctx = CupContext(rack, ring, quandle, max_basis=max_basis)
    # d*^{-1} is the zero map into C^0, which has the one empty tuple
    dmat = {-1: SparseMat(1, 0, ring)}
    # integer entries over Q too: linalg reduces integer rows, so a Fraction
    # per entry would only be turned back into an int
    build_ring = ring if ring.char else ZZ
    for p in range(max_degree + 1):
        dmat[p] = cochain_differential_matrix(rack, p, build_ring, quandle, max_basis=max_basis)
        dmat[p].ring = ring
    reps = {
        p: independent(dmat[p - 1].cols, kernel_basis(dmat[p]), ring)
        for p in range(max_degree + 1)
    }
    products: dict = {}
    for n in range(max_degree + 1):
        keys, rhs = [], []
        for p in range(n + 1):
            q = n - p
            for i, fv in enumerate(reps[p]):
                fc = Cochain(p, ring, list(fv), quandle)
                for j, gv in enumerate(reps[q]):
                    keys.append((p, i, q, j))
                    rhs.append(cup(fc, Cochain(q, ring, list(gv), quandle), ctx).values)
        if not keys:
            continue
        cols = [{i: v for i, v in enumerate(vec) if v} for vec in reps[n]]
        cols += dmat[n - 1].cols
        red = SparseMat(dmat[n].ncols, len(cols), ring, cols)
        for key, coords in zip(keys, solve_many(red, rhs)):
            if coords is None:
                raise NotACocycle("product of cocycles failed to reduce; complex is inconsistent")
            products[key] = tuple(coords[: len(reps[n])])
    return RingStructure(
        rack_label=rack.label,
        ring_name=ring.name,
        max_degree=max_degree,
        quandle=quandle,
        dims={p: len(reps[p]) for p in reps},
        reps=reps,
        products=products,
    )
