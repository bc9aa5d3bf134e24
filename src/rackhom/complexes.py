"""Rack and quandle chain/cochain complexes as explicit exact matrices.

Bases are tuples over the rack, enumerated in mixed-radix order with the
last coordinate varying fastest; the quandle variant keeps exactly the
tuples with no adjacent equal entries.  Degree 0 is one empty tuple.

Faces are read from the rack's right-translation columns ``Rack.right``
by ``face`` / ``face_set`` (one face, and a composite face, of a tuple)
and ``coproduct_terms`` (the terms (delete A) (x) (conjugating-delete of
the complement) of the closed coproduct formula, which the cup stencil and
the word engine's ``coproduct_formula`` both read).  ``_boundary`` finds
the two faces of each position by integer arithmetic on the tuple's
mixed-radix code, and assembles

    bd(x_1..x_n) = sum_i (-1)^i [ delete_i - delete_i-with-conjugation ];

a pair of faces on the same row cancels but still takes its place in the
column's key order (as a zero entry, dropped with the others at the end),
so every column keeps the key order of its faces taken one by one.

The word engine's ``d`` keeps its own faces on purpose: the check
``project_to_chain(d(e_T)) == -bd(T)`` compares two independent codes.

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

Every matrix, chain and cochain built here holds plain ints in every ring,
reduced mod p over F_p; ``cochain_differential_matrix`` is the one coboundary
builder.

Coefficients: trivial (the one-point action) or the permutation module
of a validated rack-set action.  Chains use the right action; cochains use
the left action obtained by inverting each right translation, so the
boundary that a cochain module transposes is built with the module's
inverse permutations as its right action.
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
)
from .linalg import SparseMat
from .racks import Rack, XSet
from .records import Frozen, Record
from .rings import ZZ

DEFAULT_MAX_BASIS = 200_000


def no_adjacent_equal(t):
    return all(a != b for a, b in zip(t, t[1:]))


class TupleBasis(Frozen):
    """Ordered basis of degree-``n`` chains (rack or quandle variant)."""

    _fields = ("rack", "degree", "quandle", "tuples")

    def __init__(self, rack: Rack, degree: int, quandle: bool,
                 tuples: tuple[tuple[int, ...], ...]):
        object.__setattr__(self, "rack", rack)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "quandle", quandle)
        object.__setattr__(self, "tuples", tuples)

    def __len__(self):
        return len(self.tuples)

    @functools.cached_property
    def index(self):
        """Position of each tuple; built on first read and cached on the
        instance, outside equality and hashing (``_boundary`` reads codes,
        not this)."""
        return {t: i for i, t in enumerate(self.tuples)}


def tuple_basis(rack: Rack, n: int, quandle: bool = False,
                max_basis: int = DEFAULT_MAX_BASIS) -> TupleBasis:
    if n < 0:
        raise IndexOutOfRange("degree must be >= 0")
    if quandle and not rack.is_quandle():
        raise NotAQuandle(f"{rack.label} is not a quandle")
    # the quandle basis drops every tuple with an adjacent equal pair
    count = rack.size * (rack.size - 1) ** (n - 1) if quandle and n else rack.size ** n
    if count > max_basis:
        raise DimensionOverflow(
            f"basis of degree {n} over size-{rack.size} rack exceeds cap {max_basis}"
        )
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
    return TupleBasis(rack, n, quandle, tuples)


def face(t, i, eps, rack: Rack):
    """Face map on a bare tuple: returns ``(prefix, smaller_tuple)``.

    ``eps=0`` deletes position ``i`` (1-based) and has no prefix; ``eps=1``
    deletes it, replaces every earlier entry ``x_j`` by ``x_j <| x_i``, and
    reports the deleted entry as the acting prefix (used when coefficients
    carry an action).
    """
    n = len(t)
    if not 1 <= i <= n:
        raise IndexOutOfRange(f"face index {i} for degree {n}")
    j = i - 1
    if eps == 0:
        return None, t[:j] + t[j + 1 :]
    x = t[j]
    col = rack.right[x]
    return x, tuple([col[y] for y in t[:j]]) + t[j + 1 :]


def face_set(t, indices, eps, rack: Rack):
    """Composite face over an index set, largest index first.

    Returns ``(prefix_word, tuple)`` where the prefix word lists the acting
    elements in order of application (empty for ``eps=0``).
    """
    prefix = []
    for i in sorted(indices, reverse=True):
        p, t = face(t, i, eps, rack)
        if p is not None:
            prefix.append(p)
    return tuple(prefix), t


def coproduct_terms(t, q, rack: Rack):
    """The closed coproduct formula on ``t``, right factors of degree ``q``:
    ``(left, prefix, right, eps)`` per size-``q`` subset ``A`` of 1..n, in
    lexicographic order.  ``left`` deletes ``A``; ``prefix, right`` is the
    conjugating face over the complement (:func:`face_set`); ``eps`` is the
    unshuffle signature of ``A`` before its complement times (-1)^{q(n-q)}.
    """
    n = len(t)
    positions = range(1, n + 1)
    # the k-th a in A (from 0) lies above a - 1 - k complement positions,
    # so the unshuffle has sum(A) - q (q + 1) / 2 inversions
    shift = q * (q + 1) // 2 + q * (n - q)
    for A in itertools.combinations(positions, q):
        comp = [i for i in positions if i not in A]
        prefix, right = face_set(t, comp, 1, rack)
        eps = -1 if (sum(A) - shift) & 1 else 1
        yield tuple([t[i - 1] for i in comp]), prefix, right, eps


# ---------------------------------------------------------------------------
# Coefficient modules


class LeftModule(Frozen):
    """A module whose rack generators act by basis permutations.

    ``perms[x][i] = j`` means the generator ``x`` sends basis vector ``i``
    to basis vector ``j``.  For the permutation module of a rack-set this
    is the inverse of the right action, which is exactly what makes the
    exchange relation hold on the left.
    """

    _fields = ("dim", "perms", "label")

    def __init__(self, dim: int, perms: tuple[tuple[int, ...], ...], label: str = "module"):
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "perms", perms)
        object.__setattr__(self, "label", label)

    def act_word_index(self, word, i):
        # f(a_1 .. a_k m) = L(a_1)(... L(a_k) f(m)): apply the last letter first
        for x in reversed(word):
            i = self.perms[x][i]
        return i

    def inverse_perms(self):
        out = []
        for perm in self.perms:
            inv = [0] * self.dim
            for i, j in enumerate(perm):
                inv[j] = i
            out.append(tuple(inv))
        return tuple(out)

    def tensor(self, other: "LeftModule") -> "LeftModule":
        dim = self.dim * other.dim
        perms = tuple(
            tuple(
                self.perms[x][i] * other.dim + other.perms[x][j]
                for i in range(self.dim)
                for j in range(other.dim)
            )
            for x in range(len(self.perms))
        )
        return LeftModule(dim, perms, f"{self.label}(x){other.label}")


def trivial_module(rack: Rack) -> LeftModule:
    return LeftModule(1, tuple((0,) for _ in range(rack.size)), "trivial")


def module_from_xset(xset: XSet) -> LeftModule:
    """Left permutation module of a rack-set: generators act by the
    inverses of the right translations."""
    right = LeftModule(xset.size, tuple(zip(*xset.act)))
    return LeftModule(xset.size, right.inverse_perms(), f"k[{xset.label}]")


# ---------------------------------------------------------------------------
# Chains, cochains, boundary matrices


class Chain(Record):
    """Vector over a tuple basis; module-valued entries are flattened as
    ``tuple_index * module_dim + module_index``."""

    __slots__ = _fields = ("basis", "ring", "values", "module_dim")

    def __init__(self, basis: TupleBasis, ring, values: list, module_dim: int = 1):
        self.basis = basis
        self.ring = ring
        self.values = values
        self.module_dim = module_dim


class Cochain(Record):
    """Cochain values flattened as in :class:`Chain`: the value at ``i`` is
    ``values[i] / den``, an int over a positive ``den`` that is 1 unless the
    ring is Q, and a residue over F_p."""

    __slots__ = _fields = ("degree", "ring", "values", "quandle", "module", "den")

    def __init__(self, degree: int, ring, values: list, quandle: bool = False,
                 module: LeftModule | None = None, den: int = 1):
        self.degree = degree
        self.ring = ring
        self.values = values
        self.quandle = quandle
        self.module = module
        self.den = den


def basis_cochain(rack: Rack, p: int, ring, t, j=0, quandle=False, module=None) -> Cochain:
    """Indicator cochain of a basis tuple (and module basis index)."""
    basis = tuple_basis(rack, p, quandle)
    mdim = module.dim if module else 1
    idx = basis.index.get(tuple(t))
    if idx is None or not 0 <= j < mdim:
        raise IndexOutOfRange(f"no basis cochain at tuple {tuple(t)}, module index {j}")
    values = [0] * (len(basis) * mdim)
    values[idx * mdim + j] = 1
    return Cochain(p, ring, values, quandle, module)


def _boundary(rack: Rack, n: int, ring, quandle: bool, right, max_basis: int) -> SparseMat:
    """The degree-``n`` boundary with coefficients in a permutation module;
    ``right[x][y]`` is the point ``y`` moved by the right action of ``x``
    (trivial coefficients are the one-point action ``((0,),) * size``).

    Faces are found on mixed-radix codes, in the basis order (last
    coordinate fastest, base ``s`` = the rack's size).  At position ``j``
    of ``t``, let ``h`` be the code of ``t[:j]``, ``c = h * s + t[j]`` the
    code of ``t[:j + 1]``, and ``p = s^(n - 1 - j)``.  The plain face has
    the code ``code(t) - (c - h) * p``; the conjugating face, whose head is
    ``t[:j]`` read through ``Rack.right[t[j]]`` with code ``m``, has
    ``code(t) - (c - m) * p``.  These offsets depend on ``t[:j + 1]`` only,
    so each tuple recomputes them from the first position where it differs
    from the tuple before it.  A code is its own row in the rack variant;
    the quandle variant reads rows from the codes of the target basis, and a
    code missing there is a degenerate face, which is dropped.  A pair of
    faces on the same row cancels but still takes its place in the key order
    as a zero entry, so that every column keeps the key order of its faces
    taken one by one (``_eliminate_pivots`` breaks ties by that order)."""
    if n < 1:
        raise IndexOutOfRange("boundary defined for degree >= 1")
    src = tuple_basis(rack, n, quandle, max_basis)
    s = rack.size
    conj = rack.right
    dim = len(right[0])
    char = ring.char
    row = None
    nrows = s ** (n - 1)  # the rack target; the cap on the larger source covers it
    if quandle:
        tgt = tuple_basis(rack, n - 1, quandle, max_basis)
        codes = {}
        for i, u in enumerate(tgt.tuples):
            c = 0
            for x in u:
                c = c * s + x
            codes[c] = i
        row = codes.get
        nrows = len(tgt)
    prefix = [0] * (n + 1)  # prefix[j] is the code of t[:j]
    # per position: sign (-1)^(j+1), plain offset, action, conjugating offset
    offsets = [None] * n
    prev = (-1,) * n
    cols = []
    for t in src.tuples:
        first = 0  # the first position where t differs from the tuple before it
        while t[first] == prev[first]:
            first += 1
        prev = t
        for j in range(first, n):
            h, x = prefix[j], t[j]
            by_x = conj[x]
            m = 0
            for y in t[:j]:
                m = m * s + by_x[y]
            prefix[j + 1] = c = h * s + x
            p = s ** (n - 1 - j)
            offsets[j] = [1 if j & 1 else -1, (c - h) * p, right[x], (c - m) * p]
        c = prefix[n]
        if row:
            faces = [(sign, row(c - a), move, row(c - b)) for sign, a, move, b in offsets]
        else:
            faces = [(sign, c - a, move, c - b) for sign, a, move, b in offsets]
        for y in range(dim):
            col: dict = {}  # integer coefficients, (-1)^i per face
            for sign, r0, move, r1 in faces:
                if r0 is not None:
                    r = r0 * dim + y
                    if r0 == r1 and move[y] == y:
                        col.setdefault(r, 0)
                        continue
                    col[r] = col.get(r, 0) + sign
                if r1 is not None:
                    r = r1 * dim + move[y]
                    col[r] = col.get(r, 0) - sign
            cols.append({r: w for r, v in col.items() if (w := v % char if char else v)})
    return SparseMat(nrows * dim, len(src) * dim, ring, cols)


def boundary_matrix(rack: Rack, n: int, ring=ZZ, quandle: bool = False,
                    xset: XSet | None = None,
                    max_basis: int = DEFAULT_MAX_BASIS) -> SparseMat:
    """Matrix of the degree-``n`` boundary on the chosen basis.

    Columns are indexed by the degree-``n`` basis, rows by degree ``n-1``.
    With rack-set coefficients the bases are (basis tuple, point) pairs
    flattened as ``tuple_index * |Y| + point`` and the conjugating faces
    move the point by the right action.  The quandle variant is the induced
    map on the non-degenerate basis (degenerate images are dropped).
    """
    if xset is not None and xset.over != rack:
        raise CoefficientMismatch("rack-set is over a different rack")
    right = tuple(zip(*xset.act)) if xset else trivial_module(rack).perms
    return _boundary(rack, n, ring, quandle, right, max_basis)


def cochain_differential_matrix(rack: Rack, p: int, ring, quandle=False,
                                module: LeftModule | None = None,
                                max_basis: int = DEFAULT_MAX_BASIS) -> SparseMat:
    """Matrix of the degree-``p`` cochain differential C^p -> C^{p+1}:
    (-1)^{p+1} times the transpose of the degree-``p+1`` boundary.

    On tuples this is
      (d*f)(t) = (-1)^p sum_i (-1)^{i+1} [ f(delete_i t)
                                           - x_i . f(conjugate-delete_i t) ]
    where the action is trivial unless the cochains are module-valued.  The
    leading (-1)^p is the dualization sign (see the module docstring).
    """
    right = (module or trivial_module(rack)).inverse_perms()
    mat = _boundary(rack, p + 1, ring, quandle, right, max_basis).transpose()
    return mat.scaled(-1) if p % 2 == 0 else mat


def apply_coboundary(mat: SparseMat, f: Cochain) -> Cochain:
    """``mat``, the :func:`cochain_differential_matrix` of ``f``'s degree,
    ring, variant and module, applied to ``f``; the result keeps ``f.den``."""
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
    mat = cochain_differential_matrix(rack, f.degree, f.ring, f.quandle, f.module)
    return apply_coboundary(mat, f)


def project_to_chain(u: BElement, ring=ZZ, xset: XSet | None = None,
                     y: int = 0, quandle: bool = False,
                     degree: int | None = None) -> Chain:
    """Collapse a homogeneous element to a chain vector.

    Each monomial ``a . e_word`` lands on the basis tuple of its e-word.
    With trivial coefficients the prefix acts trivially; with rack-set
    coefficients the starting point ``y`` is pushed through the prefix by
    the right action, so the result lives in the (tuple, point) basis.
    ``degree`` pins the target degree when ``u`` may be zero.
    """
    rack = u.algebra.rack
    degs = u.degrees()
    if len(degs) > 1:
        raise MixedDegrees(f"element has degrees {degs}")
    if degs and degree is not None and degs[0] != degree:
        raise MixedDegrees(f"element has degree {degs[0]}, expected {degree}")
    n = degs[0] if degs else (degree if degree is not None else 0)
    basis = tuple_basis(rack, n, quandle)
    ydim = xset.size if xset is not None else 1
    if not 0 <= y < ydim:
        raise IndexOutOfRange(f"starting point {y} outside 0..{ydim - 1}")
    values = [0] * (len(basis) * ydim)
    for m, c in u.terms.items():
        idx = basis.index.get(m.e)
        if idx is None:
            continue  # degenerate tuple in the quandle variant
        yy = y
        if xset is not None:
            for a in m.a:
                yy = xset.act[yy][a]
        values[idx * ydim + yy] += c
    if ring.char:
        values = [v % ring.char for v in values]
    return Chain(basis, ring, values, ydim)
