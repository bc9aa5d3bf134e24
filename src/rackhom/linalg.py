"""Exact sparse linear algebra: ranks, kernels, images, Smith normal form,
and the homology of a chain complex.

Rank and Smith normal form start with a sparse pivot elimination in
Markowitz order (shortest vector, then least shared pivot index), without
back-substitution.  Over a field every nonzero entry is a pivot, so that
elimination alone gives the rank.  Over Z only +-1 entries are taken;
those steps are unimodular, hence exact, and the classical dense Smith
reduction (minimal-absolute-value pivoting, the standard guard against
coefficient explosion at this scale) runs on the residual alone, under a
cap on the residual's dense size.  ``ChainComplex`` reduces each
differential once and reads homology and cohomology from that reduction.

Kernels, images, solves and span tests over a field share one forward
reduction (reduce a row by the leading entries held, store the remainder
normalized under its least index); all but span tests then back-substitute.
Arbitrary-precision integers throughout; nothing here is probabilistic and
nothing floats.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heapify, heappop, heappush

from .errors import NotAComplex, ResourceLimit, ShapeError
from .rings import ZZ


class SparseMat:
    """Column-major sparse matrix with exact scalars; no stored zeros."""

    __slots__ = ("nrows", "ncols", "ring", "cols")

    def __init__(self, nrows, ncols, ring, cols=None):
        self.nrows = nrows
        self.ncols = ncols
        self.ring = ring
        self.cols = cols if cols is not None else [{} for _ in range(ncols)]

    @classmethod
    def zero(cls, nrows, ncols, ring):
        return cls(nrows, ncols, ring)

    @classmethod
    def identity(cls, n, ring):
        m = cls(n, n, ring)
        for i in range(n):
            m.cols[i][i] = ring.one
        return m

    @classmethod
    def from_dense(cls, rows, ring):
        nrows = len(rows)
        ncols = len(rows[0]) if nrows else 0
        m = cls(nrows, ncols, ring)
        for i, row in enumerate(rows):
            if len(row) != ncols:
                raise ShapeError("ragged dense matrix")
            for j, v in enumerate(row):
                v = ring.of(v)
                if not ring.is_zero(v):
                    m.cols[j][i] = v
        return m

    def add_at(self, r, c, v):
        if not 0 <= r < self.nrows or not 0 <= c < self.ncols:
            raise ShapeError(f"entry ({r},{c}) outside {self.nrows}x{self.ncols}")
        col = self.cols[c]
        u = self.ring.add(col.get(r, self.ring.zero), v)
        if self.ring.is_zero(u):
            col.pop(r, None)
        else:
            col[r] = u

    def nnz(self):
        return sum(len(c) for c in self.cols)

    def is_zero(self):
        return all(not c for c in self.cols)

    def mul(self, other: "SparseMat") -> "SparseMat":
        if self.ncols != other.nrows:
            raise ShapeError("shape mismatch in matrix product")
        ring = self.ring
        out = SparseMat(self.nrows, other.ncols, ring)
        for j, col in enumerate(other.cols):
            acc: dict = {}
            for k, v in col.items():
                for i, w in self.cols[k].items():
                    u = ring.add(acc.get(i, ring.zero), ring.mul(w, v))
                    if ring.is_zero(u):
                        acc.pop(i, None)
                    else:
                        acc[i] = u
            out.cols[j] = acc
        return out

    def transpose(self) -> "SparseMat":
        out = SparseMat(self.ncols, self.nrows, self.ring)
        for j, col in enumerate(self.cols):
            for i, v in col.items():
                out.cols[i][j] = v
        return out

    def scaled(self, c) -> "SparseMat":
        ring = self.ring
        out = SparseMat(self.nrows, self.ncols, ring)
        for j, col in enumerate(self.cols):
            for i, v in col.items():
                w = ring.mul(v, c)
                if not ring.is_zero(w):
                    out.cols[j][i] = w
        return out

    def change_ring(self, ring) -> "SparseMat":
        out = SparseMat(self.nrows, self.ncols, ring)
        for j, col in enumerate(self.cols):
            for i, v in col.items():
                w = ring.of(v)
                if not ring.is_zero(w):
                    out.cols[j][i] = w
        return out

    def to_dense(self):
        rows = [[self.ring.zero] * self.ncols for _ in range(self.nrows)]
        for j, col in enumerate(self.cols):
            for i, v in col.items():
                rows[i][j] = v
        return rows

    def rows_as_dicts(self):
        rows = [dict() for _ in range(self.nrows)]
        for j, col in enumerate(self.cols):
            for i, v in col.items():
                rows[i][j] = v
        return rows

    def __eq__(self, other):
        return (
            isinstance(other, SparseMat)
            and (self.nrows, self.ncols) == (other.nrows, other.ncols)
            and self.cols == other.cols
        )

    def __repr__(self):
        return f"SparseMat({self.nrows}x{self.ncols} over {self.ring}, nnz={self.nnz()})"


# ---------------------------------------------------------------------------
# Field elimination


def _require_field(ring):
    if not ring.is_field:
        raise ShapeError(f"{ring} is not a field; use Q or Fp")


def _subtract(row, c, base, ring):
    """``row -= c * base`` in place on sparse row-dicts, keeping no zeros."""
    sub, mul, is_zero, zero = ring.sub, ring.mul, ring.is_zero, ring.zero
    for j, v in base.items():
        u = sub(row.get(j, zero), mul(c, v))
        if is_zero(u):
            row.pop(j, None)
        else:
            row[j] = u


def _reduce_row(row, pivot_of, ring):
    """Forward-reduce ``row`` in place by the leading entries held in
    ``pivot_of`` (least index -> row normalized to 1 there) until its least
    index holds none; an empty result means ``row`` lay in their span."""
    while row:
        lead = min(row)
        base = pivot_of.get(lead)
        if base is None:
            break
        _subtract(row, row[lead], base, ring)
    return row


def _insert(row, pivot_of, ring) -> bool:
    """Reduce ``row`` in place by ``pivot_of`` and store the nonzero
    remainder, normalized to 1 at its least index, under that index.
    Returns whether a remainder was stored (``row`` was independent)."""
    _reduce_row(row, pivot_of, ring)
    if not row:
        return False
    lead = min(row)
    c = row[lead]
    pivot_of[lead] = {j: ring.div(v, c) for j, v in row.items()}
    return True


def _sparse(vec, ring) -> dict:
    # a dense list or a sparse dict, as a fresh sparse dict without zeros
    items = vec.items() if isinstance(vec, dict) else enumerate(vec)
    return {i: v for i, v in items if not ring.is_zero(v)}


def _rref(rows, ring):
    """Reduced row echelon form of sparse row-dicts.

    Returns ``(pivots, pivot_rows)`` with pivots strictly increasing; each
    pivot row is normalized to leading 1 and fully reduced against the
    others.  Deterministic: rows are inserted in order, then later pivots
    are eliminated from earlier rows.
    """
    pivot_of: dict[int, dict] = {}
    for row in rows:
        _insert(dict(row), pivot_of, ring)
    pivots = sorted(pivot_of)
    for p in reversed(pivots):
        base = pivot_of[p]
        for q in pivots:
            if q >= p:
                break
            c = pivot_of[q].get(p)
            if c is not None:
                _subtract(pivot_of[q], c, base, ring)
    return pivots, [pivot_of[p] for p in pivots]


def _eliminate_pivots(vecs, ring, units_only):
    """Sparse pivot elimination on ``vecs`` (``{id: {index: value}}``), in
    place; returns the number of pivots taken.

    A pivot is any entry, or only a +-1 entry when ``units_only`` (a +-1
    step is unimodular, hence exact over Z).  Markowitz order: the
    shortest vector holding a pivot, then in it the pivot index shared by
    the fewest other vectors.  The pivot index is cleared from every other vector, then the
    pivot vector drops out; nothing is normalized or back-substituted.
    Vectors that become empty are deleted, so what is left in ``vecs`` is
    the residual, which holds no pivot.
    """
    p = ring.char
    div = ring.div
    holders: dict[int, set] = {}
    for k, vec in vecs.items():
        for j in vec:
            holders.setdefault(j, set()).add(k)
    heap = [(len(vec), k) for k, vec in vecs.items()]
    heapify(heap)
    pivots = 0
    while heap:
        size, k = heappop(heap)
        vec = vecs.get(k)
        if vec is None or len(vec) != size:
            continue  # stale entry: the vector changed or dropped out since
        pc = -1
        best = 0
        for j, v in vec.items():
            if units_only and v != 1 and v != -1:
                continue
            c = len(holders[j])
            if pc < 0 or c < best:
                pc, best = j, c
        if pc < 0:
            continue  # no unit now; it is queued again if an update gives it one
        del vecs[k]
        for j in vec:
            holders[j].discard(k)
        pv = vec.pop(pc)
        for m in holders.pop(pc):
            other = vecs[m]
            f = div(other.pop(pc), pv)
            for j, v in vec.items():
                old = other.get(j)
                if old is None:
                    u = -f * v
                    other[j] = u % p if p else u
                    holders[j].add(m)
                    continue
                u = old - f * v
                if p:
                    u %= p
                if u:
                    other[j] = u
                else:
                    del other[j]
                    holders[j].discard(m)
            if other:
                heappush(heap, (len(other), m))
            else:
                del vecs[m]
        pivots += 1
    return pivots


def _column_vectors(mat: SparseMat) -> dict:
    # rank and invariant factors are invariant under transposition, so the
    # eliminations work on copies of the stored columns
    return {j: dict(col) for j, col in enumerate(mat.cols) if col}


def rank(mat: SparseMat) -> int:
    """Rank over a field by sparse elimination alone."""
    _require_field(mat.ring)
    return _eliminate_pivots(_column_vectors(mat), mat.ring, units_only=False)


def kernel_basis(mat: SparseMat) -> list[list]:
    """Basis of the right kernel, one dense vector per free column,
    in reduced echelon form with respect to the free columns."""
    ring = mat.ring
    _require_field(ring)
    pivots, rows = _rref(mat.rows_as_dicts(), ring)
    pivot_set = set(pivots)
    basis = []
    for f in range(mat.ncols):
        if f in pivot_set:
            continue
        v = [ring.zero] * mat.ncols
        v[f] = ring.one
        for p, row in zip(pivots, rows):
            c = row.get(f)
            if c is not None:
                v[p] = ring.neg(c)
        basis.append(v)
    return basis


def image_basis(mat: SparseMat) -> list[list]:
    """Basis of the column space as dense vectors in reduced echelon form."""
    ring = mat.ring
    _require_field(ring)
    _, rred = _rref(mat.cols, ring)
    return [[row.get(i, ring.zero) for i in range(mat.nrows)] for row in rred]


def solve(mat: SparseMat, rhs) -> list | None:
    """One solution of ``mat . x = rhs`` over a field, or None.

    Free variables are set to zero, so the witness is deterministic.
    """
    return solve_many(mat, [rhs])[0]


def solve_many(mat: SparseMat, rhs_list) -> list:
    """Solve ``mat . x = rhs`` for several right-hand sides with a single
    elimination; entries are None where the system is inconsistent."""
    ring = mat.ring
    _require_field(ring)
    n = mat.ncols
    rows = mat.rows_as_dicts()
    for k, rhs in enumerate(rhs_list):
        for i, v in enumerate(rhs):
            if not ring.is_zero(v):
                rows[i][n + k] = v
    pivots, rred = _rref(rows, ring)
    bad = set()
    for p, row in zip(pivots, rred):
        if p >= n:
            bad.add(p - n)
            # an all-augmented pivot row witnesses inconsistency for every
            # rhs appearing in it
            bad.update(j - n for j in row if j >= n)
    out = []
    for k in range(len(rhs_list)):
        if k in bad:
            out.append(None)
            continue
        x = [ring.zero] * n
        for p, row in zip(pivots, rred):
            if p < n:
                x[p] = row.get(n + k, ring.zero)
        out.append(x)
    return out


def in_span(vectors, target, ring) -> bool:
    """Whether ``target`` lies in the span of ``vectors`` (dense lists or
    sparse dicts): a forward reduction of ``target`` by them."""
    return not independent(vectors, [target], ring)


def independent(span, candidates, ring) -> list:
    """The candidates, in order, that lie outside the span of ``span`` and
    of the candidates kept before them.  Vectors are dense lists or sparse
    dicts; the kept candidates are returned as given.  Which ones are kept
    depends only on the span of ``span``, not on the vectors spanning it.
    """
    _require_field(ring)
    pivot_of: dict[int, dict] = {}
    for vec in span:
        _insert(_sparse(vec, ring), pivot_of, ring)
    return [vec for vec in candidates if _insert(_sparse(vec, ring), pivot_of, ring)]


# ---------------------------------------------------------------------------
# Smith normal form


@dataclass(frozen=True)
class SmithForm:
    """Invariant factors d_1 | d_2 | ... | d_r of an integer matrix."""

    factors: tuple[int, ...]

    @property
    def rank(self):
        return len(self.factors)

    def torsion(self):
        return tuple(d for d in self.factors if d > 1)


def smith_normal_form(mat: SparseMat, max_entries: int = 4_000_000) -> SmithForm:
    """Invariant factors over Z.

    The +-1 pivots are eliminated sparsely first; each one is a unimodular
    step that contributes a factor 1.  The dense Smith reduction then runs
    on the residual only, and ``max_entries`` caps that residual's dense
    size.  Python ints make overflow impossible; the cap is a resource
    guard, not a correctness bound.
    """
    if mat.ring is not ZZ:
        raise ShapeError("Smith normal form requires integer scalars")
    vecs = _column_vectors(mat)
    units = _eliminate_pivots(vecs, ZZ, units_only=True)
    rows = sorted({i for vec in vecs.values() for i in vec})
    if len(rows) * len(vecs) > max_entries:
        raise ResourceLimit(
            f"dense Smith reduction on the {len(rows)}x{len(vecs)} residual "
            f"of a {mat.nrows}x{mat.ncols} matrix exceeds the cap of "
            f"{max_entries} entries"
        )
    where = {i: t for t, i in enumerate(rows)}
    dense = []
    for vec in vecs.values():
        line = [0] * len(rows)
        for i, v in vec.items():
            line[where[i]] = v
        dense.append(line)
    factors = (1,) * units + _dense_smith(dense, len(rows))
    _check_divisibility_chain(factors)
    return SmithForm(factors)


def _check_divisibility_chain(factors):
    for a, b in zip(factors, factors[1:]):
        if b % a:
            raise ArithmeticError(
                f"invariant factors {a} and {b} break the divisibility chain"
            )


def _dense_smith(A, nc) -> tuple[int, ...]:
    """Diagonalize the dense integer rows ``A`` (``nc`` columns each) in
    place by unimodular row/column operations.

    Pivot choice: nonzero entry of least absolute value in the remaining
    block.
    """
    nr = len(A)
    factors = []
    k = 0
    while k < min(nr, nc):
        # locate minimal-abs nonzero pivot in the trailing block
        pi = pj = -1
        best = 0
        for i in range(k, nr):
            row = A[i]
            for j in range(k, nc):
                v = row[j]
                if v and (best == 0 or abs(v) < best):
                    best = abs(v)
                    pi, pj = i, j
                    if best == 1:
                        break
            if best == 1:
                break
        if pi < 0:
            break
        A[k], A[pi] = A[pi], A[k]
        if pj != k:
            for row in A:
                row[k], row[pj] = row[pj], row[k]
        while True:
            p = A[k][k]
            restart = False
            for i in range(k + 1, nr):
                v = A[i][k]
                if v:
                    q = v // p
                    if q:
                        rk = A[k]
                        A[i] = [a - q * b for a, b in zip(A[i], rk)]
                    if A[i][k]:
                        A[k], A[i] = A[i], A[k]  # strictly smaller pivot
                        restart = True
                        break
            if restart:
                continue
            for j in range(k + 1, nc):
                v = A[k][j]
                if v:
                    q = v // p
                    if q:
                        for row in A:
                            row[j] -= q * row[k]
                    if A[k][j]:
                        for row in A:
                            row[k], row[j] = row[j], row[k]
                        restart = True
                        break
            if restart:
                continue
            # pivot divides everything in its row/col; enforce divisibility
            # of the remaining block so the factors come out in chain order
            bad = None
            for i in range(k + 1, nr):
                row = A[i]
                for j in range(k + 1, nc):
                    if row[j] % p:
                        bad = i
                        break
                if bad is not None:
                    break
            if bad is None:
                break
            rk, rb = A[k], A[bad]
            A[k] = [a + b for a, b in zip(rk, rb)]
        factors.append(abs(A[k][k]))
        k += 1
    return tuple(factors)


# ---------------------------------------------------------------------------
# Homology assembly


@dataclass(frozen=True)
class HomologyGroup:
    """betti + invariant-factor torsion of one homology degree."""

    degree: int
    betti: int
    torsion: tuple[int, ...] = ()

    def describe(self):
        parts = []
        if self.betti == 1:
            parts.append("Z")
        elif self.betti:
            parts.append(f"Z^{self.betti}")
        seen: dict[int, int] = {}
        for d in self.torsion:
            seen[d] = seen.get(d, 0) + 1
        for d in sorted(seen):
            parts.append(f"Z/{d}" if seen[d] == 1 else f"(Z/{d})^{seen[d]}")
        return " + ".join(parts) if parts else "0"


class ChainComplex:
    """The boundary matrices of one chain complex over ``ring``, by degree.

    ``differentials[n]`` is the matrix of ``d_n: C_n -> C_{n-1}``.  Shapes
    and d o d = 0 are checked once per consecutive pair on construction.
    Each differential is reduced at most once (rank over a field, Smith
    form over Z) and the reduction is cached; homology and the cohomology
    of the dual complex are both read from it.
    """

    def __init__(self, differentials: dict, ring):
        self.ring = ring
        self.differentials = dict(differentials)
        self._reductions: dict[int, tuple] = {}
        for n, d in self.differentials.items():
            after = self.differentials.get(n - 1)
            if after is None:
                continue
            pair = f"differentials at degrees {n} and {n - 1}"
            if after.ncols != d.nrows:
                raise ShapeError(f"{pair} do not compose")
            if not after.mul(d).is_zero():
                raise NotAComplex(f"{pair} do not compose to zero")

    def _reduce(self, n) -> tuple[int, tuple[int, ...]]:
        """``(rank, torsion factors)`` of ``d_n``."""
        if n not in self._reductions:
            if n not in self.differentials:
                raise ShapeError(f"no differential at degree {n}")
            d = self.differentials[n]
            ring = self.ring
            if ring.is_field:
                m = d if d.ring is ring else d.change_ring(ring)
                self._reductions[n] = (rank(m), ())
            else:
                snf = smith_normal_form(d)
                self._reductions[n] = (snf.rank, snf.torsion())
        return self._reductions[n]

    def _betti(self, n) -> int:
        # dim C_n - rank d_n - rank d_{n+1}; transposing keeps both ranks
        return self.differentials[n].ncols - self._reduce(n)[0] - self._reduce(n + 1)[0]

    def homology(self, n) -> HomologyGroup:
        """Homology at degree ``n``.

        Over Z the torsion is read from the Smith form of ``d_{n+1}``
        alone: its image already lies in the kernel of ``d_n``, and that
        kernel is a saturated (pure) submodule, so restricting to it does
        not change the invariant factors.
        """
        return HomologyGroup(n, self._betti(n), self._reduce(n + 1)[1])

    def cohomology(self, n) -> HomologyGroup:
        """Cohomology at degree ``n`` of the dual complex, whose coboundary
        leaving degree ``n`` is +-``d_{n+1}^T``.

        The betti number is the homology one.  Over Z the torsion is that
        of ``d_n``: the incoming coboundary is +-``d_n^T``, which has the
        invariant factors of ``d_n``, and the same saturation argument as
        in :meth:`homology` applies.
        """
        return HomologyGroup(n, self._betti(n), self._reduce(n)[1])


def homology(boundary_in: SparseMat, boundary_out: SparseMat, ring,
             degree: int = -1) -> HomologyGroup:
    """Homology at ``C_n`` given ``boundary_in`` = d_{n+1} and
    ``boundary_out`` = d_n: the two-differential case of ``ChainComplex``."""
    return ChainComplex({degree: boundary_out, degree + 1: boundary_in}, ring).homology(degree)
