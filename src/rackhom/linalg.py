"""Exact sparse linear algebra: ranks, kernels, images, Smith normal form,
and the homology of a chain complex.  A ``SparseMat`` holds plain ints and
no ring: each reduction takes the ring it works over, and ``rank`` and
``smith_normal_form`` eliminate on the matrix's own columns (see ``rank``).

Rank and Smith normal form are one sparse pivot elimination in Markowitz
order (shortest vector, then least shared pivot index), without
back-substitution, on integers.  Over F_p every nonzero residue is a
pivot, so that elimination alone gives the rank.  In characteristic 0 the
+-1 entries go first; those steps are unimodular, hence exact.  Euclid's
algorithm on the residual (least-absolute-value pivots, the standard guard
against coefficient explosion), taken as rows or as columns, whichever are
fewer, then finishes: over Z the Smith form, and over Q the rank.  No
reduction has a size limit of its own: the basis cap of the matrix
builders (``--max-basis``) bounds the columns they see.

``ChainComplex`` reduces each differential once and reads homology and
cohomology from that reduction.  It clears across degrees: the pivot
columns of ``d_n`` name rows of ``d_{n+1}`` that are combinations of the
others (because d o d = 0, which it checks), and the reduction of
``d_{n+1}`` leaves them out.  Over F_p every pivot clears; over Z and Q
only those of the +-1 pass, so that no invariant factor changes; see the
class docstring.  A complex whose boundaries are block-diagonal (the rack
complex, split by orbits in ``complexes.RackComplex``) is reduced block by
block: ``direct_sum`` adds the blocks' ranks and merges their torsion with
``exchange``, the gcd/lcm exchange that ``smith_normal_form`` runs on its
own pivots.

Kernels, images, solves and span tests over a field share one forward
reduction on integer rows (clear a row by the leading entries held, store
the remainder under its least index); all but span tests back-substitute.
Over F_p the rows hold residues and lead with 1.  Over Q they are kept
primitive and cleared fraction-free (Bareiss 1968).  A kernel, image or
solve is int vectors over one denominator ``den``, the lcm of the reduced
rows' leading entries (1 over F_p).  Arbitrary-precision integers
throughout; nothing here is probabilistic and nothing floats.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from math import gcd, lcm

from .errors import NotAComplex, ShapeError
from .records import Frozen


class SparseMat:
    """Column-major sparse matrix of plain ints, no zeros, and no ring; its
    ``cols`` are None once a reduction has taken it over (see ``rank``)."""

    __slots__ = ("nrows", "ncols", "cols")

    def __init__(self, nrows, ncols, cols=None):
        self.nrows = nrows
        self.ncols = ncols
        self.cols = cols if cols is not None else [{} for _ in range(ncols)]

    @classmethod
    def identity(cls, n):
        return cls(n, n, [{i: 1} for i in range(n)])

    @classmethod
    def from_dense(cls, rows):
        nrows = len(rows)
        ncols = len(rows[0]) if nrows else 0
        m = cls(nrows, ncols)
        for i, row in enumerate(rows):
            if len(row) != ncols:
                raise ShapeError("ragged dense matrix")
            for j, v in enumerate(row):
                m.add_at(i, j, v)
        return m

    def add_at(self, r, c, v):
        """Add the int ``v`` at ``(r, c)``."""
        if not 0 <= r < self.nrows or not 0 <= c < self.ncols:
            raise ShapeError(f"entry ({r},{c}) outside {self.nrows}x{self.ncols}")
        if not isinstance(v, int):
            raise ShapeError(f"entry ({r},{c}) is {v!r}, not an int")
        col = self.cols[c]
        u = col.get(r, 0) + v
        if u:
            col[r] = u
        else:
            col.pop(r, None)

    def nnz(self):
        return sum(len(c) for c in self.cols)

    def is_zero(self):
        return all(not c for c in self.cols)

    def _product_cols(self, other: "SparseMat"):
        """The columns of ``self`` times ``other``, one at a time, zeros kept."""
        if self.ncols != other.nrows:
            raise ShapeError("shape mismatch in matrix product")
        for col in other.cols:
            acc: dict = {}
            for k, v in col.items():
                for i, w in self.cols[k].items():
                    acc[i] = acc.get(i, 0) + w * v
            yield acc

    def mul(self, other: "SparseMat") -> "SparseMat":
        cols = [{i: a for i, a in acc.items() if a} for acc in self._product_cols(other)]
        return SparseMat(self.nrows, other.ncols, cols)

    def mul_is_zero(self, other: "SparseMat") -> bool:
        """Whether ``self.mul(other)`` is zero, contracted one column at a
        time up to the first nonzero column."""
        return not any(any(acc.values()) for acc in self._product_cols(other))

    def transpose(self) -> "SparseMat":
        out = SparseMat(self.ncols, self.nrows)
        for j, col in enumerate(self.cols):
            for i, v in col.items():
                out.cols[i][j] = v
        return out

    def scaled(self, c) -> "SparseMat":
        """The entries times the int ``c``."""
        cols = [{i: u for i, v in col.items() if (u := v * c)} for col in self.cols]
        return SparseMat(self.nrows, self.ncols, cols)

    def to_dense(self):
        rows = [[0] * self.ncols for _ in range(self.nrows)]
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
        return f"SparseMat({self.nrows}x{self.ncols}, nnz={self.nnz()})"


# ---------------------------------------------------------------------------
# Field elimination


def _require_field(ring):
    if not ring.is_field:
        raise ShapeError(f"{ring} is not a field; use Q or Fp")


def _integer_row(vec, p) -> dict:
    """A dense list or sparse dict of ints as a fresh sparse row with the
    same span: residues mod ``p``, or over Q (``p`` 0) primitive."""
    items = vec.items() if isinstance(vec, dict) else enumerate(vec)
    if p:
        return {i: u for i, v in items if (u := v % p)}
    row = {i: v for i, v in items if v}
    g = gcd(*row.values())
    return {i: v // g for i, v in row.items()}


def _clear(row, base, lead, p):
    """``row := a row - c base`` in place, keeping no zeros, with ``a`` and
    ``c`` the entries of ``base`` (positive) and ``row`` at ``lead`` over
    their gcd.  Over F_p the base leads with 1 and entries are residues;
    over Q the result is divided by its content, so rows stay primitive."""
    c, b = row[lead], base[lead]
    if b != 1:
        g = gcd(c, b)
        c, a = c // g, b // g
        for j in row:
            row[j] *= a
    for j, v in base.items():
        u = row.get(j, 0) - c * v
        if p:
            u %= p
        if u:
            row[j] = u
        else:
            del row[j]
    if not p and (g := gcd(*row.values())) > 1:
        for j in row:
            row[j] //= g


def _insert(row, pivot_of, p) -> bool:
    """Clear from ``row`` (from :func:`_integer_row`) the leading entries held
    in ``pivot_of`` (least index -> row) until its least index holds none,
    and store the remainder there, leading with 1 over F_p and positive over
    Q.  Returns whether there was one (``row`` lay outside their span)."""
    while row and (lead := min(row)) in pivot_of:
        _clear(row, pivot_of[lead], lead, p)
    if not row:
        return False
    scale = pow(row[lead], -1, p) if p else (1 if row[lead] > 0 else -1)
    if scale != 1:
        for j in row:
            row[j] = row[j] * scale % p if p else -row[j]
    pivot_of[lead] = row
    return True


def _echelon(vecs, p) -> dict:
    # the leading rows of the span of ``vecs``, inserted shortest first:
    # that changes no reduced echelon form and fills in less
    pivot_of: dict[int, dict] = {}
    for row in sorted((_integer_row(vec, p) for vec in vecs), key=len):
        _insert(row, pivot_of, p)
    return pivot_of


def _rref(rows, ring):
    """Reduced row echelon form of sparse int row-dicts: ``(pivots,
    pivot_rows, den)``, pivots strictly increasing, each row fully reduced
    against the others and leading with ``den``: 1 over F_p, and over Q the
    lcm of the leading entries of the primitive rows."""
    _require_field(ring)
    p = ring.char
    pivot_of = _echelon(rows, p)
    pivots = sorted(pivot_of)
    for i, k in reversed(list(enumerate(pivots))):
        for q in pivots[:i]:
            if k in pivot_of[q]:
                _clear(pivot_of[q], pivot_of[k], k, p)
    rows = [pivot_of[k] for k in pivots]
    den = lcm(*(row[k] for k, row in zip(pivots, rows)))
    for k, row in zip(pivots, rows):
        if (scale := den // row[k]) > 1:
            for j in row:
                row[j] *= scale
    return pivots, rows, den


def _eliminate_pivots(vecs, p, units_only=False):
    """Sparse pivot elimination on ``vecs`` (``{id: {index: value}}``) over
    F_p, or over Z if ``p`` is 0, in place; returns ``{id: pivot value}`` of
    the pivot vectors, in the order they dropped out.

    Over F_p any entry is a pivot, and over Z with ``units_only`` only a
    +-1 entry (a unimodular step, hence exact).  Markowitz order: the
    shortest vector holding a pivot, then in it the pivot index shared by
    the fewest other vectors.  The pivot index is cleared from every other
    vector, then the pivot vector drops out; nothing is normalized or
    back-substituted.  Vectors that become empty are deleted, so what is
    left in ``vecs`` holds no pivot.

    Otherwise, over Z, this is Euclid's algorithm: the pivot is an entry of
    least absolute value (the queue orders vectors by it, then by length),
    and the other vectors holding its index are reduced by floor division.
    Once none does, the pivot vector's other entries are reduced modulo the
    pivot (index operations, which touch no other vector); the vector drops
    out when only the pivot is left and is queued again otherwise.
    """
    euclid = not p and not units_only
    key = _weight if euclid else len
    holders: dict[int, set] = {}
    for k, vec in vecs.items():
        for j in vec:
            holders.setdefault(j, set()).add(k)
    heap = [(key(vec), k) for k, vec in vecs.items()]
    heapify(heap)
    pivots = {}
    while heap:
        queued, k = heappop(heap)
        vec = vecs.get(k)
        if vec is None or key(vec) != queued:
            continue  # stale entry: the vector changed or dropped out since
        least = queued[0] if euclid else 1
        pc, best = -1, 0
        for j, v in vec.items():
            if not p and v != least and v != -least:
                continue
            c = len(holders[j])
            if pc < 0 or c < best:
                pc, best = j, c
        if pc < 0:
            continue  # no unit now; it is queued again if an update gives it one
        pv = vec.pop(pc)
        inv = pow(pv, -1, p) if p else pv  # a unit +-1 is its own inverse
        kept = {k}  # the vectors still holding ``pc`` afterwards
        for m in holders.pop(pc) - kept:
            other = vecs[m]
            w = other.pop(pc)
            if euclid:
                f, r = divmod(w, pv)
                if r:
                    other[pc] = r
                    kept.add(m)
            else:
                f = w * inv % p if p else w * inv
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
                heappush(heap, (key(other), m))
            else:
                del vecs[m]
        if euclid:
            if len(kept) == 1:
                for j in list(vec):
                    vec[j] %= pv
                    if not vec[j]:
                        del vec[j]
                        holders[j].discard(k)
            if vec or len(kept) > 1:
                vec[pc] = pv
                holders[pc] = kept
                heappush(heap, (key(vec), k))
                continue
        del vecs[k]
        for j in vec:
            holders[j].discard(k)
        pivots[k] = pv
    return pivots


def _weight(vec):
    return min(map(abs, vec.values())), len(vec)


def _column_vectors(mat: SparseMat, drop, p=0) -> dict:
    # rank and invariant factors are invariant under transposition, so the
    # eliminations work on the stored columns themselves, taken from ``mat``:
    # the rows in ``drop`` are deleted and, unless ``p`` is 0, the entries
    # reduced mod ``p`` in place, so that the surviving keys keep the order
    # by which ``_eliminate_pivots`` breaks its ties
    cols, mat.cols = mat.cols, None
    if drop or p:
        for col in cols:
            for i, v in list(col.items()):
                u = v % p if p else v
                if u and i not in drop:
                    col[i] = u
                else:
                    del col[i]
    return {j: col for j, col in enumerate(cols) if col}


def _column_pivots(mat: SparseMat, drop, p=0, pivots=None) -> tuple[dict, dict]:
    """The column reduction under :func:`rank` and :func:`smith_normal_form`:
    ``{id: pivot value}`` of the +-1 pass, whose ids are appended to
    ``pivots`` if it is a list, and of Euclid's algorithm on what that pass
    leaves, taken as rows when they are fewer than its columns: rank and
    invariant factors do not change under transposition, and only the +-1
    pivots clear.  Over F_p every pivot is a unit, so the second is empty."""
    vecs = _column_vectors(mat, drop, p)
    units = _eliminate_pivots(vecs, p, units_only=True)
    if pivots is not None:
        pivots.extend(units)
    if len({i for vec in vecs.values() for i in vec}) < len(vecs):
        rows: dict = {}
        for k in list(vecs):  # each column freed as it is read
            for i, v in vecs.pop(k).items():
                rows.setdefault(i, {})[k] = v
        vecs = rows
    return units, _eliminate_pivots(vecs, 0)


def rank(mat: SparseMat, ring, drop=frozenset(), pivots=None) -> int:
    """Rank over the field ``ring`` by sparse elimination alone, of ``mat``
    less the rows in ``drop``; the ids of the pivot columns that may clear
    the next degree (see ``ChainComplex``) are appended to ``pivots`` if it
    is a list.  It takes ``mat`` over: the elimination runs on its column
    dicts, and ``mat`` keeps only its shape (``cols`` is None, so that
    reading an entry raises instead of reading as zero).

    Over F_p the entries are reduced mod p in place, and every pivot
    counts and clears.  Over Q the rank is that over Z: the +-1 pass and
    Euclid's algorithm of :func:`smith_normal_form`.  Only the +-1 pivots
    clear, as over Z.
    """
    _require_field(ring)
    units, euclid = _column_pivots(mat, drop, ring.char, pivots)
    return len(units) + len(euclid)


def kernel_basis(mat: SparseMat, ring) -> tuple[list[list], int]:
    """``(basis, den)``: a basis of the right kernel over ``ring``, one dense
    int vector per free column, over the one denominator ``den`` (1 over
    F_p), and in reduced echelon form with respect to the free columns."""
    p = ring.char
    pivots, rows, den = _rref(mat.transpose().cols, ring)
    pivot_set = set(pivots)
    basis = {f: [0] * mat.ncols for f in range(mat.ncols) if f not in pivot_set}
    for f, v in basis.items():
        v[f] = den
    for k, row in zip(pivots, rows):
        for f, c in row.items():
            if f != k:  # a free column: the other pivot columns are cleared
                basis[f][k] = -c % p if p else -c
    return list(basis.values()), den


def image_basis(mat: SparseMat, ring) -> tuple[list[list], int]:
    """``(basis, den)``: a basis of the column space over ``ring`` as dense
    int vectors over the one denominator ``den``, in reduced echelon form."""
    _, rred, den = _rref(mat.cols, ring)
    return [[row.get(i, 0) for i in range(mat.nrows)] for row in rred], den


def solve(mat: SparseMat, rhs, ring) -> tuple[list | None, int]:
    """``(x, den)``: one int solution ``x / den`` of ``mat . x = rhs`` over
    ``ring``, or None for ``x``; free variables are set to zero, so the
    witness is deterministic."""
    xs, den = solve_many(mat, [rhs], ring)
    return xs[0], den


def solve_many(mat: SparseMat, rhs_list, ring) -> tuple[list, int]:
    """Solve ``mat . x = rhs`` over ``ring`` for several int right-hand sides
    with a single elimination: ``(solutions, den)``, int vectors over the
    one denominator ``den``, None where the system is inconsistent."""
    n = mat.ncols
    rows = mat.transpose().cols
    for k, rhs in enumerate(rhs_list):
        if len(rhs) != mat.nrows:
            raise ShapeError(f"right-hand side has {len(rhs)} entries for {mat.nrows} rows")
        for i, v in enumerate(rhs):
            if v:
                rows[i][n + k] = v
    pivots, rred, den = _rref(rows, ring)
    # a pivot row in the augmented columns witnesses inconsistency for every
    # rhs appearing in it
    bad = {j - n for p, row in zip(pivots, rred) if p >= n for j in row}
    out = [None if k in bad else [0] * n for k in range(len(rhs_list))]
    for p, row in zip(pivots, rred):
        for j, v in row.items():
            if p < n <= j and out[j - n] is not None:
                out[j - n][p] = v
    return out, den


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
    p = ring.char
    pivot_of = _echelon(span, p)
    return [vec for vec in candidates if _insert(_integer_row(vec, p), pivot_of, p)]


# ---------------------------------------------------------------------------
# Smith normal form


def smith_normal_form(mat: SparseMat, drop=frozenset(), pivots=None) -> tuple[int, ...]:
    """Invariant factors d_1 | d_2 | ... | d_r over Z of ``mat`` less the
    rows in ``drop``.  It takes ``mat`` over, as :func:`rank` does.

    The +-1 pivots go first, each a unimodular step with factor 1; their
    column ids are appended to ``pivots`` if it is a list.  Euclid's
    algorithm then reduces the residual, as :func:`rank` does over Q, and
    :func:`exchange` puts its pivots into chain order.
    """
    units, euclid = _column_pivots(mat, drop, 0, pivots)
    factors = (1,) * len(units) + tuple(exchange([abs(v) for v in euclid.values()]))
    _check_divisibility_chain(factors)
    return factors


def exchange(diagonal) -> list:
    """The positive ints ``diagonal`` of a diagonal matrix put into chain
    order, each dividing the next, by the exchange diag(a, b) ~ diag(gcd(a,
    b), lcm(a, b)): the invariant factors of that matrix."""
    chain = list(diagonal)
    for i in range(len(chain)):
        for j in range(i + 1, len(chain)):
            a, b = chain[i], chain[j]
            if b % a:
                chain[i], chain[j] = gcd(a, b), lcm(a, b)
    return chain


def direct_sum(reductions) -> tuple[int, tuple[int, ...]]:
    """``(rank, torsion)`` of a block-diagonal matrix from those of its
    blocks: the ranks add up, and the torsion factors of all the blocks are
    put into chain order by :func:`exchange`, so that Z/2 in one block and
    Z/3 in another are Z/6."""
    torsion = exchange([d for _, factors in reductions for d in factors])
    return sum(r for r, _ in reductions), tuple(d for d in torsion if d > 1)


def _check_divisibility_chain(factors):
    for a, b in zip(factors, factors[1:]):
        if b % a:
            raise ArithmeticError(
                f"invariant factors {a} and {b} break the divisibility chain"
            )


# ---------------------------------------------------------------------------
# Homology assembly


class HomologyGroup(Frozen):
    """betti + invariant-factor torsion of one homology degree."""

    _fields = ("degree", "betti", "torsion")

    def __init__(self, degree: int, betti: int, torsion: tuple[int, ...] = ()):
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "betti", betti)
        object.__setattr__(self, "torsion", torsion)

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
    """The integer boundary matrices of one chain complex, read over ``ring``.

    ``differentials[n]`` is the matrix of ``d_n: C_n -> C_{n-1}``.  Shapes
    and d o d = 0 are checked once per consecutive pair on construction,
    over Z (a zero there is a zero in every ring), one product column at a
    time up to the first nonzero one.  Each differential is reduced at most
    once (rank over a field, Smith form over Z) and the reduction is
    cached; homology and the cohomology of the dual complex are both read
    from it.  The complex takes its matrices over and releases each one
    once reduced: no caller may read a matrix after handing it in.

    Reductions clear across degrees (the *twist* of persistent homology,
    Chen--Kerber 2011): ``d_n`` is reduced first, and the rows of
    ``d_{n+1}`` at its pivot columns J are left out.  With I the pivot
    rows, ``U = d_n[I, J]`` is invertible, and d_n d_{n+1} = 0 gives
    ``d_{n+1}[J, :] = -U^-1 d_n[I, J^c] d_{n+1}[J^c, :]``: those rows are
    combinations of the others, so leaving them out keeps the rank.  The
    argument rests on d o d = 0, which is why the check above is not
    optional.  Over F_p every pivot goes into J.  Over Z and Q only the
    pivots of the +-1 pass do: U is then unimodular, the rows left out are
    integer combinations of the rest, and no invariant factor changes.  A
    Euclid pivot would not do over Z: with ``d_1 = [4 6]`` and
    ``d_2 = [3 -2]^T``, H_1 = 0, but leaving out either row of ``d_2``
    gives Z/3 or Z/2.  Over Q, whose rank comes from the same integer
    elimination, the Euclid pivots are left out too: a Euclid pivot vector
    can be reduced again after others have used it, so its ids are not
    shown to form a J.
    """

    def __init__(self, differentials: dict, ring):
        self.ring = ring
        self.differentials = dict(differentials)  # each popped when reduced
        self._dims = {n: d.ncols for n, d in self.differentials.items()}  # dim C_n
        self._reductions: dict[int, tuple] = {}
        for n, d in self.differentials.items():
            after = self.differentials.get(n - 1)
            if after is None:
                continue
            pair = f"differentials at degrees {n} and {n - 1}"
            if after.ncols != d.nrows:
                raise ShapeError(f"{pair} do not compose")
            if not after.mul_is_zero(d):
                raise NotAComplex(f"{pair} do not compose to zero")

    def _reduce(self, n) -> tuple[int, tuple[int, ...], list[int]]:
        """``(rank, torsion factors, clearing pivots)`` of ``d_n``, the last
        being the columns J whose rows ``d_{n+1}`` leaves out."""
        if n not in self._reductions:
            if n not in self._dims:
                raise ShapeError(f"no differential at degree {n}")
            drop = frozenset(self._reduce(n - 1)[2] if n - 1 in self._dims else ())
            d = self.differentials.pop(n)
            pivots: list[int] = []
            if self.ring.is_field:
                self._reductions[n] = (rank(d, self.ring, drop=drop, pivots=pivots), (), pivots)
            else:
                factors = smith_normal_form(d, drop=drop, pivots=pivots)
                torsion = tuple(f for f in factors if f > 1)
                self._reductions[n] = (len(factors), torsion, pivots)
        return self._reductions[n]

    def reduction(self, n) -> tuple[int, tuple[int, ...]]:
        """``(rank, torsion factors)`` of ``d_n``, over Z the torsion being
        its invariant factors above 1 (and () over a field)."""
        return self._reduce(n)[:2]

    def _chains(self, n) -> int:
        return self._dims[n]

    def _betti(self, n) -> int:
        # dim C_n - rank d_n - rank d_{n+1}; transposing keeps both ranks
        return self._chains(n) - self.reduction(n)[0] - self.reduction(n + 1)[0]

    def homology(self, n) -> HomologyGroup:
        """Homology at degree ``n``.

        Over Z the torsion is read from the Smith form of ``d_{n+1}``
        alone: its image already lies in the kernel of ``d_n``, and that
        kernel is a saturated (pure) submodule, so restricting to it does
        not change the invariant factors.
        """
        return HomologyGroup(n, self._betti(n), self.reduction(n + 1)[1])

    def cohomology(self, n) -> HomologyGroup:
        """Cohomology at degree ``n`` of the dual complex, whose coboundary
        leaving degree ``n`` is +-``d_{n+1}^T``.

        The betti number is the homology one.  Over Z the torsion is that
        of ``d_n``: the incoming coboundary is +-``d_n^T``, which has the
        invariant factors of ``d_n``, and the same saturation argument as
        in :meth:`homology` applies.
        """
        return HomologyGroup(n, self._betti(n), self.reduction(n)[1])


def homology(boundary_in: SparseMat, boundary_out: SparseMat, ring,
             degree: int = -1) -> HomologyGroup:
    """Homology at ``C_n`` given ``boundary_in`` = d_{n+1} and
    ``boundary_out`` = d_n: the two-differential case of ``ChainComplex``,
    which takes both matrices over."""
    return ChainComplex({degree: boundary_out, degree + 1: boundary_in}, ring).homology(degree)
