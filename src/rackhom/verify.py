"""Executable verification suites for the structural identities.

Every suite is exhaustive at its fixed sizes (nothing is sampled) and
returns the number of checks performed plus, on failure, a minimal witness:
the offending monomial, tuple, or pair.  The CLI ``verify`` command and the
acceptance tests both run these, so what the tool reports is exactly what
the test suite enforces.

The suite contract: a suite takes no arguments.  Its body, wrapped by
:func:`_suite`, is a generator that yields one outcome per check, either
``True`` or the witness string of a failure, written
``yield ok or f"..."`` so that the witness is formatted only when the check
fails.  The body may ``return`` a list of notes.  The wrapper counts the
outcomes, stops at the first failure (whose check is counted), and builds
the :class:`SuiteResult`; a failed suite carries no notes.
"""

from __future__ import annotations

import functools
import itertools
import time

from .complexes import (
    Cochain,
    basis_cochain,
    boundary_matrix,
    cochain_differential_matrix,
    tuple_basis,
)
from .cup import CupContext, cup, cup_via_coproduct, homotopy_cochain, ring_structure
from .errors import InvalidSpec, R1Violation, R2Violation, RackhomError
from .linalg import ChainComplex, kernel_basis
from .racks import builtin, orbits, validate_rack, xset_self, xset_singleton
from .records import Record
from .rings import QQ, ZZ
from .words import WordAlgebra, _acc

BUILTIN_SPECS = (
    "trivial:1", "trivial:2", "trivial:3", "trivial:4",
    "dihedral:3", "dihedral:4", "dihedral:5", "dihedral:6",
    "cyclic:3", "cyclic:4",
    "conjugation:s3",
)

SMALL_WORD_RACKS = ("trivial:3", "dihedral:3", "cyclic:3")


class SuiteResult(Record):
    """One suite's outcome: its name, whether it passed, how many checks ran,
    the first failing witness, and notes."""

    __slots__ = _fields = ("name", "passed", "checks", "witness", "notes")

    def __init__(self, name: str, passed: bool, checks: int, witness: str | None = None,
                 notes: list[str] | None = None):
        self.name = name
        self.passed = passed
        self.checks = checks
        self.witness = witness
        self.notes = [] if notes is None else notes

    def as_dict(self):
        return {"name": self.name, "passed": self.passed, "checks": self.checks,
                "witness": self.witness, "notes": list(self.notes)}


ALL_SUITES = {}


def _suite(name):
    """Register a suite body under ``name`` and record its checks.

    The decorated function takes no arguments and returns a
    :class:`SuiteResult`; see the module docstring for the body's contract.
    """

    def wrap(body):
        @functools.wraps(body)
        def run():
            outcomes = body()
            checks = 0
            while True:
                try:
                    outcome = next(outcomes)
                except StopIteration as done:
                    return SuiteResult(name, True, checks, notes=done.value or [])
                checks += 1
                if outcome is not True:
                    outcomes.close()
                    return SuiteResult(name, False, checks, outcome)

        ALL_SUITES[name] = run
        return run

    return wrap


def _monomials(W, rack, max_e, max_prefix):
    n = rack.size
    for ne in range(max_e + 1):
        for e in itertools.product(range(n), repeat=ne):
            for ka in range(max_prefix + 1):
                for a in itertools.product(range(n), repeat=ka):
                    yield W.element({(a, e): 1})


def coassociativity_defect(W: WordAlgebra, u, deltas: dict):
    """(Delta (x) 1) Delta(u) minus (1 (x) Delta) Delta(u) as a dict of
    monomial triples; Delta is even, so no Koszul signs appear.  ``deltas``,
    a dict from monomials to the terms of their Delta, is read and filled
    for each factor, so that calls sharing it build each factor's once."""
    out: dict = {}
    for (l, r), c in W.coproduct(u).terms.items():
        for m in (l, r):
            if m not in deltas:
                deltas[m] = W.coproduct(W.element({m: 1})).terms
        for (a, b), c2 in deltas[l].items():
            _acc(out, (a, b, r), c * c2)
        for (a, b), c2 in deltas[r].items():
            _acc(out, (l, a, b), -c * c2)
    return out


# ---------------------------------------------------------------------------


@_suite("axioms")
def suite_axioms():
    """Builtins pass R1/R2; mutated tables are rejected with real witnesses."""
    for spec in BUILTIN_SPECS:
        rack = builtin(spec)
        yield True  # builtin() validates R1 and R2, or raises
        table = [list(row) for row in rack.table]
        n = rack.size
        if n < 2:
            continue
        # constant column: guaranteed R1 break
        bad = [row[:] for row in table]
        for x in range(n):
            bad[x][0] = 0
        try:
            validate_rack(bad)
        except R1Violation as err:
            yield err.y == 0 or f"{spec}: R1 witness column {err.y} != 0"
        except RackhomError:
            yield f"{spec}: wrong error for constant column"
        else:
            yield f"{spec}: constant column accepted"
        # swap two entries inside a column: R1 survives, search for an R2 break
        swaps = ((y, a, b) for y in range(n) for a, b in itertools.combinations(range(n), 2))
        for y, a, b in swaps:
            cand = [row[:] for row in table]
            cand[a][y], cand[b][y] = cand[b][y], cand[a][y]
            try:
                validate_rack(cand)
            except R2Violation as err:
                x_, y_, z_ = err.x, err.y, err.z
                yield cand[cand[x_][y_]][z_] != cand[cand[x_][z_]][cand[y_][z_]] or (
                    f"{spec}: R2 witness ({x_},{y_},{z_}) does not violate R2"
                )
                break
            except RackhomError:
                yield f"{spec}: column swap broke R1?"
        else:
            yield f"{spec}: no column swap breaks R2"


@_suite("squarezero")
def suite_squarezero():
    """Boundary squares to zero up to degree 4 on the builtins of size <= 4:
    both variants, trivial / Y=X / singleton coefficients."""
    for spec in BUILTIN_SPECS:
        rack = builtin(spec)
        if rack.size > 4:
            continue
        for quandle in [False, True] if rack.is_quandle() else [False]:
            for xs in (None, xset_self(rack), xset_singleton(rack)):
                mats = {n: boundary_matrix(rack, n, quandle=quandle, xset=xs)
                        for n in range(1, 5)}
                for n in range(2, 5):
                    yield mats[n - 1].mul_is_zero(mats[n]) or (
                        f"{spec} [{'quandle' if quandle else 'rack'},"
                        f"{xs.label if xs else 'trivial'}]: d_{n-1} d_{n} != 0"
                    )


def _word_identities(spec):
    """One rack's checks.  Each operand is computed once, before the checks
    that read it: d(u) for d^2 and the coderivation, u and Delta(u) of each
    prefixed factor for multiplicativity, and Delta of each factor of the
    coassociativity checks on first use.  All is freed with the algebra."""
    rack = builtin(spec)
    W = WordAlgebra(rack)
    n = rack.size
    for u in _monomials(W, rack, 3, 2):
        du = W.d(u)
        yield not W.d(du) or f"{spec}: d^2 != 0 on {u!r}"
        yield W.tensor_d(W.coproduct(u)) == W.coproduct(du) or (
            f"{spec}: coderivation fails on {u!r}"
        )
    # coderivation on pure e-words of length 4
    for e in itertools.product(range(n), repeat=4):
        u = W.eword(e)
        yield W.tensor_d(W.coproduct(u)) == W.coproduct(W.d(u)) or (
            f"{spec}: coderivation fails on {e}"
        )
    # multiplicativity: combined e-length <= 4, combined prefix <= 2
    ewords = [e for k in range(3) for e in itertools.product(range(n), repeat=k)]
    prefix_pairs = [((), ())]
    prefix_pairs += [((x,), ()) for x in range(n)]
    prefix_pairs += [((), (x,)) for x in range(n)]
    prefix_pairs += [((x,), (y,)) for x in range(n) for y in range(n)]
    factors = {(a, e): (u, W.coproduct(u)) for a in [()] + [(x,) for x in range(n)]
               for e in ewords for u in [W.element({(a, e): 1})]}
    for e1 in ewords:
        for e2 in ewords:
            for a1, a2 in prefix_pairs:
                (u, cop_u), (v, cop_v) = factors[a1, e1], factors[a2, e2]
                yield W.coproduct(u * v) == W.tensor_multiply(cop_u, cop_v) or (
                    f"{spec}: Delta not multiplicative on {u!r} * {v!r}"
                )
    # coassociativity on e-words <= 3 and a prefixed layer
    deltas = {}
    for ne in range(4):
        for e in itertools.product(range(n), repeat=ne):
            for a in [(), (0,)]:
                u = W.element({(a, e): 1})
                yield not coassociativity_defect(W, u, deltas) or (
                    f"{spec}: coassociativity fails on {u!r}"
                )


@_suite("words")
def suite_word_identities():
    """d^2 = 0, coproduct multiplicativity, coassociativity, coderivation."""
    for spec in SMALL_WORD_RACKS:
        yield from _word_identities(spec)


@_suite("coproduct")
def suite_coproduct():
    """The closed formula that ``cup`` runs == the multiplicative coproduct,
    term by term, on every e-word of length <= 4: the terms of the cup
    stencils (p, q), p + q = n, summed per target tuple, each the tensor
    (delete A) (x) (prefix . conjugating-delete A^c) with eps(A) = -1
    exactly when ``negative`` differs from the parity of pq."""
    for spec in ("dihedral:3", "dihedral:4"):
        ctx = CupContext(builtin(spec))
        W = ctx.algebra
        for n in range(5):
            sums = [{} for _ in ctx.basis(n).tuples]
            for p in range(n + 1):
                q = n - p
                odd = bool(p * q & 1)
                rights = ctx.basis(q).tuples
                for left, row in zip(ctx.basis(p).tuples, ctx.stencil(p, q)[1]):
                    for t, ri, prefix, negative in row:
                        key = (((), left), (W.canonical_a_word(prefix), rights[ri]))
                        _acc(sums[t], key, -1 if negative != odd else 1)
            for e, terms in zip(ctx.basis(n).tuples, sums):
                yield terms == W.coproduct(W.eword(e)).terms or (
                    f"{spec}: formula != coproduct on {e}"
                )


def _homotopy_identities(spec):
    """One rack's checks, scoped like ``_word_identities``; the splitting
    rule reads each e-word, its h, Delta and tau Delta from one table."""
    rack = builtin(spec)
    W = WordAlgebra(rack)
    n = rack.size
    op = rack.table
    for u in _monomials(W, rack, 3, 2):
        yield not W.homotopy_defect(u) or f"{spec}: homotopy identity fails on {u!r}"
    words = {e: (u, W.h(u), cop, W.tensor_flip(cop))
             for ne in range(5) for e in itertools.product(range(n), repeat=ne)
             for u in [W.eword(e)] for cop in [W.coproduct(u)]}
    for e in words:
        for k in range(len(e) + 1):
            (ua, ha, _, flip_a), (ub, hb, cop_b, _) = words[e[:k]], words[e[k:]]
            lhs = W.h(ua * ub)
            rhs = W.tensor_multiply(ha, cop_b) + (-1) ** k * W.tensor_multiply(flip_a, hb)
            yield lhs == rhs or f"{spec}: splitting rule fails on {e} at {k}"
    for x in range(n):
        for y in range(n):
            got = W.h(W.eword((x, y)))
            exy = W.monomial((), (x, y))
            expect_terms: dict = {}
            for key, c in (
                ((W.monomial((x,), (y,)), exy), 1),
                ((W.monomial((), (x,)), exy), 1),
                ((exy, W.monomial((y,), (op[x][y],))), -1),  # e_x y = y e_{x<|y}
                ((exy, W.monomial((), (y,))), -1),
            ):
                expect_terms[key] = expect_terms.get(key, 0) + c
            yield got == W.tensor(expect_terms) or f"{spec}: closed form h(e_{x} e_{y}) wrong"


@_suite("homotopy")
def suite_homotopy():
    """Homotopy identity, the splitting rule, and the closed degree-2 form.

    The identity is checked in the orientation forced by the generators,
    d h + h d = Delta - tau Delta  (see the word-engine module docstring).
    """
    for spec in SMALL_WORD_RACKS:
        yield from _homotopy_identities(spec)


@_suite("faces")
def suite_faces():
    """Cube-set exchange identities up to length 5, the faces of each first
    face read from one table per rack, and order-independence of composite
    faces.

    A monomial's faces are a list, face (k, eps) at index 2k - 2 + eps, and
    the exchange checks read index pairs laid out once per length.  The
    increasing-order composite over a subset of 1..4 extends that over the
    subset without its largest index: one face per subset."""
    # d_i^eps d_j^eta = d_{j-1}^eta d_i^eps for i < j <= n as list positions,
    # then the witness's (i, j, eps, eta)
    exchanges = {n: [(2 * j - 2 + eta, 2 * i - 2 + eps, 2 * j - 4 + eta, i, j, eps, eta)
                     for j in range(2, n + 1) for i in range(1, j)
                     for eps in (0, 1) for eta in (0, 1)] for n in range(2, 6)}
    subsets = [[i + 1 for i in range(4) if bits >> i & 1] for bits in range(1 << 4)]
    for spec in ("dihedral:3", "dihedral:4", "cyclic:4"):
        rack = builtin(spec)
        W = WordAlgebra(rack)
        size = rack.size
        table = {}  # first-face monomial -> all of its faces
        face = W.face_monomial

        def faces(m):
            return [face(m, k, eps) for k in range(1, len(m[1]) + 1) for eps in (0, 1)]

        for n in range(2, 6):
            for t in itertools.product(range(size), repeat=n):
                second = [table.get(f) or table.setdefault(f, faces(f)) for f in faces(((), t))]
                for jk, ik, jk_low, i, j, eps, eta in exchanges[n]:
                    yield second[jk][ik] == second[ik][jk_low] or (
                        f"{spec}: exchange fails at {t} i={i} j={j} eps={eps} eta={eta}"
                    )
        # order-independence of composite faces over subsets of 1..4
        for t in itertools.product(range(size), repeat=4):
            m = ((), t)
            chains = ([m], [m])  # per eps, by subset bits: faced in increasing order
            for eps, chain in enumerate(chains):
                for bits in range(1, 1 << 4):  # the rest deleted, last moved len(rest) left
                    *rest, last = subsets[bits]
                    chain.append(face(chain[bits ^ 1 << last - 1], last - len(rest), eps))
            for bits, idx in enumerate(subsets):
                for eps in (0, 1):
                    yield W.face_set(m, idx, eps) == chains[eps][bits] or (
                        f"{spec}: composite face order-dependent at {t} A={idx} eps={eps}"
                    )


def _all_basis_cochains(rack, p, ring, quandle=False):
    # indicator cochains from one basis, not one basis_cochain (and basis) each
    n = len(tuple_basis(rack, p, quandle))
    out = []
    for i in range(n):
        values = [0] * n
        values[i] = 1
        out.append(Cochain(p, ring, values, quandle))
    return out


@_suite("cup")
def suite_cup():
    """Associativity, the derivation law, the oracle pair, and the two
    closed low-degree expansions."""
    for spec in ("dihedral:3", "trivial:2"):
        rack = builtin(spec)
        ctx = CupContext(rack)
        cochains = {p: _all_basis_cochains(rack, p, ZZ) for p in range(5)}
        # strict associativity, p+q+r <= 5
        for p in range(4):
            for q in range(4):
                for r in range(4):
                    if not (1 <= p + q + r <= 5):
                        continue
                    for g in cochains[q]:
                        gh_cache = [cup(g, h, ctx) for h in cochains[r]]
                        for f in cochains[p]:
                            fg = cup(f, g, ctx)
                            for hi, h in enumerate(cochains[r]):
                                left = cup(fg, h, ctx)
                                right = cup(f, gh_cache[hi], ctx)
                                yield left.values == right.values or (
                                    f"{spec}: associativity fails at degrees ({p},{q},{r})"
                                )
        # super-derivation law, p+q <= 3
        for p in range(4):
            for q in range(4 - p):
                for f in cochains[p]:
                    df = ctx.differential(f)
                    for g in cochains[q]:
                        dg = ctx.differential(g)
                        lhs = ctx.differential(cup(f, g, ctx))
                        rhs1 = cup(df, g, ctx)
                        rhs2 = cup(f, dg, ctx)
                        sign = -1 if p % 2 else 1
                        combined = [a + sign * b for a, b in zip(rhs1.values, rhs2.values)]
                        yield lhs.values == combined or (
                            f"{spec}: derivation law fails at degrees ({p},{q})"
                        )
    # oracle pair on dihedral:3, p+q <= 4
    rack = builtin("dihedral:3")
    ctx = CupContext(rack)
    cochains = {p: _all_basis_cochains(rack, p, ZZ) for p in range(4)}
    for p in range(1, 4):
        for q in range(1, 5 - p):
            for f in cochains[p]:
                for g in cochains[q]:
                    yield cup(f, g, ctx).values == cup_via_coproduct(f, g, ctx).values or (
                        f"dihedral:3: cup != cup-via-coproduct at degrees ({p},{q})"
                    )
    # closed p=q=1 expansion: (f.g)(x,y) = -f(x)g(y) + f(y)g(x<|y)
    op = rack.table
    b2 = tuple_basis(rack, 2)
    for f in cochains[1]:
        for g in cochains[1]:
            fg = cup(f, g, ctx)
            for (x, y) in b2.tuples:
                expect = -f.values[x] * g.values[y] + f.values[y] * g.values[op[x][y]]
                yield fg.values[b2.index[(x, y)]] == expect or (
                    f"p=q=1 expansion fails at ({x},{y})"
                )
    # closed p=q=2 six-term expansion (signs forced by the Koszul coproduct)
    b4 = tuple_basis(rack, 4)
    b2i = b2.index

    def opw(a, *ws):
        for w in ws:
            a = op[a][w]
        return a

    for f in cochains[2]:
        for g in cochains[2]:
            fg = cup(f, g, ctx)
            fv = lambda a, b: f.values[b2i[(a, b)]]
            gv = lambda a, b: g.values[b2i[(a, b)]]
            for (x, y, z, t) in b4.tuples:
                expect = (
                    fv(x, y) * gv(z, t)
                    + fv(z, t) * gv(opw(x, z, t), opw(y, z, t))
                    - fv(x, z) * gv(op[y][z], t)
                    + fv(x, t) * gv(op[y][t], op[z][t])
                    + fv(y, z) * gv(opw(x, y, z), t)
                    - fv(y, t) * gv(opw(x, y, t), op[z][t])
                )
                yield fg.values[b4.index[(x, y, z, t)]] == expect or (
                    f"p=q=2 expansion fails at ({x},{y},{z},{t})"
                )


@_suite("commutativity")
def suite_commutativity():
    """Cocycle-level homotopy identity, ring-level graded commutativity,
    trivial-rack cochain-level commutativity, and the non-commutativity
    witness on the three-element dihedral quandle."""
    notes = []
    ring = QQ
    for spec in ("dihedral:3", "dihedral:4"):
        rack = builtin(spec)
        ctx = CupContext(rack)
        cocycles = {}
        for p in (1, 2):
            vecs, den = kernel_basis(ctx.coboundary(p), ring)
            cocycles[p] = [Cochain(p, ring, v, den=den) for v in vecs]
        for p in (1, 2):
            for q in (1, 2):
                sign = -1 if (p * q) % 2 else 1
                for f in cocycles[p]:
                    for g in cocycles[q]:
                        H = homotopy_cochain(f, g, ctx)
                        dH = ctx.differential(H)
                        fg = cup(f, g, ctx)
                        gf = cup(g, f, ctx)
                        comm = [a - sign * b for a, b in zip(fg.values, gf.values)]
                        yield dH.values == comm or (
                            f"{spec}: d*H != graded commutator at degrees ({p},{q})"
                        )
        rs = ring_structure(rack, ring, 4)
        notes.append(f"{spec} H^p dims: " + str([rs.dims[p] for p in range(5)]))
        for p in (1, 2):
            for q in (1, 2):
                sign = -1 if (p * q) % 2 else 1
                for i in range(rs.dims[p]):
                    for j in range(rs.dims[q]):
                        left = rs.products[(p, i, q, j)]
                        right = rs.products[(q, j, p, i)]
                        yield left == tuple(sign * c for c in right) or (
                            f"{spec}: [f][g] != (-1)^pq [g][f] at ({p},{i},{q},{j})"
                        )
    # trivial racks: graded commutativity on the nose at cochain level
    for spec in ("trivial:2", "trivial:3"):
        rack = builtin(spec)
        ctx = CupContext(rack)
        for p in (1, 2):
            for q in (1, 2):
                sign = -1 if (p * q) % 2 else 1
                for f in _all_basis_cochains(rack, p, ZZ):
                    for g in _all_basis_cochains(rack, q, ZZ):
                        fg = cup(f, g, ctx)
                        gf = cup(g, f, ctx)
                        yield fg.values == [sign * v for v in gf.values] or (
                            f"{spec}: trivial rack not graded-commutative at ({p},{q})"
                        )
    # dihedral:3 witness: the anticommutator of the indicator 1-cochains of
    # 0 and 1 takes the value -1 on (0,1)
    rack = builtin("dihedral:3")
    ctx = CupContext(rack)
    f = basis_cochain(rack, 1, ZZ, (0,))
    g = basis_cochain(rack, 1, ZZ, (1,))
    fg = cup(f, g, ctx)
    gf = cup(g, f, ctx)
    b2 = tuple_basis(rack, 2)
    val = fg.values[b2.index[(0, 1)]] + gf.values[b2.index[(0, 1)]]
    yield val == -1 or f"dihedral:3 anticommutator witness is {val}, not -1"
    return notes


def _projection_identities(rack, spec):
    # one rack's checks, scoped like _word_identities, so that the algebra
    # is freed before the boundary matrices are built
    W = WordAlgebra(rack)
    n = rack.size
    max_len = 4 if n <= 3 else 3
    for ne in range(1, max_len + 1):
        for e in itertools.product(range(n), repeat=ne):
            u = W.eword(e)
            pu = W.quandle_project(u)
            yield W.quandle_project(W.d(u)) == W.quandle_project(W.d(pu)) or (
                f"{spec}: projection vs d fails on {e}"
            )
            yield W.quandle_project_tensor(W.coproduct(u)) == W.quandle_project_tensor(
                W.coproduct(pu)
            ) or f"{spec}: projection vs Delta fails on {e}"
            yield W.quandle_project_tensor(W.h(u)) == W.quandle_project_tensor(
                W.h(pu)
            ) or f"{spec}: projection vs h fails on {e}"


@_suite("quandle")
def suite_quandle():
    """Quotient correctness: the projection commutes with the differential
    and (componentwise) with the coproduct and homotopy, and the quandle
    boundary is the induced map on the non-degenerate basis."""
    for spec in ("dihedral:3", "conjugation:s3"):
        rack = builtin(spec)
        yield from _projection_identities(rack, spec)
        # induced boundary on the non-degenerate basis
        for deg in range(1, 5):
            full = boundary_matrix(rack, deg)
            quot = boundary_matrix(rack, deg, quandle=True)
            src_full = tuple_basis(rack, deg)
            tgt_full = tuple_basis(rack, deg - 1)
            src_q = tuple_basis(rack, deg, True)
            tgt_q = tuple_basis(rack, deg - 1, True)
            for t in src_q.tuples:
                col_full = full.cols[src_full.index[t]]
                projected = {}
                for row, v in col_full.items():
                    qi = tgt_q.index.get(tgt_full.tuples[row])
                    if qi is not None:
                        projected[qi] = v
                yield projected == quot.cols[src_q.index[t]] or (
                    f"{spec}: induced boundary wrong at {t}"
                )
            # the boundary maps the degenerate span into itself: projected
            # boundary of a degenerate tuple must vanish in the quotient
            for t in src_full.tuples:
                if t in src_q.index:
                    continue
                col_full = full.cols[src_full.index[t]]
                yield all(tgt_full.tuples[row] not in tgt_q.index for row in col_full) or (
                    f"{spec}: degenerate {t} leaks into the quotient"
                )


@_suite("regression")
def suite_regression():
    """Frozen homology values, confirmed beforehand by an independent
    dense-elimination and Smith-form oracle."""
    for m in (1, 2, 3, 4):
        rack = builtin(f"trivial:{m}")
        complex_ = ChainComplex({n: boundary_matrix(rack, n) for n in range(1, 6)}, ZZ)
        for deg in (1, 2, 3, 4):
            h = complex_.homology(deg)
            yield (h.betti, h.torsion) == (m**deg, ()) or f"trivial:{m} H_{deg} = {h.describe()}"
    rack = builtin("dihedral:3")
    complex_ = ChainComplex({n: boundary_matrix(rack, n) for n in range(1, 5)}, QQ)
    for deg in (1, 2, 3):
        h = complex_.homology(deg)
        yield h.betti == 1 or f"dihedral:3 rack betti_{deg} = {h.betti}"
    for spec, expected in (("dihedral:3", 1), ("dihedral:4", 2), ("trivial:3", 3)):
        rack = builtin(spec)
        dim_h1 = len(kernel_basis(cochain_differential_matrix(rack, 1), QQ)[0])
        yield dim_h1 == expected or f"{spec}: dim H^1 = {dim_h1} != {expected}"
        yield len(orbits(rack)) == expected or f"{spec}: orbit count != {expected}"
    rack = builtin("dihedral:3")
    h = ChainComplex({n: boundary_matrix(rack, n, quandle=True) for n in (3, 4)}, ZZ).homology(3)
    yield (h.betti, h.torsion) == (0, (3,)) or f"quandle H_3(dihedral:3; Z) = {h.describe()}"


def run_suite(spec: str, seconds=None):
    """Run one suite by name, or every suite for ``all``, each through
    ``ALL_SUITES``; a dict ``seconds`` receives each suite's wall-clock time."""
    if spec != "all" and spec not in ALL_SUITES:
        raise InvalidSpec(f"unknown suite {spec!r}; choose from {', '.join(ALL_SUITES)} or all")
    results = []
    for name in ALL_SUITES if spec == "all" else [spec]:
        t0 = time.perf_counter()
        results.append(ALL_SUITES[name]())
        if seconds is not None:
            seconds[name] = round(time.perf_counter() - t0, 6)
    return results
