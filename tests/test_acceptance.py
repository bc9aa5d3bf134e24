"""Acceptance gate: one test per criterion, at the stated tolerances.

Every check is exact (integer / rational arithmetic); "tolerance" always
means equality on the nose.  Each test prints a PASS line so a verbose run
reads as the acceptance report:  pytest tests/test_acceptance.py -v -s
"""

import json
import time

import pytest

from rackhom import verify
from rackhom.cli import main
from rackhom.complexes import boundary_matrix
from rackhom.cup import CupContext, cup
from rackhom.linalg import SparseMat
from rackhom.racks import builtin, xset_self, xset_singleton
from rackhom.verify import (
    BUILTIN_SPECS,
    suite_axioms,
    suite_commutativity,
    suite_coproduct,
    suite_cup,
    suite_faces,
    suite_homotopy,
    suite_quandle,
    suite_regression,
    suite_squarezero,
    suite_word_identities,
)
from rackhom.words import WordAlgebra
from test_mutants import _stencil_mutant


def _report(num, label, result, checks, extra=""):
    """Pass when ``result`` passed after exactly ``checks`` checks, its
    count pinned here, so that a restructured loop cannot drop checks."""
    assert result.passed, f"ACCEPTANCE {num} {label}: FAIL ({result.witness})"
    assert result.checks == checks, result.checks
    suffix = f" [{extra}]" if extra else ""
    print(f"ACCEPTANCE {num} {label}: PASS ({result.checks} checks){suffix}")


def test_criterion_01_axiom_gate():
    t0 = time.monotonic()
    result = suite_axioms()
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0, f"axiom gate took {elapsed:.2f}s (budget 1s)"
    _report(1, "axiom gate", result, 31, f"{elapsed:.2f}s < 1s")


def test_criterion_02_boundary_squares_to_zero():
    t0 = time.monotonic()
    result = suite_squarezero()
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0, f"small-rack square-zero took {elapsed:.2f}s (budget 30s)"
    # the larger builtins (sizes 5 and 6) run without a time budget
    big = 0
    for spec in BUILTIN_SPECS:
        rack = builtin(spec)
        if rack.size <= 4:
            continue
        variants = [False, True] if rack.is_quandle() else [False]
        for quandle in variants:
            for xs in (None, xset_self(rack), xset_singleton(rack)):
                mats = {
                    n: boundary_matrix(rack, n, quandle=quandle, xset=xs)
                    for n in range(1, 5)
                }
                for n in range(2, 5):
                    big += 1
                    assert mats[n - 1].mul(mats[n]).is_zero(), (spec, quandle, n)
    _report(2, "boundary squared", result, 126,
            f"{elapsed:.2f}s < 30s at size<=4; +{big} checks at sizes 5-6")


def test_criterion_03_word_engine_identities():
    _report(3, "word-engine identity suite", suite_word_identities(), 11715)


def test_criterion_03_face_identities():
    _report(3, "cube-set face identities", suite_faces(), 126872)


def test_criterion_04_coproduct_oracle_equivalence():
    result = suite_coproduct()
    # 3^4 = 81 words at length 4 over the three-element dihedral alone
    assert result.checks >= 81
    _report(4, "closed coproduct formula", result, 462)


def test_criterion_05_homotopy_suite():
    result = suite_homotopy()
    # orientation note: with d(e_x) = 1 - x, h(e_x) = e_x (x) e_x, and the
    # derivation tensor differential, the identity holds as
    # d h + h d = Delta - tau Delta; the opposite orientation is impossible:
    W = WordAlgebra(builtin("dihedral:3"))
    u = W.gen_e(0)
    lhs = W.tensor_d(W.h(u)) + W.h(W.d(u))
    delta = W.coproduct(u)
    assert lhs == delta - W.tensor_flip(delta)
    assert lhs != W.tensor_flip(delta) - delta
    _report(5, "homotopy suite", result, 3228, "orientation: Delta - tau.Delta")


def test_criterion_06_cup_product_laws():
    _report(6, "cup product laws", suite_cup(), 12046)


def test_criterion_07_graded_commutativity():
    result = suite_commutativity()
    _report(7, "graded commutativity", result, 301, "; ".join(result.notes))


def test_criterion_08_regression_values():
    t0 = time.monotonic()
    result = suite_regression()
    elapsed = time.monotonic() - t0
    assert elapsed < 300.0, f"regressions took {elapsed:.2f}s (budget 5min)"
    _report(8, "regression values", result, 26, f"{elapsed:.2f}s < 300s")


def test_criterion_09_quandle_quotient():
    _report(9, "quandle quotient correctness", suite_quandle(), 2808)


def test_criterion_10_deterministic_reports(capsys):
    for args in (
        ["homology", "--builtin", "dihedral:3", "--ring", "Z",
         "--max-degree", "3", "--quandle", "--json"],
        ["ring", "--builtin", "dihedral:4", "--ring", "Q",
         "--max-degree", "2", "--json"],
    ):
        assert main(args) == 0
        out1 = capsys.readouterr().out
        assert main(args) == 0
        out2 = capsys.readouterr().out
        assert out1 == out2, f"non-deterministic JSON for {args}"
        json.loads(out1)  # valid JSON
    print("ACCEPTANCE 10 deterministic reports: PASS (byte-identical JSON)")


def _bumped(op):
    """``op`` with 1 added to the first value of every result."""

    def wrapped(*args):
        out = op(*args)
        out.values[0] += 1
        return out

    return wrapped


def _face_conjugating_by_the_inverse(self, m, i, eps):
    # the face map, with the e-letters left of position i conjugated through
    # ``Rack.left``, the inverse translations
    a, e = m
    j = i - 1
    if eps == 0:
        return a, e[:j] + e[i:]
    left = self.rack.left[e[j]]
    return self.canonical_a_word(a + e[j:i]), tuple(left[t] for t in e[:j]) + e[i:]


FAILURES = [
    # (suite, patched object, attribute, replacement, witness, checks)
    (suite_axioms, verify, "validate_rack", lambda table: None,
     "trivial:2: constant column accepted", 3),
    (suite_squarezero, SparseMat, "mul_is_zero", lambda self, other: False,
     "trivial:1 [rack,trivial]: d_1 d_2 != 0", 1),
    (suite_word_identities, WordAlgebra, "d", lambda self, u: u,
     "trivial:3: d^2 != 0 on 1", 1),
    # the 1121 checks of d pass, then 1 * 1 and x * 1; Delta(u) and Delta(v)
    # come from the table, and their product from the mutant
    (suite_word_identities, WordAlgebra, "tensor_multiply", lambda self, t1, t2: t1,
     "trivial:3: Delta not multiplicative on 1 * 0", 1126),
    # every sign of the cup stencils flipped: the empty word's 1 (x) 1 already
    (suite_coproduct, CupContext, "stencil",
     _stencil_mutant(lambda p, q, t, g, prefix, negative: (t, g, prefix, not negative)),
     "dihedral:3: formula != coproduct on ()", 1),
    # the 13 group-like monomials of trivial:3 pass: Delta - tau Delta vanishes on them
    (suite_homotopy, WordAlgebra, "h", lambda self, u: self.tensor({}),
     "trivial:3: homotopy identity fails on e[0]", 14),
    # the 520 monomials pass, then at e = () the right side is the mutant's
    # (tau Delta)(1) = 1 (x) 1, where h(1) = 0
    (suite_homotopy, WordAlgebra, "tensor_multiply", lambda self, t1, t2: t1,
     "trivial:3: splitting rule fails on () at 0", 521),
    # 12024 exchange checks on dihedral:3, then A = {} passes for eps = 0, 1
    (suite_faces, WordAlgebra, "face_set", lambda self, m, idx, eps: m,
     "dihedral:3: composite face order-dependent at (0, 0, 0, 0) A=[1] eps=0", 12027),
    # left == right on the dihedral racks, which pass; the second faces in
    # the table are the mutant's too
    (suite_faces, WordAlgebra, "face_monomial", _face_conjugating_by_the_inverse,
     "cyclic:4: exchange fails at (0, 0) i=1 j=2 eps=1 eta=1", 70748),
    (suite_cup, verify, "cup", _bumped(cup),
     "dihedral:3: associativity fails at degrees (0,0,1)", 2),
    (suite_commutativity, verify, "homotopy_cochain", _bumped(verify.homotopy_cochain),
     "dihedral:3: d*H != graded commutator at degrees (1,1)", 1),
    # nine checks on the three 1-letter words, then two on e[0] e[0]
    (suite_quandle, WordAlgebra, "quandle_project_tensor", lambda self, t: t,
     "dihedral:3: projection vs Delta fails on (0, 0)", 11),
    (suite_regression, verify, "orbits", lambda rack: [],
     "dihedral:3: orbit count != 1", 21),
]


# a suite's first row is named after it, a later one after the patched attribute too
SUITES_FAILED = [case[0] for case in FAILURES]


@pytest.mark.parametrize(
    "suite, target, attr, replacement, witness, checks", FAILURES,
    ids=[suite.__name__ + ("" if SUITES_FAILED.index(suite) == k else f"-{attr}")
         for k, (suite, _, attr, *_) in enumerate(FAILURES)],
)
def test_broken_component_fails_its_suite(monkeypatch, suite, target, attr,
                                          replacement, witness, checks):
    monkeypatch.setattr(target, attr, replacement)
    result = suite()
    assert (result.passed, result.witness, result.notes) == (False, witness, [])
    # the count runs up to and includes the failing check
    assert result.checks == checks


def test_flipped_coproduct_sign_fails_the_coproduct_suite(monkeypatch):
    """The ``coproduct`` suite sums the stencils that ``cup`` runs and
    compares them with the multiplicative coproduct, so one wrong sign in one
    stencil term fails it: here the term of the target e[0] in the stencil
    (0, 1), whose subset is A = {1}."""

    def flip(p, q, t, g, prefix, negative):
        return t, g, prefix, negative != ((p, q, t) == (0, 1, 0))

    monkeypatch.setattr(CupContext, "stencil", _stencil_mutant(flip))
    result = suite_coproduct()
    assert (result.passed, result.witness, result.checks) == (
        False, "dihedral:3: formula != coproduct on (0,)", 2)
