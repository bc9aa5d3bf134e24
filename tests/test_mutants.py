"""Mutants of the library's fast paths and of its coefficient action,
applied by monkeypatch.

Each mutant is a plausible one-line slip.  The test shows that the named
``verify`` suites and tier-1 tests all catch it, so a future change that
made one of those checks blind would fail here; unmutated, the suites pass
in ``test_acceptance`` and the tests in their own files.  A mutant that no
``verify`` suite catches names none, and is left to its tier-1 tests.  A
later fast path adds its own mutant to ``MUTANTS``.
"""

import functools
import importlib

import pytest

import test_complexes
import test_cup
import test_linalg
import test_words
from rackhom import complexes
from rackhom.cup import CupContext
from rackhom.linalg import ChainComplex, HomologyGroup
from rackhom.racks import XSet
from rackhom.verify import ALL_SUITES
from rackhom.words import WordAlgebra

BOUNDARY = complexes._boundary
CUP = importlib.import_module("rackhom.cup")  # the package's ``cup`` is the function
PAIR = CUP._pair_cochain
STENCIL = CupContext.stencil


def prefix_action_not_canonical(self, a_word, tensor_terms, coeff, out):
    # the diagonal prefix action, with a_word + l[0] left as concatenated
    for ((la, le), (ra, re)), tc in tensor_terms.items():
        k = ((a_word + la, le), (a_word + ra, re))
        c = out.get(k, 0) + coeff * tc
        if c:
            out[k] = c
        else:
            del out[k]


def mon_mul_without_conjugation(self, m1, m2):
    # the product of monomials, with e1 not conjugated past a2
    (a1, e1), (a2, e2) = m1, m2
    a = a1 + a2
    return self.canonical_a_word(a), e1 + e2


def boundary_without_the_action(rack, n, quandle, right, max_basis):
    # every conjugating face keeps its coefficient point: the identity action
    identity = (tuple(range(len(right[0]))),) * len(right)
    return BOUNDARY(rack, n, quandle, identity, max_basis)


def left_word_by_the_right_action(self, word, y):
    # a prefix moves a cochain value by the right action, not its inverse
    for x in reversed(word):
        y = self.right[x][y]
    return y


def cohomology_with_the_outgoing_torsion(self, n):
    # the torsion of d_{n+1}, which belongs to H_n, not to H^n
    return HomologyGroup(n, self._betti(n), self._reduce(n + 1)[1])


def stencil_without_the_global_sign(self, p, q):
    # the closed formula with eps(A) alone, its (-1)^{pq} dropped
    ntargets, rows = STENCIL(self, p, q)
    if p * q & 1:
        rows = [[(t, g, prefix, not negative) for t, g, prefix, negative in row]
                for row in rows]
    return ntargets, rows


def pairing_with_a_plus_sign(f, g, ctx, n, structure_map, sign):
    # homotopy_cochain's (-1)^{p+q+1} fixed to +1; the coproduct path passes +1
    return PAIR(f, g, ctx, n, structure_map, 1)


MUTANTS = {
    "prefix-action-skips-canonical-form": (
        WordAlgebra, "_apply_prefix", prefix_action_not_canonical,
        ["words", "homotopy"], [test_words.test_homotopy_a_linear],
    ),
    "mon-mul-skips-conjugation": (
        WordAlgebra, "mon_mul", mon_mul_without_conjugation,
        ["words", "homotopy"], [test_words.test_mixed_relation],
    ),
    "boundary-ignores-the-coefficient-action": (
        complexes, "_boundary", boundary_without_the_action,
        [], [functools.partial(test_complexes.test_boundary_columns_pinned,
                               "conjugation:s3", "self", False),
             functools.partial(test_complexes.test_self_coefficients_shift_the_degree,
                               "dihedral:3", 3)],
    ),
    "prefix-acts-by-the-right-action": (
        XSet, "left_word", left_word_by_the_right_action,
        [], [test_complexes.test_cochain_differential_is_signed_precomposition_with_d,
             functools.partial(test_cup.test_homotopy_matches_fraction_reference,
                               "cyclic:3", False, True)],
    ),
    "cohomology-reads-the-outgoing-torsion": (
        ChainComplex, "cohomology", cohomology_with_the_outgoing_torsion,
        [], [test_linalg.test_chain_complex_matches_pairwise_homology,
             test_linalg.test_clearing_over_z_takes_only_unit_pivots],
    ),
    "cup-stencil-drops-the-global-sign": (
        CupContext, "stencil", stencil_without_the_global_sign,
        ["cup", "commutativity"], [test_cup.test_cup_1_1_closed_formula,
                                   test_cup.test_cup_equals_coproduct_path],
    ),
    "homotopy-sign-fixed-to-plus-one": (
        CUP, "_pair_cochain", pairing_with_a_plus_sign,
        ["commutativity"], [test_cup.test_homotopy_cochain_identity_exhaustive_degree_pairs,
                            functools.partial(test_cup.test_homotopy_matches_fraction_reference,
                                              "dihedral:3", False, False)],
    ),
}


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_mutant_is_caught(name, monkeypatch):
    owner, attr, mutant, suites, tests = MUTANTS[name]
    monkeypatch.setattr(owner, attr, mutant)
    for suite in suites:
        result = ALL_SUITES[suite]()
        assert not result.passed, f"{name} passes the {suite} suite"
    for test in tests:
        with pytest.raises(AssertionError):
            test()
