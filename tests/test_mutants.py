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
from math import gcd

import pytest

import test_blocks
import test_complexes
import test_cup
import test_linalg
import test_words
from rackhom import complexes, linalg
from rackhom.cup import CupContext
from rackhom.linalg import ChainComplex, HomologyGroup
from rackhom.racks import XSet
from rackhom.verify import ALL_SUITES
from rackhom.words import WordAlgebra

BOUNDARY = complexes._boundary
ORBIT_SETS = complexes._orbit_sets
CUP = importlib.import_module("rackhom.cup")  # the package's ``cup`` is the function
PAIR = CUP._pair_cochain
STENCIL = CupContext.stencil
SNF = linalg.smith_normal_form
RANK = linalg.rank
# ``ChainComplex`` reads the reductions from ``linalg``, and ``test_linalg``
# imports them by name, so a reduction mutant is patched in both
REDUCTIONS = (linalg, test_linalg)
INIT = WordAlgebra.__init__


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


def one_conjugation_table_for_every_letter(self, rack):
    # the conjugation table keyed by the e-word alone, shared across letters
    INIT(self, rack)
    self._conj = [{}] * rack.size


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
    return HomologyGroup(n, self._betti(n), self.reduction(n + 1)[1])


def _euclid_pivots(mat, drop, p=0):
    # the ids of the pivots that Euclid's algorithm takes after the +-1 pass,
    # on a copy: the reduction takes ``mat`` over
    return list(linalg._column_pivots(test_linalg.fresh(mat), drop, p)[1])


def smith_clearing_at_euclid_pivots(mat, drop=frozenset(), pivots=None):
    # the Euclid pivots are appended to the clearing pivots too
    euclid = _euclid_pivots(mat, drop)
    factors = SNF(mat, drop, pivots)
    if pivots is not None:
        pivots.extend(euclid)
    return factors


def rational_rank_clearing_at_euclid_pivots(mat, ring, drop=frozenset(), pivots=None):
    # the same slip in the rank over Q (over F_p no Euclid pivot is left)
    euclid = _euclid_pivots(mat, drop, ring.char)
    r = RANK(mat, ring, drop, pivots)
    if pivots is not None:
        pivots.extend(euclid)
    return r


def exchange_without_the_lcm(diagonal):
    # diag(a, b) ~ diag(gcd, b): the exchange leaves b where lcm(a, b) belongs
    chain = list(diagonal)
    for i in range(len(chain)):
        for j in range(i + 1, len(chain)):
            a, b = chain[i], chain[j]
            if b % a:
                chain[i] = gcd(a, b)
    return chain


def orbit_sets_without_the_last(rack, xset):
    # the last orbit's block left out of the sum
    return ORBIT_SETS(rack, xset)[:-1]


def direct_sum_without_the_exchange(reductions):
    # the blocks' torsion factors concatenated in order, not exchanged
    return (sum(r for r, _ in reductions),
            tuple(sorted(d for _, factors in reductions for d in factors)))


def _stencil_mutant(slip):
    # ``CupContext.stencil`` grows each stencil from those below it through
    # ``self.stencil``, so the mutant builds them with the original in place,
    # lest the slip compound at every level, and applies it to what it returns
    def stencil(self, p, q):
        CupContext.stencil = STENCIL
        try:
            ntargets, rows = STENCIL(self, p, q)
        finally:
            CupContext.stencil = stencil
        return ntargets, [[slip(p, q, *term) for term in row] for row in rows]
    return stencil


# the closed formula with eps(A) alone, its (-1)^{pq} dropped
stencil_without_the_global_sign = _stencil_mutant(
    lambda p, q, t, g, prefix, negative: (t, g, prefix, negative != bool(p * q & 1)))
# the sign kept when the last position joins A: every sign comes from those
# steps, so every term is positive
stencil_without_the_flip_in_a = _stencil_mutant(
    lambda p, q, t, g, prefix, negative: (t, g, prefix, False))


def pairing_with_a_plus_sign(f, g, ctx, n, structure_map, sign):
    # homotopy_cochain's (-1)^{p+q+1} fixed to +1; the coproduct path passes +1
    return PAIR(f, g, ctx, n, structure_map, 1)


MUTANTS = {
    "prefix-action-skips-canonical-form": (
        (WordAlgebra,), "_apply_prefix", prefix_action_not_canonical,
        ["words", "homotopy"], [test_words.test_homotopy_a_linear],
    ),
    "mon-mul-skips-conjugation": (
        (WordAlgebra,), "mon_mul", mon_mul_without_conjugation,
        ["words", "homotopy"], [test_words.test_mixed_relation],
    ),
    "conjugation-table-ignores-the-letter": (
        (WordAlgebra,), "__init__", one_conjugation_table_for_every_letter,
        ["words", "homotopy", "faces", "coproduct", "quandle"],
        [functools.partial(test_words.test_conjugation_table_matches_the_letter_by_letter_references,
                           "dihedral:3")],
    ),
    "boundary-ignores-the-coefficient-action": (
        (complexes,), "_boundary", boundary_without_the_action,
        [], [functools.partial(test_complexes.test_boundary_columns_pinned,
                               "conjugation:s3", "self", False),
             functools.partial(test_complexes.test_self_coefficients_shift_the_degree,
                               "dihedral:3", 3),
             functools.partial(test_blocks.test_blocks_match_the_whole_complex_on_every_small_rack,
                               4)],
    ),
    "prefix-acts-by-the-right-action": (
        (XSet,), "left_word", left_word_by_the_right_action,
        [], [test_complexes.test_cochain_differential_is_signed_precomposition_with_d,
             functools.partial(test_cup.test_homotopy_matches_fraction_reference,
                               "cyclic:3", False, True)],
    ),
    "cohomology-reads-the-outgoing-torsion": (
        (ChainComplex,), "cohomology", cohomology_with_the_outgoing_torsion,
        [], [test_linalg.test_chain_complex_matches_pairwise_homology,
             test_linalg.test_clearing_over_z_takes_only_unit_pivots,
             functools.partial(test_complexes.test_cohomology_matches_the_dual_complex,
                               "dihedral:4", False, False, 4)],
    ),
    "smith-clears-at-euclid-pivots": (
        REDUCTIONS, "smith_normal_form", smith_clearing_at_euclid_pivots,
        [], [test_linalg.test_clearing_over_z_takes_only_unit_pivots],
    ),
    "rational-rank-clears-at-euclid-pivots": (
        REDUCTIONS, "rank", rational_rank_clearing_at_euclid_pivots,
        [], [test_linalg.test_rational_rank_without_unit_clears_nothing],
    ),
    "smith-exchange-drops-the-lcm": (
        (linalg,), "exchange", exchange_without_the_lcm,
        [], [test_linalg.test_snf_diag_example,
             test_linalg.test_snf_divisibility_chain_and_oracle_fixed_cases,
             test_linalg.test_direct_sum_puts_block_torsion_into_chain_order],
    ),
    "a-block-dropped": (
        (complexes,), "_orbit_sets", orbit_sets_without_the_last,
        [], [functools.partial(test_blocks.test_blocks_match_the_whole_complex, "dihedral:6"),
             functools.partial(test_blocks.test_quandle_blocks_match_the_whole_complex, "dihedral:6"),
             functools.partial(
                 test_blocks.test_rational_betti_numbers_are_powers_of_the_orbit_count,
                 "conjugation:s3")],
    ),
    "block-torsion-concatenated-without-the-exchange": (
        (complexes, test_linalg), "direct_sum", direct_sum_without_the_exchange,
        [], [test_linalg.test_direct_sum_puts_block_torsion_into_chain_order],
    ),
    "cup-stencil-drops-the-global-sign": (
        (CupContext,), "stencil", stencil_without_the_global_sign,
        ["cup", "commutativity", "coproduct"],
        [test_cup.test_cup_1_1_closed_formula, test_cup.test_cup_equals_coproduct_path],
    ),
    "cup-stencil-keeps-the-sign-when-the-last-position-joins-a": (
        (CupContext,), "stencil", stencil_without_the_flip_in_a,
        ["cup", "commutativity", "coproduct"],
        [functools.partial(test_cup.test_module_cup_matches_coproduct_path_on_non_symmetric_tables,
                           test_cup.R4),
         functools.partial(test_cup.test_stencil_rows_match_the_coproduct_terms, "dihedral:3")],
    ),
    "homotopy-sign-fixed-to-plus-one": (
        (CUP,), "_pair_cochain", pairing_with_a_plus_sign,
        ["commutativity"], [test_cup.test_homotopy_cochain_identity_exhaustive_degree_pairs,
                            functools.partial(test_cup.test_homotopy_matches_fraction_reference,
                                              "dihedral:3", False, False)],
    ),
}


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_mutant_is_caught(name, monkeypatch):
    owners, attr, mutant, suites, tests = MUTANTS[name]
    for owner in owners:
        monkeypatch.setattr(owner, attr, mutant)
    for suite in suites:
        result = ALL_SUITES[suite]()
        assert not result.passed, f"{name} passes the {suite} suite"
    for test in tests:
        with pytest.raises(AssertionError):
            test()
