"""Mutants of the word engine's fast paths, applied by monkeypatch.

Each mutant is a plausible one-line slip in a fast path.  The test shows
that a named ``verify`` suite and a named tier-1 test both catch it, so a
future change that made either check blind would fail here; unmutated,
the suites pass in ``test_acceptance`` and the tests in ``test_words``.
A later fast path adds its own mutant to ``MUTANTS``.
"""

import pytest

import test_words
from rackhom.verify import ALL_SUITES
from rackhom.words import WordAlgebra


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


MUTANTS = {
    "prefix-action-skips-canonical-form": (
        "_apply_prefix", prefix_action_not_canonical,
        ["words", "homotopy"], [test_words.test_homotopy_a_linear],
    ),
    "mon-mul-skips-conjugation": (
        "mon_mul", mon_mul_without_conjugation,
        ["words", "homotopy"], [test_words.test_mixed_relation],
    ),
}


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_mutant_is_caught(name, monkeypatch):
    attr, mutant, suites, tests = MUTANTS[name]
    monkeypatch.setattr(WordAlgebra, attr, mutant)
    for suite in suites:
        result = ALL_SUITES[suite]()
        assert not result.passed, f"{name} passes the {suite} suite"
    for test in tests:
        with pytest.raises(AssertionError):
            test()

