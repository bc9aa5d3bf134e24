"""The docstring examples are part of the tier-1 suite."""

import doctest
import importlib

import pytest


@pytest.mark.parametrize("name", ["rackhom.racks", "rackhom.rings", "rackhom.words"])
def test_doctests(name):
    result = doctest.testmod(importlib.import_module(name))
    assert result.attempted > 0
    assert result.failed == 0
