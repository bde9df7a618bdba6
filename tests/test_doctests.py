"""Keep the docstring examples honest."""

import doctest
import importlib
import pkgutil

import pytest

import ppx

MODULES = ["ppx"] + [f"ppx.{m.name}" for m in pkgutil.iter_modules(ppx.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_doctests(name):
    failures, _ = doctest.testmod(importlib.import_module(name))
    assert failures == 0
