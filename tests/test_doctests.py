"""The examples in the module docstrings run and pass."""
import doctest
import importlib
import pkgutil

import gghecke


def test_module_doctests():
    attempted = 0
    for name in ["gghecke"] + [
        f"gghecke.{m.name}" for m in pkgutil.iter_modules(gghecke.__path__)
    ]:
        result = doctest.testmod(importlib.import_module(name))
        assert result.failed == 0, name
        attempted += result.attempted
    # the gf, cyclo and rootsys examples: a collection that finds none fails
    assert attempted >= 18
