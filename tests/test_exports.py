import importlib

import pytest

MODULES = ["poly", "matrices", "moments", "gibbs", "pressure", "sdsolver"]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    mod = importlib.import_module(f"orbfree.{name}")
    assert [n for n in mod.__all__ if not hasattr(mod, n)] == []
