import importlib
import inspect
import json
from pathlib import Path

import pytest

MODULES = ["poly", "matrices", "moments", "gibbs", "pressure", "sdsolver"]
BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    mod = importlib.import_module(f"orbfree.{name}")
    assert [n for n in mod.__all__ if not hasattr(mod, n)] == []


def _traced_names() -> list[str]:
    """The function or method behind each per-layer metric of the benchmark,
    '<module>.<function>[.<method>]' from '<...>.calls' and '<...>.s'; the
    counters, step times, trace overhead and module self times name none."""
    metrics = [m["name"] for m in json.loads(BENCHMARK.read_text())["per_layer"]]
    names = []
    for metric in metrics:
        stem, _, unit = metric.rpartition(".")
        if unit in ("calls", "s") and not metric.startswith(("step.", "trace.")):
            names.append(stem)
    return sorted(set(names))


def _resolves(name: str) -> bool:
    module, *path = name.split(".")
    mod = importlib.import_module(f"orbfree.{module}")
    owner = vars(mod).get(path[0])
    if owner is None or path[0].startswith("_") or owner.__module__ != mod.__name__:
        return False
    if len(path) == 1:
        return inspect.isfunction(owner)
    if len(path) != 2 or not inspect.isclass(owner):
        return False
    member = vars(owner).get(path[1])
    if isinstance(member, staticmethod):
        member = member.__func__
    public = not path[1].startswith("_") or (path[1].startswith("__") and path[1].endswith("__"))
    return public and inspect.isfunction(member)


def test_benchmark_names_public_functions():
    # a refactor that drops or renames a traced function fails here, not in a traced run
    names = _traced_names()
    assert "gibbs.energy" in names and "poly.QC.__complex__" in names
    assert [name for name in names if not _resolves(name)] == []
