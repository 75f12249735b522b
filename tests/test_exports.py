import importlib
import pkgutil

import pytest

import frechet

MODULES = [frechet] + [importlib.import_module(f"frechet.{info.name}")
                       for info in pkgutil.iter_modules(frechet.__path__)]
EXPORTING = [m for m in MODULES if hasattr(m, "__all__")]


@pytest.mark.parametrize("module", EXPORTING, ids=lambda m: m.__name__)
def test_every_exported_name_resolves_once(module):
    names = module.__all__
    assert len(names) == len(set(names)), sorted(n for n in set(names) if names.count(n) > 1)
    assert [n for n in names if not hasattr(module, n)] == []


def test_the_exporting_modules_are_found():
    # Guards the parametrization above against finding no module.
    assert {m.__name__ for m in EXPORTING} >= {
        "frechet", "frechet.constructions", "frechet.convergence", "frechet.solvers",
        "frechet.spaces", "frechet.stochastics"}
