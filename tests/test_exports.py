import importlib
import pkgutil
import subprocess
import sys

import pytest

import frechet

from conftest import fresh_env

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


# ``frechet`` resolves its exports on first use (PEP 562). The checks below
# that must see that first use run in a fresh interpreter, since this
# module has already imported every submodule.
def _run_fresh(code: str) -> str:
    return subprocess.run([sys.executable, "-c", code], env=fresh_env(), capture_output=True,
                          text=True, check=True, timeout=120).stdout


@pytest.mark.parametrize("name", sorted(set(frechet.__all__) - {"__version__"}))
def test_an_export_is_the_object_its_module_defines(name):
    value = getattr(frechet, name)
    assert value.__module__.startswith("frechet.") and value.__name__ == name
    assert getattr(sys.modules[value.__module__], name) is value


def test_exports_resolve_on_first_use_in_a_fresh_interpreter():
    code = ("import sys, frechet\n"
            "for name in set(frechet.__all__) - {'__version__'}:\n"
            "    value = getattr(frechet, name)\n"
            "    assert getattr(sys.modules[value.__module__], name) is value, name\n"
            "print('ok')")
    assert _run_fresh(code).strip() == "ok"


def test_a_submodule_name_resolves_before_its_import():
    code = ("import sys, frechet\n"
            "assert 'frechet.stochastics' not in sys.modules\n"
            "print(frechet.stochastics is sys.modules['frechet.stochastics'])")
    assert _run_fresh(code).strip() == "True"


def test_dir_lists_every_export():
    assert set(frechet.__all__) <= set(dir(frechet))


def test_star_import_binds_every_name():
    namespace = {}
    exec("from frechet import *", namespace)
    assert set(frechet.__all__) <= set(namespace)


def test_an_unknown_name_is_an_attribute_error_naming_the_package():
    with pytest.raises(AttributeError, match="'frechet' has no attribute 'no_such_name'"):
        frechet.no_such_name
