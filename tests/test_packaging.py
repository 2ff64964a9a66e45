"""No build runs in the test suite, so these tests check the packaging
metadata against the source tree: the console script and the package that
setuptools is told to find."""

import importlib
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later

ROOT = Path(__file__).resolve().parent.parent


def load_pyproject():
    with open(ROOT / "pyproject.toml", "rb") as fh:
        return tomllib.load(fh)


def test_console_script_resolves_to_a_callable():
    target = load_pyproject()["project"]["scripts"]["sharecircuit"]
    module, _, attr = target.partition(":")
    obj = importlib.import_module(module)
    for name in attr.split("."):
        obj = getattr(obj, name)
    assert callable(obj), target


def test_package_find_names_the_package_in_src():
    doc = load_pyproject()
    find = doc["tool"]["setuptools"]["packages"]["find"]
    assert find["where"] == ["src"]
    found = {init.parent.name for init in (ROOT / "src").glob("*/__init__.py")}
    script = doc["project"]["scripts"]["sharecircuit"]
    package = script.partition(":")[0].split(".")[0]
    assert package == doc["project"]["name"] and package in found, (package, found)
    imported = Path(importlib.import_module(package).__file__).resolve()
    assert imported == ROOT / "src" / package / "__init__.py"
