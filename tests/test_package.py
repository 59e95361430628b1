"""The installed package needs numpy alone at run time."""

import ast
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "modlab"


def imported_roots(path):
    """Top-level module names that one source file imports."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom):
            yield "modlab" if node.level else node.module.split(".")[0]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda p: p.name)
def test_imports_are_stdlib_numpy_or_modlab(path):
    allowed = set(sys.stdlib_module_names) | {"numpy", "modlab"}
    assert set(imported_roots(path)) <= allowed


def test_runtime_dependency_is_numpy_alone():
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        project = tomllib.load(fh)["project"]
    names = [d.split(">")[0].split("=")[0].split("<")[0].strip()
             for d in project["dependencies"]]
    assert names == ["numpy"]
    assert any(d.startswith("scipy") for d in
               project["optional-dependencies"]["test"])
