"""The installed package needs numpy alone at run time, and its public
surface and finite-difference configuration stay as small as the
program uses."""

import ast
import dataclasses
import inspect
import sys
from pathlib import Path

import pytest

from modlab.action import FDConfig
from modlab.profiles import orbit_integrals

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "modlab"
# the README Python API block imports the first nine; modbench reaches
# the last three through the package
EXPORTS = {"WaveParams", "gkdv_model", "find_turning_points",
           "averaged_state", "whitham_report", "harmonic_point",
           "soliton_point", "asymptotic_sweep", "delta_mi",
           "model_from_dict", "sweep_table", "eigen_splitting_fit"}


def imported_roots(path):
    """Top-level module names that one source file imports."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom):
            yield "modlab" if node.level else node.module.split(".")[0]


def parsed_modules():
    return {p.stem: ast.parse(p.read_text(encoding="utf-8"))
            for p in sorted(PACKAGE.glob("*.py"))}


def referenced(tree):
    """Names a tree reads as a Name or an Attribute (strings do not count)."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
    return out


def readme_api_names():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = text.split("## Python API", 1)[1].split("```python", 1)[1]
    tree = ast.parse(block.split("```", 1)[0])
    imported = {a.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) for a in node.names}
    return referenced(tree) | imported


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


def test_fd_config_is_quad_order_and_limit():
    assert tuple(f.name for f in dataclasses.fields(FDConfig)) == \
        ("quad_order", "limit")
    with pytest.raises(TypeError):
        FDConfig(richardson=True)


def test_orbit_integrals_takes_no_tolerance():
    assert "rtol" not in inspect.signature(orbit_integrals).parameters


def test_package_exports_what_the_readme_api_and_the_benchmark_read():
    tree = parsed_modules()["__init__"]
    names = [a.asname or a.name for node in tree.body
             if isinstance(node, ast.ImportFrom) for a in node.names]
    assert sorted(names) == sorted(EXPORTS)


def test_every_public_function_and_class_has_a_reader():
    modules = parsed_modules()
    readme = readme_api_names()
    unread = []
    for name, tree in modules.items():
        others = set().union(*(referenced(t) for m, t in modules.items()
                               if m != name))
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                    or node.name.startswith("_"):
                continue
            # its own module, outside its own definition
            rest = ast.Module(body=[n for n in tree.body if n is not node],
                              type_ignores=[])
            if node.name not in others | referenced(rest) | readme:
                unread.append(f"{name}.{node.name}")
    assert unread == []


def test_one_quadrature_engine():
    # profiles alone builds Gauss rules and calls the Horner kernel, which
    # kernels defines; an import of either name counts as a reference
    users = set()
    for name, tree in parsed_modules().items():
        imported = {a.asname or a.name for node in ast.walk(tree)
                    if isinstance(node, ast.ImportFrom) for a in node.names}
        if {"leggauss", "horner_batch"} & (referenced(tree) | imported):
            users.add(name)
    assert users == {"profiles"}


def test_one_root_finder():
    # np.roots runs in profiles._real_roots_in alone; an import of the
    # name counts as a use
    def uses_roots(tree):
        return any(isinstance(node, ast.Attribute) and node.attr == "roots"
                   or isinstance(node, ast.ImportFrom)
                   and "roots" in {a.name for a in node.names}
                   for node in ast.walk(tree))

    modules = {name for name, tree in parsed_modules().items()
               if uses_roots(tree)}
    functions = {f"{name}.{node.name}"
                 for name, tree in parsed_modules().items()
                 for node in ast.walk(tree)
                 if isinstance(node, ast.FunctionDef) and uses_roots(node)}
    assert modules == {"profiles"}
    assert functions == {"profiles._real_roots_in"}


def test_every_leaf_error_is_raised_somewhere():
    modules = parsed_modules()
    classes = {node.name: [b.id for b in node.bases]
               for node in modules["errors"].body
               if isinstance(node, ast.ClassDef)}
    bases = {b for bs in classes.values() for b in bs}
    leaves = {c for c in classes if c not in bases}
    raised = set()
    for tree in modules.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise) and node.exc is not None:
                raised |= referenced(node.exc)
    assert leaves and leaves - raised == set()
