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


def users_of(names):
    """Modules and functions that read any of ``names`` as an attribute or
    import one of them by name."""
    def uses(tree):
        return any(isinstance(node, ast.Attribute) and node.attr in names
                   or isinstance(node, ast.ImportFrom)
                   and names & {a.name for a in node.names}
                   for node in ast.walk(tree))

    modules = {name for name, tree in parsed_modules().items() if uses(tree)}
    functions = {f"{name}.{node.name}"
                 for name, tree in parsed_modules().items()
                 for node in ast.walk(tree)
                 if isinstance(node, ast.FunctionDef) and uses(node)}
    return modules, functions


def test_one_root_finder():
    # np.roots runs in profiles._real_roots_in alone
    assert users_of({"roots"}) == ({"profiles"}, {"profiles._real_roots_in"})


def test_one_eigen_path():
    # LAPACK's general eigensolver runs in eigen.eig_small alone, which
    # checks the residual of every pair it returns
    assert users_of({"eig", "eigvals"}) == ({"eigen"}, {"eigen.eig_small"})


def test_one_whitham_assembly():
    # the chain action Hessian -> hessH runs in modulation._whitham_assembly
    # alone, for whitham reports and sweep points alike
    callers = {f"{name}.{node.name}"
               for name, tree in parsed_modules().items()
               for node in ast.walk(tree)
               if isinstance(node, ast.FunctionDef)
               and {"action_hessian", "hessianH"} & {
                   n.id for n in ast.walk(node) if isinstance(n, ast.Name)}}
    assert callers == {"modulation._whitham_assembly"}


# diagnostics a --diagnostics report will print, and the per-point data
# of a splitting fit, which only the tests read
UNREAD_FIELDS = {"ActionJet.symmetry_residual", "ActionJet.warnings",
                 "SplitReport.per_point"}


def test_every_dataclass_field_has_a_reader():
    # a field counts as read where src/ or modbench/ reads it as an
    # attribute, or names it to SweepTable.column
    trees = list(parsed_modules().values()) + [
        ast.parse(p.read_text(encoding="utf-8"))
        for p in sorted((ROOT / "modbench").glob("*.py"))]
    read = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) \
                    and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif isinstance(node, ast.Call) \
                    and isinstance(node.func, ast.Attribute) \
                    and node.func.attr == "column" and node.args \
                    and isinstance(node.args[0], ast.Constant):
                read.add(node.args[0].value)
    fields = {f"{node.name}.{st.target.id}"
              for tree in parsed_modules().values()
              for node in ast.walk(tree)
              if isinstance(node, ast.ClassDef) and any(
                  getattr(d.func if isinstance(d, ast.Call) else d, "id",
                          None) == "dataclass" for d in node.decorator_list)
              for st in node.body
              if isinstance(st, ast.AnnAssign)
              and isinstance(st.target, ast.Name)}
    assert len(fields) > 100
    unread = {f for f in fields if f.split(".")[1] not in read}
    assert unread == UNREAD_FIELDS


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


def _called_as(tree):
    """Local names bound to a function, ``render = render_csv if csv else
    render_json``, mapped to the function names they stand for."""
    def names(node):
        if isinstance(node, ast.Name):
            return {node.id}
        if isinstance(node, ast.IfExp):
            return names(node.body) | names(node.orelse)
        return set()

    alias = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                and isinstance(node.targets[0], ast.Name):
            alias.setdefault(node.targets[0].id, set()).update(
                names(node.value))
    return alias


def test_every_defaulted_parameter_is_set_by_a_caller():
    # a call in src/ or modbench/ sets a parameter by keyword or by
    # position (methods count positions after self); gkdv_model, the
    # README's model constructor, is exempt: its arguments are the model
    trees = list(parsed_modules().values()) + [
        ast.parse(p.read_text(encoding="utf-8"))
        for p in sorted((ROOT / "modbench").glob("*.py"))]
    passed = {}
    for tree in trees:
        alias = _called_as(tree)
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            for fn in {name} | alias.get(name, set()):
                passed.setdefault(fn, set()).update(
                    [*range(len(node.args)), *(k.arg for k in node.keywords)])
    unset = []
    for module, tree in parsed_modules().items():
        for fn in ast.walk(tree):
            if not isinstance(fn, ast.FunctionDef) or fn.name == "gkdv_model":
                continue
            a = fn.args
            pos = [x.arg for x in a.posonlyargs + a.args]
            first = len(pos) - len(a.defaults)
            shift = 1 if pos and pos[0] in ("self", "cls") else 0
            params = [(p, i - shift) for i, p in enumerate(pos) if i >= first]
            params += [(x.arg, None) for x, d in zip(a.kwonlyargs,
                                                     a.kw_defaults) if d]
            got = passed.get(fn.name, set())
            unset += [f"{module}.{fn.name}({p})" for p, i in params
                      if p not in got and i not in got]
    assert unset == []
