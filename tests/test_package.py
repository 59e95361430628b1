"""The installed package needs numpy alone at run time, and its public
surface and finite-difference configuration stay as small as the
program uses."""

import argparse
import ast
import dataclasses
import importlib
import inspect
import pkgutil
import sys
from pathlib import Path

import pytest

import modlab
from modlab.action import ActionJet, FDConfig
from modlab.cli import DEFAULT_NUMERIC, build_parser, main
from modlab.models import ModelSpec
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


def test_cli_is_a_shell_over_the_library():
    # the CLI reads each numeric setting from the config's numeric block
    # alone, sets the Gauss order through the public functions, and takes
    # the modulation variables off the results they return
    tree = parsed_modules()["cli"]
    from_action = [n for n in ast.walk(tree) if isinstance(n, ast.ImportFrom)
                   and (n.module in ("action", "modlab.action")
                        or any(a.name == "action" for a in n.names))]
    assert from_action == []
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    options = {o for p in sub.choices.values() for a in p._actions
               for o in a.option_strings}
    assert not options & {"--" + k.replace("_", "-") for k in DEFAULT_NUMERIC}


def functions_with(pred):
    """module.function of every function with a node that meets ``pred``;
    a nested function's nodes count for its enclosing functions too."""
    return {f"{name}.{node.name}"
            for name, tree in parsed_modules().items()
            for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef)
            and any(pred(n) for n in ast.walk(node))}


def test_one_derivation_of_the_wave_state():
    # (k, alpha, M) and the other averages of a wave are derived in
    # profiles._state_from_integrals alone; the action Hessian carries
    # the state of its stencil centre instead of a second record
    builders = functions_with(
        lambda n: isinstance(n, ast.Call)
        and getattr(n.func, "id", None) == "WaveState")
    assert builders == {"profiles._state_from_integrals"}
    defined = {node.name for tree in parsed_modules().values()
               for node in ast.walk(tree)
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    assert not defined & {"ModVars", "params_to_modvars"}
    assert tuple(f.name for f in dataclasses.fields(ActionJet)) == \
        ("state", "hess", "symmetry_residual", "warnings")


def test_one_orbit_integrand_stack():
    # profiles._integrand_stack alone lays out and packs the rows the
    # Horner kernel evaluates: models keeps no packed rows and does not
    # import kernels, and orbit_integrals reduces each block's rows in one
    # np.vecdot, with no matmul per row
    modules = parsed_modules()
    assert "_integrand_rows" not in {f.name for f in
                                     dataclasses.fields(ModelSpec)}
    assert "kernels" not in {x for node in ast.walk(modules["models"])
                             if isinstance(node, ast.ImportFrom)
                             for x in [node.module, *(a.name for a in
                                                      node.names)]}
    packers = functions_with(
        lambda n: isinstance(n, ast.Call)
        and getattr(n.func, "attr", getattr(n.func, "id", None))
        == "pack_rows")
    assert packers == {"profiles._integrand_stack"}
    orbit, = [node for node in ast.walk(modules["profiles"])
              if isinstance(node, ast.FunctionDef)
              and node.name == "orbit_integrals"]
    assert not any(isinstance(n, ast.BinOp) and isinstance(n.op, ast.MatMult)
                   for n in ast.walk(orbit))
    assert "_normalize" not in {node.name for node in modules["eigen"].body
                                if isinstance(node, ast.FunctionDef)}


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
    callers = functions_with(lambda n: isinstance(n, ast.Name) and n.id in
                             ("action_hessian", "hessianH"))
    assert callers == {"modulation._whitham_assembly"}


def test_one_saddle_search():
    # a soliton anchor at an endstate has its saddle, the endstate; only
    # a well minimum and a family lambda's saddle are searched for
    searchers = functions_with(lambda n: isinstance(n, ast.Name)
                               and n.id == "_critical_points")
    assert searchers == {"limits.harmonic_point",
                         "limits._soliton_point_at_lambda"}
    orbit, = [node for node in ast.walk(parsed_modules()["limits"])
              if isinstance(node, ast.FunctionDef)
              and node.name == "_homoclinic_orbit"]
    assert [a.arg for a in orbit.args.args] == ["model", "c", "lam", "vs"]
    assert not orbit.args.defaults


def test_one_deflation_layer_and_one_stencil_rule():
    # the homoclinic orbit drops its double root with its shift to the
    # saddle, so roots are divided out in profiles alone; every stencil
    # point that leaves its family is named by _central_differences
    deflaters = functions_with(lambda n: isinstance(n, ast.Name)
                               and n.id == "pdeflate")
    assert {f.split(".")[0] for f in deflaters} == {"profiles"}
    wrappers = functions_with(lambda n: isinstance(n, ast.Call) and getattr(
        n.func, "id", None) == "StencilLeftBranch")
    assert wrappers == {"action._central_differences", "action.at"}


def test_one_richardson_step():
    # (4 J(h/2) - J(h)) / 3 is formed by action._central_differences
    # alone, and every caller says whether it extrapolates
    def binop(n, op):
        return isinstance(n, ast.BinOp) and isinstance(n.op, op)

    def richardson(n):
        return (binop(n, ast.Div) and getattr(n.right, "value", None) == 3.0
                and binop(n.left, ast.Sub) and binop(n.left.left, ast.Mult)
                and getattr(n.left.left.left, "value", None) == 4.0)

    assert functions_with(richardson) == {"action._central_differences"}
    fn, = [node for node in ast.walk(parsed_modules()["action"])
           if isinstance(node, ast.FunctionDef)
           and node.name == "_central_differences"]
    assert [a.arg for a in fn.args.args] == ["f", "x", "steps", "richardson"]
    assert not fn.args.defaults


# diagnostics a --diagnostics report will print
UNREAD_FIELDS = {"ActionJet.symmetry_residual", "ActionJet.warnings"}


def test_every_dataclass_field_has_a_reader():
    # a field counts as read where src/ or modbench/ reads it as an
    # attribute, or names it to SweepTable.column; a name two classes
    # declare is checked per class by the run-time guard below
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


# shared-name fields that no package code reads yet, each kept for a
# consumer the roadmap names
UNREAD_SHARED = {
    # the estimate of the quadrature error at the soliton anchor, for the
    # --diagnostics report; the anchor digest of
    # tests/test_orbit_digests.py hashes it too
    "SolitonPoint.quad_error",
    # the public report's eigenmodes, which the fine asymptotics of the
    # double characteristic read
    "WhithamReport.eigenvectors",
}


def package_dataclasses():
    out = []
    for info in pkgutil.iter_modules(modlab.__path__):
        mod = importlib.import_module(f"modlab.{info.name}")
        out += [obj for obj in vars(mod).values()
                if isinstance(obj, type) and dataclasses.is_dataclass(obj)
                and obj.__module__ == mod.__name__]
    return out


def test_shared_name_fields_are_read_through_their_class(monkeypatch,
                                                         tmp_path):
    # a name two dataclasses declare is read by attribute through one of
    # them at a time; a read counts where code in src/modlab or modbench
    # makes it, while the README CLI lines and one benchmark round run
    from test_cli import readme_cli_commands

    classes = package_dataclasses()
    owners = {}
    for cls in classes:
        for f in dataclasses.fields(cls):
            owners.setdefault(f.name, []).append(cls)
    shared = {n for n, cs in owners.items() if len(cs) > 1}
    readers = (modlab.__path__[0], str(ROOT / "modbench"))
    reads = set()

    def recording(cls, names):
        get = cls.__getattribute__

        def getattribute(self, name):
            if name in names and sys._getframe(1).f_code.co_filename \
                    .startswith(readers):
                reads.add(f"{cls.__name__}.{name}")
            return get(self, name)
        return getattribute

    pairs = set()
    for cls in classes:
        names = {f.name for f in dataclasses.fields(cls)} & shared
        if names:
            pairs |= {f"{cls.__name__}.{n}" for n in names}
            monkeypatch.setattr(cls, "__getattribute__",
                                recording(cls, names))
    assert len(pairs) >= 30

    monkeypatch.chdir(ROOT)
    monkeypatch.syspath_prepend(str(ROOT))
    for argv in readme_cli_commands():
        if "--out" in argv:
            i = argv.index("--out") + 1
            argv[i] = str(tmp_path / argv[i])
        assert main(argv) == 0
    from modbench import workloads

    for work in (workloads.WaveReports(7), workloads.LimitSweeps(7)):
        for key, run in work.round_ops(0):
            try:
                out = run()
            except Exception as exc:
                fault = work.fault(key)
                assert fault and type(exc).__name__ == fault[0], key
                continue
            assert work.check(key, [out]) == [], key
    assert pairs - reads == UNREAD_SHARED
