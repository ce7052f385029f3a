"""The public namespace of the package: its names, their import on first use, and who may import them."""

import ast
import importlib.util
import json
import re
import subprocess
import sys
import types
from pathlib import Path

import pytest

import framedhom

# every name the package exported when it imported each submodule eagerly
EXPORTED = [
    "AbsVec", "ArcParityTwist", "ArfMismatch", "BoundaryTwist", "CohomClass", "ConnectSum",
    "DimensionMismatch", "FramedHomError", "Framing", "InvalidSurface",
    "MissingArcData", "MoveError", "NoLiftExists", "NotPrimitive", "NotSymplectic", "PAutElem",
    "PointPush", "PointPushOnArcs", "PunctVec", "QForm", "QVectorMismatch", "RelVec",
    "SomeKappaOdd", "SpecMismatch", "StructureReport", "SurfaceSpec", "TooLarge", "Twist", "Word",
    "abs_basis", "act_framing", "act_rel", "apply_move", "arc_class", "arf",
    "as_punct", "as_rel", "compose", "delta_word",
    "errors", "factor_sp", "framing", "invert", "kernel", "kernel_test", "lattice",
    "lift_transvection", "match_framings", "mod2", "moves", "paut", "point_loop",
    "pullback_h1", "q_hat", "rel_punct_pairing", "spin_form", "structure_report",
    "theta", "track_curve", "transvection", "v_kappa_star", "winding_parity",
    "word_to_paut", "words", "x_curve", "y_curve",
]
SUBMODULES = {"errors", "framing", "kernel", "lattice", "mod2", "moves", "paut", "words"}


def test_all_lists_the_exported_names():
    assert sorted(framedhom.__all__) == EXPORTED
    assert framedhom.__version__ == "0.1.0"
    assert set(EXPORTED) <= set(dir(framedhom))


def test_every_name_resolves_through_getattr():
    for name in EXPORTED:
        value = getattr(framedhom, name)
        if name in SUBMODULES:
            assert value is sys.modules[f"framedhom.{name}"]
        else:
            assert not isinstance(value, types.ModuleType), name
        assert vars(framedhom)[name] is value  # bound once; __getattr__ is not asked again


def test_every_name_resolves_through_star_import():
    namespace = {}
    exec("from framedhom import *", namespace)
    assert all(namespace[name] is getattr(framedhom, name) for name in EXPORTED)


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        framedhom.no_such_name


def test_import_loads_no_submodule():
    code = "import sys, framedhom; print(*[m for m in sys.modules if m.startswith('framedhom.')])"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0 and proc.stdout.strip() == "", proc.stdout + proc.stderr


def test_theta_stays_the_function_after_its_submodule_loads():
    # theta is kernel's function; no submodule framedhom.theta exists to shadow it
    assert importlib.util.find_spec("framedhom.theta") is None
    code = "import framedhom.kernel; import framedhom; print(type(framedhom.theta).__name__)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0 and proc.stdout.strip() == "function", proc.stderr


# Every function of src/framedhom that the production traffic below never
# enters, with the reason it stays.  A new function that nothing enters fails
# until it gains a caller or a reason here; an entry that gains a caller fails
# until it is dropped from here.
UNREACHED = {
    "framedhom.__dir__": "namespace contract: dir(framedhom) lists the names imported on first use",
    "value.Value.__hash__": "value protocol: equal values hash equal",
    "value.Value.__repr__": "value protocol: a value prints as Name(field=value, ...)",
    "value.Value.__setattr__": "value protocol: a value is immutable",
    "value.Value.__delattr__": "value protocol: a value is immutable",
    "value.Value.__setstate__": "value protocol: copy and pickle restore the slots",
    "words.Word.__len__": "value protocol: a word's length is its number of letters",
    "paut.compose": "bench only: the words and algebra workloads' compose op",
    "paut.mat_mul": "bench only: compose's block products",
    "framing.QForm.__init__": "bench only: the structure-report answer check builds its form",
    "framing.QForm.basis_bits": "bench only: the structure-report answer check; drop at the next bench change",
    "paut.invert": "ROADMAP item 4: the theta-crossed check",
    "paut.sp_inverse": "ROADMAP item 4: invert's symplectic block",
    "lattice._Vec.__add__": "ROADMAP items 1, 2 and 12: class arithmetic for the push, move and kernel-word oracles",
    "lattice._Vec.__rmul__": "ROADMAP items 1, 2 and 12: class arithmetic for the push, move and kernel-word oracles",
    "lattice.arc_class": "ROADMAP items 1, 2 and 18: the arc classes",
    "lattice.rel_punct_pairing": "ROADMAP item 18: the relative-punctured pairing",
}

# Run in a fresh interpreter with the profiler installed before framedhom is
# imported, so calls made while a module or class body runs count.  Every row
# of the CLI table (argv[1]) goes through cli.main in a fresh directory, then
# `verify all --seed 0 --trials 20`.  Prints, as a JSON list, each
# module-level function and class-dict method of src/framedhom (properties,
# classmethods and functools caches unwrapped; nested functions and lambdas
# not counted) whose code never ran.
TRACE = """
import sys

entered = set()


def hook(frame, event, arg):
    if event == "call":
        entered.add(frame.f_code)


sys.setprofile(hook)

import contextlib, io, json, os, pathlib, tempfile, types

import framedhom.cli as cli

table = json.loads(pathlib.Path(sys.argv[1]).read_text())
home, sink = os.getcwd(), io.StringIO()
with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
    for i, case in enumerate(table["cases"]):
        row = os.path.join(tmp, str(i))
        os.mkdir(row)
        os.chdir(row)
        for name, content in {**table["shared"], **case.get("files", {})}.items():
            pathlib.Path(name).write_text(json.dumps(content))
        assert cli.main(case["argv"]) == case["code"], case["argv"]
    assert cli.main(["verify", "all", "--seed", "0", "--trials", "20"]) == 0
    os.chdir(home)
sys.setprofile(None)


def functions(obj):
    if isinstance(obj, type):
        return [f for member in vars(obj).values() for f in functions(member)]
    if isinstance(obj, property):
        return [obj.fget, obj.fset, obj.fdel]
    if isinstance(obj, (classmethod, staticmethod)):
        return [obj.__func__]
    return [getattr(obj, "__wrapped__", obj)]


names = {}
for path in pathlib.Path(cli.__file__).parent.glob("*.py"):
    module = "framedhom" if path.stem == "__init__" else f"framedhom.{path.stem}"
    for obj in vars(__import__(module, fromlist=["*"])).values():
        if getattr(obj, "__module__", None) == module:
            for f in functions(obj):
                if isinstance(f, types.FunctionType):
                    names[f.__code__] = f"{module.removeprefix('framedhom.')}.{f.__qualname__}"
print(json.dumps(sorted(name for code, name in names.items() if code not in entered)))
"""


def test_every_function_is_entered_or_has_a_reason():
    table = Path(__file__).parent / "data" / "cli_cases.json"
    proc = subprocess.run([sys.executable, "-c", TRACE, str(table)], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    unreached = set(json.loads(proc.stdout))
    assert unreached - UNREACHED.keys() == set(), "entered by no command and no suite: give a caller or a reason"
    assert UNREACHED.keys() - unreached == set(), "entered now: drop from UNREACHED"


# The oracles (the tests' reference formulas, the benchmark's answer checks)
# reach neither the package nor numpy: no import, relative ones included, and no
# name, attribute or string outside a bare string statement (a docstring) naming either.
ORACLES = [Path(__file__).parent / "reference.py", Path(__file__).parents[1] / "bench" / "checks.py"]


def _reaching(source: str) -> list[str]:
    tree = ast.parse(source)
    bare = {id(node.value) for node in ast.walk(tree) if isinstance(node, ast.Expr)}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            found.append("." * node.level + (node.module or ""))
        elif isinstance(node, (ast.Name, ast.Attribute)):
            found.append(getattr(node, "id", None) or node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and id(node) not in bare:
            found.append(node.value)
    return [name for name in found if name.startswith(".") or re.search(r"\b(framedhom|numpy)\b", name)]


@pytest.mark.parametrize("path", ORACLES, ids=lambda path: path.name)
def test_oracles_reach_neither_the_package_nor_numpy(path):
    assert _reaching(path.read_text()) == []


@pytest.mark.parametrize("line", [
    "from framedhom import mod2", "import framedhom.lattice", "from framedhom.lattice import sympl",
    "import numpy as np", "from numpy import zeros", "from . import mod2",
    "importlib.import_module('framedhom.lattice').sympl", "__import__('numpy')", "sys.modules['framedhom.mod2']",
    "def f():\n    import framedhom\n    return framedhom.lattice.sympl",
])
def test_oracle_guard_sees_each_form(line):
    assert _reaching(ORACLES[0].read_text() + "\n" + line + "\n")
