"""The public namespace of the package: its names, and their import on first use."""

import importlib.util
import subprocess
import sys
import types

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
    "project_punct", "pullback_h1", "q_hat", "rel_punct_pairing", "spin_form",
    "structure_report", "symplectic_pairing", "theta", "track_curve",
    "transvection", "v_kappa_star", "winding_parity", "word_to_paut", "words", "x_curve",
    "y_curve",
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
