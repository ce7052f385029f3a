"""Exact homological action of framed surfaces.

Winding-number functions on a marked surface, their Arf invariants, the
change-of-winding crossed homomorphism on the pure automorphism group of
relative homology, and membership in its kernel, which is the homological
monodromy group of the corresponding stratum of abelian differentials.

Public names are imported from their submodule on first use (PEP 562), so
``import framedhom`` loads no submodule.
"""

from importlib import import_module as _import_module

# submodule -> the public names it provides; each submodule is a public name too
_EXPORTS = {
    "errors": (
        "ArfMismatch",
        "DimensionMismatch",
        "FramedHomError",
        "InvalidSurface",
        "MissingArcData",
        "MoveError",
        "NoLiftExists",
        "NotPrimitive",
        "NotSymplectic",
        "PointPushOnArcs",
        "QVectorMismatch",
        "SomeKappaOdd",
        "SpecMismatch",
        "TooLarge",
    ),
    "framing": ("Framing", "QForm", "arf", "spin_form", "winding_parity"),
    "kernel": (
        "StructureReport",
        "kernel_test",
        "lift_transvection",
        "q_hat",
        "structure_report",
        "theta",
        "v_kappa_star",
    ),
    "lattice": (
        "AbsVec",
        "CohomClass",
        "PunctVec",
        "RelVec",
        "SurfaceSpec",
        "abs_basis",
        "arc_class",
        "as_punct",
        "as_rel",
        "point_loop",
        "rel_punct_pairing",
        "x_curve",
        "y_curve",
    ),
    "mod2": (),
    "moves": ("ArcParityTwist", "BoundaryTwist", "ConnectSum", "apply_move", "match_framings"),
    "paut": ("PAutElem", "compose", "factor_sp", "invert", "pullback_h1", "transvection"),
    "words": (
        "PointPush",
        "Twist",
        "Word",
        "act_framing",
        "act_rel",
        "delta_word",
        "track_curve",
        "word_to_paut",
    ),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"

__all__ = sorted([*_EXPORTS, *_SOURCE])


def __getattr__(name: str):
    if name in _EXPORTS:
        return _import_module(f".{name}", __name__)  # binds the submodule here
    if name not in _SOURCE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f".{_SOURCE[name]}", __name__), name)
    globals()[name] = value  # later lookups no longer reach __getattr__
    return value


def __dir__():
    # what dir() listed when every submodule was imported eagerly
    names = {n for n in globals() if not n.startswith("_") or n.endswith("__")}
    return sorted(names.union(__all__).difference({"__getattr__", "__dir__"}))
