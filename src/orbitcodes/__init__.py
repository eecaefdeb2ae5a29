"""Evaluation codes on plane curves with prescribed automorphism groups.

Build generator matrices for codes whose evaluation sets are group orbits,
verify the construction conditions exactly over small finite fields, and
certify that the acting group embeds faithfully into the code's
permutation automorphism group.

Importing the package loads none of its submodules: each public name is
imported from its submodule on first use (PEP 562), so the command line
and `import orbitcodes` pay only for what they run.
"""

__version__ = "0.1.0"

_EXPORTS = {
    "errors": ("CheckFailure", "CheckReport", "OrbitCodesError", "PreconditionError"),
    "gf": (
        "Embedding", "FieldElement", "FieldSpec", "embedding", "frobenius", "make_field",
        "root_of_unity",
    ),
    "geometry": (
        "PlaneCurve", "ProjPoint", "fermat_curve", "plane_curve", "point", "projective_line",
        "trace_fermat_curve",
    ),
    "autgroup": (
        "AutGroup", "ProjMap", "builtin_generators", "close", "diagonal_map", "identity_map",
    ),
    "code_analysis": (
        "CoordPermutation", "min_distance_exact", "permutation_of", "preserves_code",
        "verify_faithful",
    ),
    "construction": (
        "ConstructionResult", "Divisor", "EvalBasis", "EvalCode", "Instance", "build_basis",
        "build_divisor", "builtin_instance", "check_condition_b", "check_condition_d",
        "rank_and_rref", "run_construction",
    ),
}
_SUBMODULES = (*_EXPORTS, "enumeration", "serialize", "cli")
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [name for names in _EXPORTS.values() for name in names]


def __getattr__(name: str):
    from importlib import import_module

    if name in _SUBMODULES:
        return import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
