"""Dimension counts and linear relations for generalized Euler integrals.

The integrals I_{a,b} = int_Gamma f^{s+a} x^{nu+b} dx/x span a
finite-dimensional vector space.  This package computes its dimension three
ways (critical points, polytope volume, numerical pairing) and produces and
verifies linear relations among the integrals.

Each public name is imported on first use (PEP 562), so `import eulerint`
loads none of the modules below, and a command loads only the ones it calls.
"""

from importlib import import_module as _import_module

# the public names of each module
_EXPORTS = {
    "laurent": ("IntegrandSpec", "LaurentPoly", "OutsideDomainError",
                "ParseError", "format_poly", "omega_components", "parse_poly"),
    "critical": ("PolySystem", "SolutionSet", "TrackerSettings",
                 "build_system", "euler_characteristic", "solve"),
    "polytope": ("LatticePointSet", "VolumeReport", "cayley_support", "facets",
                 "normalized_volume"),
    "twisted": ("BranchCurve", "Cocycle", "PairingMatrix", "TwistedCycle",
                "integrate_loop", "nullspace", "pairing_matrix",
                "principal_branch_value"),
    "relations": ("AnnOperator", "LogForm", "Relation", "mellin_relation",
                  "nabla_apply", "operator_form", "relations_agree",
                  "verify_numeric"),
    "gkz": ("CayleyConfig", "cayley_matrix", "euler_operators",
            "is_nonresonant", "lattice_kernel", "rank_bound"),
    "intlinalg": (),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_EXPORTS, *_HOME])
__version__ = "0.1.0"


def __getattr__(name):
    if name in _EXPORTS:
        return _import_module(f".{name}", __name__)
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
