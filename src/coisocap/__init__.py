"""Exact capacity minimizers, action-spectrum algebra, and certified
bound intervals for products of spheres, frame manifolds, and closed
symplectic factors.

Each name below is imported from its layer on first use (PEP 562), so
``from coisocap import keq`` loads only ``errors`` and ``kfun``.
"""

import sys

__version__ = "0.1.0"

# layer (= coisocap module) -> the names the package re-exports from it
_EXPORTS = {
    "bounds": ("BoundInterval", "Citation", "LagrangianComparison", "capacity_bounds", "citation",
               "citation_ids", "energy_bounds", "lagrangian_comparison", "squeeze_bounds",
               "width_energy_bound"),
    "errors": ("CapExceededError", "CoisocapError", "ExprParseError", "IntervalConflictError",
               "OutOfRangeError"),
    "expr": ("format_product", "parse_area", "parse_product"),
    "kfun": ("Decomposition", "ExtNat", "NAT_INF", "Pair", "WitnessedValue", "big_k",
             "big_k_table", "four_square", "keq", "keq_naive", "kk", "kk_naive",
             "sqrt_bound_witness"),
    "spectra": ("Closed", "CoisotropicAtom", "ExtRat", "ProductObject", "RAT_INF", "RatPi",
                "Spectrum", "Sphere", "Stiefel", "format_pi", "minimal_action",
                "product_spectrum", "spectrum_of_atom", "spectrum_sum", "split_min_action"),
    "verify": ("CheckResult", "VerifyReport", "run_suite"),
}
_LAYER_OF = {name: layer for layer, names in _EXPORTS.items() for name in names}

__all__ = sorted(_LAYER_OF)


def __getattr__(name: str):
    """Import the layer that owns ``name`` (or the layer ``name`` itself)
    and keep the value, so later lookups never come back here."""
    layer = _LAYER_OF.get(name)
    if layer is None and name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # The builtin import, unlike importlib.import_module, is what
    # ``-X importtime`` reports, one line per layer it loads.  A layer that
    # ``coisocap.cli`` registered to run on first use is in sys.modules
    # already: the import runs it, and reports no line.
    module_name = f"{__name__}.{layer or name}"
    __import__(module_name)
    module = sys.modules[module_name]
    value = module if layer is None else getattr(module, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS, *__all__})
