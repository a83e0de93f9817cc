"""Polynomial adic systems.

Exact tower combinatorics over the graded graph of an integer polynomial,
the adic successor map, the one-parameter family of invariant Bernoulli
measures, ergodic partial-sum fluctuation curves, and the generalized Takagi
functions describing their limits.

Each public name is loaded from its submodule when it is first read
(PEP 562), so ``import polyadic`` loads no submodule.
"""

from importlib import import_module as _import_module

# submodule -> the public names it defines, in the order of __all__
_EXPORTS = {
    "errors": ("CapacityError DegenerateCurve DivisionByZeroJet HorizonExhausted "
               "MaximalPath MinimalPath NoConvergence NoRoot PolyadicError "
               "PrefixExhausted RankOutOfRange"),
    "poly": "DimTable GenPolynomial",
    "paths": ("LetterTable PathPrefix iter_tower jump kappa letter_table maximal_word "
              "minimal_word predecessor prefix_walk rank successor unrank "
              "word_from_string word_to_string"),
    "measure": ("MeasureParams cylinder_measure decode_digits encode_theta letter_stream "
                "measure_params sample_word solve_t stationary_points weight_residual"),
    "ergodic": ("CylFunction HCoeffs PolygonalCurve central_vertex cohomology_verdict "
                "curve_value extract_limiting_curve fluctuation_curve h_coeffs "
                "measure_ray node_grid sup_distance tower_total"),
    "takagi": ("MIRROR_SIGN Jet coding_map jet_const jet_var parabola_profile "
               "self_affinity_residual t_jet takagi_function"),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names.split()}
_SUBMODULES = (*_EXPORTS, "cli")

# the names above, not the submodules they come from
__all__ = list(_SOURCE)

__version__ = "0.1.0"


def __getattr__(name):
    """A public name or a submodule, loaded on first access and kept."""
    module = _SOURCE.get(name)
    if module is None and name not in _SUBMODULES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = _import_module(f"{__name__}.{module or name}")
    if module is not None:
        value = getattr(value, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})
