"""Polynomial adic systems.

Exact tower combinatorics over the graded graph of an integer polynomial,
the adic successor map, the one-parameter family of invariant Bernoulli
measures, ergodic partial-sum fluctuation curves, and the generalized Takagi
functions describing their limits.
"""

from types import ModuleType as _ModuleType

from .errors import (CapacityError, DegenerateCurve, DivisionByZeroJet,
                     HorizonExhausted, MaximalPath, MinimalPath, NoConvergence,
                     NoRoot, PolyadicError, PrefixExhausted, RankOutOfRange)
from .poly import DimTable, GenPolynomial
from .paths import (LetterTable, PathPrefix, iter_tower, jump, kappa,
                    letter_table, maximal_word, minimal_word, predecessor,
                    prefix_walk, rank, successor, unrank, word_from_string,
                    word_to_string)
from .measure import (MeasureParams, cylinder_measure, decode_digits,
                      encode_theta, letter_stream, measure_params, sample_word,
                      solve_t, stationary_points, weight_residual)
from .ergodic import (CylFunction, HCoeffs, PolygonalCurve, central_vertex,
                      cohomology_verdict, curve_value, extract_limiting_curve,
                      fluctuation_curve, h_coeffs, measure_ray, node_grid,
                      sup_distance, tower_total)
from .takagi import (MIRROR_SIGN, Jet, coding_map, jet_const, jet_var,
                     parabola_profile, self_affinity_residual, t_jet,
                     takagi_function)

# the names imported above, not the submodules they come from
__all__ = [name for name, value in globals().items()
           if not name.startswith("_") and not isinstance(value, _ModuleType)]

__version__ = "0.1.0"
