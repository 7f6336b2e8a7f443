"""Self-affine Okamoto-type functions and their derivative spectra.

The family is indexed by a positive integer N and a slope parameter
a in (1/(N+1), 1); each member maps [0,1] onto itself, and at every point its
derivative is 0, +infinity, -infinity, or undefined.  This package evaluates
the functions, classifies derivatives exactly at eventually periodic points,
computes the regime thresholds, and estimates the Hausdorff dimensions of the
zero- and infinite-derivative sets via an expansion-in-base-1/a
correspondence.
"""

from .errors import (
    ConvergenceError,
    DomainError,
    GridPointError,
    OkamotoError,
    PrecisionError,
    ResourceError,
)
from .numdigits import (
    DigitSeq,
    OmegaSeq,
    Params,
    digits_of,
    digits_of_rational,
    make_params,
    odd_count_prefix,
    odd_liminf_frequency,
    odd_total,
)
from .selfaffine import (
    GeneratorPattern,
    GraphSample,
    box_dimension,
    eval_F,
    eval_F_exact,
    eval_F_rational,
    eval_fn,
    generator_pattern,
    sample_graph,
    slope_fn,
)
from .betaexp import (
    EntropyBounds,
    ExpansionCount,
    complement,
    count_expansions,
    generalized_golden_ratio,
    generalized_tm_prefix,
    is_univoque,
    komornik_loreti,
    pi_beta,
    quasi_greedy_one,
    resolve_beta,
    shift,
    thue_morse_prefix,
    univoque_entropy_bounds,
)
from .derivative import (
    DerivativeClass,
    DerivativeTag,
    check_infinite_conditions,
    classify_derivative,
    finite_difference_probe,
)
from .spectrum import (
    DimensionReport,
    Thresholds,
    critical_frequency,
    dim_infinite_set,
    dim_zero_set,
    dimension_curve,
    enumerate_infinite_points,
    frequency_dimension,
    frequency_set_dimension,
    threshold_asymptotics,
    thresholds,
)

__version__ = "0.1.0"
