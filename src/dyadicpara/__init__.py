"""Dyadic harmonic-analysis toolkit: paraproducts, square and maximal
operators, dyadic H^1/BMO norms, and decomposition-based verification on
exact 2^L grids over the unit torus."""

__version__ = "0.1.0"

from .errors import (
    CalibrationError,
    ContractError,
    DyadicError,
    ResolutionError,
    ResourceError,
    UnsupportedFamilyError,
)
from .families import AdaptedFamily, adaptedness_check
from .lattice import (
    DyadicInterval,
    DyadicRectangle,
    GridBox,
    RectangleCollection,
    dilate,
    enumerate_intervals,
    enumerate_rectangles,
    interval,
    maximal_intervals_in_mask,
    rectangle,
)
from .norms import bmo_norm_1param, h1_norm, product_bmo_lower
from .operators import (
    OperatorSpec,
    conditional_expectation,
    governing_operator,
    maximal_function,
    restricted_operator,
    square_function,
)
from .paraproducts import (
    ParaproductSpec,
    domination_check,
    eval_B,
    eval_L,
    eval_Lambda,
    haar_surgery,
    slot_operator_specs,
    standard_triple,
)
from .signals import (
    ExponentTuple,
    Signal,
    conjugate_exponent,
    lp_norm,
    weak_quasinorm,
)
from .transforms import (
    CoefficientField,
    coefficients,
    lattice_rectangles,
    reconstruct,
)
from .decomposition import (
    DecompositionState,
    RestrictedWeakConfig,
    build_exceptional_sets,
    classify_rectangles,
    endpoint_pipeline,
    localization_experiment,
    restricted_weak_type_pipeline,
    shadow_layer_decay,
    sum_over,
    technical_lemma_check,
)
from .harness import (
    ExperimentConfig,
    generate_signal,
    normalize,
    run_suite,
    run_sweep,
)

__all__ = [name for name in dir() if not name.startswith("_")]
