"""Numerical constructions and certificates for Beurling-Carleson sets,
analytic cut-off functions, outer/inner factors and smooth Cauchy
transforms on the unit circle."""

from .circle_sets import (
    Arc,
    BeurlingCarlesonSet,
    WhitneyArc,
    assign_lambdas,
    dist_to_set,
    point_carrier,
    validate_set,
    whitney_decompose,
)
from .boundary_calculus import (
    AnalyticSeries,
    conjugate_function,
    evaluate_in_disk,
    fejer_means,
)
from .cutoff import CutoffFunction, build_cutoff, certify_decay, eval_g, eval_h
from .factors import (
    Atom,
    BoundaryWeight,
    InnerFunction,
    OuterFunction,
    SingularMeasure,
    boundary_weight,
    certify_theta_derivatives,
    certify_W_derivatives,
    inner_singular_eval,
    outer_from_weight,
)
from .transforms import (
    KMember,
    TransformResult,
    backshift_identity,
    build_member,
    flip_check,
    model_space_orthogonality,
    smooth_transform,
    split_transform,
)
from .spaces import (
    DualSequence,
    WeightSequence,
    annihilator_check,
    d_space_gram,
    moments_beta,
    pairing,
    rapid_weight,
    toeplitz_truncation,
    weighted_operator_norm,
    x_norm,
)
from .dbr import (
    SymbolB,
    build_symbol,
    j_relation_check,
    kernel_difference_psd,
    kernel_eval,
    permanence_functional_check,
    restricted_symbol,
)

__version__ = "0.1.0"
