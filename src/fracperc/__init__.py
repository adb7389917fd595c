"""Fractal percolation laboratory.

Survival-conditioned random dyadic trees and their natural measures,
intersection masses of product measures with affine planes and algebraic
varieties, and empirical threshold sweeps for geometric configurations.
"""

from .errors import (
    BudgetError,
    ConfigError,
    DegenerateInputError,
    FracPercError,
    SingularityError,
)
from .percolation import (
    DyadicCube,
    GaltonWatsonLaw,
    PercolationTree,
    coupled_slice,
    extinction_probability,
    offspring_distribution,
    resample_level,
    sample_forest,
    sample_tree,
)
from .geometry import (
    AffinePlane,
    plane_cube_measure,
    plane_from_text,
    plane_level_keep,
    plane_level_measure,
    plane_to_text,
)
from .polynomials import (
    PolynomialMap,
    newton_refine,
    newton_refine_rows,
    polynomial_from_text,
    polynomial_to_text,
    variety_cube_measure,
    variety_level_measure,
)
from .intersect import (
    MassSeries,
    ProductLaw,
    ProductMeasureSpec,
    holder_modulus,
    intersection_mass,
    martingale_resample_check,
    replicate_masses,
    second_moment_estimate,
)
from .patterns import (
    ConfigDescriptor,
    DetectionResult,
    box_dimension_estimate,
    configuration_plane,
    configuration_polynomial,
    detect_configuration,
    harris_check,
    pattern_parameter_dimension,
    percolation_dimension_test,
    presence_profiles,
    subset_stress_test,
    threshold_sweep,
    threshold_table,
)

__version__ = "0.1.0"
