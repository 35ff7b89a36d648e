"""Gaussian process quadrature rules and quadrature-based filtering."""

__version__ = "0.1.0"

from .filtering import (
    AdditiveStateSpaceModel,
    FilterOutput,
    GaussianState,
    TransformResult,
    gp_transform,
    predict,
    run_filter,
    run_smoother,
    update,
)
from .hermite import enumerate_indices, gh_roots_weights, hermite_multi, hermite_uni
from .kernels import (
    HermitePolynomialKernel,
    SquaredExponentialKernel,
    make_gh_kernel,
    make_ut_kernel,
)
from .points import (
    QuadratureRule,
    UnitPointSet,
    cubature_points,
    gauss_hermite_points,
    hammersley_points,
    optimize_points,
    random_points,
    symmetric5_points,
    ut_points,
)
from .quadrature import (
    NumericalError,
    gp_regression_mean,
    gpq_variance,
    gpq_variance_and_gradient,
    gpq_weights,
    matrix_sqrt,
)

__all__ = [
    "AdditiveStateSpaceModel",
    "FilterOutput",
    "GaussianState",
    "HermitePolynomialKernel",
    "NumericalError",
    "QuadratureRule",
    "SquaredExponentialKernel",
    "TransformResult",
    "UnitPointSet",
    "cubature_points",
    "enumerate_indices",
    "gauss_hermite_points",
    "gh_roots_weights",
    "gp_regression_mean",
    "gp_transform",
    "gpq_variance",
    "gpq_variance_and_gradient",
    "gpq_weights",
    "hammersley_points",
    "hermite_multi",
    "hermite_uni",
    "make_gh_kernel",
    "make_ut_kernel",
    "matrix_sqrt",
    "optimize_points",
    "predict",
    "random_points",
    "run_filter",
    "run_smoother",
    "symmetric5_points",
    "update",
    "ut_points",
]
