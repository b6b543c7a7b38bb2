"""Numerical calculus for degenerate Kolmogorov-type diffusion operators.

For generators A u = tr(Q D^2 u) + <B X, grad u>: the Gramians of (Q, B) and a
hypoellipticity check, the explicit transition kernel in two closed forms with
its log-derivatives and the kernel-level Li-Yau identity, the semigroup P_t in
closed form on a Gaussian-polynomial test family (compactly supported profiles
by a spherical-radial rule: exact along each ray, random only in direction), the
Poisson semigroup by subordination, kernel L^r norms and an ultracontractivity check.
"""

from hypok.operator_core import (
    OperatorSpec,
    GramianBundle,
    KernelConstants,
    gramians,
    heat,
    hypoellipticity_check,
    kolmogorov,
    matrix_exponential,
    ornstein_uhlenbeck,
)

__all__ = [
    "OperatorSpec",
    "GramianBundle",
    "KernelConstants",
    "gramians",
    "heat",
    "hypoellipticity_check",
    "kolmogorov",
    "matrix_exponential",
    "ornstein_uhlenbeck",
]

__version__ = "0.1.0"
