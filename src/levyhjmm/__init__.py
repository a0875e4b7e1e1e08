"""Numerical laboratory for the linear-diffusion HJMM forward-rate equation
driven by a one-dimensional Levy process.

Submodules
----------
levy_model      Levy triplet (a, q, nu) and moment integrals of the jump measure.
levy_analysis   Laplace exponent, growth/regularity conditions, regime classification.
function_space  Weighted curves, L2/H1 norms with exponential weight, embedding bounds.
grids           Aligned dt = dx space-time grids, their node rule and shift semigroup.
path_sim        Path simulation with small-jump truncation and compensation.
random_factor   The pathwise multiplicative field entering the integral equation.
hjmm_solver     Monotone fixed-point iteration, explosion detection, residual checks.
bond_market     Bond prices, HJM drift residual and martingale diagnostics.
cli             Scenario-driven command line front end.
"""

__version__ = "0.1.0"

from .levy_model import LevyMeasureSpec, LevyModel, PowerLaw, Exponential, Uniform

__all__ = [
    "LevyMeasureSpec",
    "LevyModel",
    "PowerLaw",
    "Exponential",
    "Uniform",
    "__version__",
]
