"""Gaussian-process approximation under misspecified smoothness and likelihoods.

Kernel interpolation/regression with Matern kernels on the Sobolev
smoothness scale, experimental-design generators and metrics (fill
distance, separation radius, mesh ratio), theoretical convergence-rate
exponents with an empirical slope-verification harness, posterior-mean
quadrature, and variance-stabilized Bayesian optimization.

Import the submodules directly (``gprates.experiments``, ``gprates.cli``,
...).  The package itself imports nothing, so ``gprates.cli.main`` can pin
the BLAS thread pools before numpy is first loaded.
"""

__version__ = "0.1.0"
