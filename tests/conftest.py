"""Pin the BLAS thread pools before any test module imports numpy.

``gprates.cli.main`` pins them for every command-line run; in-process tests
call the library directly, so they pin here to get the same one-thread
results as the CLI.  Importing ``gprates.cli`` does not load numpy.  The
``failing_cho_factor`` fixture forces ``fit``'s jitter escalation on a whole
Gram and counts its factorizations, ``failing_solve_toeplitz`` switches its
Toeplitz route off or spoils its certificate, ``toeplitz_products`` records
the Toeplitz route's FFT products (certificates and predictions), the
``oracle_factor`` and ``posterior_var`` fixtures are the Cholesky-factor and
posterior-variance oracles, and the ``counted`` fixture counts the calls of
a gprates function.

``FAST_PATHS`` is the switchboard of gprates' two fast paths, the lattice
tables and the strip windows: each one claims to be bitwise a plain path,
and lists every binding that switches it off (``test_public_names`` checks
that it lists every module that binds the name).
``masked_expected_improvement`` is the expected-improvement oracle of the
plain BO loop in ``test_bayesopt``.
"""

import pytest

import gprates.cli

gprates.cli._pin_blas_threads()

# numpy and scipy load only after the pin
import numpy as np
from scipy.special import ndtr

from gprates import kernels


def masked_expected_improvement(mean, sd, best):
    """The two-branch formula: both branches on every entry, then a select."""
    gap = mean - best
    with np.errstate(divide="ignore", invalid="ignore"):
        z = np.where(sd > 0, gap / np.where(sd > 0, sd, 1.0), 0.0)
    pdf = np.exp(-z**2 / 2.0) / np.sqrt(2 * np.pi)
    return np.where(sd > 0, gap * ndtr(z) + sd * pdf, np.maximum(gap, 0.0))


def _no_lattice_table(*args):
    return None


def _one_block_per_strip(table, blocks_per_strip=kernels.blocks_per_strip):
    """None where ``kernels.blocks_per_strip`` is None, else one block per strip."""
    return blocks_per_strip(table) and 1


# fast path -> the (gprates module, name, off value) of each binding that
# switches it off
FAST_PATHS = {
    # every 1-d set on a small dyadic lattice reads its kernel values from a table
    "lattice_tables": [("kernels", "lattice_table", _no_lattice_table)],
    # up to blocks_per_strip(table) blocks of a grid against a grid share one window
    "strip_windows": [("kernels", "blocks_per_strip", _one_block_per_strip)],
}


@pytest.fixture
def failing_cho_factor(monkeypatch):
    """Replace ``fitting.cho_factor`` with one that counts calls and fails the first few.

    ``failing_cho_factor(count)`` installs it and returns the list of factored
    sizes, one per call.  Each of the first ``count`` calls runs the real
    factorization in place before raising, as LAPACK leaves a matrix it could
    not factor, so a fit that reused that matrix would factor garbage.
    """
    import numpy as np
    from scipy.linalg import cho_factor

    import gprates.fitting

    def install(count):
        calls = []

        def factor(a, *args, **kwargs):
            calls.append(a.shape[0])
            result = cho_factor(a, *args, **kwargs)
            if len(calls) <= count:
                raise np.linalg.LinAlgError("leading minor is not positive definite")
            return result

        monkeypatch.setattr(gprates.fitting, "cho_factor", factor)
        return calls

    return install


@pytest.fixture
def failing_solve_toeplitz(monkeypatch):
    """Replace ``fitting.solve_toeplitz`` with one that counts calls and spoils the first few.

    ``failing_solve_toeplitz(count, factor=nan)`` installs it and returns the
    list of system sizes, one per call.  Each of the first ``count`` calls
    (``math.inf``: every call) runs the real recursion and returns its
    result times ``factor``.  A NaN factor switches ``fit``'s Toeplitz route
    off, so the Gram is written whole and factored; a finite factor off 1 gives
    weights that the route's backward-error test must reject.
    """
    from scipy.linalg import solve_toeplitz

    import gprates.fitting

    def install(count, factor=float("nan")):
        calls = []

        def solve(c, b, *args, **kwargs):
            calls.append(len(c))
            result = solve_toeplitz(c, b, *args, **kwargs)
            return result * factor if len(calls) <= count else result

        monkeypatch.setattr(gprates.fitting, "solve_toeplitz", solve)
        return calls

    return install


@pytest.fixture
def toeplitz_products(monkeypatch):
    """Record each call of ``fitting._toeplitz_product``: the certificate of
    each Toeplitz solve in ``fit`` and the FFT route of ``posterior_mean``.

    Returns the list of ``(n, m, b)`` (design points, rows of the product,
    phases) of every call, which it appends to as fits and predictions run;
    a certificate is ``(n, n, 1)``.
    """
    import gprates.fitting

    calls = []
    product = gprates.fitting._toeplitz_product

    def record(v, b, dual):
        n = len(dual)
        calls.append((n, len(v) - b * (n - 1), b))
        return product(v, b, dual)

    monkeypatch.setattr(gprates.fitting, "_toeplitz_product", record)
    return calls


@pytest.fixture
def oracle_factor():
    """The lower Cholesky factor of a fitted model's system, factored by numpy.

    ``oracle_factor(model, lam=0.0)`` factors ``gram + (lam + jitter) I`` at
    the model's design, with ``lam`` the regularization the model was fitted
    with; the model keeps only its dual weights, so the oracle owes nothing
    to ``fit``'s factor.
    """
    import numpy as np

    from gprates.kernels import gram

    def factor(model, lam=0.0):
        K = gram(model.kernel, model.design)
        return np.linalg.cholesky(K + (lam + model.jitter) * np.eye(len(K)))

    return factor


@pytest.fixture
def posterior_var(oracle_factor):
    """The posterior variance of a fitted model, by one whole triangular solve.

    ``posterior_var(model, x, lam=0.0)`` is ``k(x, x) - |L^{-1} k_Xx|^2``
    with ``L = oracle_factor(model, lam)``, clamped at zero: one value per
    row of the batch ``x``.
    """
    import numpy as np
    from scipy.linalg import solve_triangular

    from gprates.kernels import cross_matrix

    def variance(model, x, lam=0.0):
        Kx = cross_matrix(model.kernel, x, model.design)
        V = solve_triangular(oracle_factor(model, lam), Kx.T, lower=True)
        return np.maximum(model.kernel.amplitude - np.sum(V * V, axis=0), 0.0)

    return variance


@pytest.fixture
def counted(monkeypatch):
    """Count the calls and result entries of a gprates function under every binding.

    ``counted(owner, name)`` replaces ``owner.name`` in every gprates module
    that binds it and returns the counts, ``{"calls": .., "entries": ..}``.
    """
    import sys

    import numpy as np

    def install(owner, name):
        original = getattr(owner, name)
        counts = {"calls": 0, "entries": 0}

        def counting(*args, **kwargs):
            result = original(*args, **kwargs)
            counts["calls"] += 1
            counts["entries"] += np.size(result)
            return result

        for mod_name, module in list(sys.modules.items()):
            if mod_name == "gprates" or mod_name.startswith("gprates."):
                for attr, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, attr, counting)
        return counts

    return install
