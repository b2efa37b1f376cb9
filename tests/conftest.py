"""Pin the BLAS thread pools before any test module imports numpy.

``gprates.cli.main`` pins them for every command-line run; in-process tests
call the library directly, so they pin here to get the same one-thread
results as the CLI.  Importing ``gprates.cli`` does not load numpy.  The
``failing_cho_factor`` fixture forces ``fit``'s jitter escalation, the
``oracle_factor`` and ``posterior_var`` fixtures are the Cholesky-factor and
posterior-variance oracles, and the ``counted`` fixture counts the calls of a
gprates function.
"""

import pytest

import gprates.cli

gprates.cli._pin_blas_threads()


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
