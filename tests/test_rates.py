"""The theorem entry point against hand-derived exponents, the noiseless limit,
and the degenerate rate tables."""

import math
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gprates.rates import NuggetPolicy, RateParams, fit_empirical_rate, theoretical_exponent

INF = math.inf


def _params(tau_f, tau_k, d=1, q=2, noise_growth=None, quasi_uniform=True,
            nugget=NuggetPolicy()):
    lo, hi = (tau_k, tau_k) if not isinstance(tau_k, tuple) else tau_k
    return RateParams(tau_f=tau_f, tau_k_minus=lo, tau_k_plus=hi, d=d, q=q,
                      noise_growth=noise_growth, quasi_uniform=quasi_uniform, nugget=nugget)


# tau_0 = tau - d (1/2 - 1/q)_+, the h exponent of noiseless interpolation at
# tau_f = tau_k = tau: the n exponent is -tau_0/d
@pytest.mark.parametrize("tau, d, q, expected", [
    (2.0, 1, 2, 2.0),
    (2.0, 1, 1, 2.0),       # (1/2 - 1)_+ = 0
    (2.0, 1, INF, 1.5),     # 2 - 1/2
    (3.0, 2, 4, 2.5),       # 3 - 2 (1/2 - 1/4)
    (2.5, 3, INF, 1.0),     # 2.5 - 3/2
])
def test_tau_zero(tau, d, q, expected):
    n_exp, notes = theoretical_exponent(_params(tau, tau, d=d, q=q))
    assert -n_exp * d == pytest.approx(expected, abs=1e-15)
    assert notes == []


# gamma = max(2, q): with noise growth 0 at tau_f = tau_k = 2, d = 1, noisy
# interpolation gives -1/gamma + max(0, -3/2) = -1/gamma
@pytest.mark.parametrize("q, expected", [(1, 2.0), (2, 2.0), (4, 4.0), (INF, INF)])
def test_gamma_of_q(q, expected):
    n_exp, _ = theoretical_exponent(_params(2.0, 2.0, q=q, noise_growth=0.0))
    assert n_exp == -1 / expected


# (h exponent, mesh-ratio exponent) = (min(tau_f, tau_k-) - d (1/2 - 1/q)_+,
# (tau_k+ - tau_f)_+)
@pytest.mark.parametrize("params, expected", [
    (_params(2.0, 2.0), (2.0, 0.0)),                            # a1_l2
    (_params(2.0, 2.0, q=INF), (1.5, 0.0)),                     # a1_linf
    (_params(1.0, 2.0), (1.0, 1.0)),                            # a2: rough target
    (_params(3.0, (2.0, 2.5), d=2, q=4), (1.5, 0.0)),           # 2 - 2/4
    (_params(1.5, (1.25, 2.5), q=1), (1.25, 1.0)),              # no norm penalty at q = 1
])
def test_exponent_interpolation(params, expected):
    # the n exponent is -(h exponent)/d, plus (mesh-ratio exponent) * rho_trend
    # on a design that is not quasi-uniform
    n_exp, _ = theoretical_exponent(params)
    inflated, notes = theoretical_exponent(replace(params, quasi_uniform=False), rho_trend=1.0)
    assert (-n_exp * params.d, inflated - n_exp) == pytest.approx(expected, abs=1e-15)
    assert notes == ["mesh ratio grows (slope 1.000); prediction inflated"]


# -1/gamma + max(growth, -min(tau_f, tau_k-)/d + 1/2); without noise,
# -(h exponent)/d
@pytest.mark.parametrize("params, expected", [
    (_params(2.0, 2.0), -2.0),
    (_params(2.0, 2.0, noise_growth=0.0), -0.5),                # -1/2 + max(0, -3/2)
    (_params(2.0, 2.0, q=INF, noise_growth=-2.0), -1.5),        # 0 + max(-2, -3/2)
    (_params(2.0, (2.0, 3.0), d=2, noise_growth=0.25), -0.25),  # -1/2 + max(1/4, -1/2)
    (_params(1.0, 2.0, q=1, noise_growth=0.5), 0.0),            # -1/2 + max(1/2, -1/2)
])
def test_exponent_misspec_interpolation(params, expected):
    n_exp, _ = theoretical_exponent(params)
    assert n_exp == pytest.approx(expected, abs=1e-15)


FIXED = NuggetPolicy("fixed", sigma=0.1)
FALLBACK = ("prescribed-smoothness preconditions not met (need tau_k = tau_f + d/2, "
            "q in [1,2], quasi-uniform); falling back to the three-term bound")


# At tau_k = tau_f + d/2, q <= 2 and a quasi-uniform design: -tau_f/(2 tau_f + d).
# Otherwise the largest of the three terms, with 1/gamma = 1/2 at q <= 2:
#   bias -1/gamma - (min(tau_f, tau_k-) - d/2)/d,
#   noise_fill 1/2 - 1/gamma - (tau_k- - d/2)/d,
#   noise_residual -1/gamma + max((1/2 - tau_f/(2 tau_k+))_+, d/(4 tau_k-)).
# tau_k+ > tau_f adds the rho note to the three-term bound; the optimum needs a
# quasi-uniform design, so its rho factor is bounded and carries no note.
@pytest.mark.parametrize("params, expected, notes", [
    (_params(1.0, 1.5, nugget=FIXED), -1 / 3, []),              # -1/(2 + 1)
    (_params(2.0, 3.0, d=2, q=1, nugget=FIXED), -1 / 3, []),    # -2/(4 + 2)
    (_params(3.0, 2.0, nugget=FIXED), -0.375,                   # -1/2 + max(0, 1/8)
     [FALLBACK]),
    (_params(1.0, 2.0, nugget=FIXED), -0.25,                    # -1/2 + max(1/4, 1/8)
     [FALLBACK, "misspecified branch: bias term carries rho^1"]),
    (_params(1.0, 1.5, q=INF, nugget=FIXED), 1 / 6,             # 0 + max(1/6, 1/6)
     [FALLBACK, "misspecified branch: bias term carries rho^0.5"]),
    (_params(1.0, 1.5, quasi_uniform=False, nugget=FIXED), -1 / 3,  # -1/2 + 1/6
     [FALLBACK, "misspecified branch: bias term carries rho^0.5"]),
], ids=["optimum", "optimum_d2_q1", "fallback", "fallback_rho", "fallback_q_inf",
        "fallback_not_quasi_uniform"])
def test_exponent_gaussian_regression(params, expected, notes):
    n_exp, got = theoretical_exponent(params, well_specified=True)
    assert n_exp == pytest.approx(expected, abs=1e-15)
    assert got == notes


def _adaptive(exponent):
    return NuggetPolicy("adaptive_h", exponent=exponent)


CONSTANT_MISMATCH = ("constant nugget with misspecified smoothness: "
                     "no combined corollary applies, using the term-wise maximum")
ADAPTIVE_MISMATCH = "adaptive nugget exponent differs from tau_k - d/2; using the term-wise maximum"


# A constant nugget at tau_k = tau_f, or an adaptive sigma_n ~ h^(tau_k - d/2),
# gives -1/gamma + max(growth, -min(tau_f, tau_k-)/d + 1/2).  Otherwise the
# largest term, with sigma_n ~ n^(-sig):
#   bias -1/gamma - (min(tau_f, tau_k-) - d/2)/d,
#   nugget_bias -1/gamma - sig + (tau_k+ - tau_f)_+/d,
#   noise_fill -1/gamma - (tau_k- - d/2)/d + sig + growth,
#   noise_flat -1/gamma + growth.
@pytest.mark.parametrize("params, expected, notes", [
    (_params(2.0, 2.0, noise_growth=0.0, nugget=FIXED), -0.5, []),  # -1/2 + max(0, -3/2)
    (_params(1.0, 2.0, noise_growth=0.0, nugget=FIXED), 0.5,        # nugget_bias -1/2 + 1
     [CONSTANT_MISMATCH]),
    (_params(2.0, (2.0, 2.5), noise_growth=0.0, nugget=FIXED), 0.0,  # nugget_bias -1/2 + 1/2
     [CONSTANT_MISMATCH]),
    (_params(3.0, 2.5, d=2, noise_growth=0.25, nugget=_adaptive(1.5)), -0.25,  # -1/2 + 1/4
     []),
    (_params(2.0, 2.0, noise_growth=0.0, nugget=_adaptive(3.0)), 1.0,  # noise_fill -2 + 3
     [ADAPTIVE_MISMATCH]),
    (_params(2.0, 2.0, q=INF, nugget=FIXED), 0.0,                    # 0 + max(0, -3/2)
     ["no noise model declared; growth treated as O(1)"]),
], ids=["fixed_matched", "fixed_misspecified", "fixed_tau_k_range", "adaptive_optimal",
        "adaptive_other_exponent", "no_noise_model"])
def test_exponent_misspec_gaussian(params, expected, notes):
    n_exp, got = theoretical_exponent(params)
    assert n_exp == pytest.approx(expected, abs=1e-15)
    assert got == notes


@st.composite
def noiseless_limit_cases(draw):
    d = draw(st.integers(1, 3))
    tau_f = d / 2 + draw(st.floats(0.05, 4.0))
    tau_k_minus = d / 2 + draw(st.floats(0.05, 4.0))
    tau_k_plus = tau_k_minus + draw(st.floats(0.0, 2.0))
    q = draw(st.sampled_from([1.0, 1.5, 2.0, 3.0, 4.0, 8.0, INF]))
    growth = -min(tau_f, tau_k_minus) / d + 0.5 - draw(st.floats(0.0, 3.0))
    return d, tau_f, tau_k_minus, tau_k_plus, q, growth


@settings(max_examples=200, deadline=None)
@given(noiseless_limit_cases())
def test_slow_noise_growth_gives_the_noiseless_exponent(case):
    # noise that grows no faster than n^(-(tau_f ^ tau_k-)/d + 1/2) is hidden
    # by the interpolation error
    d, tau_f, lo, hi, q, growth = case
    noisy = _params(tau_f, (lo, hi), d=d, q=q, noise_growth=growth)
    noiseless = _params(tau_f, (lo, hi), d=d, q=q)
    n_noisy, _ = theoretical_exponent(noisy)
    n_noiseless, _ = theoretical_exponent(noiseless)
    assert n_noisy == pytest.approx(n_noiseless, rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("table, burn_in, reason", [
    ([(16, 0.1), (32, 0.05), (64, 0.02)], 1, "need at least 3 ladder points after burn-in"),
    ([(16, 0.1), (32, 0.0), (64, 0.02)], 0, "nonpositive errors in the rate table"),
    ([(16, 0.1), (16, 0.09), (16, 0.11), (16, 0.1)], 0, "every ladder point after burn-in"),
], ids=["short", "nonpositive_error", "one_design_size"])
def test_degenerate_rate_table_has_no_slope(table, burn_in, reason):
    slope, stderr, got = fit_empirical_rate(table, burn_in)
    assert math.isnan(slope) and math.isnan(stderr)
    assert got.startswith(reason)

