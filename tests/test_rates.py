"""The theorem entry point against hand-derived exponents, the noiseless limit,
and the degenerate rate tables."""

import itertools
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gprates.errors import ConfigurationError
from gprates.rates import (
    NuggetPolicy,
    RateParams,
    fit_empirical_rate,
    loglog_slope,
    theoretical_exponent,
)

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


@pytest.mark.parametrize("rho_trend", [math.nan, math.inf])
def test_unmeasured_mesh_ratio_trend_is_not_called_growth(rho_trend):
    # a ladder with one distinct design size has no trend to fit
    n_exp, notes = theoretical_exponent(_params(1.0, 2.0, quasi_uniform=False), rho_trend=rho_trend)
    assert not math.isfinite(n_exp)
    assert notes == [f"mesh-ratio trend could not be measured (slope {rho_trend}); no prediction"]


def test_mesh_ratio_trend_defaults_to_flat():
    # a call without a measured trend inflates the prediction by nothing
    n_exp, notes = theoretical_exponent(_params(1.0, 2.0, quasi_uniform=False))
    assert n_exp == -1.0
    assert notes == ["mesh ratio grows (slope 0.000); prediction inflated"]


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
    # prescribed smoothness past q = 2: 1/gamma = 1/3
    (_params(2.0, 2.5, nugget=FIXED), -0.4, []),               # -2/(4 + 1)
    (_params(2.0, 2.5, q=3, nugget=FIXED), -1 / 3 + 1 / 10,    # -1/3 + max(1/10, 1/10)
     [FALLBACK, "misspecified branch: bias term carries rho^0.5"]),
], ids=["optimum", "optimum_d2_q1", "fallback", "fallback_rho", "fallback_q_inf",
        "fallback_not_quasi_uniform", "optimum_tau_f2", "fallback_q3"])
def test_exponent_gaussian_regression(params, expected, notes):
    n_exp, got = theoretical_exponent(params, well_specified=True)
    assert n_exp == pytest.approx(expected, abs=1e-15)
    assert got == notes


# tau_k a quarter off tau_f + d/2 at one end, q = 2 and a quasi-uniform
# design: the three-term bound, not the optimum -tau_f/(2 tau_f + d) = -1/3,
# whichever end is off.  Each expected value is the larger of
#   bias -1/2 - (min(tau_f, tau_k-) - d/2)/d and
#   noise_residual -1/2 + max((1/2 - tau_f/(2 tau_k+))_+, d/(4 tau_k-)).
@pytest.mark.parametrize("params, expected, rho", [
    (_params(1.0, (1.25, 1.5), nugget=FIXED),
     max(-0.5 - (1.0 - 0.5) / 1, -0.5 + max(0.5 - 1.0 / (2 * 1.5), 1 / (4 * 1.25))), "0.5"),
    (_params(1.0, (1.5, 1.75), nugget=FIXED),
     max(-0.5 - (1.0 - 0.5) / 1, -0.5 + max(0.5 - 1.0 / (2 * 1.75), 1 / (4 * 1.5))), "0.75"),
    (_params(2.0, (2.75, 3.0), d=2, nugget=FIXED),
     max(-0.5 - (2.0 - 1.0) / 2, -0.5 + max(0.5 - 2.0 / (2 * 3.0), 2 / (4 * 2.75))), "1"),
    (_params(2.0, (3.0, 3.25), d=2, nugget=FIXED),
     max(-0.5 - (2.0 - 1.0) / 2, -0.5 + max(0.5 - 2.0 / (2 * 3.25), 2 / (4 * 3.0))), "1.25"),
], ids=["tau_k_minus_low_d1", "tau_k_plus_high_d1", "tau_k_minus_low_d2", "tau_k_plus_high_d2"])
def test_a_quarter_off_the_prescribed_smoothness_is_the_fallback(params, expected, rho):
    n_exp, notes = theoretical_exponent(params, well_specified=True)
    assert n_exp == pytest.approx(expected, abs=1e-15) and expected != pytest.approx(-1 / 3)
    assert notes == [FALLBACK, f"misspecified branch: bias term carries rho^{rho}"]


def _three_term_bound(p):
    """The Gaussian-regression fallback with all three terms of the theorem."""
    ig = 0.0 if math.isinf(p.q) else 1.0 / max(2.0, p.q)
    d = p.d
    bias = -ig - (min(p.tau_f, p.tau_k_minus) - d / 2.0) / d
    noise_fill = 0.5 - ig - (p.tau_k_minus - d / 2.0) / d
    shortfall = 0.5 - p.tau_f / (2.0 * p.tau_k_plus)
    residual = -ig + max(shortfall if shortfall > 0 else 0.0, d / (4.0 * p.tau_k_minus))
    return max(bias, noise_fill, residual)


def test_gaussian_fallback_is_the_three_term_bound():
    # the fill-distance noise term never binds, so the maximum without it is
    # bitwise the maximum with it, for every valid input off the optimum
    cases = 0
    for d, tau_f, lo, span, q, quasi_uniform in itertools.product(
            (1, 2), (0.75, 1.0, 1.25, 1.5, 2.0, 3.0, 4.5),
            (0.6, 0.75, 1.05, 1.25, 1.5, 2.0, 2.5, 3.5, 5.0), (0.0, 0.5, 2.0), (1, 2, INF),
            (True, False)):
        if not (tau_f > d / 2 and lo > d / 2):
            continue
        p = _params(tau_f, (lo, lo + span), d=d, q=q, quasi_uniform=quasi_uniform, nugget=FIXED)
        n_exp, notes = theoretical_exponent(p, well_specified=True)
        if notes[:1] != [FALLBACK]:
            continue  # the prescribed-smoothness optimum
        assert n_exp.hex() == _three_term_bound(p).hex(), p
        cases += 1
    assert cases == 1750


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


# One row per term of the term-wise maximum, each the unique maximum, at
# q = 2 (1/gamma = 1/2) with tau_f < tau_k- (so tau_f ^ tau_k- = tau_f) and
# sig = exponent / d for an adaptive nugget.  The expected value is the
# term, written from the theorem; the comment gives the other three (bias,
# nugget_bias, noise_fill, noise_flat in order).
@pytest.mark.parametrize("params, expected", [
    # h term -1/2 - (tau_f - d/2)/d; others -4.5, -7, -10.5
    (_params(1.0, 2.0, noise_growth=-10.0, nugget=_adaptive(5.0)), -0.5 - (1.0 - 0.5) / 1),
    # h term at d = 2, sig = 3; others -3, -8.25, -10.5
    (_params(1.5, 2.5, d=2, noise_growth=-10.0, nugget=_adaptive(6.0)), -0.5 - (1.5 - 1.0) / 2),
    # nugget_bias -1/2 - 0 + (tau_k+ - tau_f)/d, fixed nugget; others -1, -12, -10.5
    (_params(1.0, 2.0, noise_growth=-10.0, nugget=FIXED), -0.5 - 0.0 + (2.0 - 1.0) / 1),
    # nugget_bias at d = 2, sig = 0.5 / 2; others -0.75, -11.5, -10.5
    (_params(1.5, 3.5, d=2, noise_growth=-10.0, nugget=_adaptive(0.5)),
     -0.5 - 0.5 / 2 + (3.5 - 1.5) / 2),
    # noise_fill -1/2 - (tau_k- - d/2)/d + sig + g at d = 2, sig = 3; others -0.75, -3, -0.5
    (_params(1.5, 2.5, d=2, noise_growth=0.0, nugget=_adaptive(6.0)),
     -0.5 - (2.5 - 1.0) / 2 + 6.0 / 2 + 0.0),
    # noise_flat -1/2 + g, fixed nugget; others -1, 0.5, 0
    (_params(1.0, 2.0, noise_growth=2.0, nugget=FIXED), -0.5 + 2.0),
], ids=["h_term_d1", "h_term_d2_adaptive", "nugget_bias_d1", "nugget_bias_d2_adaptive",
        "noise_fill_d2_adaptive", "noise_flat_d1"])
def test_each_term_of_the_term_wise_maximum(params, expected):
    n_exp, notes = theoretical_exponent(params)
    assert n_exp == pytest.approx(expected, abs=1e-15)
    assert notes[-1].endswith("using the term-wise maximum")


# An adaptive exponent a quarter off tau_k- - d/2 at tau_k- = tau_k+: the
# term-wise maximum, not the combined corollary -1/2 + max(g, 1/2 - tau/d)
# (the comment's value).  Each expected value is the largest of bias,
# nugget_bias, noise_fill and noise_flat, in that order, with sig = exponent/d.
@pytest.mark.parametrize("params, expected", [
    # exponent 1.5 + 1/4; combined -1/2
    (_params(2.0, 2.0, noise_growth=0.0, nugget=_adaptive(1.75)),
     max(-0.5 - (2.0 - 0.5) / 1, -0.5 - 1.75 + 0.0, -0.5 - (2.0 - 0.5) / 1 + 1.75 + 0.0, -0.5 + 0.0)),
    # exponent 2.5 - 1/4; combined -1
    (_params(1.0, 3.0, noise_growth=-2.0, nugget=_adaptive(2.25)),
     max(-0.5 - (1.0 - 0.5) / 1, -0.5 - 2.25 + (3.0 - 1.0) / 1,
         -0.5 - (3.0 - 0.5) / 1 + 2.25 - 2.0, -0.5 - 2.0)),
    # d = 2, exponent 1.5 + 1/4; combined -1/2
    (_params(1.5, 2.5, d=2, noise_growth=0.0, nugget=_adaptive(1.75)),
     max(-0.5 - (1.5 - 1.0) / 2, -0.5 - 1.75 / 2 + (2.5 - 1.5) / 2,
         -0.5 - (2.5 - 1.0) / 2 + 1.75 / 2 + 0.0, -0.5 + 0.0)),
    # d = 2, exponent 1.5 - 1/4; combined -3/4
    (_params(1.5, 2.5, d=2, noise_growth=-2.0, nugget=_adaptive(1.25)),
     max(-0.5 - (1.5 - 1.0) / 2, -0.5 - 1.25 / 2 + (2.5 - 1.5) / 2,
         -0.5 - (2.5 - 1.0) / 2 + 1.25 / 2 - 2.0, -0.5 - 2.0)),
], ids=["above_d1", "below_d1", "above_d2", "below_d2"])
def test_a_quarter_off_the_adaptive_exponent_is_the_term_wise_maximum(params, expected):
    n_exp, notes = theoretical_exponent(params)
    combined, _ = theoretical_exponent(replace(params, nugget=_adaptive(params.tau_k_minus
                                                                        - params.d / 2)))
    assert n_exp == pytest.approx(expected, abs=1e-15) and expected > combined
    assert notes == [ADAPTIVE_MISMATCH]


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
    ([(16, 0.1), (32, math.inf), (64, 0.01)], 0, "non-finite error inf at n = 32"),
    ([(16, 0.1), (32, math.nan), (64, 0.01)], 0, "non-finite error nan at n = 32"),
    ([(16, 0.1), (32, -math.inf), (64, 0.01)], 0, "non-finite error -inf at n = 32"),
], ids=["short", "nonpositive_error", "one_design_size", "inf_error", "nan_error",
        "minus_inf_error"])
def test_degenerate_rate_table_has_no_slope(table, burn_in, reason):
    slope, stderr, got = fit_empirical_rate(table, burn_in)
    assert math.isnan(slope) and math.isnan(stderr)
    assert got.startswith(reason)



def test_standard_error_is_the_ols_one():
    table = [(16, 0.3), (32, 0.11), (64, 0.05), (128, 0.013), (256, 0.0041)]
    x = np.log([n for n, _ in table[1:]])
    y = np.log([e for _, e in table[1:]])
    coeffs, cov = np.polyfit(x, y, 1, cov=True)
    slope, stderr, reason = fit_empirical_rate(table, burn_in=1)
    assert reason == ""
    assert slope == pytest.approx(coeffs[0], rel=1e-12)
    assert stderr == pytest.approx(math.sqrt(cov[0, 0]), rel=1e-12)
    assert stderr == pytest.approx(0.11327976431043, rel=1e-12)


@pytest.mark.parametrize("seed", range(20))
def test_loglog_slope_is_the_least_squares_one(seed):
    # np.polyfit (numpy's lstsq) is the oracle for the centred sums
    rng = np.random.default_rng(seed)
    ns = np.unique(rng.integers(1, 10**6, size=int(rng.integers(2, 12))))
    slope = rng.choice([-1, 1]) * rng.uniform(0.2, 3.0)
    values = rng.uniform(1e-3, 1e3) * ns ** slope * np.exp(rng.normal(0.0, 0.3, len(ns)))
    expected = np.polyfit(np.log(ns), np.log(values), 1)[0]
    assert loglog_slope(list(ns), list(values)) == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("ns, values", [
    ([16, 32, 64], [0.1, 0.0, 0.02]),
    ([16, 32, 64], [0.1, -0.05, 0.02]),
    ([16, 32, 64], [0.1, math.inf, 0.02]),
    ([16, 32, 64], [0.1, math.nan, 0.02]),
    ([16, 16, 16], [0.1, 0.09, 0.11]),
    ([16], [0.1]),
], ids=["zero", "negative", "inf", "nan", "one_distinct_n", "one_row"])
def test_loglog_slope_without_a_line_is_nan_with_no_warning(ns, values):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert math.isnan(loglog_slope(ns, values))


def test_fitted_rate_is_the_loglog_slope_bit_for_bit():
    table = [(16, 0.3), (32, 0.11), (64, 0.05), (128, 0.013), (256, 0.0041)]
    slope, _, _ = fit_empirical_rate(table, burn_in=1)
    assert slope == loglog_slope([n for n, _ in table[1:]], [e for _, e in table[1:]])


def test_two_distinct_sizes_give_a_slope():
    slope, stderr, reason = fit_empirical_rate([(16, 0.1), (16, 0.09), (32, 0.05)])
    assert reason == "" and math.isfinite(slope) and math.isfinite(stderr)


@pytest.mark.parametrize("d", [1, 2])
def test_target_at_half_the_dimension_is_rejected(d):
    with pytest.raises(ConfigurationError, match="tau_f must exceed d/2"):
        RateParams(tau_f=d / 2, tau_k_minus=d / 2 + 1, tau_k_plus=d / 2 + 1, d=d)


@pytest.mark.parametrize("nugget", [dict(kind="fixed", sigma=0.0), dict(kind="adaptive_h", exponent=0.0),
                                    dict(kind="adaptive_h")],
                         ids=["fixed_sigma_0", "adaptive_exponent_0", "adaptive_default_exponent"])
def test_nugget_at_its_boundary_is_rejected(nugget):
    with pytest.raises(ConfigurationError, match="nugget needs"):
        NuggetPolicy(**nugget)
