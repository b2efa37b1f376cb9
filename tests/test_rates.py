"""Rate calculators against hand-derived exponents, and the noiseless limit."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gprates.errors import ConfigurationError
from gprates.rates import (
    RateParams,
    exponent_interpolation,
    exponent_misspec_interpolation,
    gamma_of_q,
    tau_star,
    tau_zero,
)

INF = math.inf


# tau_0 = tau - d (1/2 - 1/q)_+
@pytest.mark.parametrize("tau, d, q, expected", [
    (2.0, 1, 2, 2.0),
    (2.0, 1, 1, 2.0),       # (1/2 - 1)_+ = 0
    (2.0, 1, INF, 1.5),     # 2 - 1/2
    (3.0, 2, 4, 2.5),       # 3 - 2 (1/2 - 1/4)
    (2.5, 3, INF, 1.0),     # 2.5 - 3/2
])
def test_tau_zero(tau, d, q, expected):
    assert tau_zero(tau, d, q) == pytest.approx(expected, abs=1e-15)


# tau_0 itself when tau is an integer and q = 2, or 2 < q < inf with an
# integer tau_0; otherwise ceil(tau_0) - 1
@pytest.mark.parametrize("tau, d, q, expected", [
    (2.0, 1, 2, 2.0),       # integer tau, q = 2
    (2.5, 1, 2, 2.0),       # tau not an integer: ceil(2.5) - 1
    (3.0, 4, 4, 2.0),       # tau_0 = 3 - 4/4 = 2 is an integer, 2 < q < inf
    (3.0, 2, 4, 2.0),       # tau_0 = 2.5: ceil(2.5) - 1
    (3.0, 2, 6, 2.0),       # tau_0 = 3 - 2/3: ceil(7/3) - 1
    (2.0, 1, INF, 1.0),     # tau_0 = 1.5: ceil(1.5) - 1
    (2.0, 2, INF, 0.0),     # tau_0 = 1 is an integer, but q = inf: 1 - 1
    (2.0, 1, 1, 1.0),       # tau_0 = 2 but q = 1: 2 - 1
])
def test_tau_star(tau, d, q, expected):
    assert tau_star(tau, d, q) == expected


@pytest.mark.parametrize("q, expected", [(1, 2.0), (2, 2.0), (4, 4.0), (INF, INF)])
def test_gamma_of_q(q, expected):
    assert gamma_of_q(q) == expected


def _params(tau_f, tau_k, d=1, q=2, s=0.0, noise_growth=None):
    lo, hi = (tau_k, tau_k) if not isinstance(tau_k, tuple) else tau_k
    return RateParams(tau_f=tau_f, tau_k_minus=lo, tau_k_plus=hi, d=d, s=s, q=q,
                      noise_growth=noise_growth)


# (h exponent, mesh-ratio exponent) = (min(tau_f, tau_k-) - s - d (1/2 - 1/q)_+,
# (tau_k+ - tau_f)_+)
@pytest.mark.parametrize("params, expected", [
    (_params(2.0, 2.0), (2.0, 0.0)),                            # a1_l2
    (_params(2.0, 2.0, q=INF), (1.5, 0.0)),                     # a1_linf
    (_params(1.0, 2.0), (1.0, 1.0)),                            # a2: rough target
    (_params(3.0, (2.0, 2.5), d=2, q=4), (1.5, 0.0)),           # 2 - 2/4
    (_params(1.5, (1.25, 2.5), s=0.5), (0.75, 1.0)),            # 1.25 - 1/2
])
def test_exponent_interpolation(params, expected):
    assert exponent_interpolation(params) == pytest.approx(expected, abs=1e-15)


def test_exponent_interpolation_rejects_noise():
    with pytest.raises(ConfigurationError):
        exponent_interpolation(_params(2.0, 2.0, noise_growth=0.0))


# -1/gamma + s/d + max(growth, -min(tau_f, tau_k-)/d + 1/2); without noise,
# -(h exponent)/d
@pytest.mark.parametrize("params, expected", [
    (_params(2.0, 2.0), -2.0),
    (_params(2.0, 2.0, noise_growth=0.0), -0.5),                # -1/2 + max(0, -3/2)
    (_params(2.0, 2.0, q=INF, noise_growth=-2.0), -1.5),        # 0 + max(-2, -3/2)
    (_params(2.0, (2.0, 3.0), d=2, noise_growth=0.25), -0.25),  # -1/2 + max(1/4, -1/2)
    (_params(1.0, 2.0, q=1, noise_growth=0.5), 0.0),            # -1/2 + max(1/2, -1/2)
])
def test_exponent_misspec_interpolation(params, expected):
    n_exp, _ = exponent_misspec_interpolation(params)
    assert n_exp == pytest.approx(expected, abs=1e-15)


@st.composite
def noiseless_limit_cases(draw):
    d = draw(st.integers(1, 3))
    tau_f = d / 2 + draw(st.floats(0.05, 4.0))
    tau_k_minus = d / 2 + draw(st.floats(0.05, 4.0))
    tau_k_plus = tau_k_minus + draw(st.floats(0.0, 2.0))
    q = draw(st.sampled_from([1.0, 1.5, 2.0, 3.0, 4.0, 8.0, INF]))
    s_max = tau_star(min(tau_f, tau_k_minus), d, q)
    s = draw(st.floats(0.0, s_max)) if s_max > 0 else 0.0
    growth = -min(tau_f, tau_k_minus) / d + 0.5 - draw(st.floats(0.0, 3.0))
    return d, tau_f, tau_k_minus, tau_k_plus, q, s, growth


@settings(max_examples=200, deadline=None)
@given(noiseless_limit_cases())
def test_slow_noise_growth_gives_the_noiseless_exponent(case):
    # noise that grows no faster than n^(-(tau_f ^ tau_k-)/d + 1/2) is hidden
    # by the interpolation error
    d, tau_f, lo, hi, q, s, growth = case
    noisy = _params(tau_f, (lo, hi), d=d, q=q, s=s, noise_growth=growth)
    noiseless = _params(tau_f, (lo, hi), d=d, q=q, s=s)
    n_noisy, _ = exponent_misspec_interpolation(noisy)
    n_noiseless, _ = exponent_misspec_interpolation(noiseless)
    assert n_noisy == pytest.approx(n_noiseless, rel=1e-12, abs=1e-12)
