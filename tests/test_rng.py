"""Counter-based streams and the distribution samplers built on them."""

import math

import numpy as np
import pytest
from scipy import stats as st

from levynet.rng import (RngStream, etbfry_pdf, etbfry_tail, sample_etbfry,
                         sample_gamma, sample_half_cauchy,
                         sample_inverse_gamma, sample_pareto,
                         sample_positive_stable)
from levynet.stats import ks_distance

N = 60_000
KS_BOUND = 1.95 / math.sqrt(N)  # ~ 0.1% level, deterministic seeds below


def test_stream_reproducibility():
    a = RngStream(123, 7).generator.standard_normal(64)
    b = RngStream(123, 7).generator.standard_normal(64)
    assert np.array_equal(a, b)


def test_streams_differ_by_index_and_seed():
    base = RngStream(123, 7).generator.standard_normal(64)
    assert not np.array_equal(base, RngStream(123, 8).generator.standard_normal(64))
    assert not np.array_equal(base, RngStream(124, 7).generator.standard_normal(64))


def test_stream_validation():
    with pytest.raises(ValueError):
        RngStream(-1)
    with pytest.raises(ValueError):
        RngStream(2 ** 64)
    with pytest.raises(ValueError):
        RngStream(1, -2)


def test_stream_index_must_fit_in_64_bits():
    # the Philox key is two 64-bit words: the largest index keys a stream,
    # one more is refused at construction, like an out-of-range seed
    top = RngStream(2 ** 64 - 1, 2 ** 64 - 1).generator.standard_normal(4)
    assert np.all(np.isfinite(top))
    with pytest.raises(ValueError, match="stream_index must fit in 64 bits"):
        RngStream(0, 2 ** 64)


def test_gamma_sampler_ks():
    draws = sample_gamma(2.5, 2.0, RngStream(11, 0), N)
    assert ks_distance(draws, st.gamma(2.5, scale=0.5).cdf) < KS_BOUND


def test_inverse_gamma_sampler_ks():
    draws = sample_inverse_gamma(2.0, 3.0, RngStream(12, 0), N)
    assert ks_distance(draws, st.invgamma(2.0, scale=3.0).cdf) < KS_BOUND


def test_half_cauchy_sampler_ks():
    draws = sample_half_cauchy(RngStream(13, 0), N)
    assert ks_distance(draws, st.halfcauchy().cdf) < KS_BOUND


def test_pareto_sampler_ks():
    draws = sample_pareto(3.0, 2.0, RngStream(14, 0), N)
    assert ks_distance(draws, st.pareto(3.0, scale=2.0).cdf) < KS_BOUND
    assert draws.min() >= 2.0


def test_positive_stable_half_is_inverse_gamma():
    # Laplace transform e^{-(gamma s)^{1/2}} corresponds to IG(1/2, gamma/4);
    # with c = 1, gamma = Gamma(1/2)^2 = pi, so the law is IG(1/2, pi/4)
    draws = sample_positive_stable(0.5, 1.0, RngStream(15, 0), N)
    assert ks_distance(draws, st.invgamma(0.5, scale=math.pi / 4.0).cdf) < KS_BOUND


def test_positive_stable_laplace_transform():
    # E[e^{-s X}] = e^{-(gamma s)^alpha} with gamma = c Gamma(1-alpha)^{1/alpha}
    alpha, c = 0.7, 0.8
    draws = sample_positive_stable(alpha, c, RngStream(16, 0), N)
    gamma_scale = c * math.gamma(1 - alpha) ** (1 / alpha)
    for s in (0.5, 1.0, 2.0):
        emp = np.mean(np.exp(-s * draws))
        se = np.std(np.exp(-s * draws)) / math.sqrt(N)
        assert abs(emp - math.exp(-((gamma_scale * s) ** alpha))) < 4 * se


def test_positive_stable_alpha_one_degenerate():
    assert sample_positive_stable(1.0, 2.5, RngStream(1, 0)) == 2.5
    arr = sample_positive_stable(1.0, 2.5, RngStream(1, 0), size=5)
    assert np.array_equal(arr, np.full(5, 2.5))


def test_positive_stable_domain_errors():
    with pytest.raises(ValueError):
        sample_positive_stable(0.0, 1.0, RngStream(1, 0))
    with pytest.raises(ValueError):
        sample_positive_stable(1.2, 1.0, RngStream(1, 0))
    with pytest.raises(ValueError):
        sample_positive_stable(0.5, -1.0, RngStream(1, 0))


def test_etbfry_sampler_vs_survival():
    alpha, t, xi = 0.5, 40.0, 1.0
    draws = sample_etbfry(alpha, t, xi, RngStream(17, 0), N)
    assert ks_distance(draws, lambda s: 1.0 - etbfry_tail(s, alpha, t, xi)) < KS_BOUND


def test_etbfry_tail_matches_pdf_quadrature():
    from scipy import integrate
    alpha, t, xi = 0.3, 10.0, 2.0
    for s in (0.05, 0.3, 1.0):
        oracle, _ = integrate.quad(lambda u: etbfry_pdf(u, alpha, t, xi),
                                   s, math.inf, epsabs=1e-12, epsrel=1e-12)
        assert abs(etbfry_tail(s, alpha, t, xi) - oracle) < 1e-9


def test_etbfry_pdf_normalizes():
    from scipy import integrate
    alpha, t, xi = 0.5, 25.0, 1.0
    total, _ = integrate.quad(lambda u: etbfry_pdf(u, alpha, t, xi),
                              0.0, math.inf, epsabs=1e-12, epsrel=1e-12)
    assert abs(total - 1.0) < 1e-9


# The samplers build array draws in place.  Each must give the bits of its
# plain expression, kept here as the reference, and a scalar draw must keep
# that expression's type.  The etBFRY cases cover the square (1/alpha = 2,
# whose Gamma(1/2) stage is Z^2/2) and a general power, and sizes across a
# gamma block edge.
def _plain_etbfry(alpha, t, xi, rng, size):
    gen = rng.generator
    u = gen.random(size)
    b = (xi**alpha + u * ((t + xi) ** alpha - xi**alpha)) ** (1.0 / alpha)
    if alpha == 0.5:
        z = gen.standard_normal(size)
        return z * z * 0.5 / b
    return gen.gamma(1.0 - alpha, size=size) / b


_PLAIN_SAMPLERS = {
    "inverse_gamma": (
        lambda rng, size: sample_inverse_gamma(2.5, 3.0, rng, size),
        lambda rng, size: 3.0 / rng.generator.gamma(2.5, size=size)),
    "half_cauchy": (
        lambda rng, size: sample_half_cauchy(rng, size),
        lambda rng, size: np.tan(rng.generator.random(size) * (math.pi / 2.0))),
    "pareto": (
        lambda rng, size: sample_pareto(3.0, 2.0, rng, size),
        lambda rng, size: 2.0 * rng.generator.random(size) ** (-1.0 / 3.0)),
    "etbfry_half": (
        lambda rng, size: sample_etbfry(0.5, 40.0, 1.0, rng, size),
        lambda rng, size: _plain_etbfry(0.5, 40.0, 1.0, rng, size)),
    "etbfry_0.3": (
        lambda rng, size: sample_etbfry(0.3, 10.0, 2.0, rng, size),
        lambda rng, size: _plain_etbfry(0.3, 10.0, 2.0, rng, size)),
}


@pytest.mark.parametrize("name", sorted(_PLAIN_SAMPLERS))
@pytest.mark.parametrize("size", [None, 7, (3, 5), (2, 40_000), 65_536 + 1])
def test_samplers_match_their_plain_expressions(name, size):
    sampler, plain = _PLAIN_SAMPLERS[name]
    got = sampler(RngStream(31, 2), size)
    ref = plain(RngStream(31, 2), size)
    assert type(got) is type(ref)
    assert np.shape(got) == np.shape(ref)
    assert np.array_equal(got, ref)


# The half-Cauchy draws by inversion, tan(pi U / 2), and etBFRY at alpha = 1/2
# draws its Gamma(1/2) stage as Z^2/2.  Each is an identity in law, checked
# here against the expression it replaced (numpy's standard_cauchy and
# gamma(0.5)) and against the exact CDF at n = 10^6, at the 1 % level:
# two-sample 1.628 sqrt(2/n) = 2.3e-3, one-sample 1.628/sqrt(n) = 1.6e-3.
N_LAW = 1_000_000
KS_1PCT = 1.628


def _two_sample_ks(a, b):
    both = np.sort(np.concatenate([a, b]))
    fa = np.searchsorted(np.sort(a), both, side="right") / a.size
    fb = np.searchsorted(np.sort(b), both, side="right") / b.size
    return float(np.max(np.abs(fa - fb)))


def _old_etbfry(alpha, t, xi, rng, size):
    gen = rng.generator
    u = gen.random(size)
    b = (xi**alpha + u * ((t + xi) ** alpha - xi**alpha)) ** (1.0 / alpha)
    return gen.gamma(1.0 - alpha, size=size) / b


_LAW_CASES = {
    "half_cauchy": (
        lambda rng, size: sample_half_cauchy(rng, size),
        lambda rng, size: np.abs(rng.generator.standard_cauchy(size)),
        st.halfcauchy().cdf),
    "etbfry_half": (
        lambda rng, size: sample_etbfry(0.5, 40.0, 1.0, rng, size),
        lambda rng, size: _old_etbfry(0.5, 40.0, 1.0, rng, size),
        lambda s: 1.0 - etbfry_tail(s, 0.5, 40.0, 1.0)),
}


@pytest.mark.parametrize("name", sorted(_LAW_CASES))
def test_identity_samplers_match_the_old_expression_and_the_cdf(name):
    sampler, old, cdf = _LAW_CASES[name]
    new_draws = sampler(RngStream(51, 0), N_LAW)
    old_draws = old(RngStream(51, 1), N_LAW)
    assert _two_sample_ks(new_draws, old_draws) < KS_1PCT * math.sqrt(2.0 / N_LAW)
    assert ks_distance(new_draws, cdf) < KS_1PCT / math.sqrt(N_LAW)
