"""Variance models: finite-width laws, declared limits, and the convergence
checker."""

import math

import numpy as np
import pytest
from scipy import integrate
from scipy import stats as st

from levynet import levy
from levynet.models import (MODEL_NAMES, _inverse_laplace_exponent,
                            check_id_conditions, gen_bfry_density, make_model,
                            measure_from_spec, model_from_spec)
from levynet.rng import RngStream
from levynet.stats import ks_distance


def test_model_names_all_buildable():
    built = {
        "deterministic": {},
        "bernoulli": {"c": 2.0},
        "group_lasso_gamma": {},
        "inverse_gamma": {},
        "inverse_gamma_stable": {"alpha": 0.5},
        "beta": {"eta": 1.0, "b": 0.5},
        "horseshoe": {"c": 1.0},
        "regularized_horseshoe": {"c": 2.0},
        "generalized_bfry": {"eta": 4.0, "alpha": 0.5, "tau": 5.0},
        "spike_slab": {"c": 1.0, "slab": {"kind": "point_mass", "loc": 1.0}},
        "perman_generic": {"measure": {"name": "gamma",
                                       "params": {"eta": 1.0, "rate": 1.0}}},
    }
    assert set(built) == set(MODEL_NAMES)
    for name, params in built.items():
        m = make_model(name, **params)
        draws = m.sample(50, RngStream(1, 0), p_next=3)
        assert draws.shape == (1, 50) and np.all(draws >= 0)


def test_model_spec_roundtrip():
    m = make_model("generalized_bfry", eta=4.0, alpha=0.5, tau=5.0)
    again = model_from_spec(m.to_dict())
    assert again.params == m.params and again.name == m.name


def test_measure_from_spec():
    m = measure_from_spec({"name": "stable", "params": {"alpha": 0.5, "c": 2.0}})
    assert m.name == "stable" and m.params["c"] == 2.0
    with pytest.raises(ValueError):
        measure_from_spec({"name": "nope"})


def test_deterministic_and_bernoulli_exact_laws():
    det = make_model("deterministic", c1=3.0)
    assert np.all(det.sample(6, RngStream(2, 0), n=1)[0] == 0.5)
    bern = make_model("bernoulli", c=2.0)
    draws = bern.sample(100, RngStream(3, 0), n=2000)
    counts = draws.sum(axis=1)
    # counts ~ Binomial(100, 0.02), mean 2
    assert abs(counts.mean() - 2.0) < 4 * math.sqrt(2.0 * 0.98 / 2000)
    assert set(np.unique(draws)) <= {0.0, 1.0}


def test_finite_width_marginals():
    p = 40
    ig = make_model("inverse_gamma").sample(p, RngStream(4, 0), n=500).ravel()
    assert ks_distance(ig, st.invgamma(2.0, scale=2.0 / p).cdf) < 0.02
    beta = make_model("beta", eta=1.0, b=0.5).sample(p, RngStream(5, 0),
                                                     n=500).ravel()
    assert ks_distance(beta, st.beta(1.0 / p, 0.5).cdf) < 0.02
    hs = make_model("horseshoe", c=1.0).sample(p, RngStream(6, 0),
                                               n=500).ravel()
    # lambda = (pi u / (2 p))^2 for half-Cauchy u
    assert ks_distance(hs, lambda x: st.halfcauchy().cdf(
        2.0 * p * np.sqrt(x) / math.pi)) < 0.02


def test_group_lasso_needs_p_next():
    m = make_model("group_lasso_gamma")
    with pytest.raises(ValueError):
        m.sample(10, RngStream(7, 0))
    draws = m.sample(2000, RngStream(7, 0), p_next=1, n=200)
    # E[sum_j lambda_j] = c1 exactly at every width
    assert abs(draws.sum(axis=1).mean() - 1.0) < 0.01


def test_gen_bfry_density_normalizes_and_matches_histogram():
    eta, alpha, tau, p = 4.0, 0.5, 5.0, 100
    total, _ = integrate.quad(lambda x: gen_bfry_density(x, p, eta, alpha, tau),
                              0.0, math.inf, epsabs=1e-10, epsrel=1e-10,
                              limit=400)
    assert abs(total - 1.0) < 1e-6
    m = make_model("generalized_bfry", eta=eta, alpha=alpha, tau=tau)
    draws = m.sample(p, RngStream(8, 0), n=400).ravel()

    grid = np.geomspace(1e-12, draws.max() * 2, 4001)
    dens = gen_bfry_density(grid, p, eta, alpha, tau)
    cdf_grid = np.concatenate([[0.0], np.cumsum(
        0.5 * (dens[1:] + dens[:-1]) * np.diff(grid))])
    assert ks_distance(draws, lambda x: np.interp(x, grid, cdf_grid)) < 0.012


def test_spike_slab_point_mass_atoms_exact():
    m = make_model("spike_slab", c=2.0, c_tilde=0.0,
                   slab={"kind": "point_mass", "loc": 3.0})
    draws = m.sample(200, RngStream(9, 0), n=1000)
    vals = np.unique(draws)
    assert set(vals) <= {0.0, 3.0}
    hits = (draws == 3.0).sum(axis=1)
    assert abs(hits.mean() - 2.0) < 4 * math.sqrt(2.0 / 1000)
    assert m.limit.measure.family == ("atomic", ((3.0, 2.0),))


def test_spike_slab_gamma_slab_tail():
    m = make_model("spike_slab", c=1.5, slab={"kind": "gamma",
                                              "shape": 2.0, "rate": 1.0})
    assert abs(m.limit.measure.total_mass() - 1.5) < 1e-9
    assert abs(levy.tail_intensity(m.limit.measure, 1.0)
               - 1.5 * st.gamma(2.0).sf(1.0)) < 1e-9


def test_perman_generic_matches_gamma_limit():
    # the width-p law mu_p(du) = (1 - e^{-u psi^{-1}(p)}) rho(du) / p; check
    # sum_j lambda_j converges to Gamma(eta, rate) in distribution
    m = make_model("perman_generic",
                   measure={"name": "gamma", "params": {"eta": 1.0, "rate": 1.0}})
    draws = m.sample(300, RngStream(10, 0), n=3000)
    sums = draws.sum(axis=1)
    assert ks_distance(sums, st.gamma(1.0).cdf) < 0.035


@pytest.mark.parametrize("spec", [{"name": "trivial"},
                                  {"name": "atomic",
                                   "params": {"atoms": [[1.0, 2.0]]}}])
def test_perman_generic_rejects_the_zero_and_atomic_measures(spec):
    with pytest.raises(ValueError, match="needs an analytic measure"):
        make_model("perman_generic", measure=spec)


def test_perman_generic_accepts_a_slab_measure():
    slab = make_model("spike_slab", c=1.5, slab={"kind": "gamma", "shape": 2.0,
                                                 "rate": 1.0}).limit.measure
    assert make_model("perman_generic", measure=slab).limit.measure is slab


@pytest.mark.parametrize("q", [300.0, 360.0, 400.0])
def test_inverse_laplace_exponent_of_gamma_far_out(q):
    # psi(t) = eta log(1 + t / r) for gamma(eta, r), so psi^{-1}(eta q) is
    # r expm1(q), up to 5e173 here
    eta, rate = 2.0, 0.5
    b = _inverse_laplace_exponent(levy.gamma_measure(eta, rate), eta * q)
    assert abs(b / (rate * math.expm1(q)) - 1.0) < 1e-10


def test_inverse_laplace_exponent_past_1e200_is_a_clear_error():
    with pytest.raises(ValueError, match="exceeds 1e200"):
        _inverse_laplace_exponent(levy.gamma_measure(1.0, 1.0), 500.0)


def test_perman_generic_at_a_far_out_psi_inverse():
    # psi^{-1}(2000) = e^400 - 1 for gamma(5, 1)
    m = make_model("perman_generic",
                   measure={"name": "gamma", "params": {"eta": 5.0, "rate": 1.0}})
    sums = m.sample(2000, RngStream(10, 0), n=3000).sum(axis=1)
    assert ks_distance(sums, st.gamma(5.0).cdf) < 0.035


@pytest.mark.parametrize("name", MODEL_NAMES)
def test_make_model_without_parameters(name):
    # a model either needs no parameter or names the one it misses
    try:
        model = make_model(name)
    except ValueError as err:
        assert repr(name) in str(err) and "needs the parameter" in str(err)
    else:
        assert model.name == name


@pytest.mark.parametrize("spec", [
    ("deterministic", {"c1": 1.0}),
    ("bernoulli", {"c": 2.0}),
    ("inverse_gamma", {}),
    ("inverse_gamma_stable", {"alpha": 0.5}),
    ("beta", {"eta": 1.0, "b": 0.5}),
    ("horseshoe", {"c": 1.0}),
    ("regularized_horseshoe", {"c": 2.0}),
    ("generalized_bfry", {"eta": 4.0, "alpha": 0.5, "tau": 5.0}),
])
def test_id_conditions_per_model(spec):
    name, params = spec
    model = make_model(name, **params)
    report = check_id_conditions(model, [3000], [0.5, 2.0], [1.0],
                                 replicates=120, rng=RngStream(11, 0),
                                 p_next=1)
    failed = [c.label for c in report.checks if not c.passed]
    assert not failed, f"{name}: {failed}"


def test_validation_errors():
    with pytest.raises(ValueError):
        make_model("deterministic", c1=-1.0)
    with pytest.raises(ValueError):
        make_model("generalized_bfry", eta=1.0, alpha=1.2, tau=5.0)
    with pytest.raises(ValueError):
        make_model("horseshoe", c=0.0)
    with pytest.raises(ValueError):
        make_model("unknown_model")
    bern = make_model("bernoulli", c=5.0)
    with pytest.raises(ValueError):
        bern.sample(3, RngStream(1, 0))


def test_horseshoe_and_generalized_bfry_samplers_match_plain_expressions():
    # the samplers work in place; their draws must be the plain
    # expressions' bits, here across more than one 65 536-entry block
    p, n = 300, 250
    c = 1.3
    got = make_model("horseshoe", c=c).sample(p, RngStream(41, 0), n=n)
    u = np.tan(RngStream(41, 0).generator.random((n, p)) * (math.pi / 2.0))
    assert np.array_equal(got, c * math.pi**2 * u * u / (4.0 * p * p))

    eta, alpha, tau = 4.0, 0.5, 5.0
    got = make_model("generalized_bfry", eta=eta, alpha=alpha,
                     tau=tau).sample(p, RngStream(42, 0), n=n)
    gen = RngStream(42, 0).generator
    beta_j = 1.0 * gen.random((n, p)) ** (-1.0 / tau)
    t = (p * alpha * tau / eta) ** (1.0 / alpha)
    b = (1.0 + gen.random((n, p)) * ((t + 1.0) ** alpha - 1.0)) ** (1.0 / alpha)
    z = gen.standard_normal((n, p))  # Gamma(1/2) = Z^2/2 at alpha = 1/2
    zeta = z * z * 0.5 / b
    assert np.array_equal(got, beta_j * zeta)
