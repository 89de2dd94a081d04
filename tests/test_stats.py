"""Statistical estimators and the deterministic experiment harness."""

import math

import numpy as np
import pytest
from scipy import stats as st

from levynet import levy
from levynet.rng import RngStream
from levynet.stats import (experiment_names, ks_distance, map_replicates,
                           order_stat_cdf, run_experiment, tail_exponent)


def test_ks_distance_exact_small_cases():
    # two points at the 1/3 and 2/3 quantiles of U(0,1): sup gap is 1/3
    assert ks_distance([1.0 / 3.0, 2.0 / 3.0], lambda x: x) \
        == pytest.approx(1.0 / 3.0)
    # a sample exactly on the k/(n+1) grid: gap 1/(n+1)
    n = 9
    pts = np.arange(1, n + 1) / (n + 1)
    assert ks_distance(pts, lambda x: x) == pytest.approx(1.0 / (n + 1))
    with pytest.raises(ValueError):
        ks_distance([1.0], lambda x: x)


def test_ks_distance_against_scipy():
    xs = RngStream(80, 0).generator.standard_normal(500)
    ours = ks_distance(xs, st.norm.cdf)
    theirs = st.kstest(xs, "norm").statistic
    assert ours == pytest.approx(theirs, rel=1e-12)


def test_tail_exponent_on_exact_pareto():
    # Pareto(alpha): the Hill estimator is exactly consistent
    alpha = 1.7
    u = RngStream(81, 0).generator.random(200_000)
    xs = u ** (-1.0 / alpha)
    est, se = tail_exponent(xs, 0.05)
    assert abs(est - alpha) < 4 * se
    assert se == pytest.approx(est / math.sqrt(10_000))
    with pytest.raises(ValueError):
        tail_exponent(xs, 0.5)
    with pytest.raises(ValueError):
        tail_exponent(xs[:100], 0.05)
    with pytest.raises(ValueError):
        tail_exponent(np.concatenate([-np.ones(500), np.zeros(500)]))


def test_order_stat_cdf_largest_atom():
    # beta(eta, 1) sticks: P(lambda_(1) <= x) = e^{-rhobar(x)} and
    # lambda_(1)^eta ~ U(0,1)
    eta = 2.0
    m = levy.beta_measure(eta, 1.0)
    xs = np.array([0.2, 0.5, 0.9])
    expect = xs ** eta
    got = order_stat_cdf(m, 1, xs)
    assert np.allclose(got, expect, rtol=1e-9)
    # second largest adds the k = 1 Poisson term
    r = levy.tail_intensity(m, xs)
    assert np.allclose(order_stat_cdf(m, 2, xs), np.exp(-r) * (1 + r),
                       rtol=1e-9)
    # infinite-mass measure: F(0) vanishes (up to the numeric floor)
    assert order_stat_cdf(levy.gamma_measure(1.0, 1.0), 1, 0.0) < 1e-250
    with pytest.raises(ValueError):
        order_stat_cdf(levy.trivial_measure(), 1, xs)
    with pytest.raises(ValueError):
        order_stat_cdf(m, 0, xs)


def test_order_stat_cdf_matches_simulation():
    # a row with fewer than two atoms above the default floor (about 14 a
    # row) has its second atom below the floor, read as 0
    m = levy.gamma_measure(2.0, 1.0)
    n = 4000
    second = np.array([np.pad(levy.sample_ppp_matrix(m, RngStream(82, i))[0][0],
                              (0, 1))[1] for i in range(n)])
    assert ks_distance(second, lambda x: order_stat_cdf(m, 2, x)) \
        < 1.95 / math.sqrt(n) + 0.005


def test_order_stat_cdf_atomic_measure():
    # atomic measure with one atom at 1 of mass 3: the count above x < 1 is
    # Poisson(3), so P(largest <= x) = e^{-3} there and 1 at x >= 1
    m = levy.atomic_measure([(1.0, 3.0)])
    assert order_stat_cdf(m, 1, 0.5) == pytest.approx(math.exp(-3.0))
    assert order_stat_cdf(m, 1, 1.0) == pytest.approx(1.0)


def test_map_replicates_order_and_worker_invariance():
    fn = lambda i: i * i
    seq = map_replicates(fn, 20, workers=1)
    par = map_replicates(fn, 20, workers=4)
    assert seq == par == [i * i for i in range(20)]
    assert map_replicates(fn, 0) == []


def test_run_experiment_deterministic_across_workers():
    r1 = run_experiment("verify", master_seed=7, replicates=50, worker_count=1)
    r4 = run_experiment("verify", master_seed=7, replicates=50, worker_count=4)
    assert r1.to_json() == r4.to_json()
    assert r1.master_seed == 7 and r1.replicate_count == 50


def test_run_experiment_unknown_name():
    with pytest.raises(ValueError, match="unknown experiment"):
        run_experiment("no_such_experiment", 1, 1)


def test_run_experiment_refuses_config_keys_it_does_not_read():
    # every experiment echoes the keys it reads into report.config, so a
    # misspelt key is named instead of silently dropped
    spec = {"name": "kernel_realizations", "betas": [1.0], "n_rho": 3,
            "widht": 500}
    with pytest.raises(ValueError, match=r"kernel_realizations does not read "
                                         r"the config key\(s\) \['widht'\]"):
        run_experiment(spec, 0, 2)
    with pytest.raises(ValueError, match=r"\['models'\]"):
        run_experiment({"name": "verify", "models": ["beta"]}, 0, 200)
    del spec["widht"]
    assert run_experiment(spec, 0, 2).config == {"betas": [1.0], "n_rho": 3}


def test_seeds_streams_and_counts_must_be_integers():
    # a float or a bool is refused, not truncated by int(): RngStream(0.9,
    # 1.5) must not key (0, 1), nor run_experiment("verify", 0.9, 200.7) run
    # seed 0 with 200 replicates
    for args in ((0.9, 1), (0, 1.5), (True, 0), (0, False), ("3", 0)):
        with pytest.raises(ValueError, match="must be an integer"):
            RngStream(*args)
    for args in ((0.9, 200), (0, 200.7), (0, 200, 1.5), (0, True),
                 (np.float64(1.0), 200)):
        with pytest.raises(ValueError, match="must be an integer"):
            run_experiment("verify", *args)
    # numpy integers are integers
    assert RngStream(np.uint64(5), np.int32(2)).stream_index == 2
    rep = run_experiment({"name": "kernel_realizations", "betas": [1.0],
                          "n_rho": 3}, np.int64(4), np.int16(2), np.int8(1))
    assert (rep.master_seed, rep.replicate_count) == (4, 2)
    assert type(rep.master_seed) is int and type(rep.replicate_count) is int


def test_experiment_registry_names():
    assert experiment_names() == sorted([
        "output_dist", "output_corr", "max_weight", "truncation_error",
        "kernel_realizations", "compressibility", "verify",
    ])
