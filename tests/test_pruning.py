"""Keep masks, paired pruning error, and the analytic epsilon bound."""

import math
from dataclasses import replace

import numpy as np
import pytest

from levynet.activations import RELU
from levynet.models import make_model
from levynet.network import NetworkConfig, forward, sample_network
from levynet.pruning import (compressibility_ratio, epsilon_error_bound,
                             epsilon_sweep_error, kappa_keep,
                             paired_pruning_error)
from levynet.rng import RngStream


def _cfg(model, widths=(50,), sigma_b=0.0):
    return NetworkConfig(1, 1, list(widths), 1.0, sigma_b, RELU,
                         [model] * len(widths))


def test_pruning_zeroes_the_unkept_variances():
    # one replicate's paired error is exactly the gap between the realisation
    # and its copy with the unkept variances zeroed, in every layer
    beta = make_model("beta", eta=1.0, b=0.5)
    cfg = _cfg(beta, widths=(30, 30), sigma_b=0.1)
    x = np.array([1.5])
    real = sample_network(cfg, RngStream(70, 0))
    eps = float(np.median(np.concatenate(real.lambdas[1:])))
    zeroed = [real.lambdas[0]] + [np.where(lam > eps, lam, 0.0)
                                  for lam in real.lambdas[1:]]
    assert all(0 < np.count_nonzero(lam) < lam.size for lam in zeroed[1:])
    gaps = [np.mean((z - zstar) ** 2) for z, zstar in zip(
        forward(real, cfg, x), forward(replace(real, lambdas=zeroed), cfg, x))]
    mean, se = paired_pruning_error(cfg, x, lambda lam: lam > eps, 1,
                                    RngStream(70, 0))
    assert np.array_equal(mean, gaps) and np.all(se == 0.0)
    assert gaps[0] == 0.0 and np.all(mean[1:] > 0.0)


def test_kappa_rule_tie_semantics():
    # a layer of identical variances is tied at the threshold and is pruned
    # entirely under the strict comparison
    assert not kappa_keep(np.full(10, 0.1), 0.5).any()


def test_kappa_rule_keeps_top_fraction():
    beta = make_model("beta", eta=1.0, b=0.5)
    cfg = _cfg(beta, widths=(40,))
    lam = sample_network(cfg, RngStream(72, 0)).lambdas[1]
    kept = kappa_keep(lam, 0.25)
    # nodes strictly above the floor(0.25 * 40) = 10th largest survive
    assert kept.sum() == 9
    order = np.argsort(lam)
    assert not kept[order[:31]].any() and kept[order[31:]].all()


def test_kappa_keep_domain_errors():
    for kappa in (0.0, 1.0, 1.5):
        with pytest.raises(ValueError):
            kappa_keep(np.ones(10), kappa)
    # floor(0.1 * 3) = 0: no threshold to prune at
    with pytest.raises(ValueError):
        kappa_keep(np.ones(3), 0.1)


def test_compressibility_ratio_exact_examples():
    # threshold is the floor(kappa p)-th largest value; mass at or below it
    assert compressibility_ratio([4.0, 3.0, 2.0, 1.0], 0.5) == pytest.approx(0.6)
    assert compressibility_ratio([4.0, 3.0, 2.0, 1.0], 0.75) == pytest.approx(0.3)
    assert compressibility_ratio([1.0, 0.0, 0.0, 0.0], 0.5) == pytest.approx(0.0)
    assert compressibility_ratio(np.zeros(4), 0.5) == 0.0
    # ties at the threshold count as prunable mass
    assert compressibility_ratio([2.0, 2.0, 1.0, 1.0], 0.5) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        compressibility_ratio([], 0.5)
    with pytest.raises(ValueError):
        compressibility_ratio([1.0, -1.0], 0.5)
    with pytest.raises(ValueError):
        compressibility_ratio([1.0, 2.0], 1.5)
    with pytest.raises(ValueError):
        compressibility_ratio([1.0, 2.0, 3.0], 0.2)
    # an all-zero vector is validated like any other
    with pytest.raises(ValueError):
        compressibility_ratio(np.zeros(1), 0.5)


def test_paired_error_zero_when_nothing_pruned():
    beta = make_model("beta", eta=1.0, b=0.5)
    cfg = _cfg(beta, widths=(20,))
    mean, se = paired_pruning_error(cfg, np.array([1.0]), lambda lam: lam > 0,
                                    20, RngStream(76, 0))
    assert mean.shape == (2,) and np.all(mean == 0.0) and np.all(se == 0.0)
    with pytest.raises(ValueError):
        paired_pruning_error(cfg, np.array([1.0]), lambda lam: lam > 0, 0,
                             RngStream(76, 0))


def test_epsilon_sweep_matches_paired_error_in_law():
    # the sweep draws from the conditional law, the paired error from
    # explicit weights: on independent streams their final-layer errors agree
    # in law (depth 2, so the masks propagate through a hidden layer)
    beta = make_model("beta", eta=1.0, b=0.5)
    cfg = _cfg(beta, widths=(50, 50), sigma_b=0.1)
    x = np.array([1.0])
    eps_grid = [0.003, 0.03]
    reps = 4000
    sweep_mean, sweep_se = epsilon_sweep_error(cfg, x, eps_grid, reps,
                                               RngStream(77, 0))
    for i, eps in enumerate(eps_grid):
        pair_mean, pair_se = paired_pruning_error(
            cfg, x, lambda lam: lam > eps, reps,
            RngStream(77, 1 + i))
        z = abs(sweep_mean[i] - pair_mean[-1]) / math.hypot(sweep_se[i],
                                                           pair_se[-1])
        assert z <= 4.0, (eps, sweep_mean[i], pair_mean[-1], z)


def test_epsilon_sweep_zero_gap_when_nothing_pruned():
    # eps = 0 keeps every node, so that row is the unpruned row bit for bit
    beta = make_model("beta", eta=1.0, b=0.5)
    cfg = _cfg(beta, widths=(30, 30), sigma_b=0.1)
    mean, se = epsilon_sweep_error(cfg, np.array([1.0]), [0.0, 0.01], 50,
                                   RngStream(80, 0))
    assert mean[0] == 0.0 and se[0] == 0.0
    assert mean[1] > 0.0
    with pytest.raises(ValueError):
        epsilon_sweep_error(cfg, np.array([1.0]), [0.0], 0, RngStream(80, 0))


def test_estimators_refuse_a_count_that_is_not_an_integer():
    # a fractional count would average int(2.5) = 2 replicates over 2.5, and
    # True would pass for one replicate
    cfg = _cfg(make_model("beta", eta=1.0, b=0.5), widths=(20,))
    x = np.array([1.0])
    for replicates in (2.5, True):
        with pytest.raises(ValueError):
            paired_pruning_error(cfg, x, lambda lam: lam > 0.01, replicates,
                                 RngStream(82, 0))
        with pytest.raises(ValueError):
            epsilon_sweep_error(cfg, x, [0.01], replicates, RngStream(82, 0))


def test_epsilon_sweep_monotone_in_eps():
    beta = make_model("beta", eta=1.0, b=0.5)
    cfg = _cfg(beta, widths=(50,))
    mean, _ = epsilon_sweep_error(cfg, np.array([1.0]),
                                  [1e-4, 1e-3, 1e-2, 1e-1], 100,
                                  RngStream(78, 0))
    assert np.all(np.diff(mean) >= 0)


def test_epsilon_bound_dominates_monte_carlo_error():
    # generalized BFRY with alpha = 0.5 is regularly varying at zero with
    # index 0.5; the analytic bound must dominate the simulated error
    model = make_model("generalized_bfry", eta=4.0, alpha=0.5, tau=5.0)
    cfg = _cfg(model, widths=(400, 400))
    x = np.array([1.0])
    eps = 1e-4
    bounds = epsilon_error_bound(cfg, x, eps, 0.5, 0.25)
    assert bounds.shape == (2,) and np.all(bounds > 0)
    mean, se = paired_pruning_error(cfg, x, lambda lam: lam > eps, 100,
                                    RngStream(79, 0))
    # mean[l-1] estimates the hidden-layer-l error; compare layers 1..L
    assert np.all(mean[:2] - 3 * se[:2] < bounds)


def test_epsilon_bound_domain_errors():
    model = make_model("generalized_bfry", eta=4.0, alpha=0.5, tau=5.0)
    cfg = _cfg(model)
    x = np.array([1.0])
    with pytest.raises(ValueError):
        epsilon_error_bound(cfg, x, 1e-3, 0.5, 0.6)
    with pytest.raises(ValueError):
        epsilon_error_bound(cfg, x, 1e-3, 0.5, 0.0)
    with pytest.raises(ValueError):
        epsilon_error_bound(cfg, x, 0.0, 0.5, 0.25)
