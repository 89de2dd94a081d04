"""Pruning rules, paired pruning error, and the analytic epsilon bound."""

import math

import numpy as np
import pytest

from levynet.activations import RELU
from levynet.models import make_model
from levynet.network import NetworkConfig, forward, sample_network
from levynet.pruning import (PruningRule, compressibility_ratio,
                             epsilon_error_bound, epsilon_sweep_error,
                             paired_pruning_error, prune)
from levynet.rng import RngStream


def _cfg(model, widths=(50,), sigma_b=0.0):
    return NetworkConfig(1, 1, list(widths), 1.0, sigma_b, RELU,
                         [model] * len(widths))


def test_rule_validation():
    with pytest.raises(ValueError):
        PruningRule("epsilon")
    with pytest.raises(ValueError):
        PruningRule("epsilon", eps=-1.0)
    with pytest.raises(ValueError):
        PruningRule("kappa", kappa=0.0)
    with pytest.raises(ValueError):
        PruningRule("kappa", kappa=1.0)
    with pytest.raises(ValueError):
        PruningRule("largest", kappa=0.5)
    PruningRule("epsilon", eps=0.0)
    PruningRule("outgoing_norm_kappa", kappa=0.3)


def test_epsilon_rule_masks_small_variances():
    beta = make_model("beta", eta=1.0, b=0.5)
    cfg = _cfg(beta)
    real = sample_network(cfg, RngStream(70, 0))
    eps = float(np.median(real.lambdas[1]))
    pruned = prune(real, cfg, PruningRule("epsilon", eps=eps))
    lam = real.lambdas[1]
    assert np.array_equal(pruned.lambdas[1], np.where(lam > eps, lam, 0.0))
    # eps = 0 keeps everything (all variances are positive)
    same = prune(real, cfg, PruningRule("epsilon", eps=0.0))
    assert np.array_equal(same.lambdas[1], lam)


def test_kappa_rule_tie_semantics():
    # a layer of identical variances is tied at the threshold and is pruned
    # entirely under the strict comparison
    det = make_model("deterministic", c1=1.0)
    cfg = _cfg(det, widths=(10,))
    real = sample_network(cfg, RngStream(71, 0))
    pruned = prune(real, cfg, PruningRule("kappa", kappa=0.5))
    assert np.all(pruned.lambdas[1] == 0.0)


def test_kappa_rule_keeps_top_fraction():
    beta = make_model("beta", eta=1.0, b=0.5)
    cfg = _cfg(beta, widths=(40,))
    real = sample_network(cfg, RngStream(72, 0))
    pruned = prune(real, cfg, PruningRule("kappa", kappa=0.25))
    kept = pruned.lambdas[1] > 0
    # nodes strictly above the floor(0.25 * 40) = 10th largest survive
    assert kept.sum() == 9
    order = np.argsort(real.lambdas[1])
    assert not kept[order[:31]].any() and kept[order[31:]].all()


def test_kappa_rule_warns_when_threshold_index_is_zero():
    det = make_model("deterministic", c1=1.0)
    cfg = _cfg(det, widths=(3,))
    real = sample_network(cfg, RngStream(73, 0))
    with pytest.warns(UserWarning):
        pruned = prune(real, cfg, PruningRule("kappa", kappa=0.1))
    assert np.array_equal(pruned.lambdas[1], real.lambdas[1])


def test_outgoing_norm_rule_ranking():
    det = make_model("deterministic", c1=1.0)
    cfg = _cfg(det, widths=(20,))
    real = sample_network(cfg, RngStream(74, 0))
    pruned = prune(real, cfg, PruningRule("outgoing_norm_kappa", kappa=0.5))
    scores = real.lambdas[1] * (real.V[1] ** 2).sum(axis=1)
    order = np.argsort(scores)
    kept = pruned.lambdas[1] > 0
    # the 9 nodes strictly above the 10th-largest score survive
    assert not kept[order[:11]].any() and kept[order[11:]].all()


def test_prune_preserves_unpruned_forward_pass():
    beta = make_model("beta", eta=1.0, b=0.5)
    cfg = _cfg(beta, widths=(30, 30), sigma_b=0.1)
    real = sample_network(cfg, RngStream(75, 0))
    pruned = prune(real, cfg, PruningRule("epsilon", eps=0.0))
    x = np.array([1.5])
    for z, zp in zip(forward(real, cfg, x), forward(pruned, cfg, x)):
        assert np.allclose(z, zp)


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


def test_paired_error_zero_when_nothing_pruned():
    beta = make_model("beta", eta=1.0, b=0.5)
    cfg = _cfg(beta, widths=(20,))
    mean, se = paired_pruning_error(cfg, np.array([1.0]),
                                    PruningRule("epsilon", eps=0.0),
                                    20, RngStream(76, 0))
    assert mean.shape == (2,) and np.all(mean == 0.0) and np.all(se == 0.0)
    with pytest.raises(ValueError):
        paired_pruning_error(cfg, np.array([1.0]),
                             PruningRule("epsilon", eps=0.0), 0,
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
            cfg, x, PruningRule("epsilon", eps=eps), reps,
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
    mean, se = paired_pruning_error(cfg, x, PruningRule("epsilon", eps=eps),
                                    100, RngStream(79, 0))
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
