"""Node pruning of finite networks and the associated error analysis.

A pruning rule is a keep mask on one hidden layer's variances lambda, and
pruning zeroes the variances of the nodes it drops.  There are two rules:
epsilon-pruning keeps lambda > eps, and kappa-pruning (`kappa_keep`) keeps
lambda > lambda_(floor(kappa p)), the floor(kappa p)-th largest order
statistic, so ties at the threshold are pruned together and a layer of
identical variances is pruned entirely.

`paired_pruning_error` drives the pruned and unpruned networks through one
explicit realisation (`sample_network` / `forward`); it takes any keep mask
and is the oracle.  `epsilon_sweep_error` needs only the variances: given
them, the unpruned and pruned pre-activations of a layer are jointly
Gaussian, iid over output nodes, so it draws them with `network.forward_law`
(one QR factor of the distinct rows per layer) instead of p x p weight
matrices.  Both average one replicate's squared gaps in `_mean_and_se`.
"""

import math
from dataclasses import replace

import numpy as np

from . import levy
from .network import (forward, forward_law, sample_lambdas, sample_network,
                      variance_recursion)
from .rng import _integer

__all__ = [
    "kappa_keep",
    "paired_pruning_error",
    "epsilon_sweep_error",
    "epsilon_error_bound",
    "compressibility_ratio",
]


def kappa_keep(values, kappa):
    """Keep mask of the kappa rule: values > v_(floor(kappa p)), the
    floor(kappa p)-th largest of the p values."""
    values = np.asarray(values, dtype=float)
    if not 0.0 < kappa < 1.0:
        raise ValueError("kappa must lie in (0, 1)")
    k = int(math.floor(kappa * values.size))
    if k < 1:
        raise ValueError("floor(kappa * p) must be >= 1")
    return values > np.sort(values)[-k]


def _mean_and_se(draw_gaps, replicates):
    """(mean, standard error) of the gap arrays returned by `replicates`
    calls of draw_gaps(); replicates must be an integer >= 1."""
    if _integer("replicates", replicates) < 1:
        raise ValueError(f"replicates must be an integer >= 1, got {replicates!r}")
    acc = acc2 = 0.0
    for _ in range(replicates):
        gaps = draw_gaps()
        acc = acc + gaps
        acc2 = acc2 + gaps ** 2
    mean = acc / replicates
    var = np.maximum(acc2 / replicates - mean ** 2, 0.0)
    return mean, np.sqrt(var / replicates)


def paired_pruning_error(cfg, x, keep, replicates, rng):
    """Monte-Carlo estimate of E[(Z^{(l)} - Z*^{(l)})^2] per layer, driving the
    pruned and unpruned networks with the same realization.  keep(lambda)
    returns the boolean keep mask of one hidden layer; the pruned network
    zeroes the variances of the other nodes.  Returns (means, std_errors),
    arrays over layers 1..L+1 averaged over output coordinates."""

    def draw_gaps():
        real = sample_network(cfg, rng)
        pruned = replace(real, lambdas=[real.lambdas[0]] + [
            np.where(keep(lam), lam, 0.0) for lam in real.lambdas[1:]])
        return np.array([float(np.mean((z - zstar) ** 2)) for z, zstar
                         in zip(forward(real, cfg, x), forward(pruned, cfg, x))])

    return _mean_and_se(draw_gaps, replicates)


def epsilon_sweep_error(cfg, x, eps_grid, replicates, rng):
    """Final-layer paired pruning error across an epsilon grid, reusing each
    replicate's variances for every threshold.  The unpruned network and all
    thresholds are rows of one `forward_law` batch, each threshold's row
    carrying its keep-mask lambda > eps in every hidden layer; the rows share
    the realisation, so the pair is drawn from its exact joint law without
    any weight matrix, and a threshold that prunes nothing reproduces the
    unpruned row bit for bit.  Per replicate the stream is consumed as: the
    variances of every hidden layer, then one normal block per layer.
    Returns (means, std_errors) aligned with eps_grid."""
    x = np.asarray(x, dtype=float)
    # row 0 carries the unpruned network, rows 1.. the eps thresholds
    thresholds = np.concatenate([[-np.inf], eps_grid])[:, None]
    rows = np.tile(x, (thresholds.size, 1))

    def draw_gaps():
        lambdas = sample_lambdas(cfg, rng)
        keep = [lam > thresholds for lam in lambdas[1:]]
        z = forward_law(cfg, lambdas, rows, rng, keep=keep)[-1]
        return np.mean((z[1:] - z[0]) ** 2, axis=1)

    return _mean_and_se(draw_gaps, replicates)


def epsilon_error_bound(cfg, x, eps, alpha, delta):
    """Analytic epsilon-pruning error bounds D(l) eps^{1-(alpha+delta)} for
    l = 1..L, where alpha is the index of regular variation of the shared
    Levy measure at zero and delta in (0, 1-alpha):

        D(l) = (sigma_v^2 C_Lip^2 / (1-(alpha+delta)))
               * sum_{i=0}^{l-1} (sigma_v^2 C_Lip^2 M1)^i U^{(l-i)}

    The incomputable supremum U^{(l)} over widths is replaced by twice the
    expected-conditional-variance chain (exact form of the simple
    upper bound when sigma_b = 0)."""
    if not 0.0 < delta < 1.0 - alpha:
        raise ValueError("delta must lie in (0, 1 - alpha)")
    if eps <= 0:
        raise ValueError("eps must be > 0")
    c_lip = cfg.activation.c_lip
    sv2c = cfg.sigma_v ** 2 * c_lip ** 2
    u = 2.0 * variance_recursion(cfg, x)  # U^{(1..L+1)}; only 1..L used
    m1s = [m.limit.location_a + levy.moment(m.limit.measure, 1)
           for m in cfg.variance_models]
    bounds = []
    for l in range(1, cfg.n_hidden + 1):
        total = 0.0
        prod = 1.0
        for i in range(l):
            total += prod * u[l - 1 - i]
            if i < l - 1:
                prod *= sv2c * m1s[l - 2 - i]
        d_l = sv2c / (1.0 - (alpha + delta)) * total
        bounds.append(d_l * eps ** (1.0 - (alpha + delta)))
    return np.array(bounds)


def compressibility_ratio(values, kappa):
    """Mass fraction that the kappa rule prunes: the sum of the values at or
    below the floor(kappa p)-th largest over the sum of all values, or 0 for
    an all-zero vector."""
    values = np.asarray(values, dtype=float)
    if np.any(values < 0):
        raise ValueError("values must be nonnegative")
    pruned = values[~kappa_keep(values, kappa)].sum()
    total = values.sum()
    return 0.0 if total == 0.0 else float(pruned / total)
