"""Node pruning of finite networks and the associated error analysis.

Two threshold families: epsilon-pruning removes hidden nodes whose variance
satisfies lambda <= eps, and kappa-pruning removes nodes with
lambda <= lambda_(floor(kappa p)), the floor(kappa p)-th largest order
statistic (ties are pruned together, so a layer of identical variances is
pruned entirely).  A third rule ranks nodes by the squared norm of their
outgoing weights instead of by lambda, the practical criterion for iid
Gaussian layers.

`paired_pruning_error` drives the pruned and unpruned networks through one
explicit realisation (`sample_network` / `forward`); it serves every rule and
is the oracle.  `epsilon_sweep_error` needs only the variances: given them,
the unpruned and pruned pre-activations of a layer are jointly Gaussian,
iid over output nodes, so it draws them with `network.forward_law` (one QR
factor of the distinct rows per layer) instead of p x p weight matrices.
"""

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from . import levy
from .network import (forward, forward_law, sample_lambdas, sample_network,
                      variance_recursion)

__all__ = [
    "PruningRule",
    "prune",
    "paired_pruning_error",
    "epsilon_sweep_error",
    "epsilon_error_bound",
    "compressibility_ratio",
]


@dataclass(frozen=True)
class PruningRule:
    """kind in {"epsilon", "kappa", "outgoing_norm_kappa"} with the matching
    threshold parameter (eps >= 0, or kappa in (0, 1))."""

    kind: str
    eps: float = None
    kappa: float = None

    def __post_init__(self):
        if self.kind == "epsilon":
            if self.eps is None or self.eps < 0:
                raise ValueError("epsilon rule needs eps >= 0")
        elif self.kind in ("kappa", "outgoing_norm_kappa"):
            if self.kappa is None or not 0.0 < self.kappa < 1.0:
                raise ValueError(f"{self.kind} rule needs kappa in (0, 1)")
        else:
            raise ValueError(f"unknown pruning rule kind {self.kind!r}")


def _kth_largest(values, k):
    """The k-th largest entry (k >= 1)."""
    return np.sort(values)[::-1][k - 1]


def _keep_mask(real, cfg, rule, layer):
    """Boolean keep-mask over the hidden nodes of hidden layer `layer` (1-based
    into real.lambdas)."""
    lam = real.lambdas[layer]
    p = lam.size
    if rule.kind == "epsilon":
        return lam > rule.eps
    if rule.kind == "outgoing_norm_kappa":
        v_out = real.V[layer]  # (p, p_next), already carries sigma_v
        scores = lam * (v_out ** 2).sum(axis=1)
    else:
        scores = lam
    k = int(math.floor(rule.kappa * p))
    if k < 1:
        warnings.warn("floor(kappa * p) = 0: the kappa rule keeps every node",
                      stacklevel=3)
        return np.ones(p, dtype=bool)
    return scores > _kth_largest(scores, k)


def prune(real, cfg, rule):
    """A copy of the realization with pruned hidden nodes' variances zeroed,
    so the pruned forward pass is the masked recursion sqrt(lambda) 1{keep}."""
    lambdas = [real.lambdas[0].copy()]
    for layer in range(1, len(real.lambdas)):
        mask = _keep_mask(real, cfg, rule, layer)
        lambdas.append(np.where(mask, real.lambdas[layer], 0.0))
    return replace(real, lambdas=lambdas)


def paired_pruning_error(cfg, x, rule, replicates, rng):
    """Monte-Carlo estimate of E[(Z^{(l)} - Z*^{(l)})^2] per layer, driving the
    pruned and unpruned networks with the same realization.  Returns
    (means, std_errors), arrays over layers 1..L+1 averaged over output
    coordinates."""
    if replicates < 1:
        raise ValueError("replicates must be >= 1")
    n_layers = cfg.n_hidden + 1
    acc = np.zeros(n_layers)
    acc2 = np.zeros(n_layers)
    for _ in range(int(replicates)):
        real = sample_network(cfg, rng)
        zs = forward(real, cfg, x)
        zs_star = forward(prune(real, cfg, rule), cfg, x)
        gaps = np.array([float(np.mean((z - zstar) ** 2))
                         for z, zstar in zip(zs, zs_star)])
        acc += gaps
        acc2 += gaps ** 2
    mean = acc / replicates
    var = np.maximum(acc2 / replicates - mean ** 2, 0.0)
    se = np.sqrt(var / replicates)
    return mean, se


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
    if replicates < 1:
        raise ValueError("replicates must be >= 1")
    x = np.asarray(x, dtype=float)
    eps_grid = np.asarray(eps_grid, dtype=float)
    # row 0 carries the unpruned network, rows 1.. the eps thresholds
    thresholds = np.concatenate([[-np.inf], eps_grid])[:, None]
    rows = np.tile(x, (thresholds.size, 1))
    acc = np.zeros(eps_grid.size)
    acc2 = np.zeros(eps_grid.size)
    for _ in range(int(replicates)):
        lambdas = sample_lambdas(cfg, rng)
        keep = [lam > thresholds for lam in lambdas[1:]]
        z = forward_law(cfg, lambdas, rows, rng, keep=keep)[-1]
        gaps = np.mean((z[1:] - z[0]) ** 2, axis=1)
        acc += gaps
        acc2 += gaps ** 2
    mean = acc / replicates
    var = np.maximum(acc2 / replicates - mean ** 2, 0.0)
    return mean, np.sqrt(var / replicates)


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
    """Mass fraction carried by the values at or below the floor(kappa p)-th
    largest: sum(v 1{v <= v_(floor(kappa p))}) / sum(v).  An all-zero vector
    returns 0."""
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        raise ValueError("values must be nonempty")
    if np.any(values < 0):
        raise ValueError("values must be nonnegative")
    if not 0.0 < kappa < 1.0:
        raise ValueError("kappa must lie in (0, 1)")
    total = values.sum()
    if total == 0.0:
        return 0.0
    k = int(math.floor(kappa * values.size))
    if k < 1:
        raise ValueError("floor(kappa * p) must be >= 1")
    thr = _kth_largest(values, k)
    return float(values[values <= thr].sum() / total)
