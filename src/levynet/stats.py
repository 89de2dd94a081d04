"""Statistical oracles and the deterministic Monte-Carlo harness.

Everything here is replicate-indexed: a task i reads only the random stream
of its own cell, whichever thread runs it, so results are identical whatever
the worker count, and aggregations use pairwise summation (numpy's default)
to keep them bitwise stable under re-chunking.
"""

import math
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import levy
from .reporting import Check, Estimate, ExperimentReport
from .rng import _integer

__all__ = [
    "ks_distance",
    "tail_exponent",
    "order_stat_cdf",
    "map_replicates",
    "register_experiment",
    "experiment_names",
    "run_experiment",
]


def ks_distance(samples, cdf):
    """Sup-norm distance between the empirical CDF of the samples and cdf."""
    xs = np.sort(np.asarray(samples, dtype=float))
    n = xs.size
    if n < 2:
        raise ValueError("need at least 2 samples")
    f = np.asarray(cdf(xs), dtype=float)
    grid = np.arange(1, n + 1) / n
    return float(max(np.max(np.abs(f - grid)), np.max(np.abs(f - grid + 1.0 / n))))


def tail_exponent(samples, top_fraction=0.05):
    """Hill estimate of the power-law tail exponent from the top order
    statistics, with its asymptotic standard error exponent / sqrt(k)."""
    if not 0.0 < top_fraction <= 0.2:
        raise ValueError("top_fraction must lie in (0, 0.2]")
    xs = np.sort(np.asarray(samples, dtype=float))[::-1]
    k = int(math.floor(top_fraction * xs.size))
    if k < 10:
        raise ValueError("too few tail points for a Hill estimate")
    if xs[k] <= 0:
        raise ValueError("Hill estimate requires positive tail samples")
    mean_log_excess = float(np.mean(np.log(xs[:k]) - np.log(xs[k])))
    exponent = 1.0 / mean_log_excess
    return exponent, exponent / math.sqrt(k)


def order_stat_cdf(m, k, x):
    """Limit CDF of the k-th largest variance,
    F_k(x) = e^{-rhobar(x)} sum_{i<k} rhobar(x)^i / i!; zero at x <= 0 for
    infinite-mass measures."""
    if m.is_trivial:
        raise ValueError("order_stat_cdf is undefined for the trivial measure")
    if k < 1:
        raise ValueError("k must be >= 1")
    x = np.asarray(x, dtype=float)
    r = np.where(x > 0, levy.tail_intensity(m, np.maximum(x, 1e-300)), np.inf)
    if math.isfinite(m.total_mass()):
        r = np.where(x >= 0, np.where(x > 0, r, m.total_mass()), np.inf)
    out = np.zeros_like(r)
    finite = np.isfinite(r)
    rf = r[finite]
    partial = np.zeros_like(rf)
    term = np.ones_like(rf)
    for i in range(k):
        if i > 0:
            term = term * rf / i
        partial += term
    out[finite] = np.exp(-rf) * partial
    return out if out.shape else float(out)


# ---------------------------------------------------------------------------
# deterministic experiment harness
# ---------------------------------------------------------------------------

def map_replicates(fn, replicates, workers=1):
    """Evaluate fn(i) for i = 0..replicates-1, fanning across threads, and
    return the results in replicate order (independent of worker count)."""
    n = int(replicates)
    if workers is None or workers <= 1 or n <= 1:
        return [fn(i) for i in range(n)]
    with ThreadPoolExecutor(max_workers=int(workers)) as pool:
        return list(pool.map(fn, range(n)))


_EXPERIMENTS = {}
_CONFIG_KEYS = {}


def register_experiment(name, keys=()):
    """Register fn(config, master_seed, replicates, workers) as the
    experiment `name`, whose config may hold only `keys`."""
    def deco(fn):
        _EXPERIMENTS[name] = fn
        _CONFIG_KEYS[name] = frozenset(keys)
        return fn
    return deco


def experiment_names():
    from . import experiments  # noqa: F401  (populates the registry)

    return sorted(_EXPERIMENTS)


def run_experiment(spec, master_seed, replicates, worker_count=1):
    """Dispatch a registered experiment.  spec is either a name or a dict with
    a "name" key plus configuration; the result is deterministic in
    (spec, master_seed, replicates) whatever worker_count is.  A
    configuration key that the experiment did not declare when it was
    registered raises a ValueError before anything is drawn."""
    from . import experiments  # noqa: F401  (populates the registry)

    if isinstance(spec, str):
        spec = {"name": spec}
    name = spec.get("name")
    if name not in _EXPERIMENTS:
        raise ValueError(f"unknown experiment {name!r}; "
                         f"known: {', '.join(experiment_names())}")
    master_seed = _integer("master_seed", master_seed)
    replicates = _integer("replicates", replicates)
    worker_count = _integer("worker_count", worker_count)
    if replicates < 1:
        raise ValueError(f"replicates must be >= 1, got {replicates}")
    config = {k: v for k, v in spec.items() if k != "name"}
    unread = sorted(set(config) - _CONFIG_KEYS[name])
    if unread:
        raise ValueError(f"{name} does not read the config key(s) {unread}")
    report = _EXPERIMENTS[name](config, master_seed, replicates, worker_count)
    report.master_seed = master_seed
    report.replicate_count = replicates
    return report
