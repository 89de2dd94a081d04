"""Registered, seed-deterministic experiments behind the command-line tool.

Each experiment reproduces one of the simulation studies for single-hidden-
layer (or depth-3 for the truncation study) ReLU networks with univariate
inputs, sigma_v = 1 and no bias: output distributions, squared-output
correlations across widths, largest-weight laws, the epsilon-pruning error
sweep, random kernel realisations, and compressibility ratios.

Each independent cell of an experiment reads one stream of its own,
RngStream(master_seed, k), in order, so results are identical for any worker
count.  The cells go to one `stats.map_replicates` call, so `workers` threads
share them; the report is assembled in cell order after.  A cell and its key:
  - output_dist, output_corr, max_weight and truncation_error: chunk i of up
    to 500 replicate rows of job k reads key 1000 k + i (`_map_chunks`), so
    an experiment takes at most 1000 chunks, 500 000 replicates.  The job is
    the mi-th model (output_corr: its wi-th width, k = mi len(widths) + wi;
    truncation_error: the ai-th alpha);
  - compressibility: the k-th (model, width), key k, drawing its mass ratio,
    paired pruning error and E[Z^2] denominator in turn (with workers=1, so
    no pool runs inside a pool thread);
  - verify: the convergence checks of the mi-th model, key 5000 + mi.
truncation_error fans out the chunks of one alpha at a time: its thin-panel
QR factors contend for the cores when its alphas run at once.
kernel_realizations draws serially (see its docstring).

A running cell holds one variance array (its rows' variances, built in
place by the samplers; two for the generalized BFRY's product) plus blocks of
at most 65 536 draws, so `workers` cells at once need about `workers`
variance arrays.

The one-hidden-layer outputs (output_dist, output_corr and the E[Z^2]
denominator of compressibility) come from their exact conditional law: given
the variances and pre-activations the output is N(0, sum_j lambda_j
relu(g_j)^2), and ReLU zeroes each unit independently with probability 1/2,
so each replicate draws a Binomial(p, 1/2) count of active units, that many
variances and squared normals, and d_out normals (`_output_chunk`).
"""

import math
from functools import partial

import numpy as np
from scipy import special as sp

from . import kernels, levy, pruning, stats
from .activations import LINEAR, RELU
from .models import make_model, model_from_spec
from .network import NetworkConfig, sample_random_kernel
from .reporting import ExperimentReport
from .rng import RngStream, _marked_sums

__all__ = ["standard_models", "STANDARD_MODEL_NAMES"]

# canonical parameter choices for the simulation studies: unit limiting mean
# E[sum_j lambda_j] where it exists, and the half-Cauchy-squared horseshoe;
# a model not listed takes make_model's defaults
STANDARD_MODEL_NAMES = ("deterministic", "inverse_gamma", "beta", "horseshoe",
                        "generalized_bfry")
_STANDARD_PARAMS = {"beta": {"eta": 1.0, "b": 0.5}, "horseshoe": {"c": 1.0},
                    "generalized_bfry": {"eta": 4.0, "alpha": 0.5, "tau": 5.0}}

_CHUNK = 500
# chunk i of job k reads stream key _JOB_STRIDE k + i
_JOB_STRIDE = 1000


def standard_models(names=None):
    """{name: model} of the named models, each a name (built with its
    canonical parameters) or a {"name", "params"} spec."""
    models = (model_from_spec(name) if isinstance(name, dict)
              else make_model(name, **_STANDARD_PARAMS.get(name, {}))
              for name in names or STANDARD_MODEL_NAMES)
    return {model.name: model for model in models}


def _chunks(n):
    """Row counts of the replicate chunks of n rows: _CHUNK each, the last
    one shorter."""
    n = int(n)
    return [min(_CHUNK, n - start) for start in range(0, n, _CHUNK)]


def _map_cells(cells, workers):
    """Call each zero-argument cell, spread over `workers` threads, and
    return the results in cell order."""
    return stats.map_replicates(lambda k: cells[k](), len(cells), workers)


def _map_chunks(jobs, n, master_seed, workers):
    """For each job (fn, k), fn(rows, rng) over the replicate chunks of n
    rows, chunk i reading RngStream(master_seed, _JOB_STRIDE k + i),
    concatenated along the rows.  The chunks of every job are cells of one
    fan-out.  More than _JOB_STRIDE chunks would reach the next job's keys,
    so they raise a ValueError before any draw."""
    sizes = _chunks(n)
    if len(sizes) > _JOB_STRIDE:
        raise ValueError(f"{n} replicates make {len(sizes)} chunks per job: "
                         f"chunk {_JOB_STRIDE} would read a stream which "
                         f"another cell reads; use at most "
                         f"{_JOB_STRIDE * _CHUNK}")
    parts = _map_cells([partial(fn, rows,
                                RngStream(master_seed, _JOB_STRIDE * k + i))
                        for fn, k in jobs for i, rows in enumerate(sizes)],
                       workers)
    c = len(sizes)
    return [np.concatenate(parts[j * c:(j + 1) * c]) for j in range(len(jobs))]


def _output_chunk(model, p, d_out, rows, rng):
    """`rows` draws of the width-p one-hidden-layer ReLU outputs for a unit
    input, shape (rows, d_out), from their conditional law over the active
    units.

    Z_k = sum_j sqrt(lambda_j) relu(g_j) v_jk is, given lambda and g, exactly
    N(0, S) in each coordinate, independently, with S = sum_j lambda_j
    relu(g_j)^2.  Each unit is active (g_j > 0) independently with probability
    1/2, and then relu(g_j)^2 is chi-square(1); the inactive units' variances
    never enter S.  So the chunk draws from rng:
      1. K ~ Binomial(p, 1/2) active units per row;
      2. ceil(sum K / p) rows of mu_p (the entries are iid), flattened and
         cut to sum K variances;
      3. S, each row's variances times squared normals, summed: sum K
         normals, the linear marks of `rng._marked_sums` (0 if K = 0);
      4. Z = sqrt(S) times a (rows, d_out) block of standard normals.
    That is about p/2 variances and p/2 + d_out normals per row, against p
    and p (1 + d_out) for the weights themselves."""
    gen = rng.generator
    active = gen.binomial(p, 0.5, size=rows)
    total = int(active.sum())
    lam = model.sample(p, rng, p_next=d_out, n=-(-total // p)).ravel()[:total]
    s = _marked_sums(gen, lam, active, LINEAR)
    return np.sqrt(s)[:, None] * gen.standard_normal((rows, d_out))


@stats.register_experiment("output_dist")
def output_dist(config, master_seed, replicates, workers):
    if replicates < 200:
        raise ValueError(f"output_dist needs at least 200 replicates, got "
                         f"{replicates}: its top-5% Hill tail estimate uses "
                         f"the 10 largest of them")
    width = int(config.get("width", 2000))
    models = sorted(standard_models(config.get("models")).items())
    report = ExperimentReport("output_dist",
                              config={"width": width,
                                      "models": [name for name, _ in models]})
    zs = _map_chunks([(partial(_output_chunk, model, width, 1), mi)
                      for mi, (_, model) in enumerate(models)],
                     replicates, master_seed, workers)
    hist_rows, tail_rows = [], []
    for (name, _), z in zip(models, zs):
        z = z[:, 0]
        report.add_estimate(f"{name}/std", z.std(),
                            z.std() / math.sqrt(2 * z.size))
        az = np.abs(z[z != 0])
        if az.size < 200:
            raise ValueError(
                f"output_dist: model {name} at width {width} gave only "
                f"{az.size} nonzero outputs of {replicates}; its Hill tail "
                f"estimate needs at least 200")
        expo, se = stats.tail_exponent(az, 0.05)
        report.add_estimate(f"{name}/hill_tail_exponent_top5pct", expo, se)
        lo, hi = np.quantile(z, [0.001, 0.999])
        edges = np.linspace(lo, hi, 82)
        dens, _ = np.histogram(z, bins=edges, density=True)
        centers = 0.5 * (edges[:-1] + edges[1:])
        hist_rows += [[name, float(c), float(d)]
                      for c, d in zip(centers, dens)]
        srt = np.sort(az)[::-1]
        ks = np.unique(np.geomspace(1, srt.size, 200).astype(int)) - 1
        tail_rows += [[name, float(srt[k]), (k + 1) / az.size] for k in ks]
    report.add_table("histogram", ["model", "output", "density"], hist_rows)
    report.add_table("tail", ["model", "abs_output", "survival"], tail_rows)
    return report


@stats.register_experiment("output_corr")
def output_corr(config, master_seed, replicates, workers):
    widths = [int(w) for w in config.get("widths", (100, 500, 1000, 2000))]
    models = sorted(standard_models(config.get("models")).items())
    report = ExperimentReport("output_corr",
                              config={"widths": widths,
                                      "models": [name for name, _ in models]})
    zs = iter(_map_chunks([(partial(_output_chunk, model, p, 2),
                            mi * len(widths) + wi)
                           for mi, (_, model) in enumerate(models)
                           for wi, p in enumerate(widths)],
                          replicates, master_seed, workers))
    rows = []
    for name, _ in models:
        for p in widths:
            z = next(zs)
            corr = float(np.corrcoef(z[:, 0] ** 2, z[:, 1] ** 2)[0, 1])
            rows.append([name, p, corr])
            if p == 2000:
                if name in ("deterministic", "inverse_gamma"):
                    report.add_check(f"{name}/sq_corr_p2000", corr, 0.0, 0.02)
                elif name == "beta":
                    report.add_check(f"{name}/sq_corr_p2000", corr, 0.30, 0.08)
    report.add_table("correlation", ["model", "width", "sq_output_corr"], rows)
    return report


def _max_abs_weight(model, p, rows, rng):
    """Per row, the largest |w_j| = sqrt(lambda_j) |v_j| of `rows` width-p
    layers, formed in the variances' array."""
    lam = model.sample(p, rng, p_next=1, n=rows)
    v = rng.generator.standard_normal(lam.shape)
    np.sqrt(lam, out=lam)
    lam *= np.abs(v, out=v)
    return np.max(lam, axis=1)


def _max_weight_chunk(model, widths, rows, rng):
    """(rows, len(widths)) largest |weights|, the widths drawn in turn from
    one stream."""
    return np.stack([_max_abs_weight(model, p, rows, rng) for p in widths],
                    axis=1)


@stats.register_experiment("max_weight")
def max_weight(config, master_seed, replicates, workers):
    widths = [int(w) for w in config.get("widths", (100, 500, 1000, 2000))]
    models = sorted(standard_models(config.get(
        "models", ("deterministic", "beta", "generalized_bfry"))).items())
    report = ExperimentReport("max_weight",
                              config={"widths": widths,
                                      "models": [name for name, _ in models]})
    maxws = _map_chunks([(partial(_max_weight_chunk, model, widths), mi)
                         for mi, (_, model) in enumerate(models)],
                        replicates, master_seed, workers)
    rows = []
    for (name, model), maxw in zip(models, maxws):
        # each column's minimum is among its listed points
        usable = not model.limit.measure.is_trivial and np.all(maxw > 0)
        # the largest |weight|'s limit law: exp(-nubar(x^2)), nubar the tail
        # of the variance measure's chi-square mixture
        mixed = levy.mix_with_chi2(model.limit.measure) if usable else None
        for wi, p in enumerate(widths):
            col = np.sort(maxw[:, wi])
            report.add_estimate(f"{name}/median_max_weight_p{p}",
                                float(np.median(col)), 0.0)
            ks = np.unique(np.linspace(0, col.size - 1, 200).astype(int))
            pts = col[ks]
            limits = (stats.order_stat_cdf(mixed, 1, pts ** 2).tolist()
                      if usable else [""] * pts.size)
            rows += [[name, p, float(x), (k + 1) / maxw.shape[0], lim]
                     for k, x, lim in zip(ks, pts, limits)]
    report.add_table(
        "max_weight_cdf",
        ["model", "width", "max_abs_weight", "empirical_cdf", "limit_cdf"],
        rows)
    return report


def _sweep_chunk(cfg, x, eps_grid, rows, rng):
    """One chunk of truncation_error: the sums over its `rows` replicates of
    the paired pruning error and of its square, shape (1, 2, eps)."""
    m, se = pruning.epsilon_sweep_error(cfg, x, eps_grid, rows, rng)
    return np.array([[rows * m, rows * (se ** 2 * rows + m ** 2)]])


@stats.register_experiment("truncation_error")
def truncation_error(config, master_seed, replicates, workers):
    alphas = [float(a) for a in config.get("alphas", (0.5, 0.3, 0.1))]
    tau = float(config.get("tau", 5.0))
    eta = float(config.get("eta", tau - 1.0))
    p = int(config.get("width", 2000))
    depth = int(config.get("depth", 3))
    eps_grid = np.asarray(config.get("eps_grid",
                                     np.logspace(-4.5, -2, 8)), dtype=float)
    delta = float(config.get("delta", 0.05))
    report = ExperimentReport(
        "truncation_error",
        config={"alphas": alphas, "tau": tau, "eta": eta, "width": p,
                "depth": depth, "eps_grid": [float(e) for e in eps_grid],
                "delta": delta})
    x = np.array([1.0])
    rows = []
    n = int(replicates)
    for ai, alpha in enumerate(alphas):
        model = make_model("generalized_bfry", eta=eta, alpha=alpha, tau=tau)
        cfg = NetworkConfig(1, 1, [p] * depth, 1.0, 0.0, RELU, [model] * depth)
        (sums,) = _map_chunks([(partial(_sweep_chunk, cfg, x, eps_grid), ai)],
                              n, master_seed, workers)
        mean, second = sums.sum(axis=0) / n
        se = np.sqrt(np.maximum(second - mean ** 2, 0.0) / n)
        bound = np.array([pruning.epsilon_error_bound(cfg, x, e, alpha,
                                                      delta)[-1]
                          for e in eps_grid])
        slope, intercept = np.polyfit(np.log(eps_grid), np.log(mean), 1)
        report.add_estimate(f"alpha={alpha}/loglog_slope", slope, 0.0)
        report.add_check(f"alpha={alpha}/slope_vs_1_minus_alpha",
                         slope, 1.0 - alpha, 0.05)
        rows += [[alpha, float(e), float(m_), float(s_), float(b_)]
                 for e, m_, s_, b_ in zip(eps_grid, mean, se, bound)]
    report.add_table("truncation_error",
                     ["alpha", "eps", "mc_error", "std_error", "bound"], rows)
    return report


@stats.register_experiment("kernel_realizations")
def kernel_realizations(config, master_seed, replicates, workers):
    """Draws of the layer-2 random ReLU kernel K(x_0, x) over 41 angles, one
    column per draw, for beta(eta, eta/2) layers at each eta in `betas`.

    Draw i for the k-th eta reads its own RngStream(master_seed,
    k n_draws + i).  The draws run serially in the calling thread,
    whatever `workers` says: on a 2-vCPU machine 2 replicate threads made
    them about 2x slower than 1, and the threads race to fill the measure's
    lazy truncation record, so it is built twice."""
    betas = [float(b) for b in config.get("betas", (1.0, 10.0, 1000.0))]
    n_rho = int(config.get("n_rho", 41))
    rhos = np.linspace(-1.0, 1.0, n_rho)
    n_draws = int(replicates)
    report = ExperimentReport("kernel_realizations",
                              config={"betas": betas, "n_rho": n_rho})
    # points on the radius-sqrt(2) circle so |x||x'|/d_in = 1
    r = math.sqrt(2.0)
    inputs = np.vstack([[r, 0.0],
                        np.stack([r * rhos, r * np.sqrt(1 - rhos ** 2)],
                                 axis=1)])
    gp = np.array([kernels.gp_relu_kernel(inputs[0], xp, 2)
                   for xp in inputs[1:]])
    rows = []
    for bi, beta in enumerate(betas):
        model = make_model("beta", eta=beta, b=beta / 2.0)
        cfg = NetworkConfig(2, 1, [1], 1.0, 0.0, RELU, [model])

        draws = [sample_random_kernel(
            cfg, inputs, RngStream(master_seed, bi * n_draws + i))[1][0, 1:]
            for i in range(n_draws)]
        for ri, rho in enumerate(rhos):
            rows.append([beta, float(rho), float(gp[ri])]
                        + [float(d[ri]) for d in draws])
    report.add_table(
        "kernel_draws",
        ["beta", "rho", "gp_kernel"] + [f"draw_{i+1}" for i in range(n_draws)],
        rows)
    return report


# Limits of the kappa mass ratio for the GP-regime (a > 0) models that have
# one in closed form.  deterministic: lambda = c/p ties everywhere and the
# kappa rule prunes ties together, so the whole mass is prunable.
# inverse_gamma: lambda = (2/p)/G with G ~ Gamma(2), so the pruned nodes are
# those with G >= q, the kappa-quantile of G, carrying
# E[G^-1; G >= q] / E[G^-1] = e^{-q} of the mass (0.1867 at kappa = 1/2).
_GP_RATIO_LIMITS = {
    "deterministic": lambda kappa: 1.0,
    "inverse_gamma": lambda kappa: math.exp(-sp.gammaincinv(2.0, kappa)),
}


def _compressibility_cell(model, p, kappa, n, rng):
    """One (model, width) cell of compressibility: (the mean kappa mass ratio
    of n variance draws, the paired error of the output when the hidden layer
    is pruned by `pruning.kappa_keep`, that error over E[Z^2] from at least
    200 output draws), drawn from rng in that order."""
    ratio = float(np.mean([pruning.compressibility_ratio(row, kappa)
                           for row in model.sample(p, rng, p_next=1, n=n)]))
    cfg = NetworkConfig(1, 1, [p], 1.0, 0.0, RELU, [model])
    keep = partial(pruning.kappa_keep, kappa=kappa)
    err, _ = pruning.paired_pruning_error(cfg, np.array([1.0]), keep, n, rng)
    z = np.concatenate([_output_chunk(model, p, 1, rows, rng)
                        for rows in _chunks(max(n, 200))])
    z2 = np.mean(z[:, 0] ** 2)
    return ratio, float(err[-1]), float(err[-1] / z2)


@stats.register_experiment("compressibility")
def compressibility(config, master_seed, replicates, workers):
    """The kappa mass ratio, the paired kappa-pruning error and its fraction
    of E[Z^2] of one-hidden-layer networks, per model and width.  The k-th
    (model, width) cell, models outer, reads RngStream(master_seed, k)."""
    widths = [int(w) for w in config.get("widths", (500, 2000, 8000))]
    kappa = float(config.get("kappa", 0.5))
    models = sorted(standard_models(config.get("models")).items())
    report = ExperimentReport("compressibility",
                              config={"widths": widths, "kappa": kappa,
                                      "models": [name for name, _ in models]})
    keyed = enumerate((model, p) for _, model in models for p in widths)
    cells = iter(_map_cells(
        [partial(_compressibility_cell, model, p, kappa, int(replicates),
                 RngStream(master_seed, k)) for k, (model, p) in keyed],
        workers))
    rows = []
    for name, model in models:
        ratios, err_fracs = [], []
        for p in widths:
            ratio, err, frac = next(cells)
            ratios.append(ratio)
            err_fracs.append(frac)
            rows.append([name, p, ratio, err, frac])
        a = model.limit.location_a
        if a == 0.0:
            report.add_check(f"{name}/ratio_final", ratios[-1], 0.0, 0.05)
            report.add_check(f"{name}/pruning_error_fraction_final",
                             err_fracs[-1], 0.0, 0.05)
        elif model.name in _GP_RATIO_LIMITS:
            report.add_check(f"{name}/ratio_vs_limit", ratios[-1],
                             _GP_RATIO_LIMITS[model.name](kappa), 0.03)
        else:
            report.add_estimate(f"{name}/ratio_final", ratios[-1], 0.0)
    report.add_table(
        "compressibility",
        ["model", "width", "mass_ratio", "pruning_error", "error_fraction"],
        rows)
    return report


@stats.register_experiment("verify")
def verify(config, master_seed, replicates, workers):
    """Fast invariant battery: closed-form kernel moments against quadrature,
    generalized-inverse contracts, convergence conditions for the bundled
    models, and the extreme-value law."""
    report = ExperimentReport("verify", config={})
    # kappa closed forms vs quadrature
    grid = np.linspace(-0.9, 0.9, 19)
    for alpha in (0.0, 0.5, 1.0, 2.0):
        diff = max(abs(kernels.kappa(alpha, r)
                       - kernels.j_alpha_quadrature(alpha, math.acos(r)))
                   for r in grid)
        report.add_check(f"kappa_vs_quadrature/alpha={alpha}", diff, 0.0, 1e-8)
    # inverse tail round trip on analytic measures
    measures = {
        "stable(0.5,1)": levy.stable_measure(0.5, 1.0),
        "gamma(1,1)": levy.gamma_measure(1.0, 1.0),
        "beta(1,0.5)": levy.beta_measure(1.0, 0.5),
        "gg_pareto(4,0.5,5)": levy.gg_pareto_measure(4.0, 0.5, 5.0),
    }
    for name, m in measures.items():
        xs = np.geomspace(*_round_trip_range(m), 40)
        us = levy.tail_intensity(m, xs)
        back = levy.inverse_tail_intensity(m, us)
        rel = float(np.max(np.abs(back - xs) / xs))
        report.add_check(f"inverse_tail_roundtrip/{name}", rel, 0.0, 1e-9)
    # convergence of the finite-width construction to (a, rho) per model
    from .models import check_id_conditions
    n = max(int(replicates), 200)
    models = sorted(standard_models().items())
    subs = _map_cells([partial(check_id_conditions, model, [2000], [0.5, 2.0],
                               [1.0], n, RngStream(master_seed, 5000 + mi),
                               p_next=1)
                       for mi, (_, model) in enumerate(models)], workers)
    for (name, _), sub in zip(models, subs):
        for c in sub.checks:
            report.add_check(f"id_conditions/{name}/{c.label}", c.value,
                             c.target, c.tolerance)
    # largest-variance law for the horseshoe at p = 2000
    rng = RngStream(master_seed, 9000)
    hs = standard_models(["horseshoe"])["horseshoe"]
    lam_max = hs.sample(2000, rng, n=max(int(replicates), 500)).max(axis=1)
    ks = stats.ks_distance(lam_max,
                           lambda x: stats.order_stat_cdf(
                               hs.limit.measure, 1, x))
    report.add_check("max_variance_law/horseshoe_p2000", ks, 0.0,
                     1.628 / math.sqrt(lam_max.size) + 0.01)
    return report


def _round_trip_range(m):
    hi = m.support[1]
    if math.isfinite(hi):
        return hi * 1e-9, hi * (1.0 - 1e-6)
    # keep the upper end where the tail is still representable (exponentially
    # decaying tails underflow quickly)
    ref = levy.inverse_tail_intensity(m, 1.0)
    return ref * 1e-6, ref * 50.0
