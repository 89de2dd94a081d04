"""Registered, seed-deterministic experiments behind the command-line tool.

Each experiment reproduces one of the simulation studies for single-hidden-
layer (or depth-3 for the truncation study) ReLU networks with univariate
inputs, sigma_v = 1 and no bias: output distributions, squared-output
correlations across widths, largest-weight laws, the epsilon-pruning error
sweep, random kernel realisations, and compressibility ratios.  Replicates are
processed in fixed-size chunks keyed by chunk index, so results are identical
for any worker count.
"""

import math

import numpy as np
from scipy import special as sp

from . import kernels, levy, pruning, stats
from .activations import RELU
from .models import make_model, model_from_spec
from .network import NetworkConfig, sample_random_kernel
from .reporting import ExperimentReport
from .rng import RngStream

__all__ = ["standard_models", "STANDARD_MODEL_NAMES"]

# canonical parameter choices for the simulation studies: unit limiting mean
# E[sum_j lambda_j] where it exists, and the half-Cauchy-squared horseshoe
STANDARD_MODEL_NAMES = ("deterministic", "inverse_gamma", "beta", "horseshoe",
                        "generalized_bfry")

_CHUNK = 500


def standard_models(names=None):
    names = names or STANDARD_MODEL_NAMES
    out = {}
    for name in names:
        if isinstance(name, dict):
            model = model_from_spec(name)
            out[model.name] = model
        elif name == "deterministic":
            out[name] = make_model("deterministic", c1=1.0)
        elif name == "inverse_gamma":
            out[name] = make_model("inverse_gamma")
        elif name == "beta":
            out[name] = make_model("beta", eta=1.0, b=0.5)
        elif name == "horseshoe":
            out[name] = make_model("horseshoe", c=1.0)
        elif name == "generalized_bfry":
            out[name] = make_model("generalized_bfry", eta=4.0, alpha=0.5,
                                   tau=5.0)
        else:
            out[name] = make_model(name)
    return out


def _batched_outputs(model, p, n, master_seed, stream_base, workers,
                     d_out=1):
    """n draws of the width-p one-hidden-layer ReLU outputs for a unit input:
    Z_k = sum_j sqrt(lambda_j) relu(g_j) v_jk, shape (n, d_out)."""
    n = int(n)
    n_chunks = (n + _CHUNK - 1) // _CHUNK

    def one_chunk(i):
        rng = RngStream(master_seed, stream_base + i)
        gen = rng.generator
        rows = min(_CHUNK, n - i * _CHUNK)
        lam = model.sample(p, rng, p_next=d_out, n=rows)
        h = np.maximum(gen.standard_normal((rows, p)), 0.0)
        sl = np.sqrt(lam) * h
        return np.stack([np.einsum("ij,ij->i", sl,
                                   gen.standard_normal((rows, p)))
                         for _ in range(d_out)], axis=1)

    return np.concatenate(stats.map_replicates(one_chunk, n_chunks, workers))


@stats.register_experiment("output_dist")
def output_dist(config, master_seed, replicates, workers):
    width = int(config.get("width", 2000))
    models = standard_models(config.get("models"))
    report = ExperimentReport("output_dist",
                              config={"width": width,
                                      "models": sorted(models)})
    hist_rows, tail_rows = [], []
    for mi, (name, model) in enumerate(sorted(models.items())):
        z = _batched_outputs(model, width, replicates, master_seed,
                             1000 * mi, workers)[:, 0]
        report.add_estimate(f"{name}/std", z.std(),
                            z.std() / math.sqrt(2 * z.size))
        az = np.abs(z[z != 0])
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
    models = standard_models(config.get("models"))
    report = ExperimentReport("output_corr",
                              config={"widths": widths,
                                      "models": sorted(models)})
    rows = []
    for mi, (name, model) in enumerate(sorted(models.items())):
        for wi, p in enumerate(widths):
            z = _batched_outputs(model, p, replicates, master_seed,
                                 1000 * mi + 10 * wi, workers, d_out=2)
            corr = float(np.corrcoef(z[:, 0] ** 2, z[:, 1] ** 2)[0, 1])
            rows.append([name, p, corr])
            if p == 2000:
                if name in ("deterministic", "inverse_gamma"):
                    report.add_check(f"{name}/sq_corr_p2000", corr, 0.0, 0.02)
                elif name == "beta":
                    report.add_check(f"{name}/sq_corr_p2000", corr, 0.30, 0.08)
    report.add_table("correlation", ["model", "width", "sq_output_corr"], rows)
    return report


def _max_weight_limit_cdf(m, xs):
    """Limit CDF of the largest |weight| at the points xs: exp(-nubar(x^2))
    with nubar the tail of the chi-square mixture of the variance measure,
    evaluated at every point."""
    mixed = levy.mix_with_chi2(m)
    return np.exp(-levy.tail_intensity(mixed, np.asarray(xs, dtype=float) ** 2))


@stats.register_experiment("max_weight")
def max_weight(config, master_seed, replicates, workers):
    widths = [int(w) for w in config.get("widths", (100, 500, 1000, 2000))]
    models = standard_models(config.get(
        "models", ("deterministic", "beta", "generalized_bfry")))
    report = ExperimentReport("max_weight",
                              config={"widths": widths,
                                      "models": sorted(models)})
    rows = []
    n = int(replicates)
    n_chunks = (n + _CHUNK - 1) // _CHUNK
    for mi, (name, model) in enumerate(sorted(models.items())):

        def one_chunk(i, model=model, mi=mi):
            rng = RngStream(master_seed, 1000 * mi + i)
            out = []
            for p in widths:
                lam = model.sample(p, rng, p_next=1,
                                   n=min(_CHUNK, n - i * _CHUNK))
                v = rng.generator.standard_normal(lam.shape)
                out.append(np.max(np.sqrt(lam) * np.abs(v), axis=1))
            return np.stack(out, axis=1)

        maxw = np.concatenate(stats.map_replicates(one_chunk, n_chunks,
                                                   workers))
        trivial = model.limit.measure.kind == "trivial"
        per_width = []
        for wi, p in enumerate(widths):
            col = np.sort(maxw[:, wi])
            report.add_estimate(f"{name}/median_max_weight_p{p}",
                                float(np.median(col)), 0.0)
            ks = np.unique(np.linspace(0, col.size - 1, 200).astype(int))
            per_width.append((p, ks, col[ks]))
        all_pts = np.concatenate([pts for _, _, pts in per_width])
        usable = not trivial and np.all(all_pts > 0)
        all_limits = (_max_weight_limit_cdf(model.limit.measure, all_pts)
                      if usable else None)
        pos = 0
        for p, ks, pts in per_width:
            limits = (all_limits[pos:pos + pts.size] if usable
                      else [""] * pts.size)
            pos += pts.size
            rows += [[name, p, float(x), (k + 1) / maxw.shape[0],
                      float(lim) if usable else lim]
                     for k, x, lim in zip(ks, pts, limits)]
    report.add_table(
        "max_weight_cdf",
        ["model", "width", "max_abs_weight", "empirical_cdf", "limit_cdf"],
        rows)
    return report


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
    n_chunks = (n + _CHUNK - 1) // _CHUNK
    for ai, alpha in enumerate(alphas):
        model = make_model("generalized_bfry", eta=eta, alpha=alpha, tau=tau)
        cfg = NetworkConfig(1, 1, [p] * depth, 1.0, 0.0, RELU, [model] * depth)

        def one_chunk(i, cfg=cfg):
            rows_i = min(_CHUNK, n - i * _CHUNK)
            m, se = pruning.epsilon_sweep_error(
                cfg, x, eps_grid, rows_i, RngStream(master_seed, 1000 * ai + i))
            return rows_i * m, rows_i * (se ** 2 * rows_i + m ** 2)

        parts = stats.map_replicates(one_chunk, n_chunks, workers)
        mean = np.sum([a for a, _ in parts], axis=0) / n
        second = np.sum([b for _, b in parts], axis=0) / n
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
    1000 k + i).  The draws run serially in the calling thread,
    whatever `workers` says: on a 2-vCPU machine 2 replicate threads made
    them about 2x slower than 1, and the threads race to fill the measure's
    lazy atom-floor and inverse-tail caches, so each is built twice."""
    betas = [float(b) for b in config.get("betas", (1.0, 10.0, 1000.0))]
    n_rho = int(config.get("n_rho", 41))
    rhos = np.linspace(-1.0, 1.0, n_rho)
    n_draws = int(replicates) if replicates else 20
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
            cfg, inputs, RngStream(master_seed, 1000 * bi + i))[1][0, 1:]
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


@stats.register_experiment("compressibility")
def compressibility(config, master_seed, replicates, workers):
    widths = [int(w) for w in config.get("widths", (500, 2000, 8000))]
    kappa = float(config.get("kappa", 0.5))
    models = standard_models(config.get("models"))
    report = ExperimentReport("compressibility",
                              config={"widths": widths, "kappa": kappa,
                                      "models": sorted(models)})
    x = np.array([1.0])
    rows = []
    n = int(replicates)
    for mi, (name, model) in enumerate(sorted(models.items())):
        ratios, err_fracs = [], []
        for wi, p in enumerate(widths):
            rng = RngStream(master_seed, 1000 * mi + 10 * wi)
            lam = model.sample(p, rng, p_next=1, n=n)
            ratio = float(np.mean([pruning.compressibility_ratio(row, kappa)
                                   for row in lam]))
            cfg = NetworkConfig(1, 1, [p], 1.0, 0.0, RELU, [model])
            rule = pruning.PruningRule("kappa", kappa=kappa)
            err, _ = pruning.paired_pruning_error(cfg, x, rule, n,
                                                  rng.substream(1))
            z2 = np.mean(_batched_outputs(model, p, max(n, 200), master_seed,
                                          1000 * mi + 10 * wi + 5,
                                          workers)[:, 0] ** 2)
            frac = float(err[-1] / z2)
            ratios.append(ratio)
            err_fracs.append(frac)
            rows.append([name, p, ratio, float(err[-1]), frac])
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
    for mi, (name, model) in enumerate(sorted(standard_models().items())):
        rng = RngStream(master_seed, 5000 + mi)
        sub = check_id_conditions(model, [2000], [0.5, 2.0], [1.0], n, rng,
                                  p_next=1)
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
