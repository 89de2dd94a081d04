"""Registered experiments at small scale: table shapes, estimates, and
determinism."""

import math

import numpy as np
import pytest
from scipy import stats as st

from levynet.experiments import STANDARD_MODEL_NAMES, standard_models
from levynet.stats import run_experiment


def test_standard_models_registry():
    models = standard_models()
    assert set(models) == set(STANDARD_MODEL_NAMES)
    assert set(STANDARD_MODEL_NAMES) == {
        "deterministic", "inverse_gamma", "beta", "horseshoe",
        "generalized_bfry"}
    # explicit spec dicts are accepted alongside names
    models = standard_models([{"name": "beta",
                               "params": {"eta": 2.0, "b": 1.0}}])
    assert models["beta"].params == {"eta": 2.0, "b": 1.0}


def test_output_dist_small():
    spec = {"name": "output_dist", "width": 100, "models": ["deterministic"]}
    rep = run_experiment(spec, 5, 2000)
    hist = rep.tables["histogram"]
    assert hist["columns"] == ["model", "output", "density"]
    assert len(hist["rows"]) == 81
    dens = np.array([r[2] for r in hist["rows"]])
    centers = np.array([r[1] for r in hist["rows"]])
    widths = np.diff(centers).mean()
    assert abs(float((dens * widths).sum()) - 1.0) < 0.05
    tail = rep.tables["tail"]
    surv = [r[2] for r in tail["rows"]]
    assert all(0 < s <= 1 for s in surv)
    # deterministic c1 = 1, relu: Var Z = C_phi = 1/2
    std = next(e for e in rep.estimates if e.label == "deterministic/std")
    assert abs(std.value - math.sqrt(0.5)) < 0.05


def test_output_corr_small():
    spec = {"name": "output_corr", "widths": [50, 100],
            "models": ["deterministic", "beta"]}
    rep = run_experiment(spec, 6, 300)
    tab = rep.tables["correlation"]
    assert tab["columns"] == ["model", "width", "sq_output_corr"]
    assert len(tab["rows"]) == 4
    assert all(-1.0 <= r[2] <= 1.0 for r in tab["rows"])
    # no width-2000 column means no target checks at this scale
    assert rep.checks == []


def test_max_weight_small():
    spec = {"name": "max_weight", "widths": [50, 100],
            "models": ["deterministic", "beta"]}
    rep = run_experiment(spec, 7, 400)
    tab = rep.tables["max_weight_cdf"]
    det_rows = [r for r in tab["rows"] if r[0] == "deterministic"]
    beta_rows = [r for r in tab["rows"] if r[0] == "beta" and r[1] == 100]
    # trivial limiting measure: the limit column is blank
    assert all(r[4] == "" for r in det_rows)
    cdf_emp = np.array([r[3] for r in beta_rows])
    cdf_lim = np.array([r[4] for r in beta_rows], dtype=float)
    assert np.all(np.diff(cdf_emp) >= 0) and np.all(np.diff(cdf_lim) >= -1e-12)
    assert np.all((cdf_lim >= 0) & (cdf_lim <= 1))
    # at p = 100 the empirical law already tracks the limit loosely
    assert float(np.max(np.abs(cdf_emp - cdf_lim))) < 0.15


def test_truncation_error_small():
    spec = {"name": "truncation_error", "alphas": [0.5], "width": 200,
            "depth": 1, "eps_grid": [1e-4, 3e-4, 1e-3, 3e-3]}
    rep = run_experiment(spec, 8, 100)
    tab = rep.tables["truncation_error"]
    assert tab["columns"] == ["alpha", "eps", "mc_error", "std_error", "bound"]
    assert len(tab["rows"]) == 4
    err = np.array([r[2] for r in tab["rows"]])
    bound = np.array([r[4] for r in tab["rows"]])
    assert np.all(err > 0) and np.all(np.diff(err) > 0)
    assert np.all(bound > err)
    assert any(e.label == "alpha=0.5/loglog_slope" for e in rep.estimates)


def test_kernel_realizations_small():
    spec = {"name": "kernel_realizations", "betas": [10.0], "n_rho": 5}
    rep = run_experiment(spec, 9, 3)
    tab = rep.tables["kernel_draws"]
    assert tab["columns"] == ["beta", "rho", "gp_kernel",
                              "draw_1", "draw_2", "draw_3"]
    assert len(tab["rows"]) == 5
    rhos = [r[1] for r in tab["rows"]]
    assert rhos == [-1.0, -0.5, 0.0, 0.5, 1.0]
    # at rho = 1 the reference curve hits the diagonal |x|^2 / d_in = 1
    assert abs(tab["rows"][-1][2] - 1.0) < 1e-12


def test_compressibility_small():
    spec = {"name": "compressibility", "widths": [100, 200],
            "models": ["deterministic"], "kappa": 0.5}
    rep = run_experiment(spec, 10, 20)
    tab = rep.tables["compressibility"]
    assert len(tab["rows"]) == 2
    # equal variances tie at the threshold, so the full mass is prunable
    assert all(r[2] == 1.0 for r in tab["rows"])
    check = next(c for c in rep.checks
                 if c.label == "deterministic/ratio_vs_limit")
    assert check.value == 1.0 and check.target == 1.0 and check.passed


def test_compressibility_gp_regime_targets():
    spec = {"name": "compressibility", "widths": [200],
            "models": ["inverse_gamma", "group_lasso_gamma"], "kappa": 0.5}
    rep = run_experiment(spec, 10, 20)
    check = next(c for c in rep.checks
                 if c.label == "inverse_gamma/ratio_vs_limit")
    # lambda = (2/p)/G, G ~ Gamma(2): the pruned mass is e^{-median(G)}
    assert check.target == pytest.approx(math.exp(-st.gamma(2.0).median()),
                                         rel=1e-12)
    assert check.tolerance == 0.03
    # a GP-regime model without a derived limit reports an estimate only
    assert not [c for c in rep.checks if c.label.startswith("group_lasso")]
    assert [e.label for e in rep.estimates] == ["group_lasso_gamma/ratio_final"]


def test_verify_all_checks_pass():
    rep = run_experiment("verify", 11, 200)
    failed = [c.label for c in rep.checks if not c.passed]
    assert rep.checks and not failed, failed


def test_experiments_deterministic():
    spec = {"name": "output_corr", "widths": [50], "models": ["beta"]}
    a = run_experiment(spec, 12, 100, worker_count=1)
    b = run_experiment(spec, 12, 100, worker_count=3)
    assert a.to_json() == b.to_json()
