"""Registered experiments at small scale: table shapes, estimates, and
determinism."""

import math
import tracemalloc
from functools import partial

import numpy as np
import pytest
from scipy import stats as st

from levynet import stats
from levynet.activations import RELU
from levynet.experiments import (STANDARD_MODEL_NAMES, _map_chunks,
                                 _max_weight_chunk, _output_chunk,
                                 standard_models)
from levynet.models import check_id_conditions, make_model
from levynet.rng import RngStream
from levynet.stats import experiment_names, run_experiment


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


def test_deterministic_error_fraction_is_over_the_rows_mean():
    # the denominator is c_phi times the mean row sum of the n variance rows
    # the mass ratio reads; deterministic rows draw nothing from the stream
    n = 20
    model = standard_models(["deterministic"])["deterministic"]
    spec = {"name": "compressibility", "widths": [50, 200, 1000],
            "models": ["deterministic"]}
    rows = run_experiment(spec, 13, n).tables["compressibility"]["rows"]
    assert [r[1] for r in rows] == [50, 200, 1000]
    for _, p, _, err, frac in rows:
        lam = model.sample(p, RngStream(0, 0), p_next=1, n=n)
        assert frac == pytest.approx(err / (0.5 * lam.sum(axis=1).mean()),
                                     rel=1e-12, abs=0.0)


def _denominator_terms(name, p, n):
    """(c_phi sum_j lambda_j over n variance rows, Z^2 of n outputs from
    `_output_chunk`) at width p, from separate streams."""
    model = standard_models([name])[name]
    cond = RELU.c_phi * model.sample(p, RngStream(61, 0), p_next=1,
                                     n=n).sum(axis=1)
    return cond, _outputs(model, p, n, 62, 0, 1)[:, 0] ** 2


@pytest.mark.parametrize("name", ["beta", "inverse_gamma"])
def test_conditional_denominator_matches_output_second_moment(name):
    # E[Z^2 | lambda] = c_phi sum_j lambda_j keeps the mean of Z^2
    n = 4000
    cond, z2 = _denominator_terms(name, 500, n)
    se = math.sqrt(cond.var(ddof=1) / n + z2.var(ddof=1) / n)
    assert abs(cond.mean() - z2.mean()) <= 4 * se


def test_conditional_denominator_has_the_smaller_variance():
    # Var Z^2 = Var E[Z^2 | lambda] + E Var(Z^2 | lambda)
    cond, z2 = _denominator_terms("beta", 500, 4000)
    assert cond.var(ddof=1) < z2.var(ddof=1)


def test_verify_all_checks_pass():
    rep = run_experiment("verify", 11, 200)
    failed = [c.label for c in rep.checks if not c.passed]
    assert rep.checks and not failed, failed


def test_experiments_deterministic():
    spec = {"name": "output_corr", "widths": [50], "models": ["beta"]}
    a = run_experiment(spec, 12, 100, worker_count=1)
    b = run_experiment(spec, 12, 100, worker_count=3)
    assert a.to_json() == b.to_json()


# ---------------------------------------------------------------------------
# _output_chunk: the conditional law over the active ReLU units
# ---------------------------------------------------------------------------

def _outputs(model, p, n, seed, job, workers, d_out=1):
    """n one-hidden-layer outputs, shape (n, d_out), chunk i by `_output_chunk`
    from RngStream(seed, 1000 job + i)."""
    return _map_chunks([(partial(_output_chunk, model, p, d_out), job)],
                       n, seed, workers)[0]


def _explicit_weights_outputs(model, p, n, seed, d_out):
    """The reference: n outputs Z_k = sum_j sqrt(lambda_j) relu(g_j) v_jk
    from explicit variances, pre-activations and read-out weights."""
    rng = RngStream(seed, 0)
    gen = rng.generator
    lam = model.sample(p, rng, p_next=d_out, n=n)
    sl = np.sqrt(lam) * np.maximum(gen.standard_normal((n, p)), 0.0)
    return np.stack([np.einsum("ij,ij->i", sl, gen.standard_normal((n, p)))
                     for _ in range(d_out)], axis=1)


@pytest.mark.parametrize("name", ["beta", "horseshoe"])
def test_batched_outputs_match_explicit_weights_in_law(name):
    model = standard_models([name])[name]
    p, n = 200, 4000
    z = _outputs(model, p, n, 21, 0, 2, d_out=2)
    ref = _explicit_weights_outputs(model, p, n, 22, d_out=2)
    for stat in (lambda a: a[:, 0], lambda a: a[:, 1],
                 lambda a: a[:, 0] ** 2 * a[:, 1] ** 2):
        assert st.ks_2samp(stat(z), stat(ref)).pvalue > 1e-3


@pytest.mark.parametrize("name", ["deterministic", "beta"])
def test_batched_outputs_second_moment(name):
    # E[Z^2] = p E[lambda] E[relu(g)^2] = p E[lambda] / 2
    model = standard_models([name])[name]
    p, n = 200, 20_000
    mean_lam = 1.0 / p if name == "deterministic" else (1 / p) / (1 / p + 0.5)
    z2 = _outputs(model, p, n, 23, 0, 1)[:, 0] ** 2
    z = (z2.mean() - p * mean_lam / 2) / (z2.std() / math.sqrt(n))
    assert abs(z) <= 4


def test_batched_outputs_width_one_half_zero():
    model = standard_models(["beta"])["beta"]
    n = 2000
    z = _outputs(model, 1, n, 24, 0, 1)[:, 0]
    zero = float(np.mean(z == 0.0))
    assert abs(zero - 0.5) <= 4 * math.sqrt(0.25 / n)
    # single-row chunks, some with no active unit: they run and give 0
    singles = np.array([_outputs(model, 1, 1, 25, i, 1)[0, 0]
                        for i in range(20)])
    assert np.any(singles == 0.0) and np.any(singles != 0.0)


class _CountingModel:
    """Delegates to a variance model and records each request's size."""

    def __init__(self, model):
        self.model = model
        self.requests = []

    def sample(self, p, rng, p_next=None, n=1):
        self.requests.append(p * n)
        return self.model.sample(p, rng, p_next=p_next, n=n)


def test_batched_outputs_draw_variances_only_for_active_units():
    model = _CountingModel(standard_models(["beta"])["beta"])
    p, n, seed, job = 200, 1200, 26, 7
    _outputs(model, p, n, seed, job, 1)
    # each chunk's first draw is its per-row count of active units
    active = [int(RngStream(seed, 1000 * job + i).generator
                  .binomial(p, 0.5, size=rows).sum())
              for i, rows in enumerate((500, 500, 200))]
    assert model.requests == [p * -(-k // p) for k in active]
    assert all(k <= r < k + p for k, r in zip(active, model.requests))


def _one_pass_chunk(model, p, rows, rng, d_out):
    """The reference for `_output_chunk`: every squared normal drawn at once
    and every row summed by one np.bincount."""
    gen = rng.generator
    active = gen.binomial(p, 0.5, size=rows)
    total = int(active.sum())
    lam = model.sample(p, rng, p_next=d_out, n=-(-total // p)).ravel()[:total]
    chi2 = gen.standard_normal(total) ** 2
    s = np.bincount(np.repeat(np.arange(rows), active),
                    weights=lam * chi2, minlength=rows)
    return np.sqrt(s)[:, None] * gen.standard_normal((rows, d_out))


@pytest.mark.parametrize("p, rows, block", [
    (1, 300, 1 << 16),     # half the rows have no active unit, one block
    (3, 200, 5),           # rows with none, blocks of 1 or 2 rows
    (20, 50, 5),           # every row alone is longer than a block
    (8000, 200, 1 << 16),  # about 800 000 active units, many blocks
])
def test_blocked_row_sums_match_one_pass(monkeypatch, p, rows, block):
    monkeypatch.setattr("levynet.rng._BLOCK", block)
    model = standard_models(["beta"])["beta"]
    got = _output_chunk(model, p, 2, rows, RngStream(51, 3))
    ref = _one_pass_chunk(model, p, rows, RngStream(51, 3), 2)
    assert np.array_equal(got, ref)
    if p <= 3:
        assert np.any(got == 0.0)


def _traced_peak(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_output_chunk_holds_one_variance_array():
    # 200 rows at p = 8000 hold about 800 000 active units: 6.4 MB of
    # variances, and squared normals in blocks of 65 536
    peak = _traced_peak(_outputs, make_model("beta", eta=1, b=0.5),
                        8000, 200, 0, 5, 1)
    assert peak <= 12e6


@pytest.mark.parametrize("name", ["deterministic", "beta", "generalized_bfry"])
def test_max_weight_chunk_memory(name):
    # 500 rows at p = 2000 are 8 MB per array: the variances and the
    # read-out normals, plus the generalized BFRY's second factor
    model = standard_models([name])[name]
    peak = _traced_peak(_max_weight_chunk, model, [2000], 500,
                        RngStream(0, 1))
    assert peak <= 2.5 * 8e6


@pytest.mark.parametrize("name", sorted(experiment_names()))
@pytest.mark.parametrize("replicates", [0, -1])
def test_experiments_reject_nonpositive_replicates(name, replicates):
    with pytest.raises(ValueError, match="replicates must be >= 1"):
        run_experiment(name, 1, replicates)


def test_output_dist_names_the_hill_minimum():
    spec = {"name": "output_dist", "width": 50, "models": ["deterministic"]}
    with pytest.raises(ValueError, match="at least 200 replicates"):
        run_experiment(spec, 1, 199)
    assert run_experiment(spec, 1, 200).estimates


def test_output_dist_names_model_and_width_when_outputs_are_zero():
    # at width 1 about half of the outputs are exactly 0 (the one ReLU unit
    # is inactive), too few nonzero ones for the Hill estimate
    spec = {"name": "output_dist", "width": 1, "models": ["beta"]}
    with pytest.raises(ValueError, match="model beta at width 1 gave only"):
        run_experiment(spec, 1, 300)


@pytest.mark.parametrize("spec, replicates", [
    # 500 001 replicates make 1 001 chunks per job: job 0's chunk 1 000 would
    # read stream key 1 000, job 1's chunk 0
    ({"name": "output_corr", "widths": [10, 20],
      "models": ["deterministic"]}, 500_001),
    ({"name": "output_dist", "width": 10,
      "models": ["deterministic", "inverse_gamma"]}, 500_001),
    ({"name": "max_weight", "widths": [10],
      "models": ["deterministic", "beta"]}, 500_001),
    ({"name": "truncation_error", "alphas": [0.5, 0.3]}, 500_001),
], ids=lambda v: v["name"] if isinstance(v, dict) else str(v))
def test_experiments_refuse_to_share_a_stream(monkeypatch, spec, replicates):
    # each check runs before the first draw
    keys = _record_stream_keys(monkeypatch)
    with pytest.raises(ValueError, match="which another cell reads"):
        run_experiment(spec, 1, replicates)
    assert keys == []


@pytest.mark.parametrize("spec, replicates, shape", [
    # past the 2 500 replicates and 1 000 draws at which these experiments'
    # strided stream keys used to reach another cell's
    ({"name": "compressibility", "widths": [10, 20],
      "models": ["deterministic"]}, 2600, (2, 5)),
    ({"name": "kernel_realizations", "betas": [1.0, 2.0], "n_rho": 3}, 1001,
     (2 * 3, 3 + 1001)),
    # past the 5 000 replicates at which width 0's chunk 10 used to read
    # width 1's chunk 0
    ({"name": "output_corr", "widths": [10, 20],
      "models": ["deterministic"]}, 5500, (2, 3)),
], ids=["compressibility-2600", "kernel_realizations-1001", "output_corr-5500"])
def test_cells_take_any_replicate_count(spec, replicates, shape):
    (table,) = run_experiment(spec, 1, replicates).tables.values()
    assert (len(table["rows"]), len(table["columns"])) == shape


def _record_stream_keys(monkeypatch):
    """The (master_seed, stream_index) of every RngStream constructed from
    here on, in order."""
    keys = []
    init = RngStream.__init__

    def recording(self, master_seed, stream_index=0):
        init(self, master_seed, stream_index)
        keys.append((self.master_seed, self.stream_index))

    monkeypatch.setattr(RngStream, "__init__", recording)
    return keys


def test_misspelt_config_key_is_refused_before_any_draw(monkeypatch):
    keys = _record_stream_keys(monkeypatch)
    spec = {"name": "compressibility", "widht": [500]}
    with pytest.raises(ValueError, match=r"compressibility does not read "
                                         r"the config key\(s\) \['widht'\]"):
        run_experiment(spec, 1, 200)
    assert keys == []


_SMALL_SPECS = {
    "output_dist": ({"width": 20, "models": ["deterministic"]}, 200),
    "output_corr": ({"widths": [10], "models": ["beta"]}, 10),
    "max_weight": ({"widths": [10], "models": ["beta"]}, 10),
    "truncation_error": ({"alphas": [0.5], "width": 10, "depth": 1,
                          "eps_grid": [1e-3, 1e-2]}, 4),
    "kernel_realizations": ({"betas": [1.0], "n_rho": 3}, 2),
    "compressibility": ({"widths": [10], "models": ["beta"]}, 4),
    "verify": ({}, 200),
}


@pytest.mark.parametrize("name", sorted(experiment_names()))
def test_report_config_echoes_the_declared_keys(name):
    config, replicates = _SMALL_SPECS[name]
    rep = run_experiment({"name": name, **config}, 2, replicates)
    assert set(rep.config) == stats._CONFIG_KEYS[name]


def test_cells_construct_distinct_streams(monkeypatch):
    # each cell reads one stream of its own: a key built by two cells would
    # make their rows correlated estimates
    keys = _record_stream_keys(monkeypatch)
    spec = {"name": "compressibility", "widths": [10, 20],
            "models": ["deterministic", "beta"]}
    run_experiment(spec, 3, 10)
    assert len(keys) == 4 and len(set(keys)) == len(keys), keys
    keys.clear()
    # verify's convergence checks: one stream per model, two widths each
    for mi, name in enumerate(["deterministic", "beta"]):
        check_id_conditions(standard_models([name])[name], [10, 20], [0.5],
                            [1.0], 10, RngStream(3, 5000 + mi), p_next=1)
    assert len(set(keys)) == len(keys), keys


@pytest.mark.parametrize("spec, jobs", [
    ({"name": "output_corr", "widths": [10, 20],
      "models": ["deterministic", "beta"]}, 4),
    ({"name": "truncation_error", "alphas": [0.5, 0.3], "width": 10,
      "depth": 1, "eps_grid": [1e-3, 1e-2]}, 2),
], ids=["output_corr", "truncation_error"])
def test_chunk_i_of_job_k_reads_key_1000k_plus_i(monkeypatch, spec, jobs):
    # 1 200 replicates are 3 chunks per job: (model, width) pairs models
    # outer for output_corr, alphas for truncation_error
    keys = _record_stream_keys(monkeypatch)
    run_experiment(spec, 3, 1200)
    assert len(set(keys)) == len(keys), keys
    assert set(keys) == {(3, 1000 * k + i)
                         for k in range(jobs) for i in range(3)}


def test_a_model_without_its_parameters_is_named():
    spec = {"name": "output_corr", "models": ["bernoulli"]}
    with pytest.raises(ValueError, match="'bernoulli' needs the parameter 'c'"):
        run_experiment(spec, 1, 10)
