"""Finite networks, the single-input infinite-width limit, and the random
kernel sampler."""

import math

import numpy as np
import pytest
from scipy import stats as st

from levynet import kernels, network
from levynet.activations import RELU, TANH, activation_from_name
from levynet.levy import LevyTriple, atomic_measure
from levynet.models import make_model
from levynet.network import (NetworkConfig, _cond_phi_outer, forward,
                             forward_law, sample_lambdas, sample_network,
                             sample_random_kernel,
                             simulate_limit_single_input, stable_case_scale,
                             variance_recursion)
from levynet.rng import RngStream
from levynet.stats import ks_distance


def _cfg(model, widths=(100,), d_in=1, d_out=1, sigma_b=0.0, act=RELU):
    return NetworkConfig(d_in, d_out, list(widths), 1.0, sigma_b, act,
                         [model] * len(widths))


def test_config_validation_and_roundtrip():
    det = make_model("deterministic", c1=1.0)
    with pytest.raises(ValueError):
        _cfg(det, widths=(0,))
    with pytest.raises(ValueError):
        NetworkConfig(1, 1, [5], 1.0, 0.0, RELU, [det, det])
    with pytest.raises(ValueError):
        NetworkConfig(1, 1, [5], 0.0, 0.0, RELU, [det])
    cfg = NetworkConfig(2, 3, [5, 7], 1.5, 0.2, RELU, [det, det])
    again = NetworkConfig.from_json(cfg.to_json())
    assert again.to_dict() == cfg.to_dict()
    assert cfg.layer_sizes() == [2, 5, 7, 3]


def test_forward_shapes_and_weight_scaling():
    det = make_model("deterministic", c1=1.0)
    cfg = NetworkConfig(3, 2, [10, 20], 1.0, 0.1, RELU, [det, det])
    rng = RngStream(50, 0)
    real = sample_network(cfg, rng)
    assert [lam.size for lam in real.lambdas] == [3, 10, 20]
    assert real.weight(1).shape == (3, 10)
    assert real.weight(3).shape == (20, 2)
    # input layer carries the fixed variance 1/d_in
    assert np.allclose(real.weight(1), real.V[0] / math.sqrt(3))
    zs = forward(real, cfg, np.ones(3))
    assert [z.shape for z in zs] == [(10,), (20,), (2,)]
    zb = forward(real, cfg, np.ones((5, 3)))
    assert [z.shape for z in zb] == [(5, 10), (5, 20), (5, 2)]
    assert np.allclose(zb[2][0], zs[2])
    with pytest.raises(ValueError):
        forward(real, cfg, np.ones(4))


def test_deterministic_model_is_classic_iid_network():
    # with lambda = c1/p the hidden weights are iid N(0, sigma_v^2 c1 / p)
    det = make_model("deterministic", c1=2.0)
    cfg = _cfg(det, widths=(4000,))
    real = sample_network(cfg, RngStream(51, 0))
    w = real.weight(2)
    assert abs(w.std() * math.sqrt(4000 / 2.0) - 1.0) < 0.03


def test_sample_lambdas_is_sample_networks_variance_draw():
    beta = make_model("beta", eta=1.0, b=0.5)
    cfg = NetworkConfig(2, 3, [20, 15], 1.0, 0.1, RELU, [beta, beta])
    lams = sample_lambdas(cfg, RngStream(52, 0))
    real = sample_network(cfg, RngStream(52, 0))
    assert len(lams) == len(real.lambdas) == 3
    for a, b in zip(lams, real.lambdas):
        assert a.tobytes() == b.tobytes()


class _OrthonormalBlocks:
    """Stand-in for a stream whose normal blocks are orthonormal along their
    long side: a (k, p) block with k <= p has orthonormal rows, so a layer's
    draw Z = L G satisfies Z Z^T = L L^T exactly, and an (atoms, rank) block
    has orthonormal columns, so marks zeta = G F^T satisfy
    zeta^T zeta = F F^T.  Every other draw comes from a seeded generator."""

    def __init__(self):
        self._calls = 0
        self._gen = np.random.default_rng(63)
        self.generator = self

    def standard_normal(self, shape):
        rows, cols = shape
        base = np.random.default_rng(self._calls).standard_normal(
            (max(rows, cols), min(rows, cols)))
        self._calls += 1
        q = np.linalg.qr(base)[0]
        return q if rows > cols else q.T

    def __getattr__(self, name):
        return getattr(self._gen, name)


def test_forward_law_layer_covariance_is_exact():
    # K^{(l)} = sigma_b^2 + sigma_v^2 H diag(lambda keep) H^T per layer, for
    # distinct, identical, collinear and masked rows
    beta = make_model("beta", eta=1.0, b=0.5)
    cfg = NetworkConfig(3, 6, [7, 8], 1.3, 0.4, RELU, [beta, beta])
    lams = sample_lambdas(cfg, RngStream(53, 0))
    x = np.array([[1.0, 2.0, 3.0], [1.0, 2.0, 3.0], [2.0, 4.0, 6.0],
                  [0.5, -1.0, 2.0], [0.5, -1.0, 2.0]])
    keep1 = np.ones((5, 7), dtype=bool)
    keep1[2, [1, 3]] = False
    keep1[4, :4] = False
    keep = [keep1, np.ones(8, dtype=bool)]
    zs = forward_law(cfg, lams, x, _OrthonormalBlocks(), keep=keep)
    assert [z.shape for z in zs] == [(5, 7), (5, 8), (5, 6)]
    h, masks = x, [1.0] + keep
    for z, lam, mask in zip(zs, lams, masks):
        hm = h * mask
        k = cfg.sigma_b ** 2 + cfg.sigma_v ** 2 * (hm * lam) @ hm.T
        assert np.allclose(z @ z.T, k, rtol=1e-12, atol=1e-12)
        h = np.maximum(z, 0.0)
    # identical inputs share every layer bit for bit until a mask separates
    # them
    assert all(np.array_equal(z[0], z[1]) for z in zs)
    assert np.array_equal(zs[0][3], zs[0][4])
    assert not np.array_equal(zs[1][3], zs[1][4])
    # a 1-d input squeezes like forward
    single = forward_law(cfg, lams, x[0], RngStream(53, 1))
    assert [z.shape for z in single] == [(7,), (8,), (6,)]


def test_forward_law_matches_explicit_weights_in_law():
    # depth 2 with bias and two distinct inputs: moments of the final layer,
    # including the cross-output term the shared variances induce, from
    # explicit V and from the conditional law on independent streams
    beta = make_model("beta", eta=1.0, b=0.5)
    cfg = NetworkConfig(2, 2, [30, 30], 1.0, 0.2, RELU, [beta, beta])
    x = np.array([[1.0, 0.5], [-0.3, 1.2]])
    n = 3000

    def stats(z):
        return [z[0, 0] ** 2, z[1, 0] ** 2, z[0, 0] * z[1, 0],
                z[0, 0] ** 2 * z[0, 1] ** 2]

    rng_v, rng_law = RngStream(54, 0), RngStream(54, 1)
    explicit = np.array([stats(forward(sample_network(cfg, rng_v), cfg, x)[-1])
                         for _ in range(n)])
    law = np.array([stats(forward_law(cfg, sample_lambdas(cfg, rng_law), x,
                                      rng_law)[-1])
                    for _ in range(n)])
    se = np.sqrt((explicit.var(axis=0) + law.var(axis=0)) / n)
    z = np.abs(explicit.mean(axis=0) - law.mean(axis=0)) / se
    assert np.all(z <= 4.0), z


def test_variance_recursion_exact():
    det = make_model("deterministic", c1=2.0)
    cfg = NetworkConfig(1, 1, [5, 5], 1.0, 0.3, RELU, [det, det])
    x = np.array([2.0])
    out = variance_recursion(cfg, x)
    expect = [0.09 + 4.0]
    for _ in range(2):
        expect.append(0.09 + 0.5 * 2.0 * expect[-1])
    assert np.allclose(out, expect)


def test_variance_recursion_rejects_infinite_m1():
    hs = make_model("horseshoe", c=1.0)
    with pytest.raises(ValueError, match="M1 infinite"):
        variance_recursion(_cfg(hs), np.array([1.0]))


def test_limit_mean_matches_variance_recursion():
    beta = make_model("beta", eta=1.0, b=0.5)
    cfg = _cfg(beta, widths=(10,))
    x = np.array([1.0])
    chains, _ = simulate_limit_single_input(cfg, x, RngStream(52, 0),
                                            replicates=40_000)
    expect = variance_recursion(cfg, x)
    for l in range(2):
        se = chains[:, l].std() / math.sqrt(chains.shape[0])
        assert abs(chains[:, l].mean() - expect[l]) < max(4 * se, 1e-12)


def test_limit_output_horseshoe_is_cauchy():
    # the one-hidden-layer horseshoe limit output is Cauchy; c = 4 makes it
    # standard (ReLU transform: Sigma^{(2)} = IG(1/2, (c/4) pi^2 / 4 / pi) ...)
    hs = make_model("horseshoe", c=4.0)
    cfg = _cfg(hs)
    _, out = simulate_limit_single_input(cfg, np.array([1.0]),
                                         RngStream(53, 0), replicates=40_000)
    assert ks_distance(out[:, 0], st.cauchy().cdf) < 0.011


def test_limit_output_beta_is_sqrt_gamma_normal():
    # beta(1, 1/2): Sigma^{(2)} ~ Gamma(1/2, rate 1/2), output = sqrt(Sigma) N
    beta = make_model("beta", eta=1.0, b=0.5)
    cfg = _cfg(beta)
    chains, out = simulate_limit_single_input(cfg, np.array([1.0]),
                                              RngStream(54, 0),
                                              replicates=40_000)
    assert ks_distance(chains[:, 1], st.gamma(0.5, scale=2.0).cdf) < 0.011
    # the output is then a Student-like scale mixture; check via chi2(1) ratio
    assert ks_distance(out[:, 0] ** 2 / chains[:, 1], st.chi2(1).cdf) < 0.011


@pytest.mark.parametrize("act", ["relu", "linear"])
@pytest.mark.parametrize("name, params", [
    ("regularized_horseshoe", {"c": 2.0}),
    ("beta", {"eta": 1.0, "b": 1.5}),
])
def test_limit_through_generic_chi2_mixture_matches_recursion(name, params, act):
    # neither model has a closed-form activation transform, so the limit
    # samples the generic chi-square mixture of mix_with_chi2
    cfg = _cfg(make_model(name, **params), widths=(10,),
               act=activation_from_name(act))
    x = np.array([1.0])
    chains, _ = simulate_limit_single_input(cfg, x, RngStream(62, 0),
                                            replicates=1000)
    expect = variance_recursion(cfg, x)[-1]
    se = chains[:, -1].std() / math.sqrt(chains.shape[0])
    assert abs(chains[:, -1].mean() - expect) < 4 * se


def test_relu_conditional_outer_matches_kappa_closed_form():
    # rows: a direction, its negative (rho = -1), a multiple (rho = 1), a zero
    # row (zero variance) and two generic rows
    a = np.array([0.6, -0.3, 0.2])
    rows = np.vstack([a, -a, 2.5 * a, np.zeros(3),
                      [0.1, 0.9, -0.4], [-0.7, 0.2, 0.5]])
    kmat = rows @ rows.T
    got = _cond_phi_outer(kmat, RELU, None)
    d = np.sqrt(np.diag(kmat))
    for i in range(len(rows)):
        for j in range(len(rows)):
            if d[i] * d[j] == 0.0:
                assert got[i, j] == 0.0
                continue
            rho = min(max(kmat[i, j] / (d[i] * d[j]), -1.0), 1.0)
            expect = d[i] * d[j] * kernels.kappa(1.0, rho) / (2 * math.pi)
            assert abs(got[i, j] - expect) <= 1e-14 * max(1.0, abs(expect))


def test_limit_requires_homogeneous_activation():
    det = make_model("deterministic", c1=1.0)
    with pytest.raises(ValueError):
        simulate_limit_single_input(_cfg(det, act=TANH), np.array([1.0]),
                                    RngStream(1, 0))


def test_limit_outputs_share_sigma_across_coordinates():
    hs = make_model("horseshoe", c=1.0)
    cfg = _cfg(hs, d_out=3)
    chains, out = simulate_limit_single_input(cfg, np.array([1.0]),
                                              RngStream(55, 0),
                                              replicates=2000)
    # given Sigma the coordinates are iid normals: normalized squares ~ chi2(1)
    ratio = out ** 2 / chains[:, -1][:, None]
    assert ks_distance(ratio.ravel(), st.chi2(1).cdf) < 0.03


def test_trivial_kernel_is_deterministic():
    det = make_model("deterministic", c1=2.0)
    cfg = NetworkConfig(2, 1, [5], 1.0, 0.3, RELU, [det])
    inputs = np.array([[1.0, 0.0], [0.6, 0.8]])
    ks = sample_random_kernel(cfg, inputs, RngStream(56, 0))
    k1 = 0.09 + inputs @ inputs.T / 2.0
    assert np.allclose(ks[0], k1)
    # trivial measure: K^{(2)} = sigma_b^2 + 2 sqrt(K K') kappa_1(rho) / 2 pi
    d = np.sqrt(np.diag(k1))
    rho = k1 / np.outer(d, d)
    kap = np.vectorize(lambda r: kernels.kappa(1.0, min(max(r, -1), 1)))(rho)
    expect = 0.09 + 2.0 * np.outer(d, d) * kap / (2 * math.pi)
    assert np.allclose(ks[1], expect, rtol=1e-10)


class _CountingNormals:
    """A stream that counts the standard normals it hands out."""

    def __init__(self, rng):
        self._gen = rng.generator
        self.generator = self
        self.normals = 0

    def standard_normal(self, shape):
        self.normals += int(np.prod(shape))
        return self._gen.standard_normal(shape)

    def __getattr__(self, name):
        return getattr(self._gen, name)


def _atom_limit(a, loc, mass):
    class _Model:
        limit = LevyTriple(a, atomic_measure([(loc, mass)]))
    return _Model()


@pytest.mark.parametrize("x, sigma_b", [
    # duplicate and collinear rows, bias; factor [x / sqrt(3) | 0.4] is 5 x 4
    (np.array([[1.0, 2.0, 3.0], [1.0, 2.0, 3.0], [2.0, 4.0, 6.0],
               [0.5, -1.0, 2.0], [-0.5, 1.0, -2.0]]), 0.4),
    # d_in + 1 > n: the 2 x 4 factor is compressed by a thin QR
    (np.array([[1.0, 2.0, 3.0], [1.0, 2.0, 3.0]]), 0.4),
    (np.array([[1.0, -2.0, 0.5, 0.0, 3.0, 1.0],
               [2.0, -4.0, 1.0, 0.0, 6.0, 2.0],
               [0.0, 1.0, 1.0, 1.0, 0.0, 0.0]]), 0.0),
])
def test_kernel_layer1_marks_have_exact_input_covariance(x, sigma_b):
    # a linear layer whose atoms all sit at loc adds sigma_v^2 loc
    # zeta^T zeta to K^{(2)}; the marks' (atoms, rank) normal block has
    # orthonormal columns (about 40 atoms, rank <= 4), so zeta^T zeta is the
    # covariance of the marks, and it must be K^{(1)} exactly
    a, loc = 0.3, 0.7
    d_in = x.shape[1]
    cfg = NetworkConfig(d_in, 1, [1], 1.3, sigma_b,
                        activation_from_name("linear"),
                        [_atom_limit(a, loc, 40.0)])
    k1, k2 = sample_random_kernel(cfg, x, _OrthonormalBlocks())
    expect1 = sigma_b ** 2 + 1.3 ** 2 * x @ x.T / d_in
    assert np.allclose(k1, expect1, rtol=1e-12, atol=1e-12)
    expect2 = sigma_b ** 2 + 1.3 ** 2 * (a + loc) * expect1
    assert np.allclose(k2, expect2, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("n, d_in, sigma_b, rank", [
    (5, 2, 0.3, 3), (2, 4, 0.3, 2), (6, 3, 0.0, 3)])
def test_kernel_layer1_draws_atoms_times_rank_normals(monkeypatch, n, d_in,
                                                      sigma_b, rank):
    atoms = []
    sample_ppp = network.levy.sample_ppp

    def recording(*args, **kwargs):
        pp = sample_ppp(*args, **kwargs)
        atoms.append(pp.atoms.size)
        return pp

    monkeypatch.setattr(network.levy, "sample_ppp", recording)
    beta = make_model("beta", eta=2.0, b=0.5)
    cfg = NetworkConfig(d_in, 1, [1], 1.0, sigma_b, RELU, [beta])
    x = np.random.default_rng(n).standard_normal((n, d_in))
    rng = _CountingNormals(RngStream(64, n))
    sample_random_kernel(cfg, x, rng)
    assert atoms[0] > 10
    assert rng.normals == atoms[0] * rank


def test_kernel_diag_matches_sigma_chain_law():
    # n = 1 input: the kernel diagonal recursion and the single-input Sigma
    # chain sample the same law
    beta = make_model("beta", eta=1.0, b=0.5)
    cfg = _cfg(beta)
    x = np.array([1.0])
    n = 3000
    diag = np.array([sample_random_kernel(cfg, x[None, :],
                                          RngStream(57, i))[1][0, 0]
                     for i in range(n)])
    chains, _ = simulate_limit_single_input(cfg, x, RngStream(58, 0),
                                            replicates=n)
    both = np.sort(np.concatenate([diag, chains[:, 1]]))
    f1 = np.searchsorted(np.sort(diag), both, side="right") / n
    f2 = np.searchsorted(np.sort(chains[:, 1]), both, side="right") / n
    assert float(np.max(np.abs(f1 - f2))) < 1.95 * math.sqrt(2.0 / n)


def test_kernel_conditional_moments_beta_model():
    # given K^{(1)}, the next-layer off-diagonal entry has the closed
    # conditional mean and variance of the finite-moment measure
    beta_par = 10.0
    model = make_model("beta", eta=beta_par, b=beta_par / 2.0)
    cfg = NetworkConfig(2, 1, [1], 1.0, 0.0, RELU, [model])
    rho = 0.5
    r = math.sqrt(2.0)
    inputs = np.vstack([[r, 0.0], [r * rho, r * math.sqrt(1 - rho ** 2)]])
    n = 4000
    vals = np.array([sample_random_kernel(cfg, inputs,
                                          RngStream(59, i))[1][0, 1]
                     for i in range(n)])
    k1 = inputs @ inputs.T / 2.0
    mean, var = kernels.kernel_cond_stats(k1, model.limit, 1.0, 0.0)
    se_mean = vals.std() / math.sqrt(n)
    assert abs(vals.mean() - mean) < 4 * se_mean
    se_var = np.std((vals - vals.mean()) ** 2) / math.sqrt(n)
    assert abs(vals.var() - var) < 4 * se_var


def test_kernel_input_validation():
    det = make_model("deterministic", c1=1.0)
    cfg = NetworkConfig(2, 1, [5], 1.0, 0.0, RELU, [det])
    with pytest.raises(ValueError):
        sample_random_kernel(cfg, np.ones((65, 2)), RngStream(1, 0))
    with pytest.raises(ValueError):
        sample_random_kernel(cfg, np.ones((2, 3)), RngStream(1, 0))


def test_stable_case_scale_single_layer():
    # one hidden ReLU layer, |x|^2/d_in = 1: r = E[(X+)^{2a}]^{1/a}
    ig_stable = make_model("inverse_gamma_stable", alpha=0.5)
    cfg = _cfg(ig_stable)
    scales = stable_case_scale(cfg, np.array([1.0]), 0.5)
    assert len(scales) == 1
    assert abs(scales[0] - kernels.relu_moment(0.5, 1.0) ** 2.0) < 1e-12
    # alpha = 1, linear: moment doubles and the exponent is 1
    cfg_lin = _cfg(ig_stable, act=activation_from_name("linear"))
    scales = stable_case_scale(cfg_lin, np.array([1.0]), 1.0)
    assert abs(scales[0] - 2.0 * kernels.relu_moment(1.0, 1.0)) < 1e-12


def test_stable_case_scale_depth_needs_rng():
    ig_stable = make_model("inverse_gamma_stable", alpha=0.5)
    cfg = _cfg(ig_stable, widths=(10, 10))
    with pytest.raises(ValueError):
        stable_case_scale(cfg, np.array([1.0]), 0.5)
    scales = stable_case_scale(cfg, np.array([1.0]), 0.5, rng=RngStream(60, 0))
    assert len(scales) == 2 and all(s > 0 for s in scales)


def test_stable_layer_kernel_law():
    # with Stable(alpha, 1) layer variances, K^{(2)}(x, x) is Stable(alpha, r)
    alpha = 0.5
    model = make_model("inverse_gamma_stable", alpha=alpha)
    cfg = _cfg(model)
    x = np.array([1.0])
    r = stable_case_scale(cfg, x, alpha)[0]
    n = 3000
    diag = np.array([sample_random_kernel(cfg, x[None, :],
                                          RngStream(61, i))[1][0, 0]
                     for i in range(n)])
    # Stable(1/2, r) = IG(1/2, r pi / 4)
    assert ks_distance(diag, st.invgamma(0.5, scale=r * math.pi / 4.0).cdf) \
        < 1.95 / math.sqrt(n) + 0.01
