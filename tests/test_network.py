"""Finite networks, the single-input infinite-width limit, and the random
kernel sampler."""

import math
import time

import numpy as np
import pytest
from scipy import integrate
from scipy import stats as st

from levynet import kernels, levy, network
from levynet.activations import (RELU, TANH, ActivationKind,
                                 activation_from_name, leaky_relu)
from levynet.levy import LevyTriple, atomic_measure
from levynet.models import make_model
from levynet.network import (NetworkConfig, _cond_phi_outer, _psd_factor,
                             forward, forward_law, sample_lambdas,
                             sample_network, sample_random_kernel,
                             simulate_limit_single_input, variance_recursion)
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


def test_config_refuses_non_integer_sizes_and_non_finite_scales():
    det = make_model("deterministic", c1=1.0)
    good = dict(d_in=2, d_out=1, widths=[5], sigma_v=1.0, sigma_b=0.0,
                activation=RELU, variance_models=[det])
    for key, value in (("widths", [2.5]), ("widths", [True]), ("d_in", 2.0),
                       ("d_out", True), ("sigma_v", math.nan),
                       ("sigma_v", math.inf), ("sigma_b", math.nan),
                       ("sigma_b", math.inf)):
        with pytest.raises(ValueError):
            NetworkConfig(**{**good, key: value})
    # numpy integers pass and are stored as ints
    cfg = NetworkConfig(**{**good, "d_in": np.int64(2),
                           "widths": [np.int32(5)]})
    assert type(cfg.d_in) is int and type(cfg.widths[0]) is int
    # a JSON size of 2.5 is refused, not truncated to 2
    spec = {**cfg.to_dict(), "d_in": 2.5}
    with pytest.raises(ValueError, match="d_in must be an integer"):
        NetworkConfig.from_dict(spec)


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


def test_forward_law_empty_batch_gives_empty_layers_like_forward():
    beta = make_model("beta", eta=1.0, b=0.5)
    cfg = NetworkConfig(3, 2, [4, 5], 1.0, 0.3, RELU, [beta, beta])
    lams = sample_lambdas(cfg, RngStream(53, 2))
    x = np.zeros((0, 3))
    zs = forward_law(cfg, lams, x, RngStream(53, 3))
    oracle = forward(sample_network(cfg, RngStream(53, 4)), cfg, x)
    assert [z.shape for z in zs] == [z.shape for z in oracle] == [
        (0, 4), (0, 5), (0, 2)]


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


@pytest.mark.parametrize("act", ["relu", "linear", "leaky_relu"])
@pytest.mark.parametrize("name, params", [
    ("regularized_horseshoe", {"c": 2.0}),
    ("beta", {"eta": 1.0, "b": 1.5}),
    ("deterministic", {"c1": 1.0}),
    ("bernoulli", {"c": 2.0}),
    ("inverse_gamma", {}),
    ("generalized_bfry", {"eta": 4.0, "alpha": 0.5, "tau": 5.0}),
    ("spike_slab", {"c": 2.0, "slab": {"kind": "gamma", "shape": 2.0,
                                       "rate": 3.0}}),
    ("perman_generic", {"measure": {"name": "gamma",
                                    "params": {"eta": 1.0, "rate": 1.0}}}),
])
def test_limit_through_generic_chi2_mixture_matches_recursion(name, params, act):
    # every bundled model with M1 < inf: the limit marks each layer's own
    # measure (a truncated series, or exact compound-Poisson draws for a
    # finite one), and its mean follows the expected-variance recursion;
    # the trivial measures of deterministic and inverse_gamma give a
    # deterministic chain, equal to the recursion up to rounding
    cfg = _cfg(make_model(name, **params), widths=(10,),
               act=activation_from_name(act))
    x = np.array([1.0])
    chains, _ = simulate_limit_single_input(cfg, x, RngStream(62, 0),
                                            replicates=1000)
    expect = variance_recursion(cfg, x)[-1]
    se = chains[:, -1].std() / math.sqrt(chains.shape[0])
    assert abs(chains[:, -1].mean() - expect) < max(4 * se, 1e-12 * expect)


def test_limit_of_a_finite_measure_is_exact_compound_poisson():
    # spike-and-slab c = 2 with a Gamma(2, 3) slab under ReLU: Sigma^{(2)} =
    # sum_j lam_j relu(zeta_j)^2 over Poisson(2) atoms, exactly 0 when every
    # mark is negative, which has probability sum_k e^{-2} 2^k / k! 2^{-k}
    # = e^{-1}; a truncated series of the transformed measure never gives 0
    slab = {"kind": "gamma", "shape": 2.0, "rate": 3.0}
    cfg = _cfg(make_model("spike_slab", c=2.0, slab=slab), widths=(10,))
    x = np.array([1.0])
    n = 20_000
    chains, _ = simulate_limit_single_input(cfg, x, RngStream(66, 0),
                                            replicates=n)
    zero = chains[:, 1] == 0.0
    p0 = math.exp(-1.0)
    assert abs(zero.mean() - p0) < 4 * math.sqrt(p0 * (1 - p0) / n)
    expect = variance_recursion(cfg, x)[1]
    se = chains[:, 1].std() / math.sqrt(n)
    assert abs(chains[:, 1].mean() - expect) < 4 * se


@pytest.mark.parametrize("replicates", [0, -1])
def test_limit_rejects_fewer_than_one_replicate(replicates):
    cfg = _cfg(make_model("beta", eta=1.0, b=0.5))
    with pytest.raises(ValueError,
                       match=f"replicates must be >= 1, got {replicates}"):
        simulate_limit_single_input(cfg, np.array([1.0]), RngStream(1, 0),
                                    replicates=replicates)


@pytest.mark.parametrize("replicates", [2.7, True])
def test_limit_takes_an_integer_replicate_count(replicates):
    cfg = _cfg(make_model("beta", eta=1.0, b=0.5))
    with pytest.raises(ValueError, match="replicates must be an integer"):
        simulate_limit_single_input(cfg, np.array([1.0]), RngStream(1, 0),
                                    replicates=replicates)


@pytest.mark.parametrize("call", [
    lambda cfg, x: forward(sample_network(cfg, RngStream(54, 0)), cfg, x),
    lambda cfg, x: forward_law(cfg, sample_lambdas(cfg, RngStream(54, 0)), x,
                               RngStream(54, 1)),
], ids=["forward", "forward_law"])
def test_forward_passes_refuse_a_non_finite_row(call):
    beta = make_model("beta", eta=1.0, b=0.5)
    cfg = NetworkConfig(3, 2, [4, 5], 1.0, 0.3, RELU, [beta, beta])
    for x in (np.array([[0.2, 0.4, -1.0], [1.0, math.nan, 0.0]]),
              np.array([1.0, math.nan, 0.0]), np.array([[math.inf, 0.0, 0.0]])):
        with pytest.raises(ValueError, match="entries must be finite"):
            call(cfg, x)


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


def test_leaky_relu_conditional_outer_closed_form():
    beta = 0.2
    act = leaky_relu(beta)
    got = _cond_phi_outer(np.array([[1.0, 0.3], [0.3, 1.0]]), act, None)
    # (1.04 kappa_1(0.3) - 0.4 kappa_1(-0.3)) / (2 pi)
    assert abs(got[0, 1] - 0.2144782) < 1e-7
    assert np.allclose(np.diag(got), act.c_phi, rtol=0, atol=1e-15)


def test_leaky_relu_closed_form_matches_monte_carlo_branch():
    beta = 0.2
    act = leaky_relu(beta)
    # the same function marked non-homogeneous takes the Monte-Carlo branch
    mc_act = ActivationKind("leaky_relu_mc", act.fn, False, beta=beta)
    a = np.array([0.6, -0.3, 0.2])
    rows = np.vstack([a, -a, 2.5 * a, np.zeros(3),
                      [0.1, 0.9, -0.4], [-0.7, 0.2, 0.5]])
    kmat = rows @ rows.T
    exact = _cond_phi_outer(kmat, act, None)
    factor = np.linalg.qr(rows.T, mode="r").T
    mc = _cond_phi_outer(kmat, mc_act, RngStream(63, 0).generator, factor)
    # sd(phi(u) phi(v)) <= (E phi(u)^4 E phi(v)^4)^(1/4)
    #                    = d_i d_j sqrt((3/2) (1 + beta^4))
    d = np.sqrt(np.diag(kmat))
    se = (np.outer(d, d) * math.sqrt(1.5 * (1 + beta ** 4))
          / math.sqrt(network._MC_BUDGET))
    assert np.all(np.abs(mc - exact) <= 4 * se)


def _two_half():
    """A homogeneous activation the package does not define, with
    phi(1) = 2 and phi(-1) = -1/2."""
    def fn(x):
        x = np.asarray(x, dtype=float)
        return np.where(x > 0, 2.0 * x, 0.5 * x)
    return ActivationKind("two_half", fn, homogeneous=True)


def test_user_homogeneous_activation_closed_form_matches_monte_carlo():
    act = _two_half()
    assert act.slopes == (2.0, -0.5) and act.c_phi == 2.125
    mc_act = ActivationKind("two_half_mc", act.fn, homogeneous=False)
    a = np.array([0.6, -0.3, 0.2])
    rows = np.vstack([a, -a, 2.5 * a, np.zeros(3),
                      [0.1, 0.9, -0.4], [-0.7, 0.2, 0.5]])
    kmat = rows @ rows.T
    exact = _cond_phi_outer(kmat, act, None)
    factor = np.linalg.qr(rows.T, mode="r").T
    mc = _cond_phi_outer(kmat, mc_act, RngStream(64, 0).generator, factor)
    # sd(phi(u) phi(v)) <= (E phi(u)^4 E phi(v)^4)^(1/4)
    #                    = d_i d_j sqrt((3/2) (p^4 + q^4))
    d = np.sqrt(np.diag(kmat))
    se = (np.outer(d, d) * math.sqrt(1.5 * (2.0 ** 4 + 0.5 ** 4))
          / math.sqrt(network._MC_BUDGET))
    assert np.all(np.abs(mc - exact) <= 4 * se)


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


def _tanh_outer_by_gauss_hermite(kmat, nodes=80):
    """E[tanh(z_i) tanh(z_j)] over z ~ N(0, kmat), each entry by a 2-D
    Gauss-Hermite rule on the Cholesky factor of its 2 x 2 block."""
    g, w = np.polynomial.hermite_e.hermegauss(nodes)
    w2 = np.outer(w, w) / w.sum() ** 2
    out = np.empty_like(kmat)
    for i, j in np.ndindex(kmat.shape):
        a = math.sqrt(kmat[i, i])
        b = kmat[i, j] / a
        c = math.sqrt(max(kmat[j, j] - b * b, 0.0))
        zi, zj = a * g[:, None], b * g[:, None] + c * g[None, :]
        out[i, j] = float((w2 * np.tanh(zi) * np.tanh(zj)).sum())
    return out


def test_tanh_kernel_takes_the_monte_carlo_outer_moment():
    # a deterministic layer adds no atoms, so K^{(2)} = sigma_b^2 + sigma_v^2
    # c1 E[tanh(z) tanh(z')], z ~ N(0, K^{(1)}), the expectation taken by
    # _cond_phi_outer's Monte-Carlo branch
    cfg = NetworkConfig(2, 1, [1], 1.0, 0.1, TANH,
                        [make_model("deterministic", c1=1.0)])
    inputs = np.array([[1.0, 0.0], [0.0, 1.0], [0.6, 0.8]])
    n = 20
    draws = np.array([sample_random_kernel(cfg, inputs, RngStream(65, i))[1]
                      for i in range(n)])
    k1 = 0.01 + inputs @ inputs.T / 2.0
    expect = 0.01 + _tanh_outer_by_gauss_hermite(k1)
    se = draws.std(axis=0, ddof=1) / math.sqrt(n)
    assert np.all(np.abs(draws.mean(axis=0) - expect) <= 4 * se)


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


_DUPLICATE_COLLINEAR_X = np.array([[1.0, 2.0, 3.0], [1.0, 2.0, 3.0],
                                   [2.0, 4.0, 6.0], [0.5, -1.0, 2.0],
                                   [-0.5, 1.0, -2.0]])


@pytest.mark.parametrize("x, sigma_b, depth", [
    # duplicate and collinear rows with a bias: K^{(1)} of rank 3
    (_DUPLICATE_COLLINEAR_X, 0.4, 1),
    # two equal rows: K^{(1)} of rank 1, below n = 2 and d_in + 1 = 4
    (np.array([[1.0, 2.0, 3.0], [1.0, 2.0, 3.0]]), 0.4, 1),
    (np.array([[1.0, -2.0, 0.5, 0.0, 3.0, 1.0],
               [2.0, -4.0, 1.0, 0.0, 6.0, 2.0],
               [0.0, 1.0, 1.0, 1.0, 0.0, 0.0]]), 0.0, 1),
    # layer 2 marks the rank-3 K^{(2)}
    (_DUPLICATE_COLLINEAR_X, 0.4, 2),
    # an input 1e-9 times the scale of the others keeps its own relative
    # accuracy at every layer
    (np.vstack([[1.0, 2.0, 3.0], 1e-9 * np.array([0.5, -1.0, 2.0])]), 0.0, 2),
    (np.vstack([_DUPLICATE_COLLINEAR_X, 1e-9 * np.array([0.5, 1.0, -1.0])]),
     0.0, 2),
])
def test_kernel_layer1_marks_have_exact_input_covariance(x, sigma_b, depth):
    # a linear layer whose atoms all sit at loc adds sigma_v^2 loc
    # zeta^T zeta to K^{(l+1)}; the marks' (atoms, rank) normal block has
    # orthonormal columns (about 40 atoms, rank <= 4), so zeta^T zeta is the
    # covariance of the marks, and it must be K^{(l)} exactly, entry by entry
    # to 1e-14 sqrt(K_ii K_jj)
    a, loc = 0.3, 0.7
    d_in = x.shape[1]
    cfg = NetworkConfig(d_in, 1, [1] * depth, 1.3, sigma_b,
                        activation_from_name("linear"),
                        [_atom_limit(a, loc, 40.0)] * depth)
    ks = sample_random_kernel(cfg, x, _OrthonormalBlocks())
    expects = [sigma_b ** 2 + 1.3 ** 2 * x @ x.T / d_in]
    expects += [sigma_b ** 2 + 1.3 ** 2 * (a + loc) * k for k in ks[:-1]]
    for k, expect in zip(ks, expects):
        scale = np.sqrt(np.diag(expect))
        assert np.all(np.abs(k - expect) <= 1e-14 * np.outer(scale, scale))


def _normal_rows(n, d_in, repeat_first=False):
    x = np.random.default_rng(n).standard_normal((n, d_in))
    if repeat_first:
        x[-1] = x[0]
    return x


@pytest.mark.parametrize("x, sigma_b, ranks", [
    (_normal_rows(5, 2), 0.3, [3]), (_normal_rows(2, 4), 0.3, [2]),
    (_normal_rows(6, 3), 0.0, [3]),
    # depth 2 on 4 inputs, the last a copy of the first: K^{(2)} has rank 3,
    # so its factor marks each atom of layer 2 with 3 normals, not 4
    (_normal_rows(4, 2, repeat_first=True), 0.3, [3, 3]),
    # duplicate and collinear rows with a bias: rank 3, not
    # min(n, d_in + 1) = 4
    (_DUPLICATE_COLLINEAR_X, 0.4, [3])])
def test_kernel_layer1_draws_atoms_times_rank_normals(monkeypatch, x,
                                                      sigma_b, ranks):
    atoms = []
    sample_ppp_matrix = network.levy.sample_ppp_matrix

    def recording(*args, **kwargs):
        out = sample_ppp_matrix(*args, **kwargs)
        atoms.append(np.count_nonzero(out[0]))
        return out

    monkeypatch.setattr(network.levy, "sample_ppp_matrix", recording)
    beta = make_model("beta", eta=2.0, b=0.5)
    depth = len(ranks)
    cfg = NetworkConfig(x.shape[1], 1, [1] * depth, 1.0, sigma_b, RELU,
                        [beta] * depth)
    rng = _CountingNormals(RngStream(64, x.shape[0]))
    ks = sample_random_kernel(cfg, x, rng)
    assert min(atoms) > 10
    assert [np.linalg.matrix_rank(k) for k in ks[:depth]] == ranks
    assert rng.normals == sum(k * r for k, r in zip(atoms, ranks))


_TRUNCATED_MODELS = {
    "generalized_bfry": ("generalized_bfry", {"eta": 4.0, "alpha": 0.5, "tau": 5.0}),
    "beta_10_5": ("beta", {"eta": 10.0, "b": 5.0}),
}
# sigma_v = 5 and two inputs of very different norms: a configuration where
# floors read off the kernel's trace would undercut the measure's own floor
_WIDE_X = np.array([[1.0, 0.3], [0.02, 0.01]])


def _wide_cfg(name):
    model = make_model(_TRUNCATED_MODELS[name][0], **_TRUNCATED_MODELS[name][1])
    return NetworkConfig(2, 1, [10] * 3, 5.0, 0.0, RELU, [model] * 3)


@pytest.mark.parametrize("name", sorted(_TRUNCATED_MODELS))
def test_kernel_draw_does_not_depend_on_earlier_draws(name):
    fresh = sample_random_kernel(_wide_cfg(name), _WIDE_X, RngStream(7, 3))
    cfg = _wide_cfg(name)
    for k in range(100, 200):
        sample_random_kernel(cfg, _WIDE_X, RngStream(7, k))
    later = sample_random_kernel(cfg, _WIDE_X, RngStream(7, 3))
    assert all(a.tobytes() == b.tobytes() for a, b in zip(fresh, later))


@pytest.mark.parametrize("name", sorted(_TRUNCATED_MODELS))
def test_kernel_layers_truncate_at_the_default_floor(monkeypatch, name):
    floors = []
    sample_ppp_matrix = network.levy.sample_ppp_matrix

    def recording(*args, **kwargs):
        out = sample_ppp_matrix(*args, **kwargs)
        floors.append(out[1])
        return out

    monkeypatch.setattr(network.levy, "sample_ppp_matrix", recording)
    cfg = _wide_cfg(name)
    sample_random_kernel(cfg, _WIDE_X, RngStream(7, 3))
    expect = levy.default_atom_floor(cfg.variance_models[0].limit.measure)
    assert floors == [expect] * 3


def test_stable_kernel_draw_near_alpha_one_is_bounded(monkeypatch):
    # inverse_gamma_stable(0.9): the variance budget keeps about 6.9e4 atoms
    # a row, where a floor of 1e-8 x_ref kept 1.6e7.  A depth-1 draw on two
    # inputs, its set-up included, stays under 1e5 atoms and takes under 1 s
    atoms = []
    sample_ppp_matrix = network.levy.sample_ppp_matrix

    def recording(*args, **kwargs):
        out = sample_ppp_matrix(*args, **kwargs)
        atoms.append(np.count_nonzero(out[0]))
        return out

    monkeypatch.setattr(network.levy, "sample_ppp_matrix", recording)
    model = make_model("inverse_gamma_stable", alpha=0.9)
    cfg = NetworkConfig(2, 1, [10], 1.0, 0.0, RELU, [model])
    start = time.perf_counter()
    ks = sample_random_kernel(cfg, _WIDE_X, RngStream(65, 0))
    elapsed = time.perf_counter() - start
    assert levy._truncation(model.limit.measure, None).mass < 1e5
    assert len(atoms) == 1 and 0 < atoms[0] < 1e5 < levy.MAX_ROW_ATOMS
    assert np.all(np.isfinite(ks[1])) and elapsed < 1.0


def test_slab_moments_and_recursion_are_exact():
    # c = 1.5 times the lognormal(-3, 0.01) law, whose narrow bump sits far
    # from x = 1: M_k = c exp(k mu + k^2 sigma^2 / 2)
    slab = make_model("spike_slab", c=1.5,
                      slab={"kind": "lognormal", "mu": -3.0, "sigma": 0.01})
    m1, m2 = (1.5 * math.exp(k * -3.0 + k * k * 0.01 ** 2 / 2.0) for k in (1, 2))
    meas = slab.limit.measure
    for got, exact in ((levy.moment(meas, 1), m1), (levy.moment(meas, 2), m2)):
        assert abs(got - exact) <= 1e-12 * exact
    out = variance_recursion(_cfg(slab, widths=(10, 10)), np.array([1.0]))
    expect = [1.0, 0.5 * m1, 0.25 * m1 * m1]
    assert np.all(np.abs(out - expect) <= 1e-12 * np.array(expect))


def test_kernel_diag_matches_sigma_chain_law():
    # n = 1 input: the kernel diagonal, drawn by marking the beta measure,
    # and the single-input Sigma chain through the ID law of the activation
    # transform sample the same law
    beta = make_model("beta", eta=1.0, b=0.5)
    cfg = _cfg(beta)
    x = np.array([1.0])
    n = 3000
    diag = np.array([sample_random_kernel(cfg, x[None, :],
                                          RngStream(57, i))[1][0, 0]
                     for i in range(n)])
    c, eta = levy.activation_transform(beta.limit, cfg.activation)
    s = levy.sample_id_batch(LevyTriple(c, eta), RngStream(58, 0), n)
    sigma1 = variance_recursion(cfg, x)[0]
    chain = cfg.sigma_b ** 2 + cfg.sigma_v ** 2 * s * sigma1
    both = np.sort(np.concatenate([diag, chain]))
    f1 = np.searchsorted(np.sort(diag), both, side="right") / n
    f2 = np.searchsorted(np.sort(chain), both, side="right") / n
    assert float(np.max(np.abs(f1 - f2))) < 1.95 * math.sqrt(2.0 / n)


def _assert_offdiag_conditional_moments(cfg, seed):
    # over 4000 draws at two unit inputs at rho = 1/2: K^{(L)} is the same on
    # every draw, and given it K^{(L+1)}[0, 1] has the closed conditional
    # mean and variance of the last layer's finite-moment measure
    rho = 0.5
    r = math.sqrt(2.0)
    inputs = np.vstack([[r, 0.0], [r * rho, r * math.sqrt(1 - rho ** 2)]])
    n = 4000
    draws = [sample_random_kernel(cfg, inputs, RngStream(seed, i))
             for i in range(n)]
    k_prev = draws[0][-2]
    assert all(np.array_equal(ks[-2], k_prev) for ks in draws)
    vals = np.array([ks[-1][0, 1] for ks in draws])
    mean, var = kernels.kernel_cond_stats(
        k_prev, cfg.variance_models[-1].limit, cfg.sigma_v, cfg.sigma_b)
    se_mean = vals.std() / math.sqrt(n)
    assert abs(vals.mean() - mean) < 4 * se_mean
    se_var = np.std((vals - vals.mean()) ** 2) / math.sqrt(n)
    assert abs(vals.var() - var) < 4 * se_var


def test_kernel_conditional_moments_beta_model():
    # given K^{(1)}, the next-layer off-diagonal entry has the closed
    # conditional mean and variance of the finite-moment measure
    model = make_model("beta", eta=10.0, b=5.0)
    _assert_offdiag_conditional_moments(
        NetworkConfig(2, 1, [1], 1.0, 0.0, RELU, [model]), 59)


def test_kernel_conditional_moments_below_a_gp_layer():
    # a deterministic first layer fixes K^{(2)}; the eigen-factored beta
    # layer below it must give K^{(3)} the same conditional moments
    det = make_model("deterministic", c1=1.0)
    beta = make_model("beta", eta=10.0, b=5.0)
    _assert_offdiag_conditional_moments(
        NetworkConfig(2, 1, [1, 1], 1.0, 0.0, RELU, [det, beta]), 65)


def test_psd_factor_keeps_the_rank_and_refuses_negative_kernels():
    q = np.linalg.qr(np.random.default_rng(66).standard_normal((4, 4)))[0]
    with pytest.raises(np.linalg.LinAlgError):
        _psd_factor((q * [-1e-6, 0.3, 0.5, 1.0]) @ q.T)
    assert _psd_factor((q * [-1e-12, 0.3, 0.5, 1.0]) @ q.T).shape == (4, 3)
    # the correlations cannot show a negative diagonal, which is refused too
    with pytest.raises(np.linalg.LinAlgError):
        _psd_factor(np.diag([-1e-6, 1.0]))
    # an integer factor with a repeated row: K = A A^T is exact, of rank 2
    a = np.array([[1.0, 2.0], [3.0, -1.0], [1.0, 2.0], [2.0, 0.0], [0.0, 1.0]])
    k = a @ a.T
    f = _psd_factor(k)
    assert f.shape == (5, 2)
    assert np.max(np.abs(f @ f.T - k)) <= 1e-14 * np.max(np.abs(k))


def test_kernel_input_validation():
    det = make_model("deterministic", c1=1.0)
    cfg = NetworkConfig(2, 1, [5], 1.0, 0.0, RELU, [det])
    with pytest.raises(ValueError):
        sample_random_kernel(cfg, np.ones((65, 2)), RngStream(1, 0))
    with pytest.raises(ValueError):
        sample_random_kernel(cfg, np.ones((2, 3)), RngStream(1, 0))


@pytest.mark.parametrize("x, message", [
    (np.zeros((0, 2)), "1 to 64 inputs"),
    (np.array([[1.0, 0.5], [math.nan, 1.0]]), "entries must be finite"),
    (np.array([[1.0, 0.5], [math.inf, 1.0]]), "entries must be finite")],
    ids=["empty", "nan", "inf"])
def test_kernel_refuses_empty_and_non_finite_batches(x, message):
    det = make_model("deterministic", c1=1.0)
    cfg = NetworkConfig(2, 1, [5], 1.0, 0.0, RELU, [det])
    with pytest.raises(ValueError, match=message):
        sample_random_kernel(cfg, x, RngStream(1, 0))


def test_stable_layer_kernel_law():
    # with Stable(alpha, 1) layer variances, K^{(2)}(x, x) is Stable(alpha, r)
    # with r = sigma_v^2 Sigma^{(1)} times the activation image's scale
    alpha = 0.5
    model = make_model("inverse_gamma_stable", alpha=alpha)
    cfg = _cfg(model)
    x = np.array([1.0])
    _, eta = levy.activation_transform(model.limit, cfg.activation)
    sigma1 = cfg.sigma_b ** 2 + cfg.sigma_v ** 2 * float(x @ x) / cfg.d_in
    r = cfg.sigma_v ** 2 * sigma1 * eta.family[2]
    n = 3000
    diag = np.array([sample_random_kernel(cfg, x[None, :],
                                          RngStream(61, i))[1][0, 0]
                     for i in range(n)])
    # Stable(1/2, r) = IG(1/2, r pi / 4)
    assert ks_distance(diag, st.invgamma(0.5, scale=r * math.pi / 4.0).cdf) \
        < 1.95 / math.sqrt(n) + 0.01


@pytest.mark.parametrize("alpha", [0.3, 0.5, 0.8])
def test_stable_case_scale_is_the_transformed_stable_scale(alpha):
    # the stable case's scale r^{(2)} = sigma_v^2 (E|phi(zeta)|^{2 alpha})^{1/alpha},
    # zeta ~ N(0, Sigma^{(1)}), is sigma_v^2 Sigma^{(1)} times the scale of
    # the activation transform of the Stable(alpha, 1) layer measure; the
    # moment by quadrature against the normal density
    model = make_model("inverse_gamma_stable", alpha=alpha)
    x = np.array([0.7, -1.1])
    for act in (RELU, activation_from_name("linear"), leaky_relu(0.5),
                _two_half()):
        sigma1 = 0.4 ** 2 + 1.3 ** 2 * float(x @ x) / 2
        _, eta = levy.activation_transform(model.limit, act)
        assert eta.family[:2] == ("stable", alpha)
        moment = sum(integrate.quad(
            lambda z: abs(float(act(np.array(math.sqrt(sigma1) * z))))
            ** (2.0 * alpha) * st.norm.pdf(z), lo, hi, epsabs=0.0,
            epsrel=1e-12, limit=200)[0] for lo, hi in ((-math.inf, 0.0),
                                                        (0.0, math.inf)))
        expect = 1.3 ** 2 * moment ** (1.0 / alpha)
        got = 1.3 ** 2 * sigma1 * eta.family[2]
        assert abs(got - expect) <= 1e-9 * expect


_SINGLE_INPUT_CALLS = pytest.mark.parametrize("call", [
    lambda cfg, x: simulate_limit_single_input(cfg, x, RngStream(1, 0)),
    variance_recursion,
], ids=["simulate_limit_single_input", "variance_recursion"])


@_SINGLE_INPUT_CALLS
def test_single_input_functions_check_the_input_length(call):
    cfg = _cfg(make_model("inverse_gamma_stable", alpha=0.5))
    with pytest.raises(ValueError, match="input has 2 features, expected 1"):
        call(cfg, np.array([1.0, 2.0]))


@_SINGLE_INPUT_CALLS
def test_single_input_functions_refuse_a_non_finite_input(call):
    cfg = _cfg(make_model("inverse_gamma_stable", alpha=0.5))
    for value in (math.nan, math.inf):
        with pytest.raises(ValueError, match="entries must be finite"):
            call(cfg, np.array([value]))
