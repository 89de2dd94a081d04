"""Levy measures: tails, generalized inverses, transforms, and the Poisson /
infinitely divisible samplers."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst
from scipy import integrate
from scipy import special as sp
from scipy import stats as st

from levynet import levy
from levynet.activations import LINEAR, RELU, TANH, ActivationKind, leaky_relu
from levynet.kernels import homogeneous_moment
from levynet.levy import (LevyTriple, atomic_measure, beta_measure,
                          default_atom_floor, gamma_measure,
                          gg_pareto_measure, horseshoe_measure,
                          inverse_tail_intensity, mean_mass_below,
                          mix_with_chi2, moment, sample_id_batch,
                          sample_ppp_matrix, scaled_stable_beta_measure,
                          stable_measure, tail_intensity, trivial_measure,
                          activation_transform)
from levynet.models import make_model
from levynet.rng import RngStream, sample_gamma, sample_positive_stable
from levynet.stats import ks_distance


def _measures():
    return {
        "stable": stable_measure(0.7, 1.3),
        "horseshoe": horseshoe_measure(1.0),
        "gamma": gamma_measure(2.0, 1.5),
        "beta_half": beta_measure(1.0, 0.5),
        "beta_one": beta_measure(2.0, 1.0),
        "beta_frac": beta_measure(1.0, 2.7),
        "gg_pareto": gg_pareto_measure(4.0, 0.5, 5.0),
        "scaled_stable_beta": scaled_stable_beta_measure(2.0),
    }


# ---------------------------------------------------------------------------
# constructors and validation
# ---------------------------------------------------------------------------

def test_constructor_validation():
    with pytest.raises(ValueError):
        stable_measure(1.0, 1.0)
    with pytest.raises(ValueError):
        stable_measure(0.5, -1.0)
    with pytest.raises(ValueError):
        gamma_measure(0.0, 1.0)
    with pytest.raises(ValueError):
        beta_measure(1.0, 0.0)
    with pytest.raises(ValueError):
        gg_pareto_measure(1.0, 0.5, 0.4)
    with pytest.raises(ValueError):
        atomic_measure([(0.0, 1.0)])
    with pytest.raises(ValueError):
        LevyTriple(-0.5, trivial_measure())


def test_trivial_measure():
    m = trivial_measure()
    assert m.is_trivial and m.total_mass() == 0.0
    assert tail_intensity(m, 1.0) == 0.0
    assert moment(m, 1) == 0.0


# ---------------------------------------------------------------------------
# tails, densities, moments, truncated means vs quadrature
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(_measures()))
def test_tail_matches_density_quadrature(name):
    m = _measures()[name]
    hi = m.support[1]
    for x in (0.05, 0.3, 0.9):
        if x >= hi:
            continue
        upper = hi if math.isfinite(hi) else 60.0
        oracle, _ = integrate.quad(lambda u: float(m.density_fn(u)), x, upper,
                                   epsabs=1e-11, epsrel=1e-11, limit=400)
        if not math.isfinite(hi):
            oracle += tail_intensity(m, upper)  # mass beyond the cutoff
        assert abs(tail_intensity(m, x) - oracle) < 1e-6 * max(1.0, oracle)


@pytest.mark.parametrize("name", ["gamma", "beta_half", "beta_frac",
                                  "gg_pareto", "scaled_stable_beta"])
def test_moments_vs_quadrature(name):
    m = _measures()[name]
    hi = m.support[1] if math.isfinite(m.support[1]) else 200.0
    for k in (1, 2):
        val = moment(m, k)
        if not math.isfinite(val):
            continue
        oracle, _ = integrate.quad(
            lambda u: u ** k * float(m.density_fn(u)), 0.0, hi,
            epsabs=1e-11, epsrel=1e-11, limit=400)
        assert abs(val - oracle) < 1e-5 * max(1.0, oracle)


def test_infinite_moments():
    assert moment(stable_measure(0.5, 1.0), 1) == math.inf
    assert moment(gg_pareto_measure(4.0, 0.5, 5.0), 5) == math.inf
    assert math.isfinite(moment(gg_pareto_measure(4.0, 0.5, 5.0), 4))


@pytest.mark.parametrize("name", sorted(_measures()))
def test_mean_mass_below_vs_quadrature(name):
    m = _measures()[name]
    for eps in (0.01, 0.2):
        oracle, _ = integrate.quad(lambda u: u * float(m.density_fn(u)),
                                   0.0, eps, epsabs=1e-12, epsrel=1e-11,
                                   limit=400)
        assert abs(mean_mass_below(m, eps) - oracle) < 1e-7 * max(1.0, oracle)


def _gg_pareto_mean_below_by_quadrature(eta, alpha, tau, e):
    # int_0^e x rho(dx) = eta / Gamma(1-alpha) int_0^e x^{-tau} g(tau-alpha, x) dx
    # in y = log x, where the integrand is smooth and decays at -inf
    s = tau - alpha
    val, _ = integrate.quad(
        lambda y: np.exp(y * (1.0 - tau)) * sp.gammainc(s, np.exp(y)) * math.gamma(s),
        -150.0, math.log(e), epsabs=0.0, epsrel=2e-14, limit=500)
    return eta / math.gamma(1.0 - alpha) * val


@pytest.mark.parametrize("tau", [0.8, 1.0, 1.0 + 1e-9, 1.05, 1.2, 5.0])
def test_gg_pareto_mean_below_through_tau_one(tau):
    m = gg_pareto_measure(1.0, 0.5, tau)
    for e in (1e-8, 0.1, 1.0, 2.0):
        oracle = _gg_pareto_mean_below_by_quadrature(1.0, 0.5, tau, e)
        assert abs(mean_mass_below(m, e) / oracle - 1.0) < 1e-12


def test_gg_pareto_with_tau_at_most_one_constructs():
    assert abs(mean_mass_below(gg_pareto_measure(1.0, 0.5, 0.8), 0.1)
               - 1.18041932764) < 1e-11
    for tau in (0.8, 1.0):
        model = make_model("generalized_bfry", eta=1, alpha=0.5, tau=tau)
        assert moment(model.limit.measure, 1) == math.inf


def test_atomic_measure_tail_and_inverse():
    m = atomic_measure([(1.0, 2.0), (3.0, 0.5)])
    assert tail_intensity(m, 0.5) == 2.5
    assert tail_intensity(m, 2.0) == 0.5
    assert tail_intensity(m, 3.5) == 0.0
    # generalized inverse: inf{x : rhobar(x) < u}
    assert inverse_tail_intensity(m, 0.4) == 3.0
    assert inverse_tail_intensity(m, 1.0) == 1.0
    assert inverse_tail_intensity(m, 3.0) == 0.0
    assert moment(m, 2) == 2.0 + 0.5 * 9.0


# ---------------------------------------------------------------------------
# generalized inverse contract
# ---------------------------------------------------------------------------

@settings(max_examples=120, deadline=None)
@given(name=hst.sampled_from(sorted(_measures())),
       log_u=hst.floats(min_value=-25.0, max_value=12.0))
def test_generalized_inverse_contract(name, log_u):
    """inv(u) = inf{x : rhobar(x) < u}: the tail just above inv(u) is < u and
    just below is >= u (up to numerical slack), for any u > 0."""
    m = _measures()[name]
    u = math.exp(log_u)
    x = inverse_tail_intensity(m, u)
    mass = m.total_mass()
    if math.isfinite(mass) and u > mass:
        assert x == 0.0
        return
    if x == 0.0 or not math.isfinite(x):
        return
    hi = m.support[1]
    if x < hi:
        assert tail_intensity(m, min(x * (1 + 1e-6), hi)) <= u * (1 + 1e-5)
    assert tail_intensity(m, x * (1 - 1e-6)) >= u * (1 - 1e-5)


@pytest.mark.parametrize("name", ["stable", "beta_half", "beta_one",
                                  "scaled_stable_beta"])
def test_closed_form_inverse_matches_bisection(name):
    m = _measures()[name]
    assert m.inverse_tail_fn is not None
    us = np.geomspace(1e-6, 10.0, 25)
    closed = inverse_tail_intensity(m, us)
    bare = levy.MeasureDescriptor(
        name="copy", support=m.support, tail_fn=m.tail_fn)
    bisected = inverse_tail_intensity(bare, us)
    ok = closed > 0
    assert np.allclose(closed[ok], bisected[ok], rtol=1e-8)


def test_tabulated_inverse_matches_bisection():
    m = gg_pareto_measure(4.0, 0.5, 5.0)  # no closed-form inverse
    table = levy._TabulatedInverse(m, 1e4)
    us = np.geomspace(1e-10, 1e4, 40)
    exact = inverse_tail_intensity(m, us)
    assert np.max(np.abs(table(us) - exact) / exact) < 1e-4


@pytest.mark.parametrize("base", [gamma_measure(1.0, 1.0),
                                  gg_pareto_measure(4.0, 0.5, 5.0)])
def test_inverse_tail_intensity_calls_the_tail_per_halving_not_per_point(base):
    calls = []

    def counted(x):
        calls.append(np.size(x))
        return base.tail_fn(x)

    m = levy.MeasureDescriptor(name="counted",
                               support=base.support, tail_fn=counted)
    counts = []
    for us in (np.array([0.3]), np.geomspace(1e-10, 1e3, 200)):
        calls.clear()
        inverse_tail_intensity(m, us)
        counts.append(len(calls))
    assert counts[0] == counts[1]
    assert max(calls) == 200


# ---------------------------------------------------------------------------
# measure algebra and transforms
# ---------------------------------------------------------------------------

def _integer_b_tail_loop(eta, b, x):
    # the term-by-term finite sum the integer-b beta tail used to run; it
    # cancels once the tail is small against log(1/x), so it is a reference
    # only for x <= 1e-3
    x = np.asarray(x, dtype=float)
    y = 1.0 - x
    acc = np.zeros_like(y)
    yj = np.ones_like(y)
    for j in range(1, b):
        yj = yj * y
        acc += yj / j
    return eta * (-np.log(x) - acc)


@pytest.mark.parametrize("b", [2, 5, 500])
def test_integer_b_beta_tail_matches_term_loop(b):
    tail = beta_measure(3.0, b).tail_fn
    grid = np.geomspace(1e-14, 1e-3, 400)
    for x in (3.7e-4, np.float64(1e-9), grid, grid.reshape(20, 20),
              1e-3 * np.random.default_rng(b).random((3, 7))):
        got, ref = tail(x), _integer_b_tail_loop(3.0, b, x)
        assert np.shape(got) == np.shape(x)
        assert np.allclose(got, ref, rtol=1e-13, atol=0.0)


@pytest.mark.parametrize("b", [0.3, 1.5, 2, 2.7, 5, 7.3, 50.5, 500])
def test_beta_tail_matches_mpmath(b):
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 40
    x = np.concatenate([np.geomspace(1e-14, 0.5, 60),
                        1.0 - np.geomspace(0.49, 1e-5, 20)])
    got = beta_measure(1.0, b).tail_fn(x)
    # int_x^1 u^{-1} (1-u)^{b-1} du = y^b / b 2F1(1, b; b+1; y), y = 1 - x
    ref = np.array([float((1 - mp.mpf(v)) ** b / b
                          * mp.hyp2f1(1, b, b + 1, 1 - mp.mpf(v)))
                    for v in x])
    # near x = 1 the tail of b = 500 underflows (y^b < 1e-300)
    normal = ref > 1e-290
    assert np.count_nonzero(normal) >= 60
    assert np.max(np.abs(got[normal] / ref[normal] - 1.0)) < 1e-13
    assert np.all((got[~normal] >= 0.0) & (got[~normal] < 1e-280))
    assert np.shape(beta_measure(1.0, b).tail_fn(0.2)) == ()


def test_mix_with_chi2_stable_closed_form():
    # mixing a stable measure with chi-square(1) rescales c by E[Z^{2a}]^{1/a}
    m = stable_measure(0.5, 1.0)
    mixed = mix_with_chi2(m)
    assert mixed.name == "stable"
    expect_c = (2.0 ** 0.5 * math.gamma(1.0) / math.sqrt(math.pi)) ** 2.0
    assert abs(mixed.params["c"] - expect_c) < 1e-12
    assert mixed.family == ("stable", 0.5, mixed.params["c"])
    assert mix_with_chi2(horseshoe_measure(1.0)).family == mixed.family
    assert mix_with_chi2(gamma_measure(1.0, 1.0)).family is None


@pytest.mark.parametrize("act", [RELU, LINEAR, leaky_relu(0.2)],
                         ids=lambda a: a.name)
@pytest.mark.parametrize("name,params", [("horseshoe", {"c": 1.0}),
                                         ("inverse_gamma_stable", {"alpha": 0.7})])
def test_stable_limits_stay_stable_under_activation(name, params, act):
    # the transform keeps the stable family, so the transformed limit takes
    # the exact positive-stable sampler
    c, eta = activation_transform(make_model(name, **params).limit, act)
    assert c == 0.0 and eta.family[0] == "stable"
    draws = sample_id_batch(LevyTriple(c, eta), RngStream(48, 0), 300)
    exact = sample_positive_stable(*eta.family[1:], RngStream(48, 0), 300)
    assert np.array_equal(draws, exact)


def test_mix_with_chi2_tail_quadrature():
    m = beta_measure(1.0, 0.5)
    mixed = mix_with_chi2(m)
    chi2 = st.chi2(1)
    for x in (0.2, 1.0, 3.0):
        oracle, _ = integrate.quad(
            lambda z: tail_intensity(m, min(x / z, 1.0 - 1e-15)) * chi2.pdf(z),
            x, math.inf, epsabs=1e-11, epsrel=1e-11, limit=400)
        assert abs(tail_intensity(mixed, x) - oracle) < 1e-6


@pytest.mark.parametrize("eta", [1.0, 2.0])
def test_mix_with_chi2_beta_half_closed_form(eta):
    # the chi-square mixture of beta(eta, 1/2) is twice gamma(eta/2, 1/2)
    mixed = mix_with_chi2(beta_measure(eta, 0.5))
    gam = gamma_measure(eta / 2.0, 0.5)
    xs = np.geomspace(1e-3, 30.0, 50)
    assert np.allclose(tail_intensity(mixed, xs), 2.0 * tail_intensity(gam, xs),
                       rtol=1e-10, atol=0.0)


def test_mix_with_chi2_preserves_input_shape():
    mixed = mix_with_chi2(beta_measure(2.0, 1.5))
    fn = mixed.tail_fn
    assert np.shape(fn(0.3)) == ()
    assert fn(np.geomspace(0.1, 2.0, 5)).shape == (5,)
    grid = np.geomspace(0.1, 2.0, 6).reshape(2, 3)
    out = fn(grid)
    assert out.shape == (2, 3)
    assert np.array_equal(out.ravel(), fn(grid.ravel()))
    assert isinstance(tail_intensity(mixed, 0.3), float)


def _chi2_mix_tail_by_adaptive_quadrature(m, x):
    # nubar(x) one point at a time by adaptive quadrature in log z
    hi = m.support[1]

    def integrand(z):
        r = x / np.asarray(z, dtype=float)
        v = np.where(r >= hi, 0.0,
                     m.tail_fn(np.minimum(np.maximum(r, 1e-300), hi)))
        return v * levy._chi2_pdf(z)

    return levy._quad(integrand, x / hi if hi < math.inf else 0.0, math.inf)


@pytest.mark.parametrize("m", [
    beta_measure(1.0, 0.5), beta_measure(2.0, 1.5), beta_measure(1.0, 3.0),
    gg_pareto_measure(4.0, 0.5, 5.0), gamma_measure(1.0, 1.0),
    scaled_stable_beta_measure(2.0),
], ids=lambda m: m.name)
def test_mix_with_chi2_matches_adaptive_quadrature(m):
    mixed = mix_with_chi2(m)
    xs = np.geomspace(1e-3, 10.0, 6)
    oracle = [_chi2_mix_tail_by_adaptive_quadrature(m, x) for x in xs]
    assert np.allclose(tail_intensity(mixed, xs), oracle, rtol=0.0, atol=1e-9)


def test_mix_with_chi2_calls_base_tail_once_per_block():
    m = beta_measure(2.0, 1.5)
    base_tail, shapes = m.tail_fn, []

    def counted(x):
        shapes.append(np.shape(x))
        return base_tail(x)

    m.tail_fn = counted
    mixed = mix_with_chi2(m)
    tail_intensity(mixed, np.geomspace(1e-3, 10.0, 50))
    assert len(shapes) == 1 and shapes[0][0] == 50
    # a larger request is split into blocks of at most _MIX_BLOCK points
    shapes.clear()
    n = 2 * levy._MIX_BLOCK + 1
    tail_intensity(mixed, np.geomspace(1e-3, 10.0, n))
    assert len(shapes) == 3
    assert max(s[0] for s in shapes) <= levy._MIX_BLOCK


def test_mix_with_chi2_moment_identity():
    m = gamma_measure(2.0, 1.5)
    mixed = mix_with_chi2(m)
    # E[(Z^2)^k] = 2^k Gamma(k + 1/2) / sqrt(pi): 1 and 3 for k = 1, 2
    assert abs(moment(mixed, 1) - moment(m, 1)) < 1e-9
    assert abs(moment(mixed, 2) - 3.0 * moment(m, 2)) < 1e-9


def test_activation_transform_relu_beta_half_closed_form():
    # stable-beta calculus: ReLU transform of beta(eta, 1/2) is gamma(eta/2, 1/2)
    t = LevyTriple(0.0, beta_measure(2.0, 0.5))
    c, eta = activation_transform(t, RELU)
    assert c == 0.0
    assert eta.name == "gamma"
    xs = np.geomspace(0.05, 4.0, 9)
    generic = 0.5 * tail_intensity(mix_with_chi2(beta_measure(2.0, 0.5)), xs)
    assert np.allclose(tail_intensity(eta, xs), generic, rtol=1e-6, atol=1e-9)


@pytest.mark.parametrize("m", [
    gamma_measure(1.0, 1.0), atomic_measure([(0.5, 1.0), (2.0, 3.0)]),
    trivial_measure(), stable_measure(0.7, 1.3), horseshoe_measure(1.0),
    beta_measure(1.0, 0.5), gg_pareto_measure(4.0, 0.5, 5.0),
], ids=lambda m: m.name)
def test_activation_transform_linear_and_leaky(m):
    t = LevyTriple(1.5, m)
    c_lin, m_lin = activation_transform(t, LINEAR)
    assert c_lin == 1.5
    beta = 0.5
    c_leaky, m_leaky = activation_transform(t, leaky_relu(beta))
    assert abs(c_leaky - 1.5 * (1 + beta ** 2) / 2.0) < 1e-12
    nu = mix_with_chi2(m)
    xs = np.geomspace(0.1, 3.0, 5)
    expect = 0.5 * (tail_intensity(nu, xs)
                    + tail_intensity(nu, xs / beta ** 2))
    assert np.allclose(tail_intensity(m_leaky, xs), expect, rtol=1e-6)
    assert np.allclose(tail_intensity(m_lin, xs), tail_intensity(nu, xs),
                       rtol=1e-6)


def _two_half():
    # a homogeneous activation the package does not define:
    # phi(1) = 2 and phi(-1) = -1/2
    def fn(x):
        x = np.asarray(x, dtype=float)
        return np.where(x > 0, 2.0 * x, 0.5 * x)
    return ActivationKind("two_half", fn, homogeneous=True)


def _gauss_quad(f, lo, hi):
    return integrate.quad(lambda z: f(z) * math.exp(-0.5 * z * z)
                          / math.sqrt(2.0 * math.pi), lo, hi,
                          epsabs=0.0, epsrel=1e-13, limit=200)[0]


def _direct_transform_tail(m, act, x):
    # etabar(x) = int_{phi(z) != 0} rhobar(x / phi(z)^2) phi_N(z) dz on each
    # half-line, split where x / phi(z)^2 enters the support of rho
    def f(z):
        phi = float(act(z))
        return 0.0 if phi == 0.0 else tail_intensity(m, x / phi ** 2)

    total = 0.0
    for sign in (1.0, -1.0):
        slope = abs(float(act(sign)))
        if slope == 0.0:
            continue
        zk = math.sqrt(x / m.support[1]) / slope
        g = lambda z: f(sign * z)
        total += _gauss_quad(g, zk, zk + 8.0) + _gauss_quad(g, zk + 8.0, math.inf)
    return total


@pytest.mark.parametrize("act", [RELU, leaky_relu(0.2), _two_half()],
                         ids=lambda a: a.name)
@pytest.mark.parametrize("m", [beta_measure(1.0, 1.5),
                               gg_pareto_measure(4.0, 0.5, 5.0)],
                         ids=["beta_1_1.5", "gg_pareto"])
def test_activation_transform_matches_the_integral_over_z(m, act):
    # the generic branch against the defining integral in z, and its moments
    # against M_k(eta) = E[phi(Z)^{2k}] M_k(rho), with E[phi(Z)^{2k}] also by
    # quadrature in z
    _, eta = activation_transform(LevyTriple(0.0, m), act)
    for x in (0.01, 0.3, 2.0):
        direct = _direct_transform_tail(m, act, x)
        assert abs(tail_intensity(eta, x) / direct - 1.0) < 1e-9
    for k in (1, 2):
        g = lambda z: float(act(z)) ** (2 * k)
        phi_moment = _gauss_quad(g, -math.inf, 0.0) + _gauss_quad(g, 0.0, math.inf)
        expect = phi_moment * moment(m, k)
        assert abs(moment(eta, k) / expect - 1.0) < 1e-12


def test_activation_transform_rejects_nonhomogeneous():
    with pytest.raises(ValueError):
        activation_transform(LevyTriple(0.0, trivial_measure()), TANH)


# ---------------------------------------------------------------------------
# Poisson point process sampling
# ---------------------------------------------------------------------------

def test_sample_ppp_atoms_sorted_and_floored():
    m = gamma_measure(2.0, 1.0)
    atoms, floor, below = sample_ppp_matrix(m, RngStream(31, 0), atom_floor=1e-4)
    atoms = atoms[atoms > 0]
    assert np.all(np.diff(atoms) <= 0)
    assert np.all(atoms >= 1e-4)
    assert floor == 1e-4
    assert below == mean_mass_below(m, 1e-4)


def test_sample_ppp_compensates_an_infinite_mean_measure():
    # int_0^eps x rho(dx) is finite for every Levy measure, M1 = inf or not:
    # alpha c^alpha eps^{1-alpha} / (1 - alpha) for the stable one
    alpha, c, eps = 0.5, 1.0, 1e-3
    _, _, below = sample_ppp_matrix(stable_measure(alpha, c), RngStream(32, 0),
                                    atom_floor=eps)
    expect = alpha * c ** alpha * eps ** (1.0 - alpha) / (1.0 - alpha)
    assert abs(below / expect - 1.0) < 1e-14


class _StandInStream:
    """A stand-in stream with fixed Poisson counts whose uniforms are all 0,
    so a series row takes U = 1 - 0 = 1 for every atom: rhobar^{-1}(mass),
    finite, where U = 0 would give rhobar^{-1}(0) = inf."""

    def __init__(self, counts):
        self.generator = self
        self.counts = np.asarray(counts)

    def poisson(self, lam, size=None):
        return self.counts[:size].copy()

    def random(self, size=None):
        return np.zeros(size)


def test_series_rows_on_a_stand_in_stream():
    # the 1/2-stable measure without its family tag, so that sample_id_batch
    # sums its series rather than taking the exact stable path
    m = dataclasses.replace(stable_measure(0.5, 1.0), family=None)
    counts = np.array([3, 0, 5, 1])
    atoms, floor, below = sample_ppp_matrix(m, _StandInStream(counts), 1e-2, 4)
    mass = tail_intensity(m, floor)
    hit = atoms > 0
    assert atoms.shape == (4, 5)
    assert np.array_equal(hit, np.arange(5) < counts[:, None])
    assert np.all(np.isfinite(atoms))
    assert np.all(atoms[hit] == inverse_tail_intensity(m, mass))
    assert np.all(np.diff(atoms, axis=1) <= 0.0)
    sums = sample_id_batch(LevyTriple(0.0, m), _StandInStream(counts), 4, 1e-2)
    assert sums.tobytes() == (atoms.sum(axis=1) + below).tobytes()


def _padded_exponential_series(m, rng, n, floor):
    """The reference series: the arrival times G_1 < G_2 < ... <= rhobar(floor)
    of a unit-rate Poisson process as cumulated exponentials, in blocks of
    rows padded to ten standard deviations past the mean count, mapped to
    atoms rhobar^{-1}(G_k).  Returns each row's 1st, 2nd and 5th atoms (0
    where the row is shorter), its count and its sum."""
    cut = levy._truncation(m, floor)
    mass, inv = cut.mass, cut.inverse
    ncols = int(mass + 10.0 * math.sqrt(mass + 1.0) + 20.0)
    parts = []
    for k in range(0, n, 2000):
        g = rng.generator.standard_exponential((min(2000, n - k), ncols)).cumsum(axis=1)
        assert np.all(g[:, -1] > mass)
        atoms = np.where(g <= mass, inv(np.minimum(g, mass)), 0.0)
        parts.append(np.column_stack([atoms[:, [0, 1, 4]], (g <= mass).sum(axis=1),
                                      atoms.sum(axis=1)]))
    return np.concatenate(parts)


def _two_sample_ks(a, b):
    both = np.sort(np.concatenate([a, b]))
    fa = np.searchsorted(np.sort(a), both, side="right") / a.size
    fb = np.searchsorted(np.sort(b), both, side="right") / b.size
    return float(np.max(np.abs(fa - fb)))


_SERIES_CASES = {
    "beta_1_half": (beta_measure(1.0, 0.5), 1e-4),
    "gg_pareto": (gg_pareto_measure(4.0, 0.5, 5.0), 1e-3),
    "beta_10_5": (beta_measure(10.0, 5.0), None),
}


@pytest.mark.parametrize("name", sorted(_SERIES_CASES))
def test_series_rows_match_the_padded_exponential_series_in_law(name):
    # the 1st, 2nd and 5th atoms, the counts and the row sums against the
    # cumulated-exponential series, each by a two-sample KS at the 1e-3 level
    m, floor = _SERIES_CASES[name]
    n = 20_000
    floor = default_atom_floor(m) if floor is None else floor
    atoms, _, _ = sample_ppp_matrix(m, RngStream(39, 0), floor, n)
    atoms = np.pad(atoms, ((0, 0), (0, max(5 - atoms.shape[1], 0))))
    rows = np.column_stack([atoms[:, [0, 1, 4]], (atoms > 0).sum(axis=1),
                            atoms.sum(axis=1)])
    ref = _padded_exponential_series(m, RngStream(40, 0), n, floor)
    crit = 1.95 * math.sqrt(2.0 / n)
    for j, stat in enumerate(("atom1", "atom2", "atom5", "count", "sum")):
        ks = _two_sample_ks(rows[:, j], ref[:, j])
        assert ks < crit, f"{name} {stat}: ks {ks:.4f} >= {crit:.4f}"


def test_ppp_counts_above_threshold_poisson():
    # the number of atoms above x is Poisson(rhobar(x)); chi-square GOF
    m = beta_measure(1.0, 0.5)
    x0 = 0.05
    lam = tail_intensity(m, x0)
    n = 3000
    atoms, _, _ = sample_ppp_matrix(m, RngStream(33, 0), atom_floor=1e-4, n=n)
    counts = (atoms > x0).sum(axis=1)
    kmax = int(st.poisson(lam).ppf(0.999)) + 1
    observed = np.bincount(np.minimum(counts, kmax), minlength=kmax + 1)
    probs = st.poisson(lam).pmf(np.arange(kmax + 1))
    probs[-1] = 1.0 - probs[:-1].sum()
    keep = probs * n > 5
    chi2 = float(((observed[keep] - n * probs[keep]) ** 2
                  / (n * probs[keep])).sum())
    dof = int(keep.sum()) - 1
    assert chi2 < st.chi2(dof).ppf(0.999)


def test_ppp_largest_atom_law():
    # P(lambda_(1) <= x) = exp(-rhobar(x))
    m = gg_pareto_measure(4.0, 0.5, 5.0)
    n = 4000
    atoms, _, _ = sample_ppp_matrix(m, RngStream(34, 0), atom_floor=1e-3, n=n)
    largest = atoms.max(axis=1)
    ks = ks_distance(largest, lambda x: np.exp(-tail_intensity(m, np.maximum(x, 1e-3))))
    assert ks < 1.95 / math.sqrt(n)


def test_ppp_stick_breaking_oracle():
    # for the beta(eta, 1) measure the atoms are e^{-Gamma_k / eta}, so the
    # largest atom to the power eta is uniform on (0, 1)
    eta = 2.0
    m = beta_measure(eta, 1.0)
    n = 4000
    atoms, _, _ = sample_ppp_matrix(m, RngStream(35, 0), atom_floor=1e-6, n=n)
    u = atoms.max(axis=1) ** eta
    assert ks_distance(u, lambda x: np.clip(x, 0.0, 1.0)) < 1.95 / math.sqrt(n)


def test_atomic_ppp_counts():
    m = atomic_measure([(2.0, 3.0)])
    atoms, _, _ = sample_ppp_matrix(m, RngStream(36, 0), n=2000)
    counts = (atoms > 0).sum(axis=1)
    assert np.all(atoms[atoms > 0] == 2.0)
    assert abs(counts.mean() - 3.0) < 4 * math.sqrt(3.0 / 2000)


def _rows_by_loop(m, draw, rng, n):
    # the per-row reference: Poisson(|rho|) counts, every row's atoms in one
    # draw, then each row sorted decreasing on its own and padded with zeros
    if m.is_trivial:
        return np.zeros((n, 0))
    counts = rng.generator.poisson(m.total_mass(), size=n)
    draws = draw(rng, int(counts.sum()))
    out = np.zeros((n, max(int(counts.max()) if n else 0, 1)))
    pos = 0
    for i, c in enumerate(counts):
        out[i, :c] = np.sort(draws[pos:pos + c])[::-1]
        pos += c
    return out


def _finite_cases():
    atoms = [(0.5, 1.0), (2.0, 3.0), (1.0, 0.25)]
    locs, ws = np.array(atoms).T

    def by_choice(locs, ws):
        return lambda rng, k: locs[rng.generator.choice(
            len(locs), p=ws / ws.sum(), size=k)]

    slab = make_model("spike_slab", c=1.5, slab={"kind": "gamma", "shape": 2.0,
                                                 "rate": 1.0}).limit.measure
    return {
        "three_atoms": (atomic_measure(atoms), by_choice(locs, ws)),
        "gamma_slab": (slab, lambda rng, k: rng.generator.gamma(2.0, size=k) / 1.0),
        "zero": (trivial_measure(), None),
        # mass 1e-9: every row of a small draw is empty
        "empty": (atomic_measure([(1.0, 1e-9)]),
                  by_choice(np.array([1.0]), np.array([1e-9]))),
    }


@pytest.mark.parametrize("case", sorted(_finite_cases()))
@pytest.mark.parametrize("n", [0, 1, 7, 500])
def test_compound_poisson_rows_match_the_per_row_loop(case, n):
    m, draw = _finite_cases()[case]
    rng, ref = RngStream(37, n), RngStream(37, n)
    atoms, floor, below = sample_ppp_matrix(m, rng, n=n)
    expect = _rows_by_loop(m, draw, ref, n)
    assert atoms.shape == expect.shape and atoms.tobytes() == expect.tobytes()
    assert (floor, below) == (0.0, 0.0)
    # rows decrease, so the zero padding comes after every atom
    assert np.all(np.diff(atoms, axis=1) <= 0.0) and np.all(atoms >= 0.0)
    if case == "empty":
        assert atoms.shape == (n, 1) and not atoms.any()
    assert np.array_equal(rng.generator.random(4), ref.generator.random(4))


def test_zero_measure_draws_no_random_numbers():
    rng, n = RngStream(38, 0), 1000
    atoms, _, _ = sample_ppp_matrix(trivial_measure(), rng, n=n)
    assert atoms.shape == (n, 0)
    t = LevyTriple(0.8, trivial_measure())
    assert np.array_equal(sample_id_batch(t, rng, n), np.full(n, 0.8))
    assert np.array_equal(sample_id_batch(t, rng, n, act=RELU),
                          np.full(n, 0.8 * RELU.c_phi))
    assert np.array_equal(rng.generator.random(4),
                          RngStream(38, 0).generator.random(4))


def test_default_atom_floor_positive():
    for m in _measures().values():
        assert default_atom_floor(m) > 0.0


def _budget_cases():
    # every family with a closed-form variance below a floor, the measures
    # that the models and criterion 05 truncate among them
    cases = dict(_measures())
    cases.update({
        "beta_1000_500": beta_measure(1000.0, 500.0),
        "gg_pareto_tau_08": gg_pareto_measure(1.0, 0.5, 0.8),
        "gg_pareto_tau_2": gg_pareto_measure(1.0, 0.5, 2.0),
        "gg_pareto_tau_3": gg_pareto_measure(2.0, 0.3, 3.0),
    })
    return cases


def _x2_density(m):
    # x^2 rho(dx)/dx; gg_pareto's from its exact density, which the
    # descriptor replaces by its leading term below x = 1e-6
    if m.name != "gg_pareto":
        return lambda x: x * x * float(m.density_fn(x))
    eta, alpha, tau = (m.params[k] for k in ("eta", "alpha", "tau"))
    s = tau - alpha
    return lambda x: (eta / math.gamma(1.0 - alpha) * x ** (1.0 - tau)
                      * sp.gammainc(s, x) * math.gamma(s))


@pytest.mark.parametrize("name", sorted(_budget_cases()))
def test_variance_below_matches_quadrature(name):
    # int_0^eps x^2 rho(dx) in closed form against quadrature of x^2 rho in
    # y = log x, to 1e-9 relative
    m = _budget_cases()[name]
    f = _x2_density(m)
    for eps in (1e-6, 1e-3, 0.5):
        oracle, _ = integrate.quad(lambda y: f(math.exp(y)) * math.exp(y),
                                   math.log(eps) - 80.0, math.log(eps),
                                   epsabs=0.0, epsrel=1e-13, limit=500)
        got = levy._moment_below(m, eps, 2)
        assert abs(got / oracle - 1.0) < 1e-9, (eps, got, oracle)


@pytest.mark.parametrize("name", sorted(_budget_cases()))
def test_default_floor_spends_the_variance_budget(name):
    # V(floor) <= tol x_ref^2, and the floor is the largest such: V is within
    # 1e-6 of the budget, or the floor is x_ref itself
    m = _budget_cases()[name]
    ref = levy._reference_atom(m)
    budget = levy.DROPPED_VARIANCE_TOL * ref * ref
    cut = levy._truncation(m, None)
    assert cut.floor == default_atom_floor(m)
    assert 0.0 < cut.floor <= ref
    assert cut.var_below == levy._moment_below(m, cut.floor, 2)
    assert cut.mean_below == mean_mass_below(m, cut.floor)
    assert cut.var_below <= budget
    assert cut.var_below >= (1.0 - 1e-6) * budget or cut.floor == ref
    assert cut.mass <= levy.MAX_ROW_ATOMS


def test_floor_past_the_atom_budget_raises_before_drawing():
    # stable(1/2, 1) at 1e-20 would keep rhobar = 1e10 atoms a row: refused
    # with nothing drawn, cached or allocated past 1 MB
    m, rng = stable_measure(0.5, 1.0), RngStream(0, 0)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="atom budget"):
            sample_ppp_matrix(m, rng, atom_floor=1e-20)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert m.truncation_cache is None
    assert np.array_equal(rng.generator.random(4),
                          RngStream(0, 0).generator.random(4))


# ---------------------------------------------------------------------------
# infinitely divisible sampling
# ---------------------------------------------------------------------------

def test_sample_id_trivial_and_atomic():
    rng = RngStream(41, 0)
    out = sample_id_batch(LevyTriple(1.7, trivial_measure()), rng, 5)
    assert np.array_equal(out, np.full(5, 1.7))
    # compound Poisson with one atom: a + 2 * Poisson(3)
    t = LevyTriple(1.0, atomic_measure([(2.0, 3.0)]))
    draws = sample_id_batch(t, rng, 20_000)
    counts = (draws - 1.0) / 2.0
    assert abs(counts.mean() - 3.0) < 4 * math.sqrt(3.0 / 20_000)
    assert abs(counts.var() - 3.0) < 0.15


def test_sample_id_gamma_measure_exact_law():
    # ID(0, eta x^{-1} e^{-rate x} dx) is Gamma(eta, rate), drawn exactly;
    # the truncated series is compensated by the small-atom mean, so its row
    # sums plus that mean at the default floor have the same law
    t = LevyTriple(0.0, gamma_measure(2.0, 1.5))
    n = 20_000
    draws = sample_id_batch(t, RngStream(42, 0), n)
    assert draws.tobytes() == sample_gamma(2.0, 1.5, RngStream(42, 0), n).tobytes()
    ks = ks_distance(draws, st.gamma(2.0, scale=1.0 / 1.5).cdf)
    assert ks < 0.015
    atoms, _, below = sample_ppp_matrix(t.measure, RngStream(42, 1), None, n)
    series = atoms.sum(axis=1) + below
    assert _two_sample_ks(draws, series) < 1.95 * math.sqrt(2.0 / n)


@pytest.mark.parametrize("eta", [1.0, 2.0])
@pytest.mark.parametrize("a", [0.0, 0.3])
def test_sample_id_relu_beta_half_draws_the_gamma_image(eta, a):
    # ReLU maps beta(eta, 1/2) to gamma(eta/2, rate 1/2), so the marked sum
    # is a E[relu(Z)^2] plus one exact Gamma(eta/2, rate 1/2) draw
    t = LevyTriple(a, beta_measure(eta, 0.5))
    draws = sample_id_batch(t, RngStream(53, 0), 1000, act=RELU)
    expect = a * RELU.c_phi + sample_gamma(eta / 2.0, 0.5, RngStream(53, 0), 1000)
    assert draws.tobytes() == expect.tobytes()


@pytest.mark.parametrize("alpha, floor", [(0.5, 1e-5), (0.7, 1e-3)])
def test_sample_id_stable_fast_path_vs_atom_series(alpha, floor):
    # the exact stable sampler against the truncated atom series plus the
    # mean of the dropped atoms (0.29 at alpha = 0.7)
    t = LevyTriple(0.0, stable_measure(alpha, 1.0))
    n = 20_000
    fast = sample_id_batch(t, RngStream(43, 0), n)  # exact sampler path
    atoms, _, below = sample_ppp_matrix(t.measure, RngStream(44, 0), floor, n)
    slow = atoms.sum(axis=1) + below
    assert _two_sample_ks(fast, slow) < 1.95 * math.sqrt(2.0 / n)


def test_sample_id_horseshoe_is_inverse_gamma():
    t = LevyTriple(0.0, horseshoe_measure(1.0))
    draws = sample_id_batch(t, RngStream(45, 0), 20_000)
    ks = ks_distance(draws, st.invgamma(0.5, scale=math.pi / 4.0).cdf)
    assert ks < 0.015


def test_sample_id_horseshoe_takes_the_exact_stable_path():
    # the horseshoe measure is the 1/2-stable one, so its ID law is drawn by
    # the positive-stable sampler, not a truncated atom series
    t = LevyTriple(0.0, horseshoe_measure(2.0))
    draws = sample_id_batch(t, RngStream(46, 0), 500)
    stable = sample_positive_stable(0.5, 2.0, RngStream(46, 0), 500)
    assert np.array_equal(draws, stable)


def test_sample_id_marked_by_an_activation():
    # ReLU marks phi(g)^2 map beta(eta, 1/2) to gamma(eta/2, rate 1/2), whose
    # ID law is Gamma(eta/2, rate 1/2)
    eta, n = 2.0, 20_000
    t = LevyTriple(0.0, beta_measure(eta, 0.5))
    draws = sample_id_batch(t, RngStream(49, 0), n, act=RELU)
    ks = ks_distance(draws, st.gamma(eta / 2.0, scale=2.0).cdf)
    assert ks < 0.015
    # a stable measure takes the exact sampler at scale c w^{1/alpha},
    # w = E[phi(Z)^{2 alpha}], also when a floor is given
    alpha, c = 0.6, 1.5
    t = LevyTriple(0.0, stable_measure(alpha, c))
    draws = sample_id_batch(t, RngStream(47, 0), 500, 1e-3, RELU)
    w = homogeneous_moment(RELU, alpha, 1.0)
    stable = sample_positive_stable(alpha, c * w ** (1.0 / alpha),
                                    RngStream(47, 0), 500)
    assert np.array_equal(draws, stable)
    with pytest.raises(ValueError, match="homogeneous"):
        sample_id_batch(t, RngStream(47, 0), 5, act=TANH)


def test_sample_id_requires_floor_semantics():
    with pytest.raises(ValueError):
        sample_ppp_matrix(gamma_measure(1.0, 1.0), RngStream(1, 0),
                          atom_floor=0.0)
