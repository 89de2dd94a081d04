"""Levy measures: tails, generalized inverses, transforms, and the Poisson /
infinitely divisible samplers."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst
from scipy import integrate
from scipy import stats as st

from levynet import levy
from levynet.activations import LINEAR, RELU, TANH, leaky_relu
from levynet.levy import (LevyTriple, atomic_measure, beta_measure,
                          default_atom_floor, dilate, gamma_measure,
                          gg_pareto_measure, horseshoe_measure,
                          inverse_tail_intensity, mean_mass_below,
                          mix_with_chi2, moment, sample_id_batch, sample_ppp,
                          sample_ppp_matrix, scale_mass,
                          scaled_stable_beta_measure, stable_measure,
                          tail_intensity, trivial_measure, add_measures,
                          activation_transform)
from levynet.rng import RngStream, sample_positive_stable
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
        kind="analytic", name="copy", support=m.support, tail_fn=m.tail_fn)
    bisected = inverse_tail_intensity(bare, us)
    ok = closed > 0
    assert np.allclose(closed[ok], bisected[ok], rtol=1e-8)


def test_tabulated_inverse_matches_bisection():
    m = gg_pareto_measure(4.0, 0.5, 5.0)  # no closed-form inverse
    table = levy._get_fast_inverse(m, 1e4)
    us = np.geomspace(1e-10, 1e4, 40)
    exact = inverse_tail_intensity(m, us)
    assert np.max(np.abs(table(us) - exact) / exact) < 1e-4


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


def test_scale_mass_and_dilate_tails():
    m = gamma_measure(2.0, 1.5)
    xs = np.geomspace(0.01, 5.0, 11)
    assert np.allclose(tail_intensity(scale_mass(m, 3.0), xs),
                       3.0 * tail_intensity(m, xs))
    assert np.allclose(tail_intensity(dilate(m, 2.0), xs),
                       tail_intensity(m, xs / 2.0))
    assert abs(moment(dilate(m, 2.0), 2) - 4.0 * moment(m, 2)) < 1e-9


def test_add_measures_superposition():
    m1 = stable_measure(0.5, 1.0)
    m2 = stable_measure(0.5, 2.0)
    s = add_measures(m1, m2)
    # stable + stable of the same index is stable with c = (c1^a + c2^a)^{1/a}
    assert s.name == "stable"
    assert abs(s.params["c"] - (1.0 + 2.0 ** 0.5) ** 2.0) < 1e-12
    mixed = add_measures(gamma_measure(1.0, 1.0), beta_measure(1.0, 0.5))
    xs = np.geomspace(0.01, 0.9, 7)
    assert np.allclose(
        tail_intensity(mixed, xs),
        tail_intensity(gamma_measure(1.0, 1.0), xs)
        + tail_intensity(beta_measure(1.0, 0.5), xs))


def test_mix_with_chi2_stable_closed_form():
    # mixing a stable measure with chi-square(1) rescales c by E[Z^{2a}]^{1/a}
    m = stable_measure(0.5, 1.0)
    mixed = mix_with_chi2(m)
    assert mixed.name == "stable"
    expect_c = (2.0 ** 0.5 * math.gamma(1.0) / math.sqrt(math.pi)) ** 2.0
    assert abs(mixed.params["c"] - expect_c) < 1e-12


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
    assert np.allclose(mixed.density_fn(xs), 2.0 * gam.density_fn(xs),
                       rtol=1e-10, atol=0.0)


def test_mix_with_chi2_preserves_input_shape():
    mixed = mix_with_chi2(beta_measure(2.0, 1.5))
    for fn in (mixed.tail_fn, mixed.density_fn):
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
    # the density is minus the derivative of the tail
    h = 1e-5
    slope = (tail_intensity(mixed, xs * (1 - h))
             - tail_intensity(mixed, xs * (1 + h))) / (2 * h * xs)
    assert np.allclose(mixed.density_fn(xs), slope, rtol=1e-6, atol=0.0)


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
    generic = scale_mass(mix_with_chi2(beta_measure(2.0, 0.5)), 0.5)
    xs = np.geomspace(0.05, 4.0, 9)
    assert np.allclose(tail_intensity(eta, xs), tail_intensity(generic, xs),
                       rtol=1e-6, atol=1e-9)


def test_activation_transform_linear_and_leaky():
    t = LevyTriple(1.5, gamma_measure(1.0, 1.0))
    c_lin, m_lin = activation_transform(t, LINEAR)
    assert c_lin == 1.5
    beta = 0.5
    c_leaky, m_leaky = activation_transform(t, leaky_relu(beta))
    assert abs(c_leaky - 1.5 * (1 + beta ** 2) / 2.0) < 1e-12
    nu = mix_with_chi2(gamma_measure(1.0, 1.0))
    xs = np.geomspace(0.1, 3.0, 5)
    expect = 0.5 * (tail_intensity(nu, xs)
                    + tail_intensity(nu, xs / beta ** 2))
    assert np.allclose(tail_intensity(m_leaky, xs), expect, rtol=1e-6)
    assert np.allclose(tail_intensity(m_lin, xs), tail_intensity(nu, xs),
                       rtol=1e-6)


def test_activation_transform_rejects_nonhomogeneous():
    with pytest.raises(ValueError):
        activation_transform(LevyTriple(0.0, trivial_measure()), TANH)


# ---------------------------------------------------------------------------
# Poisson point process sampling
# ---------------------------------------------------------------------------

def test_sample_ppp_atoms_sorted_and_floored():
    m = gamma_measure(2.0, 1.0)
    pp = sample_ppp(m, RngStream(31, 0), atom_floor=1e-4)
    assert np.all(np.diff(pp.atoms) <= 0)
    assert np.all(pp.atoms >= 1e-4)
    assert pp.truncation_threshold == 1e-4
    assert not pp.uncompensated


def test_sample_ppp_uncompensated_flag_for_infinite_mean():
    pp = sample_ppp(stable_measure(0.5, 1.0), RngStream(32, 0), atom_floor=1e-3)
    assert pp.uncompensated


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


def test_default_atom_floor_positive():
    for m in _measures().values():
        assert default_atom_floor(m) > 0.0


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
    # ID(0, eta x^{-1} e^{-rate x} dx) is Gamma(eta, rate); truncation is
    # compensated by the small-atom mean, so the default floor is accurate
    t = LevyTriple(0.0, gamma_measure(2.0, 1.5))
    draws = sample_id_batch(t, RngStream(42, 0), 20_000)
    ks = ks_distance(draws, st.gamma(2.0, scale=1.0 / 1.5).cdf)
    assert ks < 0.015


def test_sample_id_stable_fast_path_vs_atom_series():
    # the exact stable sampler against the truncated atom construction,
    # shifting the latter by the (uncompensated) truncated mean mass
    m = stable_measure(0.5, 1.0)
    t = LevyTriple(0.0, m)
    n = 20_000
    fast = sample_id_batch(t, RngStream(43, 0), n)  # exact sampler path
    floor = 1e-5
    slow = sample_id_batch(t, RngStream(44, 0), n, atom_floor=floor)
    slow = slow + mean_mass_below(m, floor)
    both = np.sort(np.concatenate([fast, slow]))
    f_fast = np.searchsorted(np.sort(fast), both, side="right") / n
    f_slow = np.searchsorted(np.sort(slow), both, side="right") / n
    ks2 = float(np.max(np.abs(f_fast - f_slow)))
    assert ks2 < 1.95 * math.sqrt(2.0 / n)


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


def test_sample_id_requires_floor_semantics():
    with pytest.raises(ValueError):
        sample_ppp_matrix(gamma_measure(1.0, 1.0), RngStream(1, 0),
                          atom_floor=0.0)
