"""Per-node variance laws mu_p for scale-mixture network weights, each bundled
with its declared infinite-width limit ID(a, rho) and a numerical checker for
the two convergence conditions (tail and truncated-mean) that characterize
convergence of sum_j lambda_{p,j} to that limit.
"""

import math

import numpy as np
from scipy import special as sp
from scipy import stats as st

from . import levy
from .levy import LevyTriple
from .reporting import ExperimentReport
from .rng import (_blocks, sample_beta, sample_etbfry, sample_gamma,
                  sample_half_cauchy, sample_inverse_gamma, sample_pareto)

__all__ = [
    "VarianceModel",
    "make_model",
    "model_from_spec",
    "measure_from_spec",
    "check_id_conditions",
    "gen_bfry_density",
    "MODEL_NAMES",
]

MODEL_NAMES = (
    "deterministic", "bernoulli", "group_lasso_gamma", "inverse_gamma",
    "inverse_gamma_stable", "beta", "horseshoe", "regularized_horseshoe",
    "generalized_bfry", "spike_slab", "perman_generic",
)


class VarianceModel:
    """A variance law: a sampler mu_p over node variances at width p, plus the
    limit triple (a, rho) that sum_j lambda_{p,j} converges to."""

    def __init__(self, name, params, limit, sampler, requires_p_next=False):
        self.name = name
        self.params = dict(params)
        self.limit = limit
        self._sampler = sampler
        self.requires_p_next = requires_p_next

    def sample(self, p, rng, p_next=None, n=1):
        """An (n, p) array of iid draws from mu_p."""
        if p < 1:
            raise ValueError("p must be >= 1")
        if self.requires_p_next and p_next is None:
            raise ValueError(f"model {self.name} requires p_next")
        out = np.asarray(self._sampler(int(p), p_next, rng, int(n)), dtype=float)
        return out.reshape(int(n), int(p))

    def to_dict(self):
        return {"name": self.name, "params": self.params}

    def __repr__(self):
        return f"VarianceModel({self.name}, params={self.params})"


# ---------------------------------------------------------------------------
# slabs for the spike-and-slab model
# ---------------------------------------------------------------------------

def _make_slab(slab, c):
    """(c * H, sampler(rng, size) of H) for a slab spec {point_mass, gamma,
    lognormal} with law H."""
    kind = slab["kind"]
    if kind == "point_mass":
        loc = float(slab["loc"])
        if loc <= 0:
            raise ValueError("point-mass slab location must be > 0")
        return levy.atomic_measure([(loc, c)]), lambda rng, size: np.full(size, loc)
    if kind == "gamma":
        shape, rate = float(slab["shape"]), float(slab["rate"])
        dist = st.gamma(shape, scale=1.0 / rate)
        sampler = lambda rng, size: sample_gamma(shape, rate, rng, size)
    elif kind == "lognormal":
        mu, sigma = float(slab["mu"]), float(slab["sigma"])
        dist = st.lognorm(sigma, scale=math.exp(mu))
        sampler = lambda rng, size: np.exp(
            mu + sigma * rng.generator.standard_normal(size))
    else:
        raise ValueError(f"unknown slab kind {kind!r}")
    meas = levy.finite_measure(c, dist, sampler, name=f"{kind}_slab",
                               params=dict(slab))
    return meas, sampler


# ---------------------------------------------------------------------------
# generalized BFRY density (finite-p law of lambda = Pareto * etBFRY)
# ---------------------------------------------------------------------------

def _bfry_t(p, eta, alpha, tau):
    # chosen so that p * f_p(x) converges to the generalized gamma Pareto
    # density (eta / Gamma(1-alpha)) x^{-1-tau} gammainc_lower(tau-alpha, x),
    # which also gives E[sum_j lambda_{p,j}] -> eta / (tau - 1)
    return (p * alpha * tau / eta) ** (1.0 / alpha)


def gen_bfry_density(x, p, eta, alpha, tau):
    """Closed-form density of lambda = Pareto(tau,1) * etBFRY(alpha, t, 1)
    at width p, with t = (p alpha tau / eta)^{1/alpha}."""
    x = np.asarray(x, dtype=float)
    t = _bfry_t(p, eta, alpha, tau)
    shape = tau - alpha
    g = math.gamma(shape)
    pref = tau * alpha / (math.gamma(1.0 - alpha) * ((t + 1.0) ** alpha - 1.0))
    small = x < 0.01 / (t + 1.0)
    xs = np.where(small, 0.5, x)
    term = np.maximum(
        sp.gammainc(shape, xs) * g
        - sp.gammainc(shape, (t + 1.0) * np.minimum(xs, 1e290 / t)) * g
        / (t + 1.0) ** shape,
        0.0)
    exact = pref * xs ** (-tau - 1.0) * term
    # small-x cancellation: the gamma difference expands as
    # t x^{shape+1}/(shape+1) - t (t+2) x^{shape+2}/(2 (shape+2)) + O(x^{shape+3})
    xa = np.where(small, x, 0.5)
    asym = (pref * t * xa ** (-alpha) / (shape + 1.0)
            * (1.0 - (t + 2.0) * (shape + 1.0) * xa / (2.0 * (shape + 2.0))))
    return np.where(small, asym, exact)


# ---------------------------------------------------------------------------
# Perman-style construction for an arbitrary limiting measure
# ---------------------------------------------------------------------------

def _laplace_exponent(m, t):
    """psi(t) = int (1 - e^{-ut}) rho(du) = int_0^inf e^{-v} rhobar(v/t) dv,
    after the substitution v = u t, which keeps the integrand's mass near
    v = 1 for every t (in u it sits near 1/t, where the quadrature misses
    it once t is large).  e^{-v} underflows past v = 750."""
    hi = m.support[1]

    def integrand(v):
        return np.exp(-v) * m.tail_fn(np.clip(np.asarray(v) / t, 1e-300, hi))

    return levy._quad(integrand, 0.0, min(t * hi, 750.0))


def _inverse_laplace_exponent(m, p):
    """psi^{-1}(p), the generalized inverse of the increasing psi, as the
    inverse of the non-increasing -psi."""
    neg_psi = lambda t: -np.array([_laplace_exponent(m, ti) for ti in t.ravel()])
    b = float(levy._generalized_inverse(neg_psi, [-p], (0.0, math.inf))[0])
    if not b <= 1e200:
        raise ValueError(
            "psi^{-1}(p) exceeds 1e200; this measure's Laplace exponent "
            "grows too slowly for a width-p construction at this scale")
    return b


# perman's CDF: a trapezoid integral on 200 001 log-spaced points, kept at 4 000
_PERMAN_DENSE = 200001
_PERMAN_GRID = 4000


class _PermanSampler:
    """Inverse-CDF sampler for mu_p(du) = (1 - e^{-u b}) / p rho(du) with
    b = psi^{-1}(p); the CDF is tabulated on a log grid once per width."""

    def __init__(self, m, p):
        b = _inverse_laplace_exponent(m, p)
        # lower cutoff: P(X < x_lo) <= b * mean_below(x_lo) / p made negligible
        x_lo = levy.inverse_tail_intensity(m, min(1e6, 100.0 * p))
        x_lo = max(x_lo, 1e-280)
        for _ in range(60):
            if b * levy.mean_mass_below(m, x_lo) / p < 1e-9:
                break
            x_lo /= 10.0
        x_hi = levy.inverse_tail_intensity(m, 1e-12 * p)
        if not math.isfinite(x_hi) or x_hi <= x_lo:
            x_hi = m.support[1] if math.isfinite(m.support[1]) else x_lo * 1e12
        hi_sup = m.support[1]
        x_hi = min(x_hi, hi_sup) if math.isfinite(hi_sup) else x_hi
        # dense log grid for the cumulative integral I(x) = int_x^hi e^{-bu} rhobar(u) du
        u = np.exp(np.linspace(math.log(x_lo), math.log(x_hi), _PERMAN_DENSE))
        w = np.exp(-b * u) * np.asarray(m.tail_fn(u), dtype=float)
        seg = 0.5 * (w[1:] + w[:-1]) * np.diff(u)
        integral_right = np.concatenate((np.cumsum(seg[::-1])[::-1], [0.0]))
        tail_u = np.asarray(m.tail_fn(u), dtype=float)
        survival = (tail_u * (-np.expm1(-b * u)) + b * integral_right) / p
        cdf = np.clip(1.0 - survival, 0.0, 1.0)
        idx = np.linspace(0, _PERMAN_DENSE - 1, _PERMAN_GRID).astype(int)
        cdf_g, logu_g = cdf[idx], np.log(u[idx])
        keep = np.concatenate(([True], np.diff(cdf_g) > 0))
        self._cdf = cdf_g[keep]
        self._logu = logu_g[keep]
        self.b = b

    def __call__(self, rng, size):
        v = rng.generator.random(size)
        return np.exp(np.interp(v, self._cdf, self._logu,
                                left=self._logu[0], right=self._logu[-1]))


# ---------------------------------------------------------------------------
# model constructors
# ---------------------------------------------------------------------------

def make_model(name, **params):
    """Build a named variance model with its declared limit.  A missing
    parameter raises a ValueError that names the model and the parameter."""
    try:
        return _build_model(name, params)
    except KeyError as err:
        raise ValueError(f"model {name!r} needs the parameter {err.args[0]!r}") from None


def _build_model(name, params):
    if name == "deterministic":
        c1 = float(params.get("c1", 1.0))
        if c1 <= 0:
            raise ValueError("deterministic needs c1 > 0")
        return VarianceModel(
            name, {"c1": c1}, LevyTriple(c1, levy.trivial_measure()),
            lambda p, pn, rng, n: np.full((n, p), c1 / p))

    if name == "bernoulli":
        c = float(params["c"])
        if c <= 0:
            raise ValueError("bernoulli needs c > 0")

        def sampler(p, pn, rng, n):
            if p < c:
                raise ValueError("bernoulli requires p >= c")
            return (rng.generator.random((n, p)) < c / p).astype(float)

        return VarianceModel(
            name, {"c": c}, LevyTriple(0.0, levy.atomic_measure([(1.0, c)])),
            sampler)

    if name == "group_lasso_gamma":
        c1 = float(params.get("c1", 1.0))
        if c1 <= 0:
            raise ValueError("group_lasso_gamma needs c1 > 0")

        def sampler(p, pn, rng, n):
            b_p = p * (pn + 1) / c1
            return sample_gamma((pn + 1) / 2.0, b_p / 2.0, rng, (n, p))

        return VarianceModel(
            name, {"c1": c1}, LevyTriple(c1, levy.trivial_measure()),
            sampler, requires_p_next=True)

    if name == "inverse_gamma":
        return VarianceModel(
            name, {}, LevyTriple(2.0, levy.trivial_measure()),
            lambda p, pn, rng, n: sample_inverse_gamma(2.0, 2.0 / p, rng, (n, p)))

    if name == "inverse_gamma_stable":
        alpha = float(params["alpha"])
        if not (0 < alpha < 1):
            raise ValueError("inverse_gamma_stable needs alpha in (0,1)")

        def sampler(p, pn, rng, n):
            scale = (math.gamma(1.0 + alpha) / p) ** (1.0 / alpha)
            return sample_inverse_gamma(alpha, scale, rng, (n, p))

        return VarianceModel(
            name, {"alpha": alpha},
            LevyTriple(0.0, levy.stable_measure(alpha, 1.0)), sampler)

    if name == "beta":
        eta, b = float(params["eta"]), float(params["b"])
        return VarianceModel(
            name, {"eta": eta, "b": b},
            LevyTriple(0.0, levy.beta_measure(eta, b)),
            lambda p, pn, rng, n: sample_beta(eta / p, b, rng, (n, p)))

    if name == "horseshoe":
        c = float(params["c"])
        if c <= 0:
            raise ValueError("horseshoe needs c > 0")

        def sampler(p, pn, rng, n):
            u = sample_half_cauchy(rng, (n, p))
            for block in _blocks(u):  # (c pi^2 u) u, without a full temporary
                block *= c * math.pi**2 * block
            u /= 4.0 * p * p
            return u

        return VarianceModel(
            name, {"c": c}, LevyTriple(0.0, levy.horseshoe_measure(c)), sampler)

    if name == "regularized_horseshoe":
        c = float(params["c"])
        if c <= 0:
            raise ValueError("regularized_horseshoe needs c > 0")
        c2 = c * c

        def sampler(p, pn, rng, n):
            t = sample_half_cauchy(rng, (n, p))
            r = t * t / (p * p)
            return c2 * r / (c2 + r)

        return VarianceModel(
            name, {"c": c},
            LevyTriple(0.0, levy.scaled_stable_beta_measure(c)), sampler)

    if name == "generalized_bfry":
        eta = float(params["eta"])
        alpha = float(params["alpha"])
        tau = float(params["tau"])
        if not (0 < alpha < 1) or tau <= alpha or eta <= 0:
            raise ValueError("generalized_bfry needs alpha in (0,1), tau > alpha, eta > 0")

        def sampler(p, pn, rng, n):
            t = _bfry_t(p, eta, alpha, tau)
            lam = sample_pareto(tau, 1.0, rng, (n, p))
            lam *= sample_etbfry(alpha, t, 1.0, rng, (n, p))
            return lam

        return VarianceModel(
            name, {"eta": eta, "alpha": alpha, "tau": tau},
            LevyTriple(0.0, levy.gg_pareto_measure(eta, alpha, tau)), sampler)

    if name == "spike_slab":
        c = float(params["c"])
        c_tilde = float(params.get("c_tilde", 0.0))
        if c <= 0 or c_tilde < 0:
            raise ValueError("spike_slab needs c > 0, c_tilde >= 0")
        slab = params["slab"]
        limit_measure, slab_sampler = _make_slab(slab, c)

        def sampler(p, pn, rng, n):
            take = rng.generator.random((n, p)) < c / p
            out = np.full((n, p), c_tilde / p)
            k = int(take.sum())
            if k:
                out[take] = slab_sampler(rng, k)
            return out

        return VarianceModel(
            name, {"c": c, "c_tilde": c_tilde, "slab": dict(slab)},
            LevyTriple(c_tilde, limit_measure), sampler)

    if name == "perman_generic":
        spec = params["measure"]
        m = measure_from_spec(spec) if isinstance(spec, dict) else spec
        if m.is_trivial or (m.family or (None,))[0] == "atomic":
            raise ValueError("perman_generic needs an analytic measure, "
                             "not the zero measure or an atomic one")
        cache = {}

        def sampler(p, pn, rng, n):
            if p not in cache:
                cache[p] = _PermanSampler(m, p)
            return cache[p](rng, (n, p))

        return VarianceModel(
            name, {"measure": m.to_dict()}, LevyTriple(0.0, m), sampler)

    raise ValueError(f"unknown model name {name!r}")


def measure_from_spec(spec):
    """Build a MeasureDescriptor from {"name": ..., "params": {...}}."""
    name, params = spec["name"], dict(spec.get("params", {}))
    builders = {
        "trivial": levy.trivial_measure,
        "atomic": lambda atoms: levy.atomic_measure(atoms),
        "stable": levy.stable_measure,
        "horseshoe": levy.horseshoe_measure,
        "gamma": levy.gamma_measure,
        "beta": levy.beta_measure,
        "gg_pareto": levy.gg_pareto_measure,
        "scaled_stable_beta": levy.scaled_stable_beta_measure,
    }
    if name not in builders:
        raise ValueError(f"unknown measure name {name!r}")
    return builders[name](**params)


def model_from_spec(spec):
    """Build a VarianceModel from {"name": ..., "params": {...}}."""
    return make_model(spec["name"], **dict(spec.get("params", {})))


# ---------------------------------------------------------------------------
# convergence checker
# ---------------------------------------------------------------------------

def check_id_conditions(model, p_grid, x_grid, h_grid, replicates, rng,
                        p_next=None):
    """Monte-Carlo check of the two convergence conditions for
    sum_j lambda_{p,j} -> ID(a, rho):

      (i)  p P(lambda > x)            -> rhobar(x)
      (ii) p E[lambda 1{lambda <= h}] -> a + int_0^h x rho(dx)

    Each grid point is reported as an estimate with standard error and a
    pass/fail check at 3 standard errors against the declared limit.  The
    widths' variances are drawn from rng in p_grid order.
    """
    limit = model.limit
    report = ExperimentReport(
        name="id_conditions",
        config={"model": model.to_dict(), "p_grid": list(p_grid),
                "x_grid": list(x_grid), "h_grid": list(h_grid)},
        master_seed=rng.master_seed, replicate_count=replicates)
    for p in p_grid:
        draws = model.sample(p, rng, p_next=p_next, n=replicates)
        flat = draws.ravel()
        n_total = flat.size
        for x in x_grid:
            frac = np.mean(flat > x)
            est = p * frac
            se = p * math.sqrt(max(frac * (1 - frac), 0.0) / n_total)
            target = levy.tail_intensity(limit.measure, x)
            report.add_estimate(f"tail p={p} x={x:g}", est, se)
            report.add_check(f"tail p={p} x={x:g}", est, target,
                             max(3 * se, 1e-9))
        for h in h_grid:
            vals = p * flat * (flat <= h)
            est = float(vals.mean())
            se = float(vals.std(ddof=1)) / math.sqrt(n_total)
            target = limit.location_a + levy.mean_mass_below(limit.measure, h)
            report.add_estimate(f"truncmean p={p} h={h:g}", est, se)
            report.add_check(f"truncmean p={p} h={h:g}", est, target,
                             max(3 * se, 1e-9))
    return report
