"""Finite feedforward networks with Gaussian scale-mixture weights, and
samplers of their infinite-width limits.

A network has layer widths d_in, p_1, ..., p_L, d_out.  Hidden layer l carries
per-node variances lambda^{(l)} drawn from a variance model, and the weight
from node j of layer l-1 into node k of layer l is sqrt(lambda^{(l-1)}_j)
V^{(l)}_{jk} with V ~ N(0, sigma_v^2); the input layer uses the fixed
lambda^{(0)} = 1/d_in.  As widths grow, a single input's pre-activations
converge to a Gaussian scale mixture driven by a stochastic variance
recurrence, and the joint law over several inputs converges to a mixture of
Gaussian processes whose random covariance kernel this module samples
directly.

At finite width the same conditional Gaussianity holds exactly: given
lambda^{(l-1)} and the activations H of m rows that share one realisation,
the layer-l pre-activations are iid over the p_l output nodes, each node's
m-vector N(0, sigma_b^2 + sigma_v^2 H diag(lambda^{(l-1)}) H^T).
`forward_law` draws from that law layer by layer without forming any weight
matrix; `sample_network` / `forward` keep the explicit weights as the public
API and the oracle it is tested against.
"""

import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import kernels, levy
from .activations import ActivationKind, activation_from_name
from .models import model_from_spec
from .rng import sample_positive_stable

__all__ = [
    "NetworkConfig",
    "NetworkRealization",
    "sample_lambdas",
    "sample_network",
    "forward",
    "forward_law",
    "simulate_limit_single_input",
    "variance_recursion",
    "sample_random_kernel",
    "stable_case_scale",
]


@dataclass
class NetworkConfig:
    """Architecture plus priors: widths, weight/bias scales, activation, and
    one variance model per hidden layer."""

    d_in: int
    d_out: int
    widths: list
    sigma_v: float
    sigma_b: float
    activation: ActivationKind
    variance_models: list

    def __post_init__(self):
        if self.d_in < 1 or self.d_out < 1:
            raise ValueError("d_in and d_out must be positive")
        if any(p < 1 for p in self.widths):
            raise ValueError("hidden widths must be positive")
        if self.sigma_v <= 0:
            raise ValueError("sigma_v must be > 0")
        if self.sigma_b < 0:
            raise ValueError("sigma_b must be >= 0")
        if len(self.variance_models) != len(self.widths):
            raise ValueError("need one variance model per hidden layer")

    @property
    def n_hidden(self):
        return len(self.widths)

    def layer_sizes(self):
        """[d_in, p_1, ..., p_L, d_out]."""
        return [self.d_in] + list(self.widths) + [self.d_out]

    def to_dict(self):
        act = {"name": self.activation.name}
        if self.activation.beta is not None:
            act["beta"] = self.activation.beta
        return {
            "d_in": self.d_in,
            "d_out": self.d_out,
            "widths": list(self.widths),
            "sigma_v": self.sigma_v,
            "sigma_b": self.sigma_b,
            "activation": act,
            "variance_models": [m.to_dict() for m in self.variance_models],
        }

    def to_json(self):
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_dict(cls, d):
        act = d["activation"]
        if isinstance(act, str):
            act = {"name": act}
        return cls(
            d_in=int(d["d_in"]),
            d_out=int(d["d_out"]),
            widths=[int(p) for p in d["widths"]],
            sigma_v=float(d["sigma_v"]),
            sigma_b=float(d["sigma_b"]),
            activation=activation_from_name(act["name"], act.get("beta")),
            variance_models=[model_from_spec(s) for s in d["variance_models"]],
        )

    @classmethod
    def from_json(cls, s):
        return cls.from_dict(json.loads(s))


@dataclass
class NetworkRealization:
    """One draw of a finite network: per-hidden-layer variance vectors, the
    N(0, sigma_v^2) matrices V^{(l)} of shape (p_{l-1}, p_l), and the bias
    vectors.  lambdas[0] is the fixed input-layer value 1/d_in."""

    lambdas: list = field(default_factory=list)
    V: list = field(default_factory=list)
    B: list = field(default_factory=list)

    def weight(self, l):
        """W^{(l)} = diag(sqrt(lambda^{(l-1)})) V^{(l)}, shape (p_{l-1}, p_l)."""
        return np.sqrt(self.lambdas[l - 1])[:, None] * self.V[l - 1]


def sample_lambdas(cfg, rng):
    """The variances [lambda^{(0)}, ..., lambda^{(L)}] of one realisation, one
    draw per hidden layer in layer order; lambda^{(0)} = 1/d_in is fixed."""
    sizes = cfg.layer_sizes()
    lambdas = [np.full(cfg.d_in, 1.0 / cfg.d_in)]
    for l, model in enumerate(cfg.variance_models):
        lambdas.append(model.sample(cfg.widths[l], rng, p_next=sizes[l + 2],
                                    n=1)[0])
    return lambdas


def sample_network(cfg, rng):
    """Draw all variances, weights and biases of a finite network."""
    sizes = cfg.layer_sizes()
    gen = rng.generator
    lambdas = sample_lambdas(cfg, rng)
    V = [cfg.sigma_v * gen.standard_normal((sizes[l], sizes[l + 1]))
         for l in range(len(sizes) - 1)]
    B = [cfg.sigma_b * gen.standard_normal(sizes[l + 1])
         if cfg.sigma_b > 0 else np.zeros(sizes[l + 1])
         for l in range(len(sizes) - 1)]
    return NetworkRealization(lambdas=lambdas, V=V, B=B)


def forward(real, cfg, x):
    """Pre-activations Z^{(1..L+1)} for input x (a d_in vector, or an
    (m, d_in) batch giving (m, p_l) entries per layer)."""
    x = np.asarray(x, dtype=float)
    squeeze = x.ndim == 1
    h = np.atleast_2d(x)
    if h.shape[1] != cfg.d_in:
        raise ValueError(f"input has {h.shape[1]} features, expected {cfg.d_in}")
    phi = cfg.activation
    zs = []
    for l in range(1, cfg.n_hidden + 2):
        z = h @ real.weight(l) + real.B[l - 1]
        zs.append(z[0] if squeeze else z)
        h = phi(z)
    return zs


def _bias_augmented(a, sigma_b):
    """[a | sigma_b 1], whose Gram matrix is sigma_b^2 + a a^T."""
    if sigma_b > 0:
        a = np.hstack([a, np.full((a.shape[0], 1), sigma_b)])
    return a


def _distinct_rows(a):
    """(distinct, back): the bitwise-distinct rows of a in order of first
    appearance, and for every row of a the index of its copy in distinct."""
    index, first, back = {}, [], []
    for i, row in enumerate(a):
        k = index.setdefault(row.tobytes(), len(index))
        if k == len(first):
            first.append(i)
        back.append(k)
    return a[first], np.array(back)


def forward_law(cfg, lambdas, x, rng, keep=None):
    """Pre-activations Z^{(1..L+1)} of input rows that share one realisation
    with variances `lambdas`, drawn from their exact conditional law without
    forming any weight matrix.

    Given the m rows H entering layer l, Z^{(l)} has the law of A G with
    A = [sigma_v H diag(sqrt(lambda^{(l-1)})) | sigma_b 1] and G iid N(0, 1):
    its p_l columns are iid N(0, A A^T).  The factor L = R^T comes from a QR
    of the transpose of A's distinct rows, A_k^T = Q R, so L L^T = A_k A_k^T
    with no Gram matrix and no jitter, exactly also for collinear rows.  Each
    layer draws one standard_normal((rank, p_l)) block, and rows that are
    bitwise equal get bit-identical outputs.

    x is an (m, d_in) batch (or a d_in vector, squeezing the outputs like
    `forward`).  keep, if given, holds one boolean mask per hidden layer,
    broadcastable to (m, p_l); a False entry prunes that node for that row,
    i.e. zeroes its variance in the product into the next layer.
    """
    x = np.asarray(x, dtype=float)
    squeeze = x.ndim == 1
    h = np.atleast_2d(x)
    if h.shape[1] != cfg.d_in:
        raise ValueError(f"input has {h.shape[1]} features, expected {cfg.d_in}")
    gen = rng.generator
    phi = cfg.activation
    sizes = cfg.layer_sizes()
    zs = []
    for l in range(1, cfg.n_hidden + 2):
        a = cfg.sigma_v * h * np.sqrt(lambdas[l - 1])
        if l > 1 and keep is not None:
            a = a * keep[l - 2]
        distinct, back = _distinct_rows(_bias_augmented(a, cfg.sigma_b))
        factor = np.linalg.qr(distinct.T, mode="r").T
        z = (factor @ gen.standard_normal((factor.shape[1], sizes[l])))[back]
        zs.append(z[0] if squeeze else z)
        h = phi(z)
    return zs


def simulate_limit_single_input(cfg, x, rng, atom_floor=None, replicates=1):
    """Draws from the infinite-width law of a single input's pre-activations.

    The conditional variance chain is Sigma^{(1)} = sigma_b^2 +
    sigma_v^2 |x|^2 / d_in and Sigma^{(l+1)} = sigma_b^2 +
    sigma_v^2 S^{(l)} Sigma^{(l)}, where S^{(l)} is infinitely divisible with
    the activation-transformed parameters of layer l's variance model.
    Outputs are sqrt(Sigma^{(L+1)}) times iid standard normals, the same
    Sigma shared across all d_out coordinates of one replicate.

    Returns (sigma_chains, outputs) with shapes (replicates, L+1) and
    (replicates, d_out); both squeeze to 1-d when replicates == 1.
    """
    if not cfg.activation.homogeneous:
        raise ValueError("the single-input limit requires a positive "
                         "homogeneous activation (linear, relu, leaky_relu)")
    x = np.asarray(x, dtype=float)
    n = int(replicates)
    sigma = np.full(n, cfg.sigma_b ** 2
                    + cfg.sigma_v ** 2 * float(x @ x) / cfg.d_in)
    chain = [sigma.copy()]
    for model in cfg.variance_models:
        c, eta = levy.activation_transform(model.limit, cfg.activation)
        s = levy.sample_id_batch(levy.LevyTriple(c, eta), rng, n, atom_floor)
        sigma = cfg.sigma_b ** 2 + cfg.sigma_v ** 2 * s * sigma
        chain.append(sigma.copy())
    chains = np.stack(chain, axis=1)
    outputs = np.sqrt(sigma)[:, None] * rng.generator.standard_normal((n, cfg.d_out))
    if n == 1:
        return chains[0], outputs[0]
    return chains, outputs


def variance_recursion(cfg, x):
    """Deterministic chain of expected conditional variances
    E[Sigma^{(l)}] = sigma_b^2 + sigma_v^2 C_phi (a + M1) E[Sigma^{(l-1)}],
    where C_phi = E[phi(Z)^2] for standard normal Z.  Requires every layer's
    first moment M1 to be finite."""
    if not cfg.activation.homogeneous:
        raise ValueError("variance recursion requires a homogeneous activation")
    x = np.asarray(x, dtype=float)
    out = [cfg.sigma_b ** 2 + cfg.sigma_v ** 2 * float(x @ x) / cfg.d_in]
    c_phi = cfg.activation.c_phi
    for model in cfg.variance_models:
        m1 = levy.moment(model.limit.measure, 1)
        if not math.isfinite(m1):
            raise ValueError(
                f"M1 infinite for model {model.name!r}: the expected-variance "
                "recursion does not apply")
        out.append(cfg.sigma_b ** 2 + cfg.sigma_v ** 2 * c_phi
                   * (model.limit.location_a + m1) * out[-1])
    return np.array(out)


_MC_BUDGET = 100_000
# the activations whose conditional outer moment has a closed form
_CLOSED_FORM = ("linear", "relu")


def _cond_phi_outer(kmat, act, gen, factor=None):
    """E[phi(z_i) phi(z_j)] over z ~ N(0, kmat): closed form for linear and
    ReLU, Monte Carlo with a 1e5-draw budget otherwise, drawing z = G F^T
    from the factor F F^T = kmat that this branch needs."""
    if act.name == "linear":
        return kmat.copy()
    if act.name == "relu":
        d = np.sqrt(np.clip(np.diag(kmat), 0.0, None))
        denom = np.outer(d, d)
        with np.errstate(invalid="ignore", divide="ignore"):
            rho = np.where(denom > 0, kmat / np.where(denom > 0, denom, 1.0), 0.0)
        rho = np.clip(rho, -1.0, 1.0)
        # kappa_1(rho), the closed form of kernels.kappa(1, rho), elementwise
        kap = np.sqrt(1.0 - rho * rho) + (math.pi / 2.0 + np.arcsin(rho)) * rho
        return denom * kap / (2.0 * math.pi)
    fz = act(_gaussian_draws(factor, gen, _MC_BUDGET))
    return fz.T @ fz / _MC_BUDGET


def _factor_with_jitter(kmat):
    """Lower-triangular factor of a PSD kernel matrix, escalating a relative
    diagonal jitter from 1e-12 to 1e-8 before giving up."""
    scale = max(float(np.trace(kmat)) / max(kmat.shape[0], 1), 1e-300)
    jitter = 1e-12
    while jitter <= 1e-8:
        try:
            return np.linalg.cholesky(kmat + jitter * scale * np.eye(kmat.shape[0]))
        except np.linalg.LinAlgError:
            jitter *= 10.0
    raise np.linalg.LinAlgError(
        "kernel matrix is not positive semi-definite within the 1e-8 relative "
        "jitter tolerance; the intermediate kernel is numerically invalid")


def _gaussian_draws(factor, gen, count):
    """count rows z = G F^T, iid N(0, F F^T), from a (count, rank) block G."""
    return gen.standard_normal((count, factor.shape[1])) @ factor.T


def _envelope_constant(act):
    """Bound constant for phi(z)^2 relative to the Gaussian scale: the squared
    Lipschitz constant for homogeneous activations, 1 for bounded ones."""
    if act.homogeneous:
        return max(act.c_lip ** 2, 1e-12)
    return 1.0


def sample_random_kernel(cfg, inputs, rng, atom_floor=None):
    """One draw of the random covariance kernels K^{(1..L+1)} on a small batch
    of inputs (n <= 64 rows).

    K^{(1)} = sigma_b^2 + sigma_v^2 x^T x' / d_in; each next layer adds the
    drift term sigma_v^2 a E[phi(z) phi(z')|K] and an atom series
    sigma_v^2 sum_j lam_j phi(zeta_j(x)) phi(zeta_j(x')) with atoms from the
    layer's limiting measure and zeta_j ~ N(0, K^{(l)}).  Truncated small-atom
    mass is folded into the drift term when the measure's first moment is
    finite.

    The marks are zeta = G F^T with G iid N(0, 1) of shape (atoms, rank) and
    F F^T = K^{(l)}.  At layer 1, F is the exact input factor
    [sigma_v x / sqrt(d_in) | sigma_b 1], reduced to n columns by a thin QR
    (F = R^T from F^T = Q R) only when it has more; so the marks cost rank
    normals per atom and need no jitter, also for duplicate or collinear
    inputs.  Deeper kernels are only known as matrices, and there F is their
    Cholesky factor with the escalating relative jitter of
    `_factor_with_jitter`.
    """
    x = np.atleast_2d(np.asarray(inputs, dtype=float))
    n = x.shape[0]
    if n > 64:
        raise ValueError("sample_random_kernel supports at most 64 inputs")
    if x.shape[1] != cfg.d_in:
        raise ValueError(f"inputs have {x.shape[1]} features, expected {cfg.d_in}")
    gen = rng.generator
    act = cfg.activation
    sv2 = cfg.sigma_v ** 2
    kmat = cfg.sigma_b ** 2 + sv2 * (x @ x.T) / cfg.d_in
    factor = _bias_augmented(cfg.sigma_v * x / math.sqrt(cfg.d_in), cfg.sigma_b)
    if factor.shape[1] > n:
        factor = np.linalg.qr(factor.T, mode="r").T
    out = [kmat]
    c_env = _envelope_constant(act)
    for model in cfg.variance_models:
        triple = model.limit
        m = triple.measure
        floor = atom_floor
        if floor is None and m.kind == "analytic":
            # keep atoms whose worst-case kernel contribution exceeds 1e-8 of
            # the running trace
            trace = max(float(np.trace(kmat)), 1e-300)
            max_diag = max(float(np.max(np.diag(kmat))), 1e-300)
            rule = 1e-8 * trace / (sv2 * max_diag * c_env)
            floor = min(levy.default_atom_floor(m), rule)
        pp = levy.sample_ppp(m, rng, atom_floor=floor)
        atoms = pp.atoms
        if factor is None and (atoms.size or act.name not in _CLOSED_FORM):
            factor = _factor_with_jitter(kmat)
        cond = _cond_phi_outer(kmat, act, gen, factor)
        a_eff = triple.location_a
        if math.isfinite(pp.truncated_mean_mass):
            a_eff += pp.truncated_mean_mass
        nxt = cfg.sigma_b ** 2 + sv2 * a_eff * cond
        if atoms.size:
            fz = act(_gaussian_draws(factor, gen, atoms.size))
            nxt = nxt + sv2 * (fz.T * atoms) @ fz
        kmat = 0.5 * (nxt + nxt.T)
        factor = None
        out.append(kmat)
    return out


def stable_case_scale(cfg, x, alpha, rng=None):
    """Per-layer conditional scales r^{(l)} when every hidden layer's variance
    sum is Stable(alpha, 1): given the previous layers, K^{(l)}(x,x) -
    sigma_b^2 is Stable(alpha, r^{(l)}) with
    r^{(l)} = sigma_v^2 (E[|phi(zeta)|^{2 alpha} | Sigma^{(l-1)}])^{1/alpha}.

    With one hidden layer the chain is deterministic; deeper chains draw the
    intermediate Stable(alpha, 1) variables and need an rng.  Returns the
    list [r^{(2)}, ..., r^{(L+1)}].
    """
    if not 0 < alpha <= 1:
        raise ValueError("alpha must lie in (0, 1]")
    act = cfg.activation
    if act.name not in ("relu", "linear"):
        raise ValueError("stable_case_scale supports relu and linear activations")
    x = np.asarray(x, dtype=float)
    sv2 = cfg.sigma_v ** 2
    sigma = cfg.sigma_b ** 2 + sv2 * float(x @ x) / cfg.d_in
    scales = []
    for l in range(cfg.n_hidden):
        moment = kernels.relu_moment(alpha, sigma)
        if act.name == "linear":
            moment *= 2.0
        r = sv2 * moment ** (1.0 / alpha)
        scales.append(r)
        if l + 1 < cfg.n_hidden:
            if rng is None:
                raise ValueError("deeper-than-one-layer stable chains draw "
                                 "intermediate stable variables; pass an rng")
            lam = float(sample_positive_stable(alpha, 1.0, rng))
            sigma = cfg.sigma_b ** 2 + lam * r
    return scales
