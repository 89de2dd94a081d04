"""Finite feedforward networks with Gaussian scale-mixture weights, and
samplers of their infinite-width limits.

A network has layer widths d_in, p_1, ..., p_L, d_out.  Hidden layer l carries
per-node variances lambda^{(l)} drawn from a variance model, and the weight
from node j of layer l-1 into node k of layer l is sqrt(lambda^{(l-1)}_j)
V^{(l)}_{jk} with V ~ N(0, sigma_v^2); the input layer uses the fixed
lambda^{(0)} = 1/d_in.  As widths grow, the inputs' joint law converges to a
mixture of Gaussian processes whose random covariance kernel this module
samples by marking each layer's Levy measure with Gaussian pre-activations;
one input's stochastic variance recurrence is its one-input case.

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
from .rng import _integer

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
        self.d_in = _integer("d_in", self.d_in)
        self.d_out = _integer("d_out", self.d_out)
        self.widths = [_integer("hidden width", p) for p in self.widths]
        if self.d_in < 1 or self.d_out < 1:
            raise ValueError("d_in and d_out must be positive")
        if any(p < 1 for p in self.widths):
            raise ValueError("hidden widths must be positive")
        if not (math.isfinite(self.sigma_v) and self.sigma_v > 0):
            raise ValueError(f"sigma_v must be finite and > 0, "
                             f"got {self.sigma_v!r}")
        if not (math.isfinite(self.sigma_b) and self.sigma_b >= 0):
            raise ValueError(f"sigma_b must be finite and >= 0, "
                             f"got {self.sigma_b!r}")
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
            d_in=d["d_in"],
            d_out=d["d_out"],
            widths=list(d["widths"]),
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


def _input_batch(cfg, x):
    """(h, squeeze): x as an (m, d_in) batch of finite rows, and whether it
    was one d_in vector whose outputs squeeze to vectors."""
    x = np.asarray(x, dtype=float)
    h = np.atleast_2d(x)
    if h.shape[1] != cfg.d_in:
        raise ValueError(f"input has {h.shape[1]} features, expected {cfg.d_in}")
    if not np.isfinite(h).all():
        raise ValueError("input entries must be finite")
    return h, x.ndim == 1


def forward(real, cfg, x):
    """Pre-activations Z^{(1..L+1)} for input x (a d_in vector, or an
    (m, d_in) batch giving (m, p_l) entries per layer) with finite entries."""
    h, squeeze = _input_batch(cfg, x)
    phi = cfg.activation
    zs = []
    for l in range(1, cfg.n_hidden + 2):
        z = h @ real.weight(l) + real.B[l - 1]
        zs.append(z[0] if squeeze else z)
        h = phi(z)
    return zs


def _distinct_rows(a):
    """(distinct, back): the bitwise-distinct rows of a in order of first
    appearance, and for every row of a the index of its copy in distinct."""
    index, first, back = {}, [], []
    for i, row in enumerate(a):
        k = index.setdefault(row.tobytes(), len(index))
        if k == len(first):
            first.append(i)
        back.append(k)
    return a[first], np.array(back, dtype=int)


def forward_law(cfg, lambdas, x, rng, keep=None):
    """Pre-activations Z^{(1..L+1)} of input rows that share one realisation
    with variances `lambdas`, drawn from their exact conditional law without
    forming any weight matrix.

    Given the m rows H entering layer l and A = H diag(sqrt(lambda^{(l-1)}))
    masked by keep, the p_l columns of Z^{(l)} are iid N(0, K),
    K = sigma_b^2 + sigma_v^2 A A^T.  K is formed over the bitwise-distinct
    rows of A and factored by `_psd_factor`, as every limit layer is; one
    standard_normal((rank K, p_l)) block a layer, copied back to every row,
    gives bitwise-equal rows bit-identical outputs, which an eigen-factor of
    K with equal rows would not.  An empty batch gives (0, p_l) layers.

    x is an (m, d_in) batch with finite entries (or a d_in vector, squeezing
    the outputs like `forward`).  keep, if given, holds one boolean mask per
    hidden layer, broadcastable to (m, p_l); a False entry prunes that node
    for that row, zeroing its variance in the product into the next layer.
    """
    h, squeeze = _input_batch(cfg, x)
    gen = rng.generator
    phi = cfg.activation
    sizes = cfg.layer_sizes()
    zs = []
    for l in range(1, cfg.n_hidden + 2):
        a = h * np.sqrt(lambdas[l - 1])
        if l > 1 and keep is not None:
            a = a * keep[l - 2]
        distinct, back = _distinct_rows(a)
        factor = _psd_factor(cfg.sigma_b ** 2
                             + cfg.sigma_v ** 2 * distinct @ distinct.T)
        z = (factor @ gen.standard_normal((factor.shape[1], sizes[l])))[back]
        zs.append(z[0] if squeeze else z)
        h = phi(z)
    return zs


def _first_variance(cfg, x):
    """Sigma^{(1)} = sigma_b^2 + sigma_v^2 |x|^2 / d_in of one input vector, for
    the single-input limit, which needs a positive homogeneous activation."""
    if not cfg.activation.homogeneous:
        raise ValueError("the single-input limit requires a positive "
                         "homogeneous activation")
    h, squeeze = _input_batch(cfg, x)
    if not squeeze:
        raise ValueError(f"expected one input vector, got shape {np.shape(x)}")
    return cfg.sigma_b ** 2 + cfg.sigma_v ** 2 * float(h[0] @ h[0]) / cfg.d_in


def simulate_limit_single_input(cfg, x, rng, replicates=1):
    """Draws from the infinite-width law of a single input's pre-activations.

    The conditional variance chain Sigma^{(1..L+1)} is the random kernel of
    `sample_random_kernel` at the one input, drawn layer by layer for all
    replicates at once.  Outputs are sqrt(Sigma^{(L+1)}) times iid standard
    normals, the same Sigma shared across all d_out coordinates of one
    replicate.

    Returns (sigma_chains, outputs) with shapes (replicates, L+1) and
    (replicates, d_out); both squeeze to 1-d when replicates == 1.
    """
    n = _integer("replicates", replicates)
    if n < 1:
        raise ValueError(f"replicates must be >= 1, got {n}")
    sigma = np.full(n, _first_variance(cfg, x))
    chains = np.stack(_random_kernels(cfg, sigma, rng), axis=1)
    outputs = (np.sqrt(chains[:, -1])[:, None]
               * rng.generator.standard_normal((n, cfg.d_out)))
    if n == 1:
        return chains[0], outputs[0]
    return chains, outputs


def variance_recursion(cfg, x):
    """Deterministic chain of expected conditional variances
    E[Sigma^{(l)}] = sigma_b^2 + sigma_v^2 C_phi (a + M1) E[Sigma^{(l-1)}],
    where C_phi = E[phi(Z)^2] for standard normal Z.  Requires every layer's
    first moment M1 to be finite."""
    out = [_first_variance(cfg, x)]
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


def _correlation(kmat):
    """(d, rho): the scales d = sqrt(diag kmat), a negative diagonal read as 0,
    and the correlations rho = kmat / (d d^T), 0 where d_i d_j = 0."""
    d = np.sqrt(np.clip(np.diag(kmat), 0.0, None))
    denom = np.outer(d, d)
    with np.errstate(invalid="ignore", divide="ignore"):
        rho = np.where(denom > 0, kmat / np.where(denom > 0, denom, 1.0), 0.0)
    return d, rho


def _cond_phi_outer(kmat, act, gen, factor=None):
    """E[phi(z_i) phi(z_j)] over z ~ N(0, kmat): closed form for positive
    homogeneous phi, Monte Carlo with a 1e5-draw budget otherwise (tanh),
    drawing z = G F^T from the factor F F^T = kmat that this branch needs.

    A homogeneous phi(u) = p u_+ + q u_- (p = phi(1), q = phi(-1)) has, by the
    arc-cosine kernel (Cho & Saul 2009), E[phi(u) phi(v)] = sigma sigma' /
    (2 pi) [(p^2 + q^2) kappa_1(rho) + 2 p q kappa_1(-rho)]."""
    if not act.homogeneous:
        fz = act(gen.standard_normal((_MC_BUDGET, factor.shape[1])) @ factor.T)
        return fz.T @ fz / _MC_BUDGET
    d, rho = _correlation(kmat)
    rho = np.clip(rho, -1.0, 1.0)
    p, q = act.slopes
    kap = (p * p + q * q) * kernels.kappa(1.0, rho)
    if p * q != 0.0:
        kap = kap + 2.0 * p * q * kernels.kappa(1.0, -rho)
    return np.outer(d, d) * kap / (2.0 * math.pi)


def _psd_factor(kmat):
    """F = diag(d) V_r diag(sqrt(w_r)) with F F^T = kmat, from the eigenpairs
    (w, V) of the correlations rho = kmat / (d d^T), d = sqrt(diag kmat), so
    that every row keeps its own relative accuracy whatever its scale
    (Demmel & Veselic 1992).  The r eigenvalues above n eps max(w) are kept
    (numpy's matrix_rank tolerance): marks cost rank(kmat) normals per atom.
    A negative diagonal entry, or an eigenvalue below -1e-8 max(w), raises
    LinAlgError: kmat is not PSD.  An empty kmat has an empty (0, 0) factor."""
    if kmat.size == 0:
        return np.zeros((0, 0))
    d, rho = _correlation(kmat)
    w, v = np.linalg.eigh(rho)
    top = max(float(w[-1]), 0.0)
    low = float(np.diag(kmat).min())
    if w[0] < -1e-8 * top or low < 0.0:
        raise np.linalg.LinAlgError(f"kernel matrix is not PSD: diagonal "
                                    f"{low:.3g}, correlation eigenvalue "
                                    f"{w[0]:.3g} against a largest {top:.3g}")
    keep = w > kmat.shape[0] * np.finfo(float).eps * top
    return d[:, None] * v[:, keep] * np.sqrt(w[keep])


def _random_kernels(cfg, kmat, rng):
    """K^{(1..L+1)} from K^{(1)} = kmat, layer by layer: one draw from an (n, n)
    kmat, or a chain per entry of one input's Sigma^{(1)} vector kmat.  Each
    layer's atoms are cut at its measure's default floor by `levy`: the
    largest floor whose dropped atoms have variance at most
    levy.DROPPED_VARIANCE_TOL x_ref^2, x_ref = rhobar^{-1}(1), and no more
    than levy.MAX_ROW_ATOMS atoms a row.  `levy` returns their dropped mean,
    which joins the drift term."""
    gen, act, sv2 = rng.generator, cfg.activation, cfg.sigma_v ** 2
    out = [kmat]
    for model in cfg.variance_models:
        a, m = model.limit.location_a, model.limit.measure
        if kmat.ndim == 1:  # homogeneous phi: phi(zeta)^2 = Sigma phi(g)^2
            s = levy.sample_id_batch(model.limit, rng, kmat.size, act=act)
            kmat = cfg.sigma_b ** 2 + sv2 * s * kmat
        else:
            atoms, _, below = levy.sample_ppp_matrix(m, rng)
            atoms = atoms[atoms > 0]
            factor = None
            if atoms.size or not act.homogeneous:
                factor = _psd_factor(kmat)
            cond = _cond_phi_outer(kmat, act, gen, factor)
            nxt = cfg.sigma_b ** 2 + sv2 * (a + below) * cond
            if atoms.size:
                fz = act(gen.standard_normal((atoms.size, factor.shape[1])) @ factor.T)
                nxt = nxt + sv2 * (fz.T * atoms) @ fz
            kmat = 0.5 * (nxt + nxt.T)
        out.append(kmat)
    return out


def sample_random_kernel(cfg, inputs, rng):
    """One draw of the random covariance kernels K^{(1..L+1)} on a batch of 1
    to 64 input rows with finite entries.

    K^{(1)} = sigma_b^2 + sigma_v^2 x^T x' / d_in; each next layer adds the
    drift term sigma_v^2 (a + dropped mean) E[phi(z) phi(z')|K] and the atom
    series sigma_v^2 sum_j lam_j phi(zeta_j(x)) phi(zeta_j(x')), with marks
    zeta_j ~ N(0, K^{(l)}) drawn through the factor `_psd_factor`.  The
    series keeps the atoms lam_j above the layer measure's default floor,
    whose dropped atoms have variance at most levy.DROPPED_VARIANCE_TOL
    x_ref^2 (x_ref = rhobar^{-1}(1)); a measure whose floor keeps more than
    levy.MAX_ROW_ATOMS atoms raises a ValueError.
    """
    x, _ = _input_batch(cfg, inputs)
    if not 1 <= x.shape[0] <= 64:
        raise ValueError(f"sample_random_kernel takes 1 to 64 inputs, "
                         f"got {x.shape[0]}")
    kmat = cfg.sigma_b ** 2 + cfg.sigma_v ** 2 * (x @ x.T) / cfg.d_in
    return _random_kernels(cfg, kmat, rng)
