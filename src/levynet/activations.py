"""Activation functions and the constants attached to them.

Linear, ReLU and leaky ReLU are positive homogeneous (phi(g x) = g phi(x) for
g > 0), which is what the single-input limit machinery requires.  Such a phi
is fixed by its slopes p = phi(1) and q = phi(-1), phi(u) = p max(u, 0) +
q max(-u, 0), and every Gaussian moment the limits need follows from (p, q).
Tanh is kept for finite forward passes and multi-input kernel sampling only;
it satisfies a polynomial envelope |phi(z)| <= 1.
"""

import functools

import numpy as np

__all__ = ["ActivationKind", "LINEAR", "RELU", "TANH", "leaky_relu"]


class ActivationKind:
    """An activation: its name, callable, and constants derived from `fn`.

    Attributes
    ----------
    homogeneous : whether phi(g x) = g phi(x) for g > 0.
    slopes : (phi(1), phi(-1)), the (p, q) above.
    c_phi : E[phi(Z)^2] = (p^2 + q^2) / 2, Z ~ N(0,1) (None unless homogeneous).
    c_lip : max(|phi(1)|, |phi(-1)|), the Lipschitz constant of a
        1-homogeneous activation.
    """

    def __init__(self, name, fn, homogeneous, beta=None):
        self.name = name
        self.fn = fn
        self.homogeneous = homogeneous
        self.beta = beta

    def __call__(self, x):
        return self.fn(x)

    @functools.cached_property
    def slopes(self):
        return float(self.fn(1.0)), float(self.fn(-1.0))

    @property
    def c_phi(self):
        p, q = self.slopes
        return (p * p + q * q) / 2.0 if self.homogeneous else None

    @property
    def c_lip(self):
        return max(abs(s) for s in self.slopes)

    def __repr__(self):
        if self.beta is not None:
            return f"ActivationKind({self.name}, beta={self.beta})"
        return f"ActivationKind({self.name})"

    def __eq__(self, other):
        return (isinstance(other, ActivationKind)
                and self.name == other.name and self.beta == other.beta)

    def __hash__(self):
        return hash((self.name, self.beta))


LINEAR = ActivationKind("linear", lambda x: np.asarray(x, dtype=float),
                        homogeneous=True)
RELU = ActivationKind("relu", lambda x: np.maximum(np.asarray(x, dtype=float), 0.0),
                      homogeneous=True)
TANH = ActivationKind("tanh", np.tanh, homogeneous=False)


def leaky_relu(beta):
    """Leaky ReLU with negative-side slope beta > 0."""
    if beta <= 0:
        raise ValueError("leaky ReLU slope must be > 0")

    def fn(x):
        x = np.asarray(x, dtype=float)
        return np.where(x > 0, x, beta * x)

    return ActivationKind("leaky_relu", fn, homogeneous=True, beta=beta)


def activation_from_name(name, beta=None):
    if name == "leaky_relu":
        return leaky_relu(beta if beta is not None else 0.01)
    if name not in ("linear", "relu", "tanh"):
        raise ValueError(f"unknown activation {name!r}")
    return {"linear": LINEAR, "relu": RELU, "tanh": TANH}[name]
