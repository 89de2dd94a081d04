"""Simulation and verification tools for feedforward networks whose weights
are Gaussian scale mixtures with heavy-tailed, sparse node variances.

The package covers the full pipeline: Levy measures and infinitely divisible
samplers (levy), per-node variance laws with their declared limits (models),
finite networks and their infinite-width kernel limits (network, kernels),
node pruning with error bounds (pruning), statistical oracles and the seeded
experiment harness (stats, experiments), and a command-line tool (cli).
"""

from .activations import (ActivationKind, LINEAR, RELU, TANH,
                          activation_from_name, leaky_relu)
from .kernels import gp_relu_kernel, j_alpha_quadrature, kappa, relu_moment
from .levy import (LevyTriple, MeasureDescriptor, activation_transform,
                   atomic_measure, beta_measure, gamma_measure,
                   gg_pareto_measure, horseshoe_measure,
                   inverse_tail_intensity, mean_mass_below, mix_with_chi2,
                   moment, sample_id_batch, sample_ppp_matrix, stable_measure,
                   tail_intensity, trivial_measure)
from .models import (MODEL_NAMES, VarianceModel, check_id_conditions,
                     make_model, model_from_spec)
from .network import (NetworkConfig, NetworkRealization, forward,
                      forward_law, sample_lambdas, sample_network,
                      sample_random_kernel,
                      simulate_limit_single_input, variance_recursion)
from .pruning import (compressibility_ratio, epsilon_error_bound,
                      epsilon_sweep_error, kappa_keep, paired_pruning_error)
from .reporting import Check, Estimate, ExperimentReport
from .rng import RngStream, sample_positive_stable
from .stats import (ks_distance, order_stat_cdf, run_experiment,
                    tail_exponent, experiment_names)

__version__ = "0.1.0"

__all__ = [
    "ActivationKind", "LINEAR", "RELU", "TANH", "activation_from_name",
    "leaky_relu",
    "gp_relu_kernel", "j_alpha_quadrature", "kappa", "relu_moment",
    "LevyTriple", "MeasureDescriptor",
    "activation_transform", "atomic_measure", "beta_measure", "gamma_measure",
    "gg_pareto_measure", "horseshoe_measure", "inverse_tail_intensity",
    "mean_mass_below", "mix_with_chi2", "moment", "sample_id_batch",
    "sample_ppp_matrix", "stable_measure", "tail_intensity", "trivial_measure",
    "MODEL_NAMES", "VarianceModel", "check_id_conditions", "make_model",
    "model_from_spec",
    "NetworkConfig", "NetworkRealization", "forward", "forward_law",
    "sample_lambdas", "sample_network",
    "sample_random_kernel", "simulate_limit_single_input",
    "variance_recursion",
    "compressibility_ratio", "epsilon_error_bound", "epsilon_sweep_error",
    "kappa_keep", "paired_pruning_error",
    "Check", "Estimate", "ExperimentReport",
    "RngStream", "sample_positive_stable",
    "ks_distance", "order_stat_cdf", "run_experiment",
    "tail_exponent", "experiment_names",
    "__version__",
]
