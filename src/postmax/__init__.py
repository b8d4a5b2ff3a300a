"""Posterior maximization learning for classification under label noise.

Train a network so that a transformed readout of its outputs estimates
the class posterior, by maximizing a variational objective built from a
convex generator and its Fenchel conjugate.  The package covers the
chain end to end: generator/conjugate pairs with grid oracles, label
noise models, the training objective with its noise corrections, MAP
prediction with posterior correction, theorem-level verification
drivers, and a small CLI for reproducible experiments.

Importing the package loads none of its modules: each name in __all__ is
imported from its module the first time it is read (PEP 562).
"""

import importlib

__version__ = "0.1.0"

# The module, under this package, that each public name comes from.
_SOURCES = {
    "analysis": (
        "TheoremReport",
        "check_argmax_invariance",
        "check_binary_identity",
        "check_correction_exactness",
        "check_first_order_bias",
        "check_multiclass_identity",
        "check_pointwise_optimum",
        "check_posterior_gap_bound",
        "training_bias_expression",
        "verify_theorems",
    ),
    "cli": (
        "ExperimentConfig",
        "ResultRecord",
        "describe_noise",
        "load_config",
        "load_csv",
        "make_synthetic",
        "parse_config",
        "parse_report",
        "report",
        "run_experiment",
        "split_dataset",
        "summarize",
    ),
    "commands": ("main",),
    "divergence": (
        "DIVERGENCE_IDS",
        "DivergenceSpec",
        "brute_force_conjugate",
        "conj_prime",
        "conj_second",
        "get_divergence",
        "optimal_T_from_posterior",
        "posterior_from_T",
    ),
    "model": (
        "MlpSpec",
        "NetworkModel",
        "TrainConfig",
        "TrainTrace",
        "evaluate",
        "forward",
        "init",
        "load_model",
        "objective_and_gradients",
        "save_model",
        "train",
    ),
    "noise": (
        "LabeledDataset",
        "NoiseParams",
        "TransitionMatrix",
        "corrupt",
        "uniform_offdiag_matrix",
    ),
    "objective": (
        "POSTERIOR_FLOOR",
        "DiscreteJoint",
        "ObjectiveConfig",
        "bias_simplex_batch",
        "corrected_jf_batch",
        "cross_entropy",
        "exact_bias",
        "exact_jf",
        "jf_batch",
        "jf_grad_batch",
        "jf_simplex_batch",
        "jf_simplex_kl",
        "jf_simplex_logit_grad_batch",
    ),
    "posterior": (
        "accuracy",
        "noisy_posterior_forward",
        "posterior_correct",
        "predict",
    ),
}
_MODULE_OF = {name: module for module, names in _SOURCES.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later reads skip this hook
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
