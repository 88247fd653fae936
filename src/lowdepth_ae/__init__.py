"""Low-depth amplitude estimation on unary inner-product oracles."""

__version__ = "0.1.0"

from .circuits import build_iterated_circuit, compile_to_two_qubit, compiled_stats
from .estimators import crt_reconstruct, direct_estimate
from .harness import ExperimentConfig, run_experiment
from .noise import CorrelatedNoise, NoiseModel, noise_floor, sample_noisy_shots
from .schedules import fisher_noisy, optimize_exponent, power_law_schedule
from .simulator import analytic_success_prob, outcome_distribution, run_statevector

__all__ = [
    "CorrelatedNoise", "ExperimentConfig", "NoiseModel",
    "analytic_success_prob", "build_iterated_circuit", "compile_to_two_qubit",
    "compiled_stats", "crt_reconstruct", "direct_estimate", "fisher_noisy",
    "noise_floor", "optimize_exponent", "outcome_distribution",
    "power_law_schedule", "run_experiment", "run_statevector",
    "sample_noisy_shots",
]
