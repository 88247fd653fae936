"""Low-depth amplitude estimation on unary inner-product oracles."""

__version__ = "0.1.0"

from .circuits import (Circuit, CompiledStats, Gate, LoaderAngles,
                       adjoint_circuit, build_iterated_circuit,
                       build_oracle_circuit, compile_to_two_qubit,
                       compiled_stats, decompose_rbs, loader_angles,
                       loader_circuit, rbs_unitary)
from .estimators import (CrtContext, Estimate, EstimationError,
                         HybridCalibration, bayesian_update, crt_estimate,
                         crt_reconstruct, crt_solve, direct_estimate,
                         hybrid_estimate, mle_estimate)
from .harness import (AggregateRow, ExperimentConfig, TrialResult,
                      aggregate_and_emit, calibrate_hybrid, fit_depolarizing,
                      run_experiment, run_trial, sample_vector_pair)
from .noise import (CorrelatedNoise, NoiseModel, effective_eta, noise_floor,
                    noisy_prob, sample_noisy_shots)
from .schedules import (InfeasibleScheduleError, PowerLawConfig, Schedule,
                        fisher_noisy, optimize_exponent, power_law_schedule,
                        subsample_without_replacement)
from .simulator import (DepthCounts, analytic_success_prob,
                        outcome_distribution, run_statevector,
                        sample_and_postselect)

__all__ = [
    "AggregateRow", "Circuit", "CompiledStats", "CorrelatedNoise",
    "CrtContext", "DepthCounts", "Estimate", "EstimationError",
    "ExperimentConfig", "Gate", "HybridCalibration",
    "InfeasibleScheduleError", "LoaderAngles", "NoiseModel",
    "PowerLawConfig", "Schedule", "TrialResult",
    "adjoint_circuit", "aggregate_and_emit", "analytic_success_prob",
    "bayesian_update", "build_iterated_circuit", "build_oracle_circuit",
    "calibrate_hybrid", "compile_to_two_qubit", "compiled_stats",
    "crt_estimate", "crt_reconstruct", "crt_solve", "decompose_rbs",
    "direct_estimate", "effective_eta", "fisher_noisy", "fit_depolarizing",
    "hybrid_estimate", "loader_angles", "loader_circuit", "mle_estimate",
    "noise_floor", "noisy_prob", "optimize_exponent", "outcome_distribution",
    "power_law_schedule", "rbs_unitary", "run_experiment", "run_statevector",
    "run_trial", "sample_and_postselect", "sample_noisy_shots",
    "sample_vector_pair", "subsample_without_replacement",
]
