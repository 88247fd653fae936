"""Choosing the power-law exponent against the noisy Fisher information.

Schedules N_d = floor(500 (2d+1)^nu) trade oracle calls against precision.
``power_law_schedule`` returns the shots N_0..N_7 as a tuple; a shot at
depth d costs 2d+1 oracle calls, so a schedule costs sum_d N_d (2d+1).
Noise damps the information from deep circuits by exp(-2 gamma_d), so each
target error has a cheapest exponent: the smallest nu whose damped Fisher
proxy reaches 1/eps^2.  Looser targets push nu negative (shots concentrate
at low depth); tight targets and heavy noise push it up.
"""
from lowdepth_ae import NoiseModel, fisher_noisy, optimize_exponent, power_law_schedule
from lowdepth_ae.schedules import InfeasibleScheduleError

gammas = NoiseModel.linear_ramp(7).gamma_by_depth
print("depolarizing rates:", [round(g, 3) for g in gammas], "\n")

print(f"{'target eps':>10} {'nu*':>8} {'oracle calls':>13} {'shots/depth':>30}")
for eps in (0.05, 0.03, 0.02, 0.015, 0.012, 0.01, 0.008):
    try:
        nu = optimize_exponent(eps, 500, 7, gammas)
    except InfeasibleScheduleError:
        print(f"{eps:>10} {'infeasible':>8}")
        continue
    shots = list(power_law_schedule(nu, 500, 7))
    calls = sum(n * (2 * d + 1) for d, n in enumerate(shots))
    print(f"{eps:>10} {nu:>8.3f} {calls:>13} {str(shots):>30}")

print("\nSanity check of the proxy at the chosen point for eps = 0.01:")
nu = optimize_exponent(0.01, 500, 7, gammas)
print(f"  F_noisy(nu*) = {fisher_noisy(nu, 500, 7, gammas):.1f} >= 1/eps^2 = 1e4")
print(f"  F_noisy(nu* - 1e-3) = {fisher_noisy(nu - 1e-3, 500, 7, gammas):.1f} (binding)")
