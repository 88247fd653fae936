"""Mutation checks: each mutant of ``src/`` must make the tests that guard it fail.

A mutant names a file of ``src/lowdepth_ae``, an exact snippet of that
file, its replacement, and the pytest node ids that must fail once the
snippet is replaced.  For each mutant the script copies ``src/`` to a
temporary directory, applies that one replacement, and runs the named nodes
against the copy (``PYTHONPATH`` set to it, the tests read from the
repository).  A mutant is *killed* when every named node fails (a node that
names a parametrized test fails when any of its cases does), and *survived*
when one passes.  Before any mutant, the named nodes must pass on an
unmutated copy, and that copy must be the package the tests import.  A
snippet found other than exactly once is an error, not a skip, so a refactor
cannot silently orphan a mutant, and so is a named node that pytest cannot
find.  A mutant that breaks the import or collection of the tests fails
every named node, so it counts as killed.  Run from anywhere as

    python .github/mutants.py

It runs every mutant and exits 1 on a survivor, an orphan or a failing
baseline.
"""
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
HARNESS = "tests/test_harness.py::"
ESTIMATORS = "tests/test_estimators.py::"
NOISE = "tests/test_noise.py::"
CIRCUITS = "tests/test_circuits.py::"


class Mutant(NamedTuple):
    name: str
    file: str  # under src/lowdepth_ae
    old: str
    new: str
    nodes: tuple


MUTANTS = (
    # one generator per block of trials: its pairs first, then each trial's pools
    Mutant("pairs-drawn-after-a-trials-pools", "harness.py",
           "        pairs = zip(*_vector_pairs(rng, TRIAL_BLOCK, config.vector_mode))\n",
           "        pairs = (next(zip(*_vector_pairs(rng, TRIAL_BLOCK, config.vector_mode)))\n"
           "                 for _ in range(TRIAL_BLOCK))\n",
           (HARNESS + "test_each_block_draws_all_its_pairs_before_its_first_trial[haar-256]",)),
    Mutant("subsample-from-the-pool-generator", "harness.py",
           "subsample_rng.hypergeometric(good, bad, m)", "rng.hypergeometric(good, bad, m)",
           ("tests/test_schedules.py::test_draw_subsamples_as_the_reference_chain",
            HARNESS + "test_run_and_fit_noise_see_the_same_pools_across_two_blocks")),
    Mutant("short-last-block", "harness.py",
           "_vector_pairs(rng, TRIAL_BLOCK, config.vector_mode)",
           "_vector_pairs(rng, min(TRIAL_BLOCK, config.n_trials - start), config.vector_mode)",
           (HARNESS + "test_each_block_draws_all_its_pairs_before_its_first_trial[haar-1]",
            HARNESS + "test_a_runs_first_trials_are_those_of_any_longer_run")),
    Mutant("angles-drawn-after-normals", "harness.py",
           "    thetas = (math.pi / 2 * rng.random(n)).tolist()"
           " if mode == \"uniform-theta\" else None\n"
           "    normals = rng.standard_normal((n, 2, 4))\n",
           "    normals = rng.standard_normal((n, 2, 4))\n"
           "    thetas = (math.pi / 2 * rng.random(n)).tolist()"
           " if mode == \"uniform-theta\" else None\n",
           (HARNESS + "test_a_block_of_pairs_equals_the_vector_by_vector_draw_row_by_row"
                      "[uniform-theta-1]",)),
    # the trial pipeline's count check and oracle-call bill
    Mutant("fit-without-counts-check", "harness.py",
           "    counts = _checked_counts(counts)\n",
           "    counts = np.asarray(counts)\n",
           (HARNESS + "test_fit_and_mle_reject_counts_by_one_rule",)),
    Mutant("crt-calls-bill-depth-d-twice", "harness.py",
           "shot_calls[:, 2:] + shot_calls[:, 1:-1]",
           "shot_calls[:, 2:] + shot_calls[:, 2:]",
           (HARNESS + "test_crt_and_hybrid_rows_equal_those_on_a_separate_anchor_pass",
            HARNESS + "test_an_mle_pass_that_fails_after_depth_2_keeps_the_crt_anchor",
            HARNESS + "test_columnar_crt_and_hybrid_equal_the_scalar_estimators_row_by_row")),
    # one calibration per CRT depth: the beta search
    Mutant("beta-search-no-margin", "harness.py",
           "h <= c + 1e-12", "h <= c",
           (HARNESS + "test_calibration_beta_search_skips_a_loss_at_any_depth_and_keeps"
                      "_the_first_tie",)),
    Mutant("beta-search-last-tie", "harness.py",
           "min(hybrid) < best_err", "min(hybrid) <= best_err",
           (HARNESS + "test_calibration_beta_search_skips_a_loss_at_any_depth_and_keeps"
                      "_the_first_tie",)),
    Mutant("beta-search-best-depth-only", "harness.py",
           "zip(hybrid, crt))", "zip(hybrid, crt) if h == min(hybrid))",
           (HARNESS + "test_calibration_beta_search_skips_a_loss_at_any_depth_and_keeps"
                      "_the_first_tie",)),
    # the one writer of every output file
    Mutant("writer-without-parents", "harness.py",
           "mkdir(parents=True, exist_ok=True)", "mkdir(exist_ok=True)",
           (HARNESS + "test_a_command_makes_a_nested_out_directory_and_writes_its_flat_bytes",)),
    # the engine's accounting and pruning rules, and the hybrid's choice
    Mutant("oracle-calls-two-per-depth", "estimators.py",
           "(2 * np.asarray(depths, dtype=np.int64) + 1)",
           "(2 * np.asarray(depths, dtype=np.int64) + 2)",
           (ESTIMATORS + "test_mle_oracle_accounting_includes_discards",)),
    Mutant("mle-entry-any-count-positive", "estimators.py",
           "(pairs > 0).all(axis=(1, 2))", "(pairs > 0).any(axis=(1, 2))",
           (ESTIMATORS + "test_mle_all_bad_lands_on_zero",)),
    Mutant("mle-bound-strict", "estimators.py",
           "bound >= low[:, None]", "bound > low[:, None]",
           (ESTIMATORS + "test_mle_all_bad_lands_on_zero",)),
    Mutant("hybrid-falls-back-at-the-threshold", "estimators.py",
           "np.abs(anchor_p - crt_p) > threshold", "np.abs(anchor_p - crt_p) >= threshold",
           (ESTIMATORS + "test_hybrid_keeps_crt_when_close",)),
    # CRT: the residues and the tie, and the squared sine of every estimate
    Mutant("crt-residue-floor", "estimators.py",
           "r1 = (np.rint(s2 * l / 2)", "r1 = (np.floor(s2 * l / 2)",
           (ESTIMATORS + "test_crt_at_large_depth_equals_the_reference[50]",)),
    Mutant("crt-tie-by-error-alone", "estimators.py",
           "pick = np.where(err == err.min(axis=1, keepdims=True), folded, modulus_)"
           ".argmin(axis=1)",
           "pick = err.argmin(axis=1)",
           (ESTIMATORS + "test_crt_ties_toward_the_smaller_folded_value",)),
    Mutant("sin-squared-by-numpy", "estimators.py",
           "return _elementwise(lambda theta: math.sin(theta) ** 2, thetas)",
           "return np.sin(np.asarray(thetas, dtype=float)) ** 2",
           (ESTIMATORS + "test_sin_squared_equals_the_scalar_square_bit_for_bit",)),
    Mutant("sin-squared-by-product", "estimators.py",
           "lambda theta: math.sin(theta) ** 2", "lambda theta: math.sin(theta) * math.sin(theta)",
           (ESTIMATORS + "test_sin_squared_equals_the_scalar_square_bit_for_bit",)),
    # the outcome law and the burst sampler
    Mutant("fixed-point-one-quarter", "noise.py",
           "FIXED_POINT = 0.5", "FIXED_POINT = 0.25",
           (NOISE + "test_the_fixed_point_of_the_law_is_one_half",)),
    Mutant("burst-reset-keeps-toggles", "noise.py",
           "    reset ^= toggle  # every toggle draw is also below p_leave\n", "",
           (NOISE + "test_correlated_bursts_change_the_rate",)),
    Mutant("noisy-prob-half-angle", "noise.py",
           "cos(2 * (2 * depth + 1) * theta)", "cos((2 * depth + 1) * theta)",
           (NOISE + "test_noisy_prob_noiseless_reduces_to_sin2",)),
    # the noise fit, the calibration's kept rows and the pair draw
    Mutant("fit-one-standard-error", "harness.py",
           "if a <= 2.0 * se:", "if a <= 1.0 * se:",
           (HARNESS + "test_run_and_fit_noise_report_a_depth_without_signal[no-signal-30]",)),
    Mutant("calibration-rows-kept-at-every-depth", "harness.py",
           "        rows = table.kept[:, j]\n", "        rows = table.kept.all(axis=1)\n",
           (HARNESS + "test_calibration_beta_search_skips_a_loss_at_any_depth_and_keeps"
                      "_the_first_tie",)),
    Mutant("dots-by-sum", "harness.py",
           "return np.matmul(a[:, None, :], b[:, :, None])[:, 0]",
           "return (a * b).sum(axis=1, keepdims=True)",
           (HARNESS + "test_stacked_row_by_column_matmul_is_ndarray_dot_bit_for_bit",)),
    # calibration's exact CRT inputs
    Mutant("exact-crt-multiples-one-depth-low", "harness.py",
           "(2 * np.arange(1, config.max_depth + 1) + 1)",
           "(2 * np.arange(1, config.max_depth + 1) - 1)",
           (HARNESS + "test_calibration_feeds_exact_crt_the_two_call_inputs_bit_for_bit[2]",)),
    # the schedule, the circuit and the simulator
    Mutant("schedule-rounds", "schedules.py",
           "math.floor(n_shots * (2 * d + 1) ** nu)", "round(n_shots * (2 * d + 1) ** nu)",
           ("tests/test_schedules.py::test_schedule_entries_equal_the_floor_formula",)),
    Mutant("merged-rbs02-half-angle", "circuits.py",
           'Gate("rbs", (0, 2), u - -u)', 'Gate("rbs", (0, 2), u)',
           (CIRCUITS + "test_merged_matches_unmerged_statevector[1]",)),
    Mutant("compiled-depth-min", "circuits.py",
           "two_qubit_depth=max(level, default=0)", "two_qubit_depth=min(level, default=0)",
           (CIRCUITS + "test_depth_zero_oracle_has_four_rbs_depth_three",)),
    Mutant("apply-moves-axes-back-the-wrong-way", "simulator.py",
           "return np.moveaxis(st, front, targets).reshape(DIM)",
           "return np.moveaxis(st, targets, front).reshape(DIM)",
           ("tests/test_simulator.py::test_each_gate_acts_as_its_dense_operator[rbs20]",)),
    # the sweep's entries
    Mutant("sweep-without-entries-runs-nothing", "cli.py",
           "    if not subs:\n", "    if False:\n",
           (HARNESS + "test_cli_sweep_without_entries_fails[,]",)),
    Mutant("sweep-runs-a-repeated-directory", "cli.py",
           "            if name in subs:\n", "            if False:\n",
           (HARNESS + "test_cli_sweep_rejects_an_entry_whose_directory_an_earlier_entry_names",)),
)


def copy_src(tmp: Path, mutant: Mutant | None = None) -> Path:
    """``src/`` copied below ``tmp``, with ``mutant`` applied; its snippet must occur once."""
    src = tmp / "src"
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    if mutant:
        path = src / "lowdepth_ae" / mutant.file
        text = path.read_text(encoding="utf-8")
        found = text.count(mutant.old)
        if found != 1:
            raise LookupError(f"its snippet occurs {found} times in {mutant.file}, not once")
        path.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
    return src


def failed_nodes(src: Path, nodes) -> set:
    """The named nodes that fail against the package at ``src``."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    run = subprocess.run([sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider",
                          *nodes], cwd=ROOT, env=env, capture_output=True, text=True)
    if "ERROR collecting" in run.stdout:  # a test module does not import: no named node runs
        return set(nodes)
    if run.returncode not in (0, 1):  # 2-5: interrupted, internal or usage error, nothing run
        raise RuntimeError(f"pytest exited {run.returncode}:\n{run.stdout[-2000:]}{run.stderr}")
    failed = re.findall(r"^(?:FAILED|ERROR) (\S+)", run.stdout, re.MULTILINE)
    return {n for n in nodes if any(f == n or f.startswith(n + "[") for f in failed)}


def main() -> int:
    start = time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp:
        src = copy_src(Path(tmp))
        env = dict(os.environ, PYTHONPATH=str(src))
        imported = subprocess.run(
            [sys.executable, "-c", "import lowdepth_ae; print(lowdepth_ae.__file__)"],
            cwd=ROOT, env=env, capture_output=True, text=True).stdout
        if not imported.startswith(str(src)):
            print(f"baseline: the tests import {imported.strip() or 'nothing'}, not the copy")
            return 1
        try:
            failing = failed_nodes(src, sorted({n for m in MUTANTS for n in m.nodes}))
        except RuntimeError as exc:  # a named node that pytest cannot find
            print(f"baseline: {exc}")
            return 1
        if failing:
            print(f"baseline: nodes fail without a mutant: {sorted(failing)}")
            return 1
    bad = 0
    for mutant in MUTANTS:
        with tempfile.TemporaryDirectory() as tmp:
            try:
                failed = failed_nodes(copy_src(Path(tmp), mutant), mutant.nodes)
            except (LookupError, RuntimeError) as exc:
                print(f"ERROR    {mutant.name}: {exc}")
                bad += 1
                continue
        passed = [n for n in mutant.nodes if n not in failed]
        bad += bool(passed)
        print(f"{'SURVIVED' if passed else 'killed  '} {mutant.name}"
              + (f": passing {passed}" if passed else ""))
    print(f"{len(MUTANTS)} mutants, {bad} not killed, {time.perf_counter() - start:.0f} s")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
