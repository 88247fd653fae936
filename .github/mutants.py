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


class Mutant(NamedTuple):
    name: str
    file: str  # under src/lowdepth_ae
    old: str
    new: str
    nodes: tuple


MUTANTS = (
    # one trial pipeline for run and calibrate
    Mutant("trial-pairs-no-repeat-cut", "harness.py",
           "        if id(rng) in block:\n"
           "            yield from drawn(block)\n"
           "            block = {}\n"
           "        block[id(rng)] = rng\n",
           "        block[id(rng)] = rng\n",
           (HARNESS + "test_trials_sharing_generators_equal_trials_run_one_by_one",)),
    Mutant("trial-pairs-full-block-before-append", "harness.py",
           "        block[id(rng)] = rng\n"
           "        if len(block) == PAIR_BLOCK:\n"
           "            yield from drawn(block)\n"
           "            block = {}\n",
           "        if len(block) == PAIR_BLOCK:\n"
           "            yield from drawn(block)\n"
           "            block = {}\n"
           "        block[id(rng)] = rng\n",
           (HARNESS + "test_trial_pairs_pull_no_generator_past_a_full_block",)),
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
