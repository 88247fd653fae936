"""Tests for the benchmark's layer tracer, host-speed probe and output checks."""
import json
import signal
import sys
import time
import types

import pytest

from child import LAYERS, METERS, PROBE_NOMINAL_S, HostSpeedProbe
from run import HOT_FUNCTIONS, INCLUSIVE_FUNCTIONS, check_run
from tracer import Tracer

import lowdepth_ae.cli
import lowdepth_ae.estimators
import lowdepth_ae.harness

INNER = '''
def leaf(dt):
    advance(dt)
    return dt

def fail(dt):
    advance(dt)
    raise KeyError("boom")

def _private(dt):
    advance(dt)
'''

OUTER = '''
def run():
    advance(1.0)
    leaf(2.0)
    advance(3.0)
    leaf(0.5)
    _private(10.0)
    return "done"

def recurse(n):
    advance(1.0)
    return recurse(n - 1) if n else 0

def guarded():
    advance(1.0)
    try:
        fail(4.0)
    except KeyError:
        pass
'''


@pytest.fixture
def fakepkg(monkeypatch):
    """A two-module package driven by a fake clock; ``outer`` aliases ``leaf``."""
    now = [0.0]

    def advance(dt):
        now[0] += dt

    pkg = types.ModuleType("fakepkg")
    modules = {"fakepkg": pkg}
    for name, code in (("inner", INNER), ("outer", OUTER)):
        module = types.ModuleType(f"fakepkg.{name}")
        module.advance = advance
        exec(code, module.__dict__)
        modules[module.__name__] = module
        setattr(pkg, name, module)
    outer, inner = modules["fakepkg.outer"], modules["fakepkg.inner"]
    outer.leaf, outer.fail, outer._private = inner.leaf, inner.fail, inner._private
    pkg.leaf = inner.leaf
    for name, module in modules.items():
        monkeypatch.setitem(sys.modules, name, module)
    return pkg, (lambda: now[0])


def test_nested_self_time_is_exclusive_of_children(fakepkg):
    pkg, clock = fakepkg
    tracer = Tracer("fakepkg", ("outer", "inner"), clock=clock)
    with tracer:
        assert pkg.outer.run() == "done"
        pkg.outer.recurse(2)
        pkg.outer.guarded()
    assert tracer.calls == {"outer.run": 1, "inner.leaf": 2, "outer.recurse": 3,
                            "outer.guarded": 1, "inner.fail": 1}
    # The private helper's 10 s stay with its public caller.
    assert tracer.self_s["outer.run"] == 14.0
    assert tracer.incl_s["outer.run"] == 16.5
    assert tracer.self_s["inner.leaf"] == 2.5
    # Recursion: three 1 s frames, inclusive time counted once.
    assert tracer.self_s["outer.recurse"] == 3.0
    assert tracer.incl_s["outer.recurse"] == 3.0
    # A raising child still closes its span.
    assert tracer.self_s["inner.fail"] == 4.0
    assert tracer.self_s["outer.guarded"] == 1.0
    report = tracer.report()
    assert report["layers"] == {"outer": {"self_s": 18.0, "calls": 5},
                                "inner": {"self_s": 6.5, "calls": 3}}
    assert tracer._stack == []


def test_aliases_are_wrapped_and_restored(fakepkg):
    pkg, clock = fakepkg
    originals = {"leaf": pkg.inner.leaf, "run": pkg.outer.run, "private": pkg.inner._private}
    tracer = Tracer("fakepkg", ("outer", "inner", "gone"), clock=clock)
    tracer.install()
    try:
        assert pkg.inner.leaf is not originals["leaf"]
        assert pkg.outer.leaf is pkg.inner.leaf is pkg.leaf
        assert pkg.inner._private is originals["private"]
        pkg.leaf(1.0)
        pkg.outer.leaf(1.0)
    finally:
        tracer.uninstall()
    assert tracer.calls["inner.leaf"] == 2
    assert "outer.leaf" not in tracer.wrapped
    assert tracer.missing_layers == ["gone"]
    assert pkg.inner.leaf is pkg.outer.leaf is pkg.leaf is originals["leaf"]
    assert pkg.outer.run is originals["run"]


TINY = {"n_trials": 3, "n_shots": 40, "max_depth": 3, "epsilon": 0.01, "seed": 5,
        "vector_mode": "uniform-theta", "calib_trials": 4, "tune_beta": True,
        "noise": {"gamma_by_depth": [0.035, 0.08, 0.125, 0.17],
                  "correlation": {"p_switch": 0.05, "burst_scale": 4.0}}}


def _traced(command, config_path, out_dir):
    tracer = Tracer("lowdepth_ae", LAYERS, meters=METERS)
    with tracer:
        assert lowdepth_ae.cli.main([command, "--config", str(config_path),
                                     "--out", str(out_dir)]) == 0
    report = tracer.report()
    counts = {k: v["calls"] for k, v in report["functions"].items()}
    return report, counts, {p.name: p.read_bytes() for p in out_dir.iterdir()}


@pytest.mark.parametrize("command", ["run", "fit-noise"])
def test_counts_repeat_and_outputs_are_unchanged(tmp_path, command):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(TINY))
    originals = (lowdepth_ae.harness.mle_estimate, lowdepth_ae.cli.run_trial)
    first, counts1, files1 = _traced(command, config_path, tmp_path / "a")
    _, counts2, files2 = _traced(command, config_path, tmp_path / "b")
    assert lowdepth_ae.cli.main([command, "--config", str(config_path),
                                 "--out", str(tmp_path / "plain")]) == 0
    plain = {p.name: p.read_bytes() for p in (tmp_path / "plain").iterdir()}

    assert counts1 == counts2 and files1 == files2 == plain
    assert set(HOT_FUNCTIONS + INCLUSIVE_FUNCTIONS) <= set(first["wrapped"])
    assert first["counters"]["noise.shots"] == 40 * counts1["noise.sample_noisy_shots"]
    if command == "run":
        # Reached only through the harness's own binding of the name.
        assert counts1["estimators.mle_estimate"] > 0
    else:
        assert counts1["harness.run_trial"] == 3
        assert first["layers"]["estimators"]["calls"] == 0
    assert (lowdepth_ae.harness.mle_estimate, lowdepth_ae.cli.run_trial) == originals
    assert lowdepth_ae.harness.mle_estimate is lowdepth_ae.estimators.mle_estimate


def test_check_run_flags_bad_outputs(tmp_path):
    config = {**TINY, "noise": {**TINY["noise"], "correlation": None},
              "algorithms": ["direct", "mle", "crt", "hybrid", "powerlaw"]}
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    out = tmp_path / "out"
    assert lowdepth_ae.cli.main(["run", "--config", str(config_path), "--out", str(out)]) == 0

    problems, failed, accuracy = check_run(out, config)
    assert (problems, failed) == ([], 0)
    assert set(accuracy) == {"err_p.mle", "err_p.crt_best", "err_p.hybrid_best",
                             "err_p.powerlaw", "gamma_fit_err"}

    trials = out / "trials.csv"
    lines = trials.read_text().splitlines(keepends=True)
    trials.write_text("".join(lines[:-1]))
    assert "rows, expected" in check_run(out, config)[0][0]
    header, row = lines[0], lines[1].split(",")
    row[header.split(",").index("p_hat")] = "1.5"
    trials.write_text("".join([header, ",".join(row)] + lines[2:]))
    problems, failed, _ = check_run(out, config)
    assert "outside [0, 1]" in problems[0] and failed == 1


def test_host_speed_probe_samples_and_restores_the_alarm():
    probe = HostSpeedProbe()
    with probe:
        time.sleep(0.12)
    assert len(probe.samples) >= 3
    assert signal.getsignal(signal.SIGALRM) is signal.SIG_DFL
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    # The trimmed mean drops the fastest and slowest tenth.
    probe.samples = [2 * PROBE_NOMINAL_S] * 9 + [1.0]
    assert probe.speed_factor() == pytest.approx(0.5)
