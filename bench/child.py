"""One measured run of the program, in a fresh process.

Usage: ``python3 bench/child.py COMMAND CONFIG OUT_DIR RESULT TRACE``

Imports ``lowdepth_ae`` and loads CONFIG (timed as set-up), then calls the
public CLI entry ``lowdepth_ae.cli.main([COMMAND, "--config", CONFIG,
"--out", OUT_DIR])`` (timed as the run).  With TRACE=1 the layer tracer is
installed around the call.  The measurements are written to RESULT as JSON.
The parent process puts ``src`` on ``PYTHONPATH``.
"""
import json
import resource
import signal
import sys
import time

from tracer import Tracer

LAYERS = ("circuits", "simulator", "noise", "estimators", "schedules", "harness", "cli")
# noise.shots: every pool sampled, counted from the DepthCounts it returns.
METERS = {"noise.sample_noisy_shots": ("noise.shots", lambda counts: counts.shots)}

# Trimmed-mean duration of the probe kernel on a quiet core of the 2-core
# x86_64 host the bounds in BENCHMARK.json were set on.
PROBE_NOMINAL_S = 4.0e-4
PROBE_INTERVAL_S = 0.05


class HostSpeedProbe:
    """Times a fixed reference kernel every 50 ms of wall time during the run.

    On a shared host the speed of a core drifts by up to 1.8x within
    seconds, and the program and the kernel slow down together.  Scaling
    the program's times by ``PROBE_NOMINAL_S / trimmed mean of the kernel
    times`` turns them into seconds at the reference speed, which vary from
    run to run by a fraction of the raw spread.  The kernel mixes
    interpreted arithmetic with small numpy operations, as the program
    does.  It runs in the SIGALRM handler, in the program's own thread.
    """

    def __init__(self):
        import numpy as np
        self.np, self.x = np, np.linspace(0.0, 1.5, 2000)
        self.samples: list[float] = []

    def sample(self, *_):
        start = time.perf_counter()
        acc = 0
        for i in range(3000):
            acc += i * i % 7
        w = self.np.sin(3.0 * self.x) ** 2
        for _ in range(20):
            w = self.np.sqrt(w + 1e-3)
        self.samples.append(time.perf_counter() - start)

    def __enter__(self):
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.sample()

    def speed_factor(self) -> float:
        """Nominal over measured kernel time; below 1 when the host is slow."""
        values = sorted(self.samples)
        cut = len(values) // 10
        kept = values[cut:len(values) - cut]
        return PROBE_NOMINAL_S / (sum(kept) / len(kept))


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def main(argv) -> int:
    command, config_path, out_dir, result_path, trace = argv
    t0 = time.perf_counter()
    import lowdepth_ae.cli
    import lowdepth_ae.harness
    lowdepth_ae.harness.ExperimentConfig.from_json(config_path)
    setup_s = time.perf_counter() - t0

    tracer = Tracer("lowdepth_ae", LAYERS, meters=METERS) if trace == "1" else None
    probe = HostSpeedProbe()
    cpu0 = _cpu_s()
    with probe:
        if tracer:
            tracer.install()
        start = time.perf_counter()
        try:
            rc = lowdepth_ae.cli.main([command, "--config", config_path, "--out", out_dir])
        finally:
            run_s = time.perf_counter() - start
            if tracer:
                tracer.uninstall()
    cpu_s = _cpu_s() - cpu0 - sum(probe.samples)
    peak_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                  resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)

    # wall_s includes the probe samples taken during the call (probe_s);
    # cpu_s excludes every probe sample.
    result = {"rc": rc, "setup_s": setup_s, "wall_s": run_s,
              "probe_s": sum(probe.samples[:-1]), "cpu_s": cpu_s,
              "peak_rss_mb": peak_kb / 1024.0, "speed_factor": probe.speed_factor(),
              "probe_samples": len(probe.samples)}
    if tracer:
        result["trace"] = tracer.report()
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
