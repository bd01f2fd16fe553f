"""One workload process: runs a pass of jobs through ``rdfronts.cli.main``.

Usage: python3 worker.py PLAN.json

The plan (written by run.py) names the package's source directory, the jobs
with their config and output paths, the monotonic clock reading taken just
before this process was started, whether to trace, and where to write the
result.  With ``setup_only`` the process stops at its first solver call, so
it measures set-up alone.  The result is a JSON file: set-up time, per-job
exit codes and seconds, when untraced the host probe times during set-up
and during each job, peak resident memory and, when traced, the per-layer
figures.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import signal
import sys
import time
import traceback


class _SetupDone(BaseException):
    """Raised at the first solver call of a set-up-only process."""


def _mark_first_solver_call(setup_only: bool, on_first=None) -> dict:
    """Record the clock at the first call into a solver, then step aside.

    The entry points are the solver functions the CLI handlers call; the
    wrappers restore the originals on first use, so untraced runs pay one
    extra call per process.  `on_first` is called right after the clock is
    read.
    """
    from rdfronts import coefficients, eigen, ode, pde, speeds

    entries = [(speeds, "spreading_speeds"), (eigen, "k_curve"), (eigen, "k_of_lambda"),
               (eigen, "dirichlet_eigenvalue"), (pde, "simulate"),
               (pde, "stationary_profile"), (ode, "analyze"), (ode, "integrate"),
               (coefficients, "homogenize")]
    originals = [(m, name, getattr(m, name)) for m, name in entries]
    mark = {}

    def first_call(fn):
        def marker(*args, **kwargs):
            mark.setdefault("t", time.monotonic())
            for m, name, orig in originals:
                setattr(m, name, orig)
            if on_first is not None:
                on_first()
            if setup_only:
                raise _SetupDone
            return fn(*args, **kwargs)
        return marker

    for m, name, orig in originals:
        setattr(m, name, first_call(orig))
    return mark


SETUP_INTERVAL_S = 0.02
JOB_INTERVAL_S = 0.05


def _setup_probe():
    """About 0.5 ms of interpreter work, the bulk of what set-up does."""
    s = 0.0
    for i in range(8000):
        s += i * 0.5


def _job_probe():
    """About 1.5 ms of interpreter loop, small-array numpy, sparse LU solves
    and a streaming multiply in equal shares, about the mix the jobs run."""
    import numpy as np
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla
    n = 4096
    lu = spla.splu(sp.diags([np.full(n - 1, -1.0), np.full(n, 2.5), np.full(n - 1, -1.0)],
                            [-1, 0, 1], format="csc"))
    b = np.linspace(0.0, 1.0, n)
    x = np.linspace(0.0, 1.0, 64)
    big = np.linspace(0.0, 1.0, 1 << 17)
    out = np.empty_like(big)

    def probe():
        s = 0.0
        for i in range(5000):
            s += i * 0.5
        for _ in range(110):
            s += float(np.dot(x, np.exp(-x)))
        for _ in range(4):
            lu.solve(b)
        for _ in range(4):
            np.multiply(big, 1.0001, out=out)
    return probe


class HostSampler:
    """Times a small fixed probe at a fixed interval, from SIGALRM.

    On a shared host the CPU this process gets can run at full speed or
    about half again as slow, flipping within a second, with a share of
    slow time that drifts over minutes.  The probes, independent of
    rdfronts, run between the program's bytecodes, so their times sample
    the host speed the program itself sees.  The set-up probe runs until
    the first solver call, the job probe after it; `split` is the index of
    the first job-probe sample.  `spent` is the time spent probing, which
    the reported set-up and job times exclude.
    """

    def __init__(self):
        self.samples = []
        self.spent = 0.0
        self.split = None
        self._probe = _setup_probe
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SETUP_INTERVAL_S, SETUP_INTERVAL_S)

    def end_setup(self, setup_only: bool):
        self.split = len(self.samples)
        if setup_only:
            self.stop()
            return
        start = time.perf_counter()
        self._probe = _job_probe()
        signal.setitimer(signal.ITIMER_REAL, JOB_INTERVAL_S, JOB_INTERVAL_S)
        self.spent += time.perf_counter() - start

    def _tick(self, signum, frame):
        start = time.perf_counter()
        self._probe()
        took = time.perf_counter() - start
        self.samples.append(took)
        self.spent += took

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)


def run(plan: dict) -> dict:
    # Traced passes give self times per layer, so they run without probes.
    sampler = None if plan["trace"] else HostSampler()
    sys.path.insert(0, plan["src"])
    from rdfronts import cli

    tracer = None
    if plan["trace"]:
        import tracer as tracing
        tracer = tracing.Tracer()
        tracing.install(tracer)
    setup = {}

    def end_setup():
        setup["spent"] = sampler.spent
        sampler.end_setup(plan["setup_only"])

    mark = _mark_first_solver_call(plan["setup_only"], sampler and end_setup)

    jobs = []
    for job in plan["jobs"]:
        argv = [job["command"], "--config", job["config_path"], "--out", job["out"]]
        error = None
        first_sample = len(sampler.samples) if sampler else 0
        spent = sampler.spent if sampler else 0.0
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(argv)
        except _SetupDone:
            break
        except Exception:
            code, error = None, traceback.format_exc(limit=4)
        seconds = time.perf_counter() - start
        record = {"label": job["label"], "exit_code": code, "error": error,
                  "seconds": seconds}
        if sampler:
            record["seconds"] = seconds - (sampler.spent - spent)
            record["probe_s"] = ([] if sampler.split is None else
                                 sampler.samples[max(first_sample, sampler.split):])
        jobs.append(record)
    if sampler:
        sampler.stop()

    result = {
        "setup_s": mark["t"] - plan["t0"] - setup.get("spent", 0.0) if "t" in mark else None,
        "setup_probe_s": sampler.samples[:sampler.split] if sampler and "t" in mark else [],
        "jobs": jobs,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        result["layers"], result["job_counts"] = tracing.layer_metrics(tracer.spans)
    return result


def main() -> int:
    with open(sys.argv[1]) as fh:
        plan = json.load(fh)
    result = run(plan)
    with open(plan["result"], "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
