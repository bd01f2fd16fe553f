"""rdfronts benchmark: one run of one workload.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload speed --seed 1 --seconds 30 --trace 0

Generates the workload's configs from the seed (workloads.py), then runs
passes over its jobs until --seconds have gone by, each pass in a fresh
worker process (worker.py) that calls ``rdfronts.cli.main`` once per job.
One worker runs at a time, with BLAS/OpenMP pinned to one thread.  After
every pass the jobs' artifacts are checked (checks.py).  A few extra
set-up-only workers measure start-up.

--trace 0 reports the end-to-end metrics from untraced passes.  In these a
timer runs a small fixed probe inside the worker every 20 ms during set-up
and every 50 ms during jobs (worker.HostSampler).  Set-up and job times
exclude the probes; setup_s and the *_norm_s metrics scale each set-up or
job time by how fast the probe ran during it, which takes out the shared
host's drifting speed.  The measured times are printed beside them.
--trace 1
alternates untraced and traced passes (at least two of each) and reports
the per-layer metrics of the traced ones (tracer.py) plus the tracing
overhead.  Human-readable
lines come first; the last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics.

Exits 2 without a result when the checkout has no rdfronts sources.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1", "BLIS_NUM_THREADS": "1"}
os.environ.update(THREAD_ENV)    # before numpy is imported; workers inherit it

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES = 5          # set-up-only processes per run, besides one per pass
TRACE_ROUNDS = 2          # untraced/traced pass pairs behind trace.overhead_frac
RUN_LIMIT_S = 165.0       # every worker is stopped by then; the run must end by 180 s

# Median times of worker.py's set-up and job probes on a 2-vCPU Intel Xeon
# VM at 2.1 GHz.  setup_s and the *_norm_s metrics are measured times
# scaled by these over the mean probe time during the same set-up or job:
# the shared host's speed for this process moves by up to half, and the
# probes, run inside the process, follow it.  The constants only set the
# scale.  A set-up or job with fewer than MIN_PROBES samples is scaled by
# the probes of its pass, or of the whole run.
SETUP_PROBE_REF_S = 0.0006
JOB_PROBE_REF_S = 0.0015
MIN_PROBES = 10

END_TO_END = {
    "wall_norm_s": "s",
    "job_p50_norm_s": "s",
    "job_tail_norm_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def _quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def _tail(values: list) -> tuple:
    """(value, percentile): highest percentile with at least ten samples beyond it.

    With ten samples or fewer no such percentile exists and the maximum is
    reported as percentile 100.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def _environment(root: Path, seed: int) -> dict:
    import numpy
    import scipy
    env = {"seed": seed, "nproc": len(os.sched_getaffinity(0)),
           "python": platform.python_version(), "numpy": numpy.__version__,
           "scipy": scipy.__version__, "cpu_model": platform.processor() or None,
           "caches": {}, "git_commit": None}
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    env["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            env["caches"][f"L{level}_{kind}"] = (index / "size").read_text().strip()
        except OSError:
            pass
    head = root / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = root / ".git" / ref[5:]
            ref = ref_file.read_text().strip() if ref_file.is_file() else None
        env["git_commit"] = ref
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "rdfronts").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    env["source_sha256"] = digest.hexdigest()[:16]
    return env


class Bench:
    """One run: the seeded job list, its work directory and its workers."""

    def __init__(self, root: Path, workload: str, seed: int):
        self.root = root
        self.workload = workload
        self.work = root / ".perfbench_work" / f"{workload}-{seed}-{os.getpid()}"
        self.outputs = self.work / "out"
        self.work.mkdir(parents=True)
        self.jobs = workloads.generate(workload, seed)
        for i, job in enumerate(self.jobs):
            job["config_path"] = str(self.work / f"job_{i}.json")
            job["out"] = str(self.outputs / f"{i}_{job['label']}")
            with open(job["config_path"], "w") as fh:
                json.dump(job["config"], fh, indent=1)
        self.started = time.monotonic()

    def _worker(self, trace: bool, setup_only: bool) -> dict:
        """Start one worker, wait for it, return its result (None on failure)."""
        result_path = self.work / "result.json"
        plan_path = self.work / "plan.json"
        result_path.unlink(missing_ok=True)
        plan = {"src": str(self.root / "src"), "trace": trace, "setup_only": setup_only,
                "result": str(result_path),
                "jobs": [{k: job[k] for k in ("label", "command", "config_path", "out")}
                         for job in self.jobs]}
        timeout = max(1.0, RUN_LIMIT_S - (time.monotonic() - self.started))
        plan["t0"] = time.monotonic()
        plan_path.write_text(json.dumps(plan))
        try:
            proc = subprocess.run([sys.executable, str(HERE / "worker.py"), str(plan_path)],
                                  cwd=self.root, timeout=timeout,
                                  stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        except subprocess.TimeoutExpired:
            print(f"worker stopped after {timeout:.0f} s", file=sys.stderr)
            return None
        if proc.returncode != 0 or not result_path.is_file():
            print(f"worker exited with {proc.returncode}:\n{proc.stderr[-2000:]}",
                  file=sys.stderr)
            return None
        return json.loads(result_path.read_text())

    def run_pass(self, trace: bool, refs) -> dict:
        """One pass over all jobs, with every job's artifacts checked."""
        shutil.rmtree(self.outputs, ignore_errors=True)
        self.outputs.mkdir()
        start = time.monotonic()
        result = self._worker(trace, setup_only=False)
        worker_s = time.monotonic() - start
        done = {j["label"]: j for j in (result or {"jobs": []})["jobs"]}
        failures = []
        for job in self.jobs:
            ran = done.get(job["label"])
            if ran is None or ran["exit_code"] != 0:
                detail = "no result" if ran is None else (ran["error"] or
                                                          f"exit code {ran['exit_code']}")
                failures.append((job["label"], "job_completed", detail))
                continue
            for name, ok, detail in checks.check_job(job, refs):
                if not ok:
                    failures.append((job["label"], name, detail))
        return {"trace": trace, "result": result, "failures": failures,
                "wall_s": sum(j["seconds"] for j in done.values()), "worker_s": worker_s,
                "failed_jobs": len({label for label, _, _ in failures})}

    def setup_probe(self):
        return self._worker(trace=False, setup_only=True)

    def close(self):
        shutil.rmtree(self.work, ignore_errors=True)
        try:
            self.work.parent.rmdir()
        except OSError:
            pass


def _measure(bench: Bench, seconds: float, trace: bool) -> list:
    """Rounds of passes for about `seconds`, at least TRACE_ROUNDS when traced.

    Only the time spent in workers counts towards `seconds`: the checks
    after a pass, and the untimed references they compute on first use,
    do not.  The last round is the one that ends nearest to `seconds`.
    A traced round is one untraced and one traced pass, their order swapped
    every round so that a drift of the host's speed cancels in the tracing
    overhead.
    """
    refs = checks.References()
    if bench.workload == "dirichlet":
        for job in bench.jobs:
            refs.k_min(job["config"])
    passes = []
    measured = 0.0
    rounds = 0
    while True:
        round_start = time.monotonic()
        kinds = ((False, True) if rounds % 2 == 0 else (True, False)) if trace else (False,)
        for kind in kinds:
            passes.append(bench.run_pass(kind, refs))
        rounds += 1
        took = sum(p["worker_s"] for p in passes[-len(kinds):])
        measured += took
        if time.monotonic() - bench.started + (time.monotonic() - round_start) > RUN_LIMIT_S:
            return passes
        if rounds >= (TRACE_ROUNDS if trace else 1) and measured + took / 2 > seconds:
            return passes


def _scaled(seconds: float, ref_s: float, *probe_sets) -> float:
    """seconds * ref_s / the mean probe time of the first set with MIN_PROBES."""
    probes = next((ps for ps in probe_sets if len(ps) >= MIN_PROBES), probe_sets[-1])
    return seconds * ref_s / statistics.fmean(probes)


def _end_to_end(bench: Bench, passes: list) -> tuple:
    plain = [p for p in passes if not p["trace"] and p["result"]]
    if not plain:
        return {}, []
    setup_runs = [p["result"] for p in plain] + [bench.setup_probe()
                                                 for _ in range(SETUP_PROBES)]
    setup_runs = [r for r in setup_runs if r and r["setup_s"] is not None]
    setup_probes = [t for r in setup_runs for t in r["setup_probe_s"]]
    probes = [t for p in plain for j in p["result"]["jobs"] for t in j["probe_s"]]
    if not setup_probes or not probes:
        return {}, ["no host probes were taken"]
    setups = [r["setup_s"] for r in setup_runs]
    setups_norm = [_scaled(r["setup_s"], SETUP_PROBE_REF_S, r["setup_probe_s"], setup_probes)
                   for r in setup_runs]
    walls = [p["wall_s"] for p in plain]
    # One latency per job, its median over the passes, so that the job
    # statistics do not depend on how many passes fitted in --seconds.
    per_job, per_job_norm, norm_walls = {}, {}, []
    for p in plain:
        jobs = p["result"]["jobs"]
        pass_probes = [t for j in jobs for t in j["probe_s"]]
        norm_walls.append(0.0)
        for j in jobs:
            norm = _scaled(j["seconds"], JOB_PROBE_REF_S, j["probe_s"], pass_probes, probes)
            norm_walls[-1] += norm
            per_job.setdefault(j["label"], []).append(j["seconds"])
            per_job_norm.setdefault(j["label"], []).append(norm)
    jobs = [statistics.median(v) for v in per_job.values()]
    jobs_norm = [statistics.median(v) for v in per_job_norm.values()]
    rss = [p["result"]["peak_rss_mb"] for p in plain]
    tail, pct = _tail(jobs)
    raw = {"wall_s": statistics.median(walls), "job_p50_s": statistics.median(jobs),
           "job_tail_s": tail, "setup_measured_s": statistics.median(setups)}
    metrics = {
        "wall_norm_s": statistics.median(norm_walls),
        "job_p50_norm_s": statistics.median(jobs_norm),
        "job_tail_norm_s": _tail(jobs_norm)[0],
        "setup_s": statistics.median(setups_norm),
        "peak_rss_mb": statistics.median(rss),
    }
    notes = {
        "wall_s": ("median of {} passes, quartiles {:.4f} .. {:.4f}; passes: {}"
                   .format(len(walls), *_quartiles(walls),
                           " ".join(f"{w:.3f}" for w in walls))),
        "job_p50_s": f"median over {len(jobs)} jobs of each job's median latency",
        "job_tail_s": (f"p{pct:.1f} of the {len(jobs)} job medians "
                       f"({sum(map(len, per_job.values()))} job runs), "
                       f"{len(jobs) - 1 - sorted(jobs).index(tail)} beyond it"),
        "wall_norm_s": ("median of {} passes, quartiles {:.4f} .. {:.4f}"
                        .format(len(norm_walls), *_quartiles(norm_walls))),
        "job_p50_norm_s": "as job_p50_s, on the scaled job times",
        "job_tail_norm_s": "as job_tail_s, on the scaled job times",
        "setup_measured_s": ("median of {} set-ups, quartiles {:.4f} .. {:.4f}"
                             .format(len(setups), *_quartiles(setups))),
        "setup_s": ("median of {} scaled set-ups, quartiles {:.4f} .. {:.4f}"
                    .format(len(setups_norm), *_quartiles(setups_norm))),
        "peak_rss_mb": f"median of {len(rss)} worker processes",
    }
    lines = [f"{name:<16} {value:>12.4f} s   {notes[name]}" for name, value in raw.items()]
    for name, ps, ref_s in (("host probe setup", setup_probes, SETUP_PROBE_REF_S),
                            ("host probe jobs", probes, JOB_PROBE_REF_S)):
        lines.append("{:<16} {:>12.6f} s   mean of {}, quartiles {:.6f} .. {:.6f}; "
                     "reference {} s".format(name, statistics.fmean(ps), len(ps),
                                             *_quartiles(ps), ref_s))
    lines += [f"{name:<16} {metrics[name]:>12.4f} {unit:<3} {notes[name]}"
              for name, unit in END_TO_END.items()]
    lines.append("job medians, scaled (measured): " + ", ".join(
        f"{label} {n:.3f} ({m:.3f})" for label, n, m in zip(per_job, jobs_norm, jobs)))
    return {name: {"value": metrics[name], "unit": unit}
            for name, unit in END_TO_END.items()}, lines


def _per_layer(passes: list) -> tuple:
    traced = [p for p in passes if p["trace"] and p["result"]]
    plain = [p["wall_s"] for p in passes if not p["trace"] and p["result"]]
    if not traced or not plain:
        return {}, []
    layers = [p["result"]["layers"] for p in traced]
    values = {name: statistics.median(layer[name] for layer in layers)
              for name in layers[0]}
    values["trace.overhead_frac"] = (statistics.median(p["wall_s"] for p in traced)
                                     / statistics.median(plain) - 1.0)
    lines = [f"traced passes: {len(traced)}, untraced passes: {len(plain)}"]
    for label, counts in zip((j["label"] for j in traced[0]["result"]["jobs"]),
                             traced[0]["result"]["job_counts"]):
        if counts:
            lines.append(f"counts {label}: " + " ".join(f"{k}={v}" for k, v in
                                                         sorted(counts.items()) if v))
    metrics = {}
    for name, unit, _better, moves in tracer.LAYER_METRICS:
        metrics[name] = {"value": values[name], "unit": unit}
        lines.append(f"{name:<32} {values[name]:>16.6g} {unit:<6} should move: {moves}")
    return metrics, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "rdfronts" / "__init__.py").is_file():
        print(f"no rdfronts sources under {root / 'src'}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    # On SIGTERM, unwind: subprocess.run kills and reaps the running worker,
    # and Bench.close removes the work directory.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    bench = Bench(root, args.workload, args.seed)
    try:
        passes = _measure(bench, args.seconds, bool(args.trace))
        if args.trace:
            metrics, lines = _per_layer(passes)
        else:
            metrics, lines = _end_to_end(bench, passes)
    finally:
        bench.close()

    attempted = sum(len(bench.jobs) for p in passes)
    failed = sum(p["failed_jobs"] for p in passes)
    unexpected = []
    seen = set()
    for p in passes:
        for label, name, detail in p["failures"]:
            known = checks.KNOWN_FAILURES.get((args.workload, label, name))
            if (label, name) not in seen:
                seen.add((label, name))
                tag = f"known failure: {known}" if known else "FAILED"
                lines.append(f"check {label}/{name}: {tag} ({detail})")
            if not known:
                unexpected.append((label, name))
    lines.append(f"failed_frac    {failed / attempted:>12.4f} 1   "
                 f"{failed} of {attempted} jobs failed a check")
    print("env " + json.dumps(_environment(root, args.seed), sort_keys=True))
    print(f"workload {args.workload}, seed {args.seed}, {len(passes)} passes")
    for line in lines:
        print(line)
    correct = not unexpected and len(metrics) > 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
