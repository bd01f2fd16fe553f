"""Spans around the calls into each rdfronts layer, recorded from outside.

``install`` replaces the layer-boundary functions of the imported package
with wrappers that append one span per call: name, start, end, the index of
the span that was open when the call began (its parent) and one number noted
from the call (a lambda, an iteration count, a byte count).  Spans stay in
memory; ``layer_metrics`` folds them into the per-layer figures at the end
of a pass.  The self time of a span is its duration minus the durations of
its child spans.
"""

from __future__ import annotations

import functools
import os
import time
from collections import defaultdict


# Layer groups: (metric names, unit, which end-to-end metric each should
# move and on which workload).  Written down before any optimisation, so a
# later change can cite the prediction it is judged against.
LAYERS = [
    (("coefficients.set_builds", "count"), ("coefficients.set_build_s", "s"),
     ("coefficients.eval_calls", "count"), ("coefficients.eval_s", "s"),
     "setup_s on all workloads; wall_norm_s on speed"),
    (("eigen.k_evals", "count"), ("eigen.dirichlet_evals", "count"),
     ("eigen.eval_s", "s"), ("eigen.eval_self_s", "s"),
     "wall_norm_s on speed"),
    (("eigen.perron_solves", "count"), ("eigen.perron_s", "s"),
     ("eigen.perron_self_s", "s"), ("eigen.perron_iterations", "count"),
     ("eigen.iterations_per_solve", "ratio"), ("eigen.levels_per_eval", "ratio"),
     ("eigen.useful_level_ratio", "ratio"), ("eigen.finest_cells_max", "count"),
     "wall_norm_s, job_tail_norm_s on dirichlet (most) and on speed; none on front"),
    (("eigen.lu_factors", "count"), ("eigen.lu_factor_s", "s"),
     ("eigen.lu_nnz", "count"), ("eigen.lu_solves", "count"),
     ("eigen.lu_solve_s", "s"), ("eigen.lu_bytes_computed", "bytes"),
     "wall_norm_s and peak_rss_mb on dirichlet"),
    (("speeds.calls", "count"), ("speeds.s", "s"), ("speeds.self_s", "s"),
     ("speeds.k_evals_per_call", "ratio"), ("speeds.distinct_lambda_ratio", "ratio"),
     "wall_norm_s, job_p50_norm_s on speed; none on dirichlet and front"),
    (("pde.steps", "count"), ("pde.substeps", "count"), ("pde.advance_s", "s"),
     ("pde.solve_s", "s"), ("pde.reaction_s", "s"), ("pde.step_us", "us"),
     ("pde.simulate_self_s", "s"), ("pde.lu_factor_s", "s"),
     ("pde.stationary_steps", "count"), ("pde.stationary_s", "s"),
     "wall_norm_s on front; none on speed and dirichlet"),
    (("ode.integrate_s", "s"), ("ode.steps", "count"), ("ode.step_us", "us"),
     "wall_norm_s on front"),
    (("cli.job_s", "s"), ("cli.self_s", "s"), ("cli.write_s", "s"),
     ("cli.bytes_written", "bytes"), ("cli.files_written", "count"),
     "wall_norm_s on front; setup_s"),
    (("trace.overhead_frac", "ratio"), "none"),
]

# Ratios where more is better; every other layer metric is better lower.
HIGHER_IS_BETTER = {"eigen.useful_level_ratio", "speeds.distinct_lambda_ratio"}

LAYER_METRICS = [(name, unit, "higher" if name in HIGHER_IS_BETTER else "lower", group[-1])
                 for group in LAYERS for name, unit in group[:-1]]


class Tracer:
    """An append-only span list plus the stack of currently open spans."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent, note]
        self._stack = []

    def wrap(self, name, fn, note=None):
        """fn wrapped so every call records one span; note(args, kwargs, result)."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()
            if note is not None:
                span[4] = note(args, kwargs, result)
            return result

        return traced


class _TracedLU:
    """A SuperLU factor whose solve calls are spans noting its stored entries.

    ``nnz`` is SuperLU's count of entries stored in L and U (supernodal
    blocks included), i.e. what one triangular solve pair reads.
    """

    def __init__(self, lu, tracer: Tracer):
        self._lu = lu
        self.nnz = lu.nnz
        self.solve = tracer.wrap("lu.solve", lu.solve, lambda a, k, r: self.nnz)

    def __getattr__(self, name):
        return getattr(self._lu, name)


def install(tracer: Tracer) -> None:
    """Wrap the layer boundaries of rdfronts (and scipy's splu) in spans."""
    import scipy.sparse.linalg as spla

    from rdfronts import cli, coefficients, eigen, ode, pde, speeds, util

    wrap = tracer.wrap
    splu = spla.splu
    spla.splu = wrap("lu.factor", lambda *a, **k: _TracedLU(splu(*a, **k), tracer),
                     lambda a, k, r: r.nnz)

    cli.main = wrap("cli.job", cli.main)
    write_csv = wrap("cli.write", util.write_csv,
                     lambda a, k, r: os.path.getsize(a[0]))
    for module in (util, cli, eigen, pde, ode):
        module.write_csv = write_csv

    coefficients.CoefficientSet.__post_init__ = wrap(
        "coefficients.set_build", coefficients.CoefficientSet.__post_init__)
    coefficients.CoefficientSpec.__call__ = wrap(
        "coefficients.eval", coefficients.CoefficientSpec.__call__)

    # speeds imports k_of_lambda and dirichlet_eigenvalue by name, so its
    # references are replaced too; k_curve and the refinement loop look the
    # names up in eigen at call time.
    k_of_lambda = wrap("eigen.k_eval", eigen.k_of_lambda, lambda a, k, r: float(a[1]))
    eigen.k_of_lambda = speeds.k_of_lambda = k_of_lambda
    dirichlet = wrap("eigen.dirichlet_eval", eigen.dirichlet_eigenvalue)
    eigen.dirichlet_eigenvalue = speeds.dirichlet_eigenvalue = dirichlet
    eigen.k_curve = wrap("eigen.k_curve", eigen.k_curve)
    eigen.principal_eigenpair = wrap("eigen.perron", eigen.principal_eigenpair,
                                     lambda a, k, r: (r.iterations, r.n_cells))

    speeds.spreading_speeds = wrap("speeds.spreading_speeds", speeds.spreading_speeds)

    pde.simulate = wrap("pde.simulate", pde.simulate)
    pde.stationary_profile = wrap("pde.stationary", pde.stationary_profile)
    pde.Stepper.advance = wrap("pde.advance", pde.Stepper.advance,
                               lambda a, k, r: a[0].substeps)

    ode.analyze = wrap("ode.analyze", ode.analyze)
    ode.integrate = wrap("ode.integrate", ode.integrate,
                         lambda a, k, r: len(r.t) - 1)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list) -> tuple:
    """(per-layer metrics of one pass, solver counts per job)."""
    n = len(spans)
    child = [0.0] * n
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    # Ancestry flags, propagated forward: a parent always precedes its children.
    marks = {"speeds.spreading_speeds", "eigen.k_curve", "eigen.perron", "pde.stationary"}
    job = [-1] * n
    inside = [frozenset()] * n
    extended = {}
    for i, (name, _, _, parent, _) in enumerate(spans):
        if name == "cli.job":
            job[i] = i
        elif parent >= 0:
            job[i] = job[parent]
        if parent >= 0:
            inside[i] = inside[parent]
            pname = spans[parent][0]
            if pname in marks:
                key = (inside[i], pname)
                if key not in extended:
                    extended[key] = inside[i] | {pname}
                inside[i] = extended[key]

    count = defaultdict(int)
    total = defaultdict(float)
    self_s = defaultdict(float)
    noted = defaultdict(float)
    jobs = defaultdict(lambda: defaultdict(int))
    lambdas = defaultdict(set)
    nnz_max = cells_max = 0
    lu_bytes = 0
    for i, (name, start, end, parent, note) in enumerate(spans):
        if name.startswith("lu."):
            owner = "eigen" if "eigen.perron" in inside[i] else "pde"
            name = f"{owner}.{name}"
            if name == "eigen.lu.factor":
                nnz_max = max(nnz_max, note)
            elif name == "eigen.lu.solve":
                lu_bytes += 12 * note
        elif name == "eigen.perron":
            noted[name] += note[0]
            cells_max = max(cells_max, note[1])
        elif name in ("pde.advance", "ode.integrate", "cli.write"):
            noted[name] += note
        count[name] += 1
        total[name] += end - start
        self_s[name] += end - start - child[i]
        if name in ("eigen.k_eval", "eigen.perron"):
            where = ("speeds" if "speeds.spreading_speeds" in inside[i]
                     else "curve" if "eigen.k_curve" in inside[i] else "other")
            kind = "k_evals" if name == "eigen.k_eval" else "perron_solves"
            jobs[job[i]][f"{kind}_{where}"] += 1
            if name == "eigen.k_eval":
                lambdas[job[i]].add(note)
        elif name == "pde.advance" and "pde.stationary" in inside[i]:
            count["pde.stationary_steps"] += 1

    evals = count["eigen.k_eval"] + count["eigen.dirichlet_eval"]
    solves = count["eigen.perron"]
    k_in_speeds = sum(j["k_evals_speeds"] for j in jobs.values())
    metrics = {
        "coefficients.set_builds": count["coefficients.set_build"],
        "coefficients.set_build_s": total["coefficients.set_build"],
        "coefficients.eval_calls": count["coefficients.eval"],
        "coefficients.eval_s": total["coefficients.eval"],
        "eigen.k_evals": count["eigen.k_eval"],
        "eigen.dirichlet_evals": count["eigen.dirichlet_eval"],
        "eigen.eval_s": total["eigen.k_eval"] + total["eigen.dirichlet_eval"],
        "eigen.eval_self_s": self_s["eigen.k_eval"] + self_s["eigen.dirichlet_eval"],
        "eigen.perron_solves": solves,
        "eigen.perron_s": total["eigen.perron"],
        "eigen.perron_self_s": self_s["eigen.perron"],
        "eigen.perron_iterations": int(noted["eigen.perron"]),
        "eigen.iterations_per_solve": _ratio(noted["eigen.perron"], solves),
        "eigen.levels_per_eval": _ratio(solves, evals),
        "eigen.useful_level_ratio": _ratio(2 * evals, solves),
        "eigen.finest_cells_max": cells_max,
        "eigen.lu_factors": count["eigen.lu.factor"],
        "eigen.lu_factor_s": total["eigen.lu.factor"],
        "eigen.lu_nnz": nnz_max,                  # the largest factor
        "eigen.lu_solves": count["eigen.lu.solve"],
        "eigen.lu_solve_s": total["eigen.lu.solve"],
        "eigen.lu_bytes_computed": lu_bytes,      # 8-byte value + 4-byte index per entry read
        "speeds.calls": count["speeds.spreading_speeds"],
        "speeds.s": total["speeds.spreading_speeds"],
        "speeds.self_s": self_s["speeds.spreading_speeds"],
        "speeds.k_evals_per_call": _ratio(k_in_speeds, count["speeds.spreading_speeds"]),
        "speeds.distinct_lambda_ratio": _ratio(sum(len(s) for s in lambdas.values()),
                                               count["eigen.k_eval"]),
        "pde.steps": count["pde.advance"],
        "pde.substeps": int(noted["pde.advance"]),
        "pde.advance_s": total["pde.advance"],
        "pde.solve_s": total["pde.lu.solve"],
        "pde.reaction_s": self_s["pde.advance"],
        "pde.step_us": 1e6 * _ratio(total["pde.advance"], count["pde.advance"]),
        "pde.simulate_self_s": self_s["pde.simulate"],
        "pde.lu_factor_s": total["pde.lu.factor"],
        "pde.stationary_steps": count["pde.stationary_steps"],
        "pde.stationary_s": total["pde.stationary"],
        "ode.integrate_s": total["ode.integrate"],
        "ode.steps": int(noted["ode.integrate"]),
        "ode.step_us": 1e6 * _ratio(total["ode.integrate"], noted["ode.integrate"]),
        "cli.job_s": total["cli.job"],
        "cli.self_s": self_s["cli.job"],
        "cli.write_s": total["cli.write"],
        "cli.bytes_written": int(noted["cli.write"]),
        "cli.files_written": count["cli.write"],
    }
    per_job = [dict(jobs[i]) for i, span in enumerate(spans) if span[0] == "cli.job"]
    return metrics, per_job
