"""One benchmark operation: a single `fredmc` subcommand run in this process.

Usage: python3 op.py --command CMD --config CFG --report OUT.json [--trace]

The process imports ``fredmc.cli`` from the checkout (PYTHONPATH=src),
replaces the functions the CLI imported from each layer with wrappers,
runs ``fredmc.cli.main`` exactly as the console script does, and writes a
JSON report: when set-up ended (``validate_and_echo`` returned) and when
the operation ended, both on the system-wide monotonic clock that the
parent read at spawn; the CLI's exit code; the peak RSS; what the engines
returned (for the output checks); and, with --trace, the spans.

Nothing under src/ is edited: every hook is installed from here.
"""

from __future__ import annotations

import argparse
import functools
import inspect
import itertools
import json
import resource
import sys
import threading
import time
import traceback

# fredmc.cli attribute -> span group "<layer>.<name>".  Layers are the
# modules fredmc.cli imports from; "cli.replication" marks one replication
# of a study, so that its spans carry the replication id.
SPAN_GROUPS = {
    "build_problem": "registry.build",
    "power_norms": "problem.power_norms",
    "choose_truncation": "neumann.truncation",
    "_reference_solution": "neumann.reference",
    "damped_solution_oracle": "neumann.reference",
    "truncated_solution_oracle": "neumann.oracle",
    "optimal_allocation": "allocation.optimal_allocation",
    "solve_fredholm_mc": "estimator.solve",
    "derivative_solve": "estimator.derivative",
    "estimate_parametric_integral": "estimator.integral",
    "solve_geometric": "estimator.geometric",
    "estimate_covariance": "estimator.covariance",
    "simulate_sup_quantile": "confidence.gauss_sim",
    "tail_shape_report": "confidence.tail_report",
    "solution_psi": "confidence.psi_band",
    "integral_psi": "confidence.psi_band",
    "nonasymptotic_band": "confidence.psi_band",
    "export_band_json": "cli.artifacts",
    "write_estimate_csv": "cli.artifacts",
    "write_per_term_csv": "cli.artifacts",
    "write_covariance_csv": "cli.artifacts",
    "_write_manifest": "cli.artifacts",
    "_parallel": "cli.parallel",
    "_solve_sup_error": "cli.replication",
    "_geometric_sup_error": "cli.replication",
    "_coverage_rep": "cli.replication",
}
# position of the replication index among the positional arguments
REP_ARG = {"_solve_sup_error": 5, "_geometric_sup_error": 4, "_coverage_rep": 5}


class Tracer:
    """In-memory spans: name, group, start, end, parent span, thread and
    replication id.  A span opened in a pool thread with no open span of
    its own takes as parent the span the main thread has open (the
    ``_parallel`` call that is waiting for it)."""

    def __init__(self):
        self.spans = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._main = self._stack()

    def _stack(self):
        if not hasattr(self._local, "stack"):
            self._local.stack = []
            self._local.rep = None
        return self._local.stack

    def wrap(self, fn, name, group, rep_arg=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else (self._main[-1] if self._main else None)
            outer_rep = self._local.rep
            if rep_arg is not None:
                self._local.rep = args[rep_arg]
            span_id = next(self._ids)
            stack.append(span_id)
            start = time.monotonic()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.monotonic()
                stack.pop()
                self.spans.append({"id": span_id, "name": name, "group": group,
                                   "start": start, "end": end, "parent": parent,
                                   "thread": threading.get_ident(), "rep": self._local.rep})
                self._local.rep = outer_rep
        return traced


class Capture:
    """What the engines and the Gaussian simulation returned, reduced to
    what the output checks and the computed counts need."""

    def __init__(self):
        self.engine_calls = []
        self.gauss_bands = []
        self.v_star_calls = 0
        self._lock = threading.Lock()

    def _add(self, where, item):
        with self._lock:
            where.append(item)

    def _hook(self, fn, where, record):
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            out = fn(*args, **kwargs)
            call = sig.bind(*args, **kwargs)
            call.apply_defaults()
            self._add(where, record(call.arguments, out))
            return out
        return wrapped

    def solve(self, fn):
        return self._hook(fn, self.engine_calls, lambda a, est: {
            "engine": "solve", "seed": a["seed"], "n": int(a["alloc"].n_total),
            "N": int(a["alloc"].N), "counts": [int(c) for c in a["alloc"].counts],
            "theta": [float(x) for x in a["alloc"].theta], "G": int(est.t_grid.shape[0]),
            "covariance": bool(a["collect_covariance"]), "n_used": int(est.n_used),
            "values": est.values.tolist()})

    def geometric(self, fn):
        return self._hook(fn, self.engine_calls, lambda a, est: {
            "engine": "geometric", "seed": a["seed"], "n": int(a["budget"]),
            "lam": float(a["lam"]), "M": int(a["M"]), "G": int(est.t_grid.shape[0]),
            "n_used": int(est.n_used), "values": est.values.tolist()})

    def gauss_sim(self, fn):
        return self._hook(fn, self.gauss_bands, lambda a, out: {
            "seed": a["seed"], "n": a["n"], "n_sim": int(a["n_sim"]),
            "G": int(a["cov"].Z_hat.shape[0]),
            "half_width": (out[0] if a["return_sims"] else out).half_width})

    def count(self, fn):
        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            with self._lock:
                self.v_star_calls += 1
            return fn(*args, **kwargs)
        return wrapped


def install(cli, capture: Capture, tracer: Tracer | None) -> list:
    """Replace fredmc.cli's layer functions with wrappers; returns the
    names that fredmc.cli no longer has (left unwrapped)."""
    import fredmc.allocation
    import fredmc.confidence

    for name, hook in (("solve_fredholm_mc", capture.solve),
                       ("solve_geometric", capture.geometric),
                       ("simulate_sup_quantile", capture.gauss_sim)):
        setattr(cli, name, hook(getattr(cli, name)))
    missing = []
    if tracer is None:
        return missing
    fredmc.confidence.v_star = capture.count(fredmc.confidence.v_star)
    for name, group in SPAN_GROUPS.items():
        if not hasattr(cli, name):
            missing.append(name)
            continue
        setattr(cli, name, tracer.wrap(getattr(cli, name), name, group, REP_ARG.get(name)))
    cls = fredmc.allocation.BudgetAllocation
    cls.to_json = tracer.wrap(cls.to_json, "BudgetAllocation.to_json", "cli.artifacts")
    return missing


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--command", required=True)
    p.add_argument("--config", required=True)
    p.add_argument("--report", required=True)
    p.add_argument("--trace", action="store_true")
    args = p.parse_args()

    import fredmc.cli as cli

    marks = {}
    validate = cli.validate_and_echo

    def timed_validate(*a, **kw):
        cfg = validate(*a, **kw)
        marks["setup_end"] = time.monotonic()
        return cfg

    cli.validate_and_echo = timed_validate
    capture = Capture()
    tracer = Tracer() if args.trace else None
    missing = install(cli, capture, tracer)

    error = None
    try:
        code = cli.main([args.command, "--config", args.config])
    except Exception:  # an escaped exception is a failed operation, recorded with its traceback
        code, error = None, traceback.format_exc()
    end = time.monotonic()
    report = {
        "exit_code": code, "error": error, "setup_end": marks.get("setup_end"), "end": end,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "engine_calls": capture.engine_calls, "gauss_bands": capture.gauss_bands,
        "v_star_calls": capture.v_star_calls,
        "spans": tracer.spans if tracer else None, "unwrapped": missing,
    }
    with open(args.report, "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
