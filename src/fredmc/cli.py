"""Command-line front end.

Wires the pipeline (power norms -> truncation -> allocation -> solve ->
bands), runs convergence/coverage studies, and writes CSV/JSON artifacts.
Configs are single JSON files; see README for the schema.  Artifacts are
byte-stable: fixed column order, shortest round-trip float formatting,
LF line endings, and study replications run in order on one thread.

Exit codes: 0 ok, 2 config, 3 contractivity, 4 budget (also an
allocation that runs out of memory), 5 numerical.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import os
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from . import __version__
from .allocation import derivative_allocation, optimal_allocation
from .confidence import (empirical_quantile, export_band_json, integral_psi, nonasymptotic_band,
                         simulate_sup_quantile, solution_psi, tail_shape_report)
from .errors import (BandTooWide, BudgetError, ConfigError, ContractivityError,
                     NotPSD, UnsupportedDerivative)
from .estimator import (EstimateTable, derivative_solve, estimate_covariance,
                        estimate_parametric_integral, solve_fredholm_mc, solve_geometric)
from .neumann import choose_truncation, damped_solution_oracle
from .problem import ProblemSpec, power_norms
from .registry import build_problem, exact_solution

DEFAULT_BUDGETS = (1_000, 10_000, 100_000, 1_000_000)
# BLAS thread settings as the run saw them: some covariance and gauss-sim
# bits depend on the BLAS thread count, so the manifest records it
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@dataclass
class ExperimentConfig:
    problem: dict
    mode: str = "solve"
    epsilon: float = 0.01
    budget: int = 100_000
    delta: float = 0.05
    grid: int = 101
    seed: int = 0
    out_dir: str = "out"
    replications: int = 1
    workers: int = 1  # accepted and checked, selects nothing: replications run on one thread
    lam: float = 0.5
    M: Optional[int] = None
    band_method: str = "gauss-sim"
    n_sim: int = 10_000
    budgets: tuple = DEFAULT_BUDGETS
    norms_method: str = "quadrature"
    m_max: int = 12
    export_per_term: bool = False
    export_covariance: bool = False
    tail_report: bool = False

    def to_dict(self) -> dict:
        d = dataclasses.asdict(self)
        d["budgets"] = list(self.budgets)
        return d


def validate_and_echo(raw: dict, echo: bool = True) -> ExperimentConfig:
    """Normalize a raw config dict, with defaults for absent fields; echo
    the resolved config to stdout as JSON.  No side effects beyond the echo."""
    cfg = _normalize(raw)
    if echo:
        print(json.dumps(cfg.to_dict(), indent=2))
    return cfg


# accepted JSON types per field annotation (int fields: see _integral); a
# bool is taken only for a bool field, never for a number
_FIELD_TYPES = {"float": (int, float), "str": (str,), "tuple": (list, tuple), "bool": (bool,)}


def _integral(name: str, value) -> int:
    """An integral JSON number (2 or 2.0) as an int; anything else is a ConfigError."""
    if isinstance(value, bool) or not (isinstance(value, int)
                                       or isinstance(value, float) and value.is_integer()):
        raise ConfigError(f"{name} must be an integer: {value!r}")
    return int(value)


def _normalize(raw: dict) -> ExperimentConfig:
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    known = {f.name for f in dataclasses.fields(ExperimentConfig)}
    unknown = set(raw) - known
    if unknown:
        raise ConfigError(f"unknown config field(s): {sorted(unknown)}")
    if "problem" not in raw or not isinstance(raw["problem"], dict) or "name" not in raw["problem"]:
        raise ConfigError("config needs a 'problem' object with a 'name'")
    cfg = ExperimentConfig(**raw)
    for f in dataclasses.fields(cfg):
        value, allowed = getattr(cfg, f.name), _FIELD_TYPES.get(f.type)
        if f.type == "int" or f.type == "Optional[int]" and value is not None:
            setattr(cfg, f.name, _integral(f.name, value))
        elif allowed and (not isinstance(value, allowed)
                          or isinstance(value, bool) and bool not in allowed):
            raise ConfigError(f"{f.name} has the wrong type: {value!r}")
    if cfg.mode not in MODES:
        raise ConfigError(f"mode must be one of {MODES}")
    if not 0.0 < cfg.epsilon < 0.5:
        raise ConfigError("epsilon must lie in (0, 0.5)")
    if not 0.0 < cfg.delta < 1.0:
        raise ConfigError("delta must lie in (0, 1)")
    if cfg.band_method not in ("gauss-sim", "nonasymptotic-psi", "both"):
        raise ConfigError("band_method must be gauss-sim | nonasymptotic-psi | both")
    if not 0.0 < cfg.lam < 1.0:
        raise ConfigError("lam must lie in (0, 1)")
    if cfg.norms_method not in ("analytic", "quadrature", "mc"):
        raise ConfigError("norms_method must be analytic | quadrature | mc")
    if cfg.tail_report and cfg.n_sim < 100_000:
        raise ConfigError("tail_report needs n_sim >= 1e5")
    if (cfg.tail_report or cfg.export_covariance) and cfg.band_method == "nonasymptotic-psi":
        raise ConfigError("tail_report/export_covariance need the gauss-sim band")
    if (cfg.tail_report or cfg.export_covariance) and cfg.mode == "geometric":
        raise ConfigError("geometric mode has no plug-in covariance model")
    if cfg.mode == "derivative" and cfg.band_method != "gauss-sim":
        raise ConfigError("derivative mode supports band_method gauss-sim only")
    cfg.budgets = tuple(_integral("budgets entry", b) for b in cfg.budgets)
    if not cfg.budgets or min(cfg.budgets) < 1:
        raise ConfigError(f"budgets must list one or more budgets >= 1: {list(cfg.budgets)}")
    for name, low in (("budget", 1), ("grid", 2), ("replications", 1), ("workers", 1),
                      ("n_sim", 1), ("m_max", 2), ("M", 2)):  # M: when set
        value = getattr(cfg, name)
        if value is not None and value < low:
            raise ConfigError(f"{name} must be >= {low}: {value}")
    try:
        _build_spec(cfg)  # fail early on problem parameters
    except KeyError as exc:
        raise ConfigError(f"problem {cfg.problem['name']!r} is missing parameter {exc}") from None
    except TypeError as exc:
        raise ConfigError(f"malformed problem parameter: {exc}") from None
    return cfg


def _build_spec(cfg: ExperimentConfig) -> ProblemSpec:
    params = {k: v for k, v in cfg.problem.items() if k != "name"}
    params.setdefault("grid", cfg.grid)
    return build_problem(cfg.problem["name"], params)


# ---------------------------------------------------------------------------
# artifact writers


def _fmt(x) -> str:
    return repr(float(x))


def _write_csv(path, header, rows) -> None:
    """The one CSV dialect of every table: UTF-8, LF line endings."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        w.writerows(rows)


def write_estimate_csv(path, est: EstimateTable) -> None:
    coords = [[_fmt(c) for c in t] for t in est.t_grid]
    _write_csv(path, [f"t_{i + 1}" for i in range(est.t_grid.shape[1])]
               + ["value", "var", "n_used", "mode", "seed"],
               (t + [_fmt(v), _fmt(var), est.n_used, est.mode, est.seed]
                for t, v, var in zip(coords, est.values, est.pointwise_var)))


def write_per_term_csv(path, est: EstimateTable) -> None:
    coords = [[_fmt(c) for c in t] for t in est.t_grid]
    _write_csv(path, [f"t_{i + 1}" for i in range(est.t_grid.shape[1])] + ["m", "value"],
               (t + [m, _fmt(v)] for m, term in enumerate(est.per_term, start=1)
                for t, v in zip(coords, term)))


def write_covariance_csv(path, cov) -> None:
    _write_csv(path, [";".join(_fmt(x) for x in pt) for pt in cov.t_grid],
               ([_fmt(v) for v in row] for row in cov.Z_hat))


def _write_manifest(out, cfg: ExperimentConfig, artifacts, summary, t0) -> None:
    manifest = {
        "config": cfg.to_dict(),
        "seed": cfg.seed,
        "versions": {"fredmc": __version__, "python": sys.version.split()[0],
                     "numpy": np.__version__,
                     "blas_threads": {v: os.environ.get(v) for v in _BLAS_THREAD_VARS}},
        "wall_time_s": round(time.monotonic() - t0, 3),
        "artifacts": sorted(artifacts),
        "summary": summary,
    }
    with open(out / "manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2)
        fh.write("\n")


# ---------------------------------------------------------------------------
# pipeline pieces


def _pipeline(cfg: ExperimentConfig, spec: ProblemSpec, budget: Optional[int] = None):
    """Power norms, truncation and allocation, with the stage summary that
    every mode running them writes into its manifest."""
    pnt = power_norms(spec, m_max=cfg.m_max, method=cfg.norms_method)
    plan = choose_truncation(pnt, spec.f_norm, cfg.epsilon)
    alloc = optimal_allocation(pnt, plan.N, budget or cfg.budget)
    summary = {"N": plan.N, "tail_bound": plan.tail_bound, "tail_basis": plan.basis,
               "norms_accuracy": pnt.accuracy}
    return pnt, plan, alloc, summary


def _reference_solution(spec: ProblemSpec) -> tuple[np.ndarray, dict]:
    """Reference values on the output grid, with their Gauss-Legendre
    nodes per axis q and last-two-rules difference diff: the closed form when
    the registry has one, else the Nystrom solution (ContractivityError past
    the Neumann radius)."""
    grid = spec.domain.grid()
    exact = exact_solution(spec)
    if exact is not None:
        return np.asarray(exact(grid), dtype=float), {"q": exact.q, "diff": exact.diff}
    y, q, diff = damped_solution_oracle(spec, 1.0, grid)
    return y, {"q": q, "diff": diff}


def _bands_for(cfg: ExperimentConfig, spec, alloc, est, n: int):
    """(band list for band.json, covariance model or None)."""
    bands = []
    cov = None
    if cfg.band_method in ("gauss-sim", "both"):
        cov = estimate_covariance(spec, alloc, est.t_grid, est.moments)
        extras = {"n": n}
        if cfg.tail_report:
            gauss, sims = simulate_sup_quantile(cov, cfg.delta, cfg.n_sim, cfg.seed, n=n,
                                                return_sims=True)
            top = empirical_quantile(sims, [0.9, 1.0 - 60.0 / cfg.n_sim])
            kappa, c_fit = tail_shape_report(cov, np.linspace(top[0], top[1], 25), sims)
            extras.update(kappa_fit=kappa, C_fit=c_fit)
        else:
            gauss = simulate_sup_quantile(cov, cfg.delta, cfg.n_sim, cfg.seed, n=n)
        bands.append((gauss, extras))
    if cfg.band_method in ("nonasymptotic-psi", "both"):
        if est.mode == "solution":
            psi, sigma = solution_psi(spec, alloc)
        elif est.mode == "integral":
            psi, sigma = integral_psi(spec)
        else:
            raise ConfigError(f"nonasymptotic band is not wired for mode {est.mode!r}")
        bands.append((nonasymptotic_band(psi, spec.domain, spec.metric, sigma, cfg.delta, n),
                      {"n": n}))
    return bands, cov


# ---------------------------------------------------------------------------
# modes


def _run_allocate(cfg: ExperimentConfig, out, t0) -> int:
    _, plan, alloc, summary = _pipeline(cfg, _build_spec(cfg))
    alloc.to_json(out / "allocation.json")
    _write_manifest(out, cfg, ["allocation.json"],
                    {**summary, "phi_predicted": alloc.phi_predicted}, t0)
    print(f"allocate-only: N={plan.N} cost_B={alloc.cost_B} phi={alloc.phi_predicted:.6g}")
    return 0


def _run_point_estimate(cfg: ExperimentConfig, out, t0) -> int:
    spec = _build_spec(cfg)
    grid = spec.domain.grid()
    artifacts = ["estimate.csv", "manifest.json"]
    collect = cfg.band_method in ("gauss-sim", "both")

    if cfg.mode == "geometric":
        # the geometric engine reads the power norms only: no truncation, no allocation
        pnt = power_norms(spec, m_max=cfg.m_max, method=cfg.norms_method)
        M = cfg.M or max(2, round(math.sqrt(cfg.budget)))
        est = solve_geometric(spec, cfg.lam, M, cfg.budget, grid, cfg.seed, pnt=pnt)
        summary = {"norms_accuracy": pnt.accuracy, "lam": cfg.lam, "M": M, "n_used": est.n_used}
        bands, cov = [], None
    elif cfg.mode == "integrate":
        # the first Neumann term S[f]: K with f as the runner's tail
        est = estimate_parametric_integral(spec.kernel, spec.mu, spec.domain, grid, cfg.budget,
                                           cfg.seed, collect_covariance=collect, weight=spec.forcing)
        bands, cov = _bands_for(cfg, spec, None, est, cfg.budget)
        summary = {}
    else:
        _, plan, alloc, summary = _pipeline(cfg, spec)
        # derivative mode runs N+1 terms: the file gives the allocation the engine runs
        (derivative_allocation(alloc) if cfg.mode == "derivative" else alloc).to_json(
            out / "allocation.json")
        artifacts.append("allocation.json")
        solver = derivative_solve if cfg.mode == "derivative" else solve_fredholm_mc
        est = solver(spec, plan, alloc, grid, cfg.seed, collect_covariance=collect)
        bands, cov = _bands_for(cfg, spec, alloc, est, cfg.budget)
        for band, _ in bands if cfg.mode == "solve" else ():
            _warn_if_tail_exceeds(plan.tail_bound, band.half_width, band.method,
                                  "its target is the truncated solution y^(N)")
    if est.mode != "geometric":
        summary["first_factor"] = _first_factor_summary(spec, est)

    write_estimate_csv(out / "estimate.csv", est)
    if cfg.export_per_term and est.mode != "geometric":
        write_per_term_csv(out / "per_term.csv", est)
        artifacts.append("per_term.csv")
    if cfg.export_covariance and cov is not None:
        write_covariance_csv(out / "covariance.csv", cov)
        artifacts.append("covariance.csv")
    if bands:
        export_band_json(out / "band.json", bands)
        artifacts.append("band.json")
        summary["u_delta"] = {b.method: b.u_delta for b, _ in bands}
    _write_manifest(out, cfg, artifacts, summary, t0)
    print(f"{cfg.mode}: wrote {len(artifacts)} artifact(s) to {out}")
    return 0


def _first_factor_summary(spec: ProblemSpec, est: EstimateTable) -> Optional[dict]:
    """Rank r and remainder bound eps_K of the first factor on the factored
    path, with the bias they add to the estimate: term m's first factor is
    off by at most eps_K and its tail is at most sup|K|^(m-1) ||f||, so
    the bias is at most eps_K * sum_m sup|K|^(m-1) ||f||.  None when the
    general path ran."""
    if est.factor_rank is None:
        return None
    k_sup = float(np.max(np.abs(np.asarray(spec.envelope_R(spec.domain.grid()), dtype=float))))
    n_terms = est.per_term.shape[0]
    tails = sum(k_sup ** (m - 1) for m in range(1, n_terms + 1)) * spec.f_norm
    return {"rank": est.factor_rank, "eps_K": est.factor_eps,
            "bias_bound": est.factor_eps * tails}


def _warn_if_tail_exceeds(tail_bound: float, half_width: float, band: str, why: str) -> None:
    """Warn on stderr when the truncation tail bound exceeds a band's half-width."""
    if tail_bound > half_width:
        print(f"warning: tail_bound {tail_bound:.3g} exceeds the {band} half-width "
              f"{half_width:.3g}; {why}, so the band cannot cover the truncation bias; "
              "lower epsilon", file=sys.stderr)


def _solve_sup_error(cfg, spec, pnt, plan, n, rep, ref) -> float:
    alloc = optimal_allocation(pnt, plan.N, n)
    est = solve_fredholm_mc(spec, plan, alloc, spec.domain.grid(), cfg.seed + rep)
    return float(np.max(np.abs(est.values - ref)))


def _geometric_sup_error(cfg, spec, pnt, n, rep, ref) -> float:
    M = cfg.M or max(2, round(math.sqrt(n)))
    est = solve_geometric(spec, cfg.lam, M, n, spec.domain.grid(), cfg.seed + rep, pnt=pnt)
    return float(np.max(np.abs(est.values - ref)))


def _loglog_slope(ns, errs) -> float:
    X = np.stack([np.ones(len(ns)), np.log(np.asarray(ns, dtype=float))], axis=1)
    coef, *_ = np.linalg.lstsq(X, np.log(np.asarray(errs, dtype=float)), rcond=None)
    return float(coef[1])


def _run_rate_study(cfg: ExperimentConfig, out, t0) -> int:
    spec = _build_spec(cfg)
    pnt, plan, _, summary = _pipeline(cfg, spec, budget=max(cfg.budgets))
    ref_solve, accuracy = _reference_solution(spec)
    ref_geo, q, diff = damped_solution_oracle(spec, cfg.lam, spec.domain.grid())
    accuracy = {"q": max(accuracy["q"], q), "diff": max(accuracy["diff"], diff)}
    rows = []
    slopes = {}
    for method, err_fn, stages, ref in (("solve", _solve_sup_error, (pnt, plan), ref_solve),
                                        ("geometric", _geometric_sup_error, (pnt,), ref_geo)):
        rmse = []
        for n in cfg.budgets:
            errs = [err_fn(cfg, spec, *stages, n, r, ref) for r in range(cfg.replications)]
            rows.extend((method, n, r, _fmt(e)) for r, e in enumerate(errs))
            rmse.append(math.sqrt(float(np.mean(np.square(errs)))))
        slopes[method] = _loglog_slope(cfg.budgets, rmse)
    _write_csv(out / "rates.csv", ["method", "n", "replication", "sup_error"], rows)
    _write_manifest(out, cfg, ["rates.csv"],
                    {**summary, "slopes": slopes, "reference_accuracy": accuracy}, t0)
    print("rate-study slopes: " + ", ".join(f"{k}={v:.3f}" for k, v in slopes.items()))
    return 0


def _coverage_rep(cfg, spec, plan, alloc, ref, rep) -> tuple[int, float]:
    """(covered 0/1, gauss-sim half-width) of one replication."""
    grid = spec.domain.grid()
    est = solve_fredholm_mc(spec, plan, alloc, grid, cfg.seed + rep, collect_covariance=True)
    cov = estimate_covariance(spec, alloc, grid, est.moments)
    band = simulate_sup_quantile(cov, cfg.delta, cfg.n_sim, cfg.seed + rep, n=cfg.budget)
    return int(np.max(np.abs(est.values - ref)) <= band.half_width), band.half_width


def _run_coverage_study(cfg: ExperimentConfig, out, t0) -> int:
    spec = _build_spec(cfg)
    _, plan, alloc, summary = _pipeline(cfg, spec)
    ref, accuracy = _reference_solution(spec)
    covered, widths = zip(*(_coverage_rep(cfg, spec, plan, alloc, ref, r)
                            for r in range(cfg.replications)))
    _write_csv(out / "coverage.csv", ["replication", "covered"], enumerate(covered))
    rate = float(np.mean(covered))
    ranked = sorted(widths)  # the median as np.median forms it, which would import numpy.ma
    median_width = (ranked[(len(ranked) - 1) // 2] + ranked[len(ranked) // 2]) / 2.0
    _write_manifest(out, cfg, ["coverage.csv"],
                    {**summary, "coverage": rate, "delta": cfg.delta,
                     "median_half_width": median_width, "reference_accuracy": accuracy}, t0)
    _warn_if_tail_exceeds(plan.tail_bound, median_width, "median gauss-sim",
                          "coverage is measured against the full solution")
    print(f"coverage-study: {rate:.3f} over {cfg.replications} replications (target {1 - cfg.delta})")
    return 0


# subcommand -> (mode, runner); the one list of modes, read by the config
# check, the parser and run()
_COMMANDS = {"solve": ("solve", _run_point_estimate),
             "integrate": ("integrate", _run_point_estimate),
             "derivative": ("derivative", _run_point_estimate),
             "geometric": ("geometric", _run_point_estimate),
             "allocate": ("allocate-only", _run_allocate),
             "rate-study": ("rate-study", _run_rate_study),
             "coverage-study": ("coverage-study", _run_coverage_study)}
MODES = tuple(mode for mode, _ in _COMMANDS.values())


def run(cfg: ExperimentConfig) -> int:
    """Execute one experiment; writes artifacts under cfg.out_dir."""
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return dict(_COMMANDS.values())[cfg.mode](cfg, out, time.monotonic())


# ---------------------------------------------------------------------------
# entry point


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="fredmc",
                                description="Monte-Carlo Fredholm solver with uniform-norm bands")
    sub = p.add_subparsers(dest="command", required=True)
    for name in (*_COMMANDS, "validate"):
        sp = sub.add_parser(name)
        sp.add_argument("--config", required=True, help="path to the JSON experiment config")
        sp.add_argument("--seed", type=int, default=None, help="override config seed")
        sp.add_argument("--budget", type=int, default=None, help="override config budget")
        sp.add_argument("--out", default=None, help="override config out_dir")
        sp.add_argument("--workers", type=int, default=None, help="config workers (selects nothing)")
    return p


def _innermost_fredmc_function(exc: BaseException) -> str:
    """Name of the innermost fredmc function in the traceback of ``exc``."""
    package = Path(__file__).resolve().parent
    names = [f"{Path(fr.filename).stem}.{fr.name}" for fr in traceback.extract_tb(exc.__traceback__)
             if Path(fr.filename).resolve().parent == package]
    return names[-1] if names else "?"


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    mode = None if args.command == "validate" else _COMMANDS[args.command][0]
    overrides = {"seed": args.seed, "budget": args.budget, "out_dir": args.out,
                 "workers": args.workers, "mode": mode}
    if isinstance(raw, dict):  # anything else is refused by validate_and_echo (exit 2)
        raw.update({k: v for k, v in overrides.items() if v is not None})
    try:
        cfg = validate_and_echo(raw, echo=args.command == "validate")
        if args.command == "validate":
            return 0
        return run(cfg)
    except ContractivityError as exc:
        print(f"contractivity error: {exc}", file=sys.stderr)
        return 3
    except BudgetError as exc:
        print(f"budget error: {exc}", file=sys.stderr)
        return 4
    except MemoryError as exc:
        print(f"budget error: out of memory in {_innermost_fredmc_function(exc)}; "
              "lower the grid, budget or n_sim", file=sys.stderr)
        return 4
    except (NotPSD, BandTooWide) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 5
    except (ConfigError, UnsupportedDerivative, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
