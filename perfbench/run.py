"""fredmc benchmark: four CLI workloads, checked outputs, per-layer timings.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each operation is one `fredmc <subcommand>` run in a fresh process
(perfbench/op.py), so set-up time and peak RSS are per operation.  The
benchmark generates the workload's config from --seed, starts operations
one after another for --seconds (at least three), checks
every operation's artifacts against numpy references computed here, and
prints a report line and then, as the last line, the result object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json from untraced
operations.  --trace 1 alternates traced and untraced operations (plus one
untraced operation at workers 1 when the workload has more) and reports
the per-layer metrics; the spans are written to
perfbench/_work/trace-<workload>-seed<N>.json.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

import reference as ref

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
WORK = HERE / "_work"
MIN_OPS = 3           # a median needs three; a traced run needs two traced operations
RUN_LIMIT_S = 170.0   # no operation starts that could end after this

GAUSS = {"name": "gauss-conv", "scale": 0.4, "kappa": 2.0, "forcing": {"kind": "const", "value": 1.0}}
TS = {"name": "separable-poly", "a": [0.0, 1.0], "b": [0.0, 1.0],
      "forcing": {"kind": "poly", "coeffs": [0.0, 1.0]}}
LAM = 0.5             # the config default damping of the geometric engine
QUAD = {1: 48, 2: 24}  # Gauss-Legendre nodes per axis for the references
REF_SIMS = 50_000
HW_TOL = 0.10         # gauss-sim half-width within 10 % of the reference band


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def workload_config(name: str) -> tuple[str, dict]:
    """(subcommand, config) of a workload, without its seed."""
    if name == "solve-1d":
        return "solve", {"problem": {**GAUSS, "bounds": [[0.0, 1.0]]}, "budget": 10 ** 6,
                         "grid": 101, "band_method": "both", "workers": 1}
    if name == "solve-2d":
        return "solve", {"problem": {**GAUSS, "bounds": [[0.0, 1.0], [0.0, 1.0]]},
                         "budget": 2 * 10 ** 5, "grid": 21, "norms_method": "mc", "m_max": 8,
                         "band_method": "gauss-sim", "export_covariance": True, "workers": 1}
    if name == "rate-study":
        return "rate-study", {"problem": TS, "epsilon": 1e-5, "grid": 21, "replications": 20,
                              "budgets": [5 * 10 ** 3, 10 ** 4, 10 ** 5, 10 ** 6], "workers": 1}
    if name == "coverage":
        return "coverage-study", {"problem": TS, "epsilon": 1e-5, "budget": 10 ** 5, "grid": 101,
                                  "replications": 40, "workers": nproc()}
    raise KeyError(name)


# BENCHMARK.json lists solve-1d and coverage only: on a 2-vCPU host whose
# speed drifts by +-20 % over tens of seconds, a run needs about a minute
# to keep its median steady, and the time limit for all runs allows that
# for two workloads.  solve-2d and rate-study stay runnable by hand.
WORKLOADS = ("solve-1d", "solve-2d", "rate-study", "coverage")


# ---------------------------------------------------------------------------
# machine record


def blas_record() -> dict:
    import ctypes

    info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({line.split()[-1] for line in fh if "blas" in line.lower() and ".so" in line})
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("openblas_get_num_threads", "scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                threads = fn()
                break
    return {"name": info.get("name"), "version": info.get("version"), "threads": threads}


def machine_record() -> dict:
    cpu = None
    with open("/proc/cpuinfo", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {"nproc": nproc(), "cpu_model": cpu, "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas_record()}


# ---------------------------------------------------------------------------
# operations


def run_op(command, cfg_path, op_dir, traced, env, deadline) -> dict:
    op_dir.mkdir(parents=True)
    argv = [sys.executable, str(HERE / "op.py"), "--command", command,
            "--config", str(cfg_path), "--report", "report.json"] + (["--trace"] if traced else [])
    spawn = time.monotonic()
    rec = {"traced": traced, "dir": op_dir, "failures": []}
    try:
        proc = subprocess.run(argv, cwd=op_dir, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, timeout=max(1.0, deadline - spawn))
    except subprocess.TimeoutExpired:
        rec["failures"].append("operation timed out")
        rec["timed_out"] = True
        return rec
    report_path = op_dir / "report.json"
    if proc.returncode != 0 or not report_path.exists():
        rec["failures"].append(f"op process exited {proc.returncode}: {proc.stderr.decode()[-2000:]}")
        return rec
    rep = json.loads(report_path.read_text())
    rec["report"] = rep
    if rep["error"] or rep["exit_code"] != 0:
        rec["failures"].append(f"fredmc exit {rep['exit_code']}: {rep['error'] or proc.stderr.decode()[-2000:]}")
        return rec
    rec["setup_s"] = rep["setup_end"] - spawn
    rec["wall_s"] = rep["end"] - rep["setup_end"]
    rec["rss_mb"] = rep["maxrss_kb"] / 1024.0
    rec["draws"] = sum(c["n_used"] for c in rep["engine_calls"])
    return rec


# ---------------------------------------------------------------------------
# output checks


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def read_estimate(path, dim):
    rows = read_csv(path)
    t = np.array([[float(r[f"t_{i + 1}"]) for i in range(dim)] for r in rows])
    return t, np.array([float(r["value"]) for r in rows]), [int(r["n_used"]) for r in rows]


def artifact_digest(out: Path) -> dict:
    """sha256 of every artifact but the manifest (which holds the wall time)."""
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.iterdir()) if p.name != "manifest.json"}


class Checker:
    """Independent references for one workload, computed once per run,
    and the per-operation checks.  ``check`` appends failures to the
    operation record and returns the figures it measured."""

    def __init__(self, name, cfg):
        self.name, self.cfg = name, cfg
        self.dim = len(cfg["problem"]["bounds"]) if "bounds" in cfg["problem"] else 1
        if cfg["problem"]["name"] == "gauss-conv":
            self.kernel = ref.gauss_conv(cfg["problem"]["scale"], cfg["problem"]["kappa"])
            self.forcing = lambda x: np.full(x.shape[:-1], cfg["problem"]["forcing"]["value"])
        else:
            self.kernel, self.forcing = ref.ts_kernel, lambda x: x[..., 0]
        self._band_ref = {}

    def hw_reference(self, t, theta, n) -> float:
        """Half-width of the reference gauss-sim band for allocation theta at budget n."""
        key = (tuple(theta), n)
        if key not in self._band_ref:
            z = ref.gauss_field_cov(self.kernel, self.forcing, t, theta, QUAD[self.dim])
            u = ref.sup_quantile(z, self.cfg.get("delta", 0.05), REF_SIMS,
                                 np.random.default_rng(self.cfg["seed"]))
            self._band_ref[key] = (u / math.sqrt(n), z)
        return self._band_ref[key][0]

    def check(self, rec) -> dict:
        fail = rec["failures"].append
        out = rec["dir"] / "out"
        manifest = json.loads((out / "manifest.json").read_text())
        rec["digest"] = artifact_digest(out)
        rec["manifest_wall_s"] = manifest["wall_time_s"]
        rec["artifact_bytes"] = sum(p.stat().st_size for p in out.iterdir())
        calls = rec["report"]["engine_calls"]
        if self.name.startswith("solve"):
            return self._check_solve(rec, out, manifest, calls, fail)
        if self.name == "rate-study":
            return self._check_rates(out, manifest, calls, fail)
        return self._check_coverage(out, manifest, calls, rec["report"]["gauss_bands"], fail)

    def _check_solve(self, rec, out, manifest, calls, fail) -> dict:
        G = self.cfg["grid"] ** self.dim
        t, est, n_used = read_estimate(out / "estimate.csv", self.dim)
        if len(est) != G or not np.all(np.isfinite(est)):
            fail(f"estimate.csv: {len(est)} rows (want {G}) or non-finite values")
            return {}
        if len(calls) != 1 or set(n_used) != {calls[0]["n_used"]}:
            fail("estimate.csv n_used does not match the engine's EstimateTable")
            return {}
        bands = json.loads((out / "band.json").read_text())
        bands = {b["method"]: b for b in (bands if isinstance(bands, list) else [bands])}
        hw = {m: b["half_width"] for m, b in bands.items()}
        if not all(isinstance(v, float) and math.isfinite(v) and v > 0 for v in hw.values()):
            fail(f"band.json half-widths not finite and positive: {hw}")
            return {}
        tail = manifest["summary"]["tail_bound"]
        n_terms = manifest["summary"]["N"]
        y = ref.nystrom_solution(self.kernel, self.forcing, t, QUAD[self.dim])
        y_n = ref.truncated_solution(self.kernel, self.forcing, t, n_terms, QUAD[self.dim])
        sup_err = float(np.max(np.abs(est - y)))
        mc_err = float(np.max(np.abs(est - y_n)))
        hw_ref = self.hw_reference(t, calls[0]["theta"], self.cfg["budget"])
        figures = {"half_width.gauss": hw["gauss-sim"], "half_width.gauss_ref": hw_ref,
                   "sup_error": sup_err, "mc_error": mc_err, "tail_bound": tail,
                   "truncation_error": float(np.max(np.abs(y - y_n)))}
        if not abs(hw["gauss-sim"] / hw_ref - 1.0) <= HW_TOL:
            fail(f"gauss-sim half-width {hw['gauss-sim']:.6g} not within {HW_TOL:.0%} "
                 f"of the reference band {hw_ref:.6g}")
        if not mc_err <= 2.0 * hw["gauss-sim"]:
            fail(f"sup |estimate - y^(N)| = {mc_err:.6g} exceeds twice the gauss-sim half-width")
        if "nonasymptotic-psi" in hw:
            figures["half_width.psi"] = hw["nonasymptotic-psi"]
            if not hw["nonasymptotic-psi"] >= hw["gauss-sim"]:
                fail("nonasymptotic half-width is narrower than the gauss-sim one")
            if not sup_err <= tail + hw["nonasymptotic-psi"]:
                fail(f"sup error {sup_err:.6g} exceeds tail_bound + psi half-width")
        if self.cfg.get("export_covariance"):
            with open(out / "covariance.csv", encoding="utf-8") as fh:
                c = np.loadtxt(fh, delimiter=",", skiprows=1, ndmin=2)
            z = self._band_ref[(tuple(calls[0]["theta"]), self.cfg["budget"])][1]
            rel = float(np.max(np.abs(c - z)) / np.max(np.abs(z))) if c.shape == z.shape else math.inf
            figures["covariance_rel_error"] = rel
            if not (c.shape == (G, G) and np.array_equal(c, c.T) and rel <= HW_TOL):
                fail(f"covariance.csv: shape {c.shape}, symmetric {np.array_equal(c, c.T)}, "
                     f"max error {rel:.3g} relative to the reference covariance")
        return figures

    def _exact(self, engine, t):
        return ref.ts_solution(t, LAM if engine == "geometric" else 1.0)

    def _check_rates(self, out, manifest, calls, fail) -> dict:
        rows = read_csv(out / "rates.csv")
        budgets, reps = self.cfg["budgets"], self.cfg["replications"]
        if len(rows) != 2 * len(budgets) * reps:
            fail(f"rates.csv has {len(rows)} rows, want {2 * len(budgets) * reps}")
            return {}
        t = np.linspace(0.0, 1.0, self.cfg["grid"])[:, None]
        by_key = {(c["engine"], c["n"], c["seed"]): c for c in calls}
        errs = defaultdict(list)
        worst = 0.0
        for r in rows:
            method, n, rep, e = r["method"], int(r["n"]), int(r["replication"]), float(r["sup_error"])
            call = by_key.get((method, n, self.cfg["seed"] + rep))
            if call is None or not (math.isfinite(e) and e > 0):
                fail(f"rates.csv row {r} has no matching engine call or a bad error")
                return {}
            mine = float(np.max(np.abs(np.array(call["values"]) - self._exact(method, t))))
            worst = max(worst, abs(mine - e))
            errs[method, n].append(e)
        # the program's damped reference is a 512-node midpoint quadrature,
        # so allow its O(1e-7) discretization error
        if worst > 1e-5:
            fail(f"rates.csv sup errors differ from the closed-form ones by up to {worst:.3g}")
        slopes = {}
        x = np.stack([np.ones(len(budgets)), np.log(budgets)], axis=1)
        for method in ("solve", "geometric"):
            rmse = [math.sqrt(np.mean(np.square(errs[method, n]))) for n in budgets]
            slopes[method] = float(np.linalg.lstsq(x, np.log(rmse), rcond=None)[0][1])
            if not math.isclose(slopes[method], manifest["summary"]["slopes"][method], abs_tol=1e-9):
                fail(f"manifest slope {method} does not match rates.csv")
        # 20 replications per budget: over 60 seeds at the seed commit the
        # slopes scattered with standard deviation 0.045 around -0.50
        # (solve) and -0.245 (geometric); +-0.2 is more than four of them
        for method, paper in (("solve", -0.5), ("geometric", -0.25)):
            if not abs(slopes[method] - paper) <= 0.2:
                fail(f"{method} slope {slopes[method]:.3f} not within 0.2 of {paper}")
        return {"slope.solve": slopes["solve"], "slope.geometric": slopes["geometric"],
                "closed_form_error_gap": worst}

    def _check_coverage(self, out, manifest, calls, bands, fail) -> dict:
        rows = read_csv(out / "coverage.csv")
        reps = self.cfg["replications"]
        covered = [int(r["covered"]) for r in rows]
        if len(rows) != reps or set(covered) - {0, 1}:
            fail(f"coverage.csv has {len(rows)} rows (want {reps}) or values other than 0/1")
            return {}
        t = np.linspace(0.0, 1.0, self.cfg["grid"])[:, None]
        y = ref.ts_solution(t)
        est = {c["seed"]: c for c in calls}
        hw = {b["seed"]: b["half_width"] for b in bands}
        seeds = [self.cfg["seed"] + r for r in range(reps)]
        if set(est) != set(seeds) or set(hw) != set(seeds):
            fail("coverage replications do not match the engine and band calls")
            return {}
        mine = [int(np.max(np.abs(np.array(est[s]["values"]) - y)) <= hw[s]) for s in seeds]
        rate = float(np.mean(covered))
        hw_med = float(np.median(list(hw.values())))
        hw_ref = self.hw_reference(t, est[seeds[0]]["theta"], self.cfg["budget"])
        if mine != covered:
            fail("coverage.csv disagrees with coverage against the closed form y = 1.5 t")
        if not math.isclose(manifest["summary"]["coverage"], rate, abs_tol=1e-12):
            fail("manifest coverage does not match coverage.csv")
        # 40 replications at 95 %: P(fewer than 32 covered) < 1e-4
        if not rate >= 0.8:
            fail(f"coverage {rate:.3f} implausible for delta = 0.05")
        if not abs(hw_med / hw_ref - 1.0) <= HW_TOL:
            fail(f"median gauss-sim half-width {hw_med:.6g} not within {HW_TOL:.0%} of reference {hw_ref:.6g}")
        return {"coverage": rate, "half_width.gauss": hw_med, "half_width.gauss_ref": hw_ref}


# ---------------------------------------------------------------------------
# counts and spans


def computed_counts(rep) -> dict:
    """Counts that follow from array shapes; they repeat exactly at one seed."""
    solve = [c for c in rep["engine_calls"] if c["engine"] == "solve"]
    tuples = sum(sum(c["counts"]) for c in solve)
    return {
        "estimator.calls": len(rep["engine_calls"]),
        "estimator.draws": sum(c["n_used"] for c in rep["engine_calls"]),
        "estimator.tuples": tuples,
        "estimator.first_factor_evals": sum(c["G"] * sum(c["counts"]) for c in solve),
        "estimator.block_bytes": max([8 * c["G"] * min(16384, k) for c in solve for k in c["counts"]],
                                     default=0),
        "estimator.cov_bytes": max([8 * c["G"] ** 2 * c["N"] for c in solve if c["covariance"]],
                                   default=0),
        "confidence.sim_flops": sum(2 * b["n_sim"] * b["G"] ** 2 for b in rep["gauss_bands"]),
    }


def layer_figures(rec, workers) -> dict:
    """Busy seconds and call counts per span group, after set-up ended."""
    rep = rec["report"]
    spans = [s for s in rep["spans"] if s["start"] >= rep["setup_end"]]
    wall = rep["end"] - rep["setup_end"]
    out = defaultdict(float)
    for s in spans:
        out[f"{s['group']}_s"] += s["end"] - s["start"]
        out[f"{s['group']}.calls"] += 1
    top = sum(s["end"] - s["start"] for s in spans if s["parent"] is None)
    par = {s["id"]: s["end"] - s["start"] for s in spans if s["group"] == "cli.parallel"}
    child = sum(s["end"] - s["start"] for s in spans if s["parent"] in par)
    out["cli.parallel_busy_ratio"] = child / (workers * sum(par.values())) if par else 1.0
    out["trace.unattributed_s"] = wall - top
    out["trace.spans"] = len(rep["spans"])
    out["confidence.v_star_calls"] = rep["v_star_calls"]
    out["cli.artifact_bytes"] = rec["artifact_bytes"]
    return out


# ---------------------------------------------------------------------------
# runs


def tail_percentile(values):
    """(q, value) for the highest percentile with at least ten samples
    beyond it, or None when there are fewer than twenty samples."""
    n = len(values)
    if n < 20:
        return None
    q = math.floor(100.0 * (1.0 - 10.0 / n))
    return q, float(np.percentile(values, q))


def measure(command, cfg_path, run_dir, args, env, deadline) -> list:
    """Start operations one after another while the next one is expected
    to end less than half an operation after --seconds (at least MIN_OPS).
    Traced runs alternate traced and untraced ones."""
    ops = []
    t_measure = time.monotonic()
    while True:
        traced = bool(args.trace) and len(ops) % 2 == 0
        rec = run_op(command, cfg_path, run_dir / f"op{len(ops)}", traced, env, deadline)
        rec["elapsed"] = time.monotonic() - t_measure - sum(r["elapsed"] for r in ops)
        ops.append(rec)
        if rec.get("timed_out"):
            return ops
        now = time.monotonic()
        typical = statistics.median(r["elapsed"] for r in ops)
        if now + typical > deadline or (len(ops) >= MIN_OPS and now - t_measure + typical / 2 > args.seconds):
            return ops


def check_all(ops, checker) -> list:
    """Check every operation's outputs, then that operations at one seed
    agree: artifact bytes, computed counts, call counts of the traced
    operations, and the seed-free psi half-width."""
    figures = []
    for rec in ops:
        if not rec["failures"]:
            try:
                figures.append(checker.check(rec))
            except (OSError, KeyError, ValueError) as exc:  # a missing or malformed artifact
                rec["failures"].append(f"artifacts unreadable: {exc!r}")
            rec["counts"] = computed_counts(rec["report"])
    good = [r for r in ops if not r["failures"]]
    for r in good[1:]:
        if r["digest"] != good[0]["digest"]:
            r["failures"].append("artifacts differ from the first operation's at the same seed")
        if r["counts"] != good[0]["counts"]:
            r["failures"].append(f"computed counts differ between operations: {r['counts']}")
    traced = [r for r in good if r["traced"]]
    calls = [{k: v for k, v in layer_figures(r, 1).items() if k.endswith("calls")} for r in traced]
    for r, c in zip(traced[1:], calls[1:]):
        if c != calls[0]:
            r["failures"].append(f"call counts differ between traced operations: {c} vs {calls[0]}")
    if len({f["half_width.psi"] for f in figures if "half_width.psi" in f}) > 1:
        ops[-1]["failures"].append("half_width.psi differs between operations")
    return figures


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    t_start = time.monotonic()
    deadline = t_start + RUN_LIMIT_S

    src = ROOT / "src"
    if not (src / "fredmc" / "__init__.py").is_file() or not (ROOT / "BENCHMARK.json").is_file():
        print(f"no fredmc source tree under {src}: run from the root of a checkout", file=sys.stderr)
        return 2
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src)] + [x for x in os.environ.get("PYTHONPATH", "").split(os.pathsep) if x]))
    probe = subprocess.run([sys.executable, "-c", "import fredmc.cli; print(fredmc.cli.__file__)"],
                           env=env, capture_output=True, text=True, timeout=60)
    if probe.returncode != 0 or not Path(probe.stdout.strip()).resolve().is_relative_to(src.resolve()):
        print(f"cannot import fredmc from {src}: {probe.stderr[-2000:]}", file=sys.stderr)
        return 2

    spec = load_spec()
    command, cfg = workload_config(args.workload)
    # study replications use config seeds seed, seed + 1, ...: keep the
    # ranges of different benchmark seeds apart
    cfg.update(seed=1000 * args.seed, out_dir="out")
    if cfg["workers"] > nproc():
        print(f"workload config asks for {cfg['workers']} workers on {nproc()} cores", file=sys.stderr)
        return 2
    run_dir = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    cfg_path = run_dir / "config.json"
    cfg_path.write_text(json.dumps(cfg, indent=2) + "\n")
    checker = Checker(args.workload, cfg)

    ops = measure(command, cfg_path, run_dir, args, env, deadline)
    if args.trace and cfg["workers"] > 1:
        # one untraced run of the same config on a single worker: the
        # baseline of cli.parallel_speedup, and its artifacts must match
        serial_path = run_dir / "config-serial.json"
        serial_path.write_text(json.dumps({**cfg, "workers": 1}, indent=2) + "\n")
        if time.monotonic() + statistics.median(r["elapsed"] for r in ops) < deadline:
            ops.append({**run_op(command, serial_path, run_dir / "serial", False, env, deadline),
                        "serial": True})

    figures = check_all(ops, checker)
    failed = sum(1 for r in ops if r["failures"])
    ok = [r for r in ops if not r["failures"]]
    untraced = [r for r in ok if not r["traced"] and not r.get("serial")]
    traced_ops = [r for r in ok if r["traced"]]
    walls = [r["wall_s"] for r in untraced]
    metrics = {}
    if args.trace == 0 and untraced:
        metrics = {
            "setup_s": statistics.median(r["setup_s"] for r in untraced),
            "wall_s": statistics.median(walls),
            "draws_per_s": statistics.median(r["draws"] / r["wall_s"] for r in untraced),
            # the largest, not the median: with two threads an operation's peak
            # lands in one of two modes (about 128 or 135 MB on coverage)
            "peak_rss_mb": max(r["rss_mb"] for r in untraced),
        }
    elif args.trace == 1 and traced_ops and untraced:
        layers = [layer_figures(r, cfg["workers"]) for r in traced_ops]
        metrics = {k: statistics.median(lay.get(k, 0.0) for lay in layers) for k in set().union(*layers)}
        metrics.update(ok[0]["counts"])
        metrics["trace.overhead_s"] = (statistics.median(r["wall_s"] for r in traced_ops)
                                       - statistics.median(walls))
        metrics["trace.timer_gap_s"] = statistics.median(r["wall_s"] - r["manifest_wall_s"] for r in ok)
        serial = [r["wall_s"] for r in ok if r.get("serial")]
        metrics["cli.parallel_speedup"] = serial[0] / statistics.median(walls) if serial else 1.0
    wanted = spec["end_to_end"] if args.trace == 0 else spec["per_layer"]
    # nothing succeeded: report the failure, not made-up zeros
    result_metrics = {m["name"]: {"value": float(metrics.get(m["name"], 0.0)), "unit": m["unit"]}
                      for m in wanted} if metrics else {}

    quality = defaultdict(list)
    for f in figures:
        for k, v in f.items():
            quality[k].append(v)
    report = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "command": command, "config": cfg, "machine": machine_record(),
        "operations": len(ops), "failed": failed, "error_rate": failed / len(ops),
        "wall_s": {"samples": len(walls), "median": statistics.median(walls) if walls else None,
                   "tail_percentile": tail_percentile(walls), "values": walls},
        "timer_gap_s": [r["wall_s"] - r["manifest_wall_s"] for r in ok],
        "figures": {k: statistics.median(v) for k, v in quality.items()},
        "failures": [f for r in ops for f in r["failures"]],
        "unwrapped": sorted({n for r in ok for n in r["report"]["unwrapped"]}),
        "run_s": time.monotonic() - t_start,
    }
    if args.trace == 1:
        spans = [{"op": i, **s} for i, r in enumerate(ops) if r["traced"] and "report" in r
                 for s in r["report"]["spans"]]
        (WORK / f"trace-{args.workload}-seed{args.seed}.json").write_text(
            json.dumps({"report": report, "spans": spans}) + "\n")
    shutil.rmtree(run_dir, ignore_errors=True)
    print(json.dumps(report))
    print(json.dumps({"correct": failed == 0 and bool(result_metrics), "attempted": len(ops),
                      "failed": failed, "metrics": result_metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
