"""Acceptance gate: one test per release criterion, each printing a
pass/fail line with its measured numbers (run with -s to see them all)."""

import json
import math
import time

import numpy as np
import pytest

import fredmc as fm
from fredmc.cli import main, run, validate_and_echo
from fredmc.confidence import PsiFunction, solution_psi
from fredmc.problem import PowerNormTable

TS_PROBLEM = {"name": "separable-poly", "a": [0.0, 1.0], "b": [0.0, 1.0],
              "forcing": {"kind": "poly", "coeffs": [0.0, 1.0]}}


def _report(num, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


# 1 ------------------------------------------------------------------------


def test_criterion_1_oracle_equivalence(const_spec, const_pnt, ts_spec, ts_pnt):
    t0 = time.monotonic()
    grid = np.linspace(0, 1, 101)
    errs = {}
    for name, spec, pnt, y in (("const", const_spec, const_pnt, np.full(101, 2.0)),
                               ("ts", ts_spec, ts_pnt, 1.5 * grid)):
        plan = fm.choose_truncation(pnt, spec.f_norm, 0.01)
        errs[name] = float(np.max(np.abs(fm.truncated_solution_oracle(spec, plan, grid) - y)))
    dt = time.monotonic() - t0
    ok = errs["const"] <= 0.011 and errs["ts"] <= 0.011 and dt < 1.0
    _report(1, ok, f"oracle sup-errors const={errs['const']:.5f} ts={errs['ts']:.5f} "
                   f"(<=0.011) in {dt:.2f}s")


# 2 ------------------------------------------------------------------------


def test_criterion_2_allocation_optimality():
    # KNOWN RED (documented in the project notes): the stated bracket
    # R_half * R_minus_half / n lies strictly below the attainable
    # constrained minimum of sum r_m/n(m) under sum m*n(m) = n, which is
    # R_half^2 / n exactly (Cauchy-Schwarz equality at the allocation
    # this package and the worked examples use).  The check is kept as
    # stated rather than weakened; the sharp attainable bound is asserted
    # separately in test_allocation.py.
    t0 = time.monotonic()
    N, n = 5, 10 ** 5
    r_u = np.array([(1 / 3) * (1 / 5) ** (m - 1) for m in range(1, N + 1)])
    pnt = PowerNormTable(m_max=N, r_S=np.sqrt(r_u), r_U=r_u, estimation_method="analytic")
    alloc = fm.optimal_allocation(pnt, N, n)
    bound = alloc.R_half * alloc.R_minus_half / n * (1 + 1e-2)
    sharp = alloc.R_half ** 2 / n
    uniform_counts = np.full(N, n // (N * (N + 1) // 2))
    phi_uniform = float(np.sum(r_u / uniform_counts))
    dt = time.monotonic() - t0
    ok = alloc.phi_predicted <= bound and alloc.phi_predicted <= phi_uniform and dt < 1.0
    _report(2, ok, f"phi_opt={alloc.phi_predicted:.4e} <= stated bound={bound:.4e} "
                   f"(attainable minimum is R_half^2/n={sharp:.4e}) "
                   f"and <= phi_uniform={phi_uniform:.4e} in {dt:.2f}s")


# 3 & 4 --------------------------------------------------------------------


@pytest.fixture(scope="module")
def rate_study(tmp_path_factory):
    out = tmp_path_factory.mktemp("rates")
    cfg = validate_and_echo({
        "problem": TS_PROBLEM, "mode": "rate-study", "epsilon": 1e-5,
        "grid": 21, "seed": 7, "replications": 50,
        "budgets": [1000, 10_000, 100_000, 1_000_000],
        "out_dir": str(out), "workers": 4,
    }, echo=False)
    t0 = time.monotonic()
    assert run(cfg) == 0
    dt = time.monotonic() - t0
    manifest = json.loads((out / "manifest.json").read_text())
    return manifest["summary"]["slopes"], dt


def test_criterion_3_monte_carlo_rate(rate_study):
    slopes, dt = rate_study
    ok = abs(slopes["solve"] + 0.5) <= 0.07 and dt < 300
    _report(3, ok, f"solve RMSE slope {slopes['solve']:.3f} in -0.5+-0.07, study took {dt:.0f}s")


def test_criterion_4_geometric_rate(rate_study):
    slopes, dt = rate_study
    sep = slopes["geometric"] - slopes["solve"]
    ok = abs(slopes["geometric"] + 0.25) <= 0.10 and sep >= 0.1 and dt < 300
    _report(4, ok, f"geometric slope {slopes['geometric']:.3f} in -0.25+-0.10, "
                   f"separation {sep:.2f} >= 0.1")


# 5 ------------------------------------------------------------------------


def test_criterion_5_uniform_band_coverage(tmp_path):
    cfg = validate_and_echo({
        "problem": TS_PROBLEM, "mode": "coverage-study", "epsilon": 1e-4,
        "budget": 10 ** 5, "delta": 0.05, "grid": 51, "seed": 11,
        "replications": 500, "n_sim": 10_000,
        "out_dir": str(tmp_path), "workers": 4,
    }, echo=False)
    t0 = time.monotonic()
    assert run(cfg) == 0
    dt = time.monotonic() - t0
    coverage = json.loads((tmp_path / "manifest.json").read_text())["summary"]["coverage"]
    ok = 0.93 <= coverage <= 0.99 and dt < 900
    _report(5, ok, f"uniform coverage {coverage:.3f} in [0.93, 0.99] over 500 runs ({dt:.0f}s)")


# 6 ------------------------------------------------------------------------


def test_criterion_6_covariance_correctness(ts_spec, ts_pnt):
    t0 = time.monotonic()
    # independent moment oracle first: Var(xi^2) = E xi^4 - (E xi^2)^2
    xs = (np.arange(200_000) + 0.5) / 200_000
    var_sq = float(np.mean(xs ** 4) - np.mean(xs ** 2) ** 2)
    m4 = float(np.mean((xs ** 2 - np.mean(xs ** 2)) ** 4))
    grid = np.array([0.5, 1.0])
    alloc = fm.optimal_allocation(ts_pnt, 1, 10 ** 6)
    plan = fm.TruncationPlan(0.4, 1, 0.0, "fit-based")
    est = fm.solve_fredholm_mc(ts_spec, plan, alloc, grid, seed=6, collect_covariance=True)
    cov = fm.estimate_covariance(ts_spec, alloc, grid, est.moments)
    n = alloc.counts[0]
    worst = 0.0
    ok = True
    for i, t in enumerate(grid):
        for j, s in enumerate(grid):
            target = t * s * var_sq
            se = math.sqrt((t * t * s * s * m4 - target ** 2) / n)
            dev = abs(cov.Z_hat[i, j] - target) / se
            worst = max(worst, dev)
            ok = ok and dev <= 3.0
    dt = time.monotonic() - t0
    ok = ok and dt < 60
    _report(6, ok, f"plug-in Z_hat matches 4ts/45 within {worst:.2f} SE (<=3) at 1e6 draws ({dt:.0f}s)")


# 7 ------------------------------------------------------------------------


def test_criterion_7_nonasymptotic_dominance(const_spec, const_pnt, ts_spec, ts_pnt,
                                             gauss_spec, gauss_pnt):
    t0 = time.monotonic()
    n = 10_000
    ratios = []
    ok = True
    for name, spec, pnt in (("constant", const_spec, const_pnt),
                            ("separable-poly", ts_spec, ts_pnt),
                            ("gauss-conv", gauss_spec, gauss_pnt)):
        plan = fm.choose_truncation(pnt, spec.f_norm, 0.01)
        alloc = fm.optimal_allocation(pnt, plan.N, n)
        grid = spec.domain.grid(41)
        est = fm.solve_fredholm_mc(spec, plan, alloc, grid, seed=1, collect_covariance=True)
        cov = fm.estimate_covariance(spec, alloc, grid, est.moments)
        psi, sigma = solution_psi(spec, alloc)
        for delta in (0.01, 0.05):
            g = fm.simulate_sup_quantile(cov, delta, 20_000, seed=2, n=n)
            na = fm.nonasymptotic_band(psi, spec.domain, spec.metric, sigma, delta, n)
            ok = ok and na.half_width >= g.half_width
            ratios.append(f"{name}@{delta}:{na.half_width / g.half_width:.0f}x"
                          if g.half_width > 0 else f"{name}@{delta}:inf")
    dt = time.monotonic() - t0
    ok = ok and dt < 60
    _report(7, ok, f"nonasymptotic >= gauss-sim on all fixtures ({', '.join(ratios)}) ({dt:.0f}s)")


# 8 ------------------------------------------------------------------------


def test_criterion_8_derivative_estimator(ts_spec, ts_pnt):
    t0 = time.monotonic()
    eps = 0.01
    plan = fm.choose_truncation(ts_pnt, 1.0, eps)
    # deterministic bias oracle: the estimator mean is f' + sum_j V[S^(j-1) f]
    # with V[g] = int s g(s) ds; iterate S by midpoint quadrature
    nodes = (np.arange(4096) + 0.5) / 4096
    g = nodes.copy()  # f on the nodes
    mean_val = 1.0  # f' = 1
    for _ in range(plan.N + 1):
        mean_val += float(np.mean(nodes * g))          # V applied to S^(j-1) f
        g = nodes * float(np.mean(nodes * g))          # next power: S g = t int s g
    bias = abs(mean_val - 1.5)  # Y is identically 1.5 for this fixture
    bias_ok = bias <= 0.5 * eps

    plan_r = fm.choose_truncation(ts_pnt, 1.0, 1e-5)
    grid = np.linspace(0, 1, 21)
    ns = [1000, 10_000, 100_000, 1_000_000]
    rmse = []
    for n in ns:
        alloc = fm.optimal_allocation(ts_pnt, plan_r.N, n)
        errs = [np.max(np.abs(fm.derivative_solve(ts_spec, plan_r, alloc, grid,
                                                  seed=100 + r).values - 1.5))
                for r in range(30)]
        rmse.append(math.sqrt(float(np.mean(np.square(errs)))))
    X = np.stack([np.ones(4), np.log(ns)], axis=1)
    slope = float(np.linalg.lstsq(X, np.log(rmse), rcond=None)[0][1])
    dt = time.monotonic() - t0
    ok = bias_ok and abs(slope + 0.5) <= 0.07 and dt < 300
    _report(8, ok, f"derivative bias {bias:.5f} <= {0.5 * eps:.4f}, RMSE slope {slope:.3f} "
                   f"in -0.5+-0.07 ({dt:.0f}s)")


# 9 ------------------------------------------------------------------------


def test_criterion_9_determinism(tmp_path):
    t0 = time.monotonic()
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "problem": TS_PROBLEM, "epsilon": 0.01, "budget": 20_000,
        "grid": 51, "seed": 42, "out_dir": str(tmp_path / "w1"),
    }))
    assert main(["solve", "--config", str(cfg_path), "--workers", "1"]) == 0
    assert main(["solve", "--config", str(cfg_path), "--workers", "4",
                 "--out", str(tmp_path / "w4")]) == 0
    a = (tmp_path / "w1" / "estimate.csv").read_bytes()
    b = (tmp_path / "w4" / "estimate.csv").read_bytes()
    dt = time.monotonic() - t0
    _report(9, a == b, f"estimate.csv byte-identical for equal seed, 1 vs 4 workers ({dt:.1f}s)")


# 10 -----------------------------------------------------------------------


def test_criterion_10_analytic_transforms():
    t0 = time.monotonic()
    tab = np.geomspace(1.0, 1e6, 200)
    psi = PsiFunction(p=tab, values=np.sqrt(tab), kind="analytic", support=(1.0, np.inf))
    worst = 0.0
    for x in np.linspace(0.05, 4.0, 20):
        exact = x if x <= 0.5 else 0.5 + 0.5 * math.log(2 * x)
        worst = max(worst, abs(fm.v_star(psi, float(x)) - exact))
    unit = fm.DomainSpec(1, ((0.0, 1.0),))
    square = fm.DomainSpec(2, ((0.0, 1.0), (0.0, 1.0)), grid_points_per_dim=11)
    euclid = fm.Metric("holder", 1.0, 1.0)
    entropy_ok = (abs(fm.entropy_H(unit, euclid, 0.25) - math.log(2)) <= 1e-12
                  and fm.entropy_H(unit, euclid, 0.5) == 0.0
                  and abs(fm.entropy_H(square, euclid, 0.25) - 2 * math.log(2)) <= 1e-12)
    dt = time.monotonic() - t0
    ok = worst <= 1e-6 and entropy_ok and dt < 60
    _report(10, ok, f"v* max error {worst:.2e} <= 1e-6 at 20 points; covering entropies exact ({dt:.1f}s)")
