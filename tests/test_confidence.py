import dataclasses
import math
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fredmc as fm
import fredmc.confidence as confidence
from fredmc.confidence import (C0_BAR, SIM_BATCH, SIM_TILE, PsiFunction, _eigen_factor,
                               empirical_quantile, integral_psi, psi_bar, solution_psi)
from fredmc.estimator import CovarianceModel
from fredmc.problem import DomainSpec, Metric
from fredmc.rng import TAG_GAUSS_SIM, substream


def _sqrt_psi(p_max=1e6):
    tab = np.geomspace(1.0, p_max, 200)
    return PsiFunction(p=tab, values=np.sqrt(tab), kind="analytic", support=(1.0, np.inf))


# ---------------------------------------------------------------------------
# moment profiles


def test_natural_psi_constant_envelope(const_spec):
    psi = fm.natural_psi_from_R(const_spec)
    assert np.allclose(psi.values, 0.5, rtol=1e-12)


def test_natural_psi_linear_envelope(ts_spec):
    # R(x) = x on [0,1]: (int x^p)^{1/p} = (p+1)^{-1/p}, at every p of the fixed grid
    psi = fm.natural_psi_from_R(ts_spec)
    ps = confidence.P_GRID
    assert psi.support == (2.0, 512.0)
    assert np.array_equal(psi.p, ps)
    assert np.allclose(psi.values, (ps + 1) ** (-1 / ps), rtol=1e-4)


@pytest.mark.parametrize("bounds", [[[0, 1]], [[0, 1], [0, 1]]], ids=["1d", "2d"])
def test_natural_psi_in_row_blocks_keeps_the_bits_of_one_table(bounds, monkeypatch):
    # the profile is formed a few p rows at a time; each row is the one-shot table's
    spec = fm.build_problem("gauss-conv", {"scale": 0.4, "kappa": 2.0, "bounds": bounds})
    p_grid = confidence.P_GRID
    nodes, _ = spec.mu.quad_nodes(spec.domain, 2048 if spec.domain.dim == 1 else 64)
    R = np.abs(np.asarray(spec.envelope_R(nodes), dtype=float))
    rmax = float(R.max())
    ref = rmax * np.mean((R / rmax)[None, :] ** p_grid[:, None], axis=1) ** (1.0 / p_grid)
    assert len(p_grid) % confidence._PSI_ROWS == 0 and len(p_grid) > confidence._PSI_ROWS
    assert np.array_equal(fm.natural_psi_from_R(spec).values, ref)
    monkeypatch.setattr(confidence, "_PSI_ROWS", 11)  # a last block shorter than the others
    assert len(p_grid) % confidence._PSI_ROWS != 0
    assert np.array_equal(fm.natural_psi_from_R(spec).values, ref)


_ENVELOPES = {  # R(x) on [0, 1] up to its scale, with a shape parameter a in [0.05, 1]
    "constant": lambda x, a: np.ones(len(x)),
    "polynomial": lambda x, a: np.abs(x[:, 0]) ** (8.0 * a),
    "gaussian-spike": lambda x, a: np.exp(-((x[:, 0] - a) / 1e-2) ** 2),
    "near-constant": lambda x, a: 1.0 + 1e-9 * a * x[:, 0],
    "step": lambda x, a: np.where(x[:, 0] < a, 1.0, 1e-3),
}


@settings(derandomize=True, max_examples=150, deadline=None)
@given(kind=st.sampled_from(sorted(_ENVELOPES)), a=st.floats(0.05, 1.0),
       log_scale=st.floats(-6.0, 6.0),
       theta=st.lists(st.floats(0.01, 1.0), min_size=1, max_size=12))
def test_solution_profile_is_admissible_on_random_envelopes(ts_spec, ts_pnt, kind, a, log_scale,
                                                            theta):
    # p log psi_sol is the perspective p phi(u / p) of the convex, nondecreasing
    # phi(u) = log sum_m c_m e^(m u) at the convex u = p log psi_R: the sum is admissible
    scale = 10.0 ** log_scale
    spec = dataclasses.replace(ts_spec, envelope_R=lambda x: scale * _ENVELOPES[kind](x, a))
    theta = np.array(theta) / np.sum(theta)
    alloc = dataclasses.replace(fm.optimal_allocation(ts_pnt, 3, 1000), N=len(theta), theta=theta)
    psi, sigma = solution_psi(spec, alloc)
    assert psi.kind == "solution-profile" and sigma == 1.0
    w = psi.p * np.log(psi.values)
    assert np.all(np.diff(np.diff(w) / np.diff(psi.p)) >= -1e-11)


def test_psi_requires_convex_w():
    p = np.array([2.0, 4.0, 8.0])
    with pytest.raises(ValueError, match="not convex"):
        # w(p) = p log psi: strongly concave tabulation
        PsiFunction(p=p, values=np.array([1.0, 100.0, 1.01]), kind="analytic", support=(2.0, 8.0))


def test_psi_bar_scaling():
    psi = _sqrt_psi(512)
    bar = psi_bar(psi)
    # exact at tabulation nodes; off-node values are log-log interpolated
    assert np.allclose(bar.values, bar.p * np.sqrt(bar.p) / (C0_BAR * np.log(bar.p)), rtol=1e-9)
    p = np.array([4.0, 64.0])
    assert np.allclose(bar(p), p * np.sqrt(p) / (C0_BAR * np.log(p)), rtol=1e-3)
    assert bar.p[0] >= np.e


def test_psi_bar_needs_room():
    tab = np.geomspace(1.0, 2.0, 16)
    psi = PsiFunction(p=tab, values=np.ones(16), kind="analytic", support=(1.0, 2.0))
    with pytest.raises(ValueError, match="support"):
        psi_bar(psi)


# ---------------------------------------------------------------------------
# infimal transform


def test_v_star_closed_form_sqrt():
    # for psi = sqrt(p): v*(x) = x when x <= 1/2, else 1/2 + log(2x)/2
    psi = _sqrt_psi()
    for x in np.linspace(0.05, 4.0, 20):
        exact = x if x <= 0.5 else 0.5 + 0.5 * math.log(2 * x)
        assert abs(fm.v_star(psi, float(x)) - exact) <= 1e-6


def test_v_star_constant_profile():
    tab = np.geomspace(1.0, 1e6, 128)
    psi = PsiFunction(p=tab, values=np.ones(128), kind="analytic", support=(1.0, np.inf))
    assert fm.v_star(psi, 3.0) == pytest.approx(0.0, abs=1e-4)


def test_v_star_at_zero_matches_grid_search():
    psi = _sqrt_psi(1e4)
    ys = np.geomspace(1e-4, 1.0, 20_000)
    oracle = float(np.min(np.log(psi(1.0 / ys))))
    assert fm.v_star(psi, 0.0) == pytest.approx(oracle, abs=1e-6)


def test_v_star_is_lower_envelope():
    psi = _sqrt_psi(1e4)
    rng = np.random.default_rng(17)
    for _ in range(100):
        x = float(rng.uniform(0, 5))
        y = float(rng.uniform(1e-4, 1.0))
        assert fm.v_star(psi, x) <= x * y + math.log(float(psi(np.array([1.0 / y]))[0])) + 1e-9


def test_v_star_is_exact_on_solution_profile(ts_spec, ts_pnt):
    # the ts solution profile's objective has an interior minimum near
    # x = 34.085; knots join the dense grid so kinked minima are on it
    psi, _ = solution_psi(ts_spec, fm.optimal_allocation(ts_pnt, 4, 10 ** 6))
    psib = psi_bar(psi)
    ys = np.union1d(np.geomspace(1.0 / psib.p_max, 1.0 / psib.p[0], 2_000_000), 1.0 / psib.p)
    log_psi = np.log(psib(1.0 / ys))
    xs = np.array([0.0, 0.5, 2.0, 10.0, 34.085, 100.0, 1000.0])
    for x in xs:
        v = fm.v_star(psib, float(x))
        grid_min = float(np.min(x * ys + log_psi))
        assert v <= grid_min + 1e-11
        assert abs(v - grid_min) <= 1e-11
    assert np.array_equal(fm.v_star(psib, xs), [fm.v_star(psib, float(x)) for x in xs])


def test_v_star_rejects_negative():
    with pytest.raises(ValueError):
        fm.v_star(_sqrt_psi(), -1.0)


def test_v_star_rejects_nan():
    with pytest.raises(ValueError, match="x must be >= 0"):
        fm.v_star(_sqrt_psi(), math.nan)
    with pytest.raises(ValueError, match="x must be >= 0"):
        fm.v_star(_sqrt_psi(), np.array([1.0, math.nan, 2.0]))


_CHUNK = confidence._V_STAR_CHUNK


@pytest.mark.parametrize("shape", [(0,), (1,), (_CHUNK - 1,), (_CHUNK,), (_CHUNK + 1,), (2600,),
                                   (3, _CHUNK // 2 + 5)])
def test_v_star_in_chunks_keeps_the_bits_of_scalar_calls(ts_spec, ts_pnt, shape):
    # arrays that cross chunk edges: each x keeps the bits of its own call, x its shape
    psib = psi_bar(solution_psi(ts_spec, fm.optimal_allocation(ts_pnt, 4, 10 ** 6))[0])
    x = np.random.default_rng(21).uniform(0.0, 60.0, shape)
    x.flat[::7] = 0.0
    v = fm.v_star(psib, x)
    assert v.shape == x.shape
    ref = np.array([fm.v_star(psib, float(e)) for e in x.ravel()]).reshape(shape)
    assert v.tobytes() == ref.tobytes()


# ---------------------------------------------------------------------------
# entropy


def test_entropy_covering_examples():
    unit = DomainSpec(1, ((0.0, 1.0),))
    square = DomainSpec(2, ((0.0, 1.0), (0.0, 1.0)), grid_points_per_dim=11)
    euclid = Metric("holder", 1.0, 1.0)
    assert fm.entropy_H(unit, euclid, 0.25) == pytest.approx(math.log(2), abs=1e-12)
    assert fm.entropy_H(unit, euclid, 0.5) == 0.0
    assert fm.entropy_H(square, euclid, 0.25) == pytest.approx(2 * math.log(2), abs=1e-12)


def test_entropy_monotone_in_eps():
    unit = DomainSpec(1, ((0.0, 1.0),))
    m = Metric("holder", 0.7, 1.3)
    hs = [fm.entropy_H(unit, m, e) for e in np.geomspace(1e-6, 2.0, 50)]
    assert all(b <= a + 1e-12 for a, b in zip(hs, hs[1:]))


def test_entropy_log_power_metric():
    unit = DomainSpec(1, ((0.0, 1.0),))
    m = Metric("log-power", 1.0, 1.0)
    assert fm.entropy_H(unit, m, 1.5) == 0.0  # eps above the metric's range
    h = fm.entropy_H(unit, m, 0.1)
    # r = exp(-10): count = ceil(e^10 / 2)
    assert h == pytest.approx(math.log(math.ceil(math.exp(10) / 2)), rel=1e-9)


def _entropy_per_axis(domain, metric, eps):
    # scalar reference: per-axis covering count ceil(L / (2 r)) at ball radius r
    if metric.kind == "holder":
        if metric.scale == 0.0:
            return 0.0
        log_r = math.log(eps / metric.scale) / metric.exponent
    else:
        if eps >= metric.scale:
            return 0.0
        log_r = -((metric.scale / eps) ** (1.0 / metric.exponent))
    h = 0.0
    for length in domain.lengths:
        log_ratio = math.log(length / 2.0) - log_r
        if log_ratio > 40.0:
            h += log_ratio
        elif log_ratio > -700.0 and math.exp(log_ratio) > 1.0:
            h += math.log(math.ceil(math.exp(log_ratio) - 1e-12))
    return h


def test_entropy_array_matches_scalar_reference():
    unit = DomainSpec(1, ((0.0, 1.0),))
    box = DomainSpec(2, ((0.0, 1.0), (-1.0, 2.0)), grid_points_per_dim=11)
    ks = np.arange(1, 65)
    cases = [(unit, Metric("holder", 1.0, 1.0), np.concatenate([1.0 / (2 * ks), np.geomspace(1e-9, 3.0, 200)])),
             (box, Metric("holder", 1.0, 1.0), np.concatenate([1.0 / (2 * ks), 3.0 / (2 * ks)])),
             (box, Metric("holder", 0.7, 1.3), np.geomspace(1e-9, 3.0, 200)),
             (unit, Metric("holder", 1.0, 0.0), np.geomspace(1e-3, 3.0, 20)),
             (unit, Metric("log-power", 1.0, 1.0), np.geomspace(0.02, 4.0, 200)),
             (box, Metric("log-power", 0.5, 2.0), np.concatenate([np.geomspace(1e-3, 2.0, 200), [0.5]]))]
    for domain, metric, eps in cases:
        h = fm.entropy_H(domain, metric, eps)
        assert h.shape == eps.shape
        ref = np.array([_entropy_per_axis(domain, metric, float(e)) for e in eps])
        assert np.array_equal(h, ref)
        assert isinstance(fm.entropy_H(domain, metric, float(eps[0])), float)


@pytest.mark.parametrize("metric", [Metric("holder", 1.0, 1.0), Metric("holder", 0.7, 1.3),
                                    Metric("log-power", 1.0, 1.0), Metric("log-power", 0.5, 2.0)])
def test_entropy_at_the_metric_radius_counts_the_boxes(metric):
    # H(at_radius(r)) = sum over axes of log ceil(L / (2 r)): at the counts'
    # breakpoints r = L / (2 k) and between them
    box = DomainSpec(2, ((0.0, 1.0), (-1.0, 2.0)), grid_points_per_dim=11)
    ks = np.arange(1, 65)
    rs = np.concatenate([1.0 / (2 * ks), 3.0 / (2 * ks), np.geomspace(1e-6, 0.3, 50)])
    if metric.kind == "log-power":  # the map is flat at scale from r = 1/e on
        rs = rs[rs < 0.3]
    counts = np.ceil(box.lengths / (2.0 * rs[:, None]) - 1e-9)
    h = fm.entropy_H(box, metric, metric.at_radius(rs))
    assert np.allclose(h, np.log(counts).sum(axis=1), rtol=1e-12, atol=0)


def test_entropy_rejects_nan():
    unit = DomainSpec(1, ((0.0, 1.0),))
    with pytest.raises(ValueError, match="eps must be positive"):
        fm.entropy_H(unit, Metric("holder", 1.0, 1.0), math.nan)
    with pytest.raises(ValueError, match="eps must be positive"):
        fm.entropy_H(unit, Metric("log-power", 1.0, 1.0), np.array([0.1, math.nan]))


def test_entropy_rejects_custom_metric():
    unit = DomainSpec(1, ((0.0, 1.0),))
    with pytest.raises(ValueError, match="custom-table"):
        fm.entropy_H(unit, Metric("custom-table"), 0.1)


# ---------------------------------------------------------------------------
# gauss-sim band


def _scalar_cov(sigma2):
    return CovarianceModel(t_grid=np.array([[0.5]]), Z_hat=np.array([[sigma2]]),
                           sigma_plus_sq=sigma2)


def test_sup_quantile_zero_field():
    band = fm.simulate_sup_quantile(_scalar_cov(0.0), 0.01, 20_000, seed=0, n=100)
    assert band.u_delta == 0.0
    assert band.half_width == 0.0


def test_sup_quantile_scalar_gaussian():
    # two-sided scalar quantile: sigma * z_{0.975}; the closed form is
    # cross-checked against the erf-inverse route to 1e-3 first
    z = NormalDist().inv_cdf(0.975)
    assert abs(z - 1.959964) <= 1e-3
    sigma = 0.8
    band = fm.simulate_sup_quantile(_scalar_cov(sigma ** 2), 0.05, 400_000, seed=12, n=None)
    assert band.u_delta == pytest.approx(sigma * z, rel=0.02)
    assert band.half_width is None


def test_sup_quantile_fixture_self_consistency():
    # covariance 4ts/45 on {0.5, 1.0}: compare a 2e4-path quantile against
    # a 1e6-path run of the same simulator
    grid = np.array([[0.5], [1.0]])
    Z = np.array([[4 * 0.25 / 45, 4 * 0.5 / 45], [4 * 0.5 / 45, 4 / 45]])
    cov = CovarianceModel(t_grid=grid, Z_hat=Z, sigma_plus_sq=4 / 45)
    u_small = fm.simulate_sup_quantile(cov, 0.05, 20_000, seed=1).u_delta
    u_big = fm.simulate_sup_quantile(cov, 0.05, 1_000_000, seed=2).u_delta
    assert abs(u_small - u_big) <= 0.03 * u_big


def test_sup_quantile_monotone_in_delta(ts_spec, ts_pnt):
    alloc = fm.optimal_allocation(ts_pnt, 3, 20_000)
    plan = fm.TruncationPlan(0.05, 3, 0.0, "fit-based")
    grid = np.linspace(0, 1, 21)
    est = fm.solve_fredholm_mc(ts_spec, plan, alloc, grid, seed=0, collect_covariance=True)
    cov = fm.estimate_covariance(ts_spec, alloc, grid, est.moments)
    us = [fm.simulate_sup_quantile(cov, d, 20_000, seed=3).u_delta for d in (0.01, 0.05, 0.1)]
    assert us[0] >= us[1] >= us[2]


def test_sup_quantile_nsim_precondition():
    with pytest.raises(ValueError, match="n_sim"):
        fm.simulate_sup_quantile(_scalar_cov(1.0), 0.05, 5000, seed=0)
    with pytest.raises(ValueError, match="n_sim must be >= 1"):
        fm.simulate_sup_quantile(_scalar_cov(1.0), 0.1, 0, seed=0)


def test_band_width_scales_exactly_as_inverse_sqrt_n():
    cov = _scalar_cov(1.0)
    b1 = fm.simulate_sup_quantile(cov, 0.05, 20_000, seed=4, n=100)
    b2 = fm.simulate_sup_quantile(cov, 0.05, 20_000, seed=4, n=10_000)
    assert b1.half_width == pytest.approx(10 * b2.half_width, rel=1e-12)


def test_not_psd_raises():
    grid = np.array([[0.0], [1.0]])
    Z = np.array([[1.0, 2.0], [2.0, 1.0]])  # indefinite
    cov = CovarianceModel(t_grid=grid, Z_hat=Z, sigma_plus_sq=1.0)
    with pytest.raises(fm.NotPSD):
        fm.simulate_sup_quantile(cov, 0.1, 1000, seed=0)


def test_rank_one_covariance_simulates_one_normal_per_path():
    # Z = 4ts/45 on 101 points: X(t) = sigma(t) e, so sup |X| = sigma_max |e|
    # and its (1 - delta) quantile is sigma_max * z_{1 - delta/2}
    grid = np.linspace(0.0, 1.0, 101)[:, None]
    Z = 4 * np.outer(grid[:, 0], grid[:, 0]) / 45
    cov = CovarianceModel(t_grid=grid, Z_hat=Z, sigma_plus_sq=4 / 45)
    band = fm.simulate_sup_quantile(cov, 0.05, 400_000, seed=9)
    assert band.q == 1
    assert 0.0 <= band.dropped_trace <= 1e-12
    assert band.u_delta == pytest.approx(math.sqrt(4 / 45) * NormalDist().inv_cdf(0.975), rel=0.02)


@pytest.mark.parametrize("G", [2, 101, 257])
def test_rank_one_sups_equal_the_grid_maximum_bitwise(G):
    # X(t) = z F(t): |z| max|F| must be the bits of max_t |z F(t)| computed
    # from the eigen-factor and the same per-batch normals
    rng = np.random.default_rng(G)
    n_sim, seed = 2 * SIM_BATCH + 17, 40 + G
    for scale in (1e-8, 1e-3, 1.0, 1e3):
        f = rng.standard_normal(G) * math.sqrt(scale)  # mixed signs
        cov = CovarianceModel(t_grid=np.linspace(0, 1, G)[:, None], Z_hat=np.outer(f, f),
                              sigma_plus_sq=float(np.max(f * f)))
        band, sims = fm.simulate_sup_quantile(cov, 0.1, n_sim, seed, return_sims=True)
        F, _ = _eigen_factor(cov.Z_hat)
        z = np.concatenate([substream(seed, TAG_GAUSS_SIM, b).standard_normal(
            (min(SIM_BATCH, n_sim - b * SIM_BATCH), 1)) for b in range(3)])
        assert band.q == F.shape[1] == 1
        assert np.array_equal(sims, np.max(np.abs(z @ F.T), axis=1))


def test_rank_one_simulation_holds_no_batch_of_paths():
    # a q = 1 batch is 4096 normals: the traced peak stays below one
    # 4096 x G batch of paths, 32 MB at G = 1001
    G = 1001
    grid = np.linspace(0.0, 1.0, G)[:, None]
    cov = CovarianceModel(t_grid=grid, Z_hat=4 * np.outer(grid[:, 0], grid[:, 0]) / 45,
                          sigma_plus_sq=4 / 45)
    tracemalloc.start()
    try:
        band = fm.simulate_sup_quantile(cov, 0.05, 10_000, seed=2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert band.q == 1
    assert peak < SIM_BATCH * G * 8


@pytest.fixture(scope="module")
def gauss_cov(gauss_spec, gauss_pnt):
    """gauss-conv plug-in covariance on 101 points."""
    alloc = fm.optimal_allocation(gauss_pnt, 4, 20_000)
    grid = np.linspace(0, 1, 101)
    est = fm.solve_fredholm_mc(gauss_spec, fm.TruncationPlan(0.05, 4, 0.0, "fit-based"), alloc,
                               grid, seed=0, collect_covariance=True)
    return fm.estimate_covariance(gauss_spec, alloc, grid, est.moments)


def test_gauss_conv_covariance_factor(gauss_cov):
    trace = float(np.trace(gauss_cov.Z_hat))
    F, dropped = _eigen_factor(gauss_cov.S, gauss_cov.A)
    assert F.shape[0] == 101 and 1 <= F.shape[1] <= 8
    assert 0.0 <= dropped <= 2e-12  # cut tail <= 1e-12, plus clipped rounding-level negatives
    assert np.linalg.norm(F @ F.T - gauss_cov.Z_hat, 2) <= 1e-12 * trace
    band = fm.simulate_sup_quantile(gauss_cov, 0.05, 10_000, seed=1)
    assert (band.q, band.dropped_trace) == (F.shape[1], dropped)


def _factored_cov(problem, ts_spec, ts_pnt, gauss_spec, gauss_pnt):
    """A factored plug-in covariance: t*s (r = 1) and 1-D gauss-conv
    (r = 16) on 101 points, 2-D gauss-conv on 21^2 (r = 91); the 2-D case
    borrows the t*s power norms, which only set the term counts."""
    if problem == "ts":
        spec, pnt, grid, n = ts_spec, ts_pnt, np.linspace(0, 1, 101), 20_000
    elif problem == "gauss-1d":
        spec, pnt, grid, n = gauss_spec, gauss_pnt, np.linspace(0, 1, 101), 20_000
    else:
        spec = fm.build_problem("gauss-conv", {"scale": 0.4, "kappa": 0.5, "grid": 21,
                                               "bounds": [[0, 1], [0, 1]]})
        pnt, grid, n = ts_pnt, spec.domain.grid(), 6_000
    alloc = fm.optimal_allocation(pnt, 4, n)
    est = fm.solve_fredholm_mc(spec, fm.TruncationPlan(0.05, 4, 0.0, "fit-based"), alloc, grid,
                               seed=0, collect_covariance=True)
    return fm.estimate_covariance(spec, alloc, grid, est.moments)


@pytest.mark.parametrize("problem", ["ts", "gauss-1d", "gauss-2d"])
def test_dense_and_factored_models_give_one_eigen_factor(problem, ts_spec, ts_pnt, gauss_spec,
                                                         gauss_pnt):
    cov = _factored_cov(problem, ts_spec, ts_pnt, gauss_spec, gauss_pnt)
    dense = CovarianceModel(t_grid=cov.t_grid, Z_hat=cov.Z_hat, sigma_plus_sq=cov.sigma_plus_sq)
    assert cov.A is not None and dense.A is None
    (F, dropped), (F_dense, dropped_dense) = _eigen_factor(cov.S, cov.A), _eigen_factor(dense.S)
    assert F.shape == F_dense.shape
    assert 0.0 <= dropped <= 2e-12 and 0.0 <= dropped_dense <= 2e-12
    # a backward-stable eigensolver fixes column i of F only to about
    # eps * trace * sqrt(w_i) / gap_i (first-order eigenvector perturbation),
    # more than 1e-12 * trace for the pairs next to the trace cut; with the
    # signs fixed, the two routes differ by no more than that
    trace = float(np.trace(cov.Z_hat))
    w = np.sum(F * F, axis=0)
    lam = np.linalg.eigvalsh(cov.Z_hat)
    gap = np.array([np.min(np.abs(np.delete(lam, np.argmin(np.abs(lam - wi))) - wi)) for wi in w])
    diff = np.max(np.abs(F - F_dense), axis=0)
    assert np.all(diff <= 1e-12 * trace + np.finfo(float).eps * trace * np.sqrt(w) / gap)
    if problem == "ts":  # rank one: no eigenvector is ill-determined
        assert np.all(diff <= 1e-12 * trace)
    # the same normals drive both: each path moves by at most z_max * sum_i diff_i,
    # and so does the quantile of the path sups
    n_sim, seed = 20_000, 3
    z_max = max(np.max(np.abs(substream(seed, TAG_GAUSS_SIM, b).standard_normal(
        (min(SIM_BATCH, n_sim - b * SIM_BATCH), F.shape[1])))) for b in range(-(-n_sim // SIM_BATCH)))
    u, u_dense = (fm.simulate_sup_quantile(c, 0.05, n_sim, seed).u_delta for c in (cov, dense))
    assert abs(u - u_dense) <= z_max * diff.sum() + 1e-12 * u


def test_factored_gauss_sim_band_allocates_no_grid_by_grid_array(gauss_spec, gauss_pnt):
    # 1-D gauss-conv (r = 16) on G = 2001 points: term moments, covariance
    # and eigen-factor stay G x r and r x r, and 200 paths are 200 x G, so
    # the traced peak stays far below one G x G array (32 MB)
    G = 2001
    grid = np.linspace(0.0, 1.0, G)
    alloc = fm.optimal_allocation(gauss_pnt, 4, 20_000)
    tracemalloc.start()
    try:
        est = fm.solve_fredholm_mc(gauss_spec, fm.TruncationPlan(0.05, 4, 0.0, "fit-based"), alloc,
                                   grid, seed=0, collect_covariance=True)
        cov = fm.estimate_covariance(gauss_spec, alloc, grid, est.moments)
        band = fm.simulate_sup_quantile(cov, 0.1, 200, seed=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert est.factor_rank == 16 and band.q > 1
    assert peak < G * G * 8 / 4


def _cov_with_least_eigenvalue(rel):
    # eigenvalues (1, 0.5, 0.25, 0.1, lam) with lam = rel * trace
    V, _ = np.linalg.qr(np.random.default_rng(5).standard_normal((5, 5)))
    pos = np.array([1.0, 0.5, 0.25, 0.1])
    lam = rel * pos.sum() / (1.0 - rel)
    Z = (V * np.append(pos, lam)) @ V.T
    return CovarianceModel(t_grid=np.linspace(0, 1, 5)[:, None], Z_hat=(Z + Z.T) / 2,
                           sigma_plus_sq=float(np.max(np.diag(Z))))


def test_negative_eigenvalue_is_clipped_or_refused():
    band = fm.simulate_sup_quantile(_cov_with_least_eigenvalue(-1e-7), 0.1, 1000, seed=0)
    assert band.q == 4
    assert band.dropped_trace == pytest.approx(1e-7, rel=1e-6, abs=0)
    with pytest.raises(fm.NotPSD):
        fm.simulate_sup_quantile(_cov_with_least_eigenvalue(-1e-5), 0.1, 1000, seed=0)


def test_sup_quantile_threads_match_serial(gauss_cov):
    # more threads than cores and a short switch interval: shared state
    # between concurrent calls would show as different bits
    serial, sims = fm.simulate_sup_quantile(gauss_cov, 0.05, 20_000, seed=7, return_sims=True)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(4) as pool:
            futures = [pool.submit(fm.simulate_sup_quantile, gauss_cov, 0.05, 20_000, 7, None, True)
                       for _ in range(4)]
            results = [f.result(timeout=120) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    for band, s in results:
        assert band.u_delta == serial.u_delta
        assert np.array_equal(s, sims)


def _rank_q_cov(G, q, seed=0):
    """A factored model of rank q on G points: A (G x q) and S = I."""
    grid = np.linspace(0.0, 1.0, G)[:, None]
    A = np.random.default_rng(seed).standard_normal((G, q)) / math.sqrt(q)
    return CovarianceModel(t_grid=grid, sigma_plus_sq=float(np.max(np.sum(A * A, axis=1))),
                           A=A, S=np.eye(q))


@pytest.mark.parametrize("q", [2, 7, 31])
def test_tile_height_keeps_sups_and_u_delta_bitwise(q, monkeypatch):
    # tiles of 24, 48 and 96 path rows, the default rule and one tile per
    # batch (the untiled product) give the same sups and u_delta bit for bit
    cov = _rank_q_cov(101, q)
    n_sim = 3 * SIM_BATCH + 1000
    default, sims = fm.simulate_sup_quantile(cov, 0.05, n_sim, seed=5, return_sims=True)
    assert default.q == q
    for rows in (SIM_TILE, 2 * SIM_TILE, 4 * SIM_TILE, SIM_BATCH):
        # one unit of `rows` rows fits the one-thread budget: the tile is `rows` high
        monkeypatch.setattr(confidence, "SIM_TILE", rows)
        monkeypatch.setattr(confidence, "_ONE_THREAD_GEMM", rows * 101 * q)
        band, s = fm.simulate_sup_quantile(cov, 0.05, n_sim, seed=5, return_sims=True)
        assert np.array_equal(s, sims), rows
        assert band.u_delta == default.u_delta


def test_gauss_sim_holds_no_batch_of_paths():
    # q = 7 on G = 2001 points: one 4096 x G batch of paths is 66 MB; the
    # tiles keep the traced peak below a quarter of it
    G = 2001
    cov = _rank_q_cov(G, 7)
    tracemalloc.start()
    try:
        band = fm.simulate_sup_quantile(cov, 0.05, 10_000, seed=2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert band.q == 7
    assert peak < SIM_BATCH * G * 8 / 4


def test_sims_come_back_in_path_order():
    # the quantile partitions a copy: the returned sups are each path's own
    cov = _rank_q_cov(11, 2)
    band, sims = fm.simulate_sup_quantile(cov, 0.1, 300, seed=4, return_sims=True)
    F, _ = _eigen_factor(cov.S, cov.A)
    z = substream(4, TAG_GAUSS_SIM, 0).standard_normal((300, 2))
    assert np.array_equal(sims, np.max(np.abs(z @ F.T), axis=1))
    assert band.u_delta == np.quantile(sims, 0.9)


_TIES = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 1e300])


@settings(derandomize=True, max_examples=400, deadline=None)
@given(x=st.lists(st.one_of(_TIES, st.floats(-1e6, 1e6)), min_size=1, max_size=40),
       p=st.one_of(st.sampled_from([0.0, 1.0, 0.5, 0.9, 0.95]), st.floats(0.0, 1.0)))
def test_empirical_quantile_is_np_quantile_bitwise(x, p):
    # ties, +-0 and n = 1 included: the bits, sign of zero too, are numpy's
    x = np.array(x)
    assert np.float64(empirical_quantile(x, p)).tobytes() == np.quantile(x, p).tobytes()
    ps = [p, 1.0 - p]
    assert empirical_quantile(x, ps).tobytes() == np.quantile(x, ps).tobytes()


# ---------------------------------------------------------------------------
# tail-shape report


def test_tail_shape_report_runs_on_scalar_field():
    cov = _scalar_cov(1.0)
    band, sims = fm.simulate_sup_quantile(cov, 0.05, 200_000, seed=6, return_sims=True)
    u_grid = np.linspace(1.0, 3.5, 40)
    kappa, C = fm.tail_shape_report(cov, u_grid, sims)
    assert np.isfinite(kappa) and C > 0
    assert abs(kappa) < 1.5  # scalar Gaussian: kappa near 0, report-only


def test_tail_shape_report_on_fixture_covariance():
    # report-only on the 4ts/45 covariance model; no ground truth claimed
    grid = np.linspace(0.01, 1, 101)[:, None]
    Z = 4 * np.outer(grid[:, 0], grid[:, 0]) / 45
    cov = CovarianceModel(t_grid=grid, Z_hat=Z, sigma_plus_sq=float(Z[-1, -1]))
    band, sims = fm.simulate_sup_quantile(cov, 0.05, 100_000, seed=8, return_sims=True)
    u_grid = np.quantile(sims, np.linspace(0.90, 0.999, 25))
    kappa, C = fm.tail_shape_report(cov, u_grid, sims)
    assert np.isfinite(kappa) and np.isfinite(C) and C > 0


def test_tail_shape_report_needs_exceedances():
    cov = _scalar_cov(0.0)
    sims = np.zeros(100_000)
    with pytest.raises(ValueError, match="widen"):
        fm.tail_shape_report(cov, np.linspace(0.5, 2.0, 10), sims)


# ---------------------------------------------------------------------------
# non-asymptotic band


def test_nonasymptotic_bounded_profile_closed_form():
    # single-point domain (zero metric) so Zbar = sigma; bounded support
    # makes the tail a single-p Markov bound with closed-form inversion
    tab = np.geomspace(2.0, 8.0, 64)
    psi = PsiFunction(p=tab, values=np.full(64, 2.0), kind="analytic", support=(2.0, 8.0))
    unit = DomainSpec(1, ((0.0, 1.0),))
    zero_metric = Metric("holder", 1.0, 0.0)
    delta = 1e-4
    band = fm.nonasymptotic_band(psi, unit, zero_metric, 1.0, delta, 100)
    assert band.z_bar == pytest.approx(1.0, rel=1e-12)
    psib_b = 8.0 * 2.0 / (C0_BAR * math.log(8.0))
    assert band.u_delta == pytest.approx(psib_b * delta ** (-1 / 8), rel=1e-9)
    assert band.half_width == pytest.approx(band.u_delta / 10.0, rel=1e-12)


def test_nonasymptotic_zero_entropy_zbar_is_sigma(ts_spec, ts_pnt):
    psi, sigma = solution_psi(ts_spec, fm.optimal_allocation(ts_pnt, 3, 1000))
    zero_metric = Metric("holder", 1.0, 0.0)
    band = fm.nonasymptotic_band(psi, ts_spec.domain, zero_metric, sigma, 0.05, 100)
    assert band.z_bar == pytest.approx(sigma, rel=1e-12)


def test_nonasymptotic_band_too_wide():
    tab = np.geomspace(2.0, 3.2, 32)
    psi = PsiFunction(p=tab, values=np.ones(32), kind="analytic", support=(2.0, 3.2))
    unit = DomainSpec(1, ((0.0, 1.0),))
    with pytest.raises(fm.BandTooWide):
        fm.nonasymptotic_band(psi, unit, Metric("holder", 1.0, 0.0), 1.0, 1e-30, 100)


def test_nonasymptotic_dominates_gauss_on_ts(ts_spec, ts_pnt):
    plan = fm.choose_truncation(ts_pnt, 1.0, 0.01)
    alloc = fm.optimal_allocation(ts_pnt, plan.N, 10_000)
    grid = np.linspace(0, 1, 21)
    est = fm.solve_fredholm_mc(ts_spec, plan, alloc, grid, seed=1, collect_covariance=True)
    cov = fm.estimate_covariance(ts_spec, alloc, grid, est.moments)
    g = fm.simulate_sup_quantile(cov, 0.05, 10_000, seed=2, n=10_000)
    psi, sigma = solution_psi(ts_spec, alloc)
    na = fm.nonasymptotic_band(psi, ts_spec.domain, ts_spec.metric, sigma, 0.05, 10_000)
    assert na.half_width >= g.half_width


def test_nonasymptotic_monotone_in_delta(ts_spec, ts_pnt):
    alloc = fm.optimal_allocation(ts_pnt, 3, 1000)
    psi, sigma = solution_psi(ts_spec, alloc)
    us = [fm.nonasymptotic_band(psi, ts_spec.domain, ts_spec.metric, sigma, d, 100).u_delta
          for d in (0.01, 0.05, 0.1)]
    assert us[0] >= us[1] >= us[2]


def test_nonasymptotic_band_scales_as_inverse_sqrt_n(ts_spec, ts_pnt):
    alloc = fm.optimal_allocation(ts_pnt, 3, 1000)
    psi, sigma = solution_psi(ts_spec, alloc)
    b1 = fm.nonasymptotic_band(psi, ts_spec.domain, ts_spec.metric, sigma, 0.05, 100)
    b2 = fm.nonasymptotic_band(psi, ts_spec.domain, ts_spec.metric, sigma, 0.05, 10_000)
    assert b1.u_delta == b2.u_delta
    assert b1.half_width == pytest.approx(10 * b2.half_width, rel=1e-12)


def test_nonasymptotic_u_delta_inverts_tail_exactly(ts_spec, ts_pnt):
    psi, sigma = solution_psi(ts_spec, fm.optimal_allocation(ts_pnt, 4, 10 ** 6))
    psib = psi_bar(psi)
    delta = 0.05
    band = fm.nonasymptotic_band(psi, ts_spec.domain, ts_spec.metric, sigma, delta, 10 ** 6)

    def log_tail(u):
        return float(np.min(psib.p * np.log(psib.values * band.z_bar / u)))

    assert log_tail(band.u_delta) <= math.log(delta) + 1e-12
    if band.u_delta != 2.0 * band.z_bar:
        assert log_tail(band.u_delta * (1.0 - 1e-9)) > math.log(delta)


def _distance_at(metric, r):
    # the declared radius map, written out: log-power stays at scale from r = 1 on
    if metric.kind == "holder":
        return metric.scale * r ** metric.exponent
    return metric.scale * (min(abs(math.log(r)) ** -metric.exponent, 1.0) if r < 1.0 else 1.0)


def _reference_majorant(psib, domain, metric, sigma, cells=100_000):
    # sigma + 9 int v*(log 2N) dx over [sigma 1e-14, sigma] by a midpoint sum: cut where a
    # per-axis count up to 64 changes (the integrand is constant between), and into
    # `cells` log-spaced cells below, valued at their geometric midpoints
    x_min = sigma * 1e-14
    x_c = min(max(_distance_at(metric, max(domain.lengths) / 128), x_min), sigma)
    cuts = np.array([_distance_at(metric, length / (2 * k))
                     for length in domain.lengths for k in range(1, 65)])
    coarse = np.unique(np.concatenate([[x_c, sigma], cuts[(cuts > x_c) & (cuts < sigma)]]))
    edges = np.concatenate([np.geomspace(x_min, x_c, cells + 1)[:-1], coarse])
    h = fm.entropy_H(domain, metric, np.sqrt(edges[:-1] * edges[1:]))
    keep = h > 0
    v = np.concatenate([fm.v_star(psib, x) for x in np.array_split(np.log(2) + h[keep], 20)])
    return sigma + 9 * float(np.sum(v * np.diff(edges)[keep]))


@pytest.fixture(scope="module")
def solve_1d_psi(gauss_spec, gauss_pnt):
    # the solution profile of the solve-1d run: gauss-conv at n = 1e6, epsilon 0.01
    plan = fm.choose_truncation(gauss_pnt, gauss_spec.f_norm, 0.01)
    return solution_psi(gauss_spec, fm.optimal_allocation(gauss_pnt, plan.N, 10 ** 6))[0]


def _assert_upper_sum(psi, domain, metric, sigma):
    # the band's Zbar bounds the entropy integral from above, by at most 2 %
    z_bar = fm.nonasymptotic_band(psi, domain, metric, sigma, 0.05, 10 ** 6).z_bar
    ref = _reference_majorant(psi_bar(psi), domain, metric, sigma)
    assert ref <= z_bar <= 1.02 * ref


_BOX = DomainSpec(2, ((0.0, 1.0), (-1.0, 2.0)), grid_points_per_dim=11)


@pytest.mark.parametrize("domain, metric, sigma", [
    (DomainSpec(1, ((0.0, 1.0),)), fm.fixture_gauss().metric, 1.0),
    (DomainSpec(1, ((0.0, 1.0),)), fm.fixture_gauss().metric, 0.3),
    (_BOX, Metric("holder", 0.7, 1.3), 1.0),
    (DomainSpec(1, ((0.0, 1.0),)), Metric("log-power", 1.0, 1.0), 1.0),
    (_BOX, Metric("log-power", 0.5, 2.0), 1.0),
    (_BOX, Metric("log-power", 2.0, 1.0), 0.3),
], ids=["solve-1d", "solve-1d-sigma-0.3", "holder-2d", "log-power-1d", "log-power-2d",
        "log-power-2d-sigma-0.3"])
def test_chaining_majorant_is_an_upper_sum(solve_1d_psi, domain, metric, sigma):
    _assert_upper_sum(solve_1d_psi, domain, metric, sigma)


def test_psi_band_holds_no_knot_table(gauss_spec, gauss_pnt):
    # the solve-1d profile and band: one-shot, the p x nodes power table (1.8 MB)
    # and the v* cells x knots arrays (8.2 MB) set the traced peak; in chunks it
    # stays below 1 MB
    plan = fm.choose_truncation(gauss_pnt, gauss_spec.f_norm, 0.01)
    alloc = fm.optimal_allocation(gauss_pnt, plan.N, 10 ** 6)
    tracemalloc.start()
    try:
        psi, sigma = solution_psi(gauss_spec, alloc)
        band = fm.nonasymptotic_band(psi, gauss_spec.domain, gauss_spec.metric, sigma, 0.05, 10 ** 6)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert band.z_bar > sigma
    assert peak < 1e6


@settings(derandomize=True, max_examples=8, deadline=None)
@given(kind=st.sampled_from(["holder", "log-power"]), scale=st.floats(0.1, 10.0),
       exponent=st.floats(0.5, 2.0),
       lengths=st.lists(st.floats(0.1, 10.0), min_size=1, max_size=2))
def test_chaining_majorant_is_an_upper_sum_on_random_metrics(solve_1d_psi, kind, scale,
                                                             exponent, lengths):
    # log-power exponents below 1/2 make the integrand steeper than x^-2 at the
    # cut, where the 2560 log-spaced cells overshoot the integral by more than 1.3 %
    domain = DomainSpec(len(lengths), tuple((0.0, length) for length in lengths),
                        grid_points_per_dim=11)
    _assert_upper_sum(solve_1d_psi, domain, Metric(kind, exponent, scale), 1.0)


def test_integral_band_needs_only_the_envelope_r(ts_spec):
    # a custom problem supplies R alone: the integral profile is that of
    # Q = |f| R, here x * x on [0, 1], so psi(p) = 2 (2p + 1)^(-1/p)
    spec = fm.ProblemSpec(domain=ts_spec.domain, mu=ts_spec.mu, kernel=ts_spec.kernel,
                          forcing=ts_spec.forcing, envelope_R=lambda x: x[..., 0],
                          metric=ts_spec.metric)
    psi, sigma = integral_psi(spec)
    ps = np.array([2.0, 8.0])
    assert np.allclose(psi(ps), 2 * (2 * ps + 1) ** (-1 / ps), rtol=1e-3)
    band = fm.nonasymptotic_band(psi, spec.domain, spec.metric, sigma, 0.05, 10_000)
    assert np.isfinite(band.half_width) and band.z_bar > sigma


def test_plugin_covariance_psd_at_small_jitter(ts_spec, ts_pnt):
    # factorizable with a ridge of at most 1e-8 * trace
    alloc = fm.optimal_allocation(ts_pnt, 3, 20_000)
    plan = fm.TruncationPlan(0.05, 3, 0.0, "fit-based")
    grid = np.linspace(0, 1, 31)
    est = fm.solve_fredholm_mc(ts_spec, plan, alloc, grid, seed=13, collect_covariance=True)
    cov = fm.estimate_covariance(ts_spec, alloc, grid, est.moments)
    ridge = 1e-8 * float(np.trace(cov.Z_hat))
    np.linalg.cholesky(cov.Z_hat + ridge * np.eye(len(grid)))


def test_integral_psi_profile(ts_spec):
    psi, sigma = integral_psi(ts_spec)
    assert sigma == 1.0
    # Q(x) = x * x for this problem: psi = 2 (int x^{2p})^{1/p} = 2 (2p+1)^{-1/p}
    ps = np.array([2.0, 8.0])
    assert np.allclose(psi(ps), 2 * (2 * ps + 1) ** (-1 / ps), rtol=1e-3)
