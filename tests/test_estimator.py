import dataclasses
import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fredmc as fm
from fredmc.cli import KernelTimesForcing, _TimesForcing
from fredmc import estimator
from fredmc.estimator import (BLOCK_REPLICATES, _chain_tail, _first_factors, _plan_moments, _run_term,
                              _runner_plan)
from fredmc.problem import _ROW_CHUNK_EVALS, DomainSpec, MeasureSampler, PowerNormTable, ProblemSpec
from fredmc.registry import (ConstFunc, GaussConvKernelDt, PolyFunc, _cheb_gamma, _cheb_rest, _exponents,
                             _cheb_rest_dt)
from fredmc.rng import TAG_SOLVE, substream


def _plan(N, eps=0.01):
    return fm.TruncationPlan(eps, N, 0.0, "fit-based")


class _TXProduct:
    def __call__(self, t, x):
        return np.asarray(t)[..., 0] * np.asarray(x)[..., 0]


class _ConstG:
    def __call__(self, t, x):
        return np.full(np.broadcast_shapes(np.asarray(t).shape[:-1], np.asarray(x).shape[:-1]), 3.25)


# ---------------------------------------------------------------------------
# parametric integral


def test_parametric_integral_mean_and_variance():
    # I(t) = t/2 and Var(t * eta) = t^2 / 12: check the estimator mean over
    # 200 replications at 3 standard errors
    dom = DomainSpec(1, ((0.0, 1.0),))
    mu = MeasureSampler()
    grid = np.array([0.3, 0.6, 1.0])
    n = 2000
    vals = np.array([fm.estimate_parametric_integral(_TXProduct(), mu, dom, grid, n, seed=s).values
                     for s in range(200)])
    mean = vals.mean(axis=0)
    se = vals.std(axis=0, ddof=1) / np.sqrt(200)
    assert np.all(np.abs(mean - grid / 2) <= 3 * se)
    est = fm.estimate_parametric_integral(_TXProduct(), mu, dom, grid, 50_000, seed=0)
    assert np.allclose(est.pointwise_var * 50_000, grid ** 2 / 12, rtol=0.1)


def test_parametric_integral_constant_zero_variance():
    dom = DomainSpec(1, ((0.0, 1.0),))
    est = fm.estimate_parametric_integral(_ConstG(), MeasureSampler(), dom,
                                          np.linspace(0, 1, 5), 1000, seed=1)
    assert np.all(est.values == 3.25)
    assert np.all(est.pointwise_var == 0.0)


def test_parametric_integral_cross_covariance():
    # n * Cov(I_n(t), I_n(s)) -> int g(t,x) g(s,x) dx - I(t) I(s) = ts/12
    dom = DomainSpec(1, ((0.0, 1.0),))
    t, s = 0.6, 0.9
    grid = np.array([t, s])
    n = 2000
    pairs = np.array([fm.estimate_parametric_integral(_TXProduct(), MeasureSampler(), dom,
                                                      grid, n, seed=s0).values
                      for s0 in range(300, 500)])
    a, b = pairs[:, 0] * np.sqrt(n), pairs[:, 1] * np.sqrt(n)
    emp = np.cov(a, b, ddof=1)[0, 1]
    ac, bc = a - a.mean(), b - b.mean()
    se = np.sqrt((np.mean(ac ** 2 * bc ** 2) - emp ** 2) / len(a))
    assert abs(emp - t * s / 12) <= 3 * se


def test_parametric_integral_aborts_on_nonfinite():
    dom = DomainSpec(1, ((0.0, 1.0),))

    class Bad:
        def __call__(self, t, x):
            x0 = np.asarray(x)[..., 0]
            return np.where(x0 < 0.5, np.nan, np.asarray(t)[..., 0])

    with pytest.raises(ValueError, match="non-finite"):
        fm.estimate_parametric_integral(Bad(), MeasureSampler(), dom,
                                        np.array([1.0]), 1000, seed=0)


# ---------------------------------------------------------------------------
# truncated-Neumann solver


def test_solve_constant_kernel_is_exact(const_spec, const_pnt):
    plan = fm.choose_truncation(const_pnt, 1.0, 0.01)
    alloc = fm.optimal_allocation(const_pnt, plan.N, 5000)
    est = fm.solve_fredholm_mc(const_spec, plan, alloc, np.linspace(0, 1, 7), seed=0)
    assert np.all(est.values == 2.0 - 2.0 ** -7)
    assert np.all(est.pointwise_var == 0.0)
    assert est.n_used == alloc.cost_B


def test_solve_zero_forcing(ts_spec, ts_pnt):
    spec = ProblemSpec(domain=ts_spec.domain, mu=ts_spec.mu, kernel=ts_spec.kernel,
                       forcing=lambda x: np.zeros(np.asarray(x).shape[:-1]),
                       envelope_R=ts_spec.envelope_R, metric=ts_spec.metric)
    alloc = fm.optimal_allocation(ts_pnt, 3, 1000)
    est = fm.solve_fredholm_mc(spec, _plan(3), alloc, np.linspace(0, 1, 7), seed=0)
    assert np.all(est.values == 0.0)
    assert np.all(est.pointwise_var == 0.0)


def test_solve_bracket_95_percent(ts_spec, ts_pnt):
    # threshold eps + 3 sqrt(Phi): the error field is proportional to t for
    # this kernel, so the pointwise 3-sigma bound controls the supremum
    plan = fm.choose_truncation(ts_pnt, 1.0, 0.01)
    alloc = fm.optimal_allocation(ts_pnt, plan.N, 20_000)
    grid = np.linspace(0, 1, 21)
    threshold = 0.01 + 3 * np.sqrt(alloc.phi_predicted)
    hits = sum(np.max(np.abs(fm.solve_fredholm_mc(ts_spec, plan, alloc, grid, seed=s).values
                             - 1.5 * grid)) <= threshold
               for s in range(100))
    assert hits >= 95


def test_reconstruction_identity(ts_spec, ts_pnt):
    alloc = fm.optimal_allocation(ts_pnt, 4, 5000)
    est = fm.solve_fredholm_mc(ts_spec, _plan(4), alloc, np.linspace(0, 1, 11), seed=2)
    rebuilt = np.asarray(ts_spec.forcing(est.t_grid)) + est.per_term.sum(axis=0)
    assert np.array_equal(est.values, rebuilt)


def test_same_seed_bit_identical(ts_spec, ts_pnt):
    alloc = fm.optimal_allocation(ts_pnt, 4, 8000)
    grid = np.linspace(0, 1, 31)
    a = fm.solve_fredholm_mc(ts_spec, _plan(4), alloc, grid, seed=9)
    b = fm.solve_fredholm_mc(ts_spec, _plan(4), alloc, grid, seed=9)
    assert np.array_equal(a.values, b.values)
    assert np.array_equal(a.pointwise_var, b.pointwise_var)


def _engine_on(engine, spec, pnt, grid, seed):
    n = 40_000  # more than one block of replicates for the leading terms
    if engine == "integral":
        return fm.estimate_parametric_integral(KernelTimesForcing(spec), spec.mu, spec.domain,
                                               grid, n, seed)
    if engine == "geometric":
        return fm.solve_geometric(spec, 0.5, 8, n, grid, seed, pnt=pnt)
    solver = fm.solve_fredholm_mc if engine == "solve" else fm.derivative_solve
    return solver(spec, _plan(4), fm.optimal_allocation(pnt, 4, n), grid, seed)


@pytest.mark.parametrize("problem", ["ts", "gauss"])
@pytest.mark.parametrize("engine", ["solve", "derivative", "integral", "geometric"])
def test_draws_are_grid_independent(request, engine, problem):
    # dependent-trial coupling: changing the grid must not change the
    # tuples, so shared points agree bit-for-bit in every engine
    spec = request.getfixturevalue(f"{problem}_spec")
    pnt = request.getfixturevalue(f"{problem}_pnt")
    fine = np.linspace(0, 1, 41)
    coarse = fine[::4]
    a = _engine_on(engine, spec, pnt, fine, seed=21)
    b = _engine_on(engine, spec, pnt, coarse, seed=21)
    assert np.array_equal(a.values[::4], b.values)
    assert np.array_equal(a.pointwise_var[::4], b.pointwise_var)
    assert np.array_equal(a.per_term[:, ::4], b.per_term)


class _CountingFactors:
    """A kernel whose factors() first factor A counts its evaluations."""

    def __init__(self, kernel):
        self.kernel, self.calls = kernel, 0
        self.a, self.b = kernel.factors()

    def __call__(self, t, s):
        return self.kernel(t, s)

    def counted_a(self, t):
        self.calls += 1
        return self.a(t)

    def factors(self):
        return self.counted_a, self.b


@pytest.mark.parametrize("engine", ["solve", "derivative", "integral", "geometric"])
def test_first_factor_is_evaluated_once_per_engine_call(engine, ts_spec, ts_pnt):
    # A(grid) does not depend on the term, so each engine call evaluates it once
    kernel, kernel_dt = _CountingFactors(ts_spec.kernel), _CountingFactors(ts_spec.kernel_dt)
    spec = dataclasses.replace(ts_spec, kernel=kernel, kernel_dt=kernel_dt)
    est = _engine_on(engine, spec, ts_pnt, np.linspace(0, 1, 11), seed=21)
    assert est.factor_rank == 1
    assert (kernel_dt if engine == "derivative" else kernel).calls == 1


def _unfactored(spec):
    """The same problem behind plain functions without ``factors()``, so every
    engine takes the general grid x tuple path."""
    k, kdt = spec.kernel, spec.kernel_dt
    return dataclasses.replace(spec, kernel=lambda t, s: k(t, s),
                               kernel_dt=None if kdt is None else (lambda t, s: kdt(t, s)))


@pytest.fixture(scope="module")
def gauss2d():
    """2-D gauss-conv (rank 210) and its quadrature power norms."""
    spec = fm.build_problem("gauss-conv", {"scale": 0.4, "kappa": 2.0, "bounds": [[0, 1], [0, 1]]})
    return spec, fm.power_norms(spec, 12)


def _with_grid(spec, points_per_dim):
    return dataclasses.replace(spec, domain=dataclasses.replace(spec.domain,
                                                                grid_points_per_dim=points_per_dim))


@pytest.mark.parametrize("engine", ["solve", "integral", "geometric"])
def test_row_tiles_keep_the_bits_of_one_tile(engine, gauss2d, monkeypatch):
    # a plain-function kernel on a 17^2 grid: at 16384-tuple blocks the
    # general path folds it in 3 row tiles without a co-moment, and in one
    # with it (solve, integral) or with a tile bound above the grid
    # (geometric, which collects none)
    spec, pnt = gauss2d
    spec, grid, n = _unfactored(spec), spec.domain.grid(17), 20_000
    assert len(grid) > 2 * (_ROW_CHUNK_EVALS // BLOCK_REPLICATES)

    def run(one_tile):
        if engine == "geometric":
            if one_tile:
                monkeypatch.setattr("fredmc.estimator._ROW_CHUNK_EVALS", len(grid) * BLOCK_REPLICATES)
            return fm.solve_geometric(spec, 0.5, 2, 2 * n, grid, seed=5, pnt=pnt)
        if engine == "integral":
            return fm.estimate_parametric_integral(KernelTimesForcing(spec), spec.mu, spec.domain,
                                                   grid, n, seed=5, collect_covariance=one_tile)
        return fm.solve_fredholm_mc(spec, _plan(2), fm.optimal_allocation(pnt, 2, n + 5000), grid,
                                    seed=5, collect_covariance=one_tile)

    tiled, one = run(False), run(True)
    assert tiled.factor_rank is None
    assert np.array_equal(tiled.values, one.values)
    assert np.array_equal(tiled.pointwise_var, one.pointwise_var)
    assert np.array_equal(tiled.per_term, one.per_term)


@pytest.mark.parametrize("points_per_dim", [20, 41], ids=["general", "factored"])
@pytest.mark.parametrize("engine", ["solve", "integral", "geometric"])
def test_draws_are_grid_independent_on_a_2d_sub_grid(engine, points_per_dim, gauss2d):
    # 2-D: the 21^2 grid and its every-other-point 11^2 sub-grid share their
    # points bit for bit; the domain's grid size picks the path (r = 210 is
    # above 20^2 / 2, below 41^2 / 2), and on the general path the 21^2 grid
    # spans 4 row tiles of solve's leading term, the sub-grid one
    spec, pnt = gauss2d
    spec = _with_grid(spec, points_per_dim)
    fine = spec.domain.grid(21)
    every_other = np.arange(21) % 2 == 0
    sub = np.logical_and.outer(every_other, every_other).ravel()
    a = _engine_on(engine, spec, pnt, fine, seed=21)
    b = _engine_on(engine, spec, pnt, fine[sub], seed=21)
    assert (a.factor_rank is None) == (points_per_dim == 20)
    assert np.array_equal(a.values[sub], b.values)
    assert np.array_equal(a.pointwise_var[sub], b.pointwise_var)
    assert np.array_equal(a.per_term[:, sub], b.per_term)


def test_general_path_allocates_no_grid_by_block_array(gauss2d):
    # a 41^2 plain-function kernel: one 1681 x 16384 block of values would
    # be 220 MB; folded in row tiles, the peak is a tile's kernel temporaries
    spec, pnt = gauss2d
    spec = _unfactored(_with_grid(spec, 41))
    grid = spec.domain.grid()
    alloc = fm.optimal_allocation(pnt, 1, 20_000)
    assert alloc.counts[0] > BLOCK_REPLICATES
    tracemalloc.start()
    try:
        fm.solve_fredholm_mc(spec, _plan(1), alloc, grid, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 5 * 8 * _ROW_CHUNK_EVALS < 8 * len(grid) * BLOCK_REPLICATES


def _factored_case(problem, ts_spec, ts_pnt):
    """(spec, power norms, grid, budget) of one equivalence case; the gauss
    cases borrow the t*s power norms, which only set the term counts."""
    if problem == "ts":
        return ts_spec, ts_pnt, np.linspace(0, 1, 11), 40_000
    if problem == "const-1d":
        spec = fm.build_problem("constant", {"gamma": 0.3, "forcing": {
            "kind": "poly", "coeffs": [1.0, 0.5, -0.7]}})
        return spec, fm.power_norms(spec, 10, method="analytic"), np.linspace(0, 1, 11), 40_000
    if problem == "gauss-1d":  # solve, geometric, integrate and the derivative (dK/dt factors)
        spec = fm.build_problem("gauss-conv", {"scale": -0.6, "kappa": 2.0, "bounds": [[-0.5, 1.0]],
                                               "forcing": {"kind": "poly", "coeffs": [1.0, -0.8]}})
        return spec, ts_pnt, np.linspace(-0.5, 1.0, 21), 40_000
    if problem == "gauss-2d":  # r = 136 features against G = 21^2 = 441 grid points
        spec = fm.build_problem("gauss-conv", {"scale": 0.4, "kappa": 0.5, "grid": 21,
                                               "bounds": [[0, 1], [0, 1]]})
        return spec, ts_pnt, spec.domain.grid(), 6_000
    spec = dataclasses.replace(
        fm.build_problem("constant", {"gamma": 0.3, "bounds": [[0, 1], [0, 1]]}),
        forcing=lambda x: 1.0 + np.asarray(x)[..., 0] * np.asarray(x)[..., 1])
    axis = np.linspace(0, 1, 3)
    grid = np.stack(np.meshgrid(axis, axis, indexing="ij"), axis=-1).reshape(-1, 2)
    return spec, fm.power_norms(spec, 10, method="analytic"), grid, 40_000


def _assert_rel_close(fast, general):
    # relative 1e-12 and no absolute slack: entries that are exactly zero in
    # the general path (t = 0 for t*s, dK/dt = 0) must be exactly zero here
    np.testing.assert_allclose(fast, general, rtol=1e-12, atol=0.0)


def _assert_cov_close(fast, general):
    # an off-diagonal co-moment of far-apart grid points cancels to near
    # zero, where two orders of rounding cannot agree to 1e-12 relative:
    # hold it to 1e-12 of its Cauchy-Schwarz scale sqrt(M_tt M_ss) instead
    _assert_rel_close(np.diag(fast), np.diag(general))
    scale = np.sqrt(np.outer(np.diag(general), np.diag(general)))
    assert np.all(np.abs(fast - general) <= 1e-12 * scale)


def _factored_runs(spec, pnt, grid, n):
    """Every engine on one problem, with covariance where it has one."""
    alloc = fm.optimal_allocation(pnt, 4, n)
    runs = [lambda sp: fm.solve_fredholm_mc(sp, _plan(4), alloc, grid, 13,
                                            collect_covariance=True),
            lambda sp: fm.solve_geometric(sp, 0.5, 8, n, grid, 13, pnt=pnt),
            lambda sp: fm.estimate_parametric_integral(KernelTimesForcing(sp), sp.mu, sp.domain,
                                                       grid, n, 13, collect_covariance=True)]
    if spec.domain.dim == 1:
        runs.append(lambda sp: fm.derivative_solve(sp, _plan(4), alloc, grid, 13,
                                                   collect_covariance=True))
    return runs


@pytest.mark.parametrize("problem", ["ts", "const-1d", "const-2d", "gauss-1d", "gauss-2d"])
def test_factored_first_factor_matches_general_runner(problem, ts_spec, ts_pnt):
    spec, pnt, grid, n = _factored_case(problem, ts_spec, ts_pnt)
    general = _unfactored(spec)
    # the rank-1 factors are exact: their co-moments are products, no cancellation
    cov_close = _assert_cov_close if problem.startswith("gauss") else _assert_rel_close
    for run in _factored_runs(spec, pnt, grid, n):
        a, b = run(spec), run(general)
        assert a.factor_rank is not None and b.factor_rank is None
        _assert_rel_close(a.values, b.values)
        _assert_rel_close(a.pointwise_var, b.pointwise_var)
        _assert_rel_close(a.per_term, b.per_term)
        for tm_a, tm_b in zip(a.moments or [], b.moments or [], strict=True):
            cov_close(tm_a.m2_full, tm_b.m2_full)


@pytest.mark.parametrize("problem", ["ts", "const-1d", "gauss-1d", "gauss-2d"])
def test_factored_covariance_forms_z_hat_on_read(problem, ts_spec, ts_pnt):
    spec, pnt, grid, n = _factored_case(problem, ts_spec, ts_pnt)
    alloc = fm.optimal_allocation(pnt, 4, n)
    for run in _factored_runs(spec, pnt, grid, n):
        est = run(spec)
        if est.moments is None:  # the geometric engine keeps no covariance
            continue
        cov = fm.estimate_covariance(spec, alloc, grid, est.moments)
        r = est.factor_rank
        assert cov.A.shape == (len(grid), r) and cov.S.shape == (r, r)
        dense = sum(tm.m2_full / ((tm.count - 1) * tm.theta) for tm in est.moments)
        Z = cov.Z_hat
        assert np.max(np.abs(Z - dense)) <= 1e-12 * np.max(np.abs(dense))
        assert np.array_equal(Z, Z.T)
        assert np.all(np.diag(Z) >= 0.0)
        assert cov.sigma_plus_sq == pytest.approx(np.max(np.diag(Z)), rel=1e-12, abs=0.0)


def test_factored_first_factor_rejects_nonfinite_a(ts_spec, ts_pnt):
    class NaNAboveHalf:
        def __call__(self, t, s):
            return ts_spec.kernel(t, s)

        def factors(self):
            a, b = ts_spec.kernel.factors()
            return (lambda t: np.where(np.asarray(t)[..., 0] > 0.5, np.nan, a(t))), b

    spec = dataclasses.replace(ts_spec, kernel=NaNAboveHalf())
    alloc = fm.optimal_allocation(ts_pnt, 2, 1000)
    with pytest.raises(ValueError, match=r"non-finite first factor at t=\[0\.6\]"):
        fm.solve_fredholm_mc(spec, _plan(2), alloc, np.linspace(0, 1, 6), seed=0)


def test_factored_path_names_x_for_a_nonfinite_t_free_factor(ts_spec, ts_pnt):
    # b(x) is NaN above 0.9: the fault does not depend on t, so the message
    # names x and the t-free factor and no t
    class NaNAboveNineTenths:
        def __call__(self, t, s):
            return ts_spec.kernel(t, s)

        def factors(self):
            a, b = ts_spec.kernel.factors()
            return a, (lambda s: np.where(np.asarray(s)[..., 0] > 0.9, np.nan, b(s)))

    spec = dataclasses.replace(ts_spec, kernel=NaNAboveNineTenths())
    alloc = fm.optimal_allocation(ts_pnt, 2, 1000)
    with pytest.raises(ValueError, match=r"t-free factor .* at x=\[\[0\.9") as info:
        fm.solve_fredholm_mc(spec, _plan(2), alloc, np.linspace(0.2, 1, 5), seed=0)
    assert "t=" not in str(info.value)


def test_general_path_names_t_and_x_of_a_nonfinite_value(ts_spec, ts_pnt):
    # one NaN at t = 0.75 for x1 within 1e-4 of 0.6, somewhere inside a
    # block: the message names that t and such an x, and nothing warns
    k = ts_spec.kernel

    def kernel(t, s):
        hit = (np.asarray(t)[..., 0] == 0.75) & (np.abs(np.asarray(s)[..., 0] - 0.6) < 1e-4)
        return np.where(hit, np.nan, k(t, s))

    spec = dataclasses.replace(ts_spec, kernel=kernel)
    alloc = fm.optimal_allocation(ts_pnt, 2, 60_000)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"non-finite integrand at t=\[0\.75\], x=\[\[0\.(5999|6000)"):
            fm.solve_fredholm_mc(spec, _plan(2), alloc, np.linspace(0, 1, 5), seed=0)


def test_factored_path_names_x_when_infinities_cancel(ts_spec, ts_pnt):
    # +inf and -inf in one row make its mean NaN: still named, with no
    # RuntimeWarning from the mean
    class SignedInfinities:
        def __call__(self, t, s):
            return ts_spec.kernel(t, s)

        def factors(self):
            a, b = ts_spec.kernel.factors()
            return a, (lambda s: np.where(np.asarray(s)[..., 0] > 0.95, np.inf,
                                          np.where(np.asarray(s)[..., 0] < 0.05, -np.inf, b(s))))

    spec = dataclasses.replace(ts_spec, kernel=SignedInfinities())
    alloc = fm.optimal_allocation(ts_pnt, 2, 1000)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"t-free factor .* at x=\[\[0\.(9[5-9]|0[0-4])"):
            fm.solve_fredholm_mc(spec, _plan(2), alloc, np.linspace(0.2, 1, 5), seed=0)


def test_finite_block_whose_mean_overflows_is_not_refused():
    # every value is finite, the block sum is not: nothing is named, as
    # before the check read the block mean
    class Huge:
        def __call__(self, t, x):
            return np.full(np.broadcast_shapes(np.asarray(t).shape[:-1],
                                               np.asarray(x).shape[:-1]), 1e308)

    with np.errstate(over="ignore", invalid="ignore"):
        est = fm.estimate_parametric_integral(Huge(), MeasureSampler(), DomainSpec(1, ((0.0, 1.0),)),
                                              np.array([0.5, 1.0]), 20_000, seed=0)
    assert not np.any(np.isfinite(est.values))


class _ReadOnly:
    """``fn`` with read-only results, as a kernel's cached arrays may be."""

    def __init__(self, fn):
        self.fn = fn

    def __call__(self, *args):
        out = np.array(self.fn(*args), dtype=float)
        out.flags.writeable = False
        return out


class _ReadOnlyB(_ReadOnly):
    def factors(self):
        a, b = self.fn.factors()
        return a, _ReadOnly(b)


def test_runner_only_reads_the_kernel_arrays(ts_spec, ts_pnt):
    # the first factor without a tail (integral), with one (general solve)
    # and the t-free factor b (factored solve) hand over read-only arrays:
    # the runner writes into its own slab only, and the bits are unchanged
    grid = np.linspace(0, 1, 11)
    dom = DomainSpec(1, ((0.0, 1.0),))
    a, b = (fm.estimate_parametric_integral(g, MeasureSampler(), dom, grid, 40_000, seed=3,
                                            collect_covariance=True)
            for g in (_ReadOnly(_TXProduct()), _TXProduct()))
    pairs = [(a, b)]
    for kernel, ref in ((_ReadOnly(ts_spec.kernel), _unfactored(ts_spec)),
                        (_ReadOnlyB(ts_spec.kernel), ts_spec)):
        spec = dataclasses.replace(ts_spec, kernel=kernel)
        pairs.append(tuple(_engine_on("solve", sp, ts_pnt, grid, seed=3) for sp in (spec, ref)))
    for a, b in pairs:
        assert np.array_equal(a.values, b.values)
        assert np.array_equal(a.pointwise_var, b.pointwise_var)


def _fill_case(name):
    """(t-free factor b, points x of shape (n, dim)) of one fill case."""
    x = np.random.default_rng(4).random((1000, 2))
    gauss1 = fm.fixture_gauss().kernel.factors()[1]
    gauss2 = fm.build_problem("gauss-conv", {"scale": 0.4, "kappa": 2.0,
                                             "bounds": [[0, 1], [0, 1]]}).kernel.factors()[1]
    poly, const = PolyFunc((0.5, -1.25, 3.0)), ConstFunc(0.3)
    return {"poly": (poly, x[:, :1]), "const": (const, x), "gauss-1d": (gauss1, x[:, :1]),
            "gauss-2d": (gauss2, x), "times-forcing-poly": (_TimesForcing(poly, PolyFunc((1.0, -0.8))), x[:, :1]),
            "times-forcing-const": (_TimesForcing(const, ConstFunc(2.5)), x),
            "times-forcing-gauss": (_TimesForcing(gauss1, PolyFunc((1.0, -0.8))), x[:, :1])}[name]


@pytest.mark.parametrize("name", ["poly", "const", "gauss-1d", "gauss-2d", "times-forcing-poly",
                                  "times-forcing-const", "times-forcing-gauss"])
def test_fill_writes_the_product_it_replaces(name):
    # fill(x, w, out) writes w * b(x) into the runner's (r, n) slab: bit for
    # bit for the polynomial, constant and forcing-weighted factors; the
    # gauss-conv factor folds w into its exponential row before the monomial
    # recurrence, so each entry moves by a few roundings at most
    b, x = _fill_case(name)
    ref_b = np.asarray(b(x), dtype=float)
    r = 1 if ref_b.ndim == 1 else ref_b.shape[0]
    for w in (1.0, np.random.default_rng(5).normal(size=len(x))):
        ref = np.multiply(ref_b.reshape(r, -1), w)
        out = np.full((r, len(x)), np.nan)
        b.fill(x, w, out)
        if name.startswith("gauss"):
            np.testing.assert_allclose(out, ref, rtol=4 * r * np.finfo(float).eps, atol=0.0)
        else:
            assert np.array_equal(out, ref)


@pytest.mark.parametrize("n, calls", [(1000, [11]), (3000, [5, 5, 1]), (BLOCK_REPLICATES, [1] * 11)])
def test_chain_tail_stacks_its_links_with_the_bits_of_a_link_loop(ts_spec, gauss_spec, n, calls):
    # the 11 links of a 12-point chain on stacked pair arrays, at most
    # _LINK_EVALS pairs per kernel call (one call for a short block),
    # multiplied left to right: the bits of one call per link
    xs = np.random.default_rng(6).random((n, 12, 1))
    for spec in (ts_spec, gauss_spec):
        shapes = []

        def kernel(t, s):
            shapes.append(np.shape(t))
            return spec.kernel(t, s)

        c = np.ones(n)
        for i in range(11):
            c = c * spec.kernel(xs[:, i, :], xs[:, i + 1, :])
        for forcing, ref in ((None, c), (spec.forcing, c * spec.forcing(xs[:, -1, :]))):
            shapes.clear()
            assert np.array_equal(_chain_tail(kernel, forcing, xs), ref)
            assert shapes == [(k, n, 1) for k in calls]
        assert np.array_equal(_chain_tail(kernel, spec.forcing, xs[:, :1]), spec.forcing(xs[:, 0, :]))


@pytest.mark.parametrize("m", [1, 2, 4])
def test_factored_term_holds_one_slab(gauss_spec, m):
    # rank 16 at 16384-tuple blocks: w * B(x1) is filled into the runner's
    # r x block slab, so the traced peak stays below two slabs (a fresh
    # B(x1) array beside the slab was two slabs on its own)
    grid = gauss_spec.domain.grid()
    fac = _first_factors(gauss_spec.kernel, grid, gauss_spec.domain)
    r = fac[0].shape[1]
    assert r == 16
    tail = lambda xs: _chain_tail(gauss_spec.kernel, gauss_spec.forcing, xs)  # noqa: E731
    rng = substream(0, TAG_SOLVE, m)
    tracemalloc.start()
    try:
        _run_term(2 * BLOCK_REPLICATES, m, grid, rng, gauss_spec.mu, gauss_spec.domain,
                  gauss_spec.kernel, fac, tail, 1.0, True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 8 * r * BLOCK_REPLICATES


def test_factored_2d_estimate_bits_do_not_depend_on_blas_threads(tmp_path):
    # 2-D gauss-conv on the 41^2 grid takes the factored path with r = 210:
    # the block Gram (r x r) and the expansion's (G x r)(r x r) product are
    # above OpenBLAS's one-thread cutoff, and estimate.csv keeps its bytes
    src = str(Path(fm.__file__).resolve().parents[1])
    cfg = {"problem": {"name": "gauss-conv", "scale": 0.4, "kappa": 2.0, "bounds": [[0, 1], [0, 1]]},
           "grid": 41, "budget": 30_000, "seed": 8}

    def run(threads):
        out = tmp_path / f"threads-{threads}"
        path = tmp_path / f"cfg-{threads}.json"
        path.write_text(json.dumps({**cfg, "out_dir": str(out)}))
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=str(threads),
                   OMP_NUM_THREADS=str(threads), MKL_NUM_THREADS=str(threads))
        subprocess.run([sys.executable, "-m", "fredmc", "solve", "--config", str(path)], env=env,
                       capture_output=True, text=True, check=True, timeout=300)
        assert json.loads((out / "manifest.json").read_text())["summary"]["first_factor"]["rank"] == 210
        return (out / "estimate.csv").read_bytes()

    assert run(1) == run(2)


def _plan_factor(case):
    """(t-free factor b, rank r, points x of shape (3000, dim)) of one plan case."""
    dim = 1 if case == "times-forcing" else int(case[0])
    box = np.array({1: [[0, 1]], 2: [[0, 1], [0, 1]], 3: [[-1, 0], [0, 1], [0, 2]]}[dim], dtype=float)
    b = fm.build_problem("gauss-conv", {"scale": 0.4, "kappa": 2.0 if dim < 3 else 0.02,
                                        "bounds": box.tolist()}).kernel.factors()[1]
    if case == "times-forcing":
        b = _TimesForcing(b, PolyFunc((1.0, -0.8)))
    x = box[:, 0] + np.random.default_rng(7).random((3000, dim)) * (box[:, 1] - box[:, 0])
    return b, len(b(x[:1])), x


def _plan_buffer(b, r, x, w):
    """(plan, buffer) of the runner's fold of r-row factor b at points x, weights w."""
    plan, rows = _runner_plan(b, r)
    buf = np.empty((plan.rows, len(x)))
    rows(x, w, buf)
    return plan, buf


@pytest.mark.parametrize("case, rank, probes", [("1d", 16, 2), ("2d", 210, 21), ("3d", 165, 46),
                                                ("times-forcing", 16, 2)])
def test_gram_plan_gathers_the_gram_matrix(case, rank, probes):
    # the weighted power sums of w(x) B(x) hold every entry of the r x r
    # Gram matrix: with C0 = c (uncentred) the product T[y] T[l]^T gathers
    # it, from no more products per tuple than the r x (P + 1) of the probe
    # plan it replaced (P probes: the constant and the degree-(p-1) rows)
    b, r, x = _plan_factor(case)
    for w in (1.0, np.random.default_rng(8).normal(size=len(x))):
        vals = np.empty((r, len(x)))
        b.fill(x, w, vals)
        gram = vals @ vals.T
        plan, buf = _plan_buffer(b, r, x, w)
        assert r == rank and plan is b.power_plan() and plan.rows < r + 2
        assert len(buf[plan.y]) * len(buf[plan.l]) <= rank * (probes + 1)
        np.multiply(buf[plan.s_rows], buf[plan.c_row], out=buf[plan.q_rows])
        flat = (buf[plan.y] @ buf[plan.l].T).ravel()
        gathered = np.concatenate([flat, flat[plan.cen]])[plan.gram]
        assert np.array_equal(gathered, gathered.T)
        assert np.max(np.abs(gathered - gram)) <= 4 * np.finfo(float).eps * np.max(np.abs(gram))


class _NoPlan:
    """A t-free factor without ``power_plan``: the runner takes the trivial plan."""

    def __init__(self, b):
        self.b = b

    def __call__(self, x):
        return self.b(x)


@pytest.mark.parametrize("case", ["1d", "2d", "times-forcing"])
@pytest.mark.parametrize("planned", [True, False])
def test_plan_moments_match_the_centred_gram(case, planned):
    # the block's mean, diagonal and co-moment from one product agree with
    # the centred Gram matrix of W = w B(x), with the factor's power-sum
    # plan (which never forms W) and with the trivial plan (W filled as L)
    # alike; the diagonal is the co-moment's
    b, r, x = _plan_factor(case)
    w = 1.0 + 0.5 * np.random.default_rng(9).normal(size=len(x))
    vals = np.empty((r, len(x)))
    b.fill(x, w, vals)
    ref = vals.astype(np.longdouble)
    ref -= ref.mean(axis=1)[:, None]
    ref = ref @ ref.T
    plan, buf = _plan_buffer(b if planned else _NoPlan(b), r, x, w)
    assert (plan is b.power_plan()) == planned
    if not planned:
        assert np.array_equal(buf[plan.l], np.multiply(np.reshape(b(x), (r, -1)), w))
    nb, mean, diag, m2 = _plan_moments(buf, plan, x)
    assert nb == len(x) and np.array_equal(diag, np.diag(m2)) and np.array_equal(m2, m2.T)
    np.testing.assert_allclose(mean, vals.mean(axis=1), rtol=1e-13, atol=0.0)
    assert np.max(np.abs(m2 - ref)) <= 1e-13 * np.max(np.abs(ref))


def _var_reference(spec, budget, seed, monkeypatch):
    """(pointwise_var of a solve, the same from an np.longdouble centred
    co-moment of the blocks W = c v^alpha of the very points and weights
    the runner folded, with c = w e^(-kappa |v|^2) as the factor rounds it)."""
    pnt = fm.power_norms(spec, 12)
    plan = fm.choose_truncation(pnt, spec.f_norm, 0.01)
    alloc = fm.optimal_allocation(pnt, plan.N, budget)
    grid = spec.domain.grid()
    blocks, runner_plan = [], estimator._runner_plan

    def recording(b, r):
        fold, rows = runner_plan(b, r)

        def recorded(x, w, out):
            blocks.append((np.array(x), np.broadcast_to(w, len(x)).copy()))
            rows(x, w, out)
        return fold, recorded

    monkeypatch.setattr(estimator, "_runner_plan", recording)
    est = fm.solve_fredholm_mc(spec, plan, alloc, grid, seed)
    monkeypatch.setattr(estimator, "_runner_plan", runner_plan)
    a_fac, b_fac, _ = spec.kernel.factors()
    a = _first_factors(spec.kernel, grid, spec.domain)[0].astype(np.longdouble)
    alphas = _exponents(len(b_fac.centre), b_fac.p)
    var, used = np.zeros(len(grid), dtype=np.longdouble), 0
    for count in alloc.counts:
        k = -(-int(count) // BLOCK_REPLICATES)
        x = np.concatenate([x for x, _ in blocks[used:used + k]])
        c = np.exp(-b_fac.kappa * np.sum((x - b_fac.centre) ** 2, axis=-1))
        c *= np.concatenate([w for _, w in blocks[used:used + k]])
        v = (x - b_fac.centre).astype(np.longdouble)
        w = c.astype(np.longdouble) * np.prod(v[None, :, :] ** alphas[:, None, :], axis=-1)
        used += k
        w -= w.mean(axis=1)[:, None]
        var += np.einsum("gk,gk->g", a @ (w @ w.T), a) / ((count - 1) * count)
    assert used == len(blocks) > 0
    return est.pointwise_var, var


_PRECISION_CASES = {
    "solve-1d": ({"scale": 0.4, "kappa": 2.0}, 100_000),
    "near-flat": ({"scale": 0.4, "kappa": 1e-4}, 100_000),
    "2d": ({"scale": 0.4, "kappa": 2.0, "bounds": [[0, 1], [0, 1]], "grid": 21}, 4_000),
}


def _plan_moments_uncentred(rows, plan, xs):
    """The plan's fold with every entry from raw sums: C0 = c, not centred."""
    nb = rows.shape[1]
    np.multiply(rows[plan.s_rows], rows[plan.c_row], out=rows[plan.q_rows])
    flat = (rows[plan.y] @ rows[plan.l].T).ravel()
    mean = flat[plan.sums] / nb
    m2 = np.concatenate([flat, flat[plan.cen]])[plan.gram] - nb * np.outer(mean, mean)
    return nb, mean, m2.diagonal().copy(), m2


@pytest.mark.parametrize("case", list(_PRECISION_CASES))
def test_factored_variance_matches_an_extended_precision_reference(case, monkeypatch):
    # entries outside row and column 0 come from raw power sums, so the
    # exponential row c (nearly constant when kappa is small) is centred,
    # C0 = c - mean(c), before its sums: without that, the near-flat field
    # loses digits
    params, budget = _PRECISION_CASES[case]
    spec = fm.build_problem("gauss-conv", {"forcing": {"kind": "const", "value": 1.0}, **params})
    var, ref = _var_reference(spec, budget, 3, monkeypatch)
    assert np.max(np.abs(var - ref) / ref) <= 1e-13
    if case == "near-flat":
        assert spec.kernel.factors()[0].p == 4
        monkeypatch.setattr(estimator, "_plan_moments", _plan_moments_uncentred)
        var, ref = _var_reference(spec, budget, 3, monkeypatch)
        assert np.max(np.abs(var - ref) / ref) > 1e-10


def test_plan_block_moments_do_not_depend_on_blas_threads():
    # the power-sum product is summed over column tiles that OpenBLAS runs
    # on one thread, at r = 16 (a 6 x 8 product per tuple) and r = 210
    # (50 x 25), on full and partial blocks: the block moments keep their
    # bytes at 1 and 2 threads (a product over the whole block moved bits
    # at r = 210)
    script = """
import hashlib
import numpy as np
import fredmc as fm
from fredmc.estimator import _plan_moments, _runner_plan
digest = hashlib.sha256()
for bounds in ([[0, 1]], [[0, 1], [0, 1]]):
    b = fm.build_problem("gauss-conv", {"scale": 0.4, "kappa": 2.0, "bounds": bounds}).kernel.factors()[1]
    for nb in (16384, 9000, 3000):
        rng = np.random.default_rng(nb)
        x = rng.random((nb, len(bounds)))
        plan, rows = _runner_plan(b, len(b(x[:1])))
        buf = np.empty((plan.rows, nb))
        rows(x, 1.0 + rng.random(nb), buf)
        for part in _plan_moments(buf, plan, x)[1:]:
            digest.update(part.tobytes())
print(digest.hexdigest())
"""
    src = str(Path(fm.__file__).resolve().parents[1])

    def run(threads):
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=str(threads),
                   OMP_NUM_THREADS=str(threads), MKL_NUM_THREADS=str(threads))
        return subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                              text=True, check=True, timeout=300).stdout

    assert run(1) == run(2)


@pytest.mark.parametrize("config", [
    # perfbench's solve-2d at a small budget: A is 441 x 210, so (A S) A^T
    # is far above OpenBLAS's one-thread cutoff
    {"problem": {"name": "gauss-conv", "scale": 0.4, "kappa": 2.0, "forcing": {"kind": "const", "value": 1.0},
                 "bounds": [[0, 1], [0, 1]]}, "grid": 21, "norms_method": "mc", "m_max": 8, "budget": 20_000},
    {"problem": {"name": "gauss-conv", "scale": 0.4, "kappa": 2.0}, "grid": 101, "budget": 20_000},
], ids=["solve-2d", "gauss-1d"])
def test_covariance_export_bits_do_not_depend_on_blas_threads(config, tmp_path):
    # Z_hat = (A S) A^T is formed in one-thread row tiles: covariance.csv
    # keeps its bytes at 1 and 2 threads on the factored path
    src = str(Path(fm.__file__).resolve().parents[1])

    def run(threads):
        out = tmp_path / f"threads-{threads}"
        path = tmp_path / f"cfg-{threads}.json"
        path.write_text(json.dumps({**config, "band_method": "gauss-sim", "export_covariance": True,
                                    "seed": 5, "out_dir": str(out)}))
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=str(threads),
                   OMP_NUM_THREADS=str(threads), MKL_NUM_THREADS=str(threads))
        subprocess.run([sys.executable, "-m", "fredmc", "solve", "--config", str(path)], env=env,
                       capture_output=True, text=True, check=True, timeout=300)
        assert json.loads((out / "manifest.json").read_text())["summary"]["first_factor"]["rank"] > 1
        return (out / "covariance.csv").read_bytes()

    assert run(1) == run(2)


def _gauss_bound(kernel, x, h, p):
    """The closed-form remainder bound of degree p, relative to |scale|."""
    if isinstance(kernel, GaussConvKernelDt):
        return 2 * kernel.kappa * h * (_cheb_rest(x, p) + _cheb_rest_dt(x, p))
    return _cheb_rest(x, p)


@pytest.mark.parametrize("which", ["kernel", "kernel_dt"])
@pytest.mark.parametrize("params", [{"scale": 0.4, "kappa": 2.0},
                                    {"scale": -1.3, "kappa": 8.0, "bounds": [[-0.5, 0.5]]},
                                    {"scale": 0.7, "kappa": 0.1, "bounds": [[-1.0, 2.0]]},
                                    {"scale": 0.9, "kappa": 8.0, "bounds": [[0.0, 2.0]]}])
def test_gauss_taylor_bound_holds_on_a_dense_grid(which, params):
    # |K - A B| on a dense grid of the box stays below the closed-form
    # Chebyshev remainder bound at every degree up to the one chosen, which
    # is the least degree within 1e-17 |scale|; the float64 sum of r
    # products adds rounding of up to r * eps * |scale| (times 2 kappa for
    # dK/dt) on top.  x = 2 kappa h^2 runs from 0.45 to 16 over the boxes.
    kernel = getattr(fm.build_problem("gauss-conv", params), which)
    a, b, eps = kernel.factors()
    lo, hi = kernel.box[0]
    t, s = np.linspace(lo, hi, 401)[:, None], np.linspace(lo, hi, 397)[:, None]
    dense = kernel(t[:, None, :], s[None, :, :])
    rounding = 4 * a.p * np.finfo(float).eps * abs(kernel.scale) * max(1.0, 2 * kernel.kappa)
    h = (hi - lo) / 2
    x = 2 * kernel.kappa * h * h
    assert eps == pytest.approx(abs(kernel.scale) * _gauss_bound(kernel, x, h, a.p), rel=1e-12, abs=0)
    assert eps <= 1e-17 * abs(kernel.scale) < abs(kernel.scale) * _gauss_bound(kernel, x, h, a.p - 1)
    assert a.gamma == _cheb_gamma(x, a.p)
    for p in range(1, a.p + 1):  # each degree has its own weights gamma
        a_p, b_p = dataclasses.replace(a, p=p, gamma=_cheb_gamma(x, p)), dataclasses.replace(b, p=p)
        err = np.max(np.abs(dense - a_p(t) @ b_p(s)))
        assert err <= abs(kernel.scale) * _gauss_bound(kernel, x, h, p) + rounding
    assert np.max(np.abs(dense - a(t) @ b(s))) <= eps + rounding


def test_gauss_chebyshev_weights_match_the_bessel_series():
    # exp(y) = I_0(x) + 2 sum_n I_n(x) T_n(y / x): at degree 1 the only weight
    # is I_0(x); at the chosen degree on [-x, x] the polynomial sum_k
    # gamma_k y^k / k! stays within 1e-17 e^|y| of exp(y) up to rounding,
    # also at x = 16, where converting the Chebyshev coefficients to
    # monomials in float64 (numpy's cheb2poly) is off by about 1e-9 e^|y|
    for x in (1e-3, 0.45, 1.0, 16.0):
        assert _cheb_gamma(x, 1) == (pytest.approx(float(np.i0(x)), rel=1e-14, abs=0),)
    for x in (0.45, 1.0, 2.0, 4.0, 16.0):
        p = next(p for p in range(1, 200) if _cheb_rest(x, p) <= 1e-17)
        y = np.linspace(-x, x, 4001)
        poly = np.polynomial.polynomial.polyval(
            y, [g / math.factorial(k) for k, g in enumerate(_cheb_gamma(x, p))])
        assert np.max(np.abs(np.exp(y) - poly) * np.exp(-np.abs(y))) <= 1e-17 + 8 * np.finfo(float).eps
    # the weights grow with x: at x = 40 (900) no factors are offered
    spec = fm.build_problem("gauss-conv", {"scale": 1.0, "kappa": 20.0, "bounds": [[0.0, 2.0]]})
    assert spec.kernel.factors() is None and spec.kernel_dt.factors() is None


@pytest.mark.parametrize("kappa, rank", [(2.0, 210), (0.5, 91)])
def test_gauss_2d_factors_hold_their_bound(kappa, rank):
    # [0, 1]^2: x = 2 kappa h^2 = kappa (h^2 = 1/2); degree p gives
    # p (p + 1) / 2 features, each degree-k row weighted by its own gamma_k
    kernel = fm.build_problem("gauss-conv", {"scale": 0.4, "kappa": kappa,
                                             "bounds": [[0, 1], [0, 1]]}).kernel
    a, b, eps = kernel.factors()
    box = ((0.0, 1.0), (0.0, 1.0))
    t, s = DomainSpec(2, box, 41).grid(), DomainSpec(2, box, 37).grid()
    assert a(t).shape == (len(t), rank) and b(s).shape == (rank, len(s))
    assert eps <= 1e-17 * 0.4 < 0.4 * _cheb_rest(kappa, a.p - 1)
    dense = kernel(t[:, None, :], s[None, :, :])
    rounding = 4 * rank * np.finfo(float).eps * 0.4 * 2 * kappa
    assert np.max(np.abs(dense - a(t) @ b(s))) <= eps + rounding


@settings(derandomize=True, max_examples=12, deadline=None)
@given(size=st.floats(0.05, 1.2), negative=st.booleans(), kappa=st.floats(0.1, 8.0),
       lo=st.floats(-1.0, 1.0), width=st.floats(0.2, 1.0))
def test_gauss_factored_runner_matches_general_runner(ts_pnt, size, negative, kappa, lo, width):
    # width <= 1 and kappa <= 8 keep r <= 37 <= G/2 (G = 101), so the factored path runs
    spec = fm.build_problem("gauss-conv", {"scale": -size if negative else size,
                                           "kappa": kappa, "bounds": [[lo, lo + width]]})
    grid = np.linspace(lo, lo + width, 17)
    alloc = fm.optimal_allocation(ts_pnt, 3, 3000)
    for solver in (fm.solve_fredholm_mc, fm.derivative_solve):
        a = solver(spec, _plan(3), alloc, grid, 5)
        b = solver(_unfactored(spec), _plan(3), alloc, grid, 5)
        assert a.factor_rank is not None and b.factor_rank is None
        _assert_rel_close(a.values, b.values)
        _assert_rel_close(a.pointwise_var, b.pointwise_var)
        _assert_rel_close(a.per_term, b.per_term)


def test_per_term_unbiased_against_oracle(ts_spec, ts_pnt):
    # oracle: deterministic quadrature values of S^m[f] at three points
    grid = np.array([0.25, 0.6, 1.0])
    oracle = np.stack([fm.apply_power_quadrature(ts_spec, m, grid) for m in (1, 2, 3)])
    alloc = fm.optimal_allocation(ts_pnt, 3, 3000)
    runs = np.stack([fm.solve_fredholm_mc(ts_spec, _plan(3), alloc, grid, seed=1000 + s).per_term
                     for s in range(200)])
    mean = runs.mean(axis=0)
    se = runs.std(axis=0, ddof=1) / np.sqrt(200)
    assert np.all(np.abs(mean - oracle) <= 3 * se + 1e-6)


def test_variance_bound(ts_spec, ts_pnt):
    # sup_t Var(term m) <= r_m(U) ||f||^2 / n(m), allow 20% sampling slack
    alloc = fm.optimal_allocation(ts_pnt, 4, 50_000)
    est = fm.solve_fredholm_mc(ts_spec, _plan(4), alloc, np.linspace(0, 1, 21), seed=3)
    for m in range(4):
        bound = 1.2 * ts_pnt.r_U[m] / alloc.counts[m]
        assert est.per_term_var[m].max() <= bound


def test_budget_mismatch_rejected(ts_spec, ts_pnt):
    alloc = fm.optimal_allocation(ts_pnt, 3, 1000)
    with pytest.raises(ValueError, match="N=3"):
        fm.solve_fredholm_mc(ts_spec, _plan(4), alloc, np.linspace(0, 1, 5), seed=0)


# ---------------------------------------------------------------------------
# plug-in covariance


def test_covariance_constant_kernel_is_zero(const_spec, const_pnt):
    plan = fm.choose_truncation(const_pnt, 1.0, 0.01)
    alloc = fm.optimal_allocation(const_pnt, plan.N, 5000)
    grid = np.linspace(0, 1, 9)
    est = fm.solve_fredholm_mc(const_spec, plan, alloc, grid, seed=0, collect_covariance=True)
    cov = fm.estimate_covariance(const_spec, alloc, grid, est.moments)
    assert np.all(cov.Z_hat == 0.0)
    assert cov.sigma_plus_sq == 0.0


def test_covariance_single_term_closed_form(ts_spec, ts_pnt):
    # brute-force moment oracle first: Var(xi^2) for xi ~ U[0,1] from
    # quadrature moments E xi^4 and (E xi^2)^2
    xs = (np.arange(100_000) + 0.5) / 100_000
    var_sq = np.mean(xs ** 4) - np.mean(xs ** 2) ** 2
    assert var_sq == pytest.approx(4 / 45, rel=1e-8)

    grid = np.array([0.5, 1.0])
    alloc = fm.optimal_allocation(ts_pnt, 1, 1_000_000)
    est = fm.solve_fredholm_mc(ts_spec, _plan(1, eps=0.4), alloc, grid, seed=3,
                               collect_covariance=True)
    cov = fm.estimate_covariance(ts_spec, alloc, grid, est.moments)
    # standard error of the sample covariance from the centered 4th moment
    n = alloc.counts[0]
    for i, t in enumerate(grid):
        for j, s in enumerate(grid):
            m22 = t ** 2 * s ** 2 * np.mean((xs ** 2 - 1 / 3) ** 4)
            se = np.sqrt((m22 - (t * s * var_sq) ** 2) / n)
            assert abs(cov.Z_hat[i, j] - t * s * var_sq) <= 3 * se


def test_covariance_symmetry_exact(ts_spec, ts_pnt):
    grid = np.linspace(0, 1, 17)
    alloc = fm.optimal_allocation(ts_pnt, 3, 10_000)
    est = fm.solve_fredholm_mc(ts_spec, _plan(3), alloc, grid, seed=5, collect_covariance=True)
    cov = fm.estimate_covariance(ts_spec, alloc, grid, est.moments)
    assert np.array_equal(cov.Z_hat, cov.Z_hat.T)
    assert np.all(np.diag(cov.Z_hat) >= 0)


def test_covariance_refuses_degenerate_terms(ts_spec, ts_pnt):
    from fredmc.estimator import TermMoments
    tm = TermMoments(m=1, theta=1.0)
    tm.merge_block(np.ones((3, 1)), full=True)
    with pytest.raises(fm.BudgetError, match="too few"):
        fm.estimate_covariance(ts_spec, None, np.linspace(0, 1, 3), [tm])


def test_covariance_requires_collection(ts_spec, ts_pnt):
    alloc = fm.optimal_allocation(ts_pnt, 2, 1000)
    est = fm.solve_fredholm_mc(ts_spec, _plan(2), alloc, np.linspace(0, 1, 3), seed=0)
    assert est.moments is None


# ---------------------------------------------------------------------------
# derivative estimator


def test_derivative_constant_field(ts_spec, ts_pnt):
    # V(t,s) = s, y = 1.5 s: Y(t) = 1 + int s * 1.5 s ds = 1.5 everywhere
    plan = fm.choose_truncation(ts_pnt, 1.0, 0.01)
    alloc = fm.optimal_allocation(ts_pnt, plan.N, 100_000)
    est = fm.derivative_solve(ts_spec, plan, alloc, np.linspace(0, 1, 11), seed=11)
    tol = 0.5 * plan.epsilon + 4 * np.sqrt(est.pointwise_var.max())
    assert np.max(np.abs(est.values - 1.5)) <= tol
    assert est.mode == "derivative"


def test_derivative_zero_kernel_dt(const_spec, const_pnt):
    # constant kernel: V = 0, f' = 0, so Y = 0 exactly
    plan = fm.choose_truncation(const_pnt, 1.0, 0.01)
    alloc = fm.optimal_allocation(const_pnt, plan.N, 5000)
    est = fm.derivative_solve(const_spec, plan, alloc, np.linspace(0, 1, 5), seed=0)
    assert np.all(est.values == 0.0)


def test_derivative_term1_variance(ts_spec, ts_pnt):
    # Var(V(t,zeta) f(zeta)) = Var(zeta^2) = 1/5 - 1/9, from the same
    # moment oracle as the covariance fixture
    plan = fm.choose_truncation(ts_pnt, 1.0, 0.01)
    alloc = fm.optimal_allocation(ts_pnt, plan.N, 200_000)
    est = fm.derivative_solve(ts_spec, plan, alloc, np.array([0.5]), seed=2)
    from fredmc.allocation import counts_from_weights
    _, counts, _ = counts_from_weights(alloc.r_u, plan.N + 1, alloc.n_total)
    assert est.per_term_var[0, 0] * counts[0] == pytest.approx(4 / 45, rel=0.1)


def test_derivative_extends_power_norms_when_table_is_short(ts_spec):
    # the extra term needs r_{N+1}(U); with m_max == N it is taken from the
    # submultiplicative bound min_k r_k r_{N+1-k} of the stored table
    pnt = fm.power_norms(ts_spec, m_max=3)
    plan = fm.TruncationPlan(0.05, 3, 0.0, "fit-based")
    alloc = fm.optimal_allocation(pnt, 3, 10_000)
    est = fm.derivative_solve(ts_spec, plan, alloc, np.array([0.5]), seed=1)
    assert est.per_term.shape[0] == 4
    assert np.all(np.isfinite(est.values))


def test_derivative_extends_r_u_by_submultiplicativity(ts_spec):
    # r_4(U) <= min(r_1 r_3, r_2 r_2) = 0.04 here, where the ratio
    # extrapolation r_3^2 / r_2 would give 0.05; the counts follow the bound
    from fredmc.allocation import counts_from_weights
    r_u = np.array([0.5, 0.2, 0.1])
    pnt = PowerNormTable(3, np.sqrt(r_u), r_u, "analytic")
    alloc = fm.optimal_allocation(pnt, 3, 10_000)
    est = fm.derivative_solve(ts_spec, _plan(3), alloc, np.array([0.5]), seed=1)
    _, counts, _ = counts_from_weights(np.append(r_u, 0.04), 4, 10_000)
    assert est.n_used == int(np.sum(np.arange(1, 5) * counts))


def test_derivative_requires_kernel_dt(ts_spec):
    spec = ProblemSpec(domain=ts_spec.domain, mu=ts_spec.mu, kernel=ts_spec.kernel,
                       forcing=ts_spec.forcing, envelope_R=ts_spec.envelope_R,
                       metric=ts_spec.metric, kernel_dt=None)
    with pytest.raises(fm.UnsupportedDerivative):
        fm.derivative_solve(spec, _plan(2), fm.optimal_allocation(
            fm.power_norms(spec, 4), 2, 100), np.linspace(0, 1, 3), seed=0)


def test_derivative_forcing_by_central_difference(ts_spec, ts_pnt):
    spec = ProblemSpec(domain=ts_spec.domain, mu=ts_spec.mu, kernel=ts_spec.kernel,
                       forcing=ts_spec.forcing, envelope_R=ts_spec.envelope_R,
                       metric=ts_spec.metric, kernel_dt=ts_spec.kernel_dt, forcing_dt=None)
    plan = fm.choose_truncation(ts_pnt, 1.0, 0.01)
    alloc = fm.optimal_allocation(ts_pnt, plan.N, 50_000)
    grid = np.array([0.3, 0.7])
    a = fm.derivative_solve(spec, plan, alloc, grid, seed=4)
    b = fm.derivative_solve(ts_spec, plan, alloc, grid, seed=4)
    assert np.allclose(a.values, b.values, atol=1e-9)


# ---------------------------------------------------------------------------
# geometric randomization


def test_geometric_zero_depth_contributes_forcing(const_spec, const_pnt):
    est = fm.solve_geometric(const_spec, 0.5, 50, 500, np.linspace(0, 1, 3), seed=8,
                             pnt=const_pnt)
    # for the constant kernel each depth-tau row equals 0.5^tau exactly,
    # and depth 0 rows are exactly the forcing
    assert np.any(np.all(est.per_term == 1.0, axis=1))
    logs = np.log2(est.per_term[:, 0])
    assert np.allclose(logs, np.round(logs), atol=1e-12)


def test_geometric_mean_constant_kernel(const_spec, const_pnt):
    # y_lam = sum (lam gamma)^m = 4/3; outer noise sd ~ sqrt(.127*4/M)
    est = fm.solve_geometric(const_spec, 0.5, 20_000, 20_000, np.linspace(0, 1, 3),
                             seed=5, pnt=const_pnt)
    assert np.allclose(est.values, 4 / 3, atol=0.02)
    assert est.mode == "geometric"


def test_geometric_tracks_damped_solution(ts_spec, ts_pnt):
    grid = np.linspace(0, 1, 11)
    ref, *_ = fm.damped_solution_oracle(ts_spec, 0.5, grid)
    est = fm.solve_geometric(ts_spec, 0.5, 1000, 1_000_000, grid, seed=9, pnt=ts_pnt)
    # outer randomization noise at t=1: Var = (E 9^-tau - (E 3^-tau)^2)*4/M
    sd = np.sqrt((0.5 / (1 - 0.5 / 9) - 0.6 ** 2) * 4 / 1000)
    assert np.max(np.abs(est.values - ref)) <= 4 * sd
    assert est.pointwise_var.max() > 0


def test_geometric_contractivity_guard():
    spec = fm.build_problem("constant", {"gamma": 1.2})
    with pytest.raises(fm.ContractivityError):
        fm.solve_geometric(spec, 0.9, 10, 1000, np.linspace(0, 1, 3), seed=0)


def test_geometric_cost_guard(const_spec, const_pnt):
    # lam=0.9 makes depths heavy-tailed; with budget 10 and M=2 the guard
    # must trip for some seed
    tripped = False
    for seed in range(40):
        try:
            fm.solve_geometric(const_spec, 0.9, 2, 10, np.linspace(0, 1, 3), seed=seed,
                               pnt=const_pnt)
        except fm.BudgetError:
            tripped = True
            break
    assert tripped


def test_geometric_parameter_validation(const_spec, const_pnt):
    with pytest.raises(ValueError):
        fm.solve_geometric(const_spec, 1.5, 10, 100, np.linspace(0, 1, 3), seed=0, pnt=const_pnt)
    with pytest.raises(ValueError):
        fm.solve_geometric(const_spec, 0.5, 1, 100, np.linspace(0, 1, 3), seed=0, pnt=const_pnt)
