import dataclasses

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.polynomial import polynomial as P

import fredmc as fm
from fredmc.cli import _reference_solution
from fredmc.neumann import export_power_csv, tail_bounds
from fredmc.problem import PowerNormTable


def _synthetic_pnt(C, delta, beta, m_max=10):
    m = np.arange(1, m_max + 1)
    r = C * m ** delta * beta ** m
    return PowerNormTable(m_max=m_max, r_S=r, r_U=r ** 2, estimation_method="analytic")


def test_choose_truncation_geometric_half():
    # sum_{m>N} 0.5^m = 0.5^N, so the first N with tail <= 0.01 is 7
    plan = fm.choose_truncation(_synthetic_pnt(1.0, 0.0, 0.5), 1.0, 0.01)
    assert plan.N == 7
    assert plan.tail_bound == pytest.approx(2.0 ** -7, rel=1e-12)


def test_choose_truncation_rejects_large_epsilon():
    with pytest.raises(ValueError, match=r"epsilon must lie in \(0, 0.5\)"):
        fm.choose_truncation(_synthetic_pnt(1.0, 0.0, 0.5), 1.0, 0.6)


def test_choose_truncation_contractivity():
    with pytest.raises(fm.ContractivityError):
        fm.choose_truncation(_synthetic_pnt(1.0, 0.0, 1.01), 1.0, 0.01)


def test_choose_truncation_matches_direct_summation(ts_pnt):
    # independent oracle: brute-force the minimal N for the closed form
    # r_m(S) = 1/2 (1/3)^(m-1) = C beta^m of the t*s kernel
    plan = fm.choose_truncation(ts_pnt, 1.0, 0.01)
    C, delta, beta = 1.5, 0.0, 1 / 3

    def tail(n):
        return sum(C * m ** delta * beta ** m for m in range(n + 1, n + 400))

    brute = 1
    while tail(brute) > 0.01:
        brute += 1
    assert plan.N == brute == 4
    assert plan.tail_bound <= 0.01


def test_choose_truncation_respects_fit_peak():
    # with delta > 0 the fitted bound rises until m = delta/|log beta|
    pnt = _synthetic_pnt(1.0, 3.0, 0.5, m_max=20)
    plan = fm.choose_truncation(pnt, 1.0, 0.49)
    assert plan.N >= int(np.ceil(3.0 / abs(np.log(0.5))))


def test_tail_monotone_refinement(ts_pnt):
    tails = tail_bounds(ts_pnt.r_S, 1.0)
    assert len(tails) == ts_pnt.m_max
    assert np.all(np.diff(tails) < 0)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(C=st.floats(1.0, 4.0), beta=st.floats(0.02, 0.95), m_max=st.integers(2, 40),
       f_norm=st.floats(0.1, 10.0), log_eps=st.floats(-8.0, np.log10(0.49)))
def test_tail_bound_on_submultiplicative_tables(C, beta, m_max, f_norm, log_eps):
    # r_m = C beta^m with C >= 1 is submultiplicative, and its true tail
    # beyond N is C beta^(N+1) / (1 - beta): the bound must cover it, N must
    # be the smallest with tail <= epsilon, and the tail must not rise in N
    r, eps = C * beta ** np.arange(1, m_max + 1), 10.0 ** log_eps
    pnt = PowerNormTable(m_max, r, r ** 2, "analytic")
    if np.all(r >= 1.0):
        with pytest.raises(fm.ContractivityError):
            fm.choose_truncation(pnt, f_norm, eps)
        return
    tails = tail_bounds(r, f_norm)
    assert np.all(np.diff(tails) <= 0)
    if tails[-1] > eps:
        with pytest.raises(ValueError, match=f"m_max = {m_max}"):
            fm.choose_truncation(pnt, f_norm, eps)
        return
    plan = fm.choose_truncation(pnt, f_norm, eps)
    assert plan.tail_bound <= eps and (plan.N == 1 or tails[plan.N - 2] > eps)
    exact = f_norm * C * beta ** (plan.N + 1) / (1.0 - beta)
    assert plan.tail_bound >= exact * (1.0 - 1e-12)


def _gauss_legendre_rule(spec, nodes_per_axis):
    # tensor Gauss-Legendre nodes of the box and their weights for the
    # uniform probability measure, written out independently of fredmc
    g, w = np.polynomial.legendre.leggauss(nodes_per_axis)
    dim = spec.domain.dim
    x = np.stack(np.meshgrid(*[lo + (g + 1) * (hi - lo) / 2 for lo, hi in spec.domain.bounds],
                             indexing="ij"), axis=-1).reshape(-1, dim)
    wx = np.stack(np.meshgrid(*[w / 2] * dim, indexing="ij"), axis=-1).reshape(-1, dim).prod(axis=1)
    return x, wx


def _gauss_legendre_tail(spec, N, nodes_per_axis=24):
    # sup over the output grid of sum_{m>N} S^m[f] = E A^N (I - A)^-1 f(x)
    # from a dense Gauss-Legendre Nystrom discretization of the box
    x, wx = _gauss_legendre_rule(spec, nodes_per_axis)
    A = wx * spec.kernel(x[:, None, :], x[None, :, :])
    t = spec.domain.grid()
    E = wx * spec.kernel(t[:, None, :], x[None, :, :])
    y = np.linalg.solve(np.eye(len(x)) - A, spec.forcing(x))
    return float(np.max(np.abs(E @ np.linalg.matrix_power(A, N) @ y)))


def test_tail_bound_covers_the_true_error_on_2d_gauss():
    # the 2-D gauss-conv solve with MC and with quadrature norms: a fitted
    # decay law put the tail at 0.005209, below the true truncation error
    # 0.005263; the quadrature table's bound is 0.005264
    spec = fm.build_problem("gauss-conv", {"scale": 0.4, "kappa": 2.0, "grid": 21,
                                           "bounds": [[0.0, 1.0], [0.0, 1.0]],
                                           "forcing": {"kind": "const", "value": 1.0}})
    for method in ("mc", "quadrature"):
        plan = fm.choose_truncation(fm.power_norms(spec, m_max=8, method=method), spec.f_norm, 0.01)
        true_error = _gauss_legendre_tail(spec, plan.N)
        assert plan.tail_bound >= true_error
        assert plan.N == 3 and plan.source == method


def test_apply_power_constant(const_spec):
    grid = np.linspace(0, 1, 9)
    vals = fm.apply_power_quadrature(const_spec, 3, grid)
    assert np.allclose(vals, 0.125, atol=1e-12)


def test_apply_power_ts(ts_spec):
    grid = np.linspace(0, 1, 9)
    # S[f](t) = t int s^2 ds = t/3; iterating multiplies by 1/3
    assert np.allclose(fm.apply_power_quadrature(ts_spec, 1, grid), grid / 3, rtol=1e-5, atol=1e-9)
    assert np.allclose(fm.apply_power_quadrature(ts_spec, 2, grid), grid / 9, rtol=1e-5, atol=1e-9)


def test_apply_power_beyond_m_12_and_above_1d(ts_spec):
    grid = np.linspace(0, 1, 5)
    assert np.allclose(fm.apply_power_quadrature(ts_spec, 13, grid), grid / 3 ** 13,
                       rtol=1e-13, atol=0)
    spec2d = fm.build_problem("constant", {"gamma": 0.5, "bounds": [[0, 1], [0, 1]], "grid": 5})
    assert np.allclose(fm.apply_power_quadrature(spec2d, 2, spec2d.domain.grid()), 0.25,
                       rtol=1e-14, atol=0)


def test_oracle_refuses_an_oversize_node_matrix_up_front():
    # 3-D at 24 Gauss-Legendre nodes per axis: a 13824^2 node matrix, 1.5 GB
    spec3d = fm.build_problem("constant", {"gamma": 0.5, "grid": 2,
                                           "bounds": [[0, 1], [0, 1], [0, 1]]})
    spec3d, calls = _counting_kernel(spec3d)
    with pytest.raises(fm.BudgetError, match="node matrix"):
        fm.apply_power_quadrature(spec3d, 1, spec3d.domain.grid())
    assert calls == []


def test_oracle_constant_partial_sum(const_spec):
    plan = fm.TruncationPlan(0.01, 7, 2.0 ** -7, "fit-based")
    vals = fm.truncated_solution_oracle(const_spec, plan, np.linspace(0, 1, 5))
    assert np.allclose(vals, 2.0 - 2.0 ** -7, atol=1e-12)


def test_oracle_ts_partial_sum(ts_spec):
    plan = fm.TruncationPlan(0.01, 5, 0.0, "fit-based")
    grid = np.linspace(0, 1, 11)
    expected = grid * (1 - 3.0 ** -6) / (2 / 3)  # geometric partial sum of t 3^-m
    assert np.allclose(fm.truncated_solution_oracle(ts_spec, plan, grid), expected, rtol=1e-5, atol=1e-9)


def test_oracle_zero_forcing(ts_spec):
    spec = fm.ProblemSpec(domain=ts_spec.domain, mu=ts_spec.mu, kernel=ts_spec.kernel,
                          forcing=lambda x: np.zeros(np.asarray(x).shape[:-1]),
                          envelope_R=ts_spec.envelope_R, metric=ts_spec.metric)
    plan = fm.TruncationPlan(0.01, 6, 0.0, "fit-based")
    assert np.all(fm.truncated_solution_oracle(spec, plan, np.linspace(0, 1, 7)) == 0.0)


def test_oracle_linearity(ts_spec):
    from fredmc.registry import PolyFunc
    plan = fm.TruncationPlan(0.01, 5, 0.0, "fit-based")
    grid = np.linspace(0, 1, 9)

    def with_forcing(f):
        spec = fm.ProblemSpec(domain=ts_spec.domain, mu=ts_spec.mu, kernel=ts_spec.kernel,
                              forcing=f, envelope_R=ts_spec.envelope_R, metric=ts_spec.metric)
        return fm.truncated_solution_oracle(spec, plan, grid)

    y1 = with_forcing(PolyFunc((0.0, 1.0)))
    y2 = with_forcing(PolyFunc((1.0,)))
    y12 = with_forcing(PolyFunc((1.0, 1.0)))
    assert np.allclose(y12, y1 + y2, atol=1e-12)


def test_bias_contract(const_spec, const_pnt, ts_spec, ts_pnt):
    # analytic solutions: y = 2 and y = 1.5 t
    h = 1.0 / 512
    for spec, pnt, y_true in ((const_spec, const_pnt, lambda t: np.full_like(t, 2.0)),
                              (ts_spec, ts_pnt, lambda t: 1.5 * t)):
        plan = fm.choose_truncation(pnt, spec.f_norm, 0.01)
        grid = np.linspace(0, 1, 101)
        y = fm.truncated_solution_oracle(spec, plan, grid)
        assert np.max(np.abs(y - y_true(grid))) <= 0.01 + 10 * h ** 2


def test_damped_solution_oracle(const_spec):
    # f=1, K=0.5, lam=0.5: y_lam = sum (0.25)^m = 4/3
    vals, q, diff = fm.damped_solution_oracle(const_spec, 0.5, np.linspace(0, 1, 5))
    assert np.allclose(vals, 4.0 / 3.0, rtol=1e-15, atol=0)
    assert q == 24 and diff <= 1e-14


def test_damped_oracle_looks_past_the_row_sum_bound():
    # K = 6s - 3 has max row sum 1.5 >= 1/lam but rho = |int K| = 0: the
    # eigenvalues decide, and the series converges
    spec = fm.build_problem("separable-poly", {"a": [1.0], "b": [-3.0, 6.0], "grid": 11})
    grid = spec.domain.grid()
    vals, *_ = fm.damped_solution_oracle(spec, 1.0, grid)
    np.testing.assert_allclose(vals, fm.exact_solution(spec)(grid), rtol=0, atol=1e-14)


def test_export_power_csv(tmp_path, ts_spec):
    path = tmp_path / "powers.csv"
    export_power_csv(path, ts_spec, np.linspace(0, 1, 3), [1, 2])
    lines = path.read_text().splitlines()
    assert lines[0] == "t_1,m,value"
    assert len(lines) == 1 + 3 * 2


def _counting_kernel(spec):
    calls = []

    def kernel(t, s):
        calls.append(np.broadcast_shapes(np.shape(t)[:-1], np.shape(s)[:-1]))
        return spec.kernel(t, s)
    return dataclasses.replace(spec, kernel=kernel), calls


def test_export_power_csv_builds_the_operator_once(tmp_path, gauss_spec):
    # one Nystrom solve per Gauss-Legendre rule serves every m: the kernel
    # calls do not depend on how many powers are written
    grid = np.linspace(0, 1, 7)
    spec, calls = _counting_kernel(gauss_spec)
    export_power_csv(tmp_path / "one.csv", spec, grid, [3])
    one = len(calls)
    path = tmp_path / "powers.csv"
    export_power_csv(path, spec, grid, [3, 1, 2])
    assert len(calls) - one == one
    rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
    assert [int(r[1]) for r in rows] == [3] * 7 + [1] * 7 + [2] * 7
    for k, m in enumerate((3, 1, 2)):
        expected = fm.apply_power_quadrature(gauss_spec, m, grid)
        np.testing.assert_allclose([float(r[2]) for r in rows[7 * k:7 * (k + 1)]], expected,
                                   rtol=1e-14, atol=0)


def test_oracle_names_the_point_of_a_nonfinite_kernel_value(ts_spec):
    node = (np.polynomial.legendre.leggauss(12)[0][5] + 1) / 2  # Gauss-Legendre node 5 of [0, 1]

    def kernel(t, s):
        t, s = np.asarray(t), np.asarray(s)
        return np.where(np.abs(s[..., 0] - node) < 1e-12, np.nan, 0.5) + 0.0 * t[..., 0]

    spec = dataclasses.replace(ts_spec, kernel=kernel)
    plan = fm.TruncationPlan(0.01, 3, 0.0, "fit-based")
    with pytest.raises(ValueError, match=r"non-finite kernel value .*node index 5, point t=.*, "
                                         r"s=\[0\.4373833\]"):
        fm.truncated_solution_oracle(spec, plan, np.linspace(0, 1, 5))


def test_first_power_above_1d_streams_row_chunks():
    # 101^2 grid points x 24^2 nodes: E = w K(t, x) is applied chunk by
    # chunk, never as a whole array
    spec2d = fm.build_problem("constant", {"gamma": 0.5, "bounds": [[0, 1], [0, 1]], "grid": 101})
    spec2d, calls = _counting_kernel(spec2d)
    vals = fm.apply_power_quadrature(spec2d, 1, spec2d.domain.grid())
    assert np.allclose(vals, 0.5, rtol=1e-14, atol=0)
    assert max(shape[0] * shape[1] for shape in calls) <= 2_000_000
    assert sum(shape[1] == 24 ** 2 for shape in calls) > 2  # E's chunks and A at q = 24


def _gauss_legendre_solve(spec, t, lam, nodes_per_axis=64):
    # independent dense reference: y(t) = f(t) + lam E (I - lam A)^-1 f(x)
    # on Gauss-Legendre nodes x, E = w K(t, x), A = w K(x, x)
    x, w = _gauss_legendre_rule(spec, nodes_per_axis)
    A = w * spec.kernel(x[:, None, :], x[None, :, :])
    E = w * spec.kernel(t[:, None, :], x[None, :, :])
    y_nodes = np.linalg.solve(np.eye(len(x)) - lam * A, spec.forcing(x))
    return spec.forcing(t) + lam * E @ y_nodes


def test_damped_oracle_solves_above_1d():
    spec2d = fm.build_problem("constant", {"gamma": 0.5, "bounds": [[0, 1], [0, 1]], "grid": 5})
    vals, *_ = fm.damped_solution_oracle(spec2d, 0.5, spec2d.domain.grid())
    assert np.allclose(vals, 4.0 / 3.0, rtol=1e-14, atol=0)
    gauss2d = fm.build_problem("gauss-conv", {"scale": 0.4, "kappa": 2.0, "grid": 9,
                                              "bounds": [[0, 1], [0, 1]]})
    t = gauss2d.domain.grid()
    vals, q, diff = fm.damped_solution_oracle(gauss2d, 1.0, t)
    assert q == 24 and diff <= 1e-14 * np.max(np.abs(vals))
    assert np.max(np.abs(vals - _gauss_legendre_solve(gauss2d, t, 1.0, 32))) <= 1e-13


def test_reference_is_the_uncapped_nystrom_solution(const_spec, ts_spec, gauss_spec):
    # gauss-conv wants N = 16 at a 1e-8 tail, so a series cut at N = 12 is
    # 3.8e-7 off; the 512-node midpoint series was 3.4e-7 off
    for spec in (const_spec, ts_spec, gauss_spec):
        grid = spec.domain.grid()
        for lam in (1.0, 0.5):
            ref = (_reference_solution(spec) if lam == 1.0
                   else fm.damped_solution_oracle(spec, lam, grid))[0]
            assert np.max(np.abs(ref - _gauss_legendre_solve(spec, grid, lam))) <= 1e-13


def test_closed_form_reference_is_exact_on_ts(ts_spec):
    # the t*s closed form took int b f from 2048 midpoint nodes, 2.98e-8 off 1.5 t
    grid = ts_spec.domain.grid()
    ref, accuracy = _reference_solution(ts_spec)
    assert np.max(np.abs(ref - 1.5 * grid[:, 0])) <= 1e-15
    assert accuracy["q"] == 24 and accuracy["diff"] <= 1e-15


_COEFFS = st.lists(st.floats(-1.0, 1.0, allow_subnormal=False), min_size=1, max_size=3)


@settings(derandomize=True, max_examples=20, deadline=None)
@given(a=_COEFFS, b=_COEFFS, f=_COEFFS)
def test_damped_oracle_matches_the_separable_closed_form(a, b, f):
    # K(t, s) = a(t) b(s) has the one nonzero eigenvalue int a b, so the
    # series converges for |int a b| < 1
    c = P.polyval(1.0, P.polyint(P.polymul(a, b)))
    assume(abs(c) < 0.95 and any(a))
    spec = fm.build_problem("separable-poly", {"a": a, "b": b, "grid": 11,
                                               "forcing": {"kind": "poly", "coeffs": f}})
    grid = spec.domain.grid()
    vals, *_ = fm.damped_solution_oracle(spec, 1.0, grid)
    np.testing.assert_allclose(vals, fm.exact_solution(spec)(grid), rtol=0, atol=1e-12)


def test_reference_refuses_a_divergent_series():
    spec = fm.build_problem("gauss-conv", {"scale": 2.0, "kappa": 2.0,
                                           "forcing": {"kind": "const", "value": 1.0}})
    with pytest.raises(fm.ContractivityError):
        _reference_solution(spec)
