import dataclasses
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial import polynomial as P

import fredmc as fm
from fredmc.problem import (_NORM_GRID, _ROW_CHUNK_EVALS, DomainSpec, MeasureSampler, Metric,
                            ProblemSpec, _power_norms_mc, _power_norms_quadrature)
from fredmc.registry import GaussConvKernel, _horner
from fredmc.rng import TAG_NORM_MC, substream


def test_operator_norm_ts_S(ts_spec):
    # sup_t t * int_0^1 s ds = 1 * 1/2, closed form
    assert fm.operator_norm(ts_spec, "S") == pytest.approx(0.5, abs=1e-6)


def test_operator_norm_constant(const_spec):
    # constant kernel over a unit measure
    assert fm.operator_norm(const_spec, "S") == pytest.approx(0.5, abs=1e-9)


def test_operator_norm_ts_U(ts_spec):
    # U has kernel t^2 s^2: sup_t t^2 * int s^2 ds = 1/3
    assert fm.operator_norm(ts_spec, "U") == pytest.approx(1.0 / 3.0, abs=1e-6)


def test_operator_norm_rejects_nonfinite():
    dom = DomainSpec(1, ((0.0, 1.0),))

    def bad_kernel(t, s):
        t, s = np.asarray(t), np.asarray(s)
        d2 = np.sum((t - s) ** 2, axis=-1)
        return np.where(d2 < 0.25, np.nan, 1.0)

    spec = ProblemSpec(domain=dom, mu=MeasureSampler(), kernel=bad_kernel,
                       forcing=lambda x: np.ones(np.asarray(x).shape[:-1]),
                       envelope_R=lambda x: np.ones(np.asarray(x).shape[:-1]),
                       metric=Metric("holder", 1.0, 1.0))
    with pytest.raises(ValueError, match="non-finite"):
        fm.operator_norm(spec, "S")


def test_power_norms_ts_U_closed_form(ts_pnt):
    # iterated U kernel t^2 s^2 (int x^4 dx)^(m-1), sup-row-sum 1/3 * (1/5)^(m-1)
    for m in range(1, 4):
        assert ts_pnt.r_U[m - 1] == pytest.approx((1 / 3) * (1 / 5) ** (m - 1), rel=1e-4)


def test_power_norms_constant(const_pnt):
    for m in range(1, 11):
        assert const_pnt.r_S[m - 1] == pytest.approx(0.5 ** m, rel=1e-9)


def test_r2_S_matrix_power_matches_closed_form(ts_pnt):
    # kernel of S^2 is t*s*int x^2 dx; r_2 = (1/2)*(1/3)
    assert abs(ts_pnt.r_S[1] - 1.0 / 6.0) <= 1e-6


def test_analytic_registry_matches_quadrature(ts_spec, ts_pnt):
    # the Gauss-Legendre rule is exact on the polynomial kernel t*s
    pnt_a = fm.power_norms(ts_spec, m_max=12, method="analytic")
    assert np.allclose(pnt_a.r_S, ts_pnt.r_S, rtol=1e-12, atol=0)
    assert np.allclose(pnt_a.r_U, ts_pnt.r_U, rtol=1e-12, atol=0)


def test_analytic_norm_integrates_abs_b_exactly():
    # b(s) = 3s - 1 changes sign at 1/3: int |b| = 1/6 + 2/3 = 5/6; a 4096-point
    # mean gave r_1(S) = 0.8333333134651184, below the true norm
    spec = fm.build_problem("separable-poly", {"a": [1.0], "b": [-1.0, 3.0]})
    assert spec.analytic_norms(1, "S") == pytest.approx(5 / 6, rel=2e-16)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(coeffs=st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=7),
       x=st.lists(st.floats(allow_nan=True, allow_infinity=True), min_size=1, max_size=9))
def test_horner_is_bitwise_polyval(coeffs, x):
    # degrees 0-6 on inputs that include NaN, +-inf and signed zeros
    x = np.array(x + [np.nan, np.inf, -np.inf, -0.0])
    with np.errstate(invalid="ignore", over="ignore"):
        fast, ref = _horner(x, tuple(coeffs)), P.polyval(x, coeffs)
    assert fast.dtype == ref.dtype and fast.tobytes() == ref.tobytes()


@pytest.mark.parametrize("which", ["r_S", "r_U"])
def test_submultiplicativity(ts_pnt, which):
    r = getattr(ts_pnt, which)
    for m in range(1, 7):
        for k in range(1, 7):
            assert r[m + k - 1] <= r[m - 1] * r[k - 1] * (1 + 1e-9)


def test_submultiplicativity_mc(ts_spec):
    pnt = fm.power_norms(ts_spec, m_max=6, method="mc")
    r = pnt.r_U
    for m in range(1, 4):
        for k in range(1, 3):
            assert r[m + k - 1] <= r[m - 1] * r[k - 1] * 1.05


def test_power_norms_mc_rows_are_chunked():
    # 2-D gauss-conv on a 41^2 grid: unchunked, the first factor, its
    # absolute value and the 2-D difference array behind it hold four
    # G x 4096 float arrays (220 MB); chunked, four arrays of one row chunk
    spec = fm.build_problem("gauss-conv", {"scale": 0.4, "kappa": 2.0, "bounds": [[0, 1], [0, 1]]})
    spec = dataclasses.replace(spec, domain=dataclasses.replace(spec.domain, grid_points_per_dim=41))
    n = 4096
    tracemalloc.start()
    try:
        r = _power_norms_mc(spec, 2, "S", n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 5 * 8 * _ROW_CHUNK_EVALS < 4 * 8 * n * len(spec.domain.grid())
    rng = substream(spec.mu.seed_stream_id, TAG_NORM_MC)
    grid = spec.domain.grid()
    for m in (1, 2):
        xs = spec.mu.sample(spec.domain, n * m, rng).reshape(n, m, 2)
        chain = np.abs(spec.kernel(xs[:, 0, :], xs[:, 1, :])) if m == 2 else np.ones(n)
        first = np.abs(spec.kernel(grid[:, None, :], xs[None, :, 0, :]))
        # same products, summed by BLAS in a partition-dependent order
        assert r[m - 1] == pytest.approx(np.max(first @ chain) / n, rel=n * np.finfo(float).eps)


def test_mc_power_norms_name_t_and_x_of_a_nonfinite_kernel_value(gauss_spec):
    # gauss-conv with NaN for t > 0.7: the runner names the first such grid
    # point (0.7 + 1 ulp) and a tuple's x instead of returning NaN norms
    k = gauss_spec.kernel
    spec = dataclasses.replace(gauss_spec, kernel=lambda t, s: np.where(np.asarray(t)[..., 0] > 0.7,
                                                                        np.nan, k(t, s)))
    with pytest.raises(ValueError, match=r"non-finite integrand at t=\[0\.71?\], x=\[\[0\."):
        fm.power_norms(spec, 6, "mc")


@pytest.mark.parametrize("which", ["S", "U"])
def test_power_norms_refuse_a_nan_from_any_method(ts_spec, which):
    # a library analytic_norms callable with NaN past m = 2: NaN >= 1 is
    # False, so a radius check alone would return the table
    table = fm.power_norms(ts_spec, 6)

    def norms(m, w):
        return np.nan if m > 2 and w == which else getattr(table, f"r_{w}")[m - 1]

    with pytest.raises(ValueError, match="analytic power norms are not all numbers"):
        fm.power_norms(dataclasses.replace(ts_spec, analytic_norms=norms), 6, "analytic")


def _norm_operator(spec, q):
    # w K_L(t, x) on the q-node Gauss-Legendre rule x, w over every point t
    # of the norms' sup: the nodes (whose rows are A) and the fixed grid
    x, w = spec.mu.gauss_nodes(spec.domain, q)
    t = np.concatenate([x, spec.domain.grid(_NORM_GRID[spec.domain.dim])])
    k = spec.kernel(t[:, None, :], x[None, :, :])
    return len(x), {"S": w * k, "U": w * (k * k)}


def _dense_power_norms(spec, m_max, q):
    # the matrix powers E_{m+1} = E_m @ A over every row, reduced by
    # absolute row sums
    n, E = _norm_operator(spec, q)
    r = {L: [] for L in E}
    for L in E:
        A = E[L][:n]
        for _ in range(m_max):
            r[L].append(float(np.max(np.abs(E[L]).sum(axis=1))))
            E[L] = E[L] @ A
    return {L: np.array(v) for L, v in r.items()}


@pytest.mark.parametrize("spec", [
    fm.fixture_constant_half(), fm.fixture_ts(), fm.fixture_gauss(),
    fm.build_problem("gauss-conv", {"scale": -0.4, "kappa": 2.0})],
    ids=["constant", "ts", "gauss", "gauss-negative"])
def test_power_norms_vector_chain_matches_matrix_powers(spec):
    # one-signed kernels: |E A^(m-1)| = |E| |A|^(m-1), so the vector chain
    # sums the same positive terms as the matrix powers, in another order
    r = fm.power_norms(spec, 12, "quadrature")
    ref = _dense_power_norms(spec, 12, r.accuracy["q"])
    for L, got in (("S", r.r_S), ("U", r.r_U)):
        assert got[0] == ref[L][0]
        np.testing.assert_allclose(got, ref[L], rtol=1e-14, atol=0)


def test_mixed_sign_S_keeps_matrix_powers_and_U_takes_the_chain():
    # K(t, s) = (t - 1/2) s changes sign, K*K does not
    spec = fm.build_problem("separable-poly", {"a": [-0.5, 1.0], "b": [0.0, 1.0]})
    (r_S, r_U), q, _ = _power_norms_quadrature(spec, 12)
    assert np.array_equal(r_S, _dense_power_norms(spec, 12, q)["S"])
    # the chain's products over every row, the node rows included
    n, E = _norm_operator(spec, q)
    absE = np.abs(E["U"])
    absA = absE[:n]
    g, chain = np.ones(n), [float(np.max(absE.sum(axis=1)))]
    for _ in range(11):
        g = (absA * g).sum(axis=1)
        chain.append(float(np.max((absE * g).sum(axis=1))))
    assert np.array_equal(r_U, chain)


_MC_BITS = """
import fredmc as fm
from fredmc.problem import _power_norms_mc
spec = fm.build_problem("gauss-conv", {"scale": 0.4, "kappa": 2.0, "bounds": [[0, 1], [0, 1]],
                                       "grid": 21})
print([float(r).hex() for L in ("S", "U") for r in _power_norms_mc(spec, 3, L)])
for spec in (fm.fixture_gauss(), fm.build_problem("gauss-conv", {"scale": 0.4, "kappa": 2.0,
                                                                  "bounds": [[0, 1], [0, 1]]})):
    pnt = fm.power_norms(spec, 12, "quadrature")
    print([float(r).hex() for r in (*pnt.r_S, *pnt.r_U)])
"""


def test_power_norms_mc_bits_do_not_depend_on_blas_threads():
    # MC norms of 2-D gauss-conv on the 21^2 grid (a BLAS gemv over the rows
    # moved r_3(S) and r_2(U) by one ulp between one and two BLAS threads)
    # and the quadrature norms of 1-D and 2-D gauss-conv
    src = str(Path(fm.__file__).resolve().parents[1])

    def bits(threads):
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=str(threads),
                   OMP_NUM_THREADS=str(threads), MKL_NUM_THREADS=str(threads))
        return subprocess.run([sys.executable, "-c", _MC_BITS], env=env, capture_output=True,
                              text=True, check=True, timeout=300).stdout

    one = bits(1)
    assert one.startswith("['0x") and one == bits(2)


def test_power_norms_evaluate_the_kernel_once(gauss_spec, gauss_pnt):
    # once per Gauss-Legendre rule tried: q = 12 and q = 24 on gauss-conv,
    # each rule's nodes and fixed grid in one row chunk
    calls = []

    def kernel(t, s):
        calls.append(1)
        return gauss_spec.kernel(t, s)

    pnt = fm.power_norms(dataclasses.replace(gauss_spec, kernel=kernel), 12, "quadrature")
    assert len(calls) == 2 and pnt.accuracy["q"] == 24
    assert np.array_equal(pnt.r_S, gauss_pnt.r_S) and np.array_equal(pnt.r_U, gauss_pnt.r_U)


def test_power_norms_match_a_fine_reference(gauss_spec, gauss_pnt):
    # sup over the 200 Gauss-Legendre nodes and 20,001 grid points of
    # E A^(m-1) 1 (the row sums of a positive kernel's iterated matrix);
    # the 512-node midpoint rule was 5.2e-6 off
    x, w = gauss_spec.mu.gauss_nodes(gauss_spec.domain, 200)
    t = np.concatenate([x, gauss_spec.domain.grid(20_001)])
    k = gauss_spec.kernel(t[:, None, :], x[None, :, :])
    for got, E in ((gauss_pnt.r_S, w * k), (gauss_pnt.r_U, w * k * k)):
        v, ref = np.ones(len(x)), []
        for _ in range(12):
            ref.append(np.max(E @ v))
            v = E[:len(x)] @ v
        np.testing.assert_allclose(got, ref, rtol=1e-12, atol=0)


def test_power_norms_do_not_depend_on_the_output_grid():
    # the norms' sup runs over a fixed grid; the 512-node midpoint rule
    # took the output grid above 1-D, where operator_norm read
    # 0x1.29409f0858036p-2 at grid 10 and 0x1.2bdd983a2d576p-2 at grid 11
    bits = set()
    for grid in (10, 11, 41):
        spec = fm.build_problem("gauss-conv", {"scale": 0.4, "kappa": 2.0, "grid": grid,
                                               "bounds": [[0, 1], [0, 1]]})
        pnt = fm.power_norms(spec, 12, "quadrature")
        bits.add((pnt.r_S.tobytes(), pnt.r_U.tobytes(), fm.operator_norm(spec, "S"),
                  fm.operator_norm(spec, "U")))
    assert len(bits) == 1


def test_contractivity_error_when_beta_ge_one():
    spec = fm.build_problem("constant", {"gamma": 1.2})
    with pytest.raises(fm.ContractivityError):
        fm.power_norms(spec, m_max=6)


def test_spectral_radius_proxy(ts_pnt, gauss_pnt):
    # r_m(U)^(1/m) is non-increasing up to 2%
    for pnt in (ts_pnt, gauss_pnt):
        roots = pnt.r_U ** (1.0 / np.arange(1, pnt.m_max + 1))
        assert np.all(roots[1:] <= roots[:-1] * 1.02)


def test_natural_distance_holder(ts_spec):
    assert fm.natural_distance(ts_spec, 0.2, 0.7) == pytest.approx(0.5, abs=1e-12)


def test_natural_distance_zero_at_equal_points(ts_spec):
    spec_lp = fm.ProblemSpec(domain=ts_spec.domain, mu=ts_spec.mu, kernel=ts_spec.kernel,
                             forcing=ts_spec.forcing, envelope_R=ts_spec.envelope_R,
                             metric=Metric("log-power", 2.0, 1.0))
    for spec in (ts_spec, spec_lp):
        assert fm.natural_distance(spec, 0.37, 0.37) == 0.0


def test_semi_distance_axioms(ts_spec):
    rng = np.random.default_rng(0)
    pts = rng.random((1000, 3))
    for t, s, u in pts:
        d_ts = fm.natural_distance(ts_spec, t, s)
        d_st = fm.natural_distance(ts_spec, s, t)
        assert d_ts == d_st
        assert d_ts >= 0
        assert d_ts <= fm.natural_distance(ts_spec, t, u) + fm.natural_distance(ts_spec, u, s) + 1e-9


def test_log_power_distance_formula():
    m = Metric("log-power", 2.0, 1.0)
    spec = fm.fixture_ts()
    spec_lp = fm.ProblemSpec(domain=spec.domain, mu=spec.mu, kernel=spec.kernel,
                             forcing=spec.forcing, envelope_R=spec.envelope_R, metric=m)
    r = 0.3
    expected = min(abs(np.log(r)) ** -2.0, 1.0)
    assert fm.natural_distance(spec_lp, 0.0, r) == pytest.approx(expected, rel=1e-12)


def test_log_power_distance_is_the_bands_radius_map():
    # on [0, 5] the distance grows with |t - s| and stays at scale beyond e,
    # where |log|t - s|| exceeds 1 again: the map the band's entropy inverts
    m = Metric("log-power", 1.0, 1.0)
    spec = fm.fixture_ts()
    spec_lp = fm.ProblemSpec(domain=DomainSpec(1, ((0.0, 5.0),)), mu=spec.mu, kernel=spec.kernel,
                             forcing=spec.forcing, envelope_R=spec.envelope_R, metric=m)
    rs = np.linspace(0.0, 5.0, 501)
    d = np.array([fm.natural_distance(spec_lp, 0.0, r) for r in rs])
    assert np.all(np.diff(d) >= 0.0)
    assert np.all(d[rs > np.e] == m.scale)
    assert np.array_equal(d, m.at_radius(rs))


def _ks_distance(sample, cdf):
    xs = np.sort(sample)
    n = len(xs)
    f = cdf(xs)
    return max(np.max(np.abs(np.arange(1, n + 1) / n - f)),
               np.max(np.abs(np.arange(0, n) / n - f)))


def test_uniform_sampler_in_box_and_ks():
    dom = DomainSpec(2, ((0.0, 1.0), (-1.0, 3.0)))
    mu = MeasureSampler()
    rng = np.random.default_rng(123)
    draws = mu.sample(dom, 10_000, rng)
    assert np.all(draws >= dom.lows) and np.all(draws <= dom.highs)
    assert _ks_distance(draws[:, 0], lambda x: x) <= 0.02
    assert _ks_distance(draws[:, 1], lambda x: (x + 1) / 4) <= 0.02


def test_inverse_cdf_sampler_ks():
    # inverse CDF u -> u^2 targets F(x) = sqrt(x) on [0,1]
    dom = DomainSpec(1, ((0.0, 1.0),))
    mu = MeasureSampler(kind="product-inverse-cdf", inverse_cdfs=(lambda u: u ** 2,))
    rng = np.random.default_rng(7)
    draws = mu.sample(dom, 10_000, rng)
    assert np.all((draws >= 0.0) & (draws <= 1.0))
    assert _ks_distance(draws[:, 0], np.sqrt) <= 0.02


def test_inverse_cdf_quadrature_consistent_with_sampling():
    # int x dmu for density 1/(2 sqrt(x)) is int_0^1 u^2 du = 1/3
    dom = DomainSpec(1, ((0.0, 1.0),))
    mu = MeasureSampler(kind="product-inverse-cdf", inverse_cdfs=(lambda u: u ** 2,))
    nodes, w = mu.quad_nodes(dom, 512)
    assert float(np.sum(nodes[:, 0]) * w) == pytest.approx(1 / 3, rel=1e-5)


@pytest.mark.parametrize("fixture", ["const_spec", "ts_spec", "gauss_spec"])
def test_envelope_dominates_kernel(fixture, request):
    spec = request.getfixturevalue(fixture)
    rng = np.random.default_rng(99)
    t = spec.mu.sample(spec.domain, 10_000, rng)
    s = spec.mu.sample(spec.domain, 10_000, rng)
    k = np.asarray(spec.kernel(t, s))
    R = np.asarray(spec.envelope_R(s))
    assert np.all(np.abs(k) <= R + 1e-12)


@pytest.mark.parametrize("fixture", ["const_spec", "ts_spec", "gauss_spec"])
def test_kernel_increment_bounded_by_distance(fixture, request):
    spec = request.getfixturevalue(fixture)
    rng = np.random.default_rng(5)
    t = spec.mu.sample(spec.domain, 10_000, rng)
    s = spec.mu.sample(spec.domain, 10_000, rng)
    x = spec.mu.sample(spec.domain, 10_000, rng)
    inc = np.abs(np.asarray(spec.kernel(t, x)) - np.asarray(spec.kernel(s, x)))
    R = np.asarray(spec.envelope_R(x))
    d = spec.metric.scale * np.sqrt(np.sum((t - s) ** 2, axis=-1)) ** spec.metric.exponent
    assert np.all(inc <= R * d + 1e-9)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_gauss_conv_kernel_keeps_the_bits_of_the_summed_difference(dim):
    kernel = GaussConvKernel(0.4, 2.0)
    rng = np.random.default_rng(dim)
    t, s = rng.random((61, 1, dim)), rng.random((1, 2000, dim))
    summed = 0.4 * np.exp(-2.0 * np.sum((t - s) ** 2, axis=-1))
    assert kernel(t, s).tobytes().hex() == summed.tobytes().hex()


def test_gauss_conv_kernel_forms_no_tile_by_dim_array():
    # one 2-D call on a 122 x 16384 runner tile returns 16 MB; the t - s
    # difference over both axes alone would be 32 MB
    kernel = GaussConvKernel(0.4, 2.0)
    rng = np.random.default_rng(0)
    t, s = rng.random((122, 1, 2)), rng.random((1, 16384, 2))
    tracemalloc.start()
    try:
        kernel(t, s)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2.2 * 122 * 16384 * 8


def test_f_norm_attained_on_grid(ts_spec):
    fine = ts_spec.domain.grid(2049)
    attained = float(np.max(np.abs(ts_spec.forcing(fine))))
    assert ts_spec.f_norm >= attained * 0.99


def test_f_norm_is_exact_for_poly_forcing():
    # f = t - t^3 peaks at the irrational 1/sqrt(3), which no grid point hits
    spec = fm.build_problem("constant", {"gamma": 0.5,
                                         "forcing": {"kind": "poly", "coeffs": [0.0, 1.0, 0.0, -1.0]}})
    assert spec.f_norm == pytest.approx(2.0 / (3.0 * np.sqrt(3.0)), rel=0, abs=1e-15)
    # the same exact sup gives sup|a| in the separable-poly norms: r_1(S) = sup|a| int|b|
    spec = fm.build_problem("separable-poly", {"a": [0.0, 1.0, 0.0, -1.0], "b": [1.0]})
    assert spec.analytic_norms(1, "S") == pytest.approx(2.0 / (3.0 * np.sqrt(3.0)), rel=0, abs=1e-15)


def test_r1_equals_operator_norm_same_path(ts_spec, ts_pnt):
    assert ts_pnt.r_S[0] == fm.operator_norm(ts_spec, "S")
    assert ts_pnt.r_U[0] == fm.operator_norm(ts_spec, "U")


def test_domain_validation():
    with pytest.raises(ValueError, match="lower < upper"):
        DomainSpec(1, ((1.0, 0.0),))
    with pytest.raises(ValueError, match="grid"):
        DomainSpec(1, ((0.0, 1.0),), grid_points_per_dim=1)
    with pytest.raises(ValueError, match="bounds"):
        DomainSpec(2, ((0.0, 1.0),))
