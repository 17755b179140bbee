import numpy as np
import pytest

import fredmc as fm
from fredmc.problem import PowerNormTable


def _pnt_from_ru(r_u):
    r_u = np.asarray(r_u, dtype=float)
    return PowerNormTable(m_max=len(r_u), r_S=np.sqrt(r_u), r_U=r_u, estimation_method="analytic")


@pytest.fixture
def quarter_pnt():
    return _pnt_from_ru([4.0 ** -m for m in range(1, 7)])


def test_optimal_allocation_example(quarter_pnt):
    alloc = fm.optimal_allocation(quarter_pnt, 2, 100)
    assert alloc.theta == pytest.approx([0.585786, 0.207107], abs=1e-6)
    assert list(alloc.counts) == [59, 21]
    assert alloc.cost_B == 101
    assert alloc.phi_predicted == pytest.approx(0.25 / 59 + 0.0625 / 21, rel=1e-12)


def test_single_term_allocation(quarter_pnt):
    alloc = fm.optimal_allocation(quarter_pnt, 1, 50)
    assert alloc.theta == pytest.approx([1.0], rel=1e-12)
    assert list(alloc.counts) == [51]


def test_budget_error_lists_minimum(quarter_pnt):
    with pytest.raises(fm.BudgetError, match="minimum 21"):
        fm.optimal_allocation(quarter_pnt, 6, 20)


def test_theta_cost_identity(quarter_pnt):
    # sum_m m * theta(m) telescopes to exactly 1
    alloc = fm.optimal_allocation(quarter_pnt, 5, 10_000)
    m = np.arange(1, 6)
    assert float(np.sum(m * alloc.theta)) == pytest.approx(1.0, abs=1e-12)


def test_cost_bracket(quarter_pnt):
    for n in (100, 1234, 99_999):
        alloc = fm.optimal_allocation(quarter_pnt, 4, n)
        assert n <= alloc.cost_B <= n + 4 * 5 // 2
        assert np.all(alloc.counts >= 1)


def test_rounded_phi_below_continuous_optimum():
    # min of sum r_m/n(m) under sum m n(m) = n is R_half^2 / n by
    # Cauchy-Schwarz; rounding counts up can only push phi below it
    r_u = [(1 / 3) * (1 / 5) ** (m - 1) for m in range(1, 6)]
    pnt = _pnt_from_ru(r_u)
    for n in (10 ** 4, 10 ** 5, 10 ** 6):
        alloc = fm.optimal_allocation(pnt, 5, n)
        assert alloc.phi_predicted <= alloc.R_half ** 2 / n


def test_kkt_stationarity(quarter_pnt):
    # continuous solution satisfies r_m / n_c(m)^2 proportional to m exactly
    n = 10 ** 6
    alloc = fm.optimal_allocation(quarter_pnt, 5, n)
    n_c = alloc.theta * n
    ratio = quarter_pnt.r_U[:5] / n_c ** 2 / np.arange(1, 6)
    assert np.max(ratio) / np.min(ratio) == pytest.approx(1.0, abs=1e-9)


def test_local_optimality_under_unit_transfers(quarter_pnt):
    n = 10_000
    N = 5
    alloc = fm.optimal_allocation(quarter_pnt, N, n)
    r = quarter_pnt.r_U[:N]
    slack = 2 * float(np.max(r)) / n ** 2

    def phi(counts):
        return float(np.sum(r / counts))

    base = phi(alloc.counts)
    for m1 in range(N):
        for m2 in range(N):
            if m1 == m2:
                continue
            moved = int(np.ceil((m1 + 1) / (m2 + 1)))
            counts = alloc.counts.copy()
            counts[m1] += 1
            counts[m2] -= moved
            if counts[m2] < 1:
                continue
            assert phi(counts) >= base - slack


def test_uniform_allocation_never_beats_optimal():
    for r_u in ([4.0 ** -m for m in range(1, 6)],
                [(1 / 3) * (1 / 5) ** (m - 1) for m in range(1, 6)],
                [0.9 ** m for m in range(1, 6)]):
        pnt = _pnt_from_ru(r_u)
        N, n = 5, 30_000
        alloc = fm.optimal_allocation(pnt, N, n)
        uniform = np.full(N, n // (N * (N + 1) // 2))
        phi_uniform = float(np.sum(pnt.r_U[:N] / uniform))
        assert phi_uniform >= alloc.phi_predicted


def test_allocation_json_roundtrip(tmp_path, quarter_pnt):
    alloc = fm.optimal_allocation(quarter_pnt, 3, 500)
    path = tmp_path / "allocation.json"
    alloc.to_json(path)
    import json
    data = json.loads(path.read_text())
    assert data["N"] == 3
    assert data["cost_B"] == alloc.cost_B
    assert data["counts"] == list(alloc.counts)
    assert set(data) == {"n_total", "N", "theta", "counts", "cost_B", "phi_predicted"}


def test_derivative_allocation_adds_a_term_at_the_same_budget(quarter_pnt):
    # terms 1..N+1 from the kept r_m(U); with the table at N, r_(N+1) is
    # min_k r_k r_(N+1-k) = 4^-3 for r_k = 4^-k
    from fredmc.allocation import counts_from_weights, derivative_allocation
    short = _pnt_from_ru([4.0 ** -m for m in range(1, 3)])
    for pnt, r_u in ((quarter_pnt, quarter_pnt.r_U), (short, [0.25, 0.0625, 4.0 ** -3])):
        alloc = fm.optimal_allocation(pnt, 2, 1000)
        terms = derivative_allocation(alloc)
        theta, counts, _ = counts_from_weights(np.asarray(r_u), 3, 1000)
        assert (terms.N, terms.n_total) == (3, 1000)
        assert np.array_equal(terms.counts, counts) and np.array_equal(terms.theta, theta)
        assert terms.cost_B == int(np.sum(np.arange(1, 4) * counts))
        assert terms.phi_predicted == pytest.approx(np.sum(np.asarray(r_u)[:3] / counts), rel=1e-12)
