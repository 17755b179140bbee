"""Variance-optimal split of the sampling budget across Neumann terms.

Estimating the m-th term costs m scalar draws per replicate and carries
variance proportional to r_m(U), so minimizing the total variance
``Phi(n) = sum_m r_m(U)/n(m)`` under the cost ``sum_m m n(m) = n`` gives
the Lagrange solution ``n(m) = theta(m) n`` with

    theta(m) = sqrt(r_m(U)) / (R_half * sqrt(m)),
    R_alpha  = sum_{k<=N} k^alpha * sqrt(r_k(U)).

Counts are rounded up (1 + floor), so the realized cost may exceed n by
at most N(N+1)/2 and the realized Phi never exceeds the continuous
optimum R_half^2 / n, which is also the least Phi attainable at cost n.

The paper states the bracket R_half * R_minus_half / n for the optimal
Phi (``theorem11_bound``).  Since R_minus_half <= R_half, that bracket
lies below the attainable minimum R_half^2 / n, so the realized Phi
exceeds it; acceptance criterion 2 checks the stated bracket and fails.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import BudgetError
from .problem import PowerNormTable


@dataclass(frozen=True)
class BudgetAllocation:
    """Replicate counts per term for a total budget of n scalar draws."""

    n_total: int
    N: int
    theta: np.ndarray
    counts: np.ndarray
    cost_B: int
    phi_predicted: float
    R_half: float
    R_minus_half: float
    r_u: np.ndarray  # r_m(U) for m = 1..m_max (kept for reuse, e.g. derivative terms)

    def to_dict(self) -> dict:
        return {
            "n_total": int(self.n_total),
            "N": int(self.N),
            "theta": [float(x) for x in self.theta],
            "counts": [int(x) for x in self.counts],
            "cost_B": int(self.cost_B),
            "phi_predicted": float(self.phi_predicted),
        }

    def to_json(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=2)
            fh.write("\n")


def r_alpha_sum(pnt: PowerNormTable, alpha: float, N: int) -> float:
    """R_alpha(N, U) = sum_{k=1}^{N} k^alpha * r_k(U)^(1/2)."""
    if N < 1 or N > pnt.m_max:
        raise ValueError(f"N must lie in [1, m_max={pnt.m_max}]")
    k = np.arange(1, N + 1, dtype=float)
    return float(np.sum(k ** alpha * np.sqrt(pnt.r_U[:N])))


def counts_from_weights(r_u: np.ndarray, N: int, n_total: int) -> tuple[np.ndarray, np.ndarray, float]:
    """(theta, counts, R_half) for the first N terms of a given r_m(U)."""
    k = np.arange(1, N + 1, dtype=float)
    roots = np.sqrt(np.asarray(r_u[:N], dtype=float))
    R_half = float(np.sum(np.sqrt(k) * roots))
    theta = roots / (R_half * np.sqrt(k))
    counts = 1 + np.floor(theta * n_total).astype(np.int64)
    return theta, counts, R_half


def optimal_allocation(pnt: PowerNormTable, N: int, n_total: int) -> BudgetAllocation:
    """Rounded Lagrange-optimal allocation for terms m = 1..N."""
    if N < 1 or N > pnt.m_max:
        raise ValueError(f"N must lie in [1, m_max={pnt.m_max}]")
    minimum = N * (N + 1) // 2
    if n_total < minimum:
        raise BudgetError(f"budget {n_total} below minimum {minimum} "
                          f"(one replicate per term, term m costs m draws)")
    return _allocation(np.asarray(pnt.r_U, dtype=float).copy(), N, n_total)


def derivative_allocation(alloc: BudgetAllocation) -> BudgetAllocation:
    """The allocation ``derivative_solve`` runs: terms 1..N+1 of the same
    budget, from the power norms that ``alloc`` keeps.  When the table
    stops at N, r_(N+1)(U) is bounded by submultiplicativity,
    min_k r_k r_(N+1-k)."""
    r_u = np.asarray(alloc.r_u, dtype=float)
    while len(r_u) < alloc.N + 1:
        r_u = np.append(r_u, np.min(r_u * r_u[::-1]))
    return _allocation(r_u, alloc.N + 1, alloc.n_total)


def _allocation(r_u: np.ndarray, N: int, n_total: int) -> BudgetAllocation:
    """Rounded Lagrange-optimal allocation of n_total over terms 1..N of r_u = r_m(U)."""
    theta, counts, R_half = counts_from_weights(r_u, N, n_total)
    k = np.arange(1, N + 1)
    return BudgetAllocation(
        n_total=int(n_total), N=int(N), theta=theta, counts=counts,
        cost_B=int(np.sum(k * counts)), phi_predicted=float(np.sum(r_u[:N] / counts)),
        R_half=R_half, R_minus_half=float(np.sum(k ** -0.5 * np.sqrt(r_u[:N]))), r_u=r_u)


def theorem11_bound(pnt: PowerNormTable, N: int, n_total: int, f_norm: float) -> tuple[float, float]:
    """The paper's stated bracket for the optimal variance at budget n:

        ||f||^2 * R_half * R_minus_half * (1/n -+ C/n^2)

    with C a rounding-loss constant N(N+1)/2 * max_m r_m(U)^(-1/2) * R_half
    (the theory leaves the 1/n^2 constants abstract; rounding changes each
    count by at most one replicate).  Returns (upper, lower).

    It is not a bound on the realized variance: R_half * R_minus_half / n
    lies below the attainable minimum ||f||^2 R_half^2 / n, so the realized
    variance exceeds the upper value (acceptance criterion 2 fails on it).
    """
    if f_norm == 0.0:
        return 0.0, 0.0
    R_half = r_alpha_sum(pnt, 0.5, N)
    R_mhalf = r_alpha_sum(pnt, -0.5, N)
    c_round = N * (N + 1) / 2 * float(np.max(pnt.r_U[:N] ** -0.5)) * R_half
    lead = f_norm ** 2 * R_half * R_mhalf
    n = float(n_total)
    return lead * (1.0 / n + c_round / n ** 2), lead * (1.0 / n - c_round / n ** 2)
