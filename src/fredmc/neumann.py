"""Truncation of the Neumann series and the deterministic quadrature oracle.

The solution of ``y = f + S[y]`` expands as ``y = f + sum_m S^m[f]``.
This module picks the truncation level N so the dropped tail is below a
target ``epsilon``.  One series loop over the quadrature operator that
also gives the power norms (``problem.quadrature_operator``) evaluates
``S^m[f]``, the truncated solution and the damped series.  The oracle is
desk-scale by design (1-D, m <= 12): it verifies the Monte-Carlo engines.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .errors import ContractivityError, OracleInfeasible
from .problem import PowerNormTable, ProblemSpec, quadrature_operator

_TAIL_TERM_FLOOR = 1e-18
_MAX_TAIL_TERMS = 200000


@dataclass(frozen=True)
class TruncationPlan:
    """Chosen truncation level with its certified tail bound."""

    epsilon: float
    N: int
    tail_bound: float
    source: str  # "fit-based" | "norm-product"


def _tail_sum(C: float, delta: float, beta: float, n_from: int) -> float:
    """sum_{m >= n_from} C * m^delta * beta^m by direct summation until the
    terms drop below the floor."""
    total = 0.0
    m = n_from
    while m < n_from + _MAX_TAIL_TERMS:
        term = C * m ** delta * beta ** m
        total += term
        if term < _TAIL_TERM_FLOOR:
            return total
        m += 1
    raise ContractivityError(f"tail sum did not converge within {_MAX_TAIL_TERMS} terms (beta={beta})")


def choose_truncation(pnt: PowerNormTable, f_norm: float, epsilon: float,
                      source: str = "fit-based") -> TruncationPlan:
    """Smallest N with certified tail sum_{m>N} ||S^m[f]|| <= epsilon.

    The tail is bounded through the fitted decay law of r_m(S)
    (``fit-based``) or through the cruder ||S||^m product bound
    (``norm-product``).  N is also kept at or above the argmax of
    m^delta * beta^m, where the fitted bound starts decreasing.
    """
    if not 0.0 < epsilon < 0.5:
        raise ValueError("epsilon must lie in (0, 0.5)")
    if source == "fit-based":
        C, delta, beta = pnt.fit_s
    elif source == "norm-product":
        C, delta, beta = 1.0, 0.0, float(pnt.r_S[0])
    else:
        raise ValueError(f"unknown truncation source {source!r}")
    if beta >= 1.0:
        raise ContractivityError(f"fitted decay rate of r_m(S) is {beta:.6f} >= 1")

    n_floor = 1
    if delta > 0:
        n_floor = max(n_floor, int(np.ceil(delta / abs(np.log(beta)))))

    def tail(n: int) -> float:
        return f_norm * _tail_sum(C, delta, beta, n + 1)

    # Asymptotic starting guess, then settle to the minimal integer by
    # direct tail summation (the asymptotic form can under- or over-shoot
    # at moderate epsilon).
    if f_norm > 0:
        eps1 = epsilon / (C * f_norm)
        guess = np.log(max(C * abs(np.log(beta)) / eps1, 1.0 + 1e-12)) / abs(np.log(beta))
        N = max(n_floor, int(np.ceil(guess)))
    else:
        N = n_floor
    while tail(N) > epsilon:
        N += 1
    while N > n_floor and tail(N - 1) <= epsilon:
        N -= 1
    return TruncationPlan(epsilon=epsilon, N=N, tail_bound=tail(N), source=source)


def _as_points(spec: ProblemSpec, t_grid) -> np.ndarray:
    t = np.asarray(t_grid, dtype=float)
    if t.ndim == 1:
        t = t[:, None]
    if t.shape[1] != spec.domain.dim:
        raise ValueError(f"grid has {t.shape[1]} coordinates, domain has {spec.domain.dim}")
    return t


def _series(spec: ProblemSpec, t: np.ndarray, m_max: int, cap: int = 12):
    """Yield S^m[f](t) = E A^(m-1) f(x) for m = 1..m_max on one quadrature
    operator (E = w K(t, x), A = w K(x, x)); O(h^2) accurate for C^2
    kernels.  Above 1-D only m = 1, a streamed pass over E, is feasible."""
    if m_max > cap or (spec.domain.dim > 1 and m_max > 1):
        raise OracleInfeasible(f"oracle supports m <= {cap} and dim = 1 for m > 1 "
                               f"(got m={m_max}, dim={spec.domain.dim})")
    nodes, A, rows = quadrature_operator(spec, t, node_matrix=m_max > 1)
    E = [r["S"] for r in rows] if m_max > 1 else (r["S"] for r in rows)
    g = np.asarray(spec.forcing(nodes), dtype=float)
    for m in range(1, m_max + 1):
        if m > 1:
            g = A["S"] @ g
        yield np.concatenate([e @ g for e in E])


def apply_power_quadrature(spec: ProblemSpec, m: int, t_grid) -> np.ndarray:
    """S^m[f] on the grid by (m-1) kernel-matrix applications plus one
    evaluation row."""
    t = _as_points(spec, t_grid)
    if m < 1:
        raise ValueError("m must be >= 1")
    *_, last = _series(spec, t, m)
    return last


def truncated_solution_oracle(spec: ProblemSpec, plan: TruncationPlan, t_grid) -> np.ndarray:
    """y^(N) = f + sum_{m=1}^{N} S^m[f] on the grid, deterministically."""
    t = _as_points(spec, t_grid)
    return np.asarray(spec.forcing(t), dtype=float) + sum(_series(spec, t, plan.N))


def damped_solution_oracle(spec: ProblemSpec, lam: float, t_grid, tol: float = 1e-10,
                           max_terms: int = 200) -> np.ndarray:
    """Solution of the damped equation y = f + lam * S[y], i.e.
    f + sum_m lam^m S^m[f], summed until the term norm falls below tol.
    Reference for the geometric-randomization estimator and, at lam = 1,
    for the solver."""
    t = _as_points(spec, t_grid)
    y = np.asarray(spec.forcing(t), dtype=float)
    scale = 1.0
    for term in _series(spec, t, max_terms, cap=max_terms):
        scale *= lam
        term = scale * term
        y = y + term
        if np.max(np.abs(term)) < tol:
            return y
    raise ContractivityError(f"damped series did not converge (lam={lam})")


def export_power_csv(path, spec: ProblemSpec, t_grid, m_list) -> None:
    """Write S^m[f] values: columns t_1..t_dim, m, value (one operator for
    every m)."""
    t = _as_points(spec, t_grid)
    if min(m_list, default=1) < 1:
        raise ValueError("m must be >= 1")
    terms = list(_series(spec, t, max(m_list, default=0)))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow([f"t_{i + 1}" for i in range(spec.domain.dim)] + ["m", "value"])
        for m in m_list:
            for row, v in zip(t, terms[m - 1]):
                writer.writerow([repr(float(c)) for c in row] + [m, repr(float(v))])
