"""Truncation of the Neumann series and the deterministic quadrature oracle.

The solution of ``y = f + S[y]`` expands as ``y = f + sum_m S^m[f]``.
This module picks the truncation level N so the dropped tail is below a
target ``epsilon``, bounding the tail from the power-norm table r_m(S)
alone (``tail_bounds``).  One series loop over the quadrature operator that
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


@dataclass(frozen=True)
class TruncationPlan:
    """Chosen truncation level with its tail bound and the power norms' ``source``."""

    epsilon: float
    N: int
    tail_bound: float
    source: str  # "analytic" | "quadrature" | "mc"

    @property
    def basis(self) -> str:
        """What ``tail_bound`` rests on (the manifest's ``tail_basis``)."""
        return ("mc: relative to the Monte-Carlo estimates of r_m(S), not a certificate"
                if self.source == "mc" else f"{self.source}: a bound on the tabulated r_m(S)")


def tail_bounds(r_S, f_norm: float) -> np.ndarray:
    """||f|| (r_{N+1} + ... + r_M + B) >= sum_{m>N} ||S^m[f]|| for N = 1..M,
    from the table r_1..r_M of r_m(S).  Each m > M is (M-k+i) + q k with
    1 <= i <= k, q >= 1, so submultiplicativity gives sum_{m>M} r_m <= B =
    min over k with r_k < 1 of (r_{M-k+1} + ... + r_M) r_k / (1 - r_k)."""
    r = np.asarray(r_S, dtype=float)
    k = np.flatnonzero(r < 1.0)
    if len(k) == 0:
        raise ContractivityError(f"no r_k(S) < 1 for k <= {len(r)}: convergence not certified")
    suffix = np.cumsum(r[::-1])[::-1]  # suffix[j] = r_{j+1} + ... + r_M
    beyond = np.min(suffix[len(r) - 1 - k] * r[k] / (1.0 - r[k]))
    return f_norm * (np.append(suffix[1:], 0.0) + beyond)


def choose_truncation(pnt: PowerNormTable, f_norm: float, epsilon: float) -> TruncationPlan:
    """Smallest N in [1, m_max] with ``tail_bounds`` <= epsilon (ValueError
    if none): a bound for the tabulated norms, with MC norms only relative
    to their estimates."""
    if not 0.0 < epsilon < 0.5:
        raise ValueError("epsilon must lie in (0, 0.5)")
    tails = tail_bounds(pnt.r_S, f_norm)
    within = np.flatnonzero(tails <= epsilon)
    if len(within) == 0:
        raise ValueError(f"tail bound {tails[-1]:.4g} at N = m_max = {pnt.m_max} exceeds "
                         f"epsilon = {epsilon}; raise m_max or epsilon")
    N = int(within[0]) + 1
    return TruncationPlan(epsilon=epsilon, N=N, tail_bound=float(tails[N - 1]),
                          source=pnt.estimation_method)


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
