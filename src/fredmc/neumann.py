"""Truncation of the Neumann series and the deterministic oracles.

The solution of ``y = f + S[y]`` expands as ``y = f + sum_m S^m[f]``.
This module picks the truncation level N so the dropped tail is below a
target ``epsilon``, bounding the tail from the power-norm table r_m(S)
alone (``tail_bounds``).  The oracles, ``S^m[f]``, the truncated and the
damped solution, are one Gauss-Legendre Nystrom solve each
(``problem.nystrom``): they verify the Monte-Carlo engines and give the
studies' reference values."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractivityError
from .problem import PowerNormTable, ProblemSpec, nystrom


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


def _powers(A: np.ndarray, f: np.ndarray, m: int) -> np.ndarray:
    """The node values f, A f, ..., A^(m-1) f as the columns of an (n, m) array."""
    g = [f]
    for _ in range(m - 1):
        g.append(A @ g[-1])
    return np.stack(g, axis=1)


def _resolvent(A: np.ndarray, f: np.ndarray, lam: float) -> np.ndarray:
    """lam (I - lam A)^-1 f; ContractivityError when lam rho(A) >= 1, where
    the Neumann series diverges though a linear solve would still succeed.
    The eigenvalues are needed only when the max row sum (>= rho) is not < 1/lam."""
    if lam * np.max(np.abs(A).sum(axis=1)) >= 1.0:
        rho = float(np.max(np.abs(np.linalg.eigvals(A))))
        if lam * rho >= 1.0:
            raise ContractivityError(f"damped series diverges: lam * rho = {lam * rho:.6g} >= 1")
    return lam * np.linalg.solve(np.eye(len(A)) - lam * A, f)


def apply_power_quadrature(spec: ProblemSpec, m: int, t_grid) -> np.ndarray:
    """S^m[f] = E A^(m-1) f(x) on the grid."""
    if m < 1:
        raise ValueError("m must be >= 1")
    return nystrom(spec, _as_points(spec, t_grid), lambda A, f: _powers(A, f, m)[:, -1])[0]


def truncated_solution_oracle(spec: ProblemSpec, plan: TruncationPlan, t_grid) -> np.ndarray:
    """y^(N) = f + sum_{m=1}^{N} S^m[f] = f + E sum_{k<N} A^k f(x) on the grid."""
    t = _as_points(spec, t_grid)
    return (np.asarray(spec.forcing(t), dtype=float)
            + nystrom(spec, t, lambda A, f: _powers(A, f, plan.N).sum(axis=1))[0])


def damped_solution_oracle(spec: ProblemSpec, lam: float, t_grid):
    """Solution y = f + E lam (I - lam A)^-1 f(x) of y = f + lam * S[y] on
    the grid, the reference for the geometric estimator and, at lam = 1, for
    the solver, as (values, q, diff) of ``problem.gauss_legendre``."""
    t = _as_points(spec, t_grid)
    y, q, diff = nystrom(spec, t, lambda A, f: _resolvent(A, f, lam))
    return np.asarray(spec.forcing(t), dtype=float) + y, q, diff

