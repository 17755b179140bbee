"""Independent numpy references for the benchmark's output checks.

Nothing here imports fredmc: the kernels, forcings and quadrature are
written out again from their definitions, so a defect in the program
cannot hide in its own reference.

* ``nystrom_solution``: dense Nystrom solve of y = f + int K(., s) y(s) ds
  with tensor Gauss-Legendre nodes on the unit box (uniform measure).
* ``truncated_solution``: the same with the Neumann series cut after N
  terms, y^(N) = f + sum_{m<=N} S^m[f], the target of the truncated
  Monte-Carlo estimator.
* ``gauss_field_cov``: covariance of the sqrt(n)-normalized error field of
  the truncated-Neumann dependent-trial estimator, sum_m cov_m / theta_m,
  with each per-tuple covariance cov_m integrated by the same quadrature.
* ``sup_quantile``: (1 - delta) quantile of sup_t |X(t)| for X ~ N(0, Z).
"""

from __future__ import annotations

import numpy as np


def gauss_conv(scale: float, kappa: float):
    """K(t, s) = scale * exp(-kappa |t - s|^2) on points of shape (..., dim)."""
    def kernel(t, s):
        return scale * np.exp(-kappa * np.sum((t - s) ** 2, axis=-1))
    return kernel


def ts_kernel(t, s):
    """K(t, s) = t * s (1-D)."""
    return t[..., 0] * s[..., 0]


def ts_solution(t, lam: float = 1.0):
    """Closed-form solution of y = t + lam * int_0^1 t s y(s) ds: S^m[t] = t / 3^m,
    so y = t / (1 - lam / 3); y = 1.5 t at lam = 1."""
    return t[..., 0] / (1.0 - lam / 3.0)


def _nodes(dim: int, q: int):
    x, w = np.polynomial.legendre.leggauss(q)
    x, w = (x + 1.0) / 2.0, w / 2.0
    mesh = np.meshgrid(*([x] * dim), indexing="ij")
    wmesh = np.meshgrid(*([w] * dim), indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=-1), np.prod([m.ravel() for m in wmesh], axis=0)


def nystrom_solution(kernel, forcing, t: np.ndarray, q: int) -> np.ndarray:
    """y(t) on points t of shape (G, dim) by the Nystrom method with q
    Gauss-Legendre nodes per axis."""
    x, w = _nodes(t.shape[1], q)
    a = kernel(x[:, None, :], x[None, :, :]) * w
    y_nodes = np.linalg.solve(np.eye(len(w)) - a, forcing(x))
    return forcing(t) + (kernel(t[:, None, :], x[None, :, :]) * w) @ y_nodes


def truncated_solution(kernel, forcing, t: np.ndarray, n_terms: int, q: int) -> np.ndarray:
    """y^(N)(t) = f(t) + sum_{m=1}^{N} S^m[f](t) with q Gauss-Legendre nodes per axis."""
    x, w = _nodes(t.shape[1], q)
    a = kernel(x[:, None, :], x[None, :, :]) * w
    e = kernel(t[:, None, :], x[None, :, :]) * w
    g, acc = forcing(x), np.zeros(len(w))
    for _ in range(n_terms):
        acc += g
        g = a @ g
    return forcing(t) + e @ acc


def gauss_field_cov(kernel, forcing, t: np.ndarray, theta, q: int) -> np.ndarray:
    """sum_m cov_m / theta_m on the points t, term m = 1..len(theta).

    Term m's per-tuple value is K(t, x1) C(x1..xm) with C the chain
    K(x1,x2)...K(x_{m-1},x_m) f(x_m); its mean is S^m[f](t) and its second
    moment int K(t,x1) K(t',x1) E[C^2 | x1] dx1 with E[C^2 | x1] = U^(m-1)[f^2],
    U the operator of the squared kernel.
    """
    x, w = _nodes(t.shape[1], q)
    k_xx = kernel(x[:, None, :], x[None, :, :])
    k_tx = kernel(t[:, None, :], x[None, :, :])
    g, h = forcing(x), forcing(x) ** 2
    z = np.zeros((len(t), len(t)))
    for th in theta:
        mean = (k_tx * w) @ g
        z += ((k_tx * (w * h)) @ k_tx.T - np.outer(mean, mean)) / th
        g, h = (k_xx * w) @ g, (k_xx ** 2 * w) @ h
    return (z + z.T) / 2.0


def sup_quantile(z: np.ndarray, delta: float, n_sim: int, rng: np.random.Generator) -> float:
    """Empirical (1 - delta) quantile of sup |X| for X ~ N(0, z), simulated
    on the eigenpairs that carry all but 1e-12 of the trace."""
    lam, vec = np.linalg.eigh(z)
    keep = lam > 1e-12 * lam.sum()
    factor = vec[:, keep] * np.sqrt(lam[keep])
    sups = np.concatenate([np.max(np.abs(rng.standard_normal((min(10_000, n_sim - b), factor.shape[1]))
                                         @ factor.T), axis=1)
                           for b in range(0, n_sim, 10_000)])
    return float(np.quantile(sups, 1.0 - delta))
