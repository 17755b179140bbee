"""Problem model: the integral-equation instance and its operator analytics.

An instance is ``y = f + S[y]`` with ``S[g](t) = int K(t,s) g(s) mu(ds)``
over a probability measure ``mu`` on an axis-aligned box ``T``.  This
module computes the quantities the Monte-Carlo method is driven by:

* the envelope ``R(s) >= sup_t |K(t,s)|`` and the natural semi-distance
  ``d(t,s) = sup_x |K(t,x)-K(s,x)| / R(x)``,
* operator norms ``||S||``, ``||U||`` (``U`` has kernel ``K^2``),
* power norms ``r_m(L) = ||L^m||`` for ``m = 1..m_max`` and the bound
  ``min_k r_k^(1/k)`` on the spectral radius (Gelfand's formula) that the
  contractivity checks read.

One discretization serves both: tensor Gauss-Legendre nodes mapped through
the measure, refined by ``gauss_legendre`` until two rules agree.  The
power norms take the sup over those nodes and a fixed grid of the box
(``_power_norms_quadrature``); solution values come from a Nystrom solve
(``nystrom``).  Above 2-D the rule exceeds its node budget and only the
Monte-Carlo norms run, through the estimator's term runner.  Points are
always arrays of shape ``(n, dim)`` and kernels/forcings are vectorized
over a trailing coordinate axis: ``kernel(t, s)`` with ``t, s`` of shape
``(..., dim)`` returns shape ``(...)``.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import BudgetError, ContractivityError
from .rng import TAG_NORM_MC, substream

_ROW_CHUNK_EVALS = 2_000_000  # kernel values per row chunk (or runner tile) of a grid x sample array
_NYSTROM_NODES = 48 ** 2      # Gauss-Legendre nodes per solve: a node matrix of at most 42 MB
_NORM_GRID = {1: 1025, 2: 65}  # points per axis of the fixed grid the power norms' sup_t covers


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class DomainSpec:
    """Axis-aligned box domain with a normalized measure.

    ``grid_points_per_dim`` sets the resolution of output grids and of the
    covariance grids used for confidence bands.
    """

    dim: int
    bounds: tuple[tuple[float, float], ...]
    grid_points_per_dim: int = 101

    def __post_init__(self):
        if self.dim < 1 or len(self.bounds) != self.dim:
            raise ValueError(f"bounds must have one (lo, hi) pair per dimension (dim={self.dim})")
        for lo, hi in self.bounds:
            if not lo < hi:
                raise ValueError(f"interval [{lo}, {hi}] must have lower < upper")
        if self.grid_points_per_dim < 1 or self.grid_points_per_dim ** self.dim < 2:
            raise ValueError("total grid size must be at least 2")

    @functools.cached_property  # kept, read-only: the sampler maps every block with them
    def lows(self) -> np.ndarray:
        return _read_only(np.array([b[0] for b in self.bounds]))

    @functools.cached_property
    def highs(self) -> np.ndarray:
        return _read_only(np.array([b[1] for b in self.bounds]))

    @functools.cached_property
    def lengths(self) -> np.ndarray:
        return _read_only(self.highs - self.lows)

    def grid(self, points_per_dim: Optional[int] = None) -> np.ndarray:
        """Full tensor output grid, shape (g^dim, dim), endpoints included."""
        g = points_per_dim or self.grid_points_per_dim
        axes = [np.linspace(lo, hi, g) for lo, hi in self.bounds]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=-1)


@dataclass(frozen=True)
class MeasureSampler:
    """Sampler for the probability measure mu on the domain box.

    ``uniform-on-box`` is the normalized Lebesgue measure.  For
    ``product-inverse-cdf`` each coordinate is drawn by pushing a uniform
    variate through a monotone inverse CDF mapping [0,1] onto the
    coordinate range.  The same maps drive the deterministic quadrature,
    so MC draws and quadrature integrate the identical measure.
    """

    kind: str = "uniform-on-box"
    inverse_cdfs: Optional[tuple[Callable[[np.ndarray], np.ndarray], ...]] = None
    seed_stream_id: int = 0

    def __post_init__(self):
        if self.kind not in ("uniform-on-box", "product-inverse-cdf"):
            raise ValueError(f"unknown sampler kind {self.kind!r}")
        if self.kind == "product-inverse-cdf" and not self.inverse_cdfs:
            raise ValueError("product-inverse-cdf requires inverse_cdfs")

    def _map(self, u: np.ndarray, domain: DomainSpec) -> np.ndarray:
        """Points of mu from fresh uniforms u, which the box measure maps in place."""
        if self.kind == "uniform-on-box":
            return np.add(np.multiply(u, domain.lengths, out=u), domain.lows, out=u)
        cols = [np.asarray(self.inverse_cdfs[i](u[..., i])) for i in range(domain.dim)]
        return np.stack(cols, axis=-1)

    def sample(self, domain: DomainSpec, n: int, rng: np.random.Generator) -> np.ndarray:
        """Draw n mu-distributed points, shape (n, dim)."""
        return self._map(rng.random((n, domain.dim)), domain)

    def quad_nodes(self, domain: DomainSpec, nodes_per_dim: int) -> tuple[np.ndarray, float]:
        """Midpoint nodes (N, dim) and the common weight 1/N for integrating
        against mu (exact-in-structure via the inverse-transform map)."""
        mid = (np.arange(nodes_per_dim) + 0.5) / nodes_per_dim
        u = np.stack(np.meshgrid(*[mid] * domain.dim, indexing="ij"), axis=-1).reshape(-1, domain.dim)
        return self._map(u, domain), 1.0 / u.shape[0]

    def gauss_nodes(self, domain: DomainSpec, q: int) -> tuple[np.ndarray, np.ndarray]:
        """Tensor Gauss-Legendre nodes (q^dim, dim) and their weights for
        integrating against mu, mapped like ``quad_nodes``."""
        x, w = np.polynomial.legendre.leggauss(q)
        u = np.stack(np.meshgrid(*[(x + 1) / 2] * domain.dim, indexing="ij"), axis=-1).reshape(-1, domain.dim)
        return self._map(u, domain), functools.reduce(np.multiply.outer, [w / 2] * domain.dim).ravel()


@dataclass(frozen=True)
class Metric:
    """Declared form of the natural semi-distance d(t,s).

    kind "holder":    d = scale * |t-s|^exponent
    kind "log-power": d = scale * min(|log|t-s||^-exponent, 1) for |t-s| < 1,
                      and scale (its largest value) from |t-s| = 1 on

    ``at_radius`` maps a Euclidean separation r to d, and ``log_radius``
    maps d back to log r.
    """

    kind: str
    exponent: float = 1.0
    scale: float = 1.0

    def __post_init__(self):
        if self.kind not in ("holder", "log-power"):
            raise ValueError(f"unknown metric kind {self.kind!r}")

    def at_radius(self, r):
        """d at Euclidean separation r (an array of r gives an array)."""
        r = np.asarray(r, dtype=float)
        if self.kind == "holder":
            return self.scale * r ** self.exponent
        with np.errstate(divide="ignore"):  # log-power: 0 at r = 0, scale from r = 1 on
            return self.scale * np.minimum(np.abs(np.log(np.minimum(r, 1.0))) ** -self.exponent, 1.0)

    def log_radius(self, d):
        """log r with at_radius(r) = d, for 0 < d (< scale for log-power)."""
        if self.kind == "holder":
            return np.log(d / self.scale) / self.exponent
        return -((self.scale / d) ** (1.0 / self.exponent))


@dataclass
class ProblemSpec:
    """The equation being solved: domain, measure, kernel, forcing, and the
    analytic envelopes/metrics the error theory needs."""

    domain: DomainSpec
    mu: MeasureSampler
    kernel: Callable[[np.ndarray, np.ndarray], np.ndarray]
    forcing: Callable[[np.ndarray], np.ndarray]
    envelope_R: Callable[[np.ndarray], np.ndarray]
    metric: Metric
    kernel_dt: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None
    forcing_dt: Optional[Callable[[np.ndarray], np.ndarray]] = None
    # sup|f|, exact for registry forcings; None takes the max over the output
    # grid (>= 257 points in 1-D), which can miss the sup: not a bound
    f_norm: Optional[float] = None
    # Closed-form power norms for registry kernels: analytic_norms(m, which)
    # with which in {"S", "U"}; None means "use quadrature or MC".
    analytic_norms: Optional[Callable[[int, str], float]] = None
    name: str = "custom"

    def __post_init__(self):
        if self.f_norm is None:
            grid = self.domain.grid(max(self.domain.grid_points_per_dim, 257) if self.domain.dim == 1 else None)
            self.f_norm = float(np.max(np.abs(np.asarray(self.forcing(grid), dtype=float))))
        if not np.isfinite(self.f_norm):
            raise ValueError("f_norm must be finite")


@dataclass(frozen=True)
class PowerNormTable:
    """Power norms r_m(S), r_m(U) for m = 1..m_max, with the q and diff of
    ``gauss_legendre``'s last rule as ``accuracy`` for quadrature norms."""

    m_max: int
    r_S: np.ndarray
    r_U: np.ndarray
    estimation_method: str
    accuracy: Optional[dict] = None


# ---------------------------------------------------------------------------
# quadrature helpers


def _kernel_matrix(spec: ProblemSpec, p: np.ndarray, nodes: np.ndarray) -> np.ndarray:
    """K(p_i, x_j) from one kernel call; ValueError naming a non-finite value's node and point."""
    k = np.asarray(spec.kernel(p[:, None, :], nodes[None, :, :]), dtype=float)
    if not np.all(np.isfinite(k)):
        i, j = np.argwhere(~np.isfinite(k))[0]
        raise ValueError(f"non-finite kernel value at node index {j}, point t={p[i]}, s={nodes[j]}")
    return k


def operator_norm(spec: ProblemSpec, which: str = "S") -> float:
    """Sup-norm of the integral operator: sup_t int |K(t,s)| mu(ds)
    (kernel K^2 for which="U"), the r_1 of the quadrature power norms."""
    if which not in ("S", "U"):
        raise ValueError("which must be 'S' or 'U'")
    return float(_power_norms_quadrature(spec, 1, (which,))[0][0, 0])


def _power_norms_quadrature(spec: ProblemSpec, m_max: int, which=("S", "U")):
    """(r, q, diff) of ``gauss_legendre``: r[i, m-1] = r_m(L) for L = which[i].

    On the rule's nodes x and weights w, E = w K_L(t, x) over the points t:
    the nodes (rows A_L = w K_L(x, x), so r_m is exactly submultiplicative)
    and the fixed grid ``domain.grid(_NORM_GRID[dim])``, in row chunks (the
    first holds the node rows).  r_m = max_i sum_l |E A_L^(m-1)|[i,l], the
    sup-row-sum of the iterated kernel: the operator norm of L^m, not a
    product bound.  When A_L and a chunk of E each have one sign, |E
    A^(m-1)| = |E| |A|^(m-1) entrywise, so the row sums are |E| g_m with
    g_1 = 1, g_{m+1} = |A| g_m: g_{m+1} itself at the node rows.  Other
    chunks keep the matrix powers E_{m+1} = E_m @ A_L.  Each chain product
    is reduced by numpy's pairwise row sum, whose order does not depend on
    the number of BLAS threads.
    """
    def one_signed(X):
        return bool(np.all(X >= 0) or np.all(X <= 0))

    def evaluate(x, w):
        n = len(x)
        t = np.concatenate([x, spec.domain.grid(_NORM_GRID[spec.domain.dim])])
        step = max(1, _ROW_CHUNK_EVALS // n)
        r, A, g = np.zeros((len(which), m_max)), {}, {}
        for lo in (0, *range(n + step, len(t), step)):
            k = _kernel_matrix(spec, t[lo:max(lo, n) + step], x)
            for i, L in enumerate(which):
                E = w * (k * k if L == "U" else k)
                if lo == 0:
                    A[L] = E[:n]
                    if one_signed(A[L]):
                        absA, g[L] = np.abs(A[L]), [np.ones(n)]
                        for _ in range(m_max):
                            g[L].append((absA * g[L][-1]).sum(axis=1))
                        r[i] = [np.max(v) for v in g[L][1:]]
                        E = E[n:]
                if L in g and one_signed(E):
                    absE = np.abs(E)
                    rm = [np.max((absE * g[L][m]).sum(axis=1), initial=0.0) for m in range(m_max)]
                else:
                    rm = []
                    for m in range(m_max):
                        E = E @ A[L] if m else E
                        rm.append(np.max(np.abs(E).sum(axis=1)))
                r[i] = np.maximum(r[i], rm)
        return r

    return gauss_legendre(spec, evaluate, floor=0.0)


def gauss_legendre(spec: ProblemSpec, evaluate, floor: Optional[float] = None):
    """``evaluate(x, w)`` on the Gauss-Legendre rules of mu with q = 12, 24,
    48, ... nodes per axis until two successive results differ by at most
    1e-14 max(|result|, floor) (floor ||f|| unless given, so that a solution
    value that cancels to zero stops at rounding) or the next rule has over
    ``_NYSTROM_NODES`` nodes (BudgetError up front if q = 24 has).  Returns
    (result, q, diff): the last result, its q and its largest difference
    from the one before."""
    q, dim = 12, spec.domain.dim
    if (2 * q) ** dim > _NYSTROM_NODES:
        raise BudgetError(f"a Gauss-Legendre node matrix of {(2 * q) ** dim} nodes ({dim}-D) "
                          f"exceeds the budget of {_NYSTROM_NODES}")
    y = evaluate(*spec.mu.gauss_nodes(spec.domain, q))
    while True:
        q, prev = 2 * q, y
        y = evaluate(*spec.mu.gauss_nodes(spec.domain, q))
        diff = float(np.max(np.abs(y - prev), initial=0.0))
        scale = np.max(np.abs(y), initial=spec.f_norm if floor is None else floor)
        if diff <= 1e-14 * scale or (2 * q) ** dim > _NYSTROM_NODES:
            return y, q, diff


def nystrom(spec: ProblemSpec, t: np.ndarray, node_fn):
    """(E node_fn(A, f(x)) on the points t, q, diff) by the Nystrom method
    (Atkinson, The Numerical Solution of Integral Equations of the Second
    Kind, CUP 1997) on ``gauss_legendre``'s nodes x and weights w:
    A = w K(x, x), and E = w K(t, x) applied in row chunks."""
    def solve(x: np.ndarray, w: np.ndarray) -> np.ndarray:
        g = node_fn(_kernel_matrix(spec, x, x) * w, np.asarray(spec.forcing(x), dtype=float))
        out, step = np.empty((len(t),) + g.shape[1:]), max(1, _ROW_CHUNK_EVALS // len(x))
        for lo in range(0, len(t), step):
            out[lo:lo + step] = (_kernel_matrix(spec, t[lo:lo + step], x) * w) @ g
        return out

    return gauss_legendre(spec, solve)


def _power_norms_mc(spec: ProblemSpec, m_max: int, which: str, n: int = 4096) -> np.ndarray:
    """MC upper estimate: the entrywise-absolute chain product dominates
    the absolute iterated kernel, so its dependent-trial average over a
    grid of t upper-estimates r_m (up to MC noise).  Each m is one term
    runner call on the one ``TAG_NORM_MC`` substream: |K| (K^2 for U) times
    its chain without forcing."""
    from .estimator import _chain_tail, _run_term  # the estimator imports this module

    def abs_kernel(t, s):
        k = np.abs(np.asarray(spec.kernel(t, s), dtype=float))
        return np.square(k, out=k) if which == "U" else k

    rng, grid = substream(spec.mu.seed_stream_id, TAG_NORM_MC), spec.domain.grid()
    tail = functools.partial(_chain_tail, abs_kernel, None)
    return np.array([np.max(_run_term(n, m, grid, rng, spec.mu, spec.domain, abs_kernel, None, tail,
                                      1.0, False).mean) for m in range(1, m_max + 1)])


def radius_bound(r) -> float:
    """min_k r_k^(1/k) over a power-norm table r_1..r_M: by Gelfand's
    formula the spectral radius is inf_k ||L^k||^(1/k), so this bounds it
    from above (for M = 1, the operator norm)."""
    r = np.asarray(r, dtype=float)
    return float(np.min(r ** (1.0 / np.arange(1, len(r) + 1))))


def power_norms(spec: ProblemSpec, m_max: int = 12, method: str = "quadrature") -> PowerNormTable:
    """Power-norm table r_1..r_{m_max} for S and U.

    Raises ContractivityError when no r_k(U)^(1/k) < 1: the spectral-radius
    hypothesis the whole method rests on is not certified, and BudgetError
    for quadrature norms above 2-D.
    """
    if m_max < 2:
        raise ValueError("m_max must be >= 2")
    accuracy = None
    if method == "analytic":
        if spec.analytic_norms is None:
            raise ValueError("spec has no analytic norm registry; use method='quadrature'")
        r_S = np.array([spec.analytic_norms(m, "S") for m in range(1, m_max + 1)])
        r_U = np.array([spec.analytic_norms(m, "U") for m in range(1, m_max + 1)])
    elif method == "quadrature":
        try:
            (r_S, r_U), q, diff = _power_norms_quadrature(spec, m_max)
        except BudgetError as exc:
            raise BudgetError(f'{exc}: quadrature power norms stop at 2-D; '
                              'use norms_method: "mc"') from None
        accuracy = {"q": q, "diff": diff}
    elif method == "mc":
        r_S = _power_norms_mc(spec, m_max, "S")
        r_U = _power_norms_mc(spec, m_max, "U")
    else:
        raise ValueError(f"unknown method {method!r}")

    if np.isnan(r_S).any() or np.isnan(r_U).any():
        raise ValueError(f"{method} power norms are not all numbers: r_S={r_S}, r_U={r_U}")
    rho_u = radius_bound(r_U)
    if rho_u >= 1.0:
        raise ContractivityError(f"no r_k(U)^(1/k) < 1 for k <= {m_max} (smallest {rho_u:.6f}); "
                                 "spectral radius not certified < 1")
    return PowerNormTable(m_max=m_max, r_S=r_S, r_U=r_U, estimation_method=method,
                          accuracy=accuracy)


def natural_distance(spec: ProblemSpec, t, s) -> float:
    """Natural semi-distance d(t,s) between two parameter points."""
    t = np.atleast_1d(np.asarray(t, dtype=float))
    s = np.atleast_1d(np.asarray(s, dtype=float))
    return float(spec.metric.at_radius(np.sqrt(np.sum((t - s) ** 2))))
