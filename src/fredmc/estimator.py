"""Monte-Carlo engines built on the dependent-trial principle.

One set of random tuples is drawn per Neumann term and reused across
every parameter point t, so each estimate is a continuous random field
in t and uniform-norm error analysis applies.  Draws come from per-term
counter-based substreams and are consumed in fixed block order, making
every estimate bit-reproducible for a given seed and independent of the
evaluation grid.

Every term's per-tuple field is ``first(t, x1) * tail(x1..xm)``: a first
factor over the grid (K; dK/dt for the derivative; g for a parametric
integral) times the t-free chain K(x1,x2)...f(x_m).  A parametric
integral is the first term, m = 1: its tail is its weight f(x1), or
none.  One runner, ``_run_term``, draws the tuples, evaluates that
product in grid row tiles and folds the block moments; its callers (the
engines and the MC power norms) pick the factor, substreams and counts.
A first factor with ``factors()``, meaning K(t, s) = sum_k A_k(t) B_k(s)
(exact for constant and separable-poly kernels, a truncated Chebyshev
series with a closed-form remainder bound for gauss-conv), makes the
field A(t) w with one r-vector w = B(x1) * tail per tuple: the runner
folds the moments of w and expands them over the grid, so no grid x
tuple array is built.  Only the runner multiplies the tail into B(x1).

Per-term first and second moments are accumulated with merged
(Welford-style) block co-moments, so plug-in covariance estimation never
materializes the tuples.  On the factored path a term keeps the r x r
co-moment of w and the plug-in covariance is A S A^T with S r x r: no
G x G array is formed unless something reads ``Z_hat``.  For r > 1 a
block's moments come from one product of weighted power rows, gathered
by the t-free factor's ``PowerPlan`` (``power_plan()``; without one, the
trivial plan on w itself): the gauss-conv rows are c v^alpha with
c = w e^(-kappa |v|^2), so every sum a block needs is a weighted power
sum, and the runner never forms the r x block slab of w.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .allocation import BudgetAllocation, derivative_allocation
from .errors import BudgetError, ContractivityError, UnsupportedDerivative
from .neumann import TruncationPlan, _as_points
from .problem import (_ROW_CHUNK_EVALS, DomainSpec, MeasureSampler, PowerNormTable, ProblemSpec,
                      operator_norm, radius_bound)
from .rng import TAG_DERIVATIVE, TAG_GEOMETRIC, TAG_INTEGRAL, TAG_SOLVE, substream

BLOCK_REPLICATES = 16384
_ONE_THREAD_GEMM = 2 ** 18  # OpenBLAS runs a gemm with m * n * k up to this on one thread
# chain-link evaluations per stacked kernel call: stacking saves the fixed
# cost of one call per link, which dominates small blocks; on a full block
# the copy into stacked pairs costs more than it saves
_LINK_EVALS = 1 << 14
_FD_STEP = 1e-5  # central-difference step for a missing forcing derivative


@dataclass
class TermMoments:
    """Streaming first/second moments of one term's per-tuple value field.

    ``mean`` and ``m2_diag`` are over the grid.  ``m2`` is the co-moment of
    the folded rows: over the grid on the general path (``a`` None), of the
    r-vector w on the factored path, where the field is ``a @ w`` with
    ``a`` the first factor over the grid (G x r)."""

    m: int
    theta: float
    count: int = 0
    mean: Optional[np.ndarray] = None
    m2_diag: Optional[np.ndarray] = None
    m2: Optional[np.ndarray] = None
    a: Optional[np.ndarray] = None
    eps_k: Optional[float] = None   # remainder bound |K - sum_k A_k B_k| of the factors

    @property
    def rank(self) -> Optional[int]:
        """The first factor's rank r on the factored path, else None."""
        return None if self.a is None else self.a.shape[1]

    @property
    def m2_full(self) -> Optional[np.ndarray]:
        """Co-moment over the grid; on the factored path a M2_w a^T, formed
        on each read."""
        if self.m2 is None or self.a is None:
            return self.m2
        return (self.a @ self.m2) @ self.a.T

    def merge_block(self, vals: np.ndarray, full: bool, mean_b=None) -> None:
        """Fold one (rows, block) slab of per-tuple values with row means
        ``mean_b`` (computed if None), centering it in place; with ``full``
        the block co-moment is its Gram matrix ``vals @ vals.T``."""
        mean_b = vals.mean(axis=1) if mean_b is None else mean_b
        vals -= mean_b[:, None]
        self.merge(vals.shape[1], mean_b, np.einsum("gi,gi->g", vals, vals),
                   vals @ vals.T if full else None)

    def merge(self, nb: int, mean_b: np.ndarray, diag_b: np.ndarray,
              full_b: Optional[np.ndarray] = None) -> None:
        """Merge the moments of a block of ``nb`` tuples (row means, centred
        sums of squares and, if kept, co-moment) into the running moments
        by the pairwise update of Chan, Golub and LeVeque."""
        if self.count == 0:
            self.count, self.mean, self.m2_diag, self.m2 = nb, mean_b, diag_b, full_b
            return
        na, n = self.count, self.count + nb
        delta = mean_b - self.mean
        scale = na * nb / n
        self.mean = self.mean + delta * (nb / n)
        self.m2_diag = self.m2_diag + diag_b + delta * delta * scale
        if full_b is not None:
            self.m2 = self.m2 + full_b + np.outer(delta, delta) * scale
        self.count = n

    def var_of_mean(self) -> np.ndarray:
        if self.count < 2:
            return np.zeros_like(self.mean)
        return self.m2_diag / ((self.count - 1) * self.count)


@dataclass
class EstimateTable:
    """Solver output: estimates on a grid with plug-in variances.

    ``per_term[i]`` holds the i-th term's dependent-trial average; in mode
    "solution" the reconstruction ``values = f + sum_i per_term[i]`` holds
    exactly.  ``n_used`` counts elapsed scalar draws.  ``factor_rank`` and
    ``factor_eps`` are the first factor's rank r and remainder bound when
    the terms took the factored path, else None.
    """

    t_grid: np.ndarray
    values: np.ndarray
    pointwise_var: np.ndarray
    per_term: np.ndarray
    per_term_var: np.ndarray
    n_used: int
    seed: int
    mode: str
    moments: Optional[list[TermMoments]] = field(default=None, repr=False, compare=False)
    factor_rank: Optional[int] = None
    factor_eps: Optional[float] = None


class CovarianceModel:
    """Plug-in covariance Z = A S A^T of the normalized limiting field on
    the grid.  Given ``Z_hat``, A is the identity (None) and S is Z_hat.
    On the factored path A is the first factor over the grid (G x r) and
    S is r x r; ``Z_hat`` is then formed on first read, for the export
    and for callers that want the G x G matrix, in row tiles that OpenBLAS
    runs on one thread, so its bits do not depend on the thread count."""

    def __init__(self, t_grid: np.ndarray, Z_hat: Optional[np.ndarray] = None, *,
                 sigma_plus_sq: float, A: Optional[np.ndarray] = None,
                 S: Optional[np.ndarray] = None):
        if (Z_hat is None) == (A is None and S is None) or (A is None) != (S is None):
            raise ValueError("give either Z_hat or both factors A and S")
        self.t_grid, self.sigma_plus_sq = t_grid, sigma_plus_sq
        self.A, self.S = A, Z_hat if A is None else S
        self._z_hat = Z_hat

    @property
    def Z_hat(self) -> np.ndarray:
        if self._z_hat is None:
            self._z_hat = _symmetrized(_row_tiles(_row_tiles(self.A, self.S), self.A.T))
        return self._z_hat


def _row_tiles(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b in row tiles of at most _ONE_THREAD_GEMM / (k n) rows of a,
    each a product that OpenBLAS runs on one thread."""
    step = max(1, _ONE_THREAD_GEMM // b.size)
    out = np.empty((a.shape[0], b.shape[1]))
    for lo in range(0, a.shape[0], step):
        np.matmul(a[lo:lo + step], b, out=out[lo:lo + step])
    return out


# ---------------------------------------------------------------------------
# the term runner


def _chain_tail(kernel: Optional[Callable], forcing: Optional[Callable], xs: np.ndarray) -> np.ndarray:
    """K(x1,x2)...K(x_{m-1},x_m) f(x_m) for xs of shape (n, m, dim); no f if
    forcing is None; 1 * f(x1) for m = 1, which reads no kernel.  The links
    are evaluated on stacked (k, n) pair arrays, k = _LINK_EVALS // n links
    per kernel call (all m-1 links of a short block in one call, one link
    per call from n = _LINK_EVALS / 2 on), and multiplied left to right."""
    n, m = xs.shape[:2]
    c = np.ones(n) if m == 1 else None
    k = max(1, _LINK_EVALS // n)
    for lo in range(0, m - 1, k):
        pts = np.swapaxes(xs[:, lo:lo + k + 1], 0, 1)
        if k > 1:
            pts = np.ascontiguousarray(pts)
        for link in np.asarray(kernel(pts[:-1], pts[1:]), dtype=float):
            c = link.copy() if c is None else np.multiply(c, link, out=c)
    return c if forcing is None else c * np.asarray(forcing(xs[:, -1, :]), dtype=float)


def _name_nonfinite(vals: np.ndarray, xs: np.ndarray, pts: Optional[np.ndarray]) -> None:
    """Raise naming the first non-finite value of ``vals`` (row-major; t and
    x, or x alone if pts is None); return if there is none."""
    bad = np.argwhere(~np.isfinite(vals))
    if len(bad) and pts is None:
        raise ValueError(f"non-finite value in the t-free factor B(x1) * tail at x={xs[bad[0, 1]]}")
    if len(bad):
        raise ValueError(f"non-finite integrand at t={pts[bad[0, 0]]}, x={xs[bad[0, 1]]}")


def _fold_tile(tm: TermMoments, vals: np.ndarray, full: bool, xs: np.ndarray,
               pts: Optional[np.ndarray]) -> None:
    """Fold one tile's block into ``tm``, naming the first non-finite value
    when a row mean is not."""
    with np.errstate(invalid="ignore"):  # a row with +inf and -inf has mean NaN
        mean_b = vals.mean(axis=1)
    if not np.all(np.isfinite(mean_b)):
        _name_nonfinite(vals, xs, pts)
    tm.merge_block(vals, full, mean_b)


class PowerPlan(NamedTuple):
    """How a factored block of rank r > 1 is folded without forming W = w B(x1).

    The runner's block buffer T has ``rows`` rows.  Whoever writes it (the
    t-free factor's ``power_rows(x, w, out)``, or the trivial plan's rows)
    writes every row but ``q_rows``; ``T[c_row]`` is c = W_0, the first row
    of W.  The fold sets ``T[q_rows] = C0 * T[s_rows]`` with C0 = c - mean(c)
    and forms one product G = T[y] T[l]^T, from which ``sums[k]`` gathers
    sum W_k, ``cen[k]`` gathers sum W_k C0, and ``gram[j, k]`` the raw sum
    W_j W_k from E = [G.ravel(), G.flat[cen] + mean(c) G.flat[sums]].  The
    index arrays are read-only."""

    rows: int
    y: slice
    l: slice
    c_row: int
    s_rows: slice
    q_rows: slice
    sums: np.ndarray
    cen: np.ndarray
    gram: np.ndarray


def _plan_moments(buf: np.ndarray, plan: PowerPlan, xs: np.ndarray):
    """(nb, row means, diagonal, co-moment) of a factored block of nb tuples
    from the buffer ``buf`` laid out by ``plan``, naming x of the first
    non-finite value.

    C0 = c - mu0 (mu0 the mean of c = W_0) is formed explicitly, and sum C0
    and sum C0^2 are taken from it.  Row and column 0 of the co-moment are
    centred, sum W_k C0 - sum W_k * sum C0 / nb; every other entry is the
    gathered raw sum minus nb mean_j mean_k.  The product is summed in
    order over column tiles of at most _ONE_THREAD_GEMM / (|y| |l|) columns,
    which OpenBLAS runs on one thread, so the bits do not depend on the
    BLAS thread count."""
    nb = buf.shape[1]
    c = buf[plan.c_row]
    with np.errstate(invalid="ignore"):
        mu0 = c.mean()
    if not np.isfinite(mu0):
        _name_nonfinite(buf[plan.c_row:plan.c_row + 1], xs, None)
    c0 = c - mu0
    np.multiply(buf[plan.s_rows], c0, out=buf[plan.q_rows])
    y, low = buf[plan.y], buf[plan.l]
    step = max(1, _ONE_THREAD_GEMM // (len(y) * len(low)))
    step = -(-nb // -(-nb // step))   # the same number of tiles, of even width
    prod = 0.0
    with np.errstate(invalid="ignore", over="ignore"):
        for lo in range(0, nb, step):
            prod = prod + y[:, lo:lo + step] @ low[:, lo:lo + step].T
    flat = prod.ravel()
    sums, cen = flat[plan.sums], flat[plan.cen]
    if not np.all(np.isfinite(sums)):
        _name_nonfinite(buf, xs, None)
    sum_c0 = c0.sum()
    delta = sum_c0 / nb
    centred0 = cen - sums * delta
    centred0[0] = np.einsum("i,i->", c0, c0) - sum_c0 * delta
    mean_b = sums / nb
    mean_b[0] = mu0 + delta
    m2 = np.concatenate([flat, cen + mu0 * sums])[plan.gram] - nb * np.outer(mean_b, mean_b)
    m2[0] = m2[:, 0] = centred0
    return nb, mean_b, m2.diagonal().copy(), m2


@functools.lru_cache(maxsize=None)
def _trivial_plan(r: int) -> PowerPlan:
    """The plan of a t-free factor without one: T = [1; C0; W], so the
    product [1; C0; W] W^T holds the row sums, sum W_k C0 and the raw Gram
    matrix (its lower triangle, read symmetrically)."""
    j, k = np.indices((r, r))
    index = [np.arange(r), r + np.arange(r), (2 + np.maximum(j, k)) * r + np.minimum(j, k)]
    for arr in index:
        arr.flags.writeable = False
    return PowerPlan(r + 2, slice(0, r + 2), slice(2, r + 2), 2, slice(0, 1), slice(1, 2), *index)


def _runner_plan(b: Callable, r: int):
    """(plan, rows) for ``_plan_moments`` of an r-row t-free factor b, with
    ``rows(x, w, out)`` writing the buffer: ``b.power_plan()`` and
    ``b.power_rows``, or for a b without them the trivial plan, whose rows
    are a row of ones and w * b(x) (b's array is only read)."""
    plan = getattr(b, "power_plan", lambda: None)()
    if plan is not None:
        return plan, b.power_rows

    def rows(x, w, out):
        out[0] = 1.0
        np.multiply(np.reshape(b(x), out[2:].shape), w, out=out[2:], dtype=float)

    return _trivial_plan(r), rows


def _first_factors(first: Callable, grid: np.ndarray, domain: DomainSpec):
    """(A(grid) of shape (G, r), b, eps, plan) when the first factor takes
    the factored path, else None.  ``first.factors()`` returns (a, b) for an
    exact K(t, s) = sum_k a_k(t) b_k(s), or (a, b, eps) for an expansion
    within eps of K on the domain box, or None; a(t) has shape (G,) or
    (G, r), b(s) shape (n,) or (r, n).  For r > 1, (plan, b) is
    ``_runner_plan(b, r)``, whose b writes the plan's buffer; for r = 1
    plan is None.
    The path is taken while r <= G/2, G the domain's grid size (so it does
    not depend on the points passed), and an inexact expansion only on
    grids inside the box."""
    fac = getattr(first, "factors", lambda: None)()
    if fac is None:
        return None
    a, b, *rest = fac
    eps = float(rest[0]) if rest else 0.0
    if eps > 0.0 and np.any((grid < domain.lows) | (grid > domain.highs)):
        return None
    a_t = np.asarray(a(grid), dtype=float).reshape(grid.shape[0], -1)
    if 2 * a_t.shape[1] > domain.grid_points_per_dim ** domain.dim:
        return None
    bad = ~np.all(np.isfinite(a_t), axis=1)
    if np.any(bad):
        raise ValueError(f"non-finite first factor at t={grid[np.argmax(bad)]}")
    r = a_t.shape[1]
    plan, b = _runner_plan(b, r) if r > 1 else (None, b)
    return a_t, b, eps, plan


def _run_term(count: int, m: int, grid: np.ndarray, rng: np.random.Generator,
              mu: MeasureSampler, domain: DomainSpec, first: Callable, fac,
              tail: Optional[Callable], theta: float, collect_cov: bool) -> TermMoments:
    """Dependent-trial average of one term: ``count`` replicates of
    m-tuples, the same tuples reused for every grid point; the field per
    tuple is ``first(t, x1) * tail(xs)``, or ``first`` alone if tail is None.

    Per block the tail is evaluated once (1.0 if None) and passed to the
    term's fold, picked once per term from ``fac``, which is
    ``_first_factors(first, grid, domain)`` (evaluated once per engine):

    - grid tiles (fac None): each grid row tile is one ``np.multiply`` of
      its first factor by the tail.  Without a grid co-moment a tile has
      ``_ROW_CHUNK_EVALS // min(count, BLOCK_REPLICATES)`` rows, a fresh
      product freed before the next tile's kernel call, so no grid x block
      array is made; one tile reuses a slab.  Row moments do not depend on
      the other rows, so tiles keep every bit.
    - a rank-1 row: w = B(x1) * tail, multiplied into the 1 x block slab,
      folded as a tile (a 1 x 1 co-moment is its diagonal).
    - a power plan (r > 1): the slab is the plan's buffer of weighted
      power rows, written from x1 and the tail, and the block's moments,
      with the r x r co-moment M2_w, come from one product of those rows
      (``_plan_moments``); for gauss-conv the r rows of w are never formed.

    Every multiply only reads the kernel's arrays (they may be cached or
    read-only).  On the factored paths the mean A mu_w and m2_diag =
    rowwise((A M2_w) o A), one gemm, are expanded over the grid, and M2_w
    is kept with A.
    """
    if fac is None:
        rows, full = grid.shape[0], collect_cov
        step = rows if full else max(1, _ROW_CHUNK_EVALS // min(count, BLOCK_REPLICATES))

        def fold(tm, lo, xs, tail_b, out):
            pts = grid[lo:lo + step]
            _fold_tile(tm, np.multiply(first(pts[:, None, :], xs[None, :, 0, :]), tail_b, out=out,
                                       dtype=float), full, xs, pts)
    elif fac[3] is None:  # rank 1: no plan
        a_t, b, eps, _ = fac
        rows = step = 1

        def fold(tm, lo, xs, tail_b, out):
            vals = np.multiply(np.reshape(b(xs[:, 0, :]), out.shape), tail_b, out=out, dtype=float)
            _fold_tile(tm, vals, False, xs, None)
    else:
        a_t, write_rows, eps, plan = fac
        rows = step = plan.rows

        def fold(tm, lo, xs, tail_b, out):
            write_rows(xs[:, 0, :], tail_b, out)
            tm.merge(*_plan_moments(out, plan, xs))
    tiles = [TermMoments(m=m, theta=theta) for _ in range(0, rows, step)]
    slab = np.empty(rows * min(count, BLOCK_REPLICATES)) if len(tiles) == 1 else None
    for done in range(0, count, BLOCK_REPLICATES):
        nb = min(BLOCK_REPLICATES, count - done)
        # no view of the last block's draws outlives this rebinding, so they are freed here
        xs = mu.sample(domain, nb * m, rng).reshape(nb, m, domain.dim)
        tail_b = 1.0 if tail is None else tail(xs)
        out = None if slab is None else slab[:rows * nb].reshape(rows, nb)
        for i, tm in enumerate(tiles):
            fold(tm, i * step, xs, tail_b, out)
    tm = TermMoments(m=m, theta=theta, count=count, m2=tiles[0].m2,
                     mean=np.concatenate([t.mean for t in tiles]),
                     m2_diag=np.concatenate([t.m2_diag for t in tiles]))
    if fac is None:
        return tm
    m2 = np.diag(tm.m2_diag) if tm.m2 is None else tm.m2
    return TermMoments(m=m, theta=theta, count=tm.count,
                       mean=np.einsum("gk,k->g", a_t, tm.mean),
                       m2_diag=np.einsum("gk,gk->g", a_t @ m2, a_t),
                       m2=m2 if collect_cov else None, a=a_t, eps_k=eps)


def _table(grid: np.ndarray, base, moments: list[TermMoments], n_used: int,
           seed: int, mode: str, collect_cov: bool) -> EstimateTable:
    """Estimate ``base + sum of term means`` with summed term variances."""
    per_term = np.stack([tm.mean for tm in moments])
    per_term_var = np.stack([tm.var_of_mean() for tm in moments])
    return EstimateTable(
        t_grid=grid, values=base + per_term.sum(axis=0),
        pointwise_var=per_term_var.sum(axis=0),
        per_term=per_term, per_term_var=per_term_var,
        n_used=n_used, seed=seed, mode=mode,
        moments=moments if collect_cov else None,
        factor_rank=moments[0].rank, factor_eps=moments[0].eps_k,
    )


# ---------------------------------------------------------------------------
# estimators


def estimate_parametric_integral(g, nu: MeasureSampler, x_domain: DomainSpec,
                                 t_grid, n: int, seed: int, collect_covariance: bool = False,
                                 weight: Optional[Callable] = None) -> EstimateTable:
    """Dependent-trial estimate of I(t) = int g(t,x) weight(x) nu(dx) (no
    weight if None): one stream of n draws, reused for every t.  The
    weight is the runner's tail of a one-point chain, 1 * weight(x), so
    with g = K and weight = f this is the first Neumann term S[f], and a
    g with ``factors()`` takes the factored path."""
    if n < 2:
        raise ValueError("need n >= 2 draws")
    grid = np.asarray(t_grid, dtype=float)
    if grid.ndim == 1:
        grid = grid[:, None]
    tail = None if weight is None else functools.partial(_chain_tail, None, weight)
    tm = _run_term(n, 1, grid, substream(seed, TAG_INTEGRAL), nu, x_domain, g,
                   _first_factors(g, grid, x_domain), tail, 1.0, collect_covariance)
    return _table(grid, 0.0, [tm], n * x_domain.dim, seed, "integral", collect_covariance)


def solve_fredholm_mc(spec: ProblemSpec, plan: TruncationPlan, alloc: BudgetAllocation,
                      t_grid, seed: int, collect_covariance: bool = False) -> EstimateTable:
    """Truncated-Neumann Monte-Carlo solution estimate on the grid.

    Term m gets alloc.counts[m-1] fresh i.i.d. m-tuples from the substream
    keyed by (seed, m); the same tuples serve every grid point.
    """
    if alloc.N != plan.N:
        raise ValueError(f"allocation is for N={alloc.N} but truncation plan has N={plan.N}")
    grid = _as_points(spec, t_grid)
    tail = functools.partial(_chain_tail, spec.kernel, spec.forcing)
    fac = _first_factors(spec.kernel, grid, spec.domain)
    moments = [_run_term(int(alloc.counts[m - 1]), m, grid, substream(seed, TAG_SOLVE, m),
                         spec.mu, spec.domain, spec.kernel, fac, tail,
                         float(alloc.theta[m - 1]), collect_covariance)
               for m in range(1, plan.N + 1)]
    return _table(grid, np.asarray(spec.forcing(grid), dtype=float), moments,
                  alloc.cost_B * spec.domain.dim, seed, "solution", collect_covariance)


def _clipped_diagonal(d: np.ndarray) -> np.ndarray:
    """A covariance diagonal with rounding-level negatives set to 0."""
    d = np.where((d < 0) & (d > -1e-12), 0.0, d)
    if np.any(d < 0):
        raise ValueError("covariance diagonal significantly negative; accumulation bug")
    return d


def _symmetrized(Z: np.ndarray) -> np.ndarray:
    Z = (Z + Z.T) / 2.0
    np.fill_diagonal(Z, _clipped_diagonal(np.diag(Z)))
    return Z


def estimate_covariance(spec: ProblemSpec, alloc: BudgetAllocation, t_grid,
                        samples: Sequence[TermMoments]) -> CovarianceModel:
    """Plug-in covariance of the sqrt(n)-normalized error field:
    Z_hat = sum_m cov_m / theta(m) with cov_m the per-tuple sample
    covariance of term m across the grid.  On the factored path
    cov_m = A M2_w,m A^T / (count_m - 1) with the first factor A (G x r)
    that all terms share, and the model keeps A and the r x r
    S = sum_m M2_w,m / ((count_m - 1) theta_m); sigma_plus_sq, the largest
    diagonal entry, comes from rowwise(A S A^T)."""
    grid = _as_points(spec, t_grid)
    for tm in samples:
        if tm.count < 2:
            raise BudgetError(f"term with tuple length {tm.m} has {tm.count} replicate(s), "
                              "too few for a covariance estimate; raise the budget or epsilon")
        if tm.m2 is None:
            raise ValueError("samples were collected without covariance accumulation")
    S = _symmetrized(sum(tm.m2 / (tm.count - 1) / tm.theta for tm in samples))
    a = samples[0].a  # one engine call: every term shares the first factor
    if a is None:
        return CovarianceModel(t_grid=grid, Z_hat=S, sigma_plus_sq=float(np.diag(S).max()))
    d = _clipped_diagonal(np.einsum("gk,gk->g", a @ S, a))
    return CovarianceModel(t_grid=grid, sigma_plus_sq=float(d.max()), A=a, S=S)


def _forcing_derivative(spec: ProblemSpec):
    if spec.forcing_dt is not None:
        return spec.forcing_dt
    f = spec.forcing

    def fd(x):
        x = np.asarray(x, dtype=float)
        h = np.zeros_like(x)
        h[..., 0] = _FD_STEP
        return (np.asarray(f(x + h)) - np.asarray(f(x - h))) / (2 * _FD_STEP)

    return fd


def derivative_solve(spec: ProblemSpec, plan: TruncationPlan, alloc: BudgetAllocation,
                     t_grid, seed: int, collect_covariance: bool = False) -> EstimateTable:
    """Estimate Y = y' via the differentiated equation Y = f' + V[y] with
    V = dK/dt.

    Term j draws a pilot point plus a (j-1)-tuple and estimates
    V[S^(j-1) f]; terms j = 1..N+1 are used so the deterministic bias is
    bounded by ||V|| * epsilon (the dropped part is V applied to the
    y-series tail beyond N).  The counts are those of
    ``derivative_allocation(alloc)``: N+1 terms at the same total budget.
    """
    if spec.domain.dim != 1:
        raise UnsupportedDerivative("derivative solve supports 1-D domains only")
    if spec.kernel_dt is None:
        raise UnsupportedDerivative("problem has no kernel t-derivative (kernel_dt)")
    if alloc.N != plan.N:
        raise ValueError(f"allocation is for N={alloc.N} but truncation plan has N={plan.N}")
    grid = _as_points(spec, t_grid)
    terms = derivative_allocation(alloc)
    tail = functools.partial(_chain_tail, spec.kernel, spec.forcing)
    fac = _first_factors(spec.kernel_dt, grid, spec.domain)
    moments = [_run_term(int(terms.counts[j - 1]), j, grid, substream(seed, TAG_DERIVATIVE, j),
                         spec.mu, spec.domain, spec.kernel_dt, fac, tail,
                         float(terms.theta[j - 1]), collect_covariance)
               for j in range(1, terms.N + 1)]
    fprime = np.asarray(_forcing_derivative(spec)(grid), dtype=float)
    return _table(grid, fprime, moments, terms.cost_B, seed, "derivative", collect_covariance)


def solve_geometric(spec: ProblemSpec, lam: float, M: int, budget: int, t_grid,
                    seed: int, pnt: Optional[PowerNormTable] = None) -> EstimateTable:
    """Geometric-randomization estimate of the damped solution
    y_lam = f + sum_m lam^m S^m[f].

    Draws M geometric term depths tau_j (P(tau=m) = (1-lam) lam^m); each
    depth is estimated by a dependent-trial average over n_j tuples, and
    the double average is rescaled by 1/(1-lam).  The outer randomization
    noise decays like 1/M, which is what caps this method at the slower
    n^(-1/4) uniform rate.
    """
    if not 0.0 < lam < 1.0:
        raise ValueError("lam must lie in (0, 1)")
    if M < 2:
        raise ValueError("M must be >= 2")
    radius = radius_bound(pnt.r_S) if pnt is not None else operator_norm(spec, "S")
    if lam * max(radius, 0.0) >= 1.0:
        raise ContractivityError(f"lam * spectral proxy = {lam * radius:.4f} >= 1; damped series may diverge")
    grid = _as_points(spec, t_grid)
    dim = spec.domain.dim
    e_tau = lam / (1.0 - lam)
    n_j = max(1, int(round(budget / (M * e_tau))))
    taus = substream(seed, TAG_GEOMETRIC, 0).geometric(1.0 - lam, size=M) - 1
    realized = int(n_j * np.sum(taus)) * dim
    if realized > 2 * budget * dim:
        raise BudgetError(f"realized draw cost {realized} exceeds twice the budget "
                          f"{budget * dim}; heavy-tailed depth draw, re-seed or raise budget")
    f_grid = np.asarray(spec.forcing(grid), dtype=float)
    tail = functools.partial(_chain_tail, spec.kernel, spec.forcing)
    fac = _first_factors(spec.kernel, grid, spec.domain)
    per_term = np.empty((M, grid.shape[0]))
    rank = eps_k = None
    for j, tau in enumerate(taus):
        if tau == 0:
            per_term[j] = f_grid  # S^0[f] = f, known exactly
            continue
        tm = _run_term(n_j, int(tau), grid, substream(seed, TAG_GEOMETRIC, 1 + j),
                       spec.mu, spec.domain, spec.kernel, fac, tail, 1.0, False)
        per_term[j], rank, eps_k = tm.mean, tm.rank, tm.eps_k
    scale = 1.0 / (1.0 - lam)
    values = per_term.mean(axis=0) * scale
    var = per_term.var(axis=0, ddof=1) / M * scale ** 2
    return EstimateTable(
        t_grid=grid, values=values, pointwise_var=var,
        per_term=per_term, per_term_var=np.zeros_like(per_term),
        n_used=realized, seed=seed, mode="geometric",
        factor_rank=rank, factor_eps=eps_k,
    )
