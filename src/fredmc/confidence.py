"""Uniform-norm confidence bands.

Two routes:

* **gauss-sim** (asymptotic): the sqrt(n)-normalized uniform error
  converges in law to the supremum of a centered Gaussian field whose
  covariance we estimate by plug-in.  The band half-width is the
  empirical (1-delta) quantile of simulated field suprema, divided by
  sqrt(n).

* **nonasymptotic-psi**: valid at every n.  From a moment profile
  psi(p) >= sup_t |field(t)|_p and a metric dominating the field's
  increment norms, a chaining majorant

      Zbar = sigma_psi + 9 * int_0^sigma_psi v*(log 2 N(T,d,x)) dx

  is computed (v* is the profile's infimal transform, N the covering
  number), and the tail P(sup > u) is bounded by the best moment-Markov
  bound inf_p (psibar(p) * Zbar / u)^p; the band inverts that tail at
  the target miss probability.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .allocation import BudgetAllocation
from .errors import BandTooWide, NotPSD
from .estimator import _ONE_THREAD_GEMM, CovarianceModel
from .problem import DomainSpec, Metric, ProblemSpec
from .rng import TAG_GAUSS_SIM, substream

C0_BAR = 1.77638        # normalizing constant of the CLT moment profile
SIM_BATCH = 4096
SIM_TILE = 24           # path rows of a gemm tile come in multiples of this
_NEG_EIG_TOL = 1e-6     # covariance eigenvalues below -tol * trace raise NotPSD
_TRACE_CUT = 1e-12      # trace share of the smallest eigenpairs left out of the simulation
_W_CONVEXITY_TOL = -1e-9
_V_STAR_CHUNK = 128     # x values per v* evaluation: a chunk's (x, knot) arrays stay near 100 kB
_PSI_ROWS = 8           # p rows per block of the moment profile's p x nodes power table


@dataclass(frozen=True)
class PsiFunction:
    """Tabulated moment profile p -> psi(p) on a log-spaced grid.

    Membership in the admissible class requires psi > 0 and
    w(p) = p log psi(p) convex; both are checked at construction.
    Outside the support psi is +infinity by convention.
    """

    p: np.ndarray
    values: np.ndarray
    kind: str
    support: tuple[float, float]

    def __post_init__(self):
        p, v = np.asarray(self.p, dtype=float), np.asarray(self.values, dtype=float)
        if len(p) < 2 or len(p) != len(v):
            raise ValueError("tabulation needs matching p/value arrays of length >= 2")
        if np.any(np.diff(p) <= 0):
            raise ValueError("p grid must be strictly increasing")
        if np.any(v <= 0) or not np.all(np.isfinite(v)):
            raise ValueError("psi must be positive and finite on its tabulation")
        w = p * np.log(v)
        slopes = np.diff(w) / np.diff(p)
        if np.any(np.diff(slopes) < _W_CONVEXITY_TOL):
            raise ValueError("p * log psi(p) is not convex on the tabulation")

    def __call__(self, q) -> np.ndarray:
        """Interpolated psi (linear in log-log; exact on power laws)."""
        q = np.asarray(q, dtype=float)
        if np.any(q < self.p[0] - 1e-12) or np.any(q > self.p[-1] * (1 + 1e-12)):
            raise ValueError(f"p={q} outside tabulated range [{self.p[0]}, {self.p[-1]}]")
        return np.exp(np.interp(np.log(q), np.log(self.p), np.log(self.values)))

    @property
    def p_max(self) -> float:
        return float(self.p[-1])


@dataclass(frozen=True)
class ConfidenceBand:
    """Uniform-norm band: sup_t |estimate - target| <= u_delta / sqrt(n)
    with probability (at least / asymptotically) 1 - delta."""

    delta: float
    u_delta: float
    half_width: Optional[float]
    method: str  # "gauss-sim" | "nonasymptotic-psi"
    n_sim: int = 0
    covariance: Optional[CovarianceModel] = None
    z_bar: Optional[float] = None
    q: Optional[int] = None                 # gauss-sim: eigenpairs simulated
    dropped_trace: Optional[float] = None   # gauss-sim: clipped plus cut mass / trace
    psi_kind: Optional[str] = None          # nonasymptotic-psi: the profile's PsiFunction.kind
    psi_support: Optional[tuple[float, float]] = None  # nonasymptotic-psi: its [p_min, p_max]

    def to_dict(self, n: Optional[int] = None, kappa_fit: Optional[float] = None,
                C_fit: Optional[float] = None) -> dict:
        out = {
            "delta": float(self.delta),
            "u_delta": float(self.u_delta),
            "method": self.method,
            "n": int(n) if n is not None else None,
            "half_width": float(self.half_width) if self.half_width is not None else None,
            "sigma_plus_sq": float(self.covariance.sigma_plus_sq) if self.covariance else None,
        }
        if self.z_bar is not None:
            out["z_bar"] = float(self.z_bar)
        if self.psi_kind is not None:
            out["psi_kind"] = self.psi_kind
            out["psi_support"] = [float(p) for p in self.psi_support]
        if self.q is not None:
            out["q"] = int(self.q)
            out["dropped_trace"] = float(self.dropped_trace)
        if kappa_fit is not None:
            out["kappa_fit"] = float(kappa_fit)
            out["C_fit"] = float(C_fit)
        return out


def default_p_grid(a: float = 2.0, b: float = 512.0, n: int = 96) -> np.ndarray:
    return np.geomspace(a, b, n)


def natural_psi_from_R(spec: ProblemSpec, p_grid: Optional[np.ndarray] = None,
                       weight=None) -> PsiFunction:
    """Moment profile of the envelope: psi(p) = (int R(x)^p mu(dx))^(1/p),
    with R replaced by |weight(x)| R(x) when a weight function is given.

    Evaluated by midpoint quadrature, 2048 nodes in 1-D and 64 per axis
    above, with max-rescaling so large p never overflows; p values whose
    moment integral is not finite are dropped (support truncates at the
    last finite p).
    """
    p_grid = default_p_grid() if p_grid is None else np.asarray(p_grid, dtype=float)
    nodes, w = spec.mu.quad_nodes(spec.domain, 2048 if spec.domain.dim == 1 else 64)
    R = np.abs(np.asarray(spec.envelope_R(nodes), dtype=float))
    if weight is not None:
        R *= np.abs(np.asarray(weight(nodes)))
    rmax = float(R.max())
    if not np.isfinite(rmax) or rmax <= 0:
        raise ValueError("envelope must be positive somewhere and finite at quadrature nodes")
    ratios = R / rmax
    vals = np.empty(len(p_grid))
    for i in range(0, len(p_grid), _PSI_ROWS):  # a few p rows at a time: no p x nodes table
        p = p_grid[i:i + _PSI_ROWS]
        vals[i:i + len(p)] = rmax * np.mean(ratios[None, :] ** p[:, None], axis=1) ** (1.0 / p)
    finite = np.isfinite(vals)
    if not finite.all():
        last = int(np.argmin(finite))
        if last < 2:
            raise ValueError("moment integral diverges on the whole p grid")
        p_grid, vals = p_grid[:last], vals[:last]
    return PsiFunction(p=p_grid, values=vals, kind="natural-from-R",
                       support=(float(p_grid[0]), float(p_grid[-1])))


def psi_bar(psi: PsiFunction) -> PsiFunction:
    """CLT-uniform profile psibar(p) = p * psi(p) / (C0 * log p): the
    profile of n^(-1/2) sums stays below it for every n.  Support starts
    at e so log p is safely positive."""
    lo = max(psi.p[0], np.e * (1 + 1e-9))
    if lo >= psi.p_max:
        raise ValueError("profile support too short to form the CLT version")
    p = np.geomspace(lo, psi.p_max, max(64, len(psi.p)))
    vals = p * psi(p) / (C0_BAR * np.log(p))
    return PsiFunction(p=p, values=vals, kind="clt-bar", support=(float(lo), psi.support[1]))


# ---------------------------------------------------------------------------
# infimal transform and metric entropy


def v_star(psi: PsiFunction, x):
    """Infimal transform v*(x) = inf_{y in (0,1)} (x y + log psi(1/y)),
    with y ranging over the closure of the support image [1/p_max, 1/a].

    Exact on the log-log tabulation: between knots p_k, log psi(1/y) =
    L_k - s_k (log y + log p_k), so each piece of the objective is convex
    with stationary point y = s_k / x when s_k > 0 and is minimized at a
    knot otherwise.  The infimum is the least of the knot values and the
    convex pieces' stationary points clipped to their piece.  Accepts an
    array of x; a scalar x gives a float.  The x values are taken
    _V_STAR_CHUNK at a time, so no (x, knot) array grows with x.
    """
    x = np.asarray(x, dtype=float)
    if not np.all(x >= 0):  # also refuses NaN
        raise ValueError("x must be >= 0")
    log_p, log_v = np.log(psi.p), np.log(psi.values)
    s = np.diff(log_v) / np.diff(log_p)
    k = np.flatnonzero(s > 0)
    flat = x.reshape(-1)
    out = np.empty(flat.shape)
    for i in range(0, flat.size, _V_STAR_CHUNK):
        xs = flat[i:i + _V_STAR_CHUNK, None]
        with np.errstate(divide="ignore"):  # x = 0: stationary point at infinity, clipped to the knot
            y = np.clip(s[k] / xs, 1.0 / psi.p[k + 1], 1.0 / psi.p[k])
        at_knots = np.min(xs / psi.p + log_v, axis=-1)
        inside = xs * y + log_v[k] - s[k] * (np.log(y) + log_p[k])
        np.minimum(at_knots, np.min(inside, axis=-1, initial=np.inf), out=out[i:i + len(xs)])
    return float(out[0]) if x.ndim == 0 else out.reshape(x.shape)


def entropy_H(domain: DomainSpec, metric: Metric, eps):
    """Metric entropy H = log N(T, d, eps) for the declared metric, via
    the exact per-axis box covering ceil(L / (2 r)) with r the Euclidean
    radius of an eps-ball, ``metric.log_radius(eps)``.  Accepts an array
    of eps; a scalar eps gives a float."""
    eps = np.asarray(eps, dtype=float)
    if not np.all(eps > 0):  # also refuses NaN
        raise ValueError("eps must be positive")
    if metric.kind == "holder" and metric.scale == 0.0:
        return 0.0 if eps.ndim == 0 else np.zeros_like(eps)
    log_r = metric.log_radius(eps)
    h = 0.0
    for length in domain.lengths:
        log_ratio = np.log(length / 2.0) - log_r
        # above e^40 balls per axis the ceil is irrelevant; at or below one ball log 1 = 0
        ratio = np.exp(np.minimum(log_ratio, 40.0))
        h = h + np.where(log_ratio > 40.0, log_ratio,
                         np.log(np.maximum(np.ceil(ratio - 1e-12), 1.0)))
    if metric.kind == "log-power":
        h = np.where(eps >= metric.scale, 0.0, h)
    return float(h) if h.ndim == 0 else h


# ---------------------------------------------------------------------------
# gauss-sim band


def _eigen_factor(Z: np.ndarray, A: Optional[np.ndarray] = None) -> tuple[np.ndarray, float]:
    """F (G x q) with F F^T = A Z A^T (Z itself when A is None) but for the
    clipped negative eigenvalues and the cut tail, and that dropped mass
    relative to the trace; q = 0 when the trace is not positive.

    With the thin QR A = Q R, A Z A^T = Q (R Z R^T) Q^T, so the eigenpairs
    (w, V) of the r x r matrix C = R Z R^T give F = Q V sqrt(w) and the
    trace is that of C.  Each column of F is signed so that its largest
    |entry| (the first of a tie) is positive: the eigensolver's signs are
    arbitrary, and this makes F one function of the covariance."""
    Q = None
    if A is not None:
        Q, R = np.linalg.qr(A)
        Z = R @ Z @ R.T
    trace = float(np.trace(Z))
    if trace <= 0.0:
        return np.zeros((Z.shape[0] if Q is None else Q.shape[0], 0)), 0.0
    w, V = np.linalg.eigh(Z)
    if not w[0] >= -_NEG_EIG_TOL * trace:  # also refuses NaN
        raise NotPSD(f"covariance eigenvalue {w[0]:.3g} < -{_NEG_EIG_TOL:g} * trace {trace:.3g}")
    clipped = -float(w[w < 0.0].sum())
    w = np.maximum(w, 0.0)
    cut = int(np.searchsorted(np.cumsum(w), _TRACE_CUT * trace, side="right"))
    F = V[:, cut:][:, ::-1] * np.sqrt(w[cut:][::-1])  # leading pair first
    if Q is not None:
        F = Q @ F
    top = np.argmax(np.abs(F), axis=0)
    F *= np.where(F[top, np.arange(F.shape[1])] < 0.0, -1.0, 1.0)
    return F, (clipped + float(w[:cut].sum())) / trace


def empirical_quantile(x, p):
    """``np.quantile(x, p)`` (method "linear") bit for bit for x without NaN,
    p a float or an array: one ``np.partition`` of a copy at numpy's own
    points and numpy's ``_lerp`` rounding.  np.quantile picks those points
    with np.unique, whose first call imports numpy.ma (11-17 ms)."""
    x = np.asarray(x, dtype=float).ravel()
    v = (x.shape[0] - 1) * np.asarray(p, dtype=float)
    top = v >= x.shape[0] - 1   # numpy takes the maximum for both neighbours
    lo = np.where(top, -1, np.floor(v)).astype(np.intp)
    hi = np.where(top, -1, lo + 1)
    ranked = np.partition(x, sorted({0, -1, *lo.ravel().tolist(), *hi.ravel().tolist()}))
    a, b, t = ranked[lo], ranked[hi], v - lo
    d = b - a
    out = np.where(t >= 0.5, b - d * (1 - t), a + d * t)
    return float(out) if out.ndim == 0 else out


def simulate_sup_quantile(cov: CovarianceModel, delta: float, n_sim: int, seed: int,
                          n: Optional[int] = None,
                          return_sims: bool = False):
    """Empirical (1-delta) quantile of sup_t |X(t)| for the centered
    Gaussian field with the plug-in covariance; band half-width is
    u_delta / sqrt(n).  Each path is q normals times the covariance's eigen
    factor, taken through an r x r eigenproblem when the model is factored;
    fixed-size batches, per-batch substreams, deterministic merge.
    With q = 1 a path is z F(t), so its sup is |z| max|F|: one product per
    path, and the same bits as the max over the grid, because rounding a
    product is monotone and symmetric in sign.

    Otherwise z F^T is formed in tiles of path rows, sups taken per tile, so
    no batch x G array is held.  A tile has the most multiples of SIM_TILE
    rows under OpenBLAS's one-thread cutoff (8 SIM_TILE = 192 rows when none
    fit): on 2 vCPUs a threaded product of that size ran up to 20x slower.
    On one thread such tiles keep each element's bits (OpenBLAS 0.3.31,
    AVX-512; 1 or 3 rows do not).  ``empirical_quantile`` of a copy leaves
    sims in path order and numpy.ma unimported."""
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    if n_sim < 1:
        raise ValueError("n_sim must be >= 1")
    if delta <= 0.05 and n_sim < 10_000:
        raise ValueError("need n_sim >= 1e4 for delta <= 0.05")
    F, dropped = _eigen_factor(cov.S, cov.A)
    q = F.shape[1]
    sups = np.zeros(n_sim)
    if q > 1:
        rows = SIM_TILE * (_ONE_THREAD_GEMM // (SIM_TILE * F.size) or 8)
        tile = np.empty((min(rows, SIM_BATCH, n_sim), F.shape[0]))
    for b in range(0, n_sim, SIM_BATCH) if q > 0 else ():
        rng = substream(seed, TAG_GAUSS_SIM, b // SIM_BATCH)
        z = rng.standard_normal((min(SIM_BATCH, n_sim - b), q))
        if q == 1:
            np.multiply(np.abs(z[:, 0]), np.max(np.abs(F[:, 0])), out=sups[b:b + len(z)])
            continue
        for i in range(0, len(z), len(tile)):
            x = np.matmul(z[i:i + len(tile)], F.T, out=tile[:len(z) - i])
            np.max(np.abs(x, out=x), axis=1, out=sups[b + i:b + i + len(x)])
    u = empirical_quantile(sups, 1.0 - delta)
    band = ConfidenceBand(delta=delta, u_delta=u,
                          half_width=u / math.sqrt(n) if n else None,
                          method="gauss-sim", n_sim=n_sim, covariance=cov,
                          q=q, dropped_trace=dropped)
    return (band, sups) if return_sims else band


def tail_shape_report(cov: CovarianceModel, u_grid: Sequence[float], sims: np.ndarray) -> tuple[float, float]:
    """Report-only fit of the sup-tail shape C * u^(kappa-1) * exp(-u^2 / 2 sigma+^2)
    by regressing log P(u) + u^2/(2 sigma+^2) on log u over the upper
    decile of the simulated suprema.  Never used for calibration."""
    sims = np.asarray(sims, dtype=float)
    lo = empirical_quantile(sims, 0.9)
    us = np.array([u for u in np.asarray(u_grid, dtype=float) if u >= lo])
    counts = np.array([(sims > u).sum() for u in us])
    keep = counts >= 50
    if keep.sum() < 3:
        raise ValueError("fewer than 50 exceedances at the largest thresholds; widen u_grid "
                         "toward the bulk or simulate more paths")
    us, counts = us[keep], counts[keep]
    phat = counts / len(sims)
    y = np.log(phat) + us ** 2 / (2.0 * cov.sigma_plus_sq)
    X = np.stack([np.ones_like(us), np.log(us)], axis=1)
    coef, *_ = np.linalg.lstsq(X, y, rcond=None)
    return float(coef[1] + 1.0), float(np.exp(coef[0]))


# ---------------------------------------------------------------------------
# non-asymptotic band


_COARSE_COUNT = 64   # per-axis covering counts handled by exact piecewise integration
_FINE_CELLS = 2560   # log-spaced cells below the coarse region


def _chaining_majorant(psib: PsiFunction, domain: DomainSpec, metric: Metric,
                       sigma_psi: float) -> float:
    """sigma + 9 * int_0^sigma v*(log 2N(T,d,x)) dx, as an upper sum.

    The integrand does not increase in x (H does not, and v* does not
    decrease), so each cell takes its value at its left end, its largest
    on the cell.  The coarse region (per-axis counts up to _COARSE_COUNT)
    is cut at the counts' breakpoints, where the integrand is constant on
    each cell, so its sum is exact; the fine tail is cut into _FINE_CELLS
    log-spaced cells, where the sum bounds the integral from above.
    Scales below sigma * 1e-14 are negligible and dropped; single-ball
    scales contribute nothing (a zero metric leaves sigma alone).
    """
    x_min = sigma_psi * 1e-14
    # x where an axis's count reaches k: its balls have radius L / (2 k); repeated cuts add empty cells
    cuts = metric.at_radius(np.outer(domain.lengths, 0.5 / np.arange(1, _COARSE_COUNT + 1)))
    x_c = min(max(float(cuts[:, -1].max()), x_min), sigma_psi)
    coarse = np.sort(np.concatenate([[x_c, sigma_psi], cuts[(cuts > x_c) & (cuts < sigma_psi)]]))
    fine = np.geomspace(x_min, x_c, _FINE_CELLS + 1)[:-1] if x_c > x_min else np.empty(0)
    edges = np.concatenate([fine, coarse])
    h = entropy_H(domain, metric, edges[:-1])
    filled = h > 0.0
    v = v_star(psib, np.log(2.0) + h[filled])
    z_bar = sigma_psi + 9.0 * float(np.sum(v * np.diff(edges)[filled]))
    if not np.isfinite(z_bar):
        raise ValueError("the chaining majorant is not finite; the metric/profile pair is "
                         "outside the band's hypotheses")
    return z_bar


def nonasymptotic_band(psi: PsiFunction, domain: DomainSpec, metric: Metric,
                       sigma_psi: float, delta: float, n: int) -> ConfidenceBand:
    """Non-asymptotic uniform band from a moment profile and a metric.

    ``psi`` is the single-draw profile of the normalized error field and
    ``sigma_psi`` its uniform profile norm; the CLT-uniform profile
    psibar is formed internally.  u(delta) is the smallest u >= 2 Zbar
    with tail(u) <= delta.
    """
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    psib = psi_bar(psi)
    z_bar = _chaining_majorant(psib, domain, metric, sigma_psi)
    # tail(u) <= delta  iff  log u >= min_p (log psibar(p) + log Zbar - log(delta) / p)
    u = max(2.0 * z_bar, float(np.exp(np.min(np.log(psib.values) + math.log(z_bar)
                                             - math.log(delta) / psib.p))))
    if u > 1e3 * z_bar:
        raise BandTooWide(f"tail stays above delta={delta} up to u = 1e3 * Zbar (Zbar={z_bar:.4g})")
    return ConfidenceBand(delta=delta, u_delta=float(u),
                          half_width=float(u) / math.sqrt(n),
                          method="nonasymptotic-psi", z_bar=float(z_bar),
                          psi_kind=psi.kind, psi_support=psi.support)


# ---------------------------------------------------------------------------
# profile builders for the two estimation pipelines


def solution_psi(spec: ProblemSpec, alloc: BudgetAllocation,
                 p_grid: Optional[np.ndarray] = None) -> tuple[PsiFunction, float]:
    """Single-draw moment profile of the normalized solution error field:

        psi_sol(p) = 2 ||f|| sum_m theta(m)^(-1/2) psi_R(p)^m,

    term m's centered integrand has p-norm <= 2 ||f|| psi_R(p)^m and is
    amplified by theta(m)^(-1/2) under the sqrt(n) normalization.  The
    uniform profile norm of the field is then <= 1.  Falls back to the
    envelope 2 ||f|| (sum theta^(-1/2)) max(1, psi_R)^N if the sum's
    convexity check trips.
    """
    psi_r = natural_psi_from_R(spec, p_grid)
    weights = 1.0 / np.sqrt(np.asarray(alloc.theta, dtype=float))
    powers = np.stack([psi_r.values ** m for m in range(1, alloc.N + 1)])
    vals = 2.0 * spec.f_norm * (weights[:, None] * powers).sum(axis=0)
    try:
        psi = PsiFunction(p=psi_r.p, values=vals, kind="solution-profile", support=psi_r.support)
    except ValueError:
        env = 2.0 * spec.f_norm * weights.sum() * np.maximum(psi_r.values, 1.0) ** alloc.N
        psi = PsiFunction(p=psi_r.p, values=env, kind="solution-profile-envelope",
                          support=psi_r.support)
    return psi, 1.0


def integral_psi(spec: ProblemSpec, p_grid: Optional[np.ndarray] = None) -> tuple[PsiFunction, float]:
    """Profile for the parametric-integral field: the integrand K(t, x) f(x)
    is dominated by the envelope Q(x) = |f(x)| R(x), so the centered one by
    2 Q, psi = 2 psi_Q and the field has uniform profile norm <= 1."""
    psi_q = natural_psi_from_R(spec, p_grid, weight=spec.forcing)
    return PsiFunction(p=psi_q.p, values=2.0 * psi_q.values, kind="integral-profile",
                       support=psi_q.support), 1.0


def export_band_json(path, bands: Sequence[tuple[ConfidenceBand, dict]]) -> None:
    """Write one band (or several) with its extras to JSON."""
    payload = [b.to_dict(**extras) for b, extras in bands]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload[0] if len(payload) == 1 else payload, fh, indent=2)
        fh.write("\n")
