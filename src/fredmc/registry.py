"""Named kernel/forcing families and fixture problems.

Registry names (exact strings): "constant", "separable-poly", "gauss-conv",
"custom".  The first three are expressible in experiment configs; "custom"
is library-level only (arbitrary callables).  The callables here are
frozen dataclasses that keep their parameters as fields, which
``exact_solution`` and the kernels' ``factors()`` read.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from numpy.polynomial import polynomial as P

from .errors import ConfigError
from .estimator import PowerPlan
from .problem import DomainSpec, MeasureSampler, Metric, ProblemSpec, gauss_legendre

KERNEL_NAMES = ("constant", "separable-poly", "gauss-conv", "custom")


def _horner(x, coeffs: Sequence[float]):
    """``P.polyval(x, coeffs)`` for float coefficients (low->high), evaluated
    in one output array: numpy's Horner steps c0 = c[-1] + x * 0, then
    c0 = c[k] + c0 * x, in the same order and hence to the same bits, but
    without a new array per coefficient."""
    out = np.multiply(x, 0.0, dtype=float)
    out += coeffs[-1]
    for c in coeffs[-2::-1]:
        out *= x
        out += c
    return out


# ---------------------------------------------------------------------------
# callables


@dataclass(frozen=True)
class ConstantKernel:
    """K(t, s) = gamma on any dimension; ``factors()`` gives a(t) = gamma,
    b(s) = 1, so the engines fold one scalar per tuple."""

    gamma: float

    def __call__(self, t, s):
        t, s = np.asarray(t), np.asarray(s)
        shp = np.broadcast_shapes(t.shape[:-1], s.shape[:-1])
        return np.full(shp, self.gamma)

    def factors(self):
        return ConstFunc(self.gamma), ConstFunc(1.0)


@dataclass(frozen=True)
class SeparablePolyKernel:
    """K(t, s) = a(t) * b(s), 1-D, polynomial coefficient lists (low->high);
    ``factors()`` returns (a, b), so the engines fold one scalar per tuple."""

    a: tuple[float, ...]
    b: tuple[float, ...]

    def __call__(self, t, s):
        t, s = np.asarray(t), np.asarray(s)
        return _horner(t[..., 0], self.a) * _horner(s[..., 0], self.b)

    def factors(self):
        return PolyFunc(self.a), PolyFunc(self.b)


@dataclass(frozen=True)
class GaussConvKernel:
    """K(t, s) = scale * exp(-kappa * |t - s|^2).

    With ``box`` (the domain bounds, set by ``build_problem``), ``factors()``
    returns the truncated Chebyshev series of exp(y), y = 2 kappa u.v,
    u = t - c, v = s - c about the box centre c, written in the monomials
    of the fast Gauss transform expansion: (A, B, eps) with
    |K - sum_k A_k B_k| <= eps for t, s in the box, where x = 2 kappa h^2
    (h the box's half-diagonal) bounds |y|,
    eps = |scale| sum_{n >= p} 2 I_n(x) <= |scale| _cheb_rest(x, p),
    and p is the smallest degree giving eps <= 1e-17 |scale|.
    """

    scale: float
    kappa: float
    box: Optional[tuple[tuple[float, float], ...]] = None

    def __call__(self, t, s):
        t, s = np.asarray(t), np.asarray(s)
        # summed axis by axis in np.sum's order and scaled in place: no rows x n x dim array
        d2 = (t[..., 0] - s[..., 0]) ** 2
        for k in range(1, t.shape[-1]):
            d2 += (t[..., k] - s[..., k]) ** 2
        d2 *= -self.kappa
        return self.scale * np.exp(d2)

    def factors(self):
        return _gauss_factors(self, lambda x, h, p: _cheb_rest(x, p), "t")


@dataclass(frozen=True)
class GaussConvKernelDt:
    """dK/dt of the 1-D gauss-conv kernel; ``factors()`` returns (A', B, eps)
    with A' the t-derivative of GaussConvKernel's A and
    eps = |scale| 2 kappa h (_cheb_rest(x, p) + _cheb_rest_dt(x, p))."""

    scale: float
    kappa: float
    box: Optional[tuple[tuple[float, float], ...]] = None

    def __call__(self, t, s):
        t, s = np.asarray(t), np.asarray(s)
        u = (t - s)[..., 0]
        return -2.0 * self.kappa * u * self.scale * np.exp(-self.kappa * u * u)

    def factors(self):
        return _gauss_factors(self, lambda x, h, p: 2.0 * self.kappa * h * (
            _cheb_rest(x, p) + _cheb_rest_dt(x, p)), "dt")


# ---------------------------------------------------------------------------
# Chebyshev factors of the gauss-conv kernel
#
# exp(y) = sum_n a_n T_n(y / x) on [-x, x] with a_0 = I_0(x), a_n = 2 I_n(x)
# (I_n the modified Bessel functions).  The truncation P = sum_{n<p} a_n T_n
# is the polynomial sum_{k<p} c_k y^k, so K_p(t, s) = scale e^(-kappa |u|^2)
# e^(-kappa |v|^2) P(2 kappa u.v) is the Taylor form of the fast Gauss
# transform with each degree-k term weighted by gamma_k = k! c_k.  Since
# e^(-kappa |u|^2), e^(-kappa |v|^2) <= 1 and |T_n| <= 1, |T_n'| <= n^2:
#   |K - K_p| <= |scale| sum_{n >= p} 2 I_n(x),
#   |dK/dt - dK_p/dt| <= |scale| 2 kappa h (sum_{n >= p} 2 I_n(x)
#                                           + x^-1 sum_{n >= p} 2 n^2 I_n(x)).
# Both tails are bounded in closed form from I_n(x) <= (x/2)^n / n!
# e^(x^2 / (4 (n + 1))) and a geometric series in n.

_GAUSS_TOL = 1e-17       # remainder bound relative to |scale|
_GAUSS_MAX_RANK = 512    # no expansion with more features is offered
# nor one with a weight |gamma_k| above this: the degree-k terms without
# their weights sum in absolute value to at most 1, so the float64 sum of
# the r products rounds at most this many times worse than with unit
# weights.  The weights grow with x (about 3.7 at x = 16, 15 at x = 24,
# 900 at x = 40), so past x of about 24.4 the exact general path runs.
_GAUSS_MAX_WEIGHT = 16.0


def _cheb_head(x: float, p: int) -> float:
    """2 (x/2)^p / p! e^(x^2 / (4 (p + 1))): the bound on 2 I_p(x)."""
    return 2.0 * math.exp(p * math.log(x / 2.0) - math.lgamma(p + 1) + x * x / (4.0 * (p + 1)))


def _cheb_rest(x: float, p: int) -> float:
    """Closed-form bound on sum_{n >= p} 2 I_n(x): successive terms of the
    bound fall by at least q = x / (2 (p + 1)); inf when q >= 1."""
    q = x / (2.0 * (p + 1))
    return _cheb_head(x, p) / (1.0 - q) if q < 1.0 else math.inf


def _cheb_rest_dt(x: float, p: int) -> float:
    """Closed-form bound on x^-1 sum_{n >= p} 2 n^2 I_n(x): successive terms
    fall by at least q = (p + 1) x / (2 p^2); inf when q >= 1."""
    q = (p + 1) * x / (2.0 * p * p)
    return p * p / x * _cheb_head(x, p) / (1.0 - q) if q < 1.0 else math.inf


def _bessel_i(n: int, x: float) -> float:
    """I_n(x) = sum_m (x/2)^(2m+n) / (m! (m+n)!), summed until the terms,
    all positive and eventually falling, stop changing the sum."""
    term = math.exp(n * math.log(x / 2.0) - math.lgamma(n + 1))
    total, m = term, 0
    while True:
        m += 1
        term *= (x / 2.0) ** 2 / (m * (m + n))
        if term <= total * 1e-18 and m > x:
            return total + term
        total += term


def _cheb_next(prev: list[int], cur: list[int]) -> list[int]:
    """T_(n+1) = 2 y T_n - T_(n-1), on integer coefficient lists (low->high)."""
    nxt = [0] + [2 * c for c in cur]
    for k, c in enumerate(prev):
        nxt[k] -= c
    return nxt


@functools.lru_cache(maxsize=256)
def _cheb_gamma(x: float, p: int) -> tuple[float, ...]:
    """gamma_k = k! c_k, k < p, for the truncation P = sum_{n<p} a_n T_n(y/x)
    = sum_k c_k y^k of exp(y).  The full series has c_k = 1/k!, so
    c_k = 1/k! - sum_{n >= p} a_n [T_n]_k / x^k: the fast-falling tail,
    with the integer coefficients [T_n]_k exact, never cancels the large
    coefficients of the head.  Tail terms are added until two in a row
    (one of each parity of n) move no gamma_k by 1e-20."""
    fact_over = [math.exp(math.lgamma(k + 1) - k * math.log(x)) for k in range(p)]
    prev, cur = [1], [0, 1]
    for _ in range(1, p):
        prev, cur = cur, _cheb_next(prev, cur)
    gamma, n, small = [1.0] * p, p, 0
    while small < 2:
        a_n = 2.0 * _bessel_i(n, x)
        moves = [a_n * cur[k] * fact_over[k] for k in range(p)]
        gamma = [g - d for g, d in zip(gamma, moves)]
        small = small + 1 if max(map(abs, moves)) < 1e-20 else 0
        prev, cur, n = cur, _cheb_next(prev, cur), n + 1
    return tuple(gamma)


@functools.lru_cache(maxsize=None)
def _monomial_steps(dim: int, p: int) -> tuple[tuple[int, int, int], ...]:
    """Every monomial of total degree 1..p-1 in ``dim`` variables, in graded
    order after the constant, as (parent, axis, power): monomial n is
    monomial ``parent`` times x[axis], whose exponent becomes ``power``.
    Each monomial has one parent (the last axis it uses is the one added)."""
    steps, alphas, last, prev = [], [(0,) * dim], [0], [0]
    for _ in range(1, p):
        cur = []
        for parent in prev:
            for axis in range(last[parent], dim):
                alpha = list(alphas[parent])
                alpha[axis] += 1
                steps.append((parent, axis, alpha[axis]))
                alphas.append(tuple(alpha))
                last.append(axis)
                cur.append(len(alphas) - 1)
        prev = cur
    return tuple(steps)


# Power-sum plan of the gauss-conv monomials.  With c = w e^(-kappa |v|^2)
# the rows of W = w B(x) are c v^alpha, |alpha| < p, so a block needs the
# weighted power sums sum c v^g and sum c C0 v^g (|g| < p, C0 = c - mean c)
# and sum c^2 v^g (p <= |g| <= 2p - 2); the raw sums of lower degree are
# sum c C0 v^g + mean(c) sum c v^g.  Each exponent splits per axis as
# g = s a + lam with lam_i < s, so all three sets are entries of one
# product Y L^T: Y holds the weight rows c V^a, c C0 V^a and c^2 V^a
# (V = v^s, a in graded order), L the low monomials v^lam.
_ROW_COST = 4  # products per tuple that forming one row costs, in the split rule


def _split_shape(dim: int, p: int, s: int) -> tuple[int, int, int, int, int]:
    """(|L|, low, gram, top, n_low) for split s <= p - 1: L has s^dim rows;
    the c and c C0 rows are the V monomials of degree <= low = (p - 1) // s
    (n_low of them), the c^2 rows those of degree gram..top, with
    gram = ceil((p - dim (s - 1)) / s) <= 2 low and top = (2p - 2) // s."""
    low, top = (p - 1) // s, (2 * p - 2) // s
    n_low = math.comb(low + dim, dim)
    return s ** dim, low, max(0, -(-(p - dim * (s - 1)) // s)), top, n_low


def _split(dim: int, p: int) -> int:
    """The split s of degree-p monomials in ``dim`` variables, p >= 2: the
    fewest products |Y| |L| per tuple plus _ROW_COST per row formed."""
    def cost(s):
        n_l, _, gram, top, n_low = _split_shape(dim, p, s)
        n_g = math.comb(top + dim, dim) - math.comb(gram - 1 + dim, dim)   # degrees gram..top
        return (n_g + 2 * n_low) * n_l + _ROW_COST * (n_l + n_g + 2 * n_low)
    return min(range(1, p), key=cost)


def _exponents(dim: int, p: int) -> np.ndarray:
    """The exponents of the monomials of ``_monomial_steps(dim, p)``, in order."""
    alphas = [np.zeros(dim, dtype=np.intp)]
    for parent, axis, _ in _monomial_steps(dim, p):
        alphas.append(alphas[parent] + np.eye(dim, dtype=np.intp)[axis])
    return np.array(alphas)


@functools.lru_cache(maxsize=None)
def _power_plan(dim: int, p: int) -> tuple[int, int, tuple, PowerPlan]:
    """(s, low, recipe, plan) of the rank-r monomials of degree < p in ``dim``
    variables, p >= 2.  The buffer holds L (s^dim rows, lam in row-major
    order), then Y = [c^2 V^a; c C0 V^a; c V^a].  ``recipe`` gives each
    c^2 row, in order, as (i, j, -1), the product of c V^a rows i and j
    (degree <= 2 low), or (i, -1, axis), c^2 row i times V_axis."""
    n_l, low, gram, top, n_low = _split_shape(dim, p, s := _split(dim, p))
    alphas, highs = _exponents(dim, p), _exponents(dim, top + 1)
    high = highs[highs.sum(axis=1) >= gram]
    n_g = len(high)
    base = (2 * p - 1) ** np.arange(dim)   # exponents below 2p - 1: one integer key each

    def where(keys, g):
        order = np.argsort(keys)
        return order[np.minimum(np.searchsorted(keys[order], g @ base), len(keys) - 1)]

    def entry(g, rows_of, offset):   # flat index of sum weight V^(g // s) v^(g % s) in G
        return (offset + where(rows_of @ base, g // s)) * n_l + (g % s) @ (s ** np.arange(dim)[::-1])

    # a = a1 + a2 with |a1|, |a2| <= low (a1 filled greedily over the axes), or a's parent times V_axis
    pair = high.sum(axis=1) <= 2 * low
    a1 = np.minimum(high, np.maximum(low - (np.cumsum(high, axis=1) - high), 0))
    axis = dim - 1 - np.argmax(high[:, ::-1] > 0, axis=1)   # the last axis a uses
    parent = where(high @ base, high - np.eye(dim, dtype=np.intp)[axis])
    recipe = zip(np.where(pair, where(highs[:n_low] @ base, a1), parent).tolist(),
                 np.where(pair, where(highs[:n_low] @ base, high - a1), -1).tolist(),
                 np.where(pair, -1, axis).tolist())
    total = alphas[:, None, :] + alphas[None, :, :]
    n_y = n_g + 2 * n_low
    gram_index = np.where(total.sum(axis=-1) < p, n_y * n_l + where(alphas @ base, total),
                          entry(total, high, 0))
    index = [entry(alphas, highs[:n_low], n_g + n_low), entry(alphas, highs[:n_low], n_g), gram_index]
    for arr in index:
        arr.flags.writeable = False
    c_row = n_l + n_g + n_low
    return s, low, tuple(recipe), PowerPlan(c_row + n_low, slice(n_l, c_row + n_low), slice(0, n_l), c_row,
                                       slice(c_row, c_row + n_low), slice(n_l + n_g, c_row), *index)


def _gauss_factors(kernel, rest, side: str):
    """(A, B, eps) for a gauss-conv kernel or its t-derivative, or None when
    the kernel has no box, needs more than _GAUSS_MAX_RANK features or has
    a weight above _GAUSS_MAX_WEIGHT."""
    if kernel.box is None:
        return None
    lows, highs = np.array(kernel.box, dtype=float).T
    centre = tuple(float(c) for c in (lows + highs) / 2.0)
    h = float(np.sqrt(np.sum(((highs - lows) / 2.0) ** 2)))
    x = 2.0 * kernel.kappa * h * h
    p = 1
    while rest(x, h, p) > _GAUSS_TOL:
        p += 1
        if math.comb(p - 1 + len(centre), len(centre)) > _GAUSS_MAX_RANK:
            return None
    gamma = _cheb_gamma(x, p)
    if max(map(abs, gamma)) > _GAUSS_MAX_WEIGHT:
        return None
    return (GaussFactor(kernel.kappa, centre, p, side, kernel.scale, gamma),
            GaussFactor(kernel.kappa, centre, p, "s"),
            abs(kernel.scale) * rest(x, h, p))


@dataclass(frozen=True)
class GaussFactor:
    """One side of K_p(t, s) = scale e^(-kappa |u|^2) e^(-kappa |v|^2)
    sum_{|alpha| < p} gamma_|alpha| (2 kappa)^|alpha| / alpha! u^alpha v^alpha.

    Side "s" gives the monomials e^(-kappa |v|^2) v^alpha, shape (r, ...);
    side "t" gives scale gamma_|alpha| (2 kappa)^|alpha| / alpha!
    e^(-kappa |u|^2) u^alpha, shape (..., r); side "dt" (1-D) gives the
    t-derivative of side "t".  ``gamma`` (p weights, sides "t" and "dt")
    comes from ``_cheb_gamma``.  Rows come from the recurrence
    P_alpha+e_i = P_alpha * u_i, not powers.
    """

    kappa: float
    centre: tuple[float, ...]
    p: int
    side: str
    scale: float = 1.0
    gamma: tuple[float, ...] = ()

    def _rows(self, x, p: int, weighted: bool) -> np.ndarray:
        u = np.asarray(x, dtype=float) - np.asarray(self.centre)
        cols = [np.ascontiguousarray(u[..., i]) for i in range(u.shape[-1])]
        steps = _monomial_steps(len(cols), p)
        rows = np.empty((len(steps) + 1,) + u.shape[:-1])
        np.exp(-self.kappa * np.sum(u * u, axis=-1), out=rows[0])
        for k, (parent, axis, power) in enumerate(steps, 1):
            np.multiply(rows[parent], cols[axis], out=rows[k])
            if weighted:
                rows[k] *= 2.0 * self.kappa / power
        return rows

    def __call__(self, x):
        if self.side == "s":
            return self._rows(x, self.p, False)
        if self.side == "t":
            q = self._rows(x, self.p, True)
        else:  # d/du [c_k e^(-kappa u^2) u^k] = 2 kappa Q_(k-1) - (k+1) Q_(k+1), 1-D
            full = self._rows(x, self.p + 1, True)
            k = np.arange(self.p).reshape((-1,) + (1,) * (full.ndim - 1))
            q = -(k + 1) * full[1:]
            q[1:] += 2.0 * self.kappa * full[:-2]
        dim = len(self.centre)  # degree k has comb(k + dim - 1, k) monomials
        weights = np.repeat(self.gamma, [math.comb(k + dim - 1, k) for k in range(self.p)])
        return np.moveaxis(q, 0, -1) * (self.scale * weights)

    def power_plan(self) -> PowerPlan:
        """The runner's plan for blocks of W = w * B(x); side "s" only
        (``_power_plan``)."""
        return _power_plan(len(self.centre), self.p)[3]

    def power_rows(self, x, w, out) -> None:
        """Fill the (plan.rows, n) buffer ``out`` from points x and weights
        w: every row of ``power_plan()`` but its q rows; side "s" only."""
        s, low, recipe, plan = _power_plan(len(self.centre), self.p)
        x = np.asarray(x, dtype=float)
        n, dim = x.shape
        # v_i^0 .. v_i^max(s-1, 2) per axis, v = x - centre; in 1-D from s = 3 on written as L itself
        powers = [out[:s] if dim == 1 and s > 2 else np.empty((max(s, 3), n)) for _ in range(dim)]
        for i, pw in enumerate(powers):
            pw[0] = 1.0
            np.subtract(x[:, i], self.centre[i], out=pw[1])
            for k in range(2, len(pw)):
                np.multiply(pw[k - 1], pw[1], out=pw[k])
        c = out[plan.c_row]   # w e^(-kappa |v|^2), |v|^2 summed over the axes in order
        np.multiply(sum((pw[2] for pw in powers[1:]), powers[0][2]), -self.kappa, out=c)
        np.exp(c, out=c)
        c *= w
        acc = powers[0][:s]
        for i, pw in enumerate(powers[1:], 2):
            dst = out[:s ** i].reshape(-1, s, n) if i == dim else np.empty((s ** (i - 1), s, n))
            np.multiply(acc[:, None, :], pw[None, :s, :], out=dst)
            acc = dst.reshape(-1, n)
        if dim == 1 and s < 3:
            out[:s] = acc
        v_s = [pw[s - 1] * pw[1] for pw in powers]   # V_i = v_i^s
        weighted, squared = out[plan.s_rows], out[plan.y.start:plan.q_rows.start]
        for k, (parent, axis, _) in enumerate(_monomial_steps(dim, low + 1), 1):
            np.multiply(weighted[parent], v_s[axis], out=weighted[k])
        for row, (i, j, axis) in zip(squared, recipe):
            np.multiply(weighted[i] if axis < 0 else squared[i], weighted[j] if axis < 0 else v_s[axis], out=row)


@dataclass(frozen=True)
class PolyFunc:
    """1-D polynomial of the first coordinate."""

    coeffs: tuple[float, ...]

    def __call__(self, x):
        x = np.asarray(x)
        return _horner(x[..., 0], self.coeffs)


@dataclass(frozen=True)
class ConstFunc:
    value: float

    def __call__(self, x):
        x = np.asarray(x)
        return np.full(x.shape[:-1], self.value)


@dataclass(frozen=True)
class ScaledAbsPoly:
    """x -> scale * |poly(x)| (envelope form for separable kernels)."""

    scale: float
    coeffs: tuple[float, ...]

    def __call__(self, x):
        x = np.asarray(x)
        return self.scale * np.abs(_horner(x[..., 0], self.coeffs))


@dataclass(frozen=True)
class GeometricNorms:
    """Closed-form power norms r_m = head * c^(m-1)."""

    head_s: float
    ratio_s: float
    head_u: float
    ratio_u: float

    def __call__(self, m: int, which: str) -> float:
        if which == "S":
            return self.head_s * self.ratio_s ** (m - 1)
        return self.head_u * self.ratio_u ** (m - 1)


# ---------------------------------------------------------------------------
# builders


def _poly_mean(coeffs: Sequence[float], lo: float, hi: float) -> float:
    """Exact (1/(hi-lo)) * int_lo^hi poly."""
    anti = P.polyint(list(coeffs))
    return float((P.polyval(hi, anti) - P.polyval(lo, anti)) / (hi - lo))


def _roots_inside(coeffs, lo: float, hi: float) -> np.ndarray:
    """Sorted real parts of the roots of poly inside (lo, hi), a superset of its real roots."""
    roots = np.sort(P.polyroots(P.polytrim(list(coeffs))).real)
    return roots[(roots > lo) & (roots < hi)]


def _poly_sup(coeffs: Sequence[float], lo: float, hi: float) -> float:
    """Exact sup|poly| on [lo, hi]: the max over the ends and the roots of
    poly' inside (a spurious point cannot exceed the sup)."""
    xs = np.concatenate([[lo, hi], _roots_inside(P.polyder(P.polytrim(list(coeffs))), lo, hi)])
    return float(np.max(np.abs(P.polyval(xs, coeffs))))


def _poly_abs_mean(coeffs: Sequence[float], lo: float, hi: float) -> float:
    """Exact (1/(hi-lo)) * int_lo^hi |poly|: the antiderivative's absolute
    increments between the roots inside, where poly keeps one sign."""
    xs = np.concatenate([[lo], _roots_inside(coeffs, lo, hi), [hi]])
    return float(np.sum(np.abs(np.diff(P.polyval(xs, P.polyint(list(coeffs)))))) / (hi - lo))


def _forcing_from(config, domain: DomainSpec):
    """(forcing, its t-derivative, exact sup |f| or None)."""
    if callable(config):
        return config, None, None
    if not isinstance(config, dict) or "kind" not in config:
        raise ConfigError("forcing must be {'kind': 'const'|'poly', ...}")
    kind = config["kind"]
    if kind == "const":
        value = float(config["value"])
        return ConstFunc(value), ConstFunc(0.0), abs(value)
    if kind == "poly":
        if domain.dim != 1:
            raise ConfigError("poly forcing needs a 1-D domain")
        coeffs = tuple(float(c) for c in config["coeffs"])
        return (PolyFunc(coeffs), PolyFunc(tuple(P.polyder(coeffs)) or (0.0,)),
                _poly_sup(coeffs, *domain.bounds[0]))
    raise ConfigError(f"unknown forcing kind {kind!r}")


def _domain_from(params: dict) -> DomainSpec:
    bounds = params.get("bounds", [[0.0, 1.0]])
    bounds = tuple((float(lo), float(hi)) for lo, hi in bounds)
    return DomainSpec(dim=len(bounds), bounds=bounds,
                      grid_points_per_dim=int(params.get("grid", 101)))


def build_problem(name: str, params: dict) -> ProblemSpec:
    """Build a ProblemSpec from a registry name and config parameters."""
    if name not in KERNEL_NAMES:
        raise ConfigError(f"unknown kernel registry name {name!r}; known: {KERNEL_NAMES}")
    if name == "custom":
        raise ConfigError("'custom' problems cannot be expressed in a config; build them in code")
    domain = _domain_from(params)
    mu = MeasureSampler()
    forcing, forcing_dt, f_norm = _forcing_from(
        params.get("forcing", {"kind": "const", "value": 1.0}), domain)

    if name == "constant":
        gamma = float(params["gamma"])
        return ProblemSpec(
            domain=domain, mu=mu,
            kernel=ConstantKernel(gamma),
            forcing=forcing, forcing_dt=forcing_dt, f_norm=f_norm,
            kernel_dt=ConstantKernel(0.0) if domain.dim == 1 else None,
            envelope_R=ConstFunc(abs(gamma)),
            metric=Metric("holder", exponent=1.0, scale=0.0),
            analytic_norms=GeometricNorms(abs(gamma), abs(gamma), gamma * gamma, gamma * gamma),
            name=name,
        )

    if name == "separable-poly":
        if domain.dim != 1:
            raise ConfigError("separable-poly needs a 1-D domain")
        a = tuple(float(c) for c in params["a"])
        b = tuple(float(c) for c in params["b"])
        lo, hi = domain.bounds[0]
        sup_a = _poly_sup(a, lo, hi)
        if sup_a == 0.0:
            raise ConfigError("a(t) is identically zero")
        # r_m(S) = sup|a| * |int a b|^(m-1) * int|b|;  U uses a^2, b^2.
        c_s = _poly_mean(P.polymul(a, b), lo, hi)
        c_u = _poly_mean(P.polymul(P.polymul(a, a), P.polymul(b, b)), lo, hi)
        int_abs_b = _poly_abs_mean(b, lo, hi)
        int_b2 = _poly_mean(P.polymul(b, b), lo, hi)
        a_deriv = tuple(P.polyder(a)) or (0.0,)
        lip_a = _poly_sup(a_deriv, lo, hi)
        return ProblemSpec(
            domain=domain, mu=mu,
            kernel=SeparablePolyKernel(a, b),
            forcing=forcing, forcing_dt=forcing_dt, f_norm=f_norm,
            kernel_dt=SeparablePolyKernel(a_deriv, b),  # dK/dt = a'(t) * b(s)
            envelope_R=ScaledAbsPoly(sup_a, b),
            metric=Metric("holder", exponent=1.0, scale=lip_a / sup_a),
            analytic_norms=GeometricNorms(sup_a * int_abs_b, abs(c_s),
                                          sup_a ** 2 * int_b2, c_u),
            name=name,
        )

    # gauss-conv
    scale = float(params["scale"])
    kappa = float(params["kappa"])
    if kappa <= 0:
        raise ConfigError("kappa must be positive")
    lip = np.sqrt(2.0 * kappa / np.e)  # sup_u |d/du exp(-kappa u^2)| = sqrt(2 kappa / e)
    return ProblemSpec(
        domain=domain, mu=mu,
        kernel=GaussConvKernel(scale, kappa, domain.bounds),
        forcing=forcing, forcing_dt=forcing_dt, f_norm=f_norm,
        kernel_dt=GaussConvKernelDt(scale, kappa, domain.bounds) if domain.dim == 1 else None,
        envelope_R=ConstFunc(abs(scale)),
        metric=Metric("holder", exponent=1.0, scale=lip),
        name=name,
    )


# ---------------------------------------------------------------------------
# fixtures used across the test-suite and studies


def fixture_constant_half() -> ProblemSpec:
    """K = 0.5, f = 1 on [0,1]; exact solution y = 2."""
    return build_problem("constant", {"gamma": 0.5, "forcing": {"kind": "const", "value": 1.0}})


def fixture_ts() -> ProblemSpec:
    """K(t,s) = t*s, f(t) = t on [0,1]; exact solution y = 1.5 t."""
    return build_problem("separable-poly",
                         {"a": [0.0, 1.0], "b": [0.0, 1.0],
                          "forcing": {"kind": "poly", "coeffs": [0.0, 1.0]}})


def fixture_gauss() -> ProblemSpec:
    """K = 0.4 exp(-2 (t-s)^2), f = 1 on [0,1]."""
    return build_problem("gauss-conv",
                         {"scale": 0.4, "kappa": 2.0, "forcing": {"kind": "const", "value": 1.0}})


def exact_solution(spec: ProblemSpec):
    """Closed-form solution y = f + a(t) int(b f) / (1 - c) of the rank-one
    registry kernels K = a(t) b(s) (constant: a = gamma, b = 1;
    separable-poly) with |c| < 1, c = int(a b), else None.  int(b f) takes
    ``problem.gauss_legendre``'s rule, whose q and diff the result keeps."""
    if spec.name == "constant":
        c = spec.kernel.gamma
    elif spec.name == "separable-poly":
        c = _poly_mean(P.polymul(spec.kernel.a, spec.kernel.b), *spec.domain.bounds[0])
    else:
        return None
    if abs(c) >= 1:
        return None
    a, b = spec.kernel.factors()
    int_bf, q, diff = gauss_legendre(spec, lambda x, w: np.sum(w * b(x) * spec.forcing(x)))
    return _SeparableSolution(spec.forcing, a, float(int_bf / (1.0 - c)), q, diff)


@dataclass(frozen=True)
class _SeparableSolution:
    f: object
    a: object
    coef: float
    q: int
    diff: float

    def __call__(self, x):
        return np.asarray(self.f(x)) + np.asarray(self.a(x)) * self.coef
