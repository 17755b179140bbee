"""Named kernel/forcing families and fixture problems.

Registry names (exact strings): "constant", "separable-poly", "gauss-conv",
"custom".  The first three are expressible in experiment configs; "custom"
is library-level only (arbitrary callables).  All callables here are
plain classes so problem specs stay picklable for worker pools.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
from numpy.polynomial import polynomial as P

from .errors import ConfigError
from .problem import DomainSpec, MeasureSampler, Metric, ProblemSpec

KERNEL_NAMES = ("constant", "separable-poly", "gauss-conv", "custom")


# ---------------------------------------------------------------------------
# picklable callables


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
        return P.polyval(t[..., 0], self.a) * P.polyval(s[..., 0], self.b)

    def factors(self):
        return PolyFunc(self.a), PolyFunc(self.b)


@dataclass(frozen=True)
class GaussConvKernel:
    """K(t, s) = scale * exp(-kappa * |t - s|^2)."""

    scale: float
    kappa: float

    def __call__(self, t, s):
        t, s = np.asarray(t), np.asarray(s)
        d2 = np.sum((t - s) ** 2, axis=-1)
        return self.scale * np.exp(-self.kappa * d2)


@dataclass(frozen=True)
class GaussConvKernelDt:
    scale: float
    kappa: float

    def __call__(self, t, s):
        t, s = np.asarray(t), np.asarray(s)
        u = (t - s)[..., 0]
        return -2.0 * self.kappa * u * self.scale * np.exp(-self.kappa * u * u)


@dataclass(frozen=True)
class PolyFunc:
    """1-D polynomial of the first coordinate."""

    coeffs: tuple[float, ...]

    def __call__(self, x):
        x = np.asarray(x)
        return P.polyval(x[..., 0], self.coeffs)


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
        return self.scale * np.abs(P.polyval(x[..., 0], self.coeffs))


@dataclass(frozen=True)
class ProductFunc:
    """x -> |f(x)| * g(x) pointwise (integrand envelopes)."""

    f: object
    g: object

    def __call__(self, x):
        return np.abs(np.asarray(self.f(x))) * np.asarray(self.g(x))


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


def _poly_sup(coeffs: Sequence[float], lo: float, hi: float, n: int = 4097) -> float:
    xs = np.linspace(lo, hi, n)
    return float(np.max(np.abs(P.polyval(xs, coeffs))))


def _forcing_from(config, dim: int):
    if callable(config):
        return config, None
    if not isinstance(config, dict) or "kind" not in config:
        raise ConfigError("forcing must be {'kind': 'const'|'poly', ...}")
    kind = config["kind"]
    if kind == "const":
        return ConstFunc(float(config["value"])), ConstFunc(0.0)
    if kind == "poly":
        if dim != 1:
            raise ConfigError("poly forcing needs a 1-D domain")
        coeffs = tuple(float(c) for c in config["coeffs"])
        return PolyFunc(coeffs), PolyFunc(tuple(P.polyder(coeffs)) or (0.0,))
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
    forcing, forcing_dt = _forcing_from(params.get("forcing", {"kind": "const", "value": 1.0}), domain.dim)

    if name == "constant":
        gamma = float(params["gamma"])
        return ProblemSpec(
            domain=domain, mu=mu,
            kernel=ConstantKernel(gamma),
            forcing=forcing, forcing_dt=forcing_dt,
            kernel_dt=ConstantKernel(0.0) if domain.dim == 1 else None,
            envelope_R=ConstFunc(abs(gamma)),
            envelope_Q=ProductFunc(forcing, ConstFunc(abs(gamma))),
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
        xs = np.linspace(lo + (hi - lo) / 8192, hi - (hi - lo) / 8192, 4096)
        int_abs_b = float(np.mean(np.abs(P.polyval(xs, b))))
        int_b2 = _poly_mean(P.polymul(b, b), lo, hi)
        a_deriv = tuple(P.polyder(a)) or (0.0,)
        lip_a = _poly_sup(a_deriv, lo, hi)
        return ProblemSpec(
            domain=domain, mu=mu,
            kernel=SeparablePolyKernel(a, b),
            forcing=forcing, forcing_dt=forcing_dt,
            kernel_dt=SeparablePolyKernel(a_deriv, b),  # dK/dt = a'(t) * b(s)
            envelope_R=ScaledAbsPoly(sup_a, b),
            envelope_Q=ProductFunc(forcing, ScaledAbsPoly(sup_a, b)),
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
        kernel=GaussConvKernel(scale, kappa),
        forcing=forcing, forcing_dt=forcing_dt,
        kernel_dt=GaussConvKernelDt(scale, kappa) if domain.dim == 1 else None,
        envelope_R=ConstFunc(abs(scale)),
        envelope_Q=ProductFunc(forcing, ConstFunc(abs(scale))),
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
    """Closed-form solution for registry problems that have one, else None.

    constant:       y = f + gamma * int f / (1 - gamma)
    separable-poly: y = f + a(t) * int(b f) / (1 - int(a b))
    """
    if spec.name == "constant":
        gamma = spec.kernel.gamma
        if abs(gamma) >= 1:
            return None
        nodes, w = spec.mu.quad_nodes(spec.domain, 2048)
        int_f = float(np.sum(np.asarray(spec.forcing(nodes)) * w))
        shift = gamma * int_f / (1.0 - gamma)
        forcing = spec.forcing
        return _Shifted(forcing, shift)
    if spec.name == "separable-poly":
        a, b = spec.kernel.a, spec.kernel.b
        lo, hi = spec.domain.bounds[0]
        c = _poly_mean(P.polymul(a, b), lo, hi)
        if abs(c) >= 1:
            return None
        nodes, w = spec.mu.quad_nodes(spec.domain, 2048)
        int_bf = float(np.sum(P.polyval(nodes[:, 0], b) * np.asarray(spec.forcing(nodes)) * w))
        return _SeparableSolution(spec.forcing, a, int_bf / (1.0 - c))
    return None


@dataclass(frozen=True)
class _Shifted:
    f: object
    shift: float

    def __call__(self, x):
        return np.asarray(self.f(x)) + self.shift


@dataclass(frozen=True)
class _SeparableSolution:
    f: object
    a: tuple[float, ...]
    coef: float

    def __call__(self, x):
        x = np.asarray(x)
        return np.asarray(self.f(x)) + P.polyval(x[..., 0], self.a) * self.coef
