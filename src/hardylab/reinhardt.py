"""Complete Reinhardt domains, their frontier sets, and polynomial density.

A bounded complete Reinhardt domain is described here by a monotone gauge
on the radius orthant: the domain is {z : gauge(|z_1|, ..., |z_n|) < 1},
with gauge nondecreasing in each coordinate.  Built-in kinds:

    polydisc   gauge(r) = max_j r_j / R_j
    ball       gauge(r) = ||r||_2 / R
    power-egg  gauge(r) = sum_j r_j^(p_j)

The frontier set collects the radius vectors r whose full torus shell
r * T^n stays inside the domain; suprema of shell integrals over the
frontier define the Hardy norm in several variables.  The dilate and
truncate construction approximates a function f by the polynomial

    Q(z) = sum_{|alpha|_inf <= M} a_alpha rho^(|alpha|_1) z^alpha,

the square truncation of z -> f(rho z); for holomorphic f on a complete
Reinhardt domain these polynomials are dense, and density_experiment
measures how fast the construction meets a prescribed error ladder,
taking a one-variable function as the one-factor product.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import DomainModelError
from .quadrature import unit_nodes
from .registry import TaggedEvaluator, product_evaluator
from .series import MultiIndexSeries, PowerSeries

_GOLDEN = 0.6180339887498949


@dataclass(frozen=True, eq=False)
class ReinhardtDomain:
    """A bounded complete Reinhardt domain given by a monotone gauge."""

    dim: int
    kind: str                       # polydisc | ball | power-egg | custom
    gauge: Callable[[np.ndarray], np.ndarray]
    params: tuple
    diameter_bound: float

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError(f"dimension must be >= 1, got {self.dim}")
        if self.diameter_bound <= 0.0:
            raise ValueError("diameter bound must be positive")

    def gauge_at(self, r) -> np.ndarray:
        r = np.asarray(r, dtype=np.float64)
        return np.asarray(self.gauge(r), dtype=np.float64)


def polydisc(dim: int, radii: Sequence[float] | None = None) -> ReinhardtDomain:
    rr = np.ones(dim) if radii is None else np.asarray(radii, dtype=np.float64)
    if rr.shape != (dim,) or np.any(rr <= 0):
        raise ValueError("polydisc needs one positive radius per coordinate")
    return ReinhardtDomain(dim=dim, kind="polydisc",
                           gauge=lambda r: np.max(r / rr, axis=-1),
                           params=tuple(rr), diameter_bound=float(np.max(rr)))


def ball(dim: int, radius: float = 1.0) -> ReinhardtDomain:
    if radius <= 0:
        raise ValueError("ball radius must be positive")
    return ReinhardtDomain(dim=dim, kind="ball",
                           gauge=lambda r: np.sqrt(np.sum(r * r, axis=-1)) / radius,
                           params=(radius,), diameter_bound=float(radius))


def power_egg(powers: Sequence[float]) -> ReinhardtDomain:
    pw = np.asarray(powers, dtype=np.float64)
    if pw.ndim != 1 or pw.size < 1 or np.any(pw <= 0):
        raise ValueError("power-egg exponents must be positive")
    return ReinhardtDomain(dim=pw.size, kind="power-egg",
                           gauge=lambda r: np.sum(r ** pw, axis=-1),
                           params=tuple(pw), diameter_bound=1.0)


def custom_domain(gauge: Callable, dim: int, diameter_bound: float) -> ReinhardtDomain:
    return ReinhardtDomain(dim=dim, kind="custom", gauge=gauge, params=(),
                           diameter_bound=float(diameter_bound))


def domain_from_config(cfg: dict) -> ReinhardtDomain:
    """Build a domain from {"kind": ..., "dim": n, "powers": [...]}."""
    if not isinstance(cfg, dict):
        raise TypeError(f"a domain is an object, got {cfg!r}")
    kind = cfg.get("kind")
    try:
        if kind == "polydisc":
            return polydisc(int(cfg["dim"]), cfg.get("radii"))
        if kind == "ball":
            return ball(int(cfg["dim"]), float(cfg.get("radius", 1.0)))
        if kind == "power-egg":
            return power_egg(cfg["powers"])
    except KeyError as exc:
        raise ValueError(f"a {kind} domain needs {exc}") from None
    raise ValueError(f"unknown domain kind {kind!r}")


def contains(domain: ReinhardtDomain, z) -> bool:
    z = np.asarray(z, dtype=np.complex128)
    if z.shape != (domain.dim,):
        raise ValueError(f"expected a point of C^{domain.dim}")
    return bool(domain.gauge_at(np.abs(z)) < 1.0)


def _gauge_crossing(g: Callable[[float], float], limit: float,
                    where: str) -> float:
    """The s >= 0 where the nondecreasing g(s) reaches 1.

    An upper bracket doubles from 1 and may not pass ``limit`` (nor 2^120);
    bisection then closes the bracket to 1e-14 relative.
    """
    hi = 1.0
    while g(hi) < 1.0:
        hi *= 2.0
        if hi > min(limit, 2.0 ** 120):
            raise DomainModelError(
                f"gauge never reaches 1 {where}; domain unbounded there")
    lo = 0.0
    while hi - lo > 1e-14 * max(hi, 1e-30):
        mid = 0.5 * (lo + hi)
        if g(mid) < 1.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _ray_scale(domain: ReinhardtDomain, u: np.ndarray) -> float:
    """Solve gauge(t * u) = 1 for t >= 0 along the ray direction u."""
    if domain.kind == "polydisc":
        rr = np.asarray(domain.params)
        return float(1.0 / np.max(u / rr))
    if domain.kind == "ball":
        return float(domain.params[0] / np.sqrt(np.sum(u * u)))
    return _gauge_crossing(lambda t: domain.gauge_at(t * u),
                           4.0 * domain.diameter_bound / float(np.max(u)),
                           "along the ray")


def frontier_max_radius(domain: ReinhardtDomain, u) -> np.ndarray:
    """The maximal radius vector t* u on the frontier along direction u."""
    u = np.asarray(u, dtype=np.float64)
    if u.shape != (domain.dim,) or np.any(u < 0) or not np.any(u > 0):
        raise ValueError("direction must be nonnegative and nonzero")
    return _ray_scale(domain, u) * u


def section_tops(domain: ReinhardtDomain, prefix: np.ndarray) -> np.ndarray:
    """Largest radius of the next coordinate over given leading radii.

    ``prefix`` has shape (m, j); returns the (m,) array of radii s with
    gauge(prefix, s, 0, ..., 0) = 1, i.e. the extent of the radius region
    in coordinate j with the remaining coordinates at zero.
    """
    prefix = np.atleast_2d(np.asarray(prefix, dtype=np.float64))
    m, j = prefix.shape
    if j >= domain.dim:
        raise ValueError("prefix already fixes every coordinate")
    if domain.kind == "polydisc":
        rr = np.asarray(domain.params)
        return np.full(m, rr[j])
    if domain.kind == "ball":
        rad = domain.params[0]
        return np.sqrt(np.maximum(rad * rad - np.sum(prefix * prefix, axis=1), 0.0))
    if domain.kind == "power-egg":
        pw = np.asarray(domain.params)
        rest = 1.0 - np.sum(prefix ** pw[:j], axis=1)
        return np.maximum(rest, 0.0) ** (1.0 / pw[j])
    out = np.empty(m)
    tail = np.zeros(domain.dim - j - 1)
    for i in range(m):
        def g(s):
            return domain.gauge_at(np.concatenate([prefix[i], [s], tail]))
        out[i] = 0.0 if g(0.0) >= 1.0 else _gauge_crossing(
            g, 4.0 * domain.diameter_bound, "in the radius region")
    return out


@dataclass(frozen=True, eq=False)
class FrontierSample:
    """A finite sample of the frontier set with its generating directions."""

    directions: np.ndarray          # (k, dim) radius-profile simplex points
    scales: np.ndarray              # (k,) gauge-saturating ray scales
    radii: np.ndarray               # (k, dim) frontier radius vectors


def simplex_directions(dim: int, count: int) -> np.ndarray:
    """Corner, barycenter, and low-discrepancy interior directions on the
    radius-profile simplex."""
    if dim == 1:
        return np.ones((1, 1))
    rows = [np.eye(dim), np.full((1, dim), 1.0 / dim)]
    interior = max(count - dim - 1, 0)
    if interior > 0:
        if dim == 2:
            s = np.mod((np.arange(1, interior + 1)) * _GOLDEN, 1.0)
            rows.append(np.column_stack([s, 1.0 - s]))
        else:
            # Kronecker sequence in the unit cube, mapped to the simplex by
            # sorted-gap coordinates.
            d = dim - 1
            gamma = 1.5
            for _ in range(40):
                gamma = (1.0 + gamma) ** (1.0 / (d + 1))
            alpha = 1.0 / gamma ** np.arange(1, d + 1)
            idx = np.arange(1, interior + 1)[:, None]
            x = np.mod(idx * alpha[None, :], 1.0)
            x = np.sort(x, axis=1)
            pads = np.hstack([np.zeros((interior, 1)), x, np.ones((interior, 1))])
            rows.append(np.diff(pads, axis=1))
    return np.vstack(rows)


def frontier_sample(domain: ReinhardtDomain, count: int = 64) -> FrontierSample:
    dirs = simplex_directions(domain.dim, count)
    scales = np.array([_ray_scale(domain, u) for u in dirs])
    return FrontierSample(directions=dirs, scales=scales,
                          radii=scales[:, None] * dirs)


def dilate_truncate(f, rho: float, square_degree: int) -> MultiIndexSeries:
    """Square truncation of the dilate z -> f(rho z).

    Coefficients b_alpha = a_alpha rho^(|alpha|_1) for |alpha|_inf <= M.
    Accepts a PowerSeries (one variable) or a finitely supported
    MultiIndexSeries.
    """
    if not 0.0 < rho <= 1.0:
        raise ValueError(f"dilation factor must lie in (0, 1], got {rho}")
    if square_degree < 0:
        raise ValueError("square truncation degree must be >= 0")
    if isinstance(f, PowerSeries):
        dim = 1
        terms = [((k,), f.coefficient(k)) for k in range(square_degree + 1)]
    elif isinstance(f, MultiIndexSeries):
        dim = f.dim
        terms = f.coeffs.items()
    else:
        raise TypeError("dilate_truncate needs a series with coefficient access")
    return MultiIndexSeries(dim, {alpha: c * rho ** sum(alpha)
                                  for alpha, c in terms
                                  if max(alpha) <= square_degree},
                            spike=f.spike)


# ---------------------------------------------------------------------------
# Density experiment: choose (rho, M) per target accuracy, then measure the
# achieved Hardy-norm error of the dilate-truncate polynomial.
# ---------------------------------------------------------------------------

# Dilation ladder rho_k = 1 - 2^-k and square degree limit of the density
# experiment.
_RHO_K_MAX = 40
_M_CAP = 4096


@dataclass
class DensityRow:
    eps: float
    rho: float
    M: int
    error: float
    met: bool
    converged: bool


def _abs_coeff_sum(series: PowerSeries, x: float, upto: int | None,
                   hard_cap: int = 20000) -> float:
    """Sum of |a_k| x^k over k <= upto (or the full series with a measured
    geometric remainder when upto is None)."""
    if upto is not None:
        return float(sum(abs(series.coefficient(k)) * x ** k
                         for k in range(upto + 1)))
    total = 0.0
    prev_term = None
    for k in range(hard_cap):
        term = abs(series.coefficient(k)) * x ** k
        total += term
        if k > 8 and term <= 1e-18 * max(total, 1e-300):
            if prev_term and prev_term > 0 and term < prev_term:
                q = term / prev_term
                total += term * q / (1.0 - q)
            return total
        prev_term = term
    raise DomainModelError("absolute coefficient sum did not converge; "
                           "is the series bounded on the closed domain?")


def density_experiment(f, domain: ReinhardtDomain, p: float = 1.0,
                       eps_ladder: Sequence[float] = (0.5, 0.1, 0.02), *,
                       norm_tol: float = 1e-4) -> list[DensityRow]:
    """Drive the dilate-truncate construction for the registry entry ``f``
    down an error ladder.

    For each target eps the dilation rho is pushed toward 1 until the
    probe sup of |f - f_rho| on boundary shells clears half the target,
    then the square degree M is grown until the coefficient tail bound on
    the closed domain clears the other half; the achieved Hardy error of
    the resulting polynomial is then measured and reported.
    """
    from .norms import hardy_norm_disc, hardy_norm_reinhardt

    n = domain.dim
    if f.dim != n:
        raise ValueError(f"function dimension {f.dim} != domain dimension {n}")
    factors = ([fac.series for fac in f.factors] if f.factors is not None
               else [f.series] if isinstance(f.series, PowerSeries) else None)

    # Sup-to-norm conversion: the one-variable Hardy norm is a normalized
    # mean, in several variables the torus integral is unnormalized.
    norm_factor = 1.0 if n == 1 else (2.0 * np.pi) ** (n / p)

    # Probe grids: the torus shells of a frontier sample, one per row.
    shells = frontier_sample(domain, 16).radii
    m_probe = 2048 if n == 1 else (128 if n == 2 else 32)
    probe = [shells[:, j].reshape(-1, *[1] * n)
             * unit_nodes(m_probe, j + 1, n + 1) for j in range(n)]
    probe_base = np.asarray(f.evaluator(*probe))

    # Per-coordinate closure bounds for the coefficient tail estimate.
    closure = np.array([frontier_max_radius(domain, np.eye(n)[j])[j]
                        for j in range(n)])

    def probe_sup_diff(rho: float) -> float:
        moved = np.asarray(f.evaluator(*[rho * z for z in probe]))
        return float(np.max(np.abs(probe_base - moved)))

    def tail_bound_fn(rho: float):
        if factors is not None:
            tot = [_abs_coeff_sum(s, rho * closure[j], None)
                   for j, s in enumerate(factors)]

            def tail(M: int) -> float:
                part = 1.0
                full = 1.0
                for j, s in enumerate(factors):
                    part *= _abs_coeff_sum(s, rho * closure[j], M)
                    full *= tot[j]
                return max(full - part, 0.0)
            return tail

        def tail(M: int) -> float:
            acc = 0.0
            for alpha, c in f.series.coeffs.items():
                if max(alpha) > M:
                    acc += abs(c) * rho ** sum(alpha) * float(
                        np.prod(closure ** np.array(alpha)))
            return acc
        return tail

    def build_q(rho: float, M: int):
        if factors is not None:
            return product_evaluator([PowerSeries.from_coefficients(
                s.coefficients(M) * rho ** np.arange(M + 1)) for s in factors])
        return dilate_truncate(f.series, rho, M)

    rows = []
    for eps in eps_ladder:
        sup_target = eps / (2.0 * norm_factor)
        rho = None
        ok = True
        for k in range(1, _RHO_K_MAX + 1):
            cand = 1.0 - 2.0 ** -k
            if probe_sup_diff(cand) <= sup_target:
                rho = cand
                break
        if rho is None:
            rho = 1.0 - 2.0 ** -_RHO_K_MAX
            ok = False
        tail = tail_bound_fn(rho)
        M = 0
        while M <= _M_CAP and tail(M) > sup_target:
            M = max(1, 2 * M)
        if M > _M_CAP:
            M = _M_CAP
            ok = False
        elif M > 1:
            lo, hi = M // 2, M
            while hi - lo > 1:
                mid = (lo + hi) // 2
                if tail(mid) <= sup_target:
                    hi = mid
                else:
                    lo = mid
            M = hi
        q_eval = build_q(rho, M)

        def diff(*zs):
            return np.asarray(f.evaluator(*zs)) - q_eval(*zs)
        diff_tagged = TaggedEvaluator(diff, f.spike)
        if n == 1:
            est = hardy_norm_disc(diff_tagged, p, norm_tol)
        else:
            est = hardy_norm_reinhardt(diff_tagged, p, domain, dirs=24,
                                       tol=norm_tol)
        rows.append(DensityRow(eps=float(eps), rho=float(rho), M=int(M),
                               error=float(est.value),
                               met=bool(est.value <= eps),
                               converged=bool(est.converged and ok)))
    return rows
