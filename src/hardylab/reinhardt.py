"""Complete Reinhardt domains, their frontier sets, and polynomial density.

A bounded complete Reinhardt domain is described here by a monotone gauge
on the radius orthant: the domain is {z : gauge(|z_1|, ..., |z_n|) < 1},
with gauge nondecreasing in each coordinate.  Built-in kinds:

    polydisc   gauge(r) = max_j r_j / R_j
    ball       gauge(r) = ||r||_2 / R
    power-egg  gauge(r) = sum_j r_j^(p_j)

The frontier set collects the radius vectors r whose full torus shell
r * T^n stays inside the domain; suprema of shell integrals over the
frontier define the Hardy norm in several variables.  Several-variable
functions are products f(z) = prod_j f_j(z_j) of one-variable series, and
the dilate and truncate construction approximates f by the product of
the factors' dilated truncations

    Q(z) = prod_j sum_{k <= M} a_{j,k} rho^k z_j^k,

the square truncation of z -> f(rho z); for holomorphic f on a complete
Reinhardt domain these polynomials are dense, and density_experiment
measures how fast the construction meets a prescribed error ladder,
taking a one-variable function as the one-factor product.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import DomainModelError
from .quadrature import torus_blocks
from .registry import sum_of_products
from .series import PowerSeries

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
    if rr.shape != (dim,) or not np.all(np.isfinite(rr) & (rr > 0)):
        raise ValueError("polydisc needs one finite radius > 0 per coordinate")
    return ReinhardtDomain(dim=dim, kind="polydisc",
                           gauge=lambda r: np.max(r / rr, axis=-1),
                           params=tuple(rr), diameter_bound=float(np.max(rr)))


def ball(dim: int, radius: float = 1.0) -> ReinhardtDomain:
    if not 0 < radius < np.inf:                        # NaN too
        raise ValueError("ball radius must be positive and finite")
    return ReinhardtDomain(dim=dim, kind="ball",
                           gauge=lambda r: np.sqrt(np.sum(r * r, axis=-1)) / radius,
                           params=(radius,), diameter_bound=float(radius))


def power_egg(powers: Sequence[float]) -> ReinhardtDomain:
    pw = np.asarray(powers, dtype=np.float64)
    if pw.ndim != 1 or pw.size < 1 or not np.all(np.isfinite(pw) & (pw > 0)):
        raise ValueError("power-egg exponents must be positive and finite")
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


def monomial_moments(domain: ReinhardtDomain, N: int) -> np.ndarray | None:
    """The moments m_alpha = int_D |z^alpha|^2 dV of the monomials with
    max_j alpha_j <= N, as an array indexed by alpha (shape (N+1,)*n), in
    closed form; ``None`` for a custom domain, which has none.

        polydisc   prod_j pi R_j^(2 alpha_j + 2) / (alpha_j + 1)
        ball       pi^n alpha! R^(2|alpha| + 2n) / (|alpha| + n)!
        power-egg  (2 pi)^n prod_j (Gamma(b_j) / p_j) / Gamma(1 + sum_j b_j),
                   with b_j = (2 alpha_j + 2) / p_j

    The power-egg form is a Dirichlet integral after u_j = r_j^(p_j).
    Monomials are orthogonal on a complete Reinhardt domain, so these give
    the A^2 norm of any polynomial from its coefficients.
    """
    n = domain.dim
    alpha = np.indices((N + 1,) * n, dtype=np.float64)
    lgamma = np.vectorize(math.lgamma, otypes=[np.float64])
    params = np.asarray(domain.params, dtype=np.float64)
    if domain.kind == "polydisc":
        R = params.reshape(-1, *[1] * n)
        return np.prod(np.pi * R ** (2.0 * alpha + 2.0) / (alpha + 1.0),
                       axis=0)
    if domain.kind == "ball":
        size = alpha.sum(axis=0)
        log = (lgamma(alpha + 1.0).sum(axis=0) - lgamma(size + n + 1.0)
               + (2.0 * size + 2.0 * n) * math.log(params[0]))
        return np.pi ** n * np.exp(log)
    if domain.kind == "power-egg":
        p = params.reshape(-1, *[1] * n)
        b = (2.0 * alpha + 2.0) / p
        log = ((lgamma(b) - np.log(p)).sum(axis=0)
               - lgamma(1.0 + b.sum(axis=0)))
        return (2.0 * np.pi) ** n * np.exp(log)
    return None


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


def frontier_sample(domain: ReinhardtDomain, count: int = 64) -> np.ndarray:
    """The (k, dim) frontier radius vectors along the simplex directions."""
    dirs = simplex_directions(domain.dim, count)
    scales = np.array([_ray_scale(domain, u) for u in dirs])
    return scales[:, None] * dirs


def _maximal_rows(radii: np.ndarray) -> np.ndarray:
    """Indices of rows not componentwise dominated by another row.

    Circle means of |f|^p, and by the maximum principle the sup of |f| on
    a shell, are nondecreasing in each radius coordinate, so dominated
    frontier shells cannot carry the supremum and are skipped.
    """
    rj, ri = radii[:, None, :], radii[None, :, :]     # [j, i] compares j to i
    covers = (np.all(rj >= ri - 1e-12, axis=2)
              & np.any(rj > ri + 1e-12, axis=2))
    # of exact duplicates the first row is kept
    twins = np.triu(np.all(np.abs(rj - ri) <= 1e-12, axis=2), 1)
    return np.flatnonzero(~np.any(covers | twins, axis=0))


def dilate_truncate(f: PowerSeries, rho: float, M: int) -> PowerSeries:
    """Truncation at degree M of the dilate z -> f(rho z): the polynomial
    with coefficients a_k rho^k for k <= M."""
    if not 0.0 < rho <= 1.0:
        raise ValueError(f"dilation factor must lie in (0, 1], got {rho}")
    if M < 0:
        raise ValueError("truncation degree must be >= 0")
    if not isinstance(f, PowerSeries):
        raise TypeError("dilate_truncate needs a PowerSeries")
    return PowerSeries.from_coefficients(f.coefficients(M)
                                         * rho ** np.arange(M + 1))


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


def _abs_coeff_sum(series: PowerSeries, x: float) -> tuple[float, bool]:
    """Sum of |a_k| x^k over the full series with a measured geometric
    remainder, and whether it settled within 20000 terms; a sum that did
    not (a slow series, or one unbounded at x) is the sum of those terms."""
    total = 0.0
    prev_term = None
    for k in range(20000):
        term = abs(series.coefficient(k)) * x ** k
        total += term
        if k > 8 and term <= 1e-18 * max(total, 1e-300):
            if prev_term and prev_term > 0 and term < prev_term:
                q = term / prev_term
                total += term * q / (1.0 - q)
            return total, True
        prev_term = term
    return total, False


def density_difference(f, q) -> Callable:
    """f - q for the registry entry ``f`` and the polynomial factors ``q``
    of a product, as f + (-q_1) q_2 ... q_n, which is exact: -q_1 is the
    polynomial of q_1's negated coefficients, and negation commutes with
    every rounding.  It declares what its factors declare
    (:func:`sum_of_products`)."""
    neg = PowerSeries.from_coefficients(-q[0].coefficients(
        max(q[0].degree, 0)))
    return sum_of_products([f.factors, (neg, *q[1:])])


def density_experiment(f, domain: ReinhardtDomain, p: float = 1.0,
                       eps_ladder: Sequence[float] = (0.5, 0.1, 0.02), *,
                       norm_tol: float = 1e-4,
                       max_nodes: int = 1 << 23) -> list[DensityRow]:
    """Drive the dilate-truncate construction for the registry entry ``f``
    down an error ladder.

    For each target eps two forward scans pick the construction: rho is
    the first rung rho_k = 1 - 2^-k (k <= _RHO_K_MAX) whose probe sup of
    |f - f_rho| on boundary shells clears half the target, and M is the
    smallest square degree (M <= _M_CAP) whose coefficient tail bound on
    the closed domain clears the other half.  The probe takes the shells
    of a 16-direction frontier sample that no other one dominates
    (:func:`_maximal_rows`): by the maximum principle a dominated shell
    never carries the sup of |f - f_rho|, so a polydisc probes its one
    shell (1, ..., 1), while a ball or a power egg keeps all 16.  A scan that runs off its
    ladder, or a coefficient sum that does not settle
    (:func:`_abs_coeff_sum`), keeps its last value and marks the row
    unconverged.  The achieved Hardy error of the resulting polynomial is
    then measured and reported, within the node budget ``max_nodes``.
    """
    from .norms import hardy_norm_disc, hardy_norm_reinhardt

    n = domain.dim
    if f.dim != n:
        raise ValueError(f"function dimension {f.dim} != domain dimension {n}")

    # Sup-to-norm conversion: the one-variable Hardy norm is a normalized
    # mean, in several variables the torus integral is unnormalized.
    norm_factor = 1.0 if n == 1 else (2.0 * np.pi) ** (n / p)

    # Probe grid: the torus shells of the maximal rows of a frontier
    # sample, block by block, each with its values of f.
    m_probe = 2048 if n == 1 else (128 if n == 2 else 32)
    sample = frontier_sample(domain, 16)
    probe = [(zs, np.asarray(f.evaluator(*zs))) for zs in
             torus_blocks(sample[_maximal_rows(sample)], (m_probe,) * n)]

    # Per-coordinate closure bounds for the coefficient tail estimate.
    closure = np.array([frontier_max_radius(domain, np.eye(n)[j])[j]
                        for j in range(n)])

    # every target scans the same rungs from the first, so each rung's
    # probe is taken once per call
    @functools.cache
    def probe_sup_diff(rho: float) -> float:
        return float(np.max([np.max(np.abs(
            base - np.asarray(f.evaluator(*[rho * z for z in zs]))))
            for zs, base in probe]))

    rows = []
    for eps in eps_ladder:
        sup_target = eps / (2.0 * norm_factor)
        ok = True
        for k in range(1, _RHO_K_MAX + 1):
            rho = 1.0 - 2.0 ** -k
            if probe_sup_diff(rho) <= sup_target:
                break
        else:
            ok = False
        # Tail bound prod_j full_j - prod_j sum_{k <= M} |a_{j,k}| x_j^k,
        # x_j = rho * closure_j, with one running partial sum per factor.
        xs = rho * closure
        sums = [_abs_coeff_sum(s, x) for s, x in zip(f.factors, xs)]
        full = math.prod(total for total, _ in sums)
        ok = ok and all(settled for _, settled in sums)
        partial = [0.0] * n
        for M in range(_M_CAP + 1):
            for j, (s, x) in enumerate(zip(f.factors, xs)):
                partial[j] += abs(s.coefficient(M)) * x ** M
            if max(full - math.prod(partial), 0.0) <= sup_target:
                break
        else:
            ok = False
        q = [dilate_truncate(s, rho, M) for s in f.factors]
        diff_tagged = density_difference(f, q)
        if n == 1:
            est = hardy_norm_disc(diff_tagged, p, norm_tol,
                                  max_nodes=max_nodes)
        else:
            est = hardy_norm_reinhardt(diff_tagged, p, domain, dirs=24,
                                       tol=norm_tol, max_nodes=max_nodes)
        rows.append(DensityRow(eps=float(eps), rho=float(rho), M=int(M),
                               error=float(est.value),
                               met=bool(est.value <= eps),
                               converged=bool(est.converged and ok)))
    return rows
