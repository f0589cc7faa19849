"""Experiment runners producing deterministic tables with pass/fail gates.

Every runner returns an ExperimentResult holding fixed-order columns and
the rows, each ending in its convergence flag, appended with ``add``.
``ExperimentResult.close`` then records the summary and the gates and
sets the exit code: 2 if a row did not converge, else 0 if every gate
holds, else 1.

CSV output is byte-deterministic for a fixed seed: floats are printed
with repr-faithful %.17g, and wall times are reported only in the JSON
form, never in CSV.  The --max-nodes budget applies directly to circle
and torus rules; volume rules get a 64x allowance because their radial
axes multiply into the same product budget.
"""

from __future__ import annotations

import inspect
import json
import time
from dataclasses import dataclass, field

import numpy as np

from .norms import (bergman_norm_disc, bergman_norm_reinhardt, boundary_grid,
                    hardy_norm_disc, hardy_norm_reinhardt, monotonicity_check,
                    radial_cells)
from .quadrature import TWO_PI
from .registry import (FunctionRegistry, RegistryEntry, TaggedEvaluator,
                       default_registry, fa_entry, polynomial_entry,
                       product_entry)
from .reinhardt import (ReinhardtDomain, density_experiment,
                        domain_from_config, frontier_sample,
                        monomial_moments, polydisc)
from .witnesses import (IcQuery, T1T2Split, blowup_lower_bound,
                        blowup_schedule, eval_ic, ic_comparison,
                        t2_hardy_vs_bound)

DEFAULT_N_SET = (8, 16, 32, 64, 128, 256, 512, 1024)
DEFAULT_N_SET_SQUARE = (1, 2, 4, 8, 16, 32, 64)
DEFAULT_A_SET = (0.0, 0.5, 0.9, 0.99, 0.999)
DEFAULT_C_SET = (1.0, 0.5, 0.0, -0.5)
DEFAULT_Z_LADDER = (0.9, 0.99, 0.999, 0.9999)
DEFAULT_FUNCTION = "prod-fa-0.9"
A1_FUNCTIONS = ("fa-0.9", "const-1", "mono-1", "mono-2", "mono-5", "poly-3",
                "poly-7", "poly-12")
A1_FINAL_TOL = 1e-3
MONOTONE_PAIRS = 100


@dataclass(frozen=True)
class RunConfig:
    """Shared knobs for all runners."""

    tol: float = 1e-6
    # past the 4,976,832-point level of the bidisc density row at eps 0.02
    max_nodes: int = 1 << 23
    n_set: tuple = DEFAULT_N_SET
    n_set_square: tuple = DEFAULT_N_SET_SQUARE
    a_set: tuple = DEFAULT_A_SET
    seed: int = 12345
    # not a field; kept because perfbench/workloads.py:112 reads cfg.k_max
    k_max = 36

    def __post_init__(self):
        # Refused before any runner starts: each of these would otherwise
        # fail mid-run, or never converge for a NaN tolerance.
        if not (np.isfinite(self.tol) and self.tol > 0):
            raise ValueError(f"tol must be finite and > 0, got {self.tol}")
        if self.max_nodes < 1:
            raise ValueError(f"max_nodes must be >= 1, got {self.max_nodes}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        for key in ("n_set", "n_set_square"):
            orders = getattr(self, key)
            if not orders or min(orders) < 0:
                raise ValueError(f"{key} must hold orders N >= 0, got {orders}")
            if any(b <= a for a, b in zip(orders, orders[1:])):
                raise ValueError(f"{key} must increase strictly, got {orders}")
        if not all(abs(a) < 1.0 for a in self.a_set):
            raise ValueError(f"a_set must hold parameters |a| < 1, "
                             f"got {self.a_set}")

    def vol_cap(self) -> int:
        return self.max_nodes << 6


@dataclass
class ExperimentResult:
    """A runner's table: rows whose last cell is the row's convergence
    flag, the wall time of each row, the summary and the exit code."""

    name: str
    columns: tuple
    rows: list = field(default_factory=list)
    summary: dict = field(default_factory=dict)
    exit_code: int = 0
    wall_times: list = field(default_factory=list)

    def add(self, started: float, *row) -> None:
        """Append ``row``, timed from ``started`` (a perf_counter reading)."""
        self.rows.append(row)
        self.wall_times.append(time.perf_counter() - started)

    def close(self, info: dict, **gates) -> ExperimentResult:
        """Summarize as ``info`` plus the gates and ``all_converged``; exit
        2 if a row did not converge, else 0 if every gate holds, else 1."""
        converged = all(row[-1] for row in self.rows)
        self.summary = {**info, **{k: bool(v) for k, v in gates.items()},
                        "all_converged": converged}
        self.exit_code = 2 if not converged else (
            0 if all(gates.values()) else 1)
        return self

    def to_dict(self) -> dict:
        return {"experiment": self.name,
                "columns": list(self.columns),
                "rows": [list(r) for r in self.rows],
                "summary": _plain(self.summary),
                "exit_code": self.exit_code,
                "records": [{**_plain(dict(zip(self.columns, row))),
                             "wall_time": wall}
                            for row, wall in zip(self.rows, self.wall_times,
                                                 strict=True)]}


def _plain(obj):
    """Recursively convert numpy scalars/arrays for JSON."""
    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    return obj


def _f17(x: float) -> str:
    return format(float(x), ".17g")


def _cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, (bool, np.bool_)):
        return str(bool(v)).lower()
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return _f17(v)
    return str(v)


def render_csv(result: ExperimentResult) -> str:
    lines = [",".join(result.columns)]
    for row in result.rows:
        lines.append(",".join(_cell(v) for v in row))
    return "\n".join(lines) + "\n"


def render_json(result: ExperimentResult) -> str:
    return json.dumps(result.to_dict(), indent=2) + "\n"


def write_result(result: ExperimentResult, out: str = "-",
                 fmt: str = "csv") -> None:
    text = render_csv(result) if fmt == "csv" else render_json(result)
    if out == "-":
        print(text, end="")
    else:
        with open(out, "w") as fh:
            fh.write(text)


def _uniform_bound_functions(cfg: RunConfig, reg: FunctionRegistry
                             ) -> list[tuple[RegistryEntry, float | None]]:
    """The one-variable entries of ``reg`` other than the f_a, then f_a for
    each a of ``cfg.a_set``, each with its a (``None`` for the others)."""
    base = [(e, None) for e in reg.entries(dim=1)
            if not e.name.startswith("fa-")]
    return base + [(fa_entry(a), float(a)) for a in cfg.a_set]


def run_uniform_bound(config: RunConfig | None = None,
                      registry: FunctionRegistry | None = None) -> ExperimentResult:
    """Bergman norms of partial sums against the Hardy norm of the limit.

    The ratio column ||S_N f||_A1 / ||f||_H1 must plateau in N, from a
    positive base; the same ratio with the Hardy norm of S_N in the
    numerator is reported as a contrast and is allowed to grow.  A
    monomial z^k (``const-1`` is z^0) has closed forms from N = k on,
    gated to ``tol`` relative: S_N z^k = z^k, whose A1 norm is
    2 pi / (k + 2) and whose H1 norm is 1.
    """
    cfg = config or RunConfig()
    reg = registry or default_registry(cfg.seed)
    res = ExperimentResult("uniform-bound",
                           ("function", "N", "a", "h1_f", "a1_partial",
                            "ratio_a1", "h1_partial", "ratio_h1", "converged"))
    closed_rel = 0.0
    for entry, a_val in _uniform_bound_functions(cfg, reg):
        k = _monomial_degree(entry)
        degree = entry.factors[0].degree
        h1 = hardy_norm_disc(entry.evaluator, 1.0, cfg.tol,
                             max_nodes=cfg.max_nodes)
        # S_N f = f for N >= deg f, so norms are taken once per min(N, deg
        # f) and tag (a polynomial's own tag can differ between orders)
        memo = {}
        for N in cfg.n_set:
            t1 = time.perf_counter()
            sn = entry.partial_evaluator(N)
            key = (N if degree is None else min(N, degree), sn.spike)
            if key not in memo:
                memo[key] = (
                    bergman_norm_disc(sn, 1.0, cfg.tol,
                                      max_nodes=cfg.vol_cap()),
                    hardy_norm_disc(sn, 1.0, cfg.tol,
                                    max_nodes=cfg.max_nodes))
            a1, h1n = memo[key]
            res.add(t1, entry.name, N, a_val, h1.value, a1.value,
                    a1.value / h1.value, h1n.value, h1n.value / h1.value,
                    h1.converged and a1.converged and h1n.converged)
            if k is not None and N >= k:
                closed_rel = max(closed_rel,
                                 _rel_distance(a1.value, 2.0 * np.pi / (k + 2)),
                                 _rel_distance(h1n.value, 1.0))
    ratios = {}
    for row in res.rows:
        ratios.setdefault(row[1], []).append(row[5])
    ns = sorted(ratios)
    early_ns, late_ns = ns[:2], ns[-2:]
    early = max(max(ratios[n]) for n in early_ns)
    late = max(max(ratios[n]) for n in late_ns)
    return res.close({"max_ratio_a1": max(max(v) for v in ratios.values()),
                      "early_ns": early_ns, "late_ns": late_ns,
                      "max_early": early, "max_late": late,
                      "closed_form_max_rel": closed_rel},
                     plateau_ok=0.0 < early and late <= 1.10 * early,
                     closed_forms_ok=closed_rel <= cfg.tol)


def _monomial_degree(entry: RegistryEntry) -> int | None:
    """k when the entry's series is the monomial z^k (its one nonzero
    coefficient a_k is 1), else ``None``."""
    series = entry.factors[0]
    k = series.degree
    if k is None or k < 0:
        return None
    coeffs = series.coefficients(k)
    return k if coeffs[k] == 1 and not np.any(coeffs[:k]) else None


def run_a1_convergence(config: RunConfig | None = None,
                       registry: FunctionRegistry | None = None
                       ) -> ExperimentResult:
    """Bergman error of partial sums: ||S_N f - f||_A1 down the N grid.

    For the extremal-family member the errors must decrease strictly from
    N = 16 on and end below A1_FINAL_TOL (the error at N = 512, else at the
    last order run from 16 on, else at the last order run); polynomials
    must hit 1e-12 as soon as N reaches their degree.
    """
    cfg = config or RunConfig()
    reg = registry or default_registry(cfg.seed)
    res = ExperimentResult("a1-converge",
                           ("function", "N", "degree", "err_a1", "converged"))
    fa_errs = {}
    poly_ok = True
    for name in A1_FUNCTIONS:
        entry = reg.get(name)
        degree = entry.factors[0].degree
        for N in cfg.n_set:
            t0 = time.perf_counter()
            err = bergman_norm_disc(entry.tail_evaluator(N), 1.0, cfg.tol,
                                    max_nodes=cfg.vol_cap())
            res.add(t0, name, N, degree, err.value, err.converged)
            if name.startswith("fa-") and degree is None:
                fa_errs.setdefault(name, []).append((N, err.value))
            elif degree is not None and N >= degree:
                poly_ok = poly_ok and err.value < 1e-12
    decreasing = True
    finals = {}
    for name, pairs in fa_errs.items():
        tail = [(n, e) for n, e in pairs if n >= 16]
        decreasing = decreasing and all(e2 < e1 for (_, e1), (_, e2)
                                        in zip(tail, tail[1:]))
        finals[name] = dict(pairs).get(512, (tail or pairs)[-1][1])
    return res.close({"fa_final_errors": finals, "final_tol": A1_FINAL_TOL},
                     fa_strictly_decreasing=decreasing,
                     final_ok=all(v < A1_FINAL_TOL for v in finals.values()),
                     polynomials_exact_ok=poly_ok)


def blowup_orders(cfg: RunConfig) -> tuple:
    """The orders ``run_blowup`` tabulates: those of ``n_set`` from 16 on,
    else all of them.  N = 0 is refused, naming ``n_set``: a = 0 there, so
    f_a has no spike and the lower bound of T2 vanishes."""
    ns = tuple(N for N in cfg.n_set if N >= 16) or cfg.n_set
    if min(ns) < 1:
        raise ValueError(f"n_set: blowup needs orders N >= 1, "
                         f"got {cfg.n_set}")
    return ns


def run_blowup(config: RunConfig | None = None) -> ExperimentResult:
    """Hardy blow-up of partial sums along the near-boundary schedule.

    At each N the parameter a = N/(N+1) puts the family member a distance
    1/(N+1) from the boundary.  ||f_a||_H1 stays 1, ||S_N f_a||_H1 must
    increase with N while ||S_N f_a||_A1 plateaus; the two-term split is
    tabulated against the logarithmic lower bound.
    """
    cfg = config or RunConfig()
    ns = blowup_orders(cfg)
    res = ExperimentResult("blowup",
                           ("N", "a", "h1_f", "h1_partial", "a1_partial",
                            "ratio_h1", "ratio_a1", "t1_h1", "t2_h1",
                            "lower_bound", "t2_over_bound", "converged"))
    for N in ns:
        t0 = time.perf_counter()
        a = blowup_schedule(N)
        # f_a, its S_N and T1 carry the spike a (S_N's degree tag is a too);
        # a being real, the split declares T1 conj_symmetric itself
        entry = fa_entry(a)
        sn = entry.partial_evaluator(N)
        t1 = TaggedEvaluator(T1T2Split(a, N).t1, a)
        h1f = hardy_norm_disc(entry.evaluator, 1.0, cfg.tol,
                              max_nodes=cfg.max_nodes)
        h1n = hardy_norm_disc(sn, 1.0, cfg.tol, max_nodes=cfg.max_nodes)
        a1n = bergman_norm_disc(sn, 1.0, cfg.tol, max_nodes=cfg.vol_cap())
        t1n = hardy_norm_disc(t1, 1.0, cfg.tol, max_nodes=cfg.max_nodes)
        t2row = t2_hardy_vs_bound(a, N, tol=min(cfg.tol, 1e-10),
                                  max_nodes=cfg.max_nodes)
        res.add(t0, N, a, h1f.value, h1n.value, a1n.value,
                h1n.value / h1f.value, a1n.value / h1f.value, t1n.value,
                t2row.t2_h1, blowup_lower_bound(a, N), t2row.ratio,
                h1f.converged and h1n.converged and a1n.converged
                and t1n.converged and t2row.converged)
    h1p = [row[3] for row in res.rows]
    a1p = [row[4] for row in res.rows]
    t2r = [row[10] for row in res.rows]
    t1m = max(row[7] for row in res.rows)
    increasing = all(b > a for a, b in zip(h1p, h1p[1:]))
    # ||f_a||_A1 = pi (1-a^2) log(1/(1-a^2)) / a^2 -> 0 along a = N/(N+1)
    decreasing = all(b < a for a, b in zip(a1p, a1p[1:]))
    growth = h1p[-1] / h1p[0] if h1p[0] > 0 else np.inf
    band = max(t2r) / min(t2r) if min(t2r) > 0 else np.inf
    return res.close({"h1_growth": growth, "t1_max": t1m, "t2_band": band,
                      "a1_max": max(a1p)},
                     h1_strictly_increasing=increasing,
                     a1_strictly_decreasing=decreasing,
                     growth_ok=growth >= 1.5, t1_ok=t1m <= 2.0 + 1e-6,
                     t2_band_ok=band <= 3.0)


def _refuse_empty(**ladders) -> None:
    """Refuse, naming it, a ladder with no rungs: a runner given no rows
    would pass its gates vacuously."""
    for key, ladder in ladders.items():
        if not len(ladder):
            raise ValueError(f"{key} must hold at least one value, got "
                             f"{ladder!r}")


def run_ic_asymptotics(config: RunConfig | None = None,
                       c_set: tuple = DEFAULT_C_SET,
                       z_ladder: tuple = DEFAULT_Z_LADDER) -> ExperimentResult:
    """Boundary-growth regimes of the kernel-power circle integrals.

    For each exponent c the integral is compared against its expected
    growth rate: (1-r^2)^-c above the critical exponent, the logarithm at
    it, a constant below.  The c = 1 rows are checked hard against the
    closed form 2 pi / (1 - r^2), with 1 - r^2 taken as (1 - r)(1 + r).
    An empty ``c_set`` or ``z_ladder`` raises ``ValueError``.
    """
    _refuse_empty(c_set=c_set, z_ladder=z_ladder)
    cfg = config or RunConfig()
    res = ExperimentResult("ic",
                           ("c", "r", "value", "comparison", "ratio",
                            "converged"))
    c1_rel = 0.0
    ratios = {}
    for c in c_set:
        for r in z_ladder:
            t0 = time.perf_counter()
            q = IcQuery(float(c), complex(r))
            got = eval_ic(q, tol=min(cfg.tol, 1e-10),
                          max_nodes=cfg.max_nodes)
            comp = ic_comparison(float(c), complex(r))
            ratio = got.value / comp
            res.add(t0, float(c), float(r), got.value, comp, ratio,
                    got.converged)
            ratios.setdefault(float(c), []).append(ratio)
            if c == 1.0:
                exact = 2.0 * np.pi / ((1.0 - r) * (1.0 + r))
                c1_rel = max(c1_rel, abs(got.value - exact) / exact)
    bands = {c: (min(v), max(v)) for c, v in ratios.items()}
    return res.close({"c1_max_rel": c1_rel, "ratio_bands": bands},
                     c1_ok=c1_rel <= 1e-8,
                     bands_ok=all(hi / lo <= 4.0 for lo, hi in bands.values()
                                  if lo > 0))


def reinhardt_case(registry: FunctionRegistry, domain=None,
                   function: str = DEFAULT_FUNCTION):
    """The entry and the domain (default ``polydisc(2)``) ``run_reinhardt``
    tabulates; ValueError if their dimensions differ, DomainModelError if
    the domain reaches a pole the entry's spike tag declares
    (``norms.boundary_grid``)."""
    entry, dom = registry.get(function), domain or polydisc(2)
    if entry.dim != dom.dim:
        raise ValueError(f"function {function!r} has dimension {entry.dim} "
                         f"but the {dom.kind} domain has dimension {dom.dim}")
    boundary_grid(entry.evaluator, dom)
    return entry, dom


def run_reinhardt(config: RunConfig | None = None,
                  registry: FunctionRegistry | None = None,
                  domain: ReinhardtDomain | None = None,
                  function: str = DEFAULT_FUNCTION) -> ExperimentResult:
    """Square partial sums on a Reinhardt domain, by default the bidisc.

    Tabulates Bergman norms and errors of square truncations against the
    frontier Hardy norm, and batch-checks shell monotonicity on seeded
    radius pairs.  A polydisc also gets the product oracle
    (:func:`_product_oracle`) as a gate, and every domain with closed-form
    moments the A^2 moment oracle (:func:`_a2_oracle`).
    """
    cfg = config or RunConfig()
    reg = registry or default_registry(cfg.seed)
    entry, dom = reinhardt_case(reg, domain, function)
    res = ExperimentResult("reinhardt",
                           ("domain", "function", "N", "h1_f", "a1_partial",
                            "ratio", "err_a1", "converged"))
    h1 = hardy_norm_reinhardt(entry.evaluator, 1.0, dom, dirs=64,
                              tol=cfg.tol, max_nodes=cfg.max_nodes)
    # The ratio gate is 10%, so 1e-4 relative quadrature leaves three
    # orders of headroom and stays inside the node budget.
    a1_tol = max(cfg.tol, 1e-4)
    for N in cfg.n_set_square:
        t0 = time.perf_counter()
        sn = entry.partial_evaluator(N)
        a1 = bergman_norm_reinhardt(sn, 1.0, dom, tol=a1_tol,
                                    max_nodes=cfg.vol_cap())
        # The error integrand has modulus kinks along its zero set, so it
        # gets a looser relative target; the gate on it is absolute 1e-2.
        errn = bergman_norm_reinhardt(entry.tail_evaluator(N), 1.0, dom,
                                      tol=1e-3, max_nodes=cfg.vol_cap())
        res.add(t0, dom.kind, entry.name, N, h1.value, a1.value,
                a1.value / h1.value, errn.value,
                h1.converged and a1.converged and errn.converged)
    ratios = [row[5] for row in res.rows]
    # Plateau gate: over the last two doublings the ratio may grow <= 10%.
    # The base is the last nonzero ratio before them (else the first
    # nonzero one): a square partial sum that vanishes, z1 z2^2 at N = 1,
    # sets no scale.  A column with no nonzero ratio has no base and fails.
    head = ratios[:-2] if len(ratios) >= 3 else ratios[:1]
    base = next((r for r in reversed(head) if r),
                next((r for r in ratios if r), 0.0))
    tail_max = max(ratios[-2:])
    final_err = res.rows[-1][6]

    rng = np.random.default_rng(cfg.seed)
    shells = frontier_sample(dom, 16)
    lo, hi = [], []
    for _ in range(MONOTONE_PAIRS):
        radii = shells[int(rng.integers(0, shells.shape[0]))]
        t_lo = float(rng.uniform(0.2, 0.85))
        t_hi = t_lo + float(rng.uniform(0.05, 0.13))
        lo.append(t_lo * radii)
        hi.append(t_hi * radii)
    failures = int(np.sum(~monotonicity_check(entry.evaluator, 1.0, lo, hi,
                                              tol=1e-9)))
    info = {"h1_f": h1.value, "plateau_base": base,
            "plateau_tail_max": tail_max, "final_err": final_err,
            "monotone_pairs": MONOTONE_PAIRS, "monotone_failures": failures}
    gates = {}
    if dom.kind == "polydisc":
        rel, converged = _product_oracle(entry, dom, res.rows, cfg.vol_cap())
        info["product_max_rel"] = rel
        gates["product_ok"] = converged and rel <= a1_tol
    a2 = _a2_oracle(entry, dom, cfg.n_set_square[-1], a1_tol, cfg.vol_cap())
    if a2 is not None:
        rel, converged = a2
        info["a2_rel"] = rel
        gates["a2_ok"] = converged and rel <= a1_tol
    else:
        rel, converged = _volume_oracle(dom, a1_tol, cfg.vol_cap())
        info["volume_rel"] = rel
        gates["volume_ok"] = converged and rel <= 1e-12
    return res.close(info, plateau_ok=0.0 < base and tail_max <= 1.10 * base,
                     final_err_ok=final_err < 1e-2,
                     monotone_ok=failures == 0, **gates)


def _product_oracle(entry: RegistryEntry, dom: ReinhardtDomain, rows,
                   max_nodes: int) -> tuple[float, bool]:
    """Worst relative distance of the ``a1_partial`` column of ``rows`` from
    the product of the factors' one-variable norms, and whether every
    one-variable norm converged.

    On a polydisc the volume integral of a product splits into the
    factors' integrals over their discs, so the A1 norm of the square
    partial sum of order N is prod_j ||S_N f_j||_A1(|z| < R_j), each S_N
    f_j the partial sum of the one-factor entry of f_j.  Each factor norm
    is taken to tol 1e-10, far below the row's own tolerance, and once per
    distinct factor, radius and order.  A factor's S_N may vanish (z^2 at
    N = 1): a column equal to its oracle is at distance 0, any other
    column against a zero oracle at distance infinity.
    """
    one_var = {}
    worst, converged = 0.0, True
    for row in rows:
        N, a1 = row[2], row[4]
        oracle = 1.0
        for fac, R in zip(entry.factors, dom.params):
            key = (fac, R, N)
            if key not in one_var:
                one_var[key] = bergman_norm_reinhardt(
                    RegistryEntry(entry.name, (fac,)).partial_evaluator(N),
                    1.0, polydisc(1, [R]), tol=1e-10, max_nodes=max_nodes)
            converged = converged and one_var[key].converged
            oracle *= one_var[key].value
        worst = max(worst, _rel_distance(a1, oracle))
    return worst, converged


def _rel_distance(value: float, oracle: float) -> float:
    """|value - oracle| / oracle; 0 when they are equal, and infinity for
    any other value against a zero oracle."""
    if value == oracle:
        return 0.0
    return abs(value - oracle) / oracle if oracle else np.inf


def _a2_oracle(entry: RegistryEntry, dom: ReinhardtDomain, N: int,
               tol: float, max_nodes: int) -> tuple[float, bool] | None:
    """Relative distance of the A^2 norm of the square partial sum S_N f,
    by ``bergman_norm_reinhardt`` at ``tol``, from its moment sum, and
    whether the norm converged; ``None`` when the domain has no
    closed-form moments (custom).

    Monomials are orthogonal on a complete Reinhardt domain, so
    ||S_N f||^2 = sum over max_j alpha_j <= N of |a_alpha|^2 m_alpha, with
    a_alpha the product of the factors' coefficients and m_alpha from
    ``reinhardt.monomial_moments``.  The oracle shares no quadrature with
    the estimator: it checks the radial cells, the section tops, the
    jacobian prod r_j and the (2 pi)^n mass on every domain kind.
    """
    moments = monomial_moments(dom, N)
    if moments is None:
        return None
    weights = moments
    for j, s in enumerate(entry.factors):
        shape = [1] * dom.dim
        shape[j] = N + 1
        weights = weights * (np.abs(s.coefficients(N)) ** 2).reshape(shape)
    est = bergman_norm_reinhardt(entry.partial_evaluator(N), 2.0, dom,
                                 tol=tol, max_nodes=max_nodes)
    return (_rel_distance(est.value, float(np.sqrt(np.sum(weights)))),
            est.converged)


def _volume_oracle(dom: ReinhardtDomain, tol: float,
                   max_nodes: int) -> tuple[float, bool]:
    """Relative distance of ||1||_A1 over ``dom``, by
    ``bergman_norm_reinhardt`` at ``tol``, from (2 pi)^n times the summed
    weights of the radial cells of the level it stopped at, and whether
    the norm converged.

    The weight sum shares the radial cells with the estimator but not the
    torus rule, so it checks the (2 pi)^n mass on a domain that has no
    closed-form moments (custom), where :func:`_a2_oracle` has none.
    """
    one = product_entry((polynomial_entry("const-1", [1.0]),)
                        * dom.dim).evaluator
    est = bergman_norm_reinhardt(one, 1.0, dom, tol=tol, max_nodes=max_nodes)
    _, weights = radial_cells(one, dom, est.report.levels)
    volume = TWO_PI ** dom.dim * float(np.sum(weights))
    return _rel_distance(est.value, volume), est.converged


def run_density(config: RunConfig | None = None,
                registry: FunctionRegistry | None = None,
                eps_ladder: tuple = (0.5, 0.1, 0.02)) -> ExperimentResult:
    """Dilate-truncate density on the disc and the bidisc.  An empty
    ``eps_ladder`` raises ``ValueError``."""
    _refuse_empty(eps_ladder=eps_ladder)
    cfg = config or RunConfig()
    reg = registry or default_registry(cfg.seed)
    cases = (("disc", polydisc(1), "fa-0.9"),
             ("bidisc", polydisc(2), "prod-fa-0.9"))
    res = ExperimentResult("density",
                           ("domain", "function", "eps", "rho", "M", "error",
                            "met", "converged"))
    for label, dom, name in cases:
        entry = reg.get(name)
        t0 = time.perf_counter()
        # The eps gates are absolute (>= 0.02) and the measured errors sit
        # orders below them, so 1e-3 relative accuracy is plenty here.
        rows = density_experiment(entry, dom, 1.0, eps_ladder,
                                  norm_tol=max(cfg.tol, 1e-3),
                                  max_nodes=cfg.max_nodes)
        for dr in rows:
            res.add(t0, label, name, dr.eps, dr.rho, dr.M, dr.error, dr.met,
                    dr.converged)
    return res.close({}, all_met=all(row[6] for row in res.rows))


RUNNERS = {"uniform-bound": run_uniform_bound,
           "a1-converge": run_a1_convergence,
           "blowup": run_blowup,
           "ic": run_ic_asymptotics,
           "reinhardt": run_reinhardt,
           "density": run_density}


def array_of(kind, nonempty: bool = False):
    """Parser of a JSON array into a tuple of ``kind`` values; an empty
    array is refused when ``nonempty``."""
    def parse(values) -> tuple:
        if not isinstance(values, (list, tuple)):
            raise TypeError(f"expected an array, got {values!r}")
        if nonempty and not values:
            raise ValueError("must hold at least one value, got []")
        return tuple(kind(v) for v in values)
    return parse


def _finite(value) -> float:
    if not np.isfinite(x := float(value)):
        raise ValueError(f"must be finite, got {value!r}")
    return x


def _positive(value) -> float:
    if not 0.0 < (x := _finite(value)):
        raise ValueError(f"must be > 0, got {value!r}")
    return x


def _radius(value) -> float:
    if not 0.0 <= (x := float(value)) < 1.0:           # NaN too
        raise ValueError(f"must lie in [0, 1), got {value!r}")
    return x


def _entry_name(name) -> str:
    # Registry names do not depend on the seed.
    if not isinstance(name, str) or name not in default_registry():
        raise ValueError(f"no registry entry named {name!r}")
    return name


# The keyword arguments runners read from a config file, with the parser
# that turns the file's JSON value into the argument.  A ladder must hold
# a rung: with no rows a runner's gates would hold vacuously.
RUNNER_OPTIONS = {"ic": {"c_set": array_of(_finite, nonempty=True),
                         "z_ladder": array_of(_radius, nonempty=True)},
                  "reinhardt": {"domain": domain_from_config,
                                "function": _entry_name},
                  "density": {"eps_ladder": array_of(_positive,
                                                     nonempty=True)}}


def runner_options(name: str, options: dict) -> dict:
    """The keyword arguments runner ``name`` takes from ``options``."""
    return {key: options[key] for key in RUNNER_OPTIONS.get(name, ())
            if key in options}


def run_all(config: RunConfig | None = None,
            **options) -> dict[str, ExperimentResult]:
    """Run every runner; each takes the keyword arguments in ``options``
    that ``RUNNER_OPTIONS`` lists for it, and the ones that take a registry
    share one."""
    cfg = config or RunConfig()
    reg = default_registry(cfg.seed)
    out = {}
    for name, run in RUNNERS.items():
        kw = runner_options(name, options)
        if "registry" in inspect.signature(run).parameters:
            kw["registry"] = reg
        out[name] = run(cfg, **kw)
    return out
