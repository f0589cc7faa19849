"""The benchmark's workloads and the checks on their outputs.

Each workload is a closed loop with one caller: ``run`` makes its calls into
the public API one after the other, each waiting for the previous one, and
returns the raw results; ``check`` then compares them with the oracles
below, outside the timed part.

Oracles (all independent of the code under test):

* H^1 norm of const-1 and of z^k is 1, and so is that of their partial sums
  once N >= k; the A^1 (plain area) norm of z^k is 2 pi / (k + 2);
* H^1 norm of f_a is 1 for every |a| < 1, and (2 pi)^2 for the product
  f_0.9(z1) f_0.9(z2) on the bidisc;
* I_1(r) = 2 pi / (1 - r^2);
* T1 + T2 = S_N f_a pointwise, with S_N f_a summed term by term here.

A row fails when it did not converge, misses an oracle, or comes from a
runner whose exit code is not 0.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

TWO_PI = 2.0 * math.pi

CIRCLE_A_SET = (0.0, 0.5, 0.9, 0.99, 0.999)
CIRCLE_SCHEDULE = (16, 64, 256, 1024, 4096)
CIRCLE_Z_LADDER = (0.9, 0.99, 0.999, 0.9999, 0.99999)
# Pointwise identity T1 + T2 = S_N f_a, relative to the size of the terms.
IDENTITY_TOL = 1e-10
IDENTITY_POINTS = 64


class Checks:
    """Counts checked rows, collects failures, tracks worst error/tol."""

    def __init__(self):
        self.attempted = 0
        self.failures = []
        self.err_over_tol = 0.0
        self.worst = ""

    def row(self, label, ok, errors=()):
        """Record one output row.

        ``errors`` holds ``(name, abs_error, tol, scale)``; the row misses
        its oracle when ``abs_error >= tol * scale``.
        """
        self.attempted += 1
        why = [] if ok else ["not converged or runner exit code != 0"]
        for name, err, tol, scale in errors:
            ratio = err / (tol * scale)
            if ratio > self.err_over_tol:
                self.err_over_tol = ratio
                self.worst = f"{label} {name}"
            if not ratio < 1.0:
                why.append(f"{name} error/tol = {ratio:.4g}")
        if why:
            self.failures.append(f"{label}: " + "; ".join(why))


def _rel(name, value, oracle, tol):
    return (name, abs(value - oracle), tol, abs(oracle))


def _monomial_degree(name):
    if name == "const-1":
        return 0
    if name.startswith("mono-"):
        return int(name[5:])
    return None


# -- disc ------------------------------------------------------------------

def run_disc(hl, cfg, reg):
    ub_cfg = replace(cfg, a_set=(0.99,), n_set=(8, 512))
    bu_cfg = replace(cfg, n_set=(16, 512))
    return (hl.experiments.run_uniform_bound(ub_cfg, reg),
            hl.experiments.run_blowup(bu_cfg))


def check_disc(hl, cfg, out, chk):
    ub, bu = out
    tol = cfg.tol
    for name, N, _a, h1_f, a1_p, _r1, h1_p, _r2, conv in ub.rows:
        k = _monomial_degree(name)
        errors = []
        if k is not None or name.startswith("fa-"):
            errors.append(_rel("h1_f", h1_f, 1.0, tol))
        if k is not None and N >= k:
            errors.append(_rel("h1_partial", h1_p, 1.0, tol))
            errors.append(_rel("a1_partial", a1_p, TWO_PI / (k + 2), tol))
        chk.row(f"uniform-bound {name} N={N}", conv and ub.exit_code == 0,
                errors)
    for row in bu.rows:
        N, h1_f, conv = row[0], row[2], row[-1]
        chk.row(f"blowup N={N}", conv and bu.exit_code == 0,
                [_rel("h1_f", h1_f, 1.0, tol)])


# -- circle ----------------------------------------------------------------

def run_circle(hl, cfg, reg):
    norms, w = hl.norms, hl.witnesses

    def hardy(f, spike):
        return norms.hardy_norm_disc(f, 1.0, cfg.tol, k_max=cfg.k_max,
                                     spike=spike, max_nodes=cfg.max_nodes)

    fas = []
    for a in CIRCLE_A_SET:
        entry = reg.get(f"fa-{a:g}")
        fas.append((a, hardy(entry.evaluator, entry.spike)))
    schedule = []
    for N in CIRCLE_SCHEDULE:
        a = w.blowup_schedule(N)
        partial = hl.registry.fa_entry(a).partial_evaluator(N)
        t1 = hl.registry.TaggedEvaluator(w.T1T2Split(a, N).t1, a)
        schedule.append((N, a, hardy(partial, a), hardy(t1, a),
                         w.t2_hardy_vs_bound(a, N, tol=min(cfg.tol, 1e-10),
                                             max_nodes=cfg.max_nodes)))
    ic = hl.experiments.run_ic_asymptotics(cfg, z_ladder=CIRCLE_Z_LADDER)
    return fas, schedule, ic


def _identity_errors(hl, a, N, z):
    """Errors of T1 + T2 and of the registry's S_N against a direct sum."""
    k = np.arange(N + 1)
    coeffs = (1.0 - a * a) * (k + 1) * a ** k
    direct = np.polynomial.polynomial.polyval(z, coeffs)
    size = np.polynomial.polynomial.polyval(np.abs(z), coeffs)
    split = hl.witnesses.T1T2Split(a, N)
    t1, t2 = split.t1(z), split.t2(z)
    partial = hl.registry.fa_entry(a).partial_evaluator(N)(z)
    scale = np.maximum(size, np.abs(t1) + np.abs(t2))
    return [(name, float(np.max(np.abs(v - direct) / scale)), IDENTITY_TOL,
             1.0)
            for name, v in (("t1+t2", t1 + t2), ("registry_partial", partial))]


def check_circle(hl, cfg, out, chk):
    fas, schedule, ic = out
    rng = np.random.default_rng(cfg.seed)
    radius = 1.0 - 10.0 ** rng.uniform(-6.0, 0.0, IDENTITY_POINTS)
    z = radius * np.exp(2j * np.pi * rng.uniform(0.0, 1.0, IDENTITY_POINTS))
    for a, est in fas:
        chk.row(f"hardy f_a a={a:g}", est.converged,
                [_rel("h1", est.value, 1.0, cfg.tol)])
    for N, a, h1n, t1, t2 in schedule:
        chk.row(f"schedule N={N} S_N", h1n.converged)
        chk.row(f"schedule N={N} T1", t1.converged)
        chk.row(f"schedule N={N} T2", t2.converged)
        chk.row(f"schedule N={N} identity", True,
                _identity_errors(hl, a, N, z))
    ic_tol = min(cfg.tol, 1e-10)
    for c, r, value, _comp, _ratio, conv in ic.rows:
        errors = []
        if c == 1.0:
            errors.append(_rel("I_1", value, TWO_PI / (1.0 - r * r), ic_tol))
        chk.row(f"ic c={c:g} r={r:g}", conv and ic.exit_code == 0, errors)


# -- bidisc ----------------------------------------------------------------

def run_bidisc(hl, cfg, reg):
    rein_cfg = replace(cfg, n_set_square=(64,))
    return (hl.experiments.run_reinhardt(rein_cfg, reg),
            hl.experiments.run_density(cfg, reg))


def check_bidisc(hl, cfg, out, chk):
    rein, dens = out
    for row in rein.rows:
        N, h1_f, conv = row[2], row[3], row[-1]
        chk.row(f"reinhardt N={N}", conv and rein.exit_code == 0,
                [_rel("h1_f", h1_f, TWO_PI ** 2, cfg.tol)])
    for label, _name, eps, _rho, _M, _err, met, conv in dens.rows:
        chk.row(f"density {label} eps={eps:g}",
                met and conv and dens.exit_code == 0)


WORKLOADS = {
    "disc": (run_disc, check_disc),
    "circle": (run_circle, check_circle),
    "bidisc": (run_bidisc, check_bidisc),
}
