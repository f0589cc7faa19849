"""Deterministic quadrature on torus shells and dyadic radial panels.

The norm estimators integrate over torus shells r * T^n, n >= 1, with the
equispaced trapezoid rule in each angle: exact for trigonometric
polynomials of degree below the node count and spectrally accurate for
integrands that extend analytically past the shell.  A circle is the
one-axis shell.  Volumes are integrated in polar form: Gauss-Legendre
panels in each radius with dyadic panel boundaries 1 - 2^-k concentrated
toward the rim (:func:`dyadic_panels`), times the shell rule.  The disc
is not special-cased; ``norms`` treats it as ``polydisc(1)``.

This module owns the pieces every estimator shares: :func:`unit_nodes`
builds the equispaced nodes e^(2 pi i (k + shift) / m) on the circle and,
shaped for broadcasting, on the axes of a torus grid; :func:`refine_until`
is the node-doubling driver, for scalar and array values alike; and
:func:`doubled` is the one nested-doubling step.  The trapezoid rule with
2m nodes is the mean of the m-node rule and its copy shifted by half a
step, so a level that doubles every count of n axes evaluates only the
2^n - 1 half-shifted cosets of the previous grid and reuses its value.
Every doubling loop steps this way: the volume and shell rules of
``norms``, the frontier loop of ``norms.hardy_norm_reinhardt``, which
refines all its frontier shells at once, and the circle integrals of
``witnesses``.  :func:`doubled` asks its rule for all 2^n - 1 cosets at
once, so a rule can share work between them.  Every refined number, a
norm or I_c, is a :class:`NormEstimate`: its value and the
:class:`RefinementReport` of the refinement behind it.

:func:`torus_cosets` is the one shell rule, with three ways of
evaluating it, chosen in one place (:func:`_axis_terms`) from one
attribute.  Its shells may carry their own node counts: one call groups
them by count itself (:func:`_shell_groups`), as the volume rule of
``norms`` needs, whose rings take counts by radius.  An integrand that
holds the one-variable factors of its ``terms``, g(z) = map(sum_k prod_j
t_kj(z_j)) with its own elementwise ``map`` (|.|^p or none), has each
distinct factor evaluated once per call on each axis, distinct radius,
count and shift (:func:`_rings`, :func:`_circle_values`), into one
factor table that every group of the call reads: the q^2 radial cells
of a polydisc share q radii per axis, and the volume rule gives a ring
its count from its own radius, whatever the other axes' counts.  One
term is a product: at the same counts and shifts its tensor trapezoid
sum over a shell is the product of the per-axis circle sums, so a shell
costs sum_j m_j points instead of prod_j m_j, and the 2^n - 1 cosets of
a doubling share each axis's shift-0 and shift-1/2 sums.
Several terms (a tail or a density difference) have no such split;
their values are formed on the tensor grid from the factor values with
the sum's own elementwise operations, bit for bit the values the
callable gives.  Every other integrand is evaluated on the tensor grid.
An integrand flagged ``conj_even``, g(conj z) = g(z), as |f|^p is for an
f with real Taylor coefficients (``norms._abs_power`` sets the flag from
f's ``conj_symmetric`` declaration), takes the same values at the mirror
images theta -> -theta of the nodes, which the grid holds at either
shift.  On the tensor grid and in the several-term path it is evaluated
only where the first axis's angle lies in [0, pi] (:func:`half_circle`),
about half the points, with the same spectral accuracy (Trefethen &
Weideman, *SIAM Review* 56, 2014); a product's circle sums stay whole.
Every rule reports the points it evaluated the integrand at, counted
from what the call holds (:func:`_points`), not by a second pass: a
product its table's rings, and a sum of several products the tensor
points at which its values are formed, so no budget or stopping decision
depends on which of the two tensor paths is taken.

Everything here is binary64 and deterministic: node construction, chunking
and accumulation order are fixed functions of the rule parameters, so two
runs with the same inputs produce bit-identical values.

:func:`torus_blocks` builds the one torus grid in cache-sized blocks of
about ``_CHUNK`` points (:func:`_block_plan`); :func:`torus_cosets` sums
its integrand over them (a factor's circles are one-axis grids), a sum of
several products forms its values in blocks of the same plan, and the density
probe of ``reinhardt`` takes its maximum.  An integrand is a chain of
elementwise numpy passes (f(z), products, ``np.abs``, ``** p``), and each
pass streams its temporaries through memory; a block that fits in the
per-core L2 cache keeps that traffic out of DRAM, and temporaries that
small stay on the same heap pages from one integrand call to the next
instead of being trimmed and faulted back in.  Whole shells are grouped
into a block while they fit; a larger shell is cut along its first axis
into near-equal pieces, a circle into arcs.  No value depends on the
block size: the integrand is evaluated pointwise, and each shell's sum is
one ``np.sum`` over the same elements of one row in the same order,
whichever block the row lands in and however it was cut.
"""

from __future__ import annotations

import functools
import math
import threading
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

TWO_PI = 2.0 * np.pi

# Hard stop for refine_until; the node budget normally ends a refinement
# long before this many doublings.
_MAX_LEVELS = 40


def unit_nodes(m: int, axis: int = 0, ndim: int = 1,
               shift: float = 0.0, count: int | None = None) -> np.ndarray:
    """The m equispaced nodes exp(2 pi i (k + shift) / m) on the unit circle,
    or the first ``count`` of them (k < count).

    The nodes run along ``axis`` of an ``ndim``-dimensional array whose
    other axes have length one, so the axes of a torus grid broadcast
    against each other.  ``shift`` = 1/2 gives the nodes of the 2m-node
    rule that the m-node rule lacks.

    The nodes come from two small tables of exponentials and one complex
    multiply each.  With the step b = 2^floor(bit_length(m) / 2), about
    sqrt(m), node k = q b + s is coarse[q] * fine[s], where

        coarse[q] = exp(2 pi i q b / m),
        fine[s] = exp(2 pi i (s + shift) / m),  s < b,

    so a call takes about 2 sqrt(m) exponentials.  b depends on m alone,
    and each node is its own product of two table entries, so the first
    ``count`` nodes are those of the full set bit for bit, and at shift 0
    node 0 is exactly 1.  Each component lies within 1.2e-15 of the exact
    cos and sin, about as close as one exponential per node,
    exp(2 pi i (k + shift) / m): measured against exact angles, at most
    1.05e-15 off for m up to 262,209, against 1.12e-15.
    Raises ``ValueError`` for m < 1, ``count`` outside 0..m or a shift
    that is not finite.
    """
    count = m if count is None else count
    if m < 1 or not 0 <= count <= m or not math.isfinite(shift):
        raise ValueError(f"unit_nodes needs m >= 1, 0 <= count <= m and a "
                         f"finite shift, got m={m}, count={count}, "
                         f"shift={shift}")
    b = 1 << (int(m).bit_length() // 2)
    coarse = np.exp(1j * (TWO_PI * (b * np.arange(-(-count // b))) / m))
    fine = np.exp(1j * (TWO_PI * (np.arange(b) + shift) / m))
    shape = [1] * ndim
    shape[axis] = count
    return (coarse[:, None] * fine).reshape(-1)[:count].reshape(shape)


def half_circle(m: int, shift: float = 0.0) -> tuple[int, tuple[int, ...]]:
    """The nodes k of the m-node rule shifted by ``shift`` (0 or 1/2
    steps) whose angles 2 pi (k + shift) / m lie in [0, pi]: their count,
    k = 0, ..., count - 1, and those of them at angle 0 or pi.

    The rule's nodes are symmetric under theta -> -theta at either shift,
    and a node at 0 or pi is its own mirror image.  So for an integrand
    even in theta the rule's sum is twice the sum over these nodes with
    the values at 0 and pi halved, for odd and even m alike.
    """
    count = math.floor(m / 2 - shift) + 1
    ends = tuple(k for k in sorted({0, count - 1})
                 if 2 * (k + shift) in (0, m))
    return count, ends


# Grid policy by dimension (3 stands for three or more): angular floor and
# spike scale of each axis, radial Gauss order per panel, base panel
# depth.  Tensor grids in several variables get leaner axes to keep the
# product budget workable.  The angular floor can be low: every level
# doubles every angular count and the trapezoid rule converges
# geometrically in the angle, so refine_until sees the angular error.  The
# radial order cannot: a level deepens only the rim panel, so the Gauss
# error of the inner panels never shows as a change between levels.  At
# tol 1e-6, the A^1 norm of a cubic (poly-3 of default_registry(1)) came
# out 2.2e-6 off with order 16 and converged=True, 2.7e-7 off with order
# 32 and 6.9e-8 with order 64, which is kept.  In one variable that order
# is a cap: for a declared spike s a panel of width h, at distance
# d = 1/|s| - R from the pole past the rim of the disc of radius R, takes
# max(8, ceil(2 order h / d)) points (norms._panel_orders).  On h <= d/2
# the pole lies outside the panel's Bernstein ellipse of parameter 9.9,
# and Gauss errs like 9.9^(-2n), so the rim panels narrower than the
# spike scale, whose rings carry the most angular nodes, drop to as few
# as 8 points: ||S_512 f_a||_A1 at a = 512/513 fell from 12.0M to 5.5M
# points with the same value.  The bound sees the declared pole only, not
# the zero moduli of a polynomial, where its circle mean kinks: a panel
# holding one keeps its Gauss error, as at the uniform order.  A function
# that declares no spike (None or 0.0) keeps the uniform order, and so
# does every tensor grid.  In two variables the spike scale alone holds
# each ring's error near exp(-16) ~ 1e-7, below the 1e-4 and 1e-3
# tolerances of the two-variable tables, so the base need only cover
# undeclared functions: against 128, base 64 cut the Bergman points of
# the perfbench bidisc table 336M -> 121M and its time by half.  Base 32
# was faster still, but left an untagged 1/(1 - 0.95 z1)^2 on polydisc(2)
# at tol 1e-4 unconverged within the runners' volume budget, where 64 and
# 128 converge.
_GRID = {1: (256, 64.0, 64, 6), 2: (64, 16.0, 12, 2), 3: (32, 8.0, 8, 1)}

# Points per block of torus_blocks, by the number of axes of the grid (3
# stands for three or more).  A block and the temporaries of its
# integrand should fit a 4 MiB L2 cache and stay below glibc's heap trim
# threshold, so that successive integrand calls reuse the same heap
# pages.  With one-axis blocks of 1 << 16 points the six complex
# temporaries of S_N f_a's closed form (1 MiB each) were trimmed and
# faulted back in on every call: 364k minor faults and 2.0 s per perfbench
# disc repetition, against 2k and 1.25 s at 1 << 14 (1 << 13 and 1 << 15
# were slower).  Several axes keep 1 << 16 (1 << 22 made bidisc 1.6x
# slower; 1 << 14 to 1 << 17 were within noise of each other on it), and
# a shell larger than a block is cut along its first axis like a circle:
# whole, the 1288^2-point density shells of bidisc set its peak RSS to
# 97 MiB, against 64 MiB cut.  Any value gives the same integrals bit for
# bit.  Timings on a 2-vCPU x86-64 VM.
_CHUNK = {1: 1 << 14, 2: 1 << 16, 3: 1 << 16}


def angular_floor(spike: float | np.ndarray | None,
                  dim: int = 1) -> int | np.ndarray:
    """Initial node count of an angular axis in ``dim`` variables (its
    ``_GRID`` row), raised for a declared spike.

    ``spike`` is the modulus of a pole-like parameter sitting at distance
    1 - |spike| from the unit circle; resolving the induced boundary spike
    needs on the order of 1/(1 - |spike|) angular nodes.  ``None`` and 0.0
    give the same floor, but the estimators read a tag as a declaration
    (holomorphic on |z| < 1/|spike|) and ``None`` as none.  The volume rule
    passes an array of r * |spike|, one per radial node: seen from the
    ring of radius r the spike sits at distance 1 - r |spike|, so each
    ring gets its own count (an int64 array; a scalar gives an int).
    """
    base, scale, _, _ = _GRID[min(dim, 3)]
    if spike is None:
        return base
    s = np.abs(spike)
    if not np.all(s < 1.0):
        raise ValueError(f"spike modulus must be < 1, got {np.max(s)}")
    m = np.maximum(base, np.ceil(scale / (1.0 - s)))
    return int(m) if m.ndim == 0 else m.astype(np.int64)


def dyadic_panels(depth: int) -> np.ndarray:
    """Panel boundaries 0, 1-2^-1, ..., 1-2^-depth, 1 of [0, 1]."""
    if depth < 0:
        raise ValueError(f"depth must be >= 0, got {depth}")
    return np.array([0.0] + [1.0 - 2.0 ** -k for k in range(1, depth + 1)]
                    + [1.0])


@functools.cache
def _gauss_legendre(order: int) -> tuple[np.ndarray, np.ndarray]:
    """The order-point Gauss-Legendre rule on [-1, 1], built once, read-only."""
    x, w = np.polynomial.legendre.leggauss(order)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def _panel_gauss(bounds: np.ndarray, order) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on the panels between ``bounds``,
    panel by panel: ``order`` points on each, or ``order[i]`` on panel i.
    A panel's nodes depend only on its ends and its order."""
    orders = np.broadcast_to(order, (len(bounds) - 1,))
    nodes, weights = [], []
    for lo, hi, q in zip(bounds[:-1], bounds[1:], orders.tolist()):
        x, w = _gauss_legendre(q)
        half = 0.5 * (hi - lo)
        nodes.append(half * x + 0.5 * (hi + lo))
        weights.append(half * w)
    return np.concatenate(nodes), np.concatenate(weights)


def _block_plan(rows: int, shape: Sequence[int]):
    """The blocks of :func:`torus_blocks` as (start, stop, lo, hi): rows
    start:stop of the shells and nodes lo:hi of the first axis, for
    shells of ``shape`` points (the first axis's nodes evaluated, then
    the other axes' counts).

    Whole shells are grouped in order, as many as fit in about
    ``_CHUNK[n]`` points.  A shell larger than that is cut along its
    first axis into k = ceil(size / _CHUNK[n]) near-equal pieces, with at
    least 2 nodes of that axis each (so k <= shape[0] // 2): a one-point
    array takes other rounding paths in numpy.
    """
    chunk, size = _CHUNK[min(len(shape), 3)], math.prod(shape)
    block = max(1, chunk // size)
    pieces = max(1, min(-(-size // chunk), shape[0] // 2))
    cuts = [shape[0] * i // pieces for i in range(pieces + 1)]
    for start in range(0, rows, block):
        for lo, hi in zip(cuts, cuts[1:]):
            yield start, min(start + block, rows), lo, hi


def torus_blocks(radii, angular: Sequence[int],
                 shift: Sequence[float] | None = None,
                 count: int | None = None):
    """The torus grid over the shells radii[k] * T^n, block by block.

    ``radii`` holds one radius vector per row, ``angular`` the node count
    of each of the n circle factors and ``shift`` (default none) the
    offset of each axis's nodes in steps, as in :func:`unit_nodes`;
    ``count`` (default m_1) takes only the first ``count`` nodes of the
    first axis.  The node axes are built once; each block is a list of n
    coordinate arrays that broadcast to (shells, m_1', m_2, ..., m_n):
    whole shells in order, or the pieces of a shell cut along its first
    axis, each built from a slice of that axis's nodes
    (:func:`_block_plan`).
    """
    radii = np.atleast_2d(np.asarray(radii, dtype=np.float64))
    n = radii.shape[1]
    shift = (0.0,) * n if shift is None else shift
    if len(angular) != n or len(shift) != n:
        raise ValueError("radii, angular node counts and shifts must align")
    axes = [unit_nodes(m, j + 1, n + 1, h, count if j == 0 else None)
            for j, (m, h) in enumerate(zip(angular, shift))]
    shape = (axes[0].shape[1], *angular[1:])
    for start, stop, lo, hi in _block_plan(radii.shape[0], shape):
        rows = radii[start:stop]
        yield [rows[:, j].reshape(-1, *[1] * n)
               * (axes[j][:, lo:hi] if j == 0 else axes[j])
               for j in range(n)]


# The row of a cut shell in _row_sums, kept between calls: capacity only,
# never values, grown to exactly the largest row asked for, so it holds
# no more than the largest fresh row would.  A fresh row per call is a
# large allocation that glibc maps and unmaps each time unless a larger
# freed array has raised its mmap threshold, and then its pages fault in
# again on every call: with the T1 of the perfbench circle workload on
# its half circles, the 1 MiB row of its N = 4096 ring took about 4.3k
# minor faults per repetition, against about 1 kept.  A call that finds
# the row in use, a nested integration or another thread, takes a fresh
# array.
_ROW = [np.empty(0, dtype=np.uint8)]
_ROW_LOCK = threading.Lock()


def _row_sums(blocks, shape: Sequence[int], ends=()) -> np.ndarray:
    """Per-shell sums of the integrand values of :func:`_block_plan`'s
    blocks over grids of ``shape``, given in order.  The pieces of a cut
    shell are written into one row (``_ROW``), whose one ``np.sum`` is
    the shell's, as for a whole one.  The values at the first-axis nodes
    ``ends`` are halved first, in place (:func:`half_circle`)."""
    sums = []
    row, filled, held = None, 0, False
    inner = math.prod(shape[1:])
    try:
        for vals in blocks:
            lo = filled // inner
            hit = [k - lo for k in ends if lo <= k < lo + vals.shape[1]]
            if hit:
                vals = vals if vals.flags.writeable else vals.copy()
                vals[:, hit] *= 0.5
            if vals.shape[1] == shape[0]:
                sums.append(vals.reshape(vals.shape[0], -1).sum(axis=1))
                continue
            if row is None:
                size = math.prod(shape)
                held = _ROW_LOCK.acquire(blocking=False)
                if held:
                    nbytes = size * vals.dtype.itemsize
                    if _ROW[0].size < nbytes:
                        _ROW[0] = None              # free before growing
                        _ROW[0] = np.empty(nbytes, dtype=np.uint8)
                    row = _ROW[0][:nbytes].view(vals.dtype).reshape(1, size)
                else:
                    row = np.empty((1, size), dtype=vals.dtype)
            row[:, filled:filled + vals.size] = vals.reshape(1, -1)
            filled += vals.size
            if filled == row.size:
                sums.append(row.sum(axis=1))
                filled = 0
    finally:
        if held:
            _ROW_LOCK.release()
    return np.concatenate(sums)


def _first_axis(m: int, h: float, half: bool) -> tuple[int, tuple]:
    """The nodes the rule evaluates on a first axis of m nodes shifted by
    h steps, and those it halves: :func:`half_circle`'s when ``half``,
    else all m and none."""
    return half_circle(m, h) if half else (m, ())


def _grid_sums(g: Callable, radii, angular: Sequence[int], shift,
               half: bool) -> np.ndarray:
    """Plain sums of g over the tensor grid of each shell, block by block
    (:func:`torus_blocks`), over the half circle of the first axis when
    ``half``."""
    count, ends = _first_axis(angular[0], shift[0], half)

    def blocks():
        for zs in torus_blocks(radii, angular, shift, count):
            vals = np.asarray(g(*zs))
            shape = (zs[0].shape[0], zs[0].shape[1], *angular[1:])
            yield vals if vals.shape == shape else np.broadcast_to(vals, shape)
    return _row_sums(blocks(), (count, *angular[1:]), ends)


def _circle_values(gj: Callable, r: np.ndarray, m: int, h: float,
                   count: int) -> np.ndarray:
    """The (r.size, count) values of the one-variable gj on the circles of
    radii r, at the first ``count`` of m nodes shifted by h steps,
    evaluated block by block (:func:`torus_blocks`), in the dtype gj
    returns."""
    out = None
    i = k = 0
    for (z,) in torus_blocks(r[:, None], (m,), (h,), count):
        b, w = z.shape
        v = gj(z)
        if out is None:
            out = np.empty((r.size, count), dtype=np.result_type(v))
        out[i:i + b, k:k + w] = v
        k += w
        if k == count:
            i, k = i + b, 0
    return out


def _term_sums(terms, fmap, values, index, angular: Sequence[int],
               shift, half: bool) -> np.ndarray:
    """Plain sums over the tensor grid of each shell of
    fmap(sum_k prod_j terms[k][j](z_j)), n >= 2 axes, from the per-axis
    factor values ``values[j, angular[j], shift[j], id(terms[k][j])]`` of
    the distinct radii on axis j at that count, row ``index[j]`` for each
    shell, over the half circle of the first axis when ``half``.

    Each block of :func:`_block_plan` is formed in two buffers with the
    operations of ``registry.sum_of_products``: each term's factors
    multiplied left to right, the terms added left to right; then fmap
    (none: the sum itself).  So every point's value is the one the
    callable itself gives there.
    """
    n = len(angular)
    count, ends = _first_axis(angular[0], shift[0], half)

    def blocks():
        acc = tmp = None
        for start, stop, lo, hi in _block_plan(len(index[0]),
                                               (count, *angular[1:])):
            shape = (stop - start, hi - lo, *angular[1:])
            size = math.prod(shape)
            if acc is None or acc.size < size:
                acc, tmp = (np.empty(size, dtype=np.complex128)
                            for _ in range(2))
            total, part = (b[:size].reshape(shape) for b in (acc, tmp))
            for k, term in enumerate(terms):
                v = [values[j, angular[j], shift[j], id(fj)]
                     [index[j][start:stop]] for j, fj in enumerate(term)]
                v[0] = v[0][:, lo:hi]
                # axis j's values broadcast along axis j + 1 of the block
                v = [x.reshape(stop - start, *[1] * j, -1, *[1] * (n - 1 - j))
                     for j, x in enumerate(v)]
                prod = v[0]
                for x in v[1:-1]:
                    prod = prod * x
                np.multiply(prod, v[-1], out=part if k else total)
                if k:
                    np.add(total, part, out=total)
            yield total if fmap is None else fmap(total)
    return _row_sums(blocks(), (count, *angular[1:]), ends)


def _axis_terms(g: Callable, n: int) -> tuple[tuple | None, bool]:
    """How g is integrated: on n >= 2 axes the one-variable factors
    terms[k] = (t_k1, ..., t_kn) when g(z) = map(sum_k prod_j t_kj(z_j))
    with g's own elementwise ``map`` (none: the sum itself), one term for
    a product, else ``None``, the tensor grid (on one axis, the circle);
    and whether the tensor grid or the several terms take the half circle
    of the first axis, when g is flagged ``conj_even``, g(conj z) = g(z).
    This is the one choice between the paths.  It is read from g's own
    ``terms``, ``map`` and ``conj_even`` and nowhere else, so a wrapper
    that does not pass them on takes the full tensor grid."""
    terms = getattr(g, "terms", None) if n > 1 else None
    for t in terms or ():
        if len(t) != n:
            raise ValueError(f"an integrand on {n} axes has {len(t)} "
                             f"factors")
    half = bool(getattr(g, "conj_even", False)
                and (terms is None or len(terms) > 1))
    return terms, half


def _shell_groups(radii, angular, shifts):
    """The shells of :func:`torus_cosets` grouped by their node counts.

    ``angular`` holds the node count of each axis: an int for every shell
    or an array with one count per shell.  Returns the (rows, n) radii and
    the groups as (counts, rows): a tuple of n ints and the indices of the
    shells that have them, in order.
    """
    radii = np.atleast_2d(np.asarray(radii, dtype=np.float64))
    rows, n = radii.shape
    if len(angular) != n or any(len(s) != n for s in shifts):
        raise ValueError("radii, angular node counts and shifts must align")
    if all(np.ndim(m) == 0 for m in angular):
        # one count vector: no sort, which would dwarf a one-shell call
        ms = tuple(int(m) for m in angular)
        return radii, [(ms, np.arange(rows))] if rows else []
    counts = np.empty((rows, n), dtype=np.int64)
    for j, m in enumerate(angular):
        counts[:, j] = m
    distinct, group = np.unique(counts, axis=0, return_inverse=True)
    group = group.reshape(-1)
    members = np.split(np.argsort(group, kind="stable"),
                       np.cumsum(np.bincount(group))[:-1])
    return radii, list(zip(map(tuple, distinct.tolist()), members))


def _rings(radii, groups) -> tuple[dict, np.ndarray]:
    """The distinct rings of each axis: for axis j and count m, the sorted
    distinct radii of the shells with count m on axis j (from the groups
    of :func:`_shell_groups`), keyed (j, m), and each shell's row among
    them (an (n, rows) array)."""
    rings, index = {}, np.empty(radii.shape[::-1], dtype=np.intp)
    for j in range(radii.shape[1]):
        shells = {}
        for ms, rows in groups:
            shells.setdefault(ms[j], []).append(rows)
        for m, parts in shells.items():
            sel = np.concatenate(parts)
            rings[j, m], index[j, sel] = np.unique(radii[sel, j],
                                                   return_inverse=True)
    return rings, index


def _points(terms, half, shifts, groups, rings) -> int:
    """The points :func:`torus_cosets` evaluates g at, from its groups of
    shells (:func:`_shell_groups`) and, for a product, its distinct rings
    (:func:`_rings`): prod_j m_j per shell and shift on the tensor grid,
    where a sum of several products also forms its values, with the first
    axis's half circle in place of m_1 for an integrand flagged
    ``conj_even``; for a product m per distinct radius, count m and
    distinct shift on axis j."""
    if terms is None or len(terms) > 1:
        return sum(rows.size * math.prod(ms[1:])
                   * sum(_first_axis(ms[0], s[0], half)[0] for s in shifts)
                   for ms, rows in groups)
    return sum(r.size * m * len({s[j] for s in shifts})
               for (j, m), r in rings.items())


def torus_cosets(g: Callable, radii, angular: Sequence,
                 shifts: Sequence[Sequence[float]]) -> tuple[list, int]:
    """Unnormalized trapezoid integrals of g over the shells radii[k] * T^n,
    one array per shift in ``shifts``, and the points evaluated.

    ``angular`` holds the node count of each of the n axes, an int for
    every shell or an array with one count per shell; the shells are
    grouped by their counts (:func:`_shell_groups`).  A shift gives the
    offset of each axis's nodes in steps, as in :func:`unit_nodes`.  The
    integrand is called as ``g(z1, ..., zn)``.  Each integral
    approximates the d theta_1 ... d theta_n integral with total mass
    (2pi)^n, no normalization.  The path is chosen by
    :func:`_axis_terms`.  An integrand with ``terms`` evaluates each
    distinct factor once per axis, distinct radius, count and shift
    (:func:`_circle_values`), into one table that every group of the
    call reads.  One term, a product, is summed factor by factor: the
    tensor trapezoid sum of a product is the product of the per-axis
    circle sums, and ``map`` (|.|^p or none) commutes with the product,
    so each shell's integral is prod_j of map(values_j) summed over its
    circle.  Several terms form their values on the tensor grid from the
    factor values (:func:`_term_sums`).  Any other integrand is evaluated
    on the tensor grid (:func:`torus_blocks`).  An integrand flagged
    ``conj_even`` on either tensor path is evaluated only where the first
    axis's angle lies in [0, pi] (:func:`half_circle`): each shell's sum,
    with the values at 0 and pi halved, is doubled, which is exact.
    Every shell is summed alone, so neither the block size nor the
    grouping moves a value.  The points are counted from the groups and
    the table (:func:`_points`): a product reports each ring of the table
    once, however many groups read it.  Zero shells give empty arrays and
    0 points.
    """
    radii, groups = _shell_groups(radii, angular, shifts)
    terms, half = _axis_terms(g, radii.shape[1])
    fmap = getattr(g, "map", None)
    rings = None
    if terms is None:
        def part(ms, rows, s):
            return _grid_sums(g, radii[rows], ms, s, half)
    else:
        rings, index = _rings(radii, groups)
        values = {}
        for (j, m), r in rings.items():
            for h in {s[j] for s in shifts}:
                count = _first_axis(m, h, half)[0] if j == 0 else m
                for fj in {id(term[j]): term[j] for term in terms}.values():
                    values[j, m, h, id(fj)] = _circle_values(fj, r, m, h,
                                                             count)
        if len(terms) > 1:
            def part(ms, rows, s):
                return _term_sums(terms, fmap, values,
                                  [ix[rows] for ix in index], ms, s, half)
        else:
            sums = {key: (v if fmap is None else fmap(v)).sum(axis=1)
                    for key, v in values.items()}

            def part(ms, rows, s):
                return math.prod(sums[j, m, h, id(fj)][index[j][rows]]
                                 for j, (m, h, fj)
                                 in enumerate(zip(ms, s, terms[0])))
    out = []
    for s in shifts:
        parts = [part(ms, rows, s) * (math.prod(TWO_PI / m for m in ms)
                                      * (2.0 if half else 1.0))
                 for ms, rows in groups]
        vals = np.empty(radii.shape[0], dtype=np.result_type(np.float64,
                                                             *parts))
        for (_, rows), v in zip(groups, parts):
            vals[rows] = v
        out.append(vals)
    return out, _points(terms, half, shifts, groups, rings)


def torus_points(g: Callable, radii, angular: Sequence,
                 shifts: Sequence[Sequence[float]]) -> int:
    """The points :func:`torus_cosets` reports for the same arguments,
    counted without evaluating g (:func:`_points`)."""
    radii, groups = _shell_groups(radii, angular, shifts)
    terms, half = _axis_terms(g, radii.shape[1])
    rings = None if terms is None or len(terms) > 1 else \
        _rings(radii, groups)[0]
    return _points(terms, half, shifts, groups, rings)


def torus_integrals(g: Callable, radii, angular: Sequence[int],
                    shift: Sequence[float] | None = None) -> np.ndarray:
    """The :func:`torus_cosets` integrals of g at one shift (default
    none)."""
    n = len(angular)
    (values,), _ = torus_cosets(g, radii, angular,
                                [(0.0,) * n if shift is None else shift])
    return values


def half_shifts(n: int) -> list[tuple]:
    """The shifts of the 2^n - 1 cosets that double an n-axis trapezoid
    rule: half a step on each axis of a nonempty set, in mask order."""
    return [tuple(0.5 * (mask >> j & 1) for j in range(n))
            for mask in range(1, 1 << n)]


def doubled(rule: Callable[[list], tuple], n: int, prev):
    """One nested doubling of an n-axis trapezoid rule.

    ``prev`` is the rule's value at some node counts; ``rule(shifts)``
    returns ``(values, points)``: one value per shift, at the same counts
    with the nodes of axis j moved by shift[j] steps, and the points
    evaluated for all of them.  Returns ``(value, points)`` at twice every
    count: the mean of ``prev`` and the 2^n - 1 cosets of
    :func:`half_shifts`, which together hold the nodes of the doubled
    grid, and the points the cosets evaluated.  The rule may be normalized
    or not, as long as each coset is weighted like ``prev``.
    """
    values, points = rule(half_shifts(n))
    acc = prev
    for value in values:
        acc = acc + value
    return acc / (1 << n), points


def nested_levels(rule: Callable[[int, list], tuple], n: int) -> Callable:
    """A :func:`refine_until` integrator that doubles an n-axis trapezoid
    rule per level by :func:`doubled`.

    ``rule(level, shifts)`` returns ``(values, points)``: one value per
    shift at the node counts of ``level``, the nodes of axis j moved by
    shift[j] steps, and the points evaluated.  Level 0 is the unshifted
    rule; level L reuses level L-1's value and evaluates only the
    half-shifted cosets at level L-1's counts.  Each level returns its
    value and the points it evaluated.
    """
    last = []

    def level_fn(level):
        if level == 0:
            (value,), points = rule(0, [(0.0,) * n])
        else:
            value, points = doubled(lambda shifts: rule(level - 1, shifts), n,
                                    last.pop())
        last.append(value)
        return value, (points,)
    return level_fn


def torus_levels(g: Callable, radii, floors: Sequence[int]) -> Callable:
    """:func:`nested_levels` over torus shells: level L integrates g over
    the shells ``radii`` at the node counts ``floors << L``
    (:func:`torus_cosets`)."""
    return nested_levels(
        lambda level, shifts: torus_cosets(g, radii,
                                           [m << level for m in floors],
                                           shifts),
        len(floors))


@dataclass
class RefinementReport:
    """Outcome of a doubling refinement."""

    value: complex
    node_counts: tuple[int, ...]
    rel_change: float
    converged: bool
    levels: int


@dataclass(frozen=True)
class NormEstimate:
    """A refined number, a norm or I_c, and the report behind it."""

    value: float
    report: RefinementReport
    # always (1.0,); kept because perfbench/tracer.py:149 reads len(ladder)
    ladder = (1.0,)

    @property
    def converged(self) -> bool:
        return self.report.converged


def _max_abs(x) -> float:
    return abs(x) if isinstance(x, complex) else float(np.max(np.abs(x)))


def refine_until(integrator: Callable[[int], tuple[complex, Sequence[int]]],
                 tol: float, cap: int = 1 << 20,
                 floor: float = 0.0) -> RefinementReport:
    """Refine by doubling until successive values agree to ``tol`` (relative).

    ``integrator(level)`` evaluates the quantity at refinement level
    ``level`` (level k doubles the node counts of level k-1) and returns
    ``(value, node_counts)``.  The product of the node counts is the
    number of integrand points the level evaluated: a nested level that
    reuses the previous level's value counts only its new points.  The
    levels are called in order, so an integrator may carry state from one
    level to the next.  The value is a complex scalar or an array;
    successive values are compared in max-norm, relative to the newer one.
    A change of at most ``floor`` also counts as agreement: an absolute
    roundoff level, below which a value that vanishes cannot settle in
    relative terms.  Stops with ``converged=False`` when one level's
    points reach the budget ``cap``, level 0 included, or a value comes
    back non-finite.
    """
    prev = None
    rel = np.inf
    for level in range(_MAX_LEVELS + 1):
        value, nodes = integrator(level)
        nodes = tuple(int(m) for m in nodes)
        value = complex(value) if np.ndim(value) == 0 \
            else np.asarray(value, dtype=np.complex128)
        if not np.all(np.isfinite(value)):
            return RefinementReport(value, nodes, np.inf, False, level)
        if prev is not None:
            diff = _max_abs(value - prev)
            rel = 0.0 if diff == 0.0 else diff / max(_max_abs(value), 1e-300)
            if rel <= tol or diff <= floor:
                return RefinementReport(value, nodes, rel, True, level)
        if math.prod(nodes) >= cap:
            return RefinementReport(value, nodes, rel, False, level)
        prev = value
    return RefinementReport(prev, nodes, rel, False, _MAX_LEVELS)
