"""Weighted sequence and continuous norms on needlet coefficients, the
cube-averaged maximal operator, Laguerre multipliers, and the measurement
reports backing the norm-equivalence and Nikolskii-type diagnostics.

Every norm here is one of two mixed norms of a family of level functions
g_j: the Triebel-Lizorkin L^p(l^q) norm (``_F_reduce``) or the Besov
l^q(L^p) norm (``_B_reduce``).  The sequence norms apply them to the needlet
level functions sum_xi W(4^j; xi)^(-rho/d) |h_xi| |R_xi|^(-1/2) 1_(R_xi);
the continuous norms apply them to the weighted band parts
W(4^j; x)^(-rho/d) |f_j(x)|.

The sequence F-norm is integrated exactly: tiles are tensor products of
per-axis intervals, so the union of all level breakpoints induces a cell
arrangement on which every level function is constant, and the cell
measures have closed forms.  The sequence B-norm sums over the tiles of
each level directly.  The continuous norms are controlled approximations:
band parts of the function are evaluated on a finer cubature grid, axis by
axis (per-axis Laguerre tables, each scaled by its axis's factor of
W(4^j; x)^(-rho/d), contracted with the band's coefficient block), and the
outer integral folds the values, kept in their (n,)*d shape, with that
grid's per-axis cubature weights (the absolute value breaks polynomial
exactness, which is documented behavior).  The levels run, whatever J is,
until the filter's first degree passes f's degree, each on the per-axis
degree rows its filter reaches (``needlets._band_rows``, as in ``analyze``).
The sequence norms fold per-axis cell or tile measures the same way.

Every norm is positively homogeneous, so each puts 2^(-shift), shift the
binary exponent of its largest coefficient, on a factor of its own and
multiplies the result back by 2^shift: the sequence norms on the first
axis's amplitude factor, the continuous norms on each band's filtered
coefficient block, a fresh copy, so that no table entry is scaled, or
flushed, by f's size.  The sequence norms also multiply back by the power of
two the coefficients carry (``NeedletCoeffs._exp``).  No copy of the input
is made, and its scale does not decide which values underflow: 2^e f has
exactly 2^e times the norms of f, sequence norms of its ``analyze`` output
included, even at e = +-1000.  Powers of two commute with rounding, so away
from under- and overflow this equals dividing the input by 2^shift.

The continuous norms work in a scaled domain.  A band part decays like
e^(-x^2/2), so its values at far nodes, and the products that form them,
lie near or below the normal range, where products and pow are slow.  Each
column k of an axis's Laguerre table (node k, all degrees) is divided by
2^(e_k), e_k the binary exponent of its largest entry, which is exact and
independent of the level, so each level's values at node (k_1, .., k_d)
come out divided by 2^(e_k1 + .. + e_kd) and the pointwise l_q over levels
stays in one scale.  The integral carries the factor back as per-axis
weights c_k 2^(p e_k), flushed to normal-or-zero; at p = inf the max
applies 2^(e_k) axis by axis.  A node is live if its table column is not
all zero and, for p < inf, its scaled weight is at least the smallest
normal float (2.2e-308); every other node is cut from the tables before
any level is formed.  This is the contract ``_normal_pow`` keeps: a term
below 2.2e-308 contributes 0.

Band parts are localised, so most live nodes add next to nothing: the levels
are formed only on a box of them, the first K_ax nodes of each axis, chosen
from a separable bound of the integrand (``_Bands``).  A certificate taken
after the sums shows that what the box leaves out is at most 2^-56 of what
it keeps or, at p = inf, that no node outside it can raise a level's max,
which is then exact; a norm whose box is not certified runs again on every
live node.  For a degree-16 f on the J = 3, d = 2 level-4 grid the box keeps
209 to 245 of the 443 to 577 live nodes per axis at p from 1.5 to 3, and 346
of 682 at p = 0.5.

Every power of a level function goes through ``_normal_pow``: a value whose
power would fall below the smallest normal float counts as 0, and pow is
slow on such values; the norms differ from plain powers only by those
terms.  Both reductions raise each level in place, and the F reduction
accumulates them in place, so for a real function a continuous norm holds
at most two level arrays: about 2.1 K^d floats at its peak, masks and
fold intermediates included, K^d the box's nodes (about 4.1 for a complex
function, whose values are folded as complex).  For a degree-16 f on the
835^2-point level-4 grid that is 0.13 (p = 3) to 0.37 (p < 1) grid-sized
arrays, 0.25 to 0.71 for a complex f.

A norm call does only the work that depends on its input.  What does not is
kept read-only in the package's cache registry (``special._cached``), keyed
by values and never by a ``NeedletSystem``, so no entry keeps a system alive:
per integration grid and degree of f, the live abscissae, cubature
coefficients, scaled Laguerre tables and exponents of ``_scaled_axes``; per
integration grid, degree of f, p, rho and the levels' band rows, the plan of
a continuous norm (``_Bands``), which holds the live axes' tables, weights
and exponents at that p, each band's weight factors, the tails and the box,
and each band's flushed, scaled matrices on the box (its views of the cached
tables and exponents are not charged to it again); per set of level grids,
the cell measures of ``f_norm_seq``'s cell arrangement and per level and
axis the cells in each tile.  So a continuous norm forms only the filtered
coefficient blocks, their sizes C_j, the folds and the reductions, and
``f_norm_seq`` repeats each raised level box over the cells of its tiles
into the leading block of the sum that they cover.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .special import (as_alpha, laguerre_fn_batch, _cached, _coeff_shift, _flush_subnormal,
                      _fold, _fold_sum, _ldexp, _outer, _TINY)
from .quadrature import cubature_grid, gauss_laguerre, _axis_W, _interval_measures
from .kernels import _filter_band, _filter_degrees, _level_scale
from .needlets import (CoeffFn, NeedletCoeffs, NeedletSystem, analyze, total_degree_grid,
                       _band_rows, _system_levels)

__all__ = [
    "NormParams",
    "PiecewiseCellFn",
    "f_norm_seq",
    "b_norm_seq",
    "F_norm_cont",
    "B_norm_cont",
    "seminorm_P_star",
    "multiplier_apply",
    "maximal_fn",
    "nikolskii_report",
    "equivalence_report",
    "make_test_corpus",
]


@dataclass(frozen=True)
class NormParams:
    """Smoothness s, weight exponent rho, integrability p, summability q."""

    s: float
    rho: float
    p: float
    q: float

    def __post_init__(self):
        if not (self.p > 0.0 and self.q > 0.0):  # False at NaN
            raise ValueError("p and q must be positive")
        if not (math.isfinite(self.s) and math.isfinite(self.rho)):
            raise ValueError("s and rho must be finite")

    def require_F(self):
        if self.p_inf:
            raise ValueError("F-norms require p < infinity")

    @property
    def p_inf(self) -> bool:
        return math.isinf(self.p)

    @property
    def q_inf(self) -> bool:
        return math.isinf(self.q)


def _normal_pow(x: np.ndarray, p: float, out: np.ndarray | None = None) -> np.ndarray:
    """x ** p of a nonnegative float array x, with 0 wherever the result would
    fall below the normal range (x ** p < tiny); x itself at p = 1.

    ``out`` is None, for a new array, or x, to raise x in place.  Band parts
    decay like e^(-x^2/2), so most of a level's values may lie far below
    tiny^(1/p), and pow takes a slow path for each of them (and for 0) that
    costs more than ten normal powers.  So they are raised as 1 and set to 0
    after; at p = 2 they are set to 0 first and x * x, which equals numpy's
    x ** 2, raises every value.
    """
    if p == 1.0:
        return x
    drop = x < _pow_floor(p)  # False at NaN, which propagates
    out = x.copy() if out is None else out
    if p == 2.0:
        np.copyto(out, 0.0, where=drop)
        return np.square(out, out=out)
    np.copyto(out, 1.0, where=drop)
    np.power(out, p, out=out)
    np.copyto(out, 0.0, where=drop)
    return out


def _pow_floor(p: float) -> float:
    """The least float x with x ** p >= tiny under numpy's power, which
    _normal_pow uses; tiny ** (1/p) misses it by up to a few hundred ulps,
    since 1/p is rounded.  Kept in the registry: the search takes up to 0.5 ms."""
    def make():
        x = np.array([_TINY ** (1.0 / p)])
        while np.power(x, p)[0] < _TINY:
            x = np.nextafter(x, np.inf)
        while (below := np.nextafter(x, 0.0)) > 0.0 and np.power(below, p)[0] >= _TINY:
            x = below
        return float(x[0])

    return _cached(("pow-floor", p), make)


def _lp(vals: np.ndarray, weights, p: float) -> float:
    """(sum w * vals^p)^(1/p) of nonnegative vals, w the tensor product of the
    per-axis ``weights``; their max at p = inf, 0 when empty.  For p < inf,
    vals is raised to p in place: the caller's values are overwritten."""
    if math.isinf(p):
        return float(np.max(vals, initial=0.0))
    return _fold_sum(_normal_pow(vals, p, out=vals), weights) ** (1.0 / p)


def _F_reduce(levels, weights, params: NormParams, onto=None) -> float:
    """The p-th power of the L^p(l_q) norm: the integral against ``weights`` of the
    pointwise l_q over (j, g_j) of 2^(sj) g_j, raised to p.

    Each g_j is scaled, raised to q and added into the first level in place, so at
    most two level arrays are alive at once; the g_j are overwritten.  With
    ``onto``, the sum starts from zeros on the points the weights belong to, and
    ``onto(j, g)`` is g on the leading block of them that it covers, where it is
    added; the points past that block get 0 from level j.
    """
    acc = None if onto is None else np.zeros(tuple(len(w) for w in weights))
    for j, g in levels:
        if params.s * j != 0.0:
            g *= 2.0 ** (params.s * j)
        if not params.q_inf:
            _normal_pow(g, params.q, out=g)
        if onto is not None:
            g = onto(j, g)
            into = acc[tuple(slice(0, k) for k in g.shape)]
        elif acc is None:
            acc = g
            continue
        else:
            into = acc
        if params.q_inf:
            np.maximum(into, g, out=into)
        else:
            into += g
        del g, into  # free this level before the next is computed
    integrand = _normal_pow(acc, params.p if params.q_inf else params.p / params.q, out=acc)
    return _fold_sum(integrand, weights)


def _B_reduce(levels, params: NormParams) -> float:
    """l_q(L^p) norm: the l_q over (j, n_j) of 2^(sj) n_j, n_j = ||g_j||_(L^p)."""
    terms = np.array([2.0 ** (params.s * j) * n for j, n in levels])
    return _lp(terms, [np.ones(len(terms))], params.q)


def _axis_weight_factors(axis_xi, alpha, j: int, rho: float):
    """Per-axis factors of W(4^j; xi)^(-rho/d) over per-axis abscissae."""
    return [_axis_W(4.0 ** j, a, xi) ** (-rho / len(axis_xi)) for xi, a in zip(axis_xi, alpha)]


def _level_amplitudes(system: NeedletSystem, j: int, h: np.ndarray, rho: float,
                      shift: int) -> np.ndarray:
    """2^(-shift) |h| * W(4^j; xi)^(-rho/d) * mu(R_xi)^(-1/2) on the leading nodes of
    the level grid that the box h covers; the power of two rides on the first axis's
    factor."""
    g = system.grids[j]
    factors = [(w * m ** -0.5)[:k] for w, m, k in
               zip(_axis_weight_factors(g.axis_xi, g.alpha, j, rho), g.axis_tile_measure, h.shape)]
    factors[0] = np.ldexp(factors[0], -shift)
    return np.abs(h) * _outer(factors)


def _arrangement(system: NeedletSystem):
    """Per-axis measures of the cells cut out by all level breakpoints, and per
    level, per axis, the number of cells in each tile: every level's breaks are
    among the cells' breaks and start at 0, so tile k of a level is a run of
    consecutive cells, and the cells past its last tile are the last ones.  Kept
    read-only in the registry keyed by the grids' parameters."""
    grids = system.grids

    def make():
        breaks = []
        for ax in range(system.d):
            # np.unique's steps, without its first-call load of numpy.ma
            b = np.sort(np.concatenate([g.axis_breaks[ax] for g in grids]))
            breaks.append(b[np.append(True, b[1:] != b[:-1])])
        cell_meas = tuple(_interval_measures(b, a) for b, a in zip(breaks, system.alpha))
        tile_cells = tuple(tuple(np.diff(np.searchsorted(b, gb)) for gb, b in
                                 zip(g.axis_breaks, breaks)) for g in grids)
        return cell_meas, tile_cells

    return _cached(("cells", system.alpha, system.delta, system.c_star,
                    tuple(g.right_extension for g in grids)), make)


def _on_cells(vals: np.ndarray, tile_cells) -> np.ndarray:
    """Values on a box of a level, taken onto the leading block of cells that the
    box's tiles cover: each tile's value repeated along each axis over its cells,
    ``tile_cells[ax]`` per tile.  The cells past the box read 0 and are not formed."""
    for ax, counts in enumerate(tile_cells):
        vals = np.repeat(vals, counts[: vals.shape[ax]], axis=ax)
    return vals


def f_norm_seq(coeffs: NeedletCoeffs, params: NormParams, system: NeedletSystem) -> float:
    """Sequence Triebel-Lizorkin norm, integrated exactly over the cell arrangement.
    Each level is scaled and raised on its box, before it is taken onto the cells."""
    params.require_F()
    boxes = _system_levels(coeffs, system)
    shift = _coeff_shift(boxes)
    cell_meas, tile_cells = _arrangement(system)
    total = _F_reduce(((j, _level_amplitudes(system, j, h, params.rho, shift))
                       for j, h in enumerate(boxes)), cell_meas, params,
                      lambda j, g: _on_cells(g, tile_cells[j]))
    return math.ldexp(total ** (1.0 / params.p), shift + coeffs._exp)


def b_norm_seq(coeffs: NeedletCoeffs, params: NormParams, system: NeedletSystem) -> float:
    """Sequence Besov norm: inner l_p over nodes against the tile measures, outer
    l_q over levels."""
    boxes = _system_levels(coeffs, system)
    shift = _coeff_shift(boxes)
    norm = _B_reduce(((j, _lp(_level_amplitudes(system, j, h, params.rho, shift),
                              [m[:k] for m, k in zip(g.axis_tile_measure, h.shape)], params.p))
                      for j, (h, g) in enumerate(zip(boxes, system.grids))), params)
    return math.ldexp(norm, shift + coeffs._exp)


_BOX_TAIL = 2.0 ** -88  # the share of each axis's bound (its sum, its max at p = inf) a box leaves out
_BOX_CERT = 2.0 ** -56  # the most a box may leave out, relative to what it keeps


def _scaled_axes(f: CoeffFn, p: float, system: NeedletSystem, integration_level: int):
    """Per-axis lists over the live nodes of the level ``integration_level``
    cubature grid, which must exceed the system level J: the abscissae, the
    Laguerre tables with column k scaled by 2^(-e_k), the weights c_k 2^(p e_k)
    (None at p = inf) and the exponents e_k.

    e_k is the binary exponent of column k's largest |entry|, so every scaled
    column peaks in [0.5, 1) whatever the level.  A node is live when its
    column is not all zero and, for p < inf, its scaled weight is normal.  The
    weight is ldexp(c_k 2^(p e_k - m), m) with m = floor(p e_k): neither
    factor over- or underflows, and for integer p e_k it is exact.  What does
    not depend on p, the abscissae, cubature coefficients, scaled tables and
    exponents of the nodes with a nonzero column, is kept read-only in the
    registry keyed by the grid's parameters and f's degree; only the weights
    are formed per call.
    """
    if integration_level <= system.J:
        raise ValueError("integration level must exceed the system level J")
    args = (integration_level, system.d, system.alpha, system.delta, system.c_star)

    def make():
        axes = []
        grid = cubature_grid(*args)
        for a, xi, c in zip(grid.alpha, grid.axis_xi, grid.axis_c):
            table = laguerre_fn_batch(f.max_degree, a, xi, "F")
            peak = np.max(np.abs(table), axis=0)
            e = np.frexp(peak)[1]
            live = peak > 0.0
            axes.append((xi[live], c[live], np.ldexp(table[:, live], -e[live]), e[live]))
        return tuple(axes)

    xis, tables, weights, exps = [], [], [], []
    for xi, c, table, e in _cached(("norm-axes",) + args + (f.max_degree,), make):
        if math.isinf(p):
            weights.append(None)
        else:
            m = np.floor(p * e)
            w = _flush_subnormal(np.ldexp(c * np.exp2(p * e - m), m.astype(np.int64)))
            k = np.count_nonzero(w)
            if k < len(w):  # cut the nodes whose weight underflows: views if they end the axis
                live = slice(0, k) if w[:k].all() else w > 0.0
                xi, table, e, w = xi[live], table[:, live], e[live], w[live]
            weights.append(w)
        xis.append(xi)
        tables.append(table)
        exps.append(e)
    return xis, tables, weights, exps


def _band_rows_of(f: CoeffFn, cut) -> tuple:
    """(j, r0, r1 + 1) for every level that meets f, until the filter's first degree
    passes f's degree, each with the ``_band_rows`` r0..r1 of its filter."""
    bands = []
    for j in itertools.count():
        if _filter_band(cut, _level_scale(j))[0] > f.max_degree:
            return tuple(bands)
        rows = _band_rows(f.d, cut, j, f.max_degree)
        if rows is not None:
            bands.append((j, rows.start, rows.stop))


class _Bands:
    """The weighted band parts g_j = 2^(-shift) W(4^j; x)^(-rho/d) |f_j(x)| of f on
    the live nodes of ``_scaled_axes``, each formed on demand on a box of them, in the
    scaled domain: the value at node (k_1, .., k_d) is divided by 2^(e_k1 + .. + e_kd).

    The levels run until the filter's first degree passes f's degree.  Band part f_j
    is formed exactly in coefficient space, as its block on the ``_band_rows`` times
    2^(-shift) (a fresh copy, scaled in place), and its values come from folding that
    block into the same rows of the per-axis scaled tables, each scaled by its axis's
    factor of the weight, so no table and no weight is built at the n^d points.  A one-entry block (the degree-0 band) is an outer
    product, formed without a GEMM.

    The box.  A scaled table entry is below 1, so |g_j| <= C_j prod_ax U_ax[k_ax],
    with C_j the l_1 norm of the scaled block and U_ax the largest axis factor of
    the weight over the levels.  Per axis, v = w U^p (for p < inf; v = U 2^e at
    p = inf) bounds what a node can add to an integral (to a max), and the box
    keeps on each axis the nodes before the tail whose sum (max) is at most
    _BOX_TAIL of the axis's total.  A node outside the box is in some axis's tail,
    so what the box leaves out is at most C_j^p times ``outside(box)``, the sum
    (max) over axes of that tail times the other axes' totals.

    The plan.  None of this but the blocks and C_j depends on f's coefficients, so
    the rest is a plan, kept read-only in the registry (``_norm_plan``) keyed
    by the integration grid's arguments, f's degree, p, rho and the levels' band
    rows: the live axes' scaled tables, weights and exponents, each band's weight
    factors, the tails and the box, and each band's flushed, scaled matrices on
    the box.  A call forms only the filtered blocks, C_j, the folds and the
    reductions; the matrices of any other box (every live node, when the box is
    not certified) are formed per call and not kept.
    """

    def __init__(self, f: CoeffFn, params: NormParams, system: NeedletSystem,
                 integration_level: int):
        cut = system.pair.a_hat
        self.bands = _band_rows_of(f, cut)
        (self.tables, self.weights, self.exps, self.facs, self.tails, self.box,
         self._box_mats) = _norm_plan(self.bands, f, params, system, integration_level)
        self.shift = _coeff_shift([f.coeffs])
        self.js, self.blocks = [j for j, _, _ in self.bands], []
        for j, r0, r1 in self.bands:
            block = _filter_degrees(f.coeffs[(slice(r0, r1),) * f.d], cut, _level_scale(j),
                                    corner=f.d * r0)
            self.blocks.append(_ldexp(block, -self.shift, out=block))
        self.C = np.array([np.sum(np.abs(block)) for block in self.blocks])
        self.p_inf = params.p_inf
        self.live = tuple(t.shape[1] for t in self.tables)

    def outside(self, box) -> float:
        """The sum (max at p = inf) over axes of the tail past the box times the
        other axes' totals: bounds what the box leaves out, per unit C_j^p (C_j)."""
        terms = [math.prod(t[k if ax == bx else 0] for bx, t in enumerate(self.tails))
                 for ax, k in enumerate(box)]
        return max(terms) if self.p_inf else math.fsum(terms)

    def levels(self, box):
        """Yield (j, g_j on the box of the first box[ax] live nodes per axis)."""
        for (j, r0, r1), block, facs, mats in zip(self.bands, self.blocks, self.facs,
                                                  self._box_mats):
            if box != self.box:  # another box's matrices are formed per call, not kept
                mats = _band_mats(self.tables, slice(r0, r1), facs, box)
            if block.size == 1:  # signed zeros may differ from the GEMM's; |.| drops them
                vals = _outer([block.reshape(1) * mats[0][0]] + [m[0] for m in mats[1:]])
            else:
                vals = _fold(block, mats)
            yield j, np.abs(vals) if np.iscomplexobj(vals) else np.abs(vals, out=vals)
            del vals  # the caller owns the level now; keep no second reference to it


def _band_mats(tables, rows, facs, box) -> tuple:
    """A band's per-axis matrices on a box: its rows of the scaled tables on the first
    box[ax] nodes, times the axis's weight factor, flushed."""
    return tuple(_flush_subnormal(t[rows, :k] * w[:k]) for t, w, k in zip(tables, facs, box))


def _norm_plan(bands, f: CoeffFn, params: NormParams, system: NeedletSystem,
               integration_level: int):
    """The plan of ``_Bands`` for levels with the band rows ``bands``: per axis the
    live scaled tables, weights (None at p = inf) and exponents; per band the axis
    factors of W(4^j; x)^(-rho/d); per axis the tails; the box; per band the
    matrices on the box."""

    def make():
        xis, tables, weights, exps = _scaled_axes(f, params.p, system, integration_level)
        facs = tuple(tuple(_axis_weight_factors(xis, system.alpha, j, params.rho))
                     for j, _, _ in bands)
        tails = []
        for ax, (w, e) in enumerate(zip(weights, exps)):
            U = np.max([fac[ax] for fac in facs], axis=0)
            if params.p_inf:
                tail = np.maximum.accumulate(np.ldexp(U, e)[::-1])[::-1]
            else:
                tail = np.cumsum((w * U ** params.p)[::-1])[::-1]
            tails.append(np.append(tail, 0.0))  # tail[k]: nodes k.. of the axis
        box = tuple(int(np.count_nonzero(t > _BOX_TAIL * t[0])) for t in tails)
        mats = tuple(_band_mats(tables, slice(r0, r1), fac, box)
                     for (_, r0, r1), fac in zip(bands, facs))
        return tuple(tables), tuple(weights), tuple(exps), facs, tuple(tails), box, mats

    if integration_level <= system.J:  # the key holds the grid's arguments, not J
        raise ValueError("integration level must exceed the system level J")
    return _cached(("norm-plan", integration_level, system.d, system.alpha, system.delta,
                    system.c_star, f.max_degree, params.p, params.rho, bands), make)


def _scaled_max(g: np.ndarray, exps) -> float:
    """max over nodes of g * 2^(e_k1 + .. + e_kd), one axis at a time from the
    last: each ldexp along an axis is followed by a max over it."""
    for e in reversed(exps):
        g = np.max(np.ldexp(g, e, out=g), axis=-1, initial=0.0)
    return float(g)


def F_norm_cont(f: CoeffFn, params: NormParams, system: NeedletSystem,
                integration_level: int) -> float:
    """Continuous Triebel-Lizorkin norm on a finer cubature grid.

    Band parts are formed exactly in coefficient space; the pointwise
    l_q-combination and the outer L^p integral use the level
    ``integration_level`` cubature, which must exceed the system level J.
    The integral is taken on the box of ``_Bands``, and again on every live
    node unless C^p ``outside(box)``, C the l_q combination of the 2^(sj) C_j,
    is at most _BOX_CERT of it.
    """
    params.require_F()
    bands = _Bands(f, params, system, integration_level)
    c = 2.0 ** (params.s * np.array(bands.js)) * bands.C
    c_p = np.max(c) ** params.p if params.q_inf else np.sum(c ** params.q) ** (params.p / params.q)
    for box in (bands.box, bands.live):
        total = _F_reduce(bands.levels(box), [w[:k] for w, k in zip(bands.weights, box)], params)
        if c_p * bands.outside(box) <= _BOX_CERT * total:
            break
    return math.ldexp(total ** (1.0 / params.p), bands.shift)


def B_norm_cont(f: CoeffFn, params: NormParams, system: NeedletSystem,
                integration_level: int) -> float:
    """Continuous Besov norm; as F_norm_cont with the l_q outside the L^p.

    Each level's norm n_j is taken on the box of ``_Bands``, and all again on
    every live node unless the box is certified.  At p = inf that needs
    C_j ``outside(box)`` <= _BOX_CERT n_j on every level, which leaves each max
    as it is.  At p < inf, S_j = n_j^p may miss O_j = C_j^p ``outside(box)``,
    which moves a_j = 2^(sj) n_j by at most a_j r_j, r_j = O_j / (p S_j) times
    (1 + O_j / S_j)^max(0, 1/p - 1); the l_q total B then moves by at most the
    sum of a_j^m r_j B^(1-m), m = min(q, 1) (convexity for q >= 1, concavity
    for q < 1), which must be at most _BOX_CERT B.
    """
    bands = _Bands(f, params, system, integration_level)
    p, m = params.p, min(params.q, 1.0)
    for box in (bands.box, bands.live):
        if params.p_inf:  # no weights carry the scale: the max applies it per axis
            exps = [e[:k] for e, k in zip(bands.exps, box)]
            norms = np.array([_scaled_max(g, exps) for _, g in bands.levels(box)])
        else:
            weights = [w[:k] for w, k in zip(bands.weights, box)]
            norms = np.array([_lp(g, weights, p) for _, g in bands.levels(box)])
        norm = _B_reduce(zip(bands.js, norms), params)
        left = (bands.C if params.p_inf else bands.C ** p) * bands.outside(box)
        if params.p_inf:
            certified = bool(np.all(left <= _BOX_CERT * norms))
        else:
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                S = norms ** p
                r = left / (p * S) * (1.0 + left / S) ** max(0.0, 1.0 / p - 1.0)
                a = 2.0 ** (params.s * np.array(bands.js)) * norms
                moved = np.where(left > 0.0, a ** m * r, 0.0)
            certified = math.fsum(moved) <= _BOX_CERT * norm ** m
        if certified:
            break
    return math.ldexp(norm, bands.shift)


def seminorm_P_star(f: CoeffFn, r: int) -> float:
    """sum_n (n+1)^r (sum_{|nu|=n} |f_nu|^2)^(1/2) over the finite degrees."""
    if r < 0:
        raise ValueError("order must be nonnegative")
    deg = total_degree_grid(f.coeffs.shape)
    energy = np.bincount(deg.ravel(), (np.abs(f.coeffs) ** 2).ravel())[: f.max_degree + 1]
    return float((np.arange(1.0, len(energy) + 1) ** r) @ np.sqrt(energy))


def multiplier_apply(m, f: CoeffFn) -> CoeffFn:
    """Diagonal multiplier: coefficient at nu scaled by m(|nu|)."""
    vals = np.asarray([m(k) for k in range(f.d * f.max_degree + 1)])
    deg = total_degree_grid(f.coeffs.shape)
    return CoeffFn(f.alpha, f.max_degree, f.coeffs * vals[deg])


class PiecewiseCellFn:
    """Piecewise-constant function on a tensor grid of cells in R_+^d."""

    def __init__(self, breaks, values, alpha):
        self.alpha = as_alpha(alpha)
        self.breaks = tuple(np.asarray(b, dtype=float) for b in breaks)
        if len(self.breaks) != self.alpha.d:
            raise ValueError("one breakpoint list per axis is required")
        for b in self.breaks:
            if b[0] < 0.0 or np.any(np.diff(b) <= 0.0):
                raise ValueError("breakpoints must be nonnegative and increasing")
        want = tuple(len(b) - 1 for b in self.breaks)
        self.values = np.asarray(values, dtype=float)
        if self.values.shape != want:
            raise ValueError(f"cell values must have shape {want}")

    @property
    def d(self) -> int:
        return self.alpha.d

    def _measures(self) -> list:
        return [_interval_measures(b, a) for b, a in zip(self.breaks, self.alpha)]

    def cell_measures(self) -> np.ndarray:
        return _outer(self._measures())

    def integral(self) -> float:
        return _fold_sum(self.values, self._measures())

    def with_values(self, values) -> "PiecewiseCellFn":
        return PiecewiseCellFn(self.breaks, values, self.alpha)


def _lattice_max(P_num: np.ndarray, P_mu: np.ndarray, t: float, d: int) -> np.ndarray:
    """out[i_1, .., i_d, ...] = the max over the lattice boxes B that contain cell
    (i_1, .., i_d) of (num(B) / mu(B))^(1/t), and 0, from the padded prefix sums P
    of num and mu over the first d axes, batched over the trailing axes.

    A sweep over the ends b of the first axis's intervals [a, b), from the last:
    best[a] keeps the largest value of the intervals from a swept so far (0 at
    first), so once the intervals that end at b have been taken into the rows
    a < b of best, the max over those rows is the max over every interval that
    contains cell b - 1, which is row b - 1 of the result.  At d = 1 the values of
    the intervals that end at b are their ratios, formed from the prefix
    differences P[b] - P[a] for every a < b at once.  A box's num is a sum of
    nonnegative terms, but its difference of prefix sums can round below 0 where
    the box holds only zeros (from d = 2 on); such a ratio counts as 0, as the
    max with 0 takes it at t = 1, so that no power of it is NaN.  Otherwise the strips
    P[b] - P[a] of every interval join the batch of one recursive call over the
    other axes, which leaves per strip the max over its boxes that contain each
    cell; the strips are ordered by end, so those that end at b are one block.
    Every temporary has one axis's length times the batch (the strips of the
    earlier axes included), and no (a, b) grid is formed.
    """
    n = len(P_num) - 1
    if d > 1:
        ends, starts = np.tril_indices(n + 1, -1)  # by end, then start
        strips = [np.ascontiguousarray(np.moveaxis(P[ends] - P[starts], 0, d - 1))
                  for P in (P_num, P_mu)]
        vals = np.moveaxis(_lattice_max(*strips, t, d - 1), d - 1, 0)
    best = np.zeros((n,) + tuple(m - 1 for m in P_num.shape[1:d]) + P_num.shape[d:])
    out = np.empty_like(best)
    for b in range(n, 0, -1):
        if d == 1:
            v = (P_num[b] - P_num[:b]) / (P_mu[b] - P_mu[:b])
            if t != 1.0:  # as 0 below 0, which only rounding gives, so no power is NaN
                np.maximum(v, 0.0, out=v)
                v **= 1.0 / t
        else:
            v = vals[b * (b - 1) // 2: b * (b + 1) // 2]
        np.maximum(best[:b], v, out=best[:b])
        np.max(best[:b], axis=0, keepdims=True, out=out[b - 1:b])
    return out


def maximal_fn(samples: PiecewiseCellFn, t: float) -> PiecewiseCellFn:
    """Cube-averaged maximal function restricted to lattice-aligned boxes.

    For each cell the supremum runs over all boxes whose corners lie on the
    breakpoint lattice and which contain the cell; by the doubling property
    of the weighted measure this differs from the full supremum by at most
    a fixed constant factor.  Any d: ``_lattice_max`` recurses over the axes,
    with the intervals of each axis batched into one call.
    """
    if t <= 0.0:
        raise ValueError("t must be positive")
    mu = samples.cell_measures()
    num = np.abs(samples.values) ** t * mu

    def padded_prefix(a):
        p = a
        for ax in range(a.ndim):
            p = np.cumsum(p, axis=ax)
        return np.pad(p, [(1, 0)] * a.ndim)

    return samples.with_values(_lattice_max(padded_prefix(num), padded_prefix(mu), t,
                                             samples.d))


def nikolskii_report(alpha, s: float = 0.0, n_set=(16, 64, 256)) -> dict:
    """Growth exponents of the Nikolskii-type inequalities on V_n for (p, q) = (inf, 2).

    On the Gauss-Laguerre rule of max(8n, 64) points, with F the table of
    F_0..F_n at the nodes xi_i, c the cubature coefficients and W_i = W(n; xi_i):

        plain    = sqrt(max_i sum_k F_k(xi_i)^2)
        weighted = sqrt(max_i W_i^(2s) F(xi_i)^T G^(-1) F(xi_i)),
        G        = sum_i c_i W_i^(2s-1) F(xi_i) F(xi_i)^T,

    which are the suprema over g in V_n of max_i |g(xi_i)| / ||g||_2 and
    max_i W_i^s |g(xi_i)| / ||W^(s-1/2) g||_2, both integrals taken by the
    rule (for the plain one G is the identity: the rule integrates every
    product of two V_n functions exactly).  By Cauchy-Schwarz they are
    attained, at g = F(xi_i*) and g = G^(-1) F(xi_i*) respectively.  G is
    never formed: with G = R^T R from the QR factorization of the weighted
    table, F^T G^(-1) F = |R^(-T) F|^2, which keeps the digits that solving
    with G loses (cond G is 1.9e11 at alpha = 2, n = 256, s = 0).  The
    growth exponents are fitted between the smallest and largest n.
    """
    av = as_alpha(alpha)
    if av.d != 1:
        raise NotImplementedError("report implemented for d = 1")

    def sup_ratios(nn: int):
        rule = gauss_laguerre(max(8 * nn, 64), av[0])
        F = laguerre_fn_batch(nn, av[0], rule.sqrt_nodes, "F")
        w = _axis_W(nn, av[0], rule.sqrt_nodes)
        R = np.linalg.qr((F * np.sqrt(rule.cub_coeffs * w ** (2.0 * s - 1.0))).T, mode="r")
        Y = np.linalg.solve(R.T, F)
        plain = np.sum(F * F, axis=0)
        weighted = w ** (2.0 * s) * np.sum(Y * Y, axis=0)
        return math.sqrt(plain.max()), math.sqrt(weighted.max())

    ns = sorted({int(nn) for nn in n_set})
    if len(ns) < 2:
        raise ValueError("the exponent fit needs at least two distinct n")
    rows = {nn: sup_ratios(nn) for nn in ns}

    def fit(idx):
        lo, hi = ns[0], ns[-1]
        return math.log(rows[hi][idx] / rows[lo][idx]) / math.log(hi / lo)

    return {
        "p": math.inf, "q": 2.0, "s": s, "n_set": ns,
        "max_ratio_plain": {nn: rows[nn][0] for nn in ns},
        "max_ratio_weighted": {nn: rows[nn][1] for nn in ns},
        "exponent_plain": fit(0),
        "exponent_weighted": fit(1),
        "theory_exponent_plain": (av.d + av.total) / 2.0,
        "theory_exponent_weighted": av.d / 4.0,
    }


def equivalence_report(system: NeedletSystem, params: NormParams, test_set,
                       space: str = "F", integration_level: int | None = None) -> dict:
    """Continuous-vs-sequence norm ratios over a set of coefficient functions.

    Levels 0..J reconstruct exactly only up to ``system.exact_degree()``, so a
    function with a nonzero coefficient of higher total degree is refused.
    """
    norms = {"F": (F_norm_cont, f_norm_seq), "B": (B_norm_cont, b_norm_seq)}
    if space not in norms:
        raise ValueError("space must be 'F' or 'B'")
    cont_norm, seq_norm = norms[space]
    j_int = system.J + 1 if integration_level is None else int(integration_level)
    rows, skipped = [], []
    for k, f in enumerate(test_set):
        top = int(total_degree_grid(f.coeffs.shape)[f.coeffs != 0].max(initial=0))
        if top > system.exact_degree():
            raise ValueError(f"function {k} has total degree {top}, above the degree "
                             f"{system.exact_degree()} the system reconstructs exactly")
        coeffs = analyze(system, f)
        cont = cont_norm(f, params, system, j_int)
        seq = seq_norm(coeffs, params, system)
        if cont == 0.0 or seq == 0.0:
            skipped.append(k)
            continue
        rows.append({"function_id": k, "cont_norm": cont, "seq_norm": seq,
                     "ratio": cont / seq})
    ratios = [r["ratio"] for r in rows]
    bracket = (min(ratios), max(ratios)) if ratios else (math.nan, math.nan)
    return {
        "space": space,
        "params": {"s": params.s, "rho": params.rho, "p": params.p, "q": params.q},
        "rows": rows,
        "skipped": skipped,
        "bracket": bracket,
        "width": (bracket[1] / bracket[0]) if ratios else math.nan,
    }


def make_test_corpus(system: NeedletSystem, count: int = 20, seed: int = 0) -> list[CoeffFn]:
    """Fixed corpus: band-limited units, random mixtures, decaying spectra."""
    deg = system.exact_degree()
    av = system.alpha
    rng = np.random.default_rng(seed)
    corpus: list[CoeffFn] = []
    shape = (deg + 1,) * av.d
    degrees = total_degree_grid(shape)
    # single-band spikes across the degree range
    for m in sorted(set(np.linspace(0, deg, min(count // 3 + 1, deg + 1), dtype=int).tolist())):
        arr = np.zeros(shape)
        mask = degrees == m
        arr[mask] = 1.0 / math.sqrt(int(np.count_nonzero(mask)))
        corpus.append(CoeffFn(av, deg, arr))
    # smooth decaying spectra
    while len(corpus) < 2 * count // 3:
        arr = rng.standard_normal(shape) * (1.0 + degrees) ** -1.5
        arr[degrees > deg] = 0.0
        corpus.append(CoeffFn(av, deg, arr / np.linalg.norm(arr.ravel())))
    # rough random content
    while len(corpus) < count:
        corpus.append(CoeffFn.random(av, deg, seed=int(rng.integers(1 << 31))))
    return corpus[:count]
