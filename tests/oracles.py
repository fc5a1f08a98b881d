"""Reference evaluations that only the tests read: a raw Laguerre polynomial,
cubature sums over a flattened grid, the filtered kernel summed directly
over one Laguerre-function family, a level's amplitudes laid out on the
cells of the sequence F-norm by an open-mesh index, needlet levels from
whole node tables, trimmed or not, analysis and synthesis that work out
every box, filter and block on each call, the continuous norms with every
band part formed on all live integration nodes, and the lattice maximal
function box by box."""

import itertools
import math

import numpy as np

from lagneed.kernels import _filter_band, _filter_degrees, _kernel_weights, _level_scale, cutoff_weights
from lagneed import needlets
from lagneed.needlets import CoeffFn, NeedletCoeffs, _band_rows, _live_box, _system_levels
from lagneed.spaces import (_axis_weight_powers, _B_reduce, _coeff_shift, _F_reduce, _lp,
                            _scaled_axes, _scaled_max)
from lagneed.special import (_TINY, _convolve_degrees, _flush_subnormal, _fold, as_alpha,
                             laguerre_fn_batch, total_degree_grid)


def laguerre_poly(n: int, alpha: float, x: float) -> float:
    """Raw Laguerre polynomial value by the forward three-term recurrence.

    Overflows for large n*x are a defect of the raw scale; the library's
    ``laguerre_fn_batch`` gives damped, overflow-free values.
    """
    if n < 0:
        raise ValueError("degree must be nonnegative")
    if alpha < 0.0:
        raise ValueError("alpha must be nonnegative")
    if x < 0.0:
        raise ValueError("argument must be nonnegative")
    prev = 1.0
    if n == 0:
        return prev
    cur = -x + alpha + 1.0
    for k in range(1, n):
        prev, cur = cur, ((2 * k + alpha + 1 - x) * cur - (k + alpha) * prev) / (k + 1)
    return cur


def cubature_integrate(grid, f, g=None):
    """Sum of c_xi f(xi) g(xi) over the grid, in deterministic order.

    f and g take a length-d point array; g defaults to 1.  Accumulation is
    exact (fsum), meeting the 1e-10 exactness contracts at any grid size.
    """
    pts = grid.points()
    fv = np.asarray([f(p) for p in pts])
    if g is not None:
        fv = fv * np.asarray([g(p) for p in pts])
    return cubature_integrate_values(grid, fv)


def cubature_integrate_values(grid, values):
    """As cubature_integrate, for values already evaluated in grid order."""
    c = grid.coeffs()
    vals = np.asarray(values).reshape(-1)
    if vals.shape != c.shape:
        raise ValueError("values do not match the grid layout")
    terms = c * vals
    if np.iscomplexobj(terms):
        return complex(math.fsum(terms.real.tolist()), math.fsum(terms.imag.tolist()))
    return math.fsum(terms.tolist())


def lambda_direct(n: int, alpha, a_hat, x, y, family: str) -> float:
    """sum_m a(m/n) sum_{|nu|=m} G_nu(x) G_nu(y) for the family G, summed directly;
    the oracle for ``lambda_tilde`` (family L) and ``lambda_star`` (family M)."""
    w = _kernel_weights(a_hat, n)
    xs, ys = np.atleast_1d(np.asarray(x, dtype=float)), np.atleast_1d(np.asarray(y, dtype=float))
    table = _convolve_degrees([laguerre_fn_batch(len(w) - 1, a, xi, family)
                               * laguerre_fn_batch(len(w) - 1, a, yi, family)
                               for a, xi, yi in zip(as_alpha(alpha), xs, ys)])
    return float(math.fsum(w * table))


def cells_by_open_mesh(amp: np.ndarray, maps) -> np.ndarray:
    """A level's amplitudes on the cells of the sequence F-norm: padded with a
    trailing 0 per axis and indexed by the open mesh of the per-axis tile
    indices ``maps``; the oracle for ``spaces._on_cells``."""
    return np.pad(amp, [(0, 1)] * amp.ndim)[np.ix_(*maps)]


def untrimmed_tables(system, j: int) -> list[np.ndarray]:
    """Level j's per-axis node tables c_k^(1/2) F_m(xi_k) as the recurrence gives
    them, without the Frobenius-floor trim that ``NeedletSystem`` applies."""
    g = system.grids[j]
    return [laguerre_fn_batch(system.band_degree(j), a, xi, "F") * np.sqrt(c)
            for a, xi, c in zip(system.alpha, g.axis_xi, g.axis_c)]


def dense_levels(system, f, tables) -> list[np.ndarray]:
    """Needlet levels of f from whole per-level node tables, every row and every
    node, one einsum per axis and no flush; ``tables`` is ``system.tables`` or the
    ``untrimmed_tables``."""
    levels = []
    for j, tabs in enumerate(tables):
        cap = min(system.band_degree(j), f.max_degree)
        block = f.coeffs[(slice(0, cap + 1),) * f.d]
        level = block * cutoff_weights(system.pair.a_hat, _level_scale(j),
                                       f.d * cap)[total_degree_grid(block.shape)]
        for tab in tabs:
            level = np.einsum("m...,mk->...k", level, tab[: cap + 1], optimize=True)
        levels.append(level)
    return levels


def may_be_subnormal(block, tabs) -> bool:
    """The exponent bound of ``needlets._may_be_subnormal`` with the tables' part
    worked out from ``tabs``: False when no entry of a fold of ``block`` into rows of
    those tables can be subnormal."""
    parts = np.abs(block.view(float) if np.iscomplexobj(block) else block)
    beta = float(np.min(parts, where=parts > 0, initial=math.inf))
    if not math.isfinite(beta):
        return True
    floors = (max(_TINY, needlets._TABLE_TRIM / math.sqrt(tab.size)) for tab in tabs)
    return sum(math.frexp(x)[1] - 53 for x in (beta, *floors)) < -1022


def per_call_analyze(system, f) -> NeedletCoeffs:
    """``analyze`` with each level's box, filter and exponent bound worked out on the
    call, as the library did before it kept them in plans; the same GEMMs on the same
    operands, so the same bits."""
    boxes = []
    for j in range(system.J + 1):
        box = _live_box(system, j, system.pair.a_hat, f.max_degree)
        if box is None:
            level = np.zeros((0,) * f.d, dtype=f.coeffs.dtype)
        else:
            rows, K = box
            block = _filter_degrees(f.coeffs[(rows,) * f.d], system.pair.a_hat,
                                    _level_scale(j), corner=f.d * rows.start)
            tabs = system.tables[j]
            level = _fold(block, [tab[rows, :k] for tab, k in zip(tabs, K)])
            if may_be_subnormal(block, tabs):
                _flush_subnormal(level)
        level.flags.writeable = False
        boxes.append(level)
    return NeedletCoeffs(tuple(boxes), system.hash, tuple((g.n_j,) * f.d for g in system.grids))


def per_call_synthesize(system, coeffs) -> CoeffFn:
    """``synthesize`` with each level's box, blocks of ``needlets._SYNTH_BLOCKS``, filter
    and 4^J clip worked out on the call, as the library did before it kept them in
    plans; the same GEMMs on the same operands, so the same bits."""
    boxes = _system_levels(coeffs, system)
    d, n_out, cut = system.d, system.max_degree(), system.pair.b_hat
    out = np.zeros((n_out + 1,) * d, dtype=np.result_type(float, *boxes))
    for j, level in enumerate(boxes):
        box = _live_box(system, j, cut, n_out)
        if box is None or not level.size:
            continue
        rows, K = box
        K = tuple(map(min, K, level.shape))
        tabs, reach, r0 = system.tables[j], system._reach[j], rows.start
        scale = _level_scale(j)
        hi = _filter_band(cut, scale)[1]
        top = min(hi, n_out)
        first = _fold(level[tuple(slice(0, k) for k in K)],
                      [tabs[0][rows, :K[0]].T] + [None] * (d - 1))
        step = -(-len(first) // (1 if d == 1 else needlets._SYNTH_BLOCKS))
        for a in range(r0, rows.stop, step):
            b = min(a + step, rows.stop)
            end = min(rows.stop, top - a - (d - 2) * r0 + 1)  # the later axes' row stop
            if end <= r0:
                break
            nodes = [min(k, int(r[end - 1])) for k, r in zip(K[1:], reach[1:])]
            part = _fold(first[(slice(a - r0, b - r0),) + tuple(slice(0, k) for k in nodes)],
                         [None] + [tab[r0:end, :k].T for tab, k in zip(tabs[1:], nodes)])
            corner = a + (d - 1) * r0
            degrees = total_degree_grid(part.shape)
            part = _filter_degrees(part, cut, scale, degrees, corner)
            if n_out < min(hi, corner + sum(part.shape) - d):  # 4^J clips the band here
                part[degrees > n_out - corner] = 0.0
            out[(slice(a, b),) + (slice(r0, end),) * (d - 1)] += part
    return CoeffFn._unchecked(system.alpha, n_out, out)


def live_node_cont_norms(f, params, system, level):
    """(F, B) continuous norms, F None at p = inf, with every band part formed on
    all live nodes of ``spaces._scaled_axes`` and no box: the norms' arithmetic
    on the whole live grid, so a norm whose box is not certified returns these
    bits.  The levels are formed one at a time, once for each norm."""
    xis, tables, weights, exps = _scaled_axes(f, params.p, system, level)
    shift, cut = _coeff_shift([f.coeffs]), system.pair.a_hat

    def levels():
        j = 0
        while _filter_band(cut, _level_scale(j))[0] <= f.max_degree:
            rows = _band_rows(f.d, cut, j, f.max_degree)
            if rows is not None:
                block = _filter_degrees(f.coeffs[(rows,) * f.d], cut, _level_scale(j),
                                        corner=f.d * rows.start)
                block = np.ldexp(block.real, -shift) + (1j * np.ldexp(block.imag, -shift)
                                                        if np.iscomplexobj(block) else 0.0)
                mats = [_flush_subnormal(t[rows] * w) for t, w in
                        zip(tables, _axis_weight_powers(xis, system.alpha, j, params.rho))]
                yield j, np.abs(_fold(block, mats))
            j += 1

    F = None if params.p_inf else math.ldexp(
        _F_reduce(levels(), weights, params) ** (1.0 / params.p), shift)
    norms = [(j, _scaled_max(g, exps) if params.p_inf else _lp(g, weights, params.p))
             for j, g in levels()]
    return F, math.ldexp(_B_reduce(norms, params), shift)


def padded_prefix(a: np.ndarray) -> np.ndarray:
    """Prefix sums over every axis, from the first, with a leading 0 on each."""
    for ax in range(a.ndim):
        a = np.cumsum(a, axis=ax)
    return np.pad(a, [(1, 0)] * a.ndim)


def lattice_box_maximal(samples, t: float) -> np.ndarray:
    """The lattice maximal function by brute force: for every lattice box, one at a
    time, (num(B) / mu(B))^(1/t) with num and mu read off the padded prefix sums
    by differences taken axis by axis from the first (the arithmetic of
    ``spaces.maximal_fn``), a ratio below 0 taken as 0, and per cell the max over
    the boxes that contain it, starting from 0; the oracle for ``maximal_fn``,
    bit for bit."""
    mu = samples.cell_measures()
    P_num, P_mu = padded_prefix(np.abs(samples.values) ** t * mu), padded_prefix(mu)
    out = np.zeros(mu.shape)
    for box in itertools.product(*(itertools.combinations(range(n + 1), 2) for n in mu.shape)):
        num, den = P_num, P_mu
        for ax, (a, b) in enumerate(box):  # one-entry slices keep arrays, so ** meets
            at = [(slice(None),) * ax + (slice(i, i + 1),) for i in (a, b)]  # numpy's array rule
            num, den = num[at[1]] - num[at[0]], den[at[1]] - den[at[0]]
        ratio = np.maximum(num / den, 0.0)  # below 0 only by rounding, which counts as 0
        ratio = ratio if t == 1.0 else ratio ** (1.0 / t)
        cells = tuple(slice(a, b) for a, b in box)
        out[cells] = np.maximum(out[cells], ratio)
    return out
